"""The DSC line format, trace files, and OFF export.

A complex file is line oriented and self describing::

    DSC 1
    dim K
    oriented 0|1
    vertices N
    edges M
    u v                 (M lines)
    cells i C           (for each i in 2..K)
    v0 v1 .. | b0 b1 .. (C lines; boundary indexes edges for i=2,
                         otherwise the previous cell list)
    chain <name> <dim>
    i0 i1 ..            (cell indices at that dimension; vertex ids for 0;
                         blank for an empty chain)

A trace file embeds the complex it refers to, then the removal sequence.
Nothing but blank lines may follow the last chain of a complex file or the
last step of a trace file.
Serialization is canonical: sorted edges, cells sorted by vertex tuple,
chains sorted by name, so loading and saving again is byte identical.

An OFF export draws every vertex at synthetic coordinates from
``spectral_layout``: four anchors spread by breadth-first distance, then a
fixed number of barycentric sweeps.  The rule uses exact constants and
Python float arithmetic in a fixed order only, so the coordinates are the
same wherever floats are IEEE 754 doubles, and it runs in time linear in
the vertices and edges.
"""

from __future__ import annotations

import math

from .complexes import CellChain, DiscreteSpace, edge_key, is_closed
from .deformation import edges_to_curve
from .errors import InputError, TopologyError
from .metrics import _distances
from .separation import ContractionTrace, Removal, _submanifold_cells, replay

FORMAT_VERSION = 1


class ParseError(TopologyError):
    """Malformed file; carries the 1-based line number."""

    def __init__(self, message, line):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


# -- saving ------------------------------------------------------------------


def save_complex(space: DiscreteSpace, chains: dict | None = None) -> str:
    lines = ["DSC %d" % FORMAT_VERSION,
             "dim %d" % space.top_dim,
             "oriented %d" % (1 if space.oriented else 0),
             "vertices %d" % space.n_vertices]
    edges = sorted(space.edges)
    lines.append("edges %d" % len(edges))
    lines.extend("%d %d" % e for e in edges)
    index: dict = {(1, e): i for i, e in enumerate(edges)}
    for d in range(2, space.top_dim + 1):
        cells = space.cells_of_dim(d)
        lines.append("cells %d %d" % (d, len(cells)))
        for i, cid in enumerate(cells):
            index[cid] = i
        for cid in cells:
            bnd = sorted(index[b] for b in space.cells[cid].boundary)
            lines.append("%s | %s" % (" ".join(map(str, cid[1])),
                                      " ".join(map(str, bnd))))
    for name in sorted(chains or {}):
        chain = chains[name]
        degenerate = chain.dim == 0 or (chain.dim == 1 and not chain.cells)
        if degenerate and not chain.vertex_set():
            raise InputError("chain %r: a %d-chain needs a cell or a vertex"
                             % (name, chain.dim))
        lines.append("chain %s %d" % (name, 0 if degenerate else chain.dim))
        if degenerate:
            lines.append(" ".join(str(v) for v in sorted(chain.vertex_set())))
        elif chain.dim == 1:
            lines.append(" ".join(
                str(index[(1, e)]) for e in sorted(chain.edge_set())))
        else:
            lines.append(" ".join(
                str(index[cid]) for cid in sorted(chain.cells)))
    return "\n".join(lines) + "\n"


def save_trace(space: DiscreteSpace, s: CellChain,
               trace: ContractionTrace, chains: dict | None = None) -> str:
    chains = dict(chains or {})
    chains.setdefault("surface", s)
    body = save_complex(space, chains)
    k = space.top_dim
    top_index = {cid: i for i, cid in enumerate(space.cells_of_dim(k))}
    face_index = {cid: i for i, cid in enumerate(space.cells_of_dim(k - 1))}
    lines = ["trace %s %d" % (trace.direction, len(trace.removals)),
             "seed %d" % top_index[trace.seed]]
    for r in trace.removals:
        lines.append("step %d | %s | %s" % (
            top_index[r.cell],
            " ".join(str(face_index[f]) for f in sorted(r.replaced)),
            " ".join(str(face_index[f]) for f in sorted(r.replacement))))
    # the body keeps its last newline: a blank last line is an empty chain
    return "DSCTRACE %d\n" % FORMAT_VERSION + body + "\n".join(lines) + "\n"


# -- loading -----------------------------------------------------------------


class _Reader:
    def __init__(self, text: str):
        self.lines = [line.strip() for line in text.splitlines()]
        self.pos = 0

    def next(self, what: str) -> str:
        """The next non-blank line."""
        while self.pos < len(self.lines) and not self.lines[self.pos]:
            self.pos += 1
        return self.line(what)

    def line(self, what: str) -> str:
        """The next line as it is, blank or not."""
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file, expected %s" % what,
                             len(self.lines))
        self.pos += 1
        return self.lines[self.pos - 1]

    def peek(self) -> str | None:
        i = self.pos
        while i < len(self.lines) and not self.lines[i]:
            i += 1
        return self.lines[i] if i < len(self.lines) else None

    @property
    def line_no(self) -> int:
        return self.pos

    def end(self, what: str):
        """Raise at the first line left that is not blank."""
        for i in range(self.pos, len(self.lines)):
            if self.lines[i]:
                raise ParseError("unexpected %r after the %s"
                                 % (self.lines[i], what), i + 1)


def _ints(text: str, reader: _Reader) -> list:
    try:
        return list(map(int, text.split()))
    except ValueError:
        raise ParseError("expected integers, got %r" % text, reader.line_no)


def _int(token: str, reader: _Reader, what: str,
         bound: int | None = None) -> int:
    """The checked reader of every header integer and every index: a
    non-negative integer, below ``bound`` when one is given."""
    try:
        value = int(token)
    except ValueError:
        raise ParseError("%s: expected an integer, got %r" % (what, token),
                         reader.line_no) from None
    if value < 0 or (bound is not None and value >= bound):
        raise ParseError("%s %d out of range" % (what, value), reader.line_no)
    return value


def _indices(text: str, reader: _Reader, what: str, bound: int) -> list:
    """The indices on one line, each checked as ``_int`` checks it: parsed
    in one pass, and token by token only to report the first bad one."""
    try:
        values = list(map(int, text.split()))
        if not values or (min(values) >= 0 and max(values) < bound):
            return values
    except ValueError:
        pass
    return [_int(t, reader, what, bound) for t in text.split()]


def load_complex(text: str):
    """Parse a DSC document into a space plus its named chains."""
    reader = _Reader(text)
    space, chains, _ = _load_complex_body(reader)
    reader.end("complex")
    return space, chains


def _expect(reader: _Reader, keyword: str, fields: int | None) -> list:
    """The fields after ``keyword`` on the next line: exactly ``fields``,
    or any number when it is None."""
    line = reader.next(keyword)
    parts = line.split()
    if not parts or parts[0] != keyword:
        raise ParseError("expected %r, got %r" % (keyword, line),
                         reader.line_no)
    if fields is not None and len(parts) != fields + 1:
        raise ParseError("%r takes %d field(s), got %r"
                         % (keyword, fields, line), reader.line_no)
    return parts[1:]


def _load_complex_body(reader: _Reader):
    head = _expect(reader, "DSC", 1)
    if head != [str(FORMAT_VERSION)]:
        raise ParseError("unsupported format version %r" % (head,),
                         reader.line_no)
    dim = _int(_expect(reader, "dim", 1)[0], reader, "dim")
    oriented = bool(_int(_expect(reader, "oriented", 1)[0], reader,
                         "oriented", 2))
    n = _int(_expect(reader, "vertices", 1)[0], reader, "vertices")
    m = _int(_expect(reader, "edges", 1)[0], reader, "edges")
    edges = []
    for _ in range(m):
        vals = _ints(reader.next("an edge"), reader)
        if len(vals) != 2:
            raise ParseError("an edge needs two vertex ids", reader.line_no)
        edges.append(tuple(vals))

    cells_by_dim: dict = {}
    boundaries: dict = {}
    edge_list = [edge_key(*e) for e in edges]
    # the cell ids of each dimension's rows, in file order: every index in
    # the file (boundaries, chains, traces) counts rows
    rows = {1: [(1, e) for e in edge_list]}
    for d in range(2, dim + 1):
        parts = _expect(reader, "cells", 2)
        if _int(parts[0], reader, "cell dimension") != d:
            raise ParseError("expected cells of dimension %d" % d,
                             reader.line_no)
        count = _int(parts[1], reader, "cell count")
        faces = rows[d - 1]
        ids = []
        for _ in range(count):
            left, bar, right = reader.next("a cell row").partition("|")
            if not bar:
                raise ParseError("cell rows are 'verts | boundary'",
                                 reader.line_no)
            verts = tuple(sorted(_ints(left, reader)))
            bnd = tuple([faces[i] for i in _indices(
                right, reader, "boundary index", len(faces))])
            if len(set(verts)) != len(verts):
                raise ParseError("a cell row repeats vertex %d" % next(
                    u for u, w in zip(verts, verts[1:]) if u == w),
                    reader.line_no)
            cid = (d, verts)
            boundaries[cid] = bnd
            ids.append(cid)
        cells_by_dim[d] = [cid[1] for cid in ids]
        rows[d] = ids

    raw_chains = []
    while True:
        nxt = reader.peek()
        if nxt is None or not nxt.startswith("chain "):
            break
        parts = _expect(reader, "chain", 2)
        name = parts[0]
        cdim = _int(parts[1], reader, "chain dimension", dim + 1)
        bound = n if cdim == 0 else len(rows[cdim])
        # an empty chain's index line is blank
        idx = _indices(reader.line("chain indices"), reader,
                       "chain index", bound)
        raw_chains.append((name, cdim, idx))

    space = DiscreteSpace(n, edges, cells_by_dim, boundaries,
                          oriented=oriented)

    chains = {}
    for name, cdim, idx in raw_chains:
        if cdim == 0:
            if len(idx) != 1:
                raise InputError("chain %r: a 0-chain is one vertex" % name)
            chains[name] = CellChain.path(space, (idx[0],))
        elif cdim == 1:
            es = [edge_list[i] for i in idx]
            chains[name] = _edges_to_chain(space, es, name)
        else:
            cells = [rows[cdim][i] for i in idx]
            closed = not cells or is_closed(space, cells)
            chains[name] = CellChain.of_cells(space, cdim, cells,
                                              closed=closed)
    return space, chains, rows


def _edges_to_chain(space: DiscreteSpace, edges, name: str) -> CellChain:
    chain = edges_to_curve(space, edges)
    if chain is None:
        raise InputError("chain %r is not a simple path or cycle" % name)
    return chain


def load_trace(text: str):
    """Parse a DSCTRACE document: (space, chains, trace)."""
    reader = _Reader(text)
    head = _expect(reader, "DSCTRACE", 1)
    if head != [str(FORMAT_VERSION)]:
        raise ParseError("unsupported trace version %r" % (head,),
                         reader.line_no)
    space, chains, rows = _load_complex_body(reader)
    if "surface" not in chains:
        raise ParseError("trace file lacks the 'surface' chain",
                         reader.line_no)
    parts = _expect(reader, "trace", 2)
    direction = parts[0]
    if direction not in ("contract", "expand"):
        raise ParseError("trace direction %r is not 'contract' or 'expand'"
                         % direction, reader.line_no)
    count = _int(parts[1], reader, "removal count")
    k = space.top_dim
    top = rows[k]
    faces = rows[k - 1] if k >= 2 else space.cells_of_dim(0)
    seed = top[_int(_expect(reader, "seed", 1)[0], reader, "seed", len(top))]
    removals = []
    for _ in range(count):
        parts = _expect(reader, "step", None)
        row = " ".join(parts)
        bits = [b.strip() for b in row.split("|")]
        if len(bits) != 3:
            raise ParseError("step rows are 'step i | replaced | "
                             "replacement'", reader.line_no)
        cell = top[_int(bits[0], reader, "step cell", len(top))]
        replaced = frozenset(faces[i] for i in _indices(
            bits[1], reader, "face index", len(faces)))
        replacement = frozenset(faces[i] for i in _indices(
            bits[2], reader, "face index", len(faces)))
        removals.append(Removal(cell, replaced, replacement))
    reader.end("trace")
    first = _submanifold_cells(space, chains["surface"])
    trace = ContractionTrace(seed, first, tuple(removals), direction)
    replay(trace)
    return space, chains, trace


# -- OFF export ---------------------------------------------------------------


# The corners of a regular tetrahedron, one per anchor, and the number of
# smoothing sweeps: both exact, so the layout is the same on every build.
_CORNERS = ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0),
            (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0))
_SWEEPS = 30


def _round6(x: float) -> float:
    """``x`` to 6 decimals as ``rint(x * 1e6) / 1e6``: half to even, a zero
    keeps its sign, and a product too large for a float stays infinite."""
    y = x * 1e6
    return (math.copysign(round(y), y) if math.isfinite(y) else y) / 1e6


def spectral_layout(space: DiscreteSpace) -> list:
    """Deterministic 3D coordinates, one ``(x, y, z)`` tuple per vertex: a
    barycentric layout after Tutte ("How to draw a graph", 1963), in time
    and memory linear in the vertices and edges.

    - Anchors: vertex 0, then up to three more, each the vertex farthest
      from the anchors so far (its nearest anchor the farthest away),
      smallest id first on a tie.  A space of fewer than four vertices
      anchors them all.
    - Start: from 0.0, each anchor in turn subtracts the vertex's edge
      distance to it (``metrics._distances`` at level 1) times its
      tetrahedron corner (``_CORNERS``).  A vertex the walk from an anchor
      cannot reach, as in another component or with no edge at all,
      counts as ``n_vertices`` away from it.
    - Sweeps: ``_SWEEPS`` Jacobi sweeps move every vertex that is not an
      anchor and has an edge to the mean of its neighbours' positions
      before the sweep, summed from 0.0 in ascending neighbour id.
      Anchors and vertices without an edge keep their start.

    Every step is one float ``+ - * /`` in a fixed order, so the
    coordinates are the same on every build; ``_round6`` rounds them.
    The name is older than the rule: the bench's traced spans look the
    layout up as ``spectral_layout``.
    """
    n = space.n_vertices
    neighbors = [space.vertex_neighbors(v) for v in range(n)]
    moves = [bool(ns) for ns in neighbors]
    pos = [(0.0, 0.0, 0.0)] * n
    nearest = [n + 1] * n
    for corner in _CORNERS[:n]:
        a = max(range(n), key=nearest.__getitem__)
        moves[a] = False
        dist = dict(_distances(space, a, 1))
        for v in range(n):
            d = dist.get(v, n)
            pos[v] = tuple([p - d * c for p, c in zip(pos[v], corner)])
            nearest[v] = min(nearest[v], d)
    movers = [(v, neighbors[v]) for v in range(n) if moves[v]]
    for _ in range(_SWEEPS):
        before = pos[:]
        for v, ns in movers:
            sx = sy = sz = 0.0
            for u in ns:
                x, y, z = before[u]
                sx, sy, sz = sx + x, sy + y, sz + z
            pos[v] = (sx / len(ns), sy / len(ns), sz / len(ns))
    return [tuple(map(_round6, p)) for p in pos]


def off_snapshot(space: DiscreteSpace, cells, coords: list) -> str:
    """An OFF document showing the given cells as faces, in sorted order.

    Cells of dimension 1 are written as degenerate two-vertex faces so a
    curve snapshot stays viewable.
    """
    return next(off_snapshots(space, (sorted(cells),), coords))


def off_snapshots(space: DiscreteSpace, snapshots, coords: list):
    """One ``off_snapshot`` document per cell sequence of ``snapshots``,
    in order, each with its faces in the order given.

    The vertex block is the same in every document, so it is formatted
    once, and so is each cell's face line.
    """
    vertex_block = "".join("%.6f %.6f %.6f\n" % coords[v]
                           for v in range(space.n_vertices))
    line_of: dict = {}
    for cells in snapshots:
        faces = []
        for cid in cells:
            if cid not in line_of:
                loop = space.cells[cid].loop if cid[0] >= 2 else None
                f = loop or cid[1]
                line_of[cid] = "%d %s\n" % (len(f), " ".join(map(str, f)))
            if cid[0] >= 1:
                faces.append(line_of[cid])
        yield ("OFF\n%d %d 0\n" % (space.n_vertices, len(faces))
               + vertex_block + "".join(faces))
