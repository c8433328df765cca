"""Discrete spaces: a finite graph with per-dimension cell registries.

A space is a graph ``G = (V, E)`` together with registries ``U_2, ..., U_k``
of cells.  An ``i``-cell is recorded by its vertex set and by its boundary,
a closed minimal cycle of ``(i-1)``-cells.  Vertices are dense integers,
edges are sorted pairs, and a cell id is the pair ``(dim, sorted vertex
tuple)``, so every iteration order in the package is deterministic.

Construction enforces the structural invariants once and numbers the
cells in sorted id order, so that int order is id order and a vertex's
number is the vertex itself.  The incidence index keeps the cells of each
dimension and at each vertex as ids, and four maps on numbers: ``_ids``
(number to id), ``_num`` (id to number), and each cell's boundary
``_bnd`` and cofaces ``_cof``, so that walks hash small ints, not nested
id tuples.  Cells sharing a face are found by one walk, from a cell's
boundary faces to their cofaces; nothing stores either adjacency.  The
load checks, ``check_regular`` and the two breadth-first walks run on
numbers.  The flood (``_flood``) asks whether cells are connected;
``face_components`` and ``_face_connected`` convert ids for it.  The
level walk (``_levels``) asks how far and across which face: it converts
its inputs and yields one id-keyed level at a time, each cell with the
cell and face that first reached it.  The two stay apart because the
flood keeps only the set of cells not yet reached, while a level walk
builds a dict per level (``check_regular`` on ``_levels`` was 20 to 65 %
slower on lattice spheres, best of 7 on a 2-vCPU Xeon VM).  Other modules
read incidence by id only: ``cofaces``, ``cells_containing``,
``_touching`` (the cells having a cell of a set as a face) and
``_adjacent`` (the cells sharing a face with one cell).  The flatness
check's readers run on numbers here: ``_star`` (the cells at a vertex, per
dimension), ``_ball`` (the vertices of a set at distance 1 or 2 from a
vertex) and ``_chain_in_link`` (the chain in a mediator's link).  A built
space is immutable but for one write-once store, ``_rotations``: each
vertex's oriented link cycle (its rotation), filled by ``deformation`` on
first use.  An ordered curve likewise keeps its edge set once built.
Each stored value is a pure function of the immutable index, so two
threads that fill one entry at once build equal values, and the single
dict item or attribute assignment that stores it leaves one of them whole;
every query reads the index and is a pure function, safe to run
concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InputError, PreconditionError

# A cell id is (dim, tuple of sorted vertex ids).
CellId = tuple


def edge_key(u: int, v: int) -> tuple:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Cell:
    """One i-cell: identity, dimension, vertex set, boundary cells.

    ``loop`` is only populated for 2-cells: the boundary vertices in cyclic
    order, giving the cell its reference orientation.
    """

    dim: int
    verts: tuple
    boundary: tuple
    loop: tuple | None = None

    @property
    def id(self) -> CellId:
        return (self.dim, self.verts)


@dataclass
class CheckReport:
    """Outcome of a verification pass: overall flag plus human-readable findings."""

    ok: bool
    problems: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def add(self, msg: str):
        self.ok = False
        self.problems.append(msg)


@dataclass(frozen=True)
class CellChain:
    """A collection of same-dimension cells: a path, a cycle, or a bare chain.

    Ordered dim-1 chains store the vertex walk in ``verts`` (no repetition of
    the closing vertex); their edge cells are derived.  Unordered chains store
    cell ids only and leave ``verts`` None.  A single-vertex "path" has one
    vertex and no cells.

    A dim-1 chain keeps the edge set ``edge_set()`` builds on its first
    call; no caller sets it, and it takes no part in equality, hashing or
    repr.  ``vertex_set()`` builds a new set on each call.
    """

    dim: int
    cells: tuple
    closed: bool = False
    verts: tuple | None = None
    _edges: frozenset | None = field(default=None, init=False, repr=False,
                                     compare=False)

    @staticmethod
    def path(space: "DiscreteSpace", vertices, closed: bool = False) -> "CellChain":
        vertices = tuple(vertices)
        if len(vertices) == 0:
            raise InputError("empty vertex path")
        if len(set(vertices)) != len(vertices):
            raise InputError("vertex path repeats a vertex: %r" % (vertices,))
        for v in vertices:
            space.require_vertex(v)
        pairs = list(zip(vertices, vertices[1:]))
        if closed:
            if len(vertices) < 3:
                raise InputError("closed path needs at least 3 vertices")
            pairs.append((vertices[-1], vertices[0]))
        return CellChain(1, _steps(space, pairs), closed=closed,
                         verts=vertices)

    @staticmethod
    def _spliced(space: "DiscreteSpace", chain: "CellChain", p: int, k: int,
                 bridge: tuple) -> "CellChain":
        """The curve ``chain`` with its k edges from position p (mod its
        length when closed) replaced by the walk from ``verts[p]`` through
        the new vertices ``bridge`` to ``verts[p + k]``.

        Only the spliced-in arc is checked: each of its steps must be an
        edge, and the bridge vertices must be distinct and off ``chain``,
        so the result is again a simple curve.  The kept vertices and edge
        cells are sliced from ``chain``.  A closed result runs from its
        smallest vertex toward the smaller neighbour, as ``walk`` orders a
        cycle; an open one keeps the start of ``chain``.
        """
        verts, cells = chain.verts, chain.cells
        if len(set(bridge)) != len(bridge) or \
                any(v in verts for v in bridge):
            raise InputError("spliced arc %r repeats a curve vertex"
                             % (bridge,))
        if chain.closed:
            verts, cells = verts[p:] + verts[:p], cells[p:] + cells[:p]
            p = 0
        arc = verts[p:p + 1] + bridge + verts[p + k:p + k + 1]
        verts = verts[:p + 1] + bridge + verts[p + k:]
        cells = cells[:p] + _steps(space, zip(arc, arc[1:])) + cells[p + k:]
        if chain.closed:
            m = verts.index(min(verts))
            verts, cells = verts[m:] + verts[:m], cells[m:] + cells[:m]
            if verts[-1] < verts[1]:
                verts, cells = verts[:1] + verts[:0:-1], cells[::-1]
        return CellChain(1, cells, closed=chain.closed, verts=verts)

    @staticmethod
    def of_cells(space: "DiscreteSpace", dim: int, cell_ids, closed: bool = False) -> "CellChain":
        ids = tuple(sorted(set(cell_ids)))
        for cid in ids:
            if cid not in space.cells or cid[0] != dim:
                raise InputError("unknown %d-cell %r" % (dim, cid))
        return CellChain(dim, ids, closed=closed)

    def vertex_set(self) -> frozenset:
        if self.verts is not None:
            return frozenset(self.verts)
        return frozenset(v for cid in self.cells for v in cid[1])

    def edge_set(self) -> frozenset:
        edges = self._edges
        if edges is None:
            if self.dim != 1:
                raise InputError("edge_set is only defined for dim-1 chains")
            edges = frozenset(cid[1] for cid in self.cells)
            object.__setattr__(self, "_edges", edges)
        return edges

    def reversed(self) -> "CellChain":
        if self.verts is None:
            return self
        return CellChain(self.dim, tuple(reversed(self.cells)), self.closed,
                         tuple(reversed(self.verts)))


def _steps(space: "DiscreteSpace", pairs) -> tuple:
    """The edge cells of the vertex steps ``pairs``; InputError at the
    first step that is not an edge."""
    cells = []
    for u, v in pairs:
        e = edge_key(u, v)
        if e not in space.edges:
            raise InputError("path step (%d, %d) is not an edge" % (u, v))
        cells.append((1, e))
    return tuple(cells)


@dataclass
class Subcomplex:
    """A downward-closed set of cells of a space, grouped by dimension."""

    by_dim: dict

    def cells(self):
        for d in sorted(self.by_dim):
            yield from self.by_dim[d]

    def vertices(self) -> frozenset:
        return frozenset(cid[1][0] for cid in self.by_dim.get(0, ()))

    def edges(self) -> frozenset:
        return frozenset(cid[1] for cid in self.by_dim.get(1, ()))

    def __contains__(self, cid) -> bool:
        return cid in self.by_dim.get(cid[0], ())


class DiscreteSpace:
    """The universe: graph plus registries, immutable after construction
    but for the write-once rotation store (see the module docstring)."""

    def __init__(self, n_vertices: int, edges, cells_by_dim: dict,
                 boundaries: dict | None = None, oriented: bool | None = None):
        """Build and validate a space.

        ``cells_by_dim`` maps dim >= 2 to an iterable of vertex tuples.
        ``boundaries`` may map a cell id to an explicit tuple of boundary
        cell ids; otherwise the boundary is derived from the registries.
        ``oriented`` declares orientability for spaces of dimension >= 3;
        for 2-dimensional spaces a consistency pass computes it.
        ``longest_loop``, the most vertices of a 2-cell loop (0 without
        2-cells), is recorded as the 2-cells register.
        """
        if n_vertices <= 0:
            raise InputError("a space needs at least one vertex")
        self.n_vertices = n_vertices
        self.edges = frozenset(edge_key(u, v) for u, v in edges)
        for u, v in self.edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices) or u == v:
                raise InputError("bad edge (%d, %d)" % (u, v))

        self.cells: dict = {}
        self._dims: dict = {}
        self._at_vertex: dict = {v: [] for v in range(n_vertices)}
        # numbered as they register, in id order: vertex v is number v
        self._ids, self._num, self._bnd, self._cof = [], {}, [], []
        for v in range(n_vertices):
            self._register(Cell(0, (v,), ()), ())
        for e in sorted(self.edges):
            self._register(Cell(1, e, ((0, (e[0],)), (0, (e[1],)))), e)

        dims = sorted(d for d in cells_by_dim if cells_by_dim[d])
        if any(d < 2 for d in dims):
            raise InputError("cells_by_dim only holds dimensions >= 2")
        self.top_dim = max(dims) if dims else 1
        self.longest_loop = 0
        # vertex -> its oriented link cycle, filled by deformation on first use
        self._rotations: dict = {}
        boundaries = boundaries or {}

        for d in dims:
            # validated in input order, so the first bad cell given is the
            # one reported, and then registered in id order
            seen, valid = set(), []
            for verts in cells_by_dim[d]:
                verts = tuple(sorted(set(verts)))
                if verts in seen:
                    raise InputError("duplicate %d-cell %r" % (d, verts))
                seen.add(verts)
                cid = (d, verts)
                bnd = boundaries.get(cid)
                if bnd is None:
                    # every (d-1)-cell inside the cell has one of its vertices
                    vs = set(verts)
                    bnd = {c for v in verts for c in self._at_vertex.get(v, ())
                           if c[0] == d - 1 and vs.issuperset(c[1])}
                bnd = tuple(sorted(bnd))
                valid.append((verts, bnd,
                              self._validate_boundary(d, verts, bnd)))
            for verts, bnd, loop in sorted(valid):
                self._register(Cell(d, verts, bnd, loop),
                               tuple(map(self._num.__getitem__, bnd)))
            if d == 2:
                self.longest_loop = max(len(verts) for verts, _, _ in valid)
        # frozen as tuples: the collector stops tracking a tuple of ints
        self._ids, self._bnd = tuple(self._ids), tuple(self._bnd)
        self._cof = tuple(map(tuple, self._cof))

        self._check_well_attachment()
        if self.top_dim == 2:
            self.oriented = self._orient_two_cells()
        else:
            self.oriented = bool(oriented) if oriented is not None else False

    def _register(self, cell: Cell, nums: tuple):
        cid = (cell.dim, cell.verts)
        self.cells[cid] = cell
        self._num[cid] = i = len(self._ids)
        self._ids.append(cid)
        self._dims.setdefault(cell.dim, []).append(cid)
        for v in cell.verts:
            self._at_vertex[v].append(cid)
        self._bnd.append(nums)
        self._cof.append([])
        for b in nums:
            self._cof[b].append(i)

    def _numbers(self, d: int) -> range:
        """The d-cells' numbers, consecutive since ids sort by dimension."""
        cs = self.cells_of_dim(d)
        first = self._num[cs[0]] if cs else 0
        return range(first, first + len(cs))

    # -- construction-time validation -------------------------------------

    def _validate_boundary(self, d: int, verts: tuple, bnd: tuple):
        """Check a d-cell's boundary; returns the vertex loop of a 2-cell."""
        cid = (d, verts)
        if not bnd:
            raise InputError("%r has an empty boundary" % (cid,))
        for b in bnd:
            if b not in self._num or b[0] != d - 1:
                raise InputError("%r: boundary entry %r is not a known %d-cell"
                                 % (cid, b, d - 1))
        cover = set()
        for b in bnd:
            cover.update(b[1])
        if cover != set(verts):
            raise InputError("%r: boundary cells cover %r, not the cell's "
                             "vertex set" % (cid, tuple(sorted(cover))))
        if d == 2:
            # Boundary must be a simple closed edge cycle with no chords in G;
            # its walk from the smallest vertex is the cell's loop.
            loop = walk(b[1] for b in bnd)
            if loop is None or len(loop) != len(bnd):
                raise InputError("%r: boundary edges do not form a simple "
                                 "closed cycle" % (cid,))
            for e in itertools.combinations(verts, 2):
                if e in self.edges and (1, e) not in bnd:
                    raise InputError("%r: chord %r makes the boundary cycle "
                                     "non-minimal" % (cid, e))
            return loop
        # Each (d-2)-face of the boundary lies in exactly two boundary cells
        # (a closed pseudo-cycle) and the cycle is connected.  No proper
        # subset of it is then closed: a face joining the subset to the rest
        # lies in only one of the subset's cells.
        if not (is_closed(self, bnd) and _face_connected(self, bnd)):
            raise InputError("%r: boundary is not a closed cycle of "
                             "%d-cells" % (cid, d - 1))
        return None

    def _check_well_attachment(self):
        """Any two same-dimension cells intersect in a connected vertex set.

        Pairs go in ascending (a, b) order of numbers.  One pass over the
        d-cells at a's vertices collects the vertices a shares with each
        later cell b.  A shared set that is the vertex set of a cell is
        connected: every boundary was checked connected, so every cell's
        vertex set is.  That covers one vertex (skipped), an edge and a
        shared face; only any other set is tested with ``_spans``.
        """
        cells, ids = self.cells, self._ids
        for d in range(2, self.top_dim + 1):
            numbers = self._numbers(d)
            # each vertex's d-cells, descending: the last one is the
            # smallest not yet visited
            at: dict = {}
            for c in reversed(numbers):
                for v in ids[c][1]:
                    at.setdefault(v, []).append(c)
            for a in numbers:
                shared: dict = {}
                for v in ids[a][1]:
                    later = at[v]
                    later.pop()
                    for b in later:
                        shared.setdefault(b, []).append(v)
                for b, inter in sorted([(b, tuple(vs)) for b, vs in
                                        shared.items() if len(vs) > 1]):
                    # a vertex, an edge or a simplex has one vertex more
                    # than its dimension: the first lookup finds most
                    if (len(inter) - 1, inter) not in cells and \
                            not any((k, inter) in cells for k in range(d)) \
                            and not _spans(self, inter,
                                           partial_graph(self, inter)):
                        raise InputError(
                            "cells %r and %r are not well-attached: their "
                            "intersection %r induces a disconnected subgraph"
                            % (ids[a], ids[b], inter))

    def _orient_two_cells(self) -> bool:
        """Flip 2-cell loops so adjacent cells traverse shared edges in
        opposite directions.  Returns False if no consistent choice exists:
        an edge lies in three cells or more, or two walk it the same way."""
        # the edges (u, v), u < v, each loop walks from u to v
        forward = {}
        for cid in self.cells_of_dim(2):
            loop = self.cells[cid].loop
            forward[cid] = {e for e in zip(loop, loop[1:] + loop[:1])
                            if e[0] < e[1]}
        flipped: dict = {}

        def walks(cid, e):
            # whether cid, as flipped, walks e forward
            return (e[1] in forward[cid]) != flipped[cid]

        # a cell walking the edge it was reached across the same way as
        # the cell that reached it is flipped; a root is not
        for root in self.cells_of_dim(2):
            if root not in flipped:
                for level in _levels(self, (root,)):
                    for cid, via in level.items():
                        flipped[cid] = via is not None and \
                            (via[1][1] in forward[cid]) == walks(*via)
        ids = self._ids
        for e in self._numbers(1):
            pair = self._cof[e]
            if len(pair) > 2 or len(pair) == 2 and \
                    walks(ids[pair[0]], ids[e]) == walks(ids[pair[1]], ids[e]):
                return False
        for cid, f in flipped.items():
            if f:
                c = self.cells[cid]
                self.cells[cid] = Cell(c.dim, c.verts, c.boundary,
                                       tuple(reversed(c.loop)))
        return True

    # -- basic accessors ---------------------------------------------------

    def require_vertex(self, v: int):
        if not (0 <= v < self.n_vertices):
            raise InputError("unknown vertex id %r" % (v,))

    def cells_of_dim(self, d: int) -> list:
        """The d-cells, sorted."""
        return self._dims.get(d, [])

    def vertex_neighbors(self, v: int) -> tuple:
        """The vertices joined to ``v`` by an edge, sorted: the far ends of
        its edges (its cofaces, sorted), read on each call."""
        self.require_vertex(v)
        return tuple(w for e in self.cofaces((0, (v,))) for w in e[1]
                     if w != v)

    def cells_containing(self, v: int, dim: int | None = None) -> list:
        """The cells having ``v`` as a vertex (only the ``dim``-cells when
        ``dim`` is given), sorted."""
        try:
            cs = self._at_vertex[v]
        except KeyError:
            raise InputError("unknown vertex id %r" % (v,)) from None
        return cs if dim is None else [c for c in cs if c[0] == dim]

    def cofaces(self, cid: CellId) -> list:
        """Cells of dimension dim+1 whose boundary contains ``cid``, sorted."""
        ids = self._ids
        try:
            return [ids[n] for n in self._cof[self._num[cid]]]
        except KeyError:
            raise InputError("unknown cell %r" % (cid,)) from None

    def cell_neighbors(self, cid: CellId) -> tuple:
        """Cells of the same dimension sharing a boundary face with ``cid``,
        sorted: the cofaces of its faces, read on each call."""
        if cid not in self.cells:
            raise InputError("unknown cell %r" % (cid,))
        return tuple(sorted(set(_adjacent(self, cid)) - {cid}))


# -- incidence -------------------------------------------------------------


def _touching(space: DiscreteSpace, cells) -> set:
    """The cells having a cell of ``cells`` as a face, unsorted: the one
    union of cofaces that callers outside this module read."""
    ids, num, cof = space._ids, space._num, space._cof
    return {ids[c] for f in cells for c in cof[num[f]]}


def _adjacent(space: DiscreteSpace, cid):
    """The same-dimension cells sharing a face with ``cid``, as ids, lazily
    and with repeats, ``cid`` itself once per face: one walk from its
    faces' numbers to their cofaces, no face id hashed, so a caller may
    stop at a match."""
    ids, cof = space._ids, space._cof
    return (ids[n] for f in space._bnd[space._num[cid]] for n in cof[f])


def _star(space: DiscreteSpace, p: int) -> list:
    """The numbers of the cells at vertex ``p``, one set per dimension up
    to the top.  Each set is the cofaces of the one below: a cell's faces
    cover its vertices, so every cell at p above a vertex has a face at p.
    """
    cof = space._cof
    star = [{p}]
    for _ in range(space.top_dim):
        star.append({n for c in star[-1] for n in cof[c]})
    return star


def _ball(space: DiscreteSpace, star: list, p: int, i: int, keep):
    """The vertices of ``keep`` above ``p`` at i-cell distance 1 or 2 from
    p, with that distance, and the mediators of each one at 2: the vertices
    of every face of a cell at p that also bounds a cell holding it.
    ``star`` is ``_star(space, p)``.  Every vertex of ``keep`` above p left
    out is at distance 3 or more, or unreachable.
    """
    ids, bnd, cof = space._ids, space._bnd, space._cof
    cells, through = star[i], star[i - 1]
    near = {v for c in cells for v in ids[c][1]}
    ball = {v: 1 for v in near if v > p and v in keep}
    meds: dict = {}
    # a face through p has only cells at p as cofaces, and those hold only
    # vertices of near
    for f in {f for c in cells for f in bnd[c] if f not in through}:
        for n in cof[f]:
            if n not in cells:
                for v in ids[n][1]:
                    if v > p and v in keep and v not in near:
                        meds.setdefault(v, set()).update(ids[f][1])
    return ball | dict.fromkeys(meds, 2), meds


def _chain_in_link(space: DiscreteSpace, m: int, verts, edges, up: dict):
    """The chain vertices and sorted chain edges of link(m), for a vertex m
    off the chain with vertex set ``verts`` and edge set ``edges``.

    The vertices are those of the cells at m.  A chain edge between two of
    them lies in the closure of a cell at m exactly when some cell above
    it, reached through cofaces, holds m.  ``up`` keeps each edge's
    vertices above it; a caller passes one dict for a whole check.
    """
    ids, cof = space._ids, space._cof
    ivs = frozenset(v for c in space.cells_containing(m) for v in c[1]
                    if v in verts)
    ies = []
    for v in ivs:
        for e in cof[v]:
            u, w = ids[e][1]
            if u == v and w in ivs and (u, w) in edges:
                above = up.get(e)
                if above is None:
                    above = up[e] = set(ids[e][1])
                    layer = cof[e]
                    while layer:
                        above.update(x for c in layer for x in ids[c][1])
                        layer = {n for c in layer for n in cof[c]}
                if m in above:
                    ies.append((u, w))
    return ivs, sorted(ies)


def face_counts(space: DiscreteSpace, cells) -> dict:
    """How many of ``cells`` hold each face of their boundaries."""
    count: dict = {}
    for cid in cells:
        for f in space.cells[cid].boundary:
            count[f] = count.get(f, 0) + 1
    return count


def is_closed(space: DiscreteSpace, cells) -> bool:
    """True iff the collection ``cells`` is non-empty and every face of its
    cells lies in exactly two of them: a closed pseudo-manifold."""
    return bool(cells) and all(n == 2 for n in
                               face_counts(space, cells).values())


def _flood(space: DiscreteSpace, start: int, rest: set,
           blocked=frozenset()) -> list:
    """``start`` and every cell of ``rest`` it reaches through shared
    boundary faces, never through a face in ``blocked``, in breadth-first
    order, all numbers.  Each reached cell is removed from ``rest``, which
    is all the walk keeps; the walk ends early once ``rest`` is empty.
    """
    bnd, cof = space._bnd, space._cof
    rest.discard(start)
    comp = [start]
    for cur in comp:
        if not rest:
            break
        for f in bnd[cur]:
            if blocked and f in blocked:
                continue
            for n in cof[f]:
                if n in rest:
                    rest.remove(n)
                    comp.append(n)
    return comp


def _levels(space: DiscreteSpace, sources, region=None,
            blocked=frozenset()):
    """The breadth-first levels from ``sources`` through shared boundary
    faces, one dict per level: each maps a cell reached for the first time
    to the first cell of the level before that reached it and their
    shared face, a source to None.  Only cells of ``region`` are entered
    when it is given, and no face in ``blocked`` is crossed.  A caller
    stops the walk by leaving its loop.  It walks numbers, yields ids."""
    ids, num, bnd, cof = space._ids, space._num, space._bnd, space._cof
    region = None if region is None else {num[c] for c in region}
    blocked = {num[f] for f in blocked} if blocked else ()
    level = dict.fromkeys(sources)
    cur = [num[c] for c in level]
    seen = set(cur)
    while level:
        yield level
        level, nxt = {}, []
        for c in cur:
            for f in bnd[c]:
                if f in blocked:
                    continue
                for n in cof[f]:
                    if n not in seen and (region is None or n in region):
                        seen.add(n)
                        nxt.append(n)
                        level[ids[n]] = (ids[c], ids[f])
        cur = nxt


def face_components(space: DiscreteSpace, cells,
                    blocked=frozenset()) -> list:
    """The components of the collection ``cells`` under adjacency through
    shared boundary faces, never through a face in ``blocked``.

    Each component is a sorted list, and components come in the order of
    their smallest cell.  The shared faces of 1-cells are vertices.
    """
    ids, num = space._ids, space._num
    rest = {num[c] for c in cells}
    blocked = {num[f] for f in blocked}
    return [[ids[n] for n in sorted(_flood(space, c, rest, blocked))]
            for c in sorted(rest) if c in rest]


def _face_connected(space: DiscreteSpace, cells) -> bool:
    """True iff ``cells`` is non-empty and one component under
    ``face_components``'s adjacency: one flood, nothing sorted."""
    rest = set(map(space._num.__getitem__, cells))
    if not rest:
        return False
    _flood(space, rest.pop(), rest)
    return not rest


def _spans(space: DiscreteSpace, verts, edges) -> bool:
    """True iff ``edges`` connect exactly the vertex set ``verts``: one
    vertex with no edges, or edges whose ends are ``verts`` and that are
    face-connected (an edge's faces are its ends)."""
    if not edges:
        return len(verts) == 1
    return {v for e in edges for v in e} == set(verts) and \
        _face_connected(space, [(1, e) for e in edges])


def closure(space: DiscreteSpace, cells, dim: int | None = None) -> frozenset:
    """``cells`` with every cell of their iterated boundaries; only the
    ``dim``-cells among them when ``dim`` is given."""
    out = set(cells)
    stack = list(out)
    while stack:
        for b in space.cells[stack.pop()].boundary:
            if b not in out:
                out.add(b)
                stack.append(b)
    if dim is not None:
        return frozenset(c for c in out if c[0] == dim)
    return frozenset(out)


def walk(edges, start: int | None = None) -> tuple | None:
    """The vertex sequence of an edge set that is one simple path or
    cycle; None for an empty, branched or split edge set.

    A path runs from ``start`` when it is given (None when ``start`` is
    not one of its ends), otherwise from its smaller end, and has one
    vertex more than edges.  A cycle runs from its smallest vertex toward
    the smaller neighbour and has as many vertices as edges; its closing
    edge joins the last vertex to the first.
    """
    nbrs: dict = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    ends = sorted(v for v, ns in nbrs.items() if len(ns) == 1)
    if not nbrs or any(len(ns) > 2 for ns in nbrs.values()):
        return None
    if ends:
        start = ends[0] if start is None else start
        if start not in ends:
            return None
        order = [start, nbrs[start][0]]
    else:
        start = min(nbrs)
        order = [start, min(nbrs[start])]
    while len(order) < len(nbrs):
        prev, ns = order[-2], nbrs[order[-1]]
        if len(ns) == 1:
            break
        nxt = ns[1] if ns[0] == prev else ns[0]
        if nxt == start:
            break
        order.append(nxt)
    return tuple(order) if len(order) == len(nbrs) else None


# -- operations ------------------------------------------------------------


def partial_graph(space: DiscreteSpace, s) -> frozenset:
    """Every edge of G with both endpoints in the vertex set ``s``."""
    s = set(s)
    for v in s:
        space.require_vertex(v)
    return frozenset(e for v in s for _, e in space.cells_containing(v, 1)
                     if e[0] in s and e[1] in s)


def is_minimal_cycle(space: DiscreteSpace, chain: CellChain) -> bool:
    """True iff no proper vertex subset of the closed cycle induces a cycle.

    Equivalent to the cycle having no chord in G: a chord yields a shorter
    cycle on a proper subset, and without chords every proper subset induces
    a forest of arcs.
    """
    if chain.dim != 1 or chain.verts is None or not chain.closed:
        raise InputError("is_minimal_cycle expects an ordered closed 1-chain")
    vs = chain.verts
    on_cycle = chain.edge_set()
    for u, v in itertools.combinations(vs, 2):
        e = edge_key(u, v)
        if e in space.edges and e not in on_cycle:
            return False
    return True


def star(space: DiscreteSpace, xs) -> Subcomplex:
    """All cells whose vertex set meets ``xs``, closed under boundaries."""
    xs = set(xs)
    if not xs:
        raise InputError("star of an empty vertex set")
    for v in xs:
        space.require_vertex(v)
    picked = closure(space, (cid for v in sorted(xs)
                             for cid in space.cells_containing(v)))
    by_dim: dict = {}
    for cid in sorted(picked):
        by_dim.setdefault(cid[0], []).append(cid)
    return Subcomplex({d: tuple(cs) for d, cs in by_dim.items()})


def link(space: DiscreteSpace, xs) -> Subcomplex:
    """The star of ``xs`` with every cell touching ``xs`` removed."""
    xs = set(xs)
    st = star(space, xs)
    by_dim: dict = {}
    for cid in st.cells():
        if not xs.intersection(cid[1]):
            by_dim.setdefault(cid[0], []).append(cid)
    return Subcomplex({d: tuple(cs) for d, cs in by_dim.items()})


def edge_set_shape(edges) -> str:
    """Classify an edge set: 'path', 'cycle', 'empty', or 'other'."""
    edges = set(edges)
    if not edges:
        return "empty"
    order = walk(edges)
    if order is None:
        return "other"
    return "cycle" if len(order) == len(edges) else "path"


def check_regular(space: DiscreteSpace) -> CheckReport:
    """Verify the four regularity clauses of a k-manifold candidate, with
    k the space's top dimension.

    (1) top cells pairwise connected through shared (k-1)-cells,
    (2) every (k-1)-cell lies in one or two k-cells,
    (3) nothing above dimension k,
    (4) every vertex link is connected at the (k-1)-cell level.
    Violations are reported, never raised.
    """
    k = space.top_dim
    report = CheckReport(True)
    ids, bnd, cof = space._ids, space._bnd, space._cof
    for f in space._numbers(k - 1):
        n = len(cof[f])
        if n not in (1, 2):
            report.add("clause 2: %d-cell %r lies in %d %d-cells"
                       % (k - 1, ids[f], n, k))

    top = space._numbers(k)
    if not top:
        report.add("clause 1: the space has no %d-cells" % k)
    elif (reached := len(_flood(space, top[0], set(top)))) < len(top):
        report.add("clause 1: %d-cells are not (k-1)-connected "
                   "(%d of %d reachable)" % (k, reached, len(top)))

    # clause 3 holds by construction: k is the highest registry

    if k == 1:
        # links in a 1-manifold are vertex pairs (0-spheres); there is no
        # connectivity left to check
        return report
    # a vertex's link (k-1)-cells: the faces of its k-cells avoiding it
    links = [set() for _ in range(space.n_vertices)]
    for c in top:
        for f in bnd[c]:
            face = ids[f][1]
            for v in ids[c][1]:
                if v not in face:
                    links[v].add(f)
    for v, lk in enumerate(links):
        if lk:
            _flood(space, lk.pop(), lk)
            if lk:
                report.add("clause 4: link of vertex %d is disconnected" % v)
        elif space.cells_containing(v, 1):
            report.add("clause 4: link of vertex %d has no %d-cells"
                       % (v, k - 1))
    return report


def is_closed_manifold(space: DiscreteSpace) -> bool:
    """True iff every (k-1)-cell lies in exactly two k-cells."""
    reg = check_regular(space)
    if not reg:
        raise PreconditionError("space is not a regular manifold: %s"
                                % "; ".join(reg.problems))
    # clause 2 leaves every face in one or two top cells
    return is_closed(space, space.cells_of_dim(space.top_dim))


def is_discrete_curve(space: DiscreteSpace, chain: CellChain) -> bool:
    """True iff no cell of dimension >= 2 has all its vertices on the chain."""
    vs = chain.vertex_set()
    return not any(cid[0] >= 2 and set(cid[1]) <= vs
                   for v in vs for cid in space.cells_containing(v))


def orientation_of_cycle(space: DiscreteSpace, cycle: CellChain, sub_arc) -> str:
    """'cw' if ``sub_arc`` follows the cycle's stored orientation, else 'ccw'."""
    if not (cycle.closed and cycle.verts):
        raise InputError("reference cycle must be an ordered closed chain")
    arc = tuple(sub_arc)
    if len(arc) < 2:
        raise InputError("sub_arc needs at least two vertices")
    ring = cycle.verts
    n = len(ring)
    pos = {v: i for i, v in enumerate(ring)}
    if any(v not in pos for v in arc):
        raise InputError("sub_arc leaves the cycle")
    fwd = all(pos[arc[i + 1]] == (pos[arc[i]] + 1) % n for i in range(len(arc) - 1))
    if fwd:
        return "cw"
    bwd = all(pos[arc[i + 1]] == (pos[arc[i]] - 1) % n for i in range(len(arc) - 1))
    if bwd:
        return "ccw"
    raise InputError("sub_arc is not an arc of the cycle")
