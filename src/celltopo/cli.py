"""Command line front end.

Exit codes are a stable contract: 0 success, 1 domain violation (failed
check, missing chain, wrong component count), 2 parse error or a file
that cannot be read or written, 3 a configuration the contraction
construction does not support.
"""

from __future__ import annotations

import argparse
import sys

from . import io as dio
from .complexes import check_regular, is_closed
from .errors import InputError, PreconditionError, UnsupportedConfiguration
from .flatness import _collar, is_locally_flat
from .separation import (_submanifold_cells, components_of_complement,
                         contract_to_cell, verify_contraction_trace)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print("error: cannot read %s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print("error: cannot write %s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _load(path: str):
    text = _read(path)
    try:
        return dio.load_complex(text)
    except dio.ParseError as exc:
        print("parse error in %s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except InputError as exc:
        print("invalid complex in %s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(EXIT_VIOLATION)


def _pick_chain(chains: dict, name: str | None):
    if name is None:
        if len(chains) == 1:
            return next(iter(chains.values()))
        print("error: --chain is required (available: %s)"
              % ", ".join(sorted(chains)) if chains else
              "error: the file has no chains", file=sys.stderr)
        raise SystemExit(EXIT_VIOLATION)
    if name not in chains:
        print("error: no chain named %r (available: %s)"
              % (name, ", ".join(sorted(chains)) or "none"), file=sys.stderr)
        raise SystemExit(EXIT_VIOLATION)
    return chains[name]


def cmd_check(args) -> int:
    space, chains = _load(args.file)
    report = check_regular(space)
    print("vertices %d edges %d top-dim %d oriented %s"
          % (space.n_vertices, len(space.edges), space.top_dim,
             "yes" if space.oriented else "no"))
    for d in range(2, space.top_dim + 1):
        print("cells dim %d: %d" % (d, len(space.cells_of_dim(d))))
    if chains:
        print("chains: %s" % ", ".join(sorted(chains)))
    if report:
        # clause 2 leaves every face in one or two top cells
        closed = is_closed(space, space.cells_of_dim(space.top_dim))
        print("regular: pass")
        print("closed: %s" % ("yes" if closed else "no"))
        return EXIT_OK
    print("regular: FAIL")
    for p in report.problems:
        print("  violation: %s" % p)
    return EXIT_VIOLATION


def cmd_flat(args) -> int:
    space, chains = _load(args.file)
    chain = _pick_chain(chains, args.chain)
    try:
        report = is_locally_flat(space, chain)
    except (InputError, PreconditionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    if not report:
        print("not locally flat:")
        for p in report.problems:
            print("  %s" % p)
        return EXIT_VIOLATION
    print("locally flat")
    try:
        cert = _collar(space, chain)
    except PreconditionError as exc:
        print("collar: none (%s)" % exc)
        return EXIT_OK
    for i, sheet in enumerate(cert.sheets):
        print("collar sheet %d: %s" % (i + 1, " ".join(map(str,
                                                            sorted(sheet)))))
    return EXIT_OK


def _separation(space, chain, warn_only: bool):
    report = components_of_complement(space, chain)
    for w in report.warnings:
        print("warning: %s" % w, file=sys.stderr)
    if report.warnings and not warn_only:
        print("error: separating chain is not locally flat "
              "(use --warn-only-flatness to proceed)", file=sys.stderr)
        raise SystemExit(EXIT_VIOLATION)
    return report


def cmd_separate(args) -> int:
    space, chains = _load(args.file)
    chain = _pick_chain(chains, args.chain)
    try:
        # separation is always computed; a non-flat chain only warns, the
        # component count alone decides the exit code
        report = _separation(space, chain, warn_only=True)
    except (InputError, PreconditionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    lines = ["components %d" % len(report.components)]
    for i, comp in enumerate(report.components):
        lines.append("component %d size %d boundary %s"
                     % (i, len(comp),
                        "common" if report.boundary_ok[i] else "partial"))
    for (a, b), parity in sorted(report.crossing_parities.items()):
        lines.append("parity %d %d %d" % (a, b, parity))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    print(text, end="")
    return EXIT_OK if report.exactly_two else EXIT_VIOLATION


def cmd_contract(args) -> int:
    space, chains = _load(args.file)
    chain = _pick_chain(chains, args.chain)
    try:
        report = _separation(space, chain, args.warn_only_flatness)
    except (InputError, PreconditionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    idx = args.component if args.component is not None else 0
    if not (0 <= idx < len(report.components)):
        print("error: component index %d out of range (%d components)"
              % (idx, len(report.components)), file=sys.stderr)
        return EXIT_VIOLATION
    component = report.components[idx]
    k = space.top_dim
    barrier = _submanifold_cells(space, chain)
    if args.seed is not None:
        top = space.cells_of_dim(k)
        if not (0 <= args.seed < len(top)):
            print("error: seed index %d out of range" % args.seed,
                  file=sys.stderr)
            return EXIT_VIOLATION
        seed = top[args.seed]
    else:
        on_boundary = sorted(
            c for c in component
            if frozenset(space.cells[c].boundary) & barrier)
        if not on_boundary:
            print("error: no component cell touches the chain",
                  file=sys.stderr)
            return EXIT_VIOLATION
        seed = on_boundary[0]
    try:
        trace = contract_to_cell(space, component, chain, seed)
    except UnsupportedConfiguration as exc:
        print("unsupported configuration: %s" % exc, file=sys.stderr)
        if exc.cell is not None:
            print("offending cell: %s" % (exc.cell,), file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (InputError, PreconditionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    verdict = verify_contraction_trace(space, component, chain, trace)
    if not verdict:
        print("internal error: emitted trace failed verification:",
              file=sys.stderr)
        for p in verdict.problems:
            print("  %s" % p, file=sys.stderr)
        return EXIT_UNSUPPORTED
    text = dio.save_trace(space, chain, trace, chains)
    if args.out:
        _write(args.out, text)
    print("contracted component %d (%d cells) to seed in %d removals"
          % (idx, len(component), len(trace.removals)))
    if not args.out:
        print(text, end="")
    return EXIT_OK


def cmd_export(args) -> int:
    if args.format not in ("off", "log"):
        print("error: unknown format %r" % args.format, file=sys.stderr)
        return EXIT_VIOLATION
    text = _read(args.file)
    prefix = args.out or "export"
    try:
        if text.startswith("DSCTRACE"):
            space, chains, trace = dio.load_trace(text)
            snapshots = trace.surfaces
        else:
            space, chains = dio.load_complex(text)
            trace = None
            snapshots = (frozenset(space.cells_of_dim(space.top_dim)),)
    except dio.ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except InputError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    written = []
    # each surface is sorted once, for its OFF faces and its log line
    ordered = [sorted(cells) for cells in snapshots]
    log = ["snapshots %d" % len(snapshots)]
    if args.format == "off":
        coords = dio.spectral_layout(space)
        docs = dio.off_snapshots(space, ordered, coords)
        for i, doc in enumerate(docs):
            path = "%s_step%03d.off" % (prefix, i)
            _write(path, doc)
            written.append(path)
    token = {c: str(c) for c in set().union(*snapshots)}
    for i, cells in enumerate(ordered):
        log.append("step %d cells %d: %s"
                   % (i, len(cells), " ".join(token[c] for c in cells)))
    if trace is not None:
        for i, r in enumerate(trace.removals):
            log.append("removal %d: %s" % (i, (r.cell,)))
    logpath = "%s.log" % prefix
    _write(logpath, "\n".join(log) + "\n")
    written.append(logpath)
    print("wrote %s" % " ".join(written))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="celltopo",
        description="check, separate, and contract discrete cell complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="structural and manifold checks")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("flat", help="local flatness of a named chain")
    p.add_argument("file")
    p.add_argument("--chain")
    p.set_defaults(func=cmd_flat)

    p = sub.add_parser("separate", help="components of the complement")
    p.add_argument("file")
    p.add_argument("--chain")
    p.add_argument("--out")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("contract", help="contract a component to one cell")
    p.add_argument("file")
    p.add_argument("--chain")
    p.add_argument("--component", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--warn-only-flatness", action="store_true")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("export", help="OFF snapshots and a step log")
    p.add_argument("file")
    p.add_argument("--format", default="off")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
