"""Command-line surface: build, verify, lift, search, export.

Exit codes: 0 on verified success or completed refutation, 1 when a
verification fails or a search budget runs out, 2 on usage or I/O errors.
All reports are stable line-oriented text on stdout.  Each command imports
only the modules it runs, inside its handler.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core import GraphVariant, KellerGraphSpec, materialize

_GRAPHS = sorted(v.value for v in GraphVariant)  # the --graph choices, "G" and "Gstar"
_MAX_WITNESS_LINES = 20


def _cmd_build(args: argparse.Namespace) -> int:
    from .construction import build_counterexample
    from .files import write_vector_set

    s = build_counterexample(args.dim)
    write_vector_set(args.out, s)
    print(f"wrote {args.out}: dim={s.dim} count={len(s)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .files import read_vector_set
    from .verify import CellCoverStatus, face_statistics, verify_clique, verify_tiling_cells

    s = read_vector_set(args.infile)
    spec = KellerGraphSpec(s.dim, GraphVariant(args.graph))
    ok = True

    # the cell oracle runs first, so that its dimension guard fails before
    # any other work or output
    cells = verify_tiling_cells(s) if args.cells else None
    report = verify_clique(s, spec)
    if report.is_clique:
        print("clique: OK")
    else:
        ok = False
        print(f"clique: FAIL ({len(report.pairs)} missing pairs)")
        for u, v in report.pairs[:_MAX_WITNESS_LINES]:
            print(f"missing: {u} {v}")
        if len(report.pairs) > _MAX_WITNESS_LINES:
            print(f"... {len(report.pairs) - _MAX_WITNESS_LINES} more")

    if cells is not None:
        if cells.status is CellCoverStatus.EXACT_COVER:
            print("cell-cover: EXACT")
        else:
            ok = False
            print(f"cell-cover: {cells.status.name} at cell {cells.witness}")

    if args.faces:
        hist = face_statistics(s)
        for k, count in hist.counts:
            print(f"shared-face dim {k}: {count} pairs")
        print(f"max shared face dim: {'none' if hist.max_shared is None else hist.max_shared}")

    return 0 if ok else 1


def _cmd_lift(args: argparse.Namespace) -> int:
    from .construction import find_lift_shift, lift
    from .files import read_vector_set, write_vector_set

    s = read_vector_set(args.infile)
    a = find_lift_shift(s)
    if a is None:
        print("lift: no single-coordinate rotation gives a disjoint image")
        return 1
    coord = next(i for i, lm in enumerate(a.label_maps) if lm != (0, 1, 2, 3))
    step = "+1" if a.label_maps[coord][0] == 1 else "-1"
    print(f"lift: rotation {step} on coordinate {coord}")
    lifted = lift(s, a)
    write_vector_set(args.out, lifted)
    print(f"wrote {args.out}: dim={lifted.dim} count={len(lifted)}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .search import SearchBudget, SearchStatus, clique_decision, invariant_clique_search, max_clique

    budget = SearchBudget(node_limit=args.budget_nodes, time_limit=args.budget_secs)
    progress = heartbeat = None
    if args.progress:
        progress = lambda size, nodes: print(f"incumbent: size={size} nodes={nodes}")
        heartbeat = lambda nodes, rate: print(f"progress: nodes={nodes} nodes/s={rate:.0f}")
    if args.cyclic_invariant:
        if args.target is None:
            print("error: --cyclic-invariant requires --target", file=sys.stderr)
            return 2
        if args.graph != "Gstar":
            print("error: --cyclic-invariant searches G*_n only (--graph Gstar)", file=sys.stderr)
            return 2
        outcome = invariant_clique_search(
            args.dim, args.target, budget, on_improve=progress, on_progress=heartbeat
        )
    else:
        spec = KellerGraphSpec(args.dim, GraphVariant(args.graph))
        g = materialize(spec)
        if args.target is not None:
            outcome = clique_decision(
                g, args.target, budget, on_improve=progress, on_progress=heartbeat
            )
        else:
            outcome = max_clique(g, budget, on_improve=progress, on_progress=heartbeat)

    print(f"status: {outcome.status.name}")
    print(f"best clique size: {len(outcome.best_clique)}")
    print(f"nodes explored: {outcome.nodes_explored}")
    if outcome.note:
        print(f"note: {outcome.note}")
    if outcome.status in (SearchStatus.TARGET_FOUND, SearchStatus.OPTIMAL):
        for v in outcome.best_clique:
            print(f"clique: {v}")
    return 0 if outcome.status is not SearchStatus.BUDGET_EXHAUSTED else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from .files import export_dimacs

    spec = KellerGraphSpec(args.dim, GraphVariant(args.graph))
    out = export_dimacs(spec, args.out)
    print(f"wrote {out.path}: p edge {out.num_vertices} {out.num_edges}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keller",
        description="Construct, verify, lift, and search cube-tiling counterexample sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct the 10- or 12-dimensional counterexample")
    p.add_argument("--dim", type=int, required=True, choices=(10, 12))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check a vector-set file (clique, cells, faces)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--graph", choices=_GRAPHS, default="Gstar")
    p.add_argument("--cells", action="store_true", help="run the torus cell-cover oracle")
    p.add_argument("--faces", action="store_true", help="report shared-face statistics")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lift", help="stack a set one dimension up via a rotation shift")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("search", help="exact clique search (optionally cyclic-invariant)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--graph", choices=_GRAPHS, default="Gstar",
                   help="default Gstar, the only graph --cyclic-invariant searches")
    p.add_argument("--target", type=int, default=None, help="decide this clique size")
    p.add_argument("--cyclic-invariant", action="store_true",
                   help="restrict to cliques invariant under coordinate rotation")
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=None)
    p.add_argument("--progress", action="store_true",
                   help="print incumbent improvements and a node-rate heartbeat")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export", help="write a Keller graph in DIMACS edge format")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--graph", choices=_GRAPHS, default="Gstar")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # VectorSetFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
