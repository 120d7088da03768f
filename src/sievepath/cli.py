"""Command-line interface: gen, solve, path, and report subcommands."""

import argparse
import logging
import os
import sys
from dataclasses import fields

from .admm import AdmmConfig
from .data_io import DataError, RunManifest, gen_two_half_moons, load_matrix, save_matrix
from .graph import GraphError, build_knn_graph
from .labels import extract_labels
from .path import MODES, PathConfig, default_lambda_grid, parse_lambda_spec, solve_path
from .report import emit_report, load_path_state, save_path_state
from .sieve import ApgConfig


def _add_common_solver_flags(p):
    """The solver flags of solve and path, defaulting to RunManifest's
    fields, which default to the library's settings."""
    d = RunManifest()
    p.add_argument("--k", type=int, default=d.k, help="neighbors per point (default %(default)s)")
    p.add_argument("--eps", type=float, default=d.eps, help="KKT tolerance (default %(default)s)")
    p.add_argument("--eps-hat", type=float, default=d.eps_hat,
                   help="zero-block detection threshold (default %(default)s)")
    p.add_argument("--mode", choices=MODES, default=d.mode)
    p.add_argument("--admm-max-iter", type=int, default=d.admm_max_iter,
                   help="cap on the subsolver's Newton steps per solve (default %(default)s)")
    p.add_argument("--apg-maxiter", type=int, default=d.apg_maxiter,
                   help="cap on the dual-recovery APG steps per call (default %(default)s)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sievepath",
        description="Structured-sparse convex clustering with adaptive sieving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic two-half-moons dataset")
    p_gen.add_argument("--n", type=int, default=500, help="number of points")
    p_gen.add_argument("--noise", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output CSV path")

    p_solve = sub.add_parser("solve", help="solve one lambda and print diagnostics")
    p_solve.add_argument("--input", required=True, help="CSV matrix, rows = features")
    p_solve.add_argument("--lam", type=float, required=True)
    _add_common_solver_flags(p_solve)

    p_path = sub.add_parser("path", help="run the full lambda path and emit reports")
    p_path.add_argument("--input", help="CSV matrix, rows = features")
    p_path.add_argument("--grid", help="lambda grid 'start:step:stop' or comma list "
                        "(default: PathConfig's, 10 down to 1 in steps of 0.2)")
    p_path.add_argument("--out", dest="outdir", help="report output directory")
    p_path.add_argument("--state", help="also save the solved path state here (an .npz archive)")
    p_path.add_argument("--manifest", help="JSON manifest; overrides other flags")
    p_path.add_argument("--save-manifest", help="write the effective manifest here")
    _add_common_solver_flags(p_path)

    p_rep = sub.add_parser("report", help="re-emit reports from a saved path state")
    p_rep.add_argument("--state", required=True)
    p_rep.add_argument("--out", required=True)
    return parser


def _path_config(opts, lambdas):
    """PathConfig from the common solver flags of parsed args or a manifest,
    which name them alike."""
    return PathConfig(
        lambdas=lambdas, eps=opts.eps, eps_hat=opts.eps_hat, mode=opts.mode,
        admm=AdmmConfig(max_iter=opts.admm_max_iter),
        apg=ApgConfig(maxiter=opts.apg_maxiter),
    )


def cmd_gen(args):
    A = gen_two_half_moons(args.n, args.noise, args.seed)
    save_matrix(A, args.out, comment=f"two half moons n={args.n} noise={args.noise} seed={args.seed}")
    print(f"wrote {A.shape[0]}x{A.shape[1]} matrix to {args.out}")
    return 0


def cmd_solve(args):
    """Solve the one-lambda path [lam]."""
    A = load_matrix(args.input)
    inst = build_knn_graph(A, k=args.k)
    rec = solve_path(inst, _path_config(args, [args.lam])).records[0]
    if rec.triple is None:
        print(f"FAILED: {rec.error}", file=sys.stderr)
        return 1
    labels = extract_labels(inst, rec.triple.y, args.eps_hat)
    print(f"lambda      : {args.lam:.6g}")
    print(f"rounds      : {rec.rounds}")
    print(f"residual    : {rec.residual:.3e}")
    print(f"duality gap : {rec.gap:.3e}")
    print(f"clusters    : {labels.num_clusters}")
    print(f"certified   : {rec.converged}")
    return 0


def cmd_path(args):
    manifest = RunManifest(**{f.name: getattr(args, f.name) for f in fields(RunManifest)})
    if args.manifest:
        manifest = RunManifest.load(args.manifest)
    if manifest.input is None:
        print("error: no input file (give --input or a manifest)", file=sys.stderr)
        return 2
    if args.save_manifest:
        manifest.save(args.save_manifest)

    A = load_matrix(manifest.input)
    inst = build_knn_graph(A, k=manifest.k)
    grid = default_lambda_grid() if manifest.grid is None else parse_lambda_spec(manifest.grid)
    result = solve_path(inst, _path_config(manifest, grid))
    if args.state:
        save_path_state(result, args.state)
    if manifest.outdir:
        written = emit_report(result, manifest.outdir)
        print(f"wrote {len(written)} report files to {manifest.outdir}")
    summary = result.summary()
    print(f"lambdas     : {summary['n_lambdas']}")
    print(f"total rounds: {summary['total_rounds']}")
    print(f"avg reduced : {summary['average_reduced_n']:.1f} of {inst.N} points")
    print(f"total time  : {summary['total_seconds']:.2f}s")
    print(f"certified   : {summary['all_converged']}")
    if not summary["all_converged"]:
        print(f"failed at   : {summary['failed_lambdas']}", file=sys.stderr)
        return 1
    return 0


def cmd_report(args):
    result = load_path_state(args.state)
    written = emit_report(result, args.out)
    print(f"wrote {len(written)} report files to {args.out}")
    return 0


def main(argv=None):
    level = logging.INFO if os.environ.get("SIEVEPATH_VERBOSE", "0") != "0" else logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "solve": cmd_solve, "path": cmd_path, "report": cmd_report}
    try:
        return handlers[args.command](args)
    except (DataError, GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
