"""Command-line interface: gen, solve, path, and report subcommands."""

import argparse
import logging
import os
import sys

import numpy as np

from .admm import AdmmConfig
from .data_io import DataError, RunManifest, gen_two_half_moons, load_matrix, save_matrix
from .graph import GraphError, build_knn_graph
from .labels import extract_labels
from .model import SolveConfig
from .path import SOLVER_ERRORS, PathConfig, parse_lambda_spec, solve_path
from .report import emit_report, load_path_state, save_path_state
from .sieve import ApgConfig, as_solve, eas_solve

log = logging.getLogger(__name__)


def _add_common_solver_flags(p):
    p.add_argument("--k", type=int, default=10, help="neighbors per point (default 10)")
    p.add_argument("--eps", type=float, default=1e-6, help="KKT tolerance (default 1e-6)")
    p.add_argument("--eps-hat", type=float, default=2e-16,
                   help="zero-block detection threshold (default 2e-16)")
    p.add_argument("--mode", choices=("as", "eas", "direct"), default="as")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="subsolver penalty of a cold start; warm starts keep the last one")
    p.add_argument("--admm-max-iter", type=int, default=50000,
                   help="cap on the subsolver's Newton steps per solve (default 50000)")
    p.add_argument("--admm-tol", type=float, default=None,
                   help="override the subsolver tolerance (default: derived from eps)")
    p.add_argument("--apg-maxiter", type=int, default=10)


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
    p_path.add_argument("--grid", default="10:-0.2:1",
                        help="lambda grid 'start:step:stop' or comma list")
    p_path.add_argument("--out", help="report output directory")
    p_path.add_argument("--state", help="also save the solved path state here")
    p_path.add_argument("--manifest", help="JSON manifest; overrides other flags")
    p_path.add_argument("--save-manifest", help="write the effective manifest here")
    _add_common_solver_flags(p_path)

    p_rep = sub.add_parser("report", help="re-emit reports from a saved path state")
    p_rep.add_argument("--state", required=True)
    p_rep.add_argument("--out", required=True)
    return parser


def _solver_configs(args):
    admm = AdmmConfig(sigma=args.sigma, max_iter=args.admm_max_iter, tol=args.admm_tol)
    apg = ApgConfig(maxiter=args.apg_maxiter)
    return admm, apg


def cmd_gen(args):
    A = gen_two_half_moons(args.n, args.noise, args.seed)
    save_matrix(A, args.out, comment=f"two half moons n={args.n} noise={args.noise} seed={args.seed}")
    print(f"wrote {A.shape[0]}x{A.shape[1]} matrix to {args.out}")
    return 0


def cmd_solve(args):
    A = load_matrix(args.input)
    inst = build_knn_graph(A, k=args.k)
    admm, apg = _solver_configs(args)
    cfg = SolveConfig(lam=args.lam, eps=args.eps, eps_hat=args.eps_hat, admm=admm, apg=apg)
    try:
        if args.mode == "direct":
            from .admm import solve_full

            triple, _ = solve_full(inst, cfg.lam, 0.5 * cfg.eps, admm)
            rounds = 1
        else:
            solver = eas_solve if args.mode == "eas" else as_solve
            triple, state = solver(inst, cfg)
            rounds = state.round
    except SOLVER_ERRORS as exc:
        print(f"FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    labels = extract_labels(inst, triple.y, args.eps_hat)
    certified = triple.residual_norm <= args.eps
    print(f"lambda      : {args.lam:.6g}")
    print(f"rounds      : {rounds}")
    print(f"residual    : {triple.residual_norm:.3e}")
    print(f"duality gap : {triple.gap:.3e}")
    print(f"clusters    : {labels.num_clusters}")
    print(f"certified   : {certified}")
    return 0 if certified else 1


def cmd_path(args):
    manifest = RunManifest(
        input=args.input, k=args.k, grid=args.grid, eps=args.eps,
        eps_hat=args.eps_hat, mode=args.mode, sigma=args.sigma,
        admm_max_iter=args.admm_max_iter, admm_tol=args.admm_tol,
        apg_maxiter=args.apg_maxiter, outdir=args.out,
    )
    if args.manifest:
        manifest = RunManifest.load(args.manifest)
    if manifest.input is None:
        print("error: no input file (give --input or a manifest)", file=sys.stderr)
        return 2
    if args.save_manifest:
        manifest.save(args.save_manifest)

    A = load_matrix(manifest.input)
    inst = build_knn_graph(A, k=manifest.k)
    admm = AdmmConfig(sigma=manifest.sigma, max_iter=manifest.admm_max_iter, tol=manifest.admm_tol)
    apg = ApgConfig(maxiter=manifest.apg_maxiter)
    pcfg = PathConfig(
        lambdas=parse_lambda_spec(manifest.grid), eps=manifest.eps,
        eps_hat=manifest.eps_hat, mode=manifest.mode, admm=admm, apg=apg,
    )
    result = solve_path(inst, pcfg)
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
