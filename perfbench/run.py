"""Path benchmark for sievepath: certified-path wall time on moons workloads.

Run from the repository root:

    python3 perfbench/run.py --workload moons1k-eas --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all            # every workload, table

A run generates two-half-moons data from the seed, builds the k-NN graph,
solves the workload's lambda path with ``solve_path`` and writes its report
with ``emit_report``, as ``sievepath path`` does. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` also runs one path with every layer
wrapped in spans and prints the per-layer metrics instead. Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Details, spans and the records
that check exact repetition go to ``perfbench/_out/``.

``--workload all`` runs each workload untraced and traced, each in its own
process, and prints the end-to-end metrics and the per-layer shares of
``path_s`` as one table.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: each workload is a single closed-loop caller, and a
# second thread only adds contention noise on a small shared machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("moons1k-eas", "moons1k-direct", "moons5k-as")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=45,
                   help="measurement budget; sets how many whole paths a run solves")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_one(args):
    src = ROOT / "src"
    if not (src / "sievepath" / "__init__.py").is_file():
        print(f"sievepath sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench  # numpy is imported here, after the thread cap is set

    line, detail = bench.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), ROOT)
    env = detail["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"N={detail['instance']['N']} m={detail['instance']['m_edges']} "
          f"lambdas={detail['instance']['lambdas']} units={detail['units']} "
          f"lambda samples={detail['lambda_samples']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in line["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for problem in detail["problems"]:
        print(f"  FAIL {problem}")
    print(json.dumps(line))
    return 0


def run_all(args):
    """Run every workload untraced and traced; print one summary table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            sys.stdout.write(proc.stdout)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.setdefault(name, {}).update(
                {k: m["value"] for k, m in line["metrics"].items()},
                correct=rows.get(name, {}).get("correct", True) and line["correct"])
    print()
    print(f"seed {args.seed}; shares are of the traced path time; "
          "report share is report_s / (path_s + report_s)")
    head = ("workload", "path_s", "setup_s", "p50/lam", "ADMM", "dual", "partition",
            "eas", "report_s", "report", "iters", "rounds", "ok")
    print("{:15s} {:>7s} {:>7s} {:>7s} {:>6s} {:>6s} {:>9s} {:>6s} {:>8s} {:>6s} {:>7s} {:>6s} {:>3s}"
          .format(*head))
    for name, r in rows.items():
        t = r["path.traced_s"]
        print("{:15s} {:7.2f} {:7.3f} {:7.3f} {:6.1%} {:6.1%} {:9.1%} {:6.1%} {:8.3f} {:6.1%} {:7d} {:6d} {:>3s}".format(
            name, r["path_s"], r["setup_s"], r["lambda_p50_s"],
            r["admm.solve_s"] / t, r["sieve.recover_dual_s"] / t,
            r["graph.partition_s"] / t, r["sieve.eas_s"] / t, r["report_s"],
            r["report_s"] / (r["path_s"] + r["report_s"]),
            int(r["admm.iters"]), int(r["sieve.rounds"]), "yes" if r["correct"] else "NO"))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
