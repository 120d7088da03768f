"""Workloads, measurement and correctness gate of the path benchmark.

Imported by ``run.py`` after it has capped the BLAS threads and put the
repository's ``src`` directory on ``sys.path``.
"""

import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from sievepath import (
    PathConfig,
    SolveConfig,
    build_knn_graph,
    eas_solve,
    emit_report,
    gen_two_half_moons,
    kkt_residual,
    parse_lambda_spec,
    primal_objective,
    solve_full,
    solve_path,
)
from sievepath import _kernels
from sievepath._kernels import column_norms

from spans import Tracer, install_layer_wrappers, wrapper_cost

NOISE = 0.1
K = 10
EPS = 1e-6
# Two certified solutions of one lambda (residual <= EPS each) agree on the
# objective to 3e-7 relative or better on these workloads; a point with one
# wrongly fused or split block misses by orders of magnitude more.
OBJECTIVE_RTOL = 1e-5
# counted in traced runs; they must repeat exactly for one code and seed
REPEAT_COUNTERS = ("admm.iters", "admm.calls", "sieve.rounds", "sieve.apg_iters",
                   "sieve.eas_attempts", "graph.factor_count")

# name -> N, lambda grid (None: the default 46-point grid), mode, set-up
# repeats, report emissions timed for report_s, the other solver family that
# cross-checks every objective, and the nominal seconds of one path on a
# 2-vCPU machine.
# The nominal time only turns --seconds into a fixed number of paths, so
# that every run of a workload does the same work whatever the machine's
# speed at the moment; counting paths that fit in the measured time would
# take more paths exactly when the machine is fast and bias the median.
# moons5k-as is not in BENCHMARK.json: with it, the gated runs could not be
# long enough to ride out the machine's swings in the time they may take
# together. It still runs by name and in the --workload all table.
WORKLOADS = {
    "moons1k-eas": dict(n=1000, grid=None, mode="eas", setups=9, reports=15,
                        check="direct", unit_s=15),
    "moons1k-direct": dict(n=1000, grid=None, mode="direct", setups=9, reports=15,
                           check="eas", unit_s=22),
    "moons5k-as": dict(n=5000, grid="10:-2:6", mode="as", setups=3, reports=45,
                       check="direct", unit_s=22),
}

END_TO_END_UNITS = {
    "path_s": "s",
    "setup_s": "s",
    "lambda_p50_s": "s",
    "peak_rss_mb": "MB",
    "certified_frac": "ratio",
}


class CheckFailed(Exception):
    """A correctness or repeatability check did not hold."""


def environment():
    """What the numbers depend on besides the code: cores, versions, lane."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel_lane": "numba" if _kernels.NUMBA_ENABLED else "numpy",
    }


def code_hash(*dirs):
    """Digest of the solver and benchmark sources, so that repeat records
    of different code never meet."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(Path(d).rglob("*.py")):
            h.update(path.relative_to(d).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def path_config(spec):
    if spec["grid"] is None:
        return PathConfig(mode=spec["mode"], eps=EPS)
    return PathConfig(mode=spec["mode"], eps=EPS, lambdas=parse_lambda_spec(spec["grid"]))


def make_data(n, seed):
    """The moons fixture (generator seed 0) in the seed's coordinates.

    Seed 0 is the fixture itself. Any other seed rotates and shifts it. The
    clustering problem is invariant under both, so every seed asks for the
    same work while every coordinate the solver sees differs. Fresh noise
    per seed would not do: it moves the ADMM iteration count of the
    46-lambda path by a factor of three (20,750 to 62,530 over seeds 0-6).
    Re-ordering the points would not do either: the union-find behind
    partitions and labels costs more or less with the node numbering.
    """
    A = gen_two_half_moons(n, NOISE, 0)
    if seed == 0:
        return A
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return np.ascontiguousarray(R @ A + rng.uniform(-1.0, 1.0, (2, 1)))


def set_up(spec, seed, reps, tracer=None):
    """Make the data and build the graph ``reps`` times; return the
    instance and the wall time of each set-up."""
    times, edges = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        if tracer is None:
            inst = build_knn_graph(make_data(spec["n"], seed), K)
        else:
            with tracer.span("data_io.gen"):
                A = make_data(spec["n"], seed)
            with tracer.span("graph.knn"):
                inst = build_knn_graph(A, K)
        times.append(time.perf_counter() - t0)
        key = (inst.edge_i.tobytes(), inst.edge_j.tobytes(), inst.weights.tobytes())
        if edges is not None and key != edges:
            raise CheckFailed("repeated set-up built a different graph")
        edges = key
    return inst, times


def warm_up(mode):
    """Run every code path once on a small instance so that lazy imports
    and first-call costs stay out of the first measured path."""
    inst = build_knn_graph(gen_two_half_moons(200, NOISE, 0), K)
    solve_path(inst, PathConfig(mode=mode, eps=EPS, lambdas=[2.0, 1.0]))


def run_path(inst, pcfg, scratch, report_reps, tracer=None):
    """One unit of work: solve the path, then emit its report.

    Returns (result, path seconds, the seconds of each of ``report_reps``
    emissions, cluster counts), where the cluster counts are read back from
    the emitted summary.json.
    """
    t0 = time.perf_counter()
    if tracer is None:
        result = solve_path(inst, pcfg)
    else:
        with tracer.span("path.solve"):
            result = solve_path(inst, pcfg)
    path_s = time.perf_counter() - t0

    report_times = []
    for r in range(report_reps):
        outdir = scratch / f"report{r}"
        t0 = time.perf_counter()
        if tracer is None:
            written = emit_report(result, outdir)
        else:
            with tracer.span("report.emit"):
                written = emit_report(result, outdir)
        report_times.append(time.perf_counter() - t0)
        summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
        n_labels = sum(rec.triple is not None for rec in result.records)
        if len(written) != 4 + n_labels or summary["n_lambdas"] != len(result.records):
            raise CheckFailed("report does not cover every lambda")
        shutil.rmtree(outdir)
    return result, path_s, report_times, summary["num_clusters"]


def certify(inst, pcfg, result):
    """Recompute each lambda's KKT residual; return one bool per lambda."""
    ok = []
    for rec in result.records:
        t = rec.triple
        good = t is not None and rec.error is None
        if good:
            good = kkt_residual(inst, rec.lam, t.x, t.y, t.z) <= pcfg.eps
        ok.append(good)
    return ok


def cross_check(inst, pcfg, result, other):
    """Solve every lambda again with the other solver family, warm-started
    from the benchmarked solution, and compare primal objectives.

    The other solver stops on its own certificate, so a wrong warm start
    moves its objective; the warm start only keeps the check cheap. Returns
    one failure message or None per lambda, and the largest relative
    objective difference seen.
    """
    inc = inst.incidence
    out, worst = [], 0.0
    for rec in result.records:
        t = rec.triple
        if t is None:
            out.append("no solution to cross-check")
            continue
        if other == "direct":
            t2, _ = solve_full(inst, rec.lam, 0.5 * pcfg.eps, pcfg.admm,
                               warm=(t.x, inc.apply(t.x), t.z))
        else:
            cfg = SolveConfig(lam=rec.lam, eps=pcfg.eps, eps_hat=pcfg.eps_hat)
            I0 = np.flatnonzero(column_norms(np.ascontiguousarray(t.y)) <= pcfg.eps_hat)
            t2, _ = eas_solve(inst, cfg, I0=I0, warm=(t.x, t.z))
        f1 = primal_objective(inst, rec.lam, t.x)
        f2 = primal_objective(inst, rec.lam, t2.x)
        worst = max(worst, abs(f1 - f2) / (1.0 + abs(f1)))
        if t2.residual_norm > pcfg.eps:
            out.append(f"{other} residual {t2.residual_norm:.3e} > eps")
        elif abs(f1 - f2) > OBJECTIVE_RTOL * (1.0 + abs(f1)):
            out.append(f"objective {f1:.12g} differs from {other} {f2:.12g}")
        else:
            out.append(None)
    return out, worst


def fingerprint(result, clusters):
    """Per-lambda values that must repeat exactly on the same code and seed."""
    return {
        "rounds": [rec.rounds for rec in result.records],
        "num_fused": [rec.num_fused for rec in result.records],
        "clusters": list(clusters),
        "objective": [float(rec.objective) for rec in result.records],
    }


def check_repeat(memo_path, key, record):
    """Compare ``record`` with what an earlier run stored under ``key`` and
    store any fields that were not there yet; raise on a mismatch."""
    memo = json.loads(memo_path.read_text(encoding="utf-8")) if memo_path.exists() else {}
    seen = memo.setdefault(key, {})
    for field, value in record.items():
        if field in seen and seen[field] != value:
            raise CheckFailed(f"{field} differs from an earlier run of the same code and seed")
        seen[field] = value
    tmp = memo_path.with_name(f"{memo_path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(memo, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, memo_path)


def layer_metrics(tracer, setup_tracer, n_lambdas, plain_path_s):
    """Per-layer metrics from one traced path and its traced report.

    ``*_s`` values include the spans nested in them, except those named
    ``self``; ``report.write_s`` is ``emit_report`` self time.
    """
    roots = {sp_[0]: i for i, sp_ in enumerate(tracer.spans) if sp_[3] < 0}
    incl, self_t = tracer.totals(roots["path.solve"])
    r_incl, r_self = tracer.totals(roots["report.emit"])
    c = tracer.counts.get
    traced_path_s = incl["path.solve"]
    admm_s = incl.get("admm.solve", 0.0)
    iters = c("admm.iters", 0)
    rounds = c("sieve.rounds", 0)
    apg_calls = c("sieve.apg.calls", 0)
    eas_calls = c("sieve.eas.calls", 0)
    round_records = c("sieve.round_records", 0)

    def setup_median(name):
        return statistics.median(t1 - t0 for n, t0, t1, _ in setup_tracer.spans if n == name)

    m = {
        "data_io.gen_s": (setup_median("data_io.gen"), "s"),
        "graph.knn_s": (setup_median("graph.knn"), "s"),
        "graph.partition_s": (incl.get("graph.partition", 0.0), "s"),
        "graph.partition_calls": (c("graph.partition.calls", 0), "count"),
        "graph.reduce_s": (incl.get("graph.reduce", 0.0), "s"),
        "graph.reduce_calls": (c("graph.reduce.calls", 0), "count"),
        "graph.factor_s": (incl.get("graph.factor", 0.0), "s"),
        "graph.factor_count": (c("graph.factor.calls", 0), "count"),
        "admm.solve_s": (admm_s, "s"),
        "admm.calls": (c("admm.solve.calls", 0), "count"),
        "admm.iters": (iters, "count"),
        "admm.us_per_iter": (1e6 * admm_s / iters if iters else 0.0, "us"),
        "admm.unconverged": (c("admm.unconverged", 0), "count"),
        "sieve.rounds": (rounds, "count"),
        "sieve.retightenings": (c("sieve.admm_calls", 0) - rounds, "count"),
        "sieve.blocks_removed": (c("sieve.blocks_removed", 0), "count"),
        "sieve.reduced_n_mean": (
            c("sieve.reduced_n_sum", 0) / round_records if round_records else 0.0, "count"),
        "sieve.recover_dual_s": (incl.get("sieve.recover_dual", 0.0), "s"),
        "sieve.apg_iters": (c("sieve.apg_iters", 0), "count"),
        "sieve.apg_converged_frac": (
            c("sieve.apg_converged", 0) / apg_calls if apg_calls else 0.0, "ratio"),
        "sieve.eas_s": (incl.get("sieve.eas", 0.0), "s"),
        "sieve.eas_attempts": (eas_calls, "count"),
        "sieve.eas_certified": (c("sieve.eas_ok", 0) / eas_calls if eas_calls else 0.0, "ratio"),
        "sieve.self_s": (self_t.get("sieve.solve", 0.0), "s"),
        "model.kkt_s": (incl.get("model.kkt", 0.0), "s"),
        "model.kkt_calls": (c("model.kkt.calls", 0), "count"),
        "model.from_point_s": (incl.get("model.from_point", 0.0), "s"),
        "model.objective_s": (incl.get("model.objective", 0.0), "s"),
        "kernels.prox_calls": (c("kernels.prox.calls", 0), "count"),
        "kernels.prox_s": (incl.get("kernels.prox", 0.0), "s"),
        "kernels.prox_bytes": (c("kernels.prox_bytes", 0), "B"),
        "kernels.union_find_s": (
            incl.get("kernels.union_find", 0.0) + r_incl.get("kernels.union_find", 0.0), "s"),
        "labels.extract_s": (r_incl.get("labels.extract", 0.0), "s"),
        "labels.extract_calls": (c("labels.extract.calls", 0), "count"),
        "report.write_s": (r_self["report.emit"], "s"),
        "path.self_s": (self_t["path.solve"], "s"),
        "path.traced_s": (traced_path_s, "s"),
        "path.lambdas": (n_lambdas, "count"),
        "trace.overhead_frac": (traced_path_s / plain_path_s - 1.0, "ratio"),
        # the same overhead from a no-op probe: steadier than one noisy pair
        "trace.overhead_est_frac": (len(tracer.spans) * wrapper_cost() / plain_path_s, "ratio"),
        "trace.unattributed_frac": (self_t["path.solve"] / traced_path_s, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, self_t


def run_workload(name, seed, seconds, trace, root):
    """Run one workload; return the result line and the detail record."""
    spec = WORKLOADS[name]
    out = Path(root) / "perfbench" / "_out"
    scratch = out / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(name, spec, seed, seconds, trace, Path(root), out, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(name, spec, seed, seconds, trace, root, out, scratch):
    pcfg = path_config(spec)
    problems = []
    clock = {"start": time.perf_counter()}
    setup_tracer = Tracer() if trace else None
    inst, setup_times = set_up(spec, seed, spec["setups"], setup_tracer)
    warm_up(spec["mode"])
    clock["setup"] = time.perf_counter()

    # Units of path + report: as many as `seconds` holds at the nominal
    # speed, and always one; each path is followed by one emission of its
    # report, whose output the gate reads. A traced run measures exactly one
    # untraced unit, for the overhead baseline and for report_s, and then one
    # traced unit. report_s is a per-layer metric: pure-Python emission
    # swings with the machine by more than the largest bound an end-to-end
    # metric may have (see README.md). Peak memory is read after the first
    # unit, so it does not grow with the unit count.
    n_units = 1 if trace else max(1, seconds // spec["unit_s"])
    units = [run_path(inst, pcfg, scratch, spec["reports"] if trace else 1)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(units) < n_units:
        units.append(run_path(inst, pcfg, scratch, 1))
    checked = units
    if trace:
        with Tracer() as tracer:
            install_layer_wrappers(tracer)
            traced = run_path(inst, pcfg, scratch, 1, tracer)
        checked = units + [traced]
    clock["measure"] = time.perf_counter()

    # Correctness gate, never skipped: recompute every lambda's residual on
    # every path, cross-check the first path's objectives against the other
    # solver family, and require repeated paths (traced or not) to agree.
    failed_lams = set()
    for k, (result, _, _, _) in enumerate(checked):
        for rec, ok in zip(result.records, certify(inst, pcfg, result)):
            if not ok:
                failed_lams.add((k, rec.lam))
                problems.append(f"lambda {rec.lam:.4g}: not certified ({rec.error})")
    first = units[0][0]
    messages, cross_rel_diff = cross_check(inst, pcfg, first, spec["check"])
    for rec, msg in zip(first.records, messages):
        if msg is not None:
            failed_lams.add((0, rec.lam))
            problems.append(f"lambda {rec.lam:.4g}: {msg}")
    prints = [fingerprint(u[0], u[3]) for u in checked]
    for k, fp in enumerate(prints[1:], start=1):
        if fp != prints[0]:
            kind = "traced path" if trace and k == len(units) else f"repeat {k}"
            problems.append(f"{kind} returned other rounds, clusters or objectives")

    record = {k: prints[0][k] for k in ("rounds", "num_fused", "clusters")}
    layers = None
    if trace:
        layers, self_t = layer_metrics(tracer, setup_tracer, len(pcfg.lambdas), units[0][1])
        layers["report_s"] = {"value": statistics.median(units[0][2]), "unit": "s"}
        record["counters"] = {k: layers[k]["value"] for k in REPEAT_COUNTERS}
        tracer.write(out / f"{name}-seed{seed}-spans.csv")
    key = f"{name}|seed{seed}|{code_hash(root / 'src', Path(__file__).parent)}"
    try:
        check_repeat(out / "repeat.json", key, record)
    except CheckFailed as exc:
        problems.append(str(exc))
    clock["gate"] = time.perf_counter()

    attempted = sum(len(u[0].records) for u in checked)
    per_lambda = [r.seconds for u in units for r in u[0].records]
    e2e = {
        "path_s": statistics.median(u[1] for u in units),
        "setup_s": statistics.median(setup_times),
        "lambda_p50_s": statistics.median(per_lambda),
        "peak_rss_mb": peak_rss_mb,
        "certified_frac": 1.0 - len(failed_lams) / attempted,
    }
    metrics = layers if trace else {
        k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    line = {"correct": not problems, "attempted": attempted, "failed": len(failed_lams),
            "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "instance": {"N": inst.N, "m_edges": inst.m_blocks, "lambdas": len(pcfg.lambdas)},
        "phase_s": {k: clock[k] - clock[p] for p, k in
                    (("start", "setup"), ("setup", "measure"), ("measure", "gate"))},
        "units": len(units), "lambda_samples": len(per_lambda),
        "setup_times": setup_times, "path_times": [u[1] for u in units],
        "report_times": [t for u in units for t in u[2]], "end_to_end": e2e,
        "self_s": self_t if trace else None, "fingerprint": prints[0],
        "cross_check": {"against": spec["check"], "max_rel_objective_diff": cross_rel_diff},
        "problems": problems, "result": line,
    }
    (out / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, default=float), encoding="utf-8")
    return line, detail
