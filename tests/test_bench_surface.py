"""The path benchmark wraps sievepath functions by module and name; a rename
must fail here rather than inside a traced benchmark run."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from sievepath import PathConfig, build_knn_graph, solve_path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_wrappers_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, install_layer_wrappers

    splu = spla.splu
    with Tracer() as tracer:
        # wrap() looks up every name, so a missing one raises here
        install_layer_wrappers(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
        wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patched}
        assert ("sievepath.graph", "union_find_min_labels") in wrapped
        assert ("sievepath.labels", "union_find_min_labels") in wrapped
    assert spla.splu is splu
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)


@pytest.mark.parametrize("mode", ["as", "eas", "direct"])
def test_layer_wrappers_count_a_solved_path(monkeypatch, mode):
    """The span hooks read the sieve state and its round records; a change
    to either must fail here, on a small path in every mode."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, install_layer_wrappers

    from sievepath import path

    records = []  # every round record of the path
    for name in ("as_solve", "eas_solve"):
        def recording(*args, _solve=getattr(path, name), **kwargs):
            triple, state = _solve(*args, **kwargs)
            records.extend(state.records)
            return triple, state

        monkeypatch.setattr(path, name, recording)
    inst = build_knn_graph(np.random.default_rng(3).standard_normal((2, 30)), k=4)
    with Tracer() as tracer:
        install_layer_wrappers(tracer)
        patched = list(tracer._patched)
        res = solve_path(inst, PathConfig(lambdas=[1.0, 0.3], eps=1e-7, mode=mode))
    assert res.all_converged
    counts = tracer.counts
    assert counts["sieve.rounds"] == res.total_rounds >= 2
    assert counts["sieve.round_records"] >= 2
    assert counts["admm.iters"] == res.total_newton_steps > 0
    assert len(records) == res.total_rounds
    # a candidate set is partitioned only by the round that first solves it,
    # and every eas_certify call partitions its own set
    assert counts["graph.partition.calls"] == (sum(r["built"] for r in records)
                                               + counts.get("sieve.eas.calls", 0))
    assert sum(r["built"] for r in records) >= 1
    # the records count the work the wrappers count
    assert sum(r["newton_steps"] for r in records) == counts["admm.iters"]
    assert (sum(r["retightenings"] for r in records)
            == counts["sieve.admm_calls"] - counts["sieve.rounds"])
    assert sum(r["violations"] for r in records) == counts["sieve.blocks_removed"]
    # every APG run, eas_certify's included; direct mode runs none
    assert sum(r["apg_iterations"] for r in records) == counts.get("sieve.apg_iters", 0)
    assert (mode == "direct") == all(r["apg_converged"] is None for r in records)
    if mode != "eas":  # eas_certify factors a Gram matrix of its own set
        # a set's order probe and Gram factors are made by the round that builds it
        built = [r for r in records if r["built"]]
        assert counts["graph.factor.calls"] == (
            sum(r["factorizations"] for r in records)
            + sum(r["m_reduced"] > 0 for r in built)
            + sum(r["m_reduced"] < inst.m_blocks for r in built))
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)


def test_benchmark_gate_runs_on_a_small_path(monkeypatch, tmp_path):
    """The benchmark's own gate on a 3-lambda path of 120 moons points: the
    environment record, one unit of path and report, the recomputed
    residuals, the cross-check against the other solver family in both
    directions (eas against solve_full, direct against eas_solve) and a
    fingerprint that repeats. A change to the library surface the gate uses
    must fail here rather than as a failed benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    from sievepath import gen_two_half_moons

    env = bench.environment()
    assert env["kernel_lane"] in ("numpy", "numba") and env["nproc"] >= 1
    inst = build_knn_graph(gen_two_half_moons(120, bench.NOISE, 0), bench.K)
    for mode, other in (("eas", "direct"), ("direct", "eas")):
        pcfg = bench.path_config({"grid": "2:-0.5:1", "mode": mode})
        result, _, _, clusters = bench.run_path(inst, pcfg, tmp_path, 1)
        assert len(result.records) == 3
        assert bench.certify(inst, pcfg, result) == [True] * 3
        messages, worst = bench.cross_check(inst, pcfg, result, other)
        assert messages == [None] * 3 and worst <= bench.OBJECTIVE_RTOL
        again = bench.run_path(inst, pcfg, tmp_path, 1)
        assert bench.fingerprint(result, clusters) == bench.fingerprint(again[0], again[3])
