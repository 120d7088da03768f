import numpy as np
import pytest

from sievepath import (
    InfeasibleDualError,
    PathConfig,
    SingularSystemError,
    default_lambda_grid,
    parse_lambda_spec,
    solve_path,
)


def test_default_grid():
    grid = default_lambda_grid()
    assert len(grid) == 46
    assert grid[0] == 10.0
    assert grid[-1] == 1.0
    assert np.allclose(np.diff(grid), -0.2)


def test_parse_lambda_spec_range():
    lams = parse_lambda_spec("10:-0.2:1")
    assert np.allclose(lams, default_lambda_grid())
    assert np.allclose(parse_lambda_spec("5:-1:3"), [5.0, 4.0, 3.0])


def test_parse_lambda_spec_list():
    assert np.allclose(parse_lambda_spec("3.5, 2, 0.5"), [3.5, 2.0, 0.5])


def test_parse_lambda_spec_errors():
    with pytest.raises(ValueError):
        parse_lambda_spec("1:2")
    with pytest.raises(ValueError):
        parse_lambda_spec("1:0.5:10")  # increasing step


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(lambdas=[])
    with pytest.raises(ValueError):
        PathConfig(lambdas=[1.0, 2.0])  # not decreasing
    with pytest.raises(ValueError):
        PathConfig(lambdas=[2.0, -1.0])
    with pytest.raises(ValueError):
        PathConfig(lambdas=[2.0, 1.0], mode="magic")


def test_t1_path_all_modes_agree(t1_inst):
    lams = [5.0, 2.0, 0.5, 0.05]
    results = {}
    for mode in ("as", "eas", "direct"):
        res = solve_path(t1_inst, PathConfig(lambdas=lams, eps=1e-7, mode=mode))
        assert res.all_converged, mode
        assert len(res.records) == 4
        results[mode] = res
    for mode in ("eas", "direct"):
        for r_as, r_other in zip(results["as"].records, results[mode].records):
            assert r_other.objective == pytest.approx(
                r_as.objective, rel=1e-6, abs=1e-9
            )


def test_t1_path_fusion_monotone(t1_inst):
    res = solve_path(t1_inst, PathConfig(lambdas=np.linspace(10, 0.01, 20), eps=1e-7))
    fused = [r.num_fused for r in res.records]
    assert fused[0] == 3  # everything collapses at the top of the path
    assert fused[-1] == 0  # nothing fused at tiny lambda
    assert all(a >= b for a, b in zip(fused, fused[1:]))


def test_path_records_are_complete(t1_inst):
    res = solve_path(t1_inst, PathConfig(lambdas=[2.0, 1.0], eps=1e-7))
    for rec in res.records:
        assert rec.triple is not None
        assert rec.residual <= 1e-7
        assert rec.gap <= 1e-7
        assert rec.rounds >= 1
        assert rec.avg_reduced_n <= t1_inst.N
        assert rec.seconds >= 0.0
        assert rec.error is None
    assert res.total_rounds == sum(r.rounds for r in res.records)
    s = res.summary()
    assert s["n_lambdas"] == 2 and s["all_converged"] and s["failed_lambdas"] == []


def test_path_fail_soft(t1_inst):
    """A starved round budget fails that lambda but the sweep continues."""
    res = solve_path(
        t1_inst,
        PathConfig(lambdas=[10.0, 0.01], eps=1e-10, max_sieve_rounds=1),
    )
    assert len(res.records) == 2
    assert res.records[0].converged  # fully fused: one round suffices
    assert not res.records[1].converged
    assert res.records[1].error is not None
    assert not res.all_converged
    assert res.summary()["failed_lambdas"] == [0.01]


def test_warm_start_reuses_pattern(t1_inst):
    """Consecutive grid points with the same fusion pattern certify in one
    round because the previous zero set seeds the candidate set."""
    res = solve_path(t1_inst, PathConfig(lambdas=[10.0, 9.8, 9.6], eps=1e-7))
    assert res.all_converged
    assert [r.num_fused for r in res.records] == [3, 3, 3]
    assert res.records[1].rounds == 1
    assert res.records[2].rounds == 1

@pytest.mark.parametrize("mode, exc", [
    ("as", SingularSystemError("Factor is exactly singular")),
    ("eas", InfeasibleDualError("dual point violates a block ball constraint")),
    ("direct", SingularSystemError("Factor is exactly singular")),
])
def test_solver_error_stays_with_its_lambda(t1_inst, monkeypatch, mode, exc):
    """A subsolver that raises at one lambda fails only that lambda; the
    next one starts from the last certified solution and certifies."""
    from sievepath import admm, sieve

    real = admm.solve_reduced_admm

    def flaky(red, *args, **kwargs):
        if red.lam == 2.0:
            raise exc
        return real(red, *args, **kwargs)

    monkeypatch.setattr(admm, "solve_reduced_admm", flaky)
    monkeypatch.setattr(sieve, "solve_reduced_admm", flaky)
    res = solve_path(t1_inst, PathConfig(lambdas=[5.0, 2.0, 0.5], eps=1e-7, mode=mode))
    assert [r.converged for r in res.records] == [True, False, True]
    failed = res.records[1]
    assert failed.triple is None
    assert failed.error.startswith(type(exc).__name__)
    assert res.records[2].residual <= 1e-7
    assert res.summary()["failed_lambdas"] == [2.0]


def test_defect_in_a_solve_propagates(t1_inst, monkeypatch):
    """An error that is not a numerical failure of the solve is a defect:
    the path does not record it and go on."""
    from sievepath import admm

    def broken(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(admm, "solve_reduced_admm", broken)
    with pytest.raises(ZeroDivisionError):
        solve_path(t1_inst, PathConfig(lambdas=[5.0, 2.0], mode="direct"))
