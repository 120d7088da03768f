import numpy as np
import pytest

from sievepath import (
    AdmmConfig,
    build_partition,
    reduce_problem,
    reduced_kkt_residual,
    solve_full,
    solve_reduced_admm,
)
from sievepath.model import primal_objective

from conftest import random_instance


def test_fully_fused_t1(t1_inst):
    """With every block fused the subproblem is unconstrained and closes in
    one shot: x_alpha is the centroid of A."""
    part = build_partition(t1_inst.incidence, [0, 1, 2])
    red = reduce_problem(t1_inst, part, 10.0)
    sub = solve_reduced_admm(red, tol=1e-10)
    assert sub.converged
    assert sub.iterations == 0
    assert sub.x_alpha[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert sub.y_red.shape == (1, 0)


def test_lambda_zero_returns_data(t1_inst):
    part = build_partition(t1_inst.incidence, [])
    red = reduce_problem(t1_inst, part, 0.0)
    sub = solve_reduced_admm(red, tol=1e-9)
    assert sub.converged
    assert np.allclose(sub.x_red, t1_inst.A, atol=1e-9)


def test_two_point_shrink_closed_form():
    # A = (0, 4), lambda*w = 1: y* has norm 4 - 2*lam*w = 2, x = (1, 3)
    from sievepath import ProblemInstance

    inst = ProblemInstance(np.array([[0.0, 4.0]]), [0], [1], [1.0])
    part = build_partition(inst.incidence, [])
    red = reduce_problem(inst, part, 1.0)
    sub = solve_reduced_admm(red, tol=1e-10)
    assert sub.converged
    assert np.allclose(sub.x_red, [[1.0, 3.0]], atol=1e-8)
    assert np.allclose(sub.y_red, [[-2.0]], atol=1e-8)
    assert abs(sub.xi[0, 0]) == pytest.approx(1.0, abs=1e-8)


def test_convergence_flags_and_gap(t1_inst):
    part = build_partition(t1_inst.incidence, [])
    red = reduce_problem(t1_inst, part, 0.5)
    sub = solve_reduced_admm(red, tol=1e-8)
    assert sub.converged
    assert sub.kkt_red <= 1e-8
    assert sub.gap <= 1e-8
    assert sub.achieved_kkt == sub.kkt_red

    starved = solve_reduced_admm(red, tol=1e-12, config=AdmmConfig(max_iter=3))
    assert not starved.converged


def test_reported_residual_recomputable(t1_inst):
    part = build_partition(t1_inst.incidence, [])
    red = reduce_problem(t1_inst, part, 1.0)
    sub = solve_reduced_admm(red, tol=1e-9)
    X = np.hstack([sub.x_alpha, sub.x_beta])
    r = reduced_kkt_residual(red, X, sub.y_red, sub.xi)
    assert r == pytest.approx(sub.kkt_red, rel=1e-6, abs=1e-12)


def test_warm_start_helps(t1_inst):
    part = build_partition(t1_inst.incidence, [])
    red = reduce_problem(t1_inst, part, 1.0)
    cold = solve_reduced_admm(red, tol=1e-10)
    red2 = reduce_problem(t1_inst, part, 1.05)
    warm = solve_reduced_admm(red2, tol=1e-10, warm=cold.warm_start())
    cold2 = solve_reduced_admm(red2, tol=1e-10)
    assert warm.converged and cold2.converged
    assert warm.iterations <= cold2.iterations


def test_solve_full_random_matches_objective_oracle():
    """Full-space ADMM against a projected-gradient oracle on small problems."""
    rng = np.random.default_rng(7)
    for _ in range(5):
        inst = random_instance(rng, N=8, d=2, k=3)
        lam = float(rng.uniform(0.05, 1.0))
        triple, sub = solve_full(inst, lam, tol=1e-9)
        assert sub.converged
        assert triple.residual_norm <= 1e-8

        # oracle: subgradient descent from the solver answer must not improve
        F = primal_objective(inst, lam, triple.x)
        for _ in range(20):
            pert = triple.x + 1e-4 * rng.standard_normal(triple.x.shape)
            assert primal_objective(inst, lam, pert) >= F - 1e-10


def test_sigma_refresh_flag(t1_inst):
    part = build_partition(t1_inst.incidence, [])
    red = reduce_problem(t1_inst, part, 1.0)
    fixed = solve_reduced_admm(
        red, tol=1e-9, config=AdmmConfig(sigma=100.0, refresh=False)
    )
    adaptive = solve_reduced_admm(
        red, tol=1e-9, config=AdmmConfig(sigma=100.0, refresh=True)
    )
    assert fixed.sigma == 100.0
    assert adaptive.sigma < 100.0  # balancing pulled sigma down
    assert adaptive.iterations <= fixed.iterations


def test_warm_start_carries_sigma(t1_inst):
    part = build_partition(t1_inst.incidence, [])
    red = reduce_problem(t1_inst, part, 1.0)
    cfg = AdmmConfig(sigma=100.0)
    cold = solve_reduced_admm(red, tol=1e-9, config=cfg)
    assert cold.converged and cold.sigma != cfg.sigma
    # resuming a converged solve keeps its sigma and stops at the first check
    warm = solve_reduced_admm(red, tol=1e-9, config=cfg, warm=cold.warm_start())
    assert warm.converged
    assert warm.iterations <= cfg.check_every
    assert warm.sigma == cold.sigma
    # without a carried sigma a warm start begins at the configured value
    X, Y, Z, _ = cold.warm_start()
    plain = solve_reduced_admm(
        red, tol=1e-9, config=AdmmConfig(sigma=100.0, refresh=False), warm=(X, Y, Z)
    )
    assert plain.sigma == 100.0
