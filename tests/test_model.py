import numpy as np
import pytest

from sievepath import (
    InfeasibleDualError,
    KktTriple,
    ProblemInstance,
    SolveConfig,
    dual_objective,
    duality_gap,
    kkt_residual,
    primal_objective,
    prox_block,
    project_subdiff_block,
    solve_full,
)
from sievepath._kernels import project_columns


def test_every_tolerance_default_is_solve_configs():
    """PathConfig, eas_certify and extract_labels default eps and eps_hat to
    SolveConfig's, and apg_minimize given SolveConfig.eps accepts a start
    exactly when it lies within that distance of the balls."""
    import inspect

    from sievepath import PathConfig, apg_minimize, eas_certify, extract_labels

    cfg, path = SolveConfig(lam=1.0), PathConfig()
    assert (path.eps, path.eps_hat) == (cfg.eps, cfg.eps_hat)
    for fn in (eas_certify, extract_labels):
        assert inspect.signature(fn).parameters["eps_hat"].default == cfg.eps_hat
    u0 = np.zeros((2, 3))
    for excess, inside in ((0.9, True), (1.1, False)):
        u0[0, 0] = 1.0 + excess * cfg.eps  # its distance to the unit balls
        res = apg_minimize(u0, np.ones(3), lambda D: D, cfg.eps, 0)
        assert res.converged is inside


def test_instance_validation():
    A = np.zeros((2, 3))
    with pytest.raises(ValueError):
        ProblemInstance.from_edges(A, [(1, 0, 1.0)])  # i >= j
    with pytest.raises(ValueError):
        ProblemInstance.from_edges(A, [(0, 1, -1.0)])  # nonpositive weight
    with pytest.raises(ValueError):
        ProblemInstance.from_edges(A, [(0, 1, 1.0), (0, 1, 2.0)])  # duplicate
    with pytest.raises(ValueError):
        ProblemInstance.from_edges(A, [(0, 3, 1.0)])  # out of range


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_instance_rejects_non_finite_data_and_weights(bad):
    """A NaN weight passes the positivity test, and a non-finite weight or
    data entry would only fail the solve: both are bad input."""
    A = np.zeros((2, 3))
    with pytest.raises(ValueError, match="finite"):
        ProblemInstance.from_edges(A, [(0, 1, 1.0), (1, 2, bad)])
    A[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        ProblemInstance.from_edges(A, [(0, 1, 1.0), (1, 2, 1.0)])


def test_instance_sorts_edges_lexicographically():
    A = np.zeros((1, 4))
    inst = ProblemInstance.from_edges(A, [(1, 3, 1.0), (0, 2, 2.0), (1, 2, 3.0)])
    assert list(inst.edge_i) == [0, 1, 1]
    assert list(inst.edge_j) == [2, 2, 3]
    assert list(inst.weights) == [2.0, 3.0, 1.0]


def test_prox_block_examples():
    assert np.allclose(prox_block(np.array([3.0, 4.0]), 5.0), [0.0, 0.0])
    assert np.allclose(prox_block(np.array([3.0, 4.0]), 2.5), [1.5, 2.0])
    assert np.allclose(prox_block(np.zeros(2), 1.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        prox_block(np.zeros(2), 0.0)


def test_project_subdiff_block_examples():
    z = np.zeros(2)
    assert np.allclose(project_subdiff_block(np.array([0.6, 0.8]), z, 2.0), [0.6, 0.8])
    assert np.allclose(project_subdiff_block(np.array([6.0, 8.0]), z, 5.0), [3.0, 4.0])
    got = project_subdiff_block(np.array([9.0, 9.0]), np.array([0.0, 1.0]), 3.0)
    assert np.allclose(got, [0.0, 3.0])


def test_moreau_identity_and_nonexpansiveness():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(1, 5))) * 3
        tau = rng.random() * 2 + 1e-3
        p = prox_block(v, tau)
        proj = project_subdiff_block(v, np.zeros_like(v), tau)
        assert np.allclose(p + proj, v, atol=1e-12)
        v2 = rng.standard_normal(v.shape) * 3
        lhs = np.linalg.norm(prox_block(v, tau) - prox_block(v2, tau))
        assert lhs <= np.linalg.norm(v - v2) + 1e-12


def test_kkt_residual_isolated_point():
    inst = ProblemInstance.from_edges(np.array([[1.5]]), [])
    x = inst.A.copy()
    y = np.zeros((1, 0))
    z = np.zeros((1, 0))
    assert kkt_residual(inst, 1.0, x, y, z) == 0.0


def test_kkt_residual_shape_check(t1_inst):
    with pytest.raises(ValueError):
        kkt_residual(t1_inst, 1.0, np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 3)))


def test_kkt_residual_dominates_feasibility(t1_inst):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 3))
    y = rng.standard_normal((1, 3))
    z = rng.standard_normal((1, 3))
    feas = np.linalg.norm(t1_inst.incidence.apply(x) - y)
    assert kkt_residual(t1_inst, 1.0, x, y, z) >= feas


def test_two_point_fusion_closed_form():
    # one edge, points 0 and 4: fusion iff lam*w >= half the gap
    inst = ProblemInstance.from_edges(np.array([[0.0, 4.0]]), [(0, 1, 1.0)])
    for lam, x_opt in ((2.0, (2.0, 2.0)), (3.0, (2.0, 2.0)), (1.0, (1.0, 3.0))):
        x = np.array([x_opt])
        y = inst.incidence.apply(x)
        # stationarity at node 0: (x0 - a0) + z = 0 for the +1/-1 edge column
        z = np.array([[0.0 - x_opt[0]]])
        assert kkt_residual(inst, lam, x, y, z) <= 1e-12


def test_objectives_definitional(t1_inst):
    assert dual_objective(t1_inst, 1.0, np.zeros((1, 3))) == 0.0
    reg_val = sum(
        w * abs(t1_inst.A[0, i] - t1_inst.A[0, j])
        for i, j, w in zip(t1_inst.edge_i, t1_inst.edge_j, t1_inst.weights)
    )
    assert primal_objective(t1_inst, 2.0, t1_inst.A) == pytest.approx(2.0 * reg_val)
    assert primal_objective(t1_inst, 0.0, t1_inst.A) == 0.0


def test_dual_objective_rejects_infeasible(t1_inst):
    z = np.full((1, 3), 10.0)
    with pytest.raises(InfeasibleDualError):
        dual_objective(t1_inst, 1.0, z)


def test_weak_duality_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        N = int(rng.integers(2, 8))
        A = rng.standard_normal((2, N))
        edges = [(i, j, float(rng.random() + 0.1)) for i in range(N) for j in range(i + 1, N)]
        inst = ProblemInstance.from_edges(A, edges)
        lam = float(rng.random() * 2 + 0.05)
        x = rng.standard_normal((2, N))
        z = rng.standard_normal((2, inst.m_blocks))
        z = project_columns(z, lam * inst.weights)
        assert primal_objective(inst, lam, x) >= dual_objective(inst, lam, z) - 1e-10


def test_duality_gap_t1_oracle(t1_inst):
    triple, _ = solve_full(t1_inst, 0.1, 1e-10)
    assert duality_gap(t1_inst, 0.1, triple.x, triple.z) <= 1e-6
    # strictly suboptimal primal has positive gap
    assert duality_gap(t1_inst, 0.1, t1_inst.A, np.zeros((1, 3))) > 0


def test_kkt_triple_recomputes(t1_inst):
    triple, _ = solve_full(t1_inst, 1.0, 1e-8)
    rebuilt = KktTriple.from_point(t1_inst, 1.0, triple.x, triple.y, triple.z)
    assert rebuilt.residual_norm == pytest.approx(
        kkt_residual(t1_inst, 1.0, triple.x, triple.y, triple.z)
    )


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(lam=0.0)
    with pytest.raises(ValueError):
        SolveConfig(lam=1.0, eps=0.0)
    with pytest.raises(ValueError):
        SolveConfig(lam=1.0, eps_hat=-1.0)
    for kwargs in ({"lam": np.nan}, {"lam": np.inf}, {"eps": np.nan}, {"eps": np.inf},
                   {"eps_hat": np.nan}, {"eps_hat": np.inf}):
        with pytest.raises(ValueError, match="finite"):
            SolveConfig(**{"lam": 1.0, **kwargs})

