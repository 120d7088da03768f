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
from sievepath import admm
from sievepath._kernels import column_norms, project_columns
from sievepath.model import primal_objective

from conftest import random_instance


def test_fully_fused_t1(t1_inst):
    """With every block fused the subproblem is unconstrained and closes in
    one shot: x_alpha is the centroid of A, C / h, at the sigma given."""
    part = build_partition(t1_inst.incidence, [0, 1, 2])
    red = reduce_problem(t1_inst, part, 10.0)
    sub = solve_reduced_admm(red, tol=1e-10)
    assert sub.converged
    assert sub.iterations == 0
    assert sub.x_red[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert np.array_equal(sub.x_red, red.C / red.h)
    assert sub.y_red.shape == (1, 0)
    assert sub.sigma == AdmmConfig().sigma
    carried = solve_reduced_admm(red, tol=1e-10, config=AdmmConfig(sigma=3.0),
                                 warm=sub.warm_start()[:3] + (7.5,))
    assert carried.sigma == 7.5 and carried.iterations == 0
    assert np.array_equal(carried.x_red, red.C / red.h)


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

    starved = solve_reduced_admm(red, tol=1e-12, config=AdmmConfig(max_iter=3))
    assert not starved.converged


def test_reported_residual_recomputable(t1_inst):
    part = build_partition(t1_inst.incidence, [])
    red = reduce_problem(t1_inst, part, 1.0)
    sub = solve_reduced_admm(red, tol=1e-9)
    r = reduced_kkt_residual(red, sub.x_red, sub.y_red, sub.xi)
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
    """Full-space subsolver against a projected-gradient oracle on small problems."""
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


def test_warm_start_carries_sigma(t1_inst):
    part = build_partition(t1_inst.incidence, [])
    red = reduce_problem(t1_inst, part, 1.0)
    cfg = AdmmConfig(sigma=100.0)
    cold = solve_reduced_admm(red, tol=1e-9, config=cfg)
    assert cold.converged
    # resuming a converged solve keeps the carried sigma and takes no step
    X, Y, Z, _ = cold.warm_start()
    warm = solve_reduced_admm(red, tol=1e-9, config=cfg, warm=(X, Y, Z, 7.0))
    assert warm.converged
    assert warm.iterations == 0
    assert warm.sigma == 7.0
    # without a carried sigma a warm start begins at the configured value
    plain = solve_reduced_admm(red, tol=1e-9, config=cfg, warm=(X, Y, Z))
    assert plain.sigma == 100.0


def _newton_point(rng, margin=1e-6):
    """A random reduced problem, multiplier, sigma and point X with every
    block of V = X Jr + Z / sigma at least margin away from its ball's
    boundary, so that grad Psi is smooth around X."""
    while True:
        inst = random_instance(rng, N=int(rng.integers(5, 11)))
        I = rng.choice(inst.m_blocks, size=int(rng.integers(0, inst.m_blocks // 2 + 1)),
                       replace=False)
        red = reduce_problem(inst, build_partition(inst.incidence, I),
                             float(rng.uniform(0.05, 2.0)))
        if red.m_red == 0:
            continue
        sigma = float(rng.choice([0.5, 3.0, 50.0]))
        X = red.C / red.h + rng.standard_normal(red.C.shape)
        Z = rng.standard_normal((red.C.shape[0], red.m_red))
        tau = red.lam * red.weights / sigma
        V = red.apply(X) + Z / sigma
        if np.all(np.abs(column_norms(V) - tau) > margin):
            return red, X, Z, sigma, tau


def _grad_psi(red, X, Z, sigma, tau):
    # Pi_tau is the projection onto the tau-balls: V - prox(V)
    V = red.apply(X) + Z / sigma
    return red.grad_phi(X) + sigma * red.adjoint(project_columns(V, tau))


def _node_major(D):
    return D.T.ravel()


def test_newton_hessian_matches_gradient_differences(monkeypatch):
    """The assembled Hessian and the operator agree with each other and with
    differences of grad Psi; the preconditioner bounds H from above; the
    exact and the PCG directions solve H dX = -grad."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        red, X, Z, sigma, tau = _newton_point(rng)
        V = red.apply(X) + Z / sigma
        monkeypatch.setattr(admm, "EXACT_ENTRIES", 10**9)
        exact = admm._NewtonSystem(red)
        monkeypatch.setattr(admm, "EXACT_ENTRIES", 0)
        operator = admm._NewtonSystem(red)
        assert exact.exact and not operator.exact

        H = exact.matrix(V, tau, sigma).toarray()
        assert np.allclose(H, H.T, rtol=0, atol=1e-12)
        D = rng.standard_normal(X.shape)
        eps = 1e-7
        fd = (_grad_psi(red, X + eps * D, Z, sigma, tau)
              - _grad_psi(red, X - eps * D, Z, sigma, tau)) / (2 * eps)
        HD = (H @ _node_major(D)).reshape(-1, X.shape[0]).T
        assert np.allclose(HD, fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())

        hess, L = operator.operator(V, tau, sigma)
        assert np.allclose(hess(D.T), HD.T, rtol=0, atol=1e-10 * (1.0 + np.abs(HD).max()))
        bound = np.kron(L.toarray(), np.eye(X.shape[0])) - H
        assert np.linalg.eigvalsh(bound).min() >= -1e-9 * np.abs(H).max()

        G = _grad_psi(red, X, Z, sigma, tau)
        scale = 1.0 + np.abs(G).max()
        dX = exact.direction(V, tau, sigma, G, 0.1)
        assert np.allclose(H @ _node_major(dX), -_node_major(G), rtol=0, atol=1e-9 * scale)
        dX = operator.direction(V, tau, sigma, G, 1e-12)
        assert np.allclose(H @ _node_major(dX), -_node_major(G), rtol=0, atol=1e-9 * scale)
        # a loose PCG solve stops at its tolerance and still descends
        dX = operator.direction(V, tau, sigma, G, 0.5)
        res = np.linalg.norm(H @ _node_major(dX) + _node_major(G))
        assert res <= 0.5 * np.linalg.norm(G)
        assert np.vdot(G, dX) < 0.0


@pytest.mark.parametrize("budget", [10**9, 0], ids=["exact", "operator"])
def test_newton_steps_never_increase_psi(monkeypatch, budget):
    monkeypatch.setattr(admm, "EXACT_ENTRIES", budget)
    rng = np.random.default_rng(12)
    for _ in range(15):
        red, X0, Z, sigma, tau = _newton_point(rng, margin=0.0)
        ns = admm._NewtonSystem(red)
        values = []
        for k in range(12):
            X, V, _, steps, _ = admm._newton(ns, X0, Z, sigma, 0.0, k)
            values.append(ns.psi_grad(X, V, tau, sigma)[0])
            if steps < k:
                break  # stalled at round-off: later calls repeat this point
        values = np.array(values)
        assert np.all(np.diff(values) <= 1e-13 * np.abs(values[:-1]))


def test_high_dimension_solves_without_forming_the_hessian(monkeypatch):
    """With d = 20 features the Newton matrix would store 4 m d^2 entries;
    the default budget sends the solve to the operator, which certifies the
    same solution as the assembled matrix does."""
    from sievepath import build_knn_graph, gen_two_half_moons

    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    A = Q[:, :2] @ gen_two_half_moons(50, noise=0.1, seed=3)
    inst = build_knn_graph(A + 0.02 * rng.standard_normal(A.shape), k=5)
    red = reduce_problem(inst, build_partition(inst.incidence, []), 0.5)
    assert not admm._NewtonSystem(red).exact

    triple, sub = solve_full(inst, 0.5, tol=1e-9)
    assert sub.converged and triple.residual_norm <= 1e-8
    monkeypatch.setattr(admm, "EXACT_ENTRIES", 10**9)
    ref, ref_sub = solve_full(inst, 0.5, tol=1e-9)
    assert ref_sub.converged
    F, F_ref = primal_objective(inst, 0.5, triple.x), primal_objective(inst, 0.5, ref.x)
    assert abs(F - F_ref) <= 1e-9 * abs(F_ref)


def test_parallel_edges_share_a_block_but_not_an_assembly_slot(monkeypatch):
    """Two points joined by one edge and a third point fused to each: the
    three reduced edges are parallel, so H has 4 d^2 entries, while the
    assembly handles 4 d^2 per edge and obeys its own cap."""
    from sievepath import ProblemInstance

    edges = [(0, 2), (1, 3), (0, 1), (0, 3), (1, 2)]
    inst = ProblemInstance.from_edges(np.array([[0.0, 1.0, 0.1, 0.9]]), edges)
    fused = [l for l, e in enumerate(zip(inst.edge_i, inst.edge_j)) if e in edges[:2]]
    red = reduce_problem(inst, build_partition(inst.incidence, fused), 0.1)
    assert red.n_red == 2 and red.m_red == 3
    monkeypatch.setattr(admm, "EXACT_ENTRIES", 4)
    monkeypatch.setattr(admm, "ASSEMBLY_ENTRIES", 12)
    assert admm._NewtonSystem(red).exact
    monkeypatch.setattr(admm, "ASSEMBLY_ENTRIES", 11)
    assert not admm._NewtonSystem(red).exact


def test_singular_factorization_is_a_solver_error():
    import scipy.sparse as sp

    with pytest.raises(admm.SingularSystemError):
        admm._factor(sp.csc_matrix((3, 3)))
