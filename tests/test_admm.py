import numpy as np
import pytest
import scipy.sparse as sp

from sievepath import (
    AdmmConfig,
    PathConfig,
    build_knn_graph,
    build_partition,
    duality_gap,
    gen_two_half_moons,
    recover_primal,
    reduce_problem,
    reduced_kkt_residual,
    solve_full,
    solve_path,
    solve_reduced_admm,
)
from sievepath import admm
from sievepath._kernels import column_norms, project_columns
from sievepath.model import primal_objective

from conftest import force_newton_branch, random_instance


def test_fully_fused_t1(t1_inst):
    """With every block fused the subproblem is unconstrained and closes in
    one shot: x_alpha is the centroid of A, C / h, at the sigma it starts
    with: SIGMA_START cold, the carried one warm."""
    part = build_partition(t1_inst.incidence, [0, 1, 2])
    red = reduce_problem(t1_inst, part, 10.0)
    sub = solve_reduced_admm(red, tol=1e-10)
    assert sub.converged
    assert sub.iterations == 0
    assert sub.x_red[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert np.array_equal(sub.x_red, red.C / red.h)
    assert sub.y_red.shape == (1, 0)
    assert sub.sigma == admm.SIGMA_START == 1.0
    carried = solve_reduced_admm(red, tol=1e-10, warm=sub.warm_start()[:3] + (7.5,))
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


def test_convergence_flags_and_gap(t1_inst, caplog, monkeypatch):
    """A solve converges on its reduced KKT residual; one stopped short
    names what stopped it."""
    part = build_partition(t1_inst.incidence, [])
    red = reduce_problem(t1_inst, part, 0.5)
    sub = solve_reduced_admm(red, tol=1e-8)
    assert sub.converged
    assert sub.kkt_red <= 1e-8
    x, _ = recover_primal(part, sub.x_red, sub.y_red)
    assert duality_gap(t1_inst, 0.5, x, sub.xi) <= 1e-8

    with caplog.at_level("WARNING", logger="sievepath.admm"):
        starved = solve_reduced_admm(red, tol=1e-12, config=AdmmConfig(max_iter=3))
    assert not starved.converged
    assert "at max_iter = 3 Newton steps (--admm-max-iter)" in caplog.text
    caplog.clear()
    monkeypatch.setattr(admm, "MAX_OUTER", 1)
    with caplog.at_level("WARNING", logger="sievepath.admm"):
        assert not solve_reduced_admm(red, tol=1e-12).converged
    assert "at MAX_OUTER = 1 multiplier updates" in caplog.text


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


def test_warm_start_carries_sigma(t1_inst, monkeypatch):
    """A carried sigma replaces SIGMA_START; a cold start and a warm start
    without one, such as a 3-tuple (X, Y, Z), begin at SIGMA_START."""
    monkeypatch.setattr(admm, "SIGMA_START", 100.0)
    part = build_partition(t1_inst.incidence, [])
    red = reduce_problem(t1_inst, part, 1.0)
    cold = solve_reduced_admm(red, tol=1e-9)
    assert cold.converged
    # resuming a converged solve keeps the carried sigma and takes no step
    X, Y, Z, _ = cold.warm_start()
    warm = solve_reduced_admm(red, tol=1e-9, warm=(X, Y, Z, 7.0))
    assert warm.converged
    assert warm.iterations == 0
    assert warm.sigma == 7.0
    # without a carried sigma a warm start begins at SIGMA_START
    plain = solve_reduced_admm(red, tol=1e-9, warm=(X, Y, Z))
    assert plain.iterations == 0
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
        V = red.inc.apply(X) + Z / sigma
        if np.all(np.abs(column_norms(V) - tau) > margin):
            return red, X, Z, sigma, tau


def _grad_psi(red, X, Z, sigma, tau):
    # Pi_tau is the projection onto the tau-balls: V - prox(V)
    V = red.inc.apply(X) + Z / sigma
    return red.grad_phi(X) + sigma * red.inc.adjoint(project_columns(V, tau))


def _node_major(D):
    return D.T.ravel()


def _unpermute(A, order, d=1):
    """A matrix built with node order[p] in place p (d unknowns per node,
    node-major), moved back to the original node labels; a sparse one
    keeps its stored zeros."""
    idx = (np.argsort(order)[:, None] * d + np.arange(d)).ravel()
    return A[idx][:, idx]


def test_newton_hessian_matches_gradient_differences(monkeypatch):
    """The assembled Hessian and the operator agree with each other and with
    differences of grad Psi; the preconditioner bounds H from above; the
    direct and the PCG directions solve H dX = -grad. H and L are built in
    the system's node order and compared here in the original labels."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        red, X, Z, sigma, tau = _newton_point(rng)
        V = red.inc.apply(X) + Z / sigma
        d = X.shape[0]
        force_newton_branch(monkeypatch, True)
        exact = admm._NewtonSystem(red)
        force_newton_branch(monkeypatch, False)
        operator = admm._NewtonSystem(red)
        assert exact.assembled and not operator.assembled

        H = _unpermute(exact.matrix(V, tau, sigma).toarray(), exact.order, d)
        assert np.allclose(H, H.T, rtol=0, atol=1e-12)
        D = rng.standard_normal(X.shape)
        eps = 1e-7
        fd = (_grad_psi(red, X + eps * D, Z, sigma, tau)
              - _grad_psi(red, X - eps * D, Z, sigma, tau)) / (2 * eps)
        HD = (H @ _node_major(D)).reshape(-1, d).T
        assert np.allclose(HD, fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())

        hess, L = operator.operator(V, tau, sigma)
        order = operator.order
        assert np.allclose(hess(D.T[order]), HD.T[order], rtol=0,
                           atol=1e-10 * (1.0 + np.abs(HD).max()))
        bound = np.kron(_unpermute(L.toarray(), order), np.eye(d)) - H
        assert np.linalg.eigvalsh(bound).min() >= -1e-9 * np.abs(H).max()

        G = _grad_psi(red, X, Z, sigma, tau)
        scale = 1.0 + np.abs(G).max()
        dX = exact.direction(V, tau, sigma, G, 0.1)
        assert exact.factorizations == 1 and exact.cg_steps == 0
        assert np.allclose(H @ _node_major(dX), -_node_major(G), rtol=0, atol=1e-9 * scale)
        dX = operator.direction(V, tau, sigma, G, 1e-12)
        assert operator.factorizations == 1 and operator.cg_steps > 0
        assert np.allclose(H @ _node_major(dX), -_node_major(G), rtol=0, atol=1e-9 * scale)
        # a loose PCG solve stops at its tolerance and still descends
        dX = operator.direction(V, tau, sigma, G, 0.5)
        res = np.linalg.norm(H @ _node_major(dX) + _node_major(G))
        assert res <= 0.5 * np.linalg.norm(G)
        assert np.vdot(G, dX) < 0.0


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("assembled", [True, False], ids=["exact", "operator"])
def test_node_order_is_a_permutation_with_minimum_degree_fill(monkeypatch, assembled):
    """On random kNN subproblems the stored node order is a permutation.
    Factored in it without reordering, L, which has the probe's pattern, has
    no more fill than SuperLU's own minimum-degree factorization of the same
    stored matrix in the original labels, and H, whose order is the node
    order spread over its d x d blocks, at most 5% more: minimum degree on
    the n d unknowns finds a few percent less fill on some instances and
    more on others. The order probe's fill, which the selector reads, is
    the fill of L's factors."""
    import scipy.sparse as sp
    from sievepath import build_knn_graph

    force_newton_branch(monkeypatch, assembled)
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        inst = build_knn_graph(rng.standard_normal((d, int(rng.integers(40, 120)))), k=5)
        I = rng.choice(inst.m_blocks, size=int(rng.integers(0, inst.m_blocks // 4)),
                       replace=False)
        red = reduce_problem(inst, build_partition(inst.incidence, I), 0.3)
        ns = admm._NewtonSystem(red)
        assert ns.assembled == assembled
        assert np.array_equal(np.sort(ns.order), np.arange(len(red.h)))

        sigma = 2.0
        tau = red.lam * red.weights / sigma
        V = red.inc.apply(red.C / red.h) + 0.5 * rng.standard_normal((d, red.m_red))
        if ns.assembled:
            A, per, slack = ns.matrix(V, tau, sigma), d, 1.05
        else:
            A, per, slack = ns.operator(V, tau, sigma)[1], 1, 1.0
            keep = ns.keep
            probe = admm._node_order(len(red.h), red.inc.edge_i[keep], red.inc.edge_j[keep])
            assert probe[2] == admm._factor(A).nnz
        own = _unpermute(A, ns.order, per).tocsc()
        mmd = sp.linalg.splu(own, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})
        assert _fill(admm._factor(A)) <= slack * _fill(mmd)


def test_block_pattern_is_the_pattern_of_the_per_edge_entries():
    """H's pattern, built from L's by spreading every node entry over a
    dense d x d block, holds the per-edge entries (the diagonal, then the
    (ri, ri), (rj, rj), (ri, rj) and (rj, ri) blocks of the edges), and the
    placement maps the entries (s, k, k') of L's blocks one to one onto
    H.data, entry (s, k, k') of L's entry (i, j) at row i d + k and column
    j d + k'. Where every node has an edge the two patterns are equal; a
    node without edges, whose list holds only its diagonal, gets a dense
    block too."""
    from sievepath import ProblemInstance

    rng = np.random.default_rng(41)
    # nodes 3 and 4 fuse into a column that keeps edge (2, 3); nodes 6 and 7
    # are joined only to each other, and fused, so their column has no edges
    inst = ProblemInstance.from_edges(
        rng.standard_normal((3, 8)),
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (1, 5), (6, 7)])
    fused = [l for l, e in enumerate(zip(inst.edge_i, inst.edge_j)) if e in ((3, 4), (6, 7))]
    cases = [(inst, fused, True), (random_instance(rng, N=12, d=2, k=3), [], False)]
    for inst, I, has_edgeless in cases:
        red = reduce_problem(inst, build_partition(inst.incidence, I), 0.5)
        ns = admm._NewtonSystem(red)
        n, d = len(red.h), inst.d
        ri, rj = red.inc.edge_i[ns.keep], red.inc.edge_j[ns.keep]
        rank = np.argsort(ns.order)
        ri, rj = rank[ri], rank[rj]
        k = np.arange(d)
        br = np.concatenate([ri, rj, ri, rj])[:, None, None] * d + k[:, None]
        bc = np.concatenate([ri, rj, rj, ri])[:, None, None] * d + k
        br, bc = (b.ravel() for b in np.broadcast_arrays(br, bc))
        rows = np.concatenate([np.arange(n * d), br])
        cols = np.concatenate([np.arange(n * d), bc])
        L, _ = admm._pattern(np.concatenate([np.arange(n), ri, rj, ri, rj]),
                             np.concatenate([np.arange(n), ri, rj, rj, ri]), n)
        H, place = admm._block_pattern(L, d)
        edgeless = np.diff(L.indptr) == 1
        assert edgeless.any() == has_edgeless
        dense = sp.kron(sp.csc_matrix((np.ones(L.nnz), L.indices, L.indptr), shape=(n, n)),
                        np.ones((d, d)), format="csc")
        dense.sort_indices()
        assert np.array_equal(H.indptr, dense.indptr) and np.array_equal(H.indices, dense.indices)
        listed = sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n * d, n * d))
        # the list misses exactly the off-diagonal entries of edgeless nodes' blocks
        assert H.nnz - listed.nnz == np.count_nonzero(edgeless) * d * (d - 1)
        assert H.indices.dtype == H.indptr.dtype == place.dtype == np.intc
        assert place.shape == (L.nnz, d, d)
        assert np.array_equal(np.sort(place, axis=None), np.arange(H.nnz))
        col = np.repeat(np.arange(n * d), np.diff(H.indptr))
        node_col = np.repeat(np.arange(n), np.diff(L.indptr))
        assert np.all(H.indices[place] == (L.indices[:, None] * d + k)[:, :, None])
        assert np.all(col[place] == (node_col[:, None] * d + k)[:, None, :])


def test_one_order_per_subsolve_and_one_factorization_per_newton_step(monkeypatch):
    """A subsolve asks SuperLU for a minimum-degree order once, for its
    order probe, and factors in it. On a small system, whose factors hold
    few entries per column, H is factored at every Newton step and its
    fresh factors solve without CG. Elsewhere, L at d = 2 on the same
    system and either matrix on a larger one, factors outlive some steps:
    at most one factorization per direction, fewer than the Newton steps,
    and L at least once per inner solve. SubSolution.factorizations and
    cg_steps count what the system made and ran during the solve, not the
    probe."""
    import scipy.sparse.linalg as spla

    specs = []
    splu = spla.splu

    def counting(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    newton = admm._newton
    inner = []  # (directions, factorizations) of every inner solve

    def recording(ns, *args):
        made = ns.factorizations
        out = newton(ns, *args)
        inner.append((out[3] + out[4], ns.factorizations - made))
        return out

    monkeypatch.setattr(admm, "_newton", recording)
    small = random_instance(np.random.default_rng(3), N=30, d=2, k=4)
    large = build_knn_graph(gen_two_half_moons(100, 0.1, 0), k=10)
    for inst in (small, large):
        for assembled in (True, False):
            force_newton_branch(monkeypatch, assembled)
            red = reduce_problem(inst, build_partition(inst.incidence, []), 0.4)
            specs.clear()
            inner.clear()
            ns = admm._NewtonSystem(red)
            sub = solve_reduced_admm(red, tol=1e-8, system=ns)
            assert sub.converged and sub.iterations > 0
            assert specs.count("MMD_AT_PLUS_A") == 1
            assert len(specs) == sub.factorizations + 1
            assert specs.count("NATURAL") == sub.factorizations == ns.factorizations
            assert sub.cg_steps == ns.cg_steps
            assert sum(f for _, f in inner) == sub.factorizations
            assert all(f <= n for n, f in inner) and inner[0][1] >= 1
            if assembled and inst is small:
                assert sub.factorizations == sub.iterations and sub.cg_steps == 0
            else:
                assert sub.factorizations < sub.iterations
            if not assembled:
                assert all(f >= 1 for n, f in inner if n > 0)
                assert sub.cg_steps >= sub.iterations


def test_preconditioner_is_refactored_once_extra_cg_steps_outweigh_it(monkeypatch):
    """Replayed on the CG counts of every direction of direct paths, in
    both branches. The system keeps its factors exactly while their budget
    is at least 1: a factorization sets it to _reuse_weight of the new
    factors (their stored entries per column over REUSE_FILL, 0 for factors
    of H with fewer than REUSE_MIN_FILL entries and over d for L), and
    reuse spends it. Kept factors of H, made at any earlier step, inner
    solve or lambda, run CG for at most the budget's whole steps, spend
    every step, and refactor in the same direction when CG stops short;
    fresh ones solve without CG. Factors of L are dropped when an inner
    solve begins and made when none are kept, and a direction spends its
    CG steps beyond c0, the count of the direction that made them. A
    direction the Woodbury route solves runs no CG and leaves the factors
    of H and their budget as they were; it factors M exactly when sigma
    differs from the sigma of the kept factors of M, which thus outlive
    Newton steps, inner solves and lambdas. The route serves the larger
    system only, and only when H is assembled."""
    from sievepath import PathConfig, solve_path

    # calls: a direction's record, or None as an inner solve begins; made
    # and made_m: factors of H or L, and of M, in the order they were made
    calls, made, made_m = [], [], []
    begin, direction, factor = (admm._NewtonSystem.begin, admm._NewtonSystem.direction,
                                admm._factor)

    def beginning(self):
        calls.append(None)
        begin(self)

    def recording(self, V, tau, sigma, *args):
        kept, cg, factorizations = self.lu, self.cg_steps, self.factorizations
        served = self.woodbury_directions
        out = direction(self, V, tau, sigma, *args)
        calls.append((kept, self.cg_steps - cg, self.factorizations - factorizations,
                      self.lu, self.budget, self.woodbury_directions - served, sigma,
                      getattr(self, "mlu", None)))
        return out

    def factoring(A, permc_spec="NATURAL"):
        lu = factor(A, permc_spec)
        if permc_spec == "NATURAL":  # a Newton matrix, not the order probe
            # M is n x n, H n d x n d; L, n x n too, has no route
            (made_m if assembled and A.shape[0] == inst.N else made).append(lu)
        return lu

    monkeypatch.setattr(admm._NewtonSystem, "begin", beginning)
    monkeypatch.setattr(admm._NewtonSystem, "direction", recording)
    monkeypatch.setattr(admm, "_factor", factoring)
    small = random_instance(np.random.default_rng(3), N=30, d=2, k=4)
    large = build_knn_graph(gen_two_half_moons(100, 0.1, 0), k=10)
    reused = refreshed = dropped = routed = kept_m = 0
    for inst in (small, large):
        for assembled in (True, False):
            force_newton_branch(monkeypatch, assembled)
            calls.clear()
            made.clear()
            made_m.clear()
            lams = [2.0, 1.0, 0.5]
            assert solve_path(inst, PathConfig(mode="direct", lambdas=lams)).all_converged
            lu, budget, c0 = None, 0.0, 0
            mlu, msigma = None, None
            fresh, fresh_m = iter(made), iter(made_m)
            first = False  # the direction opens an inner solve
            served_here = 0
            for call in calls:
                if call is None:
                    lu = lu if assembled else None
                    first = True
                    continue
                kept, cg, factored, after, left, served, sigma, after_m = call
                assert kept is lu and factored in (0, 1)
                if served:
                    assert cg == 0 and factored == (sigma != msigma)
                    if factored:
                        mlu, msigma = next(fresh_m), sigma
                    else:
                        kept_m += first
                    assert after_m is mlu
                    assert after is lu and left == budget
                    assert (after is not None) == (left >= 1)
                    served_here += 1
                    first = False
                    continue
                first = False
                if assembled and lu is not None:
                    cap = int(budget)
                    assert cg <= cap and (cg == cap or not factored)
                    budget -= cg
                elif assembled:
                    assert factored and cg == 0
                else:
                    assert factored == (lu is None)
                if factored:
                    refreshed += lu is not None
                    lu, c0 = next(fresh), 0 if assembled else cg
                    budget = lu.nnz / lu.shape[0] / admm.REUSE_FILL
                    if assembled:
                        budget = budget if lu.nnz >= admm.REUSE_MIN_FILL else 0.0
                    else:
                        budget = budget / inst.d
                else:
                    reused += 1
                if not assembled:
                    budget -= max(0, cg - c0)
                if budget < 1:
                    lu = None
                    dropped += 1
                assert after is lu and left == budget
                assert (after is not None) == (left >= 1)
            assert next(fresh, None) is None and next(fresh_m, None) is None
            assert (served_here > 0) == (assembled and inst is large)
            routed += served_here
    assert reused > 0 and refreshed > 0 and dropped > 0
    assert routed > 0 and kept_m > 0


def test_reused_factors_still_give_a_descent_direction(monkeypatch):
    """A direction preconditioned by the factors of H or L at an earlier
    Newton point still solves H dX = -grad to rtol and descends."""
    # let the factors serve whatever reuse costs
    monkeypatch.setattr(admm, "_reuse_weight", lambda ns: admm.MAX_CG)
    rng = np.random.default_rng(31)
    for _ in range(10):
        red, X, Z, sigma, tau = _newton_point(rng)
        force_newton_branch(monkeypatch, True)
        exact = admm._NewtonSystem(red)
        V = red.inc.apply(X) + Z / sigma
        G = _grad_psi(red, X, Z, sigma, tau)
        X1 = X + 0.5 * rng.standard_normal(X.shape)
        V1 = red.inc.apply(X1) + Z / sigma
        G1 = _grad_psi(red, X1, Z, sigma, tau)
        H1 = _unpermute(exact.matrix(V1, tau, sigma).toarray(), exact.order, X.shape[0])
        for assembled in (True, False):
            force_newton_branch(monkeypatch, assembled)
            ns = admm._NewtonSystem(red)
            ns.direction(V, tau, sigma, G, 0.1)
            lu = ns.lu
            assert lu is not None and ns.factorizations == 1
            for rtol in (0.5, 0.1, 1e-6):
                dX = ns.direction(V1, tau, sigma, G1, rtol)
                assert ns.factorizations == 1 and ns.lu is lu
                res = np.linalg.norm(H1 @ _node_major(dX) + _node_major(G1))
                assert res <= rtol * np.linalg.norm(G1)
                assert np.vdot(G1, dX) < 0.0


@pytest.mark.parametrize("assembled", [True, False], ids=["exact", "operator"])
def test_newton_steps_never_increase_psi(monkeypatch, assembled):
    """Psi after k Newton steps from one point never exceeds Psi after k - 1;
    each run starts from a new system, so that no factors carry over."""
    force_newton_branch(monkeypatch, assembled)
    rng = np.random.default_rng(12)
    for _ in range(15):
        red, X0, Z, sigma, tau = _newton_point(rng, margin=0.0)
        values = []
        for k in range(12):
            ns = admm._NewtonSystem(red)
            X, V, _, steps, *_ = admm._newton(ns, X0, Z, sigma, 0.0, k)
            values.append(ns.psi_grad(X, V, tau, sigma)[0])
            if steps < k:
                break  # stalled at round-off: later calls repeat this point
        values = np.array(values)
        assert np.all(np.diff(values) <= 1e-13 * np.abs(values[:-1]))


def _moons_embedding(N, d, k):
    """N moons points rotated into d dimensions plus 0.02 noise."""
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = Q[:, :2] @ gen_two_half_moons(N, noise=0.1, seed=3)
    return build_knn_graph(A + 0.02 * rng.standard_normal(A.shape), k=k)


def _moons_in_20_dimensions():
    """50 moons points rotated into d = 20 dimensions plus 0.02 noise."""
    return _moons_embedding(50, 20, 5)


def test_selector_assembles_planar_moons_and_applies_high_dimensional_ones():
    """The full N = 1000 and N = 10^4 moons problems at d = 2 go to the
    assembled H; the 1000 points rotated into d = 20 go to the operator. An
    assembled system keeps no L, G or G^T, and an operator system no H."""
    planar = build_knn_graph(gen_two_half_moons(1000, 0.1, 0), k=10)
    large = build_knn_graph(gen_two_half_moons(10000, 0.1, 0), k=10)
    for inst, assembled in ((planar, True), (large, True),
                            (_moons_embedding(1000, 20, 10), False)):
        ns = admm._NewtonSystem(reduce_problem(inst, build_partition(inst.incidence, []), 1.0))
        assert ns.assembled == assembled
        assert hasattr(ns, "H") == assembled
        assert all(hasattr(ns, a) != assembled for a in ("L", "G", "GT"))


def test_high_dimension_solves_without_forming_the_hessian(monkeypatch):
    """With d = 20 features the Newton matrix would store 4 m d^2 entries;
    the selector sends the solve to the operator, which certifies the same
    solution as the assembled matrix does."""
    inst = _moons_in_20_dimensions()
    red = reduce_problem(inst, build_partition(inst.incidence, []), 0.5)
    assert not admm._NewtonSystem(red).assembled

    triple, sub = solve_full(inst, 0.5, tol=1e-9)
    assert sub.converged and triple.residual_norm <= 1e-8
    force_newton_branch(monkeypatch, True)
    ref, ref_sub = solve_full(inst, 0.5, tol=1e-9)
    assert ref_sub.converged
    F, F_ref = primal_objective(inst, 0.5, triple.x), primal_objective(inst, 0.5, ref.x)
    assert abs(F - F_ref) <= 1e-9 * abs(F_ref)


def test_high_dimension_never_reuses_the_preconditioner(monkeypatch):
    """At d = 20 a factorization of L weighs less than one CG step of the
    operator (_reuse_weight < 1), so every Newton step factors L afresh and
    the solve is bit for bit the one that never reuses factors."""
    inst = _moons_in_20_dimensions()
    triple, sub = solve_full(inst, 0.5, tol=1e-9)
    monkeypatch.setattr(admm, "REUSE_FILL", np.inf)
    ref, ref_sub = solve_full(inst, 0.5, tol=1e-9)
    assert sub.factorizations == sub.iterations == ref_sub.iterations
    assert sub.cg_steps == ref_sub.cg_steps > 0
    assert triple.x.tobytes() == ref.x.tobytes()
    assert triple.z.tobytes() == ref.z.tobytes()


def _direct_path(inst, lambdas):
    from sievepath import PathConfig, solve_path

    return solve_path(inst, PathConfig(mode="direct", lambdas=lambdas))


def test_direct_path_reuses_factors_across_lambdas(monkeypatch):
    """On a small moons instance the direct path's one Newton system keeps
    the factors of H from lambda to lambda: some lambda after the first
    starts without factoring, fewer factorizations than Newton steps run in
    all, and every lambda certifies."""
    first = {}  # lam -> whether its first direction made new factors
    direction = admm._NewtonSystem.direction

    def recording(self, *args):
        made = self.factorizations
        out = direction(self, *args)
        first.setdefault(self.red.lam, self.factorizations > made)
        return out

    monkeypatch.setattr(admm._NewtonSystem, "direction", recording)
    inst = build_knn_graph(gen_two_half_moons(100, 0.1, 0), k=10)
    res = _direct_path(inst, [2.0, 1.5, 1.0, 0.5])
    assert res.all_converged
    assert all(r.residual <= res.config.eps for r in res.records)
    assert res.total_factorizations < res.total_newton_steps
    assert first[2.0] and not all(first[lam] for lam in (1.5, 1.0, 0.5))


def test_direct_path_repeats_exactly():
    """The reuse rule reads counts, not clocks: two runs of one direct path
    give the same Newton, CG and factorization counts and the same bytes."""
    inst = build_knn_graph(gen_two_half_moons(100, 0.1, 0), k=10)
    runs = [_direct_path(inst, [2.0, 1.0, 0.5]) for _ in range(2)]
    work = [[(r.newton_steps, r.cg_steps, r.factorizations) for r in res.records]
            for res in runs]
    assert work[0] == work[1] and sum(c for _, c, _ in work[0]) > 0
    for a, b in zip(*(res.records for res in runs)):
        for name in ("x", "y", "z"):
            assert getattr(a.triple, name).tobytes() == getattr(b.triple, name).tobytes()


def _parallel_edge_subproblem():
    """Two points joined by one edge and a third point fused to each: the
    three reduced edges are parallel."""
    from sievepath import ProblemInstance

    edges = [(0, 2), (1, 3), (0, 1), (0, 3), (1, 2)]
    inst = ProblemInstance.from_edges(np.array([[0.0, 1.0, 0.1, 0.9]]), edges)
    fused = [l for l, e in enumerate(zip(inst.edge_i, inst.edge_j)) if e in edges[:2]]
    return reduce_problem(inst, build_partition(inst.incidence, fused), 0.1)


def test_parallel_edges_share_a_block_but_not_an_assembly_slot():
    """The three parallel edges share H's off-diagonal blocks, so H has
    4 d^2 entries, while the summation matrix keeps one term per edge, with
    sign -1, in the row of each off-diagonal entry."""
    red = _parallel_edge_subproblem()
    assert len(red.h) == 2 and red.m_red == 3
    ns = admm._NewtonSystem(red)
    assert ns.assembled and ns.H.nnz == 4
    col = np.repeat(np.arange(2), np.diff(ns.H.indptr))
    for b in np.flatnonzero(ns.H.indices != col):
        row = ns._S[b]
        assert sorted(row.indices) == [2, 3, 4] and np.all(row.data == -1.0)


def test_one_summation_matrix_with_a_term_per_node_and_edge_entry(monkeypatch):
    """Both branches build the same summation matrix: one row per entry of
    L, n + 4 m_kept stored terms (m_kept counting the edges between two
    reduced nodes) and a column per node and kept edge; H has a d x d block
    per entry of L. On the parallel-edge instance and on a sieved
    subproblem of moons rotated into d = 3, some of whose unfused edges
    fall inside one reduced node."""
    reds = [_parallel_edge_subproblem(), _rotated_moons_subproblem()]
    inside = []
    for red in reds:
        d, n = red.C.shape
        m_kept = int(np.count_nonzero(red.inc.edge_i != red.inc.edge_j))
        inside.append(m_kept < red.m_red)
        S = []
        for assembled in (True, False):
            force_newton_branch(monkeypatch, assembled)
            ns = admm._NewtonSystem(red)
            assert ns.assembled == assembled
            assert ns._S.nnz == n + 4 * m_kept and ns._S.shape[1] == n + m_kept
            if assembled:
                assert ns.H.nnz == d * d * ns._S.shape[0]
            else:
                assert ns._S.shape[0] == ns.L.nnz
            S.append(ns._S)
        assert all(np.array_equal(getattr(S[0], a), getattr(S[1], a))
                   for a in ("data", "indices", "indptr"))
    assert inside == [False, True]


def _edgeless_moons_subproblem():
    """60 moons points with k = 3 form two components; fusing the 4-point
    one, and a few edges of the other, leaves a column without edges."""
    from scipy.sparse.csgraph import connected_components

    inst = build_knn_graph(gen_two_half_moons(60, 0.1, 0), k=3)
    graph = sp.coo_matrix((np.ones(inst.m_blocks), (inst.edge_i, inst.edge_j)),
                          shape=(inst.N, inst.N))
    _, comp = connected_components(graph, directed=False)
    small = comp[inst.edge_i] == np.argmin(np.bincount(comp))
    I = np.concatenate([np.flatnonzero(small), np.flatnonzero(~small)[::7]])
    return reduce_problem(inst, build_partition(inst.incidence, I), 0.3)


def _rotated_moons_subproblem():
    """60 moons points rotated into d = 3, k = 5, with every fourth block
    fused: 16 reduced nodes, 30 of whose 130 edges join one node to itself."""
    inst = _moons_embedding(60, 3, 5)
    return reduce_problem(inst, build_partition(inst.incidence,
                                                np.arange(0, inst.m_blocks, 4)), 0.3)


def test_assembly_by_one_product_sums_as_bincount(monkeypatch):
    """H and L, filled by one sparse product, hold bit for bit what
    np.bincount gives when it sums the per-entry list [diag, q, q, -q, -q]
    into the slots of _pattern, for L once and for H once per block
    coordinate (k, k'), placed in H by _block_pattern: on the parallel-edge
    instance, on a sieved moons subproblem with an edgeless column and on a
    sieved one of moons rotated into d = 3."""
    reds = [_parallel_edge_subproblem(), _edgeless_moons_subproblem(),
            _rotated_moons_subproblem()]
    rng = np.random.default_rng(7)
    edgeless = []
    for red in reds:
        d, n = red.C.shape
        sigma = 1.5
        tau = red.lam * red.weights / sigma
        V = red.inc.apply(red.C / red.h) + 0.3 * rng.standard_normal((d, red.m_red))
        force_newton_branch(monkeypatch, True)
        exact = admm._NewtonSystem(red)
        force_newton_branch(monkeypatch, False)
        operator = admm._NewtonSystem(red)
        rank = np.argsort(exact.order)
        ri, rj = rank[red.inc.edge_i[exact.keep]], rank[red.inc.edge_j[exact.keep]]
        L, slot = admm._pattern(np.concatenate([np.arange(n), ri, rj, ri, rj]),
                                np.concatenate([np.arange(n), ri, rj, rj, ri]), n)
        place = admm._block_pattern(L, d)[1]
        edgeless.append(bool(np.any(np.diff(L.indptr) == 1)))
        sc, U = exact.curvature(V, tau, sigma)
        sQ = (np.eye(d)[:, :, None] - U[:, None, :] * U[None, :, :]) * sc
        h = red.h[exact.order]

        def summed(diag, q):
            return np.bincount(slot, weights=np.concatenate([diag, q, q, -q, -q]),
                               minlength=L.nnz)

        H = np.empty(place.size)
        for k in range(d):
            for k2 in range(d):
                H[place[:, k, k2]] = summed(h * (k == k2), sQ[k, k2])
        assert exact.matrix(V, tau, sigma).data.tobytes() == H.tobytes()
        assert operator.operator(V, tau, sigma)[1].data.tobytes() == summed(h, sc).tobytes()
    assert edgeless == [False, True, False]


@pytest.fixture(scope="module")
def moons1000_warm():
    """The full problem of 1000 moons points (k = 10) at lam = 8.8, and the
    certified x and z of lam = 9, where few edges leave their balls."""
    from sievepath import PathConfig, solve_path

    inst = build_knn_graph(gen_two_half_moons(1000, 0.1, 0), k=10)
    triple = solve_path(inst, PathConfig(mode="direct", lambdas=[9.0])).records[0].triple
    return reduce_problem(inst, build_partition(inst.incidence, []), 8.8), triple.x, triple.z


def _factored_direction(ns, sc, U, grad):
    """The Newton direction from SuperLU factors of H assembled at sc, U."""
    x = admm._factor(ns._assemble(sc, U)).solve((-grad.T[ns.order]).ravel())
    dX = np.empty_like(grad)
    dX[:, ns.order] = x.reshape(-1, grad.shape[0]).T
    return dX


def test_woodbury_direction_matches_the_factored_newton_matrix(moons1000_warm):
    """On the full N = 1000 moons problem at a warm point, where 1 to 150
    edges lie outside their balls, the Woodbury route solves the Newton
    system to 1e-9 relative of SuperLU's solve on the assembled H, making
    only the factors of M, which later directions at the same sigma keep;
    a new sigma factors M again. An edge outside its ball whose sigma -
    sigma c_l rounds to 0 needs no division: the route still matches."""
    red, X, Z = moons1000_warm
    ns = admm._NewtonSystem(red)
    assert ns.assembled and ns.woodbury_cap == admm.WOODBURY_RANK // 2
    rng = np.random.default_rng(4)
    for sigma, made in ((1.0, 1), (1.0, 1), (3.0, 2)):
        tau = red.lam * red.weights / sigma
        V = red.inc.apply(X) + Z / sigma
        sc, U = ns.curvature(V, tau, sigma)
        assert 0 < np.count_nonzero(U.any(axis=0)) <= ns.woodbury_cap
        grad = rng.standard_normal(X.shape)
        served = ns.woodbury_directions
        dX = ns.direction(V, tau, sigma, grad, 0.1)
        assert ns.woodbury_directions == served + 1
        assert ns.factorizations == made and ns.lu is None and ns.cg_steps == 0
        ref = _factored_direction(ns, sc, U, grad)
        assert np.linalg.norm(dX - ref) <= 1e-9 * np.linalg.norm(ref)
    out = np.flatnonzero(U.any(axis=0))
    sc[out[:3]] = sigma  # as v_l on its ball's boundary to the last bit
    x = ns._woodbury(-grad.T[ns.order], sc, U, sigma)
    dX = np.empty_like(grad)
    dX[:, ns.order] = x.T
    ref = _factored_direction(ns, sc, U, grad)
    assert np.linalg.norm(dX - ref) <= 1e-9 * np.linalg.norm(ref)


def test_woodbury_route_serves_only_large_systems_with_few_edges_out(monkeypatch,
                                                                    moons1000_warm):
    """The route serves an assembled system exactly when fill * d^2 is at
    least REUSE_MIN_FILL and WOODBURY_EDGES times its cap, the most edges
    outside their balls it takes (kd <= WOODBURY_RANK, 4k <= n), covers
    its edges. A direction with more edges out than the cap, or on the
    operator, is solved as before."""
    red, X, Z = moons1000_warm
    d, n = red.C.shape
    ri, rj = red.inc.edge_i, red.inc.edge_j
    fill = admm._node_order(n, ri, rj)[2]
    cap = min(admm.WOODBURY_RANK // d, n // 4)
    for floor, share, served in ((fill * d * d, admm.WOODBURY_EDGES, True),
                                 (fill * d * d + 1, admm.WOODBURY_EDGES, False),
                                 (0, -(-red.m_red // cap), True),
                                 (0, red.m_red // cap - 1, False)):
        monkeypatch.setattr(admm, "REUSE_MIN_FILL", floor)
        monkeypatch.setattr(admm, "WOODBURY_EDGES", share)
        assert admm._NewtonSystem(red).woodbury_cap == (cap if served else 0)
    force_newton_branch(monkeypatch, False)
    assert admm._NewtonSystem(red).woodbury_cap == 0
    monkeypatch.undo()
    small = random_instance(np.random.default_rng(3), N=30, d=2, k=4)
    force_newton_branch(monkeypatch, True)
    sub_red = reduce_problem(small, build_partition(small.incidence, []), 0.4)
    ns = admm._NewtonSystem(sub_red)
    assert ns.assembled and ns.woodbury_cap == 0
    assert solve_reduced_admm(sub_red, 1e-8, system=ns).woodbury_directions == 0
    monkeypatch.undo()
    # more edges out than the cap: H is factored, and M is not
    ns = admm._NewtonSystem(red)
    ns.woodbury_cap = 1
    sigma = 1.0
    tau = red.lam * red.weights / sigma
    V = red.inc.apply(X) + Z / sigma
    ns.direction(V, tau, sigma, np.ones_like(X), 0.1)
    assert ns.woodbury_directions == 0 and ns.factorizations == 1 and ns.lu is not None
    assert ns.mlu is None


def test_rejected_woodbury_factorization_falls_back_to_h(monkeypatch, moons1000_warm):
    """When Cholesky rejects K, the direction is solved on H as before, and
    no LinAlgError, a ValueError the CLI would report as bad input, leaves
    the solve; a direct path through such directions certifies every
    lambda. (Cholesky is all that can reject the route: K is scaled so that
    sigma - sigma c_l = 0 divides nothing.)"""
    from sievepath import PathConfig, solve_path

    tried = []

    def rejecting(*args, **kwargs):
        tried.append(1)
        raise np.linalg.LinAlgError("leading minor not positive definite")

    monkeypatch.setattr(admm, "cho_factor", rejecting)
    red, X, Z = moons1000_warm
    ns = admm._NewtonSystem(red)
    sigma = 1.0
    tau = red.lam * red.weights / sigma
    V = red.inc.apply(X) + Z / sigma
    grad = np.random.default_rng(5).standard_normal(X.shape)
    dX = ns.direction(V, tau, sigma, grad, 0.1)
    assert tried and ns.woodbury_directions == 0 and ns.lu is not None
    # M made, then H: fresh factors of H solve without CG
    assert ns.factorizations == 2 and ns.cg_steps == 0
    ref = _factored_direction(ns, *ns.curvature(V, tau, sigma), grad)
    assert dX.tobytes() == ref.tobytes()
    # on a path the route serves only directions with no edge out, no K
    calls, woodbury = [], admm._NewtonSystem._woodbury

    def recording(self, r, sc, U, sigma):
        x = woodbury(self, r, sc, U, sigma)
        calls.append((bool(U.any()), x is not None))
        return x

    monkeypatch.setattr(admm._NewtonSystem, "_woodbury", recording)
    inst = build_knn_graph(gen_two_half_moons(200, 0.1, 0), k=10)
    pcfg = PathConfig(mode="direct", lambdas=[4.0, 2.0, 1.0])
    res = solve_path(inst, pcfg)
    assert (True, False) in calls and (True, True) not in calls
    assert res.total_woodbury_directions == calls.count((False, True))
    assert all(rec.converged and rec.residual <= pcfg.eps for rec in res.records)


def _cg_fixture():
    """A Newton system whose kept factors of H, made at one point,
    precondition H at another, and the right-hand side there."""
    inst = build_knn_graph(gen_two_half_moons(80, 0.1, 1), k=6)
    red = reduce_problem(inst, build_partition(inst.incidence, []), 0.5)
    rng = np.random.default_rng(9)
    sigma = 2.0
    tau = red.lam * red.weights / sigma
    V0, V1 = (red.inc.apply(red.C / red.h) + s * rng.standard_normal((2, red.m_red))
              for s in (0.2, 0.6))
    ns = admm._NewtonSystem(red)
    assert ns.assembled
    ns.lu = admm._factor(ns.matrix(V0, tau, sigma))
    H = ns.matrix(V1, tau, sigma).copy()
    return ns, H, rng.standard_normal(H.shape[0])


def _scipy_cg(ns, H, b, rtol, maxiter):
    steps = []
    M = sp.linalg.LinearOperator(H.shape, matvec=ns.lu.solve, dtype=np.float64)
    x, info = sp.linalg.cg(H, b, rtol=rtol, maxiter=maxiter, M=M, callback=steps.append)
    return x, len(steps), info == 0


@pytest.mark.parametrize("rtol, maxiter", [(1e-8, 200), (1e-14, 3)],
                         ids=["meets-rtol", "runs-out"])
def test_cg_is_scipys_arithmetic(rtol, maxiter):
    """_cg returns scipy's cg iterate bit for bit, with its step count and
    its verdict, when rtol is met before maxiter and when maxiter runs out."""
    ns, H, b = _cg_fixture()
    x, converged = ns._cg(H.dot, b.size, b, rtol, maxiter)
    ref, steps, ref_converged = _scipy_cg(ns, H, b, rtol, maxiter)
    assert x.tobytes() == ref.tobytes()
    assert ns.cg_steps == steps and converged == ref_converged
    assert steps < maxiter if converged else steps == maxiter


def test_cg_met_on_its_last_allowed_step_has_converged():
    """A run that meets rtol on exactly its last allowed step counts as
    converged, with the iterate scipy returns; scipy's cg calls it
    unconverged, which would throw the iterate away and refactor H."""
    ns, H, b = _cg_fixture()
    ns._cg(H.dot, b.size, b, 1e-8, 200)
    k = ns.cg_steps
    assert 1 < k < 200
    x, converged = ns._cg(H.dot, b.size, b, 1e-8, k)
    ref, steps, ref_converged = _scipy_cg(ns, H, b, 1e-8, k)
    assert converged and ns.cg_steps == 2 * k
    assert x.tobytes() == ref.tobytes() and steps == k and not ref_converged
    assert np.linalg.norm(b - H @ x) < 1e-8 * np.linalg.norm(b)


def test_singular_factorization_is_a_solver_error():
    import scipy.sparse as sp

    with pytest.raises(admm.SingularSystemError):
        admm._factor(sp.csc_matrix((3, 3)))


def test_every_factorization_goes_without_pivoting_or_relaxed_supernodes(monkeypatch):
    """The Newton matrices, the order probe and the sieve's Gram matrices
    are all factored by SuperLU with the same settings, in their given
    column order or in SuperLU's symmetric minimum-degree one."""
    import scipy.sparse.linalg as spla

    from sievepath import sieve

    calls = []  # (inside a GammaSystem build, splu's keyword arguments)
    building = []
    splu, gram = spla.splu, sieve.GammaSystem.__init__

    def recording(A, **kwargs):
        calls.append((bool(building), kwargs))
        return splu(A, **kwargs)

    def building_gram(self, *args):
        building.append(True)
        try:
            gram(self, *args)
        finally:
            building.pop()

    monkeypatch.setattr(spla, "splu", recording)
    monkeypatch.setattr(sieve.GammaSystem, "__init__", building_gram)
    for inst in (build_knn_graph(gen_two_half_moons(200, 0.1, 0), k=10),
                 _moons_embedding(200, 3, 10)):
        assert solve_path(inst, PathConfig(mode="eas", lambdas=[4.0, 2.0, 1.0])).all_converged
    assert any(in_gram for in_gram, _ in calls)
    for _, kwargs in calls:
        spec = kwargs.pop("permc_spec")
        assert spec in ("NATURAL", "MMD_AT_PLUS_A")
        assert kwargs == {"diag_pivot_thresh": 0.0, "relax": 1, "panel_size": 1,
                          "options": {"SymmetricMode": True}}


@pytest.mark.parametrize("kwargs", [
    {"max_iter": 0}, {"max_iter": -3}, {"max_iter": np.int64(0)},
    {"max_iter": float("nan")}, {"max_iter": float("inf")}, {"max_iter": None},
    {"max_iter": "50"}, {"max_iter": 1.0}, {"max_iter": np.bool_(True)},
    {"max_iter": 2.5}, {"max_iter": np.float64(50.0)}, {"max_iter": True},
])
def test_admm_config_rejects_settings_no_solve_can_run(kwargs):
    """A cap below one Newton step would only run into a failed solve, and
    a step cap is a count, not a fraction, a float, a string or a bool
    (numpy's included): all are bad input."""
    with pytest.raises(ValueError, match="admm max_iter must be an integer >= 1"):
        AdmmConfig(**kwargs)


def test_admm_config_accepts_its_edge_values():
    AdmmConfig(max_iter=1)
    cfg = AdmmConfig(max_iter=np.int64(1))
    assert cfg.max_iter == 1 and type(cfg.max_iter) is int


def test_line_search_measures_round_off_on_the_scale_of_kappa():
    """Psi sums terms of order kappa, so with the solution within 1e-6 of
    near-duplicate data |Psi| is about 1e-11 while its round-off is about
    1e-15. Measured by |Psi| alone, round-off decided which tiny steps
    Armijo accepted, and the solve ran into its step cap; measured by
    |Psi| + kappa, the lambda certifies in a few Newton steps."""
    rng = np.random.default_rng(0)
    A = np.repeat([[-1.2, 0.3, 2.0]], 7, axis=1) + 1e-6 * rng.standard_normal((1, 21))
    pcfg = PathConfig(mode="direct", lambdas=[50.0], eps=1e-8,
                      admm=AdmmConfig(max_iter=1000))
    res = solve_path(build_knn_graph(A, k=3), pcfg)
    assert res.all_converged and res.records[0].newton_steps <= 50


def test_line_search_stalls_at_the_round_off_floor(caplog):
    """Below the attainable residual the Newton descent must stall, not
    random-walk. Inside round-off Armijo passes on noise: with eps = 1e-14
    it accepted steps that raised ||grad Psi|| by up to 3.7x, and each of
    the lambda's four subsolves ran to its step cap (4 x 50,000 Newton
    steps at the default). Accepting a step there only if it lowers
    ||grad Psi|| ends every subsolve at the floor, in 478 steps in all, and
    the lambda fails as a solver error."""
    from sievepath.path import SOLVER_ERRORS

    A = np.random.default_rng(0).standard_normal((2, 30))
    pcfg = PathConfig(mode="as", lambdas=[1.0], eps=1e-14, admm=AdmmConfig(max_iter=2000))
    with caplog.at_level("WARNING", logger="sievepath.admm"):
        rec = solve_path(build_knn_graph(A, k=3), pcfg).records[0]
    assert not rec.converged
    assert rec.error.split(":")[0] in {cls.__name__ for cls in SOLVER_ERRORS}
    assert rec.newton_steps < 2000  # no subsolve reached its cap
    assert "at the round-off floor" in caplog.text and "max_iter" not in caplog.text


def test_translated_data_converge_like_the_data(caplog):
    """The model is translation invariant, and so is the reduced KKT
    residual the subsolver stops on. A relative duality gap of objectives
    that both carry kappa = ||A||^2 / 2 was not: on data shifted by 1e4 it
    kept SSNAL going to a residual of 5e-12 and still read 6.6e-8, a few
    ulps of kappa, so the solve was flagged unconverged."""
    A0 = np.random.default_rng(0).standard_normal((2, 20))
    for A in (A0, A0 + 1e4):
        inst = build_knn_graph(A, k=3)
        red = reduce_problem(inst, build_partition(inst.incidence, []), 0.1)
        with caplog.at_level("WARNING", logger="sievepath.admm"):
            sub = solve_reduced_admm(red, tol=5e-9)
        assert sub.converged and sub.kkt_red <= 5e-9
    assert "SSNAL stopped" not in caplog.text
