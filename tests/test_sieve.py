import numpy as np
import pytest
import scipy.sparse as sp

from sievepath import (
    ApgConfig,
    ProblemInstance,
    SieveLimitError,
    SolveConfig,
    apg_minimize,
    as_solve,
    build_knn_graph,
    build_partition,
    eas_certify,
    eas_solve,
    kkt_residual,
    primal_objective,
    recover_dual,
    recover_primal,
    reduce_problem,
    solve_full,
    solve_reduced_admm,
    violation_set,
)
from sievepath import admm, sieve
from sievepath._kernels import column_norms, union_find_min_labels

from conftest import random_instance


def two_point():
    return ProblemInstance(np.array([[0.0, 4.0]]), [0], [1], [1.0])


def _recover_dual(inst, lam, part, sub):
    """recover_dual as a sieve round calls it, at the default eps and APG
    step budget."""
    x_bar, _ = recover_primal(part, sub.x_red, sub.y_red)
    return recover_dual(inst, lam, part, sub, x_bar, sieve.GammaSystem(inst, part),
                        SolveConfig.eps, ApgConfig.maxiter)


# ---------------------------------------------------------------- recover_dual


def test_recover_dual_fused_pair_boundary():
    """Distance-4 pair fuses exactly when lam*w = 2; the recovered multiplier
    sits on the ball boundary, so it does not leave its ball."""
    inst = two_point()
    part = build_partition(inst.incidence, [0])
    red = reduce_problem(inst, part, 2.0)
    sub = solve_reduced_admm(red, tol=1e-12)
    u = _recover_dual(inst, 2.0, part, sub)
    assert u.shape == (inst.d, inst.m_blocks)
    assert abs(u[0, 0]) == pytest.approx(2.0, abs=1e-10)
    I = part.I
    assert np.all(column_norms(u[:, I]) <= 2.0 * inst.weights[I] * (1 + 1e-10))
    x_bar, y_bar = recover_primal(part, sub.x_red, sub.y_red)
    assert violation_set(part, 2.0, inst, u).size == 0
    assert kkt_residual(inst, 2.0, x_bar, y_bar, u) <= 1e-9


def test_recover_dual_flags_wrong_fusion():
    """Same pair forced fused at lam*w = 1: the multiplier lands outside the
    ball, 1 beyond its radius, and the block is reported as a violation."""
    inst = two_point()
    part = build_partition(inst.incidence, [0])
    red = reduce_problem(inst, part, 1.0)
    sub = solve_reduced_admm(red, tol=1e-12)
    u = _recover_dual(inst, 1.0, part, sub)
    assert abs(u[0, 0]) == pytest.approx(2.0, abs=1e-10)
    assert abs(u[0, 0]) - 1.0 * inst.weights[0] == pytest.approx(1.0, abs=1e-10)
    assert violation_set(part, 1.0, inst, u).tolist() == [0]


def test_recover_dual_keeps_subsolver_multiplier_bitwise():
    rng = np.random.default_rng(11)
    inst = random_instance(rng, N=12, d=2, k=4)
    I = np.array([0, 2, 5])
    part = build_partition(inst.incidence, I)
    red = reduce_problem(inst, part, 0.3)
    sub = solve_reduced_admm(red, tol=1e-9)
    u = _recover_dual(inst, 0.3, part, sub)
    assert np.array_equal(u[:, part.I_c], sub.xi)
    # off-I blocks never count as violations, even far outside their balls
    far = u.copy()
    far[:, part.I_c] = 1e6
    assert np.array_equal(violation_set(part, 0.3, inst, far),
                          violation_set(part, 0.3, inst, u))


def test_recover_dual_gamma_stationarity():
    """On gamma rows the recovered dual solves stationarity to solver accuracy."""
    rng = np.random.default_rng(12)
    for _ in range(5):
        inst = random_instance(rng, N=15, d=3, k=4)
        m = inst.m_blocks
        I = rng.choice(m, size=m // 2, replace=False)
        part = build_partition(inst.incidence, I)
        if len(part.gamma) == 0:
            continue
        red = reduce_problem(inst, part, 0.4)
        sub = solve_reduced_admm(red, tol=1e-11)
        u = _recover_dual(inst, 0.4, part, sub)
        x_bar, _ = recover_primal(part, sub.x_red, sub.y_red)
        stat = (x_bar - inst.A) + inst.incidence.adjoint(u)
        assert np.linalg.norm(stat[:, part.gamma]) <= 1e-8


def test_structured_gamma_products_equal_the_sparse_forms():
    """GammaSystem's particular solution and null-space projector equal the
    sparse-matrix forms -(Jg^T S)^T and D + particular((Jg D^T)^T) byte for
    byte: on a partition with a cycle, a path, a single edge and singletons,
    and on random ones, with zeros of both signs in the data (a sum of
    zeros is -0.0 only when all its terms are)."""
    rng = np.random.default_rng(17)
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (6, 7),  # I: a cycle, a path, an edge
             (2, 3), (5, 6), (7, 8), (8, 9), (1, 9)]  # I^c; 8 and 9 stay singletons
    cases = []
    for d in (1, 2, 5):
        inst = ProblemInstance.from_edges(rng.standard_normal((d, 10)), edges)
        part = build_partition(inst.incidence, np.arange(6))
        assert len(part.gamma) == 5 and part.n_reduced == 5
        cases.append((inst, part))
        inst = random_instance(rng, N=20, d=d, k=3)
        part = build_partition(inst.incidence, rng.choice(inst.m_blocks, inst.m_blocks // 2,
                                                          replace=False))
        cases.append((inst, part))
    for inst, part in cases:
        gs = sieve.GammaSystem(inst, part)
        Jg = inst.incidence.J[part.gamma][:, part.I].tocsc()

        def particular(R):
            return -(Jg.T @ gs._factor.solve(np.ascontiguousarray(R.T))).T

        for _ in range(5):
            R = rng.standard_normal((inst.d, len(part.gamma)))
            D = rng.standard_normal((inst.d, len(part.I)))
            R[0] = np.copysign(0.0, R[0])
            D[0, ::2] = np.copysign(0.0, D[0, ::2])
            assert gs.particular(R).tobytes() == particular(R).tobytes()
            ref = D + particular((Jg @ D.T).T)
            assert gs.null_project(D).tobytes() == ref.tobytes()
            assert np.abs((Jg @ gs.null_project(D).T)).max() <= 1e-12


# ---------------------------------------------------------------- apg_minimize


def test_apg_feasible_start_stops_immediately():
    u0 = np.array([[0.3, -0.4], [0.1, 0.2]])
    radii = np.array([5.0, 5.0])
    res = apg_minimize(u0, radii, lambda D: D, 1e-6, 30)
    assert res.converged
    assert res.iterations == 1
    assert np.all(res.d == 0.0)
    assert res.objective == 0.0


def test_apg_unconstrained_projects_onto_balls():
    u0 = np.array([[3.0, 0.0], [4.0, 10.0]])
    radii = np.array([1.0, 2.0])
    res = apg_minimize(u0, radii, lambda D: D, 1e-12, 50)
    assert res.converged
    v = u0 + res.d
    assert np.allclose(v[:, 0], [0.6, 0.8], atol=1e-10)
    assert np.allclose(v[:, 1], [0.0, 2.0], atol=1e-10)


def test_apg_trivial_null_space_plateaus():
    """When the projector is zero (square nonsingular system) d cannot move;
    an infeasible u0 plateaus and the plateau guard bails out early."""
    u0 = np.array([[10.0]])
    radii = np.array([1.0])
    res = apg_minimize(u0, radii, lambda D: np.zeros_like(D), 1e-8, 30)
    assert not res.converged
    assert res.iterations <= 3
    assert np.all(res.d == 0.0)


def test_apg_history_tracking():
    u0 = np.array([[3.0, 0.0], [4.0, 10.0]])
    radii = np.array([1.0, 2.0])
    res = apg_minimize(u0, radii, lambda D: D, 1e-12, 30)
    assert len(res.history) == res.iterations
    assert res.history[-1] == res.objective


def test_apg_eps_zero_runs_full_budget():
    u0 = np.array([[10.0]])
    radii = np.array([1.0])
    res = apg_minimize(u0, radii, lambda D: np.zeros_like(D), 0.0, 7)
    assert res.iterations == 7
    assert not res.converged


def test_apg_stops_at_first_step_inside_the_balls():
    """Two blocks with a fixed sum, feasible only on an interval of width
    0.1: the iterate enters K at step 5 and momentum carries it out again
    at step 6. The exit reads the distance alone, so the returned point is
    the one inside K."""
    u0 = np.array([[-1.0, 3.2]])
    radii = np.array([1.8, 0.5])
    P = np.eye(2) - 0.5  # projector onto {D : D[:, 0] + D[:, 1] = 0}
    eps = 1e-6
    res = apg_minimize(u0, radii, lambda D: D @ P, eps, 30)
    assert res.converged
    dists = np.sqrt(2.0 * np.array(res.history))
    assert res.iterations == 5
    assert np.all(dists[:-1] > eps) and dists[-1] <= eps
    v = u0 + res.d
    assert np.all(column_norms(v) <= radii + eps)
    assert np.allclose(v @ np.ones(2), u0 @ np.ones(2), atol=1e-12)


def test_apg_restarts_after_an_overshoot_instead_of_stopping():
    """The same two blocks with a fixed sum: momentum carries the iterate
    from h = 1.1e-6 up to 8.3e-4 at step 6. That step is discarded and the
    momentum restarts from the kept iterate, which then converges; the
    history holds the kept iterate's h, so it never rises."""
    u0 = np.array([[-1.3, 3.7]])
    radii = np.array([2.0, 0.5])
    P = np.eye(2) - 0.5  # projector onto {D : D[:, 0] + D[:, 1] = 0}
    res = apg_minimize(u0, radii, lambda D: D @ P, 1e-6, 30)
    assert res.converged
    assert res.restarts >= 1
    assert len(res.history) == res.iterations
    assert np.all(np.diff(res.history) <= 0.0)
    assert res.history[-1] == res.objective


def test_apg_zero_budget_reports_distance_of_start():
    u0 = np.array([[10.0]])
    radii = np.array([1.0])
    res = apg_minimize(u0, radii, lambda D: D, 1e-6, 0)
    assert res.iterations == 0
    assert res.objective == pytest.approx(0.5 * 9.0**2)
    assert not res.converged
    assert np.all(res.d == 0.0)
    inside = apg_minimize(0.1 * u0, radii, lambda D: D, 1e-6, 0)
    assert inside.converged and inside.objective == 0.0


# --------------------------------------------------------------- violation_set


def test_violation_set_respects_boundary_slack(t1_inst):
    part = build_partition(t1_inst.incidence, [0, 1])
    lam = 1.0
    u = np.zeros((1, 3))
    u[0, 0] = lam * t1_inst.weights[0]  # exactly on the boundary
    u[0, 1] = lam * t1_inst.weights[1] * 1.1  # clearly outside
    assert violation_set(part, lam, t1_inst, u).tolist() == [1]


def test_violation_set_empty_candidate(t1_inst):
    part = build_partition(t1_inst.incidence, [])
    assert violation_set(part, 1.0, t1_inst, np.ones((1, 3))).size == 0


# -------------------------------------------------------------------- as_solve


def test_as_solve_t1_full_fusion(t1_inst):
    triple, state = as_solve(t1_inst, SolveConfig(lam=10.0, eps=1e-8))
    assert state.round == 1
    assert np.allclose(triple.x, 2.0, atol=1e-8)
    assert triple.residual_norm <= 1e-8
    assert state.records[0]["certified_early"] is False


def test_as_solve_t1_no_fusion(t1_inst):
    triple, state = as_solve(t1_inst, SolveConfig(lam=0.01, eps=1e-8))
    assert np.allclose(triple.x, [[0.02, 1.0, 4.98]], atol=1e-5)
    assert triple.residual_norm <= 1e-8
    # every round is logged and I only shrinks
    assert len(state.records) == state.round
    sizes = [r["n_reduced"] for r in state.records]
    assert sizes == sorted(sizes)


def test_as_solve_empty_start_matches_solve_full(t1_inst):
    lam = 0.7
    triple, state = as_solve(t1_inst, SolveConfig(lam=lam, eps=1e-9), I0=[])
    ref, _ = solve_full(t1_inst, lam, tol=1e-10)
    assert state.round == 1
    assert np.allclose(triple.x, ref.x, atol=1e-7)


def test_as_solve_fails_when_retightening_runs_out(t1_inst, monkeypatch):
    """A round that finds no violation above eps retightens; once that runs
    out, the sieve raises SieveLimitError with its state."""
    monkeypatch.setattr(sieve, "violation_set", lambda *args: np.empty(0, dtype=np.int64))
    with pytest.raises(SieveLimitError, match="after retightening") as exc:
        as_solve(t1_inst, SolveConfig(lam=0.01, eps=1e-8))
    state = exc.value.state
    assert state.round == 1
    assert state.records


def test_admm_tol_is_the_first_tolerance_and_retightening_goes_on(monkeypatch):
    """Every round's first subsolve stops at SUBSOLVE_SHARE * eps = eps/2.
    A first tolerance looser than eps only starts the sieve's subsolves: in
    as and eas alike, a round that finds no violation above eps retightens
    below it."""
    inst = build_knn_graph(np.random.default_rng(2).standard_normal((2, 40)), k=4)
    cfg = SolveConfig(lam=0.2, eps=1e-8)
    _, state = as_solve(inst, cfg)
    assert sieve.SUBSOLVE_SHARE == 0.5
    assert state.records[0]["retightenings"] == 0
    assert state.records[0]["subsolver_tol"] == 0.5 * cfg.eps
    monkeypatch.setattr(sieve, "SUBSOLVE_SHARE", 1e5)
    for solve in (as_solve, eas_solve):
        triple, state = solve(inst, cfg)
        assert triple.residual_norm <= 1e-8
        assert state.records[0]["subsolver_tol"] == 1e5 * 1e-8
        assert state.records[-1]["subsolver_tol"] < 1e5 * 1e-8


def test_a_retightened_round_records_the_work_of_all_its_subsolves(monkeypatch):
    """Each round appends one record with the Newton steps, CG steps and
    factorizations of every subsolve it ran, how often it retightened and
    the sigma its last subsolve ended with; a first tolerance looser than
    eps makes a round retighten."""
    subs = []

    def recording(*args, _solve=sieve.solve_reduced_admm, **kwargs):
        subs.append(_solve(*args, **kwargs))
        return subs[-1]

    monkeypatch.setattr(sieve, "solve_reduced_admm", recording)
    inst = build_knn_graph(np.random.default_rng(2).standard_normal((2, 40)), k=4)
    monkeypatch.setattr(sieve, "SUBSOLVE_SHARE", 1e5)
    _, state = as_solve(inst, SolveConfig(lam=0.2, eps=1e-8))
    assert len(state.records) == state.round
    assert max(r["retightenings"] for r in state.records) >= 1
    start = 0
    for rec in state.records:
        own = subs[start:start + 1 + rec["retightenings"]]
        start += len(own)
        assert rec["newton_steps"] == sum(s.iterations for s in own)
        assert rec["cg_steps"] == sum(s.cg_steps for s in own)
        assert rec["factorizations"] == sum(s.factorizations for s in own)
        assert rec["sigma"] == own[-1].sigma
    assert start == len(subs)


@pytest.mark.parametrize("mode", ["eas", "direct"])
def test_a_round_records_the_restarts_of_all_its_apg_runs(monkeypatch, mode):
    """A round's apg_restarts is the sum of the restarts of every APG run it
    made, eas_certify's included, as its apg_iterations sums their steps;
    direct mode runs no APG and records none. A round runs 1 + retightenings
    subsolves, and its APG runs are those that follow them."""
    from sievepath import PathConfig, gen_two_half_moons, path, solve_path

    events, states = [], []  # ("sub" | "apg", result) in the order they ran

    def recording(kind, _run):
        def run(*args, **kwargs):
            events.append((kind, _run(*args, **kwargs)))
            return events[-1][1]
        return run

    solver = "eas_solve" if mode == "eas" else "as_solve"

    def solve_recording(*args, _solve=getattr(path, solver), **kwargs):
        triple, state = _solve(*args, **kwargs)
        states.append(state)
        return triple, state

    monkeypatch.setattr(sieve, "solve_reduced_admm", recording("sub", sieve.solve_reduced_admm))
    monkeypatch.setattr(sieve, "apg_minimize", recording("apg", sieve.apg_minimize))
    monkeypatch.setattr(path, solver, solve_recording)
    inst = build_knn_graph(gen_two_half_moons(200, 0.1, seed=0), k=10)
    assert solve_path(inst, PathConfig(mode=mode)).all_converged
    # the APG runs that follow each subsolve
    after_sub = []
    for kind, res in events:
        if kind == "sub":
            after_sub.append([])
        else:
            after_sub[-1].append(res)
    records = [rec for state in states for rec in state.records]
    for rec in records:
        own = [res for runs in after_sub[:1 + rec["retightenings"]] for res in runs]
        del after_sub[:1 + rec["retightenings"]]
        assert rec["apg_iterations"] == sum(res.iterations for res in own)
        assert rec["apg_restarts"] == sum(res.restarts for res in own)
    assert not after_sub
    restarts = sum(rec["apg_restarts"] for rec in records)
    assert restarts == 0 if mode == "direct" else restarts >= 1


def test_as_solve_random_agrees_with_direct():
    rng = np.random.default_rng(13)
    for _ in range(5):
        inst = random_instance(rng, N=20, d=2, k=5)
        lam = float(rng.uniform(0.1, 2.0))
        triple, state = as_solve(inst, SolveConfig(lam=lam, eps=1e-7))
        ref, _ = solve_full(inst, lam, tol=1e-9)
        F_sieve = primal_objective(inst, lam, triple.x)
        F_ref = primal_objective(inst, lam, ref.x)
        assert F_sieve <= F_ref + 1e-6 * (1.0 + abs(F_ref))
        assert triple.residual_norm <= 1e-7
        assert state.round <= inst.m_blocks + 1


# ----------------------------------------------------------------- eas_certify


def test_eas_certify_accepts_true_optimum(t1_inst):
    triple, _ = as_solve(t1_inst, SolveConfig(lam=10.0, eps=1e-10))
    cert = eas_certify(t1_inst, 10.0, triple.x, eps=1e-6, maxiter=30)
    assert cert is not None
    assert cert.residual_norm <= 1e-6
    assert np.array_equal(cert.x, triple.x)


def test_eas_certify_rejects_wrong_pattern(t1_inst):
    # fully fused point is far from optimal at tiny lambda
    x_bad = np.full((1, 3), 2.0)
    assert eas_certify(t1_inst, 0.01, x_bad, eps=1e-6, maxiter=30) is None


def test_eas_certify_no_zero_blocks(t1_inst):
    triple, _ = as_solve(t1_inst, SolveConfig(lam=0.01, eps=1e-10))
    cert = eas_certify(t1_inst, 0.01, triple.x, eps=1e-6, maxiter=30)
    assert cert is not None
    # certification used only the singleton subgradient: y untouched
    assert np.allclose(cert.y, t1_inst.incidence.apply(triple.x))


def test_fill_bound_never_exceeds_the_residual():
    """For any x, any dual v that is zero on I and any fill on I, the
    stationarity part of the KKT residual, hence the residual, is at least
    the bound computed from v alone."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        inst = random_instance(rng)
        lam = float(rng.uniform(0.01, 2.0))
        I = rng.choice(inst.m_blocks, size=int(rng.integers(0, inst.m_blocks + 1)),
                       replace=False)
        x = rng.standard_normal(inst.A.shape)
        y = inst.incidence.apply(x)
        v = rng.standard_normal(y.shape)
        v[:, I] = 0.0
        g = (x - inst.A) + inst.incidence.adjoint(v)
        bound = sieve._fill_bound(build_partition(inst.incidence, I), g)
        assert bound <= np.sum(g * g) * (1.0 + 1e-12)
        for _ in range(5):
            z = v.copy()
            z[:, I] = rng.standard_normal((inst.d, len(I))) * rng.uniform(0.0, 5.0)
            res = kkt_residual(inst, lam, x, y, z)
            assert bound <= res * res * (1.0 + 1e-12) + 1e-12


def _fill_bound_by_members(inst, I, g):
    """The fill bound summed through a node-membership matrix of the
    components of the I-subgraph, labelled by their smallest node."""
    inc = inst.incidence
    labels = union_find_min_labels(inc.N, inc.edge_i[I], inc.edge_j[I])
    members = sp.csr_matrix((np.ones(inc.N), (labels, np.arange(inc.N))),
                            shape=(inc.N, inc.N))
    S = members @ g.T
    sizes = np.maximum(np.diff(members.indptr), 1)  # a row with no member has S = 0
    return float(np.sum(np.einsum("ij,ij->i", S, S) / sizes))


def test_fill_bound_is_the_component_membership_sum():
    """The bound read off the partition equals the one summed through a
    membership matrix, up to the order of the additions."""
    rng = np.random.default_rng(32)
    for trial in range(40):
        inst = random_instance(rng)
        m = inst.m_blocks
        size = [0, m][trial] if trial < 2 else int(rng.integers(0, m + 1))
        I = rng.choice(m, size=size, replace=False)
        g = rng.standard_normal(inst.A.shape)
        bound = sieve._fill_bound(build_partition(inst.incidence, I), g)
        assert bound == pytest.approx(_fill_bound_by_members(inst, I, g), rel=1e-13, abs=0)


def test_eas_certify_rejects_by_the_bound_before_building_the_fill(t1_inst, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("built the fill although the bound rejects")

    # points 0 and 1 fused away from their mean: the component {0, 1} sums
    # to a residual that no fill of its edge can cancel
    x_bad = np.array([[2.5, 2.5, 1.0]])
    zero = np.flatnonzero(column_norms(t1_inst.incidence.apply(x_bad)) == 0.0)
    assert len(zero) == 1
    monkeypatch.setattr(sieve, "GammaSystem", forbidden)
    monkeypatch.setattr(sieve, "apg_minimize", forbidden)
    assert eas_certify(t1_inst, 0.01, x_bad, eps=1e-6, maxiter=30) is None


# ----------------------------------------------------------------- BuildStore


def test_build_store_keys_on_the_exact_set_and_holds_one(t1_inst):
    store = sieve.BuildStore(t1_inst)
    first = np.array([0], dtype=np.int64)
    assert store.get(first, 1.0)
    part, red, newton, gram = store.partition, store.red, store.newton, store.gram
    assert part.I.tolist() == [0] and red.lam == 1.0
    assert newton.red is red and isinstance(gram, sieve.GammaSystem)
    assert not store.get(first.copy(), 2.0)  # the same set again
    assert store.partition is part and store.red is red and red.lam == 2.0
    assert store.newton is newton and store.gram is gram
    assert store.get(np.array([1], dtype=np.int64), 1.0)  # same size, another set
    assert store.partition.I.tolist() == [1] and store.red is not red
    assert store.newton is not newton and store.gram is not gram
    assert store.get(first, 1.0)  # the first set is gone
    assert store.partition is not part and store.partition.I.tolist() == [0]


def test_build_store_builds_no_newton_system_without_blocks(t1_inst):
    store = sieve.BuildStore(t1_inst)
    assert store.get(np.arange(t1_inst.m_blocks, dtype=np.int64), 1.0)
    assert store.red.m_red == 0 and store.newton is None
    assert isinstance(store.gram, sieve.GammaSystem)


def test_build_store_builds_no_gram_system_for_an_empty_set(t1_inst):
    store = sieve.BuildStore(t1_inst)
    assert store.get(np.empty(0, dtype=np.int64), 1.0)
    assert store.gram is None and store.red.m_red == t1_inst.m_blocks
    assert isinstance(store.newton, admm._NewtonSystem)


def test_a_build_store_serves_one_instance(t1_inst):
    other = build_knn_graph(np.random.default_rng(0).standard_normal((1, 5)), k=2)
    with pytest.raises(ValueError, match="another instance"):
        as_solve(t1_inst, SolveConfig(lam=1.0), store=sieve.BuildStore(other))


# ------------------------------------------------------------------- eas_solve


def test_eas_solve_matches_as_solve_objective(t1_inst):
    for lam in (10.0, 1.0, 0.1):
        cfg = SolveConfig(lam=lam, eps=1e-7)
        t_as, s_as = as_solve(t1_inst, cfg)
        t_eas, s_eas = eas_solve(t1_inst, cfg)
        F_as = primal_objective(t1_inst, lam, t_as.x)
        F_eas = primal_objective(t1_inst, lam, t_eas.x)
        assert abs(F_as - F_eas) <= 1e-6 * (1.0 + abs(F_as))
        assert s_eas.round <= s_as.round


def test_eas_never_more_rounds_random():
    rng = np.random.default_rng(14)
    for _ in range(10):
        inst = random_instance(rng, N=25, d=2, k=5)
        lam = float(rng.uniform(0.2, 3.0))
        cfg = SolveConfig(lam=lam, eps=1e-6)
        _, s_as = as_solve(inst, cfg)
        t_eas, s_eas = eas_solve(inst, cfg)
        assert s_eas.round <= s_as.round
        assert t_eas.residual_norm <= 1e-6


def test_eas_early_certificate_fires():
    """A near-duplicate pair whose forced fusion barely moves the objective:
    round 2 agrees with round 1 to eps, so the certificate path must run and
    succeed instead of another dual recovery."""
    inst = ProblemInstance(
        np.array([[0.0, 1e-5, 1.0]]), [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0]
    )
    cfg = SolveConfig(lam=1e-6, eps=1e-6)
    t_as, s_as = as_solve(inst, cfg, I0=[0])
    t_eas, s_eas = eas_solve(inst, cfg, I0=[0])
    assert s_as.round == 2 and s_as.records[-1]["certified_early"] is False
    assert s_eas.round == 2 and s_eas.records[-1]["certified_early"] is True
    assert t_eas.residual_norm <= 1e-6
    F_as = primal_objective(inst, 1e-6, t_as.x)
    F_eas = primal_objective(inst, 1e-6, t_eas.x)
    assert abs(F_as - F_eas) <= 1e-6 * (1.0 + abs(F_as))


def test_every_apg_run_stops_at_half_the_solve_eps(monkeypatch):
    """A round certifies at eps only if dual recovery leaves the dual within
    eps/2 of the balls on I, so every APG run of an as or eas solve,
    recover_dual's and eas_certify's alike, is given 0.5 * eps of its solve.
    On the five points of the next test eas_certify gets past its fill
    bound and runs an APG of its own; a short moons path goes through
    solve_path."""
    from sievepath import PathConfig, gen_two_half_moons, solve_path

    callers, calls = [], []  # calls: (recover_dual | eas_certify, the APG's eps)

    def entering(name, run):
        def entered(*args, **kwargs):
            callers.append(name)
            try:
                return run(*args, **kwargs)
            finally:
                callers.pop()
        return entered

    def apg(u0, radii, null_project, eps, maxiter, _run=sieve.apg_minimize):
        calls.append((callers[-1], eps))
        return _run(u0, radii, null_project, eps, maxiter)

    for name in ("recover_dual", "eas_certify"):
        monkeypatch.setattr(sieve, name, entering(name, getattr(sieve, name)))
    monkeypatch.setattr(sieve, "apg_minimize", apg)

    def solved_at(eps):
        """The callers of the APG runs made since the last call, each of
        which was given eps / 2."""
        assert calls and all(got == 0.5 * eps for _, got in calls)
        names = {name for name, _ in calls}
        calls.clear()
        return names

    inst = ProblemInstance(
        np.array([[0.0, 1e-5, 1.0, 2.0, 2.0]]), [0, 0, 1, 2, 3], [1, 2, 2, 3, 4], [1.0] * 5
    )
    seen = set()
    for eps in (1e-6, 4e-6):
        for solve in (as_solve, eas_solve):
            triple, _ = solve(inst, SolveConfig(lam=1e-6, eps=eps), I0=[0, 4])
            assert triple.residual_norm <= eps
            seen |= solved_at(eps)
    moons = build_knn_graph(gen_two_half_moons(200, 0.1, seed=0), k=10)
    for mode in ("as", "eas"):
        pcfg = PathConfig(mode=mode, lambdas=[4.0, 3.0, 2.0], eps=1e-5)
        assert solve_path(moons, pcfg).all_converged
        seen |= solved_at(1e-5)
    assert seen == {"recover_dual", "eas_certify"}


def test_an_early_certified_round_builds_no_gram_factors_of_its_set(monkeypatch):
    """Round 2 starts on a new nonempty set, which eas certifies before any
    dual recovery: the store factors no Gram system for that set, so only
    round 1's and eas_certify's own are built, and never two are alive."""
    import gc
    import weakref

    inst = ProblemInstance(
        np.array([[0.0, 1e-5, 1.0, 2.0, 2.0]]), [0, 0, 1, 2, 3], [1, 2, 2, 3, 4], [1.0] * 5
    )
    builds = {"store": 0, "eas": 0}
    made, most, in_eas = [], [0], []
    real_gram, real_eas = sieve.GammaSystem, sieve.eas_certify

    def gram(*args):
        out = real_gram(*args)
        builds["eas" if in_eas else "store"] += 1
        made.append(weakref.ref(out))
        gc.collect()
        most[0] = max(most[0], sum(ref() is not None for ref in made))
        return out

    def eas(*args, **kwargs):
        in_eas.append(True)
        try:
            return real_eas(*args, **kwargs)
        finally:
            in_eas.pop()

    monkeypatch.setattr(sieve, "GammaSystem", gram)
    monkeypatch.setattr(sieve, "eas_certify", eas)
    triple, state = eas_solve(inst, SolveConfig(lam=1e-6, eps=1e-6), I0=[0, 4])
    assert triple.residual_norm <= 1e-6
    r1, r2 = state.records
    assert r2["built"] and r2["certified_early"] and 0 < r2["m_reduced"] < inst.m_blocks
    assert builds == {"store": 1, "eas": 1}
    assert most[0] == 1


def test_warm_started_solve_certifies(t1_inst):
    t0, _ = as_solve(t1_inst, SolveConfig(lam=1.0, eps=1e-8))
    t1, state = as_solve(
        t1_inst, SolveConfig(lam=0.9, eps=1e-8), warm=(t0.x, t0.z)
    )
    assert t1.residual_norm <= 1e-8
    assert state.round <= 4


@pytest.mark.parametrize("kwargs", [
    {"maxiter": -1}, {"maxiter": 2.5}, {"maxiter": np.float64(30.0)}, {"maxiter": True},
])
def test_apg_config_rejects_bad_settings(kwargs):
    """The step cap is a count: a fractional one would only crash the APG's
    loop, and a bool is no count."""
    with pytest.raises(ValueError):
        ApgConfig(**kwargs)


def test_apg_config_takes_a_numpy_integer_as_a_plain_int():
    cfg = ApgConfig(maxiter=np.int64(7))
    assert cfg.maxiter == 7 and type(cfg.maxiter) is int
