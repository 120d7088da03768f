import numpy as np
import pytest

from sievepath import (
    AdmmConfig,
    PathConfig,
    ProblemInstance,
    SieveLimitError,
    SingularSystemError,
    SolveConfig,
    build_knn_graph,
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
    # NaN passes every comparison, so non-finite values are rejected by name
    for kwargs in ({"lambdas": [2.0, np.nan]}, {"lambdas": [np.inf, 1.0]},
                   {"lambdas": [np.nan]}, {"eps": np.nan}, {"eps": np.inf},
                   {"eps_hat": np.nan}, {"eps_hat": np.inf}):
        with pytest.raises(ValueError, match="finite"):
            PathConfig(**{"lambdas": [2.0, 1.0], **kwargs})


@pytest.mark.parametrize("lambdas", [[[2.0, 1.0]], 2.0], ids=["2-D", "scalar"])
def test_path_config_rejects_a_grid_that_is_not_1d(lambdas):
    """A nested or scalar grid is refused by name when the config is made,
    not by a bare TypeError once solve_path reads it."""
    with pytest.raises(ValueError, match="1-D"):
        PathConfig(lambdas=lambdas)


def test_t1_path_all_modes_agree(t1_inst):
    """Every mode certifies every lambda, with the same objectives. The
    second input is 30 Gaussian points on their 3-NN graph with A and w
    scaled by s = 1e8 and eps by s: the same problem, whose solution scales
    by s. A dual check whose slack, 1e-9 (1 + lam), did not scale with the
    ball radius lam w once rejected the projected duals of lambda 0.3 and
    0.1 there."""
    s = 1e8
    base = build_knn_graph(np.random.default_rng(0).standard_normal((2, 30)), k=3)
    rescaled = ProblemInstance(s * base.A, base.edge_i, base.edge_j, s * base.weights)
    for inst, lams, eps in ((t1_inst, [5.0, 2.0, 0.5, 0.05], 1e-7),
                            (rescaled, [0.3, 0.1, 0.03], 1e-6 * s)):
        results = {}
        for mode in ("as", "eas", "direct"):
            res = solve_path(inst, PathConfig(lambdas=lams, eps=eps, mode=mode))
            assert res.all_converged, mode
            assert len(res.records) == len(lams)
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
    assert res.total("rounds") == sum(r.rounds for r in res.records)
    s = res.summary()
    assert s["n_lambdas"] == 2 and s["all_converged"] and s["failed_lambdas"] == []


def test_path_fail_soft(t1_inst, monkeypatch):
    """A sieve that finds no block to remove fails that lambda but the sweep
    continues."""
    from sievepath import sieve

    monkeypatch.setattr(sieve, "violation_set", lambda *args: np.empty(0, dtype=np.int64))
    res = solve_path(t1_inst, PathConfig(lambdas=[10.0, 0.01], eps=1e-10))
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


@pytest.mark.parametrize("mode", ["as", "eas", "direct"])
def test_lambda_records_count_every_newton_step(monkeypatch, mode):
    """newton_steps sums the Newton steps of every subsolve of its lambda,
    over all sieve rounds and retightenings."""
    from sievepath import admm, build_knn_graph, sieve

    real = admm.solve_reduced_admm
    steps = {}

    def counting(red, *args, **kwargs):
        sub = real(red, *args, **kwargs)
        steps[red.lam] = steps.get(red.lam, 0) + sub.iterations
        return sub

    monkeypatch.setattr(admm, "solve_reduced_admm", counting)
    monkeypatch.setattr(sieve, "solve_reduced_admm", counting)
    A = np.random.default_rng(2).standard_normal((2, 30))
    res = solve_path(build_knn_graph(A, k=4),
                     PathConfig(lambdas=[0.5, 0.2, 0.05], eps=1e-7, mode=mode))
    assert res.all_converged
    assert [r.newton_steps for r in res.records] == [steps[lam] for lam in (0.5, 0.2, 0.05)]
    assert res.summary()["total_newton_steps"] == sum(steps.values()) > 0


@pytest.mark.parametrize("mode", ["as", "direct"])
def test_lambda_records_count_cg_steps_and_factorizations(monkeypatch, mode):
    """cg_steps and factorizations sum those of every subsolve of their
    lambda; with PCG at d = 2 some Newton steps reuse the factors of L."""
    from conftest import force_newton_branch
    from sievepath import admm, build_knn_graph, sieve

    real = admm.solve_reduced_admm
    work = {}

    def counting(red, *args, **kwargs):
        sub = real(red, *args, **kwargs)
        total = work.get(red.lam, np.zeros(3, dtype=int))
        work[red.lam] = total + (sub.iterations, sub.cg_steps, sub.factorizations)
        return sub

    force_newton_branch(monkeypatch, False)
    monkeypatch.setattr(admm, "solve_reduced_admm", counting)
    monkeypatch.setattr(sieve, "solve_reduced_admm", counting)
    A = np.random.default_rng(2).standard_normal((2, 30))
    res = solve_path(build_knn_graph(A, k=4),
                     PathConfig(lambdas=[0.5, 0.2, 0.05], eps=1e-7, mode=mode))
    assert res.all_converged
    for rec in res.records:
        assert [rec.newton_steps, rec.cg_steps, rec.factorizations] == work[rec.lam].tolist()
    summary = res.summary()
    assert summary["total_cg_steps"] == sum(w[1] for w in work.values()) > 0
    assert 0 < summary["total_factorizations"] == sum(w[2] for w in work.values())
    assert summary["total_factorizations"] < summary["total_newton_steps"]


@pytest.mark.parametrize("mode, exc", [
    ("as", SingularSystemError("Factor is exactly singular")),
    ("eas", SingularSystemError("Factor is exactly singular")),
    ("direct", SingularSystemError("Factor is exactly singular")),
    ("as", SieveLimitError),
    ("eas", SieveLimitError),
])
def test_solver_error_stays_with_its_lambda(t1_inst, monkeypatch, mode, exc):
    """A solve that fails at one lambda fails only that lambda; the next one
    starts from the last certified solution and certifies. The failure is a
    subsolver that raises, or a sieve that finds no block to remove at a
    lambda that needs two rounds."""
    from sievepath import admm, sieve

    real = admm.solve_reduced_admm
    real_violations = sieve.violation_set

    def flaky(red, *args, **kwargs):
        if red.lam == 0.5:
            raise exc
        return real(red, *args, **kwargs)

    def blind(partition, lam, *args):
        if lam == 0.5:
            return np.empty(0, dtype=np.int64)
        return real_violations(partition, lam, *args)

    if exc is SieveLimitError:
        monkeypatch.setattr(sieve, "violation_set", blind)
    else:
        monkeypatch.setattr(admm, "solve_reduced_admm", flaky)
        monkeypatch.setattr(sieve, "solve_reduced_admm", flaky)
    res = solve_path(t1_inst, PathConfig(lambdas=[5.0, 0.5, 0.1], eps=1e-7, mode=mode))
    assert [r.converged for r in res.records] == [True, False, True]
    failed = res.records[1]
    assert failed.triple is None
    name = exc.__name__ if exc is SieveLimitError else type(exc).__name__
    assert failed.error.startswith(name + ": ")
    assert failed.residual == failed.gap == failed.objective == np.inf
    if exc is SieveLimitError:  # its state reports the one fully fused round
        assert failed.rounds == 1 and failed.avg_reduced_n == 1.0
    assert res.records[2].residual <= 1e-7
    assert res.summary()["failed_lambdas"] == [0.5]


def test_direct_path_is_a_chain_of_full_solves():
    """Direct mode is the sieve loop with an empty candidate set: when each
    lambda certifies at its first tolerance it gives, bit for bit, the
    chain of full-size solves at eps/2, each warm-started by secant_start of
    the last two and the sigma of the last."""
    from sievepath import solve_full
    from sievepath.path import secant_start

    inst = build_knn_graph(np.random.default_rng(2).standard_normal((2, 40)), k=4)
    lams, eps = [1.0, 0.5, 0.2, 0.05], 1e-7
    res = solve_path(inst, PathConfig(lambdas=lams, eps=eps, mode="direct"))
    assert res.all_converged
    certified = []  # the last two (lam, x, z), newest first
    for lam, rec in zip(lams, res.records):
        warm = None
        if certified:
            x, z = secant_start(lam, *certified)
            warm = (x, inst.incidence.apply(x), z, sub.sigma)
        triple, sub = solve_full(inst, lam, 0.5 * eps, warm=warm)
        assert triple.residual_norm <= eps
        assert np.array_equal(rec.triple.x, triple.x)
        assert np.array_equal(rec.triple.z, triple.z)
        assert rec.newton_steps == sub.iterations > 0
        assert rec.rounds == 1 and rec.avg_reduced_n == inst.N
        certified = [(lam, triple.x, triple.z), *certified[:1]]


def test_direct_mode_retightens_admm_tol_like_the_sieve(monkeypatch):
    """The first subsolver tolerance, SUBSOLVE_SHARE * eps, is the same
    rule in every mode: a direct solve that misses eps (forced here by a
    first tolerance looser than eps) retightens it 100x within its one
    round, and one that still misses eps fails its lambda as
    SieveLimitError."""
    from sievepath import sieve

    tols = []

    def recording(red, tol, *args, _solve=sieve.solve_reduced_admm, **kwargs):
        tols.append(tol)
        return _solve(red, tol, *args, **kwargs)

    monkeypatch.setattr(sieve, "solve_reduced_admm", recording)
    monkeypatch.setattr(sieve, "SUBSOLVE_SHARE", 1e5)
    inst = build_knn_graph(np.random.default_rng(2).standard_normal((2, 40)), k=4)
    res = solve_path(inst, PathConfig(lambdas=[0.2], eps=1e-8, mode="direct"))
    rec = res.records[0]
    assert rec.converged and rec.residual <= 1e-8 and rec.rounds == 1
    assert tols[0] == 1e5 * 1e-8 and len(tols) > 1 and tols[1] == 0.01 * tols[0]
    res = solve_path(inst, PathConfig(lambdas=[0.2], eps=1e-8, mode="direct",
                                      admm=AdmmConfig(max_iter=2)))
    failed = res.records[0]
    assert failed.triple is None and not failed.converged
    assert failed.error.startswith("SieveLimitError: ")
    assert failed.residual == np.inf
    assert failed.rounds == 1 and failed.newton_steps > 0


@pytest.mark.parametrize("mode", ["as", "eas", "direct"])
def test_defect_in_a_solve_propagates(t1_inst, monkeypatch, mode):
    """An error that is not a numerical failure of the solve is a defect:
    the path does not record it and go on."""
    from sievepath import admm, sieve

    def broken(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(admm, "solve_reduced_admm", broken)
    monkeypatch.setattr(sieve, "solve_reduced_admm", broken)
    with pytest.raises(ZeroDivisionError):
        solve_path(t1_inst, PathConfig(lambdas=[5.0, 2.0], mode=mode))


@pytest.fixture(scope="module")
def moons200():
    from sievepath import gen_two_half_moons

    return build_knn_graph(gen_two_half_moons(200, 0.1, seed=0), k=10)


def test_secant_start_extrapolates_the_last_two_certified_points():
    """One certified point warm-starts as it is; with two, the start moves
    along their secant, which an affine path follows exactly."""
    from sievepath.path import secant_start

    x0, dx, z0, dz = (np.arange(6.0).reshape(2, 3) + k for k in range(4))
    point = {lam: (lam, x0 + lam * dx, z0 + lam * dz) for lam in (4.0, 2.0, 1.0)}
    x, z = secant_start(1.0, point[2.0])
    assert x is point[2.0][1] and z is point[2.0][2]
    x, z = secant_start(1.0, point[2.0], point[4.0])
    assert np.allclose(x, point[1.0][1]) and np.allclose(z, point[1.0][2])


@pytest.fixture(scope="module")
def moons500():
    from sievepath import gen_two_half_moons

    return build_knn_graph(gen_two_half_moons(500, 0.1, seed=0), k=10)


@pytest.mark.parametrize("mode, points", [
    pytest.param("direct", "moons200", id="direct"),
    pytest.param("eas", "moons200", id="eas"),
    pytest.param("eas", "moons500", id="eas-moons500"),
])
def test_secant_start_saves_newton_steps(request, monkeypatch, mode, points):
    """On the default grid the secant start takes strictly fewer Newton
    steps than the same path warm-started from the last certified point."""
    from sievepath import path

    inst = request.getfixturevalue(points)
    secant = solve_path(inst, PathConfig(mode=mode))
    monkeypatch.setattr(path, "secant_start", lambda lam, last, prev=None: last[1:])
    plain = solve_path(inst, PathConfig(mode=mode))
    assert secant.all_converged and plain.all_converged
    assert secant.total("newton_steps") < plain.total("newton_steps")


def _path_without_store(inst, pcfg):
    """solve_path's lambda loop, with each solve building every structure
    itself: the same I0, secant_start warm start and sigma, but no shared
    build store."""
    from sievepath import sieve
    from sievepath.model import fused_blocks
    from sievepath.path import secant_start

    solver = sieve.eas_solve if pcfg.mode == "eas" else sieve.as_solve
    I0 = np.arange(0 if pcfg.mode == "direct" else inst.m_blocks, dtype=np.int64)
    certified, out = [], []  # the last two certified (lam, x, z), newest first
    for lam in pcfg.lambdas:
        cfg = SolveConfig(lam=float(lam), eps=pcfg.eps, eps_hat=pcfg.eps_hat)
        carry = None
        if certified:
            carry = (*secant_start(cfg.lam, *certified), state.records[-1]["sigma"])
        triple, state = solver(inst, cfg, I0=I0, warm=carry)
        out.append((triple, state))
        certified = [(cfg.lam, triple.x, triple.z), *certified[:1]]
        if pcfg.mode != "direct":
            I0 = np.flatnonzero(fused_blocks(inst.incidence.apply(triple.x), pcfg.eps_hat))
    return out


@pytest.mark.parametrize("mode", ["as", "eas", "direct"])
def test_reused_structures_change_no_result(moons200, monkeypatch, mode):
    """A path that reuses the partitions, Newton systems and Gram factors of
    recurring candidate sets returns, bit for bit, what per-lambda solves
    that build everything afresh return, with the same rounds and work.
    Direct mode's one Newton system is large enough to also keep its
    factors of H from lambda to lambda, which by design changes its
    iterates; with that reuse off (REUSE_FILL infinite) it matches too.
    It also keeps its factors of M for the Woodbury route while sigma
    holds, across lambdas, which changes no iterate, since the route
    solves exactly with the same bits of M, but saves factorizations that
    the fresh solves make again: the work matches once the factorizations
    of M are set apart, and the path makes no more of them. The sieved
    subproblems never take the route."""
    from sievepath import admm, path, sieve

    if mode == "direct":
        monkeypatch.setattr(admm, "REUSE_FILL", np.inf)
    made_m, per_solve = [0], []  # factorizations of M so far, and per lambda
    factor = admm._factor

    def factoring(A, permc_spec="NATURAL"):
        # M is the one N x N Newton matrix; H is 2N x 2N, the probe MMD
        made_m[0] += A.shape[0] == moons200.N and permc_spec == "NATURAL"
        return factor(A, permc_spec)

    def counted(solver):
        def run(*args, **kwargs):
            before = made_m[0]
            out = solver(*args, **kwargs)
            per_solve.append(made_m[0] - before)
            return out
        return run

    monkeypatch.setattr(admm, "_factor", factoring)
    for name in ("as_solve", "eas_solve"):  # path's own and _path_without_store's
        wrapped = counted(getattr(sieve, name))
        monkeypatch.setattr(path, name, wrapped)
        monkeypatch.setattr(sieve, name, wrapped)
    pcfg = PathConfig(mode=mode)
    res = solve_path(moons200, pcfg)
    assert res.all_converged
    kept_m = per_solve[:]
    per_solve.clear()
    fresh = _path_without_store(moons200, pcfg)
    fresh_m = per_solve[:]
    for rec, (triple, state), m_kept, m_fresh in zip(res.records, fresh, kept_m, fresh_m,
                                                    strict=True):
        for name in ("x", "y", "z"):
            assert getattr(rec.triple, name).tobytes() == getattr(triple, name).tobytes()
        assert rec.rounds == state.round
        assert m_kept <= m_fresh
        work = [sum(r[key] for r in state.records) for key in sieve.WORK]
        work[2] -= m_fresh
        assert [rec.newton_steps, rec.cg_steps, rec.factorizations - m_kept,
                rec.woodbury_directions] == work
    assert (sum(kept_m) < sum(fresh_m)) == (mode == "direct")
    assert (res.total("woodbury_directions") > 0) == (mode == "direct")


def test_direct_path_with_kept_factors_agrees_with_fresh_solves(moons200):
    """At default settings direct mode keeps its factors of H from lambda to
    lambda, so its iterates differ from store-free solves in the last bits;
    every lambda still certifies and its y fuses the points into the same
    clusters. (num_fused is not compared: in direct mode it counts the
    blocks of x Jr that are zero to the last bit, which round-off decides.)"""
    from sievepath.labels import extract_labels

    pcfg = PathConfig(mode="direct")
    res = solve_path(moons200, pcfg)
    fresh = _path_without_store(moons200, pcfg)
    assert sum(rec.factorizations for rec in res.records) < sum(
        r["factorizations"] for _, state in fresh for r in state.records)
    for rec, (triple, _) in zip(res.records, fresh, strict=True):
        assert rec.converged and rec.residual <= pcfg.eps
        kept = extract_labels(moons200, rec.triple.y, pcfg.eps_hat).labels
        assert np.array_equal(kept, extract_labels(moons200, triple.y, pcfg.eps_hat).labels)


def test_direct_path_with_kept_factors_of_l_agrees_with_fresh_solves(moons200, monkeypatch):
    """The same on the operator: forced there, direct mode reuses its
    factors of L within an inner solve and drops them when the next one
    begins, so no factors cross a lambda. Every lambda certifies with the
    x, y and z of store-free solves, bit for bit, and so with their
    clusters and num_fused."""
    from conftest import force_newton_branch
    from sievepath import admm
    from sievepath.labels import extract_labels
    from sievepath.model import fused_blocks

    force_newton_branch(monkeypatch, False)
    directions = []  # per inner solve, whether each direction reused kept factors
    newton, direction = admm._newton, admm._NewtonSystem.direction

    def per_solve(*args):
        directions.append([])
        return newton(*args)

    def recording(self, *args):
        made = self.factorizations
        out = direction(self, *args)
        directions[-1].append(self.factorizations == made)
        return out

    monkeypatch.setattr(admm, "_newton", per_solve)
    monkeypatch.setattr(admm._NewtonSystem, "direction", recording)
    pcfg = PathConfig(mode="direct", lambdas=[2.0, 1.0, 0.5])
    res = solve_path(moons200, pcfg)
    assert any(any(solve) for solve in directions)
    assert not any(solve[0] for solve in directions if solve)
    fresh = _path_without_store(moons200, pcfg)
    for rec, (triple, _) in zip(res.records, fresh, strict=True):
        assert rec.converged and rec.residual <= pcfg.eps
        for name in ("x", "y", "z"):
            assert getattr(rec.triple, name).tobytes() == getattr(triple, name).tobytes()
        kept = extract_labels(moons200, rec.triple.y, pcfg.eps_hat).labels
        assert np.array_equal(kept, extract_labels(moons200, triple.y, pcfg.eps_hat).labels)
        fused = fused_blocks(moons200.incidence.apply(triple.x), pcfg.eps_hat)
        assert rec.num_fused == np.count_nonzero(fused)


def _track_sieve_builds(monkeypatch, on_build):
    """Count the partitions, Newton systems and GammaSystems that sieve runs
    build, eas_certify's own excepted, and keep a weak reference to each
    such Newton system and GammaSystem; on_build(name) is called after each
    counted build. Returns (builds, made): the counts by name, and the
    (name, weakref) pairs of the systems in build order."""
    import weakref

    from sievepath import sieve

    builds = {"build_partition": 0, "_NewtonSystem": 0, "GammaSystem": 0}
    made, in_eas = [], []

    def counting(name):
        real = getattr(sieve, name)

        def build(*args):
            out = real(*args)
            if not in_eas:
                builds[name] += 1
                if name != "build_partition":
                    made.append((name, weakref.ref(out)))
                on_build(name)
            return out

        monkeypatch.setattr(sieve, name, build)

    for name in builds:
        counting(name)
    real_eas = sieve.eas_certify

    def eas(*args, **kwargs):
        in_eas.append(True)
        try:
            return real_eas(*args, **kwargs)
        finally:
            in_eas.pop()

    monkeypatch.setattr(sieve, "eas_certify", eas)
    return builds, made


def _alive(made):
    """The names of the tracked systems that a collection leaves alive."""
    import gc

    gc.collect()
    return [name for name, ref in made if ref() is not None]


@pytest.mark.parametrize("mode", ["as", "eas", "direct"])
def test_each_stored_candidate_set_is_built_once(moons200, monkeypatch, mode):
    """Partitions, Newton systems and Gram factors are built only by the
    rounds whose record says built, at most one Newton system and one
    GammaSystem are alive at once, and direct mode builds one partition and
    one Newton system per path. eas_certify builds its own, which are not
    counted here."""
    from collections import Counter

    from sievepath import path

    most = Counter()  # the most systems of each kind alive after a build

    def on_build(name):
        most.update(Counter(_alive(made)) - most)  # raises each count to the larger

    builds, made = _track_sieve_builds(monkeypatch, on_build)
    records = []
    for name in ("as_solve", "eas_solve"):
        real_solve = getattr(path, name)

        def recording(*args, _solve=real_solve, **kwargs):
            triple, state = _solve(*args, **kwargs)
            records.extend(state.records)
            return triple, state

        monkeypatch.setattr(path, name, recording)

    res = solve_path(moons200, PathConfig(mode=mode))
    assert res.all_converged and len(records) == res.total("rounds")
    assert not any(r["certified_early"] for r in records)
    built = [r for r in records if r["built"]]
    assert builds["build_partition"] == len(built)
    # a reduced problem without blocks is solved without a Newton system,
    # and an empty I (m_reduced = m) needs no Gram factors
    assert builds["_NewtonSystem"] == sum(r["m_reduced"] > 0 for r in built)
    assert builds["GammaSystem"] == sum(r["m_reduced"] < moons200.m_blocks for r in built)
    assert max(most.values()) == 1
    if mode == "direct":
        assert builds["build_partition"] == builds["_NewtonSystem"] == 1
        assert builds["GammaSystem"] == 0
    else:
        assert len(built) < len(records) / 2  # candidate sets recur


@pytest.mark.parametrize("mode", ["as", "eas"])
def test_a_new_candidate_set_frees_the_systems_of_the_last(moons200, monkeypatch, mode):
    """Whenever the path's store partitions a new candidate set, no Newton
    system or GammaSystem that it made for an earlier set is reachable: the
    store holds one set, so the old set's factors are freed before the new
    set's are made. eas_certify's own builds are not tracked."""
    reachable = []  # per new partition, the tracked systems still alive

    def on_build(name):
        if name == "build_partition":
            reachable.append(_alive(made))

    builds, made = _track_sieve_builds(monkeypatch, on_build)
    res = solve_path(moons200, PathConfig(mode=mode))
    assert res.all_converged
    assert builds["_NewtonSystem"] > 1 and len(reachable) == builds["build_partition"]
    assert not any(reachable)


def _family_data(rng, family):
    """Data and k of a small k-NN instance of one of four data families:
    Gaussian, near-duplicate clusters (three centers with 1e-6 jitter),
    Gaussian scaled by 10^3, and integer-lattice data with exact duplicate
    points."""
    d = int(rng.choice([1, 2, 3, 7]))
    N = int(rng.integers(6, 90))
    k = int(rng.integers(1, min(12, N - 1) + 1))
    if family == "gaussian":
        A = rng.standard_normal((d, N))
    elif family == "near-duplicate":
        centers = rng.standard_normal((d, 3))
        A = centers[:, rng.integers(0, 3, N)] + 1e-6 * rng.standard_normal((d, N))
    elif family == "scaled":
        A = 1e3 * rng.standard_normal((d, N))
    else:  # N points drawn from N // 3 lattice points, so some coincide
        P = rng.integers(0, 3, (d, max(2, N // 3))).astype(float)
        A = P[:, rng.integers(0, P.shape[1], N)]
    return A, k


def test_instance_families_certify_or_fail_as_solver_errors(tmp_path):
    """60 seeded instances, 15 of each family, on a 7-lambda geometric grid
    from 50 max|A| down to 1e-3, at eps 1e-6 or 1e-8, in every mode: each
    lambda certifies with a recomputed KKT residual <= eps, or fails with a
    class in SOLVER_ERRORS. For the first instance of each family, the CLI
    run on the same data exits 0 exactly when every lambda certified and 1
    otherwise, never 2 (bad input), and its summary.json agrees."""
    import json

    from sievepath.cli import main
    from sievepath.data_io import save_matrix
    from sievepath.model import kkt_residual
    from sievepath.path import MODES, SOLVER_ERRORS

    rng = np.random.default_rng(0)
    solver_errors = {cls.__name__ for cls in SOLVER_ERRORS}
    for i, family in enumerate(("gaussian", "near-duplicate", "scaled", "lattice") * 15):
        A, k = _family_data(rng, family)
        inst = build_knn_graph(A, k=k)
        lambdas = np.geomspace(50.0 * np.abs(inst.A).max(), 1e-3, 7)
        eps = float(rng.choice([1e-6, 1e-8]))
        if i < 4:  # savetxt writes 18 significant digits: the CLI reads A back exactly
            data = tmp_path / f"{family}.csv"
            save_matrix(A, data)
            grid = ",".join(repr(float(lam)) for lam in lambdas)
        for mode in MODES:
            res = solve_path(inst, PathConfig(mode=mode, lambdas=lambdas, eps=eps))
            for rec in res.records:
                if rec.converged:
                    t = rec.triple
                    assert kkt_residual(inst, rec.lam, t.x, t.y, t.z) <= eps
                else:
                    assert rec.error.split(":")[0] in solver_errors
            if i < 4:
                out = tmp_path / f"{family}-{mode}"
                rc = main(["path", "--input", str(data), "--k", str(k), "--grid", grid,
                           "--eps", repr(eps), "--mode", mode, "--out", str(out)])
                assert rc == (0 if res.all_converged else 1)
                summary = json.loads((out / "summary.json").read_text())
                assert summary["all_converged"] == res.all_converged
