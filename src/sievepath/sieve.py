"""Adaptive sieving: dual recovery, violation screening, and the sieve loops.

The sieve guesses an index set I of zero blocks, solves the reduced problem,
recovers a full-space dual candidate u (minimum-violation choice via an
accelerated projected-gradient refinement on the null space of B_{I gamma}^T),
and removes the blocks whose dual certificate lands outside its subdifferential
ball. The enhanced variant additionally tries to certify optimality on the
enlarged zero set of the current iterate once the objective stalls, which can
stop the loop before the plain violation test would.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._kernels import column_norms, frobenius_norm, project_columns
from .admm import AdmmConfig, solve_reduced_admm
from .graph import build_partition, recover_primal, reduce_problem
from .model import KktTriple, kkt_residual, primal_objective

log = logging.getLogger(__name__)

VIOLATION_SLACK = 1e-8  # relative slack of the ball-membership test


class SieveLimitError(RuntimeError):
    """Round budget exhausted; carries the last SieveState for diagnosis."""

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


@dataclass
class ApgConfig:
    eps: float = None  # falls back to half the caller's outer tolerance
    maxiter: int = 10


@dataclass
class ApgResult:
    d: np.ndarray
    iterations: int
    objective: float  # final h value, 0.5 * dist(u0 + d, K)^2
    converged: bool
    history: list = None


@dataclass
class DualRecovery:
    """Full-space dual candidate u and its subdifferential violation w.

    u restricted to I^c is the subsolver multiplier bit-for-bit; on I it is
    the particular stationarity solution plus the APG null-space refinement.
    w is u minus its blockwise projection onto the dual balls (zero off I).
    """

    u: np.ndarray
    w: np.ndarray
    apg_iters: int
    apg_obj: float


@dataclass
class SieveState:
    """Bookkeeping for one sieve run (last round wins for solution fields)."""

    round: int
    I: np.ndarray
    partition: object
    sub: object
    dual: object
    certified_early: bool = False
    records: list = field(default_factory=list)


class GammaSystem:
    """Linear algebra around B_{I gamma}: particular solutions and the
    null-space projector, sharing one sparse factorization per sieve round.

    With the incidence convention B = J^T, B_{I gamma} is Jg^T where
    Jg = J[gamma, I], and B_{I gamma}^T B_{I gamma} = Jg Jg^T is SPD because
    the non-root rows of a connected component's incidence are independent.
    """

    def __init__(self, inst, partition):
        self.Jg = inst.incidence.J[partition.gamma][:, partition.I].tocsc()
        self._JgT = self.Jg.T  # a CSR view, built once for the APG loop
        gram = (self.Jg @ self._JgT).tocsc()
        # SPD, so a symmetric minimum-degree order and no pivoting suffice
        self._factor = sp.linalg.splu(
            gram, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

    def particular(self, R):
        """Min-norm solution U of U Jg^T = -R (stationarity on gamma rows)."""
        S = self._factor.solve(np.ascontiguousarray(R.T))
        return -(self._JgT @ S).T

    def null_project(self, D):
        """Project block matrix D onto {D : D Jg^T = 0}."""
        T = np.asarray((self.Jg @ D.T).T)  # D Jg^T
        S = self._factor.solve(np.ascontiguousarray(T.T))
        return D - (self._JgT @ S).T


def apg_minimize(u0, radii, null_project, cfg=None, track_history=False):
    """Accelerated projected-gradient refinement of a dual particular solution.

    Minimizes h(d) = 0.5 * dist^2(u0 + d, K) over the null space handled by
    ``null_project``, where K is the product of balls with the given radii.
    The gradient (u0 + d) - Pi_K(u0 + d) is 1-Lipschitz, so the unit step
    needs no line search. Stops when both the iterate movement and the
    distance to K fall below cfg.eps, or at cfg.maxiter; non-convergence is
    a normal outcome meaning the current index set is wrong.
    """
    cfg = cfg or ApgConfig()
    eps = 1e-6 if cfg.eps is None else float(cfg.eps)
    d = np.zeros_like(u0)
    d_hat = d
    t = 1.0
    history = [] if track_history else None
    h_val = np.inf
    converged = False
    k = 0
    for k in range(1, cfg.maxiter + 1):
        v = u0 + d_hat
        grad = v - project_columns(v, radii)
        d_prev, h_prev = d, h_val
        d = null_project(d_hat - grad)
        resid = u0 + d
        resid = resid - project_columns(resid, radii)
        dist = frobenius_norm(resid)
        h_val = 0.5 * dist * dist
        if track_history:
            history.append(h_val)
        if max(frobenius_norm(d - d_prev), dist) <= eps:
            converged = True
            break
        # plateauing above the certifiable level cannot recover; bail out
        if eps > 0.0 and k >= 3 and h_val > 0.5 * eps * eps and h_val > 0.999 * h_prev:
            break
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        d_hat = d + ((t - 1.0) / t_next) * (d - d_prev)
        t = t_next
    return ApgResult(d, k, h_val if h_val is not np.inf else 0.0, converged, history)


def recover_dual(inst, lam, partition, sub, apg_cfg=None, x_bar=None):
    """Build the full-space dual candidate (u, w) from a reduced solution."""
    d, m = inst.d, inst.m_blocks
    if x_bar is None:
        x_bar, _ = recover_primal(partition, sub.x_red, sub.y_red)
    u = np.zeros((d, m))
    w = np.zeros((d, m))
    I = partition.I
    u[:, partition.I_c] = sub.xi
    if len(I) == 0 or len(partition.gamma) == 0:
        return DualRecovery(u=u, w=w, apg_iters=0, apg_obj=0.0)

    apg = _complete_dual(inst, lam, partition, x_bar, u, apg_cfg)
    uI = u[:, I]
    w[:, I] = uI - project_columns(uI, lam * inst.weights[I])
    return DualRecovery(u=u, w=w, apg_iters=apg.iterations, apg_obj=apg.objective)


def _complete_dual(inst, lam, partition, x_bar, v, apg_cfg):
    """Fill the I blocks of the dual v, whose I^c blocks are already set.

    The fill is the min-norm solution of stationarity on the gamma rows plus
    its APG refinement on the null space of B_{I gamma}^T; returns the
    ApgResult.
    """
    gs = GammaSystem(inst, partition)
    I_c = partition.I_c
    Jc = inst.incidence.J[partition.gamma][:, I_c]
    grad_gamma = (x_bar - inst.A)[:, partition.gamma]
    v0 = gs.particular(grad_gamma + (Jc @ v[:, I_c].T).T)
    radii = lam * inst.weights[partition.I]
    apg = apg_minimize(v0, radii, gs.null_project, apg_cfg)
    v[:, partition.I] = v0 + apg.d
    return apg


def violation_set(partition, lam, inst, dual, y_bar, slack=VIOLATION_SLACK):
    """Edges of I whose dual candidate falls outside its subdifferential ball.

    y_bar is zero on I by construction, so each ball has radius lam * w_j;
    the relative slack keeps boundary blocks from thrashing in and out.
    """
    I = partition.I
    if len(I) == 0:
        return np.empty(0, dtype=np.int64)
    norms = column_norms(np.ascontiguousarray(dual.u[:, I]))
    return I[norms > lam * inst.weights[I] * (1.0 + slack)]


def eas_certify(inst, lam, x_bar, eps, eps_hat=2e-16, apg_cfg=None):
    """Try to certify x_bar as optimal via its own zero pattern.

    Rebuilds the index machinery on the enlarged set of near-zero blocks of
    B x_bar, pins the dual to the singleton subgradient on the nonzero
    blocks, recovers the free dual blocks by the same particular-plus-APG
    construction, and accepts iff the full KKT residual meets eps. Returns
    None when certification fails, in which case sieving continues on the
    violation test.
    """
    y_t = inst.incidence.apply(x_bar)
    norms = column_norms(y_t)
    I_t = np.flatnonzero(norms <= eps_hat)
    v = np.zeros_like(y_t)
    mask = norms > eps_hat
    if np.any(mask):
        v[:, mask] = y_t[:, mask] * (lam * inst.weights[mask] / norms[mask])
    if len(I_t):
        y_t[:, I_t] = 0.0
        partition = build_partition(inst.incidence, I_t)
        _complete_dual(inst, lam, partition, x_bar, v, apg_cfg)
    if kkt_residual(inst, lam, x_bar, y_t, v) <= eps:
        return KktTriple.from_point(inst, lam, x_bar, y_t, v)
    return None


def _restricted_warm(warm, partition, red):
    """Project a full-space (x, z) or (x, z, sigma) warm start onto a
    reduced problem; a carried subsolver sigma passes through unchanged."""
    x_full, z_full = warm[:2]
    nodes = np.concatenate([partition.alpha, partition.beta])
    X = np.ascontiguousarray(x_full[:, nodes])
    Z = np.ascontiguousarray(z_full[:, partition.I_c])
    return (X, red.apply(X), Z, *warm[2:])


def _sieve_loop(inst, cfg, I0, enhanced, warm=None):
    lam = cfg.lam
    m = inst.m_blocks
    I = np.arange(m, dtype=np.int64) if I0 is None else np.unique(
        np.asarray(I0, dtype=np.int64)
    )
    max_rounds = cfg.max_sieve_rounds
    if max_rounds is None:
        max_rounds = len(I) + 1
    admm_cfg = cfg.admm or AdmmConfig()
    apg_base = cfg.apg or ApgConfig()
    sub_tol = admm_cfg.tol if admm_cfg.tol is not None else 0.5 * cfg.eps
    apg_eps = apg_base.eps if apg_base.eps is not None else 0.5 * cfg.eps
    apg_iter = apg_base.maxiter

    state = SieveState(round=0, I=I, partition=None, sub=None, dual=None)
    carry = warm  # (x_full, z_full[, sigma]) from the caller or the last round
    F_prev = None  # objective at the end of the previous round

    for rnd in range(max_rounds):
        state.round = rnd + 1
        state.I = I
        partition = build_partition(inst.incidence, I)
        red = reduce_problem(inst, partition, lam)
        state.partition = partition
        warm_red = None
        if carry is not None:
            warm_red = _restricted_warm(carry, partition, red)

        tol_cur, apg_cur = sub_tol, apg_iter
        for attempt in range(4):
            sub = solve_reduced_admm(red, tol_cur, admm_cfg, warm=warm_red)
            x_bar, y_bar = recover_primal(partition, sub.x_red, sub.y_red)
            F_val = primal_objective(inst, lam, x_bar)
            state.sub = sub

            if enhanced and F_prev is not None and abs(F_val - F_prev) <= cfg.eps:
                cert = eas_certify(
                    inst, lam, x_bar, cfg.eps, cfg.eps_hat,
                    ApgConfig(eps=apg_eps, maxiter=apg_cur),
                )
                if cert is not None:
                    state.certified_early = True
                    state.records.append(_record(rnd, partition, sub, cert.residual_norm, F_val, 0, tol_cur, True))
                    log.info("round %d: certified early, residual %.3e", rnd + 1, cert.residual_norm)
                    return cert, state

            dual = recover_dual(
                inst, lam, partition, sub,
                ApgConfig(eps=apg_eps, maxiter=apg_cur), x_bar=x_bar,
            )
            state.dual = dual
            res = kkt_residual(inst, lam, x_bar, y_bar, dual.u)
            if res <= cfg.eps:
                state.records.append(_record(rnd, partition, sub, res, F_val, 0, tol_cur, False))
                log.info("round %d: residual %.3e <= eps", rnd + 1, res)
                return KktTriple.from_point(inst, lam, x_bar, y_bar, dual.u), state

            J = violation_set(partition, lam, inst, dual, y_bar)
            if len(J):
                break
            # no violations yet residual too large: the subsolve was too
            # loose, so tighten within the same round
            tol_cur *= 0.01
            apg_cur *= 10
            warm_red = sub.warm_start()
            log.info(
                "round %d: no violations at residual %.3e, retightening to %.1e",
                rnd + 1, res, tol_cur,
            )
        else:
            state.records.append(_record(rnd, partition, sub, res, F_val, 0, tol_cur, False))
            raise SieveLimitError(
                f"no violations but residual {res:.3e} > eps after retightening", state
            )

        state.records.append(_record(rnd, partition, sub, res, F_val, len(J), tol_cur, False))
        log.info(
            "round %d: residual %.3e, removing %d of %d candidate blocks",
            rnd + 1, res, len(J), len(I),
        )
        I = np.setdiff1d(I, J, assume_unique=True)
        carry = (x_bar, dual.u, sub.sigma)
        F_prev = F_val

    raise SieveLimitError(f"sieve did not certify within {max_rounds} rounds", state)


def _record(rnd, partition, sub, res, F_val, n_viol, tol, certified):
    return {
        "round": rnd + 1,
        "n_reduced": partition.n_reduced,
        "m_reduced": partition.m - len(partition.I),
        "admm_iterations": sub.iterations,
        "kkt_residual": res,
        "objective": F_val,
        "violations": n_viol,
        "subsolver_tol": tol,
        "certified_early": certified,
    }


def as_solve(inst, cfg, I0=None, warm=None):
    """Adaptive sieving for one lambda; returns (KktTriple, SieveState).

    Starting from the candidate zero set I0 (all blocks when omitted), each
    round solves the reduced problem, recovers a dual candidate, and either
    certifies the point or strips I of its violating blocks; I shrinks
    strictly, so at most len(I0) + 1 rounds ever run. warm is a full-space
    (x, z) pair, optionally followed by the subsolver sigma to resume with.
    """
    return _sieve_loop(inst, cfg, I0, enhanced=False, warm=warm)


def eas_solve(inst, cfg, I0=None, warm=None):
    """Sieve with early optimality certification; never more rounds than as_solve.

    Identical to as_solve except that once consecutive objectives agree to
    eps (possible from the second round on), the current iterate's own zero
    pattern is used to attempt a direct optimality certificate before any
    further sieving.
    """
    return _sieve_loop(inst, cfg, I0, enhanced=True, warm=warm)
