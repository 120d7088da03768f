"""Semi-smooth two-block ADMM for the reduced clustering subproblems.

The reduced problem min phi(X) + lam * q(Y) s.t. X Jr = Y splits into a
linear solve against diag(h) + sigma Jr Jr^T (factorized once per sigma and
cached), a blockwise group-norm prox, and a multiplier step of length
TAU * sigma. Warm starts carry sigma over from the solve they resume, so a
path pays for balancing sigma once rather than on every call. Convergence is
declared on the reduced KKT residual, which matches the full-space residual
contribution of the retained blocks after recovery.
"""

import logging
from dataclasses import dataclass

import numpy as np

from ._kernels import prox_columns, project_columns
from .graph import build_partition, recover_primal, reduce_problem
from .model import KktTriple

log = logging.getLogger(__name__)

# dual step length; ADMM converges for any step in (0, (1 + sqrt 5) / 2),
# and a step near that bound takes fewer iterations than the unit step
TAU = 1.618


@dataclass
class AdmmConfig:
    sigma: float = 1.0  # cold-start penalty; warm starts carry their own
    max_iter: int = 50000
    tol: float = None  # falls back to the caller's outer tolerance
    check_every: int = 10
    refresh: bool = True  # allow sigma rebalancing (refactorizes on change)
    sigma_min: float = 1e-6
    sigma_max: float = 1e6


@dataclass
class SubSolution:
    """Reduced-space solution triple plus solver diagnostics."""

    x_red: np.ndarray
    y_red: np.ndarray
    xi: np.ndarray
    iterations: int
    converged: bool
    kkt_red: float
    gap: float
    sigma: float
    n_alpha: int = 0

    @property
    def x_alpha(self):
        return self.x_red[:, : self.n_alpha]

    @property
    def x_beta(self):
        return self.x_red[:, self.n_alpha :]

    @property
    def achieved_kkt(self):
        return self.kkt_red

    def warm_start(self):
        """(X, Y, Z, sigma) to restart ADMM where this solve stopped."""
        return self.x_red, self.y_red, self.xi, self.sigma


def reduced_kkt_residual(red, X, Y, Z):
    """Euclidean norm of the stacked reduced optimality residuals."""
    g1 = red.grad_phi(X) + red.adjoint(Z)
    g2 = Y - prox_columns(Y + Z, red.lam * red.weights)
    g3 = red.apply(X) - Y
    return float(np.sqrt(np.sum(g1 * g1) + np.sum(g2 * g2) + np.sum(g3 * g3)))


def _relative_gap(red, X, Z):
    F = red.primal_objective(X)
    D = red.dual_objective(project_columns(Z, red.lam * red.weights))
    return abs(F - D) / (1.0 + abs(F) + abs(D))


def solve_reduced_admm(red, tol, config=None, warm=None):
    """Run ADMM on a reduced problem until both the reduced KKT residual and
    the reduced relative duality gap fall below tol.

    warm is (X, Y, Z) or (X, Y, Z, sigma), as returned by
    SubSolution.warm_start; a carried sigma replaces config.sigma, which
    only sets the penalty of a cold start.
    """
    cfg = config or AdmmConfig()
    tol = float(tol if cfg.tol is None else cfg.tol)
    d = red.C.shape[0]
    n_alpha = len(red.partition.alpha)
    sigma = float(cfg.sigma if warm is None or len(warm) < 4 else warm[3])

    if red.m_red == 0:
        X = red.C / red.h
        empty = np.zeros((d, 0))
        return SubSolution(X, empty.copy(), empty.copy(), 0, True, 0.0, 0.0,
                           sigma, n_alpha)

    if warm is not None:
        X, Y, Z = (np.array(v, dtype=np.float64) for v in warm[:3])
    else:
        X = red.C / red.h
        Y = red.apply(X)
        Z = np.zeros_like(Y)

    factor = red.solver_matrix_factor(sigma)
    shrink = (red.lam / sigma) * red.weights
    kkt = np.inf
    gap = np.inf
    it = 0
    for it in range(1, cfg.max_iter + 1):
        rhs = red.C + red.adjoint(sigma * Y - Z)
        X = factor.solve(rhs.T).T
        BX = red.apply(X)
        Y_prev = Y
        Y = prox_columns(BX + Z / sigma, shrink)
        R = BX - Y
        Z += (TAU * sigma) * R

        if it % cfg.check_every:
            continue
        kkt = reduced_kkt_residual(red, X, Y, Z)
        if kkt <= tol:
            gap = _relative_gap(red, X, Z)
            if gap <= tol:
                break
        if cfg.refresh:
            r_pri = float(np.linalg.norm(R))
            r_dua = sigma * float(np.linalg.norm(red.adjoint(Y - Y_prev)))
            new_sigma = sigma
            if r_pri > 10.0 * r_dua and sigma < cfg.sigma_max:
                new_sigma = sigma * 2.0
            elif r_dua > 10.0 * r_pri and sigma > cfg.sigma_min:
                new_sigma = sigma * 0.5
            if new_sigma != sigma:
                sigma = new_sigma
                factor = red.solver_matrix_factor(sigma)
                shrink = (red.lam / sigma) * red.weights

    kkt = reduced_kkt_residual(red, X, Y, Z)
    gap = _relative_gap(red, X, Z)
    converged = kkt <= tol and gap <= tol
    if not converged:
        log.warning(
            "ADMM stopped at max_iter=%d with residual %.3e, gap %.3e > tol %.3e",
            cfg.max_iter, kkt, gap, tol,
        )
    return SubSolution(X, Y, Z, it, converged, kkt, gap, sigma, n_alpha)


def solve_full(inst, lam, tol, config=None, warm=None):
    """Solve the unsieved problem (I empty) and report a full-space triple."""
    partition = build_partition(inst.incidence, np.empty(0, dtype=np.int64))
    red = reduce_problem(inst, partition, lam)
    sol = solve_reduced_admm(red, tol, config=config, warm=warm)
    x, y = recover_primal(partition, sol.x_red, sol.y_red)
    triple = KktTriple.from_point(inst, lam, x, y, sol.xi)
    return triple, sol
