"""Semismooth-Newton augmented Lagrangian (SSNAL) for the reduced subproblems.

The reduced problem min phi(X) + lam * q(Y) s.t. X Jr = Y, with Jr the
matrix of red.inc, is solved by an augmented Lagrangian loop with multiplier
Z and penalty sigma. Each inner step minimises Psi(X) = phi(X) + sigma *
e_tau(X Jr + Z / sigma), with e_tau the Moreau envelope of the block norms
scaled by tau = lam * w / sigma, by a semismooth Newton method. Its
generalised Hessian has the sparsity of the graph with a d x d block per
pair of adjacent nodes: a small one is assembled and factorized by SuperLU
at every Newton step; a large one is only applied, and scipy's conjugate
gradients, preconditioned by a factorized n x n graph matrix L, solve the
Newton system, so that memory and work per step grow linearly in d. Within
one inner solve later Newton steps reuse the factors of L until the CG
steps this costs, weighted by d, would pay for a new factorization
(REUSE_WEIGHT; every d > 8 factors at every step). The pattern depends
on the candidate set alone, so one fill-reducing node order, the CSC
pattern and each entry's slot in it (_NewtonSystem) are computed once per
set: a standalone subsolve builds them when it starts, and the sieve passes
the system it keeps for a set to every subsolve of that set, its
retightenings and later lambdas included; direct mode thus orders its one
full-problem system once per path. Every factorization reuses that order.
The multiplier step Z = sigma * Pi_tau(V) keeps Z inside the dual balls, so
Y = prox(Y + Z) holds exactly and the reduced KKT residual is the inner
gradient plus the primal infeasibility. Warm starts carry sigma over
from the solve they resume. Convergence is declared on the reduced KKT
residual, which matches the full-space residual contribution of the
retained blocks after recovery.

The module, AdmmConfig, solve_reduced_admm and the --admm-* flags keep the
names of the ADMM subsolver this replaced, because the benchmark's layer
spans, saved manifests and callers look them up by those names.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._kernels import column_norms, prox_columns, project_columns
from .graph import build_partition, recover_primal, reduce_problem
from .model import KktTriple

log = logging.getLogger(__name__)

SIGMA_GROWTH = 3.0  # raise sigma by this factor when infeasibility stalls
SIGMA_MAX = 1e4
MAX_OUTER = 500  # multiplier updates per solve; guards the round-off floor
ARMIJO = 1e-4  # sufficient-decrease fraction of the Newton line search
# below this fraction of |Psi| a decrease of Psi is lost in round-off, so
# the line search judges a step by the gradient norm instead
PSI_ROUNDOFF = 1e-15
# Newton matrices with at most EXACT_ENTRIES stored entries (parallel edges
# merged) are assembled and factorized; larger ones are applied as an
# operator and solved by PCG. On the d = 2 moons paths the sieved
# subproblems (up to about 4.2e4 entries at N = 5000) are faster assembled
# and the full N = 1000 problem (5.3e4) faster by PCG. ASSEMBLY_ENTRIES caps
# the per-edge index arrays of the assembly (4 m d^2 entries), which many
# parallel edges can make much longer than the matrix.
EXACT_ENTRIES = 50_000
ASSEMBLY_ENTRIES = 1_000_000
MAX_CG = 500  # conjugate-gradient steps per Newton direction
# _newton factors L afresh once (excess + 1) * d > REUSE_WEIGHT, excess being
# the extra CG steps that reused factors have cost. The factors serve all d
# columns, and a CG step costs about d times a d = 1 step: at N = 1000 one
# factorization of L takes about 1.3 ms and one d = 2 CG step 0.15 ms. On
# N = 1000 moons direct paths reuse paid at d = 2 and 5, was about even at
# d = 10 and lost at d = 20; every d > REUSE_WEIGHT refactors at every step.
REUSE_WEIGHT = 8


class SingularSystemError(RuntimeError):
    """SuperLU found a Newton system singular (only non-finite data can
    make the SPD Newton matrix so)."""


@dataclass
class AdmmConfig:
    sigma: float = 1.0  # cold-start penalty; warm starts carry their own
    max_iter: int = 50000  # cap on Newton steps per solve
    tol: float = None  # a lambda's first subsolve, None: eps/2; every mode retightens it

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")
        if self.max_iter < 1:
            raise ValueError(f"admm max_iter must be at least 1, got {self.max_iter!r}")
        if self.tol is not None and not 0.0 <= self.tol < math.inf:
            raise ValueError(f"admm tol must be finite and >= 0, got {self.tol!r}")


@dataclass
class SubSolution:
    """Reduced-space solution triple plus solver diagnostics; iterations
    counts Newton steps, cg_steps their conjugate-gradient steps and
    factorizations the SuperLU factorizations of Newton or preconditioner
    matrices (the order probe not included)."""

    x_red: np.ndarray
    y_red: np.ndarray
    xi: np.ndarray
    iterations: int
    converged: bool
    kkt_red: float
    gap: float
    sigma: float
    cg_steps: int = 0
    factorizations: int = 0

    def warm_start(self):
        """(X, Y, Z, sigma) to restart the subsolver where this solve stopped."""
        return self.x_red, self.y_red, self.xi, self.sigma


def reduced_kkt_residual(red, X, Y, Z):
    """Euclidean norm of the stacked reduced optimality residuals."""
    g1 = red.grad_phi(X) + red.inc.adjoint(Z)
    g2 = Y - prox_columns(Y + Z, red.lam * red.weights)
    g3 = red.inc.apply(X) - Y
    return float(np.sqrt(np.sum(g1 * g1) + np.sum(g2 * g2) + np.sum(g3 * g3)))


def _relative_gap(red, X, Z):
    F = red.primal_objective(X)
    D = red.dual_objective(project_columns(Z, red.lam * red.weights))
    return abs(F - D) / (1.0 + abs(F) + abs(D))


class _NewtonSystem:
    """Psi, its gradient and Newton directions on one reduced problem.

    The generalised Hessian is H = diag(h) (x) I_d + sigma sum_l a_l a_l^T
    (x) Q_l over the edges (ri, rj) of red.inc, with a_l = e_ri - e_rj, laid
    out node-major (entry i * d + k is coordinate k of node i). With
    Q_l = c_l (I - u_l u_l^T) it splits as H = L (x) I_d - G^T diag(sigma c) G,
    where L = diag(h) + sigma Jr diag(c) Jr^T is an n x n graph matrix and
    row l of G is a_l (x) u_l.

    Stored, H has a dense d x d block per node and per pair of adjacent
    nodes. Up to EXACT_ENTRIES of them it is assembled on a fixed CSC
    pattern (the 4 d^2 entries of every edge summed by bincount) and
    factorized by SuperLU. Above that it is never formed: three sparse
    products apply it in O(m d), and scipy's conjugate gradients solve the
    Newton system preconditioned by L (x) I_d, whose factorization keeps the
    graph's sparsity and serves all d columns; H <= L (x) I_d, and the two
    differ by one rank-one term per edge. Factors of L at an earlier point
    precondition as well, so the caller may pass them back (_newton's reuse
    rule); the system itself keeps no factors.

    Both are built once, in one fill-reducing order of the n nodes
    (_node_order), node order[p] in place p, so SuperLU factors them as
    they are; direction permutes only its right-hand side and its result.
    Only the reduced graph and h shape the system, and they depend on the
    candidate set alone, so the system serves every reduced problem of the
    same set, at any lam: solve_reduced_admm binds it to the one it solves
    (red) and overwrites the values of H, L and G at every step.
    """

    def __init__(self, red):
        self.red = red
        d, n = red.C.shape
        ri, rj = red.inc.edge_i, red.inc.edge_j
        self.keep = ri != rj  # an edge inside one component adds nothing
        ri, rj = ri[self.keep], rj[self.keep]
        pairs = len(np.unique(np.minimum(ri, rj) * n + np.maximum(ri, rj)))
        self.exact = ((n + 2 * pairs) * d * d <= EXACT_ENTRIES
                      and 4 * len(ri) * d * d <= ASSEMBLY_ENTRIES)
        # every matrix below is built with node order[p] in place p, so that
        # SuperLU factors it in the given order instead of finding one again
        self.order, rank = _node_order(n, ri, rj)
        ri, rj, h = rank[ri], rank[rj], red.h[self.order]
        k = np.arange(d)
        if self.exact:
            # the diagonal, then the blocks (ri, ri), (rj, rj), (ri, rj), (rj, ri)
            br = np.concatenate([ri, rj, ri, rj])[:, None, None] * d + k[:, None]
            bc = np.concatenate([ri, rj, rj, ri])[:, None, None] * d + k
            br, bc = np.broadcast_arrays(br, bc)
            self.H, self._slot = _pattern(np.concatenate([np.arange(n * d), br.ravel()]),
                                          np.concatenate([np.arange(n * d), bc.ravel()]),
                                          n * d)
            self._hdiag = np.repeat(h, d)
        else:
            self._h = h
            self.L, self._slot = _pattern(np.concatenate([np.arange(n), ri, rj, ri, rj]),
                                          np.concatenate([np.arange(n), ri, rj, rj, ri]), n)
            # column l of G^T holds u_l at rows ri*d + k and -u_l at rj*d + k;
            # G is a CSR view of the same arrays
            rows = np.hstack([ri[:, None] * d + k, rj[:, None] * d + k])
            self.GT = sp.csc_matrix(
                (np.zeros(rows.size), rows.ravel().astype(np.intc),
                 np.arange(0, rows.size + 1, 2 * d, dtype=np.intc)),
                shape=(n * d, len(ri)),
            )
            self.G = self.GT.T

    def psi_grad(self, X, V, tau, sigma):
        """Psi up to a constant, phi(X) + sigma * e_tau(V), and its gradient."""
        red = self.red
        P = prox_columns(V, tau)
        Pi = V - P
        env = float(np.dot(tau, column_norms(P))) + 0.5 * float(np.sum(Pi * Pi))
        return red.phi(X) + sigma * env, red.grad_phi(X) + sigma * red.inc.adjoint(Pi)

    def curvature(self, V, tau, sigma):
        """sigma c_l and u_l (columns of U) of every kept edge at V = X Jr +
        Z / sigma: Q_l = I inside the ball, c_l (I - u_l u_l^T) with c_l =
        tau_l / ||v_l|| outside it, where u_l = 0 stands for c_l = 1."""
        Vk, tk = V[:, self.keep], tau[self.keep]
        norms = column_norms(Vk)
        outside = norms > tk
        sc = sigma * np.divide(tk, norms, out=np.ones_like(norms), where=outside)
        U = np.divide(Vk, norms, out=np.zeros_like(Vk), where=outside)
        return sc, U

    def matrix(self, V, tau, sigma):
        """H at V, assembled in the node order (exact mode only)."""
        sc, U = self.curvature(V, tau, sigma)
        d = U.shape[0]
        sQ = sc[:, None, None] * (np.eye(d) - U.T[:, :, None] * U.T[:, None, :])
        sQ = sQ.ravel()
        self.H.data = np.bincount(
            self._slot, weights=np.concatenate([self._hdiag, sQ, sQ, -sQ, -sQ]),
            minlength=self.H.nnz,
        )
        return self.H

    def operator(self, V, tau, sigma):
        """H at V as a function of a node-major n x d direction, and the
        preconditioner L, assembled, both in the node order (operator mode
        only)."""
        sc, U = self.curvature(V, tau, sigma)
        L, G, GT = self.L, self.G, self.GT
        L.data = np.bincount(
            self._slot, weights=np.concatenate([self._h, sc, sc, -sc, -sc]),
            minlength=L.nnz,
        )
        GT.data[:] = np.hstack([U.T, -U.T]).ravel()

        def apply(P):
            return L @ P - (GT @ (sc * (G @ P.ravel()))).reshape(P.shape)

        return apply, L

    def direction(self, V, tau, sigma, grad, rtol, lu=None):
        """Newton direction, H dX = -grad, as (dX, lu, cg).

        Exact mode factors H and solves it; lu is None and cg 0. Operator
        mode runs PCG until the residual is at most rtol * ||grad||,
        preconditioned by lu, factors of L at an earlier point of the same
        inner solve, or by L factored here when lu is None; it returns the
        factors it used and its CG steps. Any SPD preconditioner keeps every
        CG iterate a descent direction. Only the right-hand side and the
        result are permuted."""
        r = -grad.T[self.order]
        if self.exact:
            lu = _factor(self.matrix(V, tau, sigma))
            x = lu.solve(r.ravel()).reshape(r.shape)
            lu, cg = None, 0
        else:
            hess, L = self.operator(V, tau, sigma)
            if lu is None:
                lu = _factor(L)
            # cg works on the flattened node-major vector
            H = sp.linalg.LinearOperator((r.size, r.size), dtype=np.float64,
                                         matvec=lambda p: hess(p.reshape(r.shape)).ravel())
            P = sp.linalg.LinearOperator((r.size, r.size), dtype=np.float64,
                                         matvec=lambda p: lu.solve(p.reshape(r.shape)).ravel())
            iterates = []  # cg calls back once per step
            x, _ = sp.linalg.cg(H, r.ravel(), rtol=rtol, maxiter=MAX_CG, M=P,
                                callback=iterates.append)
            x, cg = x.reshape(r.shape), len(iterates)
        dX = np.empty_like(grad)
        dX[:, self.order] = x.T
        return dX, lu, cg


def _pattern(rows, cols, n):
    """The n x n CSC pattern of the entries (rows, cols), with 32-bit
    indices and zero values, and each entry's slot in it."""
    key, slot = np.unique(cols * n + rows, return_inverse=True)
    A = sp.csc_matrix(
        (np.zeros(len(key)), (key % n).astype(np.intc),
         np.searchsorted(key // n, np.arange(n + 1)).astype(np.intc)),
        shape=(n, n),
    )
    return A, slot


def _node_order(n, ri, rj):
    """A fill-reducing order of the n-node graph with edges (ri, rj), as
    (order, rank): node order[p] goes to place p, node i to place rank[i].

    It is SuperLU's symmetric minimum-degree order of a diagonally dominant
    matrix with the graph's pattern, so it depends on the pattern only.
    """
    m = len(ri)
    probe = sp.csc_matrix(
        (np.concatenate([np.full(n, 2.0 * m + 1.0), -np.ones(2 * m)]),
         (np.concatenate([np.arange(n), ri, rj]), np.concatenate([np.arange(n), rj, ri]))),
        shape=(n, n),
    )
    lu = sp.linalg.splu(probe, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
    # a copy: perm_c is a view that would keep the probe's factors alive
    rank = np.array(lu.perm_c, dtype=np.int64)
    return np.argsort(rank), rank


def _factor(A):
    """SuperLU factors of an SPD matrix already in a fill-reducing order:
    no reordering and no pivoting."""
    try:
        return sp.linalg.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                              options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise SingularSystemError(str(exc)) from exc


def _newton(ns, X, Z, sigma, gtol, max_steps):
    """Semismooth Newton on Psi from X until ||grad Psi|| <= gtol.

    Returns (X, V, grad, steps, stalled, cg_steps, factorizations); stalled
    means no step along the Newton direction was acceptable, i.e. round-off
    ended the descent. In operator mode the factors of L from the first step
    precondition the later ones: each direction that reuses them adds the CG
    steps it took beyond c0, the count of the direction that factored them,
    to an excess, and the next step factors L afresh once (excess + 1) * d >
    REUSE_WEIGHT. The factors live only in this call.
    """
    red = ns.red
    d = red.C.shape[0]
    tau = (red.lam / sigma) * red.weights
    V = red.inc.apply(X) + Z / sigma
    psi, grad = ns.psi_grad(X, V, tau, sigma)
    gnorm = float(np.linalg.norm(grad))
    steps = cg_steps = factorizations = 0
    lu = None
    while gnorm > gtol and steps < max_steps:
        if lu is not None and (excess + 1) * d > REUSE_WEIGHT:
            lu = None
        fresh = lu is None
        # forcing term min(0.1, ||grad||^0.5): superlinear once ||grad|| is small
        dX, lu, cg = ns.direction(V, tau, sigma, grad, min(0.1, np.sqrt(gnorm)), lu)
        if fresh:
            c0, excess = cg, 0
        else:
            excess += max(0, cg - c0)
        cg_steps += cg
        factorizations += fresh
        dV = red.inc.apply(dX)
        slope = float(np.dot(grad.ravel(), dX.ravel()))
        alpha = 1.0
        for _ in range(40):  # halvings of the unit step
            X_t = X + alpha * dX
            V_t = V + alpha * dV
            psi_t, grad_t = ns.psi_grad(X_t, V_t, tau, sigma)
            gnorm_t = float(np.linalg.norm(grad_t))
            if psi_t <= psi + ARMIJO * alpha * slope:
                break
            if -alpha * slope <= PSI_ROUNDOFF * abs(psi) and gnorm_t < gnorm:
                break
            alpha *= 0.5
        else:
            return X, V, grad, steps, True, cg_steps, factorizations
        X, V, psi, grad, gnorm = X_t, V_t, psi_t, grad_t, gnorm_t
        steps += 1
    return X, V, grad, steps, False, cg_steps, factorizations


def solve_reduced_admm(red, tol, config=None, warm=None, system=None):
    """Run SSNAL on a reduced problem until both the reduced KKT residual and
    the reduced relative duality gap fall below tol.

    warm is (X, Y, Z) or (X, Y, Z, sigma), as returned by
    SubSolution.warm_start; a carried sigma replaces config.sigma, which
    only sets the penalty of a cold start. config.max_iter caps the Newton
    steps of the whole solve. system(red), when given, returns the
    _NewtonSystem to use, one built for a reduced problem of the same
    candidate set at any lam (the sieve keeps one per set); by default the
    solve builds its own.
    """
    cfg = config or AdmmConfig()
    tol = float(tol)
    d = red.C.shape[0]
    sigma = float(cfg.sigma if warm is None or len(warm) < 4 else warm[3])

    if red.m_red == 0:
        X = red.C / red.h
        empty = np.zeros((d, 0))
        return SubSolution(X, empty.copy(), empty.copy(), 0, True, 0.0, 0.0, sigma)

    if warm is not None:
        X, Y, Z = (np.array(v, dtype=np.float64) for v in warm[:3])
    else:
        X = red.C / red.h
        Y = red.inc.apply(X)
        Z = np.zeros_like(Y)

    ns = _NewtonSystem(red) if system is None else system(red)
    ns.red = red
    lw = red.lam * red.weights
    kkt = reduced_kkt_residual(red, X, Y, Z)
    gap = _relative_gap(red, X, Z) if kkt <= tol else np.inf
    steps = cg_steps = factorizations = 0
    pinf_prev = np.inf
    best = kkt
    for _ in range(MAX_OUTER):
        if (kkt <= tol and gap <= tol) or steps >= cfg.max_iter:
            break
        # the inner solve only needs to outpace the infeasibility it leaves
        gtol = max(0.5 * tol, min(0.1 * pinf_prev, 1.0))
        X, V, grad, n, stalled, cg, factored = _newton(ns, X, Z, sigma, gtol,
                                                       cfg.max_iter - steps)
        steps, cg_steps, factorizations = steps + n, cg_steps + cg, factorizations + factored
        Y = prox_columns(V, lw / sigma)
        Z = sigma * (V - Y)
        R = red.inc.apply(X) - Y
        pinf = float(np.linalg.norm(R))
        kkt = float(np.sqrt(np.sum(grad * grad) + pinf * pinf))
        gap = _relative_gap(red, X, Z) if kkt <= tol else np.inf
        if stalled and kkt >= best:
            break  # round-off floor: neither Newton nor the multiplier helps
        best = min(best, kkt)
        if pinf > 0.2 * pinf_prev:  # infeasibility fell by less than 5x
            sigma = min(SIGMA_GROWTH * sigma, SIGMA_MAX)
        pinf_prev = pinf

    kkt = reduced_kkt_residual(red, X, Y, Z)
    gap = _relative_gap(red, X, Z)
    converged = kkt <= tol and gap <= tol
    if not converged:
        log.warning(
            "SSNAL stopped after %d Newton steps with residual %.3e, gap %.3e > tol %.3e",
            steps, kkt, gap, tol,
        )
    return SubSolution(X, Y, Z, steps, converged, kkt, gap, sigma, cg_steps, factorizations)


def solve_full(inst, lam, tol, config=None, warm=None):
    """Solve the unsieved problem (I empty) and report a full-space triple."""
    partition = build_partition(inst.incidence, np.empty(0, dtype=np.int64))
    red = reduce_problem(inst, partition, lam)
    sol = solve_reduced_admm(red, tol, config=config, warm=warm)
    x, y = recover_primal(partition, sol.x_red, sol.y_red)
    triple = KktTriple.from_point(inst, lam, x, y, sol.xi)
    return triple, sol
