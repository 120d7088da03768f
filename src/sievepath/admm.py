"""Semismooth-Newton augmented Lagrangian (SSNAL) for the reduced subproblems.

The reduced problem min phi(X) + lam * q(Y) s.t. X Jr = Y, with Jr the
matrix of red.inc, is solved by an augmented Lagrangian loop with multiplier
Z and penalty sigma. Each inner step minimises Psi(X) = phi(X) + sigma *
e_tau(X Jr + Z / sigma), with e_tau the Moreau envelope of the block norms
scaled by tau = lam * w / sigma, by a semismooth Newton method whose line
search halves the step until Armijo's decrease holds or, once that
decrease is within round-off of |Psi| + kappa, the gradient norm falls.
Its generalised Hessian H has the sparsity of the graph with a dense
d x d block per node entry. The order probe, which finds the fill-reducing
node order, also counts the fill of the graph's factors in it; times d^2
that predicts the fill of H's factors. When that is affordable, in total
and per node, H is assembled, by one sparse product that sums the d x d
block of every node and edge term into its blocks, and factorized by SuperLU;
otherwise it is only applied, and conjugate gradients, preconditioned by
a factorized n x n graph matrix L, solve the Newton system, so that memory
and work per step grow linearly in d. SuperLU runs without relaxed
supernodes, whose padding with explicit zeros cost these SPD block
matrices more than it saved, and the CG loop is the module's own, with
scipy's arithmetic (_cg). Factors are reused until the CG
steps the reuse costs would pay for a new factorization (_reuse_weight;
_NewtonSystem states how long each kind lives). When few edges lie outside
their balls (WOODBURY_RANK, WOODBURY_EDGES), an assembled system solves
the Newton system exactly without forming H: H is a fixed matrix M (x) I_d,
M = diag(h) + sigma Jr Jr^T, less one rank-d term per such edge, so
Sherman-Morrison-Woodbury solves it with factors of M, kept while sigma
holds, and one dense Cholesky factorization of order k d (Sun, Toh & Yuan,
JMLR 2021, exploit the same second-order sparsity). The pattern depends on the
candidate set alone, so one node order, the CSC pattern and the matrix
that sums into it (_NewtonSystem) are computed once per set: the sieve builds the
system with the set's other structures and passes it to every subsolve of
that set, its retightenings and later lambdas included, and a standalone
subsolve builds its own when it starts; direct mode thus orders its one
full-problem system once per path. Every factorization reuses that order.
The multiplier step Z = sigma * Pi_tau(V) keeps Z inside the dual balls, so
Y = prox(Y + Z) holds exactly and the reduced KKT residual is the inner
gradient plus the primal infeasibility. A cold start sets sigma to
SIGMA_START, and a warm start carries it over from the solve it resumes.
Convergence is declared on the reduced KKT residual alone, as SSNAL (Sun,
Toh & Yuan, JMLR 2021) stops and as the sieve's convergence theory
measures inexactness; it matches the full-space residual contribution of
the retained blocks after recovery and, unlike a gap between objectives
that carry kappa = ||A||^2 / 2, does not move when the data are
translated. A solve stopped short warns with its cause.

The module, AdmmConfig, solve_reduced_admm and the --admm-max-iter flag keep
the names of the ADMM subsolver this replaced, because the benchmark's layer
spans, saved manifests and callers look them up by those names.
"""

import logging
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from ._kernels import column_norms, prox_columns
from .graph import build_partition, recover_primal, reduce_problem
from .model import KktTriple

log = logging.getLogger(__name__)

SIGMA_START = 1.0  # the penalty of a cold start; SSNAL adapts it from there
SIGMA_GROWTH = 3.0  # raise sigma by this factor when infeasibility stalls
SIGMA_MAX = 1e4
MAX_OUTER = 500  # multiplier updates per solve; guards the round-off floor
ARMIJO = 1e-4  # sufficient-decrease fraction of the Newton line search
# below this fraction of |Psi| + kappa a decrease of Psi is lost in
# round-off (Psi sums terms of order kappa), where Armijo passes on noise,
# so the line search accepts a step there only if it lowers the gradient norm
PSI_ROUNDOFF = 1e-15
# Fill counts the stored entries of SuperLU's factors as every
# factorization here makes them: without relaxed supernodes (relax =
# panel_size = 1), whose explicit zeros cost these SPD matrices more than
# they saved (H of the full N = 1000 moons problem factored in 3.4 ms
# against 5.3 ms, medians of 7). With the default settings' padding, H's
# factors held 1% more entries at N = 10^4 and 26% more at N = 1000, and
# the probe's up to 2.7x more on small graphs (N = 100).
# H is assembled when the fill the order probe predicts for its factors,
# fill * d^2, is affordable in total and per node. The assembly needs no
# cap of its own: both branches build the same summation matrix, L's. The
# total first sends the full d = 2 moons problem (k = 10) to the operator
# at N = 12,000 (fill * d^2 = 2,500,544; N in steps of 100; N = 12,100 is
# under again, 12,200 to 12,600 are not). It only bounds memory, at about
# 12 bytes per entry:
# ASSEMBLY_FILL is 30 MB of factors. The full N = 10^4 moons problem
# (2.0e6) ran its 4-lambda direct path 1.9x faster assembled, and the
# path's peak RSS was 150 MB against 137 MB on the operator. Per node it
# is at most ASSEMBLY_NODE_FILL: with c = fill / n, a factorization of H
# works about n d (d c)^2 and a CG step of the operator about n d c, so
# their ratio is H's fill per node. On 9-lambda direct
# moons paths (one BLAS thread) the assembled branch was 2.2x faster at
# d = 2, N = 5000 (171 per node, 172 padded) and the operator 1.2x faster
# at d = 3, N = 1000 (255 to 257, 304 to 317 padded) and 2.3x at d = 5
# (623 padded); the limit sits between them and above the 207 of the
# N = 10,300 moons problem. Timed one by one, small systems crossed over at
# 267 to 333 padded, but without the padding the sieved subproblems of the
# default-grid eas paths of N = 1000 moons rotated into d = 5 read 135 to
# 159 per node: four of them (308 to 329 padded) moved from the operator
# to H, and the 9-lambda as path at d = 5 ran 7% faster than with the
# padding and those four on the operator (9 of 10 CPU-time pairs). At d = 10 they read 600 and more.
ASSEMBLY_FILL = 2_500_000
ASSEMBLY_NODE_FILL = 230
MAX_CG = 500  # conjugate-gradient steps per Newton direction
# _reuse_weight. Measured with one BLAS thread on the d = 2 moons problems,
# a factorization of H with c stored entries per column of its factors
# took about c / 4 CG steps on H preconditioned by them (c = 15 to 100,
# N = 70 to 10^4 nodes); measured again without relaxed supernodes, c / 4.4
# at N = 200 and 1000 (c = 39 and 57) and c / 5.4 to c / 6.8 at N = 5000
# and 10^4, so REUSE_FILL stays 4. The same count puts a factorization of
# L at N = 1000 at 7.5 one-column steps. A CG step also costs about 20 us
# whatever its size, as long as applying REUSE_MIN_FILL stored entries of
# factors takes; below it a factorization of H cost only 3 to 7 CG steps
# (N = 20 to 40 at d = 2, 10 to 30 at d = 5; 5.2 steps at N = 70), so
# such factors are never reused. It lies between the full N = 70 (5,100
# entries) and N = 100 (6,500) moons problems, which keep their reuse.
# Reusing them on the sieved subproblems of the N = 1000 moons
# eas paths (at most 2,064 entries at d = 2 and 4,410 at d = 5, padded
# 2,064 and 4,460) took 20 to 36% more Newton time. Above it, charging
# each reusing direction k CG steps more, for entering CG and the Newton
# steps an inexact direction adds, only lost: with k = 0, 4 and 8 the
# N = 1000 direct path took 2.41, 2.75 and 2.75 s and the N = 5000 eas
# path 13.6, 15.4 and 15.4 s of Newton steps (never reusing: 16.2 s), so
# no such charge is made.
REUSE_FILL = 4
REUSE_MIN_FILL = 6000
# _NewtonSystem._woodbury solves a direction of an assembled system whose k
# edges outside their balls number kd <= WOODBURY_RANK and 4k <= n. That
# most k, the system's cap, is 0 (no route) when fill * d^2 <
# REUSE_MIN_FILL, where a factorization of H costs only 3 to 7 CG steps,
# or when the system has more than WOODBURY_EDGES times the cap edges.
# On the full N = 1000 moons problem (6,121 edges; 0 to 150 outside their
# balls from lam = 10 down to 4.6) the route solved 212 of the 432
# directions of the 46-lambda direct path, and its CPU time against
# solving every direction on H read 0.87 with kd <= 300, 0.88 with 400 and
# 0.96 with 600 (medians of 8 in-process interleaved pairs, one BLAS
# thread); an earlier version of the route read 0.84 with kd <= 200. On
# the full N = 2000 to 10^4 problems (12,050 to 61,000 edges) it solved 12
# to 18 of 237 to 339 directions of their direct paths (grids 10:-1:2 and,
# at 10^4, 10, 8, 6, 4), added 6 to 45 MB of peak RSS (M's factors and
# the cached columns) and was not faster, so the edge share sends them to
# H. No sieved subproblem of the N = 1000 moons paths reaches the fill.
WOODBURY_RANK = 300
WOODBURY_EDGES = 50


class SingularSystemError(RuntimeError):
    """SuperLU found a Newton system singular (only non-finite data can
    make the SPD Newton matrix so)."""


@dataclass
class AdmmConfig:
    max_iter: int = 50000  # cap on Newton steps per solve

    def __post_init__(self):
        # a count, not a fraction or a bool; a numpy integer becomes an int,
        # which saves to JSON
        cap = self.max_iter
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise ValueError(f"admm max_iter must be an integer >= 1, got {cap!r}")
        self.max_iter = int(cap)


@dataclass
class SubSolution:
    """Reduced-space solution triple plus solver diagnostics; iterations
    counts Newton steps, cg_steps their conjugate-gradient steps and
    factorizations the SuperLU factorizations of Newton or preconditioner
    matrices made by this solve (the order probe not included); it is 0
    when every step reused factors that an earlier solve of the same
    Newton system made."""

    x_red: np.ndarray
    y_red: np.ndarray
    xi: np.ndarray
    iterations: int
    converged: bool
    kkt_red: float
    sigma: float
    cg_steps: int = 0
    factorizations: int = 0
    woodbury_directions: int = 0  # Newton directions _NewtonSystem._woodbury solved

    def warm_start(self):
        """(X, Y, Z, sigma) to restart the subsolver where this solve stopped."""
        return self.x_red, self.y_red, self.xi, self.sigma


def reduced_kkt_residual(red, X, Y, Z):
    """Euclidean norm of the stacked reduced optimality residuals."""
    g1 = red.grad_phi(X) + red.inc.adjoint(Z)
    g2 = Y - prox_columns(Y + Z, red.lam * red.weights)
    g3 = red.inc.apply(X) - Y
    return float(np.sqrt(np.sum(g1 * g1) + np.sum(g2 * g2) + np.sum(g3 * g3)))


class _NewtonSystem:
    """Psi, its gradient and Newton directions on one reduced problem.

    The generalised Hessian is H = diag(h) (x) I_d + sigma sum_l a_l a_l^T
    (x) Q_l over the edges (ri, rj) of red.inc, with a_l = e_ri - e_rj, laid
    out node-major (entry i * d + k is coordinate k of node i). With
    Q_l = c_l (I - u_l u_l^T) it splits as H = L (x) I_d - G^T diag(sigma c) G,
    where L = diag(h) + sigma Jr diag(c) Jr^T is an n x n graph matrix and
    row l of G is a_l (x) u_l.

    Stored, H has a dense d x d block per node entry (per node, edges or
    not, and per pair of adjacent nodes; _block_pattern), and factored in
    the node order about d^2 times the fill of a matrix with the graph's
    pattern, which the order probe measures. When that predicted fill is
    affordable (ASSEMBLY_FILL, ASSEMBLY_NODE_FILL), H is assembled on a
    fixed CSC pattern and factorized by SuperLU; L, G and G^T are not built.
    Either way one fixed summation matrix S on L's pattern (_summation)
    gives the values: L's are S @ [h, sigma c], H's S @ Q gathered into its
    CSC order, row t of Q being term t's d x d block, h_i I_d or sigma Q_l.
    Otherwise H is never formed: three sparse products apply it in O(m d),
    and conjugate gradients (_cg) solve the Newton system preconditioned
    by L (x) I_d, whose factorization keeps the graph's sparsity and serves
    all d columns; H <= L (x) I_d, and the two differ by one rank-one term
    per edge. G and G^T take the edge differences that red.inc would: a CG
    step through red.inc took 1.5 to 1.8x as long at d = 3 to 20.

    The system keeps the factors it made last (lu) while their budget, the
    CG steps beyond c0 that reusing them may still cost, is at least 1:
    _refactor sets it to _reuse_weight, with c0 = 0 for H and, for L, the
    CG steps of the direction that made them, and _cg spends it. Factors of
    H thus outlive the Newton step, the inner solve and the reduced problem
    that made them; begin drops factors of L at every inner solve.

    An assembled system whose woodbury_cap is above 0 (WOODBURY_RANK,
    WOODBURY_EDGES) first offers each direction to _woodbury, which solves
    it exactly when at most woodbury_cap edges lie outside their balls:
    H = M (x) I_d - sum over those edges of (a_l a_l^T) (x) C_l, with M =
    diag(h) + sigma Jr Jr^T on L's pattern and C_l = sigma I - sigma Q_l.
    Such a direction neither assembles H nor makes, uses or spends its
    factors. The factors of M (mlu) are the third kind of kept factors:
    made at the first such direction after sigma changes, they live while
    sigma holds, across Newton steps, inner solves and lambdas. With them
    the system caches M^-1 a_l of up to woodbury_cap edges (rows of Yt),
    solved when an edge first leaves its ball at that sigma, and K, the
    dense k d x k d matrix the route factors by Cholesky; both are
    allocated once, at their full size, at the first such direction. When
    more edges lie outside, or Cholesky rejects K, the direction is solved
    on H as above. The system counts its factorizations (M's included), CG
    steps and the directions _woodbury solved; a solve reports the
    difference.

    Both matrices are built once, in one fill-reducing order of the n nodes
    (_node_order), node order[p] in place p, so SuperLU factors them as
    they are; direction permutes only its right-hand side and its result.
    Only the reduced graph and h shape the system, and they depend on the
    candidate set alone, so the system serves red at every lam the sieve
    rebinds it to: each step reads red.lam and overwrites the values of H,
    or of L and G.
    """

    def __init__(self, red):
        self.red = red
        d, n = red.C.shape
        ri, rj = red.inc.edge_i, red.inc.edge_j
        keep = ri != rj  # an edge inside one component adds nothing
        ri, rj = ri[keep], rj[keep]
        # a slice views V in curvature, where a mask would copy it
        self.keep = slice(None) if keep.all() else keep
        # every matrix below is built with node order[p] in place p, so that
        # SuperLU factors it in the given order instead of finding one again
        self.order, rank, fill = _node_order(n, ri, rj)
        self.assembled = fill * d * d <= min(ASSEMBLY_FILL, ASSEMBLY_NODE_FILL * n)
        ri, rj, h = rank[ri], rank[rj], red.h[self.order]
        # the diagonal, then the entries (ri, ri), (rj, rj), (ri, rj), (rj, ri)
        L, slot = _pattern(np.concatenate([np.arange(n), ri, rj, ri, rj]),
                           np.concatenate([np.arange(n), ri, rj, rj, ri]), n)
        self._S = _summation(slot, n, L.nnz)
        self.lu, self.budget, self.c0 = None, 0.0, 0
        # made, run and solved by _woodbury over its lifetime
        self.factorizations = self.cg_steps = self.woodbury_directions = 0
        # the most edges outside their balls that _woodbury serves; 0: never
        self.woodbury_cap = 0
        if self.assembled:
            self.H, place = _block_pattern(L, d)
            # H.data[b] is entry gather[b] of the flat S @ Q (intp: numpy
            # converts other indices at every use); matrix writes Q's edge rows
            self._gather = np.empty(self.H.nnz, dtype=np.intp)
            self._gather[place.ravel()] = np.arange(self.H.nnz)
            self._Q = np.zeros((n + len(ri), d * d))
            self._Q[:n] = h[:, None] * np.eye(d).ravel()
            cap = min(WOODBURY_RANK // d, n // 4)
            if fill * d * d >= REUSE_MIN_FILL and WOODBURY_EDGES * cap >= len(ri):
                self.woodbury_cap = cap
        if self.woodbury_cap:
            # M on L's pattern, its factors at sigma mlu_sigma, and rows of
            # M^-1 a_l, one per cached edge: edge[row] is its edge (-1: none),
            # row_of[l] its row (-1: none); Yt and K are allocated at first use
            self.M, self._h, self._ri, self._rj = L, h, ri, rj
            self.mlu, self.mlu_sigma = None, None
            self._Yt = self._K = None
            self._edge = np.full(self.woodbury_cap, -1)
            self._row_of = np.full(len(ri), -1)
        if not self.assembled:
            self.L, self._h = L, h
            # column l of G^T holds u_l at rows ri*d + k and -u_l at rj*d + k;
            # G is a CSR view of the same arrays
            k = np.arange(d)
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
        """H at V, assembled in the node order (assembled mode only)."""
        return self._assemble(*self.curvature(V, tau, sigma))

    def _assemble(self, sc, U):
        """H from the curvature sc, U of its edges."""
        d = U.shape[0]
        # sigma Q_l laid out (k, k', l), row by row, as products of d x d x m
        # broadcasts are several times slower; Q's edge rows take it (l, k, k')
        sQ = np.empty((d, d, U.shape[1]))
        for a in range(d):
            for b in range(d):
                np.multiply(U[a], U[b], out=sQ[a, b])
        np.subtract(np.eye(d)[:, :, None], sQ, out=sQ)
        sQ *= sc
        self._Q[len(self.order):] = sQ.reshape(d * d, -1).T
        # in place; "clip" never fires, and the default mode would buffer out
        np.take((self._S @ self._Q).ravel(), self._gather, out=self.H.data, mode="clip")
        return self.H

    def operator(self, V, tau, sigma):
        """H at V as a function of a node-major n x d direction, and the
        preconditioner L, assembled, both in the node order (operator mode
        only)."""
        sc, U = self.curvature(V, tau, sigma)
        L, G, GT = self.L, self.G, self.GT
        L.data = self._S @ np.concatenate([self._h, sc])
        GT.data[:] = np.hstack([U.T, -U.T]).ravel()

        def apply(P):
            return L @ P - (GT @ (sc * (G @ P.ravel()))).reshape(P.shape)

        return apply, L

    def begin(self):
        """Start an inner solve (one sigma and multiplier): factors of L,
        which serve one inner solve (direction), go; factors of H stay."""
        if not self.assembled:
            self.lu = None

    def direction(self, V, tau, sigma, grad, rtol):
        """Newton direction dX, H dX = -grad.

        Kept factors of H precondition conjugate gradients on H, run until
        the residual is at most rtol * ||grad||, but for no more steps than
        the budget; when none are kept, or CG stops short of rtol, the
        system factors H at V and its fresh factors solve. Factors of L
        always precondition CG, run to rtol, serve one inner solve, and are
        made afresh when none are kept. Any SPD preconditioner keeps every
        CG iterate a descent direction. Only the right-hand side and the
        result are permuted. A CG run that meets rtol on its last allowed
        step has converged (_cg), so its iterate is kept.

        L's rules were measured on 9-lambda direct paths of N = 1000 moons
        rotated into d = 3, 4, 5 and 10 dimensions (10 interleaved CPU-time
        pairs each, 2 vCPU, one BLAS thread). Against them, capping CG on L
        at the budget as for H was 14 to 36% slower at d = 3 to 5 (9 or 10
        of 10 pairs) and even at d = 10; never reusing L was 11 to 26%
        slower at d = 3 to 5 and 4% at d = 10; keeping factors of L across
        inner solves, as for H, was 8% slower at d = 4 (10 of 10 pairs),
        though 3 to 6% faster in the median at d = 3 and d = 10."""
        r = -grad.T[self.order]
        if self.assembled:
            sc, U = self.curvature(V, tau, sigma)
            # the route neither makes, uses nor spends factors of H
            x = self._woodbury(r, sc, U, sigma) if self.woodbury_cap else None
            if x is None:
                H = self._assemble(sc, U)
                converged = False
                if self.lu is not None:
                    # the factors solve the flat node-major vector
                    x, converged = self._cg(H.dot, r.size, r, rtol, int(self.budget))
                if not converged:
                    self._refactor(H)
                    x = self.lu.solve(r.ravel())
        else:
            hess, L = self.operator(V, tau, sigma)
            if self.lu is None:
                self._refactor(L)
            # the factors serve all d columns; an unconverged iterate still descends
            x, _ = self._cg(hess, r.shape, r, rtol, MAX_CG)
        if self.budget < 1:
            # kept, small factors of H fragment the heap: the N = 1000 moons
            # eas path peaked 2 MB higher
            self.lu = None
        dX = np.empty_like(grad)
        dX[:, self.order] = x.reshape(r.shape).T
        return dX

    def _woodbury(self, r, sc, U, sigma):
        """H^-1 r for the n x d right-hand side r, by Sherman-Morrison-
        Woodbury on the factors of M, or None when more than woodbury_cap
        edges lie outside their balls or Cholesky rejects K.

        With C_l = sigma I - sigma Q_l, zero inside the ball, H = M (x) I_d
        - W W^T, where M = diag(h) + sigma Jr Jr^T and the d columns of W
        per edge l outside its ball are a_l (x) C_l^(1/2). So H^-1 r = x0 +
        (M^-1 (x) I_d) W K^-1 W^T x0 with x0 = (M^-1 (x) I_d) r and the
        (k d) x (k d) matrix K = I - W^T (M^-1 (x) I_d) W, SPD as H is:
        block (l, l') of it is I - (a_l^T y_l') C_l^(1/2) C_l'^(1/2), with
        y_l = M^-1 a_l. K is C^(1/2) (C^-1 - W'^T (M^-1 (x) I_d) W')
        C^(1/2) for W' = [a_l (x) I_d]: the same solve, without the
        division by sigma - sigma c_l that C^-1 needs, which vanishes as v_l
        nears its ball."""
        out = np.flatnonzero(U.any(axis=0))
        k, (n, d) = len(out), r.shape
        if k > self.woodbury_cap:
            return None
        if sigma != self.mlu_sigma:
            self.mlu = None  # the stale factors go before the new ones are made
            self.M.data = self._S @ np.concatenate([self._h, np.full(len(self._ri), sigma)])
            self.mlu, self.mlu_sigma = _factor(self.M), sigma
            self.factorizations += 1
            self._edge[:] = -1
            self._row_of[:] = -1
        x = self.mlu.solve(r)
        if k:
            rows, ri, rj = self._woodbury_rows(out), self._ri[out], self._rj[out]
            # C_l^(1/2) = s_l I + (sqrt(sigma) - s_l) u_l u_l^T, s_l^2 = sigma - sigma c_l
            s = np.sqrt(sigma - sc[out])
            u = U[:, out].T
            R = (np.sqrt(sigma) - s)[:, None, None] * u[:, :, None] * u[:, None, :]
            R[:, np.arange(d), np.arange(d)] += s[:, None]
            kd = k * d
            K = self._K[:kd * kd].reshape(kd, kd)
            Rf = R.reshape(kd, d)
            np.matmul(Rf, Rf.T, out=K)
            # a_l^T y_l', read off row l' of Yt
            aY = self._Yt[rows[None, :], ri[:, None]] - self._Yt[rows[None, :], rj[:, None]]
            K.reshape(k, d, k, d)[...] *= -aY[:, None, :, None]
            K.ravel()[::kd + 1] += 1.0
            b = np.einsum("lab,lb->la", R, x[ri] - x[rj]).ravel()
            try:
                # K.T is K in Fortran order, which LAPACK factors in place
                z = cho_solve(cho_factor(K.T, overwrite_a=True, check_finite=False), b,
                              check_finite=False)
            except np.linalg.LinAlgError:
                return None
            x += self._Yt[rows].T @ np.einsum("lab,lb->la", R, z.reshape(k, d))
        self.woodbury_directions += 1
        return x

    def _woodbury_rows(self, edges):
        """The rows of Yt that hold M^-1 a_l for the given edges; M solves
        for the ones not cached, into free rows first and then rows of
        edges not among them."""
        if self._Yt is None:
            cap, d = self.woodbury_cap, len(self.red.C)
            self._Yt = np.zeros((cap, len(self.order)))
            self._K = np.empty((cap * d) ** 2)
        rows = self._row_of[edges]
        new = edges[rows < 0]
        if len(new):
            held = np.zeros(self.woodbury_cap, dtype=bool)
            held[rows[rows >= 0]] = True
            spare = np.flatnonzero(~held)
            spare = spare[np.argsort(self._edge[spare] >= 0, kind="stable")][:len(new)]
            evicted = self._edge[spare]
            self._row_of[evicted[evicted >= 0]] = -1
            rhs = np.zeros((len(self.order), len(new)))
            cols = np.arange(len(new))
            rhs[self._ri[new], cols] = 1.0
            rhs[self._rj[new], cols] = -1.0
            self._Yt[spare] = self.mlu.solve(rhs).T
            self._edge[spare] = new
            self._row_of[new] = spare
            rows = self._row_of[edges]
        return rows

    def _refactor(self, A):
        """Factor A, H or L at the current point, in place of lu; for L,
        the CG run of the direction that made the factors sets c0."""
        self.lu = None  # the stale factors go before the new ones are made
        self.lu = _factor(A)
        self.factorizations += 1
        self.budget, self.c0 = _reuse_weight(self), 0 if self.assembled else None

    def _cg(self, hess, shape, b, rtol, maxiter):
        """Conjugate gradients for hess(x) = b from x = 0, preconditioned by
        lu, with scipy's arithmetic; x and b are flat node-major, hess and
        lu act on arrays of the given shape, and b is not zero: (x,
        converged). Before each step, and after the last one, the run stops
        once ||r|| < rtol ||b||; scipy's cg checks only before a step, so a
        run that gets there on its last allowed step counts as converged
        here and not there."""
        lu = self.lu
        b = b.ravel()
        atol = rtol * np.linalg.norm(b)
        x, r = np.zeros_like(b), b.copy()
        steps = 0
        while not np.linalg.norm(r) < atol and steps < maxiter:
            z = lu.solve(r.reshape(shape)).ravel()
            rho = np.dot(r, z)
            if steps:
                p *= rho / rho_prev
                p += z
            else:
                p = z
            q = hess(p.reshape(shape)).ravel()
            alpha = rho / np.dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
            steps += 1
        self.cg_steps += steps
        self.c0 = steps if self.c0 is None else self.c0  # set by fresh factors of L
        self.budget -= max(0, steps - self.c0)
        return x, bool(np.linalg.norm(r) < atol)


def _summation(slot, n, nnz):
    """The CSR matrix S that sums the terms of L's entries, values for L and
    d x d blocks for H: row b lists, in list order, the terms that slot
    sends to stored entry b of L, the n diagonal ones and four groups of the
    terms of every kept edge, at (ri, ri), (rj, rj), (ri, rj) and (rj, ri),
    with +1 for the diagonal and groups 1-2 and -1 for groups 3-4. A CSR
    product sums each row in stored order from 0.0, as bincount would sum
    the list. Stored, S takes an 8-byte sign and a 4-byte column per term."""
    nq = (len(slot) - n) // 4
    q = np.arange(n, n + nq, dtype=np.intc)
    col = np.concatenate([np.arange(n, dtype=np.intc), q, q, q, q])
    sign = np.concatenate([np.ones(n + 2 * nq), -np.ones(2 * nq)])
    terms = np.argsort(slot, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(slot, minlength=nnz))])
    return sp.csr_matrix((sign[terms], col[terms], indptr.astype(np.intc)),
                         shape=(nnz, n + nq))


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


def _block_pattern(L, d):
    """H's CSC pattern from the node pattern L, and the place in H.data of
    each entry (s, k, k') of the d x d block of node entry s of L: its row
    i * d + k and column j * d + k' when L's entry s is at row i, column j.

    Every stored entry of L becomes a dense d x d block, a node without
    edges included, whose stored zeros change no factor value. L's CSC
    arrays read as block rows are the blocks of L^T, and the transpose of
    that matrix's CSR form is H's CSC form, arrays shared. Column j * d + k'
    of H holds, for each stored row i of L's column j in order, the rows
    i * d + k, so the places follow from H's column pointers without a
    sort. The places and the pattern's indices are 32-bit, as SuperLU takes
    the indices.
    """
    n = L.shape[0]
    H = sp.bsr_matrix((np.zeros((L.nnz, d, d)), L.indices, L.indptr),
                      shape=(n * d, n * d)).tocsr().T
    col = np.repeat(np.arange(n, dtype=np.intc), np.diff(L.indptr))  # column of each entry of L
    k = np.arange(d, dtype=np.intc)
    # place[s, k, k'] = H.indptr[col_s d + k'] + (s - L.indptr[col_s]) d + k
    within = np.intc(d) * (np.arange(L.nnz, dtype=np.intc) - L.indptr[col])
    return H, H.indptr[:-1].reshape(n, d)[col][:, None, :] + (within[:, None] + k)[:, :, None]


def _node_order(n, ri, rj):
    """A fill-reducing order of the n-node graph with edges (ri, rj), as
    (order, rank, fill): node order[p] goes to place p, node i to place
    rank[i], and fill counts the stored entries of the factors in it.

    It is the symmetric minimum-degree order in which _factor factors a
    diagonally dominant matrix with the graph's pattern, so it depends on
    the pattern only.
    """
    m = len(ri)
    probe = sp.csc_matrix(
        (np.concatenate([np.full(n, 2.0 * m + 1.0), -np.ones(2 * m)]),
         (np.concatenate([np.arange(n), ri, rj]), np.concatenate([np.arange(n), rj, ri]))),
        shape=(n, n),
    )
    lu = _factor(probe, "MMD_AT_PLUS_A")
    # a copy: perm_c is a view that would keep the probe's factors alive
    rank = np.array(lu.perm_c, dtype=np.int64)
    return np.argsort(rank), rank, int(lu.nnz)


def _factor(A, permc_spec="NATURAL"):
    """SuperLU factors of an SPD matrix, the package's one splu call: no
    pivoting, no relaxed supernodes, columns in the order permc_spec.
    "NATURAL" keeps the Newton matrices' own fill-reducing node order;
    the order probe and the sieve's Gram matrices pass "MMD_AT_PLUS_A"."""
    try:
        return sp.linalg.splu(A, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                              relax=1, panel_size=1, options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise SingularSystemError(str(exc)) from exc


def _reuse_weight(ns):
    """How many CG steps beyond c0 reusing ns.lu may cost before a new
    factorization pays, read off the fill of the factors: with c stored
    entries per column a factorization costs about c / REUSE_FILL CG steps
    that apply them to one column, as it did again once SuperLU stopped
    relaxing supernodes, which made both cheaper. A step of the operator
    applies factors of L to d columns; factors of H with fewer than
    REUSE_MIN_FILL entries weigh nothing."""
    lu = ns.lu
    steps = lu.nnz / lu.shape[0] / REUSE_FILL
    if ns.assembled:
        return steps if lu.nnz >= REUSE_MIN_FILL else 0.0
    return steps / ns.red.C.shape[0]


def _newton(ns, X, Z, sigma, gtol, max_steps):
    """Semismooth Newton on Psi from X until ||grad Psi|| <= gtol.

    Returns (X, V, grad, steps, stalled); stalled means no step along the
    Newton direction was acceptable, i.e. round-off ended the descent.
    """
    red = ns.red
    tau = (red.lam / sigma) * red.weights
    V = red.inc.apply(X) + Z / sigma
    psi, grad = ns.psi_grad(X, V, tau, sigma)
    gnorm = float(np.linalg.norm(grad))
    steps = 0
    ns.begin()
    while gnorm > gtol and steps < max_steps:
        # forcing term min(0.1, ||grad||^0.5): superlinear once ||grad|| is small
        dX = ns.direction(V, tau, sigma, grad, min(0.1, np.sqrt(gnorm)))
        dV = red.inc.apply(dX)
        slope = float(np.dot(grad.ravel(), dX.ravel()))
        alpha = 1.0
        for _ in range(40):  # halvings of the unit step
            X_t = X + alpha * dX
            V_t = V + alpha * dV
            psi_t, grad_t = ns.psi_grad(X_t, V_t, tau, sigma)
            gnorm_t = float(np.linalg.norm(grad_t))
            roundoff = -alpha * slope <= PSI_ROUNDOFF * (abs(psi) + red.kappa)
            if (gnorm_t < gnorm) if roundoff else (psi_t <= psi + ARMIJO * alpha * slope):
                break
            alpha *= 0.5
        else:
            return X, V, grad, steps, True
        X, V, psi, grad, gnorm = X_t, V_t, psi_t, grad_t, gnorm_t
        steps += 1
    return X, V, grad, steps, False


def solve_reduced_admm(red, tol, config=None, warm=None, system=None):
    """Run SSNAL on a reduced problem until its reduced KKT residual
    (reduced_kkt_residual) is at most tol, the inexactness measure under
    which the sieve's rounds converge; the sieve then certifies a lambda on
    the residual recomputed in full space.

    warm is (X, Y, Z) or (X, Y, Z, sigma), as returned by
    SubSolution.warm_start; without a carried sigma the solve starts at
    SIGMA_START. config.max_iter caps the Newton
    steps of the whole solve. system is the _NewtonSystem of red, which the
    sieve builds with the candidate set (BuildStore) and keeps for every
    solve of it; when None the solve builds its own.
    """
    cfg = config or AdmmConfig()
    tol = float(tol)
    sigma = float(SIGMA_START if warm is None or len(warm) < 4 else warm[3])

    if red.m_red == 0:
        X = red.C / red.h
        empty = np.zeros((red.C.shape[0], 0))
        return SubSolution(X, empty.copy(), empty.copy(), 0, True, 0.0, sigma)

    if warm is not None:
        X, Y, Z = (np.array(v, dtype=np.float64) for v in warm[:3])
    else:
        X = red.C / red.h
        Y = red.inc.apply(X)
        Z = np.zeros_like(Y)

    ns = _NewtonSystem(red) if system is None else system
    # the system counts its own work
    made, cg_steps, woodbury = ns.factorizations, ns.cg_steps, ns.woodbury_directions
    lw = red.lam * red.weights
    kkt = reduced_kkt_residual(red, X, Y, Z)
    steps = 0
    pinf_prev = np.inf
    best = kkt
    cause = "the round-off floor"  # what stops a solve short of tol, unless a cap does
    for _ in range(MAX_OUTER):
        if kkt <= tol or steps >= cfg.max_iter:
            break
        # the inner solve only needs to outpace the infeasibility it leaves
        gtol = max(0.5 * tol, min(0.1 * pinf_prev, 1.0))
        X, V, grad, n, stalled = _newton(ns, X, Z, sigma, gtol, cfg.max_iter - steps)
        steps += n
        Y = prox_columns(V, lw / sigma)
        Z = sigma * (V - Y)
        R = red.inc.apply(X) - Y
        pinf = float(np.linalg.norm(R))
        kkt = float(np.sqrt(np.sum(grad * grad) + pinf * pinf))
        if stalled and kkt >= best:
            break  # round-off floor: neither Newton nor the multiplier helps
        best = min(best, kkt)
        if pinf > 0.2 * pinf_prev:  # infeasibility fell by less than 5x
            sigma = min(SIGMA_GROWTH * sigma, SIGMA_MAX)
        pinf_prev = pinf
    else:
        cause = f"MAX_OUTER = {MAX_OUTER} multiplier updates"
    if steps >= cfg.max_iter:
        cause = f"max_iter = {cfg.max_iter} Newton steps (--admm-max-iter)"

    kkt = reduced_kkt_residual(red, X, Y, Z)
    converged = kkt <= tol
    if not converged:
        log.warning("SSNAL stopped after %d Newton steps with residual %.3e > tol %.3e, "
                    "at %s", steps, kkt, tol, cause)
    return SubSolution(X, Y, Z, steps, converged, kkt, sigma, ns.cg_steps - cg_steps,
                       ns.factorizations - made, ns.woodbury_directions - woodbury)


def solve_full(inst, lam, tol, config=None, warm=None):
    """Solve the unsieved problem (I empty) and report a full-space triple."""
    partition = build_partition(inst.incidence, np.empty(0, dtype=np.int64))
    red = reduce_problem(inst, partition, lam)
    sol = solve_reduced_admm(red, tol, config=config, warm=warm)
    x, y = recover_primal(partition, sol.x_red, sol.y_red)
    triple = KktTriple.from_point(inst, lam, x, y, sol.xi)
    return triple, sol
