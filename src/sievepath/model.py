"""Problem data model, block-norm calculus, objectives and KKT residual.

The problem solved throughout is

    min_X  0.5 * ||X - A||_F^2  +  lam * sum_l w_l ||X_{:i(l)} - X_{:j(l)}||_2

over centroid matrices X with one column per data point. All matrix norms
are Frobenius; residuals of stacked blocks use the Euclidean norm of the
concatenation.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import column_norms, project_columns, prox_columns


class InfeasibleDualError(ValueError):
    """Raised when a dual point violates a block ball constraint."""


@dataclass
class ProblemInstance:
    """Data matrix plus weighted fusion graph.

    A has shape (d, N) with data points as columns. Edges are stored as
    parallel arrays (edge_i, edge_j, weights) in lexicographic order with
    edge_i < edge_j elementwise.
    """

    A: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.A = np.ascontiguousarray(self.A, dtype=np.float64)
        if self.A.ndim != 2:
            raise ValueError("A must be a 2-d array (features x points)")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("A must be finite")
        self.edge_i = np.asarray(self.edge_i, dtype=np.int64)
        self.edge_j = np.asarray(self.edge_j, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not (len(self.edge_i) == len(self.edge_j) == len(self.weights)):
            raise ValueError("edge arrays must have equal length")
        # a NaN weight passes every comparison, so finiteness comes first
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("edge weights must be finite")
        if np.any(self.weights <= 0.0):
            raise ValueError("edge weights must be positive")
        if np.any(self.edge_i >= self.edge_j):
            raise ValueError("edges must satisfy i < j")
        n = self.N
        if len(self.edge_i) and (self.edge_i.min() < 0 or self.edge_j.max() >= n):
            raise ValueError("edge endpoints out of range")
        pairs = self.edge_i * n + self.edge_j
        order = np.argsort(pairs, kind="stable")
        # a duplicate pair sits next to its twin in sorted order
        if np.any(np.diff(pairs[order]) == 0):
            raise ValueError("duplicate edges")
        self.edge_i = self.edge_i[order]
        self.edge_j = self.edge_j[order]
        self.weights = self.weights[order]
        self._incidence = None

    @classmethod
    def from_edges(cls, A, edges):
        """Build from an iterable of (i, j, w) triples or (i, j) pairs."""
        edges = list(edges)
        ei = [e[0] for e in edges]
        ej = [e[1] for e in edges]
        w = [e[2] if len(e) > 2 else 1.0 for e in edges]
        return cls(np.asarray(A, dtype=np.float64), ei, ej, w)

    @property
    def d(self):
        return self.A.shape[0]

    @property
    def N(self):
        return self.A.shape[1]

    @property
    def m_blocks(self):
        return len(self.edge_i)

    @property
    def incidence(self):
        """Incidence map realizing B(X) = XJ for this edge set (cached)."""
        if self._incidence is None:
            from .graph import IncidenceMap

            self._incidence = IncidenceMap(self.N, self.edge_i, self.edge_j)
        return self._incidence


def prox_block(v, tau):
    """Prox of tau * ||.||_2 at vector v: max(0, 1 - tau/||v||) * v."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    v = np.asarray(v, dtype=np.float64)
    nrm = np.linalg.norm(v)
    if nrm <= tau:
        return np.zeros_like(v)
    return (1.0 - tau / nrm) * v


def project_subdiff_block(u, y_block, lam_w):
    """Project u onto the subdifferential of lam_w * ||.||_2 at y_block.

    At y_block = 0 the set is the ball of radius lam_w; otherwise it is the
    singleton lam_w * y / ||y||.
    """
    if lam_w <= 0.0:
        raise ValueError("lam_w must be positive")
    u = np.asarray(u, dtype=np.float64)
    y_block = np.asarray(y_block, dtype=np.float64)
    ny = np.linalg.norm(y_block)
    if ny == 0.0:
        nu = np.linalg.norm(u)
        if nu <= lam_w:
            return u.copy()
        return (lam_w / nu) * u
    return (lam_w / ny) * y_block


def fused_blocks(Y, eps_hat):
    """Mask of the edge blocks counted as fused: column norm <= eps_hat."""
    return column_norms(Y) <= eps_hat


def _check_shapes(inst, x, y, z):
    d, N, m = inst.d, inst.N, inst.m_blocks
    if x.shape != (d, N):
        raise ValueError(f"x has shape {x.shape}, expected {(d, N)}")
    if y.shape != (d, m):
        raise ValueError(f"y has shape {y.shape}, expected {(d, m)}")
    if z.shape != (d, m):
        raise ValueError(f"z has shape {z.shape}, expected {(d, m)}")


def kkt_residual(inst, lam, x, y, z):
    """Euclidean norm of the stacked KKT residual at (x, y, z).

    The three parts are gradient stationarity (x - A) + B*(z), the prox
    fixed-point gap y - prox_{lam p}(y + z), and feasibility B(x) - y.
    Zero exactly at (and only at) optimal triples.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    _check_shapes(inst, x, y, z)
    inc = inst.incidence
    grad = (x - inst.A) + inc.adjoint(z)
    prox_gap = y - prox_columns(y + z, lam * inst.weights)
    feas = inc.apply(x) - y
    sq = (
        float(np.sum(grad * grad))
        + float(np.sum(prox_gap * prox_gap))
        + float(np.sum(feas * feas))
    )
    return float(np.sqrt(sq))


def primal_objective(inst, lam, x):
    """F_lam(x) = 0.5||x - A||_F^2 + lam * p(Bx)."""
    x = np.asarray(x, dtype=np.float64)
    diff = x - inst.A
    norms = column_norms(inst.incidence.apply(x))
    return 0.5 * float(np.sum(diff * diff)) + lam * float(np.dot(inst.weights, norms))


def dual_objective(inst, lam, z):
    """D_lam(z) = -0.5||B*(z)||_F^2 + <B*(z), A> for block-feasible z.

    Raises InfeasibleDualError when some ||z_l|| exceeds r_l = lam * w_l by
    more than 1e-9 (1 + r_l), a slack that scales with r_l as a projection's
    round-off does; callers holding slightly infeasible duals should project
    first (duality_gap does).
    """
    z = np.asarray(z, dtype=np.float64)
    radius = lam * inst.weights
    # max blockwise excess of ||z_l|| over r_l, relative to 1 + r_l (<= 0 when feasible)
    excess = float(np.max((column_norms(z) - radius) / (1.0 + radius))) if z.shape[1] else 0.0
    if excess > 1e-9:
        raise InfeasibleDualError(
            f"dual point violates a block ball constraint by {excess:.3e} of 1 + its radius"
        )
    W = inst.incidence.adjoint(z)
    return -0.5 * float(np.sum(W * W)) + float(np.sum(W * inst.A))


def duality_gap(inst, lam, x, z):
    """Relative duality gap eta = (F - D) / (1 + |F| + |D|).

    z is first projected blockwise onto the feasible balls so that inexact
    duals from inner solvers yield a finite, meaningful gap.
    """
    zf = project_columns(np.ascontiguousarray(z, dtype=np.float64), lam * inst.weights)
    F = primal_objective(inst, lam, x)
    D = dual_objective(inst, lam, zf)
    return (F - D) / (1.0 + abs(F) + abs(D))


@dataclass
class KktTriple:
    """Candidate (x, y, z) with its recomputed KKT residual and gap."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    residual_norm: float
    gap: float

    @classmethod
    def from_point(cls, inst, lam, x, y, z):
        res = kkt_residual(inst, lam, x, y, z)
        gap = duality_gap(inst, lam, x, z)
        return cls(x=x, y=y, z=z, residual_norm=res, gap=gap)


@dataclass
class SolveConfig:
    """Settings for a single-lambda sieve solve."""

    lam: float
    eps: float = 1e-6
    eps_hat: float = 2e-16
    admm: object = None  # AdmmConfig, None for defaults

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError("lam must be finite")
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        check_tolerances(self.eps, self.eps_hat)


def check_tolerances(eps, eps_hat):
    """eps and eps_hat must be finite and positive: a NaN passes every
    comparison and would reach the solver."""
    if not (math.isfinite(eps) and math.isfinite(eps_hat)):
        raise ValueError("tolerances must be finite")
    if eps <= 0.0 or eps_hat <= 0.0:
        raise ValueError("tolerances must be positive")

