"""k-NN fusion graph, incidence map, index partition and problem reduction.

A sieved edge set I induces a node partition (alpha, beta, gamma): connected
components of the I-subgraph contribute their smallest node to alpha and the
rest to gamma, untouched nodes form beta. Eliminating x_gamma through the
component map M collapses the problem onto (x_alpha, x_beta) and the blocks
outside I.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._kernels import column_norms, union_find_min_labels
from .model import ProblemInstance


class GraphError(ValueError):
    pass


class IncidenceMap:
    """Edge-difference map B(X) = XJ with node-arc incidence matrix J.

    Columns of J follow the lexicographic edge order; column l(i, j) holds
    +1 at row i and -1 at row j. J is kept in row (CSR) form, which row
    slicing by node sets and the adjoint product both want.
    """

    def __init__(self, N, edge_i, edge_j):
        self.N = N
        self.edge_i = np.asarray(edge_i, dtype=np.int64)
        self.edge_j = np.asarray(edge_j, dtype=np.int64)
        self.J = _incidence_matrix(N, self.edge_i, self.edge_j)

    @property
    def m(self):
        return len(self.edge_i)

    def apply(self, X):
        """B(X) = XJ, column l of the result is X_{:i} - X_{:j}."""
        return edge_differences(X, self.edge_i, self.edge_j)

    def adjoint(self, Z):
        """B*(Z) = Z J^T."""
        return (self.J @ Z.T).T


def _incidence_matrix(n, ei, ej):
    """CSR (n, m) matrix whose column l holds +1 at row ei[l] and -1 at
    row ej[l]; a column with ei[l] == ej[l] is left empty."""
    m = len(ei)
    keep = ei != ej
    cols = np.flatnonzero(keep)
    rows = np.concatenate([ei[keep], ej[keep]])
    data = np.concatenate([np.ones(len(cols)), -np.ones(len(cols))])
    return sp.csr_matrix((data, (rows, np.concatenate([cols, cols]))), shape=(n, m))


def edge_differences(X, ei, ej):
    """Column l of the result is X_{:ei[l]} - X_{:ej[l]}."""
    return np.take(X, ei, axis=1) - np.take(X, ej, axis=1)


def build_knn_graph(A, k=10):
    """Gaussian-weighted k-nearest-neighbor instance from data columns.

    An undirected edge (i, j) exists when either point is among the other's
    k nearest neighbors; its weight is exp(-0.5 ||A_:i - A_:j||^2). Distance
    ties are broken toward the smaller index.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise GraphError("A must be 2-d (features x points)")
    N = A.shape[1]
    if N < 2:
        raise GraphError("need at least 2 points to build a graph")
    if not 1 <= k < N:
        raise GraphError(f"k must satisfy 1 <= k < N, got k={k}, N={N}")

    sq = np.einsum("ij,ij->j", A, A)
    pairs = set()
    chunk = max(1, min(N, 2**22 // max(N, 1)))
    for start in range(0, N, chunk):
        cols = np.arange(start, min(start + chunk, N))
        D = sq[:, None] + sq[cols][None, :] - 2.0 * (A.T @ A[:, cols])
        np.maximum(D, 0.0, out=D)
        D[cols, np.arange(len(cols))] = np.inf  # exclude self
        # stable sort keeps ascending index order among equal distances
        order = np.argsort(D, axis=0, kind="stable")
        for c, j in enumerate(cols):
            for i in order[:k, c]:
                pairs.add((i, j) if i < j else (j, i))

    edges = sorted(pairs)
    ei = np.array([e[0] for e in edges], dtype=np.int64)
    ej = np.array([e[1] for e in edges], dtype=np.int64)
    diff = A[:, ei] - A[:, ej]
    w = np.exp(-0.5 * np.einsum("ij,ij->j", diff, diff))
    return ProblemInstance(A, ei, ej, w)


@dataclass
class IndexPartition:
    """Node partition (alpha, beta, gamma) induced by a sieved edge set I.

    M has shape (|alpha|, |gamma|) in the clustering orientation
    X_gamma = X_alpha M; each column carries exactly one 1.
    """

    I: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    M: sp.csr_matrix
    N: int
    m: int

    @property
    def I_c(self):
        mask = np.ones(self.m, dtype=bool)
        mask[self.I] = False
        return np.flatnonzero(mask)

    @property
    def n_reduced(self):
        return len(self.alpha) + len(self.beta)


def build_partition(inc, I):
    """Partition nodes via connected components of the edges indexed by I."""
    I = np.unique(np.asarray(I, dtype=np.int64))
    if len(I) and (I[0] < 0 or I[-1] >= inc.m):
        raise ValueError("edge indices out of range")
    N = inc.N
    sei, sej = inc.edge_i[I], inc.edge_j[I]
    labels = union_find_min_labels(N, sei, sej)
    touched = np.zeros(N, dtype=bool)
    touched[sei] = True
    touched[sej] = True
    tnodes = np.flatnonzero(touched)

    roots = labels[tnodes]
    alpha = np.unique(roots)  # roots are component minima already
    beta = np.flatnonzero(~touched)
    gamma = tnodes[roots != tnodes]  # touched nodes that are not their root

    grows = np.searchsorted(alpha, labels[gamma])
    M = sp.csr_matrix(
        (np.ones(len(gamma)), (grows, np.arange(len(gamma)))),
        shape=(len(alpha), len(gamma)),
    )
    return IndexPartition(
        I=I, alpha=alpha, beta=beta, gamma=gamma, M=M, N=N, m=inc.m,
    )


class ReducedProblem:
    """Quadratic-plus-block-norm problem over (x_alpha, x_beta, y_{I^c}).

    Objective 0.5 sum_c h_c ||X_c||^2 - <X, C> + kappa + lam * q(Y) subject
    to X Jr - Y = 0, with h the per-column Hessian diagonal (component sizes
    on alpha, ones on beta) and Jr the reduced incidence matrix.
    """

    def __init__(self, inst, partition, lam):
        self.inst = inst
        self.partition = partition
        self.lam = float(lam)

        alpha, beta, gamma = partition.alpha, partition.beta, partition.gamma
        M = partition.M
        # a component's size is its root plus the gamma nodes in its row of M
        sizes = 1.0 + np.diff(M.indptr)
        self.h = np.concatenate([sizes, np.ones(len(beta))])
        A = inst.A
        C_alpha = A[:, alpha] + (M @ A[:, gamma].T).T if len(alpha) else A[:, alpha]
        self.C = np.ascontiguousarray(np.hstack([C_alpha, A[:, beta]]))
        self.kappa = 0.5 * float(np.sum(A * A))

        # reduced position of every node: alpha and beta in order, gamma at
        # its component's representative
        s = len(alpha)
        pos = np.empty(inst.N, dtype=np.int64)
        pos[alpha] = np.arange(s)
        pos[beta] = s + np.arange(len(beta))
        pos[gamma] = M.tocsc().indices  # one 1 per column of M
        I_c = partition.I_c
        inc = inst.incidence
        self.ri = pos[inc.edge_i[I_c]]
        self.rj = pos[inc.edge_j[I_c]]
        # column l of Jr is e_ri - e_rj, empty when both ends share a component
        self.Jr = _incidence_matrix(len(self.h), self.ri, self.rj)
        self.weights = inst.weights[I_c]
        self._factor_cache = {}

    @property
    def n_red(self):
        return len(self.h)

    @property
    def m_red(self):
        return len(self.weights)

    def phi(self, X):
        return (
            0.5 * float(np.sum(self.h * np.einsum("ij,ij->j", X, X)))
            - float(np.sum(X * self.C))
            + self.kappa
        )

    def grad_phi(self, X):
        return X * self.h - self.C

    def apply(self, X):
        """X Jr: column l is X_{:ri[l]} - X_{:rj[l]}."""
        return edge_differences(X, self.ri, self.rj)

    def adjoint(self, Y):
        """Y Jr^T."""
        return (self.Jr @ Y.T).T

    def primal_objective(self, X):
        BX = self.apply(X)
        return self.phi(X) + self.lam * float(np.dot(self.weights, column_norms(BX)))

    def dual_objective(self, xi):
        """Value at a block-feasible multiplier (project first if inexact)."""
        W = self.C - self.adjoint(xi)
        return self.kappa - 0.5 * float(np.sum(W * W / self.h))

    def solver_matrix_factor(self, sigma):
        """Cached factorization of diag(h) + sigma * Jr Jr^T (SPD, sparse)."""
        factor = self._factor_cache.get(sigma)
        if factor is None:
            S = sp.diags(self.h) + sigma * (self.Jr @ self.Jr.T)
            factor = sp.linalg.splu(S.tocsc())
            self._factor_cache[sigma] = factor
        return factor


def reduce_problem(inst, partition, lam):
    """Reduced instance obtained by eliminating x_gamma and the I blocks."""
    return ReducedProblem(inst, partition, lam)


def recover_primal(partition, x_red, y_red):
    """Embed a reduced solution back into full coordinates.

    x_gamma is copied from the component representatives, so the I blocks of
    Bx vanish exactly; y is zero-filled on I.
    """
    alpha, beta, gamma = partition.alpha, partition.beta, partition.gamma
    s = len(alpha)
    if x_red.shape[1] != partition.n_reduced:
        raise ValueError("reduced solution does not match partition")
    d = x_red.shape[0]
    x = np.empty((d, partition.N))
    x[:, alpha] = x_red[:, :s]
    x[:, beta] = x_red[:, s:]
    if len(gamma):
        x[:, gamma] = (partition.M.T @ x_red[:, :s].T).T
    y = np.zeros((d, partition.m))
    y[:, partition.I_c] = y_red
    return x, y
