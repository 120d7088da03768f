"""k-NN fusion graph, incidence map, index partition and problem reduction.

A sieved edge set I merges the nodes of each connected component of the
I-subgraph into one reduced column, numbered by the component's smallest
node (its rep); untouched nodes keep a column of their own. pos maps every
node to its column and gamma lists the merged nodes that are not a rep.
Summing over those columns collapses the problem onto the reduced columns
and the blocks outside I: a fusion problem again, on the quotient graph of
the components. In the paper's notation, rep is (alpha, beta) and the 0/1
map M sends gamma node i to column pos[i].
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from ._kernels import union_find_min_labels
from .model import ProblemInstance


class GraphError(ValueError):
    pass


class IncidenceMap:
    """Edge-difference map B(X) = XJ with node-arc incidence matrix J.

    Column l of J is e_{edge_i[l]} - e_{edge_j[l]}, empty when the two ends
    coincide (an edge inside a reduced component). J is kept in row (CSR)
    form, which row slicing by node sets and the adjoint product both want.
    """

    def __init__(self, N, edge_i, edge_j):
        self.N = N
        self.edge_i = ei = np.asarray(edge_i, dtype=np.int64)
        self.edge_j = ej = np.asarray(edge_j, dtype=np.int64)
        keep = ei != ej
        # laid out by column, whose conversion lists each row in column order
        indptr = np.concatenate([[0], np.cumsum(2 * keep)])
        self.J = sp.csc_matrix((np.tile([1.0, -1.0], np.count_nonzero(keep)),
                                np.stack([ei[keep], ej[keep]], axis=1).ravel(), indptr),
                               shape=(N, len(ei))).tocsr()

    @property
    def m(self):
        return len(self.edge_i)

    def apply(self, X):
        """B(X) = XJ, column l of the result is X_{:i} - X_{:j}."""
        out = np.take(X, self.edge_i, axis=1)
        out -= np.take(X, self.edge_j, axis=1)
        return out

    def adjoint(self, Z):
        """B*(Z) = Z J^T, one CSR row product per row of Z: (J Z^T)^T bit
        for bit, without copying Z^T into row order."""
        out = np.empty((Z.shape[0], self.N))
        for k, row in enumerate(Z):
            out[k] = self.J @ row
        return out


def build_knn_graph(A, k=10):
    """Gaussian-weighted k-nearest-neighbor instance from data columns.

    An undirected edge (i, j) exists when either point is among the other's
    k nearest neighbors; its weight is exp(-0.5 ||A_:i - A_:j||^2). An edge
    whose weight underflows to 0.0 (distance above about 38.6) adds nothing
    to the objective and is dropped, so the graph may be disconnected or
    edgeless. Distance ties are broken toward the smaller index, where a
    distance is the sum of squared coordinate differences.

    A k-d tree proposes k + 1 + _SPARE candidates per point, O(N log N)
    expected time (Friedman, Bentley & Finkel, 1977). The candidates'
    distances are recomputed from the differences, the point itself is
    dropped by index, and the rest are sorted by (distance, index). That
    window is exact when its k-th distance lies strictly below the tree's
    largest returned distance; otherwise, which only ties or duplicate
    points at the window's edge cause, the point's row is recomputed
    against all N points and sorted the same way.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise GraphError("A must be 2-d (features x points)")
    if not np.all(np.isfinite(A)):
        raise GraphError("data must be finite, found NaN or inf")
    N = A.shape[1]
    if N < 2:
        raise GraphError("need at least 2 points to build a graph")
    if A.shape[0] == 0:
        raise GraphError("data has no feature rows, so points have no distances")
    if not 1 <= k < N:
        raise GraphError(f"k must satisfy 1 <= k < N, got k={k}, N={N}")

    nbrs = _knn_rows(A, k)
    rows = np.arange(N)[:, None]
    # unique keys min(i, j) * N + max(i, j) come in lexicographic (i, j) order
    keys = np.minimum(nbrs, rows) * N + np.maximum(nbrs, rows)
    ei, ej = np.divmod(unique_indices(keys), N)
    diff = A[:, ei] - A[:, ej]
    w = np.exp(-0.5 * np.einsum("ij,ij->j", diff, diff))
    keep = w > 0.0
    return ProblemInstance(A, ei[keep], ej[keep], w[keep])


_SPARE = 4  # candidates queried beyond k + 1, so that few windows end in a tie


def _sq_dists(A, i):
    """Squared distances from point i to every point, summed in feature order
    from the same differences as the candidates' distances."""
    diff = A - A[:, i][:, None]
    return np.sum(diff * diff, axis=0)


def _knn_rows(A, k):
    """(N, k) array whose row i holds point i's k nearest neighbors in
    (distance, index) order."""
    N = A.shape[1]
    c = min(k + 1 + _SPARE, N)
    tree_d, cand = cKDTree(A.T).query(A.T, k=c)
    D = np.empty((N, c))
    for t in range(c):
        diff = A[:, cand[:, t]] - A
        D[:, t] = np.sum(diff * diff, axis=0)
    # self goes last by index: with duplicate points the tree may omit it
    D[cand == np.arange(N)[:, None]] = np.inf
    order = np.lexsort((cand, D), axis=1)[:, :k]
    nbrs = np.take_along_axis(cand, order, axis=1)
    # every point outside the window lies at least the tree's last distance
    # away; the margin covers the two computations' round-off
    kth = np.take_along_axis(D, order[:, -1:], axis=1)[:, 0]
    for i in np.flatnonzero(~(kth < (1.0 - 1e-9) * tree_d[:, -1] ** 2)):
        d = _sq_dists(A, i)
        d[i] = np.inf
        nbrs[i] = np.argsort(d, kind="stable")[:k]
    return nbrs


def unique_indices(idx):
    """The distinct entries of an index array, sorted, as int64."""
    idx = np.sort(np.asarray(idx, dtype=np.int64), axis=None)
    keep = np.ones(len(idx), dtype=bool)
    np.not_equal(idx[1:], idx[:-1], out=keep[1:])
    return idx[keep]


@dataclass
class IndexPartition:
    """Node partition induced by a sieved edge set I.

    Reduced column c holds the nodes i with pos[i] == c; rep[c] is the
    smallest of them. The roots of components of the I-subgraph come first,
    then the nodes no edge of I touches, each group in node order; gamma
    lists the other nodes of the components.
    """

    I: np.ndarray
    I_c: np.ndarray
    rep: np.ndarray
    gamma: np.ndarray
    pos: np.ndarray

    @property
    def n_reduced(self):
        return len(self.rep)

    def sums(self, V):
        """Per reduced column, the sum of V's columns over its nodes: the
        rep's column plus the sum of its gamma nodes' columns."""
        k = len(self.gamma)
        G = sp.csr_matrix((np.ones(k), (self.pos[self.gamma], np.arange(k))),
                          shape=(len(self.rep), k))
        return V[:, self.rep] + (G @ V[:, self.gamma].T).T


def build_partition(inc, I):
    """Partition nodes via connected components of the edges indexed by I."""
    I = unique_indices(I)
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
    alpha = tnodes[roots == tnodes]  # roots are component minima already
    beta = np.flatnonzero(~touched)
    gamma = tnodes[roots != tnodes]  # touched nodes that are not their root

    # a touched node sits at its root's column, an untouched one at its own
    pos = np.empty(N, dtype=np.int64)
    pos[tnodes] = np.searchsorted(alpha, roots)
    pos[beta] = len(alpha) + np.arange(len(beta))
    out = np.ones(inc.m, dtype=bool)
    out[I] = False
    return IndexPartition(I=I, I_c=np.flatnonzero(out), rep=np.concatenate([alpha, beta]),
                          gamma=gamma, pos=pos)


class ReducedProblem:
    """Quadratic-plus-block-norm problem over the reduced columns and y_{I^c}.

    Objective 0.5 sum_c h_c ||X_c||^2 - <X, C> + kappa + lam * q(Y) subject
    to inc.apply(X) - Y = 0, with h the per-column Hessian diagonal (the
    number of nodes in each column), C the column sums of A and inc the
    IncidenceMap of the edges I^c between the reduced columns of their ends.
    """

    def __init__(self, inst, partition, lam):
        self.lam = float(lam)

        self.h = np.bincount(partition.pos).astype(np.float64)
        A = inst.A
        self.C = np.ascontiguousarray(partition.sums(A))
        self.kappa = 0.5 * float(np.sum(A * A))

        I_c, pos = partition.I_c, partition.pos
        self.inc = IncidenceMap(len(self.h), pos[inst.edge_i[I_c]], pos[inst.edge_j[I_c]])
        self.weights = inst.weights[I_c]

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


def reduce_problem(inst, partition, lam):
    """Reduced instance obtained by eliminating x_gamma and the I blocks."""
    return ReducedProblem(inst, partition, lam)


def recover_primal(partition, x_red, y_red):
    """Embed a reduced solution back into full coordinates.

    Each node takes its reduced column, so x_gamma copies its root and the I
    blocks of Bx vanish exactly; y is zero-filled on I.
    """
    if x_red.shape[1] != partition.n_reduced:
        raise ValueError("reduced solution does not match partition")
    x = np.take(x_red, partition.pos, axis=1)
    y = np.zeros((x_red.shape[0], len(partition.I) + len(partition.I_c)))
    y[:, partition.I_c] = y_red
    return x, y
