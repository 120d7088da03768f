"""Hot numeric kernels over block matrices, in numpy, and connected
components of an edge list, from scipy's csgraph.

Column l of a (d, m) block matrix is the l-th edge block.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# numpy is the only kernel lane; the flag stays for tools that report the lane
NUMBA_ENABLED = False

_TINY = np.finfo(np.float64).tiny


def column_norms(V):
    return np.sqrt(np.einsum("ij,ij->j", V, V))


def frobenius_norm(X):
    """sqrt(sum(X**2)) of an array. np.linalg.norm would call BLAS ddot,
    which OpenBLAS splits across threads above 10,000 entries; on a 2-vCPU
    machine that took 40 us a call instead of 12 us single-threaded, and
    milliseconds on its first calls in a process, against 14 us here."""
    x = np.ravel(X)
    return float(np.sqrt(np.einsum("i,i->", x, x)))


def prox_columns(V, tau):
    """Columnwise argmin_u 0.5||u - v||^2 + tau_l ||u||, i.e. scale column l
    by max(0, ||v|| - tau_l) / ||v||. Zero columns map to exact zeros."""
    # (s - tau) / s with s = max(||v||, tau) is that factor; flooring s at
    # the smallest normal double guards the 0/0 of a zero column with
    # tau = 0, which then scales an exact zero by 1
    scale = np.maximum(column_norms(V), tau)
    np.maximum(scale, _TINY, out=scale)
    shrunk = scale - tau
    shrunk /= scale
    return V * shrunk


def project_columns(V, radii):
    """Columnwise Euclidean projection onto the ball of radius radii_l."""
    # radii / max(||v||, radii) is 1 inside the ball and radii / ||v||
    # outside; the floor only guards 0/0 when a zero column has radius 0
    scale = np.maximum(column_norms(V), radii)
    np.maximum(scale, _TINY, out=scale)
    return V * (radii / scale)


def union_find_min_labels(n, ei, ej):
    """Label nodes 0..n-1 by the smallest member of their connected component.

    Edges are given as parallel index arrays (ei, ej); the components come
    from scipy's csgraph.
    """
    ei = np.asarray(ei, dtype=np.int64)
    ej = np.asarray(ej, dtype=np.int64)
    graph = sp.coo_matrix((np.ones(len(ei)), (ei, ej)), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    # the first node carrying each component id is that component's minimum
    return np.unique(comp, return_index=True)[1][comp]
