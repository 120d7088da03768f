"""Hot numeric kernels over block matrices, in numpy, and connected
components of an edge list, from scipy's csgraph.

Column l of a (d, m) block matrix is the l-th edge block.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# numpy is the only kernel lane; the flag stays for tools that report the lane
NUMBA_ENABLED = False


def column_norms(V):
    return np.sqrt(np.einsum("ij,ij->j", V, V))


def prox_columns(V, tau):
    """Columnwise argmin_u 0.5||u - v||^2 + tau_l ||u||, i.e. scale column l
    by max(0, ||v|| - tau_l) / ||v||. Zero columns map to exact zeros."""
    norms = column_norms(V)
    scale = np.maximum(norms - tau, 0.0)
    # where the norm is 0 the shrunk length is 0 as well, so skip the 0/0
    np.divide(scale, norms, out=scale, where=norms > 0.0)
    return V * scale


def project_columns(V, radii):
    """Columnwise Euclidean projection onto the ball of radius radii_l."""
    norms = column_norms(V)
    scale = np.ones_like(norms)
    over = norms > radii
    scale[over] = radii[over] / norms[over]
    return V * scale


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
