"""Cluster membership extraction from the fused-block structure."""

from dataclasses import dataclass

import numpy as np

from ._kernels import union_find_min_labels
from .model import SolveConfig, fused_blocks


@dataclass
class ClusterLabels:
    labels: np.ndarray
    num_clusters: int


def extract_labels(inst, y, eps_hat=SolveConfig.eps_hat):
    """Group points connected by near-zero y-blocks.

    Two points share a cluster iff they are joined by a chain of edges whose
    y-blocks have norm <= eps_hat. Ids are contiguous from 0, ordered by each
    cluster's smallest member index.
    """
    y = np.asarray(y)
    if y.shape != (inst.d, inst.m_blocks):
        raise ValueError("y does not match the instance's edge blocks")
    zero = fused_blocks(np.ascontiguousarray(y), eps_hat)
    roots = union_find_min_labels(inst.N, inst.edge_i[zero], inst.edge_j[zero])
    uniq, labels = np.unique(roots, return_inverse=True)
    return ClusterLabels(labels=labels.astype(np.int64), num_clusters=len(uniq))
