import numpy as np
import pytest
import scipy.sparse as sp

from sievepath import ProblemInstance, build_knn_graph


def _t1():
    A = np.array([[0.0, 1.0, 5.0]])
    return ProblemInstance.from_edges(A, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def t1_inst():
    """1-d three-point line (0, 1, 5) with a complete unit-weight graph."""
    return _t1()


@pytest.fixture(scope="module")
def t1_module_inst():
    """Module-scoped copy of t1_inst for fixtures that cache solves."""
    return _t1()


def random_instance(rng, N=None, d=None, k=None):
    """Small random k-NN instance for oracle comparisons."""
    N = N or int(rng.integers(4, 13))
    d = d or int(rng.integers(1, 4))
    k = k or int(rng.integers(1, min(N - 1, 5) + 1))
    A = rng.standard_normal((d, N)) * rng.uniform(0.5, 2.0)
    return build_knn_graph(A, k=k)


def force_newton_branch(monkeypatch, assembled):
    """Send every Newton system built from here on to H (assembled) or to
    the operator, whatever its predicted fill."""
    from sievepath import admm

    cap = 10**12 if assembled else 0
    for name in ("ASSEMBLY_FILL", "ASSEMBLY_NODE_FILL"):
        monkeypatch.setattr(admm, name, cap)


def paper_partition(part):
    """The paper's (alpha, beta, M) of an IndexPartition, from rep, pos and
    gamma: alpha are the reps of the columns that hold gamma nodes, beta the
    other reps, and the 0/1 map M of shape (|alpha|, |gamma|) carries one 1
    per column, at row pos[gamma[k]], so that X_gamma = X_alpha M."""
    s = len(np.unique(part.pos[part.gamma]))
    k = len(part.gamma)
    M = sp.csr_matrix((np.ones(k), (part.pos[part.gamma], np.arange(k))), shape=(s, k))
    return part.rep[:s], part.rep[s:], M
