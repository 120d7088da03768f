import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree

from sievepath import (
    GraphError,
    IncidenceMap,
    build_knn_graph,
    build_partition,
    gen_two_half_moons,
    recover_primal,
    reduce_problem,
)
from sievepath import graph
from sievepath._kernels import column_norms
from sievepath.model import primal_objective

from conftest import paper_partition, random_instance
from test_kernels import _reference_components


def partition_invariants(inst, part):
    """B_{I beta} = 0 and B_{I alpha} + B_{I gamma} M^T = 0, exactly."""
    alpha, beta, M = paper_partition(part)
    B = inst.incidence.J.T.tocsr()
    BI = B[part.I]
    assert BI[:, beta].nnz == 0
    resid = BI[:, alpha] + BI[:, part.gamma] @ M.T
    assert np.abs(resid.toarray()).max() == 0.0 if resid.nnz else True
    # every column of M carries exactly one 1
    if M.shape[1]:
        assert np.all(np.asarray(M.sum(axis=0)).ravel() == 1.0)
    # alpha nodes are their component's minimum: each root is smaller than
    # every gamma node that M maps to it
    Mc = M.tocoo()
    assert np.all(alpha[Mc.row] < part.gamma[Mc.col])
    # reduced columns: alpha roots first, then beta, each gamma node at its
    # root's column
    s = len(alpha)
    assert np.array_equal(part.pos[alpha], np.arange(s))
    assert np.array_equal(part.pos[beta], s + np.arange(len(beta)))
    assert np.array_equal(part.pos[part.gamma[Mc.col]], Mc.row)
    assert len(part.pos) == inst.N
    # every node is a rep or a gamma node, and I_c is the rest of the edges
    assert np.array_equal(np.sort(np.concatenate([part.rep, part.gamma])), np.arange(inst.N))
    assert np.array_equal(np.setdiff1d(np.arange(inst.m_blocks), part.I), part.I_c)


def test_incidence_apply_adjoint():
    rng = np.random.default_rng(0)
    inc = IncidenceMap(5, [0, 0, 2], [1, 3, 4])
    X = rng.standard_normal((3, 5))
    Z = rng.standard_normal((3, 3))
    BX = inc.apply(X)
    assert np.allclose(BX[:, 0], X[:, 0] - X[:, 1])
    assert abs(np.sum(BX * Z) - np.sum(X * inc.adjoint(Z))) <= 1e-12
    # each column of J sums to zero with exactly one +1 and one -1
    J = inc.J.toarray()
    assert np.all(J.sum(axis=0) == 0)
    assert np.all(np.abs(J).sum(axis=0) == 2)


def test_adjoint_equals_the_sparse_product_byte_for_byte():
    """One CSR row product per row of Z gives (J Z^T)^T to the last bit, on
    a C-ordered Z and on a transposed view, with an edge whose two ends
    coincide (an empty column of J) and exact zeros in Z."""
    rng = np.random.default_rng(5)
    inc = IncidenceMap(6, [0, 1, 2, 2, 4, 0], [1, 2, 0, 2, 5, 5])
    for d in (1, 2, 5):
        W = rng.standard_normal((inc.m, d))
        W[1] = 0.0
        for Z in (np.ascontiguousarray(W.T), W.T):
            assert inc.adjoint(Z).tobytes() == np.ascontiguousarray((inc.J @ Z.T).T).tobytes()


def _reduced_incidence_reference(inst, part):
    """[J_alpha + M J_gamma; J_beta] restricted to the columns I^c."""
    alpha, beta, M = paper_partition(part)
    J = inst.incidence.J
    Jr = sp.vstack([J[alpha] + M @ J[part.gamma], J[beta]])
    return Jr.tocsc()[:, part.I_c]


def test_operators_match_sparse_products():
    rng = np.random.default_rng(4)
    zero_columns = 0
    for _ in range(40):
        inst = random_instance(rng)
        m, d = inst.m_blocks, inst.d
        I = rng.choice(m, size=int(rng.uniform(0.0, 1.0) * m), replace=False)
        part = build_partition(inst.incidence, I)
        red = reduce_problem(inst, part, 1.0)
        Jr = _reduced_incidence_reference(inst, part)
        # an edge outside I inside one component leaves a zero column
        zero_columns += int(np.count_nonzero(abs(Jr).sum(axis=0) == 0))

        X = rng.standard_normal((d, part.n_reduced))
        Y = rng.standard_normal((d, red.m_red))
        np.testing.assert_allclose(red.inc.apply(X), X @ Jr, rtol=0, atol=1e-14)
        np.testing.assert_allclose(red.inc.adjoint(Y), (Jr @ Y.T).T, rtol=0, atol=1e-14)
        ip = np.sum(red.inc.apply(X) * Y)
        assert abs(ip - np.sum(X * red.inc.adjoint(Y))) <= 1e-13 * (1.0 + abs(ip))

        x = rng.standard_normal((d, inst.N))
        z = rng.standard_normal((d, m))
        inc = inst.incidence
        Jfull = sp.csc_matrix(
            (np.r_[np.ones(m), -np.ones(m)],
             (np.r_[inst.edge_i, inst.edge_j], np.r_[np.arange(m), np.arange(m)])),
            shape=(inst.N, m),
        )
        np.testing.assert_allclose(inc.apply(x), x @ Jfull, rtol=0, atol=1e-14)
        np.testing.assert_allclose(inc.adjoint(z), (Jfull @ z.T).T, rtol=0, atol=1e-14)
        ip = np.sum(inc.apply(x) * z)
        assert abs(ip - np.sum(x * inc.adjoint(z))) <= 1e-13 * (1.0 + abs(ip))
    assert zero_columns > 0


def test_knn_identical_points():
    A = np.zeros((2, 2))
    inst = build_knn_graph(A, k=1)
    assert inst.m_blocks == 1
    assert inst.weights[0] == 1.0


def test_knn_line_example():
    A = np.array([[0.0, 1.0, 5.0]])
    inst = build_knn_graph(A, k=1)
    pairs = set(zip(inst.edge_i, inst.edge_j))
    assert pairs == {(0, 1), (1, 2)}
    w = dict(zip(zip(inst.edge_i, inst.edge_j), inst.weights))
    assert w[(0, 1)] == pytest.approx(np.exp(-0.5))
    assert w[(1, 2)] == pytest.approx(np.exp(-8.0))


def test_knn_complete_graph():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 7))
    inst = build_knn_graph(A, k=6)
    assert inst.m_blocks == 7 * 6 // 2


def test_knn_tie_break_smaller_index():
    # points 1 and 2 are equidistant from 0; k=1 must pick index 1
    A = np.array([[0.0, 1.0, -1.0]])
    inst = build_knn_graph(A, k=1)
    pairs = set(zip(inst.edge_i, inst.edge_j))
    assert (0, 1) in pairs


def test_knn_rejects_bad_input():
    with pytest.raises(GraphError):
        build_knn_graph(np.zeros((2, 1)), k=1)
    with pytest.raises(GraphError):
        build_knn_graph(np.zeros((2, 5)), k=5)
    with pytest.raises(GraphError):
        build_knn_graph(np.zeros((2, 5)), k=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_knn_rejects_non_finite_data(bad):
    A = np.random.default_rng(0).standard_normal((2, 6))
    A[0, 3] = bad
    with pytest.raises(GraphError, match="finite"):
        build_knn_graph(A, k=2)


def test_knn_equals_one_stable_sort_of_all_distances():
    """The edges and weights equal those of one stable sort of the whole
    distance matrix."""
    A = np.random.default_rng(4).standard_normal((2, 700))
    k = 5
    inst = build_knn_graph(A, k=k)
    D = np.sum((A[:, :, None] - A[:, None, :]) ** 2, axis=0)
    np.fill_diagonal(D, np.inf)
    nbrs = np.argsort(D, axis=0, kind="stable")[:k]
    cols = np.arange(A.shape[1])
    pairs = {(min(i, j), max(i, j)) for i, j in zip(nbrs.ravel(), np.tile(cols, k))}
    assert sorted(pairs) == list(zip(inst.edge_i.tolist(), inst.edge_j.tolist()))
    diff = A[:, inst.edge_i] - A[:, inst.edge_j]
    assert np.allclose(inst.weights, np.exp(-0.5 * np.sum(diff * diff, axis=0)))


def _reference_row(A, i, k):
    """Point i's k nearest neighbors: a stable argsort of the directly
    computed squared distances, self excluded."""
    D = np.sum((A - A[:, [i]]) ** 2, axis=0)
    D[i] = np.inf
    return np.argsort(D, kind="stable")[:k]


def _assert_exact(A, k):
    """Neighbor rows and edge set both equal the brute-force reference."""
    N = A.shape[1]
    ref = np.array([_reference_row(A, i, k) for i in range(N)])
    assert np.array_equal(graph._knn_rows(A, k), ref)
    inst = build_knn_graph(A, k=k)
    pairs = {(min(i, j), max(i, j)) for i in range(N) for j in ref[i]}
    assert sorted(pairs) == list(zip(inst.edge_i.tolist(), inst.edge_j.tolist()))


def _count_fallbacks(monkeypatch):
    """Count the rows recomputed against all points."""
    calls = []
    real = graph._sq_dists

    def counted(A, i):
        calls.append(i)
        return real(A, i)

    monkeypatch.setattr(graph, "_sq_dists", counted)
    return calls


@pytest.mark.parametrize("k", [1, 5, 10])
@pytest.mark.parametrize("d", [1, 2, 20, 100])
def test_knn_tree_equals_brute_force(d, k):
    A = np.random.default_rng(10 * d + k).standard_normal((d, 300))
    _assert_exact(A, k)


def test_knn_lattice_ties_fall_back_to_the_exact_row(monkeypatch):
    """On the integer lattice Z^3 an inner point has 6 neighbors at distance
    1 and 12 at sqrt(2): with k = 10 the tie run at sqrt(2) overruns the
    tree's window, so those rows are recomputed against every point."""
    g = np.arange(6.0)
    A = np.stack(np.meshgrid(g, g, g, indexing="ij")).reshape(3, -1)
    calls = _count_fallbacks(monkeypatch)
    _assert_exact(A, 10)
    assert len(calls) > 0


def test_knn_repeated_points_fall_back_to_the_exact_row(monkeypatch):
    """Twelve copies of each point: the tree's window of 10 holds only
    copies, and for some points it leaves the point itself out."""
    base = np.random.default_rng(7).standard_normal((2, 25))
    A = np.repeat(base, 12, axis=1)
    k = 5
    _, cand = cKDTree(A.T).query(A.T, k=k + 1 + graph._SPARE)
    assert np.any(~np.any(cand == np.arange(A.shape[1])[:, None], axis=1))
    calls = _count_fallbacks(monkeypatch)
    _assert_exact(A, k)
    assert len(calls) > 0


@pytest.mark.parametrize("k", range(1, 8))
def test_knn_window_covering_every_point(k):
    """N = 8: from k = 3 on, the window k + 1 + spare holds all N points."""
    A = np.random.default_rng(k).integers(0, 3, (2, 8)).astype(float)
    _assert_exact(A, k)


def _knn_fixtures():
    """The data sets of the k-NN tests above, each with its k."""
    g = np.arange(6.0)
    yield np.stack(np.meshgrid(g, g, g, indexing="ij")).reshape(3, -1), 10
    yield np.repeat(np.random.default_rng(7).standard_normal((2, 25)), 12, axis=1), 5
    for d in (1, 2, 20, 100):
        for k in (1, 5, 10):
            yield np.random.default_rng(10 * d + k).standard_normal((d, 300)), k
    for k in range(1, 8):
        yield np.random.default_rng(k).integers(0, 3, (2, 8)).astype(float), k


def test_knn_edges_are_the_sorted_distinct_neighbor_pairs():
    """The edge arrays are byte for byte np.unique of the pair keys
    min(i, j) * N + max(i, j) of the neighbor rows, split by divmod."""
    for A, k in _knn_fixtures():
        N = A.shape[1]
        nbrs = graph._knn_rows(A, k)
        rows = np.arange(N)[:, None]
        ei, ej = np.divmod(np.unique(np.minimum(nbrs, rows) * N + np.maximum(nbrs, rows)), N)
        inst = build_knn_graph(A, k=k)
        assert inst.edge_i.dtype == ei.dtype and inst.edge_j.dtype == ej.dtype
        assert inst.edge_i.tobytes() == ei.tobytes()
        assert inst.edge_j.tobytes() == ej.tobytes()


def test_knn_keeps_exactly_the_neighbor_pairs_of_nonzero_weight():
    """A neighbor pair about 38.6 or more apart weighs exp(-0.5 d^2) = 0.0
    and adds nothing to the objective, so it is dropped: the edges are the
    distinct neighbor pairs of nonzero weight, which may leave the graph
    disconnected or edgeless."""
    spread = np.random.default_rng(3).standard_normal((1, 40)) * 200.0  # drops 39 of 107
    fixtures = [(np.array([[0.0, 1.0, 40.0, 41.0]]), 2), (np.array([[0.0, 50.0]]), 1),
                (spread, 4)]
    for A, k in fixtures:
        N = A.shape[1]
        rows = np.arange(N)[:, None]
        nbrs = graph._knn_rows(A, k)
        ei, ej = np.divmod(np.unique(np.minimum(nbrs, rows) * N + np.maximum(nbrs, rows)), N)
        diff = A[:, ei] - A[:, ej]
        w = np.exp(-0.5 * np.einsum("ij,ij->j", diff, diff))
        kept = w > 0.0
        inst = build_knn_graph(A, k=k)
        assert np.array_equal(inst.edge_i, ei[kept]) and np.array_equal(inst.edge_j, ej[kept])
        assert np.array_equal(inst.weights, w[kept])
    four = build_knn_graph(fixtures[0][0], k=2)
    assert list(zip(four.edge_i.tolist(), four.edge_j.tolist())) == [(0, 1), (2, 3)]
    assert build_knn_graph(fixtures[1][0], k=1).m_blocks == 0


def test_knn_rejects_data_without_features():
    with pytest.raises(GraphError, match="no feature rows"):
        build_knn_graph(np.zeros((0, 5)), k=2)


def test_knn_scale_guard():
    """N = 20,000 in well under a second with the tree, where a quadratic
    set-up takes tens of seconds."""
    A = gen_two_half_moons(20_000, 0.1, seed=0)
    k = 10
    inst = build_knn_graph(A, k=k)
    degree = np.bincount(np.concatenate([inst.edge_i, inst.edge_j]), minlength=inst.N)
    assert degree.min() >= k
    rows = graph._knn_rows(A, k)
    for i in np.random.default_rng(0).choice(inst.N, size=200, replace=False):
        assert np.array_equal(rows[i], _reference_row(A, i, k))


def test_build_partition_hand_example():
    # nodes 0,1,2 with edges e0=(0,1), e1=(0,2), e2=(1,2); I={e0}
    inc = IncidenceMap(3, [0, 0, 1], [1, 2, 2])
    part = build_partition(inc, [0])
    assert list(part.rep) == [0, 2]
    assert list(part.gamma) == [1]
    assert list(part.pos) == [0, 0, 1]
    assert list(part.I_c) == [1, 2]


def test_build_partition_empty_and_full():
    inc = IncidenceMap(3, [0, 0, 1], [1, 2, 2])
    empty = build_partition(inc, [])
    assert list(empty.rep) == [0, 1, 2] and len(empty.gamma) == 0
    assert list(empty.pos) == [0, 1, 2] and list(empty.I_c) == [0, 1, 2]

    full = build_partition(inc, [0, 1, 2])
    assert list(full.rep) == [0]
    assert list(full.gamma) == [1, 2]
    assert list(full.pos) == [0, 0, 0] and len(full.I_c) == 0


def test_build_partition_dedupes_and_sorts_the_index_set():
    inc = IncidenceMap(4, [0, 1, 2], [1, 2, 3])
    part = build_partition(inc, np.array([[2, 0], [2, 2]]))
    assert part.I.dtype == np.int64 and list(part.I) == [0, 2]
    assert list(part.I_c) == [1]
    assert graph.unique_indices([]).dtype == np.int64
    rng = np.random.default_rng(8)
    for size in (0, 1, 2, 50):
        idx = rng.integers(0, 20, size=size)
        assert np.array_equal(graph.unique_indices(idx), np.unique(idx))


def test_partition_invariants_random():
    rng = np.random.default_rng(2)
    for _ in range(30):
        inst = random_instance(rng)
        m = inst.m_blocks
        size = int(rng.integers(0, m + 1))
        I = rng.choice(m, size=size, replace=False)
        part = build_partition(inst.incidence, I)
        partition_invariants(inst, part)
        # gamma block of B has full column rank
        if len(part.gamma):
            Bg = inst.incidence.J.T.tocsr()[part.I][:, part.gamma].toarray()
            assert np.linalg.matrix_rank(Bg) == len(part.gamma)


def test_reduced_hessian_is_component_sizes():
    rng = np.random.default_rng(5)
    for trial in range(30):
        inst = random_instance(rng)
        m = inst.m_blocks
        size = 0 if trial == 0 else int(rng.integers(0, m + 1))
        I = rng.choice(m, size=size, replace=False)
        part = build_partition(inst.incidence, I)
        red = reduce_problem(inst, part, 1.0)
        ref = _reference_components(inst.N, inst.edge_i[I], inst.edge_j[I])
        alpha, _, _ = paper_partition(part)
        s = len(alpha)
        assert list(red.h[:s]) == [np.count_nonzero(ref == a) for a in alpha]
        assert np.all(red.h[s:] == 1.0)
        assert len(red.h) == inst.N - len(part.gamma)


def test_reduce_problem_t1_hessian(t1_inst):
    part = build_partition(t1_inst.incidence, [0])  # fuse edge (0,1)
    red = reduce_problem(t1_inst, part, 1.0)
    assert list(red.h) == [2.0, 1.0]
    assert np.allclose(red.C, [[1.0, 5.0]])  # A0+A1 folded onto alpha, beta=A2


def test_reduce_problem_full_fusion(t1_inst):
    part = build_partition(t1_inst.incidence, [0, 1, 2])
    red = reduce_problem(t1_inst, part, 1.0)
    assert red.m_red == 0
    assert list(red.h) == [3.0]
    # phi minimized at the centroid 2 with optimal value phi = 1.5*(x-2)^2 + c
    x_opt = red.C / red.h
    assert x_opt[0, 0] == pytest.approx(2.0)
    assert red.phi(x_opt + 1.0) - red.phi(x_opt) == pytest.approx(1.5)


def test_reduced_objective_matches_full(t1_inst):
    """phi on the reduced variables equals f on the embedded full point."""
    rng = np.random.default_rng(3)
    for I in ([0], [1], [0, 1, 2], []):
        part = build_partition(t1_inst.incidence, I)
        red = reduce_problem(t1_inst, part, 0.7)
        Xr = rng.standard_normal((1, part.n_reduced))
        x, y = recover_primal(part, Xr, red.inc.apply(Xr))
        full = primal_objective(t1_inst, 0.7, x)
        reg = 0.7 * np.dot(red.weights, column_norms(red.inc.apply(Xr)))
        assert red.phi(Xr) + reg == pytest.approx(full, abs=1e-10)


def test_recover_primal_exactness(t1_inst):
    part = build_partition(t1_inst.incidence, [0])
    x, y = recover_primal(part, np.array([[0.5, 5.0]]), np.zeros((1, 2)))
    assert np.allclose(x, [[0.5, 0.5, 5.0]])
    BX = t1_inst.incidence.apply(x)
    assert np.all(BX[:, part.I] == 0.0)
    with pytest.raises(ValueError):
        recover_primal(part, np.zeros((1, 3)), np.zeros((1, 2)))


def _embed_through_M(part, x_red):
    """x_alpha and x_beta in order, x_gamma = x_alpha M."""
    alpha, beta, M = paper_partition(part)
    s = len(alpha)
    x = np.empty((x_red.shape[0], len(part.pos)))
    x[:, alpha] = x_red[:, :s]
    x[:, beta] = x_red[:, s:]
    if len(part.gamma):
        x[:, part.gamma] = (M.T @ x_red[:, :s].T).T
    return x


def test_recover_primal_is_the_M_embedding_bitwise():
    rng = np.random.default_rng(6)
    for trial in range(30):
        inst = random_instance(rng)
        m = inst.m_blocks
        size = [0, m][trial] if trial < 2 else int(rng.integers(0, m + 1))
        part = build_partition(inst.incidence, rng.choice(m, size=size, replace=False))
        x_red = rng.standard_normal((inst.d, part.n_reduced))
        y_red = rng.standard_normal((inst.d, m - size))
        x, y = recover_primal(part, x_red, y_red)
        assert x.tobytes() == _embed_through_M(part, x_red).tobytes()
        assert np.array_equal(y[:, part.I_c], y_red) and not y[:, part.I].any()


def test_reduced_data_is_the_M_fold_bitwise():
    """C and h of a reduced problem equal, bit for bit, the paper's fold-in
    A_alpha + A_gamma M^T next to A_beta and the component sizes."""
    rng = np.random.default_rng(7)
    for trial in range(40):
        inst = random_instance(rng)
        m = inst.m_blocks
        size = [0, m][trial] if trial < 2 else int(rng.integers(0, m + 1))
        part = build_partition(inst.incidence, rng.choice(m, size=size, replace=False))
        alpha, beta, M = paper_partition(part)
        A = inst.A
        C_alpha = A[:, alpha] + (M @ A[:, part.gamma].T).T if len(alpha) else A[:, alpha]
        h = np.concatenate([1.0 + np.diff(M.indptr), np.ones(len(beta))])
        red = reduce_problem(inst, part, 1.0)
        assert red.C.tobytes() == np.hstack([C_alpha, A[:, beta]]).tobytes()
        assert red.h.tobytes() == h.tobytes()


def test_recover_primal_identity_embedding(t1_inst):
    part = build_partition(t1_inst.incidence, [])
    Xr = np.array([[1.0, 2.0, 3.0]])
    Yr = np.array([[0.1, 0.2, 0.3]])
    x, y = recover_primal(part, Xr, Yr)
    assert np.array_equal(x, Xr)
    assert np.array_equal(y, Yr)