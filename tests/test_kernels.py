import numpy as np

from sievepath import _kernels as K


def test_column_norms_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        V = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(0, 40))))
        got = K.column_norms(np.ascontiguousarray(V))
        assert np.allclose(got, np.linalg.norm(V, axis=0), atol=1e-14)


def test_prox_columns_matches_prox_block():
    from sievepath.model import prox_block

    rng = np.random.default_rng(1)
    for _ in range(20):
        V = rng.standard_normal((3, 30))
        tau = rng.random(30) * 2 + 1e-3
        got = K.prox_columns(V, tau)
        for l in range(V.shape[1]):
            ref = prox_block(V[:, l], tau[l])
            assert np.allclose(got[:, l], ref, rtol=1e-14, atol=1e-14)


def test_project_columns_matches_project_subdiff_block():
    from sievepath.model import project_subdiff_block

    rng = np.random.default_rng(2)
    zero = np.zeros(2)
    for _ in range(20):
        V = rng.standard_normal((2, 25)) * 3
        r = rng.random(25) + 1e-3
        got = K.project_columns(V, r)
        for l in range(V.shape[1]):
            # at a zero block the subdifferential is the whole ball
            ref = project_subdiff_block(V[:, l], zero, r[l])
            assert np.allclose(got[:, l], ref, rtol=1e-14, atol=1e-14)
        assert np.all(np.linalg.norm(got, axis=0) <= r + 1e-12)


def test_prox_zero_block_and_shrink():
    V = np.array([[3.0, 0.3], [4.0, 0.4]])
    tau = np.array([1.0, 10.0])
    out = K.prox_columns(V, tau)
    # norm 5 shrinks by 1/5 toward zero; norm 0.5 < 10 collapses exactly
    assert np.allclose(out[:, 0], [2.4, 3.2])
    assert np.all(out[:, 1] == 0.0)


def test_prox_zero_columns_exact_without_warnings():
    # a naive 1 - tau / ||v|| gives 0/0 = nan on a zero column when tau == 0
    V = np.array([[0.0, 3.0, 0.0], [0.0, 4.0, 0.0]])
    for tau in (np.array([0.5, 1.0, 0.0]), np.zeros(3)):
        with np.errstate(all="raise"):
            out = K.prox_columns(V, tau)
        assert np.all(out[:, [0, 2]] == 0.0)
        assert not np.any(np.isnan(out))
    # tau == 0 is the identity
    assert np.array_equal(out, V)


def test_union_find_min_labels_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, 60))
        ei = rng.integers(0, n, size=m).astype(np.int64)
        ej = rng.integers(0, n, size=m).astype(np.int64)
        got = K.union_find_min_labels(n, ei, ej)
        ref = _reference_components(n, ei, ej)
        assert np.array_equal(got, ref)


def _reference_components(n, ei, ej):
    adj = [[] for _ in range(n)]
    for a, b in zip(ei, ej):
        adj[a].append(b)
        adj[b].append(a)
    labels = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        if labels[start] != -1:
            continue
        stack, seen = [start], [start]
        labels[start] = start
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if labels[u] == -1:
                    labels[u] = start
                    stack.append(u)
                    seen.append(u)
    return labels
