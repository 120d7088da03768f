import json

import numpy as np
import pytest

from sievepath import (
    DataError,
    RunManifest,
    SolveConfig,
    as_solve,
    extract_labels,
    gen_two_half_moons,
    load_matrix,
    moon_labels,
    save_matrix,
)


# ----------------------------------------------------------------- load/save


def test_load_matrix_single_row(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("0,1,5\n")
    A = load_matrix(p)
    assert A.shape == (1, 3)
    assert A.tolist() == [[0.0, 1.0, 5.0]]


def test_load_matrix_comments_and_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("# generated\nx,y,z\n1,2,3\n4,5,6\n")
    A = load_matrix(p)
    assert A.shape == (2, 3)


def test_load_matrix_nan_names_cell(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2\n3,nan\n")
    with pytest.raises(DataError, match=r"a\.csv:2.*column 2"):
        load_matrix(p)


def test_load_matrix_ragged_names_line(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(DataError, match=r":2"):
        load_matrix(p)


def test_load_matrix_non_numeric_after_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("x,y\n1,2\n3,oops\n")
    with pytest.raises(DataError, match="oops"):
        load_matrix(p)


def test_load_matrix_skips_a_byte_order_mark(tmp_path):
    """A BOM is no cell: with it read as part of the first cell, the first
    row failed to parse and was dropped as a header."""
    p = tmp_path / "a.csv"
    p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n", encoding="utf-8-sig")
    assert load_matrix(p).tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    p.write_text("x,y,z\n1,2,3\n", encoding="utf-8-sig")
    assert load_matrix(p).tolist() == [[1.0, 2.0, 3.0]]


def test_load_matrix_first_row_with_a_number_is_no_header(tmp_path):
    """A first row with a mistyped cell among numbers is a feature row
    gone wrong, not a header: it names its line and cell instead of being
    dropped."""
    p = tmp_path / "a.csv"
    p.write_text("# features\n1.0,2.O,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(DataError, match=r"a\.csv:2: non-numeric cell '2\.O'"):
        load_matrix(p)


def test_load_matrix_empty_file(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("# nothing here\n")
    with pytest.raises(DataError, match="no numeric data"):
        load_matrix(p)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 7))
    p = tmp_path / "m.csv"
    save_matrix(A, p, comment="round trip")
    B = load_matrix(p)
    assert np.allclose(A, B, atol=1e-12)


# ------------------------------------------------------------------ generator


def test_moons_deterministic():
    A1 = gen_two_half_moons(40, noise=0.1, seed=3)
    A2 = gen_two_half_moons(40, noise=0.1, seed=3)
    A3 = gen_two_half_moons(40, noise=0.1, seed=4)
    assert np.array_equal(A1, A2)
    assert not np.array_equal(A1, A3)
    assert A1.shape == (2, 40)


def test_moons_arc_geometry():
    A = gen_two_half_moons(2, noise=0.0)
    assert np.allclose(A[:, 0], [1.0, 0.0])  # upper arc starts at angle 0
    assert np.allclose(A[:, 1], [0.0, 0.5])  # lower arc start, shifted
    labels = moon_labels(5)
    assert labels.tolist() == [0, 0, 0, 1, 1]


def test_moons_rejects_tiny_n():
    with pytest.raises(DataError):
        gen_two_half_moons(1)


def test_moons_rejects_non_finite_noise():
    for noise in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="finite"):
            gen_two_half_moons(10, noise=noise)
    assert np.all(np.isfinite(gen_two_half_moons(10, noise=-0.1)))  # negative is valid


# ------------------------------------------------------------------- manifest


def test_manifest_round_trip(tmp_path):
    m = RunManifest(input="data.csv", k=7, grid="5:-0.5:1", mode="eas")
    p = tmp_path / "run.json"
    m.save(p)
    assert RunManifest.load(p) == m


def test_manifest_rejects_unknown_field():
    with pytest.raises(DataError, match="unknown manifest"):
        RunManifest.from_json('{"k": 3, "bogus": 1}')


@pytest.mark.parametrize("text, match", [
    ('["k", "eps"]', "must be a JSON object"),
    ('{"k": "4"}', "field 'k' must be int"),
    ('{"k": true}', "field 'k' must be int"),
    ('{"k": 4.0}', "field 'k' must be int"),
    ('{"k": null}', "field 'k' must be int"),
    ('{"eps": "1e-6"}', "field 'eps' must be float"),
    ('{"eps": false}', "field 'eps' must be float"),
    ('{"grid": 5}', "field 'grid' must be str"),
    ('{"mode": null}', "field 'mode' must be str"),
    ('{"input": 3}', "field 'input' must be str"),
])
def test_manifest_rejects_wrong_value_type(text, match):
    with pytest.raises(DataError, match=match):
        RunManifest.from_json(text)


def test_manifest_drops_the_seed_of_older_manifests():
    """Older manifests carry an integer seed that no run reads: it loads
    and is dropped, and is still bad input when it is not an integer."""
    m = RunManifest.from_json('{"k": 4, "seed": 9}')
    assert m == RunManifest(k=4)
    assert "seed" not in json.loads(m.to_json())
    for text in ('{"seed": "9"}', '{"seed": true}', '{"seed": 9.0}', '{"seed": null}'):
        with pytest.raises(DataError, match="field 'seed' must be int"):
            RunManifest.from_json(text)


def test_manifest_float_takes_int_and_null_only_where_default_is_none():
    m = RunManifest.from_json('{"eps": 1, "grid": null, "input": null, "k": 4}')
    assert (m.eps, m.grid, m.input, m.k) == (1, None, None, 4)
    with pytest.raises(DataError, match="field 'eps_hat' must be float"):
        RunManifest.from_json('{"eps_hat": null}')


def test_manifest_drops_the_subsolver_settings_of_older_manifests():
    """Manifests saved while the cold-start sigma, the first subsolver
    tolerance and the APG's step budget were settings carry them, admm_tol
    null when unset; they load with all three dropped, as the rules they
    became, whatever values they hold."""
    old = RunManifest.from_json('{"sigma": 1.0, "admm_tol": null, "apg_maxiter": 30, '
                                '"admm_max_iter": 40, "k": 4}')
    assert old == RunManifest(admm_max_iter=40, k=4)
    for text in ('{"sigma": 3, "admm_tol": 1e-3}', '{"apg_maxiter": -1}',
                 '{"apg_maxiter": 2.5}', '{"apg_maxiter": true}', '{"apg_maxiter": null}'):
        assert RunManifest.from_json(text) == RunManifest()
    assert set(json.loads(old.to_json())).isdisjoint({"sigma", "admm_tol", "apg_maxiter"})


# --------------------------------------------------------------------- labels


def test_labels_all_fused(t1_inst):
    y = np.zeros((1, 3))
    out = extract_labels(t1_inst, y)
    assert out.num_clusters == 1
    assert out.labels.tolist() == [0, 0, 0]


def test_labels_none_fused(t1_inst):
    y = np.ones((1, 3))
    out = extract_labels(t1_inst, y)
    assert out.num_clusters == 3
    assert out.labels.tolist() == [0, 1, 2]


def test_labels_from_solves(t1_inst):
    hi, _ = as_solve(t1_inst, SolveConfig(lam=10.0, eps=1e-8))
    assert extract_labels(t1_inst, hi.y).num_clusters == 1
    lo, _ = as_solve(t1_inst, SolveConfig(lam=0.001, eps=1e-8))
    assert extract_labels(t1_inst, lo.y).num_clusters == 3


def test_labels_contiguous_ordering(t1_inst):
    # only edge (1,2) fused: clusters {0} and {1,2}, ids by smallest member
    y = np.array([[1.0, 1.0, 0.0]])
    out = extract_labels(t1_inst, y)
    assert out.labels.tolist() == [0, 1, 1]
    assert out.num_clusters == 2