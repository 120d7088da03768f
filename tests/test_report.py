import csv
import json
import pickle

import numpy as np
import pytest

from sievepath import (
    AdmmConfig,
    DataError,
    PathConfig,
    build_knn_graph,
    emit_report,
    gen_two_half_moons,
    load_path_state,
    save_path_state,
    solve_path,
)
from sievepath import path
from sievepath.admm import WORK
from sievepath.report import PATH_COLUMNS, STATE_VERSION


@pytest.fixture(scope="module")
def t1_result(t1_module_inst):
    return solve_path(
        t1_module_inst, PathConfig(lambdas=[10.0, 1.0, 0.01], eps=1e-7)
    )


def test_emit_report_files(t1_result, tmp_path):
    written = emit_report(t1_result, tmp_path / "rep")
    names = sorted(p.name for p in written)
    assert names == [
        "labels_000.csv", "labels_001.csv", "labels_002.csv",
        "path.csv", "plot_dimension.csv", "plot_time.csv", "summary.json",
    ]


def test_path_csv_layout(t1_result, tmp_path):
    emit_report(t1_result, tmp_path)
    with open(tmp_path / "path.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == PATH_COLUMNS
    assert len(rows) == 1 + 3
    lams = [float(r[0]) for r in rows[1:]]
    assert lams == [10.0, 1.0, 0.01]
    # fully fused at the top, fully split at the bottom
    assert int(rows[1][-1]) == 1
    assert int(rows[3][-1]) == 3
    for name in ("newton_steps", "cg_steps", "factorizations"):
        col = PATH_COLUMNS.index(name)
        assert [int(r[col]) for r in rows[1:]] == [getattr(rec, name) for rec in t1_result.records]


@pytest.mark.parametrize("mode", ["as", "eas", "direct"])
def test_work_counters_read_the_same_from_round_records_to_path_csv(monkeypatch, tmp_path,
                                                                    mode):
    """Each admm.WORK counter of a 3-lambda path reads the same four ways:
    summed over a lambda's round records, as its LambdaRecord field and as
    its path.csv column, and, summed over the lambdas, as summary()'s
    total_<key>. path.csv lists the counters, in WORK's order, after the
    lambda and its rounds."""
    states = []  # each lambda's SieveState
    for name in ("as_solve", "eas_solve"):
        def recording(*args, _solve=getattr(path, name), **kwargs):
            triple, state = _solve(*args, **kwargs)
            states.append(state)
            return triple, state
        monkeypatch.setattr(path, name, recording)
    inst = build_knn_graph(gen_two_half_moons(200, 0.1, 0), k=10)
    res = solve_path(inst, PathConfig(mode=mode, lambdas=[6.0, 5.0, 4.0]))
    assert res.all_converged and len(states) == 3
    emit_report(res, tmp_path)
    with open(tmp_path / "path.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert tuple(header[:2 + len(WORK)]) == ("lambda", "rounds", *WORK)
    summary = res.summary()
    for key in WORK:
        fields = [getattr(rec, key) for rec in res.records]
        assert [sum(r[key] for r in state.records) for state in states] == fields
        assert [int(row[header.index(key)]) for row in rows] == fields
        assert summary[f"total_{key}"] == res.total(key) == sum(fields)
    # every counter is exercised: sieved paths take no CG step and no
    # Woodbury direction, the direct path takes both
    counted = {key for key in WORK if summary[f"total_{key}"]}
    assert counted == (set(WORK) if mode == "direct" else {"newton_steps", "factorizations"})


def test_summary_json_cluster_counts(t1_result, tmp_path):
    emit_report(t1_result, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["num_clusters"] == [1, 2, 3]
    assert summary["all_converged"] is True
    assert summary["n_lambdas"] == 3


def test_labels_file_contents(t1_result, tmp_path):
    emit_report(t1_result, tmp_path)
    text = (tmp_path / "labels_000.csv").read_text().splitlines()
    assert text[0].startswith("# lambda = 10")
    assert text[1] == "label"
    assert text[2:] == ["0", "0", "0"]


def test_plot_series(t1_result, tmp_path):
    emit_report(t1_result, tmp_path)
    with open(tmp_path / "plot_dimension.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "reduced_n"]
    assert len(rows) == 4
    # reduced dimension grows as lambda shrinks toward no fusion
    dims = [float(r[1]) for r in rows[1:]]
    assert dims[0] <= dims[-1]


def test_state_round_trip(t1_result, tmp_path):
    p = tmp_path / "state.npz"
    save_path_state(t1_result, p)
    back = load_path_state(p)
    assert len(back.records) == len(t1_result.records)
    assert back.records[0].objective == t1_result.records[0].objective
    assert back.summary() == t1_result.summary()
    # the reports re-emitted from the loaded state match the original ones
    first = emit_report(t1_result, tmp_path / "a")
    again = emit_report(back, tmp_path / "b")
    assert [f.name for f in first] == [f.name for f in again]
    for f, g in zip(first, again):
        assert f.read_bytes() == g.read_bytes(), f.name


def test_state_holds_no_pickle_and_checks_its_version(t1_result, tmp_path):
    """A state is plain arrays plus versioned JSON; a pickle, an archive
    without the metadata or another version is rejected as bad data."""
    p = tmp_path / "state.npz"
    save_path_state(t1_result, p)
    with np.load(p, allow_pickle=False) as npz:
        meta = json.loads(str(npz["meta"]))
        arrays = {k: npz[k] for k in npz.files}
    assert meta["version"] == STATE_VERSION
    assert sorted(k for k in arrays if k.startswith("y_")) == ["y_0", "y_1", "y_2"]

    foreign = tmp_path / "foreign.pkl"
    foreign.write_bytes(pickle.dumps(t1_result))
    with pytest.raises(DataError, match="not a sievepath path state"):
        load_path_state(foreign)
    np.savez(tmp_path / "plain.npz", A=np.zeros(2))
    with pytest.raises(DataError, match="not a sievepath path state"):
        load_path_state(tmp_path / "plain.npz")
    meta["version"] = STATE_VERSION + 1
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(tmp_path / "newer.npz", **arrays)
    with pytest.raises(DataError, match="version"):
        load_path_state(tmp_path / "newer.npz")


@pytest.mark.parametrize("y", [lambda y: np.full_like(y, np.nan), lambda y: y[:, :-1]],
                         ids=["nan", "wrong_shape"])
def test_state_with_a_malformed_y_is_bad_data(t1_result, tmp_path, capsys, y):
    """A certified record's y must be a finite d x m array: a NaN y would
    report every point as its own cluster, and a y of the wrong shape would
    fail only inside extract_labels, without naming the file. Both are
    malformed states, through the library and through `sievepath report`
    (exit 2, no report written)."""
    from sievepath.cli import main

    p = tmp_path / "state.npz"
    save_path_state(t1_result, p)
    with np.load(p, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays["y_0"] = y(arrays["y_0"])
    np.savez(tmp_path / "edited.npz", **arrays)
    with pytest.raises(DataError, match="edited.npz: malformed path state.*y_0"):
        load_path_state(tmp_path / "edited.npz")
    rc = main(["report", "--state", str(tmp_path / "edited.npz"), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:") and "malformed path state" in err
    assert not (tmp_path / "rep").exists()


def test_state_with_a_removed_round_budget_still_loads(t1_result, tmp_path):
    """States saved while PathConfig had max_sieve_rounds carry it in their
    config; they load as before and the setting is dropped."""
    p = tmp_path / "state.npz"
    save_path_state(t1_result, p)
    with np.load(p, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays["meta"]))
    assert "max_sieve_rounds" not in meta["config"]
    for rounds in (None, 3):
        meta["config"]["max_sieve_rounds"] = rounds
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez(tmp_path / "older.npz", **arrays)
        back = load_path_state(tmp_path / "older.npz")
        assert back.summary() == t1_result.summary()
        assert not hasattr(back.config, "max_sieve_rounds")


def _state_with(result, tmp_path, **config):
    """Save result as a state whose config carries config's entries instead,
    as an older or a corrupt file would; returns the file's path."""
    p = tmp_path / "state.npz"
    save_path_state(result, p)
    with np.load(p, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays["meta"]))
    meta["config"].update(config)
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(tmp_path / "edited.npz", **arrays)
    return tmp_path / "edited.npz"


def _assert_same_reports(result, back, tmp_path):
    emit_report(result, tmp_path / "a")
    emit_report(back, tmp_path / "b")
    for name in ("path.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_state_with_removed_subsolver_settings_still_loads(t1_result, tmp_path):
    """States saved while AdmmConfig had sigma and tol fields carry them in
    their config's "admm", tol null when unset; they load with both
    dropped and re-emit the same path.csv and summary.json."""
    older = _state_with(t1_result, tmp_path,
                        admm={"sigma": 1.0, "max_iter": 50000, "tol": None})
    back = load_path_state(older)
    assert back.config.admm == AdmmConfig(max_iter=50000)
    assert back.summary() == t1_result.summary()
    _assert_same_reports(t1_result, back, tmp_path)


def test_state_with_a_removed_apg_tolerance_still_loads(t1_result, tmp_path):
    """States saved while the APG had settings carry them in their config's
    "apg": an eps, null when unset, and a step budget, now both rules. New
    states have no "apg", and older ones load with it dropped, whatever it
    holds, a budget no APG could run with included, and re-emit the same
    path.csv and summary.json."""
    p = tmp_path / "state.npz"
    save_path_state(t1_result, p)
    with np.load(p, allow_pickle=False) as npz:
        assert "apg" not in json.loads(str(npz["meta"]))["config"]
    for apg in ({"eps": None, "maxiter": 30}, {"maxiter": 30}, {"maxiter": -1},
                {"maxiter": 2.5}, {"maxiter": True}, ["maxiter", 10], None):
        back = load_path_state(_state_with(t1_result, tmp_path, apg=apg))
        assert not hasattr(back.config, "apg")
        assert back.summary() == t1_result.summary()
    _assert_same_reports(t1_result, back, tmp_path)


def test_state_without_woodbury_counts_still_loads(t1_result, tmp_path):
    """States saved before the Woodbury route counted its directions have
    no woodbury_directions in their records; they load with the count at
    0. A new state stores the count."""
    import dataclasses

    result = dataclasses.replace(t1_result, records=[
        dataclasses.replace(rec, woodbury_directions=k + 1)
        for k, rec in enumerate(t1_result.records)])
    p = tmp_path / "state.npz"
    save_path_state(result, p)
    assert [rec.woodbury_directions for rec in load_path_state(p).records] == [1, 2, 3]
    with np.load(p, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays["meta"]))
    for rec in meta["records"]:
        del rec["woodbury_directions"]
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(tmp_path / "older.npz", **arrays)
    back = load_path_state(tmp_path / "older.npz")
    assert [rec.woodbury_directions for rec in back.records] == [0, 0, 0]
    assert back.summary() == t1_result.summary()
    _assert_same_reports(t1_result, back, tmp_path)


def test_state_with_a_bad_subsolver_setting_is_bad_data(t1_result, tmp_path):
    """A saved state whose subsolver settings no solve could run with is
    malformed, like any other invalid field."""
    for config, field in (({"admm": {"max_iter": 0}}, "admm max_iter"),
                          ({"admm": {"max_iter": True}}, "admm max_iter"),
                          ({"admm": ["max_iter", 10]}, "")):
        with pytest.raises(DataError, match=f"malformed path state.*{field}"):
            load_path_state(_state_with(t1_result, tmp_path, **config))
