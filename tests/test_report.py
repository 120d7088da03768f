import csv
import json

import pytest

from sievepath import (
    PathConfig,
    emit_report,
    load_path_state,
    save_path_state,
    solve_path,
)
from sievepath.report import PATH_COLUMNS


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
    col = PATH_COLUMNS.index("newton_steps")
    assert [int(r[col]) for r in rows[1:]] == [rec.newton_steps for rec in t1_result.records]


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
    p = tmp_path / "state.pkl"
    save_path_state(t1_result, p)
    back = load_path_state(p)
    assert len(back.records) == len(t1_result.records)
    assert back.records[0].objective == t1_result.records[0].objective
    assert back.summary() == t1_result.summary()