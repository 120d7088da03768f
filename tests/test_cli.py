import json

import numpy as np
import pytest

from sievepath import RunManifest, load_matrix, load_path_state
from sievepath.cli import main


@pytest.fixture()
def small_csv(tmp_path):
    p = tmp_path / "pts.csv"
    rc = main(["gen", "--n", "30", "--noise", "0.05", "--seed", "1", "--out", str(p)])
    assert rc == 0
    return p


def test_gen_writes_loadable_matrix(small_csv):
    A = load_matrix(small_csv)
    assert A.shape == (2, 30)


def test_solve_certified_exit_zero(small_csv, capsys):
    rc = main(["solve", "--input", str(small_csv), "--lam", "2.0", "--k", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "certified   : True" in out
    assert "clusters" in out


def test_solve_modes_available(small_csv, capsys):
    for mode in ("as", "eas", "direct"):
        rc = main(
            ["solve", "--input", str(small_csv), "--lam", "1.0", "--k", "5",
             "--mode", mode]
        )
        assert rc == 0, mode


def test_solve_bad_input_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,nan\n")
    rc = main(["solve", "--input", str(bad), "--lam", "1.0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file_exit_two(tmp_path):
    rc = main(["solve", "--input", str(tmp_path / "nope.csv"), "--lam", "1.0"])
    assert rc == 2


def test_path_end_to_end(small_csv, tmp_path, capsys):
    outdir = tmp_path / "report"
    state = tmp_path / "path.pkl"
    rc = main(
        ["path", "--input", str(small_csv), "--grid", "5:-2:1", "--k", "5",
         "--out", str(outdir), "--state", str(state),
         "--save-manifest", str(tmp_path / "run.json")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "certified   : True" in out
    assert (outdir / "path.csv").exists()
    assert (outdir / "summary.json").exists()
    result = load_path_state(state)
    assert len(result.records) == 3

    m = RunManifest.load(tmp_path / "run.json")
    assert m.grid == "5:-2:1" and m.k == 5


def test_path_manifest_overrides_flags(small_csv, tmp_path):
    man = tmp_path / "run.json"
    RunManifest(input=str(small_csv), k=5, grid="4,2", mode="eas").save(man)
    state = tmp_path / "s.pkl"
    # --grid on the command line must lose to the manifest
    rc = main(["path", "--manifest", str(man), "--grid", "9,8,7", "--state", str(state)])
    assert rc == 0
    result = load_path_state(state)
    assert [r.lam for r in result.records] == [4.0, 2.0]
    assert result.config.mode == "eas"


def test_path_requires_input(capsys):
    rc = main(["path"])
    assert rc == 2
    assert "no input" in capsys.readouterr().err


def test_report_from_saved_state(small_csv, tmp_path):
    state = tmp_path / "s.pkl"
    rc = main(["path", "--input", str(small_csv), "--grid", "3,1", "--k", "5",
               "--state", str(state)])
    assert rc == 0
    outdir = tmp_path / "rep"
    rc = main(["report", "--state", str(state), "--out", str(outdir)])
    assert rc == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["n_lambdas"] == 2
    assert summary["all_converged"] is True
    # path.csv has one data row per lambda
    lines = [l for l in (outdir / "path.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1 + 2  # header + rows


def test_path_failure_exit_one(small_csv, tmp_path, capsys):
    # starve the subsolver so certification fails
    rc = main(["path", "--input", str(small_csv), "--grid", "2,1", "--k", "5",
               "--admm-max-iter", "2", "--eps", "1e-12"])
    assert rc == 1
    assert "failed at" in capsys.readouterr().err

def test_solver_error_exit_one(small_csv, monkeypatch, capsys):
    """A subsolver failure is a failed solve (exit 1), not bad input (2)."""
    from sievepath import SingularSystemError, sieve

    real = sieve.solve_reduced_admm

    def flaky(red, *args, **kwargs):
        if red.lam == 2.0:
            raise SingularSystemError("Factor is exactly singular")
        return real(red, *args, **kwargs)

    monkeypatch.setattr(sieve, "solve_reduced_admm", flaky)
    rc = main(["path", "--input", str(small_csv), "--grid", "3,2,1", "--k", "5"])
    assert rc == 1
    assert "failed at   : [2.0]" in capsys.readouterr().err
    rc = main(["solve", "--input", str(small_csv), "--lam", "2.0", "--k", "5"])
    assert rc == 1
    assert "FAILED: SingularSystemError" in capsys.readouterr().err
