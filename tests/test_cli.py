import json

import numpy as np
import pytest

from sievepath import RunManifest, load_matrix, load_path_state
from sievepath.cli import _path_config, build_parser, main


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


def test_solve_modes_available(small_csv, tmp_path, capsys):
    """solve --lam L is the path --grid L: same residual and rounds."""
    state = tmp_path / "s.npz"
    for mode in ("as", "eas", "direct"):
        flags = ["--input", str(small_csv), "--k", "5", "--mode", mode]
        rc = main(["solve", "--lam", "1.0", *flags])
        assert rc == 0, mode
        out = capsys.readouterr().out
        assert main(["path", "--grid", "1.0", "--state", str(state), *flags]) == 0
        rec = load_path_state(state).records[0]
        assert f"rounds      : {rec.rounds}\n" in out, mode
        assert f"residual    : {rec.residual:.3e}\n" in out, mode


def test_solve_bad_input_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,nan\n")
    rc = main(["solve", "--input", str(bad), "--lam", "1.0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_data_without_features_is_bad_input(small_csv, monkeypatch, capsys):
    """A points matrix with no feature rows has no distances: exit 2."""
    from sievepath import cli

    monkeypatch.setattr(cli, "load_matrix", lambda path: np.zeros((0, 30)))
    rc = main(["path", "--input", str(small_csv), "--grid", "1.0", "--k", "5"])
    assert rc == 2
    assert "no feature rows" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--lam", "nan"], ["solve", "--lam", "inf"],
    ["solve", "--lam", "1.0", "--eps", "nan"], ["path", "--grid", "2,nan"],
    ["path", "--grid", "inf:-1:0"], ["path", "--grid", "1:-inf:0"],
])
def test_non_finite_lambda_or_tolerance_is_bad_input(small_csv, capsys, argv):
    """A NaN or infinite lambda or tolerance is rejected before any solve
    (exit 2), not run into a failed solve (exit 1)."""
    rc = main([*argv, "--input", str(small_csv), "--k", "5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "finite" in err and "FAILED" not in err


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_gen_with_non_finite_noise_is_bad_input(tmp_path, capsys, noise):
    out = tmp_path / "m.csv"
    rc = main(["gen", "--n", "10", "--noise", noise, "--out", str(out)])
    assert rc == 2 and "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--admm-max-iter", "0"], ["--admm-max-iter", "0", "--mode", "direct"],
    ["--admm-max-iter", "-1", "--mode", "direct"], ["--admm-max-iter", "-3"],
    ["--admm-max-iter", "0", "--mode", "eas"], ["--admm-max-iter", "-1", "--mode", "eas"],
])
@pytest.mark.parametrize("command", [["solve", "--lam", "1"], ["path", "--grid", "2,1"]])
def test_bad_subsolver_setting_is_bad_input(small_csv, capsys, command, flags):
    """A subsolver setting no solve can run with is rejected before any
    solve (exit 2), in every mode: no traceback, no failed solve."""
    rc = main([*command, "--input", str(small_csv), "--k", "5", *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err and "FAILED" not in err


@pytest.mark.parametrize("flags", [
    ["--sigma", "1"], ["--admm-tol", "1e-3"], ["--apg-maxiter", "30"], ["--apg-maxiter", "-1"],
])
@pytest.mark.parametrize("command", [["solve", "--lam", "1"], ["path", "--grid", "2,1"]])
def test_retired_subsolver_flag_is_bad_input(small_csv, capsys, command, flags):
    """The cold-start sigma, the first subsolver tolerance and the APG's
    step budget are rules, not flags: naming one, with any value, is a
    usage error (exit 2) before any solve."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--input", str(small_csv), "--k", "5", *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_manifest_with_a_bad_subsolver_setting_exit_two(small_csv, tmp_path, capsys):
    man = tmp_path / "run.json"
    RunManifest(input=str(small_csv), k=5, grid="2,1", admm_max_iter=0).save(man)
    rc = main(["path", "--manifest", str(man)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "max_iter" in err


def test_solve_missing_file_exit_two(tmp_path):
    rc = main(["solve", "--input", str(tmp_path / "nope.csv"), "--lam", "1.0"])
    assert rc == 2


def test_path_end_to_end(small_csv, tmp_path, capsys):
    outdir = tmp_path / "report"
    state = tmp_path / "path.npz"
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


def test_path_on_points_too_far_apart_to_weigh(tmp_path, capsys):
    """Points 0, 1, 40 and 41: each point's second neighbor lies 39 or more
    away, where the edge weight exp(-0.5 * 39^2) underflows to 0.0. The
    builder drops those edges, and the two-component graph solves."""
    data = tmp_path / "four.csv"
    data.write_text("0,1,40,41\n")
    outdir = tmp_path / "report"
    rc = main(["path", "--input", str(data), "--k", "2", "--out", str(outdir)])
    assert rc == 0
    assert "certified   : True" in capsys.readouterr().out
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["all_converged"] and summary["failed_lambdas"] == []


def test_path_manifest_overrides_flags(small_csv, tmp_path):
    man = tmp_path / "run.json"
    RunManifest(input=str(small_csv), k=5, grid="4,2", mode="eas").save(man)
    state = tmp_path / "s.npz"
    # --grid on the command line must lose to the manifest
    rc = main(["path", "--manifest", str(man), "--grid", "9,8,7", "--state", str(state)])
    assert rc == 0
    result = load_path_state(state)
    assert [r.lam for r in result.records] == [4.0, 2.0]
    assert result.config.mode == "eas"


def test_path_manifest_value_of_wrong_type_exit_two(small_csv, tmp_path, capsys):
    man = tmp_path / "bad.json"
    man.write_text(json.dumps({"input": str(small_csv), "k": "4", "grid": "2:-1:1"}))
    rc = main(["path", "--manifest", str(man)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_path_requires_input(capsys):
    rc = main(["path"])
    assert rc == 2
    assert "no input" in capsys.readouterr().err


def test_report_from_saved_state(small_csv, tmp_path):
    state = tmp_path / "s.npz"
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


def test_report_from_a_file_that_is_not_a_state_exit_two(small_csv, tmp_path, capsys):
    """A file that is not a saved path state, such as the input CSV, is bad
    input; loading it runs nothing."""
    rc = main(["report", "--state", str(small_csv), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "not a sievepath path state" in err
    assert not (tmp_path / "rep").exists()


def test_path_failure_exit_one(small_csv, tmp_path, capsys):
    # starve the subsolver so certification fails
    rc = main(["path", "--input", str(small_csv), "--grid", "2,1", "--k", "5",
               "--admm-max-iter", "2", "--eps", "1e-12", "--out", str(tmp_path)])
    assert rc == 1
    assert "failed at" in capsys.readouterr().err

    def reject(literal):
        raise ValueError(f"summary.json holds {literal}")

    # a failed lambda's residual is inf, which strict JSON has no literal for
    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert summary["failed_lambdas"] and not summary["all_converged"]

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


def test_apg_budget_has_one_default(small_csv, monkeypatch):
    """Every common solver flag, of solve and of path, defaults to its
    manifest field, which defaults to the library's own setting: k to
    build_knn_graph's, eps, eps_hat and mode to PathConfig's, and
    admm_max_iter to AdmmConfig's cap. The APG's step budget is the rule
    sieve.APG_STEPS, no flag or field. The grid defaults to None in both,
    and a path run without one solves PathConfig's default grid. A saved
    manifest that names an APG budget loads with it dropped."""
    import inspect

    from sievepath import AdmmConfig, PathConfig, build_knn_graph, cli

    path, admm = PathConfig(), AdmmConfig()
    library = {
        "k": inspect.signature(build_knn_graph).parameters["k"].default,
        "eps": path.eps, "eps_hat": path.eps_hat, "mode": path.mode,
        "admm_max_iter": admm.max_iter,
    }
    manifest = RunManifest()
    parser = build_parser()
    solve = vars(parser.parse_args(["solve", "--input", "a.csv", "--lam", "1"]))
    assert set(solve) - {"command", "input", "lam"} == set(library)
    path_args = parser.parse_args(["path"])
    for name, value in library.items():
        assert solve[name] == getattr(path_args, name) == getattr(manifest, name) == value, name
    assert path_args.grid is manifest.grid is None

    class Solved(Exception):
        pass

    def solving(inst, pcfg):
        raise Solved(pcfg)

    monkeypatch.setattr(cli, "solve_path", solving)
    with pytest.raises(Solved) as solved:
        main(["path", "--input", str(small_csv), "--k", "5"])
    assert np.array_equal(solved.value.args[0].lambdas, path.lambdas)

    old = RunManifest.from_json('{"apg_maxiter": 10}')
    assert old == manifest and not hasattr(_path_config(old, [1.0]), "apg")
