"""Artifact emission: per-lambda CSV, summary JSON, labels, and plot data;
saving and loading a solved path's state."""

import csv
import json
import zipfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .admm import AdmmConfig
from .data_io import DataError
from .labels import extract_labels
from .model import KktTriple, ProblemInstance
from .path import LambdaRecord, PathConfig, PathResult

PATH_COLUMNS = (
    "lambda", "rounds", "newton_steps", "cg_steps", "factorizations",
    "woodbury_directions", "reduced_n",
    "reduced_m", "residual", "gap", "seconds", "num_clusters",
)
STATE_FORMAT = "sievepath-path-state"
STATE_VERSION = 1
# every LambdaRecord field but the triple is a scalar stored in the metadata
_RECORD_SCALARS = tuple(f.name for f in fields(LambdaRecord) if f.name != "triple")


def emit_report(result, outdir):
    """Write the path artifacts for a PathResult into outdir.

    Produces path.csv (one row per lambda), summary.json (run totals and
    averages), labels_###.csv per solved lambda, and two plot-ready series
    (lambda vs. seconds, lambda vs. reduced dimension). Returns the list of
    written paths.
    """
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        return _emit(result, outdir)
    except OSError as exc:
        raise OSError(f"cannot write report under {outdir}: {exc}") from exc


def _emit(result, outdir):
    written = []
    inst = result.inst
    eps_hat = result.config.eps_hat

    cluster_counts = []
    all_labels = []
    for rec in result.records:
        if rec.triple is not None:
            lab = extract_labels(inst, rec.triple.y, eps_hat)
        else:
            lab = None
        all_labels.append(lab)
        cluster_counts.append(lab.num_clusters if lab else -1)

    path_csv = outdir / "path.csv"
    with open(path_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PATH_COLUMNS)
        for rec, n_clusters in zip(result.records, cluster_counts):
            writer.writerow([
                f"{rec.lam:.10g}", rec.rounds, rec.newton_steps, rec.cg_steps,
                rec.factorizations, rec.woodbury_directions,
                f"{rec.avg_reduced_n:.6g}", f"{rec.avg_reduced_m:.6g}",
                f"{rec.residual:.6e}", f"{rec.gap:.6e}", f"{rec.seconds:.6f}",
                n_clusters,
            ])
    written.append(path_csv)

    summary = result.summary()
    summary["num_clusters"] = cluster_counts
    summary_json = outdir / "summary.json"
    with open(summary_json, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    written.append(summary_json)

    for idx, (rec, lab) in enumerate(zip(result.records, all_labels)):
        if lab is None:
            continue
        label_file = outdir / f"labels_{idx:03d}.csv"
        with open(label_file, "w", encoding="utf-8") as fh:
            fh.write(f"# lambda = {rec.lam:.10g}\n")
            fh.write("label\n")
            for v in lab.labels:
                fh.write(f"{v}\n")
        written.append(label_file)

    for name, column in (("plot_time.csv", "seconds"), ("plot_dimension.csv", "reduced_n")):
        plot_file = outdir / name
        with open(plot_file, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", column])
            for rec in result.records:
                val = rec.seconds if column == "seconds" else rec.avg_reduced_n
                writer.writerow([f"{rec.lam:.10g}", f"{val:.6g}"])
        written.append(plot_file)
    return written


def save_path_state(result, path):
    """Save what emit_report reads of a PathResult: the instance, the
    config, every record's scalars and y of every certified lambda.

    The file is an .npz archive whose "meta" entry is versioned JSON;
    nothing in it is pickled.
    """
    cfg = result.config
    meta = {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "config": {
            "lambdas": cfg.lambdas.tolist(), "eps": cfg.eps, "eps_hat": cfg.eps_hat,
            "mode": cfg.mode,
            "admm": None if cfg.admm is None else asdict(cfg.admm),
        },
        "records": [{k: getattr(rec, k) for k in _RECORD_SCALARS} for rec in result.records],
    }
    inst = result.inst
    arrays = {"A": inst.A, "edge_i": inst.edge_i, "edge_j": inst.edge_j, "weights": inst.weights}
    for idx, rec in enumerate(result.records):
        if rec.triple is not None:
            arrays[f"y_{idx}"] = rec.triple.y
    with open(path, "wb") as fh:  # a file object: np.savez adds no suffix
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_path_state(path):
    """Load a state written by save_path_state as a PathResult. Each
    certified record's triple carries y, which must be a finite d x m
    array, the residual and the gap; x and z are not stored. A file that
    is not such a state, or has another version, raises DataError."""
    with open(path, "rb") as fh:
        try:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with npz:
                arrays = {k: npz[k] for k in npz.files}
            meta = json.loads(str(arrays.pop("meta")))
        except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path} is not a sievepath path state") from exc
    if not isinstance(meta, dict) or meta.get("format") != STATE_FORMAT:
        raise DataError(f"{path} is not a sievepath path state")
    if meta.get("version") != STATE_VERSION:
        raise DataError(f"{path} is a path state of version {meta.get('version')!r}, "
                        f"this sievepath reads version {STATE_VERSION}")
    try:
        inst = ProblemInstance(arrays["A"], arrays["edge_i"], arrays["edge_j"], arrays["weights"])
        cfg = dict(meta["config"])
        # settings older states carry that are gone: the sieve's round
        # budget and, now rules, the APG's settings and the subsolver's
        # cold-start sigma and first tolerance
        cfg.pop("max_sieve_rounds", None)
        cfg.pop("apg", None)
        if cfg["admm"] is not None:
            cfg["admm"] = AdmmConfig(**{k: v for k, v in dict(cfg["admm"]).items()
                                        if k not in ("sigma", "tol")})
        result = PathResult(inst=inst, config=PathConfig(**cfg))
        for idx, scalars in enumerate(meta["records"]):
            triple = None
            if scalars["converged"]:
                y = arrays[f"y_{idx}"]
                if y.shape != (inst.d, inst.m_blocks) or not np.all(np.isfinite(y)):
                    raise ValueError(f"y_{idx} is not a finite {inst.d} x {inst.m_blocks} array")
                triple = KktTriple(x=None, y=y, z=None,
                                   residual_norm=scalars["residual"], gap=scalars["gap"])
            result.records.append(LambdaRecord(triple=triple, **scalars))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed path state ({exc})") from exc
    return result
