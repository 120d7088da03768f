"""Artifact emission: per-lambda CSV, summary JSON, labels, and plot data."""

import csv
import json
import pickle
from pathlib import Path

from .labels import extract_labels

PATH_COLUMNS = (
    "lambda", "rounds", "newton_steps", "reduced_n", "reduced_m",
    "residual", "gap", "seconds", "num_clusters",
)


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
                f"{rec.lam:.10g}", rec.rounds, rec.newton_steps,
                f"{rec.avg_reduced_n:.6g}", f"{rec.avg_reduced_m:.6g}",
                f"{rec.residual:.6e}", f"{rec.gap:.6e}", f"{rec.seconds:.6f}",
                n_clusters,
            ])
    written.append(path_csv)

    summary = result.summary()
    summary["num_clusters"] = cluster_counts
    summary_json = outdir / "summary.json"
    with open(summary_json, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
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
    """Persist a PathResult so reports can be re-emitted later."""
    with open(path, "wb") as fh:
        pickle.dump(result, fh)


def load_path_state(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)
