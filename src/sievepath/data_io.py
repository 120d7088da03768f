"""Dataset ingestion, synthetic data, and the run manifest."""

import inspect
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .admm import AdmmConfig
from .graph import build_knn_graph
from .path import PathConfig
from .sieve import ApgConfig


class DataError(ValueError):
    pass


def load_matrix(path):
    """Read a features-by-points CSV matrix.

    Rows are features, columns are points; `#` lines are comments and an
    optional single header row is skipped. Ragged rows, non-numeric cells,
    NaN/Inf entries, and empty files raise DataError naming the offending
    line (and cell).
    """
    rows = []
    width = None
    header_allowed = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                bad = next(c for c in cells if not _is_float(c))
                raise DataError(f"{path}:{lineno}: non-numeric cell {bad!r}") from None
            header_allowed = False
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise DataError(
                    f"{path}:{lineno}: expected {width} columns, found {len(values)}"
                )
            for col, v in enumerate(values):
                if not math.isfinite(v):
                    raise DataError(
                        f"{path}:{lineno}: non-finite value {v!r} in column {col + 1}"
                    )
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no numeric data found")
    return np.array(rows, dtype=np.float64)


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_matrix(A, path, comment=None):
    """Write a matrix in the load_matrix layout (rows = features)."""
    header = comment or ""
    np.savetxt(path, A, delimiter=",", header=header, comments="# ")


def gen_two_half_moons(n, noise=0.1, seed=0):
    """Two interleaved semicircular arcs in the plane, one point per column.

    The first ceil(n/2) columns belong to the upper arc, the rest to the
    lower arc; each arc starts at its angle-zero endpoint, so n = 2 with
    zero noise gives exactly the two arc start points. Deterministic per
    seed.
    """
    if n < 2:
        raise DataError("need n >= 2 points")
    if not math.isfinite(noise):
        raise DataError(f"noise must be finite, got {noise!r}")
    n_top = (n + 1) // 2
    n_bot = n - n_top
    t_top = np.linspace(0.0, np.pi, n_top, endpoint=False)
    t_bot = np.linspace(0.0, np.pi, max(n_bot, 1), endpoint=False)[:n_bot]
    top = np.stack([np.cos(t_top), np.sin(t_top)])
    bot = np.stack([1.0 - np.cos(t_bot), 0.5 - np.sin(t_bot)])
    A = np.hstack([top, bot])
    rng = np.random.default_rng(seed)
    A = A + noise * rng.standard_normal(A.shape)
    return np.ascontiguousarray(A)


def moon_labels(n):
    """Ground-truth arc membership matching gen_two_half_moons columns."""
    labels = np.ones(n, dtype=np.int64)
    labels[: (n + 1) // 2] = 0
    return labels


@dataclass
class RunManifest:
    """Serializable description of a path run (flags mirror the CLI). Every
    solver setting defaults to the library's own default; grid None is
    PathConfig's default grid."""

    input: str = None
    k: int = inspect.signature(build_knn_graph).parameters["k"].default
    grid: str = None
    eps: float = PathConfig.eps
    eps_hat: float = PathConfig.eps_hat
    mode: str = PathConfig.mode
    admm_max_iter: int = AdmmConfig.max_iter
    apg_maxiter: int = ApgConfig.maxiter
    outdir: str = None

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Parse a manifest. A non-object, an unknown key or a value not of
        its field's type raises DataError; a float field also takes an int,
        no field takes a bool, and only a field whose default is None takes
        null."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DataError("manifest must be a JSON object")
        # older manifests carry an integer seed that no run reads, and the
        # subsolver's cold-start sigma and first tolerance, now rules
        seed = data.pop("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise DataError(f"manifest field 'seed' must be int, got {seed!r}")
        data.pop("sigma", None)
        data.pop("admm_tol", None)
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise DataError(f"unknown manifest fields: {sorted(unknown)}")
        for name, value in data.items():
            f = fields[name]
            if value is None and f.default is None:
                continue
            accepted = (int, float) if f.type is float else f.type
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise DataError(f"manifest field {name!r} must be {f.type.__name__}, got {value!r}")
        return cls(**data)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
