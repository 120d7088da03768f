"""Solution-path driver: sweep a decreasing lambda grid with warm starts.

Every mode runs the one sieve loop; direct mode is that loop with an empty
candidate set at every lambda, so its reduced problem is the full one and
there is nothing to sieve. Each lambda ends in one of two ways. It
certifies: its triple has a recomputed KKT residual <= eps. Its fused
blocks then seed the next lambda's candidate set (as and eas), and its
full-space primal/dual pair, with the subsolver penalty sigma it ended on,
warm-starts the next subsolver. Once two lambdas have certified, that pair
is extrapolated along the secant through the last two certified pairs
(secant_start), which starts the subsolver O(dlambda^2) rather than
O(dlambda) from a smooth stretch of the path. Or it fails: its record has
no triple, an error "<Type>: <message>" and inf residual, gap and
objective, and the next lambda starts from the last certified ones.
"""

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

# solve_full is not called here; perfbench/spans.py wraps it under this name
from .admm import SingularSystemError, solve_full
from .model import SolveConfig, check_tolerances, fused_blocks
from .sieve import WORK, BuildStore, SieveLimitError, as_solve, eas_solve

log = logging.getLogger(__name__)

MODES = ("as", "eas", "direct")


# what a solve may raise on a numerical failure; the path records it on that
# lambda and goes on, and the CLI reports it as a failed solve. Anything else
# is a defect and propagates.
SOLVER_ERRORS = (SieveLimitError, SingularSystemError)


def default_lambda_grid():
    """The default grid: 10 down to 1 in steps of 0.2 (46 values)."""
    return np.linspace(10.0, 1.0, 46)


def parse_lambda_spec(spec):
    """Parse a grid spec: 'start:step:stop' (step < 0) or a comma list."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:step:stop, got {spec!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise ValueError(f"grid start, step and stop must be finite, got {spec!r}")
        if step >= 0:
            raise ValueError("grid step must be negative (decreasing lambdas)")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"empty grid from spec {spec!r}")
        lams = start + step * np.arange(count)
    else:
        lams = np.array([float(p) for p in spec.split(",") if p.strip()])
    return lams


@dataclass
class PathConfig:
    lambdas: np.ndarray = field(default_factory=default_lambda_grid)
    eps: float = SolveConfig.eps
    eps_hat: float = SolveConfig.eps_hat
    mode: str = "as"
    admm: object = None

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)
        if self.lambdas.ndim != 1:
            raise ValueError(f"lambda grid must be 1-D, got shape {self.lambdas.shape}")
        if len(self.lambdas) == 0:
            raise ValueError("lambda grid is empty")
        if not np.all(np.isfinite(self.lambdas)):
            raise ValueError("lambdas must be finite")
        if np.any(self.lambdas <= 0):
            raise ValueError("lambdas must be positive")
        check_tolerances(self.eps, self.eps_hat)
        if len(self.lambdas) > 1 and np.any(np.diff(self.lambdas) >= 0):
            raise ValueError("lambdas must be strictly decreasing")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class LambdaRecord:
    """Outcome and diagnostics of one grid point."""

    lam: float
    triple: object  # KktTriple; None when the lambda failed
    converged: bool  # triple is not None
    rounds: int
    avg_reduced_n: float
    avg_reduced_m: float
    residual: float
    gap: float
    objective: float
    seconds: float
    # blocks of Bx with norm <= eps_hat, the next I0 in as and eas; not a
    # cluster count: in direct mode few blocks of Bx are exactly zero
    num_fused: int
    error: str = None
    newton_steps: int = 0  # of every subsolve of this lambda
    cg_steps: int = 0  # likewise
    factorizations: int = 0  # likewise; SuperLU, made here, order probes not counted
    woodbury_directions: int = 0  # likewise; Newton directions solved by Woodbury


@dataclass
class PathResult:
    inst: object
    config: PathConfig
    records: list = field(default_factory=list)

    @property
    def all_converged(self):
        return all(r.converged for r in self.records)

    @property
    def total_seconds(self):
        return sum(r.seconds for r in self.records)

    @property
    def total_rounds(self):
        return sum(r.rounds for r in self.records)

    @property
    def total_newton_steps(self):
        return sum(r.newton_steps for r in self.records)

    @property
    def total_cg_steps(self):
        return sum(r.cg_steps for r in self.records)

    @property
    def total_factorizations(self):
        return sum(r.factorizations for r in self.records)

    @property
    def total_woodbury_directions(self):
        return sum(r.woodbury_directions for r in self.records)

    def summary(self):
        n = len(self.records)
        return {
            "n_lambdas": n,
            "mode": self.config.mode,
            "N": self.inst.N,
            "d": self.inst.d,
            "m_edges": self.inst.m_blocks,
            "eps": self.config.eps,
            "eps_hat": self.config.eps_hat,
            "total_rounds": self.total_rounds,
            "total_newton_steps": self.total_newton_steps,
            "total_cg_steps": self.total_cg_steps,
            "total_factorizations": self.total_factorizations,
            "total_woodbury_directions": self.total_woodbury_directions,
            "average_rounds": self.total_rounds / n if n else 0.0,
            "average_reduced_n": (
                float(np.mean([r.avg_reduced_n for r in self.records])) if n else 0.0
            ),
            "average_reduced_m": (
                float(np.mean([r.avg_reduced_m for r in self.records])) if n else 0.0
            ),
            "total_seconds": self.total_seconds,
            # over certified lambdas: a failed one's inf is not JSON
            "max_residual": max((r.residual for r in self.records if r.converged),
                                default=None),
            "all_converged": self.all_converged,
            "failed_lambdas": [r.lam for r in self.records if not r.converged],
        }


def secant_start(lam, last, prev=None):
    """The (x, z) that warm-starts lam: the last certified (lam, x, z),
    extrapolated along the secant through the one certified before it when
    there is one, x + s (x - x_prev) with s = (lam - lam_k) / (lam_k -
    lam_prev), and z likewise."""
    lam_k, x, z = last
    if prev is None:
        return x, z
    lam_p, x_p, z_p = prev
    s = (lam - lam_k) / (lam_k - lam_p)
    return x + s * (x - x_p), z + s * (z - z_p)


def solve_path(inst, pcfg=None):
    """Run the lambda sweep; per-lambda failures are recorded, not raised.

    as and eas start each lambda from the fused blocks of the last certified
    one (all blocks at first); direct keeps the candidate set empty. Every
    mode warm-starts the subsolver from secant_start of the last two
    certified lambdas, with the sigma the last one ended on. A lambda whose
    solve raises one of SOLVER_ERRORS gets a record with triple None and
    the error; the next lambda starts from the candidate set and warm start
    of the last certified ones.
    """
    pcfg = pcfg or PathConfig()
    result = PathResult(inst=inst, config=pcfg)
    m = inst.m_blocks
    solver = eas_solve if pcfg.mode == "eas" else as_solve
    I0 = np.arange(0 if pcfg.mode == "direct" else m, dtype=np.int64)
    certified, sigma = [], None  # the last two certified (lam, x, z), newest first
    store = BuildStore(inst)  # candidate sets recur across lambdas

    for lam in pcfg.lambdas:
        cfg = SolveConfig(lam=float(lam), eps=pcfg.eps, eps_hat=pcfg.eps_hat, admm=pcfg.admm)
        t0 = time.perf_counter()
        triple = state = error = None
        carry = None
        if certified:
            carry = (*secant_start(cfg.lam, *certified), sigma)
        try:
            triple, state = solver(inst, cfg, I0=I0, warm=carry, store=store)
        except SOLVER_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
            state = getattr(exc, "state", None)
        seconds = time.perf_counter() - t0

        # a sieve run, certified or out of rounds, reports its own rounds; a
        # solve that raised any other error has none
        rounds, work, avg_n, avg_m = 0, {}, float(inst.N), float(m)
        if state is not None:
            rounds, recs = state.round, state.records
            work = {key: sum(r[key] for r in recs) for key in WORK}
            avg_n = float(np.mean([r["n_reduced"] for r in recs]))
            avg_m = float(np.mean([r["m_reduced"] for r in recs]))

        residual = gap = objective = np.inf
        num_fused = 0
        if triple is None:
            log.warning("lambda %.4g failed: %s", lam, error)
        else:
            fused = fused_blocks(inst.incidence.apply(triple.x), pcfg.eps_hat)
            residual, gap = triple.residual_norm, triple.gap
            objective = recs[-1]["objective"]  # F at triple.x, from the loop
            num_fused = int(np.count_nonzero(fused))
            certified = [(cfg.lam, triple.x, triple.z), *certified[:1]]
            sigma = recs[-1]["sigma"]
            if pcfg.mode != "direct":
                I0 = np.flatnonzero(fused)
            log.info(
                "lambda %.4g: rounds=%d reduced_n=%.1f residual=%.2e fused=%d (%.2fs)",
                lam, rounds, avg_n, residual, num_fused, seconds,
            )
        result.records.append(LambdaRecord(
            lam=cfg.lam, triple=triple, converged=triple is not None, rounds=rounds,
            avg_reduced_n=avg_n, avg_reduced_m=avg_m, residual=residual, gap=gap,
            objective=objective, seconds=seconds, num_fused=num_fused,
            error=error, **work,
        ))
    return result
