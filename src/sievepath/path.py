"""Solution-path driver: sweep a decreasing lambda grid with warm starts.

Each lambda is solved by the sieve (or the plain subsolver in direct mode);
the zero pattern of the certified solution seeds the next lambda's candidate
set, and the full-space primal/dual pair, with the subsolver penalty sigma it
ended on, warm-starts the next subsolver.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from ._kernels import column_norms
from .admm import SingularSystemError, solve_full
from .model import InfeasibleDualError, SolveConfig
from .sieve import SieveLimitError, as_solve, eas_solve
from .graph import recover_primal

log = logging.getLogger(__name__)

MODES = ("as", "eas", "direct")

# what a solve may raise on a numerical failure; the path records it on that
# lambda and goes on, and the CLI reports it as a failed solve. Anything else
# is a defect and propagates.
SOLVER_ERRORS = (SieveLimitError, SingularSystemError, InfeasibleDualError)


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
    eps: float = 1e-6
    eps_hat: float = 2e-16
    mode: str = "as"
    init_all_blocks: bool = True  # I0(lambda_1) = all blocks vs empty
    warm_start: bool = True
    max_sieve_rounds: int = None
    admm: object = None
    apg: object = None

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)
        if len(self.lambdas) == 0:
            raise ValueError("lambda grid is empty")
        if np.any(self.lambdas <= 0):
            raise ValueError("lambdas must be positive")
        if len(self.lambdas) > 1 and np.any(np.diff(self.lambdas) >= 0):
            raise ValueError("lambdas must be strictly decreasing")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class LambdaRecord:
    """Outcome and diagnostics of one grid point."""

    lam: float
    triple: object  # KktTriple; None only when the solve failed outright
    converged: bool
    rounds: int
    avg_reduced_n: float
    avg_reduced_m: float
    residual: float
    gap: float
    objective: float
    seconds: float
    num_fused: int
    certified_early: bool = False
    error: str = None


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
            "average_rounds": self.total_rounds / n if n else 0.0,
            "average_reduced_n": (
                float(np.mean([r.avg_reduced_n for r in self.records])) if n else 0.0
            ),
            "average_reduced_m": (
                float(np.mean([r.avg_reduced_m for r in self.records])) if n else 0.0
            ),
            "total_seconds": self.total_seconds,
            "max_residual": (
                float(max(r.residual for r in self.records)) if n else 0.0
            ),
            "all_converged": self.all_converged,
            "failed_lambdas": [r.lam for r in self.records if not r.converged],
        }


def _objective(inst, lam, triple):
    from .model import primal_objective

    return primal_objective(inst, lam, triple.x)


def solve_path(inst, pcfg=None):
    """Run the lambda sweep; per-lambda failures are recorded, not raised.

    A lambda whose solve raises one of SOLVER_ERRORS gets a record with
    triple None and the error; the next lambda starts from the warm start
    the failed one was given.
    """
    pcfg = pcfg or PathConfig()
    result = PathResult(inst=inst, config=pcfg)
    m = inst.m_blocks
    I0 = np.arange(m, dtype=np.int64) if pcfg.init_all_blocks else np.empty(0, np.int64)
    carry = None

    for lam in pcfg.lambdas:
        cfg = SolveConfig(
            lam=float(lam), eps=pcfg.eps, eps_hat=pcfg.eps_hat,
            max_sieve_rounds=pcfg.max_sieve_rounds, admm=pcfg.admm, apg=pcfg.apg,
        )
        t0 = time.perf_counter()
        error = None
        certified_early = False
        try:
            if pcfg.mode == "direct":
                warm_full = None
                if carry is not None:
                    x_prev, z_prev, sigma_prev = carry
                    warm_full = (x_prev, inst.incidence.apply(x_prev), z_prev, sigma_prev)
                triple, sub = solve_full(inst, cfg.lam, 0.5 * cfg.eps, pcfg.admm, warm=warm_full)
                sigma = sub.sigma
                rounds, avg_n, avg_m = 1, float(inst.N), float(m)
                if triple.residual_norm > cfg.eps:
                    error = f"direct solve residual {triple.residual_norm:.3e} > eps"
            else:
                solver = eas_solve if pcfg.mode == "eas" else as_solve
                triple, state = solver(inst, cfg, I0=I0, warm=carry)
                rounds = state.round
                sigma = state.sub.sigma
                avg_n = float(np.mean([r["n_reduced"] for r in state.records]))
                avg_m = float(np.mean([r["m_reduced"] for r in state.records]))
                certified_early = state.certified_early
        except SieveLimitError as exc:
            state = exc.state
            error = str(exc)
            rounds = state.round
            avg_n = float(np.mean([r["n_reduced"] for r in state.records])) if state.records else float(inst.N)
            avg_m = float(np.mean([r["m_reduced"] for r in state.records])) if state.records else float(m)
            triple = None
            if state.partition is not None and state.sub is not None:
                from .model import KktTriple

                x_bar, y_bar = recover_primal(state.partition, state.sub.x_red, state.sub.y_red)
                z = state.dual.u if state.dual is not None else np.zeros((inst.d, m))
                triple = KktTriple.from_point(inst, cfg.lam, x_bar, y_bar, z)
                sigma = state.sub.sigma
        except SOLVER_ERRORS as exc:
            log.warning("lambda %.4g: solver raised", lam, exc_info=True)
            error = f"{type(exc).__name__}: {exc}"
            triple, rounds, avg_n, avg_m = None, 0, float(inst.N), float(m)
        seconds = time.perf_counter() - t0

        if triple is None:
            record = LambdaRecord(
                lam=float(lam), triple=None, converged=False, rounds=rounds,
                avg_reduced_n=avg_n, avg_reduced_m=avg_m, residual=np.inf,
                gap=np.inf, objective=np.inf, seconds=seconds, num_fused=0,
                error=error,
            )
            result.records.append(record)
            log.warning("lambda %.4g failed: %s", lam, error)
            continue

        fused = column_norms(inst.incidence.apply(triple.x)) < pcfg.eps_hat
        record = LambdaRecord(
            lam=float(lam),
            triple=triple,
            converged=error is None and triple.residual_norm <= cfg.eps,
            rounds=rounds,
            avg_reduced_n=avg_n,
            avg_reduced_m=avg_m,
            residual=triple.residual_norm,
            gap=triple.gap,
            objective=_objective(inst, cfg.lam, triple),
            seconds=seconds,
            num_fused=int(np.count_nonzero(fused)),
            certified_early=certified_early,
            error=error,
        )
        result.records.append(record)
        log.info(
            "lambda %.4g: rounds=%d reduced_n=%.1f residual=%.2e fused=%d (%.2fs)",
            lam, rounds, avg_n, record.residual, record.num_fused, seconds,
        )

        I0 = np.flatnonzero(fused)
        if pcfg.warm_start:
            carry = (triple.x, triple.z, sigma)
    return result
