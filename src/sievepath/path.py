"""Solution-path driver: sweep a decreasing lambda grid with warm starts.

Each lambda is solved by the sieve (or the plain subsolver in direct mode)
and ends in one of two ways. It certifies: its triple has a recomputed KKT
residual <= eps. Its fused blocks then seed the next lambda's candidate set,
and the full-space primal/dual pair, with the subsolver penalty sigma it
ended on, warm-starts the next subsolver. Or it fails: its record has no
triple, an error "<Type>: <message>" and inf residual, gap and objective,
and the next lambda starts from the last certified one.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .admm import AdmmConfig, SingularSystemError, solve_full
from .model import (InfeasibleDualError, SolveConfig, check_tolerances, fused_blocks,
                    primal_objective)
from .sieve import SieveLimitError, as_solve, eas_solve

log = logging.getLogger(__name__)

MODES = ("as", "eas", "direct")


class UncertifiedError(RuntimeError):
    """A solve returned a point whose recomputed KKT residual exceeds eps."""


# what a solve may raise on a numerical failure; the path records it on that
# lambda and goes on, and the CLI reports it as a failed solve. Anything else
# is a defect and propagates.
SOLVER_ERRORS = (SieveLimitError, SingularSystemError, InfeasibleDualError, UncertifiedError)


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
    max_sieve_rounds: int = None
    admm: object = None
    apg: object = None

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)
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
    num_fused: int
    error: str = None
    newton_steps: int = 0  # of every subsolve of this lambda
    cg_steps: int = 0  # likewise
    factorizations: int = 0  # likewise; SuperLU, order probes not counted


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


def solve_path(inst, pcfg=None):
    """Run the lambda sweep; per-lambda failures are recorded, not raised.

    A lambda whose solve raises one of SOLVER_ERRORS, or whose point misses
    eps, gets a record with triple None and the error; the next lambda
    starts from the candidate set and warm start of the last certified one.
    """
    pcfg = pcfg or PathConfig()
    result = PathResult(inst=inst, config=pcfg)
    m = inst.m_blocks
    sub_tol = (pcfg.admm or AdmmConfig()).start_tol(pcfg.eps)
    I0 = np.arange(m, dtype=np.int64)
    carry = None

    for lam in pcfg.lambdas:
        cfg = SolveConfig(
            lam=float(lam), eps=pcfg.eps, eps_hat=pcfg.eps_hat,
            max_sieve_rounds=pcfg.max_sieve_rounds, admm=pcfg.admm, apg=pcfg.apg,
        )
        t0 = time.perf_counter()
        triple = sub = state = error = None
        try:
            if pcfg.mode == "direct":
                warm_full = None
                if carry is not None:
                    x_prev, z_prev, sigma_prev = carry
                    warm_full = (x_prev, inst.incidence.apply(x_prev), z_prev, sigma_prev)
                triple, sub = solve_full(inst, cfg.lam, sub_tol, pcfg.admm, warm=warm_full)
            else:
                solver = eas_solve if pcfg.mode == "eas" else as_solve
                triple, state = solver(inst, cfg, I0=I0, warm=carry)
                sub = state.sub
            if triple.residual_norm > cfg.eps:
                raise UncertifiedError(f"residual {triple.residual_norm:.3e} > eps {cfg.eps:.1e}")
        except SOLVER_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
            triple, state = None, getattr(exc, "state", state)
        seconds = time.perf_counter() - t0

        # a sieve run, certified or out of rounds, reports its own rounds; a
        # direct solve is one full-size round; a solve that raised has none
        if state is not None and state.records:
            rounds = state.round
            work = {"newton_steps": state.newton_steps, "cg_steps": state.cg_steps,
                    "factorizations": state.factorizations}
            avg_n = float(np.mean([r["n_reduced"] for r in state.records]))
            avg_m = float(np.mean([r["m_reduced"] for r in state.records]))
        else:
            rounds, work = 0, {}
            if sub is not None:
                rounds, work = 1, {"newton_steps": sub.iterations, "cg_steps": sub.cg_steps,
                                   "factorizations": sub.factorizations}
            avg_n, avg_m = float(inst.N), float(m)

        residual = gap = objective = np.inf
        num_fused = 0
        if triple is None:
            log.warning("lambda %.4g failed: %s", lam, error)
        else:
            fused = fused_blocks(inst.incidence.apply(triple.x), pcfg.eps_hat)
            residual, gap = triple.residual_norm, triple.gap
            objective = primal_objective(inst, cfg.lam, triple.x)
            num_fused = int(np.count_nonzero(fused))
            I0, carry = np.flatnonzero(fused), (triple.x, triple.z, sub.sigma)
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
