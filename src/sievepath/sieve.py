"""Adaptive sieving: dual recovery, violation screening, and the sieve loops.

The sieve guesses an index set I of zero blocks, solves the reduced problem,
recovers a full-space dual candidate u (minimum-violation choice via an
accelerated projected-gradient refinement on the null space of B_{I gamma}^T,
which stops as soon as u is within the APG tolerance of the balls on I), and
removes the blocks whose dual certificate lands outside its subdifferential
ball. The enhanced variant additionally tries to certify optimality on the
enlarged zero set of the current iterate once the objective stalls, which can
stop the loop before the plain violation test would. With I empty the
reduced problem is the full one and there is nothing to sieve: that run is
the unsieved baseline, the path's direct mode.

A round that finds no violation yet misses eps solves again with a subsolver
tolerance 100x tighter, up to three times, starting from AdmmConfig.tol
(eps/2 when None). A sieve run either returns a triple whose recomputed KKT
residual is <= eps or raises SieveLimitError; it never returns an
uncertified point.

What depends on the candidate set I alone is built once per set and kept in
a BuildStore: the IndexPartition, the subsolver's Newton system (node
order, CSC pattern and slots) and, on first use, the GammaSystem's Gram
factors. Every round, retightening or later lambda that solves a stored I
again reuses them; lam, sigma and every numeric value are recomputed, so
reuse changes no iterate, except through the SuperLU factors of an
assembled Newton matrix, which the system keeps: on one large enough for
reuse to pay (admm's _reuse_weight) they precondition the next solve's
first directions. The
path keeps one store for all its lambdas; seeding each lambda from the
fused blocks of Bx makes I alternate between two sets, so the store keeps
the two most recently used ones. A run without a store gets its own.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._kernels import column_norms, frobenius_norm, project_columns
from .admm import AdmmConfig, _NewtonSystem, solve_reduced_admm
from .graph import build_partition, recover_primal, reduce_problem, unique_indices
from .model import KktTriple, duality_gap, fused_blocks, kkt_residual, primal_objective

log = logging.getLogger(__name__)

VIOLATION_SLACK = 1e-8  # relative slack of the ball-membership test


class SieveLimitError(RuntimeError):
    """The sieve ran out of rounds or retightenings; state is its SieveState,
    whose rounds, Newton steps and round records the path reports."""

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


@dataclass
class ApgConfig:
    eps: float = None  # falls back to half the caller's outer tolerance
    maxiter: int = 30

    def __post_init__(self):
        if self.maxiter < 0:
            raise ValueError(f"apg maxiter must be >= 0, got {self.maxiter!r}")
        if self.eps is not None and not 0.0 <= self.eps < math.inf:
            raise ValueError(f"apg eps must be finite and >= 0, got {self.eps!r}")


@dataclass
class ApgResult:
    d: np.ndarray
    iterations: int
    objective: float  # final h value, 0.5 * dist(u0 + d, K)^2
    converged: bool
    history: list = None


@dataclass
class SieveState:
    """Bookkeeping for one sieve run; sub is the last round's subsolve."""

    round: int
    sub: object = None
    records: list = field(default_factory=list)
    newton_steps: int = 0  # of every subsolve, retightenings included
    cg_steps: int = 0  # likewise
    factorizations: int = 0  # likewise


class GammaSystem:
    """Linear algebra around B_{I gamma}: particular solutions and the
    null-space projector, sharing one sparse factorization per sieve round.

    With the incidence convention B = J^T, B_{I gamma} is Jg^T where
    Jg = J[gamma, I], and B_{I gamma}^T B_{I gamma} = Jg Jg^T is SPD because
    the non-root rows of a connected component's incidence are independent.
    """

    def __init__(self, inst, partition):
        self.Jg = inst.incidence.J[partition.gamma][:, partition.I].tocsc()
        self._JgT = self.Jg.T  # a CSR view, built once for the APG loop
        gram = (self.Jg @ self._JgT).tocsc()
        # SPD, so a symmetric minimum-degree order and no pivoting suffice
        self._factor = sp.linalg.splu(
            gram, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

    def particular(self, R):
        """Min-norm solution U of U Jg^T = -R (stationarity on gamma rows)."""
        S = self._factor.solve(np.ascontiguousarray(R.T))
        return -(self._JgT @ S).T

    def null_project(self, D):
        """Project block matrix D onto {D : D Jg^T = 0}."""
        return D + self.particular((self.Jg @ D.T).T)


class _Built:
    """The structures of one candidate set I: its partition, and, built
    when a round first needs them, the Newton system of its reduced problem
    and its GammaSystem."""

    def __init__(self, inst, I):
        self.inst = inst
        self.partition = build_partition(inst.incidence, I)
        self._newton = self._gram = None

    def newton_system(self, red):
        """The Newton system of red, a reduced problem of this set."""
        if self._newton is None:
            self._newton = _NewtonSystem(red)
        return self._newton

    def gram_system(self):
        """The GammaSystem of the partition."""
        if self._gram is None:
            self._gram = GammaSystem(self.inst, self.partition)
        return self._gram


class BuildStore:
    """The built structures of the SIZE most recently used candidate sets
    of one instance, keyed by the exact set."""

    SIZE = 2

    def __init__(self, inst):
        self.inst = inst
        self._sets = {}  # I.tobytes() -> _Built, least recently used first

    def __len__(self):
        return len(self._sets)

    def get(self, I):
        """(built, fresh) for the sorted index array I: its stored
        structures, or new ones (fresh True) after evicting the least
        recently used set."""
        key = I.tobytes()
        built = self._sets.pop(key, None)
        fresh = built is None
        if fresh:
            if len(self._sets) == self.SIZE:
                del self._sets[next(iter(self._sets))]
            built = _Built(self.inst, I)
        self._sets[key] = built
        return built, fresh


def apg_minimize(u0, radii, null_project, cfg=None, track_history=False):
    """Accelerated projected-gradient refinement of a dual particular solution.

    Minimizes h(d) = 0.5 * dist^2(u0 + d, K) over the null space handled by
    ``null_project``, where K is the product of balls with the given radii.
    The gradient (u0 + d) - Pi_K(u0 + d) is 1-Lipschitz, so the unit step
    needs no line search. Stops at the first step whose distance to K is
    at most cfg.eps, the one quantity certification reads: on I the
    recovered primal is zero, so that distance is the I-part of the KKT
    residual, and further steps could only move the iterate. Also stops
    when h plateaus above that level, or at cfg.maxiter; non-convergence is
    a normal outcome meaning the current index set is wrong. With
    cfg.maxiter = 0 it takes no step and reports h(0).
    """
    cfg = cfg or ApgConfig()
    eps = 1e-6 if cfg.eps is None else float(cfg.eps)
    d = np.zeros_like(u0)
    d_hat = d
    t = 1.0
    history = [] if track_history else None
    h_val = np.inf
    converged = False
    k = 0
    for k in range(1, cfg.maxiter + 1):
        v = u0 + d_hat
        grad = v - project_columns(v, radii)
        d_prev, h_prev = d, h_val
        d = null_project(d_hat - grad)
        dist = _ball_distance(u0 + d, radii)
        h_val = 0.5 * dist * dist
        if track_history:
            history.append(h_val)
        if dist <= eps:
            converged = True
            break
        # plateauing above the certifiable level cannot recover; bail out
        if eps > 0.0 and k >= 3 and h_val > 0.999 * h_prev:
            break
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        d_hat = d + ((t - 1.0) / t_next) * (d - d_prev)
        t = t_next
    if k == 0:
        dist = _ball_distance(u0, radii)
        h_val, converged = 0.5 * dist * dist, dist <= eps
    return ApgResult(d, k, h_val, converged, history)


def _ball_distance(v, radii):
    """dist(v, K) for K the product of column balls with the given radii."""
    return frobenius_norm(v - project_columns(v, radii))


def recover_dual(inst, lam, partition, sub, apg_cfg=None, x_bar=None, gram=None):
    """Build the full-space dual candidate u, a (d, m) array, from a reduced
    solution.

    On I^c, u is the subsolver multiplier bit for bit; on I it is the
    particular stationarity solution plus its APG null-space refinement.
    gram(), when given, returns the GammaSystem of partition (the sieve
    keeps one per candidate set); by default it is built here.
    """
    if x_bar is None:
        x_bar, _ = recover_primal(partition, sub.x_red, sub.y_red)
    u = np.zeros((inst.d, inst.m_blocks))
    u[:, partition.I_c] = sub.xi
    if len(partition.gamma):  # I is nonempty exactly when gamma is
        g = (x_bar - inst.A) + inst.incidence.adjoint(u)
        gs = GammaSystem(inst, partition) if gram is None else gram()
        _complete_dual(inst, lam, partition, gs, g, u, apg_cfg)
    return u


def _complete_dual(inst, lam, partition, gs, g, v, apg_cfg):
    """Fill the I blocks of the dual v, whose I^c blocks are already set and
    whose I blocks are zero; g = (x - A) + B*(v) is the stationarity
    residual of that v and gs the GammaSystem of partition.

    The fill is the min-norm solution of stationarity on the gamma rows plus
    its APG refinement on the null space of B_{I gamma}^T.
    """
    v0 = gs.particular(g[:, partition.gamma])
    radii = lam * inst.weights[partition.I]
    apg = apg_minimize(v0, radii, gs.null_project, apg_cfg)
    v[:, partition.I] = v0 + apg.d


def violation_set(partition, lam, inst, u, slack=VIOLATION_SLACK):
    """Edges of I whose dual candidate u falls outside its subdifferential
    ball.

    The recovered primal is zero on I by construction, so each ball has
    radius lam * w_j; the relative slack keeps boundary blocks from
    thrashing in and out.
    """
    I = partition.I
    if len(I) == 0:
        return np.empty(0, dtype=np.int64)
    norms = column_norms(np.ascontiguousarray(u[:, I]))
    return I[norms > lam * inst.weights[I] * (1.0 + slack)]


def _fill_bound(partition, g):
    """A lower bound on ||(x - A) + B*(v + f)||^2 over every fill f that is
    zero off partition.I, given g = (x - A) + B*(v).

    A fill block moves weight between the two ends of its edge, so the sum
    S_C of g over a reduced column C of the partition (a connected
    component of the I-subgraph, singletons included) is the same for
    every fill, and by Cauchy-Schwarz the residual on C is at least
    ||S_C||^2 / |C|.
    """
    S = partition.sums(g)
    return float(np.sum(np.einsum("ij,ij->j", S, S) / np.bincount(partition.pos)))


def eas_certify(inst, lam, x_bar, eps, eps_hat=2e-16, apg_cfg=None):
    """Try to certify x_bar as optimal via its own zero pattern.

    Rebuilds the index machinery on the enlarged set of near-zero blocks of
    B x_bar, pins the dual to the singleton subgradient on the nonzero
    blocks, recovers the free dual blocks by the same particular-plus-APG
    construction, and accepts iff the full KKT residual meets eps. When no
    fill can bring the residual of the pinned dual down to eps
    (_fill_bound, read off the partition), it rejects before computing the
    fill. Returns None when certification fails, in which case sieving
    continues on the violation test.
    """
    y_t = inst.incidence.apply(x_bar)
    fused = fused_blocks(y_t, eps_hat)
    I_t = np.flatnonzero(fused)
    v = np.zeros_like(y_t)
    free = ~fused
    if np.any(free):
        v[:, free] = y_t[:, free] * (lam * inst.weights[free] / column_norms(y_t[:, free]))
    g = (x_bar - inst.A) + inst.incidence.adjoint(v)
    partition = build_partition(inst.incidence, I_t)
    if _fill_bound(partition, g) > eps * eps:
        return None
    if len(I_t):
        y_t[:, I_t] = 0.0
        _complete_dual(inst, lam, partition, GammaSystem(inst, partition), g, v, apg_cfg)
    if kkt_residual(inst, lam, x_bar, y_t, v) <= eps:
        return KktTriple.from_point(inst, lam, x_bar, y_t, v)
    return None


def _restricted_warm(warm, partition, red):
    """Project a full-space (x, z) or (x, z, sigma) warm start onto a
    reduced problem; a carried subsolver sigma passes through unchanged."""
    x_full, z_full = warm[:2]
    X = np.ascontiguousarray(x_full[:, partition.rep])
    Z = np.ascontiguousarray(z_full[:, partition.I_c])
    return (X, red.inc.apply(X), Z, *warm[2:])


def _sieve_loop(inst, cfg, I0, enhanced, warm=None, store=None):
    if store is None:
        store = BuildStore(inst)
    elif store.inst is not inst:
        raise ValueError("the build store belongs to another instance")
    lam = cfg.lam
    m = inst.m_blocks
    I = np.arange(m, dtype=np.int64) if I0 is None else unique_indices(I0)
    # a round that does not certify shrinks I, so this limit is never hit
    max_rounds = len(I) + 1
    admm_cfg = cfg.admm or AdmmConfig()
    apg_base = cfg.apg or ApgConfig()
    sub_tol = 0.5 * cfg.eps if admm_cfg.tol is None else float(admm_cfg.tol)
    apg_eps = apg_base.eps if apg_base.eps is not None else 0.5 * cfg.eps
    apg_iter = apg_base.maxiter

    state = SieveState(round=0)
    carry = warm  # (x_full, z_full[, sigma]) from the caller or the last round
    F_prev = None  # objective at the end of the previous round

    for rnd in range(max_rounds):
        state.round = rnd + 1
        built, fresh = store.get(I)
        partition = built.partition
        red = reduce_problem(inst, partition, lam)
        warm_red = None
        if carry is not None:
            warm_red = _restricted_warm(carry, partition, red)

        tol_cur, apg_cur = sub_tol, apg_iter
        for attempt in range(4):
            sub = solve_reduced_admm(red, tol_cur, admm_cfg, warm=warm_red,
                                     system=built.newton_system)
            state.newton_steps += sub.iterations
            state.cg_steps += sub.cg_steps
            state.factorizations += sub.factorizations
            x_bar, y_bar = recover_primal(partition, sub.x_red, sub.y_red)
            F_val = primal_objective(inst, lam, x_bar)
            state.sub = sub

            if enhanced and F_prev is not None and abs(F_val - F_prev) <= cfg.eps:
                cert = eas_certify(
                    inst, lam, x_bar, cfg.eps, cfg.eps_hat,
                    ApgConfig(eps=apg_eps, maxiter=apg_cur),
                )
                if cert is not None:
                    state.records.append(_record(rnd, partition, sub, cert.residual_norm, F_val, 0, tol_cur, True, fresh))
                    log.info("round %d: certified early, residual %.3e", rnd + 1, cert.residual_norm)
                    return cert, state

            u = recover_dual(
                inst, lam, partition, sub,
                ApgConfig(eps=apg_eps, maxiter=apg_cur), x_bar=x_bar,
                gram=built.gram_system,
            )
            res = kkt_residual(inst, lam, x_bar, y_bar, u)
            if res <= cfg.eps:
                state.records.append(_record(rnd, partition, sub, res, F_val, 0, tol_cur, False, fresh))
                log.info("round %d: residual %.3e <= eps", rnd + 1, res)
                gap = duality_gap(inst, lam, x_bar, u)
                return KktTriple(x=x_bar, y=y_bar, z=u, residual_norm=res, gap=gap), state

            J = violation_set(partition, lam, inst, u)
            if len(J):
                break
            # no violations yet residual too large: the subsolve was too
            # loose, so tighten within the same round
            tol_cur *= 0.01
            apg_cur *= 10
            warm_red = sub.warm_start()
            log.info(
                "round %d: no violations at residual %.3e, retightening to %.1e",
                rnd + 1, res, tol_cur,
            )
        else:
            state.records.append(_record(rnd, partition, sub, res, F_val, 0, tol_cur, False, fresh))
            raise SieveLimitError(
                f"no violations but residual {res:.3e} > eps after retightening", state
            )

        state.records.append(_record(rnd, partition, sub, res, F_val, len(J), tol_cur, False, fresh))
        log.info(
            "round %d: residual %.3e, removing %d of %d candidate blocks",
            rnd + 1, res, len(J), len(I),
        )
        I = np.setdiff1d(I, J, assume_unique=True)
        carry = (x_bar, u, sub.sigma)
        F_prev = F_val

    raise SieveLimitError(f"sieve did not certify within {max_rounds} rounds", state)


def _record(rnd, partition, sub, res, F_val, n_viol, tol, certified, built):
    """One round's record; built says that the round's candidate set was
    not stored, so the round built its partition (and the Newton system and
    Gram factors that it used)."""
    return {
        "round": rnd + 1,
        "n_reduced": partition.n_reduced,
        "m_reduced": len(partition.I_c),
        "admm_iterations": sub.iterations,
        "kkt_residual": res,
        "objective": F_val,
        "violations": n_viol,
        "subsolver_tol": tol,
        "certified_early": certified,
        "built": built,
    }


def as_solve(inst, cfg, I0=None, warm=None, store=None):
    """Adaptive sieving for one lambda; returns (KktTriple, SieveState).

    Starting from the candidate zero set I0 (all blocks when omitted), each
    round solves the reduced problem, recovers a dual candidate, and either
    certifies the point or strips I of its violating blocks; I shrinks
    strictly, so at most len(I0) + 1 rounds ever run. warm is a full-space
    (x, z) pair, optionally followed by the subsolver sigma to resume with.
    store is a BuildStore of inst shared with other solves, such as the
    other lambdas of a path; None uses one of this solve's own.
    """
    return _sieve_loop(inst, cfg, I0, enhanced=False, warm=warm, store=store)


def eas_solve(inst, cfg, I0=None, warm=None, store=None):
    """Sieve with early optimality certification; never more rounds than as_solve.

    Identical to as_solve except that once consecutive objectives agree to
    eps (possible from the second round on), the current iterate's own zero
    pattern is used to attempt a direct optimality certificate before any
    further sieving.
    """
    return _sieve_loop(inst, cfg, I0, enhanced=True, warm=warm, store=store)
