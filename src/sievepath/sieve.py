"""Adaptive sieving: dual recovery, violation screening, and the sieve loops.

The sieve guesses an index set I of zero blocks and runs rounds. A round
solves the reduced problem, recovers a full-space dual candidate u (the
particular stationarity solution, refined by accelerated projected gradient
on the null space of B_{I gamma}^T until u is within eps/2 of the balls
on I), and either certifies the point or removes from I the blocks whose
dual lands outside its subdifferential ball. The APG discards
a step that raises its objective and restarts its momentum from the kept
iterate; it stops as plateaued after two discarded steps in a row or a
kept step that gains less than 0.1%. An overshoot left in u would remove
blocks that never violated. The projection
onto that null space (GammaSystem) solves with the Gram factors of
B_{I gamma} and applies B_{I gamma} through an IncidenceMap of the I edges.
Once the objective stalls, the enhanced variant first tries to certify the
iterate on its own enlarged zero set. A round that finds no violation yet
misses eps solves again with a subsolver tolerance 100x tighter, up to
three times, starting from SUBSOLVE_SHARE * eps = eps/2. Each round
appends one record, with the work of all its subsolves and APG runs, to
the run's SieveState. A run returns a triple whose recomputed KKT residual
is <= eps or raises SieveLimitError, never an uncertified point. With I
empty there is nothing to sieve: the reduced problem is the full one, the
path's direct mode.

What depends on I alone (the IndexPartition, the reduced problem, whose lam
is rebound at every round, the subsolver's Newton system: node order, CSC
pattern and slots, and, from the set's first dual recovery on, the
GammaSystem's Gram factors) is built once per set, kept in a BuildStore,
and reused by every round, retightening or next lambda that solves the
same I again. The store holds one set: a new I drops the old set's
structures, and so frees their factors, before its own are built. lam,
sigma and every numeric value are recomputed, so reuse changes no
iterate, except through the SuperLU factors that an assembled Newton
matrix keeps: on one large enough for reuse to pay (admm's _reuse_weight)
they precondition the next solve's first directions. A path shares one
store across its lambdas; a run without a store gets its own. The warm start is the caller's: a path
passes the secant prediction from its last two certified lambdas
(path.secant_start), once it has two.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from ._kernels import column_norms, frobenius_norm, project_columns
from .admm import _factor, _NewtonSystem, solve_reduced_admm
from .graph import IncidenceMap, build_partition, recover_primal, reduce_problem, unique_indices
from .model import (KktTriple, SolveConfig, duality_gap, fused_blocks, kkt_residual,
                    primal_objective, step_cap)

log = logging.getLogger(__name__)

VIOLATION_SLACK = 1e-8  # relative slack of the ball-membership test
SUBSOLVE_SHARE = 0.5  # a round's first subsolve stops at this share of eps


class SieveLimitError(RuntimeError):
    """The sieve ran out of rounds or retightenings; state is its SieveState,
    whose records, one per round with its round's work, the path reports."""

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


@dataclass
class ApgConfig:
    maxiter: int = 30  # steps per APG run; each retightening of a round multiplies it by 10

    def __post_init__(self):
        self.maxiter = step_cap("apg maxiter", self.maxiter, 0)


@dataclass
class ApgResult:
    d: np.ndarray
    iterations: int
    objective: float  # final h value, 0.5 * dist(u0 + d, K)^2
    converged: bool
    history: list  # the kept iterate's h after every step
    restarts: int = 0  # discarded steps, each followed by a momentum restart


@dataclass
class SieveState:
    """One sieve run: one record per round it has started, appended before
    the round returns or raises; round is their count. A record is a dict:
    round, n_reduced, m_reduced, built (the round built its set's
    structures), kkt_residual, objective, certified_early, violations (the
    blocks removed from I), subsolver_tol (of the last subsolve), sigma
    (the last subsolve ended with), retightenings, the newton_steps,
    cg_steps and factorizations of all the round's subsolves,
    apg_iterations and apg_restarts (the steps and the discarded steps of
    all its APG runs, eas_certify's included) and apg_converged (whether
    the last recover_dual APG converged; None when no recover_dual of the
    round ran one)."""

    records: list = field(default_factory=list)

    @property
    def round(self):
        return len(self.records)


class GammaSystem:
    """Linear algebra around B_{I gamma}: particular solutions and the
    null-space projector, sharing one factorization of the Gram matrix per
    candidate set, made when the set first recovers a dual (admm._factor).

    With the incidence convention B = J^T, B_{I gamma} is Jg^T where
    Jg = J[gamma, I], and B_{I gamma}^T B_{I gamma} = Jg Jg^T is SPD because
    the non-root rows of a connected component's incidence are independent.

    Both products go through inc, the IncidenceMap of the I edges over the
    gamma rows plus one ground row that stands for every root: Jg is its J
    without the ground row, so D Jg^T is inc.adjoint(D) without the ground
    column, and Jg^T S is inc.apply of S with a zero ground column. Both
    equal the sparse-matrix products bit for bit.
    """

    def __init__(self, inst, partition):
        gamma, I = partition.gamma, partition.I
        # each end of an I edge as its gamma row; a root as the ground row
        row = np.full(inst.N, len(gamma), dtype=np.int64)
        row[gamma] = np.arange(len(gamma))
        self.inc = IncidenceMap(len(gamma) + 1, row[inst.edge_i[I]], row[inst.edge_j[I]])
        Jg = self.inc.J[:-1].tocsc()
        # SPD, so a symmetric minimum-degree order and no pivoting suffice
        self._factor = _factor((Jg @ Jg.T).tocsc(), "MMD_AT_PLUS_A")

    def _spread(self, R):
        """(Jg^T S)^T for the solution S of Jg Jg^T S = R^T."""
        # the solve returns S in column order, so S^T is rows of coordinates
        S = self._factor.solve(R.T).T
        U = self.inc.apply(np.concatenate([S, np.zeros((len(S), 1))], axis=1))
        # the sparse product sums from +0.0, so it never returns -0.0
        U += 0.0
        return U

    def particular(self, R):
        """Min-norm solution U of U Jg^T = -R (stationarity on gamma rows)."""
        U = self._spread(R)
        return np.negative(U, out=U)

    def null_project(self, D):
        """Project block matrix D onto {D : D Jg^T = 0}."""
        # D - V is D + (-V) to the bit, so this is D + particular(D Jg^T)
        return D - self._spread(self.inc.adjoint(D)[:, :-1])


class BuildStore:
    """The structures of one instance's current candidate set I. Its
    partition, its reduced problem red and the Newton system of red
    (newton, None when red has no blocks) are built together when the set
    changes, since every round on a new set uses them; its GammaSystem
    (gram) is built on first read."""

    def __init__(self, inst):
        self.inst = inst
        self.partition = self.red = self.newton = self._gram = None

    def get(self, I, lam):
        """Make the sorted index array I the current set, at lam; True
        (fresh) when it differs from the last one, whose structures are then
        dropped before the new set's are built, so that their factors are
        freed first. red's h, C, inc and weights depend on I alone, so only
        its lam is rebound on every call."""
        fresh = self.partition is None or not np.array_equal(I, self.partition.I)
        if fresh:
            self.partition = self.red = self.newton = self._gram = None
            self.partition = build_partition(self.inst.incidence, I)
            self.red = reduce_problem(self.inst, self.partition, lam)
            self.newton = _NewtonSystem(self.red) if self.red.m_red else None
        self.red.lam = float(lam)
        return fresh

    @property
    def gram(self):
        """The GammaSystem of the partition, None when I is empty; built
        when a round first recovers a dual on the set, which a round that
        eas certifies early never does."""
        if self._gram is None and len(self.partition.gamma):
            self._gram = GammaSystem(self.inst, self.partition)
        return self._gram


def apg_minimize(u0, radii, null_project, eps, maxiter):
    """Accelerated projected-gradient refinement of a dual particular solution.

    Minimizes h(d) = 0.5 * dist^2(u0 + d, K) over the null space handled by
    ``null_project``, where K is the product of balls with the given radii.
    The gradient (u0 + d) - Pi_K(u0 + d) is 1-Lipschitz, so the unit step
    needs no line search. Stops at the first step whose distance to K is
    at most eps, the one quantity certification reads: on I the
    recovered primal is zero, so that distance is the I-part of the KKT
    residual, and further steps could only move the iterate.

    A step that raises h above the kept iterate's is discarded and the
    momentum restarts from the kept iterate (function-value adaptive
    restart): FISTA overshoots without having plateaued, and the step after
    a restart is a plain projected-gradient step, which cannot raise h. So
    two discarded steps in a row, or a kept step that lowers h by less than
    0.1% from the third step on, mean h has plateaued above the certifiable
    level, and the run stops there; with eps = 0 it never stops early.
    Otherwise it stops at maxiter, which counts discarded steps too,
    since each costs a projection. Non-convergence is a normal outcome
    meaning the current index set is wrong. With maxiter = 0 it takes
    no step and reports h(0).

    The returned d is the kept iterate, restarts the number of discarded
    steps, and history holds the kept iterate's h after every step, so it
    never rises and has one entry per iteration.
    """
    d = np.zeros_like(u0)
    d_prev = d_hat = d
    t = 1.0
    history = []
    h_val = h_prev = np.inf
    converged = False
    k = restarts = discarded = 0  # discarded: steps discarded in a row
    for k in range(1, maxiter + 1):
        v = u0 + d_hat
        grad = np.subtract(v, project_columns(v, radii), out=v)
        d_new = null_project(np.subtract(d_hat, grad, out=grad))
        dist = _ball_distance(u0 + d_new, radii)
        h_new = 0.5 * dist * dist
        # the kept iterate is farther than eps from K, so a step that raises h is too
        discarded = discarded + 1 if h_new > h_val else 0
        if discarded:  # momentum overshot: keep d and restart from it
            restarts += 1
            d_hat, t = d, 1.0
        else:
            d_prev, h_prev, d, h_val = d, h_val, d_new, h_new
        history.append(h_val)
        if dist <= eps:
            converged = True
            break
        # plateauing above the certifiable level cannot recover; bail out
        if eps > 0.0 and (discarded == 2 or (
                not discarded and k >= 3 and h_val > 0.999 * h_prev)):
            break
        if not discarded:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            d_hat = d + ((t - 1.0) / t_next) * (d - d_prev)
            t = t_next
    if k == 0:
        dist = _ball_distance(u0, radii)
        h_val, converged = 0.5 * dist * dist, dist <= eps
    return ApgResult(d, k, h_val, converged, history, restarts)


def _ball_distance(v, radii):
    """dist(v, K) for K the product of column balls with the given radii:
    the norm of each column's excess over its radius, so no projection of v
    is formed."""
    excess = column_norms(v)
    excess -= radii
    return frobenius_norm(np.maximum(excess, 0.0, out=excess))


def recover_dual(inst, lam, partition, sub, x_bar, gram, eps, maxiter, apg_log=None):
    """Build the full-space dual candidate u, a (d, m) array, from a reduced
    solution sub and its recovered primal x_bar, for a solve to eps.

    On I^c, u is the subsolver multiplier bit for bit; on I it is the
    particular stationarity solution plus its APG null-space refinement of
    at most maxiter steps. gram is the GammaSystem of partition, which the
    sieve keeps per candidate set (BuildStore); None when I is empty.
    apg_log, a list when given, gets the ApgResult of the APG run, if one
    ran.
    """
    u = np.zeros((inst.d, inst.m_blocks))
    u[:, partition.I_c] = sub.xi
    if len(partition.gamma):  # I is nonempty exactly when gamma is
        g = (x_bar - inst.A) + inst.incidence.adjoint(u)
        _complete_dual(inst, lam, partition, gram, g, u, eps, maxiter, apg_log)
    return u


def _complete_dual(inst, lam, partition, gs, g, v, eps, maxiter, apg_log=None):
    """Fill the I blocks of the dual v, whose I^c blocks are already set and
    whose I blocks are zero; g = (x - A) + B*(v) is the stationarity
    residual of that v and gs the GammaSystem of partition.

    The fill is the min-norm solution of stationarity on the gamma rows plus
    its APG refinement on the null space of B_{I gamma}^T, run until the
    fill is within eps/2 of its balls, half the solve's tolerance. apg_log,
    a list when given, gets the APG's ApgResult.
    """
    v0 = gs.particular(g[:, partition.gamma])
    radii = lam * inst.weights[partition.I]
    apg = apg_minimize(v0, radii, gs.null_project, 0.5 * eps, maxiter)
    v[:, partition.I] = v0 + apg.d
    if apg_log is not None:
        apg_log.append(apg)


def violation_set(partition, lam, inst, u):
    """Edges of I whose dual candidate u falls outside its subdifferential
    ball.

    The recovered primal is zero on I by construction, so each ball has
    radius lam * w_j; the relative slack VIOLATION_SLACK keeps boundary
    blocks from thrashing in and out.
    """
    I = partition.I
    if len(I) == 0:
        return np.empty(0, dtype=np.int64)
    norms = column_norms(np.ascontiguousarray(u[:, I]))
    return I[norms > lam * inst.weights[I] * (1.0 + VIOLATION_SLACK)]


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


def eas_certify(inst, lam, x_bar, eps, maxiter, eps_hat=SolveConfig.eps_hat, apg_log=None):
    """Try to certify x_bar as optimal via its own zero pattern.

    Rebuilds the index machinery on the enlarged set of near-zero blocks of
    B x_bar, pins the dual to the singleton subgradient on the nonzero
    blocks, recovers the free dual blocks by the same particular-plus-APG
    construction (an APG of at most maxiter steps), and accepts iff the
    full KKT residual meets eps. When no fill can bring the residual of the
    pinned dual down to eps (_fill_bound, read off the partition), it
    rejects before computing the fill. Returns None when certification
    fails, in which case sieving continues on the violation test. apg_log,
    a list when given, gets the ApgResult of the APG run, if one ran.
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
        _complete_dual(inst, lam, partition, GammaSystem(inst, partition), g, v, eps, maxiter,
                       apg_log)
    res = kkt_residual(inst, lam, x_bar, y_t, v)
    if res <= eps:
        return KktTriple(x=x_bar, y=y_t, z=v, residual_norm=res,
                         gap=duality_gap(inst, lam, x_bar, v))
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
    I = np.arange(inst.m_blocks, dtype=np.int64) if I0 is None else unique_indices(I0)
    # a round that does not certify shrinks I, so this limit is never hit
    max_rounds = len(I) + 1
    apg_maxiter = (cfg.apg or ApgConfig()).maxiter

    state = SieveState()
    carry = warm  # (x_full, z_full[, sigma]) from the caller or the last round
    F_prev = None  # objective at the end of the previous round

    for rnd in range(1, max_rounds + 1):
        fresh = store.get(I, lam)
        partition, red = store.partition, store.red
        warm_red = None if carry is None else _restricted_warm(carry, partition, red)
        tol_cur, apg_iter = SUBSOLVE_SHARE * cfg.eps, apg_maxiter
        work = dict.fromkeys(("newton_steps", "cg_steps", "factorizations"), 0)
        eas_apg, dual_apg = [], []  # the ApgResults of the round's APG runs
        triple, early = None, False
        for retightenings in range(4):
            if retightenings:  # no violation, yet eps missed: the subsolve was too loose
                tol_cur *= 0.01
                apg_iter *= 10
                warm_red = sub.warm_start()
                log.info("round %d: no violations at residual %.3e, retightening to %.1e",
                         rnd, res, tol_cur)
            sub = solve_reduced_admm(red, tol_cur, cfg.admm, warm=warm_red, system=store.newton)
            work["newton_steps"] += sub.iterations
            work["cg_steps"] += sub.cg_steps
            work["factorizations"] += sub.factorizations
            x_bar, y_bar = recover_primal(partition, sub.x_red, sub.y_red)
            F_val = primal_objective(inst, lam, x_bar)

            if enhanced and F_prev is not None and abs(F_val - F_prev) <= cfg.eps:
                triple = eas_certify(inst, lam, x_bar, cfg.eps, apg_iter, cfg.eps_hat,
                                     apg_log=eas_apg)
                if triple is not None:
                    early, res = True, triple.residual_norm
                    break
            u = recover_dual(inst, lam, partition, sub, x_bar, store.gram, cfg.eps, apg_iter,
                             apg_log=dual_apg)
            res = kkt_residual(inst, lam, x_bar, y_bar, u)
            if res <= cfg.eps:
                triple = KktTriple(x=x_bar, y=y_bar, z=u, residual_norm=res,
                                   gap=duality_gap(inst, lam, x_bar, u))
                break
            J = violation_set(partition, lam, inst, u)
            if len(J):
                break

        state.records.append(dict(
            round=rnd, n_reduced=partition.n_reduced, m_reduced=len(partition.I_c),
            built=fresh, kkt_residual=res, objective=F_val, certified_early=early,
            violations=0 if triple is not None else len(J), subsolver_tol=tol_cur,
            retightenings=retightenings, sigma=sub.sigma, **work,
            apg_iterations=sum(r.iterations for r in eas_apg + dual_apg),
            apg_restarts=sum(r.restarts for r in eas_apg + dual_apg),
            apg_converged=dual_apg[-1].converged if dual_apg else None,
        ))
        if triple is not None:
            log.info("round %d: %s, residual %.3e", rnd,
                     "certified early" if early else "certified", res)
            return triple, state
        if not len(J):
            raise SieveLimitError(f"no violations but residual {res:.3e} > eps after "
                                  "retightening", state)
        log.info("round %d: residual %.3e, removing %d of %d candidate blocks",
                 rnd, res, len(J), len(I))
        I = np.setdiff1d(I, J, assume_unique=True)
        carry = (x_bar, u, sub.sigma)
        F_prev = F_val

    raise SieveLimitError(f"sieve did not certify within {max_rounds} rounds", state)


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
