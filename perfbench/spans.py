"""Span tracer that times sievepath's layers from outside the solver.

Each traced function is replaced, for the duration of a ``Tracer`` context,
by a wrapper installed at the module-level name its callers look up (for
example ``sievepath.sieve.build_partition``, which ``_sieve_loop`` calls).
Nothing under ``src/`` is edited. Spans carry a name, start, end and parent
index and are kept in memory until the caller writes them out.
"""

import contextlib
import functools
import time
import types

import numpy as np


class Tracer:
    """Install span-recording wrappers; restore the originals on exit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self._stack = []
        self._patched = []

    # -- span recording -------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body of a ``with`` block."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` by a traced wrapper until ``restore``.

        ``on_result(tracer, args, result)`` runs after each call returns and
        records counts taken from the arguments or the result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(idx)
            self.count(name + ".calls")
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis ---------------------------------------------------------

    def totals(self, root):
        """Inclusive and self seconds per span name under span ``root``.

        Self time is a span's duration minus the time its direct children
        cover; spans of one name never nest here, so inclusive totals do
        not double count.
        """
        n = len(self.spans)
        inside = np.zeros(n, dtype=bool)
        child_time = np.zeros(n)
        inside[root] = True
        incl, self_t = {}, {}
        for i in range(root, n):
            name, t0, t1, parent = self.spans[i]
            if i != root:
                if parent < 0 or not inside[parent]:
                    continue
                inside[i] = True
                child_time[parent] += t1 - t0
        for i in np.flatnonzero(inside):
            name, t0, t1, _ = self.spans[i]
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            self_t[name] = self_t.get(name, 0.0) + float(t1 - t0 - child_time[i])
        return incl, self_t

    def write(self, path):
        """Write every span as CSV: name, start, end, parent (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent}\n")


def wrapper_cost(calls=20000):
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    probe = types.SimpleNamespace(f=lambda x: x)
    plain = probe.f
    t0 = time.perf_counter()
    for i in range(calls):
        plain(i)
    t_plain = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(probe, "f", "probe")
    t0 = time.perf_counter()
    for i in range(calls):
        probe.f(i)
    t_traced = time.perf_counter() - t0
    return max(t_traced - t_plain, 0.0) / calls


# ---------------------------------------------------------------------------
# the wrappers for each sievepath layer

def _on_admm(tracer, args, sub):
    tracer.count("admm.iters", sub.iterations)
    if not sub.converged:
        tracer.count("admm.unconverged")


def _on_sieve_admm(tracer, args, sub):
    _on_admm(tracer, args, sub)
    tracer.count("sieve.admm_calls")


def _on_sieve(tracer, args, result):
    _, state = result
    tracer.count("sieve.rounds", state.round)
    tracer.count("sieve.blocks_removed", sum(r["violations"] for r in state.records))
    tracer.count("sieve.round_records", len(state.records))
    tracer.count("sieve.reduced_n_sum", sum(r["n_reduced"] for r in state.records))


def _on_apg(tracer, args, res):
    tracer.count("sieve.apg_iters", res.iterations)
    tracer.count("sieve.apg_converged", int(res.converged))


def _on_eas(tracer, args, cert):
    tracer.count("sieve.eas_ok", int(cert is not None))


def _on_prox(tracer, args, out):
    V, tau = args[0], args[1]
    # computed, not measured: read V and tau once, write the result once
    tracer.count("kernels.prox_bytes", 2 * V.nbytes + np.asarray(tau).nbytes)


def install_layer_wrappers(tracer):
    """Wrap the public functions of every traced layer at their call sites."""
    import scipy.sparse.linalg as spla

    from sievepath import admm, graph, labels, model, path, report, sieve

    for mod in (sieve, admm):
        tracer.wrap(mod, "build_partition", "graph.partition")
        tracer.wrap(mod, "reduce_problem", "graph.reduce")
    tracer.wrap(spla, "splu", "graph.factor")
    tracer.wrap(sieve, "solve_reduced_admm", "admm.solve", _on_sieve_admm)
    tracer.wrap(admm, "solve_reduced_admm", "admm.solve", _on_admm)
    tracer.wrap(path, "solve_full", "admm.full")
    tracer.wrap(path, "as_solve", "sieve.solve", _on_sieve)
    tracer.wrap(path, "eas_solve", "sieve.solve", _on_sieve)
    tracer.wrap(sieve, "recover_dual", "sieve.recover_dual")
    tracer.wrap(sieve, "apg_minimize", "sieve.apg", _on_apg)
    tracer.wrap(sieve, "eas_certify", "sieve.eas", _on_eas)
    for mod in (sieve, model):
        tracer.wrap(mod, "kkt_residual", "model.kkt")
        tracer.wrap(mod, "primal_objective", "model.objective")
    tracer.wrap(model.KktTriple, "from_point", "model.from_point")
    for mod in (admm, model):
        tracer.wrap(mod, "prox_columns", "kernels.prox", _on_prox)
    for mod in (graph, labels):
        tracer.wrap(mod, "union_find_min_labels", "kernels.union_find")
    tracer.wrap(report, "extract_labels", "labels.extract")
