"""Per-layer tracing of the releq package, done entirely from outside it.

``Tracer`` replaces selected public functions with timing wrappers in
every ``releq`` module namespace that binds them (``from .x import f``
copies the binding, so patching the defining module alone would miss
callers), plus ``numpy.linalg.solve`` for the solver's factorization.
Nothing under ``src/`` changes. Each wrapper pushes a span on a stack;
when it ends, its duration, the time covered by traced children, and the
calls it contained are folded into its parent, so "X inside Y" questions
(linear solves inside a solve, guard calls inside an integration) are
answered where the work happened.

``layer_metrics`` turns one traced pass into the per-layer numbers named
in BENCHMARK.json. Flop and byte counts are computed from array sizes
with the formulas in ``kernel_cost``; they ignore caches and are labelled
computed.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Spans: (metric name, module, attribute). Kernels are looked up on
# ``releq._kernels`` at call time, the rest are copied into importers.
SPANS = [
    ("kernels.residual_stack", "releq._kernels", "residual_stack"),
    ("kernels.jacobian_dense", "releq._kernels", "jacobian_dense"),
    ("kernels.accel", "releq._kernels", "accel"),
    ("kernels.min_pair_distance", "releq._kernels", "min_pair_distance"),
    ("kernels.pair_distances", "releq._kernels", "pair_distances"),
    ("criterion.residual", "releq.criterion", "residual"),
    ("criterion.jacobian", "releq.criterion", "jacobian"),
    ("criterion.residual_scale", "releq.criterion", "residual_scale"),
    ("criterion.lemma_identity_gap", "releq.criterion", "lemma_identity_gap"),
    ("solver.solve", "releq.solver", "solve_from_seed"),
    ("solver.multistart_search", "releq.solver", "multistart_search"),
    ("solver.canonicalize", "releq.solver", "canonicalize"),
    ("solver.fingerprint", "releq.solver", "fingerprint"),
    ("probe.bound_probe", "releq.probe", "bound_probe"),
    ("dynamics.integrate", "releq.dynamics", "integrate"),
    ("documents.parse_document", "releq.documents", "parse_document"),
    ("documents.write_text_atomic", "releq.documents", "write_text_atomic"),
    ("cli.main", "releq.cli", "main"),
    ("linalg.solve", "numpy.linalg", "solve"),
]
# Counted but not timed, so callers' self time still includes the
# rate-matrix rebuilds (the re-validation cost the metric is after).
COUNTS = [("model.frequency_matrix", "releq.model", "frequency_matrix")]

KERNELS = ("residual_stack", "jacobian_dense", "accel", "min_pair_distance",
           "pair_distances")
# Per-call records are kept only for these spans; the rest aggregate.
RECORDED = ("solver.solve", "dynamics.integrate", "probe.bound_probe",
            "cli.main")


def kernel_cost(kernel, n, k):
    """Computed (flop, bytes) of one numpy-kernel call on n bodies in R^k.

    Flops count every arithmetic element operation of the vectorized
    implementation (all n^2 ordered pairs, a power as one flop). Bytes
    count each input, temporary and output array once, 8 bytes per
    element; cache traffic is not modelled.
    """
    p = n * n
    dist = 3 * p * k + p               # diff, squared norm, sqrt or power
    if kernel == "residual_stack":
        flop = dist + p + 2 * p * k + 2 * n * k
        elems = n * k + n + k + p * k + 2 * p + 2 * n * k
    elif kernel == "accel":
        flop = dist + p + 2 * p * k
        elems = n * k + n + p * k + 2 * p + n * k
    elif kernel == "jacobian_dense":
        flop = dist + 2 * p + 6 * p * k * k + n * k * k
        elems = n * k + n + k + p * k + 3 * p + 2 * p * k * k
    elif kernel == "pair_distances":
        flop = dist
        elems = n * k + p * k + 2 * p
    elif kernel == "min_pair_distance":
        flop = dist + p // 2
        elems = n * k + p * k + 2 * p + p // 2
    else:
        raise ValueError(f"no cost model for kernel {kernel!r}")
    return float(flop), 8.0 * elems


class _Frame:
    __slots__ = ("child_s", "calls", "inner_s")

    def __init__(self):
        self.child_s = 0.0          # time covered by traced children
        self.calls = Counter()      # traced calls made below this span
        self.inner_s = Counter()    # inclusive seconds of those calls


class _Agg:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.agg``/``tr.records``.

    One span stack serves the process, so trace only single-threaded
    work (``--jobs 1``).
    """

    def __init__(self):
        self.agg = defaultdict(_Agg)
        self.records = defaultdict(list)
        self.flop = 0.0
        self.bytes = 0.0
        self._stack = [_Frame()]
        self._patched = []

    # -- installation -------------------------------------------------

    def __enter__(self):
        for name, module, attr in SPANS:
            self._patch(module, attr, self._span_wrapper, name)
        for name, module, attr in COUNTS:
            self._patch(module, attr, self._count_wrapper, name)
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()
        return False

    def _patch(self, module, attr, make, name):
        home = sys.modules[module]
        original = getattr(home, attr)
        wrapper = make(name, original)
        targets = [(home, attr)]
        # Aliases in the defining module stay unwrapped: the numpy
        # min_pair_distance calls pair_distances_numpy, which is not a
        # call through the kernel interface.
        for key, mod in list(sys.modules.items()):
            if mod is not home and (key == "releq" or key.startswith("releq.")):
                targets += [(mod, k) for k, v in vars(mod).items()
                            if v is original]
        for holder, key in targets:
            setattr(holder, key, wrapper)
            self._patched.append((holder, key, original))

    # -- wrappers -----------------------------------------------------

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._stack[-1].calls[name] += 1
            self.agg[name].calls += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, name, fn):
        kernel = name[len("kernels."):] if name.startswith("kernels.") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame()
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._close(name, frame, elapsed)
            if kernel is not None:
                n, k = args[0].shape
                flop, nbytes = kernel_cost(kernel, n, k)
                self.flop += flop
                self.bytes += nbytes
            if name in RECORDED:
                self.records[name].append((elapsed, frame, args, result))
            return result
        return traced

    def _close(self, name, frame, elapsed):
        agg = self.agg[name]
        agg.calls += 1
        agg.total_s += elapsed
        agg.self_s += elapsed - frame.child_s
        parent = self._stack[-1]
        parent.child_s += elapsed
        parent.calls[name] += 1
        parent.calls.update(frame.calls)
        parent.inner_s[name] += elapsed
        parent.inner_s.update(frame.inner_s)


def _p(values, q):
    """q-th percentile (0-100) by linear interpolation; 0.0 when empty."""
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tr):
    """Per-layer metrics of one traced pass, keyed by BENCHMARK.json names."""
    out = {}
    agg = tr.agg
    for kernel in KERNELS:
        a = agg[f"kernels.{kernel}"]
        out[f"kernels.{kernel}.calls"] = a.calls
        out[f"kernels.{kernel}.s"] = a.total_s
    out["kernels.computed_mflop"] = tr.flop / 1e6
    out["kernels.computed_mb"] = tr.bytes / 1e6
    jac_calls = agg["kernels.jacobian_dense"].calls
    out["kernels.min_pair_distance.per_jacobian"] = _ratio(
        agg["kernels.min_pair_distance"].calls, jac_calls)
    out["model.frequency_matrix.per_jacobian"] = _ratio(
        agg["model.frequency_matrix"].calls, jac_calls)
    for fn in ("residual", "jacobian", "residual_scale"):
        a = agg[f"criterion.{fn}"]
        out[f"criterion.{fn}.calls"] = a.calls
        out[f"criterion.{fn}.self_s"] = a.self_s
    out["criterion.lemma_identity_gap.s"] = \
        agg["criterion.lemma_identity_gap"].total_s

    solves = tr.records["solver.solve"]
    ms = [rec[0] * 1e3 for rec in solves]
    iters = [rec[3].iterations for rec in solves]
    accepted = sum(len(rec[3].residual_history) - 1 for rec in solves)
    # every residual evaluation after a solve's first one is a trial step
    trials = sum(rec[1].calls["criterion.residual"] - 1 for rec in solves)
    terms = Counter(rec[3].termination.value for rec in solves)
    out["solver.solve.calls"] = len(solves)
    out["solver.solve.ms_p50"] = _p(ms, 50)
    out["solver.solve.ms_p90"] = _p(ms, 90)
    out["solver.iterations.mean"] = statistics.fmean(iters) if iters else 0.0
    out["solver.iterations.p90"] = _p(iters, 90)
    out["solver.lm_iteration_ms"] = _ratio(sum(ms), sum(iters))
    out["solver.residuals_per_iteration"] = _ratio(trials, accepted)
    out["solver.guard_calls_per_iteration"] = _ratio(
        sum(rec[1].calls["kernels.min_pair_distance"] for rec in solves),
        sum(iters))
    out["solver.frequency_matrix_per_iteration"] = _ratio(
        sum(rec[1].calls["model.frequency_matrix"] for rec in solves),
        sum(iters))
    out["solver.factor.s"] = sum(rec[1].inner_s["linalg.solve"]
                                 for rec in solves)
    out["solver.dedup.s"] = (agg["solver.canonicalize"].total_s
                             + agg["solver.fingerprint"].total_s)
    for term in ("converged", "stalled", "collision_guard", "max_iterations"):
        out[f"solver.termination.{term}"] = terms[term]

    out["probe.bound_probe.self_s"] = sum(
        rec[0] - rec[1].inner_s["solver.multistart_search"]
        for rec in tr.records["probe.bound_probe"])

    runs = tr.records["dynamics.integrate"]
    rhs = sum(rec[1].calls["kernels.accel"] for rec in runs)
    periods = sum(
        (float(rec[2][2]) - rec[2][0].time)
        * float(rec[2][1].frequencies.max()) / (2.0 * np.pi)
        for rec in runs)
    integrate_s = sum(rec[0] for rec in runs)
    out["dynamics.integrate.s"] = integrate_s
    out["dynamics.rhs_evals"] = rhs
    out["dynamics.rhs_us"] = 1e6 * _ratio(
        sum(rec[1].inner_s["kernels.accel"] for rec in runs), rhs)
    out["dynamics.s_per_period"] = _ratio(integrate_s, periods)
    out["dynamics.guard.calls"] = sum(
        rec[1].calls["kernels.min_pair_distance"] for rec in runs)

    out["cli.self_s"] = sum(rec[0] - rec[1].child_s
                            for rec in tr.records["cli.main"])
    out["documents.parse_document.s"] = agg["documents.parse_document"].total_s
    out["documents.write_text_atomic.s"] = \
        agg["documents.write_text_atomic"].total_s
    return out
