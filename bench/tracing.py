"""Spans around pjmp's public functions, recorded from outside the package.

The tracer replaces each traced function at every module attribute where
pjmp code looks it up (``pjmp.cli.stationary``, ``pjmp.certificates.
propagate_function``, ...), so calls made inside the package are seen as well
as calls made by the benchmark. Each call records one span: name, start, end,
parent span and the benchmark operation it belongs to. Spans stay in memory
until the pass ends.

A span's self time is its duration minus the durations of its child spans.
Calls run on one thread and nest strictly, so the children never overlap and
the self times of all spans add up to the time covered by the root spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

import scipy.sparse as sp

# (module, function, metric): the function's self time is reported under the
# metric; two functions may share one.
TRACED = (
    ("cli", "main", "cli.main_self_s"),
    ("model", "check_lyapunov_pointwise", "model.check_lyapunov_pointwise_s"),
    ("statespace", "enumerate_states", "statespace.enumerate_states_s"),
    ("statespace", "assemble_generator", "statespace.assemble_generator_s"),
    ("spectral", "stationary", "spectral.stationary_s"),
    ("spectral", "poincare_constant", "spectral.poincare_constant_s"),
    ("spectral", "variance_and_energy", "spectral.variance_and_energy_s"),
    ("spectral", "propagate_function", "spectral.uniformization_s"),
    ("spectral", "weighted_F_vector", "spectral.uniformization_s"),
    ("certificates", "path_method_C0", "certificates.path_method_C0_s"),
    ("certificates", "admissible_lambda", "certificates.admissible_lambda_s"),
    ("certificates", "talagrand_verdict", "certificates.talagrand_verdict_s"),
    ("certificates", "semigroup_poincare_report", "certificates.semigroup_poincare_report_s"),
    ("certificates", "max_peak_time", "certificates.max_peak_time_s"),
    ("simulate", "estimate_semigroup", "simulate.estimate_semigroup_s"),
    ("simulate", "estimate_weight_F", "simulate.estimate_weight_F_s"),
    ("simulate", "simulate_path", "simulate.simulate_path_s"),
    ("simulate", "ergodic_average", "simulate.ergodic_average_s"),
    ("simulate", "empirical_tail", "simulate.empirical_tail_s"),
)

# the benchmark's own output checks, traced so that they are not glue
CHECK_SPAN = "bench.check"
CHECK_METRIC = "bench.check_s"

SELF_TIME_METRICS = tuple(dict.fromkeys(m for _, _, m in TRACED)) + (CHECK_METRIC,)

COUNT_METRICS = (
    "statespace.states",
    "statespace.generator_nnz",
    "spectral.support_states",
    "spectral.stationary_calls",
    "spectral.uniformization_calls",
    "spectral.uniformization_terms",
    "simulate.replicas",
)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _uniformization_rate(gen) -> float:
    q = getattr(gen, "matrix", None)
    if q is None:
        q = sp.csr_matrix(gen)
    return float(-q.diagonal().min())


def _log_poisson_pmf(m: float, k: int) -> float:
    return -m if k == 0 else -m + k * math.log(m) - math.lgamma(k + 1)


def series_terms(kind: str, m: float, eps: float, bound_over_rate: float) -> int:
    """Length of the uniformization series that Lambda*t = m and eps call for.

    ``propagate``: Poisson(m) terms until their mass reaches 1 - eps.
    ``integral``: upper-tail terms until the remaining tail mass times
    max|phibar| / Lambda drops to eps (the time-integrated series).
    """
    if m == 0:
        return 0
    cum, k = 0.0, 0
    if kind == "propagate":
        while cum < 1.0 - eps:
            cum += math.exp(_log_poisson_pmf(m, k))
            k += 1
        return k
    remaining = m
    while True:
        cum += math.exp(_log_poisson_pmf(m, k))
        tail = max(1.0 - cum, 0.0)
        remaining -= tail
        if remaining * bound_over_rate <= eps or tail == 0.0:
            return k + 1
        k += 1


class Tracer:
    """In-memory span recorder with per-call counters for one pass."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op]
        self.op = None
        self.counts = Counter()
        self._stack = []
        self._series = Counter()  # (kind, Lambda*t, eps, bound/Lambda) -> calls

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0, 0, parent, self.op])
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid][1:3] = [start, end]

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + fn.__name__, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function at each pjmp module attribute bound to it."""
        modules = [m for k, m in sys.modules.items() if k == "pjmp" or k.startswith("pjmp.")]
        for mod_name, fn_name, _metric in TRACED:
            fn = getattr(sys.modules["pjmp." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    # -- counters, read off arguments and results ------------------------------

    def _count_enumerate_states(self, fn, args, kwargs, space):
        self.counts["statespace.states"] += len(space)

    def _count_assemble_generator(self, fn, args, kwargs, gen):
        self.counts["statespace.generator_nnz"] += int(gen.matrix.nnz)

    def _count_stationary(self, fn, args, kwargs, mu):
        self.counts["spectral.stationary_calls"] += 1
        self.counts["spectral.support_states"] += int(len(mu.support))

    def _count_series(self, kind, fn, args, kwargs, vector_name):
        a = _bound(fn, args, kwargs)
        self.counts["spectral.uniformization_calls"] += 1
        lam = _uniformization_rate(a["gen"])
        if lam == 0:
            return
        bound = float(abs(a[vector_name]).max()) / lam if kind == "integral" else 0.0
        self._series[(kind, lam * float(a["t"]), float(a["eps"]), bound)] += 1

    def _count_propagate_function(self, fn, args, kwargs, _result):
        self._count_series("propagate", fn, args, kwargs, "f")

    def _count_weighted_F_vector(self, fn, args, kwargs, _result):
        self._count_series("integral", fn, args, kwargs, "phibar")

    def _count_estimate_semigroup(self, fn, args, kwargs, _result):
        self.counts["simulate.replicas"] += int(_bound(fn, args, kwargs)["n_replicas"])

    _count_estimate_weight_F = _count_estimate_semigroup

    def _count_one_replica(self, fn, args, kwargs, _result):
        self.counts["simulate.replicas"] += 1

    _count_simulate_path = _count_ergodic_average = _count_empirical_tail = _count_one_replica

    # -- summary -----------------------------------------------------------------

    def summary(self, wall_ns: int) -> dict:
        """Self time per metric, glue, span count and counters of the pass.

        ``trace.glue_s`` is the part of the pass that no root span covers, so
        the self times plus the glue add up to the traced wall time.
        """
        metric_of = {f"{mod}.{fn}": metric for mod, fn, metric in TRACED}
        metric_of[CHECK_SPAN] = CHECK_METRIC
        self_ns = [end - start for _name, start, end, _p, _op in self.spans]
        root_ns = 0
        for name, start, end, parent, _op in self.spans:
            if parent is None:
                root_ns += end - start
            else:
                self_ns[parent] -= end - start
        by_metric = dict.fromkeys(SELF_TIME_METRICS, 0)
        for span, ns in zip(self.spans, self_ns):
            by_metric[metric_of[span[0]]] += ns
        if sum(by_metric.values()) != root_ns:
            raise RuntimeError("span self times do not add up to the root spans")
        counts = {name: int(self.counts[name]) for name in COUNT_METRICS}
        counts["spectral.uniformization_terms"] = sum(
            n * series_terms(*key) for key, n in self._series.items()
        )
        out = {k: v / 1e9 for k, v in by_metric.items()}
        out["trace.glue_s"] = (wall_ns - root_ns) / 1e9
        out["trace.spans"] = len(self.spans)
        out.update(counts)
        return out

    def records(self) -> list:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        return [dict(zip(keys, span)) for span in self.spans]
