"""Spans around the engine's layers, recorded from outside the package.

Each layer is a set of module functions (the public ones, plus the private
tensor-transform and kernel-conversion helpers of ``chaos`` that carry
those two layers); :func:`install` replaces every
binding of them (the module attribute and each re-binding inside the
package, e.g. ``malliavin.coefficient_tensor`` or ``cli.stroock_decompose``)
with a wrapper that records a span.  Spans stay in memory until the run
ends.  A layer's self time is the time its spans cover minus the time
their child spans cover.
"""
from __future__ import annotations

import bisect
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

# metric -> (module, function) pairs whose spans make up that layer
LAYERS: dict[str, list[tuple[str, str]]] = {
    "space.build_s": [("space", "space")],
    "space.cond_exp_s": [("space", "SampleSpace.conditional_expectation"), ("space", "conditional_expectation")],
    "basis.build_s": [("basis", "build_basis"), ("basis", "z_step_values"), ("basis", "r_step_values")],
    "basis.convert_s": [("basis", "convert_coeffs_r_to_z"), ("basis", "convert_order1_z_to_r")],
    "chaos.transform_s": [("chaos", "coefficient_tensor"), ("chaos", "synthesize"), ("chaos", "_apply_per_step"),
                          ("chaos", "_transform_matrices"), ("chaos", "chaos_order_tensor")],
    "chaos.kernel_convert_s": [("chaos", "stroock_decompose"), ("chaos", "reconstruct"),
                               ("chaos", "_tensor_to_coeffs"), ("chaos", "_coeffs_to_tensor")],
    "chaos.multiple_integral_s": [("chaos", "multiple_integral")],
    "chaos.kernel_inner_s": [("chaos", "kernel_inner"), ("chaos", "covariance_from_coeffs")],
    "chaos.doleans_s": [("chaos", "doleans_exponential"), ("chaos", "doleans_series")],
    "malliavin.gradient_s": [("malliavin", name) for name in (
        "gradient", "gradient_process", "iterated_gradient", "gradient_via_chaos", "add_one_cost",
        "remove_one_cost", "bar_grad", "tilde_grad", "iterated_difference")],
    "malliavin.divergence_s": [("malliavin", "divergence"), ("malliavin", "tilde_divergence"),
                               ("malliavin", "mecke_check")],
    "malliavin.number_op_s": [("malliavin", name) for name in (
        "number_operator", "l_inverse", "tilde_number_operator", "gamma_tilde", "gamma_tilde_expansion",
        "ou_spectral")],
    "malliavin.clark_s": [("malliavin", name) for name in (
        "clark_integrand", "clark_reconstruct", "clark_integrand_z", "clark_reconstruct_z")],
    "malliavin.mehler_s": [("malliavin", "ou_mehler_mc")],
    "girsanov.density_s": [("girsanov", name) for name in (
        "girsanov_drift", "girsanov_density", "girsanov_varphi", "girsanov_density_varphi",
        "girsanov_density_doleans", "reweighted_expectation")],
    "stein.solve_s": [("stein", "solve_stein_poisson"), ("stein", "compound_stein_solve")],
    "stein.bound_s": [("stein", name) for name in (
        "poisson_bound", "compound_poisson_bound", "compound_poisson_bound_details", "head_run_bound",
        "dna_bound", "head_run_variance_identity")],
    "stein.functional_s": [("stein", "head_run_functional"), ("stein", "dna_functional")],
    "stein.pmf_s": [("stein", name) for name in (
        "functional_pmf", "poisson_pmf", "compound_pmf", "exact_tv", "dna_target")],
    "hedging.price_s": [("hedging", "price_paths"), ("hedging", "call_payoff")],
    "hedging.recursion_s": [("hedging", name) for name in (
        "optimal_strategy", "optimal_strategy_t_conditioning", "kunita_watanabe", "minimal_martingale_measure",
        "martingale_diagnostics", "mmm_conditional", "_self_financed_alpha")],
    "hedging.oracle_s": [("hedging", "ls_oracle")],
    "diagnostics.suite_s": [("diagnostics", "run_identity_suite")],
    "cli.emit_s": [("cli", "_emit"), ("cli", "dumps17")],
    "cli.self_s": [("cli", "main")],
}
PEAK_LAYERS = ("chaos", "malliavin", "hedging")
COUNTS = ("space.configurations", "chaos.kernel_entries")


def check_names() -> list[str]:
    from markedbinomial.diagnostics import CHECKS

    return [name for name, _, _ in CHECKS]


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [*LAYERS, *COUNTS, *(f"{layer}.peak_mb" for layer in PEAK_LAYERS)]
    names += [f"diagnostics.{name}_s" for name in check_names()]
    names += ["cli.import_s", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_frac", "trace.remainder_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _kernel_entries(coeffs) -> int:
    return sum(len(kernel) for kernel in coeffs.orders.values())


# count hooks: function -> (counter, value of (args, result))
_COUNT_HOOKS: dict[tuple[str, str], tuple[str, Callable]] = {
    ("space", "space"): ("space.configurations", lambda args, result: result.n),
    ("chaos", "_tensor_to_coeffs"): ("chaos.kernel_entries", lambda args, result: _kernel_entries(result)),
    ("chaos", "_coeffs_to_tensor"): ("chaos.kernel_entries", lambda args, result: _kernel_entries(args[0])),
}


class Tracer:
    """Spans of one traced run: ``(name, metric, start, end, parent, size)``."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.size = 0

    def open(self, name: str, metric: str | None) -> int:
        idx = len(self.spans)
        self.spans.append((name, metric, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.size))
        self.stack.append(idx)
        return idx

    def close(self, idx: int, keep: bool = True) -> None:
        self.stack.pop()
        name, metric, start, _, parent, size = self.spans[idx]
        self.spans[idx] = (name, metric, start, time.perf_counter(), parent, size) if keep else None

    def span(self, name: str, metric: str | None = None, size: int | None = None):
        return _Span(self, name, metric, size)

    def wrap(self, fn: Callable, name: str, metric: str, count: tuple[str, Callable] | None) -> Callable:
        cache_info = getattr(fn, "cache_info", None)
        active = [0]

        def traced(*args, **kwargs):
            if active[0]:  # recursion: one span covers the outermost call
                return fn(*args, **kwargs)
            misses = cache_info().misses if cache_info else 0
            idx = self.open(name, metric)
            active[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[0] -= 1
                hit = cache_info is not None and cache_info().misses == misses
                self.close(idx, keep=not hit)
            if count is not None and not hit:
                self.counts[count[0]] += count[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced


class _Span:
    def __init__(self, tracer: Tracer, name: str, metric: str | None, size: int | None):
        self.tracer, self.name, self.metric, self.size = tracer, name, metric, size

    def __enter__(self):
        self.outer_size = self.tracer.size
        if self.size is not None:
            self.tracer.size = self.size
        self.idx = self.tracer.open(self.name, self.metric)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        self.tracer.size = self.outer_size
        return False


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "markedbinomial" or name.startswith("markedbinomial."))]


def lru_caches() -> list:
    """Every lru_cache of the package; call before :func:`install` wraps them."""
    found = {}
    for module in _package_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", "").startswith("markedbinomial"):
                found[id(value)] = value
    return list(found.values())


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer function; returns a function that undoes it."""
    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr: str, new) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for metric, funcs in LAYERS.items():
        for mod_name, qualname in funcs:
            module = importlib.import_module(f"markedbinomial.{mod_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:  # renamed or removed: the layer reports what remains
                continue
            wrapped = tracer.wrap(original, f"{mod_name}.{qualname}", metric, _COUNT_HOOKS.get((mod_name, qualname)))
            if owner_name:
                rebind(owner, attr, wrapped)
                continue
            for pkg_module in _package_modules():
                for key, value in list(vars(pkg_module).items()):
                    if value is original:
                        rebind(pkg_module, key, wrapped)

    from markedbinomial import diagnostics

    checks = list(diagnostics.CHECKS)
    diagnostics.CHECKS[:] = [(name, tol, tracer.wrap(fn, f"diagnostics.{name}", f"diagnostics.{name}_s", None))
                             for name, tol, fn in checks]

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        diagnostics.CHECKS[:] = checks

    return restore


class RssSampler:
    """Samples this process's resident set size every ``interval`` seconds."""

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.times: list[float] = []
        self.rss: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            fd = os.open("/proc/self/statm", os.O_RDONLY)
        except OSError:  # no procfs: peaks read 0
            return
        page = os.sysconf("SC_PAGE_SIZE")
        try:
            while not self._stop.wait(self.interval):
                self.times.append(time.perf_counter())
                self.rss.append(int(os.pread(fd, 128, 0).split()[1]) * page)
        finally:
            os.close(fd)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def rise(self, start: float, end: float) -> int:
        """Largest RSS seen in [start, end] minus the RSS just before start."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if lo >= hi:
            return 0
        base = self.rss[lo - 1] if lo > 0 else self.rss[lo]
        return max(0, max(self.rss[lo:hi]) - base)


def layer_metrics(tracer: Tracer, sampler: RssSampler) -> dict[str, float]:
    """Self time per layer metric, counts, and peak RSS rise per layer."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if span is not None and span[1] is not None:
            out[span[1]] += (span[3] - span[2]) - child_time[i]
    out.update(tracer.counts)
    for layer in PEAK_LAYERS:
        peak = 0
        for span in spans:
            if span is None or not (span[1] or "").startswith(layer + "."):
                continue
            parent = span[4]
            while parent >= 0 and not (spans[parent][1] or "").startswith(layer + "."):
                parent = spans[parent][4]
            if parent < 0:  # outermost span of this layer
                peak = max(peak, sampler.rise(span[2], span[3]))
        out[f"{layer}.peak_mb"] = peak / 2**20
    return out


def root_self_time(tracer: Tracer) -> float:
    """Time inside root spans that no layer span covers (harness glue, checks)."""
    spans = tracer.spans
    layer_time = 0.0
    for span in spans:
        if span is None or span[1] is None:
            continue
        parent = span[4]
        while parent >= 0 and spans[parent][1] is None:
            parent = spans[parent][4]
        if parent < 0:  # outermost layer span
            layer_time += span[3] - span[2]
    roots = sum(span[3] - span[2] for span in spans if span is not None and span[4] < 0)
    return roots - layer_time
