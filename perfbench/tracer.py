"""Outside-in layer timing: wrap qngcoh's public functions at every binding site.

A module that does ``from .fock import sdf_amplitude_raw`` holds its own
reference to the function, so a wrapper put on ``fock`` alone never sees the
calls that module makes.  ``Tracer.install`` therefore replaces the function
in every loaded ``qngcoh`` module that binds it.

Each wrapper opens a span on one shared stack.  A layer's ``time_s`` is the
inclusive time of its calls; its ``self_s`` is that time minus the time of
wrapped calls made inside it.  Calls that raise are timed and counted in
``failed``.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _count_points(extra: dict, args, kwargs, result, exc) -> None:
    if result is not None:
        extra["points"] = extra.get("points", 0) + int(getattr(result, "size", 1))


def _count_elements(extra: dict, args, kwargs, result, exc) -> None:
    mat = args[0] if args else kwargs["mat"]
    extra["elements"] = extra.get("elements", 0) + int(mat.shape[0]) ** 2


def _count_starts(extra: dict, args, kwargs, result, exc) -> None:
    trace = result.trace if result is not None else getattr(exc, "trace", None)
    if not trace:
        return
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    best = trace["best_value"]
    tol = max(spec.tol, spec.tol * abs(best))
    starts = trace["starts"]
    extra["nfev"] = extra.get("nfev", 0) + sum(s["nfev"] for s in starts)
    extra["starts"] = extra.get("starts", 0) + len(starts)
    extra["starts_at_best"] = extra.get("starts_at_best", 0) + sum(
        abs(s["value"] - best) <= tol for s in starts)


def _count_samples(extra: dict, args, kwargs, result, exc) -> None:
    if result is not None:
        extra["samples"] = extra.get("samples", 0) + int(result.samples)


#: layer function -> (metrics reported, counter fed with each call's arguments
#: and outcome); see BENCHMARK.json for units
LAYERS = {
    "fock.sdf_amplitude_raw": (("calls", "time_s", "points"), _count_points),
    "fock.build_gaussian_matrix": (("calls", "time_s"), None),
    "optimize.maximize": (("calls", "time_s", "self_s", "nfev", "failed", "starts",
                           "starts_at_best_ratio"), _count_starts),
    "thresholds.certify": (("calls", "time_s", "self_s"), None),
    "channels.thermalize_matrix": (("calls", "time_s", "elements"), _count_elements),
    "ramsey.run_ramsey": (("calls", "time_s", "self_s", "failed"), None),
    "ramsey.fit_fringe": (("calls", "time_s"), None),
    "mc.mc_verify": (("calls", "time_s", "self_s", "samples"), _count_samples),
}


class LayerStats:
    def __init__(self) -> None:
        self.calls = 0
        self.failed = 0
        self.time_s = 0.0
        self.self_s = 0.0
        self.extra: dict = {}

    def value(self, metric: str) -> float:
        if metric == "starts_at_best_ratio":
            starts = self.extra.get("starts", 0)
            return self.extra.get("starts_at_best", 0) / starts if starts else 0.0
        if hasattr(self, metric):
            return getattr(self, metric)
        return self.extra.get(metric, 0)


class Tracer:
    """Span stack and per-layer counters for the functions in ``LAYERS``."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.absent: list[str] = []
        self._open: list[float] = []   # wrapped-child time of each open span

    def install(self) -> None:
        """Wrap every layer function at each binding site in loaded qngcoh modules."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "qngcoh" or name.startswith("qngcoh."))]
        for key, (_, counter) in LAYERS.items():
            module_name, func_name = key.split(".")
            home = sys.modules.get(f"qngcoh.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.absent.append(key)
                continue
            stats = self.stats[key] = LayerStats()
            wrapper = self._wrap(original, stats, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, original, stats: LayerStats, counter):
        open_spans = self._open

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            result = exc = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = perf_counter() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats.calls += 1
                stats.time_s += elapsed
                stats.self_s += elapsed - child
                if exc is not None:
                    stats.failed += 1
                if counter is not None:
                    counter(stats.extra, args, kwargs, result, exc)

        return wrapper

    def metrics(self, per: int) -> dict[str, float]:
        """Every present layer metric, each total divided by ``per`` passes."""
        out = {}
        for key, (names, _) in LAYERS.items():
            stats = self.stats.get(key)
            if stats is None:
                continue
            for metric in names:
                value = stats.value(metric)
                out[f"{key}.{metric}"] = value if metric.endswith("ratio") else value / per
        return out
