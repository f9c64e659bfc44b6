"""Span tracing of pacerose's layers for the traced benchmark run.

Each hook replaces one function, as it is bound in the module that calls
it (for example ``pacerose.cli.build_design_matrix``), with a wrapper that
records a span -- name, start, end and parent -- plus counts taken from the
call's arguments or result.  Spans stay in memory until the run ends.
Nothing under ``src/`` is changed.  Per-row helpers (``trip_direction``,
``pace``, ``bin_index``) get no span; their cost lands in ``cli.self_s``.

A hooked name that no longer exists is recorded in ``Tracer.absent`` and
the metrics only it provides are left out, so a later version of the
program that renames a function still runs.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _LineCounter:
    """Iterates a text source and counts the lines handed out."""

    def __init__(self, source):
        self.source = source
        self.lines = 0

    def __iter__(self):
        for line in self.source:
            self.lines += 1
            yield line


def _plain(fn, args, kwargs):
    return fn(*args, **kwargs), {}


def _parse_trips(fn, args, kwargs):
    source = _LineCounter(args[0])
    trips = fn(source, *args[1:], **kwargs)
    rows = max(source.lines - 1, 0)  # data rows after the header
    return trips, {"ingest.rows_read": rows,
                   "ingest.rows_skipped": rows - len(trips)}


def _parse_network(fn, args, kwargs):
    segments = fn(*args, **kwargs)
    return segments, {"ingest.segments": len(segments)}


def _percentile_filter(fn, args, kwargs):
    kept = fn(*args, **kwargs)
    return kept, {"ingest.trips_kept": len(kept)}


def _design(fn, args, kwargs):
    # tracemalloc runs only inside this call; its cost is part of design_s
    tracemalloc.start()
    try:
        X, y = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (X, y), {"features.design_mb": X.shape[0] * X.shape[1] * 8 / 1e6,
                    "features.design_peak_mb": peak / 1e6}


def _ols_fit(fn, args, kwargs):
    fit = fn(*args, **kwargs)
    return fit, {"estimator.rank": fit.rank,
                 "estimator.columns": len(fit.column_names) + 1}


@dataclass(frozen=True)
class Hook:
    module: str
    attribute: str
    span: str
    probe: Callable = _plain
    counts: tuple = ()


HOOKS = (
    Hook("pacerose.cli", "main", "cli.main"),
    Hook("pacerose.cli", "parse_trips", "ingest.parse_trips", _parse_trips,
         ("ingest.rows_read", "ingest.rows_skipped")),
    Hook("pacerose.cli", "parse_network", "ingest.parse_network", _parse_network,
         ("ingest.segments",)),
    Hook("pacerose.cli", "network_orientation_histogram", "ingest.network_hist"),
    Hook("pacerose.cli", "percentile_filter", "ingest.percentile_filter",
         _percentile_filter, ("ingest.trips_kept",)),
    Hook("pacerose.cli", "build_histogram", "angles.build_histogram"),
    Hook("pacerose.cli", "build_design_matrix", "features.design", _design,
         ("features.design_mb", "features.design_peak_mb")),
    Hook("pacerose.cli", "ols_fit", "estimator.ols_fit", _ols_fit,
         ("estimator.rank", "estimator.columns")),
    Hook("pacerose.estimator", "t_p_value", "special.p_value"),
    Hook("pacerose.estimator", "f_p_value", "special.p_value"),
    Hook("pacerose.model", "t_p_value", "special.p_value"),
    Hook("pacerose.cli", "scenario_from_dict", "synth.scenario"),
    Hook("pacerose.cli", "sample_directions", "synth.sample"),
    Hook("pacerose.cli", "generate_paces", "synth.paces"),
    Hook("pacerose.cli", "reconstruct_curve", "model.curves"),
    Hook("pacerose.cli", "save_model", "model.save"),
    Hook("pacerose.cli", "load_model", "model.load"),
    Hook("pacerose.cli", "predict_pace", "model.predict"),
    Hook("pacerose.cli", "rose_svg", "rose_svg.render"),
    Hook("pacerose.cli", "curve_svg", "rose_svg.render"),
)

# spans whose number of calls is itself a metric
CALL_COUNTS = {"special.p_value": "special.p_value_calls",
               "model.predict": "model.predict_calls"}
# counts that describe one call and are not summed over calls
MAX_COUNTS = {"features.design_peak_mb", "estimator.rank", "estimator.columns"}


class Tracer:
    """Installs hooks, records spans, and restores the originals."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list = []
        self.absent: list = []
        self.installed: list = []
        self._stack: list = []
        self._originals: list = []

    def install(self):
        for hook in self.hooks:
            target = f"{hook.module}.{hook.attribute}"
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, hook.attribute, None)
            if not callable(original):
                self.absent.append(target)
                continue
            setattr(module, hook.attribute, self._wrap(hook, original))
            self._originals.append((module, hook.attribute, original))
            self.installed.append(hook)

    def uninstall(self):
        while self._originals:
            module, attribute, original = self._originals.pop()
            setattr(module, attribute, original)

    def _wrap(self, hook: Hook, fn):
        def traced(*args, **kwargs):
            span = Span(hook.span, 0.0, parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result, span.counts = hook.probe(fn, args, kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    def provided(self) -> set:
        """Names of the metrics the installed hooks can produce."""
        names = set()
        for hook in self.installed:
            names.add(hook.span + "_s")
            names.update(hook.counts)
            if hook.span in CALL_COUNTS:
                names.add(CALL_COUNTS[hook.span])
            if hook.span == "cli.main":
                names.add("cli.self_s")
        return names

    def take(self) -> list:
        """The spans recorded since the last call, removed from the tracer."""
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list) -> dict:
    """Per-layer totals of one workload sample's spans.

    ``<span>_s`` is the summed duration of the spans of that name, counts are
    summed (or maximised for those in MAX_COUNTS), and ``cli.self_s`` is the
    time inside ``cli.main`` not covered by its direct child spans.
    """
    metrics: dict = {}
    child_s = [0.0] * len(spans)
    for span in spans:
        key = span.name + "_s"
        metrics[key] = metrics.get(key, 0.0) + span.seconds
        if span.name in CALL_COUNTS:
            calls = CALL_COUNTS[span.name]
            metrics[calls] = metrics.get(calls, 0) + 1
        for name, value in span.counts.items():
            if name in MAX_COUNTS:
                metrics[name] = max(metrics.get(name, value), value)
            else:
                metrics[name] = metrics.get(name, 0) + value
        if span.parent >= 0:
            child_s[span.parent] += span.seconds
    metrics["cli.self_s"] = sum(s.seconds - c for s, c in zip(spans, child_s)
                                if s.name == "cli.main")
    return metrics
