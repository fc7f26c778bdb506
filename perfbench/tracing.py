"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``stopbound`` at the place where each
caller looks them up (a module attribute), records one span per call (name,
start, end, parent, phase) in memory, and turns the spans into the per-layer
metrics listed in ``PER_LAYER``.  It is installed only when the benchmark
runs with ``--trace 1``; end-to-end metrics always come from untraced runs.

tracemalloc more than doubles the lattice's run time, so it is off while the
timed rounds run.  Peak memory comes from one more round afterwards (phase
``memory``) with tracemalloc on inside the spans in ``_PEAK_SPANS``.

A site whose module attribute no longer exists is skipped.  Every metric
that depends only on skipped sites is reported as absent (``None``), so a
later refactor that deletes or renames a function does not fail the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (span name, module, attribute): every lookup site of a traced function.
# A call passes through exactly one site, so no call is counted twice.
SITES: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "stopbound.cli", "main"),
    ("problem.builtin", "stopbound.cli", "builtin"),
    ("problem.builtin", "stopbound.problem", "builtin"),
    ("constants.solve_B", "stopbound.constants", "solve_B"),
    ("constants.solve_B", "stopbound.solver", "solve_B"),
    ("solver.solve", "stopbound.solver", "solve"),
    ("solver.polish", "stopbound.solver", "least_squares"),
    ("fredholm.tabulate", "stopbound.solver", "tabulate"),
    ("fredholm.tabulate", "stopbound.fredholm", "tabulate"),
    ("fredholm.objective", "stopbound.solver", "objective"),
    ("fredholm.objective", "stopbound.fredholm", "objective"),
    ("fredholm.segment_weights", "stopbound.bounds", "segment_weights"),
    ("fredholm.segment_weights", "stopbound.fredholm", "segment_weights"),
    ("fredholm.quad", "stopbound.fredholm", "integrate_finite"),
    ("bounds.iterate", "stopbound.bounds", "iterate"),
    ("bounds.initial_envelope", "stopbound.bounds", "initial_envelope"),
    ("bounds.lower_step", "stopbound.bounds", "lower_step"),
    ("bounds.upper_step", "stopbound.bounds", "upper_step"),
    ("kernels.sweep", "stopbound._kernels", "sweep"),
    ("kernels.residuals", "stopbound._kernels", "residuals"),
    ("kernels.dp_backward", "stopbound._kernels", "dp_backward"),
    ("kernels.mc_first_crossing", "stopbound._kernels", "mc_first_crossing"),
    ("oracle.refined_boundary", "stopbound.oracle", "refined_boundary"),
    ("oracle.backward_induction", "stopbound.oracle", "backward_induction"),
    ("oracle.extract_d", "stopbound.oracle", "extract_d"),
    ("oracle.mc_value", "stopbound.oracle", "mc_value"),
)

# Spans whose tracemalloc peak is recorded in the memory round.  They never
# nest in each other.
_PEAK_SPANS = ("oracle.backward_induction", "oracle.mc_value")

# name: (unit, kind, span names, detail).  Kinds: "time" sums span durations,
# "count" counts spans, "self" sums self time (span minus child spans),
# "sum"/"max" aggregate a recorded detail.  The `_kernels` layer is named
# `kernels` because metric names must start with a letter.
PER_LAYER: Dict[str, Tuple[str, str, Tuple[str, ...], Optional[str]]] = {
    "solver.sweep_s": ("s", "time", ("kernels.sweep",), None),
    "solver.sweeps": ("count", "count", ("kernels.sweep",), None),
    "solver.polish_s": ("s", "time", ("solver.polish",), None),
    "solver.polish_nfev": ("count", "sum", ("solver.polish",), "nfev"),
    "solver.self_s": ("s", "self", ("solver.solve",), None),
    "bounds.lower_step_s": ("s", "time", ("bounds.lower_step",), None),
    "bounds.upper_step_s": ("s", "time", ("bounds.upper_step",), None),
    "bounds.self_s": ("s", "self", ("bounds.iterate", "bounds.initial_envelope",
                                    "bounds.lower_step", "bounds.upper_step"), None),
    "bounds.residual_evals": ("count", "count", ("kernels.residuals",), "bounds"),
    "kernels.residuals_s": ("s", "time", ("kernels.residuals",), None),
    "fredholm.segment_weights_s": ("s", "time", ("fredholm.segment_weights",), None),
    "fredholm.segment_weights_calls": ("count", "count", ("fredholm.segment_weights",), None),
    "fredholm.quad_calls": ("count", "count", ("fredholm.quad",), None),
    "fredholm.tabulate_s": ("s", "time", ("fredholm.tabulate",), None),
    "fredholm.objective_s": ("s", "time", ("fredholm.objective",), None),
    "kernels.dp_backward_s": ("s", "time", ("kernels.dp_backward",), None),
    "oracle.backward_induction_calls": ("count", "count", ("oracle.backward_induction",), None),
    "oracle.lattice_cells": ("count", "sum", ("oracle.backward_induction",), "cells"),
    "oracle.backward_induction_self_s": ("s", "self", ("oracle.backward_induction",), None),
    "oracle.lattice_peak_mb": ("MB", "max", ("oracle.backward_induction",), "peak_mb"),
    "oracle.lattice_bytes": ("bytes", "max", ("kernels.dp_backward",), "bytes"),
    "kernels.mc_first_crossing_s": ("s", "time", ("kernels.mc_first_crossing",), None),
    "oracle.mc_value_self_s": ("s", "self", ("oracle.mc_value",), None),
    "oracle.mc_peak_mb": ("MB", "max", ("oracle.mc_value",), "peak_mb"),
    "oracle.mc_normals_bytes": ("bytes", "max", ("kernels.mc_first_crossing",), "bytes"),
    "problem.build_s": ("s", "time", ("problem.builtin",), None),
    "constants.solve_B_s": ("s", "time", ("constants.solve_B",), None),
    "cli.self_s": ("s", "self", ("cli.main",), None),
}

_MB = float(1 << 20)


def _largest_array_bytes(values) -> int:
    return max((v.nbytes for v in values if isinstance(v, np.ndarray)), default=0)


def _detail(name: str, args, kwargs, result) -> Optional[dict]:
    """Counts and sizes read off one call, computed from array shapes."""
    if name == "solver.polish":
        return {"nfev": int(getattr(result, "nfev", 0))}
    if name == "oracle.backward_induction":
        t, x = getattr(result, "t_values", ()), getattr(result, "x_values", ())
        return {"cells": int(np.size(t) * np.size(x))}
    if name in ("kernels.dp_backward", "kernels.mc_first_crossing"):
        return {"bytes": _largest_array_bytes(list(args) + list(kwargs.values()))}
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "detail", "child_s")

    def __init__(self, name: str, parent: int, phase: str):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.phase = phase
        self.detail: Optional[dict] = None
        self.child_s = 0.0


class Tracer:
    """Wraps the lookup sites in ``SITES`` and records spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self.trace_memory = False
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, Callable]] = []
        self.present: set = set()

    def install(self) -> None:
        for name, module_name, attr in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
            self.present.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        peak_span = name in _PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.phase)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            peak = peak_span and self.trace_memory
            if peak:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                else:
                    tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
                if peak:
                    peak_bytes = tracemalloc.get_traced_memory()[1] - base
                    if started:
                        tracemalloc.stop()
            span.detail = _detail(name, args, kwargs, result)
            if peak:
                span.detail = dict(span.detail or {}, peak_mb=peak_bytes / _MB)
            return result

        return traced

    def needs_memory_round(self) -> bool:
        """Whether a timed operation called a span whose peak is recorded."""
        return any(s.phase == "op" and s.name in _PEAK_SPANS for s in self.spans)

    def _layer_of_parent(self, span: Span) -> str:
        return self.spans[span.parent].name.split(".", 1)[0] if span.parent >= 0 else ""

    def metrics(self, rounds: int) -> Dict[str, dict]:
        """Per-layer metrics over the spans of the timed operations.

        Sums and counts are per round of the workload; ``max`` metrics are
        the largest value seen in any operation, peaks in the memory round.
        """
        out: Dict[str, dict] = {}
        for metric, (unit, kind, names, detail) in PER_LAYER.items():
            if not any(n in self.present for n in names):
                out[metric] = {"value": None, "unit": unit}
                continue
            phase = "memory" if detail == "peak_mb" else "op"
            chosen = [s for s in self.spans if s.phase == phase and s.name in names]
            if kind == "count" and detail is not None:
                chosen = [s for s in chosen if self._layer_of_parent(s) == detail]
            if kind == "time":
                value = sum(s.end - s.start for s in chosen) / rounds
            elif kind == "self":
                value = sum(s.end - s.start - s.child_s for s in chosen) / rounds
            elif kind == "count":
                value = len(chosen) / rounds
            elif kind == "sum":
                value = sum((s.detail or {}).get(detail, 0) for s in chosen) / rounds
            else:
                value = max(((s.detail or {}).get(detail, 0) for s in chosen), default=0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "phase": s.phase, "detail": s.detail,
                }) + "\n")
