"""Span tracer that wraps equifd's public functions where they are called.

Each trace point rebinds one name in the module (or class) that looks it
up at call time, so the span sits on the boundary between two layers:
``equifd.equidist.solve_tridiagonal`` is the equidistribution sweep's call
into the Thomas solver.  Spans are kept in memory with their parent span;
a layer's self time is its spans' durations minus the parts covered by
their child spans.  Exceptions pass through unchanged.

The package is not modified: everything here happens from the benchmark's
own files, and leaving the tracer's ``with`` block restores every original
binding.  A trace point whose name no longer exists raises LookupError.
"""

from __future__ import annotations

import csv
import importlib
import os
import time

LAYERS = ("problem", "tridiag", "grid", "monitor", "equidist", "solver", "adapt",
          "analysis", "experiments", "io")


def _unknowns(args, result):
    return args[0].n


def _converged(args, result):
    return bool(result.converged)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (module, class or "", name looked up at call time, layer, value recorded
# from a call that returned)
TRACE_POINTS = (
    ("equifd.solver", "", "solve_tridiagonal", "tridiag", _unknowns),
    ("equifd.equidist", "", "solve_tridiagonal", "tridiag", _unknowns),
    ("equifd.adapt", "", "solve_bvp", "solver", None),
    ("equifd.solver", "", "solve_bvp", "solver", None),
    ("equifd.adapt", "", "equidistribute", "equidist", None),
    ("equifd.equidist", "", "equidistribute", "equidist", None),
    ("equifd.monitor", "ConstantMonitor", "interval_values", "monitor", None),
    ("equifd.monitor", "ExactPowerMonitor", "interval_values", "monitor", None),
    ("equifd.monitor", "DiscreteGradientMonitor", "interval_values", "monitor", None),
    ("equifd.monitor", "ScaledMonitor", "interval_values", "monitor", None),
    ("equifd.experiments", "", "adaptive_solve", "adapt", _converged),
    ("equifd.adapt", "", "max_error", "analysis", None),
    ("equifd.analysis", "", "max_error", "analysis", None),
    ("equifd.experiments", "", "refinement_ladder", "analysis", None),
    ("equifd.adapt", "", "uniform_grid", "grid", None),
    ("equifd.adapt", "", "Grid", "grid", None),
    ("equifd.equidist", "", "uniform_grid", "grid", None),
    ("equifd.equidist", "", "Grid", "grid", None),
    ("equifd.experiments", "", "analytic_mapped_grid", "grid", None),
    ("equifd.grid", "", "analytic_mapped_grid", "grid", None),
    ("equifd.analysis", "", "exact_solution", "problem", None),
    ("equifd.monitor", "", "exact_derivative", "problem", None),
    ("equifd.experiments", "", "write_csv", "io", _file_bytes),
    ("equifd.io", "", "write_csv", "io", _file_bytes),
    ("equifd.experiments", "", "run_table1", "experiments", None),
    ("equifd.experiments", "", "run_table2", "experiments", None),
)

# span fields
LAYER, NAME, PARENT, START, END, RAISED, VALUE = range(7)


class Tracer:
    """Records one span per traced call into ``spans`` while installed (as a
    context manager), in start order."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._saved = []

    def __enter__(self):
        for module_name, class_name, attr, layer, record in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            where = module_name
            if class_name:
                owner = vars(owner).get(class_name)
                where = f"{module_name}.{class_name}"
            if owner is None or attr not in vars(owner):
                self.__exit__()
                raise LookupError(f"traced name {where}.{attr} no longer exists")
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, f"{where}.{attr}", record))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer, name, record):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [layer, name, stack[-1], clock(), 0, "", None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[END] = clock()
            if record is not None:
                span[VALUE] = record(args, result)
            return result

        return traced


def self_times(spans) -> list:
    """Self time of each span in ns: its duration minus its children's."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _ratio(good: int, attempts: int) -> float:
    # no attempts wastes nothing
    return good / attempts if attempts else 1.0


def summarize(spans) -> tuple[dict, dict]:
    """Exact work counts and per-layer self seconds of one traced pass."""
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    unknowns = sweeps = stalls = stalled_sweeps = equidist_raised = 0
    outer = adapt_converged = io_bytes = 0
    for s, own in zip(spans, self_times(spans)):
        layer = s[LAYER]
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        parent_layer = parent[LAYER] if parent else ""
        calls[layer] += 1
        self_ns[layer] += own
        if layer == "tridiag":
            unknowns += s[VALUE] or 0
            if parent_layer == "equidist":
                sweeps += 1
                stalled_sweeps += parent[RAISED] == "EquidistributionError"
        elif layer == "equidist":
            equidist_raised += bool(s[RAISED])
            stalls += s[RAISED] == "EquidistributionError"
        elif layer == "solver":
            outer += parent_layer == "adapt"
        elif layer == "adapt":
            adapt_converged += bool(s[VALUE])
        elif layer == "io":
            io_bytes += s[VALUE] or 0
    counts = {f"{layer}.calls": calls[layer] for layer in LAYERS}
    counts.update({
        "tridiag.unknowns": unknowns,
        "equidist.sweeps": sweeps,
        "equidist.stalls": stalls,
        "equidist.stalled_sweeps": stalled_sweeps,
        "equidist.converged_ratio": _ratio(calls["equidist"] - equidist_raised, calls["equidist"]),
        "adapt.outer_iters": outer,
        "adapt.converged_ratio": _ratio(adapt_converged, calls["adapt"]),
        "io.bytes": io_bytes,
    })
    seconds = {f"{layer}.self_s": self_ns[layer] * 1e-9 for layer in LAYERS}
    seconds["tridiag.ns_per_unknown"] = self_ns["tridiag"] / unknowns if unknowns else 0.0
    return counts, seconds


def write_spans(path, spans) -> None:
    """One CSV row per span; times in ns from the first span's start."""
    base = spans[0][START] if spans else 0
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "parent", "layer", "name", "start_ns", "end_ns", "self_ns",
                      "raised", "value"])
        for i, (s, own) in enumerate(zip(spans, self_times(spans))):
            out.writerow([i, s[PARENT], s[LAYER], s[NAME], s[START] - base, s[END] - base,
                          own, s[RAISED], "" if s[VALUE] is None else s[VALUE]])
