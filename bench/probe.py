"""Instrumentation for the benchmark: result capture and per-layer spans.

The program is not changed. A :class:`Probe` replaces public functions of the
``hetbandit`` modules by wrappers for the duration of a ``with`` block and
puts the originals back when it ends. Every module that imported a function
by name gets the wrapper too, or the calls made through that name would go
unseen.

Untraced, a probe only keeps the return value of each cell (one identification
run or one estimate called from the runner), so the benchmark can check the
answers after the timed region. Traced, it also records a span for every
wrapped call: name, layer, start, end and the index of the enclosing span.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# (layer, function name, modules that call it by this name). The first
# module is the one that defines the function.
SPANNED = (
    ("runner", "run_suite", ("runner",)),
    ("presets", "build_preset", ("presets", "runner")),
    ("ident", "hrage_run", ("ident", "runner")),
    ("ident", "rage_run", ("ident", "runner")),
    ("ident", "oracle_run", ("ident", "runner")),
    ("ident", "psi_star", ("ident", "runner")),
    ("varest", "head_estimate", ("varest", "ident", "runner")),
    ("varest", "uniform_estimate", ("varest", "runner")),
    ("varest", "separate_arm_estimate", ("varest", "runner")),
    ("design", "solve_design", ("design", "ident", "varest")),
)
ENV_METHODS = ("sample_schedule", "sample_schedule_sums")
# Counted, not timed: a span per call would cost more than the call.
COUNTED = ("solve_psd", ("core", "design", "ident", "varest"))
# The functions the runner calls once per cell.
CELL_FUNCTIONS = (
    "hrage_run", "rage_run", "oracle_run",
    "head_estimate", "uniform_estimate", "separate_arm_estimate",
)


class Probe:
    """Wraps the package's layer functions; see the module docstring."""

    def __init__(self, trace: bool):
        self.trace = trace
        # Each span is [name, layer, start, end, parent index or -1].
        self.spans: list[list] = []
        self._open: list[int] = []
        # (function name, positional arguments, result) per runner cell.
        self.cells: list[tuple[str, tuple, object]] = []
        # (round, problem, design, span index) per solve_design call, traced only.
        self.designs: list[tuple[int, object, object, int]] = []
        self.round = 0
        self.counts: Counter = Counter()

    def _spanned(self, layer: str, name: str, fn):
        spans, opened = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = opened[-1] if opened else -1
            record = [name, layer, time.perf_counter(), 0.0, parent]
            spans.append(record)
            opened.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                opened.pop()

        return wrapper

    def _designs(self, fn):
        designs, spans = self.designs, self.spans

        def wrapper(problem, *args, **kwargs):
            # Taken before the call: the span wrapper inside appends at this index.
            index = len(spans)
            design = fn(problem, *args, **kwargs)
            designs.append((self.round, problem, design, index))
            return design

        return wrapper

    def _pulls(self, fn, per_pull: bool):
        counts = self.counts

        def wrapper(env, schedule):
            counts["env.pulls"] += schedule.total
            if per_pull:
                counts["env.per_pull_draws"] += schedule.total
            return fn(env, schedule)

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cell(self, name: str, fn):
        cells = self.cells

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            cells.append((name, args, result))
            return result

        return wrapper

    @contextmanager
    def installed(self, package):
        """Install the wrappers into ``package``'s modules; restore on exit."""
        modules = {
            name: getattr(package, name)
            for name in ("core", "design", "env", "ident", "presets", "runner", "varest")
        }
        saved: list[tuple[object, str, object]] = []

        def replace(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for layer, name, users in SPANNED:
                original = getattr(modules[users[0]], name)
                inner = self._spanned(layer, name, original) if self.trace else original
                if self.trace and name == "solve_design":
                    inner = self._designs(inner)
                for user in users:
                    wrapped = inner
                    if user == "runner" and name in CELL_FUNCTIONS:
                        wrapped = self._cell(name, inner)
                    if wrapped is not original:
                        replace(modules[user], name, wrapped)
            if self.trace:
                env_cls = modules["env"].Environment
                for method in ENV_METHODS:
                    fn = self._spanned("env", method, getattr(env_cls, method))
                    replace(env_cls, method, self._pulls(fn, method == "sample_schedule"))
                name, users = COUNTED
                original = getattr(modules[users[0]], name)
                counted = self._counted(f"core.{name}_calls", original)
                for user in users:
                    replace(modules[user], name, counted)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    The program is single-threaded, so children of one span never overlap
    and the time they cover is the sum of their durations.
    """
    own = [end - start for _name, _layer, start, end, _parent in spans]
    for _name, _layer, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
