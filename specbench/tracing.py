"""Outside-in layer trace: spans around each layer's public entry point.

Nothing under ``src/`` knows about this module.  :func:`install` swaps
each layer's entry point for a thin wrapper *where the program looks it
up*: a method on its class, or a function in every ``repro`` module that
bound it (``from repro.core.annealing import anneal`` gives
``repro.core.balancer`` its own ``anneal`` name, and so on), or an entry
in a dispatch table.  :func:`uninstall` puts the originals back.

Each wrapper records a span ``[name, start, end, parent, run]`` into a
:class:`SpanRecorder`, which keeps them in memory until the benchmark
writes them out, and bumps exact work counters.  A span's self time is
its duration minus the part of it that its children cover; host-speed
probes that fired inside a span are attached to it as children named
``host.probe`` (see :func:`attach_probes`), so probe time lands in no
layer.  The self times of all spans of a repetition, probes included,
sum to the duration of its root span.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PROBE = "host.probe"
ROOT = "execute"

#: Span field positions.
NAME, START, END, PARENT, RUN = range(5)


class SpanRecorder:
    """In-memory span store plus work counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.run: Optional[str] = None
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.run])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, run in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "run": run}
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def attach_probes(
    spans: List[list], first: int, probes: Sequence[Tuple[float, float]], run: str
) -> None:
    """Append each probe ``(start, duration)`` as a :data:`PROBE` child
    of the innermost span among ``spans[first:]`` that contains it.

    Spans are stored in the order they opened, so the last span opened
    before a probe is either its innermost container or a descendant of
    it; walking up its parents finds the container.
    """
    starts = [span[START] for span in spans[first:]]
    for p_start, p_dur in probes:
        p_end = p_start + p_dur
        i = first + bisect.bisect_right(starts, p_start) - 1
        while i >= first and spans[i][END] < p_end:
            i = spans[i][PARENT]
        if i < first:
            continue  # outside every span of this repetition
        spans.append([PROBE, p_start, p_end, i, run])


def self_times(spans: Sequence[list], first: int = 0) -> List[float]:
    """Self time of each span in ``spans[first:]``: its duration minus
    the union of its children's intervals, clipped to it."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans[first:]:
        if span[PARENT] >= first:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index in range(first, len(spans)):
        start, end = spans[index][START], spans[index][END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans: Sequence[list], first: int = 0) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans[first:], self_times(spans, first)):
        totals[span[NAME]] += own
    return dict(totals)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _wrap(rec: SpanRecorder, fn, name: str, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, out)
        return out

    return traced


def _counter(name: str):
    return lambda rec, out: rec.count(name)


def _after_decide(rec: SpanRecorder, decision) -> None:
    rec.count("core.decisions")
    if decision.placement:
        rec.count("core.adopted")


def _after_anneal(rec: SpanRecorder, result) -> None:
    rec.count("core.anneal_calls")
    rec.count("core.anneal_iterations", result.iterations)
    rec.count("core.anneal_accepted", result.accepted_moves)


#: (module, attribute path, span name, hook run on the return value).
#: A dotted path is a method patched on its class; a bare name is a
#: function, patched in every ``repro`` module that bound it.
LAYERS = [
    ("repro.runner.factories", "make_platform", "setup.platform", None),
    ("repro.runner.factories", "make_workload", "setup.workload", None),
    ("repro.scenarios.builders", "build_scenario", "setup.scenario", None),
    ("repro.runner.factories", "make_balancer", "setup.balancer", None),
    ("repro.kernel.simulator", "System.__init__", "kernel.construct", None),
    ("repro.kernel.simulator", "System.run", "kernel.loop", None),
    ("repro.kernel.simulator", "System.build_view", "kernel.view", _counter("kernel.views")),
    ("repro.kernel.simulator", "System.migrate", "kernel.migrate",
     _counter("kernel.migrations")),
    ("repro.kernel.soa", "SoaKernel.__init__", "kernel.soa_layout", None),
    ("repro.kernel.soa", "SoaKernel._ensure_layout", "kernel.soa_layout", None),
    ("repro.kernel.soa", "SoaKernel.simulate_period", "kernel.simulate",
     _counter("kernel.periods")),
    ("repro.kernel.soa", "SoaKernel.sync_to_objects", "kernel.sync", None),
    ("repro.hardware.sensors", "SensingInterface.read_counters", "hardware.sensor_read",
     _counter("hardware.sensor_reads")),
    ("repro.hardware.sensors", "SensingInterface.read_power", "hardware.sensor_read",
     _counter("hardware.sensor_reads")),
    ("repro.kernel.balancers.smart", "SmartBalanceKernelAdapter.rebalance", "core.decide",
     None),
    ("repro.core.balancer", "SmartBalance.decide", "core.decide", _after_decide),
    ("repro.core.sensing", "sense", "core.sense", None),
    ("repro.core.prediction", "MatrixBuilder.build", "core.matrix_build", None),
    ("repro.core.objective", "EnergyEfficiencyObjective.__init__", "core.objective_init",
     _counter("core.objectives_built")),
    ("repro.core.objective", "IncrementalEvaluator.__init__", "core.evaluator_init", None),
    ("repro.core.annealing", "anneal", "core.anneal", _after_anneal),
    ("repro.governor.scaling", "ConditionedObjectiveFactory.__init__",
     "governor.objective", None),
    ("repro.governor.scaling", "ConditionedObjectiveFactory.objective",
     "governor.objective", _counter("governor.objective_calls")),
    ("repro.scenarios.runtime", "OpenLoopRuntime.attach", "scenarios.hook", None),
    ("repro.scenarios.runtime", "OpenLoopRuntime.on_period", "scenarios.hook", None),
    ("repro.scenarios.runtime", "OpenLoopRuntime.task_extras", "scenarios.hook", None),
    ("repro.scenarios.runtime", "OpenLoopRuntime.stats", "scenarios.hook", None),
]

#: Dispatch tables looked up at call time: (module, dict name, span).
TABLES = [("repro.governor.strategies", "STRATEGIES", "governor.search")]

#: Modules that must be loaded before patching, so that every binding
#: of a wrapped function already exists.
_PRELOAD = (
    "repro.runner.engine",
    "repro.scenarios",
    "repro.governor",
    "repro.governor.balancer",
    "repro.core.variants",
)

_Undo = List[Tuple[object, str, object, bool]]


def _set(undo: _Undo, owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        undo.append((owner, attr, owner[attr], True))
        owner[attr] = value
    else:
        undo.append((owner, attr, owner.__dict__[attr], False))
        setattr(owner, attr, value)


def install(rec: SpanRecorder, layers=LAYERS, tables=TABLES) -> _Undo:
    """Wrap every entry point in ``layers`` and ``tables`` (by default
    all of them); returns the undo log for :func:`uninstall`."""
    for name in _PRELOAD:
        importlib.import_module(name)
    undo: _Undo = []
    for module_name, path, span, after in layers:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            _set(undo, cls, attr, _wrap(rec, cls.__dict__[attr], span, after))
            continue
        original = getattr(module, path)
        wrapped = _wrap(rec, original, span, after)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                mod.__dict__.get(path) is original
            ):
                _set(undo, mod, path, wrapped)
    for module_name, table_name, span in tables:
        table = getattr(importlib.import_module(module_name), table_name)
        for key, fn in list(table.items()):
            _set(undo, table, key, _wrap(rec, fn, span))
    return undo


def uninstall(undo: _Undo) -> None:
    for owner, attr, original, is_table in reversed(undo):
        if is_table:
            owner[attr] = original
        else:
            setattr(owner, attr, original)
    undo.clear()
