"""Span recorder for the traced benchmark run.

The benchmark times each layer from outside the program: it replaces a
public function with a wrapper at the place its callers look it up (a
module attribute or a class attribute, so subclasses such as the Tier 1
executor inherit the wrapper), records one span per call and leaves the
call's arguments and result untouched.

A span is ``(name, parent, start, end)``; the parent is the index of the
innermost span open when the call began, or -1.  Spans stay in memory and
are written out once, when the operation ends.  A layer's self time is the
total duration of its spans minus the part covered by their child spans.

Only the thread that created the recorder records, and recording stops in
a forked child: pool workers (processes, or threads with the thread
backend) inherit the wrappers but not the recorder's attention, so worker
time shows up in the parent only as time spent waiting in the batch layer.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["Recorder", "layer_table", "installed", "self_times"]


class Recorder:
    """In-memory span store plus counters observed from call results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter[str] = Counter()
        self.on = True
        self._thread = threading.get_ident()
        self._stack: list[int] = []
        self._seen_compiles: set[tuple] = set()
        self._fn_text: dict[int, tuple[object, str]] = {}

    # ------------------------------------------------------------------ #

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[["Recorder", tuple, dict, object], None] | None = None,
    ) -> Callable:
        """*fn* with one span per call; *observe* sees args and result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def stop_in_child(self) -> None:
        self.on = False

    # ------------------------------------------------------------------ #

    def compile_key(self, fn, config) -> tuple:
        """Identity of one compile: the IR text and the configuration."""
        entry = self._fn_text.get(id(fn))
        if entry is None or entry[0] is not fn:
            entry = (fn, str(fn))
            self._fn_text[id(fn)] = entry
        return (entry[1], config.key())

    def write_jsonl(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    f'{{"id":{i},"parent":{self.parents[i]},"name":"{name}",'
                    f'"start":{self.starts[i]:.9f},"end":{self.ends[i]:.9f}}}\n'
                )
        return len(self.names)


def self_times(rec: Recorder) -> dict[str, list]:
    """Per-name ``[self seconds, calls, total seconds]``."""
    child = [0.0] * len(rec.names)
    for i, p in enumerate(rec.parents):
        if p >= 0:
            child[p] += rec.ends[i] - rec.starts[i]
    out: dict[str, list] = {}
    for i, name in enumerate(rec.names):
        row = out.setdefault(name, [0.0, 0, 0.0])
        duration = rec.ends[i] - rec.starts[i]
        row[0] += duration - child[i]
        row[1] += 1
        row[2] += duration
    return out


# --------------------------------------------------------------------------- #
# observers: counters read from the values the wrapped calls return


def _count_rating(rec: Recorder, args, kwargs, result) -> None:
    rec.counters["core.rating.ratings"] += 1
    if getattr(result, "converged", False):
        rec.counters["core.rating.converged"] += 1


def _count_tune(rec: Recorder, args, kwargs, result) -> None:
    rec.counters["runtime.ledger.invocations"] += result.ledger.invocations
    rec.counters["runtime.ledger.program_runs"] += result.ledger.program_runs


def _count_compile(rec: Recorder, args, kwargs, result) -> None:
    fn, config = args[0], args[1]
    key = rec.compile_key(fn, config)
    if key in rec._seen_compiles:
        rec.counters["compiler.pipeline.repeat_compiles"] += 1
    rec._seen_compiles.add(key)


def _count_final_measure(rec: Recorder, args, kwargs, result) -> None:
    from repro.compiler.options import OptConfig

    if args[1] == OptConfig.o3():
        rec.counters["core.peak.o3_measures"] += 1


def _count_batch(rec: Recorder, args, kwargs, result) -> None:
    rec.counters["core.engine.tasks"] += len(result)


def layer_table() -> list[tuple[object, str, str, Callable | None]]:
    """``(owner, attribute, layer, observer)`` for every wrapped call site."""
    import repro.compiler.pipeline as pipeline
    import repro.core.engine as engine
    import repro.core.peak as peak
    import repro.core.rating.baselines as baselines
    import repro.core.rating.cbr as cbr
    import repro.core.rating.mbr as mbr
    import repro.core.rating.rbr as rbr
    import repro.machine.jit as jit
    import repro.machine.profiler as profiler
    from repro.core.rating.feed import InvocationFeed
    from repro.core.search.parallel import ParallelEvaluator
    from repro.machine.executor import Executor
    from repro.runtime.instrument import TimedExecutor
    from repro.runtime.save_restore import SaveRestorePlan
    from repro.workloads.base import Dataset

    table: list[tuple[object, str, str, Callable | None]] = [
        (peak.PeakTuner, "tune", "core.peak.tune", _count_tune),
        (peak, "measure_whole_program", "core.peak.final_measure",
         _count_final_measure),
        (ParallelEvaluator, "map", "core.engine.batch", _count_batch),
        (Executor, "run", "machine.executor.run", None),
        (jit, "build_traces", "machine.jit.build_traces", None),
        (pipeline, "compute_costing", "compiler.effects.costing", None),
        (pipeline, "validate_function", "ir.validate.validate", None),
        (pipeline, "compile_function", "machine.executor.codegen", None),
        (profiler, "compile_function", "machine.executor.codegen", None),
        (mbr, "solve_component_times", "core.rating.mbr.solve", None),
        (SaveRestorePlan, "save", "runtime.save_restore.save_restore", None),
        (SaveRestorePlan, "observe_writes", "runtime.save_restore.save_restore",
         None),
        (SaveRestorePlan, "restore", "runtime.save_restore.save_restore", None),
        (TimedExecutor, "invoke", "runtime.instrument.invoke", None),
        (InvocationFeed, "next_env", "workloads.env", None),
        (Dataset, "env", "workloads.env", None),
    ]
    for module in (peak, engine):
        table += [
            (module, "compile_version", "compiler.pipeline.compile",
             _count_compile),
            (module, "profile_tuning_section", "machine.profiler.profile", None),
            (module, "consult", "core.rating.consultant.consult", None),
        ]
    for cls, attr in ((rbr.ReExecutionRating, "rate_pair"),
                      (cbr.ContextBasedRating, "rate"),
                      (mbr.ModelBasedRating, "rate"),
                      (baselines.AverageRating, "rate"),
                      (baselines.WholeProgramRating, "rate")):
        table.append((cls, attr, "core.rating.rate", _count_rating))
    for module in (rbr, cbr, mbr, baselines):
        table.append((module, "filter_outliers", "core.rating.outliers.filter",
                      None))
    return table


@contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every call site in :func:`layer_table`; restore them on exit."""
    saved = []
    try:
        for owner, attr, layer, observe in layer_table():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(layer, original, observe))
        os.register_at_fork(after_in_child=rec.stop_in_child)
        yield rec
    finally:
        rec.on = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
