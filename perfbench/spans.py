"""In-memory span recorder, timing wrappers and self-time accounting.

A span is one call of an instrumented function: its name, start, end, the
span that was open when it started (its parent) and the benchmark op it
belongs to.  Spans stay in memory while the traced run is timed and are
written out once at the end.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Summed over every span of a single-threaded run, the
self times add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class SpanRecorder:
    """Parallel lists of span fields plus the stack of open spans.

    Besides its times, a span may carry two numbers filled in by its wrapper:
    ``units`` (a count of work items, default 1) and ``work`` (a computed
    amount such as GFLOP or megabytes, default 0).
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.units: list[float] = []
        self.work: list[float] = []
        self._stack: list[int] = []
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.units.append(1.0)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        """Write the spans as a NumPy ``.npz`` archive."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int32),
            units=np.array(self.units),
            work=np.array(self.work),
        )


def timed(recorder: SpanRecorder, name: str, fn, measure=None):
    """Wrap ``fn`` so that every call records one span called ``name``.

    ``measure(args, kwargs, result)`` may return ``(units, work)`` for the
    span; it runs after the span has closed, so it is not timed.
    """
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if measure is not None:
            recorder.units[index], recorder.work[index] = measure(args, kwargs, result)
        return result

    return wrapper


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping or overhanging children are not
    counted twice.
    """
    children = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append(index)
    out = [e - s for s, e in zip(start, end)]
    for up, kids in children.items():
        lo, hi = start[up], end[up]
        covered = 0.0
        run_start = run_end = None
        for kid in sorted(kids, key=start.__getitem__):
            s, e = max(start[kid], lo), min(end[kid], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[up] -= covered
    return out


class Patcher:
    """Replace attributes and put the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, wrapper) -> None:
        """Rebind ``wrapper`` wherever a module of the memn package binds ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "memn" or mod_name.startswith("memn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
