"""Span recording from outside the program, and the arithmetic the reports
use: self time of nested spans and percentiles under a sample-count rule.

A Recorder wraps plain functions; it never touches the code it wraps. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import math
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Sequence

# Index of each field in a recorded span.
NAME, START, END, PARENT, DIALOG = range(5)


class Recorder:
    """In-memory span tape. ``spans`` lists them as tuples
    (name, start, end, parent index, dialog id) in the order they opened, so
    a parent's index is always below its children's.

    ``dialog`` is the id of the dialog being processed; a hook sets it when a
    call names its dialog, and the spans opened until the next such call
    carry it. Fields are kept in flat arrays, which the garbage collector
    never scans, so a long tape does not slow the code being traced.
    """

    def __init__(self) -> None:
        self.dialog: int | None = None
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("q")      # -1: no parent
        self._dialog = array("q")      # -1: no dialog
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self._start)
        nid = self._name_ids.setdefault(name, len(self._names))
        if nid == len(self._names):
            self._names.append(name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._dialog.append(-1 if self.dialog is None else self.dialog)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @property
    def spans(self) -> list[tuple]:
        return [(self._names[n], a, b, None if p < 0 else p, None if d < 0 else d)
                for n, a, b, p, d in zip(self._name, self._start, self._end,
                                         self._parent, self._dialog)]

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable,
             before: Callable | None = None, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``before(args, kwargs)`` runs outside the
        span ahead of the call and ``after(result)`` outside it after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out)
            return out

        return traced

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "dialog")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def covered(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return [(s[END] - s[START]) - covered(kids, s[START], s[END])
            for s, kids in zip(spans, children)]


def min_samples(q: float) -> int:
    """Fewest samples for which the q-th percentile has ten beyond it."""
    return math.ceil(Fraction(10) / (1 - Fraction(str(q)) / 100))


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than ten samples lie
    beyond it (the tail is then not measured)."""
    n = len(samples)
    rank = math.ceil(Fraction(str(q)) / 100 * n)
    if n == 0 or n - rank < 10:
        return None
    return sorted(samples)[max(rank, 1) - 1]
