"""In-memory spans and self-time arithmetic for the traced run.

A span is one timed call into a layer: its name (``<layer>.<what>``, or
``cell`` for the per-cell root), host start and end times from
``time.perf_counter``, the index of the span that was open when it
started, and the id of the cell it belongs to.  Spans are kept in a list
and written out when the benchmark ends.

A span's *self time* is its duration minus the part of that interval its
children cover.  :class:`SpanRecorder` closes spans innermost first, so
every child lies inside its parent, siblings never overlap, and the self
times of a tree sum to its root's duration by construction.  What can
go wrong is attribution: :func:`cell_self_shares` gives the share of
each cell that no layer span covers.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "NO_PARENT",
    "Span",
    "SpanRecorder",
    "cell_self_shares",
    "self_times",
]

NO_PARENT = -1
"""Parent index of a span opened with no other span open."""


class Span:
    """One timed call: ``[start, end]`` in ``perf_counter`` seconds."""

    __slots__ = ("cell", "end", "name", "parent", "start")

    def __init__(
        self, name: str, start: float, end: float, parent: int, cell: str
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.cell = cell

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "cell": self.cell,
        }


class SpanRecorder:
    """Opens and closes nested spans in the process that created it.

    Forked children (shard workers) inherit the recorder; :meth:`active`
    is false there, so wrappers call straight through and the parent's
    record is never touched from another process.

    A signal handler may open spans of its own (host-speed probes) and
    runs between any two bytecodes, so it can interrupt :meth:`open` or
    :meth:`close` half done: it must open no span while :attr:`busy` is
    set, or the interrupted span is left unclosed.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.cell = ""
        self.busy = False
        self._stack: List[int] = []

    def active(self) -> bool:
        return os.getpid() == self.pid

    def current(self) -> str:
        """Name of the innermost open span, or ``""``."""
        return self.spans[self._stack[-1]].name if self._stack else ""

    def open(self, name: str) -> int:
        self.busy = True
        parent = self._stack[-1] if self._stack else NO_PARENT
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.cell))
        self._stack.append(index)
        self.busy = False
        return index

    def close(self, index: int) -> None:
        self.busy = True
        self.spans[index].end = perf_counter()
        popped = self._stack.pop()
        self.busy = False
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed while "
                f"{self.spans[popped].name!r} was innermost"
            )


def children_of(spans: Sequence[Span]) -> Dict[int, List[int]]:
    """Parent index -> child indices (``NO_PARENT`` holds the roots)."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span.parent, []).append(index)
    return children


def _covered(span: Span, kids: Sequence[Span]) -> float:
    """Length of the union of ``kids`` clipped to ``span``'s interval."""
    intervals = sorted(
        (max(kid.start, span.start), min(kid.end, span.end)) for kid in kids
    )
    total = 0.0
    cur_start, cur_end = None, None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    children = children_of(spans)
    return [
        span.duration
        - _covered(span, [spans[k] for k in children.get(index, ())])
        for index, span in enumerate(spans)
    ]


def cell_self_shares(spans: Sequence[Span]) -> List[Tuple[str, float]]:
    """``(cell id, share)`` per ``cell`` span: the fraction of the cell's
    duration that no layer span inside it covers.

    Time in a cell goes either to a layer call the benchmark wraps or to
    the cell's own code (job dispatch, result assembly).  A large share
    means the cell spends its time somewhere the layer split cannot see.
    """
    selfs = self_times(spans)
    return [
        (span.cell, selfs[index] / span.duration if span.duration > 0
         else 0.0)
        for index, span in enumerate(spans)
        if span.name == "cell"
    ]
