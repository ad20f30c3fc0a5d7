"""A small discrete-event simulation kernel.

This is the substrate every simulator in the library runs on.  It has one
programming style: :meth:`Environment.schedule` (and its absolute-time and
bulk variants) runs a plain callable at a future time, and callbacks
schedule further callbacks.  There is no coroutine layer.

Time is a float; the unit is chosen by the caller (network simulators use
nanoseconds, the gate-level circuit simulator uses picoseconds).

Hot-path engineering (see DESIGN.md section 10): pending events are
``(time, seq, fn, args)`` tuples where ``seq`` is a plain integer sequence
(FIFO tie-break for simultaneous events, no ``itertools.count`` indirection).
They live in three sorted sources: the heap, the sorted
:meth:`Environment.schedule_batch` side list, and the *lane*, a FIFO for
events whose ``(time, seq)`` keys never decrease (Baldur's fixed-latency
stage hops).  :meth:`Environment.run` drains all three in one loop, always
taking the smallest head.  None of this changes event ordering: the
``(time, seq)`` keys -- and therefore the dispatch sequence -- are identical
to one naive heap, which is what keeps simulation results byte-identical.
Queue depths (:meth:`Environment.run`'s profile feed) count all three.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.profile import KernelProfile

__all__ = ["Environment"]

_INF = float("inf")

# One scheduled entry: (absolute time, FIFO tie-break seq, callback, args).
_QueueItem = Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]


class Environment:
    """The simulation clock and event queue."""

    __slots__ = ("_now", "_queue", "_seq", "_profile", "_run", "_ridx",
                 "_running", "_lane")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[_QueueItem] = []
        # FIFO tie-break for simultaneous events: a plain int sequence
        # (cheaper than itertools.count and picklable if ever needed).
        self._seq = 0
        # Bulk-scheduled events (schedule_batch) live in this sorted list
        # and are merged with the heap at dispatch time.  Keeping the
        # open-loop pre-schedule out of the heap keeps the heap small, and
        # every sift during the run is O(log heap) of the *dynamic* event
        # population only.  _ridx is the cursor of the next unconsumed
        # entry.
        self._run: List[_QueueItem] = []
        self._ridx = 0
        # The lane: a FIFO of items whose (time, seq) keys never decrease,
        # so appending keeps it sorted and dispatch needs no heap sift.
        # Its one writer is BaldurNetwork._arrive_stage (the argument is
        # at the append site); everything else uses the schedule calls.
        self._lane: Deque[_QueueItem] = deque()
        # True while run() is draining (schedule_batch then must push into
        # the heap: run() holds the sorted list in locals).
        self._running = False
        # Opt-in kernel profiling (repro.obs.KernelProfile); None keeps the
        # dispatch loop on its unobserved fast path.
        self._profile: Optional[KernelProfile] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def profile(self) -> Optional[KernelProfile]:
        """The attached :class:`~repro.obs.KernelProfile`, or ``None``."""
        return self._profile

    def enable_profiling(self) -> KernelProfile:
        """Attach (and return) a kernel profile counting every dispatch.

        Idempotent: repeated calls return the same profile.  Profiling
        observes the kernel only -- it cannot change event order or
        simulation results (wall times are reported, never consumed).
        """
        if self._profile is None:
            self._profile = KernelProfile()
        return self._profile

    def disable_profiling(self) -> Optional[KernelProfile]:
        """Detach the kernel profile (returns it for final inspection)."""
        profile, self._profile = self._profile, None
        return profile

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` time units.

        ``delay`` must be finite and non-negative: NaN or infinite delays
        would silently corrupt the heap order (every comparison against
        NaN is False), so they are rejected eagerly.
        """
        when = self._now + delay
        if not (delay >= 0.0 and when < _INF):
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, fn, args))

    def schedule_at(
        self, when: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Run ``fn(*args)`` at absolute time ``when`` (finite, >= now)."""
        if not (self._now <= when < _INF):
            raise SimulationError(
                f"cannot schedule at t={when!r} (now={self._now}): "
                f"time must be finite and >= now"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, fn, args))

    def schedule_batch(
        self,
        entries: Iterable[Tuple[float, Callable[..., Any], Tuple[Any, ...]]],
    ) -> int:
        """Bulk-schedule ``(when, fn, args)`` triples at absolute times.

        Equivalent to calling :meth:`schedule_at` once per entry in
        iteration order (identical FIFO tie-break sequence, identical
        dispatch order), but validates everything up front and -- when
        nothing else is scheduled, the common open-loop pre-scheduling
        case -- sorts the batch once into a side list that :meth:`run`
        merges with the heap by ``(time, seq)``.  The heap then only ever
        holds dynamically scheduled events, so every push/pop during the
        run sifts through a much smaller heap.  Dispatch order is
        identical either way.  Returns the number of entries scheduled.
        """
        now = self._now
        seq = self._seq
        items: List[_QueueItem] = []
        append = items.append
        for when, fn, args in entries:
            if not (now <= when < _INF):
                raise SimulationError(
                    f"cannot schedule at t={when!r} (now={now}): "
                    f"time must be finite and >= now"
                )
            append((when, seq, fn, args))
            seq += 1
        queue = self._queue
        if (self._running or queue or self._lane
                or self._ridx < len(self._run)):
            push = heapq.heappush
            for item in items:
                push(queue, item)
        else:
            # Sorting compares (when, seq, ...) tuples; seq is unique, so
            # callbacks are never compared.
            items.sort()
            self._run = items
            self._ridx = 0
        self._seq = seq
        return len(items)

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until nothing remains scheduled, or until time ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue empties earlier.

        This is the kernel's hottest loop: the sources and their pop
        methods are bound to locals so each event costs a few head
        comparisons, one pop and one call.  Events come from three sources,
        each sorted by ``(time, seq)``: the lane (checked first, because
        Baldur's stage hops make it the common source), the heap of
        dynamically scheduled events and the sorted :meth:`schedule_batch`
        list.  The merge takes whichever head is smallest, which is exactly
        the order one big heap would produce, so the split cannot change
        simulation results.  Without ``until`` the stop time is ``+inf``,
        which no scheduled (finite) time exceeds, so one loop serves both
        cases.
        """
        if until is None:
            stop = _INF
        elif until < self._now:
            raise SimulationError(
                f"until={until} is in the past (now={self._now})"
            )
        else:
            stop = until
        queue = self._queue
        pop = heapq.heappop
        lane = self._lane
        popleft = lane.popleft
        run_list = self._run
        rlen = len(run_list)
        ridx = self._ridx
        self._running = True
        try:
            while True:
                if lane:
                    item = lane[0]
                    if queue and queue[0] < item:
                        item = queue[0]
                        if ridx < rlen and run_list[ridx] < item:
                            item = run_list[ridx]
                            if item[0] > stop:
                                break
                            ridx += 1
                            self._ridx = ridx
                        else:
                            if item[0] > stop:
                                break
                            pop(queue)
                    elif ridx < rlen and run_list[ridx] < item:
                        item = run_list[ridx]
                        if item[0] > stop:
                            break
                        ridx += 1
                        self._ridx = ridx
                    else:
                        if item[0] > stop:
                            break
                        popleft()
                elif ridx < rlen:
                    item = run_list[ridx]
                    if queue and queue[0] < item:
                        if queue[0][0] > stop:
                            break
                        item = pop(queue)
                    else:
                        if item[0] > stop:
                            break
                        ridx += 1
                        self._ridx = ridx
                elif queue:
                    if queue[0][0] > stop:
                        break
                    item = pop(queue)
                else:
                    break
                when, _, fn, args = item
                self._now = when
                profile = self._profile
                if profile is None:
                    fn(*args)
                else:
                    profile.dispatch(
                        fn, args,
                        len(queue) + (rlen - ridx) + len(lane) + 1,
                    )
            if until is not None:
                self._now = float(until)
        finally:
            self._running = False
            self._ridx = ridx
            if ridx >= rlen:
                # Batch fully consumed: drop it so the next
                # schedule_batch can take the sorted-list path again.
                self._run = []
                self._ridx = 0

    def peek(self) -> float:
        """Time of the next scheduled item, or +inf if nothing remains."""
        queue = self._queue
        when = queue[0][0] if queue else _INF
        ridx = self._ridx
        run_list = self._run
        if ridx < len(run_list) and run_list[ridx][0] < when:
            when = run_list[ridx][0]
        lane = self._lane
        if lane and lane[0][0] < when:
            when = lane[0][0]
        return when

    def empty(self) -> bool:
        """True if nothing remains scheduled."""
        return (
            not self._queue
            and not self._lane
            and self._ridx >= len(self._run)
        )
