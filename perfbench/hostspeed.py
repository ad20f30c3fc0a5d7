"""Host-speed probe: rescales measured host times to a reference speed.

The benchmark runs on shared virtual machines whose speed changes with
the load other tenants put on the same cores.  On the 2-vCPU reference
host a fixed Python loop takes either about 8.5 ms or about 13.5 ms,
switching every few seconds to minutes, so the raw wall time of one
4,096-endpoint cell ranges over 3.0-6.8 s with no change in the code.
Medians over one run do not remove that: the share of a run spent in the
slow state varies from run to run and from one set of runs to the next.

:class:`HostSpeed` measures the host's speed while an iteration runs.  A
``SIGALRM`` handler, fired every :data:`PERIOD_S` by an interval timer,
times a fixed pure-Python loop (:func:`probe`) in thread CPU time, so
time the process spends descheduled does not count.  The handler runs in
the thread doing the work, between the workload's bytecodes, and so sees
the core in the state the workload sees.  An iteration's slowdown is the
mean probe time over :data:`REF_PROBE_S`, the probe time of the
reference host in its fast state; dividing a host time by it gives the
time the same work takes at reference speed.

Shard workers do the work of a sharded run in forked processes.  While
they run (:meth:`HostSpeed.in_children`) the coordinating process stops
probing and every forked child probes instead, adding its samples to a
shared memory slot.  There the probe also feels the two workers slowing
each other down (probes in the workers take about 15 % longer than in
the coordinator just before), so rescaled sharded times understate that
cost of sharding; :meth:`HostSpeed.worker_ratio` reports it, and the raw
times stay in the result file.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import resource
import signal
import struct
from time import thread_time
from typing import Any, Dict, Iterator, List, Optional

from perfbench.spans import SpanRecorder

__all__ = [
    "BURST",
    "PERIOD_S",
    "REF_PROBE_S",
    "HostSpeed",
    "probe",
    "process_cpu_s",
]

PERIOD_S = 0.05
"""Interval between probes; each costs about 0.3 ms, 0.6 % of the time."""

BURST = 5
"""Probes taken back to back when sampling starts and stops."""

REF_PROBE_S = 3.0e-4
"""Thread CPU time of :func:`probe` on the reference host (2-vCPU VM,
Python 3.11) in its fast state; the unit the slowdown is measured in."""

_SLOT = struct.Struct("dq")
"""One forked child's probe total: seconds and count."""
_SLOTS = 64


def probe() -> float:
    """Thread CPU seconds of a fixed loop of dict and integer work."""
    start = thread_time()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(2000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += i * 3 % 7
    return thread_time() - start


def process_cpu_s() -> float:
    """User+sys CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _arm(period: float) -> None:
    signal.setitimer(signal.ITIMER_REAL, period, period)


_active: Optional["HostSpeed"] = None
"""The :class:`HostSpeed` sampling in this process, if any."""


def _before_fork() -> None:
    if _active is not None:
        _active._forks += 1


def _in_child() -> None:
    """A child forked while probes run in children probes into its slot."""
    host = _active
    if host is None or not host._in_children or host._forks > _SLOTS:
        _arm(0.0)
        return
    slot = (host._forks - 1) * _SLOT.size
    shared = host._shared

    def tick(signum: int, frame: Any) -> None:
        seconds, count = _SLOT.unpack_from(shared, slot)
        _SLOT.pack_into(shared, slot, seconds + probe(), count + 1)

    signal.signal(signal.SIGALRM, tick)
    _arm(PERIOD_S)


os.register_at_fork(before=_before_fork, after_in_child=_in_child)


class HostSpeed:
    """Probe samples taken while one iteration runs."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.samples: List[float] = []
        self.recorder = recorder
        """Traced runs: each probe is a ``host.probe`` span, so its time
        is not charged to the span it interrupts."""
        self.child_s = 0.0
        self.child_probes = 0
        self._in_children = False
        self._forks = 0
        self._shared = mmap.mmap(-1, _SLOT.size * _SLOTS)

    def _tick(self, signum: int, frame: Any) -> None:
        rec = self.recorder
        # Inside a half-done open or close the probe is charged to the
        # span being opened or closed.
        if rec is None or not rec.active() or rec.busy:
            self.samples.append(probe())
            return
        index = rec.open("host.probe")
        try:
            self.samples.append(probe())
        finally:
            rec.close(index)

    def _burst(self) -> None:
        self.samples.extend(probe() for _ in range(BURST))

    @contextlib.contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        """Probe every :data:`PERIOD_S` for the duration of the block."""
        global _active
        previous = signal.signal(signal.SIGALRM, self._tick)
        _active = self
        self._burst()
        _arm(PERIOD_S)
        try:
            yield self
        finally:
            _arm(0.0)
            _active = None
            signal.signal(signal.SIGALRM, previous)
        self._burst()
        for index in range(min(self._forks, _SLOTS)):
            seconds, count = _SLOT.unpack_from(self._shared,
                                               index * _SLOT.size)
            self.child_s += seconds
            self.child_probes += count
        self._shared.close()

    @contextlib.contextmanager
    def in_children(self) -> Iterator[None]:
        """Probe in the children forked during the block, not here (shard
        workers run in it)."""
        if _active is not self:
            yield
            return
        _arm(0.0)
        self._in_children = True
        try:
            yield
        finally:
            self._in_children = False
            _arm(PERIOD_S)

    def slowdown(self) -> float:
        """Mean probe time, here and in the children, over
        :data:`REF_PROBE_S` (1.0 = reference speed)."""
        total = sum(self.samples) + self.child_s
        return total / (len(self.samples) + self.child_probes) / REF_PROBE_S

    def local_slowdown(self) -> float:
        """:meth:`slowdown` from the probes in this process alone, for
        times spent here, such as set-up before a sharded run."""
        return sum(self.samples) / len(self.samples) / REF_PROBE_S

    def worker_ratio(self) -> float:
        """Mean probe time in the children over the mean here (0 when no
        child probed): how much the shard workers slow each other down,
        which the slowdown also divides out."""
        if not self.child_probes:
            return 0.0
        here = sum(self.samples) / len(self.samples)
        return self.child_s / self.child_probes / here

    def rescale(self, seconds: float, local: bool = False) -> float:
        """``seconds`` of host time at reference speed; ``local`` for time
        spent in this process alone."""
        return seconds / (self.local_slowdown() if local
                          else self.slowdown())
