"""Benchmark-side wrappers around the public calls into each layer.

Nothing here edits the simulator: :class:`Instrument` swaps public
functions and methods for timing wrappers while a workload runs and puts
every original back afterwards (:meth:`Instrument.installed`).

Untraced runs install only the two hooks the end-to-end ``setup_s``
metric needs: the cell boundary (``repro.runner.engine.execute_job``, or
the benchmark's own cell) and the first ``NetworkSimulator.run`` of each
cell, which ends the cell's set-up.  Traced runs wrap every layer
boundary below and turn on ``Environment.enable_profiling`` for each
single-kernel ``run``.  The span tree per cell is::

    cell -> zoo.build | traffic.gen | traffic.inject -> netsim.submit_batch
          | traffic.replay -> netsim.run
          | netsim.run -> sim.run | shard.run -> shard.plan, netsim.audit
          | netsim.stats
    runner.sweep -> runner.cache_key | cell | runner.cache_put
                  | runner.journal

plus a ``host.probe`` span, inside whatever span is open, for each
host-speed probe (:mod:`perfbench.hostspeed`).
"""

from __future__ import annotations

import contextlib
import functools
import resource
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.analysis.experiments as experiments
import repro.runner.engine as runner_engine
import repro.shard.engine as shard_engine
import repro.traffic as traffic
import repro.zoo as zoo
from repro.core.baldur_network import BaldurNetwork
from repro.netsim.network import NetworkSimulator
from repro.netsim.stats import StatsSummary
from repro.runner.cache import ResultCache
from repro.runner.journal import SweepJournal
from repro.sim import Environment

from perfbench.hostspeed import HostSpeed
from perfbench.spans import SpanRecorder, self_times

__all__ = ["Instrument"]

# (metric prefix, KernelProfile row, reported fields).  Rows are keyed by
# the dispatched callback's ``__qualname__``.
PROFILE_ROWS = (
    ("core.arrive_stage", "BaldurNetwork._arrive_stage", ("calls", "s")),
    ("core.deliver", "BaldurNetwork._deliver", ("calls", "s")),
    ("core.inject", "BaldurNetwork._inject", ("s",)),
    ("core.check_timeout", "BaldurNetwork._check_timeout", ("calls",)),
    ("core.transmit", "BaldurNetwork._transmit", ("calls",)),
    ("netsim.route_enqueue", "Switch._route_and_enqueue", ("calls", "s")),
    ("netsim.on_sent", "OutputPort._on_sent", ("calls", "s")),
    ("netsim.head_arrival", "Switch.on_head_arrival", ("s",)),
)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Instrument:
    """Span recorder, kernel profiles and counters for one iteration."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.host: Optional[HostSpeed] = None
        """The iteration's host-speed probe, moved into the shard workers
        while a sharded run drains."""
        self.rec = SpanRecorder()
        self.setup_s: List[float] = []
        self.profiles: List[Any] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.p99_ns: List[float] = []
        self._cell_start: Optional[float] = None
        self._cells = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans opened by the benchmark's own code ----------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of the benchmark's own code (traced runs only)."""
        if not self.traced:
            yield
            return
        index = self.rec.open(name)
        try:
            yield
        finally:
            self.rec.close(index)

    def cell(self, label: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one cell; its set-up ends at its first kernel drain."""
        self._cells += 1
        self.rec.cell = f"{self._cells}:{label}"
        self._cell_start = perf_counter()
        try:
            with self.span("cell"):
                return fn(*args)
        finally:
            self._cell_start = None
            self.rec.cell = ""

    def _drain_starts(self) -> None:
        start = self._cell_start
        if start is not None:
            self.setup_s.append(perf_counter() - start)
            self._cell_start = None

    # -- patching ------------------------------------------------------------

    def _swap(self, owner: Any, attr: str, new: Any) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = new
        else:
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` of every live patch."""
        return list(self._patches)

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` under a span called ``name``."""
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.active():
                return fn(*args, **kwargs)
            index = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(index)

        return wrapper

    def _timed(self, owner: Any, attr: str, name: str) -> None:
        fn = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._swap(owner, attr, self._wrap(fn, name))

    @contextlib.contextmanager
    def installed(self) -> Iterator["Instrument"]:
        """Install the wrappers for the duration of the block."""
        try:
            self._install_cell_and_run()
            if self.traced:
                self._install_layers()
            yield self
        finally:
            self._restore()

    def _install_cell_and_run(self) -> None:
        inst, rec = self, self.rec
        execute_job = runner_engine.execute_job

        @functools.wraps(execute_job)
        def cell_job(kind: str, params: Any) -> Any:
            return inst.cell(kind, execute_job, kind, params)

        self._swap(runner_engine, "execute_job", cell_job)

        run = NetworkSimulator.run

        @functools.wraps(run)
        def net_run(
            net: Any,
            until: Optional[float] = None,
            shards: int = 1,
            shard_latency_ns: float = 0.0,
        ) -> Any:
            if not rec.active():
                return run(net, until, shards, shard_latency_ns)
            inst._drain_starts()
            # The work of a sharded run is in the forked shard workers:
            # the host-speed probe runs there meanwhile.
            probing = (inst.host.in_children() if shards > 1 and inst.host
                       else contextlib.nullcontext())
            if not inst.traced:
                with probing:
                    return run(net, until, shards, shard_latency_ns)
            env = net.env
            profile = (
                env.enable_profiling()
                if shards == 1 and env.profile is None else None
            )
            index = rec.open("netsim.run")
            try:
                with probing:
                    stats = run(net, until, shards, shard_latency_ns)
            finally:
                rec.close(index)
                if profile is not None:
                    env.disable_profiling()
                    inst.profiles.append(profile)
            inst._note_run(net, stats)
            return stats

        self._swap(NetworkSimulator, "run", net_run)

    def _install_layers(self) -> None:
        inst, rec = self, self.rec
        timed = self._timed
        timed(zoo, "build_network", "zoo.build")
        timed(experiments, "pattern_destinations", "traffic.gen")
        for attr in ("transpose", "ping_pong1_pairs", "ping_pong2_pairs"):
            timed(traffic, attr, "traffic.gen")
        for name in list(traffic.HPC_WORKLOADS):
            timed(traffic.HPC_WORKLOADS, name, "traffic.gen")
        timed(experiments, "inject_open_loop", "traffic.inject")
        timed(traffic, "inject_open_loop", "traffic.inject")
        timed(traffic, "replay_trace", "traffic.replay")
        timed(traffic, "run_ping_pong", "traffic.replay")
        timed(NetworkSimulator, "submit_batch", "netsim.submit_batch")
        timed(NetworkSimulator, "audit", "netsim.audit")
        timed(Environment, "run", "sim.run")
        timed(ResultCache, "job_cache_key", "runner.cache_key")
        timed(ResultCache, "put", "runner.cache_put")
        timed(SweepJournal, "record", "runner.journal")

        # Table V cells construct BaldurNetwork directly; inside a
        # registry build the constructor is already under zoo.build.
        init = BaldurNetwork.__init__

        @functools.wraps(init)
        def baldur_init(net: Any, *args: Any, **kwargs: Any) -> None:
            if not rec.active() or rec.current() == "zoo.build":
                init(net, *args, **kwargs)
                return
            index = rec.open("zoo.build")
            try:
                init(net, *args, **kwargs)
            finally:
                rec.close(index)

        self._swap(BaldurNetwork, "__init__", baldur_init)

        submit = NetworkSimulator.submit

        @functools.wraps(submit)
        def counted_submit(net: Any, *args: Any, **kwargs: Any) -> Any:
            if rec.active():
                inst.counters["netsim.submit_calls"] += 1
            return submit(net, *args, **kwargs)

        self._swap(NetworkSimulator, "submit", counted_submit)

        from_stats = StatsSummary.__dict__["from_stats"].__func__
        self._swap(StatsSummary, "from_stats",
                   classmethod(self._wrap(from_stats, "netsim.stats")))

        run_sharded = shard_engine.run_sharded

        @functools.wraps(run_sharded)
        def timed_run_sharded(net: Any, shards: int, *args: Any,
                              **kwargs: Any) -> Any:
            if not rec.active():
                return run_sharded(net, shards, *args, **kwargs)
            cpu0 = _children_cpu_s()
            index = rec.open("shard.run")
            try:
                return run_sharded(net, shards, *args, **kwargs)
            finally:
                rec.close(index)
                span = rec.spans[index]
                inst.counters["shard.worker_cpu_s"] += _children_cpu_s() - cpu0
                inst.counters["shard.capacity_s"] += shards * span.duration

        self._swap(shard_engine, "run_sharded", timed_run_sharded)

        shard_plan = BaldurNetwork.shard_plan

        @functools.wraps(shard_plan)
        def timed_shard_plan(net: Any, *args: Any, **kwargs: Any) -> Any:
            if not rec.active():
                return shard_plan(net, *args, **kwargs)
            index = rec.open("shard.plan")
            try:
                plan = shard_plan(net, *args, **kwargs)
            finally:
                rec.close(index)
            inst.counters["shard.lookahead_ns"] = plan.lookahead_ns
            return plan

        self._swap(BaldurNetwork, "shard_plan", timed_shard_plan)

    def _note_run(self, net: Any, stats: Any) -> None:
        """Simulated facts of one finished run (deterministic)."""
        if stats.latencies:
            self.p99_ns.append(stats.tail_latency)
        if isinstance(net, BaldurNetwork):
            counters = self.counters
            counters["core.drops"] += stats.drops
            counters["core.attempts"] += stats.injected + stats.retransmissions
            counters["core.retx"] += stats.retransmissions
            counters["core.delivered"] += stats.delivered

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric this instrument can derive by itself."""
        spans = self.rec.spans
        selfs = self_times(spans)
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        count: Dict[str, int] = defaultdict(int)
        longest: Dict[str, float] = defaultdict(float)
        exec_s = 0.0
        for span, self_s in zip(spans, selfs):
            total[span.name] += span.duration
            own[span.name] += self_s
            count[span.name] += 1
            longest[span.name] = max(longest[span.name], span.duration)
            if (span.name == "cell" and span.parent >= 0
                    and spans[span.parent].name == "runner.sweep"):
                exec_s += span.duration

        calls: Dict[str, int] = defaultdict(int)
        wall: Dict[str, float] = defaultdict(float)
        events = peak = 0
        for profile in self.profiles:
            events += profile.events_dispatched
            peak = max(peak, profile.max_heap_depth)
            for name, n in profile.calls.items():
                calls[name] += n
                wall[name] += profile.wall_s[name]
        handler_s = sum(wall.values())
        c = self.counters
        attempts = c["core.attempts"]

        out: Dict[str, float] = {
            "sim.run_s": total["sim.run"],
            "sim.events": events,
            "sim.peak_queue": peak,
            "sim.loop_s": total["sim.run"] - handler_s,
            "sim.ns_per_event": (
                total["sim.run"] / events * 1e9 if events else 0.0
            ),
            "sim.p99_latency_ns": (
                statistics.median(self.p99_ns) if self.p99_ns else 0.0
            ),
            "core.drop_pct": 100.0 * c["core.drops"] / attempts if attempts
            else 0.0,
            "core.retx": int(c["core.retx"]),
            "core.delivered_per_tx": c["core.delivered"] / attempts
            if attempts else 0.0,
            "netsim.submit_batch_s": total["netsim.submit_batch"],
            "netsim.submit_calls": int(c["netsim.submit_calls"]),
            "netsim.audit_s": total["netsim.audit"],
            "netsim.stats_s": total["netsim.stats"],
            "zoo.builds": count["zoo.build"],
            "zoo.build_s": total["zoo.build"],
            "zoo.build_max_s": longest["zoo.build"],
            "traffic.gen_s": total["traffic.gen"],
            "traffic.inject_s": own["traffic.inject"],
            "traffic.replay_s": own["traffic.replay"],
            "runner.sweep_s": total["runner.sweep"],
            "runner.exec_s": exec_s,
            "runner.overhead_s": total["runner.sweep"] - exec_s,
            "runner.cache_key_s": total["runner.cache_key"],
            "runner.cache_put_s": total["runner.cache_put"],
            "runner.journal_s": total["runner.journal"],
            "shard.plan_s": total["shard.plan"],
            "shard.run_s": total["shard.run"],
            "shard.worker_cpu_s": c["shard.worker_cpu_s"],
            "shard.busy_frac": (
                c["shard.worker_cpu_s"] / c["shard.capacity_s"]
                if c["shard.capacity_s"] else 0.0
            ),
            "shard.lookahead_ns": c["shard.lookahead_ns"],
        }
        for prefix, row, fields in PROFILE_ROWS:
            if "calls" in fields:
                out[f"{prefix}.calls"] = calls[row]
            if "s" in fields:
                out[f"{prefix}.s"] = wall[row]
        return out
