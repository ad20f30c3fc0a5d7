"""The benchmark's three workloads and the checks on their outputs.

Every workload is a batch job: one *iteration* completes a fixed amount
of simulation work made from the benchmark seed and returns, per cell, a
JSON-safe result whose canonical-JSON digest identifies the simulated
outcome.  Host-time metrics are taken around iterations by ``run.py``.

* ``paper_sweep`` -- the Fig. 6 grid, the Fig. 7 grid and Table V, each
  a ``run_sweep(jobs=1)`` with a fresh result cache and resume journal.
* ``baldur_4k`` -- one 4,096-endpoint Baldur cell on one kernel.
* ``baldur_4k_shards2`` -- the identical cell run with ``shards=2``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import repro.analysis.experiments as experiments
import repro.traffic as traffic
from repro import constants as C
from repro.netsim.stats import StatsSummary
from repro.runner import FaultPolicy, canonical_json, run_sweep
from repro.sim.rand import derive_seed

from perfbench.instrument import Instrument

__all__ = [
    "FULL",
    "TINY",
    "WARMUP",
    "WORKLOADS",
    "Iteration",
    "Scale",
    "TABLE5_ERR_CAP",
    "table5_drop_err",
]


@dataclass(frozen=True)
class Scale:
    """Input sizes; :data:`FULL` is what the benchmark measures."""

    fig6_nodes: int = 128
    fig6_loads: tuple = (0.1, 0.4, 0.7, 0.9)
    fig6_packets: int = 20
    fig7_nodes: int = 128
    fig7_packets: int = 20
    table5_nodes: int = 1024
    table5_packets: int = 10
    big_nodes: int = 4096
    big_packets: int = 5


FULL = Scale()
TINY = Scale(
    fig6_nodes=64, fig6_loads=(0.7,), fig6_packets=2,
    fig7_nodes=64, fig7_packets=4,
    table5_nodes=64, table5_packets=2,
    big_nodes=64, big_packets=2,
)
"""Seconds-long inputs for the benchmark's own tests."""
WARMUP = Scale(
    fig6_nodes=16, fig6_loads=(0.4,), fig6_packets=1,
    fig7_nodes=16, fig7_packets=1,
    table5_nodes=16, table5_packets=1,
    big_nodes=64, big_packets=1,
)
"""Inputs of the untimed iteration that loads modules and warms caches."""

BIG_LOAD = 0.7
BIG_PATTERN = "random_permutation"


@dataclass
class Iteration:
    """What one iteration of a workload produced."""

    cells: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    """Cell key -> why the cell failed; a failed cell has no result."""
    delivered: int = 0
    job_times_s: List[float] = field(default_factory=list)
    table5: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.cells) + len(self.failures)

    def digests(self) -> Dict[str, str]:
        return {
            key: hashlib.sha256(canonical_json(result).encode()).hexdigest()
            for key, result in self.cells.items()
        }


def _summary_problems(summary: Dict[str, Any]) -> List[str]:
    """Conservation and liveness checks on one cell's stats summary."""
    problems = []
    accounted = (summary["delivered"] + summary["terminal_drops"]
                 + summary["given_up"] + summary["in_flight"])
    if summary["injected"] != accounted:
        problems.append(
            f"conservation: injected {summary['injected']} != "
            f"accounted {accounted}"
        )
    if summary["delivered"] <= 0:
        problems.append("nothing delivered")
    return problems


def _add_cell(it: Iteration, key: str, result: Dict[str, Any],
              summary: Dict[str, Any]) -> None:
    problems = _summary_problems(summary)
    if problems:
        it.failures[key] = "; ".join(problems)
        return
    it.cells[key] = result
    it.delivered += summary["delivered"]


def paper_sweep(seed: int, scale: Scale, inst: Instrument,
                workdir: Path) -> Iteration:
    """Fig. 6, Fig. 7 and Table V through the sweep runner."""
    root_seed = derive_seed(seed, "perfbench:paper_sweep")
    specs = (
        experiments.figure6_spec(
            n_nodes=scale.fig6_nodes, loads=scale.fig6_loads,
            packets_per_node=scale.fig6_packets, seed=root_seed,
        ),
        experiments.figure7_spec(
            n_nodes=scale.fig7_nodes, packets_per_node=scale.fig7_packets,
            seed=root_seed,
        ),
        experiments.table5_spec(
            n_nodes=scale.table5_nodes,
            packets_per_node=scale.table5_packets, seed=root_seed,
        ),
    )
    it = Iteration()
    policy = FaultPolicy(on_error="record")
    for spec in specs:
        sweep_dir = workdir / spec.kind
        with inst.span("runner.sweep"):
            sweep = run_sweep(
                spec, jobs=1, cache_dir=sweep_dir / "cache",
                resume=sweep_dir / "journal.jsonl", policy=policy,
            )
        for outcome in sweep.outcomes:
            key = outcome.job.key
            if not outcome.ok or outcome.result is None:
                it.failures[key] = f"{outcome.status} {outcome.error}"
                continue
            it.job_times_s.append(outcome.elapsed_s)
            result = outcome.result
            is_table5 = spec.kind == "table5"
            _add_cell(it, key, result, result["stats"] if is_table5 else result)
            if is_table5:
                it.table5.append(result)
    return it


def _big_cell(shards: int) -> Callable[[int, Scale, Instrument, Path],
                                       Iteration]:
    def workload(seed: int, scale: Scale, inst: Instrument,
                 workdir: Path) -> Iteration:
        # Both 4k workloads share one cell seed: identical inputs.
        cell_seed = derive_seed(seed, "perfbench:baldur_4k")
        n = scale.big_nodes

        def cell() -> Dict[str, Any]:
            net = experiments.build_network("baldur", n, cell_seed)
            destinations = experiments.pattern_destinations(
                BIG_PATTERN, n, cell_seed
            )
            traffic.inject_open_loop(
                net, destinations, BIG_LOAD, scale.big_packets,
                seed=cell_seed,
            )
            stats = net.run(
                until=experiments.DEFAULT_UNTIL_NS, shards=shards,
                shard_latency_ns=0.0,
            )
            return dict(StatsSummary.from_stats(stats).to_dict())

        it = Iteration()
        key = f"baldur/n={n}/m={C.BALDUR_MULTIPLICITY}/shards={shards}"
        try:
            summary = inst.cell(key, cell)
        except Exception as exc:  # a failed cell is counted, not fatal
            it.failures[key] = f"{type(exc).__name__}: {exc}"
            return it
        _add_cell(it, key, summary, summary)
        return it

    return workload


WORKLOADS: Dict[str, Callable[[int, Scale, Instrument, Path], Iteration]] = {
    "paper_sweep": paper_sweep,
    "baldur_4k": _big_cell(shards=1),
    "baldur_4k_shards2": _big_cell(shards=2),
}


TABLE5_ERR_CAP = 1000.0
"""Per-row error of a Table V row that simulated no drops at all."""


def table5_drop_err(rows: List[Dict[str, Any]]) -> Optional[float]:
    """Geometric mean over Table V rows of max(sim/paper, paper/sim).

    Every row with a paper reference counts; a row whose simulated drop
    rate is 0 counts as :data:`TABLE5_ERR_CAP`, so the mean never quietly
    covers fewer rows.  ``None`` when no row has
    a paper reference.
    """
    logs = []
    for row in rows:
        paper = row.get("paper_drop_rate_pct")
        if not paper:
            continue
        sim = row["drop_rate_pct"]
        err = max(sim / paper, paper / sim) if sim > 0 else TABLE5_ERR_CAP
        logs.append(math.log(min(err, TABLE5_ERR_CAP)))
    return math.exp(statistics.fmean(logs)) if logs else None
