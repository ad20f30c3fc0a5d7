"""Measurement loop, output checks, metric assembly and provenance.

A run with ``trace=False`` repeats untraced iterations of one workload
for about ``seconds`` (at least one iteration) and reports the median of
each end-to-end metric.  Host times are rescaled to the reference host
speed measured while each iteration runs (:mod:`perfbench.hostspeed`);
the raw times and the slowdown go to the result file.  A run with
``trace=True`` makes one untraced and one traced iteration of the same
inputs: the per-layer metrics come from the traced one, the untraced one
gives the tracing overhead and the digest the traced one must reproduce.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.runner.cache import code_fingerprint

from perfbench.hostspeed import HostSpeed, process_cpu_s
from perfbench.instrument import Instrument
from perfbench.spans import cell_self_shares, self_times
from perfbench.workloads import (
    FULL,
    WARMUP,
    WORKLOADS,
    Iteration,
    Scale,
    table5_drop_err,
)

__all__ = [
    "CELL_SELF_BOUND",
    "METRIC_NAME",
    "UNATTRIBUTED_BOUND_PCT",
    "bench_fingerprint",
    "digest_path",
    "load_manifest",
    "measure",
    "nearest_rank",
    "run",
]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"
"""Scratch space in the checkout: sweep caches, digests, result files."""

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

UNATTRIBUTED_BOUND_PCT = 5.0
"""Largest share of traced wall time that may fall outside every layer
span; above it the layer split is not trusted and the run fails."""

CELL_SELF_BOUND = 0.10
"""Largest share of one cell's time that may fall outside every layer
span inside it (the cell's own self time); above it the run fails."""


def load_manifest() -> Dict[str, Any]:
    """BENCHMARK.json: workloads, metric names, units and bounds."""
    return dict(json.loads((ROOT / "BENCHMARK.json").read_text()))


def _peak_rss_mb() -> float:
    """Largest RSS of this process or any reaped child (Linux: KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def nearest_rank(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _iteration(workload: str, seed: int, scale: Scale, traced: bool,
               workdir: Path) -> Tuple[Iteration, Dict[str, float],
                                       Instrument]:
    """One iteration; host times are taken with the wrappers installed
    and rescaled by the host slowdown measured meanwhile."""
    gc.collect()
    inst = Instrument(traced)
    host = inst.host = HostSpeed(inst.rec if traced else None)
    scratch = Path(tempfile.mkdtemp(dir=workdir))
    try:
        with host.sampling(), inst.installed():
            cpu0, start = process_cpu_s(), perf_counter()
            it = WORKLOADS[workload](seed, scale, inst, scratch)
            wall, cpu = perf_counter() - start, process_cpu_s() - cpu0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    wall_s = host.rescale(wall)
    times = {
        "wall_s": wall_s,
        "cpu_s": host.rescale(cpu),
        "setup_s": host.rescale(sum(inst.setup_s), local=True),
        "pkts_per_s": it.delivered / wall_s,
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "slowdown": host.slowdown(),
        "probes": len(host.samples),
        "child_probes": host.child_probes,
        "worker_probe_ratio": host.worker_ratio(),
    }
    return it, times, inst


class _Checks:
    """Counts attempted and failed cells across a run's iterations.

    A failure belongs to one cell execution (``"<iteration> <cell key>"``)
    or, for run-level checks such as attribution, to none; ``failed``
    counts the distinct cell executions that failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[Tuple[Optional[str], str]] = []
        self.reference: Dict[str, Tuple[str, str]] = {}

    def fail(self, execution: Optional[str], message: str) -> None:
        self.failures.append((execution, message))

    @property
    def failed(self) -> int:
        return len({e for e, _ in self.failures if e is not None})

    def messages(self) -> List[str]:
        return [message for _, message in self.failures]

    def count(self, it: Iteration, label: str) -> None:
        """Count the iteration's cells and its failed ones."""
        self.attempted += it.attempted
        for key, why in it.failures.items():
            self.fail(f"{label} {key}", f"{key} ({label}): {why}")

    def add(self, it: Iteration, label: str) -> None:
        """:meth:`count`, and compare every result digest with the first
        one of its cell in this run."""
        self.count(it, label)
        for key, digest in it.digests().items():
            first, first_label = self.reference.setdefault(
                key, (digest, label)
            )
            if first != digest:
                self.fail(
                    f"{label} {key}",
                    f"{key}: result digest of the {label} iteration "
                    f"differs from the {first_label} one",
                )

    def against_earlier_runs(self, path: Path) -> None:
        """Compare with digests stored by earlier runs of the same inputs
        and code, then store the union (same inputs must give same bytes
        in every process)."""
        stored: Dict[str, str] = {}
        if path.exists():
            try:
                stored = json.loads(path.read_text())
            except ValueError:
                stored = {}
        for key, (digest, label) in self.reference.items():
            if key in stored and stored[key] != digest:
                self.fail(
                    f"{label} {key}",
                    f"{key}: result digest differs from an earlier run of "
                    "the same inputs and code",
                )
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        ours = {key: digest for key, (digest, _) in self.reference.items()}
        tmp.write_text(json.dumps({**stored, **ours}, indent=0,
                                  sort_keys=True, allow_nan=False))
        os.replace(tmp, path)


def bench_fingerprint(source_dir: Path = BENCH_DIR) -> str:
    """Hash of the benchmark's own sources, which define its inputs."""
    digest = hashlib.sha256()
    for path in sorted(source_dir.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def digest_path(state_dir: Path, workload: str, seed: int, scale: Scale,
                source_dir: Path = BENCH_DIR) -> Path:
    """Where runs of the same inputs and code keep their result digests:
    keyed by workload, seed, scale, the benchmark's sources and the
    ``repro`` code fingerprint."""
    inputs = hashlib.sha256(repr(scale).encode()).hexdigest()[:8]
    return state_dir / "digests" / (
        f"{workload}-seed{seed}-{inputs}-{bench_fingerprint(source_dir)}"
        f"-{code_fingerprint()[:16]}.json"
    )


def _end_to_end(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "pkts_per_s": statistics.median(s["pkts_per_s"] for s in samples),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _per_layer(
    inst: Instrument, traced: Dict[str, float], untraced: Dict[str, float],
    plain: Iteration, checks: _Checks,
) -> Dict[str, float]:
    metrics = inst.layer_metrics()
    spans = inst.rec.spans
    # Spans hold raw host times, so attribution is against the raw wall.
    wall = traced["raw_wall_s"]
    attributed = sum(
        s for span, s in zip(spans, self_times(spans)) if span.name != "cell"
    )
    unattributed_pct = 100.0 * (wall - attributed) / wall
    metrics["trace.unattributed_pct"] = unattributed_pct
    metrics["trace.overhead_pct"] = 100.0 * (
        traced["wall_s"] / untraced["wall_s"] - 1.0
    )
    metrics["host.slowdown"] = traced["slowdown"]
    metrics["host.raw_wall_s"] = untraced["raw_wall_s"]
    metrics["host.worker_probe_ratio"] = traced["worker_probe_ratio"]
    unclosed = sorted({span.name for span in spans if span.end < span.start})
    if unclosed:
        checks.fail(None, f"spans left open: {', '.join(unclosed)}")
    for cell, share in cell_self_shares(spans):
        if share > CELL_SELF_BOUND:
            checks.fail(None, f"{cell}: {100 * share:.1f} % of the cell is "
                        f"outside every layer span (bound "
                        f"{100 * CELL_SELF_BOUND:.0f} %)")
    if unattributed_pct > UNATTRIBUTED_BOUND_PCT:
        checks.fail(None, f"trace.unattributed_pct {unattributed_pct:.2f} "
                    f"exceeds {UNATTRIBUTED_BOUND_PCT}")
    times = plain.job_times_s
    metrics["runner.cell_s.n"] = len(times)
    metrics["runner.cell_s.p50"] = nearest_rank(times, 50) if times else 0.0
    metrics["runner.cell_s.p90"] = nearest_rank(times, 90) if times else 0.0
    metrics["core.table5_drop_err"] = table5_drop_err(plain.table5) or 0.0
    return metrics


def measure(
    workload: str, seed: int, seconds: float, trace: bool,
    scale: Scale = FULL, state_dir: Path = STATE_DIR,
) -> Tuple[Dict[str, float], _Checks, Dict[str, Any]]:
    """Run one workload; returns (metrics, checks, record for the file)."""
    workdir = state_dir / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = _Checks()
    record: Dict[str, Any] = {}
    # Untimed: lazy imports and first-use costs stay out of every sample.
    warm, _, _ = _iteration(workload, seed, WARMUP, False, workdir)
    checks.count(warm, "warm-up")
    if not trace:
        samples = []
        start = perf_counter()
        while True:
            it, times, _ = _iteration(workload, seed, scale, False, workdir)
            checks.add(it, f"repeat {len(samples) + 1}")
            samples.append(times)
            elapsed = perf_counter() - start
            # Stop before an iteration of average length would overrun.
            if elapsed * (len(samples) + 1) / len(samples) > seconds:
                break
        metrics = _end_to_end(samples)
        record["iterations"] = samples
    else:
        plain, untraced, _ = _iteration(workload, seed, scale, False, workdir)
        checks.add(plain, "untraced")
        traced_it, traced, inst = _iteration(workload, seed, scale, True,
                                             workdir)
        checks.add(traced_it, "traced")
        metrics = _per_layer(inst, traced, untraced, plain, checks)
        record["iterations"] = [untraced, traced]
        record["spans"] = [span.to_dict() for span in inst.rec.spans]
    checks.against_earlier_runs(digest_path(state_dir, workload, seed, scale))
    return metrics, checks, record


def _git_identity(root: Path) -> Tuple[Optional[str], Optional[bool]]:
    """Commit and dirty flag of the measured tree, if it is a git tree."""
    if not (root / ".git").exists():
        return None, None
    try:
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head, bool(status.strip())


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: Scale = FULL, state_dir: Path = STATE_DIR) -> Dict[str, Any]:
    """Measure, write the result file, and return the result line."""
    load_1m = os.getloadavg()[0]
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    metrics, checks, record = measure(workload, seed, seconds, trace,
                                      scale, state_dir)
    manifest = load_manifest()
    declared = manifest["per_layer" if trace else "end_to_end"]
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    commit, dirty = _git_identity(ROOT)
    record = {
        "provenance": {
            "commit": commit,
            "dirty": dirty,
            "code_fingerprint": code_fingerprint(),
            "bench_fingerprint": bench_fingerprint(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "loadavg_1m_at_start": load_1m,
            "started": started,
            "workload": workload,
            "trace": int(trace),
            "seconds": seconds,
            "scale": "full" if scale == FULL else repr(scale),
        },
        "result": result,
        "failures": checks.messages(),
        **record,
    }
    out = state_dir / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True,
                              allow_nan=False))
    for failure in checks.messages():
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    provenance = json.dumps(record["provenance"], allow_nan=False)
    print(f"perfbench: provenance {provenance}")
    print(f"perfbench: wrote {out}")
    return result
