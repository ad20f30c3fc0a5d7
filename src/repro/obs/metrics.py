"""Windowed per-switch metrics time series.

A :class:`MetricsRegistry` is attached to any network via
:meth:`~repro.netsim.network.NetworkSimulator.attach_metrics`.  Simulators
then feed it two kinds of signals, both keyed by (metric name, switch id):

* **counters** (:meth:`MetricsRegistry.incr`) -- monotone event counts:
  arrivals, drops, arbitration conflicts, credit stalls, ...;
* **gauges** (:meth:`MetricsRegistry.observe_max`) -- instantaneous levels
  sampled on events, of which the per-window *peak* is kept: port
  occupancy (Baldur), queued bytes (electrical switches).

Samples are bucketed into fixed windows of ``window_ns`` simulated
nanoseconds, giving a time series per (metric, switch) at zero cost when
no registry is attached (the hook sites are ``is None`` checks, same as
``fault_hook``).  Like tracing, metrics collection is strictly passive:
it draws no randomness and cannot perturb simulation results.

:meth:`rollup` produces a compact JSON-safe summary (totals and peaks per
switch) that sweep jobs embed in their result dicts; :meth:`to_jsonl`
exports the full time series for offline analysis.  Both iterate in
sorted order so output is deterministic.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, TextIO, Tuple, Union

from repro.errors import ConfigurationError

__all__ = ["MetricsRegistry"]

DEFAULT_WINDOW_NS = 1000.0
"""Default aggregation window (1 us of simulated time)."""


class MetricsRegistry:
    """Collects windowed per-switch counters and gauges."""

    def __init__(self, window_ns: float = DEFAULT_WINDOW_NS) -> None:
        if window_ns <= 0:
            raise ConfigurationError("window_ns must be positive")
        self.window_ns = float(window_ns)
        # metric -> switch id -> window index -> value
        self._counters: Dict[str, Dict[int, Dict[int, float]]] = {}
        self._gauges: Dict[str, Dict[int, Dict[int, float]]] = {}

    def _window(self, t: float) -> int:
        return int(t // self.window_ns)

    # -- recording (the simulator-facing API) -------------------------------

    def incr(self, metric: str, switch_id: int, t: float, n: float = 1) -> None:
        """Add ``n`` to a counter's current window."""
        per_switch = self._counters.setdefault(metric, {})
        windows = per_switch.setdefault(switch_id, {})
        w = self._window(t)
        windows[w] = windows.get(w, 0) + n

    def observe_max(
        self, metric: str, switch_id: int, t: float, value: float
    ) -> None:
        """Record a gauge sample; the window keeps its peak value."""
        per_switch = self._gauges.setdefault(metric, {})
        windows = per_switch.setdefault(switch_id, {})
        w = self._window(t)
        prev = windows.get(w)
        if prev is None or value > prev:
            windows[w] = value

    # -- reading ------------------------------------------------------------

    @property
    def metrics(self) -> List[str]:
        """Every metric name seen so far (counters then gauges), sorted."""
        return sorted(set(self._counters) | set(self._gauges))

    def totals(self, metric: str) -> Dict[int, float]:
        """Whole-run counter totals per switch id."""
        per_switch = self._counters.get(metric, {})
        return {
            sid: sum(windows.values())
            for sid, windows in sorted(per_switch.items())
        }

    def peaks(self, metric: str) -> Dict[int, float]:
        """Whole-run gauge peaks per switch id."""
        per_switch = self._gauges.get(metric, {})
        return {
            sid: max(windows.values())
            for sid, windows in sorted(per_switch.items())
        }

    def series(self, metric: str, switch_id: int) -> List[Tuple[int, float]]:
        """The (window index, value) time series of one (metric, switch)."""
        windows = self._counters.get(metric, {}).get(switch_id)
        if windows is None:
            windows = self._gauges.get(metric, {}).get(switch_id, {})
        return sorted(windows.items())

    def hotspots(self, metric: str, top: int = 5) -> List[Tuple[int, float]]:
        """The ``top`` switches by counter total, descending (diagnosis:
        *where* congestion forms, per the Sec. IV-F visibility story)."""
        totals = self.totals(metric)
        return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    # -- export -------------------------------------------------------------

    def rollup(self) -> Dict[str, Any]:
        """Compact JSON-safe summary embedded in sweep job results.

        Switch ids become string keys (JSON objects require them); window
        detail is reduced to totals/peaks plus the number of active
        windows, keeping result payloads small and canonical.
        """
        counters: Dict[str, Dict[str, Dict[str, float]]] = {}
        for metric in sorted(self._counters):
            counters[metric] = {
                str(sid): {
                    "total": sum(windows.values()),
                    "windows": len(windows),
                }
                for sid, windows in sorted(self._counters[metric].items())
            }
        gauges: Dict[str, Dict[str, Dict[str, float]]] = {}
        for metric in sorted(self._gauges):
            gauges[metric] = {
                str(sid): {
                    "peak": max(windows.values()),
                    "windows": len(windows),
                }
                for sid, windows in sorted(self._gauges[metric].items())
            }
        return {
            "window_ns": self.window_ns,
            "counters": counters,
            "gauges": gauges,
        }

    def to_jsonl(self, target: Union[str, Path, TextIO]) -> int:
        """Write the full time series as JSON Lines; returns line count.

        One line per (metric, switch, window), sorted, so the file is
        deterministic for a deterministic run.
        """
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                return self.to_jsonl(fh)
        n = 0
        for kind, store in (("counter", self._counters),
                            ("gauge", self._gauges)):
            for metric in sorted(store):
                for sid in sorted(store[metric]):
                    for window, value in sorted(store[metric][sid].items()):
                        target.write(json.dumps({
                            "kind": kind,
                            "metric": metric,
                            "switch": sid,
                            "window": window,
                            "t_start_ns": window * self.window_ns,
                            "value": value,
                        }, sort_keys=True, allow_nan=False))
                        target.write("\n")
                        n += 1
        return n

    def describe(self) -> str:
        """One-line human summary."""
        parts: List[str] = []
        for metric in sorted(self._counters):
            total = sum(sum(w.values()) for w in self._counters[metric].values())
            parts.append(f"{metric}={total:g}")
        for metric in sorted(self._gauges):
            peak = max(max(w.values()) for w in self._gauges[metric].values())
            parts.append(f"{metric}(peak)={peak:g}")
        return f"MetricsRegistry({', '.join(parts) or 'empty'})"
