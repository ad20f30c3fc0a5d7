"""Observability plane: packet tracing, per-switch metrics, kernel profiling.

CODES-style simulators pair every network model with a first-class
instrumentation plane; this package is ours.  Three always-available,
**off-by-default** facilities shared by all five simulators:

* :class:`Tracer` -- ring-buffered packet lifecycle events (inject,
  stage arrival, arbitration win/loss, drop, ACK, retransmit, deliver)
  with JSONL export and flow-timeline replay (``repro-bench trace``);
  attach with :meth:`~repro.netsim.network.NetworkSimulator.attach_tracer`;
* :class:`MetricsRegistry` -- windowed per-switch/per-stage counters and
  gauges (occupancy, arbitration conflicts, drops, credit stalls); attach
  with :meth:`~repro.netsim.network.NetworkSimulator.attach_metrics`;
* :class:`KernelProfile` -- opt-in event-kernel counters (events
  dispatched, heap depth, per-callback wall time); enable with
  :meth:`~repro.sim.Environment.enable_profiling`.

The overhead contract (DESIGN.md §9): with nothing attached, hook sites
are single ``is None`` checks and allocate nothing; attached observers
are strictly passive (no RNG draws, no simulation-state writes), so they
can never change results.  Sweep jobs opt in via the spec's ``obs``
parameter and embed :func:`obs_payload` rollups in their result dicts.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import KernelProfile
from repro.obs.tracer import TraceEvent, Tracer, format_timeline

__all__ = [
    "KernelProfile",
    "MetricsRegistry",
    "TraceEvent",
    "Tracer",
    "format_timeline",
    "obs_payload",
]


def obs_payload(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    profile: Optional[KernelProfile] = None,
) -> Dict[str, Any]:
    """The JSON-safe observability rollup a sweep job embeds in its result.

    Only deterministic parts are included by default; the kernel profile's
    wall times are wall-clock and are only embedded when explicitly passed
    (sweep jobs never do -- it would break byte-identical results files).
    """
    payload: Dict[str, Any] = {}
    if tracer is not None:
        payload["trace"] = tracer.summary()
    if metrics is not None:
        payload["metrics"] = metrics.rollup()
    if profile is not None:
        payload["profile"] = profile.summary()
    return payload
