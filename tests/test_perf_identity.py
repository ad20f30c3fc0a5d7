"""Result identity of Baldur's arbitration across observers and modes.

Baldur arbitrates every header with one allocation-free scan of the flat
``_busy`` port array (DESIGN.md section 10).  Test mode and degraded-mode
masking are per-port data for that scan, and observers (tracer, metrics)
only add a preamble.  None of that may change simulation *results*:
these tests pin observed runs byte-identical -- same ``StatsSummary``
including the per-packet latency digest -- to unobserved ones on a
contended cell, and pin the masked, test-mode, metrics and mid-run-unmask
cells to digests recorded with the earlier list-building arbitration path,
which the scan replaced.
"""

import hashlib
import json

import pytest

from repro.analysis.experiments import (
    build_network,
    pattern_destinations,
    run_open_loop,
)
from repro.analysis.resilience import degraded_mode_comparison
from repro.core.diagnosis import run_diagnosis
from repro.netsim.stats import StatsSummary
from repro.obs import MetricsRegistry, Tracer
from repro.traffic.injection import inject_open_loop

# Small but contended: random permutation at load 0.9 on 64 nodes
# exercises arbitration ties, drops, retransmissions, and ACK traffic in
# under a second.
CELL = dict(
    n_nodes=64, pattern="random_permutation", load=0.9, packets_per_node=10
)


def _summary(tracer=None, metrics=None) -> dict:
    stats = run_open_loop(
        "baldur", CELL["n_nodes"], CELL["pattern"], CELL["load"],
        CELL["packets_per_node"], seed=3, tracer=tracer, metrics=metrics,
    )
    return StatsSummary.from_stats(stats).to_dict()


class TestFastSlowPathIdentity:
    """Observers are passive.  The class and test names date from the
    separate metrics arbitration path; one scan now serves every run."""

    def test_metrics_slow_path_is_byte_identical(self):
        """Attaching metrics turns off the ``_fast`` gate and feeds the
        occupancy gauge from the scan's free-port count; results
        (including the latency digest) must not move."""
        fast = _summary()
        slow = _summary(metrics=MetricsRegistry(window_ns=1000.0))
        assert fast == slow

    def test_tracer_keeps_fast_path_and_results(self):
        """Attaching a tracer turns off the ``_fast`` gate only; results
        must not move."""
        fast = _summary()
        traced = _summary(tracer=Tracer(capacity=100_000))
        assert fast == traced

    def test_fully_instrumented_run_is_byte_identical(self):
        fast = _summary()
        instrumented = _summary(
            tracer=Tracer(capacity=100_000),
            metrics=MetricsRegistry(window_ns=1000.0),
        )
        assert fast == instrumented
        # The cell must actually exercise the contended paths, or the
        # assertions above prove nothing.
        assert instrumented["drops"] + instrumented["ack_drops"] > 0
        assert instrumented["retransmissions"] > 0


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, allow_nan=False).encode()
    ).hexdigest()


def _inject_fault_cells() -> dict:
    """Every user of ``BaldurNetwork.inject_fault``: diagnosis with one
    and with two faults, the degraded-mode comparison, and a contended
    open-loop cell with two faulted switches, unmasked and masked."""

    def open_loop(masked: bool) -> dict:
        seed = 3
        net = build_network("baldur", CELL["n_nodes"], seed)
        for stage, switch in ((2, 5), (4, 20)):
            net.inject_fault(stage, switch)
            if masked:
                net.mask_switch(stage, switch)
        destinations = pattern_destinations(
            CELL["pattern"], CELL["n_nodes"], seed
        )
        inject_open_loop(
            net, destinations, CELL["load"], CELL["packets_per_node"],
            seed=seed,
        )
        return StatsSummary.from_stats(net.run()).to_dict()

    return {
        "diagnosis_one": run_diagnosis(64, faulty=(2, 13), n_probes=200,
                                       seed=3),
        "diagnosis_two": run_diagnosis(64, faulty=[(1, 5), (3, 20)],
                                       n_probes=64, seed=3),
        "degraded": degraded_mode_comparison(
            n_nodes=32, packets_per_node=10, seed=0
        ),
        "open_loop": open_loop(masked=False),
        "open_loop_masked": open_loop(masked=True),
    }


class TestInjectFaultIdentity:
    """``inject_fault`` results are pinned to a digest recorded while the
    faulted switches were a private set checked ahead of the attached
    fault injector; they now are ``FailStop`` faults on that injector."""

    DIGEST = (
        "a49cfd6741185597791dce47c4ae58230eac7b425d3e2d954f59d476474f1650"
    )

    def test_digest_matches_recorded(self):
        assert _sha(_inject_fault_cells()) == self.DIGEST


# Degraded-mode masks on the 64-node (6-stage, 32 switches per stage)
# network: one mid-stage switch, and one last-stage switch (which blocks
# the stage-4 ports leading into it; last-stage ports themselves are never
# masked).
MID, LAST = (2, 5), (5, 9)

# name -> (setup, StatsSummary digest, metrics rollup digest or None).
# Digests were recorded with the list-building arbitration path that
# served test mode, masking and metrics before the single scan replaced it.
PINNED = {
    "plain": (
        {},
        "1ceaf4549aeadb79840d882b90fcbe6dbf70f068c8c7b70990d9613910275a40",
        None,
    ),
    "mask_mid": (
        dict(masks=[MID]),
        "c88d8104f674ce34b47a446faf447b99fdfe21fcbf8ad5ac446f1b58aa2170d7",
        None,
    ),
    "mask_last": (
        dict(masks=[LAST]),
        "68aff26d6040ad1be6558ecca7dfe617612abb1a67072f843d8205e6bb79188c",
        None,
    ),
    "mask_mid_last": (
        dict(masks=[MID, LAST]),
        "b6f7a8da9838d21f4faa13584fd8f5d502e31bf4533467f18d95fcbaa60d55dd",
        None,
    ),
    "test_port_0": (
        dict(test_port=0),
        "8736eea1b11d04d1014f900258d40425f482954d3e621eff53c039b4ff6721e7",
        None,
    ),
    "test_port_1": (
        dict(test_port=1),
        "7cf8b6b1f38949e59e03c7613d9460b48fae33dc6d87c160363806e11ed38fc2",
        None,
    ),
    "test_port_2": (
        dict(test_port=2),
        "b5bb286eb6f57b6f507431728a88d095577416fcd701fc96297b412c1f988114",
        None,
    ),
    "test_port_3": (
        dict(test_port=3),
        "6d8748ff2fe7141c950e1f04f1243e81cce9738665f9bd431fd85e543415d579",
        None,
    ),
    # Test mode overrides masking: same digest as test_port_1.
    "mask_and_test_port_1": (
        dict(masks=[MID, LAST], test_port=1),
        "7cf8b6b1f38949e59e03c7613d9460b48fae33dc6d87c160363806e11ed38fc2",
        None,
    ),
    "metrics": (
        dict(metrics=True),
        "1ceaf4549aeadb79840d882b90fcbe6dbf70f068c8c7b70990d9613910275a40",
        "e4bd2525b86d646d914317537cb64aa67ed373aaebbc6436b500bd644a7154a5",
    ),
    "metrics_mask": (
        dict(masks=[MID, LAST], metrics=True),
        "b6f7a8da9838d21f4faa13584fd8f5d502e31bf4533467f18d95fcbaa60d55dd",
        "549cd89112cf454a7907bfce2d9479a7524018ad50eb8db0351795f3e9a42672",
    ),
    "metrics_test_port_2": (
        dict(test_port=2, metrics=True),
        "b5bb286eb6f57b6f507431728a88d095577416fcd701fc96297b412c1f988114",
        "305c574d045896dfdfd7fff1ed0c77118f1df9fb76d0447a709594c2fe83ab97",
    ),
    "unmask_mid_run": (
        dict(masks=[MID, LAST], unmask_at=2000.0),
        "835ae9c13cf244c858a8395574253e616701625059831e9a2ceae68be2c0442c",
        None,
    ),
    # Masked while ports leading into the switches are busy, then
    # unmasked: the ports must come back with their real occupancy.
    "mask_window_mid_run": (
        dict(masks=[MID, LAST], mask_at=1000.0, unmask_at=2500.0),
        "9eedef5afa9786029c36a9591d4b6551a96566bde5c8ab46d103d392dbfd9852",
        None,
    ),
}


def _pinned_run(masks=(), test_port=None, metrics=False, mask_at=None,
                unmask_at=None):
    seed = 3
    net = build_network("baldur", CELL["n_nodes"], seed)
    registry = None
    if metrics:
        registry = MetricsRegistry(window_ns=1000.0)
        net.attach_metrics(registry)
    for stage, switch in masks:
        if mask_at is None:
            net.mask_switch(stage, switch)
        else:
            net.env.schedule(mask_at, net.mask_switch, stage, switch)
    if test_port is not None:
        net.enable_test_mode(test_port)
    if unmask_at is not None:
        for stage, switch in masks:
            net.env.schedule(unmask_at, net.unmask_switch, stage, switch)
    destinations = pattern_destinations(CELL["pattern"], CELL["n_nodes"], seed)
    inject_open_loop(
        net, destinations, CELL["load"], CELL["packets_per_node"], seed=seed
    )
    summary = StatsSummary.from_stats(net.run()).to_dict()
    rollup = None if registry is None else _sha(registry.rollup())
    return _sha(summary), rollup


class TestPinnedArbitrationModes:
    """The reference for every arbitration mode: digests recorded before
    test mode, masking and the metrics gauge moved onto the single scan."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest_matches_recorded(self, name):
        setup, summary_digest, rollup_digest = PINNED[name]
        assert _pinned_run(**setup) == (summary_digest, rollup_digest)


class TestBlockedPorts:
    def test_unmask_restores_port_occupancy(self):
        """Blocking parks a port's real busy-until time; unblocking puts
        it back, and ports not leading into the masked switch are never
        touched."""
        seed = 3
        net = build_network("baldur", CELL["n_nodes"], seed)
        destinations = pattern_destinations(
            CELL["pattern"], CELL["n_nodes"], seed
        )
        inject_open_loop(
            net, destinations, CELL["load"], CELL["packets_per_node"],
            seed=seed,
        )
        net.env.run(until=1000.0)
        before = list(net._busy)
        net.mask_switch(*MID)
        changed = [i for i, t in enumerate(net._busy) if t != before[i]]
        assert changed and all(net._busy[i] == float("inf") for i in changed)
        assert any(before[i] > net.env.now for i in changed)
        net.unmask_switch(*MID)
        assert net._busy == before
