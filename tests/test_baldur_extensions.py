"""Tests for fault injection, diagnosis, and the Sec. VIII extensions."""

import pytest

from repro.core import BaldurNetwork, probe_outcomes, run_diagnosis
from repro.errors import ConfigurationError
from repro.faults import FailStop, FaultInjector


class TestFaultInjection:
    def test_faulty_switch_drops_everything(self):
        net = BaldurNetwork(16, multiplicity=2, seed=0,
                            enable_retransmission=False)
        # Fault the entry switch of node 0.
        net.inject_fault(0, 0)
        net.submit(0, 9, time=0.0)
        stats = net.run()
        assert stats.delivered == 0
        assert stats.drops == 1

    def test_fault_off_path_harmless(self):
        net = BaldurNetwork(16, multiplicity=2, seed=0,
                            enable_retransmission=False)
        net.inject_fault(0, 7)  # entry switch of nodes 14/15
        net.submit(0, 9, time=0.0)
        stats = net.run()
        assert stats.delivered == 1

    def test_fault_validation(self):
        net = BaldurNetwork(16)
        with pytest.raises(ConfigurationError):
            net.inject_fault(99, 0)
        with pytest.raises(ConfigurationError):
            net.inject_fault(0, 99)

    def test_inject_fault_adds_to_attached_injector(self):
        net = BaldurNetwork(16, multiplicity=2, seed=0)
        injector = FaultInjector([FailStop(net.flat_switch_id(1, 2))])
        net.attach_faults(injector)
        net.inject_fault(0, 0)
        assert net.fault_injector is injector
        assert sorted(f.switch_id for f in injector.faults) == [
            net.flat_switch_id(0, 0), net.flat_switch_id(1, 2),
        ]

    def test_retransmission_does_not_mask_hard_fault(self):
        # A fault on the only deterministic path: retransmission retries
        # but the entry switch eats every attempt.
        net = BaldurNetwork(16, multiplicity=2, seed=0, max_attempts=3)
        net.inject_fault(0, 0)
        net.submit(0, 9, time=0.0)
        net.run(until=1_000_000)
        assert net.lost_packets == 1


class TestTestModeAndDiagnosis:
    def test_test_mode_validation(self):
        net = BaldurNetwork(16, multiplicity=2)
        with pytest.raises(ConfigurationError):
            net.enable_test_mode(port=5)

    def test_test_mode_paths_are_deterministic(self):
        outcomes = []
        for _ in range(2):
            net = BaldurNetwork(64, multiplicity=4, seed=7,
                                enable_retransmission=False)
            net.enable_test_mode(0)
            net.record_paths = True
            p = net.submit(3, 42, time=0.0)
            net.run()
            outcomes.append(net.paths[p.pid])
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0]) == 6  # one switch per stage

    def test_probe_outcomes_requires_test_mode(self):
        net = BaldurNetwork(16, multiplicity=2,
                            enable_retransmission=False)
        with pytest.raises(ConfigurationError):
            probe_outcomes(net, [(0, 5)])

    def test_probe_outcomes_requires_no_retransmission(self):
        net = BaldurNetwork(16, multiplicity=2)
        net.enable_test_mode(0)
        with pytest.raises(ConfigurationError):
            probe_outcomes(net, [(0, 5)])

    def test_diagnosis_isolates_fault(self):
        report = run_diagnosis(64, faulty=(2, 13), n_probes=200, seed=3)
        assert report["isolated"]
        assert report["candidates"] == [report["injected_flat_id"]]

    def test_diagnosis_candidates_always_contain_fault(self):
        # Even with few probes, the injected switch is never excluded.
        report = run_diagnosis(64, faulty=(1, 5), n_probes=20, seed=1)
        if report["probes_lost"]:
            assert report["injected_flat_id"] in report["candidates"]

    def test_diagnosis_more_probes_never_widen(self):
        few = run_diagnosis(64, faulty=(2, 13), n_probes=40, seed=3)
        many = run_diagnosis(64, faulty=(2, 13), n_probes=400, seed=3)
        if few["probes_lost"] and many["probes_lost"]:
            assert len(many["candidates"]) <= len(few["candidates"])


class TestInNetworkFiltering:
    def test_filter_drops_matching_packets(self):
        # Sec. VIII: in-network filtering for security -- block a node.
        net = BaldurNetwork(
            16, multiplicity=2, seed=0,
            packet_filter=lambda p: p.src == 3,
        )
        net.submit(3, 9, time=0.0)
        net.submit(4, 9, time=500.0)
        stats = net.run(until=1_000_000)
        assert net.filtered_packets == 1
        assert stats.delivered == 1

    def test_filter_does_not_leak_retransmissions(self):
        # Filtered packets must not occupy retransmission buffers.
        net = BaldurNetwork(
            16, multiplicity=2, packet_filter=lambda p: True
        )
        net.submit(0, 9, time=0.0)
        net.run(until=100_000)
        assert net.peak_retx_buffer_kb == 0.0

    def test_filter_sees_acks(self):
        # The filter applies to everything entering the network; an
        # ACK-eating filter forces data retransmission until give-up.
        net = BaldurNetwork(
            16, multiplicity=2, max_attempts=2,
            packet_filter=lambda p: p.is_ack,
        )
        net.submit(0, 9, time=0.0)
        stats = net.run(until=1_000_000)
        assert stats.delivered == 1  # data got through
        assert net.filtered_packets >= 1  # its ACKs did not
        assert net.lost_packets == 1  # source eventually gave up


class TestAckCoalescing:
    def _burst(self, coalescing):
        net = BaldurNetwork(
            16, multiplicity=4, seed=0, ack_coalescing=coalescing,
            ack_coalesce_window_ns=500.0,
        )
        # A burst of packets from 0 to 9 arriving close together.
        for j in range(8):
            net.submit(0, 9, time=j * 10.0)
        net.run(until=5_000_000)
        return net

    def test_coalescing_sends_fewer_acks(self):
        plain = self._burst(coalescing=False)
        combined = self._burst(coalescing=True)
        assert combined.acks_sent < plain.acks_sent
        assert plain.acks_sent == 8

    def test_coalescing_still_clears_retx_buffers(self):
        net = self._burst(coalescing=True)
        assert not net._pending
        assert net._retx_buffer_bytes[0] == 0

    def test_coalesced_ack_covers_multiple_pids(self):
        net = self._burst(coalescing=True)
        assert net.stats.delivered == 8
        assert net.acks_sent >= 1
