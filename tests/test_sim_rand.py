"""Tests for the seeded RNG streams (repro.sim.rand)."""

import random

from repro.sim import derive_seed, numpy_stream, stream


class TestRandomStreams:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "traffic") == derive_seed(1, "traffic")

    def test_derive_seed_distinguishes_names(self):
        assert derive_seed(1, "traffic") != derive_seed(1, "wiring")

    def test_derive_seed_distinguishes_masters(self):
        assert derive_seed(1, "traffic") != derive_seed(2, "traffic")

    def test_stream_returns_random_instance(self):
        rng = stream(0, "x")
        assert isinstance(rng, random.Random)

    def test_stream_reproducible(self):
        a = [stream(5, "s").random() for _ in range(3)]
        b = [stream(5, "s").random() for _ in range(3)]
        assert a == b

    def test_numpy_stream_reproducible(self):
        a = numpy_stream(5, "s").standard_normal(4)
        b = numpy_stream(5, "s").standard_normal(4)
        assert (a == b).all()

    def test_adjacent_seeds_decorrelated(self):
        # SHA-based derivation should make adjacent master seeds unrelated.
        a = stream(100, "t").random()
        b = stream(101, "t").random()
        assert abs(a - b) > 1e-12
