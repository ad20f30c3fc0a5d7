"""repro.zoo -- the architecture table.

:data:`ARCHITECTURES` maps each network name to the constructor call that
builds it and a one-line description.  The rows are the five Sec. V
networks (Table VI) plus the RotorNet-style ``rotor``.  Each description
starts with the row's ``topology x routing x switch x scheduler`` names
(the OpenOptics-style quadruple).  :func:`build_network` is the one
construction path: experiments, sweeps and goldens all build through it.

Determinism contract: a constructor is a pure function of
``(n_nodes, seed)``, so identical arguments yield byte-identical
:class:`~repro.netsim.stats.StatsSummary` JSON.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro import constants as C
from repro.core.baldur_network import BaldurNetwork
from repro.electrical import (
    DragonflyNetwork,
    FatTreeNetwork,
    IdealNetwork,
    MultiButterflyNetwork,
)
from repro.errors import ConfigurationError
from repro.netsim.network import NetworkSimulator
from repro.zoo.rotor import RotorNetwork

__all__ = ["ARCHITECTURES", "RotorNetwork", "architectures", "build_network"]

Constructor = Callable[[int, int], NetworkSimulator]
"""``(n_nodes, seed) -> simulator``."""

ARCHITECTURES: Dict[str, Tuple[Constructor, str]] = {
    "baldur": (
        lambda n, seed: BaldurNetwork(
            n, multiplicity=C.BALDUR_MULTIPLICITY, seed=seed
        ),
        "multibutterfly x destination_tag_least_loaded x "
        "tl_optical_bufferless x event_driven -- the paper's all-optical "
        "multi-butterfly with tunable-laser switching and retry",
    ),
    "multibutterfly": (
        lambda n, seed: MultiButterflyNetwork(
            n, multiplicity=C.BALDUR_MULTIPLICITY, seed=seed
        ),
        "multibutterfly x destination_tag_random x electrical_buffered x "
        "event_driven -- electrical buffered baseline on the same wiring",
    ),
    "dragonfly": (
        lambda n, seed: DragonflyNetwork(n, seed=seed),
        "dragonfly x ugal_adaptive x electrical_buffered x event_driven "
        "-- electrical dragonfly with UGAL routing (Table VI)",
    ),
    "fattree": (
        lambda n, seed: FatTreeNetwork(n, seed=seed),
        "fattree x updown_adaptive x electrical_buffered x event_driven "
        "-- electrical three-tier fat-tree (Table VI)",
    ),
    # The ideal and rotor networks are seed-free: nothing random is built
    # (the seed only shapes the injected workload).
    "ideal": (
        lambda n, seed: IdealNetwork(n),
        "ideal x direct x ideal_sink x event_driven -- contention-free "
        "lower bound: a dedicated link per pair",
    ),
    "rotor": (
        lambda n, seed: RotorNetwork(n),
        "rotor x rotation_schedule x rotor_crossbar x matching_cycle -- "
        "RotorNet-style rotor switches cycling round-robin matchings",
    ),
}


def architectures() -> Tuple[str, ...]:
    """The table's architecture names, in table order."""
    return tuple(ARCHITECTURES)


def build_network(name: str, n_nodes: int, seed: int = 0) -> NetworkSimulator:
    """Build the architecture called ``name`` with ``n_nodes`` endpoints."""
    row = ARCHITECTURES.get(name) if isinstance(name, str) else None
    if row is None:
        raise ConfigurationError(
            f"architecture must be one of {', '.join(ARCHITECTURES)}; "
            f"got {name!r}"
        )
    return row[0](n_nodes, seed)
