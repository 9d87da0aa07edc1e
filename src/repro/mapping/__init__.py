"""Qubit mapping: placement and SWAP routing over device topologies.

Topology types live in :mod:`repro.device`.
"""

from repro.mapping.partition import balanced_min_cut_bisection
from repro.mapping.placement import Placement, initial_placement
from repro.mapping.router import RoutingResult, route

__all__ = [
    "Placement",
    "RoutingResult",
    "balanced_min_cut_bisection",
    "initial_placement",
    "route",
]
