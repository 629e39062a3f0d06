"""Replication substrate: causal broadcast, the replica built on it, and a
simulated network of replicas."""

from .causal_broadcast import CausalBuffer, DeliveryStats
from .replica import Replica
from .simulator import Message, NetworkSimulator, SimulatedReplica, full_mesh, star

__all__ = [
    "CausalBuffer",
    "DeliveryStats",
    "Message",
    "NetworkSimulator",
    "Replica",
    "SimulatedReplica",
    "full_mesh",
    "star",
]
