"""Distributed like/unlike voting over a Mainline-style Kademlia DHT.

Votes are announced into the DHT with two extra KRPC methods
(announce_vote / get_votes), counted one-per-IP in HyperLogLog sketches
that slide over a 24-hour window, replicated to the k nodes nearest the
hashed info-hash, and aggregated client-side with a per-register median
that filters spam replicas.
"""

from .client import VoteResult, fetch_votes, robust_combine
from .node import NodeConfig, VoteNode, vote_key
from .routing import Contact, RoutingTable, distance
from .sim import ScenarioConfig, ScenarioReport, run_scenario
from .sketch import HllSketch
from .store import Polarity, VoteStore

__all__ = [
    "Contact",
    "HllSketch",
    "NodeConfig",
    "Polarity",
    "RoutingTable",
    "ScenarioConfig",
    "ScenarioReport",
    "VoteNode",
    "VoteResult",
    "VoteStore",
    "distance",
    "fetch_votes",
    "robust_combine",
    "run_scenario",
    "vote_key",
]
