"""Deterministic in-process simulator: churn, loss, malice, accuracy, traffic.

Nodes are real VoteNode instances wired to a virtual datagram network and a
virtual clock. Every datagram goes through the real wire codec, so the
traffic tally reflects actual encoded sizes and codec bugs surface here.
The whole run is single-threaded and driven by one seeded RNG: identical
(seed, config) pairs replay byte-identically.

Churn model: each simulated hour a fraction of nodes is replaced. A
replacement keeps the departed user's IP and permanent local votes (those
live on the user's disk) but arrives with a fresh id and empty replica
state and must re-bootstrap, which is what actually stresses replication.
"""

from __future__ import annotations

import csv
import io
import json
import random
import statistics
from dataclasses import asdict, dataclass, field

from . import krpc
from .client import fetch_votes
from .node import NodeConfig, VoteNode
from .sketch import REGISTER_COUNT
from .store import WINDOW_HOURS, Polarity

MALICE_STRATEGIES = ("inflate-registers", "zero-out", "flip-polarity", "silent")
SIM_PORT = 6881


@dataclass
class ScenarioConfig:
    seed: int = 0
    node_count: int = 100
    duration_hours: int = 2
    churn_rate: float = 0.0  # fraction of nodes replaced per simulated hour
    message_loss: float = 0.0
    malicious_fraction: float = 0.0
    malicious_strategy: str = "inflate-registers"
    document_count: int = 20
    positive_voters: int = 40
    negative_voters: int = 10
    k: int = NodeConfig.k
    alpha: int = NodeConfig.alpha
    announce_period: float = NodeConfig.announce_period

    def validate(self) -> None:
        for name in ("churn_rate", "message_loss", "malicious_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("seed", "node_count", "duration_hours", "document_count",
                     "positive_voters", "negative_voters"):
            value = getattr(self, name)
            if type(value) is not int:  # not a bool, a float or None
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.node_count < 2:
            raise ValueError("need at least 2 nodes")
        if self.duration_hours < 1:
            raise ValueError("duration_hours must be at least 1")
        if self.positive_voters + self.negative_voters > self.node_count:
            raise ValueError("more voters per document than nodes")
        if self.malicious_strategy not in MALICE_STRATEGIES:
            raise ValueError(f"unknown malice strategy {self.malicious_strategy!r}")
        if self.document_count < 0 or self.positive_voters < 0 or self.negative_voters < 0:
            raise ValueError("counts must be non-negative")
        if self.announce_period < 2:  # the schedule draws offsets in [1, period)
            raise ValueError("announce_period must be at least 2 seconds")
        self.node_config()  # checks k, alpha and announce_period

    def node_config(self, bootstrap=()) -> NodeConfig:
        """The configuration of every simulated node."""
        return NodeConfig(
            bootstrap=list(bootstrap),
            k=self.k,
            alpha=self.alpha,
            announce_period=self.announce_period,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("scenario file must hold a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        config = cls(**raw)
        config.validate()
        return config


@dataclass
class ScenarioReport:
    config: dict
    rows: list[dict]  # one per (probe, document)
    availability: float
    mean_relative_error: float
    p99_relative_error: float
    datagrams: dict[str, int]
    bytes_by_kind: dict[str, int]
    total_datagrams: int
    total_bytes: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        columns = ["doc", "true_pos", "est_pos", "true_neg", "est_neg", "responders"]
        writer = csv.DictWriter(out, columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(self.rows)
        return out.getvalue()


class VirtualNetwork:
    """Synchronous request/response datagram fabric with loss and tallies."""

    def __init__(self, rng: random.Random, loss: float = 0.0):
        self.rng = rng
        self.loss = loss
        # addr -> datagram handler: a VoteNode, or the MaliciousPeer over one
        self.peers: dict[tuple[str, int], object] = {}
        self.datagrams: dict[str, int] = {}
        self.bytes_by_kind: dict[str, int] = {}
        # independent cross-check, bumped once per delivered datagram
        self.check_datagrams = 0
        self.check_bytes = 0

    def _count(self, kind: str, size: int) -> None:
        self.datagrams[kind] = self.datagrams.get(kind, 0) + 1
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size
        self.check_datagrams += 1
        self.check_bytes += size

    def _lost(self) -> bool:
        return self.loss > 0.0 and self.rng.random() < self.loss

    def request(
        self, source: tuple[str, int], dest: tuple[str, int], data: bytes, kind: str
    ) -> bytes | None:
        handler = self.peers.get(dest)
        if handler is None:
            return None
        for _ in range(NodeConfig.query_retries + 1):
            if self._lost():
                continue
            self._count(f"{kind}:query", len(data))
            reply = handler.handle_datagram(data, source)
            if reply is None:
                continue  # silent peer; retry like a timeout
            if self._lost():
                continue
            self._count(f"{kind}:response", len(reply))
            return reply
        return None


class SimTransport:
    def __init__(self, network: VirtualNetwork, address: tuple[str, int]):
        self.network = network
        self.address = address

    def request(self, address, data, kind):
        return self.network.request(self.address, address, data, kind)


class MaliciousPeer:
    """Wraps an honest node and corrupts its get_votes responses."""

    def __init__(self, node: VoteNode, strategy: str):
        if strategy not in MALICE_STRATEGIES:
            raise ValueError(f"unknown malice strategy {strategy!r}")
        self.node = node
        self.strategy = strategy

    def handle_datagram(self, data: bytes, source) -> bytes | None:
        if self.strategy == "silent":
            return None
        reply = self.node.handle_datagram(data, source)
        # the node replies only to a query it could decode
        if reply is None or krpc.decode_message(data).method != "get_votes":
            return reply
        response = krpc.decode_message(reply)
        if not isinstance(response, krpc.Response):
            return reply
        values = response.values
        if self.strategy == "inflate-registers":
            values[b"vp"] = b"\xff" * REGISTER_COUNT
            values[b"vn"] = b"\xff" * REGISTER_COUNT
        elif self.strategy == "zero-out":
            values.pop(b"vp", None)
            values.pop(b"vn", None)
        elif self.strategy == "flip-polarity":
            vp, vn = values.pop(b"vp", None), values.pop(b"vn", None)
            if vn is not None:
                values[b"vp"] = vn
            if vp is not None:
                values[b"vn"] = vp
        return krpc.encode_message(response)


class SimPeer:
    __slots__ = ("index", "address", "node")

    def __init__(self, index: int, address, node: VoteNode):
        self.index = index
        self.address = address
        self.node = node


@dataclass
class AnnounceEvent:
    time: float
    doc: int
    polarity: Polarity
    ip: str


def replay_oracle(
    events: list[AnnounceEvent], probe_time: float
) -> dict[tuple[int, Polarity], int]:
    """Exact distinct-IP counts per (document, polarity), trailing 24 hours."""
    probe_hour = int(probe_time) // 3600
    seen: dict[tuple[int, Polarity], set[str]] = {}
    for event in events:
        if probe_hour - int(event.time) // 3600 < WINDOW_HOURS:
            seen.setdefault((event.doc, event.polarity), set()).add(event.ip)
    return {key: len(ips) for key, ips in seen.items()}


class SimWorld:
    """A running network of simulated nodes under a virtual clock."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.rng = random.Random(config.seed)
        self.time = 0.0
        self.network = VirtualNetwork(self.rng, config.message_loss)
        self.peers: list[SimPeer] = []
        self.documents: list[bytes] = []
        self.voters: list[list[tuple[int, Polarity]]] = []  # per doc: (peer index, polarity)
        self.events: list[AnnounceEvent] = []
        self._observer_serial = 0

    # -- construction --------------------------------------------------

    def clock(self) -> float:
        return self.time

    def rand_bytes(self, n: int) -> bytes:
        return self.rng.randbytes(n)

    def _peer_ip(self, index: int) -> str:
        return f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}"

    def _make_node(self, bootstrap, address) -> VoteNode:
        transport = SimTransport(self.network, address)
        return VoteNode(
            self.config.node_config(bootstrap),
            transport,
            clock=self.clock,
            rand_bytes=self.rand_bytes,
        )

    def build(self) -> None:
        """Create and join all nodes, then cast and seed the votes."""
        for index in range(self.config.node_count):
            address = (self._peer_ip(index), SIM_PORT)
            bootstrap = [self.peers[0].address] if self.peers else []
            node = self._make_node(bootstrap, address)
            peer = SimPeer(index, address, node)
            self.peers.append(peer)
            self.network.peers[address] = node
            node.bootstrap()
        # second pass so early joiners learn about late neighbors
        for peer in self.peers:
            peer.node.bootstrap()
        self._assign_malice()
        self._assign_votes()

    def _assign_malice(self) -> None:
        count = round(self.config.malicious_fraction * len(self.peers))
        for peer in self.rng.sample(self.peers, count):
            self.set_malicious(peer, self.config.malicious_strategy)

    def set_malicious(self, peer: SimPeer, strategy: str) -> None:
        self.network.peers[peer.address] = MaliciousPeer(peer.node, strategy)

    def _assign_votes(self) -> None:
        for doc in range(self.config.document_count):
            self.documents.append(self.rng.randbytes(20))
            chosen = self.rng.sample(
                range(len(self.peers)),
                self.config.positive_voters + self.config.negative_voters,
            )
            roster = [
                (index, Polarity.POSITIVE if i < self.config.positive_voters else Polarity.NEGATIVE)
                for i, index in enumerate(chosen)
            ]
            self.voters.append(roster)
            for index, polarity in roster:
                self.peers[index].node.cast_vote(self.documents[doc], polarity)

    # -- per-event actions ---------------------------------------------

    def announce(self, peer_index: int) -> None:
        peer = self.peers[peer_index]
        peer.node.announce_round()
        for doc, roster in enumerate(self.voters):
            for index, polarity in roster:
                if index == peer_index:
                    self.events.append(
                        AnnounceEvent(self.time, doc, polarity, peer.address[0])
                    )

    def churn(self) -> None:
        count = round(self.config.churn_rate * len(self.peers))
        if count == 0:
            return
        for peer in self.rng.sample(self.peers, count):
            self.replace_peer(peer.index)

    def replace_peer(self, index: int) -> SimPeer:
        """Session churn: new id and empty state, same IP and local votes."""
        old = self.peers[index]
        votes = dict(old.node.local_votes)
        others = [p for p in self.peers if p.index != index]
        bootstrap = [self.rng.choice(others).address] if others else []
        node = self._make_node(bootstrap, old.address)
        node.local_votes = votes
        peer = SimPeer(index, old.address, node)
        self.peers[index] = peer
        self.network.peers[old.address] = node
        node.bootstrap()
        return peer

    def make_observer(self) -> VoteNode:
        """A fresh ephemeral client node, bootstrapped off a random peer."""
        self._observer_serial += 1
        n = self._observer_serial
        address = (f"172.16.{(n >> 8) & 255}.{n & 255}", SIM_PORT)
        node = self._make_node([self.rng.choice(self.peers).address], address)
        node.bootstrap()
        return node

    def probe(self) -> list[dict]:
        """Fetch every document from a fresh observer; one row per document."""
        observer = self.make_observer()
        truth = replay_oracle(self.events, self.time)
        rows = []
        for doc, info_hash in enumerate(self.documents):
            result = fetch_votes(observer, info_hash)
            rows.append(
                {
                    "probe_hour": int(self.time) // 3600,
                    "doc": doc,
                    "true_pos": truth.get((doc, Polarity.POSITIVE), 0),
                    "est_pos": result.positive_count,
                    "true_neg": truth.get((doc, Polarity.NEGATIVE), 0),
                    "est_neg": result.negative_count,
                    "responders": result.responders,
                }
            )
        return rows


def _relative_errors(rows: list[dict]) -> list[float]:
    errors = []
    for row in rows:
        if row["responders"] < 1:
            continue
        for true_key, est_key in (("true_pos", "est_pos"), ("true_neg", "est_neg")):
            if row[true_key] > 0:
                errors.append(abs(row[est_key] - row[true_key]) / row[true_key])
    return errors


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(fraction * len(ranked)))]


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Run one full scenario: build, announce, churn, probe hourly, report."""
    world = SimWorld(config)  # validates config
    world.build()

    # initial announce seeds the replicas at t=0 (a cast triggers a round)
    for index in range(len(world.peers)):
        if world.peers[index].node.local_votes:
            world.announce(index)

    # schedule: per-peer announces at a stable per-slot offset, churn on the
    # hour, probes one second before each hour boundary
    horizon = config.duration_hours * 3600
    offsets = [world.rng.randrange(1, int(config.announce_period)) for _ in world.peers]
    events: list[tuple[float, int, str, int]] = []
    seq = 0
    for index, offset in enumerate(offsets):
        t = float(offset)
        while t < horizon:
            events.append((t, seq, "announce", index))
            seq += 1
            t += config.announce_period
    for hour in range(1, config.duration_hours + 1):
        if config.churn_rate > 0 and hour < config.duration_hours:
            events.append((hour * 3600.0, seq, "churn", 0))
            seq += 1
        events.append((hour * 3600.0 - 1.0, seq, "probe", 0))
        seq += 1

    rows: list[dict] = []
    for when, _, action, index in sorted(events):
        world.time = when
        if action == "announce":
            if world.peers[index].node.local_votes:
                world.announce(index)
        elif action == "churn":
            world.churn()
        else:
            rows.extend(world.probe())

    fetches = len(rows)
    available = sum(1 for row in rows if row["responders"] >= 1)
    errors = _relative_errors(rows)
    network = world.network
    total_bytes = sum(network.bytes_by_kind.values())
    total_datagrams = sum(network.datagrams.values())
    assert total_bytes == network.check_bytes, "traffic tally out of sync"
    assert total_datagrams == network.check_datagrams, "datagram tally out of sync"
    return ScenarioReport(
        config=asdict(config),
        rows=rows,
        availability=(available / fetches) if fetches else 1.0,
        mean_relative_error=statistics.fmean(errors) if errors else 0.0,
        p99_relative_error=_percentile(errors, 0.99),
        datagrams=dict(sorted(network.datagrams.items())),
        bytes_by_kind=dict(sorted(network.bytes_by_kind.items())),
        total_datagrams=total_datagrams,
        total_bytes=total_bytes,
    )
