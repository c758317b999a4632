"""The two simulator workloads: sim-announce (write path) and sim-fetch (read path).

Both use the acceptance suite's world: 100 nodes, 20 documents, 40 positive
and 10 negative voters each. The benchmark draws the documents and voter
rosters itself, from its own generator seeded by --seed, and casts the votes
through ``VoteNode.cast_vote``; the simulator's own seed is --seed as well.
"""

from __future__ import annotations

import gc
import random
import resource
import socket
import time

from dhtvote import client
from dhtvote.node import vote_key
from dhtvote.sim import ScenarioConfig, SimWorld
from dhtvote.store import Polarity

import layers
from harness import FetchTally, OpLog, announce, median

NODES = 100
DOCUMENTS = 20
POSITIVE = 40
NEGATIVE = 10
K = 8
CHURN_RATE = 0.2  # share of nodes replaced at the start of each simulated hour
WINDOW_BLOCKS = 24  # sim-fetch: live hour blocks per key
MAX_INFLATED = 3  # sim-fetch: spam replicas per document, fewer than half of K
# A run makes round(--seconds / HOUR_SECONDS) simulated hours of
# sim-announce, or round(--seconds / PASS_SECONDS) fetch passes of
# sim-fetch, so its work never depends on the clock. At --seconds 20 that is
# 2 hours (about 24 s) or 27 passes (about 15 s) on a 2-core host.
HOUR_SECONDS = 12.0
PASS_SECONDS = 0.75
PROBES_PER_HOUR = 3  # fresh observers that each fetch every document, per hour


class Document:
    def __init__(self, info_hash: bytes, positive: list[int], negative: list[int]):
        self.info_hash = info_hash
        self.key = vote_key(info_hash)
        self.positive = positive  # voter peer indices
        self.negative = negative
        self.exact: tuple[int, int] = (0, 0)  # distinct voter IPs, set once the world exists


def make_documents(seed: int) -> list[Document]:
    rng = random.Random(f"dhtvote-bench-roster:{seed}")
    documents = []
    for _ in range(DOCUMENTS):
        info_hash = rng.randbytes(20)
        chosen = rng.sample(range(NODES), POSITIVE + NEGATIVE)
        documents.append(Document(info_hash, chosen[:POSITIVE], chosen[POSITIVE:]))
    return documents


def traffic(world: SimWorld) -> tuple[int, int, int, int]:
    net = world.network
    return (sum(net.datagrams.values()), sum(net.bytes_by_kind.values()),
            net.check_datagrams, net.check_bytes)


def seeded_world(seed: int) -> tuple[SimWorld, list[Document], list[float]]:
    """Build the network, cast the votes and announce each once (hour 0).

    Returns the world, the documents and the seconds of each seeding round.
    """
    world = SimWorld(ScenarioConfig(
        seed=seed, node_count=NODES, document_count=0, positive_voters=0,
        negative_voters=0, churn_rate=CHURN_RATE, k=K,
    ))
    world.build()
    documents = make_documents(seed)
    for doc in documents:
        ips = [{world.peers[i].address[0] for i in group}
               for group in (doc.positive, doc.negative)]
        doc.exact = (len(ips[0]), len(ips[1]))
        for group, polarity in ((doc.positive, Polarity.POSITIVE),
                                (doc.negative, Polarity.NEGATIVE)):
            for index in group:
                world.peers[index].node.cast_vote(doc.info_hash, polarity)
    rounds = []
    for index, peer in enumerate(world.peers):
        if not peer.node.local_votes:
            continue
        world.time = float(index)
        start = time.perf_counter()
        report = peer.node.announce_round()
        rounds.append(time.perf_counter() - start)
        if not all(any(ok for _, ok in sends) for sends in report.values()):
            raise RuntimeError(f"seeding: a vote of peer {index} reached no replica")
    return world, documents, rounds


def repeated_setup(seed: int, repeats: int, setup):
    """Run setup() repeats times; keep the last result, return all timings."""
    timings = []
    result = None
    for _ in range(repeats):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = setup(seed)
        timings.append(time.perf_counter() - start)
    return result, timings


def sim_announce(seed: int, seconds: float, setup_repeats: int, tracer=None) -> dict:
    """Each simulated hour: churn, then two announce rounds on every voter
    node (announce_period is half an hour), with the probe fetches spread
    over the second round."""
    hours = max(1, round(seconds / HOUR_SECONDS))
    (world, documents, _), setups = repeated_setup(seed, setup_repeats, seeded_world)
    voters = [i for i, peer in enumerate(world.peers) if peer.node.local_votes]
    probes = PROBES_PER_HOUR * len(documents)
    log = OpLog(tracer)
    tally = FetchTally(log)
    before = traffic(world)
    if tracer is not None:
        layers.instrument(tracer)
    gc.collect()
    start = time.perf_counter()
    try:
        for hour in range(1, hours + 1):
            world.time = hour * 3600.0
            world.churn()
            nearest = [{p.address for p in nearest_by_xor(world, doc.key)} for doc in documents]
            for index in voters:
                world.time = hour * 3600.0 + 1 + index
                node = world.peers[index].node
                announce(log, node.announce_round, node.local_votes)
            # Every replica holds this hour's votes now. Spreading the fetches
            # over the second round makes them sample the same stretch of
            # wall time as the announces do, not one short burst.
            fetched = 0
            for position, index in enumerate(voters):
                world.time = hour * 3600.0 + 1800.0 + 1 + index
                node = world.peers[index].node
                announce(log, node.announce_round, node.local_votes)
                while fetched < (position + 1) * probes // len(voters):
                    doc = fetched % len(documents)
                    if doc == 0:
                        observer = world.make_observer()
                        recorder = RecordingTransport.install(observer)
                    fetch(log, tally, observer, recorder, documents[doc], nearest[doc])
                    fetched += 1
        phase = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    return finish(world, log, before, phase, setups, tally,
                  announce_ms=log.p50_ms("announce"), fetch_ms=log.p50_ms("fetch"))


def nearest_by_xor(world: SimWorld, key: bytes) -> list:
    target = int.from_bytes(key, "big")
    return sorted(
        world.peers,
        key=lambda p: (int.from_bytes(p.node.node_id, "big") ^ target, p.node.node_id),
    )[:K]


def steady_world(seed: int):
    """sim-fetch set-up: 24 live hour blocks per key and a spam minority.

    Hour 0 goes through the protocol; hours 1..23 are written with
    VoteStore.record into the K nodes nearest each key by XOR. Where a lookup
    misses one of those nodes, the protocol delivered hour 0 elsewhere, and
    the fetch reads that node too (see exact_replica_share).
    """
    world, documents, rounds = seeded_world(seed)
    for doc in documents:
        replicas = nearest_by_xor(world, doc.key)
        votes = [(socket.inet_aton(world.peers[i].address[0]), polarity)
                 for group, polarity in ((doc.positive, Polarity.POSITIVE),
                                         (doc.negative, Polarity.NEGATIVE))
                 for i in group]
        for hour in range(1, WINDOW_BLOCKS):
            now = hour * 3600.0 + 1
            for peer in replicas:
                for ip, polarity in votes:
                    peer.node.store.record(doc.key, polarity, ip, now)
    rng = random.Random(f"dhtvote-bench-spam:{seed}")
    inflated: dict[int, int] = {}  # doc -> spam replicas
    replica_sets = [nearest_by_xor(world, doc.key) for doc in documents]
    spammers = set()
    for doc_index, replicas in enumerate(replica_sets):
        if inflated.get(doc_index):
            continue
        for peer in rng.sample(replicas, K):
            hit = [d for d, rs in enumerate(replica_sets) if peer in rs]
            if all(inflated.get(d, 0) < MAX_INFLATED for d in hit):
                spammers.add(peer.index)
                for d in hit:
                    inflated[d] = inflated.get(d, 0) + 1
                break
    for index in sorted(spammers):
        world.set_malicious(world.peers[index], "inflate-registers")
    world.time = (WINDOW_BLOCKS - 1) * 3600.0 + 1800.0
    observer = world.make_observer()
    return world, documents, rounds, observer, replica_sets


class RecordingTransport:
    """Passes requests through and notes where get_votes queries went."""

    def __init__(self, inner):
        self.inner = inner
        self.get_votes_to: list[tuple[str, int]] = []

    @classmethod
    def install(cls, node) -> "RecordingTransport":
        node.transport = cls(node.transport)
        return node.transport

    def request(self, address, data, kind):
        if kind == "get_votes":
            self.get_votes_to.append(address)
        return self.inner.request(address, data, kind)


def sim_fetch(seed: int, seconds: float, setup_repeats: int, tracer=None) -> dict:
    """One observer fetches every document, in a fixed order, many passes."""
    passes = max(1, round(seconds / PASS_SECONDS))
    (world, documents, rounds, observer, replica_sets), setups = repeated_setup(
        seed, setup_repeats, steady_world
    )
    recorder = RecordingTransport.install(observer)
    nearest = [{p.address for p in replicas} for replicas in replica_sets]
    log = OpLog(tracer)
    tally = FetchTally(log)
    before = traffic(world)
    if tracer is not None:
        layers.instrument(tracer)
    gc.collect()
    start = time.perf_counter()
    try:
        for _ in range(passes):
            for doc, replicas in zip(documents, nearest):
                fetch(log, tally, observer, recorder, doc, replicas)
        phase = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    return finish(world, log, before, phase, setups, tally,
                  announce_ms=median(rounds) * 1e3, fetch_ms=log.p50_ms("fetch"))


def fetch(log, tally, observer, recorder, doc, nearest) -> None:
    recorder.get_votes_to.clear()
    result = log.run("fetch", client.fetch_votes, observer, doc.info_hash)
    tally.check(result, doc.exact, f"fetch {doc.info_hash.hex()}",
                recorder.get_votes_to, nearest)


def finish(world, log, before, phase, setups, tally, announce_ms, fetch_ms) -> dict:
    after = traffic(world)
    datagrams, sent_bytes, check_datagrams, check_bytes = (
        a - b for a, b in zip(after, before)
    )
    log.check(datagrams == check_datagrams and sent_bytes == check_bytes,
              "traffic tallies differ from the network's cross-check counters")
    ops = log.attempted
    return {
        "log": log,
        "phase_seconds": phase,
        "setup_seconds": setups,
        "announce_p50_ms": announce_ms,
        "fetch_p50_ms": fetch_ms,
        "datagrams": datagrams,
        "bytes": sent_bytes,
        "ops": ops,
        "layer_values": tally.layer_values(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
