"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The two 100-node scenario runs are the slow part (the churn one simulates
12 hours of traffic through the real codec).
"""

import random
import statistics
import time

import pytest

from dhtvote import krpc
from dhtvote import client
from dhtvote.client import fetch_votes
from dhtvote.node import NodeConfig, VoteNode, vote_key
from dhtvote.routing import Contact, RoutingTable, distance
from dhtvote.sim import ScenarioConfig, SimTransport, SimWorld, run_scenario
from dhtvote.sketch import HllSketch
from dhtvote.store import Polarity

from conftest import FakeClock, make_test_node

SKETCH_ERROR_BOUND = 0.20  # 99th-percentile relative error at 256 registers

FULL_SCENARIO = dict(
    node_count=100, document_count=20, positive_voters=40, negative_voters=10
)


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {state}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def no_fault_report():
    return run_scenario(
        ScenarioConfig(seed=11, duration_hours=1, **FULL_SCENARIO)
    )


def test_01_sketch_accuracy():
    started = time.monotonic()
    rng = random.Random(1234)
    errors = []
    for _ in range(200):
        sketch = HllSketch()
        seen = set()
        while len(seen) < 10_000:
            seen.add(rng.randbytes(4))
        for item in seen:
            sketch.add(item)
        errors.append(abs(sketch.estimate() - len(seen)) / len(seen))
    elapsed = time.monotonic() - started
    errors.sort()
    mean = statistics.fmean(errors)
    p99 = errors[int(0.99 * len(errors)) - 1]
    verdict(
        1,
        "sketch accuracy",
        mean <= 0.10 and p99 <= 0.20 and elapsed < 30,
        f"mean={mean:.4f} p99={p99:.4f} elapsed={elapsed:.1f}s",
    )


def test_02_duplicate_suppression():
    rng = random.Random(99)
    ips = set()
    while len(ips) < 1000:
        ips.add(rng.randbytes(4))
    ips = sorted(ips)
    repeated, once = HllSketch(), HllSketch()
    for ip in ips:
        once.add(ip)
        for _ in range(rng.randint(1, 5)):
            repeated.add(ip)
    verdict(2, "duplicate suppression", repeated.to_bytes() == once.to_bytes())


def test_03_window_semantics():
    clock = FakeClock(start=0.0)
    node = make_test_node(clock)
    source = ("192.0.2.1", 7000)
    target = b"W" * 20

    def hour(h):
        clock.now = h * 3600.0 + 17

    hour(5)
    reply = krpc.decode_message(
        node.handle_datagram(
            krpc.encode_message(krpc.get_votes_query(b"t1", b"s" * 20, target)), source
        )
    )
    token = reply.values[b"token"]
    node.handle_datagram(
        krpc.encode_message(
            krpc.announce_vote_query(b"t2", b"s" * 20, target, 1, token)
        ),
        source,
    )
    hour(5 + 23)
    present = not node.store.aggregate(target, clock())[0].is_empty()
    hour(5 + 24)
    gone_24 = node.store.aggregate(target, clock())[0].is_empty()
    hour(5 + 30)
    gone_30 = node.store.aggregate(target, clock())[0].is_empty()
    verdict(3, "window semantics", present and gone_24 and gone_30)


def test_04_routing_oracle():
    rng = random.Random(4)
    agreements = 0
    for _ in range(500):
        own = rng.randbytes(20)
        table = RoutingTable(own, k=8)
        population = []
        for _ in range(rng.randrange(1, 201)):
            contact = Contact(rng.randbytes(20), "10.0.0.1", 6881)
            table.insert(contact)
            if table.get(contact.id) is contact:
                population.append(contact)
        target = rng.randbytes(20)
        k = rng.randrange(1, 12)
        expected = sorted(population, key=lambda c: (distance(c.id, target), c.id))[:k]
        if [c.id for c in table.closest(target, k)] == [c.id for c in expected]:
            agreements += 1
    verdict(4, "routing oracle", agreements == 500, f"{agreements}/500")


def test_05_lookup_exactness():
    started = time.monotonic()
    world = SimWorld(
        ScenarioConfig(seed=5, node_count=100, document_count=0,
                       positive_voters=0, negative_voters=0)
    )
    world.build()
    observer = world.make_observer()
    rng = random.Random(55)
    all_ids = [peer.node.node_id for peer in world.peers]
    agreements = 0
    for _ in range(100):
        target = rng.randbytes(20)
        expected = sorted(all_ids, key=lambda i: (distance(i, target), i))[:8]
        found = [c.id for c in observer.lookup(target)]
        if found == expected:
            agreements += 1
    elapsed = time.monotonic() - started
    verdict(
        5,
        "lookup exactness",
        agreements == 100 and elapsed < 10,
        f"{agreements}/100 elapsed={elapsed:.1f}s",
    )


def _random_message(rng):
    tid = rng.randbytes(2)
    node_id = rng.randbytes(20)
    target = rng.randbytes(20)
    choice = rng.randrange(8)
    if choice == 0:
        return krpc.ping_query(tid, node_id)
    if choice == 1:
        return krpc.find_node_query(tid, node_id, target)
    if choice == 2:
        return krpc.get_votes_query(tid, node_id, target)
    if choice == 3:
        return krpc.announce_vote_query(
            tid, node_id, target, rng.choice([1, -1]), rng.randbytes(8)
        )
    if choice == 4:
        return krpc.ping_response(tid, node_id)
    if choice == 5:
        nodes = krpc.pack_contacts(
            [Contact(rng.randbytes(20), "203.0.113.1", 6881) for _ in range(rng.randrange(9))]
        )
        return krpc.find_node_response(tid, node_id, nodes)
    if choice == 6:
        return krpc.get_votes_response(
            tid, node_id, rng.randbytes(8), b"",
            vp=bytes(rng.randrange(34) for _ in range(256)),
            vn=bytes(rng.randrange(34) for _ in range(256)),
        )
    return krpc.ErrorMessage(tid, rng.choice([201, 202, 203, 204]), "boom")


def test_06_wire_round_trip_and_fuzz():
    rng = random.Random(6)
    corpus = []
    for _ in range(10_000):
        message = _random_message(rng)
        blob = krpc.encode_message(message)
        corpus.append(blob)
        if krpc.decode_message(blob) != message or krpc.encode_message(
            krpc.decode_message(blob)
        ) != blob:
            verdict(6, "wire round-trip + fuzz", False, "round trip broke")

    node = make_test_node(FakeClock())
    source = ("198.51.100.1", 9999)
    for i in range(100_000):
        blob = bytearray(corpus[rng.randrange(len(corpus))])
        mutation = rng.randrange(4)
        if mutation == 0 and blob:  # flip bytes
            for _ in range(rng.randrange(1, 4)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
        elif mutation == 1:  # truncate
            del blob[rng.randrange(len(blob) + 1) :]
        elif mutation == 2:  # insert noise
            at = rng.randrange(len(blob) + 1)
            blob[at:at] = rng.randbytes(rng.randrange(1, 6))
        else:  # pure noise
            blob = bytearray(rng.randbytes(rng.randrange(0, 80)))
        reply = node.handle_datagram(bytes(blob), source)
        if reply is not None:
            parsed = krpc.decode_message(reply)  # must itself be well-formed
            if not isinstance(parsed, (krpc.Response, krpc.ErrorMessage)):
                verdict(6, "wire round-trip + fuzz", False, "bad reply kind")
    verdict(6, "wire round-trip + fuzz", True, "10k round trips, 100k mutations")


def test_07_end_to_end_fidelity(no_fault_report):
    started = time.monotonic()
    report = run_scenario(ScenarioConfig(seed=11, duration_hours=1, **FULL_SCENARIO))
    elapsed = time.monotonic() - started
    within = all(
        abs(row[est] - row[true]) / row[true] <= SKETCH_ERROR_BOUND
        for row in report.rows
        for true, est in (("true_pos", "est_pos"), ("true_neg", "est_neg"))
    )
    verdict(
        7,
        "end-to-end fidelity",
        within and report.availability == 1.0 and elapsed < 60,
        f"availability={report.availability} mean={report.mean_relative_error:.4f} "
        f"elapsed={elapsed:.1f}s",
    )


def test_08_churn_resilience(no_fault_report):
    report = run_scenario(
        ScenarioConfig(
            seed=11, duration_hours=12, churn_rate=0.2, announce_period=1800.0,
            **FULL_SCENARIO,
        )
    )
    baseline = no_fault_report.mean_relative_error
    verdict(
        8,
        "churn resilience",
        report.availability >= 0.95
        and report.mean_relative_error <= 2 * baseline,
        f"availability={report.availability:.3f} "
        f"error={report.mean_relative_error:.4f} vs baseline={baseline:.4f}",
    )


def test_09_spam_filter(monkeypatch):
    world = SimWorld(
        ScenarioConfig(seed=9, node_count=100, document_count=1,
                       positive_voters=40, negative_voters=10)
    )
    world.build()
    for index in range(len(world.peers)):
        if world.peers[index].node.local_votes:
            world.announce(index)
    info_hash = world.documents[0]
    key = vote_key(info_hash)
    replicas = sorted(world.peers, key=lambda p: (distance(p.node.node_id, key), p.node.node_id))[:8]
    honest = fetch_votes(world.make_observer(), info_hash)
    for peer in replicas[:3]:
        world.set_malicious(peer, "inflate-registers")
    filtered = fetch_votes(world.make_observer(), info_hash)
    monkeypatch.setattr(client, "robust_combine", HllSketch.union)
    unfiltered = fetch_votes(world.make_observer(), info_hash)

    def close(a, b):
        return abs(a - b) / max(b, 1) <= SKETCH_ERROR_BOUND

    filtered_ok = close(filtered.positive_count, honest.positive_count) and close(
        filtered.negative_count, honest.negative_count
    )
    plain_fails = not close(unfiltered.positive_count, honest.positive_count)
    verdict(
        9,
        "spam filter",
        filtered_ok and plain_fails,
        f"honest={honest.positive_count} filtered={filtered.positive_count} "
        f"max-merge={unfiltered.positive_count}",
    )


def test_10_durability(tmp_path):
    world = SimWorld(
        ScenarioConfig(seed=10, node_count=60, document_count=0,
                       positive_voters=0, negative_voters=0)
    )
    world.build()
    address = ("172.31.0.1", 6881)
    config = NodeConfig(
        state_dir=str(tmp_path),
        bootstrap=[world.peers[0].address],
        announce_period=1800.0,
    )

    def spawn():
        node = VoteNode(
            config,
            SimTransport(world.network, address),
            clock=world.clock,
            rand_bytes=world.rand_bytes,
        )
        world.network.peers[address] = node
        node.bootstrap()
        return node

    voter = spawn()
    liked, disliked = b"\x11" * 20, b"\x22" * 20
    voter.cast_vote(liked, Polarity.POSITIVE)
    voter.cast_vote(disliked, Polarity.NEGATIVE)
    voter.announce_round()
    world.time += 900.0  # killed mid-period
    del world.network.peers[address]

    reborn = spawn()
    reload_exact = {
        h: v.polarity for h, v in reborn.local_votes.items()
    } == {liked: Polarity.POSITIVE, disliked: Polarity.NEGATIVE}
    still_blocked = reborn.cast_vote(liked, Polarity.NEGATIVE) == "already-voted"

    world.time += 1800.0  # within one announce period of the restart
    report = reborn.announce_round()
    redelivered = all(
        any(ok for _, ok in sends) for sends in report.values()
    ) and len(report) == 2
    observer = world.make_observer()
    seen = fetch_votes(observer, liked)
    verdict(
        10,
        "durability",
        reload_exact and still_blocked and redelivered and seen.positive_count == 1,
        f"reload={reload_exact} redelivered={redelivered} pos={seen.positive_count}",
    )


def test_11_datagram_budget():
    rng = random.Random(11)
    worst = 0
    for _ in range(1000):
        contacts = [
            Contact(rng.randbytes(20), "203.0.113.250", rng.randrange(1, 65536))
            for _ in range(8)
        ]
        response = krpc.get_votes_response(
            rng.randbytes(2),
            rng.randbytes(20),
            rng.randbytes(8),
            krpc.pack_contacts(contacts),
            vp=bytes(rng.randrange(34) for _ in range(256)),
            vn=bytes(rng.randrange(34) for _ in range(256)),
        )
        worst = max(worst, len(krpc.encode_message(response)))
    verdict(11, "datagram budget", worst < 1200, f"largest={worst} bytes")
