import random
import sys
import threading
import time

import pytest

from dhtvote.routing import (
    ID_BITS,
    ID_LENGTH,
    Contact,
    LookupFailedError,
    RoutingTable,
    distance,
    iterative_lookup,
)


def make_id(rng):
    return rng.randbytes(20)


def contact(node_id, port=6881):
    return Contact(node_id, "10.0.0.1", port)


def test_distance_properties():
    a = bytes(19) + b"\x01"
    b = bytes(19) + b"\x03"
    assert distance(a, b) == 2
    assert distance(a, a) == 0
    assert distance(a, b) == distance(b, a)


def test_distance_unidirectionality():
    rng = random.Random(0)
    target = make_id(rng)
    ids = {make_id(rng) for _ in range(200)}
    distances = [distance(i, target) for i in ids]
    assert len(set(distances)) == len(distances)


def test_insert_update_and_pending():
    rng = random.Random(1)
    own = bytes(20)
    table = RoutingTable(own, k=4)
    first = contact(make_id(rng))
    table.insert(first)
    assert table.get(first.id) is first
    table.insert(contact(first.id))
    assert table.get(first.id) is first  # updated in place
    assert len(table) == 1
    with pytest.raises(ValueError):
        table.insert(contact(own))


def test_bucket_overflow_keeps_healthy_contacts():
    own = bytes(20)
    table = RoutingTable(own, k=4)
    # ids sharing the top bit pattern land in one bucket
    members = [bytes([0x80]) + bytes(18) + bytes([n]) for n in range(5)]
    for node_id in members[:4]:
        table.insert(contact(node_id))
        assert table.get(node_id) is not None
    table.insert(contact(members[4]))
    assert table.get(members[4]) is None
    assert len(table) == 4
    # a failing contact gets replaced instead
    table.get(members[0]).failed_queries = 2
    table.insert(contact(members[4]))
    assert len(table) == 4
    assert table.get(members[0]) is None
    assert table.get(members[4]) is not None


def test_closest_empty_and_exact_match():
    rng = random.Random(2)
    table = RoutingTable(make_id(rng), k=8)
    target = make_id(rng)
    assert table.closest(target) == []
    table.insert(contact(target))
    table.insert(contact(make_id(rng)))
    assert table.closest(target)[0].id == target


def test_closest_matches_brute_force():
    rng = random.Random(3)
    own = make_id(rng)
    table = RoutingTable(own, k=8)
    everyone = []
    for _ in range(50):
        c = contact(make_id(rng))
        table.insert(c)
        if table.get(c.id) is c:
            everyone.append(c)
    target = make_id(rng)
    expected = sorted(everyone, key=lambda c: (distance(c.id, target), c.id))[:8]
    assert [c.id for c in table.closest(target, 8)] == [c.id for c in expected]

    # Ids that differ from own only in low bits fill the low buckets; a
    # target at every bucket distance from own, and own itself, starts the
    # bucket walk in every bucket.
    own_int = int.from_bytes(own, "big")
    for bits in range(1, ID_BITS + 1):
        for _ in range(3):
            near = contact((own_int ^ rng.getrandbits(bits)).to_bytes(ID_LENGTH, "big"))
            if near.id != own:
                table.insert(near)
                if table.get(near.id) is near:
                    everyone.append(near)
    targets = [own] + [
        (own_int ^ (1 << bit) ^ rng.getrandbits(bit)).to_bytes(ID_LENGTH, "big")
        for bit in range(ID_BITS)
    ]

    def check(targets):
        for target in targets:
            ranked = sorted(everyone, key=lambda c: (distance(c.id, target), c.id))
            for k in (1, 8, len(everyone) + 5):
                assert [c.id for c in table.closest(target, k)] == [c.id for c in ranked[:k]]

    check(targets)
    # emptied buckets drop out of the walk
    for gone in rng.sample(everyone, len(everyone) // 2):
        table.remove(gone.id)
        everyone.remove(gone)
    check(targets[::4])


def test_table_stays_consistent_under_concurrent_use():
    """Four threads insert, refresh, fail, remove and rank for about 1 s."""
    rng = random.Random(4)
    own = make_id(rng)
    table = RoutingTable(own, k=4)
    # random ids fill the top buckets, so full buckets, evictions and
    # emptied buckets all occur
    ids = [make_id(rng) for _ in range(120)]
    deadline = time.monotonic() + 1.0
    errors = []

    def worker(seed):
        wrng = random.Random(seed)
        try:
            while time.monotonic() < deadline:
                node_id = wrng.choice(ids)
                op = wrng.random()
                if op < 0.45:
                    table.insert(Contact(node_id, "10.0.0.1", wrng.randrange(1, 4)))
                elif op < 0.7:
                    table.remove(node_id)
                elif op < 0.85:
                    table.note_failure(node_id)
                else:
                    table.closest(wrng.choice(ids))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    everyone = [c for bucket in table.buckets for c in bucket]
    assert len({c.id for c in everyone}) == len(everyone) == len(table)
    occupied = 0
    for index, bucket in enumerate(table.buckets):
        assert len(bucket) <= table.k
        for c in bucket:
            assert table._bucket_index(c.id) == index
            assert table.get(c.id) is c
        if bucket:
            occupied |= 1 << index
    assert table._occupied == occupied
    for target in ids[:20] + [own]:
        ranked = sorted(everyone, key=lambda c: distance(c.id, target))
        assert table.closest(target, 8) == ranked[:8]


class StaticNetwork:
    """Fully meshed toy network for exercising the lookup loop alone."""

    def __init__(self, rng, size, k=8):
        self.k = k
        self.ids = sorted({make_id(rng) for _ in range(size)})
        self.contacts = {i: Contact(i, "10.0.0.2", 6881) for i in self.ids}
        self.down: set[bytes] = set()

    def query(self, contact, target):
        # dead contacts have already been evicted from live nodes' tables,
        # so responses only ever name live nodes
        if contact.id in self.down:
            return None
        ranked = sorted(
            (i for i in self.ids if i not in self.down),
            key=lambda i: (distance(i, target), i),
        )
        return [self.contacts[i] for i in ranked[: self.k]]

    def true_closest(self, target, responsive_only=False):
        pool = [i for i in self.ids if not (responsive_only and i in self.down)]
        return sorted(pool, key=lambda i: (distance(i, target), i))[: self.k]


def test_lookup_exact_on_static_network():
    rng = random.Random(4)
    net = StaticNetwork(rng, 120)
    for _ in range(20):
        target = make_id(rng)
        found = iterative_lookup(
            target, [net.contacts[net.ids[0]]], net.query, k=8, alpha=3
        )
        assert [c.id for c in found] == net.true_closest(target)


def test_lookup_skips_unresponsive_nodes():
    rng = random.Random(5)
    net = StaticNetwork(rng, 80)
    net.down = set(rng.sample(net.ids, 24))  # 30% down
    seed = net.contacts[next(i for i in net.ids if i not in net.down)]
    for _ in range(10):
        target = make_id(rng)
        found = iterative_lookup(target, [seed], net.query, k=8, alpha=3)
        assert [c.id for c in found] == net.true_closest(target, responsive_only=True)


def reference_lookup(target, seeds, query, k, alpha):
    """Reference lookup that re-ranks every candidate in every wave."""
    candidates = {}
    for seed in seeds:
        candidates.setdefault(seed.id, seed)
    queried, responded = set(), set()

    def dist(c):
        return (distance(c.id, target), c.id)

    while True:
        responsive = sorted((candidates[i] for i in responded), key=dist)[:k]
        threshold = dist(responsive[-1]) if len(responsive) >= k else None
        frontier = sorted(
            (c for c in candidates.values()
             if c.id not in queried and (threshold is None or dist(c) < threshold)),
            key=dist,
        )
        if not frontier:
            break
        for c in frontier[:alpha]:
            queried.add(c.id)
            found = query(c, target)
            if found is not None:
                responded.add(c.id)
                for other in found:
                    candidates.setdefault(other.id, other)
    if not responded:
        raise LookupFailedError("no contact responded")
    return sorted((candidates[i] for i in responded), key=dist)[:k]


def test_lookup_queries_match_reference():
    """Same queries, in the same order, and the same result as the reference."""
    rng = random.Random(7)
    net = StaticNetwork(rng, 150)
    net.down = set(rng.sample(net.ids, 40))
    for trial in range(30):
        target = make_id(rng)
        seeds = [net.contacts[i] for i in rng.sample(net.ids, 1 + trial % 5)]
        k, alpha = (8, 3) if trial % 2 else (rng.randrange(1, 10), rng.randrange(1, 5))
        logs = []
        results = []
        for lookup in (iterative_lookup, reference_lookup):
            log = []

            def query(contact, t):
                log.append(contact.id)
                found = net.query(contact, t)
                # replies may repeat contacts and name unresponsive ones
                return None if found is None else found + [net.contacts[rng.choice(net.ids)]]

            state = rng.getstate()
            try:
                results.append([c.id for c in lookup(target, seeds, query, k=k, alpha=alpha)])
            except LookupFailedError:
                results.append(None)
            rng.setstate(state)
            logs.append(log)
        assert logs[0] == logs[1]
        assert results[0] == results[1]


def test_lookup_fails_without_responders():
    rng = random.Random(6)
    net = StaticNetwork(rng, 10)
    net.down = set(net.ids)
    with pytest.raises(LookupFailedError):
        iterative_lookup(make_id(rng), [net.contacts[net.ids[0]]], net.query, k=8, alpha=3)
    with pytest.raises(LookupFailedError):
        iterative_lookup(make_id(rng), [], net.query, k=8, alpha=3)
