import random
import sys
import threading
import time

import pytest

from dhtvote.routing import (
    ID_BITS,
    ID_LENGTH,
    Contact,
    RoutingTable,
    distance,
    iterative_lookup,
)

from conftest import table_contact


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
    assert table_contact(table, first.id) is first
    newer = contact(first.id, port=6882)
    table.insert(newer)
    assert table_contact(table, first.id) is newer  # swapped in, not edited
    assert first.port == 6881 and len(table) == 1
    table.insert(contact(own))  # the table never holds its own id
    assert len(table) == 1 and table_contact(table, own) is None


def test_a_contact_handed_out_keeps_its_address():
    """Re-inserting a known id at a new address swaps in the newer contact
    at the old one's place in its bucket; the contact handed out before is
    not edited."""
    own = bytes(20)
    table = RoutingTable(own, k=4)
    a, b = (bytes([0x80]) + bytes(18) + bytes([n]) for n in (1, 2))  # one bucket
    table.insert(Contact(a, "10.0.0.1", 1))
    table.insert(contact(b))
    handed_out = table.closest(a)[0]
    table.insert(Contact(a, "10.0.0.2", 2))
    assert handed_out.address == ("10.0.0.1", 1)
    assert table.closest(a)[0].address == ("10.0.0.2", 2)
    assert list(table.buckets[159]) == [a, b]


def test_bucket_overflow_keeps_healthy_contacts():
    own = bytes(20)
    table = RoutingTable(own, k=4)
    # ids sharing the top bit pattern land in one bucket
    members = [bytes([0x80]) + bytes(18) + bytes([n]) for n in range(5)]
    for node_id in members[:4]:
        table.insert(contact(node_id))
        assert table_contact(table, node_id) is not None
    table.insert(contact(members[4]))
    assert table_contact(table, members[4]) is None
    assert len(table) == 4
    # a contact that timed out is removed, and its slot taken
    table.remove(members[0])
    table.insert(contact(members[4]))
    assert len(table) == 4
    assert table_contact(table, members[0]) is None
    assert table_contact(table, members[4]) is not None


def test_closest_empty_and_exact_match():
    rng = random.Random(2)
    table = RoutingTable(make_id(rng), k=8)
    target = make_id(rng)
    assert table.closest(target) == []
    with pytest.raises(ValueError, match="k must be at least 1"):
        table.closest(target, k=0)
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
        if table_contact(table, c.id) is c:
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
            if near.id != own and table_contact(table, near.id) is None:
                table.insert(near)
                if table_contact(table, near.id) is near:
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
    """Four threads insert, refresh, remove (as a timeout does) and rank for about 1 s."""
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
                elif op < 0.85:
                    table.remove(node_id)
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

    everyone = [c for bucket in table.buckets for c in bucket.values()]
    assert len({c.id for c in everyone}) == len(everyone) == len(table)
    occupied = 0
    for index, bucket in enumerate(table.buckets):
        assert len(bucket) <= table.k
        for node_id, c in bucket.items():
            assert table._bucket_index(c.id) == index
            assert node_id == c.id
        if bucket:
            occupied |= 1 << index
    assert table._occupied == occupied
    for target in ids[:20] + [own]:
        ranked = sorted(everyone, key=lambda c: distance(c.id, target))
        assert table.closest(target, 8) == ranked[:8]


def test_table_matches_a_list_model_of_k_buckets():
    """Inserts, refreshes at a new address and removes, against plain lists.

    The model keeps each bucket as a list in join order: a refresh puts the
    newer contact in the old one's place, and a full bucket drops the
    newcomer.
    """
    for seed in range(20):
        rng = random.Random(seed)
        own = make_id(rng)
        own_int = int.from_bytes(own, "big")
        k = rng.randrange(1, 6)
        table = RoutingTable(own, k)
        # ids that differ from own in the low 5 bits fill buckets 0-4, so
        # buckets overflow; the pool holds own too
        pool = sorted({own} | {
            (own_int ^ rng.getrandbits(rng.randrange(1, 6))).to_bytes(ID_LENGTH, "big")
            for _ in range(30)
        })
        model: list[list[tuple[bytes, str, int]]] = [[] for _ in range(ID_BITS)]
        for _ in range(400):
            held = [entry for bucket in model for entry in bucket]
            op = rng.random()
            if op < 0.35 and held:  # a refresh at a new address
                node_id = rng.choice(held)[0]
            else:
                node_id = rng.choice(pool)
            index = distance(own, node_id).bit_length() - 1
            bucket = model[index] if node_id != own else []  # own is never held
            old = [entry for entry in bucket if entry[0] == node_id]
            if op < 0.7:
                new = (node_id, f"10.0.0.{rng.randrange(1, 255)}", rng.randrange(1, 65536))
                table.insert(Contact(*new))
                if old:
                    bucket[bucket.index(old[0])] = new
                elif len(bucket) < k:
                    bucket.append(new)
            else:
                table.remove(node_id)
                if old:
                    bucket.remove(old[0])

            assert [[(c.id, c.ip, c.port) for c in b.values()] for b in table.buckets] == model
            everyone = [entry[0] for bucket in model for entry in bucket]
            assert len(table) == len(everyone)
            target = rng.choice(pool) if rng.random() < 0.5 else make_id(rng)
            ranked = sorted(everyone, key=lambda i: distance(i, target))
            assert [c.id for c in table.closest(target)] == ranked[:k]


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
    """Reference lookup after Kademlia's rule (IPTPS 2002, section 2.3),
    re-ranking every candidate in every wave: of the k nearest contacts heard
    of that have not failed to answer, a wave asks the alpha nearest not yet asked."""
    candidates = {}
    for seed in seeds:
        candidates.setdefault(seed.id, seed)
    queried, responded = set(), set()

    def dist(c):
        return (distance(c.id, target), c.id)

    while True:
        alive = sorted(
            (c for c in candidates.values() if c.id in responded or c.id not in queried),
            key=dist,
        )[:k]
        wave = [c for c in alive if c.id not in queried][:alpha]
        if not wave:
            break
        for c in wave:
            queried.add(c.id)
            found = query(c, target)
            if found is not None:
                responded.add(c.id)
                for other in found:
                    candidates.setdefault(other.id, other)
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
            results.append([c.id for c in lookup(target, seeds, query, k=k, alpha=alpha)])
            rng.setstate(state)
            logs.append(log)
        assert logs[0] == logs[1]
        assert results[0] == results[1]


@pytest.mark.parametrize("k, alpha", [(8, 3), (5, 2), (7, 4)])
def test_lookup_seeded_with_the_k_nearest_sends_k_queries(k, alpha):
    """Seeds that are the true k nearest, nothing down: the lookup asks each
    of them once and no one else, though each reply names the (k+1)-th."""
    rng = random.Random(8)
    net = StaticNetwork(rng, 100, k=k)
    for _ in range(10):
        target = make_id(rng)
        nearest = net.true_closest(target)
        asked = []

        def query(contact, t):
            # like a node's own table, a reply names the k nearest but the responder
            asked.append(contact.id)
            ranked = sorted(net.ids, key=lambda i: (distance(i, t), i))[: k + 1]
            return [net.contacts[i] for i in ranked if i != contact.id][:k]

        found = iterative_lookup(target, [net.contacts[i] for i in nearest], query, k=k, alpha=alpha)
        assert sorted(asked) == sorted(nearest)
        assert [c.id for c in found] == nearest


def test_lookup_fails_without_responders():
    rng = random.Random(6)
    net = StaticNetwork(rng, 10)
    net.down = set(net.ids)
    for seeds in ([net.contacts[net.ids[0]]], []):
        assert iterative_lookup(make_id(rng), seeds, net.query, k=8, alpha=3) == []
