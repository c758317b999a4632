import random

import pytest

from dhtvote import client, krpc
from dhtvote.client import fetch_votes, robust_combine
from dhtvote.sim import ScenarioConfig, SimWorld
from dhtvote.sketch import HllSketch


def random_sketch(rng, items=50):
    sketch = HllSketch()
    for _ in range(items):
        sketch.add(rng.randbytes(4))
    return sketch


# ---------------------------------------------------------------------------
# robust_combine


def test_combine_identical_replicas_is_identity():
    sketch = random_sketch(random.Random(0))
    assert robust_combine([HllSketch(sketch.registers) for _ in range(5)]) == sketch


def test_combine_two_replicas_is_plain_merge():
    rng = random.Random(1)
    a, b = random_sketch(rng), random_sketch(rng)
    assert robust_combine([a, b]) == a.merge(b)
    assert robust_combine([a]) == a


def test_combine_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        robust_combine([])
    # A sketch of another precision cannot reach a combiner: the constructor
    # refuses it, and registers cannot be rebound after construction.
    for foreign in (bytearray(128), bytearray(512)):
        with pytest.raises(ValueError, match="expected 256 registers"):
            HllSketch(foreign)
    sketch = HllSketch()
    with pytest.raises(AttributeError):
        sketch.registers = bytearray(512)
    assert len(sketch.registers) == 256


def test_combine_median_vs_adversarial_inflation():
    rng = random.Random(2)
    honest = [random_sketch(rng) for _ in range(5)]
    evil = [HllSketch(b"\xff" * 256) for _ in range(2)]
    combined = robust_combine(honest + evil)
    expected = bytes(
        sorted(values)[(7 - 1) // 2]
        for values in zip(*(s.registers for s in honest + evil))
    )
    assert bytes(combined.registers) == expected
    # every output register is one of the honest values
    for out, column in zip(combined.registers, zip(*(s.registers for s in honest))):
        assert out in column


def test_combine_permutation_invariant():
    rng = random.Random(3)
    sketches = [random_sketch(rng, items=20) for _ in range(6)]
    baseline = robust_combine(sketches)
    for _ in range(5):
        rng.shuffle(sketches)
        assert robust_combine(sketches) == baseline


def test_breakdown_bound_exact_when_honest_agree():
    """With agreeing honest replicas, the lower median lands inside the honest
    run against up to floor(n/2) inflated replicas (every register 255) and up
    to floor((n-1)/2) all-zero ones, and one more of either kind moves it: at
    k = 8, four inflating replicas but only three deflating ones."""
    rng = random.Random(4)
    for voters in (50, 40, 300):
        honest = random_sketch(rng, items=voters)
        for n in range(3, 11):
            for corrupt_value, bound in ((b"\xff", n // 2), (b"\x00", (n - 1) // 2)):
                for bad in (bound, bound + 1):
                    replicas = [HllSketch(honest.registers) for _ in range(n - bad)]
                    replicas += [HllSketch(corrupt_value * 256) for _ in range(bad)]
                    rng.shuffle(replicas)
                    assert (robust_combine(replicas) == honest) == (bad == bound), (voters, n, bad)


def reference_combine(sketches):
    """The lower median of every register, column by column."""
    mid = (len(sketches) - 1) // 2
    return bytes(sorted(column)[mid] for column in zip(*(s.registers for s in sketches)))


def mixed_sketch(rng):
    """A sketch like a replica's: sparse and honest, dense, inflated or empty."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_sketch(rng, items=rng.randrange(1, 80))
    if kind == 1:
        return HllSketch(bytes(rng.randrange(256) for _ in range(256)))
    if kind == 2:
        return HllSketch(bytes([rng.choice((0xFF, 33, 1))]) * 256)
    return HllSketch()


def test_combine_equals_the_per_register_lower_median():
    rng = random.Random(5)
    for trial in range(400):
        sketches = [mixed_sketch(rng) for _ in range(3 + trial % 10)]  # n = 3 ... 12
        assert bytes(robust_combine(sketches).registers) == reference_combine(sketches)


def test_combine_of_more_than_255_sketches_is_rejected():
    """A per-register count of nonzero sketches fits a byte up to 255."""
    rng = random.Random(6)
    sketches = [mixed_sketch(rng) for _ in range(255)]
    assert bytes(robust_combine(sketches).registers) == reference_combine(sketches)
    # 255 sketches nonzero at register 5 alone fill its count's byte
    registers = bytes(5) + b"\x04" + bytes(250)
    assert bytes(robust_combine([HllSketch(registers) for _ in range(255)]).registers) == registers
    for n in (256, 300):
        with pytest.raises(ValueError, match="at most 255"):
            robust_combine(sketches[:1] * n)


# ---------------------------------------------------------------------------
# fetch_votes against the simulator fabric


@pytest.fixture(scope="module")
def small_world():
    config = ScenarioConfig(
        seed=7, node_count=40, document_count=3, positive_voters=12, negative_voters=4
    )
    world = SimWorld(config)
    world.build()
    for index in range(len(world.peers)):
        if world.peers[index].node.local_votes:
            world.announce(index)
    return world


def test_fetch_matches_ground_truth(small_world):
    observer = small_world.make_observer()
    for info_hash in small_world.documents:
        result = fetch_votes(observer, info_hash)
        assert result.responders == 8
        assert abs(result.positive_count - 12) / 12 <= 0.2
        assert abs(result.negative_count - 4) / 4 <= 0.25
        assert result.filtered  # 8 replicas -> robust path


def test_fetch_unknown_infohash_is_zero_with_responders(small_world):
    observer = small_world.make_observer()
    result = fetch_votes(observer, b"\x99" * 20)
    assert result.positive_count == 0 and result.negative_count == 0
    assert result.responders > 0
    assert not result.filtered


def test_fetch_with_inflating_minority_stays_honest(small_world, monkeypatch):
    from dhtvote.node import vote_key
    from dhtvote.routing import distance

    info_hash = small_world.documents[0]
    key = vote_key(info_hash)
    replicas = sorted(
        small_world.peers, key=lambda p: distance(p.node.node_id, key)
    )[:8]
    for peer in replicas[:3]:
        small_world.set_malicious(peer, "inflate-registers")
    try:
        observer = small_world.make_observer()
        honest = fetch_votes(observer, info_hash)
        assert abs(honest.positive_count - 12) / 12 <= 0.2
        monkeypatch.setattr(client, "robust_combine", HllSketch.union)
        poisoned = fetch_votes(observer, info_hash)
        assert poisoned.positive_count > 1_000_000
    finally:
        for peer in replicas[:3]:
            small_world.network.peers[peer.address] = peer.node


def one_byte_short(vp):
    return vp[:-1]


def repeated_index(vp):
    m = len(vp) // 2
    return vp[:1] + vp[: m - 1] + vp[m:]  # the first index twice, the last gone


def zero_rank(vp):
    m = len(vp) // 2
    return vp[:m] + b"\x00" + vp[m + 1 :]


class MalformedSketch:
    """A replica that corrupts its sparse vp sketch with ``corrupt``."""

    def __init__(self, node, corrupt):
        self.node, self.corrupt = node, corrupt

    def handle_datagram(self, data, source):
        reply = krpc.decode_message(self.node.handle_datagram(data, source))
        if b"vp" in reply.values:
            assert len(reply.values[b"vp"]) < 256  # 12 voters: the sparse form
            reply.values[b"vp"] = self.corrupt(reply.values[b"vp"])
        return krpc.encode_message(reply)


def test_fetch_skips_a_replica_with_a_malformed_sketch(small_world, monkeypatch):
    from dhtvote.node import vote_key
    from dhtvote.routing import distance

    info_hash = small_world.documents[2]
    key = vote_key(info_hash)
    bad = min(small_world.peers, key=lambda p: distance(p.node.node_id, key))
    combine = client.robust_combine

    def counted(sketches):
        combined.append(len(sketches))
        return combine(sketches)

    monkeypatch.setattr(client, "robust_combine", counted)
    for corrupt in (one_byte_short, repeated_index, zero_rank):
        combined = []
        small_world.network.peers[bad.address] = MalformedSketch(bad.node, corrupt)
        try:
            result = fetch_votes(small_world.make_observer(), info_hash)
        finally:
            small_world.network.peers[bad.address] = bad.node
        assert result.responders == 8
        assert combined == [7, 7], corrupt.__name__
        assert abs(result.positive_count - 12) / 12 <= 0.2


def test_fetch_ignores_sketches_outside_the_replica_set(small_world, monkeypatch):
    """The lookup asks nodes beyond the k nearest; their sketches must not
    reach the combiner, even the plain-union one."""
    from dhtvote.node import vote_key
    from dhtvote.routing import distance

    info_hash = small_world.documents[1]
    key = vote_key(info_hash)
    ranked = sorted(
        small_world.peers, key=lambda p: (distance(p.node.node_id, key), p.node.node_id)
    )
    outside = ranked[8:]  # every node but the 8 replicas
    for peer in outside:
        small_world.set_malicious(peer, "inflate-registers")
    try:
        observer = small_world.make_observer()
        inner = observer.transport
        get_votes_to = []

        class Recorder:
            def request(self, address, data, kind):
                if kind == "get_votes":
                    get_votes_to.append(address)
                return inner.request(address, data, kind)

        observer.transport = Recorder()
        monkeypatch.setattr(client, "robust_combine", HllSketch.union)
        result = fetch_votes(observer, info_hash)
        assert {peer.address for peer in outside} & set(get_votes_to)  # the lookup did ask one
        assert result.responders == 8
        assert abs(result.positive_count - 12) / 12 <= 0.2
        assert abs(result.negative_count - 4) / 4 <= 0.25
    finally:
        for peer in outside:
            small_world.network.peers[peer.address] = peer.node
