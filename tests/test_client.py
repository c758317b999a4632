import random

import pytest

from dhtvote import client
from dhtvote.client import fetch_votes, robust_combine
from dhtvote.sim import ScenarioConfig, SimWorld
from dhtvote.sketch import HllSketch
from dhtvote.store import Polarity


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
    short = HllSketch()
    short.registers = bytearray(128)  # simulate a foreign precision
    with pytest.raises(ValueError):
        robust_combine([HllSketch(), short, HllSketch()])
    long = HllSketch()
    long.registers = bytearray(512)  # longer registers must not be truncated away
    for mixed in (
        [HllSketch(), long, HllSketch()],
        [HllSketch(), short],
        [long, HllSketch()],
    ):
        with pytest.raises(ValueError):
            robust_combine(mixed)


def test_combine_median_vs_adversarial_inflation():
    rng = random.Random(2)
    honest = [random_sketch(rng) for _ in range(5)]
    evil = [HllSketch(b"\xff" * 256) for _ in range(2)]
    combined = robust_combine(honest + evil)
    expected = bytes(
        sorted(values)[(7 - 1) // 2]
        for values in zip(*(s.registers for s in honest + evil))
    )
    assert combined.to_bytes() == expected
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
    """With <= floor((n-1)/2) corrupt replicas and agreeing honest ones,
    the lower median lands inside the honest run regardless of whether the
    corruption pushes registers up or down."""
    rng = random.Random(4)
    honest = random_sketch(rng)
    for n, bad in ((3, 1), (5, 2), (7, 3), (8, 3)):
        for corrupt_value in (b"\xff", b"\x00"):
            replicas = [HllSketch(honest.registers) for _ in range(n - bad)]
            replicas += [
                HllSketch(corrupt_value * 256)
                for _ in range(bad)
            ]
            rng.shuffle(replicas)
            assert robust_combine(replicas) == honest


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


def test_fetch_ignores_sketches_outside_the_replica_set(small_world, monkeypatch):
    """The lookup passes nodes beyond the k nearest; their sketches must not
    reach the combiner, even the plain-union one."""
    from dhtvote.node import vote_key
    from dhtvote.routing import distance

    info_hash = small_world.documents[1]
    key = vote_key(info_hash)
    ranked = sorted(
        small_world.peers, key=lambda p: (distance(p.node.node_id, key), p.node.node_id)
    )
    outside = ranked[8]  # just outside the 8 replicas
    small_world.set_malicious(outside, "inflate-registers")
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
        assert outside.address in get_votes_to  # the lookup did ask it
        assert result.responders == 8
        assert abs(result.positive_count - 12) / 12 <= 0.2
        assert abs(result.negative_count - 4) / 4 <= 0.25
    finally:
        small_world.network.peers[outside.address] = outside.node
