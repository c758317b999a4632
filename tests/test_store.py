import random

import pytest

from dhtvote.sketch import HllSketch
from dhtvote.store import Polarity, VoteStore

KEY = b"k" * 20
HOUR = 3600


def ip(n: int) -> bytes:
    return n.to_bytes(4, "big")


def test_single_positive_vote():
    store = VoteStore()
    store.record(KEY, Polarity.POSITIVE, ip(1), now=50)
    positive, negative = store.aggregate(KEY, now=50)
    assert round(positive.estimate()) == 1
    assert negative.estimate() == 0


def test_same_ip_five_times_counts_once():
    store = VoteStore()
    for _ in range(5):
        store.record(KEY, Polarity.POSITIVE, ip(1), now=100)
    once = VoteStore()
    once.record(KEY, Polarity.POSITIVE, ip(1), now=100)
    assert store.aggregate(KEY, 100)[0] == once.aggregate(KEY, 100)[0]


def test_slot_reset_after_24_hours():
    store = VoteStore()
    store.record(KEY, Polarity.POSITIVE, ip(1), now=0)
    # same slot, 24h later: old block must be reset before the new write
    store.record(KEY, Polarity.NEGATIVE, ip(2), now=24 * HOUR)
    positive, negative = store.aggregate(KEY, now=24 * HOUR)
    assert positive.estimate() == 0
    assert round(negative.estimate()) == 1


def test_aggregate_absent_key_is_zero():
    positive, negative = VoteStore().aggregate(KEY, now=0)
    assert positive.is_empty() and negative.is_empty()


def test_aggregate_windows_out_old_blocks():
    store = VoteStore()
    store.record(KEY, Polarity.POSITIVE, ip(1), now=0)
    assert not store.aggregate(KEY, now=23 * HOUR)[0].is_empty()
    assert store.aggregate(KEY, now=24 * HOUR)[0].is_empty()
    assert store.aggregate(KEY, now=30 * HOUR)[0].is_empty()


def test_aggregate_unions_across_hours():
    store = VoteStore()
    voters = [ip(n) for n in range(1, 31)]
    for i, voter in enumerate(voters):
        store.record(KEY, Polarity.POSITIVE, voter, now=(i % 3) * HOUR)
        # re-announce in a later hour must not double count
        store.record(KEY, Polarity.POSITIVE, voter, now=(i % 3 + 1) * HOUR)
    positive, _ = store.aggregate(KEY, now=4 * HOUR)
    exact = HllSketch()
    for voter in voters:
        exact.add(voter)
    assert positive == exact
    assert abs(positive.estimate() - 30) / 30 < 0.2


def test_aggregate_of_all_24_live_blocks_is_exact():
    store = VoteStore()
    exact = {Polarity.POSITIVE: HllSketch(), Polarity.NEGATIVE: HllSketch()}
    for hour in range(24):
        for n in range(5):
            polarity = Polarity.POSITIVE if n < 3 else Polarity.NEGATIVE
            store.record(KEY, polarity, ip(hour * 5 + n), now=hour * HOUR + n)
            exact[polarity].add(ip(hour * 5 + n))
    now = 23 * HOUR + 10
    assert len(store._rings[KEY].in_window(now // HOUR)) == 24
    assert store.aggregate(KEY, now) == (exact[Polarity.POSITIVE], exact[Polarity.NEGATIVE])


def test_polarity_isolation():
    store = VoteStore()
    store.record(KEY, Polarity.POSITIVE, ip(1), now=0)
    store.record(KEY, Polarity.NEGATIVE, ip(2), now=0)
    positive, negative = store.aggregate(KEY, now=0)
    assert round(positive.estimate()) == 1
    assert round(negative.estimate()) == 1
    assert positive != negative


def test_malformed_key_rejected():
    store = VoteStore()
    with pytest.raises(ValueError):
        store.record(b"short", Polarity.POSITIVE, ip(1), now=0)
    with pytest.raises(ValueError):
        store.aggregate(b"x" * 21, now=0)


def test_expire_counts_and_removes():
    store = VoteStore()
    assert store.expire(now=0) == 0
    store.record(KEY, Polarity.POSITIVE, ip(1), now=0)
    other = b"o" * 20
    store.record(other, Polarity.POSITIVE, ip(2), now=20 * HOUR)
    assert store.expire(now=25 * HOUR) == 1
    assert KEY not in store
    assert other in store
    assert store.aggregate(KEY, now=25 * HOUR)[0].is_empty()


def test_expire_mixed_table_matches_rescan():
    rng = random.Random(5)
    store = VoteStore()
    stamps = {}
    for n in range(50):
        key = rng.randbytes(20)
        hour = rng.randrange(0, 40)
        store.record(key, Polarity.POSITIVE, ip(n), now=hour * HOUR)
        stamps[key] = hour
    now = 40 * HOUR
    expected_dead = sum(1 for h in stamps.values() if 40 - h >= 24)
    assert store.expire(now) == expected_dead
    assert len(store) == 50 - expected_dead


def test_lru_eviction_at_capacity():
    store = VoteStore(max_keys=2)
    first, second, third = b"a" * 20, b"b" * 20, b"c" * 20
    store.record(first, Polarity.POSITIVE, ip(1), now=0)
    store.record(second, Polarity.POSITIVE, ip(2), now=1)
    store.record(first, Polarity.POSITIVE, ip(3), now=2)  # refresh first
    store.record(third, Polarity.POSITIVE, ip(4), now=3)
    assert second not in store
    assert first in store and third in store


def test_window_boundary_per_hour_difference():
    # present at a 23-hour gap, absent at 24
    for gap_hours, expect_present in ((23, True), (24, False)):
        store = VoteStore()
        store.record(KEY, Polarity.POSITIVE, ip(9), now=7 * HOUR + 12)
        positive, _ = store.aggregate(KEY, now=(7 + gap_hours) * HOUR)
        assert (not positive.is_empty()) == expect_present


def test_aggregate_matches_event_log_rebuild():
    """Brute-force oracle: replay the event log into per-hour exact sketches."""
    rng = random.Random(11)
    store = VoteStore()
    events = []
    for _ in range(300):
        voter = ip(rng.randrange(1, 40))
        polarity = rng.choice([Polarity.POSITIVE, Polarity.NEGATIVE])
        now = rng.randrange(0, 50 * HOUR)
        events.append((now, polarity, voter))
    for now, polarity, voter in sorted(events):
        store.record(KEY, polarity, voter, now)
    probe = 50 * HOUR - 1
    # oracle: keep only events whose hour block would have survived every
    # later same-slot reset, then window-filter
    surviving = {}
    for now, polarity, voter in sorted(events):
        hour = now // HOUR
        surviving.setdefault(hour % 24, {})
        slot = surviving[hour % 24]
        if slot.get("hour") != hour:
            slot.clear()
            slot["hour"] = hour
            slot["votes"] = []
        slot["votes"].append((polarity, voter))
    expect_pos, expect_neg = HllSketch(), HllSketch()
    for slot in surviving.values():
        if probe // HOUR - slot["hour"] < 24:
            for polarity, voter in slot["votes"]:
                target = expect_pos if polarity is Polarity.POSITIVE else expect_neg
                target.add(voter)
    positive, negative = store.aggregate(KEY, probe)
    assert positive == expect_pos
    assert negative == expect_neg


def test_max_keys_must_be_positive():
    with pytest.raises(ValueError):
        VoteStore(max_keys=0)
