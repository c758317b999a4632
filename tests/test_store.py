import random
import tracemalloc

import pytest

from dhtvote import store as store_module
from dhtvote.sketch import REGISTER_COUNT, HllSketch, register_of
from dhtvote.store import WINDOW_HOURS, Polarity, VoteStore

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
    ring = store._rings[KEY]
    held = {hour for hour, rank in zip(ring.hour, ring.rank) if rank}
    assert min(held) == 0 and max(held) == 23  # the first and the last hour are both read
    assert store.aggregate(KEY, now) == (exact[Polarity.POSITIVE], exact[Polarity.NEGATIVE])


def test_polarity_isolation():
    store = VoteStore()
    store.record(KEY, Polarity.POSITIVE, ip(1), now=0)
    store.record(KEY, Polarity.NEGATIVE, ip(2), now=0)
    positive, negative = store.aggregate(KEY, now=0)
    assert round(positive.estimate()) == 1
    assert round(negative.estimate()) == 1
    assert positive != negative


def test_write_drops_exactly_the_expired_keys():
    rng = random.Random(5)
    store = VoteStore()
    hours = sorted(rng.randrange(0, 30) for _ in range(50))
    keys = [rng.randbytes(20) for _ in hours]
    for n, (key, hour) in enumerate(zip(keys, hours)):
        store.record(key, Polarity.POSITIVE, ip(n), now=hour * HOUR)
    now = 40 * HOUR
    # rescan: a key is live while its latest write is under 24 h old
    live = [key for key, hour in zip(keys, hours) if 40 - hour < 24]
    before = {key: store.aggregate(key, now) for key in live}
    assert len(live) < len(store)
    store.record(KEY, Polarity.NEGATIVE, ip(99), now=now)
    assert len(store) == len(live) + 1
    assert all(key in store and store.aggregate(key, now) == before[key] for key in live)


def test_expired_key_written_again_holds_only_the_new_vote():
    store = VoteStore()
    store.record(KEY, Polarity.POSITIVE, ip(1), now=0)
    store.record(KEY, Polarity.POSITIVE, ip(2), now=5 * HOUR)
    store.record(KEY, Polarity.NEGATIVE, ip(3), now=30 * HOUR)
    only = VoteStore()
    only.record(KEY, Polarity.NEGATIVE, ip(3), now=30 * HOUR)
    assert store.aggregate(KEY, 30 * HOUR) == only.aggregate(KEY, 30 * HOUR)
    ring = store._rings[KEY]
    assert sum(map(bool, ring.rank)) == 1 and not ring.tails  # one pair, the new vote's


def test_second_write_in_an_hour_drops_nothing():
    store = VoteStore()
    stale, live = b"s" * 20, b"l" * 20
    store.record(live, Polarity.POSITIVE, ip(1), now=30 * HOUR)
    store.record(stale, Polarity.POSITIVE, ip(2), now=5 * HOUR)  # the clock stepped back
    store.record(live, Polarity.POSITIVE, ip(3), now=31 * HOUR)  # stale is now the front
    store.record(KEY, Polarity.POSITIVE, ip(4), now=31 * HOUR + 10)
    assert stale in store  # expired, but hour 31 was already swept
    store.record(KEY, Polarity.POSITIVE, ip(5), now=32 * HOUR)
    assert stale not in store and live in store


def test_clock_step_back_never_drops_a_live_ring():
    store = VoteStore()
    stale, live = b"s" * 20, b"l" * 20
    store.record(live, Polarity.POSITIVE, ip(1), now=30 * HOUR)
    store.record(live, Polarity.POSITIVE, ip(2), now=7 * HOUR)  # the clock stepped back
    store.record(stale, Polarity.POSITIVE, ip(3), now=6 * HOUR)
    store.record(KEY, Polarity.POSITIVE, ip(4), now=31 * HOUR)
    # live's latest write (hour 7) has left the window, its hour-30 block has not
    assert live in store
    assert not store.aggregate(live, 31 * HOUR)[0].is_empty()
    assert stale in store  # expired, but it waits behind the live ring
    assert store.aggregate(stale, 31 * HOUR)[0].is_empty()


def test_lru_eviction_at_capacity(monkeypatch):
    monkeypatch.setattr(store_module, "MAX_KEYS", 2)
    store = VoteStore()
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


def union_of_writes(writes, key, now_hour) -> tuple[HllSketch, HllSketch]:
    """Brute force: one sketch per polarity over key's writes in the window."""
    sketches = {Polarity.POSITIVE: HllSketch(), Polarity.NEGATIVE: HllSketch()}
    for polarity, voter, hour in writes.get(key, ()):
        if hour > now_hour - WINDOW_HOURS:
            sketches[polarity].add(voter)
    return sketches[Polarity.POSITIVE], sketches[Polarity.NEGATIVE]


@pytest.mark.parametrize(
    ("step_back", "seed"), [(0, 21), (40, 22), (200, 21)], ids=["0", "40", "200"]
)
def test_random_schedule_matches_a_union_of_the_writes_in_the_window(step_back, seed):
    """Reads come at or after the latest hour written so far; with a step_back,
    a third of the hours go back by up to that many hours, past the window."""
    rng = random.Random(seed)
    store = VoteStore()
    keys = [rng.randbytes(20) for _ in range(50)]
    voters = [rng.randbytes(4) for _ in range(400)]
    writes: dict[bytes, list] = {}
    start = latest = 1000
    for _ in range(72):
        if step_back and rng.random() < 1 / 3:
            hour = latest - rng.randrange(1, step_back + 1)
        else:
            hour = latest + rng.randrange(0, 3)
        for _ in range(rng.randrange(0, 120)):
            key, voter = rng.choice(keys), rng.choice(voters)
            polarity = rng.choice([Polarity.POSITIVE, Polarity.NEGATIVE])
            store.record(key, polarity, voter, hour * HOUR + rng.randrange(HOUR))
            writes.setdefault(key, []).append((polarity, voter, hour))
        latest = max(latest, hour)
        for now_hour in (latest, latest + rng.randrange(1, 30)):
            for key in keys:
                assert store.aggregate(key, now_hour * HOUR + 1) == union_of_writes(
                    writes, key, now_hour
                )
    assert latest >= start + 48


def test_hourly_reannounces_leave_one_pair_per_written_register():
    rng = random.Random(3)
    voters = [(rng.randbytes(4), rng.choice([Polarity.POSITIVE, Polarity.NEGATIVE]))
              for _ in range(50)]
    store = VoteStore()
    for hour in range(48):
        rng.shuffle(voters)
        for voter, polarity in voters:
            store.record(KEY, polarity, voter, hour * HOUR + 7)
    written = {
        register_of(voter)[0] + (REGISTER_COUNT if polarity is Polarity.NEGATIVE else 0)
        for voter, polarity in voters
    }
    ring = store._rings[KEY]
    assert {index for index, rank in enumerate(ring.rank) if rank} == written
    assert ring.tails == {}
    assert {ring.hour[index] for index in written} == {47}


def test_write_after_the_clock_steps_back_keeps_the_later_vote():
    """Hours 30 and 6 are 24 apart: a ring slot per hour mod 24 would let the
    hour-6 write reset the hour-30 votes while they are still in the window."""
    store = VoteStore()
    store.record(KEY, Polarity.POSITIVE, ip(1), now=30 * HOUR)
    store.record(KEY, Polarity.POSITIVE, ip(2), now=6 * HOUR)  # the clock stepped back
    expected = HllSketch()
    expected.add(ip(1))
    assert store.aggregate(KEY, 30 * HOUR)[0] == expected
    expected.add(ip(2))
    assert store.aggregate(KEY, 6 * HOUR)[0] == expected


def test_write_weeks_before_a_key_joins_its_window():
    store = VoteStore()
    store.record(KEY, Polarity.POSITIVE, ip(1), now=1000 * HOUR)
    store.record(KEY, Polarity.NEGATIVE, ip(2), now=500 * HOUR)  # the clock stepped back 3 weeks
    writes = {KEY: [(Polarity.POSITIVE, ip(1), 1000), (Polarity.NEGATIVE, ip(2), 500)]}
    for hour in (500, 1000):
        assert store.aggregate(KEY, hour * HOUR) == union_of_writes(writes, KEY, hour)


def test_window_holds_over_years_of_writes():
    """A key written every few hours for years reads as the union of its writes."""
    rng = random.Random(8)
    voters = [ip(n) for n in range(20)]
    store = VoteStore()
    writes: dict[bytes, list] = {}
    hour = 0
    while hour < 80_000:  # over 9 years, a write every 1 to 22 hours
        polarity, voter = rng.choice([Polarity.POSITIVE, Polarity.NEGATIVE]), rng.choice(voters)
        store.record(KEY, polarity, voter, hour * HOUR)
        writes.setdefault(KEY, []).append((polarity, voter, hour))
        if rng.random() < 0.02:
            assert store.aggregate(KEY, hour * HOUR) == union_of_writes(writes, KEY, hour)
        hour += rng.randrange(1, 23)
    assert store.aggregate(KEY, hour * HOUR) == union_of_writes(writes, KEY, hour)


def test_a_key_holds_at_most_3200_bytes():
    """20 keys, each written by the same 50 voters every hour for 30 hours.
    Only blocks allocated in store.py count, so other threads add nothing."""
    rng = random.Random(4)
    keys = [rng.randbytes(20) for _ in range(20)]
    voters = [(rng.randbytes(4), rng.choice(list(Polarity))) for _ in range(50)]
    store = VoteStore()
    tracemalloc.start()
    try:
        for hour in range(30):
            for key in keys:
                for voter, polarity in voters:
                    store.record(key, polarity, voter, hour * HOUR + 7)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, store_module.__file__)])
    assert sum(stat.size for stat in held.statistics("filename")) / len(keys) <= 3200
