import math
import random
from hashlib import sha1

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtvote.sketch import (
    MAX_RANK,
    REGISTER_COUNT,
    HllSketch,
    nonzero_indices,
)


def reference_position(item: bytes) -> tuple[int, int]:
    """Independent index/rank computation straight from the digest bits."""
    digest = sha1(item).digest()
    index = digest[0]
    bits = "".join(f"{b:08b}" for b in digest[1:5])
    rank = 33 if "1" not in bits else bits.index("1") + 1
    return index, rank


def test_new_sketch_is_all_zero():
    sketch = HllSketch()
    assert bytes(sketch.registers) == bytes(REGISTER_COUNT)
    assert sketch.estimate() == 0.0


def test_merge_of_empties_is_empty():
    assert bytes(HllSketch().merge(HllSketch()).registers) == bytes(256)


def test_add_rejects_empty_item():
    with pytest.raises(ValueError):
        HllSketch().add(b"")


def test_add_localhost_matches_reference_sha1():
    item = bytes([127, 0, 0, 1])
    sketch = HllSketch()
    sketch.add(item)
    index, rank = reference_position(item)
    expected = bytearray(REGISTER_COUNT)
    expected[index] = rank
    assert bytes(sketch.registers) == bytes(expected)


def test_add_is_idempotent():
    sketch = HllSketch()
    sketch.add(b"\x01\x02\x03\x04")
    once = bytes(sketch.registers)
    sketch.add(b"\x01\x02\x03\x04")
    assert bytes(sketch.registers) == once


def test_single_register_linear_count():
    registers = bytearray(REGISTER_COUNT)
    registers[17] = 1
    estimate = HllSketch(registers).estimate()
    assert estimate == pytest.approx(256 * math.log(256 / 255))
    assert estimate == pytest.approx(1.002, abs=1e-3)


def test_alpha_constant_value():
    # forced by the estimator at a point where no correction applies
    registers = bytes([15] * REGISTER_COUNT)
    estimate = HllSketch(registers).estimate()
    alpha = estimate / (256 * 256 / (256 * 2.0**-15))
    assert alpha == pytest.approx(0.71827, abs=1e-4)
    # above the linear-counting range the raw estimate is the answer
    raw = alpha * 256 * 2.0**20
    estimate = HllSketch(bytes([20] * REGISTER_COUNT)).estimate()
    assert estimate == pytest.approx(raw)
    assert estimate == pytest.approx(192_809_831.10, abs=0.01)


def test_estimate_never_falls_as_registers_grow():
    """x registers at 25 and the rest at 24, for x = 0 ... 256: raw estimates
    from 3.1e9 to 6.2e9, around 2^32, and the estimate only rises with x."""
    estimates = [HllSketch(bytes([25] * x + [24] * (REGISTER_COUNT - x))).estimate()
                 for x in range(REGISTER_COUNT + 1)]
    assert estimates == sorted(estimates)


def test_estimate_within_20pct_of_10k():
    rng = random.Random(42)
    hits = 0
    trials = 100
    for _ in range(trials):
        sketch = HllSketch()
        seen = set()
        while len(seen) < 10_000:
            seen.add(rng.randbytes(4))
        for item in seen:
            sketch.add(item)
        if abs(sketch.estimate() - 10_000) / 10_000 <= 0.20:
            hits += 1
    assert hits >= trials - 1


def test_merge_identity_and_commutativity():
    rng = random.Random(7)
    a, b = HllSketch(), HllSketch()
    for _ in range(500):
        a.add(rng.randbytes(4))
        b.add(rng.randbytes(4))
    assert a.merge(HllSketch()) == a
    assert a.merge(b) == b.merge(a)


def test_merge_of_disjoint_sets_estimates_union():
    rng = random.Random(9)
    items = set()
    while len(items) < 4000:
        items.add(rng.randbytes(4))
    items = sorted(items)
    a, b = HllSketch(), HllSketch()
    for item in items[:2000]:
        a.add(item)
    for item in items[2000:]:
        b.add(item)
    union = a.merge(b).estimate()
    assert abs(union - 4000) / 4000 < 0.20


def test_serialize_round_trip_and_errors():
    rng = random.Random(3)
    sketch = HllSketch()
    for _ in range(100):
        sketch.add(rng.randbytes(4))
    assert HllSketch(bytes(sketch.registers)) == sketch
    with pytest.raises(ValueError, match="expected 256 registers, got 255"):
        HllSketch(b"\x00" * 255)
    # registers above MAX_RANK are admitted (the client's replica path)
    lenient = HllSketch(b"\xff" * 256)
    assert lenient.estimate() > 1e6


items_strategy = st.lists(st.binary(min_size=1, max_size=8), max_size=60)


@settings(max_examples=60, deadline=None)
@given(items_strategy, items_strategy, items_strategy)
def test_merge_algebra(xs, ys, zs):
    def build(items):
        s = HllSketch()
        for item in items:
            s.add(item)
        return s

    a, b, c = build(xs), build(ys), build(zs)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    assert a.merge(a) == a
    assert a.merge(b) == b.merge(a)
    assert a.merge(HllSketch()) == a
    assert HllSketch.union([a, b, c]) == a.merge(b).merge(c)
    assert HllSketch.union([a]) == a
    assert HllSketch.union([]) == HllSketch()


@settings(max_examples=60, deadline=None)
@given(items_strategy, st.randoms(use_true_random=False))
def test_insertion_order_independence(items, rnd):
    forward = HllSketch()
    for item in items:
        forward.add(item)
    shuffled = list(items)
    rnd.shuffle(shuffled)
    scrambled = HllSketch()
    for item in shuffled:
        scrambled.add(item)
    assert forward == scrambled


@settings(max_examples=60, deadline=None)
@given(items_strategy)
def test_registers_grow_monotonically(items):
    sketch = HllSketch()
    previous = bytes(sketch.registers)
    for item in items:
        sketch.add(item)
        current = bytes(sketch.registers)
        assert all(c >= p for c, p in zip(current, previous))
        assert all(c <= MAX_RANK for c in current)
        previous = current


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=REGISTER_COUNT, max_size=REGISTER_COUNT))
def test_nonzero_indices_lists_the_nonzero_registers_in_order(registers):
    expected = bytes(index for index, rank in enumerate(registers) if rank)
    assert nonzero_indices(registers) == expected
    assert nonzero_indices(bytearray(registers)) == expected
    assert nonzero_indices(b"\x05" + registers[1:])[:1] == b"\x00"  # register 0 is kept
