"""Per-node storage of replicated votes.

A vote table maps each 20-byte vote key to a 24-slot ring of hourly blocks.
Each block pairs a positive and a negative sketch; the slot for hour h is
h mod 24, and writing into a slot whose resident block belongs to an older
hour resets it first. Reading is one ``HllSketch.union`` per polarity over
the blocks of the trailing 24 hours, so votes that stop being re-announced
age out on their own.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field

from .routing import ID_LENGTH
from .sketch import HllSketch

WINDOW_HOURS = 24  # also the ring's slot count: one slot per hour of the window


class Polarity(enum.Enum):
    POSITIVE = 1
    NEGATIVE = -1


@dataclass
class HourBlock:
    hour_epoch: int
    positive: HllSketch = field(default_factory=HllSketch)
    negative: HllSketch = field(default_factory=HllSketch)


class VoteRing:
    """Fixed ring of 24 optional hour blocks, slot = hour_epoch mod 24."""

    __slots__ = ("blocks",)

    def __init__(self) -> None:
        self.blocks: list[HourBlock | None] = [None] * WINDOW_HOURS

    def block_for(self, hour_epoch: int) -> HourBlock:
        """Return the block for this hour, resetting a stale resident."""
        slot = hour_epoch % WINDOW_HOURS
        block = self.blocks[slot]
        if block is None or block.hour_epoch != hour_epoch:
            # A slot revisited at the same index is necessarily >= 24 h old.
            block = HourBlock(hour_epoch)
            self.blocks[slot] = block
        return block

    def in_window(self, now_hour: int) -> list[HourBlock]:
        cutoff = now_hour - WINDOW_HOURS
        return [b for b in self.blocks if b is not None and b.hour_epoch > cutoff]


def _check_key(key: bytes) -> None:
    if len(key) != ID_LENGTH:
        raise ValueError(f"vote key must be {ID_LENGTH} bytes, got {len(key)}")


class VoteStore:
    """Bounded map from vote key to ring; least-recently-written eviction."""

    def __init__(self, max_keys: int = 65_536):
        if max_keys < 1:
            raise ValueError("max_keys must be at least 1")
        self.max_keys = max_keys
        self._rings: OrderedDict[bytes, VoteRing] = OrderedDict()

    def __len__(self) -> int:
        return len(self._rings)

    def __contains__(self, key: bytes) -> bool:
        return key in self._rings

    def record(self, key: bytes, polarity: Polarity, voter_ip: bytes, now: float) -> None:
        """Add one vote from voter_ip into the current hour's block for key."""
        _check_key(key)
        ring = self._rings.get(key)
        if ring is None:
            while len(self._rings) >= self.max_keys:
                self._rings.popitem(last=False)
            ring = self._rings[key] = VoteRing()
        else:
            self._rings.move_to_end(key)  # most recently written at the tail
        block = ring.block_for(int(now) // 3600)
        sketch = block.positive if polarity is Polarity.POSITIVE else block.negative
        sketch.add(voter_ip)

    def aggregate(self, key: bytes, now: float) -> tuple[HllSketch, HllSketch]:
        """Union of the in-window blocks; zeros for an absent key."""
        _check_key(key)
        ring = self._rings.get(key)
        blocks = ring.in_window(int(now) // 3600) if ring is not None else []
        return (
            HllSketch.union(b.positive for b in blocks),
            HllSketch.union(b.negative for b in blocks),
        )

    def expire(self, now: float) -> int:
        """Drop rings with no in-window block; returns how many were removed."""
        now_hour = int(now) // 3600
        dead = [k for k, ring in self._rings.items() if not ring.in_window(now_hour)]
        for key in dead:
            del self._rings[key]
        return len(dead)
