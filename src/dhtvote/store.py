"""Per-node storage of replicated votes, as Sliding HyperLogLog (Chabchoub &
Hébrail 2010): per vote key, polarity and register, the (hour, rank) writes
that no later write has matched or beaten, so hours go up and ranks go down.
A read takes each register's first pair in the trailing 24 hours, as a union
of hourly sketches would. Hours are kept as they are, so whatever steps the
clock takes, a read at or after the latest hour written equals the union of
the writes in its window. Keys are kept in write order, and the first write of
each hour drops the keys at the front whose latest write has left the window.
"""

from __future__ import annotations

import enum
from array import array
from collections import OrderedDict

from .sketch import REGISTER_COUNT, HllSketch, register_of

WINDOW_HOURS = 24
MAX_KEYS = 65_536  # past this many keys, a new key evicts the least recently written
_NEVER = 2**31 - 1  # the hour of a register that holds no pair, above any hour written


class Polarity(enum.Enum):
    POSITIVE = 1
    NEGATIVE = -1


class VoteRing:
    """One key's window; registers 0-255 are positive, 256-511 negative.

    A register's oldest pair is in ``hour`` and ``rank``; its later, lower
    pairs (rare) are in ``tails``. A write in a new latest hour drops the
    pairs that left the window, so a read mostly copies ``rank``. A write
    from an earlier hour, however far back, joins its register's pairs like
    any other: nothing restarts the window.
    """

    __slots__ = ("hour", "low", "newest", "rank", "tails")

    def __init__(self, hour: int) -> None:
        self.hour = array("i", [_NEVER]) * (2 * REGISTER_COUNT)
        self.rank = array("B", bytes(2 * REGISTER_COUNT))
        self.tails: dict[int, list[tuple[int, int]]] = {}
        self.newest = self.low = hour  # low: at most min(self.hour) and newest

    def add(self, index: int, rank: int, hour: int) -> None:
        """Keep (hour, rank) in register index, dropping the pairs it beats."""
        if hour > self.newest:
            self.newest = hour
            self._expire(hour - WINDOW_HOURS)
        if hour < self.newest or index in self.tails:  # the clock stepped back, or a rare tail
            return self._insert(index, rank, hour)
        # no pair is newer than this write, so it beats the head unless ranked lower
        if rank >= self.rank[index]:
            self.hour[index], self.rank[index] = hour, rank
        elif hour > self.hour[index]:
            self.tails[index] = [(hour, rank)]

    def _insert(self, index: int, rank: int, hour: int) -> None:
        self.low = min(self.low, hour)
        head = self.rank[index]
        pairs = [(self.hour[index], head), *self.tails.pop(index, ())] if head else []
        if all(h < hour or r < rank for h, r in pairs):  # no pair this hour or later matches it
            pairs = sorted([p for p in pairs if p[0] > hour or p[1] > rank] + [(hour, rank)])
        self._put(index, pairs)

    def _put(self, index: int, pairs: list[tuple[int, int]]) -> None:
        """Make pairs, oldest first, the register's whole list."""
        (self.hour[index], self.rank[index]), *tail = pairs or [(_NEVER, 0)]
        if tail:
            self.tails[index] = tail

    def _heads_after(self, cutoff: int) -> bool:
        """Whether every register's oldest pair is from an hour after cutoff."""
        if self.low <= cutoff:
            self.low = min(min(self.hour), self.newest)
        return self.low > cutoff

    def _expire(self, cutoff: int) -> None:
        """Drop the pairs from cutoff or earlier."""
        if not self._heads_after(cutoff):
            for index, hour in enumerate(self.hour):
                if hour <= cutoff:
                    self._put(index, [p for p in self.tails.pop(index, ()) if p[0] > cutoff])

    def in_window(self, now_hour: int) -> tuple[HllSketch, HllSketch]:
        """The positive and negative sketches of the writes in the window."""
        cutoff = now_hour - WINDOW_HOURS
        registers = self.rank
        if cutoff >= self.newest:  # every write has left the window
            registers = bytes(2 * REGISTER_COUNT)
        elif not self._heads_after(cutoff):
            registers = bytearray(registers)
            for index, hour in enumerate(self.hour):
                if hour <= cutoff:
                    live = (r for h, r in self.tails.get(index, ()) if h > cutoff)
                    registers[index] = next(live, 0)
        view = memoryview(registers)
        return HllSketch(view[:REGISTER_COUNT]), HllSketch(view[REGISTER_COUNT:])


class VoteStore:
    """Bounded map from vote key to ring; least-recently-written eviction."""

    def __init__(self) -> None:
        self._rings: OrderedDict[bytes, VoteRing] = OrderedDict()
        self._swept_hour: int | None = None

    def __len__(self) -> int:
        return len(self._rings)

    def __contains__(self, key: bytes) -> bool:
        return key in self._rings

    def record(self, key: bytes, polarity: Polarity, voter_ip: bytes, now: float) -> None:
        """Add one vote from voter_ip to key's window at the current hour."""
        hour = int(now) // 3600
        rings = self._rings
        if hour != self._swept_hour:  # a ring only expires as the hour turns
            self._swept_hour = hour
            while rings and next(iter(rings.values())).newest <= hour - WINDOW_HOURS:
                rings.popitem(last=False)
        ring = rings.get(key)
        if ring is None:
            while len(rings) >= MAX_KEYS:
                rings.popitem(last=False)
            ring = rings[key] = VoteRing(hour)
        else:
            rings.move_to_end(key)  # most recently written at the tail
        index, rank = register_of(voter_ip)
        ring.add(index + REGISTER_COUNT if polarity is Polarity.NEGATIVE else index, rank, hour)

    def aggregate(self, key: bytes, now: float) -> tuple[HllSketch, HllSketch]:
        """The in-window sketches of key; zeros for an absent key."""
        ring = self._rings.get(key)
        return ring.in_window(int(now) // 3600) if ring is not None else (HllSketch(), HllSketch())
