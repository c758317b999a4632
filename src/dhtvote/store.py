"""Per-node storage of replicated votes, as Sliding HyperLogLog (Chabchoub &
Hébrail 2010): per vote key, polarity and register, the (hour, rank) writes
that no later write has matched or beaten, so hours go up and ranks go down.
A read takes each register's first pair in the trailing 24 hours, as a union
of hourly sketches would. Keys are kept in write order, and the first write of
each hour drops the keys at the front whose latest write has left the window.
"""

from __future__ import annotations

import enum
from array import array
from collections import OrderedDict

from .routing import ID_LENGTH
from .sketch import REGISTER_COUNT, HllSketch, register_of

WINDOW_HOURS = 24
MAX_KEYS = 65_536  # past this many keys, a new key evicts the least recently written
EMPTY = 0xFF  # the age of a register that holds no pair
_SPAN = 0x7F  # a base sits this many hours before the write that sets it


class Polarity(enum.Enum):
    POSITIVE = 1
    NEGATIVE = -1


_NEGATIVE = Polarity.NEGATIVE  # a global is read faster than an Enum class attribute


class VoteRing:
    """One key's window; registers 0-255 are positive, 256-511 negative.

    A register's oldest pair is in ``rank`` and, as hour less ``base``, in
    ``age``; its later, lower pairs (rare) are in ``tails``. A write in a new
    latest hour drops the pairs that left the window, so a read mostly copies
    ``rank``. A write over 5 days before ``base`` restarts the window. Both
    arrays are 512 bytes, small enough for Python's own allocator.
    """

    __slots__ = ("age", "base", "low", "newest", "rank", "tails")

    def __init__(self, hour: int) -> None:
        self.age = array("B", [EMPTY]) * (2 * REGISTER_COUNT)
        self.rank = array("B", bytes(2 * REGISTER_COUNT))
        self.tails: dict[int, list[tuple[int, int]]] = {}
        self.newest = hour  # the latest hour written
        self.base, self.low = hour - _SPAN, _SPAN  # low: at most min(age) and newest's age

    def add(self, index: int, rank: int, hour: int) -> None:
        """Keep (hour, rank) in register index, dropping the pairs it beats."""
        if hour > self.newest:
            self.newest = hour
            self._expire(hour - WINDOW_HOURS - self.base)
            if hour - self.base >= EMPTY:
                self._rebase(hour - _SPAN)
        age = hour - self.base
        if hour < self.newest or index in self.tails:  # the clock stepped back, or a rare tail
            return self._insert(index, rank, age)
        # no pair is newer than this write, so it beats the head unless ranked lower
        if rank >= self.rank[index]:
            self.age[index], self.rank[index] = age, rank
        elif age > self.age[index]:
            self.tails[index] = [(age, rank)]

    def _insert(self, index: int, rank: int, age: int) -> None:
        if age < 0:  # the clock stepped back over _SPAN hours: start afresh
            self.__init__(age + self.base)
            age = _SPAN
        self.low = min(self.low, age)
        head = self.rank[index]
        pairs = [(self.age[index], head), *self.tails.pop(index, ())] if head else []
        if all(a < age or r < rank for a, r in pairs):  # no pair this hour or later matches it
            pairs = sorted([p for p in pairs if p[0] > age or p[1] > rank] + [(age, rank)])
        self._put(index, pairs)

    def _put(self, index: int, pairs: list[tuple[int, int]]) -> None:
        """Make pairs, oldest first, the register's whole list."""
        (self.age[index], self.rank[index]), *tail = pairs or [(EMPTY, 0)]
        if tail:
            self.tails[index] = tail

    def _heads_after(self, cutoff: int) -> bool:
        """Whether every register's oldest pair has an age above cutoff."""
        if self.low <= cutoff:
            self.low = min(min(self.age), self.newest - self.base)
        return self.low > cutoff

    def _expire(self, cutoff: int) -> None:
        """Drop the pairs whose age is cutoff or less."""
        if not self._heads_after(cutoff):
            for index, age in enumerate(self.age):
                if age <= cutoff and self.rank[index]:
                    self._put(index, [p for p in self.tails.pop(index, ()) if p[0] > cutoff])

    def _rebase(self, base: int) -> None:
        shift = self.base - base
        self.age = array("B", (a + shift if r else EMPTY for a, r in zip(self.age, self.rank)))
        self.tails = {i: [(a + shift, r) for a, r in t] for i, t in self.tails.items()}
        self.base, self.low = base, 0

    def in_window(self, now_hour: int) -> tuple[HllSketch, HllSketch]:
        """The positive and negative sketches of the writes in the window."""
        cutoff = now_hour - WINDOW_HOURS - self.base
        registers = self.rank
        if now_hour - WINDOW_HOURS >= self.newest:  # every write has left the window
            registers = bytes(2 * REGISTER_COUNT)
        elif not self._heads_after(cutoff):
            registers = bytearray(registers)
            for index, age in enumerate(self.age):
                if age <= cutoff and registers[index]:
                    live = (r for a, r in self.tails.get(index, ()) if a > cutoff)
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
        if len(key) != ID_LENGTH:
            raise ValueError(f"vote key must be {ID_LENGTH} bytes, got {len(key)}")
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
        ring.add(index + REGISTER_COUNT if polarity is _NEGATIVE else index, rank, hour)

    def aggregate(self, key: bytes, now: float) -> tuple[HllSketch, HllSketch]:
        """The in-window sketches of key; zeros for an absent key."""
        if len(key) != ID_LENGTH:
            raise ValueError(f"vote key must be {ID_LENGTH} bytes, got {len(key)}")
        ring = self._rings.get(key)
        return ring.in_window(int(now) // 3600) if ring is not None else (HllSketch(), HllSketch())
