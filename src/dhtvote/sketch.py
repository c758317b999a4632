"""HyperLogLog distinct counter used for the positive and negative vote tallies.

One sketch counts distinct voter IPs for one polarity. The layout is fixed
network-wide: 256 one-byte registers (precision 8), items hashed with SHA1.
Index = first digest byte; rank = leading zeros of the next 32 bits, plus one.
Every node must produce identical registers for identical voter sets or
replica sketches would not union correctly, so none of this is configurable.
Estimates are linear counting below 640, else raw: the hash has 40 bits and there
are at most 2^32 IPv4 voters, so there is no large-range correction.

A sketch's 256 registers, in index order, are its dense wire form; on the
get_votes wire a sketch with fewer than 128 nonzero registers goes sparse
(``krpc.pack_sketch``).
Two sketches take at most 512 bytes either way; with them, ``NodeConfig``'s
bound on k keeps the fullest get_votes response inside ``krpc.MAX_DATAGRAM``.
"""

from __future__ import annotations

import math
import struct
from hashlib import sha1
from typing import Iterable

PRECISION_BITS = 8
REGISTER_COUNT = 1 << PRECISION_BITS  # 256
MAX_RANK = 33  # 32 hashed bits, all zero -> rank 33

_ALPHA = 0.7213 / (1 + 1.079 / REGISTER_COUNT)
# 2^-r for any byte value; wire-lenient sketches may carry registers above 33.
_INV_POW2 = tuple(2.0 ** -r for r in range(256))
_INDEX_AND_BITS = struct.Struct(">BI").unpack_from  # digest byte 0, then bytes 1-4
_NONZERO_TO_FF = b"\0" + b"\xff" * 255  # translate table: any nonzero byte -> 0xff
_INDICES = int.from_bytes(bytes(range(REGISTER_COUNT)), "big")  # byte i holds i


def register_of(item: bytes) -> tuple[int, int]:
    """The (index, rank) that one item sets; every sketch and store hashes here."""
    if not item:
        raise ValueError("cannot add an empty item")
    index, bits = _INDEX_AND_BITS(sha1(item).digest())
    return index, MAX_RANK - bits.bit_length()  # leading zeros of the 32 bits, plus 1


def nonzero_indices(registers: bytes | bytearray) -> bytes:
    """The indices of the nonzero bytes of 256 register bytes, ascending.

    C-level work only: the nonzero bytes become an 0xff mask, the mask picks
    their indices out of ``_INDICES``, and the zeros left are deleted. That
    deletes index 0 as well, so register 0 is checked on its own.
    """
    mask = int.from_bytes(registers.translate(_NONZERO_TO_FF), "big")
    indices = (mask & _INDICES).to_bytes(REGISTER_COUNT, "big").translate(None, b"\0")
    return b"\0" + indices if registers[0] else indices


class HllSketch:
    """Mergeable distinct-count sketch over byte-string items.

    Value semantics: ``union`` and ``merge`` return a new sketch, ``add``
    mutates in place and only ever grows registers.
    """

    __slots__ = ("_registers",)

    def __init__(self, registers: bytearray | bytes | None = None):
        if registers is None:
            self._registers = bytearray(REGISTER_COUNT)
        else:
            if len(registers) != REGISTER_COUNT:
                raise ValueError(f"expected {REGISTER_COUNT} registers, got {len(registers)}")
            self._registers = bytearray(registers)

    @property
    def registers(self) -> bytearray:
        """The 256 registers in index order; read-only, so only __init__ checks the length."""
        return self._registers

    def add(self, item: bytes) -> None:
        """Record one item (a voter's 4-byte IPv4 address, in this protocol)."""
        index, rank = register_of(item)
        if rank > self._registers[index]:
            self._registers[index] = rank

    def estimate(self) -> float:
        """Linear counting below 640, else raw; 40 hashed bits need no large-range correction."""
        m = REGISTER_COUNT
        inv = _INV_POW2
        harmonic = 0.0
        for r in self._registers:
            harmonic += inv[r]
        raw = _ALPHA * m * m / harmonic
        zeros = self._registers.count(0)
        if raw <= 2.5 * m and zeros > 0:
            return m * math.log(m / zeros)
        return raw

    @classmethod
    def union(cls, sketches: Iterable["HllSketch"]) -> "HllSketch":
        """Union of any number of sketches: one per-register max over all.

        No sketches give the empty sketch, one gives a copy of it.
        """
        registers = [s._registers for s in sketches]
        if len(registers) < 2:
            return cls(registers[0] if registers else None)
        return cls(bytes(map(max, *registers)))

    def merge(self, other: "HllSketch") -> "HllSketch":
        """Union of two sketches."""
        return HllSketch.union((self, other))

    def is_empty(self) -> bool:
        return self._registers.count(0) == REGISTER_COUNT

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HllSketch):
            return NotImplemented
        return self._registers == other._registers

    def __repr__(self) -> str:
        return f"HllSketch(estimate~{self.estimate():.1f})"
