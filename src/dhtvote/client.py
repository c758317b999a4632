"""Vote retrieval: look up the replica set, then combine with spam filtering.

The lookup itself queries with get_votes, so the k closest responders have
returned their sketches by the time it ends; sketches of contacts the
lookup passed on the way are ignored.

A single replica returning an inflated sketch would dominate a plain
union (``HllSketch.union``, the per-register max), so with three or more
replicas the combiner takes the per-register lower median instead. Up to
floor((n-1)/2) corrupt replicas then cannot move the result away from the
honest value when the honest replicas agree. The trade-off: a replica
that is legitimately ahead of its peers gets partially discounted until
re-announces converge them again.

Replica sketches are parsed leniently: ``krpc.response_sketches`` rejects a
malformed wire form (a wrong length, or a sparse form that repeats an index
or holds a zero rank), and registers above the maximum rank go on to the
combiner.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from . import krpc
from .node import VoteNode, vote_key
from .sketch import REGISTER_COUNT, HllSketch, nonzero_indices

_ONE = b"\0" + b"\x01" * 255  # translate table: any nonzero register -> 1


@dataclass
class VoteResult:
    positive_count: int
    negative_count: int
    responders: int  # replicas that answered get_votes
    filtered: bool  # True when three or more replicas went through the median


def robust_combine(sketches: list[HllSketch]) -> HllSketch:
    """Combine replica sketches; lower median per register when n >= 3.

    With fewer than three replicas a median cannot outvote anything, so
    the plain union is used instead. Deterministic for any input order.
    """
    if not sketches:
        raise ValueError("no sketches to combine")
    if len(sketches) > 255:  # a register's count of nonzero sketches fills a byte
        raise ValueError("can combine at most 255 sketches")
    if len(sketches) < 3:
        return HllSketch.union(sketches)
    registers = [s.registers for s in sketches]
    n = len(registers)
    mid = (n - 1) // 2
    # A lower median is nonzero only where at least n - mid sketches are.
    # Count those per register in one packed int, a byte each, and sort
    # only the columns that reach n - mid; every other register stays 0.
    counts = sum(int.from_bytes(r.translate(_ONE), "big") for r in registers)
    need = n - mid
    reached = counts.to_bytes(REGISTER_COUNT, "big").translate(
        bytes(need) + b"\x01" * (REGISTER_COUNT - need)
    )
    indices = nonzero_indices(reached)
    out = bytearray(REGISTER_COUNT)
    if indices:
        pick = itemgetter(*indices, 0)  # a tuple even for one index; zip drops the extra 0
        for index, column in zip(indices, zip(*map(pick, registers))):
            out[index] = sorted(column)[mid]
    return HllSketch(out)


def fetch_votes(node: VoteNode, info_hash: bytes) -> VoteResult:
    """Look up the replica set for info_hash and aggregate its vote counts."""
    replicas = node.get_votes_lookup(vote_key(info_hash))

    positives: list[HllSketch] = []
    negatives: list[HllSketch] = []
    for _, reply in replicas:
        try:
            vp, vn = krpc.response_sketches(reply.values)
        except krpc.ProtocolError:
            continue
        if vp is None and vn is None:
            continue  # replica holds nothing for this key
        # Lenient parse: rejecting out-of-range registers here would let a
        # spam replica mute itself selectively. None gives the empty sketch.
        positives.append(HllSketch(vp))
        negatives.append(HllSketch(vn))

    positive_count = round(robust_combine(positives).estimate()) if positives else 0
    negative_count = round(robust_combine(negatives).estimate()) if negatives else 0
    return VoteResult(positive_count, negative_count, len(replicas), len(positives) >= 3)
