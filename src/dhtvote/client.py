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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import krpc
from .node import VoteNode, vote_key
from .routing import LookupFailedError
from .sketch import HllSketch, checked_registers


@dataclass
class VoteResult:
    info_hash: bytes
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
    if len(sketches) < 3:
        return HllSketch.union(sketches)
    registers = checked_registers(sketches)
    mid = (len(registers) - 1) // 2
    return HllSketch(bytes(sorted(values)[mid] for values in zip(*registers)))


def fetch_votes(node: VoteNode, info_hash: bytes) -> VoteResult:
    """Look up the replica set for info_hash and aggregate its vote counts."""
    try:
        replicas = node.get_votes_lookup(vote_key(info_hash))
    except LookupFailedError:
        return VoteResult(info_hash, 0, 0, 0, False)

    positives: list[HllSketch] = []
    negatives: list[HllSketch] = []
    for _, reply in replicas:
        try:
            vp, vn = krpc.response_sketches(reply.values)
        except krpc.ProtocolError:
            continue
        if vp is None and vn is None:
            continue  # replica holds nothing for this key
        # Lenient parse: out-of-range registers are the combiner's problem,
        # rejecting them here would let a spam replica mute itself selectively.
        positives.append(
            HllSketch.from_bytes(vp, validate=False) if vp is not None else HllSketch()
        )
        negatives.append(
            HllSketch.from_bytes(vn, validate=False) if vn is not None else HllSketch()
        )

    positive_count = round(robust_combine(positives).estimate()) if positives else 0
    negative_count = round(robust_combine(negatives).estimate()) if negatives else 0
    return VoteResult(
        info_hash, positive_count, negative_count, len(replicas), len(positives) >= 3
    )
