"""Kademlia routing: XOR metric, k-buckets, and the iterative lookup.

The lookup is written against an abstract query function so the same code
drives both the UDP transport and the in-process simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable

ID_BITS = 160
ID_LENGTH = 20


class LookupFailedError(Exception):
    """No contact responded during an iterative lookup."""


def distance(a: bytes, b: bytes) -> int:
    """XOR of two 160-bit ids as a big-endian unsigned integer."""
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


@dataclass
class Contact:
    id: bytes
    ip: str
    port: int
    last_seen: float = 0.0
    failed_queries: int = 0

    @property
    def address(self) -> tuple[str, int]:
        return (self.ip, self.port)


class InsertResult(enum.Enum):
    INSERTED = "inserted"
    UPDATED = "updated"
    PENDING = "bucket-full-pending"


class RoutingTable:
    """160 k-buckets of contacts, ordered least- to most-recently seen."""

    def __init__(self, own_id: bytes, k: int = 8):
        if len(own_id) != ID_LENGTH:
            raise ValueError("node id must be 20 bytes")
        self.own_id = own_id
        self.k = k
        self.buckets: list[list[Contact]] = [[] for _ in range(ID_BITS)]

    def _bucket_for(self, node_id: bytes) -> list[Contact]:
        d = distance(self.own_id, node_id)
        return self.buckets[d.bit_length() - 1]

    def __len__(self) -> int:
        return sum(len(b) for b in self.buckets)

    def contacts(self) -> Iterable[Contact]:
        for bucket in self.buckets:
            yield from bucket

    def get(self, node_id: bytes) -> Contact | None:
        if node_id == self.own_id:
            return None
        for contact in self._bucket_for(node_id):
            if contact.id == node_id:
                return contact
        return None

    def insert(self, contact: Contact) -> InsertResult:
        if contact.id == self.own_id:
            raise ValueError("cannot insert own id into routing table")
        bucket = self._bucket_for(contact.id)
        for i, existing in enumerate(bucket):
            if existing.id == contact.id:
                existing.ip = contact.ip
                existing.port = contact.port
                existing.last_seen = max(existing.last_seen, contact.last_seen)
                existing.failed_queries = 0
                bucket.append(bucket.pop(i))
                return InsertResult.UPDATED
        if len(bucket) < self.k:
            bucket.append(contact)
            return InsertResult.INSERTED
        for i, existing in enumerate(bucket):
            if existing.failed_queries >= 2:
                bucket.pop(i)
                bucket.append(contact)
                return InsertResult.INSERTED
        return InsertResult.PENDING

    def note_failure(self, node_id: bytes) -> None:
        contact = self.get(node_id)
        if contact is not None:
            contact.failed_queries += 1

    def remove(self, node_id: bytes) -> None:
        bucket = self._bucket_for(node_id)
        bucket[:] = [c for c in bucket if c.id != node_id]

    def closest(self, target: bytes, k: int | None = None) -> list[Contact]:
        """The <= k contacts nearest target; ties broken by raw id."""
        k = self.k if k is None else k
        if k < 1:
            raise ValueError("k must be at least 1")
        ranked = sorted(self.contacts(), key=lambda c: (distance(c.id, target), c.id))
        return ranked[:k]


# A query function sends find_node(target) or get_votes(target) to one
# contact and returns the contacts it reported, or None on timeout/failure.
QueryFn = Callable[[Contact, bytes], "list[Contact] | None"]


def iterative_lookup(
    target: bytes,
    seeds: Iterable[Contact],
    query: QueryFn,
    k: int = 8,
    alpha: int = 3,
) -> list[Contact]:
    """Iteratively converge on the k closest responsive contacts to target.

    Keeps querying the closest unqueried candidates until every candidate
    at least as close as the current k-th closest responder has been
    tried, which makes the result exact over the responsive population.
    """
    candidates: dict[bytes, Contact] = {}
    for seed in seeds:
        candidates.setdefault(seed.id, seed)
    if not candidates:
        raise LookupFailedError("no contacts to start from")

    queried: set[bytes] = set()
    responded: set[bytes] = set()

    def dist(contact: Contact) -> tuple[int, bytes]:
        return (distance(contact.id, target), contact.id)

    while True:
        responsive = sorted(
            (candidates[i] for i in responded), key=dist
        )[:k]
        threshold = dist(responsive[-1]) if len(responsive) >= k else None
        frontier = [
            c
            for c in candidates.values()
            if c.id not in queried and (threshold is None or dist(c) < threshold)
        ]
        if not frontier:
            break
        frontier.sort(key=dist)
        for contact in frontier[:alpha]:
            queried.add(contact.id)
            found = query(contact, target)
            if found is None:
                continue
            responded.add(contact.id)
            for other in found:
                candidates.setdefault(other.id, other)

    if not responded:
        raise LookupFailedError("no contact responded")
    return sorted((candidates[i] for i in responded), key=dist)[:k]
