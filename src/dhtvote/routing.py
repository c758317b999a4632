"""Kademlia routing: XOR metric, k-buckets, and the iterative lookup.

The lookup is written against an abstract query function so the same code
drives both the UDP transport and the in-process simulator.
"""

from __future__ import annotations

import bisect
import heapq
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

ID_BITS = 160
ID_LENGTH = 20


def distance(a: bytes, b: bytes) -> int:
    """XOR of two 160-bit ids as a big-endian unsigned integer."""
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


@dataclass(slots=True)
class Contact:
    id: bytes
    ip: str
    port: int

    @property
    def address(self) -> tuple[str, int]:
        return (self.ip, self.port)


class RoutingTable:
    """160 k-buckets, each a dict from id to contact in join order.

    A newer contact for a known id takes the old one's place; no contact is
    ever edited. A full bucket drops the newcomer.

    Safe to share between threads: every method takes the table's lock and
    does no I/O while it holds it.
    """

    def __init__(self, own_id: bytes, k: int):
        if len(own_id) != ID_LENGTH:
            raise ValueError("node id must be 20 bytes")
        self.own_id = own_id
        self.k = k
        self.buckets: list[dict[bytes, Contact]] = [{} for _ in range(ID_BITS)]
        self._own_int = int.from_bytes(own_id, "big")
        self._occupied = 0  # bit i set: buckets[i] holds a contact
        self._lock = threading.Lock()

    def _bucket_index(self, node_id: bytes) -> int:
        return (self._own_int ^ int.from_bytes(node_id, "big")).bit_length() - 1

    def __len__(self) -> int:
        with self._lock:
            return sum(map(len, self.buckets))

    def insert(self, contact: Contact) -> None:
        """Add contact, or put it in the place of the contact with its id.

        No contact is edited, so one handed out keeps its address. A full
        bucket drops the newcomer, and the table never holds its own id: a
        contact carrying it is ignored. A contact leaves the table only by
        remove(), which the node calls when a query to it gets no usable
        reply or another id answers at its address.
        """
        if contact.id == self.own_id:
            return
        index = self._bucket_index(contact.id)
        # acquire/release, not `with`: this runs for every inbound query and
        # every reply, and `with` costs 0.3 us to their 0.12 us on CPython 3.11
        self._lock.acquire()
        try:
            bucket = self.buckets[index]
            if contact.id in bucket or len(bucket) < self.k:
                bucket[contact.id] = contact
                self._occupied |= 1 << index
        finally:
            self._lock.release()

    def remove(self, node_id: bytes) -> None:
        index = self._bucket_index(node_id)
        with self._lock:
            bucket = self.buckets[index]
            if bucket.pop(node_id, None) is not None and not bucket:
                self._occupied &= ~(1 << index)

    def closest(self, target: bytes, k: int | None = None) -> list[Contact]:
        """The <= k contacts nearest target, nearest first; no two tie.

        Bucket i holds the ids whose distance from own_id has its top bit
        at i. With d = own_id XOR target, every id in bucket i is nearer to
        target than every id in the lower buckets when bit i of d is set,
        and farther when it is clear. So the occupied buckets are visited
        with their bit set from the top down, then with it clear from the
        bottom up, each sorted on its own, until k contacts are found.
        """
        k = self.k if k is None else k
        if k < 1:
            raise ValueError("k must be at least 1")
        target_int = int.from_bytes(target, "big")

        def dist(contact: Contact) -> int:
            return int.from_bytes(contact.id, "big") ^ target_int

        d = self._own_int ^ target_int
        found: list[Contact] = []
        with self._lock:
            nearer = self._occupied & d
            farther = self._occupied & ~d
            while nearer and len(found) < k:
                index = nearer.bit_length() - 1
                nearer ^= 1 << index
                found += sorted(self.buckets[index].values(), key=dist)
            while farther and len(found) < k:
                lowest = farther & -farther
                farther ^= lowest
                found += sorted(self.buckets[lowest.bit_length() - 1].values(), key=dist)
        return found[:k]


# A query function sends find_node(target) or get_votes(target) to one
# contact and returns the contacts it reported, or None on timeout/failure.
QueryFn = Callable[[Contact, bytes], "list[Contact] | None"]


def iterative_lookup(
    target: bytes,
    seeds: Iterable[Contact],
    query: QueryFn,
    k: int,
    alpha: int,
) -> list[Contact]:
    """Iteratively converge on the k closest responsive contacts to target.

    Keeps querying the closest unqueried candidates until every candidate
    at least as close as the current k-th closest responder has been
    tried, which makes the result exact over the responsive population.
    Each wave takes the nearest unqueried candidates, up to alpha, while
    the responders nearer than a candidate plus the wave's members so far
    number fewer than k: it asks only contacts among the k nearest heard of
    (Kademlia, §2.3), so seeds that are the k nearest get k queries in all.
    Responders are those at the wave's start. A candidate's distance is
    computed once, when it first appears: unqueried ones wait in a heap,
    responders are kept sorted. With no seed, or no seed that answers, the
    result is ``[]``.
    """
    target_int = int.from_bytes(target, "big")
    seen: set[bytes] = set()
    unqueried: list[tuple[int, Contact]] = []  # heap; distances never tie

    def consider(contacts: Iterable[Contact]) -> None:
        for contact in contacts:
            if contact.id not in seen:
                seen.add(contact.id)
                d = int.from_bytes(contact.id, "big") ^ target_int
                heapq.heappush(unqueried, (d, contact))

    consider(seeds)
    responders: list[tuple[int, Contact]] = []  # ascending distance
    while True:
        wave = []
        while (
            unqueried
            and len(wave) < alpha
            and bisect.bisect(responders, unqueried[0]) + len(wave) < k
        ):
            wave.append(heapq.heappop(unqueried))
        if not wave:
            break
        for entry in wave:
            found = query(entry[1], target)
            if found is not None:
                bisect.insort(responders, entry)
                consider(found)
    return [contact for _, contact in responders[:k]]
