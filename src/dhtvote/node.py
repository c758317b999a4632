"""The voting DHT node: query handlers, tokens, journal, announce rounds.

The node core is transport-agnostic. A transport only has to provide
``request(address, data, kind) -> reply bytes or None`` (blocking, with its
own timeout/retry policy); both the real UDP transport and the simulator's
virtual network satisfy that. The clock is injectable for the same reason:
hour blocks, token rotation, and announce scheduling must all be testable
without waiting on wall time.

Incoming votes are always recorded against the observed UDP source IP,
never anything claimed in the message; the get_votes/announce_vote token
handshake exists to stop spoofed sources. The token rides on the get_votes
replies of the announce's own lookup, so an announce costs one lookup plus
one announce_vote per replica.
"""

from __future__ import annotations

import logging
import os
import secrets
import socket
import time
from dataclasses import dataclass, field
from hashlib import sha1
from pathlib import Path
from typing import Callable, Iterable, Protocol

from . import krpc
from .krpc import ProtocolError, Query, Response, ErrorMessage
from .routing import (
    ID_LENGTH, Contact, LookupFailedError, RoutingTable, iterative_lookup,
)
from .store import Polarity, VoteStore

log = logging.getLogger(__name__)

TOKEN_ROTATION_SECONDS = 300  # previous secret stays valid one extra rotation
JOURNAL_FILENAME = "votes.log"

Address = tuple[str, int]
Clock = Callable[[], float]


class Transport(Protocol):
    def request(self, address: Address, data: bytes, kind: str) -> bytes | None: ...


@dataclass
class NodeConfig:
    bind: Address = ("0.0.0.0", 0)
    state_dir: str | None = None
    bootstrap: list[Address] = field(default_factory=list)
    k: int = 8
    alpha: int = 3
    announce_period: float = 1800.0  # must stay under one ring slot (1 h)
    query_timeout: float = 2.0
    query_retries: int = 2

    def __post_init__(self) -> None:
        for value in (self.k, self.alpha):
            if type(value) is not int or value < 1:  # bool is not a count
                raise ValueError("k and alpha must be integers of at least 1")
        if not 0 < self.announce_period < 3600:
            raise ValueError("announce_period must be under one hour")


@dataclass
class LocalVote:
    info_hash: bytes
    polarity: Polarity
    created_at: int


def compact_address(address: Address) -> bytes:
    return socket.inet_aton(address[0]) + address[1].to_bytes(2, "big")


class TokenIssuer:
    """Rotating-secret announce tokens bound to the requester's address."""

    def __init__(self, clock: Clock, rand_bytes: Callable[[int], bytes] = secrets.token_bytes):
        self._clock = clock
        self._rand = rand_bytes
        self._current = rand_bytes(16)
        self._previous = self._current
        self._rotated_at = clock()

    def _rotate_if_due(self) -> None:
        now = self._clock()
        while now - self._rotated_at >= TOKEN_ROTATION_SECONDS:
            self._previous = self._current
            self._current = self._rand(16)
            self._rotated_at += TOKEN_ROTATION_SECONDS

    def issue(self, address: Address) -> bytes:
        self._rotate_if_due()
        return sha1(self._current + compact_address(address)).digest()[:8]

    def valid(self, token: bytes, address: Address) -> bool:
        self._rotate_if_due()
        compact = compact_address(address)
        for secret in (self._current, self._previous):
            if token == sha1(secret + compact).digest()[:8]:
                return True
        return False


class Journal:
    """Append-only record of this node's own votes.

    One line per vote: ``<40 hex info_hash>,<+1|-1>,<unix seconds>``. On
    load, the first record per info_hash wins; duplicates and malformed
    lines are logged and skipped.
    """

    def __init__(self, state_dir: str | Path):
        directory = Path(state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / JOURNAL_FILENAME

    def append(self, vote: LocalVote) -> None:
        line = f"{vote.info_hash.hex()},{vote.polarity.value:+d},{vote.created_at}\n"
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(line)
            # a vote is permanent: it must survive a crash right after the
            # caller reports it cast, or the user could vote again
            fh.flush()
            os.fsync(fh.fileno())

    def load(self) -> list[LocalVote]:
        if not self.path.exists():
            return []
        votes: dict[bytes, LocalVote] = {}
        with open(self.path, "r", encoding="ascii", errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                vote = self._parse_line(line)
                if vote is None:
                    log.warning("%s:%d: malformed journal line skipped", self.path, lineno)
                elif vote.info_hash in votes:
                    log.warning("%s:%d: duplicate vote for %s ignored",
                                self.path, lineno, vote.info_hash.hex())
                else:
                    votes[vote.info_hash] = vote
        return list(votes.values())

    @staticmethod
    def _parse_line(line: str) -> LocalVote | None:
        parts = line.split(",")
        if len(parts) != 3:
            return None
        hex_hash, sign, stamp = parts
        if len(hex_hash) != 40 or sign not in ("+1", "-1") or not stamp.isdigit():
            return None
        try:
            info_hash = bytes.fromhex(hex_hash)
        except ValueError:
            return None
        if len(info_hash) != ID_LENGTH:  # fromhex skips whitespace
            return None
        return LocalVote(info_hash, Polarity(int(sign)), int(stamp))


def vote_key(info_hash: bytes) -> bytes:
    """The DHT storage key: SHA1 of the document's info-hash."""
    return sha1(info_hash).digest()


class VoteNode:
    """Protocol logic for one DHT participant.

    The routing table is the only state that the server side
    (handle_datagram) and the client side (lookups, bootstrap,
    announce_round, fetch_votes) both touch, and it takes its own lock. The
    rest (store, token issuer, local votes) must be serialized by the
    caller: the simulator is single-threaded, and the UDP runner takes one
    lock around them that it never holds across network I/O. One
    announce_round may run its votes' tasks concurrently; rounds must not
    overlap, because they share the announce tokens.
    """

    def __init__(
        self,
        config: NodeConfig,
        transport: Transport,
        clock: Clock = time.time,
        rand_bytes: Callable[[int], bytes] = secrets.token_bytes,
        node_id: bytes | None = None,
    ):
        self.config = config
        self.transport = transport
        self.clock = clock
        self._rand = rand_bytes
        self.node_id = node_id if node_id is not None else rand_bytes(ID_LENGTH)
        self.routing = RoutingTable(self.node_id, k=config.k)  # checks the id length
        self.store = VoteStore()
        self.tokens = TokenIssuer(clock, rand_bytes)
        self.journal = Journal(config.state_dir) if config.state_dir else None
        self.local_votes: dict[bytes, LocalVote] = {}
        # replica id -> token, from the get_votes replies of the running
        # announce round's lookups; read by announce_vote_to
        self._announce_tokens: dict[bytes, object] = {}
        if self.journal is not None:
            for vote in self.journal.load():
                self.local_votes[vote.info_hash] = vote

    # ------------------------------------------------------------------
    # server side

    def handle_datagram(self, data: bytes, source: Address) -> bytes | None:
        """Handle one inbound datagram; returns the reply or None to drop.

        Total: any byte sequence either yields a well-formed reply or is
        dropped, never an exception or malformed bencode.
        """
        try:
            message = krpc.decode_message(data)
        except Exception:
            return None  # not decodable; nothing sane to reply to
        if not isinstance(message, Query):
            return None  # unsolicited response/error
        try:
            reply = self.handle_query(message, source)
        except ProtocolError as exc:
            reply = ErrorMessage(message.tid, exc.code, str(exc))
        except Exception:
            log.exception("query handler failed")
            reply = ErrorMessage(message.tid, krpc.SERVER_ERROR, "internal error")
        return krpc.encode_message(reply)

    def handle_query(self, query: Query, source: Address) -> Response:
        fields = krpc.validate_query_args(query)
        sender_id = fields["id"]
        if sender_id != self.node_id:
            self.routing.insert(Contact(sender_id, source[0], source[1]))
        if query.method == "ping":
            return krpc.ping_response(query.tid, self.node_id)
        if query.method == "find_node":
            nodes = krpc.pack_contacts(self.routing.closest(fields["target"]))
            return krpc.find_node_response(query.tid, self.node_id, nodes)
        if query.method == "get_votes":
            return self._handle_get_votes(
                query.tid, fields["target"], source, fields["no_votes"]
            )
        assert query.method == "announce_vote"
        return self._handle_announce_vote(query.tid, fields, source)

    def _handle_get_votes(
        self, tid: bytes, target: bytes, source: Address, no_votes: bool
    ) -> Response:
        token = self.tokens.issue(source)
        nodes = krpc.pack_contacts(self.routing.closest(target))
        vp = vn = None
        if not no_votes:
            positive, negative = self.store.aggregate(target, self.clock())
            if not (positive.is_empty() and negative.is_empty()):
                vp = positive.to_bytes()
                vn = negative.to_bytes()
        return krpc.get_votes_response(tid, self.node_id, token, nodes, vp, vn)

    def _handle_announce_vote(self, tid: bytes, fields: dict, source: Address) -> Response:
        if not self.tokens.valid(fields["token"], source):
            raise ProtocolError("invalid or expired token")
        polarity = Polarity(fields["vote"])  # validate_query_args admits only 1 and -1
        self.store.record(fields["target"], polarity, socket.inet_aton(source[0]), self.clock())
        return krpc.announce_vote_response(tid, self.node_id)

    # ------------------------------------------------------------------
    # client side

    def _new_tid(self) -> bytes:
        return self._rand(2)

    def send_query(self, address: Address, query: Query) -> Response | None:
        """Send one query and wait; None on timeout or error reply."""
        raw = self.transport.request(address, krpc.encode_message(query), query.method)
        if raw is None:
            return None
        try:
            reply = krpc.decode_message(raw)
        except Exception:
            return None
        if not isinstance(reply, Response) or reply.tid != query.tid:
            return None
        return reply

    def _responder_id(self, reply: Response | None) -> bytes | None:
        """The well-formed id a reply names, unless it is ours; else None."""
        peer_id = reply.values.get(b"id") if reply is not None else None
        if isinstance(peer_id, bytes) and len(peer_id) == ID_LENGTH and peer_id != self.node_id:
            return peer_id
        return None

    def _query_contact(self, contact: Contact, query: Query) -> Response | None:
        """Query one contact; None unless the reply comes from contact.id.

        A reply carrying another id means a different node now holds that
        address (the old one left): the expected id is dropped from the
        routing table and the one that answered is inserted instead.
        """
        reply = self.send_query(contact.address, query)
        responder = self._responder_id(reply)
        if responder == contact.id:
            self.routing.insert(Contact(contact.id, contact.ip, contact.port))
            return reply
        if responder is not None:
            self.routing.remove(contact.id)
            self.routing.insert(Contact(responder, contact.ip, contact.port))
        else:
            self.routing.note_failure(contact.id)
        return None

    def _reply_contacts(self, reply: Response) -> list[Contact] | None:
        """The contacts in a find_node/get_votes reply; None if malformed."""
        nodes = reply.values.get(b"nodes")
        if not isinstance(nodes, bytes):
            return None
        try:
            unpacked = krpc.unpack_contacts(nodes)
        except ProtocolError:
            return None
        return [
            Contact(nid, ip, port)
            for nid, ip, port in unpacked
            if nid != self.node_id
        ]

    def lookup(self, target: bytes) -> list[Contact]:
        """Iterative find_node lookup of the k closest responsive contacts."""
        closest = self._lookup(
            target, lambda tid, t: krpc.find_node_query(tid, self.node_id, t)
        )
        return [contact for contact, _ in closest]

    def get_votes_lookup(
        self, key: bytes, no_votes: bool = False
    ) -> list[tuple[Contact, Response]]:
        """Iterative lookup that queries with get_votes.

        Returns the k closest responders to key, each with its get_votes
        reply (token, and sketches unless ``no_votes``).
        """
        return self._lookup(
            key, lambda tid, t: krpc.get_votes_query(tid, self.node_id, t, no_votes)
        )

    def _lookup(
        self, target: bytes, make_query: Callable[[bytes, bytes], Query]
    ) -> list[tuple[Contact, Response]]:
        """The k closest responders to target, each with its reply.

        ``make_query(tid, target)`` builds the query sent to each contact;
        replies of contacts outside the k closest are discarded.
        """
        seeds = self.routing.closest(target)
        if not seeds:
            for address in self.config.bootstrap:
                probe = self._ping_address(address)
                if probe is not None:
                    seeds.append(probe)
        if not seeds:
            raise LookupFailedError("routing table empty and no bootstrap reachable")
        replies: dict[bytes, Response] = {}

        def query(contact: Contact, target: bytes) -> list[Contact] | None:
            reply = self._query_contact(contact, make_query(self._new_tid(), target))
            found = None if reply is None else self._reply_contacts(reply)
            if found is not None:
                replies[contact.id] = reply
            return found

        closest = iterative_lookup(
            target, seeds, query, k=self.config.k, alpha=self.config.alpha
        )
        return [(contact, replies[contact.id]) for contact in closest]

    def _ping_address(self, address: Address) -> Contact | None:
        reply = self.send_query(address, krpc.ping_query(self._new_tid(), self.node_id))
        peer_id = self._responder_id(reply)
        if peer_id is None:
            return None
        contact = Contact(peer_id, address[0], address[1])
        self.routing.insert(contact)
        return contact

    def bootstrap(self) -> int:
        """Join the network via the configured contacts; returns table size."""
        try:
            self.lookup(self.node_id)
        except LookupFailedError:
            pass
        return len(self.routing)

    def cast_vote(self, info_hash: bytes, polarity: Polarity) -> str:
        """Register this user's own vote; 'accepted' or 'already-voted'.

        A vote can be set once per document and is permanent.
        """
        if len(info_hash) != ID_LENGTH:
            raise ValueError("info-hash must be 20 bytes")
        if info_hash in self.local_votes:
            return "already-voted"
        vote = LocalVote(info_hash, polarity, int(self.clock()))
        if self.journal is not None:
            self.journal.append(vote)
        self.local_votes[info_hash] = vote
        return "accepted"

    def announce_vote_to(self, contact: Contact, key: bytes, vote_value: int) -> bool:
        """announce_vote with the token contact gave the announce lookup.

        True on success; False without a token or on no/error reply.
        """
        token = self._announce_tokens.get(contact.id)
        if not isinstance(token, bytes) or not token:
            return False
        reply = self._query_contact(
            contact,
            krpc.announce_vote_query(self._new_tid(), self.node_id, key, vote_value, token),
        )
        return reply is not None

    def announce_round(
        self,
        votes: Iterable[LocalVote] | None = None,
        map_tasks: Callable[..., Iterable] = map,
    ) -> dict[bytes, list[tuple[Contact, bool]]]:
        """Announce every local vote, or each of ``votes``, to the k nodes
        nearest its key.

        Each vote is one task: its get_votes lookup, then its announces.
        ``map_tasks(task, votes)`` runs them and yields their results in
        order; builtin ``map`` runs them one after another, and an
        executor's ``map`` runs them concurrently. Returns, per info-hash,
        the contacted replicas and whether each announce succeeded; a
        failed lookup leaves an empty list and the vote is simply retried
        next round.
        """

        def announce(vote: LocalVote) -> tuple[bytes, list[tuple[Contact, bool]]]:
            key = vote_key(vote.info_hash)
            try:
                replicas = self.get_votes_lookup(key, no_votes=True)
            except LookupFailedError:
                return vote.info_hash, []
            # a token is bound to our address, not to the key, so the tasks
            # of one round can share this dict
            self._announce_tokens.update(
                (contact.id, reply.values.get(b"token")) for contact, reply in replicas
            )
            return vote.info_hash, [
                (contact, self.announce_vote_to(contact, key, vote.polarity.value))
                for contact, _ in replicas
            ]

        if votes is None:
            votes = list(self.local_votes.values())
        try:
            return dict(map_tasks(announce, votes))
        finally:
            self._announce_tokens.clear()
