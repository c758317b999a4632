"""The voting DHT node: query handlers, tokens, journal, announce rounds.

The node core is transport-agnostic. A transport only has to provide
``request(address, data, kind) -> reply bytes or None``: one blocking
attempt, sending the datagram once and waiting up to its timeout. The node
decides whether to resend; both the real UDP transport and the simulator's
virtual network satisfy that. The clock is injectable for the same reason:
the store's 24-hour window, token rotation, and announce scheduling must all
be testable without waiting on wall time. No two of the node's pending
requests hold the same transaction id.

Incoming votes are always recorded against the observed UDP source IP,
never anything claimed in the message; the get_votes/announce_vote token
handshake exists to stop spoofed sources. The token rides on the get_votes
replies of the announce's own lookup, so an announce costs one lookup plus
one announce_vote per replica that may lack the vote (Kademlia's republish
shortcut, see announce_round). The announce record of a vote, keyed by the
vote key, also seeds every lookup of that key with last round's replicas.
"""

from __future__ import annotations

import fcntl
import logging
import os
import re
import secrets
import socket
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from hashlib import sha1
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol

from . import krpc
from .krpc import ProtocolError, Query, Response, ErrorMessage
from .routing import ID_LENGTH, Contact, RoutingTable, iterative_lookup
from .store import WINDOW_HOURS, Polarity, VoteStore

log = logging.getLogger(__name__)

TOKEN_ROTATION_SECONDS = 300  # previous secret stays valid one extra rotation
TOKEN_CATCH_UP_SECONDS = 7 * 24 * 3600  # a clock that jumps ahead draws a week of secrets at most
SILENT_SECONDS = 900  # BEP 5's 15 minutes: an id whose query failed is skipped this long
LOOKUP_QUERIES_PER_K = 8  # a lookup sends at most this many times k queries
# A get_votes reply of k contacts, two dense sketches, an 8-byte token and a
# 2-byte tid takes 2,034 bytes at k = 55; one contact more outgrows a datagram.
MAX_K = 55
# A replica that acknowledged a vote gets it again once this long has passed
# since the vote's last full announce: half the store's window, so a vote is
# rewritten within REANNOUNCE_SECONDS + announce_period, under 13 hours.
REANNOUNCE_SECONDS = WINDOW_HOURS * 3600 // 2
JOURNAL_FILENAME = "votes.log"
_JOURNAL_LINE = re.compile(r"([0-9a-fA-F]{40}),([+-]1),([0-9]+)")  # hash, sign, unix seconds

Address = tuple[str, int]
Clock = Callable[[], float]


class Transport(Protocol):
    def request(self, address: Address, data: bytes, kind: str) -> bytes | None:
        """Send data once; the reply's bytes, or None if none came in time."""


@dataclass
class NodeConfig:
    bind: Address = ("0.0.0.0", 0)
    state_dir: str | None = None
    bootstrap: list[Address] = field(default_factory=list)
    k: int = 8
    alpha: int = 3
    announce_period: float = 1800.0
    query_timeout: float = 2.0
    query_retries: int = 2

    def __post_init__(self) -> None:
        for value in (self.k, self.alpha):
            if type(value) is not int or value < 1:  # bool is not a count
                raise ValueError("k and alpha must be integers of at least 1")
        if self.k > MAX_K:
            raise ValueError(
                f"k must be at most {MAX_K}: a get_votes reply of more contacts "
                f"outgrows a {krpc.MAX_DATAGRAM}-byte datagram"
            )
        if not 0 < self.announce_period < 3600:
            raise ValueError("announce_period must be above 0 and under one hour")
        if type(self.query_timeout) not in (int, float) or not 0 < self.query_timeout < float("inf"):
            raise ValueError("query_timeout must be a positive finite number of seconds")
        if type(self.query_retries) is not int or self.query_retries < 0:
            raise ValueError("query_retries must be an integer of at least 0")


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
        self._rotated_at = max(self._rotated_at, now - TOKEN_CATCH_UP_SECONDS)
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
        self.loaded_size = 0  # the file's size when load() last read it

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Hold an exclusive lock on the file; another process that asks for it waits."""
        with open(self.path, "ab") as fh:  # closing it releases the lock
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            yield

    def append(self, vote: LocalVote) -> None:
        line = f"{vote.info_hash.hex()},{vote.polarity.value:+d},{vote.created_at}\n"
        with open(self.path, "a+b") as fh:
            end = os.fstat(fh.fileno()).st_size
            if end and os.pread(fh.fileno(), 1, end - 1) != b"\n":
                line = "\n" + line  # a torn last line must not swallow this vote
            fh.write(line.encode("ascii"))
            # a vote is permanent: it must survive a crash right after the
            # caller reports it cast, or the user could vote again
            fh.flush()
            os.fsync(fh.fileno())
        if not end:  # a new (or empty) file: its directory entry must survive a crash too
            directory = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)

    def changed(self) -> bool:
        """Whether the file's size differs from the one load() last read."""
        try:
            return self.path.stat().st_size != self.loaded_size
        except FileNotFoundError:
            return False

    def load(self) -> list[LocalVote]:
        votes: dict[bytes, LocalVote] = {}
        with open(self.path, "r", encoding="ascii", errors="replace") as fh:
            # taken before reading, so a racing append shows as a change
            self.loaded_size = os.fstat(fh.fileno()).st_size
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
        match = _JOURNAL_LINE.fullmatch(line)
        if match is None:
            return None
        hex_hash, sign, stamp = match.groups()
        return LocalVote(bytes.fromhex(hex_hash), Polarity(int(sign)), int(stamp))


def vote_key(info_hash: bytes) -> bytes:
    """The DHT storage key: SHA1 of the document's info-hash."""
    return sha1(info_hash).digest()


class VoteNode:
    """Protocol logic for one DHT participant.

    The routing table is the only state that the server side
    (handle_datagram) and the client side (lookups, bootstrap, casts,
    announce_round, fetch_votes) both touch, and it takes its own lock. The
    server side alone owns the store and token issuer, the client side the
    local votes and journal, and the caller serializes each side: the UDP
    runner on one receive thread and one cast lock, the simulator on one
    thread. Announce rounds, and the votes' tasks within one, may run
    concurrently, so the transaction ids they hold are claimed in one atomic
    step; each announce uses its own lookup's token, and a round replaces a
    vote's announce record whole.
    A contact whose query gets no usable reply leaves the routing table, and
    lookups send its id nothing for SILENT_SECONDS, whichever reply names it.
    A lookup sends at most LOOKUP_QUERIES_PER_K × k queries, however many
    nearer contacts the replies name; honest lookups send far fewer.
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
        # vote key -> (time of the vote's last full announce, the compact
        # contacts of the replicas that acknowledged it since); it also seeds
        # every lookup of that key
        self._announced: dict[bytes, tuple[float, bytes]] = {}
        self._tids: dict[bytes, Query] = {}  # tid -> the query send_query is sending with it
        self._silent: dict[bytes, float] = {}  # id -> when a query to it last failed
        self._silent_lock = threading.Lock()  # held to change _silent, never to read it
        self.reload_journal()

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
        """Answer one query, checking each argument where it is read. The sender
        joins the routing table once they are all well formed."""
        tid, args, method = query.tid, query.args, query.method
        sender = Contact(krpc.id_arg(args, b"id"), source[0], source[1])
        if method == "ping":
            self.routing.insert(sender)
            return Response(tid, {b"id": self.node_id})
        if method in ("find_node", "get_votes"):
            target = krpc.id_arg(args, b"target")
            self.routing.insert(sender)
            nodes = krpc.pack_contacts(self.routing.closest(target))
            if method == "find_node":
                return Response(tid, {b"id": self.node_id, b"nodes": nodes})
            values = {b"id": self.node_id, b"token": self.tokens.issue(source), b"nodes": nodes}
            if args.get(b"nv") != 1:
                positive, negative = self.store.aggregate(target, self.clock())
                if not (positive.is_empty() and negative.is_empty()):
                    values[b"vp"] = krpc.pack_sketch(positive.registers)
                    values[b"vn"] = krpc.pack_sketch(negative.registers)
            return Response(tid, values)
        if method == "announce_vote":
            target = krpc.id_arg(args, b"target")
            vote = args.get(b"vote")
            if not isinstance(vote, int) or vote not in (1, -1):
                raise ProtocolError("vote must be 1 or -1")
            token = args.get(b"token")
            if not isinstance(token, bytes) or not token:
                raise ProtocolError("missing announce token")
            self.routing.insert(sender)
            if not self.tokens.valid(token, source):
                raise ProtocolError("invalid or expired token")
            self.store.record(target, Polarity(vote), socket.inet_aton(source[0]), self.clock())
            return Response(tid, {b"id": self.node_id})
        raise ProtocolError(f"unknown method {method!r}", krpc.METHOD_UNKNOWN)

    # ------------------------------------------------------------------
    # client side

    def send_query(self, address: Address, method: str, args: dict) -> Response | None:
        """Send one query of method with args and our id, and resend the same
        bytes up to query_retries times while no reply comes.

        The reply, if it is a Response to this query's tid that names a
        well-formed id other than ours; None on timeout or any other reply.
        The tid is drawn at random, again while another pending request holds it.
        """
        query = Query(self._rand(2), method, {b"id": self.node_id, **args})
        while self._tids.setdefault(query.tid, query) is not query:  # an atomic test-and-set
            query.tid = self._rand(2)
        try:
            data = krpc.encode_message(query)
            for _ in range(self.config.query_retries + 1):
                raw = self.transport.request(address, data, query.method)
                if raw is not None:
                    break
        finally:
            del self._tids[query.tid]
        if raw is None:
            return None
        try:
            reply = krpc.decode_message(raw)
        except Exception:
            return None
        if not isinstance(reply, Response) or reply.tid != query.tid:
            return None
        peer_id = reply.values.get(b"id")
        if not isinstance(peer_id, bytes) or len(peer_id) != ID_LENGTH or peer_id == self.node_id:
            return None
        return reply

    def _query_contact(self, contact: Contact, method: str, args: dict) -> Response | None:
        """Query one contact; None unless the reply comes from contact.id.

        A reply carrying another id means a different node now holds that
        address (the old one left): the expected id is dropped from the
        routing table and the one that answered is inserted instead. Any
        other failed query, a timeout included, marks the expected id silent.
        """
        reply = self.send_query(contact.address, method, args)
        if reply is not None and reply.values[b"id"] == contact.id:
            self.routing.insert(contact)
            return reply
        self.routing.remove(contact.id)
        if reply is not None:
            self.routing.insert(Contact(reply.values[b"id"], contact.ip, contact.port))
            return None
        with self._silent_lock:  # the marks of SILENT_SECONDS ago and before are forgotten
            now = self.clock()
            for old in [i for i, since in self._silent.items() if now - since >= SILENT_SECONDS]:
                del self._silent[old]
            self._silent[contact.id] = now
        return None

    def _reply_contacts(self, reply: Response, seen: set[bytes]) -> list[Contact] | None:
        """The first k contacts in a find_node/get_votes reply, less those
        whose ids are in seen; None if malformed."""
        nodes = reply.values.get(b"nodes")
        if not isinstance(nodes, bytes):
            return None
        try:
            # an honest reply names at most k; more would only lengthen the lookup
            return krpc.unpack_contacts(nodes, seen, self.config.k)
        except ProtocolError:
            return None

    def lookup(self, target: bytes) -> list[Contact]:
        """Iterative find_node lookup of the k closest responsive contacts;
        ``[]`` when no contact answers."""
        return [contact for contact, _ in self._lookup(target, "find_node", {})]

    def get_votes_lookup(
        self, key: bytes, no_votes: bool = False
    ) -> list[tuple[Contact, Response]]:
        """Iterative lookup that queries with get_votes.

        Returns the k closest responders to key, each with its get_votes
        reply (token, and sketches unless ``no_votes``); ``[]`` when no
        contact answers.
        """
        return self._lookup(key, "get_votes", {b"nv": 1} if no_votes else {})

    def _lookup(
        self, target: bytes, method: str, args: dict
    ) -> list[tuple[Contact, Response]]:
        """The k closest responders to target, each with its reply.

        The seeds are the routing table's k closest, then the replicas in our
        vote's announce record for target that the table did not return.
        Each contact gets a query of method with args and the target; replies
        of contacts outside the k closest are discarded. Once the
        lookup has sent its budget of queries, it sends no more and ends on
        the responders it has.
        """
        seeds = self.routing.closest(target)
        record = self._announced.get(target)
        if record is not None:  # for an id in both, the table's newer address wins
            seeds += krpc.unpack_contacts(record[1], {contact.id for contact in seeds})
        if not seeds:
            for address in self.config.bootstrap:
                probe = self._ping_address(address)
                if probe is not None:
                    seeds.append(probe)
        args = {**args, b"target": target}
        replies: dict[bytes, Response] = {}
        budget = LOOKUP_QUERIES_PER_K * self.config.k
        # Ids whose reply entries get no Contact: ours, the seeds and earlier
        # replies' contacts. iterative_lookup's own seen set still drops an id
        # that two seeds, or one reply, name twice.
        seen = {self.node_id, *(contact.id for contact in seeds)}

        def query(contact: Contact, target: bytes) -> list[Contact] | None:
            nonlocal budget
            if contact.id in self._silent:  # failed lately; a mark forgotten since reads -inf
                if self.clock() - self._silent.get(contact.id, float("-inf")) < SILENT_SECONDS:
                    return None  # don't wait on it again
            if not budget:
                return None  # replies that keep naming nearer contacts end here
            budget -= 1
            reply = self._query_contact(contact, method, args)
            found = None if reply is None else self._reply_contacts(reply, seen)
            if found is not None:
                replies[contact.id] = reply
                seen.update(new.id for new in found)
            return found

        closest = iterative_lookup(
            target, seeds, query, k=self.config.k, alpha=self.config.alpha
        )
        return [(contact, replies[contact.id]) for contact in closest]

    def _ping_address(self, address: Address) -> Contact | None:
        reply = self.send_query(address, "ping", {})
        if reply is None:
            return None
        contact = Contact(reply.values[b"id"], address[0], address[1])
        self.routing.insert(contact)
        return contact

    def bootstrap(self) -> None:
        """Join the network via the configured contacts."""
        self.lookup(self.node_id)

    def reload_journal(self) -> None:
        """Take in the journal's votes if it changed since the last load,
        such as a vote cast by another process on the same state directory."""
        if self.journal is not None and self.journal.changed():
            for vote in self.journal.load():
                self.local_votes.setdefault(vote.info_hash, vote)

    def cast_vote(self, info_hash: bytes, polarity: Polarity) -> str:
        """Register this user's own vote; 'accepted' or 'already-voted'.

        A vote can be set once per document and is permanent, also across
        processes that share the state directory.
        """
        if len(info_hash) != ID_LENGTH:
            raise ValueError("info-hash must be 20 bytes")
        # Under the journal's lock, another process's cast of this info-hash
        # is either in the file by now or waits until ours is.
        with self.journal.locked() if self.journal is not None else nullcontext():
            self.reload_journal()
            if info_hash in self.local_votes:
                return "already-voted"
            vote = LocalVote(info_hash, polarity, int(self.clock()))
            if self.journal is not None:
                self.journal.append(vote)
            self.local_votes[info_hash] = vote
        return "accepted"

    def announce_vote_to(
        self, replica: tuple[Contact, Response], key: bytes, vote_value: int
    ) -> bool:
        """announce_vote with the token of a (contact, get_votes reply) pair
        from get_votes_lookup.

        True on success; False without a token or on no/error reply.
        """
        contact, lookup_reply = replica
        token = lookup_reply.values.get(b"token")
        if not isinstance(token, bytes) or not token:
            return False
        args = {b"target": key, b"vote": vote_value, b"token": token}
        return self._query_contact(contact, "announce_vote", args) is not None

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
        the replicas found and whether each holds the vote: True if it
        acknowledged this round's announce, or was sent none because its id
        and address acknowledged one since the vote's last full announce,
        under REANNOUNCE_SECONDS ago. Those replicas are the vote's announce
        record, kept by vote key, and they seed that key's next lookups. A
        lookup that no contact answers leaves an empty list and the vote is
        simply retried next round.
        """

        def announce(vote: LocalVote) -> tuple[bytes, list[tuple[Contact, bool]]]:
            key = vote_key(vote.info_hash)
            replicas = self.get_votes_lookup(key, no_votes=True)
            now = self.clock()
            since, held = self._announced.get(key, (now, b""))
            if now - since >= REANNOUNCE_SECONDS:
                since, held = now, b""  # a full announce: every replica gets the vote
            report, acked = [], []
            for replica in replicas:
                entry = krpc.pack_contacts(replica[:1])
                # held only on an entry boundary; find's -1 is none
                ok = held.find(entry) % len(entry) == 0 or self.announce_vote_to(
                    replica, key, vote.polarity.value
                )
                if ok:
                    acked.append(entry)
                report.append((replica[0], ok))
            self._announced[key] = (since, b"".join(acked))
            return vote.info_hash, report

        if votes is None:
            votes = list(self.local_votes.values())
        return dict(map_tasks(announce, votes))
