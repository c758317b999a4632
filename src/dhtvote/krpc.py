"""KRPC message formats: ping, find_node, get_votes, announce_vote.

Envelope follows Mainline conventions: a bencoded dict with a transaction
id ``t``, a kind ``y`` (q / r / e), and either ``q``+``a`` (query), ``r``
(response values), or ``e`` (error [code, message]). Contacts travel in
compact form, 26 bytes each: 20-byte id, 4-byte IPv4, 2-byte big-endian
port.

The two voting methods:

  get_votes      args {id, target[, nv]};
                 response {id, token, nodes[, vp, vn]} where vp/vn are the
                 positive/negative sketches, present only when the responder
                 actually stores votes for the target and the query did not
                 carry ``nv`` = 1 ("no votes", in the style of BEP 33's
                 noseed flag). Any other ``nv`` value counts as absent.
  announce_vote  args {id, target, vote (1 or -1), token};
                 response {id}.

This module builds queries and parses messages; ``encode_message`` writes
the envelope in canonical key order and bencodes only its args, values or
error list. ``VoteNode.handle_query`` writes each reply and checks each
query argument where it reads it, with ``id_arg`` for the 20-byte ids.

Lookups for the voting methods run with get_votes as the lookup query, the
way BEP 5 runs get_peers: the k closest responders have then already sent
their token and sketches. An announce sends ``nv`` = 1 on its lookup and
then announce_vote with each replica's token; a fetch combines the
sketches of the lookup's k closest responders. A replica that ignores
``nv`` stays compatible, because the announce path ignores sketches.

A sketch travels in one of two forms, told apart by length, in the style of
HLL++'s sparse mode (Heule, Nunkesser & Hall, EDBT 2013). Exactly 256 bytes
is dense: every register in index order. A sketch with m < 128 nonzero
registers goes out sparse, as 2m bytes: their m indices in ascending order,
then their m ranks. A sparse value of odd length or over 256 bytes, with a
repeated index or with a zero rank is malformed; ranks are not otherwise
checked, so a rank above the maximum reaches the combiner as a dense one
does. Clients that read only the dense form cannot read these replies; the
protocol has no deployed network that would need a negotiation flag.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass, field
from itertools import islice
from typing import Container

from . import bencode
from .routing import ID_LENGTH, Contact
from .sketch import REGISTER_COUNT, nonzero_indices

_COMPACT_CONTACT = struct.Struct("!20s4sH")  # 26 bytes: id, IPv4, port
MAX_DATAGRAM = 2048  # bytes a node reads of one datagram; NodeConfig bounds k to fit

# Mainline error codes
SERVER_ERROR = 202
PROTOCOL_ERROR = 203
METHOD_UNKNOWN = 204

class ProtocolError(Exception):
    """Invalid message content; maps to a KRPC error reply."""

    def __init__(self, message: str, code: int = PROTOCOL_ERROR):
        super().__init__(message)
        self.code = code


@dataclass(slots=True)
class Query:
    tid: bytes
    method: str
    args: dict[bytes, object] = field(default_factory=dict)


@dataclass(slots=True)
class Response:
    tid: bytes
    values: dict[bytes, object] = field(default_factory=dict)


@dataclass(slots=True)
class ErrorMessage:
    tid: bytes
    code: int
    message: str


KrpcMessage = Query | Response | ErrorMessage


def encode_message(msg: KrpcMessage) -> bytes:
    # The envelope's keys in canonical order: a < q < t < y, e < t < y, r < t < y.
    if isinstance(msg, Query):
        method = msg.method.encode()
        return b"d1:a%b1:q%d:%b1:t%d:%b1:y1:qe" % (
            bencode.encode(msg.args), len(method), method, len(msg.tid), msg.tid)
    if isinstance(msg, Response):
        return b"d1:r%b1:t%d:%b1:y1:re" % (bencode.encode(msg.values), len(msg.tid), msg.tid)
    if isinstance(msg, ErrorMessage):
        return b"d1:e%b1:t%d:%b1:y1:ee" % (
            bencode.encode([msg.code, msg.message.encode()]), len(msg.tid), msg.tid)
    raise TypeError(f"not a KRPC message: {type(msg).__name__}")


def decode_message(data: bytes) -> KrpcMessage:
    """Parse a datagram into a message; raises ProtocolError / BencodeError."""
    payload = bencode.decode(data)
    if not isinstance(payload, dict):
        raise ProtocolError("datagram is not a dict")
    tid = payload.get(b"t")
    if not isinstance(tid, bytes) or not tid:
        raise ProtocolError("missing transaction id")
    kind = payload.get(b"y")
    if kind == b"q":
        method = payload.get(b"q")
        args = payload.get(b"a")
        if not isinstance(method, bytes):
            raise ProtocolError("query without method name")
        if not isinstance(args, dict):
            raise ProtocolError("query without arguments dict")
        return Query(tid, method.decode("ascii", "replace"), args)
    if kind == b"r":
        values = payload.get(b"r")
        if not isinstance(values, dict):
            raise ProtocolError("response without values dict")
        return Response(tid, values)
    if kind == b"e":
        err = payload.get(b"e")
        if (
            not isinstance(err, list)
            or len(err) != 2
            or not isinstance(err[0], int)
            or not isinstance(err[1], bytes)
        ):
            raise ProtocolError("malformed error payload")
        return ErrorMessage(tid, err[0], err[1].decode("utf-8", "replace"))
    raise ProtocolError("unknown message kind")


# ---------------------------------------------------------------------------
# compact contact encoding


def pack_contacts(contacts) -> bytes:
    """Contacts -> concatenated 26-byte compact entries."""
    pack = _COMPACT_CONTACT.pack
    return b"".join(pack(c.id, socket.inet_aton(c.ip), c.port) for c in contacts)


def unpack_contacts(
    data: bytes, skip: Container[bytes] = (), limit: int | None = None
) -> list[Contact]:
    """Compact node bytes -> contacts; the inverse of pack_contacts.

    Of the first ``limit`` entries, those whose ids are in ``skip`` (a lookup's
    own id and the ids it has seen) get no Contact. All of data is length-checked.
    """
    if len(data) % _COMPACT_CONTACT.size != 0:
        raise ProtocolError("compact node info not a multiple of 26 bytes")
    return [Contact(node_id, socket.inet_ntoa(ip), port)
            for node_id, ip, port in islice(_COMPACT_CONTACT.iter_unpack(data), limit)
            if node_id not in skip]


# ---------------------------------------------------------------------------
# sketch wire forms


def pack_sketch(registers: bytes | bytearray) -> bytes:
    """256 register bytes -> their wire form: sparse if shorter, else dense."""
    ranks = registers.translate(None, b"\0")
    if len(ranks) * 2 >= REGISTER_COUNT:
        return bytes(registers)
    return nonzero_indices(registers) + ranks


def _unpack_sketch(blob: bytes) -> bytes:
    """Either wire form -> the 256 dense register bytes; ProtocolError if malformed."""
    if len(blob) == REGISTER_COUNT:
        return blob
    m, odd = divmod(len(blob), 2)
    if odd or m > REGISTER_COUNT // 2:
        raise ProtocolError("sparse sketch length must be even and under 256")
    out = bytearray(REGISTER_COUNT)
    for index, rank in zip(blob[:m], blob[m:]):
        out[index] = rank
    if out.count(0) != REGISTER_COUNT - m:  # a repeated index or a zero rank
        raise ProtocolError("sparse sketch repeats an index or has a zero rank")
    return bytes(out)


# ---------------------------------------------------------------------------
# query builders


def ping_query(tid: bytes, node_id: bytes) -> Query:
    return Query(tid, "ping", {b"id": node_id})


def find_node_query(tid: bytes, node_id: bytes, target: bytes) -> Query:
    return Query(tid, "find_node", {b"id": node_id, b"target": target})


def get_votes_query(
    tid: bytes, node_id: bytes, target: bytes, no_votes: bool = False
) -> Query:
    args: dict[bytes, object] = {b"id": node_id, b"target": target}
    if no_votes:
        args[b"nv"] = 1
    return Query(tid, "get_votes", args)


def announce_vote_query(
    tid: bytes, node_id: bytes, target: bytes, vote: int, token: bytes
) -> Query:
    return Query(
        tid,
        "announce_vote",
        {b"id": node_id, b"target": target, b"vote": vote, b"token": token},
    )


# ---------------------------------------------------------------------------
# argument checks (server side)


def id_arg(args: dict, key: bytes) -> bytes:
    """The 20-byte id a query carries under key; ProtocolError unless it is one."""
    value = args.get(key)
    if not isinstance(value, bytes):
        raise ProtocolError(f"missing or non-string {key.decode()!r}")
    if len(value) != ID_LENGTH:
        raise ProtocolError(f"{key.decode()!r} must be {ID_LENGTH} bytes, got {len(value)}")
    return value


def response_sketches(values: dict) -> tuple[bytes | None, bytes | None]:
    """The optional vp/vn sketches of get_votes response values, each as
    256 dense register bytes whichever form it came in."""
    out = []
    for key in (b"vp", b"vn"):
        blob = values.get(key)
        if blob is None:
            out.append(None)
        elif isinstance(blob, bytes):
            out.append(_unpack_sketch(blob))
        else:
            raise ProtocolError(f"malformed {key.decode()} sketch")
    return out[0], out[1]
