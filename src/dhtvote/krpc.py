"""KRPC message formats: ping, find_node, get_votes, announce_vote.

Envelope follows Mainline conventions: a bencoded dict with a transaction
id ``t``, a kind ``y`` (q / r / e), and either ``q``+``a`` (query), ``r``
(response values), or ``e`` (error [code, message]). Contacts travel in
compact form, 26 bytes each: 20-byte id, 4-byte IPv4, 2-byte big-endian
port.

The two voting methods:

  get_votes      args {id, target[, nv]};
                 response {id, token, nodes[, vp, vn]} where vp/vn are the
                 256-byte positive/negative sketches, present only when the
                 responder actually stores votes for the target and the
                 query did not carry ``nv`` = 1 ("no votes", in the style of
                 BEP 33's noseed flag). Any other ``nv`` value counts as
                 absent.
  announce_vote  args {id, target, vote (1 or -1), token};
                 response {id}.

Lookups for the voting methods run with get_votes as the lookup query, the
way BEP 5 runs get_peers: the k closest responders have then already sent
their token and sketches. An announce sends ``nv`` = 1 on its lookup and
then announce_vote with each replica's token; a fetch combines the
sketches of the lookup's k closest responders. A replica that ignores
``nv`` stays compatible, because the announce path ignores sketches.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass, field

from . import bencode
from .routing import ID_LENGTH
from .sketch import REGISTER_COUNT

_COMPACT_CONTACT = struct.Struct("!20s4sH")  # 26 bytes: id, IPv4, port

# Mainline error codes
SERVER_ERROR = 202
PROTOCOL_ERROR = 203
METHOD_UNKNOWN = 204

class ProtocolError(Exception):
    """Invalid message content; maps to a KRPC error reply."""

    def __init__(self, message: str, code: int = PROTOCOL_ERROR):
        super().__init__(message)
        self.code = code


@dataclass
class Query:
    tid: bytes
    method: str
    args: dict[bytes, object] = field(default_factory=dict)


@dataclass
class Response:
    tid: bytes
    values: dict[bytes, object] = field(default_factory=dict)


@dataclass
class ErrorMessage:
    tid: bytes
    code: int
    message: str


KrpcMessage = Query | Response | ErrorMessage


def encode_message(msg: KrpcMessage) -> bytes:
    if isinstance(msg, Query):
        payload = {b"t": msg.tid, b"y": b"q", b"q": msg.method.encode(), b"a": msg.args}
    elif isinstance(msg, Response):
        payload = {b"t": msg.tid, b"y": b"r", b"r": msg.values}
    elif isinstance(msg, ErrorMessage):
        payload = {b"t": msg.tid, b"y": b"e", b"e": [msg.code, msg.message.encode()]}
    else:
        raise TypeError(f"not a KRPC message: {type(msg).__name__}")
    return bencode.encode(payload)


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


def unpack_contacts(data: bytes) -> list[tuple[bytes, str, int]]:
    """Compact node bytes -> list of (id, ip, port)."""
    if len(data) % _COMPACT_CONTACT.size != 0:
        raise ProtocolError("compact node info not a multiple of 26 bytes")
    return [
        (node_id, socket.inet_ntoa(ip), port)
        for node_id, ip, port in _COMPACT_CONTACT.iter_unpack(data)
    ]


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
# response builders


def ping_response(tid: bytes, node_id: bytes) -> Response:
    return Response(tid, {b"id": node_id})


def find_node_response(tid: bytes, node_id: bytes, nodes: bytes) -> Response:
    return Response(tid, {b"id": node_id, b"nodes": nodes})


def get_votes_response(
    tid: bytes,
    node_id: bytes,
    token: bytes,
    nodes: bytes,
    vp: bytes | None = None,
    vn: bytes | None = None,
) -> Response:
    values: dict[bytes, object] = {b"id": node_id, b"token": token, b"nodes": nodes}
    if vp is not None:
        values[b"vp"] = vp
    if vn is not None:
        values[b"vn"] = vn
    return Response(tid, values)


def announce_vote_response(tid: bytes, node_id: bytes) -> Response:
    return Response(tid, {b"id": node_id})


# ---------------------------------------------------------------------------
# argument validation (server side)


def _require_bytes(args: dict, key: bytes, length: int | None = None) -> bytes:
    value = args.get(key)
    if not isinstance(value, bytes):
        raise ProtocolError(f"missing or non-string {key.decode()!r}")
    if length is not None and len(value) != length:
        raise ProtocolError(
            f"{key.decode()!r} must be {length} bytes, got {len(value)}"
        )
    return value


def validate_query_args(query: Query) -> dict[str, object]:
    """Check a query's arguments; returns the typed fields it carries."""
    args = query.args
    fields: dict[str, object] = {"id": _require_bytes(args, b"id", ID_LENGTH)}
    if query.method == "ping":
        return fields
    if query.method == "find_node":
        fields["target"] = _require_bytes(args, b"target", ID_LENGTH)
        return fields
    if query.method == "get_votes":
        fields["target"] = _require_bytes(args, b"target", ID_LENGTH)
        fields["no_votes"] = args.get(b"nv") == 1
        return fields
    if query.method == "announce_vote":
        fields["target"] = _require_bytes(args, b"target", ID_LENGTH)
        vote = args.get(b"vote")
        if not isinstance(vote, int) or vote not in (1, -1):
            raise ProtocolError("vote must be 1 or -1")
        fields["vote"] = vote
        token = args.get(b"token")
        if not isinstance(token, bytes) or not token:
            raise ProtocolError("missing announce token")
        fields["token"] = token
        return fields
    raise ProtocolError(f"unknown method {query.method!r}", METHOD_UNKNOWN)


def response_sketches(values: dict) -> tuple[bytes | None, bytes | None]:
    """Extract the optional vp/vn sketch bytes from get_votes response values."""
    out = []
    for key in (b"vp", b"vn"):
        blob = values.get(key)
        if blob is None:
            out.append(None)
        elif isinstance(blob, bytes) and len(blob) == REGISTER_COUNT:
            out.append(blob)
        else:
            raise ProtocolError(f"malformed {key.decode()} sketch")
    return out[0], out[1]
