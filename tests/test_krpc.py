import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhtvote import bencode, krpc
from dhtvote.routing import Contact


def rand_id(rng):
    return rng.randbytes(20)


def test_ping_round_trip():
    query = krpc.ping_query(b"aa", b"n" * 20)
    parsed = krpc.decode_message(krpc.encode_message(query))
    assert parsed == query
    reply = krpc.Response(b"aa", {b"id": b"m" * 20})
    assert krpc.decode_message(krpc.encode_message(reply)) == reply


def test_error_round_trip():
    err = krpc.ErrorMessage(b"xy", 203, "protocol error")
    assert krpc.decode_message(krpc.encode_message(err)) == err


def test_all_query_builders_round_trip():
    rng = random.Random(1)
    queries = [
        krpc.ping_query(b"t0", rand_id(rng)),
        krpc.find_node_query(b"t1", rand_id(rng), rand_id(rng)),
        krpc.get_votes_query(b"t2", rand_id(rng), rand_id(rng)),
        krpc.announce_vote_query(b"t3", rand_id(rng), rand_id(rng), -1, b"token123"),
    ]
    for query in queries:
        assert krpc.decode_message(krpc.encode_message(query)) == query


bencode_values = st.recursive(
    st.integers() | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.binary(max_size=8), children, max_size=4),
    max_leaves=12,
)
bencode_dicts = st.dictionaries(st.binary(max_size=8), bencode_values, max_size=6)
tids = st.binary(min_size=1, max_size=8)
krpc_messages = st.one_of(
    st.builds(krpc.Query, tids, st.text(st.characters(max_codepoint=127), max_size=16), bencode_dicts),
    st.builds(krpc.Response, tids, bencode_dicts),
    st.builds(krpc.ErrorMessage, tids, st.integers(), st.text(max_size=30)),
)


def envelope(message):
    """The message as the one dict that bencodes to its datagram."""
    if isinstance(message, krpc.Query):
        return {b"t": message.tid, b"y": b"q", b"q": message.method.encode(), b"a": message.args}
    if isinstance(message, krpc.Response):
        return {b"t": message.tid, b"y": b"r", b"r": message.values}
    return {b"t": message.tid, b"y": b"e", b"e": [message.code, message.message.encode()]}


@settings(max_examples=300, deadline=None)
@given(krpc_messages)
def test_encode_message_is_the_canonical_bencoding_of_the_envelope(message):
    data = krpc.encode_message(message)
    assert data == bencode.encode(envelope(message))
    assert krpc.decode_message(data) == message


def test_compact_contacts_round_trip():
    contacts = [
        Contact(b"a" * 20, "10.1.2.3", 6881),
        Contact(b"b" * 20, "192.168.0.1", 65535),
    ]
    packed = krpc.pack_contacts(contacts)
    assert len(packed) == 52
    assert krpc.unpack_contacts(packed) == contacts
    with pytest.raises(krpc.ProtocolError):
        krpc.unpack_contacts(packed[:-1])


def test_get_votes_response_sketch_extraction():
    values = {b"id": b"n" * 20, b"token": b"tk", b"nodes": b""}
    assert krpc.response_sketches(values) == (None, None)
    values[b"vp"] = b"\x01" * 256
    values[b"vn"] = b"\x00" * 256
    vp, vn = krpc.response_sketches(values)
    assert vp == b"\x01" * 256 and vn == b"\x00" * 256
    values[b"vp"] = b"\x07\x03"  # sparse: register 7 holds rank 3
    assert krpc.response_sketches(values)[0] == bytes(7) + b"\x03" + bytes(248)
    values[b"vp"] = b""  # sparse and empty
    assert krpc.response_sketches(values)[0] == bytes(256)
    for malformed in (
        b"\x01" * 255,  # odd length
        b"\x01" * 258,  # over 256
        b"\x07\x07\x03\x04",  # index 7 twice
        b"\x07\x08\x03\x00",  # rank 0 at index 8
        12,
    ):
        values[b"vp"] = malformed
        with pytest.raises(krpc.ProtocolError):
            krpc.response_sketches(values)


def dense(registers: dict[int, int]) -> bytes:
    out = bytearray(256)
    for index, rank in registers.items():
        out[index] = rank
    return bytes(out)


def nonzero(count, *, first=0, rank=1):
    return {index: rank for index in range(first, first + count)}


registers_strategy = st.dictionaries(
    st.integers(0, 255), st.integers(1, 255), max_size=256
)


@settings(max_examples=200, deadline=None)
@given(registers_strategy)
@example({})  # the empty sketch
@example(nonzero(127, first=1))  # the largest sparse form: 254 bytes
@example(nonzero(128))  # the smallest count that goes dense
@example(nonzero(127, rank=255))  # register 0 set, every rank 255
@example({0: 1})
@example({255: 255})
@example(nonzero(256, rank=33))
def test_pack_then_response_sketches_is_the_identity(registers):
    packed = krpc.pack_sketch(bytearray(dense(registers)))
    assert type(packed) is bytes
    m = len(registers)
    assert len(packed) == (2 * m if m < 128 else 256)
    if m < 128:  # ascending indices, then their ranks
        assert packed == bytes(sorted(registers)) + bytes(registers[i] for i in sorted(registers))
    assert krpc.response_sketches({b"vp": packed, b"vn": packed}) == (dense(registers),) * 2


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=300))
@example(b"\x00\x00\x01\x01")
@example(b"\x00\x01\x01\x00")
@example(bytes(256))
def test_any_sketch_value_gives_256_registers_or_protocol_error(blob):
    try:
        vp, vn = krpc.response_sketches({b"vp": blob, b"vn": blob})
    except krpc.ProtocolError:
        return
    assert type(vp) is bytes and len(vp) == 256 and vn == vp


def test_get_votes_response_fits_one_datagram():
    rng = random.Random(2)
    contacts = [Contact(rand_id(rng), "203.0.113.7", 6881) for _ in range(8)]
    response = krpc.Response(b"tt", {
        b"id": rand_id(rng),
        b"token": b"k" * 8,
        b"nodes": krpc.pack_contacts(contacts),
        b"vp": bytes(rng.randrange(34) for _ in range(256)),
        b"vn": bytes(rng.randrange(34) for _ in range(256)),
    })
    assert len(krpc.encode_message(response)) < 1200
