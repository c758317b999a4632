import random

import pytest

from dhtvote import krpc
from dhtvote.routing import Contact


def rand_id(rng):
    return rng.randbytes(20)


def test_ping_round_trip():
    query = krpc.ping_query(b"aa", b"n" * 20)
    parsed = krpc.decode_message(krpc.encode_message(query))
    assert parsed == query
    reply = krpc.ping_response(b"aa", b"m" * 20)
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
        krpc.validate_query_args(query)


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


def test_validate_rejects_bad_args():
    good_id = b"n" * 20
    with pytest.raises(krpc.ProtocolError):
        krpc.validate_query_args(krpc.Query(b"t", "ping", {}))
    with pytest.raises(krpc.ProtocolError):
        krpc.validate_query_args(
            krpc.Query(b"t", "get_votes", {b"id": good_id, b"target": b"short"})
        )
    for bad_vote in (0, 2, -2, b"1"):
        with pytest.raises(krpc.ProtocolError):
            krpc.validate_query_args(
                krpc.Query(
                    b"t",
                    "announce_vote",
                    {b"id": good_id, b"target": good_id, b"vote": bad_vote, b"token": b"t"},
                )
            )
    with pytest.raises(krpc.ProtocolError) as err:
        krpc.validate_query_args(krpc.Query(b"t", "bogus", {b"id": good_id}))
    assert err.value.code == krpc.METHOD_UNKNOWN


def test_get_votes_response_sketch_extraction():
    values = {b"id": b"n" * 20, b"token": b"tk", b"nodes": b""}
    assert krpc.response_sketches(values) == (None, None)
    values[b"vp"] = b"\x01" * 256
    values[b"vn"] = b"\x00" * 256
    vp, vn = krpc.response_sketches(values)
    assert vp == b"\x01" * 256 and vn == b"\x00" * 256
    values[b"vp"] = b"\x01" * 255
    with pytest.raises(krpc.ProtocolError):
        krpc.response_sketches(values)


def test_get_votes_response_fits_one_datagram():
    rng = random.Random(2)
    contacts = [Contact(rand_id(rng), "203.0.113.7", 6881) for _ in range(8)]
    response = krpc.get_votes_response(
        b"tt",
        rand_id(rng),
        b"k" * 8,
        krpc.pack_contacts(contacts),
        vp=bytes(rng.randrange(34) for _ in range(256)),
        vn=bytes(rng.randrange(34) for _ in range(256)),
    )
    assert len(krpc.encode_message(response)) < 1200
