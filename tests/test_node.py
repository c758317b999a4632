import fcntl
import itertools
import os
import random
import stat
import sys
import threading
import time
from hashlib import sha1

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhtvote import krpc, store
from dhtvote.client import fetch_votes
from dhtvote.node import (
    LOOKUP_QUERIES_PER_K, MAX_K, REANNOUNCE_SECONDS, SILENT_SECONDS, Journal, LocalVote, NodeConfig, TokenIssuer, VoteNode, compact_address,
    vote_key,
)
from dhtvote.routing import Contact, distance
from dhtvote.sim import ScenarioConfig, SimWorld
from dhtvote.sketch import MAX_RANK, REGISTER_COUNT
from dhtvote.store import Polarity

from conftest import FakeClock, NullTransport, make_test_node, table_contact

SOURCE = ("198.51.100.7", 40000)
TARGET = b"T" * 20
SENDER_ID = b"s" * 20


def send(node, query, source=SOURCE):
    raw = node.handle_datagram(krpc.encode_message(query), source)
    assert raw is not None
    return krpc.decode_message(raw)


def get_token(node, source=SOURCE, target=TARGET):
    query = krpc.Query(b"t1", "get_votes", {b"id": SENDER_ID, b"target": target})
    reply = send(node, query, source)
    assert isinstance(reply, krpc.Response)
    return reply.values[b"token"]


def announce(token, sender=SENDER_ID):
    """An announce_vote query of a +1 vote on TARGET."""
    args = {b"id": sender, b"target": TARGET, b"vote": 1, b"token": token}
    return krpc.Query(b"av", "announce_vote", args)


# ---------------------------------------------------------------------------
# tokens


def test_token_bound_to_address_and_secret():
    clock = FakeClock()
    issuer = TokenIssuer(clock, random.Random(0).randbytes)
    token = issuer.issue(SOURCE)
    assert len(token) == 8
    assert issuer.valid(token, SOURCE)
    assert not issuer.valid(token, ("198.51.100.8", 40000))
    assert not issuer.valid(token, ("198.51.100.7", 40001))
    assert not issuer.valid(b"x" * 8, SOURCE)


def test_token_expires_after_two_rotations():
    clock = FakeClock()
    issuer = TokenIssuer(clock, random.Random(0).randbytes)
    token = issuer.issue(SOURCE)
    clock.advance(299)
    assert issuer.valid(token, SOURCE)
    clock.advance(300)  # previous secret still covers it
    assert issuer.valid(token, SOURCE)
    clock.advance(300)
    assert not issuer.valid(token, SOURCE)


def test_compact_address_layout():
    assert compact_address(("1.2.3.4", 0x1234)) == b"\x01\x02\x03\x04\x12\x34"


def test_node_id_must_be_20_bytes(clock):
    with pytest.raises(ValueError, match="20 bytes"):
        VoteNode(NodeConfig(), NullTransport(), clock=clock, node_id=b"short")


@pytest.mark.parametrize("name, value", [
    ("query_timeout", 0), ("query_timeout", -1.0), ("query_timeout", float("nan")),
    ("query_timeout", float("inf")), ("query_timeout", True), ("query_timeout", "2"),
    ("query_retries", -1), ("query_retries", 1.5), ("query_retries", True),
])
def test_config_rejects_bad_transport_settings(name, value):
    with pytest.raises(ValueError, match=name):
        NodeConfig(**{name: value})
    NodeConfig(query_timeout=1, query_retries=0)  # the least values allowed


def fullest_get_votes_reply(k):
    """The largest get_votes reply a node sends: k contacts, two dense
    sketches, an 8-byte token and a 2-byte tid."""
    contacts = [Contact(bytes([i]) * 20, "255.255.255.255", 65535) for i in range(k)]
    dense = krpc.pack_sketch(bytes([MAX_RANK]) * REGISTER_COUNT)
    nodes = krpc.pack_contacts(contacts)
    reply = krpc.Response(
        b"tt", {b"id": b"n" * 20, b"token": b"k" * 8, b"nodes": nodes, b"vp": dense, b"vn": dense}
    )
    return krpc.encode_message(reply)


def test_k_is_bounded_so_the_fullest_get_votes_reply_fits_one_datagram():
    assert len(fullest_get_votes_reply(MAX_K)) <= krpc.MAX_DATAGRAM
    assert len(fullest_get_votes_reply(MAX_K + 1)) > krpc.MAX_DATAGRAM
    NodeConfig(k=MAX_K)
    with pytest.raises(ValueError, match=f"at most {MAX_K}"):
        NodeConfig(k=MAX_K + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_K}"):
        ScenarioConfig(k=MAX_K + 1)


# ---------------------------------------------------------------------------
# query handling


def test_ping_and_routing_refresh(clock):
    node = make_test_node(clock)
    reply = send(node, krpc.Query(b"aa", "ping", {b"id": SENDER_ID}))
    assert isinstance(reply, krpc.Response)
    assert reply.tid == b"aa"
    assert reply.values == {b"id": node.node_id}
    refreshed = table_contact(node.routing, SENDER_ID)
    assert refreshed is not None and refreshed.address == SOURCE


def test_find_node_returns_closest(clock):
    node = make_test_node(clock)
    rng = random.Random(1)
    for n in range(30):
        send(
            node,
            krpc.Query(b"pp", "ping", {b"id": rng.randbytes(20)}),
            (f"10.9.0.{n}", 6881),
        )
    reply = send(node, krpc.Query(b"fn", "find_node", {b"id": SENDER_ID, b"target": TARGET}))
    assert reply.values.keys() == {b"id", b"nodes"} and reply.values[b"id"] == node.node_id
    nodes = krpc.unpack_contacts(reply.values[b"nodes"])
    expected = [c.id for c in node.routing.closest(TARGET)]
    assert [n.id for n in nodes] == expected
    assert len(reply.values[b"nodes"]) % 26 == 0


def test_get_votes_without_data_has_no_sketches(clock):
    node = make_test_node(clock)
    reply = send(node, krpc.Query(b"gv", "get_votes", {b"id": SENDER_ID, b"target": TARGET}))
    assert reply.values.keys() == {b"id", b"nodes", b"token"}
    assert reply.values[b"id"] == node.node_id


def test_announce_then_get_votes_round_trip(clock):
    node = make_test_node(clock)
    token = get_token(node)
    reply = send(node, announce(token))
    assert isinstance(reply, krpc.Response)
    assert reply.values == {b"id": node.node_id}
    reply = send(node, krpc.Query(b"g2", "get_votes", {b"id": SENDER_ID, b"target": TARGET}))
    vp, vn = krpc.response_sketches(reply.values)
    assert sum(1 for b in vp if b) == 1  # one voter IP, one register
    assert vn == bytes(256)


def test_vote_recorded_against_source_ip_not_claimed_id(clock):
    node = make_test_node(clock)
    for fake_sender in (b"p" * 20, b"q" * 20):  # same IP, different claimed ids
        token = get_token(node)
        send(node, announce(token, fake_sender))
    positive, _ = node.store.aggregate(TARGET, clock())
    assert round(positive.estimate()) == 1


def test_announce_same_ip_twice_counts_once(clock):
    node = make_test_node(clock)
    for _ in range(2):
        token = get_token(node)
        send(node, announce(token))
    positive, _ = node.store.aggregate(TARGET, clock())
    assert round(positive.estimate()) == 1


def test_token_for_other_source_rejected(clock):
    node = make_test_node(clock)
    token = get_token(node, source=("203.0.113.9", 1234))
    reply = send(node, announce(token))
    assert isinstance(reply, krpc.ErrorMessage)
    assert (reply.code, reply.message) == (krpc.PROTOCOL_ERROR, "invalid or expired token")
    assert node.store.aggregate(TARGET, clock())[0].is_empty()
    # well-formed arguments put the sender in the table before its token is checked
    assert table_contact(node.routing, SENDER_ID).address == SOURCE


def test_stale_token_rejected(clock):
    node = make_test_node(clock)
    token = get_token(node)
    clock.advance(601)  # two rotations
    reply = send(node, announce(token))
    assert isinstance(reply, krpc.ErrorMessage) and reply.code == 203
    assert node.store.aggregate(TARGET, clock())[0].is_empty()


def test_invalid_vote_value_rejected(clock):
    node = make_test_node(clock)
    token = get_token(node)
    query = krpc.Query(
        b"av",
        "announce_vote",
        {b"id": SENDER_ID, b"target": TARGET, b"vote": 2, b"token": token},
    )
    reply = send(node, query)
    assert isinstance(reply, krpc.ErrorMessage) and reply.code == 203


def test_queries_carrying_the_nodes_own_id_are_answered_and_not_inserted(clock):
    node = make_test_node(clock)
    own = node.node_id
    get_votes = {b"id": own, b"target": TARGET}
    token = send(node, krpc.Query(b"t0", "get_votes", get_votes)).values[b"token"]
    replies = [send(node, query) for query in (
        krpc.Query(b"t1", "ping", {b"id": own}),
        krpc.Query(b"t2", "find_node", {b"id": own, b"target": TARGET}),
        krpc.Query(b"t3", "get_votes", get_votes),
        krpc.Query(b"t4", "announce_vote", {**get_votes, b"vote": 1, b"token": token}),
    )]
    assert all(isinstance(reply, krpc.Response) for reply in replies)
    assert [reply.values[b"id"] for reply in replies] == [own] * 4
    assert round(node.store.aggregate(TARGET, clock())[0].estimate()) == 1
    assert len(node.routing) == 0


def test_unknown_method_yields_204(clock):
    node = make_test_node(clock)
    reply = send(node, krpc.Query(b"zz", "get_peers", {b"id": SENDER_ID}))
    assert isinstance(reply, krpc.ErrorMessage) and reply.code == 204


def test_a_query_of_each_method_passes_the_argument_checks(clock):
    node = make_test_node(clock)
    rng = random.Random(1)
    ids = [rng.randbytes(20) for _ in range(7)]
    replies = [send(node, query) for query in (
        krpc.Query(b"t0", "ping", {b"id": ids[0]}),
        krpc.Query(b"t1", "find_node", {b"id": ids[1], b"target": ids[2]}),
        krpc.Query(b"t2", "get_votes", {b"id": ids[3], b"target": ids[4]}),
        krpc.Query(b"t3", "announce_vote",
                   {b"id": ids[5], b"target": ids[6], b"vote": -1, b"token": b"token123"}),
    )]
    assert all(isinstance(reply, krpc.Response) for reply in replies[:3])
    # the announce's arguments pass; only its made-up token is refused
    assert (replies[3].code, replies[3].message) == (203, "invalid or expired token")


def test_malformed_query_gets_its_error_and_leaves_the_table_empty(clock):
    node = make_test_node(clock)
    announce = {b"id": SENDER_ID, b"target": TARGET, b"vote": 1, b"token": b"t"}
    no_token = {key: value for key, value in announce.items() if key != b"token"}
    cases = [
        ("ping", {}, 203, "missing or non-string 'id'"),
        ("ping", {b"id": b"short"}, 203, "'id' must be 20 bytes, got 5"),
        ("find_node", {b"id": SENDER_ID}, 203, "missing or non-string 'target'"),
        ("get_votes", {b"id": SENDER_ID, b"target": b"short"}, 203, "'target' must be 20 bytes, got 5"),
        ("announce_vote", {**announce, b"target": b"short"}, 203, "'target' must be 20 bytes, got 5"),
        *[("announce_vote", {**announce, b"vote": vote}, 203, "vote must be 1 or -1")
          for vote in (0, 2, -2, b"1")],
        ("announce_vote", no_token, 203, "missing announce token"),
        ("announce_vote", {**announce, b"token": b""}, 203, "missing announce token"),
        ("bogus", {b"id": SENDER_ID}, 204, "unknown method 'bogus'"),
    ]
    for method, args, code, message in cases:
        reply = send(node, krpc.Query(b"t", method, args))
        assert isinstance(reply, krpc.ErrorMessage)
        assert (reply.tid, reply.code, reply.message) == (b"t", code, message)
        assert len(node.routing) == 0


_bencode_values = st.recursive(
    st.binary(max_size=24) | st.binary(min_size=20, max_size=20)
    | st.integers(-2, 2) | st.integers(-2**70, 2**70),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.binary(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["ping", "find_node", "get_votes", "announce_vote", "get_peers"]),
    st.fixed_dictionaries({key: st.none() | _bencode_values  # None: the key is absent
                           for key in (b"id", b"target", b"vote", b"token", b"nv")}),
)
@example("announce_vote", {b"id": SENDER_ID, b"target": TARGET, b"vote": -1, b"token": b"x", b"nv": None})
@example("get_votes", {b"id": SENDER_ID, b"target": TARGET, b"vote": None, b"token": None, b"nv": 1})
def test_any_query_arguments_get_a_response_or_a_203_or_204(method, args):
    node = make_test_node(FakeClock())
    query = krpc.Query(b"hq", method, {key: value for key, value in args.items() if value is not None})
    reply = send(node, query)
    assert isinstance(reply, krpc.Response) or reply.code in (203, 204)


def test_get_votes_with_nv_omits_sketches(clock):
    node = make_test_node(clock)
    node.store.record(TARGET, Polarity.POSITIVE, b"\x0a\x00\x00\x01", clock())
    args = {b"id": SENDER_ID, b"target": TARGET}
    full = send(node, krpc.Query(b"g1", "get_votes", args))
    assert full.values.keys() == {b"id", b"nodes", b"token", b"vp", b"vn"}
    bare = send(node, krpc.Query(b"g2", "get_votes", {**args, b"nv": 1}))
    assert bare.values.keys() == {b"id", b"token", b"nodes"}
    assert bare.values[b"token"] == full.values[b"token"]


@pytest.mark.parametrize("value", [b"1", [1], {b"nv": 1}, 2**70, 0])
def test_get_votes_with_other_nv_values_acts_as_without(clock, value):
    node = make_test_node(clock)
    node.store.record(TARGET, Polarity.POSITIVE, b"\x0a\x00\x00\x01", clock())
    query = krpc.Query(
        b"gv", "get_votes", {b"id": SENDER_ID, b"target": TARGET, b"nv": value}
    )
    reply = send(node, query)
    assert isinstance(reply, krpc.Response)
    assert b"token" in reply.values and b"vp" in reply.values


def test_handler_that_raises_gives_a_server_error(clock, monkeypatch):
    node = make_test_node(clock)

    def handle_query(query, source):
        raise RuntimeError("bug")

    monkeypatch.setattr(node, "handle_query", handle_query)
    reply = send(node, krpc.Query(b"aa", "ping", {b"id": SENDER_ID}))
    assert isinstance(reply, krpc.ErrorMessage)
    assert (reply.tid, reply.code) == (b"aa", krpc.SERVER_ERROR)


def test_handler_drops_garbage_and_responses(clock):
    node = make_test_node(clock)
    assert node.handle_datagram(b"\xff\x00garbage", SOURCE) is None
    assert node.handle_datagram(b"", SOURCE) is None
    unsolicited = krpc.encode_message(krpc.Response(b"t", {b"id": SENDER_ID}))
    assert node.handle_datagram(unsolicited, SOURCE) is None


# ---------------------------------------------------------------------------
# local votes and the journal


def test_cast_vote_once_only(clock):
    node = make_test_node(clock)
    info_hash = b"h" * 20
    assert node.cast_vote(info_hash, Polarity.POSITIVE) == "accepted"
    assert node.cast_vote(info_hash, Polarity.POSITIVE) == "already-voted"
    assert node.cast_vote(info_hash, Polarity.NEGATIVE) == "already-voted"
    assert len(node.local_votes) == 1
    with pytest.raises(ValueError, match="info-hash must be 20 bytes"):
        node.cast_vote(b"h" * 19, Polarity.POSITIVE)
    assert len(node.local_votes) == 1


def test_journal_round_trip(tmp_path):
    journal = Journal(tmp_path)
    votes = [
        LocalVote(b"a" * 20, Polarity.POSITIVE, 1700000000),
        LocalVote(b"b" * 20, Polarity.NEGATIVE, 1700000001),
    ]
    for vote in votes:
        journal.append(vote)
    lines = (tmp_path / "votes.log").read_text().splitlines()
    assert lines[0] == f"{'61' * 20},+1,1700000000"
    assert Journal(tmp_path).load() == votes


def test_journal_append_is_durable(tmp_path, monkeypatch):
    journal = Journal(tmp_path)
    synced = []

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            synced.append("dir")
        else:  # the line must already have left the file object's buffer
            synced.append(len(journal.path.read_text().splitlines()))

    monkeypatch.setattr(os, "fsync", fsync)
    journal.append(LocalVote(b"a" * 20, Polarity.POSITIVE, 1700000000))
    journal.append(LocalVote(b"b" * 20, Polarity.NEGATIVE, 1700000001))
    # the append that creates the file also syncs the directory naming it
    assert synced == [1, "dir", 2]


def test_vote_appended_after_a_torn_tail_survives_load(tmp_path):
    journal = Journal(tmp_path)
    journal.path.write_text(f"{'aa' * 20},+1,100\n{'bb' * 20},-")  # crash mid-write
    journal.append(LocalVote(b"c" * 20, Polarity.NEGATIVE, 1700000000))
    assert [(v.info_hash, v.polarity) for v in Journal(tmp_path).load()] == [
        (b"\xaa" * 20, Polarity.POSITIVE),
        (b"c" * 20, Polarity.NEGATIVE),
    ]


def test_journal_first_record_wins_and_bad_lines_skipped(tmp_path):
    path = tmp_path / "votes.log"
    path.write_text(
        f"{'aa' * 20},+1,100\n"
        f"{'aa' * 20},-1,200\n"  # duplicate: first wins
        f"{'bb' * 19}b,-1,300\n"  # 39-char hash
        f"{' '.join(['ab'] * 13):<40},+1,1700000000\n"  # 40 chars, 13 bytes
        "not,a,line,at,all\n"
        f"{'zz' * 20},+1,100\n"  # 40 chars, not hex
        f"{'cc' * 20},-1,400\n"
        f"{'ee' * 20},+2,100\n"  # a sign other than +1 or -1
        f"{'ee' * 20},-1,-100\n"  # a negative stamp
        "\n"
        f"{'DD' * 20},+1,500\n"  # upper-case hex is kept
    )
    votes = Journal(tmp_path).load()
    assert [(v.info_hash[:1], v.polarity, v.created_at) for v in votes] == [
        (b"\xaa", Polarity.POSITIVE, 100),
        (b"\xcc", Polarity.NEGATIVE, 400),
        (b"\xdd", Polarity.POSITIVE, 500),
    ]


def test_restart_preserves_votes_and_blocks_revote(tmp_path, clock):
    node = make_test_node(clock, state_dir=str(tmp_path))
    info_hash = b"d" * 20
    node.cast_vote(info_hash, Polarity.NEGATIVE)
    del node
    reloaded = make_test_node(clock, state_dir=str(tmp_path), seed=99)
    assert reloaded.cast_vote(info_hash, Polarity.POSITIVE) == "already-voted"
    assert reloaded.local_votes[info_hash].polarity == Polarity.NEGATIVE


def test_second_node_on_one_state_dir_cannot_cast_again(tmp_path, clock):
    """Two processes on one state dir, both started before either casts."""
    first = make_test_node(clock, state_dir=str(tmp_path))
    second = make_test_node(clock, state_dir=str(tmp_path), seed=99)
    info_hash = b"d" * 20
    assert first.cast_vote(info_hash, Polarity.POSITIVE) == "accepted"
    assert second.cast_vote(info_hash, Polarity.NEGATIVE) == "already-voted"
    assert len((tmp_path / "votes.log").read_text().splitlines()) == 1
    assert second.local_votes[info_hash].polarity == Polarity.POSITIVE


def test_cast_waits_for_the_journal_lock(tmp_path, clock):
    node = make_test_node(clock, state_dir=str(tmp_path))
    verdicts = []
    cast = threading.Thread(
        target=lambda: verdicts.append(node.cast_vote(b"d" * 20, Polarity.POSITIVE))
    )
    with open(node.journal.path, "ab") as held:  # as another process would
        fcntl.flock(held.fileno(), fcntl.LOCK_EX)
        cast.start()
        cast.join(timeout=0.3)
        assert cast.is_alive() and verdicts == []
        assert node.journal.path.read_text() == ""
    cast.join(timeout=5.0)
    assert not cast.is_alive()
    assert verdicts == ["accepted"]
    assert len(node.journal.load()) == 1


def test_reload_journal_takes_in_votes_only_from_a_changed_file(tmp_path, clock, monkeypatch):
    node = make_test_node(clock, state_dir=str(tmp_path))
    other = make_test_node(clock, state_dir=str(tmp_path), seed=99)  # a second process
    node.cast_vote(b"d" * 20, Polarity.NEGATIVE)
    other.cast_vote(b"e" * 20, Polarity.POSITIVE)
    node.reload_journal()
    assert set(node.local_votes) == {b"d" * 20, b"e" * 20}
    loads = []
    monkeypatch.setattr(Journal, "load", lambda journal: loads.append(journal) or [])
    node.reload_journal()
    assert loads == []


def test_vote_key_is_sha1_of_infohash():
    info_hash = b"e" * 20
    assert vote_key(info_hash) == sha1(info_hash).digest()


# ---------------------------------------------------------------------------
# client side: replies, lookups and announce rounds


class StubTransport:
    """Answers every query with ``{id: reply}`` and any other ``values``."""

    def __init__(self, reply, values=None):
        self.reply = reply
        self.values = values or {}

    def request(self, address, data, kind):
        query = krpc.decode_message(data)
        return krpc.encode_message(
            krpc.Response(query.tid, {b"id": self.reply, **self.values})
        )


class RawTransport:
    """Answers every query with the same bytes."""

    def __init__(self, raw):
        self.raw = raw

    def request(self, address, data, kind):
        return self.raw


def test_send_query_takes_only_a_response_to_its_own_tid(clock):
    """A Response to its own tid counts only if it names a well-formed id other than ours."""
    node = VoteNode(NodeConfig(), NullTransport(), clock=clock, node_id=b"\x01" * 20,
                    rand_bytes=lambda n: b"pq" if n == 2 else bytes(n))  # every tid is b"pq"
    for raw in (
        b"\xffgarbage",
        krpc.encode_message(krpc.ErrorMessage(b"pq", krpc.SERVER_ERROR, "internal error")),
        krpc.encode_message(krpc.Response(b"xx", {b"id": SENDER_ID})),
        *(krpc.encode_message(krpc.Response(b"pq", values)) for values in (
            {b"id": node.node_id}, {b"id": SENDER_ID[:19]}, {}, {b"id": 7},
        )),
    ):
        node.transport = RawTransport(raw)
        assert node.send_query(SOURCE, "ping", {}) is None
    node.transport = RawTransport(krpc.encode_message(krpc.Response(b"pq", {b"id": SENDER_ID})))
    assert node.send_query(SOURCE, "ping", {}).values == {b"id": SENDER_ID}


def test_reply_without_well_formed_nodes_is_not_a_responder(clock):
    node = make_test_node(clock)
    peer = Contact(b"p" * 20, "10.0.0.12", 6881)
    node.routing.insert(peer)
    # k + 1 whole contacts and a stray byte: the first k alone would be well formed
    overlong = krpc.pack_contacts(
        Contact(bytes([i]) * 20, "10.0.1.1", 6881) for i in range(node.config.k + 1)
    ) + b"x"
    for values in ({}, {b"nodes": b"x" * 25}, {b"nodes": overlong}):
        node.transport = StubTransport(peer.id, values)
        assert node.lookup(TARGET) == []
    ours = Contact(node.node_id, "10.0.0.1", 6881)
    # no contacts, or only ones the lookup has already seen (the peer, and us)
    for nodes in (b"", krpc.pack_contacts([peer, ours])):
        node.transport = StubTransport(peer.id, {b"nodes": nodes})
        assert [contact.id for contact in node.lookup(TARGET)] == [peer.id]


def test_announce_round_sends_no_announce_vote_without_a_token(clock):
    node = make_test_node(clock)
    info_hash = b"h" * 20
    node.cast_vote(info_hash, Polarity.POSITIVE)
    assert node.announce_round() == {info_hash: []}  # the lookup failed: no contact
    peer = Contact(b"p" * 20, "10.0.0.12", 6881)
    node.routing.insert(peer)
    recorder = node.transport = Recorder(StubTransport(peer.id, {b"nodes": b""}))
    report = node.announce_round()
    assert [(contact.id, ok) for contact, ok in report[info_hash]] == [(peer.id, False)]
    assert [query.method for _, query, _ in recorder.sent] == ["get_votes"]


def test_reply_from_another_id_replaces_the_expected_one(clock):
    node = make_test_node(clock)
    old, new = b"o" * 20, b"n" * 20
    contact = Contact(old, "10.0.0.9", 6881)
    node.routing.insert(contact)
    node.transport = StubTransport(new)
    assert node._query_contact(contact, "ping", {}) is None
    assert table_contact(node.routing, old) is None
    assert table_contact(node.routing, new).address == contact.address
    assert node._silent == {}  # the address answered
    for bad in (b"short", node.node_id):  # no usable reply: dropped and marked silent
        node.transport = StubTransport(bad)
        fresh = Contact(b"f" * 20, "10.0.0.10", 6881)
        node.routing.insert(fresh)
        assert node._query_contact(fresh, "ping", {}) is None
        assert table_contact(node.routing, fresh.id) is None
        assert node._silent == {fresh.id: clock()}


def test_a_contact_that_times_out_is_dropped_and_marked_silent(clock):
    node = make_test_node(clock)  # its NullTransport never gets a reply
    dead = Contact(b"d" * 20, "10.0.0.13", 6881)
    node.routing.insert(dead)
    assert node._query_contact(dead, "ping", {}) is None
    assert table_contact(node.routing, dead.id) is None
    assert node._silent == {dead.id: clock()}


def test_concurrent_timeouts_leave_silent_consistent_and_bounded():
    """Eight threads each see 400 distinct ids time out, on a clock that
    ticks one second per read; only the marks of the last SILENT_SECONDS
    remain."""
    ticks = itertools.count(1_000_000)
    node = VoteNode(NodeConfig(), NullTransport(), clock=lambda: float(next(ticks)),
                    node_id=b"\x01" * 20)
    marked = [[bytes([2 + t]) + n.to_bytes(19, "big") for n in range(400)] for t in range(8)]
    errors = []

    def mark_all(ids):
        try:
            for node_id in ids:
                contact = Contact(node_id, "10.0.0.1", 6881)
                node.routing.insert(contact)
                assert node._query_contact(contact, "ping", {}) is None
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=mark_all, args=(ids,)) for ids in marked]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # every timeout read the clock once, under the lock: the last one
    # forgot all marks but those of its own SILENT_SECONDS, one per second
    stamps = list(node._silent.values())
    assert stamps == list(range(int(stamps[-1]) - SILENT_SECONDS + 1, int(stamps[-1]) + 1))
    assert set(node._silent) <= {node_id for ids in marked for node_id in ids}
    assert len(node.routing) == 0  # every contact that timed out was dropped


def test_ping_address_takes_only_a_well_formed_foreign_id(clock):
    node = make_test_node(clock)
    address = ("10.0.0.11", 6881)
    for bad in (b"short", node.node_id):
        node.transport = StubTransport(bad)
        assert node._ping_address(address) is None
    assert len(node.routing) == 0
    node.transport = StubTransport(b"p" * 20)
    probe = node._ping_address(address)
    assert probe.id == b"p" * 20 and probe.address == address
    assert table_contact(node.routing, probe.id) is probe


def test_lookup_after_churn_returns_no_departed_ids():
    """A rejoined node keeps its address under a new id; lookups must not
    keep crediting its replies to the departed id."""
    world = SimWorld(
        ScenarioConfig(seed=5, node_count=100, document_count=0,
                       positive_voters=0, negative_voters=0, churn_rate=0.2)
    )
    world.build()
    world.time = 3600.0
    world.churn()
    live = {peer.node.node_id for peer in world.peers}
    observer = world.make_observer()
    rng = random.Random(55)
    departed = 0
    for _ in range(100):
        found = observer.lookup(rng.randbytes(20))
        assert len(found) == 8
        departed += sum(contact.id not in live for contact in found)
    assert departed == 0


class Recorder:
    """Transport wrapper that keeps every query sent and its raw reply."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []  # (address, Query, reply bytes or None)

    def request(self, address, data, kind):
        reply = self.inner.request(address, data, kind)
        self.sent.append((address, krpc.decode_message(data), reply))
        return reply

    def queries(self) -> set[tuple]:
        """(address, datagram) of each query, once: a retry resends the same bytes."""
        return {(address, krpc.encode_message(query)) for address, query, _ in self.sent}


class OnePeer:
    """Answers queries at one contact's address only, naming the same nodes."""

    def __init__(self, peer, nodes):
        self.peer, self.nodes = peer, nodes

    def request(self, address, data, kind):
        if address != self.peer.address:
            return None
        query = krpc.decode_message(data)
        return krpc.encode_message(krpc.Response(
            query.tid, {b"id": self.peer.id, b"token": b"t" * 8, b"nodes": self.nodes}
        ))


class Server:
    """Delivers every query to one node's handle_datagram, from SOURCE."""

    def __init__(self, node):
        self.node = node

    def request(self, address, data, kind):
        return self.node.handle_datagram(data, SOURCE)


def test_the_node_sends_each_query_with_exactly_its_arguments(clock):
    server = make_test_node(clock, seed=1)
    node = make_test_node(clock, bootstrap=[("10.0.0.20", 6881)])
    recorder = node.transport = Recorder(Server(server))
    assert [contact.id for contact in node.lookup(TARGET)] == [server.node_id]  # pings first
    [replica] = node.get_votes_lookup(TARGET)
    node.get_votes_lookup(TARGET, no_votes=True)
    assert node.announce_vote_to(replica, TARGET, -1)
    own = {b"id": node.node_id}
    token = replica[1].values[b"token"]
    assert [(query.method, query.args) for _, query, _ in recorder.sent] == [
        ("ping", own),
        ("find_node", {**own, b"target": TARGET}),
        ("get_votes", {**own, b"target": TARGET}),
        ("get_votes", {**own, b"target": TARGET, b"nv": 1}),
        ("announce_vote", {**own, b"target": TARGET, b"vote": -1, b"token": token}),
    ]
    assert all(isinstance(krpc.decode_message(raw), krpc.Response) for _, _, raw in recorder.sent)


class TidChecker:
    """Fails any request whose tid another pending request holds."""

    def __init__(self):
        self.pending, self.clashes, self.lock = set(), [], threading.Lock()

    def request(self, address, data, kind):
        tid = krpc.decode_message(data).tid
        with self.lock:
            if tid in self.pending:
                self.clashes.append(tid)
            self.pending.add(tid)
        time.sleep(0)  # let another request start while this one is pending
        with self.lock:
            self.pending.discard(tid)
        return None


def test_concurrent_queries_never_hold_one_tid(clock):
    """Eight threads on two cores draw tids from 16 values; none is pending twice."""
    rng = random.Random(4)
    node = VoteNode(NodeConfig(), TidChecker(), clock=clock, node_id=b"\x01" * 20,
                    rand_bytes=lambda n: bytes([0, rng.randrange(16)]) if n == 2 else bytes(n))

    def ping_many():
        for _ in range(300):
            node.send_query(SOURCE, "ping", {})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ping_many) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert node.transport.clashes == [] and node._tids == {}


def test_one_reply_adds_at_most_k_contacts_to_a_lookup(clock):
    """ROADMAP item 13: a get_votes reply that names 70 contacts nearer the
    key, at addresses nobody serves, gets at most k of them queried."""
    node = make_test_node(clock)
    peer = Contact(b"p" * 20, "10.0.0.12", 6881)
    node.routing.insert(peer)
    unserved = [Contact(TARGET[:18] + n.to_bytes(2, "big"), "10.1.0.%d" % n, 6881)
                for n in range(1, 71)]
    recorder = node.transport = Recorder(OnePeer(peer, krpc.pack_contacts(unserved)))
    replicas = node.get_votes_lookup(TARGET)
    assert [contact.id for contact, _ in replicas] == [peer.id]
    queried = [address for address, _ in recorder.queries() if address != peer.address]
    assert 0 < len(queried) <= node.config.k


class Lure:
    """One attacker that answers at every address it has named, with the id
    it named there, and names 8 new contacts nearer the target in each reply.

    A new contact's distance is one step of 2^16 nearer, plus a serial
    number in the low 16 bits that keeps every id new. The stub stops
    answering after ``cap`` requests, so a lookup that follows the lure
    fails the test instead of running on.
    """

    def __init__(self, target, cap=2000):
        self.target = int.from_bytes(target, "big")
        self.ids = {}
        self.requests, self.cap = 0, cap

    def contact(self, distance_to_target):
        port = 1024 + len(self.ids)
        node_id = (distance_to_target ^ self.target).to_bytes(20, "big")
        self.ids[("10.9.0.1", port)] = node_id
        return Contact(node_id, "10.9.0.1", port)

    def request(self, address, data, kind):
        self.requests += 1
        if self.requests > self.cap:
            return None
        node_id = self.ids[address]
        step = ((int.from_bytes(node_id, "big") ^ self.target) >> 16) - 1
        nearer = [self.contact(step << 16 | len(self.ids)) for _ in range(8)]
        return krpc.encode_message(krpc.Response(
            krpc.decode_message(data).tid,
            {b"id": node_id, b"token": b"t" * 8, b"nodes": krpc.pack_contacts(nearer)},
        ))


def test_a_lure_gets_at_most_the_query_budget(clock):
    """ROADMAP item 13: every reply names 8 new contacts nearer the key, all
    served by one attacker. One fetch sends LOOKUP_QUERIES_PER_K × k
    queries, stops, and combines the k nearest responders so far."""
    node = make_test_node(clock)
    info_hash = b"\x42" * 20
    lure = Lure(vote_key(info_hash))
    node.routing.insert(lure.contact(1 << 150))
    recorder = node.transport = Recorder(lure)
    result = fetch_votes(node, info_hash)
    budget = LOOKUP_QUERIES_PER_K * node.config.k
    assert lure.requests == len(recorder.queries()) == budget
    assert result.responders == node.config.k
    assert (result.positive_count, result.negative_count) == (0, 0)


def test_lookups_send_a_silent_id_nothing_for_silent_seconds(clock):
    """A reply names a dead contact nearer the target than the one live
    peer; after its first timeout, lookups skip it until SILENT_SECONDS
    have passed, then query it again."""
    node = make_test_node(clock)
    peer = Contact(b"p" * 20, "10.0.0.12", 6881)
    dead = Contact(TARGET[:19] + b"d", "10.0.0.13", 6881)
    node.routing.insert(peer)
    recorder = node.transport = Recorder(OnePeer(peer, krpc.pack_contacts([peer, dead])))

    def queries_to_dead_in_one_lookup():
        recorder.sent.clear()
        assert [contact.id for contact in node.lookup(TARGET)] == [peer.id]
        return sum(address == dead.address for address, _ in recorder.queries())

    assert queries_to_dead_in_one_lookup() == 1
    assert node._silent == {dead.id: clock()}
    clock.advance(SILENT_SECONDS - 1)
    assert queries_to_dead_in_one_lookup() == 0
    assert queries_to_dead_in_one_lookup() == 0
    clock.advance(1)
    assert queries_to_dead_in_one_lookup() == 1
    assert node._silent == {dead.id: clock()}  # marked again, from now


def voting_world(seed=7):
    world = SimWorld(
        ScenarioConfig(seed=seed, node_count=40, document_count=0,
                       positive_voters=0, negative_voters=0)
    )
    world.build()
    voter = world.peers[3].node
    info_hash = b"\x42" * 20
    voter.cast_vote(info_hash, Polarity.POSITIVE)
    key = vote_key(info_hash)
    # A lookup never returns its own node, so the voter is no candidate.
    others = [p for p in world.peers if p.node is not voter]
    replicas = sorted(
        others, key=lambda p: (distance(p.node.node_id, key), p.node.node_id)
    )[:8]
    return world, voter, key, replicas


@pytest.mark.parametrize("seed", [7, 2])  # at world seed 2 the voter is 8th nearest the key
def test_announce_round_sends_no_get_votes_outside_its_lookup(seed):
    world, voter, key, replicas = voting_world(seed)
    recorder = voter.transport = Recorder(voter.transport)
    report = voter.announce_round()
    [deliveries] = report.values()
    assert {c.address for c, ok in deliveries if ok} == {p.address for p in replicas}
    methods = [query.method for _, query, _ in recorder.sent]
    assert set(methods) == {"get_votes", "announce_vote"}
    last_get_votes = max(i for i, m in enumerate(methods) if m == "get_votes")
    assert methods.index("announce_vote") > last_get_votes  # one lookup, then announces
    asked = [address for address, query, _ in recorder.sent if query.method == "get_votes"]
    assert len(asked) == len(set(asked))  # nobody asked twice
    for _, query, reply in recorder.sent:
        if query.method == "get_votes":
            assert query.args[b"nv"] == 1
            assert b"vp" not in krpc.decode_message(reply).values
    for peer in replicas:
        assert round(peer.node.store.aggregate(key, world.time)[0].estimate()) == 1


class StartsASecondRound:
    """Transport wrapper whose first announce_vote request first runs a whole
    second announce round of the same node, as a second thread could."""

    def __init__(self, node):
        self.node, self.inner = node, node.transport
        self.started = False
        self.second_report = None

    def request(self, address, data, kind):
        if kind == "announce_vote" and not self.started:
            self.started = True  # the second round's own announces pass straight through
            self.second_report = self.node.announce_round()
        return self.inner.request(address, data, kind)


@pytest.mark.parametrize("seed", [7, 2])
def test_overlapping_rounds_each_announce_to_every_replica(seed):
    world, voter, key, replicas = voting_world(seed)
    wrapper = voter.transport = StartsASecondRound(voter)
    first_report = voter.announce_round()
    for report in (first_report, wrapper.second_report):
        [deliveries] = report.values()
        assert {c.address for c, ok in deliveries if ok} == {p.address for p in replicas}


class IgnoresNv:
    """A replica that predates the nv argument: it always sends sketches."""

    def __init__(self, node):
        self.node = node

    def handle_datagram(self, data, source):
        query = krpc.decode_message(data)
        if isinstance(query, krpc.Query):
            query.args.pop(b"nv", None)
            data = krpc.encode_message(query)
        return self.node.handle_datagram(data, source)


def test_replica_that_ignores_nv_still_receives_the_announce():
    world, voter, key, replicas = voting_world()
    legacy = replicas[0]
    legacy.node.store.record(key, Polarity.POSITIVE, b"\x0b\x00\x00\x01", world.time)
    world.network.peers[legacy.address] = IgnoresNv(legacy.node)
    recorder = voter.transport = Recorder(voter.transport)
    [deliveries] = voter.announce_round().values()
    assert all(ok for _, ok in deliveries) and len(deliveries) == 8
    legacy_replies = [
        krpc.decode_message(reply).values
        for address, query, reply in recorder.sent
        if address == legacy.address and query.method == "get_votes"
    ]
    assert legacy_replies and all(b"vp" in values for values in legacy_replies)
    assert round(legacy.node.store.aggregate(key, world.time)[0].estimate()) == 2


# ---------------------------------------------------------------------------
# the republish shortcut: announce_vote only to replicas that may lack the vote

INFO_HASH = b"\x42" * 20
KEY = vote_key(INFO_HASH)


def near_key(distance_to_key: int) -> bytes:
    """The id at distance_to_key from KEY."""
    return (int.from_bytes(KEY, "big") ^ distance_to_key).to_bytes(20, "big")


class Replicas:
    """Fake nodes keyed by address. Each get_votes reply carries a token and
    lists every node; announce_vote gets ``{id}``, no reply from an address in
    ``timeout``, and a 203 error from one in ``reject``."""

    def __init__(self, contacts):
        self.contacts = list(contacts)
        self.timeout, self.reject = set(), set()
        self.announced = []  # the address of each announce_vote sent

    def request(self, address, data, kind):
        query = krpc.decode_message(data)
        ids = {contact.address: contact.id for contact in self.contacts}
        if kind == "announce_vote":
            self.announced.append(address)
            if address in self.timeout:
                return None
            if address in self.reject:
                return krpc.encode_message(krpc.ErrorMessage(
                    query.tid, krpc.PROTOCOL_ERROR, "invalid or expired token"))
        if address not in ids:
            return None
        values = {b"id": ids[address]}
        if kind == "get_votes":
            values.update({b"token": b"tk", b"nodes": krpc.pack_contacts(self.contacts)})
        return krpc.encode_message(krpc.Response(query.tid, values))


def shortcut_voter(clock, distance_base=0):
    """A voter that knows 8 replicas, at distances distance_base + 1..8 from
    KEY, and has cast a vote on INFO_HASH; no retries, so each announce is
    one request."""
    voter = make_test_node(clock, query_retries=0)
    replicas = voter.transport = Replicas(
        Contact(near_key(distance_base + i), f"10.0.0.{i}", 6881) for i in range(1, 9)
    )
    for contact in replicas.contacts:
        voter.routing.insert(contact)
    voter.cast_vote(INFO_HASH, Polarity.POSITIVE)
    return voter, replicas


def announced_round(voter, replicas):
    """One round: ({address: ok} of the report, addresses sent announce_vote)."""
    replicas.announced.clear()
    [report] = voter.announce_round().values()
    return {contact.address: ok for contact, ok in report}, set(replicas.announced)


def test_a_second_round_sends_replicas_that_hold_the_vote_nothing(clock):
    voter, replicas = shortcut_voter(clock)
    everyone = {contact.address for contact in replicas.contacts}
    assert announced_round(voter, replicas) == (dict.fromkeys(everyone, True), everyone)
    clock.advance(voter.config.announce_period)
    assert announced_round(voter, replicas) == (dict.fromkeys(everyone, True), set())


@pytest.mark.parametrize("table_forgot_them", [False, True])
def test_a_second_round_with_the_same_replicas_sends_k_get_votes_and_nothing_else(
    clock, table_forgot_them
):
    """The vote's announce record seeds its key's lookup, so the lookup reaches
    the replicas even once the routing table has dropped them."""
    voter, replicas = shortcut_voter(clock)
    everyone = {contact.address for contact in replicas.contacts}
    announced_round(voter, replicas)
    if table_forgot_them:
        for contact in replicas.contacts:
            voter.routing.remove(contact.id)
    kinds = []
    request = replicas.request

    def counted(address, data, kind):
        kinds.append(kind)
        return request(address, data, kind)

    replicas.request = counted
    clock.advance(voter.config.announce_period)
    assert announced_round(voter, replicas) == (dict.fromkeys(everyone, True), set())
    assert kinds == ["get_votes"] * voter.config.k


def test_a_replica_at_a_new_id_or_address_gets_the_vote(clock):
    voter, replicas = shortcut_voter(clock)
    announced_round(voter, replicas)
    renamed, moved = replicas.contacts[:2]
    replicas.contacts[0] = Contact(near_key(9), renamed.ip, renamed.port)  # a new node there
    replicas.contacts[1] = Contact(moved.id, "10.0.1.2", 6881)
    # the moved node queries the voter from its new address, which updates the table
    send(voter, krpc.Query(b"pg", "ping", {b"id": moved.id}), ("10.0.1.2", 6881))
    clock.advance(voter.config.announce_period)
    report, announced = announced_round(voter, replicas)
    assert announced == {renamed.address, ("10.0.1.2", 6881)}
    assert report == {contact.address: True for contact in replicas.contacts}


def test_an_announce_that_failed_is_sent_again_the_next_round(clock):
    voter, replicas = shortcut_voter(clock)
    silent, rejecting = replicas.contacts[0].address, replicas.contacts[1].address
    replicas.timeout.add(silent)
    replicas.reject.add(rejecting)
    report, announced = announced_round(voter, replicas)
    assert announced == {contact.address for contact in replicas.contacts}
    assert [address for address, ok in report.items() if not ok] == [silent, rejecting]
    replicas.timeout.clear()
    replicas.reject.clear()
    clock.advance(SILENT_SECONDS)  # the failed ids are no longer skipped as silent
    report, announced = announced_round(voter, replicas)
    assert announced == {silent, rejecting}
    assert all(report.values()) and len(report) == 8


def test_at_reannounce_seconds_every_replica_gets_the_vote_again(clock):
    voter, replicas = shortcut_voter(clock)
    everyone = {contact.address for contact in replicas.contacts}
    start = clock()
    announced_round(voter, replicas)
    clock.now = start + REANNOUNCE_SECONDS - 1
    assert announced_round(voter, replicas)[1] == set()
    clock.now = start + REANNOUNCE_SECONDS
    assert announced_round(voter, replicas)[1] == everyone
    clock.advance(voter.config.announce_period)  # the full announce started a new record
    assert announced_round(voter, replicas)[1] == set()


def test_the_announce_record_holds_only_the_current_replicas(clock):
    """k nearer nodes replace the k replicas: the record holds the new k alone."""
    voter, replicas = shortcut_voter(clock, distance_base=1 << 100)
    announced_round(voter, replicas)
    near = [Contact(near_key(i), f"10.0.2.{i}", 6881) for i in range(1, 9)]
    replicas.contacts[:0] = near  # a reply's first k contacts are the ones read
    clock.advance(voter.config.announce_period)
    report, announced = announced_round(voter, replicas)
    assert announced == set(report) == {contact.address for contact in near}
    since, held = voter._announced[KEY]
    assert sorted(held[i:i + 26] for i in range(0, len(held), 26)) == sorted(
        krpc.pack_contacts([contact]) for contact in near
    )


def test_concurrent_rounds_leave_every_record_whole(clock):
    """Twelve rounds of five votes on six threads, switching often: each
    vote's record ends holding all 8 replicas, so the next round sends none."""
    voter, replicas = shortcut_voter(clock)
    for i in range(4):
        voter.cast_vote(bytes([i]) * 20, Polarity.NEGATIVE)
    reports, errors = [], []

    def rounds():
        try:
            for _ in range(2):
                reports.append(voter.announce_round())
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=rounds) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(reports) == 12
    assert all(ok for report in reports for sends in report.values() for _, ok in sends)
    clock.advance(voter.config.announce_period)
    replicas.announced.clear()
    report = voter.announce_round()
    assert len(report) == 5 and all(len(sends) == 8 for sends in report.values())
    assert replicas.announced == []


def test_a_replica_that_evicted_the_vote_holds_it_again_after_the_next_full_announce(monkeypatch):
    """Store flushing (ROADMAP item 6): the skipped replica lacks the vote
    until the full announce, so for up to REANNOUNCE_SECONDS + announce_period."""
    world, voter, key, replicas = voting_world()
    start = world.time
    voter.announce_round()
    flushed = replicas[0].node.store
    monkeypatch.setattr(store, "MAX_KEYS", 1)
    flushed.record(b"\x0f" * 20, Polarity.POSITIVE, b"\x0b\x00\x00\x02", world.time)
    assert key not in flushed
    held_from, period = None, voter.config.announce_period
    while held_from is None and world.time - start < REANNOUNCE_SECONDS + period:
        world.time += period
        [report] = voter.announce_round().values()
        assert all(ok for _, ok in report)  # the flushed replica counts as holding it
        if key in flushed:
            held_from = world.time - start
    assert held_from is not None
    assert REANNOUNCE_SECONDS <= held_from <= REANNOUNCE_SECONDS + period
