import os
import random
from hashlib import sha1

import pytest

from dhtvote import krpc
from dhtvote.node import (
    Journal, LocalVote, NodeConfig, TokenIssuer, VoteNode, compact_address, vote_key,
)
from dhtvote.routing import Contact, distance
from dhtvote.sim import ScenarioConfig, SimWorld
from dhtvote.store import Polarity

from conftest import FakeClock, NullTransport, make_test_node

SOURCE = ("198.51.100.7", 40000)
TARGET = b"T" * 20
SENDER_ID = b"s" * 20


def send(node, query, source=SOURCE):
    raw = node.handle_datagram(krpc.encode_message(query), source)
    assert raw is not None
    return krpc.decode_message(raw)


def get_token(node, source=SOURCE, target=TARGET):
    reply = send(node, krpc.get_votes_query(b"t1", SENDER_ID, target), source)
    assert isinstance(reply, krpc.Response)
    return reply.values[b"token"]


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


# ---------------------------------------------------------------------------
# query handling


def test_ping_and_routing_refresh(clock):
    node = make_test_node(clock)
    reply = send(node, krpc.ping_query(b"aa", SENDER_ID))
    assert isinstance(reply, krpc.Response)
    assert reply.tid == b"aa"
    assert reply.values[b"id"] == node.node_id
    refreshed = node.routing.get(SENDER_ID)
    assert refreshed is not None and refreshed.address == SOURCE


def test_find_node_returns_closest(clock):
    node = make_test_node(clock)
    rng = random.Random(1)
    for n in range(30):
        send(
            node,
            krpc.ping_query(b"pp", rng.randbytes(20)),
            (f"10.9.0.{n}", 6881),
        )
    reply = send(node, krpc.find_node_query(b"fn", SENDER_ID, TARGET))
    nodes = krpc.unpack_contacts(reply.values[b"nodes"])
    expected = [c.id for c in node.routing.closest(TARGET)]
    assert [n[0] for n in nodes] == expected
    assert len(reply.values[b"nodes"]) % 26 == 0


def test_get_votes_without_data_has_no_sketches(clock):
    node = make_test_node(clock)
    reply = send(node, krpc.get_votes_query(b"gv", SENDER_ID, TARGET))
    assert b"token" in reply.values and b"nodes" in reply.values
    assert b"vp" not in reply.values and b"vn" not in reply.values


def test_announce_then_get_votes_round_trip(clock):
    node = make_test_node(clock)
    token = get_token(node)
    reply = send(
        node, krpc.announce_vote_query(b"av", SENDER_ID, TARGET, 1, token)
    )
    assert isinstance(reply, krpc.Response)
    reply = send(node, krpc.get_votes_query(b"g2", SENDER_ID, TARGET))
    vp = reply.values[b"vp"]
    vn = reply.values[b"vn"]
    assert sum(1 for b in vp if b) == 1  # one voter IP, one register
    assert vn == bytes(256)


def test_vote_recorded_against_source_ip_not_claimed_id(clock):
    node = make_test_node(clock)
    for fake_sender in (b"p" * 20, b"q" * 20):  # same IP, different claimed ids
        token = get_token(node)
        send(node, krpc.announce_vote_query(b"av", fake_sender, TARGET, 1, token))
    positive, _ = node.store.aggregate(TARGET, clock())
    assert round(positive.estimate()) == 1


def test_announce_same_ip_twice_counts_once(clock):
    node = make_test_node(clock)
    for _ in range(2):
        token = get_token(node)
        send(node, krpc.announce_vote_query(b"av", SENDER_ID, TARGET, 1, token))
    positive, _ = node.store.aggregate(TARGET, clock())
    assert round(positive.estimate()) == 1


def test_token_for_other_source_rejected(clock):
    node = make_test_node(clock)
    token = get_token(node, source=("203.0.113.9", 1234))
    reply = send(node, krpc.announce_vote_query(b"av", SENDER_ID, TARGET, 1, token))
    assert isinstance(reply, krpc.ErrorMessage)
    assert reply.code == krpc.PROTOCOL_ERROR
    assert node.store.aggregate(TARGET, clock())[0].is_empty()


def test_stale_token_rejected(clock):
    node = make_test_node(clock)
    token = get_token(node)
    clock.advance(601)  # two rotations
    reply = send(node, krpc.announce_vote_query(b"av", SENDER_ID, TARGET, 1, token))
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


def test_unknown_method_yields_204(clock):
    node = make_test_node(clock)
    reply = send(node, krpc.Query(b"zz", "get_peers", {b"id": SENDER_ID}))
    assert isinstance(reply, krpc.ErrorMessage) and reply.code == 204


def test_get_votes_with_nv_omits_sketches(clock):
    node = make_test_node(clock)
    node.store.record(TARGET, Polarity.POSITIVE, b"\x0a\x00\x00\x01", clock())
    full = send(node, krpc.get_votes_query(b"g1", SENDER_ID, TARGET))
    assert b"vp" in full.values and b"vn" in full.values
    bare = send(node, krpc.get_votes_query(b"g2", SENDER_ID, TARGET, no_votes=True))
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


def test_handler_drops_garbage_and_responses(clock):
    node = make_test_node(clock)
    assert node.handle_datagram(b"\xff\x00garbage", SOURCE) is None
    assert node.handle_datagram(b"", SOURCE) is None
    unsolicited = krpc.encode_message(krpc.ping_response(b"t", SENDER_ID))
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
        # the line must already have left the file object's buffer
        synced.append(len(journal.path.read_text().splitlines()))

    monkeypatch.setattr(os, "fsync", fsync)
    journal.append(LocalVote(b"a" * 20, Polarity.POSITIVE, 1700000000))
    journal.append(LocalVote(b"b" * 20, Polarity.NEGATIVE, 1700000001))
    assert synced == [1, 2]


def test_journal_first_record_wins_and_bad_lines_skipped(tmp_path):
    path = tmp_path / "votes.log"
    path.write_text(
        f"{'aa' * 20},+1,100\n"
        f"{'aa' * 20},-1,200\n"  # duplicate: first wins
        f"{'bb' * 19}b,-1,300\n"  # 39-char hash
        f"{' '.join(['ab'] * 13):<40},+1,1700000000\n"  # 40 chars, 13 bytes
        "not,a,line,at,all\n"
        f"{'cc' * 20},-1,400\n"
    )
    votes = Journal(tmp_path).load()
    assert [(v.info_hash[:1], v.polarity) for v in votes] == [
        (b"\xaa", Polarity.POSITIVE),
        (b"\xcc", Polarity.NEGATIVE),
    ]


def test_restart_preserves_votes_and_blocks_revote(tmp_path, clock):
    node = make_test_node(clock, state_dir=str(tmp_path))
    info_hash = b"d" * 20
    node.cast_vote(info_hash, Polarity.NEGATIVE)
    del node
    reloaded = make_test_node(clock, state_dir=str(tmp_path), seed=99)
    assert reloaded.cast_vote(info_hash, Polarity.POSITIVE) == "already-voted"
    assert reloaded.local_votes[info_hash].polarity == Polarity.NEGATIVE


def test_vote_key_is_sha1_of_infohash():
    info_hash = b"e" * 20
    assert vote_key(info_hash) == sha1(info_hash).digest()


# ---------------------------------------------------------------------------
# client side: replies, lookups and announce rounds


class StubTransport:
    def __init__(self, reply):
        self.reply = reply

    def request(self, address, data, kind):
        query = krpc.decode_message(data)
        return krpc.encode_message(krpc.ping_response(query.tid, self.reply))


def test_reply_from_another_id_replaces_the_expected_one(clock):
    node = make_test_node(clock)
    old, new = b"o" * 20, b"n" * 20
    contact = Contact(old, "10.0.0.9", 6881)
    node.routing.insert(contact)
    node.transport = StubTransport(new)
    assert node._query_contact(contact, krpc.ping_query(b"pq", node.node_id)) is None
    assert node.routing.get(old) is None
    assert node.routing.get(new).address == contact.address
    node.transport = StubTransport(b"short")
    fresh = Contact(b"f" * 20, "10.0.0.10", 6881)
    node.routing.insert(fresh)
    assert node._query_contact(fresh, krpc.ping_query(b"pq", node.node_id)) is None
    assert node.routing.get(fresh.id).failed_queries == 1
    node.transport = StubTransport(node.node_id)
    assert node._query_contact(fresh, krpc.ping_query(b"pq", node.node_id)) is None
    assert node.routing.get(fresh.id).failed_queries == 2


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
    assert node.routing.get(probe.id) is probe


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
    replicas = sorted(
        world.peers, key=lambda p: (distance(p.node.node_id, key), p.node.node_id)
    )[:8]
    return world, voter, key, replicas


def test_announce_round_sends_no_get_votes_outside_its_lookup():
    world, voter, key, replicas = voting_world()
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
