import hashlib
import random

import pytest

from conftest import FakeClock, make_test_node
from dhtvote import krpc, node
from dhtvote.node import NodeConfig
from dhtvote.sim import (
    MALICE_STRATEGIES,
    SIM_PORT,
    AnnounceEvent,
    MaliciousPeer,
    ScenarioConfig,
    SimTransport,
    SimWorld,
    VirtualNetwork,
    replay_oracle,
    run_scenario,
)
from dhtvote.store import Polarity

SMALL = dict(node_count=40, document_count=3, positive_voters=10, negative_voters=3)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(churn_rate=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(node_count=1)
    with pytest.raises(ValueError):
        ScenarioConfig(node_count=10, positive_voters=20)
    with pytest.raises(ValueError):
        ScenarioConfig(malicious_strategy="ddos")
    with pytest.raises(ValueError):
        ScenarioConfig(k=0)
    with pytest.raises(ValueError):
        ScenarioConfig(alpha=0)
    # a seed, count, k, alpha or rate of the wrong type, and a period too
    # short for the schedule's offsets, are rejected before the run
    for bad in (
        dict(node_count=20.5), dict(duration_hours=1.5), dict(document_count=True),
        dict(positive_voters=4.0), dict(negative_voters=False), dict(k=8.5),
        dict(alpha=True), dict(announce_period=1.5), dict(churn_rate=True),
        dict(seed=None), dict(seed=1.5), dict(duration_hours=0), dict(document_count=-1),
    ):
        with pytest.raises(ValueError):
            ScenarioConfig(**bad)
    with pytest.raises(ValueError):
        ScenarioConfig.from_json('{"warp_speed": 9}')
    with pytest.raises(ValueError):
        ScenarioConfig.from_json("[1, 2]")


def test_config_json_round_trip():
    config = ScenarioConfig.from_json('{"seed": 3, "node_count": 60, "churn_rate": 0.1}')
    assert config.seed == 3
    assert config.node_count == 60
    assert config.churn_rate == 0.1
    assert config.k == 8  # defaults preserved


def test_malicious_peer_corrupts_only_get_votes_sketches():
    clock = FakeClock()
    key = b"\x42" * 20
    querier, source = b"\x01" * 20, ("10.9.9.9", 6881)

    def holder():
        node = make_test_node(clock)  # one seed: one id, token secret and table
        node.store.record(key, Polarity.POSITIVE, b"\x0a\x00\x00\x01", clock())
        node.store.record(key, Polarity.NEGATIVE, b"\x0a\x00\x00\x02", clock())
        return node

    honest = holder()
    token = honest.tokens.issue(source)
    datagrams = [
        krpc.encode_message(query)
        for query in (
            krpc.Query(b"gv", "get_votes", {b"id": querier, b"target": key}),
            krpc.Query(b"pi", "ping", {b"id": querier}),
            krpc.Query(b"av", "announce_vote",
                       {b"id": querier, b"target": key, b"vote": 1, b"token": token}),
            krpc.Query(b"er", "get_votes", {b"id": querier, b"target": b"short"}),  # an error reply
        )
    ]
    expected = [honest.handle_datagram(data, source) for data in datagrams]
    honest_values = krpc.decode_message(expected[0]).values
    vp, vn = honest_values.pop(b"vp"), honest_values.pop(b"vn")
    assert vp != vn
    for strategy in MALICE_STRATEGIES:
        peer = MaliciousPeer(holder(), strategy)
        replies = [peer.handle_datagram(data, source) for data in datagrams]
        if strategy == "silent":
            assert replies == [None] * len(datagrams)
            continue
        assert replies[1:] == expected[1:], strategy
        values = krpc.decode_message(replies[0]).values
        sketches = values.pop(b"vp", None), values.pop(b"vn", None)
        assert sketches == {
            "inflate-registers": (b"\xff" * 256, b"\xff" * 256),
            "zero-out": (None, None),
            "flip-polarity": (vn, vp),
        }[strategy]
        assert values == honest_values, strategy


def test_silent_peer_costs_every_try_and_no_response():
    for retries in (NodeConfig.query_retries, 0):
        network = VirtualNetwork(random.Random(0))
        silent = ("10.0.0.1", SIM_PORT)
        network.peers[silent] = MaliciousPeer(make_test_node(FakeClock()), "silent")
        node = make_test_node(FakeClock(), query_retries=retries)
        node.transport = SimTransport(network, ("10.0.0.2", SIM_PORT))
        assert node.send_query(silent, "ping", {}) is None
        assert network.datagrams == {"ping:query": retries + 1}


def test_a_second_lookup_sends_silent_peers_nothing():
    """A lookup of a silent peer's id waits on the silent peers it meets;
    a second lookup of the same target sends them no datagram."""
    world = SimWorld(ScenarioConfig(
        seed=6, node_count=40, document_count=0, positive_voters=0, negative_voters=0,
        malicious_fraction=0.2, malicious_strategy="silent",
    ))
    world.build()
    silent = {peer.address for peer in world.peers
              if isinstance(world.network.peers[peer.address], MaliciousPeer)}
    honest = next(peer for peer in world.peers if peer.address not in silent)
    observer = world._make_node([honest.address], ("172.16.0.1", SIM_PORT))
    observer.bootstrap()
    target = next(  # a silent peer that the bootstrap did not mark
        peer.node.node_id for peer in world.peers
        if peer.address in silent and peer.node.node_id not in observer._silent
    )
    sent = []
    request = world.network.request

    def recorded(source, dest, data, kind):
        sent.append(dest)
        return request(source, dest, data, kind)

    world.network.request = recorded
    first = observer.lookup(target)
    first_to_silent = sum(dest in silent for dest in sent)
    sent.clear()
    datagrams = world.network.check_datagrams
    second = observer.lookup(target)
    assert first_to_silent > 0
    assert sent and not any(dest in silent for dest in sent)
    # every datagram went to a peer that answered: one query, one response
    assert world.network.check_datagrams - datagrams == 2 * len(sent)
    assert [contact.id for contact in second] == [contact.id for contact in first]


def test_replay_oracle_window_and_distinctness():
    assert replay_oracle([], 0.0) == {}
    events = [
        AnnounceEvent(0.0, 0, Polarity.POSITIVE, "10.0.0.1"),
        AnnounceEvent(1800.0, 0, Polarity.POSITIVE, "10.0.0.1"),  # re-announce
        AnnounceEvent(100.0, 0, Polarity.POSITIVE, "10.0.0.2"),
        AnnounceEvent(100.0, 0, Polarity.NEGATIVE, "10.0.0.3"),
        AnnounceEvent(100.0, 1, Polarity.POSITIVE, "10.0.0.4"),
    ]
    counts = replay_oracle(events, 7200.0)
    assert counts[(0, Polarity.POSITIVE)] == 2
    assert counts[(0, Polarity.NEGATIVE)] == 1
    assert counts[(1, Polarity.POSITIVE)] == 1
    # a voter probed 25 simulated hours after its final announce is gone
    late = replay_oracle(events[:1], 25 * 3600.0)
    assert late == {}


def test_replay_oracle_matches_brute_force_set_scan():
    rng = random.Random(8)
    events = [
        AnnounceEvent(
            rng.uniform(0, 40 * 3600),
            rng.randrange(3),
            rng.choice([Polarity.POSITIVE, Polarity.NEGATIVE]),
            f"10.0.0.{rng.randrange(30)}",
        )
        for _ in range(500)
    ]
    probe = 40 * 3600.0
    expected: dict = {}
    for e in events:
        if int(probe) // 3600 - int(e.time) // 3600 < 24:
            expected.setdefault((e.doc, e.polarity), set()).add(e.ip)
    assert replay_oracle(events, probe) == {k: len(v) for k, v in expected.items()}


def test_no_fault_scenario_accuracy_and_availability():
    report = run_scenario(ScenarioConfig(seed=1, duration_hours=1, **SMALL))
    assert report.availability == 1.0
    assert report.p99_relative_error <= 0.20
    for row in report.rows:
        assert row["true_pos"] == 10 and row["true_neg"] == 3
        assert row["responders"] >= 1
    # no documents: no fetch, so nothing is unavailable and no error is measured
    empty = run_scenario(ScenarioConfig(seed=1, duration_hours=1, node_count=10,
                                        document_count=0, positive_voters=0,
                                        negative_voters=0))
    assert empty.rows == []
    assert empty.availability == 1.0
    assert empty.mean_relative_error == empty.p99_relative_error == 0.0
    # every peer silent: each fetch is unavailable, and one nobody answered
    # measures no error, though every count it read was 0
    dark = run_scenario(ScenarioConfig(seed=1, duration_hours=1, node_count=10,
                                       document_count=1, positive_voters=2, negative_voters=1,
                                       malicious_fraction=1.0, malicious_strategy="silent"))
    assert [row["responders"] for row in dark.rows] == [0]
    assert dark.rows[0]["true_pos"] == 2 and dark.rows[0]["est_pos"] == 0
    assert dark.availability == 0.0
    assert dark.mean_relative_error == dark.p99_relative_error == 0.0


def test_same_seed_reproduces_report_byte_for_byte():
    config = dict(seed=5, duration_hours=1, **SMALL)
    first = run_scenario(ScenarioConfig(**config))
    second = run_scenario(ScenarioConfig(**config))
    assert first.to_json() == second.to_json()
    assert first.to_csv() == second.to_csv()


def test_report_matches_parent_digest():
    # Golden values from CPython 3.11.7; a change that claims unchanged
    # behaviour must leave every byte of the report as it is.
    report = run_scenario(
        ScenarioConfig(
            seed=3, duration_hours=2, churn_rate=0.2, message_loss=0.01,
            malicious_fraction=0.1, **SMALL,
        )
    )
    assert report.total_datagrams == 6215
    assert report.total_bytes == 1193193
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "8c7f3d9759619b5fad0a28eb2f2b6aa4e3755f6b59349cd2c7c1e750f32c2738"
    )
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == (
        "3d9411df2568fd266e0757a3ad6586dc7d389368e230bed3b788bdde908423c3"
    )


def test_no_vote_leaves_a_window_between_full_announces(monkeypatch):
    """Over more than a store window, skipping the replicas that hold a vote
    reads every estimate as announcing to all of them each round does."""
    config = ScenarioConfig(seed=5, duration_hours=30, **SMALL)
    shortcut = run_scenario(config)
    monkeypatch.setattr(node, "REANNOUNCE_SECONDS", 0)  # every round a full announce
    full = run_scenario(config)
    assert shortcut.to_csv() == full.to_csv()
    assert shortcut.availability == full.availability == 1.0
    assert shortcut.datagrams["announce_vote:query"] < full.datagrams["announce_vote:query"] / 2


def test_different_seed_changes_traffic():
    a = run_scenario(ScenarioConfig(seed=1, duration_hours=1, **SMALL))
    b = run_scenario(ScenarioConfig(seed=2, duration_hours=1, **SMALL))
    assert a.total_bytes != b.total_bytes


def test_traffic_tally_consistency():
    report = run_scenario(ScenarioConfig(seed=3, duration_hours=1, **SMALL))
    assert report.total_bytes == sum(report.bytes_by_kind.values())
    assert report.total_datagrams == sum(report.datagrams.values())
    assert set(report.datagrams) == set(report.bytes_by_kind)
    assert report.total_datagrams > 0
    # every datagram kind is one of the four methods, query or response side
    for kind in report.datagrams:
        method, side = kind.split(":")
        assert method in ("ping", "find_node", "get_votes", "announce_vote")
        assert side in ("query", "response")


def test_churn_scenario_keeps_votes_available():
    report = run_scenario(
        ScenarioConfig(seed=4, duration_hours=3, churn_rate=0.2, **SMALL)
    )
    assert report.availability >= 0.95
    assert report.mean_relative_error <= 0.20


def test_message_loss_tolerated():
    report = run_scenario(
        ScenarioConfig(seed=6, duration_hours=1, message_loss=0.1, **SMALL)
    )
    assert report.availability >= 0.9


def test_csv_has_expected_columns():
    report = run_scenario(ScenarioConfig(seed=9, duration_hours=1, **SMALL))
    lines = report.to_csv().splitlines()
    assert lines[0] == "doc,true_pos,est_pos,true_neg,est_neg,responders"
    assert len(lines) == 1 + len(report.rows)


def test_world_churn_preserves_local_votes():
    world = SimWorld(ScenarioConfig(seed=10, **SMALL))
    world.build()
    victim = next(p for p in world.peers if p.node.local_votes)
    votes_before = dict(victim.node.local_votes)
    old_id = victim.node.node_id
    replacement = world.replace_peer(victim.index)
    assert replacement.node.local_votes == votes_before
    assert replacement.node.node_id != old_id
    assert replacement.address == victim.address
    assert len(replacement.node.routing) > 0  # re-bootstrapped
