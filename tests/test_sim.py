import hashlib

import pytest

from conftest import FakeClock, make_test_node
from dhtvote import krpc
from dhtvote.sim import (
    MALICE_STRATEGIES,
    AnnounceEvent,
    MaliciousPeer,
    ScenarioConfig,
    SimWorld,
    replay_oracle,
    run_scenario,
)
from dhtvote.store import Polarity

SMALL = dict(node_count=40, document_count=3, positive_voters=10, negative_voters=3)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(churn_rate=1.5).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(node_count=1).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(node_count=10, positive_voters=20).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(malicious_strategy="ddos").validate()
    with pytest.raises(ValueError):
        ScenarioConfig(k=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(alpha=0).validate()
    # a seed, count, k, alpha or rate of the wrong type, and a period too
    # short for the schedule's offsets, are rejected before the run
    for bad in (
        dict(node_count=20.5), dict(duration_hours=1.5), dict(document_count=True),
        dict(positive_voters=4.0), dict(negative_voters=False), dict(k=8.5),
        dict(alpha=True), dict(announce_period=1.5), dict(churn_rate=True),
        dict(seed=None), dict(seed=1.5),
    ):
        with pytest.raises(ValueError):
            ScenarioConfig(**bad).validate()
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
            krpc.get_votes_query(b"gv", querier, key),
            krpc.ping_query(b"pi", querier),
            krpc.announce_vote_query(b"av", querier, key, 1, token),
            krpc.get_votes_query(b"er", querier, b"short"),  # an error reply
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
    import random

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
    assert report.total_datagrams == 8551
    assert report.total_bytes == 1316062
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "cc39cc23b0ae08206cbc23885ac7b7a755164bff75b7414220b7a4c5607fe12e"
    )
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == (
        "3d9411df2568fd266e0757a3ad6586dc7d389368e230bed3b788bdde908423c3"
    )


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
