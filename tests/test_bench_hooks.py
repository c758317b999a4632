"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps program
functions by name and calls them with fixed argument lists. Deleting or
reshaping one of them breaks the benchmark, not the program, so this test
runs the instrumentation over one announce and one fetch on a small world
and checks that it undoes itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from dhtvote import bencode, client, krpc, node, routing, sim, sketch, store, udp
from dhtvote.node import NodeConfig
from dhtvote.sim import ScenarioConfig, SimWorld

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# every module and class whose attributes the benchmark replaces
OWNERS = (
    bencode, client, krpc, node, routing, sim, sketch, store, udp,
    sketch.HllSketch, store.VoteStore, store.VoteRing, routing.RoutingTable,
    node.VoteNode, sim.VirtualNetwork, udp.UdpTransport,
)


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import harness
    import layers

    return harness, layers


def attributes():
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_benchmark_instrumentation_runs_and_restores(bench_modules):
    harness, layers = bench_modules
    world = SimWorld(ScenarioConfig(seed=1, node_count=20, document_count=1,
                                    positive_voters=5, negative_voters=2))
    world.build()
    voter = world.voters[0][0][0]
    before = attributes()
    tracer = harness.Tracer()
    layers.instrument(tracer)
    try:
        for owner, name in [
            (bencode, "encode"),
            (krpc, "response_sketches"),
            (sketch.HllSketch, "merge"),
            (node.VoteNode, "announce_vote_to"),
            (udp.UdpTransport, "request"),
            (store.VoteRing, "in_window"),
            (routing.RoutingTable, "closest"),
            (node, "iterative_lookup"),
            (sim, "fetch_votes"),
            (udp, "fetch_votes"),
            (client, "robust_combine"),
        ]:
            assert vars(owner)[name] is not before[owner, name], name
        world.announce(voter)
        rows = world.probe()
    finally:
        tracer.unpatch_all()
    assert attributes() == before
    assert sys.modules["dhtvote.client"] is client

    assert rows[0]["responders"] == 8 and rows[0]["est_pos"] + rows[0]["est_neg"] == 1
    spans = tracer.summary()["spans"]
    for name in (
        "node.announce_round", "node.announce_vote_to", "routing.lookup",
        "routing.closest", "store.record", "store.aggregate", "sim.request",
        "client.fetch_votes", "client.robust_combine", "krpc.encode_message",
    ):
        assert spans[name][0] > 0, name
    counters = tracer.summary()["counters"]
    assert counters["routing.queried"] >= counters["routing.answered"] > 0


def test_class_patch_after_start_sees_udp_queries(monkeypatch):
    """perfbench/udp_nodes.py patches VoteNode.handle_datagram on the class
    after its runners have started; the receive thread must call the patch."""
    config = NodeConfig(bind=("127.0.0.1", 0), query_timeout=0.5, query_retries=0)
    runner, pinger = udp.UdpNodeRunner(config), udp.UdpNodeRunner(config)
    calls = []
    handle_datagram = node.VoteNode.handle_datagram

    def counted(self, data, source):
        calls.append(self)
        return handle_datagram(self, data, source)

    try:
        runner.start()
        pinger.start()
        monkeypatch.setattr(node.VoteNode, "handle_datagram", counted)
        reply = pinger.node.send_query(runner.local_address, "ping", {})
    finally:
        pinger.stop()
        runner.stop()
    assert reply is not None
    assert calls == [runner.node]


@pytest.mark.parametrize("workload, seconds", [
    ("sim-fetch", "0.75"), ("udp-loopback", "0.5"),
], ids=["sim-fetch", "udp-loopback"])
def test_traced_benchmark_run_ends_correct(workload, seconds):
    """The traced run end to end: every wrapper, then the per-layer metrics."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", seconds, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True
