"""udp-loopback: real UDP nodes, one closed-loop client, dead contacts.

The nodes under test run in one child process (udp_nodes.py). After they
have announced the roster's votes, a fixed DEAD of them are stopped. The
client is one long-lived ``UdpNodeRunner`` in this process; its ops are a
fixed interleave of ``fetch_votes`` and ``announce_round``. Only the dead
nodes time out, so an op's latency is set by the dead contacts its lookups
wait on, one after another.
"""

from __future__ import annotations

import json
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

from dhtvote.node import vote_key
from dhtvote.udp import UdpNodeRunner, UdpTransport

import layers
from harness import FetchTally, OpLog, announce
from udp_nodes import (
    CLIENT_IP, CLIENT_VOTES, K, QUERY_RETRIES, QUERY_TIMEOUT, Inputs, node_config, xor_rank,
)

CYCLE = ("fetch", "fetch", "announce", "fetch", "fetch", "announce")
# A run makes round(--seconds / CYCLE_SECONDS) cycles; one cycle (4 fetches
# with one dead wait each, 2 announce rounds with two) takes about 1.7 s, so
# --seconds 20 measures 8 cycles in about 14 s.
CYCLE_SECONDS = 2.5
CHILD_TIMEOUT = 60.0


class NodesProcess:
    """The child process holding the nodes under test, driven over its pipes."""

    def __init__(self, seed: int):
        script = Path(__file__).resolve().parent / "udp_nodes.py"
        self.proc = subprocess.Popen(
            [sys.executable, str(script), str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def receive(self) -> dict:
        try:
            line = self._lines.get(timeout=CHILD_TIMEOUT)
        except queue.Empty:
            raise RuntimeError("UDP node process did not answer") from None
        if line is None:
            raise RuntimeError(f"UDP node process exited with {self.proc.wait()}")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5.0)


class Traffic:
    """Counts the client's datagrams by wrapping its transport's request.

    A request that returns None sent QUERY_RETRIES + 1 datagrams and got
    none back. One that returns a reply sent one datagram per timeout it
    waited through, plus the first. It also notes where get_votes went.
    """

    def __init__(self, transport: UdpTransport):
        self.datagrams = 0
        self.bytes = 0
        self.get_votes_to: list[tuple[str, int]] = []
        self.transport = transport
        transport.request = self.request

    def request(self, address, data, kind):
        if kind == "get_votes":
            self.get_votes_to.append(address)
        start = time.perf_counter()
        reply = UdpTransport.request(self.transport, address, data, kind)
        if reply is None:
            sends = QUERY_RETRIES + 1
        else:
            waited = time.perf_counter() - start
            sends = 1 + min(QUERY_RETRIES, int(waited // QUERY_TIMEOUT))
            self.datagrams += 1
            self.bytes += len(reply)
        self.datagrams += sends
        self.bytes += sends * len(data)
        return reply


def set_up(seed: int):
    """Start the nodes, seed the votes, start the client and announce its votes."""
    inputs = Inputs(seed)
    nodes = NodesProcess(seed)
    client = None
    try:
        ready = nodes.receive()
        if ready["undelivered"]:
            raise RuntimeError(f"seeding: {ready['undelivered']} votes reached no replica")
        bootstrap = [tuple(ready["ready"][0])]
        client = UdpNodeRunner(node_config(CLIENT_IP, bootstrap), node_id=inputs.client_id)
        client.start()
        for doc, polarity in CLIENT_VOTES:
            client.cast_vote(inputs.documents[doc], polarity)
        report = client.announce_round()
        if not all(any(ok for _, ok in sends) for sends in report.values()):
            raise RuntimeError("seeding: a client vote reached no replica")
    except BaseException:
        if client is not None:
            client.stop()
        nodes.close()
        raise
    return inputs, nodes, client, [tuple(a) for a in ready["ready"]]


def udp_loopback(seed: int, seconds: float, setup_repeats: int, tracer=None) -> dict:
    cycles = max(1, round(seconds / CYCLE_SECONDS))
    setups = []
    for attempt in range(setup_repeats):
        start = time.perf_counter()
        inputs, nodes, client, addresses = set_up(seed)
        setups.append(time.perf_counter() - start)
        if attempt < setup_repeats - 1:
            client.stop()
            nodes.close()
    try:
        return _measure(inputs, nodes, client, addresses, cycles, setups, tracer)
    finally:
        client.stop()
        nodes.close()


def _measure(inputs, nodes, client, addresses, cycles, setups, tracer) -> dict:
    nodes.command("stop-dead")
    counts = Traffic(client.transport)
    exact = inputs.exact_counts()
    nearest = []  # per document: addresses of the K nearest live nodes
    for info_hash in inputs.documents:
        live = [i for i in xor_rank(inputs.server_ids, vote_key(info_hash))
                if i not in inputs.dead]
        nearest.append({addresses[i] for i in live[:K]})
    log = OpLog(tracer)
    tally = FetchTally(log)
    if tracer is not None:
        nodes.command("trace-on")
        layers.instrument(tracer)
    start = time.perf_counter()
    try:
        fetched = 0
        for _ in range(cycles):
            for kind in CYCLE:
                if kind == "announce":
                    announce(log, client.announce_round, client.node.local_votes)
                    continue
                doc = fetched % len(inputs.documents)
                fetched += 1
                counts.get_votes_to.clear()
                result = log.run("fetch", client.fetch_votes, inputs.documents[doc])
                tally.check(result, exact[doc], f"fetch {doc}", counts.get_votes_to,
                            nearest[doc])
        phase = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    report = nodes.command("report")
    return {
        "log": log,
        "phase_seconds": phase,
        "setup_seconds": setups,
        "announce_p50_ms": log.p50_ms("announce"),
        "fetch_p50_ms": log.p50_ms("fetch"),
        "datagrams": counts.datagrams,
        "bytes": counts.bytes,
        "ops": log.attempted,
        "layer_values": tally.layer_values(),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "child_summaries": [report["summary"]] if report["summary"] else [],
    }

