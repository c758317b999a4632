"""udp-loopback inputs, and the child process that holds the UDP nodes under test.

Run as a script, this starts SERVERS ``UdpNodeRunner`` nodes, each bound to
its own 127.0.0.x address so that one-per-IP counting sees distinct voters,
casts and announces the roster's votes, and then takes commands, one JSON
line each, on standard input:

    stop-dead   stop the nodes chosen to be dead
    trace-on    wrap the traced functions (see layers.py)
    report      answer with the span summary and the peak resident size
    quit        stop the remaining nodes and exit

Every answer is one JSON line on standard output.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dhtvote.node import NodeConfig, vote_key  # noqa: E402
from dhtvote.store import Polarity  # noqa: E402
from dhtvote.udp import UdpNodeRunner  # noqa: E402

SERVERS = 16
DEAD = 2
K = 8
ALPHA = 3
DOCUMENTS = 8
POSITIVE = 10  # voters per document, drawn from the servers
NEGATIVE = 6
CLIENT_VOTES = ((0, Polarity.POSITIVE), (1, Polarity.NEGATIVE))  # (document, polarity)
CLIENT_IP = "127.0.0.100"
# Far above a loopback round trip (well under 1 ms when idle), so only the
# dead nodes time out; each dead contact then costs QUERY_TIMEOUT * (QUERY_RETRIES + 1).
QUERY_TIMEOUT = 0.1
QUERY_RETRIES = 1


def server_ip(index: int) -> str:
    return f"127.0.0.{2 + index}"


def xor_rank(ids: list[bytes], key: bytes) -> list[int]:
    target = int.from_bytes(key, "big")
    return sorted(range(len(ids)), key=lambda i: int.from_bytes(ids[i], "big") ^ target)


class Inputs:
    """Everything udp-loopback draws from its seed.

    Each document is drawn until a dead node is the node nearest its key and
    no other dead node is among the next K + ALPHA. Every node
    near the key knows its nearest node, and a lookup queries every known
    node closer than its K-th responder, so every lookup for these keys
    waits on exactly one dead contact, and every run does the same waiting.
    Dead nodes so close in id that few keys qualify are drawn again.
    """

    def __init__(self, seed: int):
        rng = random.Random(f"dhtvote-bench-udp:{seed}")
        self.server_ids = [rng.randbytes(20) for _ in range(SERVERS)]
        self.client_id = rng.randbytes(20)
        while True:
            self.dead = sorted(rng.sample(range(1, SERVERS), DEAD))  # 0 is the bootstrap
            self.documents = self._draw_documents(rng)
            if len(self.documents) == DOCUMENTS:
                break
        self.rosters = []  # per document: (positive server indices, negative server indices)
        for _ in self.documents:
            chosen = rng.sample(range(SERVERS), POSITIVE + NEGATIVE)
            self.rosters.append((chosen[:POSITIVE], chosen[POSITIVE:]))

    def _draw_documents(self, rng: random.Random, tries: int = 400) -> list[bytes]:
        documents = []
        for _ in range(tries):
            info_hash = rng.randbytes(20)
            order = xor_rank(self.server_ids, vote_key(info_hash))
            if order[0] in self.dead and not set(order[1:K + ALPHA + 1]) & set(self.dead):
                documents.append(info_hash)
                if len(documents) == DOCUMENTS:
                    break
        return documents

    def exact_counts(self) -> list[tuple[int, int]]:
        """Distinct voter IPs per document and polarity, client included."""
        counts = []
        for doc, (positive, negative) in enumerate(self.rosters):
            ips = [{server_ip(i) for i in positive}, {server_ip(i) for i in negative}]
            for voted_doc, polarity in CLIENT_VOTES:
                if voted_doc == doc:
                    ips[0 if polarity is Polarity.POSITIVE else 1].add(CLIENT_IP)
            counts.append((len(ips[0]), len(ips[1])))
        return counts


def node_config(ip: str, bootstrap) -> NodeConfig:
    return NodeConfig(bind=(ip, 0), bootstrap=list(bootstrap), k=K, alpha=ALPHA,
                      query_timeout=QUERY_TIMEOUT, query_retries=QUERY_RETRIES)


def stop_all(runners) -> None:
    """Stop runners in parallel: each stop waits up to one receive poll."""
    threads = [threading.Thread(target=r.stop) for r in runners]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5.0)


def _send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    seed = int(sys.argv[1])
    inputs = Inputs(seed)
    runners: list[UdpNodeRunner] = []
    for index, node_id in enumerate(inputs.server_ids):
        bootstrap = [runners[0].local_address] if runners else []
        runner = UdpNodeRunner(node_config(server_ip(index), bootstrap), node_id=node_id)
        runner.start()
        runners.append(runner)
    for runner in runners:  # second pass so early joiners learn late ones
        runner.node.bootstrap()
    for info_hash, (positive, negative) in zip(inputs.documents, inputs.rosters):
        for group, polarity in ((positive, Polarity.POSITIVE), (negative, Polarity.NEGATIVE)):
            for index in group:
                runners[index].cast_vote(info_hash, polarity)
    undelivered = 0
    for runner in runners:  # one at a time: a runner holds its lock for a whole round
        report = runner.announce_round()
        undelivered += sum(1 for sends in report.values() if not any(ok for _, ok in sends))
    _send({"ready": [list(r.local_address) for r in runners], "undelivered": undelivered})

    tracer = None
    stopped: set[int] = set()
    for line in sys.stdin:
        command = line.strip()
        if command == "stop-dead":
            stop_all([runners[i] for i in inputs.dead])
            stopped.update(inputs.dead)
            _send({"stopped": inputs.dead})
        elif command == "trace-on":
            import layers
            from harness import Tracer

            tracer = Tracer()
            layers.instrument(tracer)
            _send({"tracing": True})
        elif command == "report":
            summary = None
            if tracer is not None:
                tracer.unpatch_all()
                summary = tracer.summary()
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _send({"summary": summary, "peak_rss_kb": peak_kb})
        elif command == "quit":
            break
    stop_all([r for i, r in enumerate(runners) if i not in stopped])
    return 0


if __name__ == "__main__":
    sys.exit(main())
