"""Which dhtvote functions the traced run wraps, and the per-layer metrics.

Every wrapper is installed where callers resolve the name at call time:
module attributes (``krpc.encode_message``, ``node.iterative_lookup``,
``client.robust_combine``) and class attributes (``HllSketch.merge``,
``VoteStore.aggregate``, ``VirtualNetwork.request``, ...). The layers are the
program's modules.
"""

from __future__ import annotations

from dhtvote import bencode, client, krpc, node, routing, sim, sketch, store, udp

from harness import per_op

LAYERS = ("bencode", "krpc", "sketch", "store", "routing", "node", "client", "sim", "udp")


def instrument(tracer) -> None:
    """Wrap every traced function of every layer; undo with tracer.unpatch_all()."""
    t = tracer
    t.patch_span(bencode, "encode", "bencode.encode")
    t.patch_span(bencode, "decode", "bencode.decode")
    t.patch_span(krpc, "encode_message", "krpc.encode_message")
    t.patch_span(krpc, "decode_message", "krpc.decode_message")

    sketches_span = t.wrap("krpc.response_sketches", krpc.response_sketches)

    def response_sketches(values):
        result = sketches_span(values)
        if result != (None, None):
            t.count("get_votes.used")
        return result

    t.patch(krpc, "response_sketches", response_sketches)

    for method in ("add", "estimate", "merge"):
        t.patch_span(sketch.HllSketch, method, f"sketch.{method}")
    for method in ("record", "aggregate"):
        t.patch_span(store.VoteStore, method, f"store.{method}")

    in_window_plain = store.VoteRing.in_window

    def in_window(self, now_hour):
        blocks = in_window_plain(self, now_hour)
        t.count("store.blocks", len(blocks))
        return blocks

    t.patch(store.VoteRing, "in_window", in_window)

    closest_span = t.wrap("routing.closest", routing.RoutingTable.closest)

    def closest(self, target, k=None):
        t.count("routing.table_size", sum(map(len, self.buckets)))
        return closest_span(self, target, k)

    t.patch(routing.RoutingTable, "closest", closest)

    lookup_span = t.wrap("routing.lookup", node.iterative_lookup)
    query_span = t.wrap("node.find_node_fn", lambda query, contact, target: query(contact, target))

    def iterative_lookup(target, seeds, query, k=8, alpha=3):
        def counted(contact, target_):
            t.count("routing.queried")
            found = query_span(query, contact, target_)
            if found is not None:
                t.count("routing.answered")
            return found

        return lookup_span(target, seeds, counted, k=k, alpha=alpha)

    t.patch(node, "iterative_lookup", iterative_lookup)

    for method in ("handle_datagram", "send_query", "announce_round"):
        t.patch_span(node.VoteNode, method, f"node.{method}")

    announce_to_span = t.wrap("node.announce_vote_to", node.VoteNode.announce_vote_to)

    def announce_vote_to(self, contact, key, vote_value):
        t.count("_in_announce_to")
        try:
            return announce_to_span(self, contact, key, vote_value)
        finally:
            t.count("_in_announce_to", -1)

    t.patch(node.VoteNode, "announce_vote_to", announce_vote_to)

    def note_reply(kind, reply):
        if kind == "get_votes" and reply is not None:
            t.count("get_votes.replies")
            if t.counter("_in_announce_to"):
                t.count("node.token_reply_bytes", len(reply))

    sim_span = t.wrap("sim.request", sim.VirtualNetwork.request)

    def sim_request(self, source, dest, data, kind):
        reply = sim_span(self, source, dest, data, kind)
        note_reply(kind, reply)
        return reply

    t.patch(sim.VirtualNetwork, "request", sim_request)

    udp_span = t.wrap("udp.request", udp.UdpTransport.request)

    def udp_request(self, address, data, kind):
        reply = udp_span(self, address, data, kind)
        if reply is None:
            t.count("udp.timeouts")
        note_reply(kind, reply)
        return reply

    t.patch(udp.UdpTransport, "request", udp_request)

    fetch_span = t.wrap("client.fetch_votes", client.fetch_votes)
    for module in (client, sim, udp):
        t.patch(module, "fetch_votes", fetch_span)
    t.patch_span(client, "robust_combine", "client.robust_combine")


def merge_summaries(*summaries) -> dict:
    """Add up the span totals and counters of several processes."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, (calls, self_s, dur_s) in summary["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += dur_s
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}


def layer_metrics(
    merged: dict, modules: dict, ops: int, phase_seconds: float, overhead: float,
) -> dict[str, float]:
    """Per-layer metric values from merged span totals.

    ``modules`` is the op thread's self time per module; shares are taken
    of the measured phase's wall time on that thread.
    """
    spans = merged["spans"]
    counters = merged["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def calls_per_op(name):
        return per_op(calls(name), ops)

    def self_us(name):
        n = calls(name)
        return spans[name][1] / n * 1e6 if n else 0.0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    lookups = calls("routing.lookup")
    queried = counters.get("routing.queried", 0)
    values = {
        "bencode.encode.calls_per_op": calls_per_op("bencode.encode"),
        "bencode.encode.self_us": self_us("bencode.encode"),
        "bencode.decode.calls_per_op": calls_per_op("bencode.decode"),
        "bencode.decode.self_us": self_us("bencode.decode"),
        "krpc.encode_message.self_us": self_us("krpc.encode_message"),
        "krpc.decode_message.self_us": self_us("krpc.decode_message"),
        "sketch.merge.calls_per_op": calls_per_op("sketch.merge"),
        "sketch.merge.self_us": self_us("sketch.merge"),
        "sketch.estimate.self_us": self_us("sketch.estimate"),
        "sketch.add.calls_per_op": calls_per_op("sketch.add"),
        "store.aggregate.calls_per_op": calls_per_op("store.aggregate"),
        "store.aggregate.self_us": self_us("store.aggregate"),
        "store.aggregate.blocks_per_call": ratio(
            counters.get("store.blocks", 0), calls("store.aggregate")
        ),
        "store.record.calls_per_op": calls_per_op("store.record"),
        "store.record.self_us": self_us("store.record"),
        "routing.closest.calls_per_op": calls_per_op("routing.closest"),
        "routing.closest.self_us": self_us("routing.closest"),
        "routing.closest.table_size": ratio(
            counters.get("routing.table_size", 0), calls("routing.closest")
        ),
        "routing.lookup.calls_per_op": calls_per_op("routing.lookup"),
        "routing.lookup.queried_per_lookup": ratio(queried, lookups),
        "routing.lookup.answered_per_queried": ratio(
            counters.get("routing.answered", 0), queried
        ),
        "routing.lookup.self_us": self_us("routing.lookup"),
        "node.handle_datagram.calls_per_op": calls_per_op("node.handle_datagram"),
        "node.handle_datagram.self_us": self_us("node.handle_datagram"),
        "node.send_query.self_us": self_us("node.send_query"),
        "node.token_reply_bytes_per_op": per_op(
            counters.get("node.token_reply_bytes", 0), ops
        ),
        "node.get_votes.used_share": ratio(
            counters.get("get_votes.used", 0), counters.get("get_votes.replies", 0)
        ),
        "client.robust_combine.calls_per_op": calls_per_op("client.robust_combine"),
        "client.robust_combine.self_us": self_us("client.robust_combine"),
        "client.fetch_votes.self_us": self_us("client.fetch_votes"),
        "sim.request.self_us": self_us("sim.request"),
        "udp.request.calls_per_op": calls_per_op("udp.request"),
        "udp.request.wait_ms": per_op(spans.get("udp.request", (0, 0.0, 0.0))[2], ops) * 1e3,
        "udp.request.timeouts_per_op": per_op(counters.get("udp.timeouts", 0), ops),
    }
    for layer in LAYERS:
        values[f"{layer}.self_share"] = modules.get(layer, 0.0) / phase_seconds
    values["trace.overhead_share"] = overhead
    return values
