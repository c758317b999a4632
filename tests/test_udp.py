import dataclasses
import os
import random
import selectors
import socket
import statistics
import threading
import time
from hashlib import sha1

import pytest

from dhtvote import krpc
from dhtvote.cli import main
from dhtvote.node import Journal, LocalVote, NodeConfig, VoteNode, vote_key
from dhtvote.routing import Contact
from dhtvote.store import Polarity
from dhtvote.udp import UdpNodeRunner, UdpTransport

RECV_POLL_SECONDS = 0.2  # the receive loop's socket timeout
FAKE_PEERS = 4


def test_stop_returns_without_waiting_for_the_receive_poll():
    for bind in (("127.0.0.1", 0), ("0.0.0.0", 0)):
        transport = UdpTransport(bind)
        transport.start()
        time.sleep(0.05)  # let the receive loop block in recvfrom
        started = time.perf_counter()
        transport.stop()
        assert time.perf_counter() - started < RECV_POLL_SECONDS / 2
        assert not transport._thread.is_alive()


def test_second_stop_is_a_no_op():
    for bind in (("127.0.0.1", 0), ("0.0.0.0", 0)):
        transport = UdpTransport(bind)
        transport.start()
        transport.stop()
        transport.stop()
    runner = UdpNodeRunner(client_config([]))
    runner.start()
    runner.stop()
    runner.stop()


class FakePeers:
    """Loopback peers that answer every query and list all of themselves.

    With ``ping_first`` a peer sends the querier a ping just before each
    get_votes reply, from the same socket, so the ping always arrives first:
    an inbound query lands while the querier's request is waiting. With
    ``silent`` the peers also list a bound socket that never answers, under
    an id derived from the query's target: a node drops an id that timed
    out, so each lookup of a new target meets a silent id it never met.
    """

    def __init__(self, ping_first: bool = False, silent: bool = False):
        self.ping_first = ping_first
        self._selector = selectors.DefaultSelector()
        self.contacts = []
        for i in range(FAKE_PEERS):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind(("127.0.0.1", 0))
            contact = Contact(bytes([i + 1]) * 20, *sock.getsockname())
            self.contacts.append(contact)
            self._selector.register(sock, selectors.EVENT_READ, contact)
        self._silent = None
        if silent:
            self._silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._silent.bind(("127.0.0.1", 0))
        self._nodes = krpc.pack_contacts(self.contacts)
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _listed(self, query: krpc.Query) -> bytes:
        """The nodes a reply to query lists."""
        if self._silent is None:
            return self._nodes
        silent = Contact(sha1(query.args[b"target"]).digest(), *self._silent.getsockname())
        return self._nodes + krpc.pack_contacts([silent])

    def _serve(self) -> None:
        while self._running:
            for key, _ in self._selector.select(timeout=0.05):
                sock, peer_id = key.fileobj, key.data.id
                data, source = sock.recvfrom(krpc.MAX_DATAGRAM)
                query = krpc.decode_message(data)
                if not isinstance(query, krpc.Query):
                    continue  # the client's answer to our ping
                if query.method == "get_votes":
                    if self.ping_first:
                        ping = krpc.Query(b"pg", "ping", {b"id": peer_id})
                        sock.sendto(krpc.encode_message(ping), source)
                    nodes = self._listed(query)
                    reply = krpc.Response(query.tid, {b"id": peer_id, b"token": b"token", b"nodes": nodes})
                elif query.method == "find_node":
                    reply = krpc.Response(query.tid, {b"id": peer_id, b"nodes": self._listed(query)})
                else:  # ping and announce_vote both answer {id}
                    reply = krpc.Response(query.tid, {b"id": peer_id})
                sock.sendto(krpc.encode_message(reply), source)

    def close(self) -> None:
        self._running = False
        self._thread.join(timeout=1.0)
        assert not self._thread.is_alive()
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        if self._silent is not None:
            self._silent.close()


def client_config(bootstrap, timeout: float = 0.1) -> NodeConfig:
    return NodeConfig(
        bind=("127.0.0.1", 0), bootstrap=list(bootstrap), query_timeout=timeout, query_retries=0
    )


def deliveries(report) -> int:
    return sum(ok for sends in report.values() for _, ok in sends)


def announce_deliveries(ping_first: bool) -> int:
    """Deliveries of one announce round of one vote to the fake peers."""
    peers = FakePeers(ping_first)
    client = UdpNodeRunner(client_config([peers.contacts[0].address]))
    try:
        client.start()
        client.cast_vote(b"\x07" * 20, Polarity.POSITIVE)
        report = client.announce_round()
    finally:
        client.stop()
        peers.close()
    return deliveries(report)


def test_announce_reaches_quiet_peers():
    assert announce_deliveries(ping_first=False) == FAKE_PEERS


def test_announce_survives_inbound_queries():
    assert announce_deliveries(ping_first=True) == FAKE_PEERS


def timed_round(client: UdpNodeRunner):
    started = time.perf_counter()
    report = client.announce_round()
    return report, time.perf_counter() - started


def fresh_round(votes: int):
    """A round of ``votes`` fresh votes on a fresh client with fresh silent
    peers, so each vote's lookup meets a silent contact it never met:
    (the deliveries, the round's seconds)."""
    peers = FakePeers(silent=True)
    client = UdpNodeRunner(client_config([peers.contacts[0].address]))
    try:
        client.start()
        for i in range(votes):
            client.cast_vote(bytes([7 + i]) * 20, Polarity.POSITIVE)
        report, seconds = timed_round(client)
    finally:
        client.stop()
        peers.close()
    return deliveries(report), seconds


def test_round_waits_on_its_votes_concurrently():
    """Each vote's lookup waits on its own silent contact; two votes' waits overlap."""
    one, one_seconds = fresh_round(1)
    two, two_seconds = fresh_round(2)
    assert one == FAKE_PEERS
    assert two == 2 * FAKE_PEERS
    assert one_seconds >= client_config([]).query_timeout
    assert two_seconds < 1.5 * one_seconds


def test_a_second_fetch_does_not_wait_on_the_contact_that_timed_out():
    """The first fetch of a key waits one timeout on its silent contact; the
    client then drops that id, and a second fetch of the key waits on nothing."""
    peers = FakePeers(silent=True)
    client = UdpNodeRunner(client_config([peers.contacts[0].address], timeout=0.3))
    seconds = []
    try:
        client.start()
        for _ in range(2):
            started = time.perf_counter()
            result = client.fetch_votes(b"\x07" * 20)
            seconds.append(time.perf_counter() - started)
            assert result.responders == FAKE_PEERS
    finally:
        client.stop()
        peers.close()
    assert seconds[0] >= client.config.query_timeout
    assert seconds[1] < client.config.query_timeout


def test_rounds_of_one_runner_may_overlap():
    """Two rounds at once: both lookups end before either round announces,
    and each round's announces use its own lookup's tokens."""
    peers = FakePeers()
    client = UdpNodeRunner(client_config([peers.contacts[0].address]))
    both_looked_up = threading.Barrier(2, timeout=5.0)
    get_votes_lookup = client.node.get_votes_lookup

    def lookup_then_wait(key, no_votes=False):
        replicas = get_votes_lookup(key, no_votes)
        both_looked_up.wait()
        return replicas

    client.node.get_votes_lookup = lookup_then_wait
    reports = []
    rounds = [
        threading.Thread(target=lambda: reports.append(client.announce_round()))
        for _ in range(2)
    ]
    try:
        client.start()
        client.cast_vote(b"\x07" * 20, Polarity.POSITIVE)
        for thread in rounds:
            thread.start()
        for thread in rounds:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in rounds)
    finally:
        client.stop()
        peers.close()
    assert [deliveries(report) for report in reports] == [FAKE_PEERS] * 2


def test_cast_vote_during_a_round():
    """A cast neither waits for a running round nor breaks it."""
    peers = FakePeers(silent=True)
    client = UdpNodeRunner(client_config([peers.contacts[0].address], timeout=0.3))
    outcome = []
    try:
        client.start()
        client.cast_vote(b"\x07" * 20, Polarity.POSITIVE)
        round_thread = threading.Thread(
            target=lambda: outcome.append(client.announce_round())
        )
        round_thread.start()
        time.sleep(0.05)  # the round is waiting on the silent contact
        verdicts = [client.cast_vote(bytes([i]) * 20, Polarity.NEGATIVE) for i in range(32, 52)]
        casts_done_mid_round = round_thread.is_alive()
        round_thread.join(timeout=5.0)
        assert not round_thread.is_alive()
    finally:
        client.stop()
        peers.close()
    assert verdicts == ["accepted"] * 20
    assert casts_done_mid_round
    [report] = outcome  # the round raised nothing
    assert list(report) == [b"\x07" * 20]
    assert deliveries(report) == FAKE_PEERS
    assert len(client.node.local_votes) == 21


def cli_vote(state_dir, peers: FakePeers, infohash: str) -> int:
    host, port = peers.contacts[0].address
    return main(["--timeout", "0.1", "vote", "--state-dir", str(state_dir), "--bootstrap",
                 f"{host}:{port}", "--infohash", infohash, "--polarity", "-1"])


def test_dhtvote_vote_announces_only_the_vote_it_casts(tmp_path, sent_requests, capsys):
    journal = Journal(tmp_path)
    for older in (b"\x01" * 20, b"\x02" * 20):
        journal.append(LocalVote(older, Polarity.POSITIVE, 1700000000))
    peers = FakePeers()
    try:
        assert cli_vote(tmp_path, peers, "34" * 20) == 0
    finally:
        peers.close()
    assert capsys.readouterr().out == f"announced to {FAKE_PEERS} replicas\n"
    assert [kind for kind, _ in sent_requests].count("announce_vote") == FAKE_PEERS
    assert "find_node" not in [kind for kind, _ in sent_requests]
    assert {target for _, target in sent_requests} == {None, vote_key(b"\x34" * 20)}


def test_round_announces_a_vote_that_dhtvote_vote_cast(tmp_path, capsys):
    """ROADMAP item 11's gate: `dhtvote vote` casts into a running node's state dir."""
    peers = FakePeers()
    runner = UdpNodeRunner(dataclasses.replace(
        client_config([peers.contacts[0].address]), state_dir=str(tmp_path)
    ))
    try:
        runner.start()
        assert runner.announce_round() == {}
        assert cli_vote(tmp_path, peers, "56" * 20) == 0
        report = runner.announce_round()
    finally:
        runner.stop()
        peers.close()
    assert capsys.readouterr().out == f"announced to {FAKE_PEERS} replicas\n"
    assert list(report) == [b"\x56" * 20]
    assert deliveries(report) == FAKE_PEERS


def test_round_under_inbound_pings_takes_at_most_twice_the_quiet_time(sent_requests):
    """ROADMAP item 2's gate: 8 real nodes, 20 votes, about 100 pings/s.

    No retries, so a reply that the receive thread drops fails the round.
    The timeout is long, so a reply that a busy host merely delays does not.
    Each round announces 20 votes cast just before it, so that no replica
    holds them yet and every round sends all 160 announce_vote.
    """
    servers = []
    client = None
    stop_pinging, pinging = threading.Event(), threading.Event()
    pongs, quiet, noisy = [], [], []
    try:
        for _ in range(8):
            bootstrap = [servers[0].local_address] if servers else []
            servers.append(UdpNodeRunner(client_config(bootstrap, timeout=1.0)))
            servers[-1].start()
        for server in servers:  # second pass so early joiners learn late ones
            server.node.bootstrap()
        client = UdpNodeRunner(client_config([servers[0].local_address], timeout=1.0))
        client.start()
        fresh = (sha1(i.to_bytes(2, "big")).digest() for i in range(20 * 18))

        def delivered_round() -> float:
            client.node.local_votes.clear()  # the round announces only the 20 cast now
            for _ in range(20):
                client.cast_vote(next(fresh), Polarity.POSITIVE)
            sent_before = len(sent_requests)
            report, seconds = timed_round(client)
            assert sorted(map(len, report.values())) == [8] * 20
            assert deliveries(report) == 20 * 8
            sent = [kind for kind, _ in sent_requests[sent_before:]]
            assert sent.count("announce_vote") == 20 * 8
            return seconds

        def ping():
            pinger = servers[0].node
            while not stop_pinging.wait(0.01):
                if pinging.is_set():
                    pongs.append(pinger.send_query(client.local_address, "ping", {}))

        # quiet and noisy rounds alternate, so host contention falls on both
        ping_thread = threading.Thread(target=ping)
        ping_thread.start()
        try:
            for _ in range(9):
                pinging.clear()
                quiet.append(delivered_round())
                pinging.set()
                noisy.append(delivered_round())
        finally:
            stop_pinging.set()
            ping_thread.join(timeout=5.0)
        assert not ping_thread.is_alive()
    finally:
        stop_pinging.set()
        for runner in servers + [client]:
            if runner is not None:
                runner.stop()
    assert pongs and all(pong is not None for pong in pongs)
    assert statistics.median(noisy) <= 2 * statistics.median(quiet)


def test_run_forever_announces_each_period_until_stopped():
    """Rounds start one announce_period apart, and stop() ends the loop."""
    servers = []
    client = None
    starts = []
    info_hash = b"\x07" * 20
    try:
        for _ in range(3):
            bootstrap = [servers[0].local_address] if servers else []
            servers.append(UdpNodeRunner(client_config(bootstrap)))
            servers[-1].start()
        config = client_config([servers[0].local_address])
        client = UdpNodeRunner(dataclasses.replace(config, announce_period=0.3))
        client.start()
        client.cast_vote(info_hash, Polarity.POSITIVE)
        announce_round = client.announce_round

        def counted_round():
            starts.append(time.monotonic())
            return announce_round()

        client.announce_round = counted_round
        thread = threading.Thread(target=client.run_forever)
        thread.start()
        deadline = time.monotonic() + 5.0
        while len(starts) < 4 and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        for runner in [client] + servers:
            if runner is not None:
                runner.stop()
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert len(starts) >= 4
    assert 0.25 <= starts[1] - starts[0] < 0.9  # one period, not a 1 s poll
    assert any(vote_key(info_hash) in server.node.store for server in servers)


def test_run_forever_outlives_a_round_that_raises(caplog):
    """A failed round is logged, the next period still announces, and
    stop() ends the loop."""
    server = UdpNodeRunner(client_config([]))
    server.start()
    config = client_config([server.local_address])
    client = UdpNodeRunner(dataclasses.replace(config, announce_period=0.2))
    info_hash = b"\x07" * 20
    calls = []
    announce_round = client.announce_round

    def failing_once():
        calls.append(time.monotonic())
        if len(calls) == 1:
            raise RuntimeError("round failed")
        return announce_round()

    client.announce_round = failing_once
    thread = threading.Thread(target=client.run_forever)
    try:
        client.start()
        client.cast_vote(info_hash, Polarity.POSITIVE)
        thread.start()
        deadline = time.monotonic() + 5.0
        while vote_key(info_hash) not in server.node.store and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        stopping = time.monotonic()
        client.stop()
        thread.join(timeout=2.0)
        stop_seconds = time.monotonic() - stopping
        server.stop()
    assert not thread.is_alive() and stop_seconds < 1.0
    assert len(calls) >= 2 and vote_key(info_hash) in server.node.store
    assert "announce round failed" in caplog.text


def test_concurrent_requests_that_draw_one_tid_are_both_delivered():
    """ROADMAP item 2: two requests pending on one peer at once never share a
    tid, though the random source repeats one; the node draws again."""
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(1.0)
    tids = iter([b"\x00\x07", b"\x00\x07", b"\x00\x08"])
    transport = UdpTransport(("127.0.0.1", 0), timeout=2.0)
    node = VoteNode(NodeConfig(), transport, node_id=b"\x01" * 20,
                    rand_bytes=lambda n: next(tids) if n == 2 else bytes(n))
    transport.start()
    replies = []

    def ping():
        replies.append(node.send_query(peer.getsockname(), "ping", {}))

    threads = [threading.Thread(target=ping) for _ in range(2)]
    try:
        for thread in threads:
            thread.start()
        # neither is answered before both have arrived, so both are pending at once
        received = [peer.recvfrom(2048) for _ in threads]
        for data, source in received:
            tid = krpc.decode_message(data).tid
            peer.sendto(krpc.encode_message(krpc.Response(tid, {b"id": b"\x02" * 20})), source)
        for thread in threads:
            thread.join(timeout=2.0)
    finally:
        transport.stop()
        peer.close()
    assert sorted(krpc.decode_message(data).tid for data, _ in received) == [
        b"\x00\x07", b"\x00\x08"
    ]
    assert len(replies) == 2 and all(reply is not None for reply in replies)
    assert node._tids == {}


def node_on_loopback(**config) -> tuple[VoteNode, UdpTransport]:
    """A started VoteNode on a UdpTransport with config's timeout."""
    config = NodeConfig(**config)
    transport = UdpTransport(("127.0.0.1", 0), timeout=config.query_timeout)
    node = VoteNode(config, transport, node_id=b"\x01" * 20)
    transport.start()
    return node, transport


def test_a_retry_resends_the_same_datagram_and_takes_its_reply():
    """The peer ignores the first try; the second carries the same bytes,
    the same tid included, and the peer's answer to it is the reply."""
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(2.0)
    node, transport = node_on_loopback(query_timeout=0.5, query_retries=1)
    replies = []
    thread = threading.Thread(
        target=lambda: replies.append(node.send_query(peer.getsockname(), "ping", {}))
    )
    try:
        thread.start()
        first, _ = peer.recvfrom(2048)  # left unanswered, so the try times out
        second, source = peer.recvfrom(2048)
        tid = krpc.decode_message(second).tid
        peer.sendto(krpc.encode_message(krpc.Response(tid, {b"id": b"\x02" * 20})), source)
        thread.join(timeout=2.0)
        assert not thread.is_alive()
    finally:
        transport.stop()
        peer.close()
    assert second == first
    [reply] = replies
    assert reply is not None and reply.values == {b"id": b"\x02" * 20}


def test_an_error_reply_ends_the_query_without_a_retry():
    """A KRPC error is a reply, not a timeout: the peer gets one datagram,
    and send_query returns None long before the timeout."""
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(2.0)
    node, transport = node_on_loopback(query_timeout=2.0, query_retries=2)
    outcome = []

    def ping():
        started = time.perf_counter()
        reply = node.send_query(peer.getsockname(), "ping", {})
        outcome.append((reply, time.perf_counter() - started))

    thread = threading.Thread(target=ping)
    try:
        thread.start()
        data, source = peer.recvfrom(2048)
        tid = krpc.decode_message(data).tid
        error = krpc.ErrorMessage(tid, krpc.SERVER_ERROR, "internal error")
        peer.sendto(krpc.encode_message(error), source)
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        peer.settimeout(0.05)
        with pytest.raises(socket.timeout):
            peer.recvfrom(2048)  # no second try was sent
    finally:
        transport.stop()
        peer.close()
    [(reply, seconds)] = outcome
    assert reply is None
    assert seconds < node.config.query_timeout / 4


def ping(pinger: UdpNodeRunner, address) -> krpc.Response | None:
    return pinger.node.send_query(address, "ping", {})


def test_ping_is_answered_while_a_cast_syncs_the_journal(tmp_path, monkeypatch):
    """The receive thread does not wait for a cast's journal fsync."""
    syncing, release = threading.Event(), threading.Event()
    real_fsync = os.fsync

    def held_fsync(fd):
        syncing.set()
        release.wait(5.0)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", held_fsync)
    voter = UdpNodeRunner(dataclasses.replace(client_config([]), state_dir=str(tmp_path)))
    pinger = UdpNodeRunner(client_config([], timeout=0.5))
    cast = threading.Thread(target=voter.cast_vote, args=(b"\x07" * 20, Polarity.POSITIVE))
    try:
        voter.start()
        pinger.start()
        cast.start()
        assert syncing.wait(2.0)
        started = time.perf_counter()
        reply = ping(pinger, voter.local_address)
        seconds = time.perf_counter() - started
        assert cast.is_alive()  # the cast still holds the runner lock
    finally:
        release.set()
        cast.join(timeout=5.0)
        pinger.stop()
        voter.stop()
    assert not cast.is_alive()
    assert reply is not None and reply.values[b"id"] == voter.node.node_id
    assert seconds < 0.25


def wait_until_read(sender: socket.socket, address) -> bool:
    """Ping from ``sender`` until answered, within 5 s. The receive thread
    reads in order, so every datagram sent before has then been read, or
    dropped by the kernel when the socket's buffer was full."""
    sender.settimeout(0.5)
    barrier = krpc.encode_message(krpc.Query(b"zz", "ping", {b"id": b"\x02" * 20}))
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        sender.sendto(barrier, address)
        try:
            while krpc.decode_message(sender.recvfrom(2048)[0]).tid != b"zz":
                pass  # a reply to one of the corrupted queries
            return True
        except socket.timeout:
            continue
    return False


def test_runner_survives_malformed_datagrams():
    """Garbage, truncated and corrupted queries through the socket leave the
    receive thread alive and answering."""
    rng = random.Random(15)
    target = UdpNodeRunner(client_config([]))
    pinger = UdpNodeRunner(client_config([], timeout=0.5))
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    query = krpc.encode_message(
        krpc.Query(b"gv", "get_votes", {b"id": b"\x01" * 20, b"target": b"\x07" * 20}))
    datagrams = [rng.randbytes(rng.randint(1, 1500)) for _ in range(100)]
    datagrams += [query[:rng.randrange(len(query))] for _ in range(100)]
    for _ in range(100):
        corrupt = bytearray(query)
        corrupt[rng.randrange(len(corrupt))] = rng.randrange(256)
        datagrams.append(bytes(corrupt))
    try:
        target.start()
        pinger.start()
        for datagram in datagrams:
            sender.sendto(datagram, target.local_address)
        assert wait_until_read(sender, target.local_address)
        reply = ping(pinger, target.local_address)
        receiver = target.transport._thread
        assert receiver.name == "dhtvote-recv" and receiver.is_alive()
    finally:
        sender.close()
        pinger.stop()
        target.stop()
    assert reply is not None and reply.values[b"id"] == target.node.node_id


def test_handler_exception_leaves_the_receive_thread_answering(monkeypatch, caplog):
    """A query whose handler raises is logged and unanswered; the next one
    is answered."""
    handle_datagram = VoteNode.handle_datagram
    raised = []

    def failing_once(self, data, source):
        if not raised:
            raised.append(source)
            raise RuntimeError("handler failed")
        return handle_datagram(self, data, source)

    monkeypatch.setattr(VoteNode, "handle_datagram", failing_once)
    target = UdpNodeRunner(client_config([]))
    pinger = UdpNodeRunner(client_config([], timeout=0.3))
    try:
        target.start()
        pinger.start()
        first = ping(pinger, target.local_address)
        second = ping(pinger, target.local_address)
        assert target.transport._thread.is_alive()
        assert raised == [pinger.local_address]
    finally:
        pinger.stop()
        target.stop()
    assert first is None
    assert second is not None and second.values[b"id"] == target.node.node_id
    assert "datagram handler failed" in caplog.text
