import dataclasses
import selectors
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from dhtvote import krpc, udp
from dhtvote.node import NodeConfig, VoteNode, vote_key
from dhtvote.routing import Contact
from dhtvote.store import Polarity
from dhtvote.udp import UdpNodeRunner, UdpTransport

RECV_POLL_SECONDS = 0.2  # the receive loop's socket timeout
FAKE_PEERS = 4
SILENT_ID = b"\xff" * 20


def test_stop_returns_without_waiting_for_the_receive_poll():
    for bind in (("127.0.0.1", 0), ("0.0.0.0", 0)):
        transport = UdpTransport(bind)
        transport.start()
        time.sleep(0.05)  # let the receive loop block in recvfrom
        started = time.perf_counter()
        transport.stop()
        assert time.perf_counter() - started < RECV_POLL_SECONDS / 2
        assert not transport._thread.is_alive()


class FakePeers:
    """Loopback peers that answer every query and list all of themselves.

    With ``ping_first`` a peer sends the querier a ping just before each
    get_votes reply, from the same socket, so the ping always arrives first:
    an inbound query lands while the querier's request is waiting. With
    ``silent`` the peers also list a bound socket that never answers, so
    every lookup waits on it once.
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
        listed = list(self.contacts)
        self._silent = None
        if silent:
            self._silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._silent.bind(("127.0.0.1", 0))
            listed.append(Contact(SILENT_ID, *self._silent.getsockname()))
        self._nodes = krpc.pack_contacts(listed)
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        nodes = self._nodes
        while self._running:
            for key, _ in self._selector.select(timeout=0.05):
                sock, peer_id = key.fileobj, key.data.id
                data, source = sock.recvfrom(2048)
                query = krpc.decode_message(data)
                if not isinstance(query, krpc.Query):
                    continue  # the client's answer to our ping
                if query.method == "get_votes":
                    if self.ping_first:
                        ping = krpc.ping_query(b"pg", peer_id)
                        sock.sendto(krpc.encode_message(ping), source)
                    reply = krpc.get_votes_response(query.tid, peer_id, b"token", nodes)
                elif query.method == "find_node":
                    reply = krpc.find_node_response(query.tid, peer_id, nodes)
                else:  # ping and announce_vote both answer {id}
                    reply = krpc.ping_response(query.tid, peer_id)
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


def test_round_waits_on_its_votes_concurrently():
    """Each vote's lookup waits on the silent contact; two votes' waits overlap."""
    peers = FakePeers(silent=True)
    client = UdpNodeRunner(client_config([peers.contacts[0].address]))
    try:
        client.start()
        client.cast_vote(b"\x07" * 20, Polarity.POSITIVE)
        one, one_seconds = timed_round(client)
        client.cast_vote(b"\x08" * 20, Polarity.NEGATIVE)
        two, two_seconds = timed_round(client)
    finally:
        client.stop()
        peers.close()
    assert deliveries(one) == FAKE_PEERS
    assert deliveries(two) == 2 * FAKE_PEERS
    assert one_seconds >= client.config.query_timeout
    assert two_seconds < 1.5 * one_seconds


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


def test_round_under_inbound_pings_takes_at_most_twice_the_quiet_time():
    """ROADMAP item 2's gate: 8 real nodes, 20 votes, about 100 pings/s."""
    servers = []
    client = None
    stop_pinging = threading.Event()
    pongs = []
    try:
        for _ in range(8):
            bootstrap = [servers[0].local_address] if servers else []
            servers.append(UdpNodeRunner(client_config(bootstrap, timeout=0.2)))
            servers[-1].start()
        for server in servers:  # second pass so early joiners learn late ones
            server.node.bootstrap()
        client = UdpNodeRunner(client_config([servers[0].local_address], timeout=0.2))
        client.start()
        for i in range(20):
            client.cast_vote(bytes([i + 1]) * 20, Polarity.POSITIVE)

        def rounds():
            """The median time of three rounds that each deliver everything."""
            timings = []
            for _ in range(3):
                report, seconds = timed_round(client)
                assert sorted(map(len, report.values())) == [8] * 20
                assert deliveries(report) == 20 * 8
                timings.append(seconds)
            return sorted(timings)[1]

        def ping():
            pinger = servers[0].node
            while not stop_pinging.wait(0.01):
                query = krpc.ping_query(pinger._new_tid(), pinger.node_id)
                pongs.append(pinger.send_query(client.local_address, query))

        quiet = rounds()
        ping_thread = threading.Thread(target=ping)
        ping_thread.start()
        try:
            noisy = rounds()
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
    assert noisy <= 2 * quiet


def test_run_forever_announces_each_period_until_stopped(monkeypatch):
    """Rounds start one announce_period apart, the store expires at the
    first round an hour after the last expiry, and stop() ends the loop."""
    skew = [0.0]  # added to the runner's clock; jumps an hour after round 2
    monkeypatch.setattr(udp, "time", SimpleNamespace(time=lambda: time.time() + skew[0]))
    servers = []
    client = None
    starts, expiries = [], []
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
            report = announce_round()
            if len(starts) == 2:
                skew[0] = 3600.0
            return report

        client.announce_round = counted_round
        monkeypatch.setattr(client.node.store, "expire", expiries.append)
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
    assert len(expiries) == 1  # at round 3, the first an hour after the start
    assert any(vote_key(info_hash) in server.node.store for server in servers)


def test_request_refuses_a_transaction_id_already_pending():
    """Two requests to one address with one tid: the second is a miss, sent
    nowhere, and the first still gets its reply."""
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(2.0)
    transport = UdpTransport(("127.0.0.1", 0), timeout=0.5, retries=0)
    # every transaction id is two zero bytes
    node = VoteNode(NodeConfig(), transport, rand_bytes=lambda n: bytes(n), node_id=b"\x01" * 20)
    transport.start()
    first = []

    def ping():
        return node.send_query(peer.getsockname(), krpc.ping_query(node._new_tid(), node.node_id))

    thread = threading.Thread(target=lambda: first.append(ping()))
    try:
        thread.start()
        data, source = peer.recvfrom(2048)  # the first request is now pending
        started = time.perf_counter()
        assert ping() is None
        assert time.perf_counter() - started < transport.timeout / 2
        tid = krpc.decode_message(data).tid
        peer.sendto(krpc.encode_message(krpc.ping_response(tid, b"\x02" * 20)), source)
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        peer.settimeout(0.05)
        with pytest.raises(socket.timeout):
            peer.recvfrom(2048)  # the refused request sent nothing
    finally:
        transport.stop()
        peer.close()
    [reply] = first
    assert reply is not None and reply.values[b"id"] == b"\x02" * 20
    assert transport._pending == {}
