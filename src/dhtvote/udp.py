"""Real UDP transport and the long-running node wrapper.

One receive thread demultiplexes the socket: inbound queries go to the
node's handler, inbound responses are matched to waiting requests by
(address, transaction id). Requests wait on their own threads, and no lock
is held while they wait, so the receive thread never waits on a lookup.
An announce round looks up and announces up to ``alpha`` votes at once.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from . import krpc
from .client import VoteResult, fetch_votes
from .node import Address, NodeConfig, VoteNode
from .store import Polarity

log = logging.getLogger(__name__)

_RECV_BUFFER = 2048


class UdpTransport:
    def __init__(
        self,
        bind: Address,
        timeout: float = NodeConfig.query_timeout,
        retries: int = NodeConfig.query_retries,
    ):
        self.timeout = timeout
        self.retries = retries
        self.handler = None  # set by the runner before start()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(bind)
        self._sock.settimeout(0.2)
        self._pending: dict[tuple[Address, bytes], "_Waiter"] = {}
        self._lock = threading.Lock()
        self._running = False
        self._thread: threading.Thread | None = None

    @property
    def local_address(self) -> Address:
        return self._sock.getsockname()

    def start(self) -> None:
        self._running = True
        self._thread = threading.Thread(target=self._recv_loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            # An empty datagram to ourselves wakes the receive loop at once;
            # its 0.2 s poll is only the fallback should the wake-up be lost.
            host, port = self.local_address
            try:
                self._sock.sendto(b"", ("127.0.0.1" if host == "0.0.0.0" else host, port))
            except OSError:
                pass
            self._thread.join(timeout=2.0)
        self._sock.close()

    def request(self, address: Address, data: bytes, kind: str) -> bytes | None:
        try:
            tid = krpc.decode_message(data).tid
        except Exception:
            raise ValueError("request payload is not a KRPC message")
        key = (address, tid)
        waiter = _Waiter()
        with self._lock:
            if key in self._pending:
                return None  # its reply could not be told from the other's
            self._pending[key] = waiter
        try:
            for _ in range(self.retries + 1):
                try:
                    self._sock.sendto(data, address)
                except OSError:
                    return None
                if waiter.event.wait(self.timeout):
                    return waiter.reply
            return None
        finally:
            with self._lock:
                self._pending.pop(key, None)

    def _recv_loop(self) -> None:
        while self._running:
            try:
                data, source = self._sock.recvfrom(_RECV_BUFFER)
            except socket.timeout:
                continue
            except OSError:
                break
            self._dispatch(data, source)

    def _dispatch(self, data: bytes, source: Address) -> None:
        try:
            message = krpc.decode_message(data)
        except Exception:
            return
        if isinstance(message, krpc.Query):
            if self.handler is None:
                return
            try:
                reply = self.handler(data, source)
            except Exception:
                log.exception("datagram handler failed")
                return
            if reply is not None:
                try:
                    self._sock.sendto(reply, source)
                except OSError:
                    pass
        else:
            with self._lock:
                waiter = self._pending.get((source, message.tid))
            if waiter is not None:
                waiter.reply = data if isinstance(message, krpc.Response) else None
                waiter.event.set()


class _Waiter:
    __slots__ = ("event", "reply")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.reply: bytes | None = None


class UdpNodeRunner:
    """A VoteNode bound to a real socket, with periodic maintenance.

    ``_lock`` serializes the node state that the receive thread shares
    with callers: inbound queries, casts, store expiry, and the copy of the
    local votes an announce round starts from. It is never held across
    network I/O; bootstrap, lookups and announces take no lock but the
    routing table's own. ``_round_lock`` keeps announce rounds one at a
    time; the receive thread never takes it.
    """

    def __init__(self, config: NodeConfig, node_id: bytes | None = None):
        self.config = config
        self.transport = UdpTransport(
            config.bind, timeout=config.query_timeout, retries=config.query_retries
        )
        self.node = VoteNode(config, self.transport, node_id=node_id)
        self._lock = threading.Lock()
        self._round_lock = threading.Lock()
        self.transport.handler = self._handle
        self._stop = threading.Event()

    @property
    def local_address(self) -> Address:
        return self.transport.local_address

    def _handle(self, data: bytes, source: Address) -> bytes | None:
        with self._lock:
            return self.node.handle_datagram(data, source)

    def start(self) -> None:
        self.transport.start()
        self.node.bootstrap()

    def stop(self) -> None:
        self._stop.set()
        self.transport.stop()

    def cast_vote(self, info_hash: bytes, polarity: Polarity) -> str:
        with self._lock:
            return self.node.cast_vote(info_hash, polarity)

    def announce_round(self):
        """One round over the local votes, up to alpha of them at once."""
        with self._round_lock:
            with self._lock:
                votes = list(self.node.local_votes.values())
            with ThreadPoolExecutor(
                max_workers=self.config.alpha, thread_name_prefix="dhtvote-announce"
            ) as pool:
                return self.node.announce_round(votes, pool.map)

    def fetch_votes(self, info_hash: bytes) -> VoteResult:
        return fetch_votes(self.node, info_hash)

    def run_forever(self) -> None:
        """Announce now and every announce_period after, until stop().

        The store is expired at the first round that starts an hour or more
        after the last expiry; the period is under an hour, so expiry lags
        by less than one period.
        """
        last_expiry = time.time()
        while not self._stop.is_set():
            started = time.time()
            if started - last_expiry >= 3600:
                with self._lock:
                    self.node.store.expire(started)
                last_expiry = started
            try:
                report = self.announce_round()
            except Exception:
                log.exception("announce round failed")
            else:
                delivered = sum(ok for sends in report.values() for _, ok in sends)
                log.info("announce round: %d votes, %d deliveries", len(report), delivered)
            self._stop.wait(started + self.config.announce_period - time.time())
