"""Real UDP transport and the long-running node wrapper.

A request sends its datagram once and waits up to the timeout; the node
decides whether to resend. One receive thread demultiplexes the socket:
inbound queries go to the node's ``handle_datagram``, as in the simulator,
and each inbound response or error goes to the request pending on its
source address and transaction id. The transport keys each pending request
by that (address, tid) pair, so a request names its peer by IP, not host
name; the node keeps its tids unique. It takes no lock but the routing
table's, so neither a lookup nor a journal sync delays an answer. A round
announces up to ``alpha`` votes at once, and rounds may overlap.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from . import krpc
from .client import VoteResult, fetch_votes
from .node import Address, NodeConfig, VoteNode
from .store import Polarity

log = logging.getLogger(__name__)


class UdpTransport:
    def __init__(self, bind: Address, timeout: float = NodeConfig.query_timeout):
        self.timeout = timeout
        self.handler: VoteNode | None = None  # set by the runner before start()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(bind)
        self._sock.settimeout(0.2)
        self._pending: dict[tuple[Address, bytes], queue.SimpleQueue] = {}
        self._running = False
        self._thread: threading.Thread | None = None

    @property
    def local_address(self) -> Address:
        return self._sock.getsockname()

    def start(self) -> None:
        self._running = True
        self._thread = threading.Thread(target=self._recv_loop, name="dhtvote-recv", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._running:  # only once after start(); closing again is a no-op
            self._running = False
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
        key = (address, krpc.decode_message(data).tid)
        self._pending[key] = replies = queue.SimpleQueue()
        try:
            self._sock.sendto(data, address)
            return replies.get(timeout=self.timeout)
        except (queue.Empty, OSError):
            return None
        finally:
            del self._pending[key]

    def _recv_loop(self) -> None:
        while self._running:
            try:
                data, source = self._sock.recvfrom(krpc.MAX_DATAGRAM)
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
            try:  # looked up per call, so a patch on the class takes effect
                reply = self.handler.handle_datagram(data, source)
            except Exception:
                log.exception("datagram handler failed")
                return
            if reply is not None:
                try:
                    self._sock.sendto(reply, source)
                except OSError:
                    pass
        else:
            replies = self._pending.get((source, message.tid))
            if replies is not None:
                replies.put(data)


class UdpNodeRunner:
    """A VoteNode bound to a real socket, with periodic announce rounds.

    The receive thread alone touches the node's store and token issuer, and
    takes no runner lock. ``_lock`` guards the local votes and journal: a
    cast holds it across the journal's sync, a round only to reload a
    changed journal and copy the votes. Rounds may overlap. Bootstrap,
    lookups and announces take no lock but the routing table's own.
    """

    def __init__(self, config: NodeConfig, node_id: bytes | None = None):
        self.config = config
        self.transport = UdpTransport(config.bind, timeout=config.query_timeout)
        try:
            self.node = VoteNode(config, self.transport, node_id=node_id)
        except BaseException:  # an unusable state dir, say: the socket must not leak
            self.transport.stop()
            raise
        self._lock = threading.Lock()
        self.transport.handler = self.node
        self._stop = threading.Event()

    @property
    def local_address(self) -> Address:
        return self.transport.local_address

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
        with self._lock:
            self.node.reload_journal()  # takes in votes cast by `dhtvote vote`
            votes = list(self.node.local_votes.values())
        with ThreadPoolExecutor(
            max_workers=self.config.alpha, thread_name_prefix="dhtvote-announce"
        ) as pool:
            return self.node.announce_round(votes, pool.map)

    def fetch_votes(self, info_hash: bytes) -> VoteResult:
        return fetch_votes(self.node, info_hash)

    def run_forever(self) -> None:
        """Announce now and every announce_period after, until stop()."""
        while not self._stop.is_set():
            started = time.time()
            try:
                report = self.announce_round()
            except Exception:
                log.exception("announce round failed")
            else:
                held = sum(ok for sends in report.values() for _, ok in sends)
                log.info("announce round: %d votes, %d replicas hold them", len(report), held)
            self._stop.wait(started + self.config.announce_period - time.time())
