import random
import threading

import pytest

from dhtvote import krpc
from dhtvote.node import NodeConfig, VoteNode
from dhtvote.routing import distance
from dhtvote.udp import UdpTransport


class FakeClock:
    def __init__(self, start: float = 1_000_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class NullTransport:
    """Transport for nodes exercised purely through handle_datagram."""

    def request(self, address, data, kind):
        return None


def table_contact(table, node_id):
    """The contact with node_id in its bucket of the routing table, or None."""
    return table.buckets[distance(table.own_id, node_id).bit_length() - 1].get(node_id)


@pytest.fixture
def clock():
    return FakeClock()


def make_test_node(clock, state_dir=None, seed=0, **config_kwargs) -> VoteNode:
    rng = random.Random(seed)
    config = NodeConfig(state_dir=state_dir, **config_kwargs)
    return VoteNode(
        config, NullTransport(), clock=clock, rand_bytes=rng.randbytes
    )


@pytest.fixture
def sent_requests(monkeypatch) -> list[tuple[str, bytes | None]]:
    """(kind, target) of each request a UdpTransport sends during the test."""
    sent = []
    request = UdpTransport.request

    def counted(transport, address, data, kind):
        sent.append((kind, krpc.decode_message(data).args.get(b"target")))
        return request(transport, address, data, kind)

    monkeypatch.setattr(UdpTransport, "request", counted)
    return sent


@pytest.fixture(scope="session", autouse=True)
def no_node_threads_outlive_the_tests():
    """Fail the run if a test left a runner's receive or announce thread alive."""
    yield
    alive = sorted(t.name for t in threading.enumerate() if t.name.startswith("dhtvote-"))
    assert not alive, f"node threads still running after the tests: {alive}"
