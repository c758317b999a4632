import time

from dhtvote.udp import UdpTransport

RECV_POLL_SECONDS = 0.2  # the receive loop's socket timeout


def test_stop_returns_without_waiting_for_the_receive_poll():
    for bind in (("127.0.0.1", 0), ("0.0.0.0", 0)):
        transport = UdpTransport(bind)
        transport.start()
        time.sleep(0.05)  # let the receive loop block in recvfrom
        started = time.perf_counter()
        transport.stop()
        assert time.perf_counter() - started < RECV_POLL_SECONDS / 2
        assert not transport._thread.is_alive()
