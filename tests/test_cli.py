import json
import os
import selectors
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import dhtvote
from dhtvote.cli import main
from dhtvote.node import NodeConfig
from dhtvote.udp import UdpNodeRunner

INFOHASH = "ab" * 20


@pytest.fixture(scope="module")
def live_network():
    """Five real UDP nodes on localhost, joined through the first."""
    runners = []
    first = UdpNodeRunner(NodeConfig(bind=("127.0.0.1", 0)))
    first.start()
    runners.append(first)
    bootstrap = [first.local_address]
    for _ in range(4):
        runner = UdpNodeRunner(NodeConfig(bind=("127.0.0.1", 0), bootstrap=bootstrap))
        runner.start()
        runners.append(runner)
    for runner in runners:
        runner.node.bootstrap()
    yield runners
    for runner in runners:
        runner.stop()


def bootstrap_arg(live_network):
    host, port = live_network[0].local_address
    return f"{host}:{port}"


def test_vote_then_get(live_network, tmp_path, capsys):
    boot = bootstrap_arg(live_network)
    state = str(tmp_path / "state")
    rc = main(
        ["--timeout", "0.2", "vote", "--state-dir", state, "--bootstrap", boot,
         "--infohash", INFOHASH, "--polarity", "+1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "announced to" in out

    rc = main(["--timeout", "0.2", "get", "--bootstrap", boot, "--infohash", INFOHASH, "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"infohash", "pos", "neg", "responders", "filtered"}
    assert payload["pos"] == 1
    assert payload["neg"] == 0
    assert payload["responders"] >= 1


def test_second_vote_reports_already_voted(live_network, tmp_path, capsys):
    boot = bootstrap_arg(live_network)
    state = str(tmp_path / "state")
    for _ in range(2):
        rc = main(
            ["--timeout", "0.2", "vote", "--state-dir", state, "--bootstrap", boot,
             "--infohash", "cd" * 20, "--polarity", "-1"]
        )
        assert rc == 0
    assert "already-voted" in capsys.readouterr().out


def test_get_unknown_infohash_is_zero(live_network, capsys):
    boot = bootstrap_arg(live_network)
    rc = main(["--timeout", "0.2", "get", "--bootstrap", boot, "--infohash", "ef" * 20])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("pos=0 neg=0 responders=")


def test_bad_infohash_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--timeout", "0.2", "get", "--bootstrap", "127.0.0.1:1", "--infohash", "zz"])
    assert exit_info.value.code == 2


def test_bad_endpoint_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--timeout", "0.2", "get", "--bootstrap", "nowhere", "--infohash", INFOHASH])
    assert exit_info.value.code == 2


def test_simulate_deterministic_outputs(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(
        json.dumps(
            {
                "node_count": 30,
                "document_count": 2,
                "positive_voters": 6,
                "negative_voters": 2,
                "duration_hours": 1,
            }
        )
    )
    outputs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        rc = main(["simulate", "--scenario", str(scenario), "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_text())
        report = json.loads(outputs[-1])
        assert report["availability"] == 1.0
        assert out.with_suffix(".csv").exists()
    capsys.readouterr()
    # --seed overrides the file; identical seeds give identical bytes
    assert outputs[0].replace("report0", "X") == outputs[1].replace("report1", "X")


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"node_count": 1}')
    assert main(["simulate", "--scenario", str(bad)]) == 2
    bad.write_text('{"k": 0}')
    assert main(["simulate", "--scenario", str(bad)]) == 2
    for text in (
        '{"node_count": 20.5}', '{"duration_hours": 1.5}', '{"k": 8.5}',
        '{"announce_period": 1.5}', '{"document_count": true}',
    ):
        bad.write_text(text)
        assert main(["simulate", "--scenario", str(bad)]) == 2
        assert "bad scenario" in capsys.readouterr().err
    assert main(["simulate", "--scenario", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_run_exits_zero_on_interrupt(tmp_path):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ, PYTHONPATH=str(Path(dhtvote.__file__).parent.parent))
    command = [sys.executable, "-m", "dhtvote.cli", "run", "--bind", f"127.0.0.1:{port}",
               "--state-dir", str(tmp_path)]
    with subprocess.Popen(command, env=env, stderr=subprocess.PIPE, text=True) as proc:
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stderr, selectors.EVENT_READ)
                assert selector.select(timeout=10.0), "node never logged"
            assert "listening on" in proc.stderr.readline()
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=5.0)
        finally:
            proc.kill()
    assert proc.returncode == 0, err
