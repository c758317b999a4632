"""Command line entry point: run a node, cast a vote, fetch votes, simulate.

``vote`` and ``get`` use short-lived nodes that join, do their one job, and
exit; the journal in the state directory is the shared truth between runs.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .node import NodeConfig
from .routing import ID_LENGTH
from .sim import ScenarioConfig, run_scenario
from .store import Polarity
from .udp import UdpNodeRunner

USAGE_ERROR = 2


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or not 0 < int(port) < 65536:
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    return (host, int(port))


def _parse_infohash(text: str) -> bytes:
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raw = b""
    if len(raw) != ID_LENGTH:
        raise argparse.ArgumentTypeError("info-hash must be 40 hex characters")
    return raw


def _parse_polarity(text: str) -> Polarity:
    if text in ("+1", "1"):
        return Polarity.POSITIVE
    if text == "-1":
        return Polarity.NEGATIVE
    raise argparse.ArgumentTypeError("polarity must be +1 or -1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhtvote", description="Distributed voting over a Kademlia DHT"
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument(
        "--timeout", type=float, default=NodeConfig.query_timeout,
        help="query timeout in seconds",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a long-lived voting node")
    run.add_argument("--bind", type=_parse_endpoint, default=("0.0.0.0", 6881))
    run.add_argument("--state-dir", required=True)
    run.add_argument("--bootstrap", type=_parse_endpoint, nargs="*", default=[])
    run.add_argument(
        "--announce-period", type=float, default=NodeConfig.announce_period / 60.0,
        metavar="MINUTES",
    )

    vote = commands.add_parser("vote", help="cast and announce one vote")
    vote.add_argument("--state-dir", required=True)
    vote.add_argument("--bootstrap", type=_parse_endpoint, nargs="+", required=True)
    vote.add_argument("--infohash", type=_parse_infohash, required=True)
    vote.add_argument("--polarity", type=_parse_polarity, required=True)

    get = commands.add_parser("get", help="fetch vote counts for an info-hash")
    get.add_argument("--bootstrap", type=_parse_endpoint, nargs="+", required=True)
    get.add_argument("--infohash", type=_parse_infohash, required=True)
    get.add_argument("--json", action="store_true", dest="as_json")

    simulate = commands.add_parser("simulate", help="run a churn/malice scenario")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out", default=None)
    return parser


def _make_runner(args, state_dir: str | None, **config) -> UdpNodeRunner:
    """A started runner; ``config`` holds NodeConfig fields beyond the shared ones."""
    runner = UdpNodeRunner(
        NodeConfig(
            state_dir=state_dir,
            bootstrap=list(args.bootstrap),
            query_timeout=args.timeout,
            **config,
        )
    )
    runner.start()
    return runner


def _cmd_run(args) -> int:
    runner = _make_runner(
        args, args.state_dir, bind=args.bind, announce_period=args.announce_period * 60.0,
    )
    logging.info("node %s listening on %s:%d",
                 runner.node.node_id.hex()[:8], *runner.local_address)
    try:
        runner.run_forever()
    except KeyboardInterrupt:
        pass
    finally:
        runner.stop()
    return 0


def _cmd_vote(args) -> int:
    runner = _make_runner(args, args.state_dir)
    try:
        verdict = runner.cast_vote(args.infohash, args.polarity)
        if verdict == "already-voted":
            print("already-voted")
            return 0
        report = runner.announce_round()
        delivered = sum(ok for sends in report.values() for _, ok in sends)
        print(f"announced to {delivered} replicas")
        return 0 if delivered >= 1 else 1
    finally:
        runner.stop()


def _cmd_get(args) -> int:
    runner = _make_runner(args, state_dir=None)
    try:
        result = runner.fetch_votes(args.infohash)
    finally:
        runner.stop()
    if args.as_json:
        print(
            json.dumps(
                {
                    "infohash": args.infohash.hex(),
                    "pos": result.positive_count,
                    "neg": result.negative_count,
                    "responders": result.responders,
                    "filtered": result.filtered,
                },
                sort_keys=True,
            )
        )
    else:
        print(
            f"pos={result.positive_count} neg={result.negative_count} "
            f"responders={result.responders}"
        )
    return 0


def _cmd_simulate(args) -> int:
    try:
        config = ScenarioConfig.from_json(Path(args.scenario).read_text())
    except FileNotFoundError:
        print(f"scenario file not found: {args.scenario}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.seed is not None:
        config.seed = args.seed
    report = run_scenario(config)
    if args.out:
        out = Path(args.out)
        out.write_text(report.to_json())
        out.with_suffix(".csv").write_text(report.to_csv())
        print(f"wrote {out} and {out.with_suffix('.csv')}")
    else:
        sys.stdout.write(report.to_json())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "run": _cmd_run,
        "vote": _cmd_vote,
        "get": _cmd_get,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
