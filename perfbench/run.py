"""dhtvote benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim-announce --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from ./src as it is;
nothing is installed. With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics; with --trace 1 the workload runs
once untraced and once traced, and the object holds the per-layer metrics
and the tracing overhead. Details of the run (all op samples' percentiles,
per-span totals) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups in one run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sim-announce", "sim-fetch", "udp-loopback"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="nominal length of the measured phase; sets a fixed op count")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def end_to_end(result: dict) -> dict[str, float]:
    from harness import median, per_op

    ops = result["ops"]
    return {
        "setup_s": median(result["setup_seconds"]),
        "ops_per_s": ops / result["phase_seconds"],
        "announce_p50_ms": result["announce_p50_ms"],
        "fetch_p50_ms": result["fetch_p50_ms"],
        "datagrams_per_op": per_op(result["datagrams"], ops),
        "bytes_per_op": per_op(result["bytes"], ops),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def details(result: dict) -> dict:
    from harness import percentile, quartiles

    out = {}
    for kind, samples in result["log"].seconds.items():
        ms = [s * 1e3 for s in samples]
        entry = {"samples": len(ms), "p50_ms": percentile(ms, 50)}
        if len(ms) >= 2:
            entry["q1_ms"], _, entry["q3_ms"] = quartiles(ms)
        # a tail percentile is reported only with at least ten samples beyond it
        if len(ms) >= 100:
            entry["p90_ms"] = percentile(ms, 90)
        out[kind] = entry
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dhtvote" / "__init__.py").is_file():
        print(f"dhtvote sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    from harness import Tracer
    from sim_bench import sim_announce, sim_fetch
    from udp_bench import udp_loopback

    workload = {"sim-announce": sim_announce, "sim-fetch": sim_fetch,
                "udp-loopback": udp_loopback}[args.workload]
    # A traced run first runs the workload untraced, with one set-up, to
    # measure the tracing overhead against.
    result = workload(args.seed, args.seconds, 1 if args.trace else SETUP_REPEATS)
    runs = [result]
    if args.trace:
        tracer = Tracer()
        traced = workload(args.seed, args.seconds, 1, tracer)
        runs.append(traced)
        op_thread = threading.main_thread().ident
        summary = tracer.summary(op_thread=op_thread)
        merged = layers.merge_summaries(summary, *traced.get("child_summaries", []))
        metrics = layers.layer_metrics(
            merged, summary["modules"], traced["ops"], traced["phase_seconds"],
            traced["phase_seconds"] / result["phase_seconds"] - 1.0,
        )
        metrics.update(traced["layer_values"])
        for op, (self_sum, op_time) in tracer.op_self_times(op_thread).items():
            traced["log"].check(op < 0 or self_sum <= op_time * (1 + 1e-9),
                                f"op {op}: self times add up to more than the op")
        result = traced
    else:
        metrics = end_to_end(result)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in listed["per_layer" if args.trace else "end_to_end"]}

    log = result["log"]
    correct = all(not run["log"].wrong for run in runs)
    line = {
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    for name in units:
        print(f"{name:40s} {metrics[name]:14.6g} {units[name]}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  ops=details(result), wrong=log.wrong[:20],
                  spans=merged["spans"] if args.trace else None)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
