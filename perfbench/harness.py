"""Arithmetic and span tracing shared by the workloads.

The tracer wraps program functions at the place where their callers resolve
the name (a module attribute such as ``krpc.encode_message`` or a class
attribute such as ``HllSketch.merge``), so the program itself is unchanged.
Each thread keeps its own stack of open spans; finished spans go into
per-thread column buffers and stay in memory until :meth:`Tracer.summary`.
A span's self time is its duration minus the time its direct child spans
cover.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from array import array
from collections import Counter

# ---------------------------------------------------------------------------
# arithmetic


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as ``statistics.quantiles``."""
    return statistics.quantiles(values, n=4)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ranked = sorted(values)
    rank = -(-len(ranked) * q // 100)  # ceiling
    return ranked[int(rank) - 1]


def per_op(total, ops):
    if ops <= 0:
        raise ValueError("per-op value needs at least one op")
    return total / ops


# ---------------------------------------------------------------------------
# tracing


class _ThreadSpans:
    """Open-span stack and finished-span columns of one thread."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.stack: list[list] = []  # [span_id, child_seconds]
        self.name = array("i")
        self.span_id = array("q")
        self.parent_id = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.counters: Counter = Counter()


class Tracer:
    """In-memory span recorder with per-thread stacks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op_id = -1  # id of the op in progress; spans are tagged with it
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans(threading.get_ident())
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def _index(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = len(self.names)
            self.names.append(name)
            self._name_index[name] = index
        return index

    def count(self, key: str, amount: float = 1) -> None:
        """Add to this thread's counter; keys starting with _ are thread-local flags."""
        self._state().counters[key] += amount

    def counter(self, key: str) -> float:
        return self._state().counters[key]

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span called name."""
        index = self._index(name)
        clock = self.clock
        ids = self._ids
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                state.name.append(index)
                state.span_id.append(frame[0])
                state.parent_id.append(parent[0] if parent is not None else 0)
                state.op_id.append(tracer.op_id)
                state.start.append(start)
                state.end.append(end)
                state.child.append(frame[1])

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set owner.attr to replacement until :meth:`unpatch_all`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, self.wrap(name, owner.__dict__[attr]))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, op_thread: int | None = None) -> dict:
        """Totals per span name, counters, and self time per module.

        ``spans`` maps a name to [calls, self seconds, seconds]. ``modules``
        holds self time of the spans on ``op_thread`` (the thread that runs
        the ops), so the module shares of that thread add up to at most its
        traced time.
        """
        spans: dict[str, list[float]] = {}
        counters: Counter = Counter()
        modules: dict[str, float] = {}
        with self._threads_lock:
            threads = list(self._threads)
        for state in threads:
            counters.update(
                {k: v for k, v in state.counters.items() if not k.startswith("_")}
            )
            for i in range(len(state.name)):
                name = self.names[state.name[i]]
                duration = state.end[i] - state.start[i]
                self_time = duration - state.child[i]
                entry = spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += self_time
                entry[2] += duration
                if state.thread_id == op_thread:
                    module = name.split(".", 1)[0]
                    modules[module] = modules.get(module, 0.0) + self_time
        return {"spans": spans, "counters": dict(counters), "modules": modules}

    def op_self_times(self, op_thread: int) -> dict[int, tuple[float, float]]:
        """Per op id on op_thread: (sum of self times, duration of the op span).

        The op span is the outermost span carrying that op id.
        """
        totals: dict[int, list[float]] = {}
        with self._threads_lock:
            threads = [s for s in self._threads if s.thread_id == op_thread]
        for state in threads:
            for i in range(len(state.name)):
                op = state.op_id[i]
                entry = totals.setdefault(op, [0.0, 0.0])
                duration = state.end[i] - state.start[i]
                entry[0] += duration - state.child[i]
                if state.parent_id[i] == 0:
                    entry[1] = max(entry[1], duration)
        return {op: (v[0], v[1]) for op, v in totals.items()}


# ---------------------------------------------------------------------------
# ops


def _call(fn, *args):
    return fn(*args)


class OpLog:
    """Times each op and keeps the outcome of every check.

    An op that could not do its job (a vote delivered to no replica, a fetch
    that found no replica) counts in ``failed``. An op that finished with a
    wrong answer is recorded in ``wrong`` and makes the run incorrect.
    """

    def __init__(self, tracer: Tracer | None = None, clock=time.perf_counter):
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.seconds: dict[str, list[float]] = {}
        self._call = tracer.wrap("bench.op", _call) if tracer is not None else _call

    def run(self, kind: str, fn, *args):
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        start = self.clock()
        result = self._call(fn, *args)
        self.seconds.setdefault(kind, []).append(self.clock() - start)
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = -1
        return result

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.wrong) + self.failed <= 20:
            print(f"failed op: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)
            if len(self.wrong) <= 20:
                print(f"wrong output: {what}", file=sys.stderr)

    def p50_ms(self, kind: str) -> float:
        return median(self.seconds[kind]) * 1e3


def announce(log: OpLog, announce_round, local_votes) -> None:
    """One announce_round op; every local vote must reach at least one replica."""
    report = log.run("announce", announce_round)
    undelivered = [
        info_hash for info_hash in local_votes
        if not any(ok for _, ok in report.get(info_hash, []))
    ]
    if undelivered:
        log.fail(f"announce: {len(undelivered)} votes reached no replica")


SKETCH_BOUND = 0.20  # the acceptance suite's relative error bound at 256 registers


class FetchTally:
    """Checks fetched counts against exact ones and notes replica exactness.

    The exact counts and the expected replica sets come from the benchmark's
    own roster and id ranking, never from the program.
    """

    def __init__(self, log: OpLog):
        self.log = log
        self.errors: list[float] = []
        self.fetches = 0
        self.exact_replicas = 0

    def check(self, result, exact: tuple[int, int], what: str, queried, nearest) -> None:
        """exact: (positive, negative) distinct voters. queried and nearest are
        the addresses the fetch sent get_votes to and the K nearest live nodes'."""
        if result.responders < 1:
            self.log.fail(f"{what}: no replica answered")
            return
        for estimate, truth in zip((result.positive_count, result.negative_count), exact):
            error = abs(estimate - truth) / truth
            self.errors.append(error)
            self.log.check(error <= SKETCH_BOUND, f"{what}: {estimate} vs exact {truth}")
        self.fetches += 1
        self.exact_replicas += set(queried) == set(nearest)

    def layer_values(self) -> dict[str, float]:
        return {
            "client.fetch_votes.count_rel_error": per_op(sum(self.errors), len(self.errors)),
            "client.fetch_votes.exact_replica_share": per_op(self.exact_replicas, self.fetches),
        }
