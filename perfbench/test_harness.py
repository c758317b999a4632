"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import random
import statistics
import threading
import time
import unittest

from harness import OpLog, Tracer, median, per_op, percentile, quartiles


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ArithmeticTest(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        random.Random(3).shuffle(values)
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 90), 90)
        self.assertEqual(percentile(values, 100), 100)
        self.assertEqual(percentile([7.0], 90), 7.0)
        self.assertEqual(percentile([1, 2, 3], 50), 2)
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1], 0)

    def test_median_and_quartiles_follow_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        self.assertEqual(median(values), 3.5)
        self.assertEqual(quartiles(values), statistics.quantiles(values, n=4))
        with self.assertRaises(ValueError):
            median([])

    def test_per_op_division(self):
        self.assertEqual(per_op(90, 4), 22.5)
        self.assertEqual(per_op(0, 3), 0.0)
        with self.assertRaises(ValueError):
            per_op(5, 0)


class TracerTest(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        inner = tracer.wrap("m.inner", lambda: clock.advance(2.0))

        def body():
            clock.advance(1.0)
            inner()
            clock.advance(3.0)
            inner()

        outer = tracer.wrap("m.outer", body)
        outer()
        spans = tracer.summary()["spans"]
        self.assertEqual(spans["m.outer"], [1, 4.0, 8.0])
        self.assertEqual(spans["m.inner"], [2, 4.0, 4.0])

    def test_grandchildren_are_not_subtracted_twice(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        leaf = tracer.wrap("a.leaf", lambda: clock.advance(5.0))
        mid = tracer.wrap("b.mid", lambda: (clock.advance(1.0), leaf()))
        top = tracer.wrap("c.top", lambda: (mid(), clock.advance(2.0)))
        top()
        spans = tracer.summary(op_thread=threading.get_ident())
        self.assertEqual(spans["spans"]["c.top"][1], 2.0)
        self.assertEqual(spans["spans"]["b.mid"][1], 1.0)
        self.assertEqual(spans["spans"]["a.leaf"][1], 5.0)
        self.assertEqual(spans["modules"], {"a": 5.0, "b": 1.0, "c": 2.0})

    def test_self_times_of_an_op_add_up_to_the_op(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        log = OpLog(tracer, clock=clock)
        inner = tracer.wrap("m.inner", lambda: clock.advance(0.25))
        outer = tracer.wrap("m.outer", lambda: (inner(), clock.advance(0.5), inner()))
        for _ in range(3):
            log.run("op", lambda: (clock.advance(0.125), outer()))
        per_op_totals = tracer.op_self_times(threading.get_ident())
        self.assertEqual(sorted(per_op_totals), [0, 1, 2])
        for self_sum, op_time in per_op_totals.values():
            self.assertEqual(op_time, 1.125)
            self.assertEqual(self_sum, op_time)
        self.assertEqual(log.seconds["op"], [1.125] * 3)

    def test_self_times_never_exceed_the_op_with_a_real_clock(self):
        tracer = Tracer()
        log = OpLog(tracer)
        rng = random.Random(7)
        names = [f"layer{i}.f" for i in range(4)]
        fns = {}

        def call(depth):
            total = 0
            for _ in range(rng.randrange(3)):
                total += sum(range(rng.randrange(200)))
                if depth < 4:
                    total += fns[rng.choice(names)](depth + 1)
            return total

        for name in names:
            fns[name] = tracer.wrap(name, call)
        for _ in range(50):
            log.run("op", call, 0)
        totals = tracer.op_self_times(threading.get_ident())
        self.assertEqual(len(totals), 50)
        for self_sum, op_time in totals.values():
            self.assertLessEqual(self_sum, op_time * (1 + 1e-9))
            self.assertAlmostEqual(self_sum, op_time, delta=1e-9)

    def test_threads_keep_their_own_stacks(self):
        tracer = Tracer()
        started = threading.Event()
        release = threading.Event()

        def background():
            started.set()
            release.wait(5.0)
            time.sleep(0.01)

        worker_span = tracer.wrap("w.background", background)
        worker = threading.Thread(target=worker_span)

        def main_body():
            worker.start()
            started.wait(5.0)
            release.set()
            time.sleep(0.02)

        tracer.wrap("m.main", main_body)()
        worker.join(5.0)
        self.assertFalse(worker.is_alive())
        summary = tracer.summary(op_thread=threading.get_ident())
        main_calls, main_self, main_total = summary["spans"]["m.main"]
        # the worker's span ran alongside, not inside, so it is no child of m.main
        self.assertEqual(main_self, main_total)
        self.assertEqual(summary["spans"]["w.background"][0], 1)
        self.assertNotIn("w", summary["modules"])

    def test_patch_and_unpatch(self):
        class Owner:
            def method(self):
                return 41

        tracer = Tracer()
        original = Owner.__dict__["method"]
        tracer.patch_span(Owner, "method", "o.method")
        self.assertEqual(Owner().method(), 41)
        tracer.unpatch_all()
        self.assertIs(Owner.__dict__["method"], original)
        self.assertEqual(tracer.summary()["spans"]["o.method"][0], 1)

    def test_counters_add_across_threads_and_skip_flags(self):
        tracer = Tracer()
        tracer.count("x", 2)
        tracer.count("_flag")
        worker = threading.Thread(target=lambda: tracer.count("x", 3))
        worker.start()
        worker.join(5.0)
        self.assertEqual(tracer.counter("_flag"), 1)
        self.assertEqual(tracer.summary()["counters"], {"x": 5})


if __name__ == "__main__":
    unittest.main()
