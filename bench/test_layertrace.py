"""Self-test of the benchmark's tracer.

Run from the repository root:  python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import os
import random
import sys
import types
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import layertrace  # noqa: E402
from cadlagconvex import duality, generators  # noqa: E402
from layertrace import Tracer  # noqa: E402


class FakeClock:
    """Time moves only when the code under test sleeps."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds


def synthetic_module(clock: FakeClock) -> types.ModuleType:
    """outer sleeps 3 and calls mid twice; mid sleeps 2 and calls leaf; leaf sleeps 1."""
    mod = types.ModuleType("synthetic")

    def leaf():
        clock.sleep(1.0)

    def mid():
        clock.sleep(2.0)
        mod.leaf()

    def outer():
        clock.sleep(3.0)
        mod.mid()
        mod.mid()
        return "done"

    mod.leaf, mod.mid, mod.outer = leaf, mid, outer
    return mod


def small_case():
    rng = random.Random(7)
    inst = generators.rand_passing_instance(rng, max_scenarios=2, max_cells=2)
    return inst, generators.rand_finite_dual(rng, inst), 2 * inst.magnitude_bound(), "1/10"


class TracerTest(unittest.TestCase):
    def test_calls_and_self_time_of_a_nested_tree(self):
        clock = FakeClock()
        mod = synthetic_module(clock)
        tracer = Tracer(clock)
        tracer.install(mod, "outer", "outer")
        tracer.install(mod, "mid", "mid")
        tracer.install(mod, "leaf", "leaf", span=False)
        tracer.begin_op(5)
        self.assertEqual(mod.outer(), "done")
        tracer.end_op()
        tracer.uninstall()
        self.assertEqual(tracer.stats["outer"], {"calls": 1, "self_s": 3.0})
        self.assertEqual(tracer.stats["mid"], {"calls": 2, "self_s": 4.0})
        self.assertEqual(tracer.stats["leaf"], {"calls": 2, "self_s": 2.0})
        # leaves are aggregated only; kept spans carry the op id and parent
        names = {span[0]: span for span in tracer.spans}
        self.assertEqual(sorted(s[3] for s in tracer.spans), ["mid", "mid", "outer"])
        (root,) = [s for s in tracer.spans if s[3] == "outer"]
        self.assertEqual((root[1], root[2], root[5] - root[4]), (None, 5, 9.0))
        for span in tracer.spans:
            if span[3] == "mid":
                self.assertEqual(names[span[1]][3], "outer")
                self.assertEqual(span[2], 5)

    def test_uninstall_restores_the_originals(self):
        clock = FakeClock()
        mod = synthetic_module(clock)
        before = mod.mid
        tracer = Tracer(clock)
        tracer.install(mod, "mid", "mid")
        self.assertIsNot(mod.mid, before)
        tracer.uninstall()
        self.assertIs(mod.mid, before)

    def test_distinct_counts_receivers_per_op(self):
        tracer = Tracer(FakeClock())
        wrapped = tracer.wrap("f", lambda obj: obj, span=False, distinct=True)
        a, b = object(), object()
        tracer.begin_op(0)
        for obj in (a, a, b):
            wrapped(obj)
        tracer.end_op()
        tracer.begin_op(1)
        wrapped(a)
        tracer.end_op()
        self.assertEqual(tracer.stats["f"]["calls"], 4)
        self.assertEqual(tracer.stats["f"]["distinct"], 3)

    def test_lattice_probe_matches_a_direct_call_and_is_untimed(self):
        inst, dual, B, delta = small_case()
        with self.assertRaises(duality.BudgetExceededError) as direct:
            duality.conj_bruteforce(inst, dual, B, delta, budget=0)
        expected = duality.conj_bruteforce(inst, dual, B, delta)

        clock = FakeClock()

        def slow_probe(tracer, fn, args, kwargs):
            clock.sleep(1000.0)
            layertrace._lattice_probe(tracer, fn, args, kwargs)

        tracer = Tracer(clock)
        tracer.install(duality, "conj_bruteforce", "duality.conj_bruteforce",
                       probe=slow_probe)
        tracer.install(duality.Instance, "refine", "duality.Instance.refine")
        outer = tracer.wrap("outer", lambda: duality.conj_bruteforce(inst, dual, B, delta))
        try:
            tracer.begin_op(0)
            got = outer()
            tracer.end_op()
        finally:
            tracer.uninstall()
        self.assertEqual(got, expected)
        self.assertEqual(clock.t, 1000.0)
        stats = tracer.stats["duality.conj_bruteforce"]
        self.assertEqual(stats["lattice_points"], direct.exception.needed)
        self.assertEqual(stats["calls"], 1)
        # the probe's own refine is not counted, and its time is in no span
        self.assertEqual(tracer.stats["duality.Instance.refine"]["calls"], 1)
        self.assertEqual(tracer.stats["outer"]["self_s"], 0.0)
        self.assertEqual(len(tracer.spans), 3)
        self.assertTrue(all(end - start == 0.0 for *_, start, end in tracer.spans))

    def test_layers_install_and_uninstall_cleanly(self):
        from cadlagconvex import cli
        from cadlagconvex.plconvex import PLConvex
        originals = (cli.main, cli.conj_bruteforce, PLConvex.eval, PLConvex.__call__)
        tracer = Tracer()
        layertrace.install_layers(tracer)
        self.assertIs(cli.conj_bruteforce, duality.conj_bruteforce)
        self.assertIs(PLConvex.__call__, PLConvex.eval)
        self.assertIsNot(PLConvex.eval, originals[2])
        tracer.uninstall()
        self.assertEqual((cli.main, cli.conj_bruteforce, PLConvex.eval, PLConvex.__call__),
                         originals)


if __name__ == "__main__":
    unittest.main()
