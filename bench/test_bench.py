"""Self-tests of the benchmark.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import copy
import importlib
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

CHEAP_PROBE = "flip-or/identity"


class ExactnessGate(unittest.TestCase):
    def corpus_op(self, golden: dict) -> W.Op:
        real = W.load_golden
        W.load_golden = lambda name: golden
        try:
            work = W.setup("corpus", 1)
        finally:
            W.load_golden = real
        return next(op for op in work.ops if op.name == CHEAP_PROBE)

    def test_recorded_golden_passes(self):
        batch = run.Batch([self.corpus_op(W.load_golden("corpus"))])
        self.assertEqual(batch.failures, [])

    def test_corrupted_golden_fraction_fails(self):
        golden = copy.deepcopy(W.load_golden("corpus"))
        lower = golden[CHEAP_PROBE]["lower1"]
        value = next(iter(lower))
        lower[value] = str(Fraction(lower[value]) + Fraction(1, 1000))
        batch = run.Batch([self.corpus_op(golden)])
        self.assertEqual(len(batch.failures), 1)
        self.assertGreater(len(batch.failures) / len(batch.times), 0)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_coupling_instances(self):
        def instances(seed):
            return gen.canonical_instances(
                [gen.coupling_instance(seed, s) for s in gen.coupling_specs()])
        one, two, other = instances(7), instances(7), instances(8)
        self.assertEqual(one, two)
        self.assertNotEqual(one, other)

    def test_same_seed_same_frontend_programs(self):
        one = gen.canonical_programs(gen.frontend_programs(7))
        two = gen.canonical_programs(gen.frontend_programs(7))
        other = gen.canonical_programs(gen.frontend_programs(8))
        self.assertEqual(one, two)
        self.assertNotEqual(one, other)

    def test_generated_programs_typecheck_to_known_type(self):
        M = W.modules()
        for seed in (1, 2):
            for p in gen.frontend_programs(seed):
                with self.subTest(seed=seed, program=p.name):
                    ty, same = W.frontend_roundtrip(M, p.source)
                    self.assertEqual(M.syntax.render_type(ty), p.type_text)
                    self.assertTrue(same)

    def test_coupling_instances_match_their_construction(self):
        M = W.modules()
        small = [s for s in gen.coupling_specs() if s.n1 <= 20]
        for inst in (gen.coupling_instance(3, s) for s in small):
            with self.subTest(instance=inst.name):
                self.assertEqual(inst.mu1.mass(), 1)
                self.assertEqual(inst.mu2.mass(), 1)
                if not inst.feasible:
                    image = inst.rel.image(inst.planted)
                    self.assertGreater(sum(inst.mu1.get(a) for a in inst.planted),
                                       sum(inst.mu2.get(b) for b in image))
                found = W.coupling_probe(M, inst)
                self.assertEqual(found, (True, True) if inst.feasible
                                 else (None, None))


class Tracing(unittest.TestCase):
    def test_counts_repeat_and_originals_return(self):
        M = W.modules()
        left, right, depth = gen.DIVERGE_PAIRS["geometric/arg-vs-ref"]
        tc_module = importlib.import_module("tapelang.typecheck")
        original = tc_module.typecheck
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            self.assertIsNot(tc_module.typecheck, original)
            counts = []
            for _ in range(2):
                tracer.reset()
                tracer.on = True
                W.diverge_probe(M, left, right, depth)
                tracer.on = False
                counts.append(({n: st.calls for n, st in tracer.funcs.items()},
                               dict(tracer.work)))
        finally:
            tracer.uninstall()
        self.assertIs(tc_module.typecheck, original)
        self.assertEqual(counts[0], counts[1])
        calls, work = counts[0]
        self.assertEqual(calls["dist.exec_val_trace"], 2)
        self.assertEqual(calls["typecheck.typecheck"], 2)
        self.assertGreater(calls["semantics.step_weights"], 0)
        self.assertEqual(work["dist.strata"], 2 * (depth + 4))

    def test_unused_layers_are_reported_absent(self):
        tracer = layertrace.Tracer()
        tracer.install()
        tracer.uninstall()
        values = run.layer_values(tracer, layertrace.Stat("corpus"), 0.0)
        self.assertIsNone(values["semantics.step_weights.calls"])
        self.assertIsNone(values["corpus.build.self_s"])
        self.assertEqual(values["trace.overhead_s"], 0.0)

    def test_self_recursion_bypasses_the_wrapper(self):
        M = W.modules()
        tree = M.parser.parse(gen.DIVERGE_PAIRS["walk/arg-vs-ref"][1])
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            tracer.on = True
            M.syntax.erase(tree)
            tracer.on = False
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.funcs["syntax.erase"].calls, 1)
        self.assertEqual(tracer.spans, 1)
        self.assertFalse(hasattr(M.syntax, "_traced_self_erase"))


class HostSpeed(unittest.TestCase):
    def test_meter_keeps_its_share_of_operation_time(self):
        meter = hostspeed.Meter()
        meter.after(0.04)
        self.assertGreaterEqual(meter.spent, hostspeed.SHARE * 0.04)
        self.assertEqual(len(meter.mids), len(meter.loops))
        spent = meter.spent
        meter.after(0.0)  # already caught up: no loop runs
        self.assertEqual(meter.spent, spent)

    def test_times_scale_by_the_loops_run_near_them(self):
        meter = hostspeed.Meter()
        meter.mids = [0.0, 0.1, 0.2, 0.3, 0.4, 10.0, 10.1, 10.2, 10.3, 10.4]
        ref = hostspeed.REF_LOOP_S
        meter.loops = [ref] * 5 + [2 * ref] * 5  # the host halves its speed
        self.assertAlmostEqual(meter.scale(0.2, 1.0), 1.0)
        self.assertAlmostEqual(meter.scale(10.2, 1.0), 0.5)
        # Nothing within the window: the nearest loops decide.
        self.assertAlmostEqual(meter.scale(-50.0, 1.0), 1.0)


class Manifest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(W.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
