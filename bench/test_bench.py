"""Tests of the benchmark itself: a tampered report must count as failed.

    python3 bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from verdicts import judge  # noqa: E402

CLI = run.load_program()


class Outcomes(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.dir = Path(cls.tmp.name)
        cls.client = run.Client(CLI)
        cls.points = cls.dir / "r9.txt"
        cls.fan = cls.dir / "fan6.txt"
        assert cls.client.gen(["gen", "random", "9", "--seed", "3", "--out", str(cls.points)]) == 0
        assert cls.client.gen(["gen", "fan", "6", "--seed", "3", "--out", str(cls.fan)]) == 0

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def outcome(self, cmd: corpus.Command):
        code, stdout, error, _ = self.client.execute(cmd.argv, cmd.kind)
        return code, stdout, error

    def check_cmd(self) -> corpus.Command:
        return corpus.Command("check", ("check", str(self.points), str(self.fan)), {
            "checks": ["delaunay", "toughness", "mis", "matching", "audit"],
            "files": [{"n": 9, "fan": False}, {"n": 6, "fan": True}],
        })

    def test_genuine_check_is_correct(self):
        cmd = self.check_cmd()
        self.assertEqual(judge(cmd, *self.outcome(cmd)), [])

    def test_flipped_ok_is_counted(self):
        cmd = self.check_cmd()
        code, stdout, error = self.outcome(cmd)
        report = json.loads(stdout)
        report["reports"][1]["verdicts"]["matching"]["ok"] = False
        self.assertTrue(judge(cmd, code, json.dumps(report), error))

    def test_wrong_fan_independent_set_is_counted(self):
        cmd = self.check_cmd()
        code, stdout, error = self.outcome(cmd)
        report = json.loads(stdout)
        report["reports"][1]["verdicts"]["mis"]["size"] = 2
        self.assertTrue(judge(cmd, code, json.dumps(report), error))

    def test_wrong_exit_code_and_exception_are_counted(self):
        cmd = self.check_cmd()
        code, stdout, error = self.outcome(cmd)
        self.assertTrue(judge(cmd, 1, stdout, error))
        self.assertTrue(judge(cmd, code, stdout, "ValueError: boom"))
        self.assertTrue(judge(cmd, code, "Traceback (most recent call last):", None))

    def test_block_known_answers(self):
        full = corpus.Command("block", ("block", str(self.fan), f"{self.fan}.blockers"), {"blocked": True})
        self.assertEqual(judge(full, *self.outcome(full)), [])
        lying = corpus.Command("block", full.argv, {"blocked": False})
        self.assertTrue(judge(lying, *self.outcome(lying)))

    def test_pencil_queries_and_the_double_dash(self):
        points = corpus.read_points(self.points)
        negative = None
        for p in range(len(points)):
            for q in range(p + 1, len(points)):
                for target in range(len(points) // 2 + 1):
                    (cx, cy, r2), inside = corpus.pencil_disk(points, p, q, target)
                    numbers = [corpus._frac(v) for v in (cx, cy, r2)]
                    cmd = corpus.Command("path", ("path", "--", str(self.points), str(p), str(q), *numbers),
                                         {"p": p, "q": q, "inside": inside})
                    self.assertEqual(judge(cmd, *self.outcome(cmd)), [], cmd.argv)
                    if negative is None and (cx < 0 or cy < 0):
                        negative = cmd
            break  # one vertex's pairs are enough
        self.assertIsNotNone(negative)
        # Without "--" argparse reads the negative coordinate as an option.
        bare = corpus.Command("path", tuple(a for a in negative.argv if a != "--"), negative.expect)
        code, stdout, error = self.outcome(bare)
        self.assertEqual(code, 2)
        self.assertTrue(judge(bare, code, stdout, error))

    def test_render_writes_svg(self):
        svg = self.dir / "r9.svg"
        cmd = corpus.Command("render", ("render", str(self.points), "--svg", str(svg), "--mis"), {"svg": str(svg)})
        self.assertEqual(judge(cmd, *self.outcome(cmd)), [])
        svg.write_text("<svg>", encoding="utf-8")
        self.assertTrue(judge(cmd, 0, json.dumps({"ok": True, "bytes": 5})))


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        S = tracing.Span
        spans = [
            S(1, "cli", 0.0, 10.0, None, 1),
            S(2, "a.f", 1.0, 5.0, 1, 1),  # two children that overlap,
            S(3, "a.g", 4.0, 6.0, 1, 1),  # as spans from two pool threads do
            S(4, "b.h", 2.0, 3.0, 2, 1),
        ]
        own = tracing.self_times(spans)
        self.assertAlmostEqual(own[1], 5.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 2.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_wrappers_are_rebound_everywhere_and_removed(self):
        from dtough import delaunay, exactgeom, generate

        original = exactgeom.general_position
        tracer = tracing.Tracer()
        with tracer.installed():
            self.assertIsNot(delaunay.general_position, original)
            self.assertIs(generate.general_position, delaunay.general_position)
            with tracer.command(1):
                generate.random_points(6, 1)
        self.assertIs(delaunay.general_position, original)
        self.assertEqual(tracer.missing, [])
        by_id = {s.id: s for s in tracer.spans}
        scan = [s for s in tracer.spans if s.name == "exactgeom.general_position"]
        self.assertEqual(len(scan), 1)
        self.assertTrue(tracing.has_ancestor(scan[0], by_id, ("generate.random_points",)))
        self.assertGreater(sum(tracer.counts["exactgeom.in_circle"].values()), 0)


class Statistics(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.tail([1.0] * 19))
        value, percentile, samples = run.tail([float(i) for i in range(40)])
        self.assertEqual((value, percentile, samples), (29.0, 75.0, 40))

    def test_commands_count_once_normalised_and_failed_on_any_repeat(self):
        nominal = reference.NOMINAL_S
        S = run.Sample
        samples = [
            S(0, "check", 1.0, [], nominal),  # the host at nominal speed
            S(1, "check", 4.0, [], 2 * nominal),  # at half speed: 2 s
            S(0, "check", 3.0, [], 3 * nominal),  # 1 s again
            S(1, "check", 2.0, ["flipped ok"], nominal),
            S(0, "check", 1.0, [], nominal),
        ]
        cmds = run.per_command(samples)
        self.assertEqual([c.norm for c in cmds.values()], [1.0, 2.0])
        self.assertEqual([c.wall for c in cmds.values()], [1.0, 3.0])
        self.assertEqual([c.ok for c in cmds.values()], [True, False])
        report = run.end_to_end(samples, [2.0, 4.0, 3.0], [1.0, 3.0, 2.0])
        self.assertAlmostEqual(report["verdicts_per_s"], 1 / 3)
        self.assertAlmostEqual(report["op_p50_ms"], 1500.0)
        self.assertAlmostEqual(report["setup_s"], 2.0)
        self.assertAlmostEqual(report["wall_setup_s"], 3.0)
        self.assertAlmostEqual(report["failed_ratio"], 0.2)

    def test_two_thread_reference_scales_the_nominal_time(self):
        self.assertGreater(reference.measure(2), 0)  # both threads' answers checked
        self.assertAlmostEqual(reference.normalise(1.0, 4 * reference.NOMINAL_S, threads=2), 0.5)
        cmd = corpus._check(["a", "b"], corpus.Corpus({"a": Path("a"), "b": Path("b")}, {"a": 9, "b": 9}), None)
        self.assertEqual(cmd.threads, min(2, os.cpu_count() or 1))

    def test_differing_inputs_are_not_comparable(self):
        env = run.environment()
        a = {"inputs_sha256": "x", "inputs": {"f": "1"}, "environment": env}
        self.assertEqual(run.comparison_flags(a, dict(a)), [])
        b = {"inputs_sha256": "y", "inputs": {"f": "2"}, "environment": dict(env, nproc=-1)}
        flags = run.comparison_flags(a, b)
        self.assertTrue(flags[0].startswith("NOT COMPARABLE"))
        self.assertIn("nproc", flags[1])


if __name__ == "__main__":
    unittest.main()
