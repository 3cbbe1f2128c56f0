"""Tests of the benchmark itself. From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The composition tests drive the built binaries on a small dataset; they
are skipped until perfbench/run.py has built .bench_build."""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        q, value, n = stats.tail(samples)
        self.assertEqual((q, value, n), (0.99, 990, 1000))

    def test_boundary_counts(self):
        # 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        self.assertEqual(stats.tail(list(range(100)))[0], 0.9)
        # 10000 samples support p99.9 (10 beyond) but not p99.99 (1).
        self.assertEqual(stats.tail(list(range(10000)))[0], 0.999)
        # 20 samples support only the median (10 beyond it).
        self.assertEqual(stats.tail(list(range(20)))[0], 0.5)

    def test_too_few_samples(self):
        self.assertEqual(stats.tail([5.0] * 19), (None, None, 19))

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile([3, 1, 2, 4], 0.5), 2)
        self.assertEqual(stats.percentile([3, 1, 2, 4], 1.0), 4)


def span(start, end):
    return {"start": start, "end": end}


class SelfTimeTest(unittest.TestCase):
    def test_disjoint_children(self):
        self.assertAlmostEqual(
            stats.self_time(span(0, 10), [span(1, 3), span(5, 6)]), 7)

    def test_overlapping_children_count_once(self):
        children = [span(1, 5), span(2, 4), span(3, 7)]
        self.assertAlmostEqual(stats.self_time(span(0, 10), children), 4)

    def test_children_clipped_to_parent(self):
        children = [span(-2, 1), span(9, 12)]
        self.assertAlmostEqual(stats.self_time(span(0, 10), children), 8)

    def test_no_children(self):
        self.assertAlmostEqual(stats.self_time(span(2, 5), []), 3)


class FailureCountTest(unittest.TestCase):
    def test_counts(self):
        runs = [
            {"exit": 0, "batches": 5, "dropped": 0},
            {"exit": 0, "batches": 5, "dropped": 2},
            {"exit": 1, "batches": 5, "dropped": 0},
        ]
        self.assertEqual(stats.count_cli_failures(runs), (18, 8))

    def test_all_clean(self):
        self.assertEqual(
            stats.count_cli_failures([{"exit": 0, "batches": 3,
                                       "dropped": 0}]), (4, 0))


def report(h1, mrr, seeds):
    return {"eval": {"hits_at_1": h1, "mrr": mrr},
            "metrics": {"gauges": {"name.pseudo_seeds": seeds}}}


class CompositionCompareTest(unittest.TestCase):
    def test_equal(self):
        traced = {"hits_at_1": 0.5, "mrr": 0.6, "pseudo_seeds": 7}
        self.assertEqual(
            stats.composition_mismatches(traced, report(0.5, 0.6, 7)), [])

    def test_each_field_compared(self):
        traced = {"hits_at_1": 0.5, "mrr": 0.6, "pseudo_seeds": 7}
        self.assertEqual(len(stats.composition_mismatches(
            traced, report(0.4, 0.61, 8))), 3)


@unittest.skipUnless(run.CLI.exists() and run.TOOL.exists(),
                     "build first: python3 perfbench/run.py ...")
class CompositionCheckTest(unittest.TestCase):
    """The traced run against a real CLI run on a small dataset."""

    @classmethod
    def setUpClass(cls):
        cls.work = run.ROOT / ".bench_work" / "test-composition"
        shutil.rmtree(cls.work, ignore_errors=True)
        data = cls.work / "data"
        data.mkdir(parents=True)
        subprocess.run([str(run.TOOL), "gen", "--tier", "ids15k",
                        "--scale", "0.3", "--seed", "3", "--out", str(data)],
                       check=True, capture_output=True)
        report_path = cls.work / "run.json"
        subprocess.run([str(run.CLI), "run",
                        "--source", str(data / "source.tsv"),
                        "--target", str(data / "target.tsv"),
                        "--seeds", str(data / "train.tsv"),
                        "--test", str(data / "test.tsv"),
                        "--report-out", str(report_path)],
                       check=True, capture_output=True)
        cls.report = json.loads(report_path.read_text())
        cls.args = cls.work / "config.args"
        run.write_config_args(cls.report, cls.args)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def traced(self, args):
        out = self.work / "trace.json"
        subprocess.run([str(run.TOOL), "trace", "--mode", "run",
                        "--config", str(args),
                        "--dataset", str(self.work / "data"),
                        "--out", str(out)],
                       check=True, capture_output=True)
        return json.loads(out.read_text())["main"]

    def test_options_from_report_compose(self):
        self.assertEqual(
            stats.composition_mismatches(self.traced(self.args), self.report),
            [])

    def test_perturbed_option_is_rejected(self):
        flipped = copy.deepcopy(self.report)
        config = flipped["config"]
        config["use-lsh"] = "false" if config["use-lsh"] == "true" else "true"
        args = self.work / "flipped.config.args"
        run.write_config_args(flipped, args)
        mismatches = stats.composition_mismatches(self.traced(args),
                                                  self.report)
        self.assertTrue(mismatches)


if __name__ == "__main__":
    unittest.main()
