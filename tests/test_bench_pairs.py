"""``tools/bench_pairs.py``'s summary and claim rule on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = {
    "end_to_end": [{"name": "slice_ms_per_ess", "better": "lower", "bound": 0.24}],
    "per_layer": [],
}


def run(ms_per_ess, reference_ms=10.0, digest="d1"):
    """One perfbench run as ``run_once`` reads it."""
    record = {"workload_seeds": [41], "setup_s": {"reference_ms": reference_ms}, "digests": {"slice": digest}}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"slice_ms_per_ess": {"value": ms_per_ess}}}
    return {"status": 0, "record": record, "result": result}


# run_once's reading of a run that printed no record line
CRASHED = {"status": 1, "record": {}, "result": {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}}


def series(parent, change):
    return bench_pairs.summarise({"parent": [run(v) for v in parent], "change": [run(v) for v in change]},
                                 BENCHMARK, traced=False)


class TestSummarise:
    def test_crashed_run_is_kept_and_left_out_of_the_figures(self):
        runs = {"parent": [run(1.0, 10.0), run(1.2, 12.0), run(1.1, 11.0)],
                "change": [run(0.6, 9.0), CRASHED, run(0.7, 13.0)]}
        block = bench_pairs.summarise(runs, BENCHMARK, traced=False)
        assert block["pairs"] == 3
        assert block["status"] == {"parent": [0, 0, 0], "change": [0, 1, 0]}
        assert block["failed"] == {"parent": [0, 0, 0], "change": [0, 1, 0]}
        assert block["correct"] == {"parent": True, "change": False}
        assert block["workload_seeds"] == [41]
        assert not block["digests_equal_across_sides"]
        assert block["reference_ms_median"] == {"parent": 11.0, "change": 11.0}
        # the crashed run's pair is left out of the metric's pairs
        stats = block["metrics"]["slice_ms_per_ess"]
        assert (stats["parent"], stats["change"]) == ([1.0, 1.1], [0.6, 0.7])

    def test_first_parent_run_crashed(self):
        runs = {"parent": [CRASHED, run(1.0)], "change": [run(0.6), run(0.7)]}
        block = bench_pairs.summarise(runs, BENCHMARK, traced=False)
        assert block["workload_seeds"] == [41]
        assert block["metrics"]["slice_ms_per_ess"]["change"] == [0.7]

    def test_every_run_crashed(self):
        block = bench_pairs.summarise({"parent": [CRASHED], "change": [CRASHED]}, BENCHMARK, traced=False)
        assert block["reference_ms_median"] == {"parent": None, "change": None}
        assert block["metrics"] == {}
        assert not bench_pairs.check_claim(block, "slice_ms_per_ess", 0.75, "lower")["met"]

    def test_equal_digests(self):
        assert series([1.0, 1.1], [0.6, 0.7])["digests_equal_across_sides"]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


class TestCheckClaim:
    def claim(self, parent, change, target=0.75):
        return bench_pairs.check_claim(series(parent, change), "slice_ms_per_ess", target, "lower")

    def test_met(self):
        result = self.claim(PARENT, [0.6 + 0.01 * i for i in range(10)])
        assert result["met"]
        assert result["pairs_change_better"] == 10

    def test_ratio_short_of_the_target(self):
        result = self.claim(PARENT, [0.8] * 10)
        assert result["pairs_change_better"] == 10 and result["median_gap"] > result["parent_interquartile_distance"]
        assert result["change_over_parent"] == pytest.approx(0.8)
        assert not result["met"]

    def test_better_in_fewer_than_nine_of_ten_pairs(self):
        change = [0.6] * 8 + [1.5, 1.5]
        result = self.claim(PARENT, change)
        assert result["pairs_change_better"] == 8
        assert not result["met"]
        assert self.claim(PARENT, [0.6] * 9 + [1.5])["met"]

    def test_gap_within_the_parents_interquartile_distance(self):
        # the parent's runs spread widely: the median gap is inside their IQR
        parent = [0.2, 0.3, 0.4, 1.0, 1.0, 1.0, 1.0, 2.0, 2.5, 3.0]
        change = [v * 0.7 for v in parent]
        result = self.claim(parent, change)
        assert result["pairs_change_better"] == 10 and result["change_over_parent"] <= 0.75
        assert result["median_gap"] <= result["parent_interquartile_distance"]
        assert not result["met"]

    def test_crashed_pair_counts_as_not_better(self):
        runs = {"parent": [run(v) for v in PARENT], "change": [run(0.6) for _ in range(9)] + [CRASHED]}
        block = bench_pairs.summarise(runs, BENCHMARK, traced=False)
        result = bench_pairs.check_claim(block, "slice_ms_per_ess", 0.75, "lower")
        assert (result["pairs"], result["pairs_change_better"]) == (10, 9)
        assert result["met"]
        runs["change"][0] = CRASHED
        block = bench_pairs.summarise(runs, BENCHMARK, traced=False)
        assert not bench_pairs.check_claim(block, "slice_ms_per_ess", 0.75, "lower")["met"]
