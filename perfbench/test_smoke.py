"""Tiny-size smoke test of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import workloads  # noqa: E402

TINY = [
    workloads.PoissonOneD(n_burnin=20, n_newton=5, n_samples=400),
    workloads.LogisticBlocks(n_runs=2, n_obs=200, n_burnin=20, n_samples=60, widths=(0.5, 1.0), calibration_reps=100),
    workloads.HbGroups(n_groups=2, group_size=100, n_burnin=10, n_samples=40),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_untraced_then_traced(workload, tmp_path):
    run = harness.Run(workload, tmp_path, "smoke")
    e2e = harness.run_untraced(run, seconds=0.0, setup_s=0.5)
    assert set(e2e) == set(harness.END_TO_END_UNITS)
    assert all(v > 0 for v, _ in e2e.values())
    assert run.record["passes"] == 1
    digests = list(run.digests)

    # a second run of the same code reproduces every digest and checks the store
    again = harness.Run(workload, tmp_path, "smoke")
    layers = harness.run_traced(again, seed=3)
    assert again.digests == digests
    assert again.checks["determinism_across_runs"]["ok"]
    assert again.checks["determinism_traced_replay"]["ok"]
    assert set(layers) == set(harness.PER_LAYER_UNITS)
    assert layers["tracing.overhead_share"][0] > -1.0
    assert 0.0 < layers["tangent.evals_per_step"][0] <= 2.0
    assert (tmp_path / f"spans-{workload.name}.npz").is_file()


def test_missing_source_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_bytes((BENCH_DIR / "run.py").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson-1d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

