#!/usr/bin/env python3
"""tangentmh benchmark: cost per effective sample on three fixed-seed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload poisson-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a span-recorded replay; ``--workload all`` runs every workload
both ways, each in a fresh process, one after another.  Each run prints one
line per metric (name, value, unit), a ``record`` line (machine, checks,
digests), and last a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  It exits 1 if a correctness or determinism
check fails and 2 if the package source is missing.  Outputs (results,
spans, digests) go to ``.perfbench-out/`` at the repository root.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("poisson-1d", "logistic-blocks", "hb-groups")
# BLAS pinned to one thread through this process's environment; it must be
# set before numpy loads, and the per-workload processes of ``all`` inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_BUILDS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the benchmark's own probe inputs; the chains keep their workload seeds")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="untraced passes repeat while another fits in this many seconds (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload-seeds", default=None,
                   help="comma-separated seeds replacing the acceptance-test ones (see README.md)")
    return p.parse_args(argv)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tangentmh").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_one(args) -> int:
    """One workload in this (fresh) process.  Set-up time is the import of
    tangentmh, which can happen once per process, plus the median of
    ``SETUP_BUILDS`` builds of the workload's inputs, scaled to nominal host
    speed as the sampler times are (see pace.py)."""
    t0 = time.perf_counter()
    import tangentmh  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - t0
    import harness
    import pace
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    seeds = cls.default_seeds
    if args.workload_seeds:
        seeds = tuple(int(s) for s in args.workload_seeds.split(","))
        if len(seeds) != len(cls.default_seeds):
            print(f"error: {args.workload} takes {len(cls.default_seeds)} seeds", file=sys.stderr)
            return 2
    workload = cls(seeds)
    builds = []
    for _ in range(SETUP_BUILDS):
        t0 = time.perf_counter()
        inputs = workload.build()
        builds.append(time.perf_counter() - t0)
    reference_s = statistics.median(pace.reference_timings())
    setup = {"import_s": import_s, "build_s": builds, "reference_ms": reference_s * 1e3}
    setup_s = (import_s + statistics.median(builds)) * pace.REF_NOMINAL_S / reference_s
    run = harness.Run(workload, OUT_DIR, src_digest(), inputs)
    try:
        if args.trace:
            metrics = harness.run_traced(run, args.seed)
        else:
            metrics = harness.run_untraced(run, args.seconds, setup_s)
    except Exception:  # a raised sampler error is a failed run, reported as such
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    attempted, failed = run.totals()
    correct = run.n_failed_checks == 0
    record = dict(run.record, seed=args.seed, trace=args.trace, setup_s=setup, checks=run.checks,
                  machine=harness.machine_record(), src_digest=run.src_digest)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{workload.name}-trace{args.trace}-seed{args.seed}.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1, default=float)
    for line in harness.fmt_metrics(metrics):
        print(line)
    for name, c in run.checks.items():
        print(f"check {name}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    print("record " + json.dumps(record, default=float))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(ln for ln in lines[:-1] if not ln.startswith("record ")), flush=True)
            status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)
    args = parse_args(argv)
    if not (SRC / "tangentmh" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'tangentmh'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
