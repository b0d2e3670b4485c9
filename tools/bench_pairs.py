#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, summarised as a BENCH record.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --workload poisson-1d --pairs 10 --out BENCH_24.json
    python3 tools/bench_pairs.py --parent HEAD --workload poisson-1d --pairs 3 \\
        --workload-seeds 7,8 --out BENCH_24.json
    python3 tools/bench_pairs.py --parent HEAD --workload poisson-1d --pairs 1 --trace 1 --out BENCH_24.json

The parent ref is exported with ``git archive`` and the working tree (its
tracked and untracked, not ignored, files) is copied, each to its own
temporary checkout; bytecode is compiled in both before the first run.
Pair i runs ``perfbench/run.py --workload W --seed S --trace T`` in the
parent's checkout and then the change's for even i, the other way round
for odd i, each run a fresh process.  perfbench is only run, never
imported or changed.

Each call adds one series to the output file, keeping whatever else it
holds (``what``, ``claim``'s target, ``notes``): an untraced series at
the workload's own seeds goes under ``workloads``, one at
``--workload-seeds`` under ``other_seeds`` (key ``W@seeds``), a traced one
under ``traced_runs``.  A series run again replaces the block, and the
earlier one moves to ``earlier_series``.  Per metric it writes both sides' values, medians
and quartiles (inclusive method), ``change_over_parent``, the pairs in
which the change reads higher and lower, and, for BENCHMARK.json's
end-to-end metrics, whether the median ratio is worse than the bound.
It also writes each side's digests and their equality, exit statuses,
failure counts and the machine record.  ``--claim METRIC:RATIO`` checks
the claim rule on the series: median ratio at or beyond RATIO in the
metric's better direction, better in at least nine tenths of the pairs,
and a median gap larger than the parent's interquartile distance.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
HOST_NOTE = "shared virtual machine; other tenants' load varies"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload-seeds", default=None)
    p.add_argument("--claim", default=None, metavar="METRIC:RATIO")
    p.add_argument("--out", required=True, type=Path)
    return p.parse_args(argv)


def export_parent(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def compile_bytecode(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=checkout, check=True,
                   stdout=subprocess.DEVNULL)


def perfbench_command(args) -> list[str]:
    cmd = ["perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.workload_seeds:
        cmd += ["--workload-seeds", args.workload_seeds]
    return cmd


def run_once(checkout: Path, cmd: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *cmd], cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    record = next((json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    return {"status": proc.returncode, "record": record, "result": result}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else [math.nan, math.nan]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def metric_stats(parent: list[float], change: list[float], better: str | None, bound: float | None) -> dict:
    pm, cm = statistics.median(parent), statistics.median(change)
    pq, cq = quartiles(parent), quartiles(change)
    ratio = round(cm / pm, 4) if pm else None
    stats = {
        "parent": parent,
        "change": change,
        "parent_median": pm,
        "change_median": cm,
        "parent_quartiles": pq,
        "change_quartiles": cq,
        "change_over_parent": ratio,
        "pairs_change_higher": sum(c > p for p, c in zip(parent, change)),
        "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
        "parent_interquartile_distance": pq[1] - pq[0],
    }
    if bound is not None:
        worse = None if ratio is None else ratio > 1.0 + bound if better == "lower" else ratio < 1.0 - bound
        stats.update(bound=bound, worse_than_bound=worse)
    return stats


def summarise(runs: dict, benchmark: dict, traced: bool) -> dict:
    """The series' block: per-side statuses, digests and metric statistics.

    A run that crashed before printing its record stays in ``status`` and
    ``failed``; it has no digests, no reference time and no metrics, so
    ``digests_equal_across_sides`` is false and each metric's statistics
    are taken over the pairs in which both runs report it."""
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    recorded = {s: [r["record"] for r in runs[s] if r["record"]] for s in SIDES}
    first = next(iter(recorded["parent"] + recorded["change"]), {})
    digests = {s: [r["record"].get("digests") for r in runs[s]] for s in SIDES}
    block = {
        "workload_seeds": first.get("workload_seeds"),
        "pairs": len(runs["parent"]),
        "status": {s: [r["status"] for r in runs[s]] for s in SIDES},
        "failed": {s: [r["result"].get("failed") for r in runs[s]] for s in SIDES},
        "correct": {s: all(r["result"].get("correct") for r in runs[s]) for s in SIDES},
        "checks_failed": {s: sorted({name for r in runs[s] for name, c in r["record"].get("checks", {}).items()
                                     if not c["ok"]}) for s in SIDES},
        "digests": {s: digests[s][0] for s in SIDES},
        "digests_equal_across_sides": all(d == digests["parent"][0] for s in SIDES for d in digests[s]),
    }
    if not traced:
        block["reference_ms_median"] = {
            s: round(statistics.median(r["setup_s"]["reference_ms"] for r in recorded[s]), 3) if recorded[s] else None
            for s in SIDES
        }
    pairs = [(p["result"].get("metrics", {}), c["result"].get("metrics", {}))
             for p, c in zip(runs["parent"], runs["change"])]
    metrics = {}
    for name in dict.fromkeys(n for pair in pairs for side in pair for n in side):
        both = [(p[name]["value"], c[name]["value"]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        parent, change = (list(side) for side in zip(*both))
        bound = end_to_end[name]["bound"] if name in end_to_end else None
        metrics[name] = metric_stats(parent, change, directions.get(name), bound)
    block["metrics"] = metrics
    return block


def check_claim(block: dict, metric: str, target: float, better: str) -> dict:
    """The claim rule on one series; a pair with a crashed run counts as
    one in which the change is not better."""
    pairs = block["pairs"]
    stats = block["metrics"].get(metric)
    if stats is None:  # no pair has both runs' figure
        return {"metric": metric, "target_ratio": target, "pairs": pairs, "pairs_change_better": 0, "met": False}
    wins = stats["pairs_change_lower"] if better == "lower" else stats["pairs_change_higher"]
    gap = abs(stats["change_median"] - stats["parent_median"])
    ratio = stats["change_median"] / stats["parent_median"]
    ratio_met = ratio <= target if better == "lower" else ratio >= target
    return {
        "metric": metric,
        "target_ratio": target,
        "parent_median": stats["parent_median"],
        "change_median": stats["change_median"],
        "change_over_parent": round(ratio, 4),
        "pairs": pairs,
        "pairs_change_better": wins,
        "median_gap": gap,
        "parent_interquartile_distance": stats["parent_interquartile_distance"],
        "met": bool(ratio_met and wins >= math.ceil(0.9 * pairs) and gap > stats["parent_interquartile_distance"]),
    }


def method_block(parent_sha: str) -> dict:
    return {
        "runner": "tools/bench_pairs.py",
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --trace <trace> "
                   "[--workload-seeds <seeds>]",
        "alternation": f"pair i runs parent then change for even i and change then parent for odd i, each "
                       f"side in its own checkout (parent: git archive of {parent_sha}; change: the tracked and "
                       f"untracked, not ignored, files of the working tree), each run a fresh process, bytecode "
                       f"compiled beforehand on both sides",
        "statistics": "median and quartiles (inclusive method) over the runs of each side; pairs_change_higher/"
                      "lower count pairs where the change's value is above/below the parent's; worse_than_bound "
                      "compares the median ratio with BENCHMARK.json's bound in the metric's worse direction",
        "wall_times": "converted to nominal host speed by perfbench's interleaved reference loop "
                      "(perfbench/pace.py); traced per-call probes are not converted",
        "digests": "perfbench's digests cover every chain's sample and counter arrays",
        "series": [],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = None
    if args.claim:
        metric, _, target = args.claim.partition(":")
        better = {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}.get(metric)
        if better is None or not target:
            print(f"error: --claim takes METRIC:RATIO with a BENCHMARK.json metric, got {args.claim}",
                  file=sys.stderr)
            return 2
        claim = (metric, float(target), better)
    parent_sha = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                                stdout=subprocess.PIPE, text=True).stdout.strip()
    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    checkouts = {"parent": workdir / "parent", "change": workdir / "change"}
    try:
        export_parent(args.parent, checkouts["parent"])
        export_worktree(checkouts["change"])
        for path in checkouts.values():
            compile_bytecode(path)
        cmd = perfbench_command(args)
        runs = {s: [] for s in SIDES}
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                run = run_once(checkouts[side], cmd)
                runs[side].append(run)
                print(f"pair {i + 1}/{args.pairs} {side}: exit {run['status']}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    block = summarise(runs, benchmark, traced=bool(args.trace))
    block["command"] = "python3 " + " ".join(cmd)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.trace:
        section, key = "traced_runs", args.workload + (f"@{args.workload_seeds}" if args.workload_seeds else "")
    elif args.workload_seeds:
        section, key = "other_seeds", f"{args.workload}@{args.workload_seeds}"
    else:
        section, key = "workloads", args.workload
    earlier = data.setdefault(section, {}).get(key)
    if earlier is not None:  # every run made stays on record
        data.setdefault("earlier_series", []).append(dict(earlier, section=section, key=key))
    data[section][key] = block
    method = data.setdefault("method", method_block(parent_sha))
    series = {"section": section, "key": key, "pairs": args.pairs, "command": block["command"]}
    method.setdefault("series", []).append(series)
    machine = runs["parent"][0]["record"].get("machine")
    if machine:
        data["machine"] = dict(machine, host=f"{machine.get('cpu_count')}-vCPU {HOST_NOTE}")
    if claim:
        result = check_claim(block, *claim)
        data.setdefault("claim", {}).setdefault("results", {})[key] = result
        print(f"claim {claim[0]} on {key}: {'met' if result['met'] else 'not met'} "
              f"(x{result.get('change_over_parent')}, better in {result['pairs_change_better']} of {result['pairs']})",
              file=sys.stderr)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    for name, stats in block["metrics"].items():
        print(f"{key} {name}: parent {stats['parent_median']:.6g} change {stats['change_median']:.6g} "
              f"(ratio {stats['change_over_parent']}, lower in {stats['pairs_change_lower']} of {block['pairs']})")
    print(f"{key} digests equal across sides: {block['digests_equal_across_sides']}")
    return 0 if all(st == 0 for s in SIDES for st in block["status"][s]) else 1


if __name__ == "__main__":
    sys.exit(main())
