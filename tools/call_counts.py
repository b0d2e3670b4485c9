#!/usr/bin/env python3
"""Exact cProfile call counts per sweep (per cycle on hb-groups) of each workload's samplers.

Run from the repository root:

    python3 tools/call_counts.py
    python3 tools/call_counts.py --workload hb-groups --sweeps 200 --top 20

The workloads are perfbench's, at its default seeds and sizes: W1
(poisson-1d) is c04's Poisson count of 2 from log 2, tangent seed 42 and
slice seed 41 with width 1; W2 (logistic-blocks) is c07's first
replicate, with the slice width tuned as c07 tunes it, and its tangent
chain is perfbench's ``run_block_chain`` on blocks of 5, not the one-block
``run_chain`` that ``run_benchmark`` and the ``benchmark`` verb run; W3
(hb-groups) is c09's data with tangent seed 101 and slice seed 202.
``--tiny`` shrinks W2 to 200 rows and W3 to 3 groups of 4 coefficients
and 40 rows, for a quick run.

Each sampler's chain driver runs twice under ``cProfile``, from the same
seed and burn-in (``--burnin``, its first half in Newton mode where the
sampler has one): once with no recorded sweeps, once with ``--sweeps``.
The difference of the two runs' call counts, divided by ``--sweeps``, is
the calls per recorded sweep, the driver's own per-sweep calls included.
Per sampler the total is printed, then the ``--top`` functions by calls
per sweep; functions that share a label (a built-in such as a type's
``__new__``, or the ``__new__`` of every ``NamedTuple``) are counted as
one.  The first line names the Python, numpy and scipy versions:
the calls counted inside numpy and scipy change with them.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import platform
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from tangentmh.benchmark import simulate_logistic, tune_slice_width  # noqa: E402
from tangentmh.gibbs import BlockPartition, run_block_chain  # noqa: E402
from tangentmh.hb import HbConfig, hb_gibbs, simulate_hb  # noqa: E402
from tangentmh.slicer import SliceConfig, slice_gibbs_chain  # noqa: E402
from tangentmh.tangent import ChainConfig, run_chain  # noqa: E402
from tangentmh.targets import LogisticTarget, PoissonLogRateTarget  # noqa: E402

WORKLOADS = ("poisson-1d", "logistic-blocks", "hb-groups")


def poisson_chains(tiny: bool) -> dict:
    target, x0 = PoissonLogRateTarget([2]), np.array([np.log(2.0)])
    return {
        "tangent": lambda b, n: run_chain(target, x0, ChainConfig(b, n), np.random.default_rng(42)),
        "slice": lambda b, n: slice_gibbs_chain(target, x0, b, n, SliceConfig(width=1.0), np.random.default_rng(41)),
    }


def logistic_chains(tiny: bool) -> dict:
    # c07's first replicate, its streams spawned as run_benchmark spawns them
    streams = np.random.SeedSequence(71).spawn(10)[0].spawn(4)
    X, y, _ = simulate_logistic(200 if tiny else 1000, 10, np.random.default_rng(streams[0]))
    target, x0 = LogisticTarget(X, y), np.zeros(10)
    width, _ = tune_slice_width(target, x0, np.random.default_rng(streams[1]))
    partition = BlockPartition.contiguous(10, 5)
    return {
        "tangent": lambda b, n: run_block_chain(target, partition, x0, ChainConfig(b, n),
                                                np.random.default_rng(streams[2])),
        "slice": lambda b, n: slice_gibbs_chain(target, x0, b, n, SliceConfig(width=width),
                                                np.random.default_rng(streams[3])),
    }


def hb_chains(tiny: bool) -> dict:
    shape = (3, 4, 2, 40) if tiny else (5, 10, 2, 400)
    spec, _ = simulate_hb(*shape[:3], np.random.default_rng(2026), group_size=shape[3])
    return {
        sampler: (lambda b, n, sampler=sampler, seed=seed:
                  hb_gibbs(spec, HbConfig(n_burnin=b, n_samples=n, beta_sampler=sampler),
                           np.random.default_rng(seed)))
        for sampler, seed in (("tangent", 101), ("slice", 202))
    }


BUILDERS = {"poisson-1d": poisson_chains, "logistic-blocks": logistic_chains, "hb-groups": hb_chains}


def label(code) -> str:
    """A function's name in the listing: a built-in's description, without
    the address some carry, or ``file:line(name)``."""
    if isinstance(code, str):
        return re.sub(r" at 0x[0-9a-f]+", "", code)
    return f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}({code.co_name})"


def profiled_calls(run) -> Counter:
    """Each function's call count (recursive calls included) over one
    profiled ``run()``, summed over the functions that share a label."""
    prof = cProfile.Profile()
    prof.runcall(run)
    counts = Counter()
    for entry in prof.getstats():
        counts[label(entry.code)] += entry.callcount
    return counts


def per_sweep(chain, n_burnin: int, n_sweeps: int) -> dict:
    """Calls per function per recorded sweep: a run with ``n_sweeps`` recorded sweeps minus one with none."""
    base = profiled_calls(lambda: chain(n_burnin, 0))
    full = profiled_calls(lambda: chain(n_burnin, n_sweeps))
    return {name: (n - base[name]) / n_sweeps for name, n in full.items() if n != base[name]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to count (repeatable; default: all three)")
    p.add_argument("--burnin", type=int, default=20, help="burn-in sweeps before the counted ones")
    p.add_argument("--sweeps", type=int, default=100, help="counted sweeps per sampler")
    p.add_argument("--top", type=int, default=10, help="functions listed per sampler")
    p.add_argument("--tiny", action="store_true", help="shrink W2's and W3's data")
    args = p.parse_args(argv)
    if args.burnin < 0 or args.sweeps < 1 or args.top < 0:
        p.error("--burnin must be >= 0, --sweeps >= 1 and --top >= 0")
    print(f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}")
    for workload in args.workload or WORKLOADS:
        unit = "cycle" if workload == "hb-groups" else "sweep"
        for sampler, chain in BUILDERS[workload](args.tiny).items():
            counts = per_sweep(chain, args.burnin, args.sweeps)
            print(f"{workload} {sampler}: {sum(counts.values()):.2f} calls per {unit} "
                  f"over {args.sweeps} {unit}s after {args.burnin} burn-in")
            for name, c in sorted(counts.items(), key=lambda item: (-item[1], item[0]))[: args.top]:
                print(f"  {c:10.2f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
