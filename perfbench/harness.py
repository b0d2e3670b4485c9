"""One benchmark run of one workload: execute, check, measure, report.

``run_untraced`` gives the end-to-end metrics; ``run_traced`` gives the
per-layer metrics from a span-recorded replay of the same sampler calls.
Both run every correctness check and the determinism checks, and return
``(metrics, record)``: metrics are ``{name: (value, unit)}``, the record
holds checks, digests and failure counts.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from tangentmh import calibrate, cli

import probes
import tracing
import workloads
from pace import Pace

END_TO_END_UNITS = {
    "setup_s": "s",
    "tangent_sweeps_per_s": "1/s",
    "slice_sweeps_per_s": "1/s",
    "tangent_ms_per_ess": "ms",
    "slice_ms_per_ess": "ms",
    "tangent_evals_per_ess": "evals",
    "slice_evals_per_ess": "evals",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "linalg.self_share": "share",
    "linalg.calls_per_sweep": "calls",
    "linalg.cholesky_us.d1": "us",
    "linalg.cholesky_us.d5": "us",
    "linalg.mvn_sample_us.d5": "us",
    "linalg.mvn_logpdf_us.d5": "us",
    "tangent.self_share": "share",
    "tangent.overhead_share": "share",
    "tangent.evals_per_step": "evals",
    "tangent.accept_rate": "share",
    "tangent.step_cached_us.d1": "us",
    "targets.evaluate.self_share": "share",
    "targets.restrict.self_share": "share",
    "targets.n_value_per_sweep": "count",
    "targets.n_gradient_per_sweep": "count",
    "targets.n_hessian_per_sweep": "count",
    "targets.poisson_full_us": "us",
    "targets.logistic_value_us": "us",
    "targets.logistic_full_us": "us",
    "targets.logistic_restrict_us": "us",
    "targets.prior_restrict_us": "us",
    "targets.hb_group_restrict_us": "us",
    "gibbs.self_share": "share",
    "gibbs.block_accept_rate": "share",
    "gibbs.block_sweep_us": "us",
    "slicer.self_share": "share",
    "slicer.evals_per_coord_update": "evals",
    "slicer.slice_sweep_us": "us",
    "slicer.tune_s": "s",
    "hb.conjugate_share": "share",
    "hb.draw_upper_coeffs_us": "us",
    "hb.draw_precisions_us": "us",
    "diagnostics.ess_ms": "ms",
    "diagnostics.tangent_ess": "samples",
    "diagnostics.slice_ess": "samples",
    "diagnostics.ks_tangent": "ks",
    "diagnostics.ks_slice": "ks",
    "benchmark.wall_fee_ratio": "ratio",
    "benchmark.counter_ratio": "ratio",
    "benchmark.calibrate_us": "us",
    "cli.write_csv_s": "s",
    "tracing.overhead_share": "share",
}


def _sum(chains, sampler, attr):
    return sum(getattr(c, attr) for c in chains if c.sampler == sampler)


def _per_sampler(chains) -> dict:
    """Sweeps/s, ms and evaluations per effective sample for each sampler
    (c07's convention: totals over the workload's chains)."""
    out = {}
    for s in ("tangent", "slice"):
        wall = _sum(chains, s, "wall")
        ess = _sum(chains, s, "ess")
        out[f"{s}_sweeps_per_s"] = _sum(chains, s, "sweeps") / wall
        out[f"{s}_ms_per_ess"] = 1e3 * wall / ess
        out[f"{s}_evals_per_ess"] = _sum(chains, s, "evals") / ess
    return out


class Run:
    """State of one run: the workload, where outputs go, and what failed."""

    def __init__(self, workload, out_dir: Path, src_digest: str, inputs=None):
        self.workload = workload
        self.out_dir = out_dir
        self.src_digest = src_digest
        self.inputs = workload.build() if inputs is None else inputs
        self.checks: dict = {}
        self.record: dict = {"workload": workload.name, "workload_seeds": list(workload.seeds)}

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def execute(self, pace=None):
        """The workload's timed region, with references interleaved when ``pace`` is given."""
        with pace.marking(callers=[workloads]) if pace else contextlib.nullcontext():
            return self.workload.execute(self.inputs)

    def first_pass(self, pace=None):
        """Untraced execution, summary, correctness and digest checks."""
        ex = self.execute(pace)
        chains, checks, ess_s, extras = self.workload.summarize(self.inputs, ex)
        for name, (ok, detail) in checks.items():
            self.check(name, ok, detail)
        self.digests = [c.digest for c in chains]
        self._check_against_store()
        failures = sum(c.failures for c in chains)
        steps = sum(c.steps for c in chains)
        self.record.update(
            digests=self.digests,
            hessian_failures=failures,
            steps_attempted=steps,
            failed_share=failures / steps,
            acceptance=[c.accept for c in chains if c.sampler == "tangent"],
            ess=[c.ess for c in chains],
            cost=[c.cost for c in chains],
            wall_s=[c.wall for c in chains],
            extras=extras,
        )
        return ex, chains, ess_s, extras

    def replay_matches(self, ex, label: str) -> None:
        got = [workloads.trace_digest(c.trace) for c in ex.calls]
        self.check(f"determinism_{label}", got == self.digests,
                   "sample and counter digests equal to the first pass" if got == self.digests else f"{got} != {self.digests}")

    def _check_against_store(self) -> None:
        """Digests of earlier runs of the same source and workload seeds, kept
        in the output directory, must match exactly."""
        seeds = "-".join(str(s) for s in self.workload.seeds)
        path = self.out_dir / "digests" / f"{self.workload.name}-{seeds}-{self.src_digest[:16]}.txt"
        if path.exists():
            stored = path.read_text().split()
            self.check("determinism_across_runs", stored == self.digests,
                       f"digests equal to {path.name}" if stored == self.digests else f"digests differ from {path.name}")
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{time.monotonic_ns()}.tmp")
        tmp.write_text("\n".join(self.digests) + "\n")
        tmp.replace(path)

    @property
    def n_failed_checks(self) -> int:
        return sum(not c["ok"] for c in self.checks.values())

    def totals(self):
        """(attempted, failed): sampler steps plus checks, and Hessian
        failures plus failed checks."""
        attempted = self.record["steps_attempted"] + len(self.checks)
        failed = self.record["hessian_failures"] + self.n_failed_checks
        return attempted, failed


def run_untraced(run: Run, seconds: float, setup_s: float):
    """End-to-end metrics.  Passes repeat, from the same seeds, while another
    one fits in ``seconds``; wall-based figures are medians over passes of
    sampler times at nominal host speed (see pace.py), and every pass must
    reproduce the first pass's digests."""
    t0 = time.perf_counter()
    pace = Pace()
    ex, chains, _, _ = run.first_pass(pace)
    per_pass, raw, reference_ms = [], [], []
    while True:
        walls = [pace.corrected(call.window) for call in ex.calls]
        per_pass.append(_per_sampler([replace(c, wall=w) for c, (w, _) in zip(chains, walls)]))
        raw.append(_per_sampler([replace(c, wall=r) for c, (_, r) in zip(chains, walls)]))
        reference_ms.append(pace.reference_s() * 1e3)
        pace.clear()
        if time.perf_counter() - t0 + ex.wall > seconds:
            break
        ex = run.execute(pace)
        run.replay_matches(ex, f"pass{len(per_pass) + 1}")
    run.record.update(passes=len(per_pass), reference_ms=reference_ms, uncorrected=raw)
    metrics = {"setup_s": setup_s}
    for key in per_pass[0]:
        metrics[key] = statistics.median(p[key] for p in per_pass)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_traced(run: Run, seed: int):
    """Per-layer metrics: an untraced pass, a span-recorded replay of the same
    calls, per-call probes at fixed shapes, and the CLI's CSV writer."""
    ex, chains, ess_s, extras = run.first_pass()
    tracer = tracing.Tracer()
    with tracer.patched(callers=[workloads]):
        traced = run.workload.execute(run.inputs)
    run.replay_matches(traced, "traced_replay")
    spans = tracer.spans()
    tangent_calls = [c for c in traced.calls if c.sampler == "tangent"]
    m = tracing.layer_metrics(spans, traced.wall, [c.window for c in tangent_calls],
                              sum(c.sweeps for c in tangent_calls))
    m["tracing.overhead_share"] = traced.wall / ex.wall - 1.0
    span_path = run.out_dir / f"spans-{run.workload.name}.npz"
    tracer.save(span_path)
    run.record.update(spans_file=str(span_path), n_spans=int(spans["dur"].size))
    del tracer, spans

    tangent = [c for c in chains if c.sampler == "tangent"]
    t_sweeps = sum(c.sweeps for c in tangent)
    for kind in ("n_value", "n_gradient", "n_hessian"):
        m[f"targets.{kind}_per_sweep"] = sum(c.cost[kind] for c in tangent) / t_sweeps
    m["tangent.accept_rate"] = float(np.mean([c.accept for c in tangent]))
    gibbs_chain = "block_acceptance_rate" in ex.calls[0].trace.meta
    m["gibbs.block_accept_rate"] = m["tangent.accept_rate"] if gibbs_chain else 0.0

    m["diagnostics.ess_ms"] = ess_s * 1e3
    m["diagnostics.tangent_ess"] = _sum(chains, "tangent", "ess")
    m["diagnostics.slice_ess"] = _sum(chains, "slice", "ess")
    m["diagnostics.ks_tangent"] = extras.get("ks_tangent", 0.0)
    m["diagnostics.ks_slice"] = extras.get("ks_slice", 0.0)

    e2e = _per_sampler(chains)
    m["benchmark.wall_fee_ratio"] = extras.get(
        "wall_fee_ratio", e2e["slice_ms_per_ess"] / e2e["tangent_ms_per_ess"])
    m["benchmark.counter_ratio"] = extras.get(
        "counter_ratio", e2e["slice_evals_per_ess"] / e2e["tangent_evals_per_ess"])
    if "calibrate_us" in extras:
        m["benchmark.calibrate_us"] = extras["calibrate_us"]
    else:
        target, x0 = run.workload.probe_target(run.inputs)
        m["benchmark.calibrate_us"] = calibrate(target, x0, 300).seconds_per_value_eval * 1e6
    m["slicer.tune_s"] = extras.get("tune_s", 0.0)
    m["cli.write_csv_s"] = _write_csv_seconds(run, ex)
    m.update(probes.probe_metrics(np.random.default_rng(seed)))
    return {k: (m[k], unit) for k, unit in PER_LAYER_UNITS.items()}


def _write_csv_seconds(run: Run, ex) -> float:
    """Seconds for tangentmh.cli.write_csv to write the workload's tangent
    samples and steps tables into a fresh directory, removed afterwards."""
    csv_dir = run.out_dir / f"csv-{run.workload.name}-{time.monotonic_ns()}"
    csv_dir.mkdir(parents=True)
    schema = f"{cli.SCHEMA_PREFIX}.{{}}.{cli.SCHEMA_VERSION}"
    cfg = {"workload": run.workload.name, "seed": list(run.workload.seeds)}
    try:
        t0 = time.perf_counter()
        for name, header, rows in run.workload.csv_tables(ex):
            kind = "steps" if name.endswith("steps") else "samples"
            cli.write_csv(csv_dir / f"{name}.csv", schema.format(kind), cfg, "benchmark", header, rows)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def fmt_metrics(metrics: dict) -> list[str]:
    width = max(len(k) for k in metrics)
    return [f"{k:<{width}}  {v:.6g} {unit}" for k, (v, unit) in metrics.items()]

