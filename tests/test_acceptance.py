"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with the measured figures.

Criterion 4's tangent-kernel half is known-red: the kernel provably leaves
the target invariant (see the stationarity test in test_tangent.py and the
log-ratio exactness checks), but from a mode start its left-tail entry
rate on the single-count target is ~2e-7 per step, so a 1e5-sample chain
misses ~1% of tail mass and the KS statistic lands at 0.013-0.029 across
seeds.  The assertion is kept at the stated tolerance rather than loosened.
"""

import time

import numpy as np
import pytest

from tangentmh.benchmark import run_benchmark, simulate_logistic
from tangentmh.concavity import ConcavityInstance, run_campaign
from tangentmh.diagnostics import effective_size, mixing_index
from tangentmh.fdiff import fd_gradient, fd_hessian_of_gradient, fd_hessian_of_value
from tangentmh.gibbs import BlockPartition
from tangentmh.hb import HbConfig, hb_gibbs, simulate_hb
from tangentmh.linalg import SymMatrix, cholesky
from tangentmh.slicer import SliceConfig, slice_gibbs_chain
from tangentmh.tangent import ChainConfig, run_chain, tangent_step
from tangentmh.targets import (
    AdditiveTarget,
    BernoulliBase,
    ConcaveQuadraticBase,
    GaussianPriorTarget,
    LinearProjectionModel,
    LinearProjectionTarget,
    LogisticTarget,
    poisson_lograte_target,
    replicated_poisson_target,
)
from tangentmh.cli import main as cli_main

from helpers import ar1_series, ks_statistic, poisson_quadrature, random_spd


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_gaussian_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    total_steps = 0
    all_accepted = True
    max_mean_err = 0.0
    max_prec_err = 0.0
    for dim in range(1, 11):
        mean = rng.standard_normal(dim)
        prec = random_spd(dim, rng)
        target = GaussianPriorTarget(mean, prec)
        prec_norm = np.linalg.norm(prec, "fro")
        mean_norm = max(np.linalg.norm(mean), 1.0)
        x = mean + rng.standard_normal(dim)
        cache = None
        for _ in range(1000):
            x, rec, cache = tangent_step(target, x, cache, rng)
            total_steps += 1
            all_accepted &= rec.accepted
            prop = cache
            max_mean_err = max(
                max_mean_err, np.linalg.norm(prop.mean - mean) / mean_norm
            )
            max_prec_err = max(
                max_prec_err,
                np.linalg.norm(prop.lower @ prop.lower.T - prec, "fro") / prec_norm,
            )
    elapsed = time.perf_counter() - t0
    ok = (
        total_steps == 10000
        and all_accepted
        and max_mean_err < 1e-10
        and max_prec_err < 1e-10
        and elapsed < 10.0
    )
    report(
        "c01 gaussian-exactness",
        ok,
        f"{total_steps} steps, all accepted={all_accepted}, "
        f"mean err {max_mean_err:.2e}, precision err {max_prec_err:.2e}, {elapsed:.1f}s",
    )


def test_c02_mixing_index_printed_precision():
    eta = mixing_index(poisson_lograte_target([2]))
    ok = abs(eta - 0.7071) <= 1e-3 and round(eta, 2) == 0.71
    report("c02 mixing-index", ok, f"eta0 = {eta:.6f} (target 0.7071 +- 0.001)")


def test_c03_scaling_law_and_acceptance_trend():
    t0 = time.perf_counter()
    scaled = []
    for n in (1, 4, 16, 100):
        scaled.append(mixing_index(replicated_poisson_target(1, n)) * np.sqrt(n))
    law_ok = np.ptp(scaled) < 1e-10

    rates = []
    for n_obs, seed in zip((1, 10, 100), (31, 32, 33)):
        target = replicated_poisson_target(1, n_obs)
        trace = run_chain(
            target,
            [target.mode()],
            ChainConfig(n_burnin=200, n_samples=30000),
            np.random.default_rng(seed),
        )
        rates.append(1.0 - trace.acceptance_rate())
    trend_ok = rates[0] >= rates[1] >= rates[2]
    elapsed = time.perf_counter() - t0
    ok = law_ok and trend_ok and elapsed < 30.0
    report(
        "c03 scaling-law",
        ok,
        f"eta0*sqrt(N) spread {np.ptp(scaled):.2e}, rejection rates {np.round(rates, 4).tolist()}, "
        f"{elapsed:.1f}s",
    )


def test_c04_distributional_correctness_slice():
    t0 = time.perf_counter()
    target = poisson_lograte_target([2])
    grid, _, cdf = poisson_quadrature([2])
    trace = slice_gibbs_chain(
        target, [np.log(2.0)], 500, 100000, SliceConfig(width=1.0),
        np.random.default_rng(41),
    )
    ks = ks_statistic(trace.samples[:, 0], grid, cdf)
    elapsed = time.perf_counter() - t0
    ok = ks < 0.01 and elapsed < 60.0
    report("c04 distributional-slice", ok, f"KS = {ks:.4f} at 1e5 samples, {elapsed:.1f}s")


def test_c04_distributional_correctness_tangent():
    # known-red: see the module docstring and the decisions record; the
    # kernel is exactly invariant but cannot occupy the left tail at this
    # run length, so the stated tolerance is not reachable from a mode start
    t0 = time.perf_counter()
    target = poisson_lograte_target([2])
    grid, _, cdf = poisson_quadrature([2])
    trace = run_chain(
        target,
        [np.log(2.0)],
        ChainConfig(n_burnin=500, n_samples=100000, n_newton=5),
        np.random.default_rng(42),
    )
    ks = ks_statistic(trace.samples[:, 0], grid, cdf)
    elapsed = time.perf_counter() - t0
    ok = ks < 0.01 and elapsed < 60.0
    report(
        "c04 distributional-tangent",
        ok,
        f"KS = {ks:.4f} at 1e5 samples (stated tolerance 0.01; tail-mixing bound "
        f"makes ~0.013 the floor from a mode start), {elapsed:.1f}s",
    )


def _derivative_case(rng, family):
    if family == "logistic":
        n, k = int(rng.integers(20, 60)), int(rng.integers(2, 6))
        X = rng.standard_normal((n, k))
        y = (rng.random(n) < 0.5).astype(float)
        return LogisticTarget(X, y), rng.standard_normal(k)
    if family == "poisson":
        y = rng.integers(0, 6, size=int(rng.integers(1, 8)))
        if np.sum(y) == 0:
            y[0] = 1
        return poisson_lograte_target(y), rng.uniform(-2, 2, size=1)
    if family == "gaussian":
        k = int(rng.integers(1, 6))
        return (
            GaussianPriorTarget(rng.standard_normal(k), random_spd(k, rng)),
            rng.standard_normal(k),
        )
    if family == "additive":
        n, k = 30, 4
        X = rng.standard_normal((n, k))
        y = (rng.random(n) < 0.5).astype(float)
        t = AdditiveTarget(
            [LogisticTarget(X, y), GaussianPriorTarget(rng.standard_normal(k), random_spd(k, rng))]
        )
        return t, rng.standard_normal(k)
    # linear projection, one bernoulli group and one quadratic pair
    if rng.random() < 0.5:
        n, k = int(rng.integers(10, 25)), int(rng.integers(2, 5))
        y = (rng.random(n) < 0.5).astype(float)
        m = LinearProjectionModel(BernoulliBase(y), [rng.standard_normal((n, k))])
    else:
        n = int(rng.integers(8, 20))
        raw = rng.standard_normal((n, 2, 2))
        quad = np.einsum("ijk,ilk->ijl", raw, raw) + 0.2 * np.eye(2)
        m = LinearProjectionModel(
            ConcaveQuadraticBase(quad, rng.standard_normal((n, 2))),
            [rng.standard_normal((n, 2)), rng.standard_normal((n, 2))],
        )
    return LinearProjectionTarget(m), rng.standard_normal(m.dim)


def test_c05_derivative_integrity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(51)
    worst_g, worst_h = 0.0, 0.0
    for family in ("logistic", "poisson", "gaussian", "additive", "projection"):
        for _ in range(100):
            target, x = _derivative_case(rng, family)
            res = target.evaluate(x, gradient=True, hessian=True)
            g_fd = fd_gradient(lambda v: target.evaluate(v).value, x)
            g_rel = np.linalg.norm(res.gradient - g_fd) / max(
                np.linalg.norm(res.gradient), 1e-6
            )
            h_fd = fd_hessian_of_gradient(
                lambda v: target.evaluate(v, gradient=True).gradient, x
            )
            h_rel = np.linalg.norm(res.hessian - h_fd, "fro") / max(
                np.linalg.norm(res.hessian, "fro"), 1e-6
            )
            worst_g, worst_h = max(worst_g, g_rel), max(worst_h, h_rel)
    elapsed = time.perf_counter() - t0
    ok = worst_g < 1e-5 and worst_h < 1e-4
    report(
        "c05 derivative-integrity",
        ok,
        f"500 instances: worst gradient rel {worst_g:.2e} (<1e-5), "
        f"worst hessian rel {worst_h:.2e} (<1e-4), {elapsed:.1f}s",
    )


def test_c06_concavity_campaign():
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    instances = []
    for i in range(50):  # full-rank plans: every design full column rank
        k = int(rng.integers(2, 6))
        instances.append(
            ConcavityInstance(
                1, (k,), int(rng.integers(k + 2, 26)), "bernoulli", (0,),
                int(rng.integers(0, 2**62)),
            )
        )
        k1, k2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        instances.append(
            ConcavityInstance(
                2, (k1, k2), int(rng.integers(max(k1, k2) + 2, 26)), "quadratic",
                (int(rng.integers(1, k1)), int(rng.integers(1, k2))),
                int(rng.integers(0, 2**62)),
            )
        )
    report_ = run_campaign(instances, trials=10)
    elapsed = time.perf_counter() - t0
    certs = [r for r in report_.records if r.instance.expects_certificate]
    wits = [r for r in report_.records if not r.instance.expects_certificate]
    cert_ok = all(r.outcome == "certificate" and r.ok for r in certs)
    wit_ok = all(
        r.outcome == "witness" and r.witness_quad_rel <= 1e-8 for r in wits
    )
    # the per-instance decomposition identity (checked inside run_instance
    # at 1e-10 relative to the Hessian norm) feeds report_.ok
    max_identity = max(r.identity_max_err for r in report_.records)
    ok = (
        len(instances) == 100
        and cert_ok
        and wit_ok
        and report_.ok
        and elapsed < 30.0
    )
    report(
        "c06 concavity-campaign",
        ok,
        f"{len(certs)} full-rank certificates, {len(wits)} all-deficient witnesses, "
        f"max decomposition residual {max_identity:.2e}, {elapsed:.1f}s",
    )


def test_c07_efficiency_benchmark():
    t0 = time.perf_counter()
    res = run_benchmark(seed=71, n_runs=10, n_burnin=200, n_samples=500)
    ratio = res.wall_fee_ratio()
    table = res.table()
    elapsed = time.perf_counter() - t0
    ok = ratio >= 2.0 and elapsed < 600.0
    report(
        "c07 efficiency-benchmark",
        ok,
        f"wall FEE/effective ratio slice/tangent = {ratio:.2f} (>= 2 required; "
        f"counter-based {table['slice']['evals_per_effective'] / table['tangent-mh']['evals_per_effective']:.2f}), "
        f"tuned width {res.slice_width}, {elapsed:.0f}s",
    )


def test_c08_evaluation_count_bound():
    # all-accept chain: exactly n+1 of each evaluation kind
    t = GaussianPriorTarget(np.zeros(3), np.eye(3))
    n = 500
    trace = run_chain(t, np.ones(3), ChainConfig(0, n), np.random.default_rng(81))
    exact = trace.acceptance_rate() == 1.0 and trace.total_cost() == {
        "n_value": n + 1,
        "n_gradient": n + 1,
        "n_hessian": n + 1,
    }
    # rejection-heavy chain: still at most 2 evaluations per step
    t2 = replicated_poisson_target(1, 1)
    trace2 = run_chain(t2, [0.0], ChainConfig(0, n), np.random.default_rng(82))
    cost2 = trace2.total_cost()
    bound = all(cost2[k] <= 2 * n + 1 for k in cost2)
    ok = exact and bound and trace2.acceptance_rate() < 1.0
    report(
        "c08 evaluation-count",
        ok,
        f"all-accept cost {trace.total_cost()} == n+1={n + 1}; "
        f"rejecting chain cost {cost2} <= 2n+1={2 * n + 1}",
    )


def test_c09_hierarchical_demo():
    t0 = time.perf_counter()
    spec, truth = simulate_hb(5, 10, 2, np.random.default_rng(2026), group_size=400)
    tr_t = hb_gibbs(spec, HbConfig(n_burnin=500, n_samples=500, seed=101))
    tr_s = hb_gibbs(
        spec, HbConfig(n_burnin=500, n_samples=500, beta_sampler="slice", seed=202)
    )
    lo = np.quantile(tr_t.beta, 0.025, axis=0)
    hi = np.quantile(tr_t.beta, 0.975, axis=0)
    coverage = float(np.mean((truth["beta"] >= lo) & (truth["beta"] <= hi)))

    def mcse(trace):
        sd = trace.beta.std(axis=0, ddof=1)
        ess = np.array(
            [
                [effective_size(trace.beta[:, j, k]) for k in range(10)]
                for j in range(5)
            ]
        )
        return sd / np.sqrt(ess)

    combo = np.sqrt(mcse(tr_t) ** 2 + mcse(tr_s) ** 2)
    z = np.abs(tr_t.beta.mean(axis=0) - tr_s.beta.mean(axis=0)) / combo
    incidents = tr_t.meta["hessian_failures"] + tr_s.meta["hessian_failures"]
    elapsed = time.perf_counter() - t0
    ok = coverage >= 0.90 and float(np.max(z)) <= 3.0 and incidents == 0 and elapsed < 300.0
    report(
        "c09 hierarchical-demo",
        ok,
        f"coverage {coverage:.2f} (>=0.90), max mean discrepancy {np.max(z):.2f} MCSE (<=3), "
        f"{incidents} hessian incidents, {elapsed:.0f}s",
    )


def test_c10_ess_oracles():
    rng = np.random.default_rng(101)
    iid = rng.standard_normal(100000)
    iid_ratio = effective_size(iid) / iid.size
    ar = ar1_series(100000, 0.5, np.random.default_rng(102))
    ar_ratio = effective_size(ar) / ar.size
    ok = abs(iid_ratio - 1.0) <= 0.05 and abs(ar_ratio - 1.0 / 3.0) <= 0.15 / 3.0
    report(
        "c10 ess-oracles",
        ok,
        f"iid ESS/n {iid_ratio:.3f} (1 +- 5%), AR(1) ESS/n {ar_ratio:.3f} (1/3 +- 15%)",
    )


def test_c11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    mismatches = []
    for verb in ("chain", "mixing-scan", "theorem", "hb", "benchmark"):
        a, b = tmp_path / f"a-{verb}", tmp_path / f"b-{verb}"
        assert cli_main([verb, "--seed", "110", "--out", str(a), "--quick"]) == 0
        assert cli_main([verb, "--seed", "110", "--out", str(b), "--quick"]) == 0
        names = sorted(p.name for p in a.iterdir())
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                mismatches.append(f"{verb}/{name}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    report(
        "c11 cli-determinism",
        ok,
        f"all verbs byte-identical on rerun ({elapsed:.0f}s)"
        if ok
        else f"differing files: {mismatches}",
    )
