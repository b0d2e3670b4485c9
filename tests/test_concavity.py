import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import null_space

import tangentmh.concavity as concavity
from tangentmh.concavity import (
    RANK_RTOL,
    ConcavityInstance,
    build_target,
    random_instances,
    run_campaign,
    run_instance,
    separating_direction,
)

from helpers import logistic_data


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConcavityInstance(2, (3,), 10, "quadratic", (0, 0), 1)
        with pytest.raises(ValueError):
            ConcavityInstance(2, (3, 3), 10, "bernoulli", (0, 0), 1)
        with pytest.raises(ValueError):
            ConcavityInstance(1, (3,), 2, "bernoulli", (0,), 1)  # too few obs
        with pytest.raises(ValueError):
            ConcavityInstance(1, (3,), 10, "bernoulli", (3,), 1)  # deficiency too big

    @pytest.mark.parametrize("args, message", [
        ((2, (3, 3), 10, "quadratic", (0,), 1), "need one rank plan per group"),
        ((1, (3,), 10, "poisson", (0,), 1), "unknown base family 'poisson'"),
    ], ids=["rank plans", "base"])
    def test_refuses(self, args, message):
        with pytest.raises(ValueError, match=message):
            ConcavityInstance(*args)

    def test_expectation_requires_every_design_full_rank(self):
        full = ConcavityInstance(2, (3, 2), 10, "quadratic", (0, 0), 1)
        mixed = ConcavityInstance(2, (3, 2), 10, "quadratic", (0, 1), 1)
        assert full.expects_certificate
        assert not mixed.expects_certificate

    def test_build_target_respects_rank_plan(self):
        rng = np.random.default_rng(0)
        inst = ConcavityInstance(2, (4, 3), 15, "quadratic", (2, 0), 7)
        t = build_target(inst, rng)
        assert [null_space(X, rcond=RANK_RTOL).shape[1] for X in t.designs] == [2, 0]


def plant_near_singular(monkeypatch, scale):
    """Make every design's last column a combination of the others, moved
    off it by ``scale`` times the design's spectral norm."""
    plain = concavity._design

    def perturbed(n_obs, k, deficiency, rng):
        X = plain(n_obs, k, deficiency, rng)
        u = np.random.default_rng(5).standard_normal(n_obs)
        X[:, -1] += scale * np.linalg.norm(X, 2) * u / np.linalg.norm(u)
        return X

    monkeypatch.setattr(concavity, "_design", perturbed)


class TestRunInstance:
    @pytest.mark.parametrize("scale, outcome", [(1e-13, "witness"), (1e-6, "certificate")])
    def test_rank_verdict_at_its_tolerance(self, monkeypatch, scale, outcome):
        # the pivot rule may refuse a factor this close to singular, so the
        # factorization is stubbed out and the outcome reads the null-space
        # verdict alone
        plant_near_singular(monkeypatch, scale)
        monkeypatch.setattr(concavity, "cholesky", lambda a: None)
        rec = run_instance(ConcavityInstance(1, (3,), 12, "quadratic", (1,), 4))
        assert rec.outcome == outcome
        assert rec.ok == (outcome == "witness")

    @pytest.mark.parametrize("seed", range(20))
    def test_failed_factorization_is_one_more_check(self, monkeypatch, seed):
        # 1e-8 is inside the band that passes the rank rule but not the
        # pivot rule: the outcome follows the null spaces, the record fails
        # and names the pivot, and every other check still runs and records
        # its residual
        plant_near_singular(monkeypatch, 1e-8)
        rec = run_instance(ConcavityInstance(1, (3,), 12, "quadratic", (1,), seed))
        assert rec.outcome == "certificate" and not rec.ok
        assert rec.detail == "certificate factorization failed at pivot 2"
        assert 0.0 < rec.identity_max_err <= concavity.IDENTITY_TOL
        assert rec.hessian_fd_rel_err < concavity.HESSIAN_FD_RTOL
        assert np.isnan(rec.witness_quad_rel)

    def test_identity_design_unit_quadratic(self):
        # X = I with unit concave quadratic base: H = -I, certificate
        inst = ConcavityInstance(1, (4,), 4, "quadratic", (0,), 3)
        rec = run_instance(inst)
        assert rec.outcome == "certificate"
        assert rec.ok

    def test_bernoulli_full_rank_certificate(self):
        rec = run_instance(ConcavityInstance(1, (4,), 20, "bernoulli", (0,), 11))
        assert rec.outcome == "certificate" and rec.ok
        assert rec.hessian_fd_rel_err < 1e-4
        assert np.isnan(rec.witness_quad_rel)

    def test_full_rank_certificate(self):
        # the decomposition identity is checked in every random direction
        rec = run_instance(ConcavityInstance(2, (3, 2), 20, "quadratic", (0, 0), 12), trials=25)
        assert rec.outcome == "certificate" and rec.ok
        assert 0.0 < rec.identity_max_err <= 1e-10 * 1e4

    def test_all_deficient_witness(self):
        rec = run_instance(ConcavityInstance(1, (4,), 20, "bernoulli", (2,), 13))
        assert rec.outcome == "witness" and rec.ok
        assert rec.witness_quad_rel <= 1e-8

    def test_duplicated_column_yields_witness(self):
        rec = run_instance(ConcavityInstance(1, (4,), 20, "bernoulli", (1,), 13))
        assert rec.outcome == rec.expected == "witness" and rec.ok
        assert rec.witness_quad_rel <= 1e-8

    def test_mixed_rank_plan_yields_flat_direction(self):
        # one full-rank design does not rescue definiteness: a direction
        # supported on the deficient block alone keeps p^T H p at zero
        rec = run_instance(ConcavityInstance(2, (3, 2), 20, "quadratic", (0, 1), 14))
        assert rec.outcome == rec.expected == "witness" and rec.ok
        assert rec.witness_quad_rel <= 1e-8

    def test_record_roundtrips_to_json(self):
        rec = run_instance(ConcavityInstance(1, (3,), 12, "bernoulli", (1,), 17))
        doc = json.loads(rec.to_json())
        assert doc["outcome"] == "witness"
        assert doc["instance"]["seed"] == 17


class TestSeparatingDirection:
    @pytest.mark.parametrize("kind", ["separated", "quasi-separated"])
    def test_likelihood_never_decreases_along_it(self, kind):
        X, y = logistic_data(kind)
        v = separating_direction(X, y)
        margins = (2 * y - 1) * (X @ v)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert margins.min() >= -1e-9 and margins.sum() > 0.0
        # the two rows on x1 = 0 pin the quasi-complete direction to (1, 0)
        assert kind == "separated" or np.allclose(v, [1.0, 0.0], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("kind", ["full-rank", "rank-deficient"])
    def test_none_without_separation(self, kind):
        assert separating_direction(*logistic_data(kind)) is None

    @pytest.mark.parametrize("scale", [1e-300, 1e307])
    @pytest.mark.parametrize("kind", ["full-rank", "separated"])
    def test_scale_free(self, kind, scale):
        # at 1e307 the rows' sum overflows unless the rows are scaled first
        X, y = logistic_data(kind)
        want = separating_direction(X, y)
        got = separating_direction(scale * X, y)
        assert got is None if want is None else np.allclose(got, want, rtol=0.0, atol=1e-9)

    def test_package_import_leaves_scipy_optimize_out(self):
        # linprog is imported at the first call: scipy.optimize would add
        # about 155 ms to every import of the package
        code = "import sys, tangentmh.cli; print('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(concavity.__file__).parent.parent)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout == "False\n"


class TestCampaign:
    def test_hundred_instances_land_as_predicted(self):
        report = run_campaign(random_instances(100, seed=20260810))
        assert report.ok, report.reproducer()
        summary = report.summary()
        assert summary["n_instances"] == 100
        assert summary["n_certificates"] > 10
        assert summary["n_witnesses"] > 10
        assert summary["max_identity_err"] <= 1e-10 * 1e4  # scaled inside records

    def test_jsonl_output(self, tmp_path):
        report = run_campaign(random_instances(8, seed=5))
        path = tmp_path / "campaign.jsonl"
        report.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 8
        assert all(json.loads(line)["ok"] for line in lines)

    def test_violation_produces_reproducer(self):
        # force a wrong expectation by hand-editing a record's instance:
        # a mixed-rank plan asserted as certificate must be flagged
        inst = ConcavityInstance(2, (3, 2), 12, "quadratic", (0, 1), 23)
        rec = run_instance(inst)
        assert rec.outcome == "witness"
        object.__setattr__(rec, "ok", False)
        from tangentmh.concavity import CampaignReport

        rep = CampaignReport([rec])
        assert not rep.ok
        assert "seed" in rep.reproducer()
