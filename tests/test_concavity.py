import json

import numpy as np
import pytest

from tangentmh.concavity import (
    ConcavityInstance,
    build_target,
    random_instances,
    run_campaign,
    run_instance,
)


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

    def test_expectation_requires_every_design_full_rank(self):
        full = ConcavityInstance(2, (3, 2), 10, "quadratic", (0, 0), 1)
        mixed = ConcavityInstance(2, (3, 2), 10, "quadratic", (0, 1), 1)
        assert full.expects_certificate
        assert not mixed.expects_certificate

    def test_build_target_respects_rank_plan(self):
        rng = np.random.default_rng(0)
        inst = ConcavityInstance(2, (4, 3), 15, "quadratic", (2, 0), 7)
        t = build_target(inst, rng)
        assert t.ranks == (2, 3)
        assert t.full_rank_flags == (False, True)


class TestRunInstance:
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
