import hashlib
import itertools
import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import tangentmh
from tangentmh.cli import (
    VERBS,
    ConfigError,
    main,
    parse_config_text,
    read_csv_checked,
)


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestConfigParsing:
    def test_basic_types(self):
        cfg = parse_config_text(
            "a = 1\nb = 2.5\nc = true\nd = hello\ne = 1, 2, 3\n# comment\n\n"
        )
        assert cfg == {"a": 1, "b": 2.5, "c": True, "d": "hello", "e": [1, 2, 3]}

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config_text("a = 1\nb = 2\nnot a pair\n", "demo.cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("a = 1\na = 2\n")

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert run_cli("chain", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 2

    def test_seed_required(self, tmp_path):
        assert run_cli("chain", "--out", str(tmp_path / "o")) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        assert run_cli("chain", "--config", missing, "--seed", "1",
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_quick_does_not_hide_a_bad_value(self, tmp_path, capsys):
        # --quick replaces n_burnin, but the file's value is still checked
        err = assert_rejected("chain", tmp_path, capsys, "n_burnin = 20.5\n",
                              ("--seed", "5", "--quick"))
        assert "n_burnin must be an integer" in err


class TestChainVerb:
    def test_poisson_chain_outputs(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("chain", "--seed", "3", "--out", str(out), "--quick") == 0
        summary = read_json(out / "summary.json")
        assert summary["verb"] == "chain"
        assert summary["seed"] == 3
        assert summary["mixing_index"] == pytest.approx(0.7071, abs=1e-3)
        rows = read_csv_checked(out / "samples.csv", "tangentmh.samples.v1")
        assert rows[0] == ["step", "x0"]
        assert len(rows) == 1 + summary["n_samples"]

    def test_gaussian_chain_full_acceptance(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("target = gaussian\ndim = 3\nn_burnin = 20\nn_samples = 300\n")
        out = tmp_path / "o"
        assert run_cli("chain", "--config", str(cfg), "--seed", "4", "--out", str(out)) == 0
        assert read_json(out / "summary.json")["acceptance_rate"] == 1.0

    def test_schema_mismatch_detected(self, tmp_path):
        out = tmp_path / "o"
        run_cli("chain", "--seed", "3", "--out", str(out), "--quick")
        with pytest.raises(ConfigError, match="schema mismatch"):
            read_csv_checked(out / "samples.csv", "tangentmh.steps.v1")

    def test_logistic_data_file(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 2))
        y = (rng.random(60) < 0.5).astype(float)
        data = tmp_path / "d.csv"
        with open(data, "w") as fh:
            fh.write("y,x1,x2\n")
            for i in range(60):
                fh.write(f"{y[i]},{float(X[i, 0])!r},{float(X[i, 1])!r}\n")
        cfg = tmp_path / "l.cfg"
        cfg.write_text(f"target = logistic\ndata = {data}\nn_burnin = 20\nn_samples = 50\n")
        out = tmp_path / "o"
        assert run_cli("chain", "--config", str(cfg), "--seed", "5", "--out", str(out)) == 0
        summary = read_json(out / "summary.json")
        assert summary["eval_counters"]["n_value"] > 0

    def test_bad_data_file_reports_line(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("wrong,header\n1,2\n")
        cfg = tmp_path / "l.cfg"
        cfg.write_text(f"target = logistic\ndata = {data}\n")
        out = tmp_path / "o"
        assert run_cli("chain", "--config", str(cfg), "--seed", "5", "--out", str(out)) == 2


class TestChainBadInput:
    """Each bad input ends as one ``error:`` line with exit status 2, before
    the output directory is created."""

    def rejects(self, tmp_path, capsys, config_text, data_text=None):
        if data_text is not None:
            (tmp_path / "d.csv").write_text(data_text)
            config_text += f"target = logistic\ndata = {tmp_path / 'd.csv'}\n"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config_text)
        out = tmp_path / "o"
        assert run_cli("chain", "--config", str(cfg), "--seed", "5", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
        return err

    def test_all_zero_poisson_counts(self, tmp_path, capsys):
        assert "all zero" in self.rejects(tmp_path, capsys, "target = poisson\ncounts = 0\n")

    def test_header_only_logistic_data(self, tmp_path, capsys):
        assert "no data rows" in self.rejects(tmp_path, capsys, "", "y,x1,x2\n")

    def test_x0_of_wrong_length(self, tmp_path, capsys):
        err = self.rejects(tmp_path, capsys, "target = gaussian\ndim = 3\nx0 = 1.0, 2.0\n")
        assert "dimension 3" in err

    def test_ragged_rows(self, tmp_path, capsys):
        err = self.rejects(tmp_path, capsys, "", "y,x1,x2\n1,0.5,0.25\n0,0.5\n")
        assert ":3:" in err and "non-numeric" not in err

    def test_newton_beyond_burnin(self, tmp_path, capsys):
        assert "burn-in" in self.rejects(tmp_path, capsys, "n_burnin = 10\nn_newton = 20\n")

    def test_non_finite_x0(self, tmp_path, capsys):
        assert "finite" in self.rejects(tmp_path, capsys, "x0 = nan\n")

    def test_no_tangent_fit_at_x0(self, tmp_path, capsys):
        # the Poisson Hessian -exp(800) overflows to -inf at the start point
        err = self.rejects(tmp_path, capsys, "x0 = 800\n")
        assert "x0 = 800" in err and "pivot 0" in err

    def test_newton_burnin_diverges_from_x0(self, tmp_path, capsys):
        # the first Newton step from -20 lands near 9.7e8, where the fit fails
        err = self.rejects(tmp_path, capsys, "x0 = -20\n")
        assert "x0 = -20" in err and "Hessian not negative definite" in err

    def test_gaussian_precision_not_positive(self, tmp_path, capsys):
        err = self.rejects(tmp_path, capsys, "target = gaussian\nprecision = -1\n")
        assert "not positive definite" in err

    @pytest.mark.parametrize(
        "key, context",
        [
            ("n_burnin", ""),
            ("n_samples", ""),
            ("n_newton", ""),
            ("max_stepout", "sampler = slice\n"),
            ("dim", "target = gaussian\n"),
            ("obs", "target = replicated-poisson\n"),
            ("n_obs", "target = replicated-poisson\n"),
            ("counts", ""),
        ],
    )
    def test_non_integer_count(self, tmp_path, capsys, key, context):
        # each of these used to run, truncated to 2
        err = self.rejects(tmp_path, capsys, f"{context}{key} = 2.5\n")
        assert f"{key} must be an integer" in err

    @pytest.mark.parametrize(
        "config_text",
        ["x0 = true\n", "sampler = slice\nwidth = 1" + "0" * 400 + "\n"],
        ids=["boolean x0", "width beyond float range"],
    )
    def test_number_refused(self, tmp_path, capsys, config_text):
        # the first ran from x0 = 1.0; the second ended in a traceback
        assert "must be a finite number" in self.rejects(tmp_path, capsys, config_text)


class TestMixingIndexFromDivergentStart:
    """The index is taken at the target's own mode, so a start the chain
    leaves, or never leaves, does not move it (Newton from x0 = -20 steps
    to 9.7e8 on the single-count target)."""

    def run(self, tmp_path, config_text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config_text)
        out = tmp_path / "o"
        return run_cli("chain", "--config", str(cfg), "--seed", "7", "--quick", "--out", str(out)), out

    def test_slice_chain_from_minus_20_reports_mode_index(self, tmp_path):
        status, out = self.run(tmp_path, "sampler = slice\nx0 = -20\n")
        assert status == 0
        # 1/sqrt(2) at the single-count mode log 2
        assert read_json(out / "summary.json")["mixing_index"] == pytest.approx(2**-0.5, rel=1e-9)

    def test_tangent_chain_still_fails(self, tmp_path, capsys):
        status, out = self.run(tmp_path, "x0 = -20\n")
        err = capsys.readouterr().err
        assert status == 2 and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_slice_chain_from_a_flat_tail_reports_the_mode(self, tmp_path):
        # exp(-800) is 0: no Newton step from x0, where the slice chain
        # reaches the mode; it exited 2 naming the Hessian at -800
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sampler = slice\nx0 = -800\nn_burnin = 500\n")
        out = tmp_path / "o"
        assert run_cli("chain", "--config", str(cfg), "--seed", "7", "--out", str(out)) == 0
        assert read_json(out / "summary.json")["mixing_index"] == pytest.approx(2**-0.5, rel=1e-9)

    def test_quick_flat_tail_chain_reports_mode_index(self, tmp_path):
        # a quick chain has not left the tail; it exited 2 when the index
        # was searched for from there
        status, out = self.run(tmp_path, "sampler = slice\nx0 = -800\n")
        assert status == 0
        assert read_json(out / "summary.json")["mixing_index"] == pytest.approx(2**-0.5, rel=1e-15)

    def test_empty_slice_chain_reports_mode_index(self, tmp_path):
        # no samples, and none are needed: it exited 2 when the index was
        # searched for from x0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sampler = slice\nx0 = -20\nn_burnin = 10\nn_samples = 0\n")
        out = tmp_path / "o"
        assert run_cli("chain", "--config", str(cfg), "--seed", "7", "--out", str(out)) == 0
        assert read_json(out / "summary.json")["mixing_index"] == pytest.approx(2**-0.5, rel=1e-15)

    def test_index_is_the_same_from_every_start(self, tmp_path):
        indices = []
        for x0 in ("0", "-20", "-800"):
            (tmp_path / x0).mkdir()
            status, out = self.run(tmp_path / x0, f"sampler = slice\nx0 = {x0}\n")
            assert status == 0
            indices.append(read_json(out / "summary.json")["mixing_index"])
        assert indices == [indices[0]] * 3
        assert indices[0] == pytest.approx(2**-0.5, rel=1e-15)


@pytest.mark.parametrize("x0", ["-20", "800"])
def test_failed_start_prints_only_the_error_line(tmp_path, x0):
    # in a fresh interpreter, so that a numpy warning would reach stderr
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"x0 = {x0}\n")
    out = tmp_path / "o"
    env = {**os.environ, "PYTHONPATH": str(Path(tangentmh.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "tangentmh.cli", "chain", "--seed", "7", "--quick",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def assert_rejected(verb, tmp_path, capsys, config_text, argv=("--seed", "5")):
    """One ``error:`` line, exit status 2 and no output directory."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "o"
    assert run_cli(verb, "--config", str(cfg), *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()
    return err


@pytest.mark.parametrize("verb", list(VERBS))
@pytest.mark.parametrize(
    "argv, config_text",
    [
        (("--seed", "-1"), ""),
        ((), "seed = -1\n"),
        ((), "seed = 2.5\n"),
        ((), "seed = abc\n"),
    ],
    ids=["flag -1", "file -1", "file 2.5", "file abc"],
)
def test_seed_must_be_a_count(verb, argv, config_text, tmp_path, capsys):
    err = assert_rejected(verb, tmp_path, capsys, config_text, argv + ("--quick",))
    assert "seed must be an integer >= 0" in err


COUNT_KEYS = [
    (verb, key)
    for verb, (_, table) in VERBS.items()
    for key, spec in table.items()
    if spec.kind in ("count", "count list")
]


@pytest.mark.parametrize("verb, key", COUNT_KEYS)
def test_every_count_refuses_a_fraction(verb, key, tmp_path, capsys):
    argv = () if key == "seed" else ("--seed", "5")
    err = assert_rejected(verb, tmp_path, capsys, f"{key} = 2.5\n", argv)
    assert f"{key} must be an integer" in err


def test_readme_lists_every_setting():
    """The README's CLI tables give each verb's keys, defaults and
    ``--quick`` sizes as its settings table does."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()

    def shown(value):
        values = value if isinstance(value, list) else [value]
        return "`" + ", ".join(str(v) for v in values) + "`"

    for verb, (_, table) in VERBS.items():
        lines = readme.split(f"#### `{verb}`\n", 1)[1].lstrip("\n").splitlines()
        rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines))[2:]
        cells = {}
        for row in rows:
            key, _, default, quick = (c.strip() for c in row.strip("|").split("|"))
            cells[key.strip("`")] = (default, quick)
        assert list(cells) == list(table), verb
        for key, spec in table.items():
            default, quick = cells[key]
            if spec.default is not None:
                assert default == shown(spec.default), (verb, key)
            assert quick == ("" if spec.quick is None else shown(spec.quick)), (verb, key)


class TestHbBadInput:
    # block_size is no hb key: each group's coefficients step as one block
    @pytest.mark.parametrize(
        "key, value", [("block_size", 0), ("block_size", 10), ("n_groups", 0), ("n_samples", 5)]
    )
    def test_rejected_before_output(self, tmp_path, capsys, key, value):
        assert key in assert_rejected("hb", tmp_path, capsys, f"{key} = {value}\n")

    def test_bad_slice_width(self, tmp_path, capsys):
        assert "width" in assert_rejected("hb", tmp_path, capsys, "width = -1.0\n")

    def test_chain_failure_reported_before_output(self, tmp_path, capsys, monkeypatch):
        # a chain failure used to end in a traceback and leave an empty
        # output directory; here a conjugate draw is made non-finite
        import tangentmh.hb as hb

        real = hb.draw_precisions
        monkeypatch.setattr(hb, "draw_precisions", lambda *a: np.nan * real(*a))
        err = assert_rejected("hb", tmp_path, capsys, "", ("--seed", "7", "--quick"))
        assert "non-finite conjugate draw" in err

    def test_slice_shrink_failure_reported_before_output(self, tmp_path, capsys):
        # a bracket far wider than the posterior exhausts the shrinks; the
        # SliceError used to end in a traceback
        err = assert_rejected("hb", tmp_path, capsys, "width = 1e308\n", ("--seed", "3", "--quick"))
        assert "slice chain" in err and "shrinks" in err

    def test_zero_ess_chain_reported_before_output(self, tmp_path, capsys):
        # a bracket far narrower than the posterior leaves the slice draws
        # without variance; their ESS of 0 used to raise ZeroDivisionError
        # once the output directory had been made
        err = assert_rejected("hb", tmp_path, capsys, "width = 1e-300\n", ("--seed", "3", "--quick"))
        assert "slice chain" in err and "effective sample size 0" in err

    def test_single_group_runs(self, tmp_path):
        # with one group, tau's Gamma conditional has shape a + 1/2, and at
        # this seed its draws spread over 12 orders of magnitude: past
        # cholesky's relative pivot rule, which diag(tau) no longer meets
        cfg = tmp_path / "h.cfg"
        cfg.write_text("n_groups = 1\n")
        out = tmp_path / "o"
        assert run_cli("hb", "--config", str(cfg), "--seed", "7", "--quick", "--out", str(out)) == 0
        summary = read_json(out / "summary.json")
        assert summary["comparison"]["tangent"]["hessian_failures"] == 0


class TestTheoremBadInput:
    @pytest.mark.parametrize(
        "key, value", [("trials", "x"), ("trials", "-1"), ("n_instances", "2.5"), ("n_instances", "0")]
    )
    def test_rejected_before_output(self, tmp_path, capsys, key, value):
        assert key in assert_rejected("theorem", tmp_path, capsys, f"{key} = {value}\n")

    def test_failed_campaign_makes_no_output_directory(self, tmp_path, capsys, monkeypatch):
        # the directory used to be made before the campaign ran
        import tangentmh.cli as cli

        def fail(*args, **kwargs):
            raise MemoryError("campaign too large")

        monkeypatch.setattr(cli, "run_campaign", fail)
        err = assert_rejected("theorem", tmp_path, capsys, "", ("--seed", "7", "--quick"))
        assert "campaign too large" in err


class TestMixingScanBadInput:
    @pytest.mark.parametrize("key", ["obs", "n_list"])
    def test_rejected_before_output(self, tmp_path, capsys, key):
        assert key in assert_rejected("mixing-scan", tmp_path, capsys, f"{key} = 0\n")


# a count past int64's maximum ended in a traceback (an OverflowError, or
# numpy's "Maximum allowed dimension exceeded") with exit 1, and
# mixing-scan left an empty output directory
@pytest.mark.parametrize("verb, config_text", [
    ("chain", "counts = 1e300\n"),
    ("chain", "counts = 2, 1e300\n"),
    ("chain", "target = replicated-poisson\nobs = 1e300\n"),
    ("chain", "target = replicated-poisson\nobs = 9223372036854775808\n"),
    ("hb", "n_groups = 1e300\n"),
    ("hb", "n_upper = 1e300\n"),
    ("benchmark", "n_obs = 1e300\n"),
    ("theorem", "trials = 1e300\n"),
    ("mixing-scan", "n_list = 1e300\n"),
    ("mixing-scan", "obs = 1e300\n"),
], ids=lambda v: v.replace("\n", " ").strip() if isinstance(v, str) else v)
def test_count_past_int64_is_refused(verb, config_text, tmp_path, capsys):
    key = config_text.strip().splitlines()[-1].split(" =")[0]
    err = assert_rejected(verb, tmp_path, capsys, config_text, ("--seed", "7", "--quick"))
    assert f"{key} must be an integer >= " in err and "<= 9223372036854775807" in err


# a count within int64 whose arrays cannot be allocated (7-71 PiB here)
# ended in numpy's _ArrayMemoryError traceback with exit 1; no --quick, which
# would replace chain's n_samples and hb's group_size
@pytest.mark.parametrize("verb, key", [("benchmark", "n_obs"), ("chain", "n_samples"), ("hb", "group_size")])
def test_count_too_large_to_allocate_is_refused(verb, key, tmp_path, capsys):
    err = assert_rejected(verb, tmp_path, capsys, f"{key} = {10**15}\n", ("--seed", "7"))
    assert "do not fit in memory" in err


def test_count_at_int64_max_is_accepted(tmp_path):
    # the bound itself is a count; the scan's chains start at the mode
    cfg = tmp_path / "c.cfg"
    cfg.write_text("obs = 9223372036854775807\nn_list = 1\n")
    out = tmp_path / "o"
    assert run_cli("mixing-scan", "--config", str(cfg), "--seed", "7", "--quick", "--out", str(out)) == 0
    assert read_json(out / "summary.json")["rows"][0]["mixing_index"] == pytest.approx(2.0**-31.5, rel=1e-12)


class TestBenchmarkBadInput:
    # block_size is no benchmark key: the tangent chains step all coefficients as one block
    @pytest.mark.parametrize(
        "key, value", [("n_runs", 0), ("n_samples", 5), ("block_size", 0), ("n_obs", 3)]
    )
    def test_rejected_before_output(self, tmp_path, capsys, key, value):
        err = assert_rejected("benchmark", tmp_path, capsys, f"{key} = {value}\n")
        assert (f"unknown key {key!r}" if key == "block_size" else f"{key} must be") in err

    def test_bad_slice_widths(self, tmp_path, capsys):
        assert "widths" in assert_rejected("benchmark", tmp_path, capsys, "widths = 0.5, 0.0\n")

    def test_boolean_slice_width(self, tmp_path, capsys):
        # used to run as width 1
        assert "widths" in assert_rejected("benchmark", tmp_path, capsys, "widths = true\n")

    def test_separable_data_reported_before_output(self, tmp_path, capsys):
        # one row per coefficient: the simulated data separate, the posterior
        # has no mode, and the Newton burn-in meets a Hessian that is not
        # negative definite; the 10-entry point still prints on one line
        config = "n_obs = 10\nn_coeffs = 10\n"
        err = assert_rejected("benchmark", tmp_path, capsys, config, ("--seed", "7", "--quick"))
        assert "Hessian not negative definite" in err

    # a bracket far wider than the posterior exhausts the shrinks (a SliceError
    # traceback before); one far narrower leaves the slice draws without
    # variance (a ZeroDivisionError at ESS 0 before)
    @pytest.mark.parametrize("width, reason", [("1e308", "shrinks"), ("1e-300", "effective sample size 0")])
    def test_slice_chain_failure_reported_before_output(self, tmp_path, capsys, width, reason):
        config = f"widths = {width}\n"
        err = assert_rejected("benchmark", tmp_path, capsys, config, ("--seed", "3", "--quick"))
        assert "slice chain" in err and reason in err


# SHA-256 of every file each verb writes at --quick --seed 11 (numpy 2.4,
# scipy 1.17, x86-64); a change that moves any output byte fails here
PINNED_SHA256 = {
    "chain": {
        "samples.csv": "f1209d869fdeb3ad239c10067c6bc6eb6ad49e86057b3f789d4f0090c3bc8e39",
        "steps.csv": "18f0855c90389a8f38d55fd16b13e60f8494c354791c203a4aad5b8e4e899966",
        "summary.json": "3c2dad6e2fad9e64fc96d6e0f285b43afa61cf8be5814c8e85e179ff03a70899",
    },
    "benchmark": {
        "runs.csv": "bcb93516ddd9c3f58a7d4828d3cdfe1e0ea83a9cf30da132c967e4851629027d",
        "summary.json": "43eac514127c23791e707cf44851578a6d63fdd94e42bdb780e2d0c1c95d87ff",
        "table.csv": "a06e5405bee9a01acf11febe5e42401d4dd01a1aec4eacea4bb5f0bba99432e7",
    },
    "hb": {
        "coefficients.csv": "d0a0f8b6c98cf1b4accadcc45e70c76c2cb9912fce389ed9cf9b55e6be758cd5",
        "summary.json": "7e9a84854cb6b0986bee9df7c2784e0caf0c36de06e419b68c3060dd69f90736",
    },
    "theorem": {
        "campaign.jsonl": "6d086d4d8e56461c86a84597735d317ef182308130ab866ae26ce269857790c8",
        "summary.json": "bf3a309be776a2e291a95986eeed6029155ce84200c701231621dac6559c9aaf",
    },
    "mixing-scan": {
        "mixing_scan.csv": "35d36b88ac3276199918d56b95630470bcb337820888a9be7e4031f2bd77c6e8",
        "summary.json": "06e33e299d90e664394be6deab6c8f496d2dde2e56466436391f8ef244a6de62",
    },
}


class TestDeterminism:
    @pytest.mark.parametrize("verb", ["chain", "mixing-scan", "theorem", "hb", "benchmark"])
    def test_byte_identical_rerun(self, verb, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(verb, "--seed", "11", "--out", str(a), "--quick") == 0
        assert run_cli(verb, "--seed", "11", "--out", str(b), "--quick") == 0
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in a.iterdir()}
        assert digests == PINNED_SHA256[verb]

    def test_different_seed_changes_samples(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("chain", "--seed", "1", "--out", str(a), "--quick")
        run_cli("chain", "--seed", "2", "--out", str(b), "--quick")
        assert (a / "samples.csv").read_bytes() != (b / "samples.csv").read_bytes()


class TestConvergenceContrast:
    def test_three_trace_newton_burnin_contrast(self, tmp_path):
        # three chains on the single-count target: started at -1.0, at
        # -1.5, and at -1.5 with 5 deterministic Newton iterations first.
        # After 5 Newton steps the state is pinned by the recurrence
        # u <- u + 2 exp(-u) - 1 at 2.5583 (the first step overshoots to
        # 6.4634), and the subsequent chain hugs the mode sooner than the
        # plain -1.5 chain with its wild initial jumps.
        outs = {}
        for name, (x0, burnin, newton) in {
            "a": (-1.0, 0, 0),
            "b": (-1.5, 0, 0),
            "c": (-1.5, 5, 5),
        }.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                f"target = poisson\ncounts = 2\nx0 = {x0}\n"
                f"n_burnin = {burnin}\nn_newton = {newton}\nn_samples = 60\n"
            )
            out = tmp_path / name
            # the plain -1.5 chain never moves in its 60 samples: ESS 0, with a warning
            stuck = pytest.warns(UserWarning, match="degenerate series") if name == "b" else nullcontext()
            with stuck:
                assert run_cli("chain", "--config", str(cfg), "--seed", "7",
                               "--out", str(out)) == 0
            rows = read_csv_checked(out / "samples.csv", "tangentmh.samples.v1")
            outs[name] = np.array([float(r[1]) for r in rows[1:]])

        u5 = -1.5
        for _ in range(5):
            u5 = u5 + 2.0 * np.exp(-u5) - 1.0
        # the newton-variant resumes from the deterministic 5-step state
        start_c = outs["c"][0]
        prop_mean = u5 + 2.0 * np.exp(-u5) - 1.0
        assert abs(start_c - u5) < 3.0 / np.sqrt(np.exp(u5)) + abs(prop_mean - u5)
        mode = np.log(2.0)
        dev_b = np.mean(np.abs(outs["b"][:20] - mode))
        dev_c = np.mean(np.abs(outs["c"][:20] - mode))
        assert dev_c < dev_b


class TestMixingScan:
    def test_scan_values_and_monotone_acceptance(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("mixing-scan", "--seed", "9", "--out", str(out)) == 0
        rows = read_json(out / "summary.json")["rows"]
        etas = {r["n_obs"]: r["mixing_index"] for r in rows}
        assert etas[1] == pytest.approx(1.0, abs=1e-10)
        assert etas[100] == pytest.approx(0.1, abs=1e-10)
        acc = [r["acceptance_rate"] for r in rows]
        assert acc[0] < acc[1] < acc[2]

    @pytest.mark.parametrize("obs", [200, 1000])
    def test_large_observations_scan(self, tmp_path, obs):
        # the Newton search for the mode ran out of iterations from 200 on
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"obs = {obs}\n")
        out = tmp_path / "o"
        assert run_cli("mixing-scan", "--config", str(cfg), "--seed", "7", "--quick", "--out", str(out)) == 0
        for row in read_json(out / "summary.json")["rows"]:
            assert row["mixing_index"] == pytest.approx((obs * row["n_obs"]) ** -0.5, rel=1e-12)

    def test_failed_scan_makes_no_output_directory(self, tmp_path, monkeypatch):
        import tangentmh.cli as cli

        def fail(*args):
            raise ZeroDivisionError("scan failed")

        monkeypatch.setattr(cli, "run_chain", fail)
        out = tmp_path / "o"
        with pytest.raises(ZeroDivisionError):
            run_cli("mixing-scan", "--seed", "7", "--quick", "--out", str(out))
        assert not out.exists()

    def test_single_observation_of_two(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("obs = 2\nn_list = 1\nn_steps = 2000\n")
        out = tmp_path / "o"
        assert run_cli("mixing-scan", "--config", str(cfg), "--seed", "9",
                       "--out", str(out)) == 0
        rows = read_json(out / "summary.json")["rows"]
        assert rows[0]["mixing_index"] == pytest.approx(0.7071, abs=1e-3)


class TestTheoremVerb:
    def test_quick_campaign(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("theorem", "--seed", "13", "--out", str(out), "--quick") == 0
        lines = (out / "campaign.jsonl").read_text().strip().splitlines()
        assert len(lines) == 20
        summary = read_json(out / "summary.json")
        assert summary["n_violations"] == 0


class TestHbVerb:
    def test_zero_iteration_headers_only(self, tmp_path):
        cfg = tmp_path / "h.cfg"
        cfg.write_text("n_burnin = 2\nn_samples = 0\ngroup_size = 60\n")
        out = tmp_path / "o"
        assert run_cli("hb", "--config", str(cfg), "--seed", "15", "--out", str(out)) == 0
        rows = read_csv_checked(out / "coefficients.csv", "tangentmh.hb-coefficients.v1")
        assert len(rows) == 1  # header only
