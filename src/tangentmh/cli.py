"""Experiment runner: chains, benchmarks, the hierarchical demo, the
concavity campaign, and the mixing scan.

All verbs write machine-readable outputs (CSV traces, JSON summaries) that
are byte-identical when re-run with the same seed and config.  Anything
wall-clock dependent (timings, measured evaluation-equivalent costs) is
printed to the console instead, so the persisted files stay reproducible;
the files carry raw evaluation counters from which cost figures can be
recomputed with any weighting.

Config files are flat ``key = value`` text; ``#`` starts a comment.  Values
are parsed as int, float, bool, or comma-separated lists thereof.  CLI
flags override config-file keys.  Each verb's settings table (see ``Key``)
gives its allowed keys, defaults, ``--quick`` sizes, casts and checks.
Randomness flows from the single ``--seed`` through named child streams
(one per chain or replicate) of a ``numpy`` SeedSequence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .benchmark import DEFAULT_WIDTHS, _NoEffectiveSamples, run_benchmark
from .concavity import flat_direction, random_instances, run_campaign, separating_direction
from .diagnostics import ModeFindingError, ess_per_dim, mixing_index
from .hb import HbConfig, hb_gibbs, simulate_hb
from .linalg import NotPositiveDefinite
from .slicer import SliceConfig, SliceError, slice_gibbs_chain
from .tangent import ChainConfig, HessianNotNegativeDefinite, _NonFiniteNewtonMean, run_chain
from .targets import GaussianPriorTarget, LogisticTarget, PoissonLogRateTarget, replicated_poisson_target

SCHEMA_PREFIX = "tangentmh"
SCHEMA_VERSION = "v1"


class ConfigError(Exception):
    """Bad config file or option set."""


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat ``key = value`` lines; errors carry line numbers."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if "," in value:
            out[key] = [_parse_scalar(v.strip()) for v in value.split(",") if v.strip()]
        else:
            out[key] = _parse_scalar(value)
    return out


def _parse_scalar(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


def content_hash(payload: dict, data_files=()) -> str:
    """SHA-256 over the canonical config payload plus any input file bytes."""
    h = hashlib.sha256()
    h.update(json.dumps(payload, sort_keys=True, default=str).encode())
    for path in data_files:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _schema(name: str) -> str:
    return f"{SCHEMA_PREFIX}.{name}.{SCHEMA_VERSION}"


def write_csv(path: Path, schema: str, cfg: dict, run_hash: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        fh.write(f"# seed: {cfg.get('seed')}\n")
        fh.write(f"# config: {json.dumps(cfg, sort_keys=True, default=str)}\n")
        fh.write(f"# run: {run_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_, np.integer)):
        return int(v)
    return v


class _Output:
    """A run's output directory, bound to the verb, the config echo and the
    run hash that every file written there carries."""

    def __init__(self, args, cfg: dict, data_files=()):
        self.verb = args.verb
        self.dir = Path(args.out) if args.out else Path("tangentmh-out") / args.verb
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.run_hash = content_hash(cfg, data_files)

    def csv(self, name: str, schema: str, header: list, rows) -> None:
        write_csv(self.dir / name, _schema(schema), self.cfg, self.run_hash, header, rows)

    def summary(self, body: dict) -> None:
        doc = {
            "schema": _schema(f"{self.verb}-summary"),
            "version": __version__,
            "verb": self.verb,
            "seed": self.cfg.get("seed"),
            "config": self.cfg,
            "content_hash": self.run_hash,
            **body,
        }
        # encoded first: a value JSON cannot encode raises before the file opens
        text = json.dumps(doc, indent=2, sort_keys=True)
        with open(self.dir / "summary.json", "w") as fh:
            fh.write(text + "\n")


# ------------------------------------------------------------- settings


class Key(NamedTuple):
    """One setting of a verb.

    ``kind`` is ``"count"`` (an integer from ``low`` to ``COUNT_MAX``; an
    integral float such as 20.0 counts), ``"number"`` (finite, and >
    ``low`` if one is given), ``"path"``, a tuple of the allowed strings,
    or ``"count list"`` / ``"number list"``: one value or a comma list,
    each entry checked.  ``quick`` replaces the value under ``--quick``.
    The config echo that every output file carries holds the keys the
    config file sets, plus the defaults that are not None and have
    ``echo`` set.
    """

    kind: str | tuple
    default: object = None
    low: float | None = None
    quick: object = None
    echo: bool = True


SEED = Key("count", low=0)
# the largest count, int64's maximum: numpy takes every count as an int64
COUNT_MAX = np.iinfo(np.int64).max


def _settings(args, table: dict) -> tuple[dict, SimpleNamespace]:
    """The config echo and the checked, typed settings of one verb.

    File keys override the table's defaults, ``--seed`` overrides the
    file, and ``--quick`` overrides both.  Every value is checked here,
    before the verb makes anything.  The echo keeps each value as written
    (``n_burnin = 20.0`` stays 20.0), except the seed, which is an int.
    """
    parsed = {}
    if args.config:
        try:
            parsed = parse_config_text(Path(args.config).read_text(), args.config)
        except OSError as err:
            raise ConfigError(f"{args.config}: {err.strerror}") from err
    unknown = [key for key in parsed if key not in table]
    if unknown:
        raise ConfigError(f"{args.config}: unknown key {unknown[0]!r} for this verb")
    cfg = {key: k.default for key, k in table.items() if k.echo and k.default is not None}
    cfg.update(parsed)
    if args.seed is not None:
        cfg["seed"] = _parse_scalar(args.seed)
    if "seed" not in cfg:
        raise ConfigError("a seed is required (--seed or 'seed =' in the config)")
    # a file value that --quick replaces is still checked
    values = {key: _check(key, k, cfg.get(key, k.default)) for key, k in table.items()}
    if args.quick:
        quick = {key: k.quick for key, k in table.items() if k.quick is not None}
        cfg.update(quick)
        values.update(quick)
    cfg["seed"] = values["seed"]
    cfg["quick"] = bool(args.quick)
    return cfg, SimpleNamespace(**values)


def _check(key: str, spec: Key, value):
    """``value`` as its kind asks, or a ConfigError naming ``key``."""
    if value is None:
        return None
    kind = spec.kind
    if isinstance(kind, str) and kind.endswith(" list"):
        entries = value if isinstance(value, list) else [value]
        if not entries:
            raise ConfigError(f"{key} needs at least one value")
        return [_check(key, spec._replace(kind=kind.split()[0]), v) for v in entries]
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(kind, tuple):
        ok = value in kind
        need = "one of " + ", ".join(kind)
    elif kind == "path":
        ok = isinstance(value, str)
        need = "a file path"
    elif kind == "count":
        ok = real and (isinstance(value, int) or value.is_integer()) and spec.low <= value <= COUNT_MAX
        need = f"an integer >= {spec.low} and <= {COUNT_MAX}"
    else:
        ok = real and abs(value) <= sys.float_info.max and (spec.low is None or value > spec.low)
        need = "a finite number" + ("" if spec.low is None else f" > {spec.low}")
    if not ok:
        raise ConfigError(f"{key} must be {need}, got {value!r}")
    return int(value) if kind == "count" else value


def _build_target(s):
    """The chain's target and the data files its run hash covers.  A
    logistic design without full column rank (``flat_direction``'s rule),
    or separated responses (``separating_direction``'s), is refused: under
    the chain's flat prior the posterior is then improper, since the
    likelihood does not decrease along the direction the error names."""
    try:
        if s.target == "poisson":
            target = PoissonLogRateTarget(np.asarray(s.counts, dtype=int))
        elif s.target == "replicated-poisson":
            target = replicated_poisson_target(s.obs, s.n_obs)
        elif s.target == "gaussian":
            target = GaussianPriorTarget(np.zeros(s.dim), s.precision * np.eye(s.dim))
        elif not s.data:
            raise ConfigError("logistic target needs 'data = <csv file>'")
        else:
            X, y = _load_logistic_csv(s.data)
            target = LogisticTarget(X, y)
            direction, why = flat_direction([X]), "the design is not of full column rank: the likelihood is flat"
            if direction is None:
                direction = separating_direction(X, y)
                why = "the responses are separated: the likelihood does not decrease"
            if direction is not None:
                rounded = np.array2string(np.round(direction, 3) + 0.0, max_line_width=sys.maxsize)
                raise ConfigError(f"{s.data}: {why} along {rounded}, so the posterior is improper")
    except (ValueError, NotPositiveDefinite) as err:
        raise ConfigError(f"target {s.target!r}: {err}") from err
    if s.target == "poisson" and target.total_count == 0:
        raise ConfigError("poisson counts are all zero: the posterior is improper")
    return target, [s.data] if s.target == "logistic" else []


def _load_logistic_csv(path):
    """Headered CSV with columns y, x1..xK."""
    try:
        with open(path) as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror}") from err
    if not rows or len(rows[0]) < 2 or rows[0][0] != "y":
        raise ConfigError(f"{path}:1: expected header 'y,x1,...,xK'")
    if len(rows) == 1:
        raise ConfigError(f"{path}: no data rows after the header")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ConfigError(f"{path}:{lineno}: {len(row)} cells, the header has {len(rows[0])}")
        try:
            data.append([float(v) for v in row])
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: non-numeric cell: {err}") from err
    data = np.array(data)
    return data[:, 1:], data[:, 0]


# ---------------------------------------------------------------- chain

CHAIN_SETTINGS = {
    "seed": SEED,
    "target": Key(("poisson", "replicated-poisson", "gaussian", "logistic"), "poisson"),
    "counts": Key("count list", [2], low=0, echo=False),
    "obs": Key("count", 1, low=1, echo=False),
    "n_obs": Key("count", 1, low=1, echo=False),
    "dim": Key("count", 2, low=1, echo=False),
    "precision": Key("number", 1.0, echo=False),
    "data": Key("path"),
    "x0": Key("number list", 0.0),
    "n_burnin": Key("count", 500, low=0, quick=50),
    "n_samples": Key("count", 2000, low=0, quick=200),
    "n_newton": Key("count", low=0),  # unset: half the burn-in
    "sampler": Key(("tangent", "slice"), "tangent"),
    "width": Key("number", 1.0, low=0, echo=False),
    "max_stepout": Key("count", 10, low=1, echo=False),
}


def cmd_chain(args, cfg: dict, s) -> int:
    # the iteration plan is checked for either sampler
    if s.n_newton is not None and s.n_newton > s.n_burnin:
        raise ConfigError(f"n_newton = {s.n_newton} exceeds the burn-in, n_burnin = {s.n_burnin}")
    target, data_files = _build_target(s)
    x0 = np.asarray(s.x0 * target.dim if np.isscalar(cfg["x0"]) else s.x0, dtype=float)
    if x0.shape != (target.dim,):
        raise ConfigError(f"x0 has {x0.size} entries; the target has dimension {target.dim}")

    rng = np.random.default_rng(np.random.SeedSequence(s.seed))
    # the output directory is made only once the chain has run: a start
    # point the chain cannot leave (e.g. no tangent fit there, or a Newton
    # burn-in that diverges) leaves nothing behind.  Such a start overflows
    # the target on the way; the error line below says so, numpy does not.
    mixing = None
    try:
        with np.errstate(all="ignore"):
            if s.sampler == "tangent":
                trace = run_chain(target, x0, ChainConfig(s.n_burnin, s.n_samples, s.n_newton), rng)
            else:
                slice_cfg = SliceConfig(s.width, s.max_stepout)
                trace = slice_gibbs_chain(target, x0, s.n_burnin, s.n_samples, slice_cfg, rng)
            if target.dim == 1 and hasattr(target, "third_derivative"):
                mixing = mixing_index(target)
    except (HessianNotNegativeDefinite, _NonFiniteNewtonMean, SliceError, ModeFindingError) as err:
        raise ConfigError(f"cannot run from x0 = {cfg['x0']!r}: {err}") from err
    out = _Output(args, cfg, data_files)

    out.csv("samples.csv", "samples", ["step"] + [f"x{j}" for j in range(trace.dim)],
            ([i] + list(trace.samples[i]) for i in range(trace.n_steps)))
    out.csv("steps.csv", "steps", ["step", "accepted", "n_value", "n_gradient", "n_hessian"],
            ([i, trace.accepted[i], trace.n_value[i], trace.n_gradient[i], trace.n_hessian[i]]
             for i in range(trace.n_steps)))

    cost = trace.total_cost()
    body = {
        "acceptance_rate": trace.acceptance_rate() if trace.n_steps else None,
        "ess_per_dim": ess_per_dim(trace.samples).tolist() if trace.n_steps >= 10 else None,
        "eval_counters": cost,
        "evals_per_step": {k: v / trace.n_steps for k, v in cost.items()} if trace.n_steps else None,
        "n_samples": trace.n_steps,
        "hessian_failures": trace.meta["hessian_failures"],
    }
    if mixing is not None:
        body["mixing_index"] = mixing
    out.summary(body)
    print(f"chain: {trace.n_steps} samples in {trace.wall_time:.2f}s -> {out.dir}")
    return 0


# ------------------------------------------------------------ benchmark

# the keys are run_benchmark's parameters
BENCHMARK_SETTINGS = {
    "seed": SEED,
    "n_runs": Key("count", 10, low=1, quick=1),
    "n_obs": Key("count", 1000, low=1),
    "n_coeffs": Key("count", 10, low=1),
    "n_burnin": Key("count", 200, low=0, quick=100),
    "n_samples": Key("count", 500, low=10, quick=200),  # ESS needs 10 samples
    "widths": Key("number list", list(DEFAULT_WIDTHS), low=0, echo=False),
}


def cmd_benchmark(args, cfg: dict, s) -> int:
    # the design needs at least as many rows as columns
    if s.n_obs < s.n_coeffs:
        raise ConfigError(f"n_obs must be an integer >= n_coeffs = {s.n_coeffs}, got {s.n_obs}")
    # as for chain, the output directory is made only once the runs are
    # done: separable data (few rows per coefficient) has no posterior mode,
    # and the Newton burn-in stops at a Hessian that is not negative definite.
    # As for hb, a slice width far off the posterior's scale can exhaust the
    # shrinks, overflowing the target on the way, or leave the draws without
    # variance (the error line says so, numpy and effective_size do not)
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "degenerate series")
            res = run_benchmark(**vars(s))
    except (HessianNotNegativeDefinite, _NonFiniteNewtonMean) as err:
        raise ConfigError(f"cannot run the tangent chain on the simulated data: {err}") from err
    except SliceError as err:
        raise ConfigError(f"cannot run the slice chain on the simulated data: {err}") from err
    except _NoEffectiveSamples as err:
        raise ConfigError(str(err)) from err
    out = _Output(args, cfg)

    table = res.table()
    out.csv("table.csv", "benchmark-table", ["figure", "tangent-mh", "slice"],
            ([row, table["tangent-mh"][row], table["slice"][row]]
             for row in ("evals_per_nominal", "effective_rate", "evals_per_effective")))
    out.csv("runs.csv", "benchmark-runs",
            ["sampler", "run", "ess_mean", "acceptance_rate", "n_value", "n_gradient",
             "n_hessian", "evals_per_nominal", "effective_rate", "evals_per_effective"],
            ([name, i, r.ess_mean, r.acceptance_rate, r.n_value, r.n_gradient,
              r.n_hessian, r.evals_per_nominal, r.effective_rate, r.evals_per_effective]
             for name, runs in (("tangent-mh", res.tangent_runs), ("slice", res.slice_runs))
             for i, r in enumerate(runs)))
    out.summary({
        "table": table,
        "slice_width": res.slice_width,
        "slice_tuning_sweep": res.tuning,
        "counter_ratio_per_effective": (
            table["slice"]["evals_per_effective"] / table["tangent-mh"]["evals_per_effective"]
        ),
    })
    # wall-clock figures are machine-dependent: console only
    wt = np.mean([r.wall_fee_per_effective for r in res.tangent_runs])
    ws = np.mean([r.wall_fee_per_effective for r in res.slice_runs])
    print(f"benchmark: tuned slice width {res.slice_width}")
    print(f"  wall-clock FEE/effective: tangent-mh {wt:.1f}  slice {ws:.1f}  "
          f"ratio {res.wall_fee_ratio():.2f}x")
    print(f"  counter evals/effective:  tangent-mh "
          f"{table['tangent-mh']['evals_per_effective']:.1f}  slice "
          f"{table['slice']['evals_per_effective']:.1f}")
    print(f"  outputs -> {out.dir}")
    return 0


# ------------------------------------------------------------------- hb

HB_SETTINGS = {
    "seed": SEED,
    "n_groups": Key("count", 5, low=1),
    "n_coeffs": Key("count", 10, low=1),
    "n_upper": Key("count", 2, low=1),
    "group_size": Key("count", 400, low=0, quick=150),  # 0: log-uniform sizes
    "n_burnin": Key("count", 500, low=0, quick=100),
    "n_samples": Key("count", 500, low=0, quick=100),
    "width": Key("number", 1.0, low=0, echo=False),
}


def cmd_hb(args, cfg: dict, s) -> int:
    if 0 < s.n_samples < 10:
        raise ConfigError(f"n_samples must be 0 or >= 10 for ESS, got {s.n_samples}")
    sim_seed, tangent_seed, slice_seed = np.random.SeedSequence(s.seed).spawn(3)
    spec, truth = simulate_hb(s.n_groups, s.n_coeffs, s.n_upper, np.random.default_rng(sim_seed),
                              group_size=s.group_size or None)

    # as for chain, the output directory is made only once both chains have
    # run and been summarized.  A slice width far off the posterior's scale
    # can exhaust the shrinks, overflowing the target on the way (the error
    # line says so, numpy does not), or leave the draws without variance
    traces = {}
    try:
        for name, seed in (("tangent", tangent_seed), ("slice", slice_seed)):
            hb_cfg = HbConfig(s.n_burnin, s.n_samples, beta_sampler=name,
                              slice_cfg=SliceConfig(width=s.width))
            with np.errstate(all="ignore"):
                traces[name] = hb_gibbs(spec, hb_cfg, np.random.default_rng(seed))
    except (NotPositiveDefinite, HessianNotNegativeDefinite, _NonFiniteNewtonMean, FloatingPointError,
            SliceError) as err:
        raise ConfigError(f"cannot run the {name} chain on the simulated data: {err}") from err

    J, K = spec.n_groups, spec.n_coeffs
    rows, lines = [], []
    body = {"truth_tau": truth["tau"].tolist()}
    if s.n_samples:
        mean, mcse, comparison = {}, {}, {}
        for name, tr in traces.items():
            mean[name] = tr.beta.mean(axis=0)
            sd = tr.beta.std(axis=0, ddof=1)
            # a coefficient without variance reads ESS 0 in coefficients.csv
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "degenerate series")
                ess = ess_per_dim(tr.beta.reshape(tr.n_samples, J * K)).reshape(J, K)
            mcse[name] = sd / np.sqrt(np.maximum(ess, 1e-12))
            ess_mean = float(np.mean(ess))
            if ess_mean == 0.0:
                raise ConfigError(f"the {name} chain's beta draws have no variance: effective sample size 0")
            evals = tr.meta["final_cost"]
            comparison[name] = {
                "ess_mean": ess_mean,
                "eval_counters": evals,
                "evals_per_independent_sample": sum(evals.values()) / ess_mean,
                "hessian_failures": tr.meta["hessian_failures"],
            }
            rows.extend(
                [name, j, k, mean[name][j, k], sd[j, k], mcse[name][j, k], ess[j, k],
                 truth["beta"][j, k]]
                for j in range(J)
                for k in range(K)
            )
            lines.append(f"hb[{name}]: {tr.n_samples} cycles in {tr.wall_time:.1f}s, "
                         f"time/independent sample {tr.wall_time / ess_mean:.3f}s")
        combo = np.sqrt(mcse["tangent"] ** 2 + mcse["slice"] ** 2)
        z = np.abs(mean["tangent"] - mean["slice"]) / combo
        lo = np.quantile(traces["tangent"].beta, 0.025, axis=0)
        hi = np.quantile(traces["tangent"].beta, 0.975, axis=0)
        body["coverage_95"] = float(np.mean((truth["beta"] >= lo) & (truth["beta"] <= hi)))
        body["max_mean_discrepancy_mcse"] = float(np.max(z))
        body["comparison"] = comparison
    out = _Output(args, cfg)
    out.csv("coefficients.csv", "hb-coefficients",
            ["sampler", "group", "coeff", "post_mean", "post_sd", "mcse", "ess", "true_beta"], rows)
    out.summary(body)
    print("\n".join(lines + [f"hb: outputs -> {out.dir}"]))
    return 0


# -------------------------------------------------------------- theorem

THEOREM_SETTINGS = {
    "seed": SEED,
    "n_instances": Key("count", 100, low=1, quick=20),
    "trials": Key("count", 10, low=0),
}


def cmd_theorem(args, cfg: dict, s) -> int:
    report = run_campaign(random_instances(s.n_instances, s.seed), trials=s.trials)
    # as for chain, the output directory is made only once the campaign is done
    out = _Output(args, cfg)
    report.write_jsonl(out.dir / "campaign.jsonl")
    summary = report.summary()
    out.summary(summary)
    print(
        f"theorem: {summary['n_certificates']} certificates, "
        f"{summary['n_witnesses']} witnesses, {summary['n_violations']} violations -> {out.dir}"
    )
    if not report.ok:
        print(f"REPRODUCER: {report.reproducer()}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------- mixing scan

MIXING_SETTINGS = {
    "seed": SEED,
    "obs": Key("count", 1, low=1),  # 0 gives all-zero counts, which have no mode
    "n_list": Key("count list", [1, 10, 100], low=1),
    "n_steps": Key("count", 30000, low=1, quick=3000),
    "n_burnin": Key("count", 200, low=0),
}


def cmd_mixing_scan(args, cfg: dict, s) -> int:
    chain_cfg = ChainConfig(n_burnin=s.n_burnin, n_samples=s.n_steps)
    rows = []
    for n_obs, child in zip(s.n_list, np.random.SeedSequence(s.seed).spawn(len(s.n_list))):
        target = replicated_poisson_target(s.obs, n_obs)
        eta0 = mixing_index(target)
        trace = run_chain(target, [target.mode()], chain_cfg, np.random.default_rng(child))
        rows.append([n_obs, eta0, trace.acceptance_rate(), trace.n_steps])
    # as for chain, the output directory is made only once the scan is done
    out = _Output(args, cfg)
    out.csv("mixing_scan.csv", "mixing-scan",
            ["n_obs", "mixing_index", "acceptance_rate", "n_steps"], rows)
    out.summary({"rows": [
        {"n_obs": r[0], "mixing_index": r[1], "acceptance_rate": r[2]} for r in rows
    ]})
    for r in rows:
        print(f"mixing-scan: N={r[0]:4d}  eta0={r[1]:.4f}  acceptance={r[2]:.4f}")
    print(f"mixing-scan: outputs -> {out.dir}")
    return 0


# ----------------------------------------------------------------- main

VERBS = {
    "chain": (cmd_chain, CHAIN_SETTINGS),
    "benchmark": (cmd_benchmark, BENCHMARK_SETTINGS),
    "hb": (cmd_hb, HB_SETTINGS),
    "theorem": (cmd_theorem, THEOREM_SETTINGS),
    "mixing-scan": (cmd_mixing_scan, MIXING_SETTINGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangentmh",
        description="Newton-tangent Metropolis-Hastings experiment runner",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", help="root RNG seed, an integer >= 0 (required here or in config)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--quick", action="store_true", help="reduced-size run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, table = VERBS[args.verb]
    try:
        return command(args, *_settings(args, table))
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        # a count within int64 can still ask for more memory than there is;
        # every verb allocates its arrays before it makes the output directory
        print(f"error: the run's arrays do not fit in memory: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
