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
flags override config-file keys.  Randomness flows from the single
``--seed`` through named child streams (one per chain or replicate) of a
``numpy`` SeedSequence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import DEFAULT_WIDTHS, run_benchmark
from .concavity import random_instances, run_campaign
from .diagnostics import ModeFindingError, effective_size, ess_per_dim, mixing_index
from .gibbs import BlockPartition, run_block_chain
from .hb import HbConfig, hb_gibbs, simulate_hb
from .linalg import NotPositiveDefinite
from .slicer import SliceConfig, SliceError, slice_gibbs_chain
from .tangent import ChainConfig, HessianNotNegativeDefinite, _NonFiniteNewtonMean, run_chain
from .targets import (
    gaussian_prior,
    logistic_target,
    poisson_lograte_target,
    replicated_poisson_target,
)

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
        out[key] = _parse_value(value)
    return out


def _parse_value(value: str):
    if "," in value:
        return [_parse_scalar(v.strip()) for v in value.split(",") if v.strip()]
    return _parse_scalar(value)


def _parse_scalar(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


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
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


def read_csv_checked(path, schema: str):
    """Read one of our CSVs, refusing on schema mismatch."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != f"# schema: {schema}":
            raise ConfigError(f"{path}: schema mismatch: {first!r} != {schema!r}")
        for line in fh:
            if not line.startswith("#"):
                rows = [next(csv.reader([line]))]
                rows.extend(csv.reader(fh))
                return rows
        return []


def write_summary(path: Path, verb: str, cfg: dict, run_hash: str, body: dict) -> None:
    doc = {
        "schema": _schema(f"{verb}-summary"),
        "version": __version__,
        "verb": verb,
        "seed": cfg.get("seed"),
        "config": cfg,
        "content_hash": run_hash,
    }
    doc.update(body)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


def _merge_config(args, defaults: dict, allowed: set) -> dict:
    cfg = dict(defaults)
    if args.config:
        parsed = parse_config_text(Path(args.config).read_text(), args.config)
        for lineno_key in parsed:
            if lineno_key not in allowed:
                raise ConfigError(
                    f"{args.config}: unknown key {lineno_key!r} for this verb"
                )
        cfg.update(parsed)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if cfg.get("seed") is None:
        raise ConfigError("a seed is required (--seed or 'seed =' in the config)")
    cfg["seed"] = int(cfg["seed"])
    cfg["quick"] = bool(args.quick)
    return cfg


def _require_counts(cfg: dict, **lows) -> None:
    """Refuse ``cfg[key]`` (each entry of a list) unless it is an integer
    of at least ``lows[key]``."""
    for key, low in lows.items():
        for value in _as_list(cfg[key]):
            try:
                ok = int(value) == value and value >= low
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")


def _outdir(args, verb: str) -> Path:
    out = Path(args.out) if args.out else Path("tangentmh-out") / verb
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_target(cfg: dict):
    name = cfg["target"]
    data_files = []
    try:
        if name == "poisson":
            counts = _as_list(cfg.get("counts", [2]))
            target = poisson_lograte_target(np.asarray(counts, dtype=int))
        elif name == "replicated-poisson":
            target = replicated_poisson_target(int(cfg.get("obs", 1)), int(cfg.get("n_obs", 1)))
        elif name == "gaussian":
            dim = int(cfg.get("dim", 2))
            prec = float(cfg.get("precision", 1.0))
            target = gaussian_prior(np.zeros(dim), prec * np.eye(dim))
        elif name == "logistic":
            path = cfg.get("data")
            if not path:
                raise ConfigError("logistic target needs 'data = <csv file>'")
            X, y = _load_logistic_csv(path)
            target = logistic_target(X, y)
            data_files.append(path)
        else:
            raise ConfigError(f"unknown target {name!r}")
    except (ValueError, NotPositiveDefinite) as err:
        raise ConfigError(f"target {name!r}: {err}") from err
    if name in ("poisson", "replicated-poisson") and target.total_count == 0:
        raise ConfigError("poisson counts are all zero: the posterior is improper")
    return target, data_files


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

CHAIN_KEYS = {
    "seed", "target", "counts", "obs", "n_obs", "dim", "precision", "data",
    "x0", "n_burnin", "n_samples", "n_newton", "sampler", "width", "max_stepout",
}

CHAIN_DEFAULTS = {
    "target": "poisson",
    "x0": 0.0,
    "n_burnin": 500,
    "n_samples": 2000,
    "sampler": "tangent",
}


def cmd_chain(args) -> int:
    cfg = _merge_config(args, CHAIN_DEFAULTS, CHAIN_KEYS)
    if cfg["quick"]:
        cfg["n_burnin"], cfg["n_samples"] = 50, 200
    if cfg["sampler"] not in ("tangent", "slice"):
        raise ConfigError(f"unknown sampler {cfg['sampler']!r}")
    target, data_files = _build_target(cfg)
    try:
        x0 = np.full(target.dim, float(cfg["x0"])) if np.isscalar(cfg["x0"]) else np.asarray(cfg["x0"], dtype=float)
        # the iteration plan is validated for either sampler
        chain_cfg = ChainConfig(
            n_burnin=int(cfg["n_burnin"]),
            n_samples=int(cfg["n_samples"]),
            n_newton=int(cfg["n_newton"]) if "n_newton" in cfg else None,
        )
        slice_cfg = SliceConfig(
            width=float(cfg.get("width", 1.0)), max_stepout=int(cfg.get("max_stepout", 10))
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if x0.shape != (target.dim,):
        raise ConfigError(f"x0 has {x0.size} entries; the target has dimension {target.dim}")
    if not np.isfinite(x0).all():
        raise ConfigError(f"x0 must be finite, got {cfg['x0']!r}")
    run_hash = content_hash(cfg, data_files)

    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    # the output directory is made only once the chain has run: a start
    # point the chain cannot leave (e.g. no tangent fit there, or a Newton
    # burn-in that diverges) leaves nothing behind
    mixing = None
    try:
        if cfg["sampler"] == "tangent":
            trace = run_chain(target, x0, chain_cfg, rng)
        else:
            trace = slice_gibbs_chain(
                target, x0, chain_cfg.n_burnin, chain_cfg.n_samples, slice_cfg, rng
            )
        if target.dim == 1 and hasattr(target, "third_derivative"):
            mixing = mixing_index(target, x0=float(x0[0]))
    except (HessianNotNegativeDefinite, _NonFiniteNewtonMean, SliceError, ModeFindingError) as err:
        raise ConfigError(f"cannot run from x0 = {cfg['x0']!r}: {err}") from err
    out = _outdir(args, "chain")

    dim = trace.dim
    write_csv(
        out / "samples.csv",
        _schema("samples"),
        cfg,
        run_hash,
        ["step"] + [f"x{j}" for j in range(dim)],
        ([i] + list(trace.samples[i]) for i in range(trace.n_steps)),
    )
    write_csv(
        out / "steps.csv",
        _schema("steps"),
        cfg,
        run_hash,
        ["step", "accepted", "n_value", "n_gradient", "n_hessian"],
        (
            [i, trace.accepted[i], trace.n_value[i], trace.n_gradient[i], trace.n_hessian[i]]
            for i in range(trace.n_steps)
        ),
    )

    body = {
        "acceptance_rate": trace.acceptance_rate() if trace.n_steps else None,
        "ess_per_dim": ess_per_dim(trace.samples).tolist() if trace.n_steps >= 10 else None,
        "eval_counters": trace.total_cost(),
        "evals_per_step": (
            {k: v / trace.n_steps for k, v in trace.total_cost().items()}
            if trace.n_steps
            else None
        ),
        "n_samples": trace.n_steps,
        "hessian_failures": trace.meta.get("hessian_failures", 0),
    }
    if mixing is not None:
        body["mixing_index"] = mixing
    write_summary(out / "summary.json", "chain", cfg, run_hash, body)
    print(f"chain: {trace.n_steps} samples in {trace.wall_time:.2f}s -> {out}")
    return 0


# ------------------------------------------------------------ benchmark

BENCH_KEYS = {
    "seed", "n_runs", "n_obs", "n_coeffs", "n_burnin", "n_samples",
    "block_size", "widths",
}

BENCH_DEFAULTS = {
    "n_runs": 10,
    "n_obs": 1000,
    "n_coeffs": 10,
    "n_burnin": 200,
    "n_samples": 500,
    "block_size": 5,
}


def cmd_benchmark(args) -> int:
    cfg = _merge_config(args, BENCH_DEFAULTS, BENCH_KEYS)
    if cfg["quick"]:
        cfg["n_runs"], cfg["n_samples"], cfg["n_burnin"] = 1, 200, 100
    # ESS needs 10 samples; the design needs at least as many rows as columns
    _require_counts(cfg, n_runs=1, n_coeffs=1, n_burnin=0, n_samples=10, block_size=1)
    _require_counts(cfg, n_obs=int(cfg["n_coeffs"]))
    widths = tuple(_as_list(cfg.get("widths", list(DEFAULT_WIDTHS))))
    if not widths or not all(isinstance(w, (int, float)) and 0 < w < np.inf for w in widths):
        raise ConfigError(f"widths must be finite and positive, got {widths}")
    out = _outdir(args, "benchmark")
    run_hash = content_hash(cfg)

    res = run_benchmark(
        seed=cfg["seed"],
        n_runs=int(cfg["n_runs"]),
        n_obs=int(cfg["n_obs"]),
        n_coeffs=int(cfg["n_coeffs"]),
        n_burnin=int(cfg["n_burnin"]),
        n_samples=int(cfg["n_samples"]),
        block_size=int(cfg["block_size"]),
        widths=widths,
    )

    table = res.table()
    write_csv(
        out / "table.csv",
        _schema("benchmark-table"),
        cfg,
        run_hash,
        ["figure", "tangent-mh", "slice"],
        (
            [row, table["tangent-mh"][row], table["slice"][row]]
            for row in ("evals_per_nominal", "effective_rate", "evals_per_effective")
        ),
    )
    per_run_rows = []
    for name, runs in (("tangent-mh", res.tangent_runs), ("slice", res.slice_runs)):
        for i, r in enumerate(runs):
            per_run_rows.append(
                [name, i, r.ess_mean, r.acceptance_rate, r.n_value, r.n_gradient,
                 r.n_hessian, r.evals_per_nominal, r.effective_rate, r.evals_per_effective]
            )
    write_csv(
        out / "runs.csv",
        _schema("benchmark-runs"),
        cfg,
        run_hash,
        ["sampler", "run", "ess_mean", "acceptance_rate", "n_value", "n_gradient",
         "n_hessian", "evals_per_nominal", "effective_rate", "evals_per_effective"],
        per_run_rows,
    )
    write_summary(
        out / "summary.json",
        "benchmark",
        cfg,
        run_hash,
        {
            "table": table,
            "slice_width": res.slice_width,
            "slice_tuning_sweep": res.tuning,
            "counter_ratio_per_effective": (
                table["slice"]["evals_per_effective"]
                / table["tangent-mh"]["evals_per_effective"]
            ),
        },
    )
    # wall-clock figures are machine-dependent: console only
    wt = np.mean([r.wall_fee_per_effective for r in res.tangent_runs])
    ws = np.mean([r.wall_fee_per_effective for r in res.slice_runs])
    print(f"benchmark: tuned slice width {res.slice_width}")
    print(f"  wall-clock FEE/effective: tangent-mh {wt:.1f}  slice {ws:.1f}  ratio {ws / wt:.2f}x")
    print(f"  counter evals/effective:  tangent-mh "
          f"{table['tangent-mh']['evals_per_effective']:.1f}  slice "
          f"{table['slice']['evals_per_effective']:.1f}")
    print(f"  outputs -> {out}")
    return 0


# ------------------------------------------------------------------- hb

HB_KEYS = {
    "seed", "n_groups", "n_coeffs", "n_upper", "group_size", "n_burnin",
    "n_samples", "block_size", "width",
}

HB_DEFAULTS = {
    "n_groups": 5,
    "n_coeffs": 10,
    "n_upper": 2,
    "group_size": 400,
    "n_burnin": 500,
    "n_samples": 500,
    "block_size": 5,
}


def cmd_hb(args) -> int:
    cfg = _merge_config(args, HB_DEFAULTS, HB_KEYS)
    if cfg["quick"]:
        cfg["n_burnin"], cfg["n_samples"], cfg["group_size"] = 100, 100, 150
    _require_counts(
        cfg, n_groups=1, n_coeffs=1, n_upper=1, group_size=0, n_burnin=0, n_samples=0, block_size=1
    )
    if 0 < cfg["n_samples"] < 10:
        raise ConfigError(f"n_samples must be 0 or >= 10 for ESS, got {cfg['n_samples']}")
    try:
        hb_cfgs = {
            name: HbConfig(
                n_burnin=int(cfg["n_burnin"]),
                n_samples=int(cfg["n_samples"]),
                block_size=int(cfg["block_size"]),
                beta_sampler=name,
                slice_cfg=SliceConfig(width=float(cfg.get("width", 1.0))),
            )
            for name in ("tangent", "slice")
        }
    except ValueError as err:
        raise ConfigError(str(err)) from err
    out = _outdir(args, "hb")
    run_hash = content_hash(cfg)

    root = np.random.SeedSequence(cfg["seed"])
    sim_seed, tangent_seed, slice_seed = root.spawn(3)
    spec, truth = simulate_hb(
        int(cfg["n_groups"]),
        int(cfg["n_coeffs"]),
        int(cfg["n_upper"]),
        np.random.default_rng(sim_seed),
        group_size=int(cfg["group_size"]) if cfg.get("group_size") else None,
    )

    traces = {}
    for name, seed in (("tangent", tangent_seed), ("slice", slice_seed)):
        traces[name] = hb_gibbs(spec, hb_cfgs[name], np.random.default_rng(seed))

    J, K = spec.n_groups, spec.n_coeffs
    rows = []
    summary_stats = {}
    for name, tr in traces.items():
        n = tr.n_samples
        if n == 0:
            summary_stats[name] = {"n_samples": 0}
            continue
        mean = tr.beta.mean(axis=0)
        sd = tr.beta.std(axis=0, ddof=1)
        ess = np.array(
            [[effective_size(tr.beta[:, j, k]) for k in range(K)] for j in range(J)]
        )
        mcse = sd / np.sqrt(np.maximum(ess, 1e-12))
        evals = tr.meta["final_cost"]
        total_evals = sum(evals.values())
        summary_stats[name] = {
            "n_samples": n,
            "beta_mean": mean,
            "beta_sd": sd,
            "beta_mcse": mcse,
            "ess_mean": float(np.mean(ess)),
            "eval_counters": evals,
            "evals_per_independent_sample": total_evals / float(np.mean(ess)),
            "hessian_failures": tr.meta.get("hessian_failures", 0),
        }
        for j in range(J):
            for k in range(K):
                rows.append(
                    [name, j, k, mean[j, k], sd[j, k], mcse[j, k], ess[j, k],
                     truth["beta"][j, k]]
                )

    write_csv(
        out / "coefficients.csv",
        _schema("hb-coefficients"),
        cfg,
        run_hash,
        ["sampler", "group", "coeff", "post_mean", "post_sd", "mcse", "ess", "true_beta"],
        rows,
    )

    body = {"truth_tau": truth["tau"].tolist()}
    if all(s.get("n_samples", 0) for s in summary_stats.values()):
        mt, ms = summary_stats["tangent"], summary_stats["slice"]
        combo = np.sqrt(mt["beta_mcse"] ** 2 + ms["beta_mcse"] ** 2)
        z = np.abs(mt["beta_mean"] - ms["beta_mean"]) / combo
        lo = np.quantile(traces["tangent"].beta, 0.025, axis=0)
        hi = np.quantile(traces["tangent"].beta, 0.975, axis=0)
        body["coverage_95"] = float(np.mean((truth["beta"] >= lo) & (truth["beta"] <= hi)))
        body["max_mean_discrepancy_mcse"] = float(np.max(z))
        body["comparison"] = {
            name: {
                "ess_mean": s["ess_mean"],
                "eval_counters": s["eval_counters"],
                "evals_per_independent_sample": s["evals_per_independent_sample"],
                "hessian_failures": s["hessian_failures"],
            }
            for name, s in summary_stats.items()
        }
        for name, tr in traces.items():
            print(
                f"hb[{name}]: {tr.n_samples} cycles in {tr.wall_time:.1f}s, "
                f"time/independent sample {tr.wall_time / summary_stats[name]['ess_mean']:.3f}s"
            )
    write_summary(out / "summary.json", "hb", cfg, run_hash, body)
    print(f"hb: outputs -> {out}")
    return 0


# -------------------------------------------------------------- theorem

THEOREM_KEYS = {"seed", "n_instances", "trials"}
THEOREM_DEFAULTS = {"n_instances": 100, "trials": 10}


def cmd_theorem(args) -> int:
    cfg = _merge_config(args, THEOREM_DEFAULTS, THEOREM_KEYS)
    if cfg["quick"]:
        cfg["n_instances"] = 20
    _require_counts(cfg, n_instances=1, trials=0)
    out = _outdir(args, "theorem")
    run_hash = content_hash(cfg)

    instances = random_instances(int(cfg["n_instances"]), cfg["seed"])
    report = run_campaign(instances, trials=int(cfg["trials"]))
    report.write_jsonl(out / "campaign.jsonl")
    write_summary(out / "summary.json", "theorem", cfg, run_hash, report.summary())
    summary = report.summary()
    print(
        f"theorem: {summary['n_certificates']} certificates, "
        f"{summary['n_witnesses']} witnesses, {summary['n_violations']} violations -> {out}"
    )
    if not report.ok:
        print(f"REPRODUCER: {report.reproducer()}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------- mixing scan

MIXING_KEYS = {"seed", "obs", "n_list", "n_steps", "n_burnin"}
MIXING_DEFAULTS = {"obs": 1, "n_list": [1, 10, 100], "n_steps": 30000, "n_burnin": 200}


def cmd_mixing_scan(args) -> int:
    cfg = _merge_config(args, MIXING_DEFAULTS, MIXING_KEYS)
    if cfg["quick"]:
        cfg["n_steps"] = 3000
    # obs = 0 gives all-zero counts, which have no mode
    _require_counts(cfg, obs=1, n_list=1, n_steps=1, n_burnin=0)
    chain_cfg = ChainConfig(n_burnin=int(cfg["n_burnin"]), n_samples=int(cfg["n_steps"]))
    out = _outdir(args, "mixing-scan")
    run_hash = content_hash(cfg)

    root = np.random.SeedSequence(cfg["seed"])
    n_list = [int(v) for v in _as_list(cfg["n_list"])]
    rows = []
    for n_obs, child in zip(n_list, root.spawn(len(n_list))):
        target = replicated_poisson_target(int(cfg["obs"]), n_obs)
        eta0 = mixing_index(target)
        trace = run_chain(target, [target.mode()], chain_cfg, np.random.default_rng(child))
        rows.append([n_obs, eta0, trace.acceptance_rate(), trace.n_steps])

    write_csv(
        out / "mixing_scan.csv",
        _schema("mixing-scan"),
        cfg,
        run_hash,
        ["n_obs", "mixing_index", "acceptance_rate", "n_steps"],
        rows,
    )
    write_summary(
        out / "summary.json",
        "mixing-scan",
        cfg,
        run_hash,
        {
            "rows": [
                {"n_obs": r[0], "mixing_index": r[1], "acceptance_rate": r[2]}
                for r in rows
            ]
        },
    )
    for r in rows:
        print(f"mixing-scan: N={r[0]:4d}  eta0={r[1]:.4f}  acceptance={r[2]:.4f}")
    print(f"mixing-scan: outputs -> {out}")
    return 0


# ----------------------------------------------------------------- main

VERBS = {
    "chain": cmd_chain,
    "benchmark": cmd_benchmark,
    "hb": cmd_hb,
    "theorem": cmd_theorem,
    "mixing-scan": cmd_mixing_scan,
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
        p.add_argument("--seed", type=int, help="root RNG seed (required here or in config)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--quick", action="store_true", help="reduced-size run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return VERBS[args.verb](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
