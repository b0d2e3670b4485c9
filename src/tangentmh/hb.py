"""Hierarchical Bayesian logistic regression sampled by Gibbs cycles.

Model, per group j = 1..J and observation i in group j:

    y_i   ~ Bernoulli(logit^-1(x_i . beta_j))
    beta_jk ~ Normal(z_j . gamma_k, 1 / tau_k)      k = 1..K
    gamma_k ~ Normal(0, (1 / gamma_precision) I_L)
    tau_k  ~ Gamma(shape a, rate b)

Each cycle updates the beta_j blocks with the tangent-proposal kernel (or
the slice baseline), then gamma and tau by their exact conjugate draws.
The group conditionals are log-concave by construction (projection
likelihood plus Gaussian prior), so Hessian failures indicate a bug and
are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gibbs import BlockPartition, block_sweep
from .linalg import _cholesky_lowers, _upper_solve
from .slicer import SliceConfig, slice_sweep
from .targets import AdditiveTarget, EvalCost, GaussianPriorTarget, LogisticTarget, _built
from .trace import ChainConfig, _is_integer, run_sweeps

__all__ = [
    "HbModelSpec",
    "HbConfig",
    "HbTrace",
    "simulate_hb",
    "draw_upper_coeffs",
    "draw_precisions",
    "hb_gibbs",
]

# the simulated truth: every precision tau_k, and the scale of gamma's entries
TRUE_TAU = 4.0
GAMMA_SCALE = 0.5
# the bounds of the log-uniform group sizes
SIZE_RANGE = (100, 1000)


@dataclass(frozen=True)
class HbModelSpec:
    """Data and hyperparameters for the hierarchical model.

    ``designs[j]`` is the N_j x K design of group j with binary responses
    ``responses[j]``; ``upper_design`` is the J x L matrix of group-level
    covariates.  ``gamma_shape``/``gamma_rate`` parameterize the Gamma
    hyperprior on each precision tau_k, and ``gamma_precision`` is the
    (small, noninformative) Gaussian prior precision on gamma.
    """

    designs: tuple
    responses: tuple
    upper_design: np.ndarray
    gamma_shape: float = 0.001
    gamma_rate: float = 0.001
    gamma_precision: float = 1e-4

    def __post_init__(self):
        designs = tuple(np.asarray(X, dtype=float) for X in self.designs)
        responses = tuple(np.asarray(y, dtype=float) for y in self.responses)
        upper = np.asarray(self.upper_design, dtype=float)
        if len(designs) != len(responses) or len(designs) < 1:
            raise ValueError("need matching designs and responses, one per group")
        k = designs[0].shape[1]
        for X, y in zip(designs, responses):
            if X.shape[1] != k:
                raise ValueError("all groups must share the coefficient dimension")
            if y.shape != (X.shape[0],) or not np.all((y == 0) | (y == 1)):
                raise ValueError("responses must be binary, one per design row")
        if upper.shape[0] != len(designs) or upper.ndim != 2:
            raise ValueError("upper design needs one row per group")
        if upper.shape[1] < 1:
            raise ValueError("upper design needs at least one column")
        object.__setattr__(self, "designs", designs)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "upper_design", upper)
        object.__setattr__(self, "gamma_shape", float(self.gamma_shape))
        object.__setattr__(self, "gamma_rate", float(self.gamma_rate))
        object.__setattr__(self, "gamma_precision", float(self.gamma_precision))

    @property
    def n_groups(self) -> int:
        return len(self.designs)

    @property
    def n_coeffs(self) -> int:
        return self.designs[0].shape[1]

    @property
    def n_upper(self) -> int:
        return self.upper_design.shape[1]

    @property
    def group_sizes(self) -> tuple:
        return tuple(X.shape[0] for X in self.designs)


@dataclass(frozen=True)
class HbConfig(ChainConfig):
    """Cycle plan: the ``ChainConfig`` iteration plan in cycles (first half
    of the burn-in in Newton mode by default), block size for the
    coefficient updates, and the beta sampler choice."""

    n_burnin: int = 500
    n_samples: int = 500
    block_size: int = 5
    beta_sampler: str = "tangent"
    slice_cfg: SliceConfig = field(default_factory=SliceConfig)
    seed: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if not (_is_integer(self.block_size) and self.block_size >= 1):
            raise ValueError("block_size must be an integer >= 1")
        if self.beta_sampler not in ("tangent", "slice"):
            raise ValueError("beta_sampler must be 'tangent' or 'slice'")


@dataclass
class HbTrace:
    """Recorded Gibbs cycles: beta (n, J, K), gamma (n, K, L), tau (n, K)."""

    beta: np.ndarray
    gamma: np.ndarray
    tau: np.ndarray
    wall_time: float
    meta: dict

    @property
    def n_samples(self) -> int:
        return self.beta.shape[0]


def simulate_hb(
    n_groups: int,
    n_coeffs: int,
    n_upper: int,
    rng: np.random.Generator,
    group_size: int | None = None,
):
    """Draw a synthetic model instance; returns (spec, truth dict).

    Group sizes are log-uniform over ``SIZE_RANGE`` unless ``group_size``
    pins them, mimicking group counts that vary by orders of magnitude.
    """
    Z = np.column_stack(
        [np.ones(n_groups), rng.standard_normal((n_groups, n_upper - 1))]
    )
    gamma = rng.normal(0.0, GAMMA_SCALE, size=(n_coeffs, n_upper))
    sigma = 1.0 / np.sqrt(TRUE_TAU)
    beta = Z @ gamma.T + rng.normal(0.0, sigma, size=(n_groups, n_coeffs))

    designs = []
    responses = []
    for j in range(n_groups):
        if group_size is None:
            lo, hi = np.log(SIZE_RANGE[0]), np.log(SIZE_RANGE[1])
            n_j = int(np.exp(lo + (hi - lo) * rng.random()))
        else:
            n_j = group_size
        X = rng.standard_normal((n_j, n_coeffs)) / np.sqrt(n_coeffs)
        p = 1.0 / (1.0 + np.exp(-(X @ beta[j])))
        y = (rng.random(n_j) < p).astype(float)
        designs.append(X)
        responses.append(y)

    spec = HbModelSpec(designs, responses, Z)
    truth = {"beta": beta, "gamma": gamma, "tau": np.full(n_coeffs, TRUE_TAU)}
    return spec, truth


def draw_upper_coeffs(
    spec: HbModelSpec, beta: np.ndarray, tau: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Exact conjugate draw of gamma given beta and tau.

    For coefficient k the posterior is Gaussian with precision
    ``tau_k Z^T Z + gamma_precision I`` and mean solving that precision
    against ``tau_k Z^T beta[:, k]``.  The K precisions are factored as
    one ``(K, L, L)`` stack in one ``np.linalg.cholesky`` call, under
    ``cholesky``'s pivot rule (a failing precision raises its
    ``NotPositiveDefinite`` before any draw), every right-hand side comes
    from one stacked product and every normal from one ``(K, L)`` draw.
    Each result equals the per-coefficient factor, solve and
    ``standard_normal(L)`` draw bit for bit, and the generator ends in the
    same state.
    """
    Z = spec.upper_design
    precisions = tau[:, None, None] * (Z.T @ Z) + spec.gamma_precision * np.eye(spec.n_upper)
    lowers = _cholesky_lowers(precisions)
    # the K matrix-vector products Z^T beta[:, k] as one stacked call; the
    # matrix product Z^T beta sums differently at L = 1 or 4
    rhs = tau[:, None] * np.matmul(Z.T, beta.T[:, :, None])[:, :, 0]
    z = rng.standard_normal((spec.n_coeffs, spec.n_upper))
    gamma = np.empty((spec.n_coeffs, spec.n_upper))
    for k, lower in enumerate(lowers):
        upper = lower.T
        mean = _upper_solve(upper, _upper_solve(upper, rhs[k], 1), 0)
        gamma[k] = mean + _upper_solve(upper, z[k], 0)
    return gamma


def draw_precisions(
    spec: HbModelSpec, beta: np.ndarray, gamma: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Exact conjugate draw of tau given beta and gamma.

    tau_k ~ Gamma(a + J/2, rate b + 0.5 sum_j (beta_jk - z_j . gamma_k)^2).
    """
    resid = beta - spec.upper_design @ gamma.T
    shape = spec.gamma_shape + 0.5 * spec.n_groups
    rates = spec.gamma_rate + 0.5 * np.sum(resid**2, axis=0)
    return rng.gamma(shape, scale=1.0 / rates)


def hb_gibbs(
    spec: HbModelSpec, cfg: HbConfig, rng: np.random.Generator | None = None
) -> HbTrace:
    """Run the full Gibbs cycle: beta blocks, then gamma, then tau.

    The update order is fixed (group-major beta blocks, gamma, tau) for
    reproducibility; this is a valid systematic-scan Gibbs sampler.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    J, K, L = spec.n_groups, spec.n_coeffs, spec.n_upper
    partition = BlockPartition.contiguous(K, cfg.block_size)
    tangent = cfg.beta_sampler == "tangent"
    # the chain state packs beta (J*K), gamma (K*L) and tau (K)
    splits = [J * K, J * K + K * L]
    likelihoods = [LogisticTarget(X, y) for X, y in zip(spec.designs, spec.responses)]
    n_cycles = 0

    def cycle(x, newton=False):
        nonlocal n_cycles
        beta, gamma, tau = np.split(x, splits)
        beta = beta.reshape(J, K).copy()
        gamma = gamma.reshape(K, L)
        prior_means = spec.upper_design @ gamma.T
        # the groups' priors differ only in mean: diag(tau) is validated once
        # per cycle, by the first group's constructor, and is restricted to
        # a block without factoring
        first = GaussianPriorTarget(prior_means[0], np.diag(tau))
        cost = EvalCost()
        n_accepted = failures = 0
        for j in range(J):
            prior = _built(
                GaussianPriorTarget, _mean=prior_means[j], _precision=first._precision, _diagonal=first._diagonal
            )
            target = AdditiveTarget([likelihoods[j], prior])
            if tangent:
                outcome = block_sweep(target, partition, beta[j], rng, newton=newton)
            else:
                outcome = slice_sweep(target, beta[j], cfg.slice_cfg, rng)
            beta[j], accepted, used, failed = outcome
            n_accepted += accepted
            failures += failed
            cost = cost + used
        gamma = draw_upper_coeffs(spec, beta, tau, rng)
        tau = draw_precisions(spec, beta, gamma, rng)
        if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(tau))):
            raise FloatingPointError(f"non-finite conjugate draw at cycle {n_cycles}")
        n_cycles += 1
        x = np.concatenate([beta.ravel(), gamma.ravel(), tau])
        return x, n_accepted if tangent else 1, cost, failures

    x0 = np.concatenate([np.zeros(J * K + K * L), np.ones(K)])
    tr = run_sweeps(cycle, x0, cfg, J * partition.n_blocks if tangent else None)
    n = tr.n_steps
    beta, gamma, tau = np.split(tr.samples, splits, axis=1)
    return HbTrace(
        beta.reshape(n, J, K).copy(), gamma.reshape(n, K, L).copy(), tau.copy(), tr.wall_time, tr.meta
    )
