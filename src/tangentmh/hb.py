"""Hierarchical Bayesian logistic regression sampled by Gibbs cycles.

Model, per group j = 1..J and observation i in group j:

    y_i   ~ Bernoulli(logit^-1(x_i . beta_j))
    beta_jk ~ Normal(z_j . gamma_k, 1 / tau_k)      k = 1..K
    gamma_k ~ Normal(0, (1 / gamma_precision) I_L)
    tau_k  ~ Gamma(shape a, rate b)

Each cycle (``hb_cycle``) updates the beta_j, then gamma and tau by their
exact conjugate draws.  Given gamma and tau the beta_j are conditionally
independent, so the tangent kernel steps all J groups together: for each
coefficient block in turn, one ``tangent_step`` on the ``(J, m)`` stack
of the groups' block coefficients, whose conditionals are evaluated in
``(J, N, m)`` form.  The likelihood does not depend on gamma and tau,
so what a cycle knows of it at its final beta is carried to the next:
each group's value, and with one block over all K coefficients (the
default) its gradient and Hessian too.  An MH cycle in one block then
evaluates the likelihood only at the proposals, as ``run_chain`` carries
its fitted record.  The slice baseline updates each group's
coefficients in turn.  The group conditionals are log-concave by
construction (projection likelihood plus Gaussian prior), so Hessian
failures indicate a bug and are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit

from .gibbs import BlockPartition
from .linalg import NotPositiveDefinite, _cholesky_lowers, _upper_solve
from .slicer import SliceConfig, slice_sweep
from .tangent import build_proposal, tangent_step
from .targets import (
    AdditiveTarget,
    DifferentiableTarget,
    EvalCost,
    EvalResult,
    GaussianPriorTarget,
    LogisticTarget,
    _built,
)
from .trace import ChainConfig, _is_integer, run_sweeps

__all__ = [
    "HbModelSpec",
    "HbConfig",
    "HbState",
    "HbTrace",
    "simulate_hb",
    "draw_upper_coeffs",
    "draw_precisions",
    "hb_cycle",
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

    @cached_property
    def _stacked(self) -> "_StackedGroups":
        """The groups' data as the tangent path evaluates it."""
        return _StackedGroups(self)

    @cached_property
    def _likelihoods(self) -> tuple:
        """Each group's ``LogisticTarget``, as the slice path evaluates it."""
        return tuple(LogisticTarget(X, y) for X, y in zip(self.designs, self.responses))


class _StackedGroups:
    """The J groups' data padded to the largest group N: the transposed
    designs ``xt`` (J, K, N), whose padding columns are zero, and the
    responses (J, N), zero in the padding.  A padding row has ``t = 0``,
    so it adds nothing to a gradient or a Hessian; its value term is
    masked by a zero weight.  At W3's shape with log-uniform group sizes
    (three data seeds, single-thread BLAS), one padded block evaluation
    took 0.30-0.44x the time of the same evaluation over concatenated rows
    summed per group by ``np.add.reduceat``.

    A block's columns ``x_bt`` are the view ``xt[:, block]`` (J, m, N).
    ``likelihood`` gives each group's log-likelihood and ``sigma(t)`` at
    ``t = X_b b + offset``, in ``LogisticTarget``'s stable row form."""

    def __init__(self, spec: HbModelSpec):
        sizes = np.array(spec.group_sizes)
        n = int(sizes.max())
        self.xt = np.zeros((spec.n_groups, spec.n_coeffs, n))
        self.y = np.zeros((spec.n_groups, n))
        for j, (X, y) in enumerate(zip(spec.designs, spec.responses)):
            self.xt[j, :, : sizes[j]] = X.T
            self.y[j, : sizes[j]] = y
        self._not_y = 1.0 - self.y
        self._weight = None
        if np.any(sizes < n):
            self._weight = (np.arange(n) < sizes[:, None]).astype(float)

    def likelihood(self, x_bt: np.ndarray, b: np.ndarray, offset: np.ndarray) -> tuple:
        t = np.matmul(b[:, None, :], x_bt)[:, 0]
        t += offset
        e = np.abs(t)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.log1p(e, out=e)
        u = np.multiply(self._not_y, t)
        e += u
        e -= np.minimum(t, 0.0, out=u)
        if self._weight is not None:
            e *= self._weight
        return -e.sum(axis=1), expit(t)


class _BlockLikelihoods(DifferentiableTarget):
    """The J groups' log-likelihoods as one stacked target (see
    ``tangent_step``) on a block's ``(J, m)`` coefficients, the other
    coefficients' predictor ``offset`` (J, N) held fixed.

    ``known`` is what is known of each group's likelihood at the stack
    ``at``, or None: ``(log-likelihood, sigma(t))``, optionally followed by
    the gradients (J, m) and Hessians (J, m, m).  An evaluation at that
    very array reuses what it holds, counting none of it, and what it
    computes there fills ``known`` in.  ``last`` is the same four-tuple at
    the last stack evaluated."""

    def __init__(self, groups: _StackedGroups, block: slice, offset: np.ndarray, at: np.ndarray, known):
        self._groups = groups
        self._x_bt = groups.xt[:, block]
        self._offset = offset
        self._at = at
        self.known = known
        self.last = None

    @property
    def dim(self) -> int:
        return self._x_bt.shape[1]

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        n_groups = x.shape[0]
        reused = x is self._at and self.known is not None
        if reused:
            values, p, *derivatives = self.known
            grads, hessians = derivatives or (None, None)
        else:
            values, p = self._groups.likelihood(self._x_bt, x, self._offset)
            grads = hessians = None
        n_gradient = n_hessian = 0
        if gradient and grads is None:
            grads = np.matmul(self._x_bt, (self._groups.y - p)[:, :, None])[:, :, 0]
            n_gradient = n_groups
        if hessian and hessians is None:
            w = 1.0 - p
            w *= p
            np.negative(w, out=w)
            hessians = np.matmul(self._x_bt * w[:, None, :], self._x_bt.transpose(0, 2, 1))
            n_hessian = n_groups
        self.last = (values, p, grads, hessians)
        if x is self._at:
            self.known = self.last
        cost = EvalCost(0 if reused else n_groups, n_gradient, n_hessian)
        # a copy: AdditiveTarget adds into its first part's value
        return EvalResult(values.copy(), grads if gradient else None, hessians if hessian else None, cost)


class _BlockPriors(DifferentiableTarget):
    """The J groups' diagonal Gaussian priors on a block's ``(J, m)``
    coefficients as one stacked target: means ``mean`` (J, m) and the
    shared precisions ``tau`` (m,)."""

    def __init__(self, mean: np.ndarray, tau: np.ndarray):
        self._mean = mean
        self._tau = tau
        # the Hessian, the same at every point: -diag(tau) per group
        n_groups, m = mean.shape
        self._hessian = np.full((n_groups, m, m), -0.0)
        self._hessian.reshape(n_groups, m * m)[:, :: m + 1] = -tau

    @property
    def dim(self) -> int:
        return self._tau.shape[0]

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        d = x - self._mean
        pd = self._tau * d
        grad = -pd if gradient else None
        hess = self._hessian if hessian else None
        n_groups = x.shape[0]
        cost = EvalCost(n_groups, n_groups * gradient, n_groups * hessian)
        return EvalResult(-0.5 * np.einsum("ij,ij->i", d, pd), grad, hess, cost)


@dataclass(frozen=True)
class HbConfig(ChainConfig):
    """Cycle plan: the ``ChainConfig`` iteration plan in cycles (first half
    of the burn-in in Newton mode by default), block size for the
    coefficient updates, and the beta sampler choice.  With ``"tangent"``
    every cycle takes one stacked tangent step over the J groups per
    block; with ``"slice"`` each group's coefficients take one slice sweep
    in turn.

    The default block size, 10, is one block at the hierarchical demo's
    K = 10, chosen on non-acceptance seeds: carrying the likelihood's
    gradient and Hessian across cycles, it needed about half the tangent
    evaluations per effective sample of blocks of 5, and mostly less time
    per effective sample; blocks of 2 and of 1 needed more of both."""

    n_burnin: int = 500
    n_samples: int = 500
    block_size: int = 10
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


@dataclass(frozen=True, eq=False)
class HbState:
    """A state of the Gibbs chain: beta (J, K), gamma (K, L) and tau (K).

    ``hb_cycle`` never writes a state's arrays.  A state it returns from an
    MH cycle also carries, for the spec it stepped, each group's
    log-likelihood and ``sigma(t)`` at beta, so that the next cycle's first
    block need not evaluate the likelihood's value again.  When that cycle
    stepped one block over all K coefficients, the state also carries each
    group's likelihood gradient (J, K) and Hessian (J, K, K) at beta, and
    a next cycle in one block evaluates only the prior at its current
    point.  Each carried array is the one a fresh evaluation at beta
    computes, so the carry changes the counters, never the samples.  A
    state built by hand (or by ``dataclasses.replace``) carries none.
    """

    beta: np.ndarray
    gamma: np.ndarray
    tau: np.ndarray
    _carry: tuple | None = field(default=None, init=False, repr=False)


def _tangent_betas(spec, block_size, beta, prior_means, tau, carry, rng, newton):
    """One stacked ``tangent_step`` (or Newton move) per block over all J
    groups, in block order; ``beta`` is updated in place.  Each block's
    target is the ``AdditiveTarget`` of the groups' likelihoods and
    priors.

    ``carry`` is what is known of each group's likelihood at ``beta``, or
    None when ``beta`` has not been evaluated: its value and ``sigma(t)``,
    and, when one block covers all coefficients, its gradient and Hessian.
    Only what is not known is evaluated and counted.  Returns the sweep
    outcome and the carry at the new ``beta``, None after a Newton move."""
    groups = spec._stacked
    n_groups, n_coeffs = beta.shape
    # a block's derivatives are the next cycle's only when it is the only block
    kept = 4 if block_size >= n_coeffs else 2
    if carry is not None:
        carry = carry[:kept]
    n_accepted = failures = 0
    cost = EvalCost()
    for start in range(0, n_coeffs, block_size):
        block = slice(start, start + block_size)
        # the rest's predictor X_c x_c, from the block's coefficients zeroed
        rest = beta.copy()
        rest[:, block] = 0.0
        offset = np.matmul(rest[:, None, :], groups.xt)[:, 0]
        b = beta[:, block]
        likelihood = _BlockLikelihoods(groups, block, offset, b, carry)
        target = AdditiveTarget([likelihood, _BlockPriors(prior_means[:, block], tau[block])])
        if newton:
            fit = build_proposal(target, b)
            beta[:, block] = fit.mean
            cost = cost + fit.cost
            carry = None
            n_accepted += n_groups
            continue
        beta[:, block], record, _ = tangent_step(target, b, None, rng)
        accepted = record.accepted
        # each group's proposal where it accepted, its current point elsewhere
        carry = tuple(
            np.where(accepted.reshape((-1,) + (1,) * (new.ndim - 1)), new, old)
            for new, old in zip(likelihood.last[:kept], likelihood.known[:kept])
        )
        cost = cost + record.cost
        n_accepted += int(accepted.sum())
        failures += int(record.hessian_failure.sum())
    return n_accepted, cost, failures, carry


def hb_cycle(
    spec: HbModelSpec, cfg: HbConfig, state: HbState, rng: np.random.Generator, *, newton: bool = False
):
    """One Gibbs cycle from ``state``: the beta_j, then gamma, then tau.

    Returns ``(state, n_accepted, cost, hessian_failures)``, with
    ``n_accepted`` the accepted group blocks on the tangent path (J per
    block in Newton mode) and 1 on the slice path.  The tau of ``state``
    must be finite and positive, which makes ``diag(tau)`` a valid prior
    precision; otherwise ``NotPositiveDefinite`` names the first bad
    coordinate.

    On the tangent path each coefficient block takes one ``tangent_step``
    on the stack of the J groups' block coefficients (``newton=True``: the
    Newton move, which draws nothing).  Each group's likelihood value at
    its current point is evaluated only when that point has not been
    evaluated: after a Newton move and at a state that carries none.  On
    two or more blocks the counters therefore equal those of one
    ``block_sweep`` per group, whose conditionals share their linear
    predictor.  In one block the likelihood's gradient and Hessian at the
    current point come from the state's carry too, so an MH cycle from a
    carrying state counts 3J of each kind: J for the priors at the current
    points and 2J for the likelihoods and priors at the proposals.
    """
    bad = np.flatnonzero(~(np.isfinite(state.tau) & (state.tau > 0.0)))
    if bad.size:
        k = int(bad[0])
        raise NotPositiveDefinite(k, f"prior precision tau[{k}] = {state.tau[k]} is not finite and positive")
    tau = state.tau
    beta = state.beta.copy()
    prior_means = spec.upper_design @ state.gamma.T
    carry = None
    if cfg.beta_sampler == "tangent":
        if state._carry is not None and state._carry[0] is spec:
            carry = state._carry[1]
        n_accepted, cost, failures, carry = _tangent_betas(
            spec, cfg.block_size, beta, prior_means, tau, carry, rng, newton
        )
    else:
        # the priors differ only in mean; each slice sweep evaluates only values
        precision = np.diag(tau)
        n_accepted, cost, failures = 1, EvalCost(), 0
        for j, likelihood in enumerate(spec._likelihoods):
            prior = _built(GaussianPriorTarget, _mean=prior_means[j], _precision=precision, _diagonal=True)
            beta[j], _, used, _ = slice_sweep(AdditiveTarget([likelihood, prior]), beta[j], cfg.slice_cfg, rng)
            cost = cost + used
    gamma = draw_upper_coeffs(spec, beta, tau, rng)
    tau = draw_precisions(spec, beta, gamma, rng)
    if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(tau))):
        raise FloatingPointError("non-finite conjugate draw")
    new = HbState(beta, gamma, tau)
    if carry is not None:
        object.__setattr__(new, "_carry", (spec, carry))
    return new, n_accepted, cost, failures


def hb_gibbs(
    spec: HbModelSpec, cfg: HbConfig, rng: np.random.Generator | None = None
) -> HbTrace:
    """Run ``hb_cycle`` from beta = 0, gamma = 0, tau = 1.

    The update order is fixed (beta blocks, gamma, tau) for
    reproducibility; this is a valid systematic-scan Gibbs sampler.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    J, K, L = spec.n_groups, spec.n_coeffs, spec.n_upper
    state = HbState(np.zeros((J, K)), np.zeros((K, L)), np.ones(K))

    def cycle(x, newton=False):
        nonlocal state
        state, n_accepted, cost, failures = hb_cycle(spec, cfg, state, rng, newton=newton)
        return np.concatenate([state.beta.ravel(), state.gamma.ravel(), state.tau]), n_accepted, cost, failures

    # the chain state packs beta (J*K), gamma (K*L) and tau (K)
    x0 = np.concatenate([state.beta.ravel(), state.gamma.ravel(), state.tau])
    tangent = cfg.beta_sampler == "tangent"
    n_blocks = BlockPartition.contiguous(K, cfg.block_size).n_blocks
    tr = run_sweeps(cycle, x0, cfg, J * n_blocks if tangent else None)
    n = tr.n_steps
    beta, gamma, tau = np.split(tr.samples, [J * K, J * K + K * L], axis=1)
    return HbTrace(
        beta.reshape(n, J, K).copy(), gamma.reshape(n, K, L).copy(), tau.copy(), tr.wall_time, tr.meta
    )
