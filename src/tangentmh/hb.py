"""Hierarchical Bayesian logistic regression sampled by Gibbs cycles.

Model, per group j = 1..J and observation i in group j:

    y_i   ~ Bernoulli(logit^-1(x_i . beta_j))
    beta_jk ~ Normal(z_j . gamma_k, 1 / tau_k)      k = 1..K
    gamma_k ~ Normal(0, (1 / gamma_precision) I_L)
    tau_k  ~ Gamma(shape a, rate b)

Each cycle (``hb_cycle``) updates the beta_j, then gamma and tau by their
exact conjugate draws.  Given gamma and tau the beta_j are conditionally
independent, so the tangent kernel steps all J groups together: one
``tangent_step`` on the ``(J, K)`` stack of the groups' whole coefficient
vectors, whose conditionals (likelihood plus prior) are one stacked
target evaluated in ``(J, N, K)`` form.  The likelihood does not depend
on gamma and tau, so its value, gradient and Hessian at a cycle's final
beta are carried to the next, and an MH cycle evaluates the likelihood
only at the proposals.  The tangent fit itself is not carried: the next
cycle's priors move with gamma and tau, so each cycle adds them to the
carried terms and fits its current points once, for either move.
The slice baseline takes one ``slice_sweep`` per group in turn on the
``AdditiveTarget`` of its ``LogisticTarget`` and diagonal
``GaussianPriorTarget``.  The group conditionals are log-concave by
construction (projection likelihood plus Gaussian prior), so Hessian
failures indicate a bug and are counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit

from .linalg import NotPositiveDefinite, _cholesky_lowers, _inv_kernel
from .slicer import SliceConfig, slice_sweep
from .tangent import _StackedProposal, tangent_step
from .targets import (AdditiveTarget, DifferentiableTarget, EvalCost, EvalResult, GaussianPriorTarget,
                      LogisticTarget, _built, _row_losses)
from .trace import ChainConfig, run_sweeps

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
        for j, X in enumerate(designs):
            if X.ndim != 2:
                raise ValueError(f"designs must be matrices: group {j}'s design has shape {X.shape}")
        k = designs[0].shape[1]
        for j, (X, y) in enumerate(zip(designs, responses)):
            if X.shape[1] != k:
                raise ValueError("all groups must share the coefficient dimension")
            if y.shape != (X.shape[0],) or not np.all((y == 0) | (y == 1)):
                raise ValueError("responses must be binary, one per design row")
            if not np.isfinite(X).all():
                raise ValueError(f"designs must be finite: group {j}'s design has a non-finite entry")
        if upper.ndim != 2 or upper.shape[0] != len(designs):
            raise ValueError("upper design needs one row per group")
        if upper.shape[1] < 1:
            raise ValueError("upper design needs at least one column")
        finite_rows = np.isfinite(upper).all(axis=1)
        if not finite_rows.all():
            j = int(np.flatnonzero(~finite_rows)[0])
            raise ValueError(f"upper_design must be finite: group {j}'s row has a non-finite entry")
        object.__setattr__(self, "designs", designs)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "upper_design", upper)
        for name in ("gamma_shape", "gamma_rate", "gamma_precision"):
            value = float(getattr(self, name))
            # 0 is allowed: the per-cycle pivot rule refuses a singular gamma precision
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
            object.__setattr__(self, name, value)

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
        """The groups' data as both beta samplers evaluate it."""
        return _StackedGroups(self)

    @cached_property
    def _upper_gram(self) -> tuple:
        """``Z^T Z`` and ``gamma_precision I``, the parts of every gamma
        precision ``draw_upper_coeffs`` forms."""
        Z = self.upper_design
        return Z.T @ Z, self.gamma_precision * np.eye(self.n_upper)


class _StackedGroups:
    """The J groups' data padded to the largest group N: the transposed
    designs ``xt`` (J, K, N), whose padding columns are zero, and the
    responses (J, N), zero in the padding.  A padding row has ``t = 0``,
    so it adds nothing to a gradient or a Hessian; its value term is
    masked by a zero weight.  At W3's shape with log-uniform group sizes
    (three data seeds, single-thread BLAS), one padded stacked evaluation
    took 0.30-0.44x the time of the same evaluation over concatenated rows
    summed per group by ``np.add.reduceat``.

    ``likelihood`` gives each group's log-likelihood (J,) at ``t = X b``,
    in ``LogisticTarget``'s stable row form, and, when asked, its gradient
    (J, K) and Hessian (J, K, K), else None.  The slice path sweeps
    ``targets[j]``, group j's ``LogisticTarget`` over its own rows, plus
    the group's prior, so it does no padding work."""

    def __init__(self, spec: HbModelSpec):
        sizes = np.array(spec.group_sizes)
        n = int(sizes.max())
        self.xt = np.zeros((spec.n_groups, spec.n_coeffs, n))
        self.y = np.zeros((spec.n_groups, n))
        for j, (X, y) in enumerate(zip(spec.designs, spec.responses)):
            self.xt[j, :, : sizes[j]] = X.T
            self.y[j, : sizes[j]] = y
        self.not_y = 1.0 - self.y
        self.targets = tuple(LogisticTarget(X, y) for X, y in zip(spec.designs, spec.responses))
        self._weight = None
        if np.any(sizes < n):
            self._weight = (np.arange(n) < sizes[:, None]).astype(float)

    def likelihood(self, b: np.ndarray, gradient: bool, hessian: bool) -> tuple:
        t = np.matmul(b[:, None, :], self.xt)[:, 0]
        e = _row_losses(t, self.not_y)
        if self._weight is not None:
            e *= self._weight
        p = expit(t) if gradient or hessian else None
        grads = np.matmul(self.xt, (self.y - p)[:, :, None])[:, :, 0] if gradient else None
        hessians = None
        if hessian:
            w = 1.0 - p
            w *= p
            np.negative(w, out=w)
            hessians = np.matmul(self.xt * w[:, None, :], self.xt.transpose(0, 2, 1))
        return -e.sum(axis=1), grads, hessians


class _GroupConditionals(DifferentiableTarget):
    """The J groups' conditionals as one stacked target (see
    ``tangent_step``) on their ``(J, K)`` coefficients: each a logistic
    likelihood plus a diagonal Gaussian prior, means ``mean`` (J, K) and
    shared precisions ``tau`` (K,).  ``evaluate`` holds the likelihood's
    terms at ``x`` as ``last`` and adds the priors, counting 2J of each
    requested kind."""

    def __init__(self, groups: _StackedGroups, mean: np.ndarray, tau: np.ndarray):
        self._groups = groups
        self._mean = mean
        self._tau = tau
        self.last = None

    @property
    def dim(self) -> int:
        return self._tau.shape[0]

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        self.last = self._groups.likelihood(x, gradient, hessian)
        return self.add_priors(x, self.last, gradient, hessian, 2 * x.shape[0])

    def add_priors(self, x, likelihood: tuple, gradient: bool, hessian: bool, n_evals: int) -> EvalResult:
        """The conditionals at ``x`` from the likelihood's value, gradient
        and Hessian there, counting ``n_evals`` of each requested kind.
        With ``d = x - mean`` the prior adds ``-0.5 d . tau d`` to the value
        and ``-tau d`` to the gradient; ``tau`` is subtracted on a copy of
        the Hessian's diagonal (an off-diagonal ``-0.0`` changes no bit)."""
        values, grads, hessians = likelihood
        d = x - self._mean
        pd = self._tau * d
        value = values + -0.5 * np.einsum("ij,ij->i", d, pd)
        grad = grads - pd if gradient else None
        hess = None
        if hessian:
            hess = hessians.copy()
            hess.reshape(x.shape[0], -1)[:, :: self.dim + 1] -= self._tau
        return EvalResult(value, grad, hess, EvalCost(n_evals, n_evals * gradient, n_evals * hessian))


@dataclass(frozen=True)
class HbConfig(ChainConfig):
    """Cycle plan: the ``ChainConfig`` iteration plan in cycles (first half
    of the burn-in in Newton mode by default) and the beta sampler choice.
    With ``"tangent"`` every cycle takes one stacked tangent step over the
    J groups' whole coefficient vectors; with ``"slice"`` each group's
    coefficients take one slice sweep in turn.

    One block per group was chosen on non-acceptance seeds: carrying the
    likelihood's gradient and Hessian across cycles, it needed about half
    the tangent evaluations per effective sample of blocks of 5, and mostly
    less time per effective sample; blocks of 2 and of 1 needed more of
    both."""

    n_burnin: int = 500
    n_samples: int = 500
    beta_sampler: str = "tangent"
    slice_cfg: SliceConfig = field(default_factory=SliceConfig)
    seed: int | None = None

    def __post_init__(self):
        super().__post_init__()
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
    against ``tau_k Z^T beta[:, k]``; ``Z^T Z`` and ``gamma_precision I``
    are formed once per spec.  The K precisions are factored as one
    ``(K, L, L)`` stack by numpy's stacked Cholesky kernel and the factors
    inverted by its stacked inverse kernel (``linalg``'s, each bit for bit
    what ``np.linalg.cholesky`` and ``np.linalg.inv`` return), under
    ``cholesky``'s pivot rule (a failing precision raises its
    ``NotPositiveDefinite`` before any draw), and every normal comes from
    one ``(K, L)`` draw.  With ``L_k`` the factor, right-hand side ``h_k``
    and normal ``z_k``, the draw is ``L_k^-T (L_k^-1 h_k + z_k)`` through
    the stacked inverse factors: the mean plus the same square root of the
    covariance as two triangular solves per coefficient, equal to them to
    rounding.
    """
    gram, ridge = spec._upper_gram
    precisions = tau[:, None, None] * gram + ridge
    with np.errstate(all="ignore"):
        inverses = _inv_kernel(_cholesky_lowers(precisions))
    rhs = tau[:, None] * (beta.T @ spec.upper_design)
    z = rng.standard_normal((spec.n_coeffs, spec.n_upper))
    w = np.matmul(inverses, rhs[:, :, None])[:, :, 0]
    w += z
    return np.matmul(inverses.transpose(0, 2, 1), w[:, :, None])[:, :, 0]


def draw_precisions(
    spec: HbModelSpec, beta: np.ndarray, gamma: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Exact conjugate draw of tau given beta and gamma.

    tau_k ~ Gamma(a + J/2, rate b + 0.5 sum_j (beta_jk - z_j . gamma_k)^2).
    """
    resid = beta - spec.upper_design @ gamma.T
    shape = spec.gamma_shape + 0.5 * spec.n_groups
    rates = spec.gamma_rate + 0.5 * (resid**2).sum(axis=0)
    return rng.standard_gamma(shape, size=spec.n_coeffs) * (1.0 / rates)


@dataclass(frozen=True, eq=False)
class HbState:
    """A state of the Gibbs chain: beta (J, K), gamma (K, L) and tau (K).

    ``hb_cycle`` never writes a state's arrays.  A state it returns from a
    tangent MH cycle also carries, for the spec it stepped, each group's
    log-likelihood (J,), likelihood gradient (J, K) and Hessian (J, K, K)
    at beta, so that the next cycle evaluates only the prior at its
    current point.  Each carried array is the one a fresh evaluation at
    beta computes, so the carry changes the counters, never the samples.
    A state built by hand (or by ``dataclasses.replace``) carries none.
    """

    beta: np.ndarray
    gamma: np.ndarray
    tau: np.ndarray
    _carry: tuple | None = field(default=None, init=False, repr=False)


def hb_cycle(
    spec: HbModelSpec, cfg: HbConfig, state: HbState, rng: np.random.Generator, *, newton: bool = False
):
    """One Gibbs cycle from ``state``: the beta_j, then gamma, then tau.

    Returns ``(state, n_accepted, cost, hessian_failures)``, with
    ``n_accepted`` the accepted groups on the tangent path (J in Newton
    mode) and 1 on the slice path.  The tau of ``state`` must be finite and
    positive, which makes ``diag(tau)`` a valid prior precision; otherwise
    ``NotPositiveDefinite`` names the first bad coordinate.

    On the tangent path the likelihood's terms at the current beta come
    from the state's carry, or from one evaluation when it carries none
    (after a Newton move, at a state built by hand or for another spec);
    the priors are added and the ``(J, K)`` stack is fitted there once.
    The Newton move (``newton=True``, no draws) takes the fit's means; an
    MH cycle passes the fit to one ``tangent_step`` on the groups' stacked
    conditionals, the one part of an ``AdditiveTarget``.  An MH cycle from
    a carrying state therefore counts 3J of each kind: J for the priors at
    the current points and 2J for the likelihoods and priors at the
    proposals.  On the slice path (``newton`` ignored) each group takes
    one ``slice_sweep`` on the ``AdditiveTarget`` of its ``LogisticTarget``
    and its diagonal prior, built unfactored.  Either path steps a beta of
    another dtype as its ``float64`` values.

    The checks run on whole arrays and build nothing when they pass: tau
    is checked as a Python list and the conjugate draws by one finiteness
    test each.
    """
    for k, t in enumerate(state.tau.tolist()):
        if not (math.isfinite(t) and t > 0.0):
            raise NotPositiveDefinite(k, f"prior precision tau[{k}] = {state.tau[k]} is not finite and positive")
    tau, current = state.tau, np.asarray(state.beta, dtype=float)
    prior_means = spec.upper_design @ state.gamma.T
    carry = None
    if cfg.beta_sampler == "slice":
        # tau is checked above, so diag(tau) needs no factoring
        precision, beta, cost = np.diag(tau), np.empty_like(current), EvalCost()
        for j, likelihood in enumerate(spec._stacked.targets):
            prior = _built(GaussianPriorTarget, _mean=prior_means[j], _precision=precision, _diagonal=True)
            target = AdditiveTarget([likelihood, prior])
            beta[j], _, used, _ = slice_sweep(target, current[j], cfg.slice_cfg, rng)
            cost = cost + used
        n_accepted, failures = 1, 0
    else:
        J, carried = spec.n_groups, state._carry is not None and state._carry[0] is spec
        held = state._carry[1] if carried else spec._stacked.likelihood(current, True, True)
        target = _GroupConditionals(spec._stacked, prior_means, tau)
        fit = _StackedProposal(current, target.add_priors(current, held, True, True, J if carried else 2 * J))
        if newton:
            fit.raise_failure()
            beta, n_accepted, cost, failures = fit.mean, J, fit.cost, 0
        else:
            # a one-part AdditiveTarget passes the result on bit for bit, and
            # perfbench's tracer sees the evaluations of public target classes only
            beta, record, _ = tangent_step(AdditiveTarget([target]), current, fit, rng)
            accepted = record.accepted
            # each group's proposal where it accepted, its current point elsewhere
            carry = tuple(
                np.where(accepted.reshape((-1,) + (1,) * (new.ndim - 1)), new, old)
                for new, old in zip(target.last, held)
            )
            n_accepted, failures = int(accepted.sum()), int(record.hessian_failure.sum())
            cost = fit.cost + record.cost
    gamma = draw_upper_coeffs(spec, beta, tau, rng)
    tau = draw_precisions(spec, beta, gamma, rng)
    if not (np.isfinite(gamma).all() and np.isfinite(tau).all()):
        raise FloatingPointError("non-finite conjugate draw")
    new = HbState(beta, gamma, tau)
    if carry is not None:
        object.__setattr__(new, "_carry", (spec, carry))
    return new, n_accepted, cost, failures


def hb_gibbs(
    spec: HbModelSpec, cfg: HbConfig, rng: np.random.Generator | None = None
) -> HbTrace:
    """Run ``hb_cycle`` from beta = 0, gamma = 0, tau = 1.

    The update order is fixed (beta, gamma, tau) for reproducibility;
    this is a valid systematic-scan Gibbs sampler.
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
    tr = run_sweeps(cycle, x0, cfg, J if cfg.beta_sampler == "tangent" else None)
    n = tr.n_steps
    beta, gamma, tau = np.split(tr.samples, [J * K, J * K + K * L], axis=1)
    return HbTrace(
        beta.reshape(n, J, K).copy(), gamma.reshape(n, K, L).copy(), tau.copy(), tr.wall_time, tr.meta
    )
