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
vectors, whose conditionals are evaluated in ``(J, N, K)`` form.  The
likelihood does not depend on gamma and tau, so its fit at a cycle's
final beta (value, gradient and Hessian) is carried to the next, and an
MH cycle evaluates the likelihood only at the proposals, as
``run_chain`` carries its fitted record.  The slice baseline sweeps each
group in turn, each coordinate's line evaluated along one design column
from the group's kept predictor.  The group conditionals are log-concave
by construction (projection likelihood plus Gaussian prior), so Hessian
failures indicate a bug and are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit

from .linalg import NotPositiveDefinite, _cholesky_lowers, _upper_solve
from .slicer import SliceConfig, _sweep
from .tangent import build_proposal, tangent_step
from .targets import AdditiveTarget, DifferentiableTarget, EvalCost, EvalResult, _row_losses
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
        """The groups' data as both beta samplers evaluate it."""
        return _StackedGroups(self)


class _StackedGroups:
    """The J groups' data padded to the largest group N: the transposed
    designs ``xt`` (J, K, N), whose padding columns are zero, and the
    responses (J, N), zero in the padding.  A padding row has ``t = 0``,
    so it adds nothing to a gradient or a Hessian; its value term is
    masked by a zero weight.  At W3's shape with log-uniform group sizes
    (three data seeds, single-thread BLAS), one padded stacked evaluation
    took 0.30-0.44x the time of the same evaluation over concatenated rows
    summed per group by ``np.add.reduceat``.

    ``likelihood`` gives each group's log-likelihood and ``sigma(t)`` at
    ``t = X b``, in ``LogisticTarget``'s stable row form.  The slice path
    reads group j's own rows, ``xt[j, :, :N_j]`` and ``not_y[j, :N_j]``, so
    it does no padding work."""

    def __init__(self, spec: HbModelSpec):
        sizes = np.array(spec.group_sizes)
        n = int(sizes.max())
        self.xt = np.zeros((spec.n_groups, spec.n_coeffs, n))
        self.y = np.zeros((spec.n_groups, n))
        for j, (X, y) in enumerate(zip(spec.designs, spec.responses)):
            self.xt[j, :, : sizes[j]] = X.T
            self.y[j, : sizes[j]] = y
        self.not_y = 1.0 - self.y
        self._weight = None
        if np.any(sizes < n):
            self._weight = (np.arange(n) < sizes[:, None]).astype(float)

    def likelihood(self, b: np.ndarray) -> tuple:
        t = np.matmul(b[:, None, :], self.xt)[:, 0]
        e = _row_losses(t, self.not_y)
        if self._weight is not None:
            e *= self._weight
        return -e.sum(axis=1), expit(t)


class _GroupLikelihoods(DifferentiableTarget):
    """The J groups' log-likelihoods as one stacked target (see
    ``tangent_step``) on their ``(J, K)`` coefficients.

    ``known`` is each group's likelihood fit at the stack ``at``, or None:
    ``(log-likelihood, sigma(t), gradient (J, K), Hessian (J, K, K))``.  An
    evaluation at that very array reuses what it holds, counting none of
    it, and what it computes there becomes ``known``.  ``last`` is the same
    four-tuple at the last stack evaluated."""

    def __init__(self, groups: _StackedGroups, at: np.ndarray, known):
        self._groups = groups
        self._at = at
        self.known = known
        self.last = None

    @property
    def dim(self) -> int:
        return self._groups.xt.shape[1]

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        n_groups, xt = x.shape[0], self._groups.xt
        reused = x is self._at and self.known is not None
        if reused:
            values, p, grads, hessians = self.known
        else:
            values, p = self._groups.likelihood(x)
            grads = hessians = None
        n_gradient = n_hessian = 0
        if gradient and grads is None:
            grads = np.matmul(xt, (self._groups.y - p)[:, :, None])[:, :, 0]
            n_gradient = n_groups
        if hessian and hessians is None:
            w = 1.0 - p
            w *= p
            np.negative(w, out=w)
            hessians = np.matmul(xt * w[:, None, :], xt.transpose(0, 2, 1))
            n_hessian = n_groups
        self.last = (values, p, grads, hessians)
        if x is self._at:
            self.known = self.last
        cost = EvalCost(0 if reused else n_groups, n_gradient, n_hessian)
        # a copy: AdditiveTarget adds into its first part's value
        return EvalResult(values.copy(), grads if gradient else None, hessians if hessian else None, cost)


class _GroupPriors(DifferentiableTarget):
    """The J groups' diagonal Gaussian priors on their ``(J, K)``
    coefficients as one stacked target: means ``mean`` (J, K) and the
    shared precisions ``tau`` (K,)."""

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

    ``hb_cycle`` never writes a state's arrays.  A state it returns from a
    tangent MH cycle also carries, for the spec it stepped, each group's
    log-likelihood, ``sigma(t)``, likelihood gradient (J, K) and Hessian
    (J, K, K) at beta, so that the next cycle evaluates only the prior at
    its current point.  Each carried array is the one a fresh evaluation
    at beta computes, so the carry changes the counters, never the
    samples.  A state built by hand (or by ``dataclasses.replace``) carries
    none.
    """

    beta: np.ndarray
    gamma: np.ndarray
    tau: np.ndarray
    _carry: tuple | None = field(default=None, init=False, repr=False)


def _slice_betas(spec, slice_cfg, beta, prior_means, tau, rng) -> EvalCost:
    """One slice sweep per group in turn, ``beta`` updated in place; returns
    the summed cost, 2 values (likelihood and prior) per line evaluation.
    Coordinate d's line at v is the row terms over the group's own rows at
    ``t + X[:, d] (v - beta_jd)`` plus the prior's ``-0.5 r . (tau r)``,
    ``r = beta_j - mean`` with entry d at v, as the dense prior sums it.
    ``t = X beta_j`` is formed once per sweep and moved by the changed column
    after each update, so a handed-on value is bit for bit the next line's
    at its start."""
    groups, cost, two = spec._stacked, EvalCost(), EvalCost(2, 0, 0)
    for j, n in enumerate(spec.group_sizes):
        xt, not_y, b, mean = groups.xt[j, :, :n], groups.not_y[j, :n], beta[j], prior_means[j]
        t, b0 = b @ xt, b.copy()

        def line(d):
            nonlocal t
            if d:
                t = t + xt[d - 1] * (b[d - 1] - b0[d - 1])
            column, start = xt[d], b0[d]
            r = b - mean
            tau_r = tau * r
            mean_d, tau_d = float(mean[d]), float(tau[d])

            def logf(v):
                u = column * (v - start)
                u += t
                r[d] = r_d = v - mean_d
                tau_r[d] = tau_d * r_d
                return -float(_row_losses(u, not_y).sum()) - 0.5 * float(r @ tau_r), two

            return logf

        cost = cost + _sweep(line, b, slice_cfg, rng)
    return cost


def hb_cycle(
    spec: HbModelSpec, cfg: HbConfig, state: HbState, rng: np.random.Generator, *, newton: bool = False
):
    """One Gibbs cycle from ``state``: the beta_j, then gamma, then tau.

    Returns ``(state, n_accepted, cost, hessian_failures)``, with
    ``n_accepted`` the accepted groups on the tangent path (J in Newton
    mode) and 1 on the slice path.  The tau of ``state`` must be finite and
    positive, which makes ``diag(tau)`` a valid prior precision; otherwise
    ``NotPositiveDefinite`` names the first bad coordinate.

    On the tangent path beta takes one ``tangent_step`` on the ``(J, K)``
    stack of the groups' coefficients, whose target is the
    ``AdditiveTarget`` of their likelihoods and priors (``newton=True``:
    the Newton move, which draws nothing).  The likelihood's fit at the
    current point is evaluated only when the state carries none: after a
    Newton move, and at a state built by hand or for another spec.  An MH
    cycle from a carrying state therefore counts 3J of each kind: J for
    the priors at the current points and 2J for the likelihoods and priors
    at the proposals.  On the slice path (``newton`` ignored) each group
    takes one ``_slice_betas`` sweep, counted as its ``slice_sweep`` on the
    group's targets would be.
    """
    bad = np.flatnonzero(~(np.isfinite(state.tau) & (state.tau > 0.0)))
    if bad.size:
        k = int(bad[0])
        raise NotPositiveDefinite(k, f"prior precision tau[{k}] = {state.tau[k]} is not finite and positive")
    tau = state.tau
    prior_means = spec.upper_design @ state.gamma.T
    carry = None
    if cfg.beta_sampler == "slice":
        beta = state.beta.copy()
        n_accepted, cost, failures = 1, _slice_betas(spec, cfg.slice_cfg, beta, prior_means, tau, rng), 0
    else:
        known = state._carry[1] if state._carry is not None and state._carry[0] is spec else None
        likelihood = _GroupLikelihoods(spec._stacked, state.beta, known)
        target = AdditiveTarget([likelihood, _GroupPriors(prior_means, tau)])
        if newton:
            fit = build_proposal(target, state.beta)
            beta, n_accepted, cost, failures = fit.mean, spec.n_groups, fit.cost, 0
        else:
            beta, record, _ = tangent_step(target, state.beta, None, rng)
            accepted = record.accepted
            # each group's proposal where it accepted, its current point elsewhere
            carry = tuple(
                np.where(accepted.reshape((-1,) + (1,) * (new.ndim - 1)), new, old)
                for new, old in zip(likelihood.last, likelihood.known)
            )
            n_accepted, cost, failures = int(accepted.sum()), record.cost, int(record.hessian_failure.sum())
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
