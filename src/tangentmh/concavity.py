"""Randomized certificate/witness campaigns for composed log-concavity.

A composed density built from concave per-observation families through
linear projections keeps a negative-definite Hessian exactly when every
design matrix has full column rank; any rank-deficient design contributes
an exactly flat direction (supported on that block alone), leaving the
Hessian only semi-definite.  This module makes the claim executable: each
instance assembles the Hessian two independent ways, verifies the
observation-wise decomposition of the quadratic form, and then either
factors the negated Hessian (certificate) or produces an explicit flat
direction from the design null spaces (witness).  Those null spaces alone
decide rank: a singular value at or below ``RANK_RTOL`` times a design's
largest counts as zero, so full column rank is an empty null space
(``flat_direction``, which the ``chain`` verb also applies to a logistic
design before it runs).  A
singular-value ratio between ``RANK_RTOL`` and about 1e-6 passes that
rule, but ``cholesky``'s pivot rule can refuse the Hessian: the record
then fails, naming the pivot.  ``random_instances`` draws no such design.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import null_space

from .linalg import NotPositiveDefinite, cholesky
from .targets import BernoulliBase, ConcaveQuadraticBase, LinearProjectionTarget

__all__ = [
    "ConcavityInstance",
    "InstanceRecord",
    "CampaignReport",
    "build_target",
    "flat_direction",
    "separating_direction",
    "run_instance",
    "run_campaign",
    "random_instances",
]

RANK_RTOL = 1e-10
HESSIAN_FD_RTOL = 1e-4
WITNESS_RTOL = 1e-8
IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class ConcavityInstance:
    """One randomized problem: projection-group shapes, base family, and a
    per-design rank plan ('full' or deficiency count)."""

    n_groups: int
    group_dims: tuple
    n_obs: int
    base: str  # "bernoulli" (1 group) or "quadratic"
    deficiencies: tuple  # 0 = full column rank plan
    seed: int

    def __post_init__(self):
        if len(self.group_dims) != self.n_groups:
            raise ValueError("need one dimension per group")
        if len(self.deficiencies) != self.n_groups:
            raise ValueError("need one rank plan per group")
        if self.base == "bernoulli" and self.n_groups != 1:
            raise ValueError("bernoulli base has a single argument")
        if self.base not in ("bernoulli", "quadratic"):
            raise ValueError(f"unknown base family {self.base!r}")
        for k, d in zip(self.group_dims, self.deficiencies):
            if not 0 <= d < k:
                raise ValueError("deficiency must be in [0, group dim)")
        if self.n_obs < max(self.group_dims):
            raise ValueError("need at least as many observations as the widest group")

    @property
    def expects_certificate(self) -> bool:
        # definiteness needs every design at full column rank: any deficient
        # block contributes an exactly flat direction regardless of the others
        return all(d == 0 for d in self.deficiencies)


def _fd_hessian_of_value(f, x, scale: float = 5e-4) -> np.ndarray:
    """Hessian of ``f`` at ``x`` from second central differences of its
    value alone, the step of coordinate i ``scale * (1 + |x_i|)``:
    independent of the analytic derivative code it checks."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = scale * (1.0 + np.abs(x))
    H = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros_like(x)
        ei[i] = h[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros_like(x)
            ej[j] = h[j]
            H[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
            H[j, i] = H[i, j]
    return H


def _design(n_obs: int, k: int, deficiency: int, rng: np.random.Generator) -> np.ndarray:
    X = rng.standard_normal((n_obs, k))
    if deficiency > 0:
        # overwrite trailing columns with combinations of the leading ones
        lead = X[:, : k - deficiency]
        X[:, k - deficiency :] = lead @ rng.standard_normal((k - deficiency, deficiency))
    return X


def build_target(inst: ConcavityInstance, rng: np.random.Generator) -> LinearProjectionTarget:
    """The composed target of an instance's base family and designs."""
    designs = [
        _design(inst.n_obs, k, d, rng)
        for k, d in zip(inst.group_dims, inst.deficiencies)
    ]
    if inst.base == "bernoulli":
        base = BernoulliBase((rng.random(inst.n_obs) < 0.5).astype(float))
    else:
        J = inst.n_groups
        raw = rng.standard_normal((inst.n_obs, J, J))
        quad = np.einsum("ijk,ilk->ijl", raw, raw) + 0.1 * np.eye(J)
        base = ConcaveQuadraticBase(quad, rng.standard_normal((inst.n_obs, J)))
    return LinearProjectionTarget(base, designs)


@dataclass(frozen=True)
class InstanceRecord:
    """Outcome and residuals for one campaign instance."""

    instance: ConcavityInstance
    outcome: str  # "certificate" or "witness"
    expected: str
    ok: bool
    hessian_fd_rel_err: float
    identity_max_err: float
    witness_quad_rel: float  # |p^T H p| / (|H|_F |p|^2); nan for certificates
    detail: str = ""

    def to_json(self) -> str:
        payload = asdict(self)
        payload["instance"] = asdict(self.instance)
        return json.dumps(payload, sort_keys=True)


@dataclass
class CampaignReport:
    records: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def violations(self) -> list:
        return [r for r in self.records if not r.ok]

    def reproducer(self) -> str:
        """Minimal description of the first violating instance, if any."""
        if self.ok:
            return ""
        r = self.violations[0]
        return f"instance={asdict(r.instance)} detail={r.detail}"

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(r.to_json() + "\n")

    def summary(self) -> dict:
        return {
            "n_instances": len(self.records),
            "n_certificates": sum(r.outcome == "certificate" for r in self.records),
            "n_witnesses": sum(r.outcome == "witness" for r in self.records),
            "n_violations": len(self.violations),
            "max_hessian_fd_rel_err": max(
                (r.hessian_fd_rel_err for r in self.records), default=0.0
            ),
            "max_identity_err": max(
                (r.identity_max_err for r in self.records), default=0.0
            ),
        }


def flat_direction(designs) -> np.ndarray | None:
    """The rank rule's verdict on the designs of a linear projection: None
    when every ``null_space(X, rcond=RANK_RTOL)`` is empty (full column
    rank), else a witness over the stacked coefficients that every design
    maps to zero, so the composed log-density is flat along it: the first
    null-space vector of each rank-deficient design, zeros on the
    full-rank blocks."""
    null_spaces = [null_space(X, rcond=RANK_RTOL) for X in designs]
    if not any(N.size for N in null_spaces):
        return None
    return np.concatenate([N[:, 0] if N.size else np.zeros(len(N)) for N in null_spaces])


def separating_direction(X: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """A unit v along which a logistic likelihood on a full-rank design
    ``X`` with binary responses ``y`` never decreases, or None: one HiGHS
    feasibility problem for ``(2 y_i - 1) x_i . v >= 0`` on every row with
    the rows' sum ``>= 1``, so v is not 0.  Such a v exists exactly under
    complete or quasi-complete separation, when the maximum likelihood
    estimate does not exist (Albert & Anderson 1984, Biometrika 71(1))."""
    # imported here: scipy.optimize adds about 155 ms to the package's import
    from scipy.optimize import linprog

    rows = (2.0 * y - 1.0)[:, None] * X
    # one positive scale changes no sign, and the rows' sum cannot overflow
    rows /= np.abs(rows).max()
    a_ub, b_ub = -np.vstack([rows, rows.sum(axis=0)]), np.append(np.zeros(len(rows)), -1.0)
    res = linprog(np.zeros(X.shape[1]), A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    return res.x / np.linalg.norm(res.x) if res.status == 0 else None


def run_instance(inst: ConcavityInstance, trials: int = 10) -> InstanceRecord:
    """Exercise one instance: Hessian cross-check, decomposition identity,
    then certificate or witness according to the design null spaces.

    With every null space empty the negated Hessian is factored outright
    (certificate; a failed factorization is one more failed check).
    Otherwise the witness stacks one null-space vector per rank-deficient
    design (zeros on the full-rank blocks), which annihilates every
    per-observation term of the quadratic form: a single full-rank design
    does NOT rescue definiteness, because directions supported on the
    deficient blocks alone stay exactly flat.  Each of the ``trials``
    random directions p checks that p^T H p matches its observation-wise
    decomposition sum_i q_i^T H_i q_i, where q_i are the per-observation
    projections of p.
    """
    rng = np.random.default_rng(inst.seed)
    target = build_target(inst, rng)
    beta = rng.standard_normal(target.dim)

    H = target.evaluate(beta, hessian=True).hessian
    h_norm = float(np.linalg.norm(H, "fro"))
    H_fd = _fd_hessian_of_value(lambda b: target.evaluate(b).value, beta)
    fd_err = float(np.linalg.norm(H - H_fd, "fro") / max(h_norm, 1e-30))

    _, _, hessians = target.base.evaluate(target.projections(beta), hessian=True)
    identity_err = 0.0
    for _ in range(trials):
        p = rng.standard_normal(target.dim)
        p /= np.linalg.norm(p)
        Q = target.projections(p)
        rhs = float(np.einsum("ij,ijk,ik->", Q, hessians, Q))
        identity_err = max(identity_err, abs(float(p @ H @ p) - rhs))

    expected = "certificate" if inst.expects_certificate else "witness"
    witness_rel = float("nan")
    detail = ""
    failed_pivot = None
    w = flat_direction(target.designs)
    if w is None:
        outcome = "certificate"
        try:
            cholesky(-H)
        except NotPositiveDefinite as err:
            failed_pivot = err.pivot
    else:
        outcome = "witness"
        if not inst.expects_certificate:
            witness_rel = abs(float(w @ H @ w)) / max(h_norm * float(w @ w), 1e-300)

    if inst.expects_certificate:
        ok = outcome == "certificate"
        if not ok:
            detail = "full-rank plan failed to certify"
    else:
        ok = witness_rel <= WITNESS_RTOL  # nan when the designs certified
        if not ok:
            detail = f"witness quadratic form too large: {witness_rel:.3e}"
    if failed_pivot is not None:
        ok, detail = False, f"certificate factorization failed at pivot {failed_pivot}"
    if fd_err >= HESSIAN_FD_RTOL:
        ok = False
        detail = f"Hessian finite-difference mismatch: {fd_err:.3e}"
    if identity_err > IDENTITY_TOL * max(1.0, h_norm):
        ok = False
        detail = f"decomposition identity residual {identity_err:.3e}"
    return InstanceRecord(
        inst, outcome, expected, ok, fd_err, identity_err, witness_rel, detail
    )


def run_campaign(instances, trials: int = 10) -> CampaignReport:
    """Run every instance; the report lists outcomes and any violations."""
    return CampaignReport([run_instance(inst, trials) for inst in instances])


def random_instances(n: int, seed: int) -> list:
    """A mixed bag of instances: full-rank, all-deficient, and mixed plans."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        kind = i % 4
        inst_seed = int(rng.integers(0, 2**63 - 1))
        if kind in (0, 1):
            # single-group bernoulli; alternate full rank and deficient
            k = int(rng.integers(2, 6))
            d = 0 if kind == 0 else int(rng.integers(1, k))
            out.append(
                ConcavityInstance(1, (k,), int(rng.integers(k + 2, 26)), "bernoulli", (d,), inst_seed)
            )
        else:
            # two-group quadratic; kind 2 mixes full-rank and possibly
            # deficient designs, kind 3 makes every design deficient
            k1, k2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            if kind == 2:
                d1, d2 = 0, int(rng.integers(0, k2))
            else:
                d1, d2 = int(rng.integers(1, k1)), int(rng.integers(1, k2))
            n_obs = int(rng.integers(max(k1, k2) + 2, 26))
            out.append(
                ConcavityInstance(2, (k1, k2), n_obs, "quadratic", (d1, d2), inst_seed)
            )
    return out
