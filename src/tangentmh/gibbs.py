"""Block-partitioned Gibbs scheduling for the tangent-proposal kernel.

High-dimensional targets are split into small blocks (size 5 by default)
and each block's conditional is updated in turn with one MH transition.
The sweep carries the parent target's evaluation at the current point,
with gradient and Hessian, from block to block and from sweep to sweep:
a block's tangent fit at its current point is read from the carried
sub-gradient and principal sub-Hessian, and the step evaluates the
parent once, at the proposal spliced into the current point.  An
accepted step hands that evaluation on; a rejected one keeps the carried
one.  So an MH block step costs one full evaluation of the parent,
whatever the block size, and a chain pays one more at its first MH step.
On the logistic targets of the benchmark and the hierarchical demo
(400-1000 rows, 10 coefficients) a step's time is mostly that
evaluation.  No CLI verb runs this module: the hierarchical demo steps
each group's coefficients as one block (``HbConfig``), and the
``benchmark`` verb steps all coefficients as one block through
``run_chain``, both chosen on non-acceptance seeds.  It stays for
perfbench's W2, which steps blocks of 5 (not a measured optimum), and
for ``run_benchmark``'s ``block_size``, which only perfbench passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .targets import DifferentiableTarget, EvalCost, EvalResult, _block_result, _index_array, _Spliced
from .tangent import _fit_proposal, tangent_step
from .trace import ChainConfig, ChainTrace, _is_integer, run_sweeps

__all__ = [
    "BlockPartition",
    "block_sweep",
    "run_block_chain",
]


class _CarryingConditional(_Spliced):
    """A block's spliced conditional that keeps the parent's whole result
    at the last point it evaluated as ``last``, for the sweep to carry.
    Local to one block step, never shared."""

    last = None

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        self.last = self._parent_result(x, gradient, hessian)
        return _block_result(self.last, self._block)


@dataclass(frozen=True)
class BlockPartition:
    """Ordered disjoint blocks of integer indices covering 0..dim-1; a
    float or boolean index raises ``ValueError``."""

    blocks: tuple

    def __init__(self, blocks):
        blocks = tuple(_index_array(b) for b in blocks)
        seen = np.concatenate(blocks) if blocks else np.array([], dtype=int)
        dim = seen.size
        if dim == 0 or np.any(np.sort(seen) != np.arange(dim)):
            raise ValueError("blocks must be disjoint, nonempty and cover 0..dim-1")
        for b in blocks:
            if b.size == 0:
                raise ValueError("blocks must be nonempty")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @classmethod
    def contiguous(cls, dim: int, block_size: int = 5) -> "BlockPartition":
        """Contiguous index runs in declaration order."""
        if not (_is_integer(block_size) and block_size >= 1):
            raise ValueError("block_size must be an integer >= 1")
        idx = np.arange(dim)
        return cls([idx[i : i + block_size] for i in range(0, dim, block_size)])


def block_sweep(
    parent: DifferentiableTarget,
    partition: BlockPartition,
    x,
    rng: np.random.Generator,
    *,
    newton: bool = False,
    current: EvalResult | None = None,
):
    """One pass over all blocks; returns ``run_sweeps``' sweep outcome
    followed by the parent's evaluation at the new point.

    The outcome is ``(x_new, n_accepted, cost, hessian_failures, current)``:
    ``n_accepted`` counts the accepted blocks (every block in Newton mode),
    ``cost`` sums the sweep's evaluation counters, ``hessian_failures``
    counts the proposals rejected for a failed tangent fit, and
    ``current`` is the parent's evaluation at ``x_new``, with gradient
    and Hessian, or None after a Newton sweep.

    ``current``, the parent's evaluation at ``x`` with gradient and
    Hessian (as a previous sweep returned it), saves the sweep from
    evaluating its start point; with None the sweep evaluates it first.
    Each block's tangent fit at its current point is read from the
    carried evaluation, and ``tangent_step`` evaluates the parent at the
    proposal spliced into the current point (``DifferentiableTarget.restrict``'s
    conditional); an accepted step carries that evaluation to the next
    block.  With ``newton=True`` every block takes the deterministic
    Newton step from its carried fit instead of an MH transition, and
    the next block evaluates its moved point.
    """
    if partition.dim != parent.dim:
        raise ValueError("partition must cover the parent dimension")
    x = np.array(x, dtype=float)
    n_accepted = failures = 0
    cost = EvalCost()
    for block in partition.blocks:
        if current is None:
            current = parent.evaluate(x, gradient=True, hessian=True)
            cost += current.cost
        x_block = x[block]
        fit = _fit_proposal(x_block, _block_result(current, block))
        if newton:
            x[block] = fit.mean
            n_accepted += 1
            current = None
            continue
        cond = _CarryingConditional(parent, block, x)
        b_new, rec, _ = tangent_step(cond, x_block, fit, rng)
        if rec.accepted:
            x[block] = b_new
            current = cond.last
            n_accepted += 1
        failures += rec.hessian_failure
        cost += rec.cost
    return x, n_accepted, cost, failures, current


def run_block_chain(
    target: DifferentiableTarget,
    partition: BlockPartition,
    x0,
    cfg: ChainConfig,
    rng: np.random.Generator,
) -> ChainTrace:
    """Gibbs chain of block sweeps; one recorded row per sweep.

    The first ``cfg.newton_iterations`` burn-in sweeps run every block in
    Newton mode, mirroring the single-chain protocol.  Each sweep takes
    the parent's evaluation that the previous sweep returned, as
    ``run_chain`` carries its fitted record.
    """
    current = None

    def sweep(x, newton=False):
        nonlocal current
        *outcome, current = block_sweep(target, partition, x, rng, newton=newton, current=current)
        return outcome

    return run_sweeps(sweep, x0, cfg, partition.n_blocks)
