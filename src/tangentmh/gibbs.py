"""Block-partitioned Gibbs scheduling for the tangent-proposal kernel.

High-dimensional targets are split into small blocks (size 5 by default)
and each block's conditional is updated in turn with one MH transition.
On the logistic targets of the benchmark and the hierarchical demo
(400-1000 rows, 10 coefficients) a step's time is mostly the fixed cost
of each target evaluation.  The hierarchical demo therefore steps each
group's coefficients as one block (``HbConfig``), measured on
non-acceptance seeds; the ``benchmark`` verb keeps blocks of 5, which are
not a measured optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .targets import DifferentiableTarget, EvalCost
from .tangent import build_proposal, tangent_step
from .trace import ChainConfig, ChainTrace, _is_integer, run_sweeps

__all__ = [
    "BlockPartition",
    "block_sweep",
    "run_block_chain",
]


@dataclass(frozen=True)
class BlockPartition:
    """Ordered disjoint index blocks covering 0..dim-1."""

    blocks: tuple

    def __init__(self, blocks):
        blocks = tuple(np.asarray(b, dtype=int) for b in blocks)
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

    @classmethod
    def single(cls, dim: int) -> "BlockPartition":
        return cls([np.arange(dim)])


def block_sweep(
    parent: DifferentiableTarget,
    partition: BlockPartition,
    x,
    rng: np.random.Generator,
    *,
    newton: bool = False,
):
    """One pass over all blocks; returns ``run_sweeps``' sweep outcome.

    The outcome is ``(x_new, n_accepted, cost, hessian_failures)``:
    ``n_accepted`` counts the accepted blocks (every block in Newton mode),
    ``cost`` sums the blocks' evaluation counters and ``hessian_failures``
    counts the proposals rejected for a failed tangent fit.

    Uses each target's ``restrict`` so conditionals of structured targets
    (projection likelihoods, Gaussian priors) evaluate at block cost
    instead of parent cost.  With ``newton=True`` every block takes the
    deterministic Newton step instead of an MH transition.
    """
    if partition.dim != parent.dim:
        raise ValueError("partition must cover the parent dimension")
    x = np.array(x, dtype=float)
    n_accepted = n_value = n_gradient = n_hessian = failures = 0
    for block in partition.blocks:
        cond = parent.restrict(block, x)
        if newton:
            fit = build_proposal(cond, x[block])
            x[block] = fit.mean
            cost = fit.cost
            n_accepted += 1
        else:
            b_new, rec, _ = tangent_step(cond, x[block], None, rng)
            x[block] = b_new
            n_accepted += rec.accepted
            failures += rec.hessian_failure
            cost = rec.cost
        n_value += cost.n_value
        n_gradient += cost.n_gradient
        n_hessian += cost.n_hessian
    return x, n_accepted, EvalCost(n_value, n_gradient, n_hessian), failures


def run_block_chain(
    target: DifferentiableTarget,
    partition: BlockPartition,
    x0,
    cfg: ChainConfig,
    rng: np.random.Generator,
) -> ChainTrace:
    """Gibbs chain of block sweeps; one recorded row per sweep.

    The first ``cfg.newton_iterations`` burn-in sweeps run every block in
    Newton mode, mirroring the single-chain protocol.
    """
    return run_sweeps(partial(block_sweep, target, partition, rng=rng), x0, cfg, partition.n_blocks)
