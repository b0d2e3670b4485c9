"""Block-partitioned Gibbs scheduling for the tangent-proposal kernel.

High-dimensional targets are split into small blocks (size 5 by default)
and each block's conditional is updated in turn with one MH transition.
Small blocks keep the per-step Hessian cost down, since that cost grows
quadratically with block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .targets import DifferentiableTarget, EvalCost
from .tangent import build_proposal, tangent_step
from .trace import ChainConfig, ChainTrace, run_sweeps

__all__ = [
    "BlockPartition",
    "SweepRecord",
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
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        idx = np.arange(dim)
        return cls([idx[i : i + block_size] for i in range(0, dim, block_size)])

    @classmethod
    def single(cls, dim: int) -> "BlockPartition":
        return cls([np.arange(dim)])


@dataclass(frozen=True)
class SweepRecord:
    """Per-block outcomes of one Gibbs sweep."""

    accepted: np.ndarray
    cost: EvalCost
    hessian_failures: int


def block_sweep(
    parent: DifferentiableTarget,
    partition: BlockPartition,
    x,
    rng: np.random.Generator,
    *,
    newton: bool = False,
):
    """One pass over all blocks; returns (x_new, SweepRecord).

    Uses each target's ``restrict`` so conditionals of structured targets
    (projection likelihoods, Gaussian priors) evaluate at block cost
    instead of parent cost.  With ``newton=True`` every block takes the
    deterministic Newton step instead of an MH transition.
    """
    if partition.dim != parent.dim:
        raise ValueError("partition must cover the parent dimension")
    x = np.array(x, dtype=float)
    accepted = np.zeros(partition.n_blocks, dtype=bool)
    n_value = n_gradient = n_hessian = failures = 0
    for i, block in enumerate(partition.blocks):
        cond = parent.restrict(block, x)
        if newton:
            fit = build_proposal(cond, x[block])
            x[block] = fit.mean
            cost = fit.cost
            accepted[i] = True
        else:
            b_new, rec, _ = tangent_step(cond, x[block], None, rng)
            x[block] = b_new
            accepted[i] = rec.accepted
            failures += int(rec.hessian_failure)
            cost = rec.cost
        n_value += cost.n_value
        n_gradient += cost.n_gradient
        n_hessian += cost.n_hessian
    return x, SweepRecord(accepted, EvalCost(n_value, n_gradient, n_hessian), failures)


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

    def sweep(x, newton):
        x, rec = block_sweep(target, partition, x, rng, newton=newton)
        return x, int(np.count_nonzero(rec.accepted)), rec.cost, rec.hessian_failures

    return run_sweeps(
        sweep, x0, cfg, "tangent-mh-blocked", partition.n_blocks,
        block_sizes=[int(b.size) for b in partition.blocks],
    )
