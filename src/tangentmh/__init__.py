"""Metropolis-Hastings sampling with Newton-step tangent Gaussian proposals.

The proposal at each point is the Gaussian matching the local second-order
expansion of a log-concave density: precision equal to the negated
Hessian, mean equal to the full Newton step.  The package bundles the
kernel, a block-Gibbs scheduler, a slice-sampler baseline, a hierarchical
Bayesian logistic-regression demo, chain diagnostics, and an executable
check that log-concavity survives linear-projection composition.
"""

from .linalg import (
    CholeskyFactor,
    MvnDistribution,
    NotPositiveDefinite,
    SymMatrix,
    cholesky,
    mvn_logpdf,
    mvn_sample,
)
from .targets import (
    AdditiveTarget,
    BernoulliBase,
    ConcaveQuadraticBase,
    DifferentiableTarget,
    EvalCost,
    EvalResult,
    GaussianPriorTarget,
    LinearProjectionModel,
    LinearProjectionTarget,
    LogisticTarget,
    PoissonLogRateTarget,
    poisson_lograte_target,
    replicated_poisson_target,
)
from .tangent import (
    ChainConfig,
    HessianNotNegativeDefinite,
    StepRecord,
    build_proposal,
    newton_step,
    run_chain,
    tangent_step,
)
from .trace import ChainTrace, run_sweeps
from .slicer import SliceConfig, SliceError, slice_gibbs_chain, slice_step_1d
from .gibbs import BlockPartition, block_sweep, run_block_chain
from .hb import HbConfig, HbModelSpec, HbState, HbTrace, hb_cycle, hb_gibbs, simulate_hb
from .diagnostics import (
    CalibrationProfile,
    ModeFindingError,
    calibrate,
    effective_size,
    ess_per_dim,
    fee,
    mixing_index,
)
from .concavity import ConcavityInstance, run_campaign, random_instances

__version__ = "0.1.0"
