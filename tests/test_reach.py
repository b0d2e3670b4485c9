"""``tools/reach.py``: the functions of ``src/`` that no verb calls."""

import importlib.util
import sys
from pathlib import Path

import pytest

from tangentmh.cli import VERBS, parse_config_text

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

# every function that the verbs never call, as module.qualname; a function
# only tests call belongs in tests/, not here
EXPECTED = {
    # perfbench-only: names perfbench imports, wraps or times (README's
    # "Benchmark" list), with the block layer and restrict's helpers
    "gibbs.BlockPartition.__init__",
    "gibbs.BlockPartition.contiguous",
    "gibbs.BlockPartition.dim",
    "gibbs.BlockPartition.n_blocks",
    "gibbs._CarryingConditional.evaluate",
    "gibbs.block_sweep",
    "gibbs.run_block_chain",
    "linalg.CholeskyFactor.dim",
    "linalg.CholeskyFactor.half_log_det",
    "linalg.CholeskyFactor.solve",
    "linalg.MvnDistribution.__post_init__",
    "linalg.MvnDistribution.dim",
    "linalg.SymMatrix.__array__",
    "linalg.mvn_logpdf",
    "linalg.mvn_sample",
    "tangent.newton_step",
    "targets.DifferentiableTarget.restrict",
    "targets._Spliced.__init__",
    "targets._Spliced._parent_result",
    "targets._Spliced.dim",
    "targets._Spliced.evaluate",
    "targets._block_result",
    "targets._index_array",
    "targets.poisson_lograte_target",
    # failure paths, each reached by a test: a campaign violation
    # (test_cli.py's TestTheoremVerb::test_violation_is_a_finding)
    "concavity.CampaignReport.reproducer",
    # contracts: the abstract target, the slice line of a target that has
    # only evaluate, and the lower factor of the record build_proposal
    # documents (tests reach each)
    "targets.AdditiveTarget.dim",
    "targets.DifferentiableTarget.coordinate_lines",
    "targets.DifferentiableTarget.dim",
    "targets.DifferentiableTarget.evaluate",
    "tangent._ScalarProposal.lower",
}


def test_quick_runs_set_no_key_quick_replaces():
    # --quick would replace such a key, so the run would not be the one its
    # config names (the log-uniform hb run once ran at group_size = 150)
    for verb, config, _, quick in reach.RUNS:
        table = VERBS[verb][1]
        replaced = [key for key in parse_config_text("\n".join(config)) if table[key].quick is not None]
        assert not (quick and replaced), (verb, config)


@pytest.fixture(scope="module")
def report():
    before = sys.gettrace()
    result = reach.measure()
    assert sys.gettrace() is before
    return result


def test_unreached_functions_are_the_expected_set(report):
    unreached = {f"{name.removesuffix('.py')}.{q}" for name, (*_, funcs) in report.items() for q in funcs}
    assert sorted(unreached - EXPECTED) == [], "a function no verb calls"
    assert sorted(EXPECTED - unreached) == [], "a function a verb now calls"


def test_every_module_is_reported(report):
    modules = sorted(p.name for p in Path(reach.tangentmh.__file__).parent.glob("*.py") if p.name != "__init__.py")
    assert list(report) == modules
    for n_lines, n_unreached, _ in report.values():
        assert 0 <= n_unreached <= n_lines
