"""The CLI's error contract on drawn configs: every verb either runs, or
ends as one ``error:`` line with exit status 2 and no output directory.

Each example draws 2-4 keys of one verb's settings table, with edge
values: counts from 0-3 and 1e300 (past int64), numbers from +-1e308,
1e-300, +-0.5, -800 and 710 (past ``exp``'s range), the allowed strings
of a choice, and a missing file for a path.  The verb runs in-process
under ``--quick`` with every warning an error.  The draws are
derandomized, so a run is the same run after run.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tangentmh.cli import VERBS, main

COUNTS = st.sampled_from([0, 1, 2, 3, 1e300])
NUMBERS = st.sampled_from([1e308, -1e308, 1e-300, 0.5, -0.5, -800, 710])

# a benchmark or hb run takes up to about a second at --quick sizes
EXAMPLES = {"chain": 200, "benchmark": 45, "hb": 30, "theorem": 100, "mixing-scan": 100}


def values(kind):
    """The values drawn for a setting of ``kind`` (see ``cli.Key``)."""
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind == "path":
        return st.just("missing.csv")
    one = COUNTS if kind.startswith("count") else NUMBERS
    if kind.endswith(" list"):
        return st.one_of(one, st.lists(one, min_size=2, max_size=3))
    return one


def config_line(key, value):
    entries = value if isinstance(value, list) else [value]
    return f"{key} = {', '.join(str(v) for v in entries)}\n"


@pytest.mark.parametrize("verb", list(VERBS))
def test_runs_or_refuses_in_one_line(verb):
    table = VERBS[verb][1]

    @settings(max_examples=EXAMPLES[verb], derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        keys = data.draw(st.lists(st.sampled_from(list(table)), min_size=2, max_size=4, unique=True))
        config = {key: data.draw(values(table[key].kind), label=key) for key in keys}
        config.setdefault("seed", 3)
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "c.cfg", Path(tmp) / "o"
            cfg.write_text("".join(config_line(k, v) for k, v in config.items()))
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                status = main([verb, "--config", str(cfg), "--quick", "--out", str(out)])
            err = err.getvalue()
            assert status in (0, 2), (status, err)
            if status == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert not out.exists()

    check()
