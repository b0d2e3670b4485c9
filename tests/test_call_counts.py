"""``tools/call_counts.py`` at tiny sizes."""

import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "call_counts.py"
_spec = importlib.util.spec_from_file_location("call_counts", _PATH)
call_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_counts)

TINY = ["--tiny", "--burnin", "4", "--sweeps", "3", "--top", "2"]


def test_every_sampler_of_every_workload(capsys):
    assert call_counts.main(TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"python \S+, numpy \S+, scipy \S+", lines[0])
    totals = [line for line in lines[1:] if not line.startswith(" ")]
    assert [line.split(":")[0] for line in totals] == [
        f"{w} {s}" for w in call_counts.WORKLOADS for s in ("tangent", "slice")
    ]
    for line in totals:
        unit = "cycle" if line.startswith("hb-groups") else "sweep"
        count = re.fullmatch(rf"\S+ \S+: (\S+) calls per {unit} over 3 {unit}s after 4 burn-in", line)
        assert float(count.group(1)) > 0
    # two functions listed under each sampler, none with a type's address
    assert len(lines) == 1 + 3 * len(totals)
    assert " at 0x" not in "".join(lines)


def test_counts_are_exact(capsys):
    # the same seeds give the same counts, run after run
    for _ in range(2):
        assert call_counts.main(TINY + ["--workload", "hb-groups"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[: len(out) // 2] == out[len(out) // 2 :]
