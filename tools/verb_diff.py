#!/usr/bin/env python3
"""Run each CLI verb on a parent commit and on the working tree, and diff the outputs.

Run from the repository root:

    python3 tools/verb_diff.py --parent HEAD --seed 11
    python3 tools/verb_diff.py --parent HEAD --seed 7 --verb benchmark --verb chain

The parent ref is exported with ``git archive`` to a temporary checkout.
Each verb runs as ``tangentmh VERB --quick --seed N --out DIR`` in a fresh
process, once on the parent's ``src`` and once on the working tree's.  For
every file either side writes, the SHA-256 of both sides is printed.  For
each file that differs, the parsed fields that differ are printed, grouped
by field with row and list indices folded (``ess[]``): how many of the
group's values differ, their largest absolute and relative change, and one
example.  CSV files are read as their ``# key: value`` comment lines plus
one field per column and row; JSON and JSON-lines files as their leaves.

The exit status is 0 when every file is byte-identical, 1 when some file
differs, and 2 when a verb fails on either side.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export_parent  # noqa: E402

VERBS = ("chain", "benchmark", "hb", "theorem", "mixing-scan")
_MAIN = "import sys; from tangentmh.cli import main; sys.exit(main(sys.argv[1:]))"
_MISSING = "<missing>"


def _number(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def parse_fields(name: str, text: str) -> dict:
    """A file's fields as ``{key: value}``; see the module docstring."""
    if name.endswith(".jsonl"):
        return dict(_flatten([json.loads(line) for line in text.splitlines() if line.strip()]))
    if name.endswith(".json"):
        return dict(_flatten(json.loads(text)))
    if name.endswith(".csv"):
        lines = text.splitlines()
        fields = {}
        for line in lines:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                fields[f"#{key.strip()}"] = value.strip()
        rows = list(csv.reader(line for line in lines if not line.startswith("#")))
        header, body = (rows[0], rows[1:]) if rows else ([], [])
        for i, row in enumerate(body):
            for column, value in zip(header, row):
                fields[f"{column}[{i}]"] = _number(value)
        return fields
    return {"<bytes>": text}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff_fields(name: str, old_text: str, new_text: str) -> list[dict]:
    """The differing field groups of two versions of the file ``name``.

    Each group is ``{"field", "n", "n_diff", "max_abs", "max_rel",
    "example"}``: the folded key, its count of values and of differing
    values, the largest absolute and relative change over the differing
    numeric pairs (None if there are none; a non-finite change is inf), and
    the first differing ``(key, old, new)``.  Both sides NaN count as equal.
    """
    old, new = parse_fields(name, old_text), parse_fields(name, new_text)
    groups = {}
    for key in list(old) + [k for k in new if k not in old]:
        a, b = old.get(key, _MISSING), new.get(key, _MISSING)
        group = groups.setdefault(re.sub(r"\[\d+\]", "[]", key), {"n": 0, "n_diff": 0, "max_abs": None,
                                                                   "max_rel": None, "example": None})
        group["n"] += 1
        if a == b or (_is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b)):
            continue
        group["n_diff"] += 1
        if group["example"] is None:
            group["example"] = (key, a, b)
        if _is_number(a) and _is_number(b):
            change = abs(b - a)
            change = math.inf if math.isnan(change) else change
            rel = change / abs(a) if a else math.inf
            group["max_abs"] = max(change, group["max_abs"] or 0.0)
            group["max_rel"] = max(rel, group["max_rel"] or 0.0)
    return [{"field": field, **g} for field, g in groups.items() if g["n_diff"]]


def run_verb(src: Path, verb: str, seed: int, out: Path) -> int:
    cmd = [sys.executable, "-c", _MAIN, verb, "--quick", "--seed", str(seed), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(cmd, env=env, cwd=out.parent, stdout=subprocess.DEVNULL).returncode


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.3g}"


def report(verb: str, parent: Path, change: Path) -> bool:
    """Print one verb's digests and field diffs; True when all files match."""
    print(f"== {verb}")
    same = True
    for name in sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()}):
        sides = [d / name for d in (parent, change)]
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else _MISSING for p in sides]
        equal = digests[0] == digests[1]
        same &= equal
        print(f"  {name}\n    parent {digests[0]}\n    change {digests[1]}  {'same' if equal else 'DIFFERS'}")
        if equal or not all(p.is_file() for p in sides):
            continue
        for g in diff_fields(name, sides[0].read_text(), sides[1].read_text()):
            key, a, b = g["example"]
            print(f"    {g['field']}: {g['n_diff']}/{g['n']} differ, max abs {_fmt(g['max_abs'])}, "
                  f"max rel {_fmt(g['max_rel'])}; e.g. {key}: {a!r} -> {b!r}")
    return same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--verb", action="append", choices=VERBS, help="verb to run (repeatable; default all)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="verb-diff-") as tmp:
        tmp = Path(tmp)
        export_parent(args.parent, tmp / "parent")
        all_same = True
        for verb in args.verb or VERBS:
            outs = {side: tmp / f"{side}-{verb}" for side in ("parent", "change")}
            for side, src in (("parent", tmp / "parent" / "src"), ("change", ROOT / "src")):
                status = run_verb(src, verb, args.seed, outs[side])
                if status != 0:
                    print(f"{verb} exited {status} on the {side} side", file=sys.stderr)
                    return 2
            all_same &= report(verb, outs["parent"], outs["change"])
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
