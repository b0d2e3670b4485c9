#!/usr/bin/env python3
"""Which lines and functions of ``src/tangentmh`` the CLI verbs reach.

Run from the repository root (no flags):

    python3 tools/reach.py

Every run of ``RUNS`` goes in-process through ``tangentmh.cli.main`` at
``--seed 7`` under ``sys.settrace``, with its outputs in a temporary
directory and its console lines discarded.  The runs are each ``chain``
target with each sampler (the logistic runs read a data file written
from ``DATA_SEED``), ``chain`` on a 1-D Gaussian, ``hb`` at its defaults
and with log-uniform group sizes, ``benchmark``, ``theorem`` and
``mixing-scan``, and one bad-input run per failure family: a Newton
burn-in that leaves the log-concave region (``HessianNotNegativeDefinite``)
and a prior precision with no Cholesky factor (``NotPositiveDefinite``).
Each runs at ``--quick``, except the log-uniform ``hb`` run: ``--quick``
would replace its ``group_size = 0``, so it sets small sizes itself.  A
run that exits with another status than its listed one stops the tool.

Executable lines are the lines of function bodies, lambdas and
comprehensions included, as their code objects list them; module and
class bodies, and the comprehensions in them, run at import and are not
counted.  For each module the tool prints its executable and unreached
line counts, then each named function that was never called, by
qualified name; a function nested in another that was never called is
not listed apart.  Nothing here reads a clock, so the output is exact:
the same on every machine and every run.  The line counts follow the
interpreter's line tables, which differ between Python versions.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import pkgutil
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import tangentmh  # noqa: E402
from tangentmh.cli import main as cli_main  # noqa: E402

# the logistic runs' data: N_ROWS rows of three standard-normal covariates
# and responses drawn from TRUE_BETA, a full-rank design that does not separate
DATA_SEED = 2026
N_ROWS = 200
TRUE_BETA = (0.5, -1.0, 0.8)
# the code-object flag that functions have and class bodies lack
CO_NEWLOCALS = 0x2

# (verb, config lines, expected exit status, run at --quick); "{data}" is
# the data file.  A --quick run sets no key that --quick replaces
RUNS = [
    *(("chain", [f"target = {target}", f"sampler = {sampler}", "data = {data}" if target == "logistic" else ""],
       0, True)
      for target in ("poisson", "replicated-poisson", "gaussian", "logistic") for sampler in ("tangent", "slice")),
    ("chain", ["target = gaussian", "dim = 1"], 0, True),
    ("hb", [], 0, True),
    ("hb", ["group_size = 0", "n_groups = 3", "n_coeffs = 3", "n_burnin = 20", "n_samples = 20"], 0, False),
    ("benchmark", [], 0, True),
    ("theorem", [], 0, True),
    ("mixing-scan", [], 0, True),
    ("chain", ["x0 = -20"], 2, True),
    ("chain", ["target = gaussian", "precision = -1"], 2, True),
]


def write_data(path: Path) -> None:
    """The logistic runs' headered CSV, drawn from ``DATA_SEED``."""
    rng = random.Random(DATA_SEED)
    lines = ["y,x1,x2,x3"]
    for _ in range(N_ROWS):
        x = [rng.gauss(0.0, 1.0) for _ in TRUE_BETA]
        t = sum(b * v for b, v in zip(TRUE_BETA, x))
        y = int(rng.random() * (1.0 + math.exp(-t)) < 1.0)
        lines.append(",".join([str(y)] + [repr(v) for v in x]))
    path.write_text("\n".join(lines) + "\n")


def module_paths() -> dict:
    """The source path of every module of the package, imported, by file name."""
    names = sorted(info.name for info in pkgutil.iter_modules(tangentmh.__path__))
    return {f"{name}.py": importlib.import_module(f"tangentmh.{name}").__file__ for name in names}


def functions(path: str) -> list:
    """``(qualname, first line, lines, enclosing)`` of each function code
    object compiled from ``path``, ``enclosing`` the first line of the
    named function it is nested in (None at top level or in a class).
    Lambdas and comprehensions are listed with an empty qualname: they are
    part of their enclosing function."""
    out = []

    def walk(code, enclosing):
        for const in code.co_consts:
            if not hasattr(const, "co_lines"):
                continue
            if not const.co_flags & CO_NEWLOCALS:  # a class body
                walk(const, enclosing)
                continue
            named = not const.co_name.startswith("<")
            if enclosing is None and not named and const.co_name != "<lambda>":
                continue  # a comprehension of a module or class body runs at import
            lines = {line for *_, line in const.co_lines() if line is not None}
            out.append((const.co_qualname if named else "", const.co_firstlineno, lines, enclosing))
            walk(const, const.co_firstlineno if named else enclosing)

    walk(compile(Path(path).read_text(), path, "exec", dont_inherit=True), None)
    return out


def traced_runs(files: set) -> tuple[set, set]:
    """Run ``RUNS`` under ``sys.settrace``: the ``(file, line)`` pairs
    executed and the ``(file, first line)`` of each function called in
    ``files``.  The trace function in place before is put back."""
    lines, calls = set(), set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            calls.add((code.co_filename, code.co_firstlineno))
            lines.add((code.co_filename, code.co_firstlineno))
            return local
        return None

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_data(tmp / "data.csv")
        for i, (verb, config, expected, quick) in enumerate(RUNS):
            cfg = tmp / f"run{i}.cfg"
            cfg.write_text("".join(line.format(data=tmp / "data.csv") + "\n" for line in config))
            argv = [verb, "--config", str(cfg), "--seed", "7", "--out", str(tmp / f"out{i}")] + ["--quick"] * quick
            before = sys.gettrace()
            sys.settrace(tracer)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    status = cli_main(argv)
            finally:
                sys.settrace(before)
            if status != expected:
                raise SystemExit(f"reach: {verb} {config} exited {status}, expected {expected}: {err.getvalue()}")
    return lines, calls


def measure() -> dict:
    """Per module file name: ``(executable lines, unreached lines,
    unreached function qualnames)``."""
    paths = module_paths()
    lines, calls = traced_runs(set(paths.values()))
    report = {}
    for name, path in paths.items():
        funcs = functions(path)
        executable = set().union(*(f[2] for f in funcs))
        reached = {line for file, line in lines if file == path}
        called = {first for file, first in calls if file == path}
        # a never-called function nested in another never-called one goes unlisted
        unreached = sorted(
            qualname for qualname, first, _, enclosing in funcs
            if qualname and first not in called and (enclosing is None or enclosing in called)
        )
        report[name] = (len(executable), len(executable - reached), unreached)
    return report


def main() -> int:
    report = measure()
    for name, (n_lines, n_unreached, funcs) in report.items():
        print(f"{name}: {n_lines} executable lines, {n_unreached} unreached, {len(funcs)} functions never called")
        for qualname in funcs:
            print(f"  {qualname}")
    total = sum(r[0] for r in report.values()), sum(r[1] for r in report.values())
    print(f"total: {total[0]} executable lines, {total[1]} unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
