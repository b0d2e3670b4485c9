"""Span recording around tangentmh's public names, from outside the package.

``Tracer.patched()`` replaces each public function of the sampling layers
with a wrapper that records a span (name, start, end, parent) and puts the
original back on exit.  A function is replaced in every tangentmh module
that bound it at import, e.g. ``tangent_step`` in both ``tangentmh.tangent``
and ``tangentmh.gibbs``; target ``evaluate``/``restrict`` methods are
replaced on their classes.  Spans stay in memory until ``save``.

Not wrapped, because they are off the sampling path: ``tangentmh.trace``,
``tangentmh.concavity``, ``tangentmh.fdiff`` and the CLI.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

from tangentmh import benchmark, diagnostics, gibbs, hb, linalg, slicer, tangent, targets

# layer -> (module, public functions); methods are listed as "Class.method"
WRAPPED = {
    "linalg": (linalg, ["cholesky", "mvn_logpdf", "mvn_sample", "CholeskyFactor.solve",
                        "SymMatrix.__init__", "MvnDistribution.__post_init__"]),
    "tangent": (tangent, ["run_chain", "tangent_step", "build_proposal", "newton_step"]),
    "gibbs": (gibbs, ["run_block_chain", "block_sweep"]),
    "slicer": (slicer, ["slice_gibbs_chain", "slice_sweep", "slice_step_1d"]),
    "hb": (hb, ["hb_gibbs", "draw_upper_coeffs", "draw_precisions"]),
    "benchmark": (benchmark, ["tune_slice_width"]),
    "diagnostics": (diagnostics, ["calibrate", "ess_per_dim", "effective_size"]),
}
TARGET_CLASSES = [targets.LogisticTarget, targets.PoissonLogRateTarget,
                  targets.GaussianPriorTarget, targets.AdditiveTarget]


@contextlib.contextmanager
def replaced(owner, attr: str, make_wrapper, callers=()):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` for the duration of
    the block.  A module-level function is replaced in every tangentmh module
    and every module of ``callers`` that bound it at import; a method (owner
    is a class) only on its class."""
    original = owner.__dict__[attr]
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        targets_ = [owner]
    else:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tangentmh"]
        targets_ = [m for m in modules + list(callers) if m.__dict__.get(attr) is original]
    for t in targets_:
        setattr(t, attr, wrapper)
    try:
        yield wrapper
    finally:
        for t in targets_:
            setattr(t, attr, original)


class Tracer:
    """In-memory span store; names are interned to integer ids."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _wrapper(self, name: str, layer: str):
        """A function turning ``fn`` into a span-recording wrapper."""
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()

            return traced

        return wrap

    @contextlib.contextmanager
    def patched(self, callers=()):
        """Wrap every listed name for the duration of the block (see ``replaced``)."""
        with contextlib.ExitStack() as stack:
            for layer, (module, names) in WRAPPED.items():
                for qual in names:
                    cls_name, _, attr = qual.rpartition(".")
                    owner = getattr(module, cls_name) if cls_name else module
                    stack.enter_context(replaced(owner, attr, self._wrapper(f"{layer}.{qual}", layer), callers))
            for cls in TARGET_CLASSES:
                for meth in ("evaluate", "restrict"):
                    if meth in cls.__dict__:
                        wrap = self._wrapper(f"targets.{cls.__name__}.{meth}", f"targets.{meth}")
                        stack.enter_context(replaced(cls, meth, wrap))
            yield self

    def spans(self) -> dict:
        """Spans as arrays, with each span's self time (duration minus the
        durations of its direct children).  Names and layers stay interned:
        ``name_id`` indexes ``names`` and ``layers``."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
            "names": list(self.names),
            "layers": list(self.layers),
        }

    def save(self, path) -> None:
        s = self.spans()
        np.savez(path, names=np.array(s["names"]), name_id=s["name_id"], start=s["start"],
                 end=s["end"], parent=s["parent"])


def layer_metrics(s: dict, wall: float, tangent_windows, tangent_sweeps: int) -> dict:
    """Per-layer figures from recorded spans; ``wall`` is the traced region,
    ``tangent_windows`` the (entry, exit) times of the tangent sampler calls
    in it and ``tangent_sweeps`` their sweeps."""
    name_id, parent, dur = s["name_id"], s["parent"], s["dur"]
    ids = {n: i for i, n in enumerate(s["names"])}
    layer_ids = {n: i for i, n in enumerate(dict.fromkeys(s["layers"]))}
    layer_of = np.array([layer_ids[n] for n in s["layers"]] + [-1], dtype=np.int64)  # id -1: no parent
    parent_id = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
    layer, parent_layer = layer_of[name_id], layer_of[parent_id]

    def named(name, of=name_id):
        return of == ids.get(name, -2)

    is_eval = np.isin(name_id, [i for n, i in ids.items() if n.endswith(".evaluate")])
    out = {}
    for key in ("linalg", "tangent", "targets.evaluate", "targets.restrict", "gibbs", "slicer"):
        out[f"{key}.self_share"] = float(np.sum(s["self"][layer == layer_ids.get(key, -2)]) / wall)

    linalg_id = layer_ids.get("linalg", -2)
    top_linalg = (layer == linalg_id) & (parent_layer != linalg_id)
    in_tangent = np.zeros(dur.size, dtype=bool)
    for t0, t1 in tangent_windows:
        in_tangent |= (s["start"] >= t0) & (s["start"] <= t1)
    out["linalg.calls_per_sweep"] = float(np.sum(top_linalg & in_tangent) / tangent_sweeps)

    step = named("tangent.tangent_step")
    step_evals = is_eval & named("tangent.tangent_step", parent_id)
    n_steps = int(np.sum(step))
    step_time = float(np.sum(dur[step]))
    out["tangent.overhead_share"] = (step_time - float(np.sum(dur[step_evals]))) / step_time if n_steps else 0.0
    out["tangent.evals_per_step"] = float(np.sum(step_evals) / n_steps) if n_steps else 0.0

    coord = named("slicer.slice_step_1d")
    coord_evals = is_eval & named("slicer.slice_step_1d", parent_id)
    out["slicer.evals_per_coord_update"] = float(np.sum(coord_evals) / max(int(np.sum(coord)), 1))

    for key, name in (("gibbs.block_sweep_us", "gibbs.block_sweep"), ("slicer.slice_sweep_us", "slicer.slice_sweep")):
        sel = named(name)
        out[key] = float(np.mean(dur[sel]) * 1e6) if np.any(sel) else 0.0

    hb_total = float(np.sum(dur[named("hb.hb_gibbs")]))
    conj = float(np.sum(dur[named("hb.draw_upper_coeffs") | named("hb.draw_precisions")]))
    out["hb.conjugate_share"] = conj / hb_total if hb_total else 0.0
    return out
