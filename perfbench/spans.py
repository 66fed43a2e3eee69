"""In-memory span tracer that wraps fluctlab's public functions from outside.

The tracer replaces module attributes and class methods while it is active
and restores them afterwards; the program itself carries no tracing code.  A
module function is replaced in every fluctlab module that holds it, so names
that runner, ssb or limit_algebra import are traced too.  Methods of
WindowProfile and TruncatedHierarchy are replaced on the class.

Each call records a span (name, start, end, parent).  Spans stay in memory
until ``layer_metrics`` folds them into per-name totals:

* ``<name>_s``       inclusive time summed over calls,
* ``<name>_self_s``  the same minus the time covered by child spans,
* ``<name>_calls``   number of calls,

plus the counters of the entry's kind (see ``TRACED``).  A cache hit is a
call that returns an array object the same function returned earlier in the
pass and that is still alive; no private cache dict is read.
"""

from __future__ import annotations

import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (span name, "module" or "module:Class", attribute, counter kind)
#   points  -> <name>_points: elements of the returned array
#   tensor  -> hits, scaling.tensor_points (elements of every array returned)
#              and scaling.window_product_bytes (bytes of arrays computed)
#   cached  -> hits only
TRACED = (
    ("config.parse_config", "fluctlab.config", "parse_config", None),
    ("window.make_profile", "fluctlab.window", "make_profile", None),
    ("window.load", "fluctlab.window:WindowProfile", "from_cache_file", None),
    ("window.value", "fluctlab.window:WindowProfile", "value", "points"),
    ("window.fourier_radial", "fluctlab.window:WindowProfile", "fourier_radial", "points"),
    ("models.evaluate", "fluctlab.models:TruncatedHierarchy", "evaluate", "points"),
    ("scaling.qmode_correlator", "fluctlab.scaling", "qmode_correlator", None),
    ("scaling.window_product", "fluctlab.scaling", "window_product", "tensor"),
    ("scaling.window_overlap_1d", "fluctlab.scaling", "window_overlap_1d", "cached"),
    ("scaling.position_space_correlator", "fluctlab.scaling", "position_space_correlator", None),
    ("scaling.weighted_correlator", "fluctlab.scaling", "weighted_correlator", None),
    ("scaling.exponent_sweep", "fluctlab.scaling", "exponent_sweep", None),
    ("scaling.find_critical_alpha", "fluctlab.scaling", "find_critical_alpha", None),
    ("scaling.build_report", "fluctlab.scaling", "build_report", None),
    ("ssb.autocorrelation_growth", "fluctlab.ssb", "autocorrelation_growth", None),
    ("ssb.double_commutator_scaling", "fluctlab.ssb", "double_commutator_scaling", None),
    ("ssb.bogoliubov_check", "fluctlab.ssb", "bogoliubov_check", None),
    ("ssb.gap_conservation_check", "fluctlab.ssb", "gap_conservation_check", None),
    ("ssb.mean_projector_convergence", "fluctlab.ssb", "mean_projector_convergence", None),
    ("limit_algebra.build_limit_state", "fluctlab.limit_algebra", "build_limit_state", None),
    ("limit_algebra.weyl_expectation", "fluctlab.limit_algebra", "weyl_expectation", None),
    ("limit_algebra.ccr_product_check", "fluctlab.limit_algebra", "ccr_product_check", None),
    ("limit_algebra.commutator_criterion", "fluctlab.limit_algebra", "commutator_criterion", None),
    ("partitions.enumerate_pairings", "fluctlab.partitions", "enumerate_pairings", None),
    ("partitions.moments_from_cumulants", "fluctlab.partitions", "moments_from_cumulants", None),
    ("partitions.cumulants_from_moments", "fluctlab.partitions", "cumulants_from_moments", None),
    ("report.canonical_json", "fluctlab.report", "canonical_json", None),
    ("report.emit", "fluctlab.report", "emit", None),
)


class Tracer:
    """Spans and counters of one pass, and the wrappers that record them."""

    def __init__(self):
        self.reset()
        self._undo = []

    def reset(self) -> None:
        """Drop every span and counter (one pass is folded at a time)."""
        self._names, self._parents, self._starts, self._ends = [], [], [], []
        self._stack = []
        self.counts = Counter()
        self._returned = {}

    def span(self, name: str, fn, kind: str | None = None):
        """fn wrapped so that each call records a span called ``name``."""
        def traced(*args, **kwargs):
            idx = len(self._names)
            self._names.append(name)
            self._parents.append(self._stack[-1] if self._stack else -1)
            self._ends.append(0.0)
            self._stack.append(idx)
            self.counts[name + "_calls"] += 1
            self._starts.append(perf_counter())
            try:
                return_value = fn(*args, **kwargs)
            finally:
                self._ends[idx] = perf_counter()
                self._stack.pop()
            if kind is not None:
                self._count(name, kind, return_value)
            return return_value

        return traced

    def _count(self, name, kind, out) -> None:
        if kind == "points":
            self.counts[name + "_points"] += int(np.size(out))
            return
        seen = self._returned.setdefault(name, {})
        ref = seen.get(id(out))
        hit = ref is not None and ref() is out
        if hit:
            self.counts[name + "_hits"] += 1
        else:
            seen[id(out)] = weakref.ref(out)
        if kind == "tensor":
            self.counts["scaling.tensor_points"] += int(out.size)
            if not hit:
                self.counts["scaling.window_product_bytes"] += int(out.nbytes)

    @contextmanager
    def active(self):
        """Install every wrapper in TRACED for the duration of the block."""
        modules = [m for n, m in sys.modules.items()
                   if n == "fluctlab" or n.startswith("fluctlab.")]
        try:
            for name, owner, attr, kind in TRACED:
                module_name, _, class_name = owner.partition(":")
                module = sys.modules[module_name]
                if class_name:
                    cls = getattr(module, class_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self.span(name, raw.__func__, kind))
                    else:
                        wrapped = self.span(name, raw, kind)
                    self._replace(cls, attr, raw, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self.span(name, original, kind)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapped)
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    def _replace(self, owner, attr, original, wrapped) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def layer_metrics(self) -> dict:
        """Per-name totals of the spans and counters recorded since reset."""
        child = [0.0] * len(self._names)
        for idx, parent in enumerate(self._parents):
            if parent >= 0:
                child[parent] += self._ends[idx] - self._starts[idx]
        out = {}
        for name, _, _, kind in TRACED:
            out[f"{name}_s"] = out[f"{name}_self_s"] = 0.0
            out[f"{name}_calls"] = 0
            if kind == "points":
                out[f"{name}_points"] = 0
            elif kind is not None:
                out[f"{name}_hits"] = 0
        out["scaling.tensor_points"] = out["scaling.window_product_bytes"] = 0
        for idx, name in enumerate(self._names):
            duration = self._ends[idx] - self._starts[idx]
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + duration
            out[f"{name}_self_s"] = out.get(f"{name}_self_s", 0.0) + duration - child[idx]
        out.update(self.counts)
        return out
