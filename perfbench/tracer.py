"""Layer spans for the traced benchmark pass, recorded from outside the program.

``Tracer.install`` wraps the public functions of each layer and rebinds every
module attribute of the loaded ``nterm`` modules that holds the original, so
``greedy.batch_evaluator``, ``batch.square_function``, the ``cli`` and
``experiments`` imports and the ``nterm`` package re-exports all go through
the wrapper. ``BatchNorm.norms`` and ``Cube.ancestor`` are patched on their
classes; ``Cube.ancestor`` is counted without a span, since it runs millions
of times per pass.

A span records (name, start, end, parent span, job id); spans stay in memory
and are written out after the pass. A span's self time is its duration minus
the durations of its direct children.
"""
from __future__ import annotations

import gzip
import importlib
import itertools
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name)
SPANS = (
    ("nterm.spaces", "square_function", "spaces.square_function"),
    ("nterm.spaces", "bmo_norm", "spaces.bmo_norm"),
    ("nterm.spaces", "space_norm", "spaces.space_norm"),
    ("nterm.spaces", "lp_step_norm", "spaces.lp_step_norm"),
    ("nterm.spaces", "lorentz_step_norm", "spaces.lorentz_step_norm"),
    ("nterm.spaces", "orlicz_luxemburg_norm", "spaces.orlicz_luxemburg_norm"),
    ("nterm.lorentz", "lorentz_norm", "lorentz.lorentz_norm"),
    ("nterm.batch", "batch_evaluator", "batch.build"),
    ("nterm._kernels", "subset_sums", "kernels.subset_sums"),
    ("nterm._kernels", "extrema_by_popcount", "kernels.extrema_by_popcount"),
    ("nterm.greedy", "sigma_profile", "greedy.sigma_profile"),
    ("nterm.greedy", "gamma_profile", "greedy.gamma_profile"),
    ("nterm.democracy", "h_exhaustive", "democracy.h_exhaustive"),
    ("nterm.democracy", "h_structured", "democracy.h_structured"),
    ("nterm.democracy", "property_h_check", "democracy.property_h_check"),
    ("nterm.experiments", "prop71_witness", "experiments.prop71_witness"),
    ("nterm.experiments", "stechkin_check", "experiments.stechkin_check"),
    ("nterm.experiments", "nonlinearity_demo", "experiments.nonlinearity_demo"),
    ("nterm.experiments", "jackson_verifier", "experiments.jackson_verifier"),
    ("nterm.cli", "main", "cli.main"),
)
# bindings the rebinding must reach; install() fails loudly if one is missed
REQUIRED_BINDINGS = (
    ("nterm.greedy", "batch_evaluator"),
    ("nterm.democracy", "batch_evaluator"),
    ("nterm.batch", "square_function"),
    ("nterm.cli", "sigma_profile"),
    ("nterm.cli", "gamma_profile"),
    ("nterm.cli", "space_norm"),
    ("nterm.cli", "lorentz_norm"),
    ("nterm.cli", "property_h_check"),
    ("nterm.cli", "prop71_witness"),
    ("nterm.cli", "stechkin_check"),
    ("nterm.cli", "nonlinearity_demo"),
    ("nterm.cli", "jackson_verifier"),
    ("nterm.experiments", "sigma_profile"),
    ("nterm.experiments", "gamma_profile"),
    ("nterm.experiments", "h_structured"),
    ("nterm.experiments", "lorentz_norm"),
)
# spans reported as calls and self time
CALL_SPANS = ("spaces.square_function", "spaces.bmo_norm", "spaces.space_norm",
              "lorentz.lorentz_norm", "batch.norms", "greedy.sigma_profile",
              "greedy.gamma_profile", "democracy.h_exhaustive", "democracy.h_structured",
              "cli.main")
SELF_ONLY = ("spaces.lp_step_norm", "spaces.lorentz_step_norm",
             "spaces.orlicz_luxemburg_norm", "democracy.property_h_check",
             "kernels.subset_sums", "kernels.extrema_by_popcount")
EXPERIMENTS = ("prop71_witness", "stechkin_check", "nonlinearity_demo", "jackson_verifier")
ROW_FLAGS = ("exact", "greedy", "sampled")

# per-layer metrics that must be nonzero on a workload (the layers it exists to
# drive), and those that must stay zero
COVERAGE = {
    "deep-scalar": (
        "indices.ancestor_calls", "spaces.square_function.calls",
        "spaces.bmo_norm.calls", "spaces.space_norm.calls",
        "spaces.lp_step_norm.self_s", "spaces.lorentz_step_norm.self_s",
        "spaces.orlicz_luxemburg_norm.self_s", "democracy.h_structured.calls",
        "democracy.property_h_check.self_s",
    ),
    "exact-sweep": (
        "batch.builds", "batch.norms.calls", "kernels.subset_sums.self_s",
        "kernels.extrema_by_popcount.self_s", "greedy.sigma_profile.calls",
        "greedy.gamma_profile.calls", "democracy.h_exhaustive.calls",
    ),
    "cli-greedy": (
        "spaces.square_function.calls", "spaces.element_norm.hit_ratio",
        "lorentz.lorentz_norm.calls", "batch.builds", "greedy.sigma_profile.calls",
        "greedy.gamma_profile.calls", "experiments.prop71_witness.s",
        "experiments.stechkin_check.s", "experiments.nonlinearity_demo.s",
        "experiments.jackson_verifier.s", "cli.main.calls",
    ),
}
MUST_BE_ZERO = {"deep-scalar": ("batch.norms.rows",)}


def _rows(masks):
    return int(np.shape(masks)[0])


def _nonfinite(values):
    return int(np.count_nonzero(~np.isfinite(np.asarray(values, dtype=float))))


def _profile_rows(counters, prof):
    for flag in prof.flags:
        counters[f"greedy.rows.{flag}"] += 1


# span name -> (counters, args, result) -> None
HOOKS = {
    "spaces.square_function": lambda c, a, out: c.update(
        {"spaces.square_function.atoms": len(out)}),
    "batch.norms": lambda c, a, out: c.update(
        {"batch.norms.rows": _rows(a[1]), "batch.nonfinite": _nonfinite(out)}),
    "kernels.subset_sums": lambda c, a, out: c.update({"kernels.masks": len(out)}),
    "greedy.sigma_profile": lambda c, a, out: _profile_rows(c, out),
    "greedy.gamma_profile": lambda c, a, out: _profile_rows(c, out),
    "democracy.h_exhaustive": lambda c, a, out: c.update(
        {"democracy.subsets": math.comb(len(a[1]), a[2])}),
}


class Tracer:
    """Records spans and counters around the program's layer boundaries."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, job id)
        self.counters = Counter()
        self.job = None
        self._stack = []
        self._undo = []
        self._ancestor_calls = itertools.count()

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, tracer.job)
            if hook is not None:
                hook(counters, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def run_job(self, job_id, fn):
        self.job = job_id
        try:
            return self.wrap("job", fn)()
        finally:
            self.job = None

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer function and rebind each module's reference."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "nterm" or n.startswith("nterm.")) and m is not None]
        for mod_name, attr, name in SPANS:
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapped = self.wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        for mod_name, attr in REQUIRED_BINDINGS:
            if not hasattr(getattr(sys.modules[mod_name], attr), "__wrapped__"):
                raise RuntimeError(f"tracer missed the binding {mod_name}.{attr}")

        from nterm.batch import BatchNorm
        from nterm.cli import _atomic_write
        from nterm.indices import Cube

        self._set(BatchNorm, "norms", self.wrap("batch.norms", BatchNorm.norms))
        ancestor, tick = Cube.ancestor, self._ancestor_calls

        def counted_ancestor(cube, level):
            next(tick)
            return ancestor(cube, level)

        self._set(Cube, "ancestor", counted_ancestor)
        counters = self.counters
        cli = sys.modules["nterm.cli"]

        def counted_write(path, data):
            counters["cli.bytes_written"] += len(data.encode())
            return _atomic_write(path, data)

        self._set(cli, "_atomic_write", counted_write)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reduction ---------------------------------------------------------

    def span_stats(self):
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            s = stats[name]
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - child[i]
        return stats

    def layer_metrics(self, element_cache_info):
        """The per-layer metrics of this pass, every one present (0 if unused)."""
        stats = self.span_stats()
        c = self.counters
        # itertools.count has no reader: the next value is the number of calls
        m = {"indices.ancestor_calls": next(self._ancestor_calls)}
        for name in CALL_SPANS:
            m[f"{name}.calls"] = stats[name][0]
            m[f"{name}.self_s"] = stats[name][2]
        for name in SELF_ONLY:
            m[f"{name}.self_s"] = stats[name][2]
        m["spaces.square_function.atoms"] = c["spaces.square_function.atoms"]
        lookups = element_cache_info.hits + element_cache_info.misses
        m["spaces.element_norm.hit_ratio"] = (
            element_cache_info.hits / lookups if lookups else 0.0)
        m["batch.builds"] = stats["batch.build"][0]
        m["batch.build_s"] = stats["batch.build"][1]
        rows = c["batch.norms.rows"]
        calls, _, busy = stats["batch.norms"]
        m["batch.norms.rows"] = rows
        m["batch.norms.rows_per_s"] = rows / busy if busy else 0.0
        m["batch.norms.rows_per_call"] = rows / calls if calls else 0.0
        m["batch.nonfinite"] = c["batch.nonfinite"]
        m["kernels.masks"] = c["kernels.masks"]
        for flag in ROW_FLAGS:
            m[f"greedy.rows.{flag}"] = c[f"greedy.rows.{flag}"]
        m["democracy.subsets"] = c["democracy.subsets"]
        for exp in EXPERIMENTS:
            m[f"experiments.{exp}.s"] = stats[f"experiments.{exp}"][1]
        m["cli.bytes_written"] = c["cli.bytes_written"]
        return m

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, job]) + "\n")


def unit_of(name):
    if name.endswith("rows_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("hit_ratio", "rows_per_call")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def coverage_failures(workload, metrics):
    """Names of per-layer metrics that break the workload's coverage rule."""
    bad = [f"{name} is 0" for name in COVERAGE[workload] if not metrics[name]]
    bad += [f"{name} is {metrics[name]}, expected 0"
            for name in MUST_BE_ZERO.get(workload, ()) if metrics[name]]
    return bad
