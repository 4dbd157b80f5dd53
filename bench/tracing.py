"""Span tracing from the benchmark's own code, for the per-layer split.

`install` swaps the public functions named in TARGETS for timing proxies and
puts the originals back when the `with` block ends. A target that no longer
exists is recorded as absent, and the metrics that need it are left out,
so the benchmark keeps running when a layer is moved or deleted.

Spans (name, start, end, parent) stay in memory; `write` saves them as JSON.
A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute path, span name). `splu` is wrapped where each module
# looked it up, and the factor it returns times its `.solve`.
TARGETS = [
    ("riccati_si.ilrsi", "splu", "lu.factor"),
    ("riccati_si.rksm", "splu", "lu.factor"),
    ("riccati_si.shifts", "splu", "lu.factor"),
    ("riccati_si.ilrsi", "ilrsi_init", "ilrsi.init"),
    ("riccati_si.ilrsi", "ilrsi_step", "ilrsi.step"),
    ("riccati_si.ilrsi", "residual_norm", "ilrsi.residual_norm"),
    ("riccati_si.rksm", "adaptive_pole", "shifts.adaptive_pole"),
    ("riccati_si.rksm", "care_solve_dense", "dense.care_solve"),
    ("riccati_si.shifts", "projected_ritz", "shifts.projected_ritz"),
    ("riccati_si.ilrsi", "ResidualTracker.add_step", "tracker.add_step"),
    ("riccati_si.ilrsi", "ResidualTracker.weighted_norm", "tracker.weighted_norm"),
]

# Span names each per-layer metric is computed from; a metric is absent when
# any of them has no installed proxy. Spans opened by the benchmark itself
# (solves, Penzl shifts, problem builds) are always there.
NEEDS = {
    "lu.": {"lu.factor"},
    "shifts.adaptive_pole": {"shifts.adaptive_pole"},
    "shifts.projected_ritz": {"shifts.projected_ritz"},
    "dense.": {"dense.care_solve"},
    "ilrsi.step_self_s": {"ilrsi.init", "ilrsi.step"},
    "ilrsi.qr_update_s": {"tracker.add_step"},
    "ilrsi.residual_s": {"ilrsi.residual_norm"},
    "ilrsi.outside_lu_share": {"lu.factor"},
    "rksm.qr_update_s": {"tracker.add_step"},
    "rksm.residual_s": {"tracker.weighted_norm"},
    "rksm.outside_lu_share": {"lu.factor"},
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for single-threaded code."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.installed = set()
        self.absent = set()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def proxy(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return proxy

    def wrap_splu(self, splu, name):
        @functools.wraps(splu)
        def proxy(M, *args, **kwargs):
            with self.span(name) as record:
                lu = splu(M, *args, **kwargs)
            # SuperLU's stored entries of L and U, and the dtype it factored in
            dtype = np.dtype(M.dtype)
            record.attrs.update(nnz=int(lu.nnz), itemsize=dtype.itemsize,
                                complex=dtype.kind == "c")
            return _TimedFactor(lu, self)
        return proxy

    def write(self, path):
        rows = [[s.name, s.start, s.end, s.parent] for s in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": rows}, f)


class _TimedFactor:
    """A SuperLU factor whose `solve` is timed; everything else passes
    through."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("lu.solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _resolve(module_name, path):
    """(owner, attribute) for a dotted path, or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


@contextlib.contextmanager
def install(tracer):
    """Put timing proxies on TARGETS for the duration of the block."""
    saved = []
    try:
        for module_name, path, name in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                tracer.absent.add(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = tracer.wrap_splu if attr == "splu" else tracer.wrap
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper(original, name))
            tracer.installed.add(name)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _self_times(spans):
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def _solver_of(spans):
    """Per span, "ilrsi" or "rksm" for the solve it runs under, or None."""
    out = []
    for s in spans:
        if s.name in ("ilrsi.solve", "rksm.solve"):
            out.append(s.name.split(".")[0])
        elif s.parent is not None:
            out.append(out[s.parent])
        else:
            out.append(None)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics, per solve, from the recorded spans.

    Times and counts are totals divided by the number of traced solves, so
    runs with different repetition counts compare. Ratios are formed from
    totals. A layer the workload never calls reads 0. Returns
    (metrics as name -> (value, unit), absent names).
    """
    spans = tracer.spans
    self_s = _self_times(spans)
    solver = _solver_of(spans)
    solves = [s for s in spans if s.name in ("ilrsi.solve", "rksm.solve")]
    count = max(len(solves), 1)

    def total(name, within=None, use_self=False):
        return sum(self_s[i] if use_self else s.duration
                   for i, s in enumerate(spans)
                   if s.name == name and (within is None or solver[i] == within))

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    factors = [s for s in spans if s.name == "lu.factor"]
    lu_time = {kind: total("lu.factor", kind) + total("lu.solve", kind)
               for kind in ("ilrsi", "rksm")}
    ends = {kind: [s.attrs for s in solves if s.name == f"{kind}.solve"]
            for kind in ("ilrsi", "rksm")}
    builds = [s.duration for s in spans if s.name == "problems.build"]

    metrics = {
        "lu.factor_s": (total("lu.factor") / count, "s"),
        "lu.factor_calls": (len(factors) / count, "count"),
        "lu.fill_nnz": (sum(s.attrs["nnz"] for s in factors) / count, "count"),
        "lu.factor_mb": (sum(s.attrs["nnz"] * s.attrs["itemsize"] for s in factors)
                         / 1e6 / count, "MB_computed"),
        "lu.complex_share": (_ratio(sum(s.attrs["complex"] for s in factors),
                                    len(factors)), "ratio"),
        "lu.solve_s": (total("lu.solve") / count, "s"),
        "lu.solve_calls": (calls("lu.solve") / count, "count"),
        "lu.reuse_ratio": (_ratio(calls("lu.solve"), len(factors)), "ratio"),
        "shifts.penzl_s": (total("shifts.penzl") / count, "s"),
        "shifts.adaptive_pole_s": (total("shifts.adaptive_pole") / count, "s"),
        "shifts.adaptive_pole_calls": (calls("shifts.adaptive_pole") / count, "count"),
        "shifts.projected_ritz_s": (total("shifts.projected_ritz") / count, "s"),
        "dense.care_solve_s": (total("dense.care_solve") / count, "s"),
        "dense.care_solve_calls": (calls("dense.care_solve") / count, "count"),
        "ilrsi.step_self_s": ((total("ilrsi.init", use_self=True)
                               + total("ilrsi.step", use_self=True)) / count, "s"),
        "ilrsi.qr_update_s": (total("tracker.add_step", "ilrsi") / count, "s"),
        "ilrsi.residual_s": (total("ilrsi.residual_norm") / count, "s"),
        "ilrsi.loop_self_s": (total("ilrsi.solve", use_self=True) / count, "s"),
        "ilrsi.outside_lu_share": (_ratio(total("ilrsi.solve") - lu_time["ilrsi"],
                                          total("ilrsi.solve")), "ratio"),
        "ilrsi.useful_col_share": (_ratio(sum(a["rank"] for a in ends["ilrsi"]),
                                          sum(a["dim"] for a in ends["ilrsi"])), "ratio"),
        "rksm.qr_update_s": (total("tracker.add_step", "rksm") / count, "s"),
        "rksm.residual_s": (total("tracker.weighted_norm", "rksm") / count, "s"),
        "rksm.loop_self_s": (total("rksm.solve", use_self=True) / count, "s"),
        "rksm.outside_lu_share": (_ratio(total("rksm.solve") - lu_time["rksm"],
                                         total("rksm.solve")), "ratio"),
        "rksm.kept_col_share": (_ratio(sum(a["dim"] for a in ends["rksm"]),
                                       sum(a["p"] * a["steps"] for a in ends["rksm"])),
                                "ratio"),
        "problems.build_s": (float(np.median(builds)) if builds else 0.0, "s"),
    }
    missing = {n for needs in NEEDS.values() for n in needs} - tracer.installed
    absent = sorted(name for name in metrics
                    if any(name.startswith(prefix) and needs & missing
                           for prefix, needs in NEEDS.items()))
    for name in absent:
        del metrics[name]
    return metrics, absent
