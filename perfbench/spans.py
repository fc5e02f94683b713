"""Span recording for the traced benchmark run, and the per-layer metrics built from it.

Nothing under ``src/`` knows about tracing. In a traced run the benchmark
replaces each public function of the package at the place its caller binds it
(``kernels.feature_map_states``, the ``GramCache`` methods,
``boosted_qsvm.train_weighted_svm``, ...) with a shim that records a span
around the call, and puts the originals back afterwards. Spans stay in memory
until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from qsvm_boost import boosted_qsvm, datasets, experiment, kernels, svm_solver

# boost.stop.<reason> is reported for each of these, zero when unseen
STOP_REASONS = ("perfect", "worse_than_random", "max_reached", "maps_exhausted")
SMO_C_SPLIT = (1.0, 10.0, 100.0)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int  # identifier shared by every span of one benchmark operation
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans of one single-threaded run, in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, self.op, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "attrs": s.attrs,
                }, default=float) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover.

    Children are clipped to the parent's interval and overlaps between them
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for a, b in sorted(children[i]):
            lo, hi = max(a, cursor), min(b, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


# --- shims ---

def _shim(tracer: Tracer, name: str, fn, attrs_of=None):
    """Wrap fn so each call records a span; attrs_of(bound_args, result) adds attributes."""
    signature = inspect.signature(fn) if attrs_of else None

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs_of is not None:
            # a child span of the caller, so the caller's self time leaves it out
            with tracer.span("trace.attrs"):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(attrs_of(bound.arguments, result))
        return result

    return shim


def _sim_attrs(_args, states):
    return {"rows": int(states.shape[0]), "state_bytes": int(states.nbytes)}


def _gram_attrs(_args, gram):
    return {"bytes": int(gram.values.nbytes)}


def _csv_attrs(args, _result):
    return {"bytes": os.path.getsize(args["path"])}


def kkt_gap(K: np.ndarray, labels: np.ndarray, dual_coefs: np.ndarray, upper: np.ndarray) -> float:
    """Maximal KKT violation of a returned dual, as the solver's own stopping test defines it."""
    t = 2.0 * np.asarray(labels, dtype=float) - 1.0
    alpha = dual_coefs * t
    neg_e = t - K @ dual_coefs
    up = ((t > 0) & (alpha < upper)) | ((t < 0) & (alpha > 0))
    low = ((t < 0) & (alpha < upper)) | ((t > 0) & (alpha > 0))
    if not up.any() or not low.any():
        return 0.0
    return max(0.0, float(neg_e[up].max() - neg_e[low].min()))


def _smo_attrs(args, model):
    gram = args["gram"]
    K = gram.values if hasattr(gram, "values") else np.asarray(gram, dtype=float)
    y = np.asarray(args["labels"])
    attrs = {"C": float(args["C"]), "converged": bool(model.converged), "degenerate": bool(model.degenerate)}
    if not model.degenerate:
        w = np.ones(len(y)) if args["weights"] is None else np.asarray(args["weights"], dtype=float)
        t = 2.0 * y - 1.0
        attrs["kkt_gap"] = kkt_gap(K, y, model.dual_coefs, float(args["C"]) * w)
        attrs["dual_obj"] = svm_solver.dual_objective(K, y, model.dual_coefs * t)
    return attrs


def _boost_attrs(_args, ensemble):
    return {
        "rounds": len(ensemble.rounds),
        "pruned": int(ensemble.pruned_length),
        "stop": ensemble.stop_reason,
    }


class _JsonProxy:
    """Stands in for the ``json`` module inside ``experiment`` so bundle writes are timed."""

    def __init__(self, tracer: Tracer):
        self.dump = _shim(tracer, "study.io", json.dump)

    def __getattr__(self, name):
        return getattr(json, name)


def _bindings(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every shim of a traced run."""
    table = [
        (kernels, "feature_map_states", "sim", _sim_attrs),
        (kernels, "gram_matrix", "gram.build", _gram_attrs),
        (kernels, "rbf_gram", "gram.build", _gram_attrs),
        (kernels, "linear_gram", "gram.build", _gram_attrs),
        (kernels.GramCache, "fidelity", "gram.lookup", None),
        (kernels.GramCache, "rbf", "gram.lookup", None),
        (kernels.GramCache, "linear", "gram.lookup", None),
        (boosted_qsvm, "train_weighted_svm", "smo", _smo_attrs),
        (experiment, "train_weighted_svm", "smo", _smo_attrs),
        (boosted_qsvm, "predict", "svm.decision", None),
        (experiment, "predict", "svm.decision", None),
        (boosted_qsvm, "grid_search_best", "grid", None),
        (experiment, "grid_search_best", "grid", None),
        (boosted_qsvm, "fit_boosted", "boost", _boost_attrs),
        (experiment, "fit_boosted", "boost", _boost_attrs),
        (boosted_qsvm, "prune_by_validation", "boost.prune", None),
        (boosted_qsvm, "predict_ensemble_batch", "vote", None),
        (experiment, "predict_ensemble_batch", "vote", None),
        (datasets, "make_moons", "data.gen", None),
        (datasets, "split_and_scale", "data.split", None),
        (experiment, "split_and_scale", "data.split", None),
        (experiment, "dataset_to_csv", "data.csv", _csv_attrs),
        (experiment, "write_records_csv", "study.io", None),
    ]
    # a binding that a later version of the package drops is skipped, not an error
    out = [(owner, attr, _shim(tracer, name, getattr(owner, attr), attrs_of))
           for owner, attr, name, attrs_of in table if hasattr(owner, attr)]
    generators = {k: _shim(tracer, "data.gen", fn) for k, fn in experiment.GENERATORS.items()}
    out.append((experiment, "GENERATORS", generators))
    out.append((experiment, "json", _JsonProxy(tracer)))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer | None):
    """Install the shims for the duration of the block; a no-op for ``None``."""
    if tracer is None:
        yield
        return
    saved = []
    try:
        for owner, attr, replacement in _bindings(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics ---

def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the quantum_sim, kernels, svm_solver, boosted_qsvm and datasets layers."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name, own=True):
        return float(sum(selfs[i] if own else spans[i].duration for i in by_name[name]))

    def attr_sum(name, key):
        return float(sum(spans[i].attrs.get(key, 0) for i in by_name[name]))

    lookups = len(by_name["gram.lookup"])
    cached = [i for i in by_name["gram.build"]
              if spans[i].parent is not None and spans[spans[i].parent].name == "gram.lookup"]
    fits = [spans[i] for i in by_name["smo"]]
    fit_ms = [s.duration * 1e3 for s in fits]
    solved = [s for s in fits if "kkt_gap" in s.attrs]
    unconverged = sum(1 for s in fits if not s.attrs["converged"])
    boosts = [spans[i] for i in by_name["boost"]]
    stops = Counter(s.attrs["stop"] for s in boosts)

    m = {
        "sim.calls": float(len(by_name["sim"])),
        "sim.rows": attr_sum("sim", "rows"),
        "sim.self_s": total("sim"),
        "sim.state_bytes": attr_sum("sim", "state_bytes"),
        "gram.builds": float(len(cached)),
        "gram.hits": float(lookups - len(cached)),
        "gram.hit_ratio": (lookups - len(cached)) / lookups if lookups else 0.0,
        "gram.build_self_s": total("gram.build"),
        "gram.lookup_s": total("gram.lookup"),
        "gram.cached_bytes": float(sum(spans[i].attrs["bytes"] for i in cached)),
        "smo.fits": float(len(fits)),
        "smo.self_s": total("smo"),
        "smo.fit_ms_p50": _pct(fit_ms, 50),
        "smo.fit_ms_p99": _pct(fit_ms, 99),
        "smo.unconverged": float(unconverged),
        "smo.unconverged_ratio": unconverged / len(fits) if fits else 0.0,
        "smo.kkt_gap_max": max((s.attrs["kkt_gap"] for s in solved), default=0.0),
        "smo.dual_obj_sum": float(sum(s.attrs["dual_obj"] for s in solved)),
        "svm.decision_s": total("svm.decision"),
        "grid.rounds": float(len(by_name["grid"])),
        "grid.round_s_p50": _pct([spans[i].duration for i in by_name["grid"]], 50),
        "grid.self_s": total("grid"),
        "boost.fits": float(len(boosts)),
        "boost.rounds": float(sum(s.attrs["rounds"] for s in boosts)),
        "boost.pruned_mean": float(np.mean([s.attrs["pruned"] for s in boosts])) if boosts else 0.0,
        "boost.prune_s": total("boost.prune", own=False),
        "vote.self_s": total("vote"),
        "data.gen_s": total("data.gen", own=False),
        "data.split_s": total("data.split", own=False),
        "data.csv_s": total("data.csv", own=False),
        "data.csv_bytes": attr_sum("data.csv", "bytes"),
        "study.io_s": total("study.io", own=False),
    }
    for C in SMO_C_SPLIT:
        m[f"smo.s_c{C:g}"] = float(sum(selfs[i] for i in by_name["smo"] if spans[i].attrs["C"] == C))
    for reason in STOP_REASONS:
        m[f"boost.stop.{reason}"] = float(stops[reason])
    return m
