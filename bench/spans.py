"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: :func:`rebind` rebinds the
names that one ``vexmart`` module imported from another (for example
``vexmart.bmo.luxemburg_norm``) and the package-level re-exports the
benchmark itself calls, so every call that crosses a module boundary passes
through a wrapper.  A call that stays inside its own module is not a span
and counts toward the caller's self time.  Spans live in memory until the
run ends; :func:`layer_metrics` then turns them into per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np


def _space_label(space) -> str:
    n, d = space.n_leaves, space.depth
    if n == 2**d:
        return f"dyadic-{d}"
    if n == 3**d:
        return f"3ary-{d}"
    return f"{n}leaves-{d}"


# Hooks read the deterministic counts of one call from the function, its
# arguments and its result: they return (counts, tag), where the tag splits
# per-call timings.
def _luxemburg_hook(fn, args, kwargs, res):
    return {"iterations": res.iterations, "max_residual": res.residual}, None


def _rows_hook(fn, args, kwargs, res):
    return {"rows": int(np.shape(res)[0])}, None


def _cells_hook(fn, args, kwargs, res):
    return {"cells": int(np.size(res))}, None


def _bmo_hook(fn, args, kwargs, res):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    space = bound.arguments["f"].space
    counts = {"candidates": res.candidates}
    if res.mode == "sampled":
        counts["sampled_candidates"] = res.candidates
        counts["sampled_slots"] = bound.arguments["samples"] + space.depth + 1
    return counts, _space_label(space)


def _decompose_hook(fn, args, kwargs, res):
    return {"terms": len(res.terms)}, f"d{args[0].space.depth}"


def _bytes_hook(fn, args, kwargs, res):
    return {"bytes": len(res.encode("utf-8"))}, None


# (span name, defining module, attribute, hook, rebind in the defining
# module too).  The last flag is set where callers reach the function
# through the module object (``cli`` calls ``serialize.dumps``; the
# benchmark calls ``vexmart.cli.run``), so no imported name exists, or
# through a module global of its own module (``bmo_norm`` calls
# ``candidate_matrix``).
ENTRY_POINTS = (
    ("space.validate_filtration", "space", "validate_filtration", None, False),
    ("space.condition_k", "space", "condition_k", None, False),
    ("space.build", "space", "build_dyadic_space", None, False),
    ("space.build", "space", "build_mary_space", None, False),
    ("varlp.luxemburg_norm", "varlp", "luxemburg_norm", _luxemburg_hook, False),
    ("varlp.norm_batch", "varlp", "norm_batch", _rows_hook, False),
    ("varlp.modular", "varlp", "modular", None, False),
    ("martingale.enumerate_stopping_matrix", "martingale",
     "enumerate_stopping_matrix", _rows_hook, False),
    ("martingale.sample_stopping_times", "martingale",
     "sample_stopping_times", None, False),
    ("martingale.stopped_terminal_diffs", "martingale",
     "stopped_terminal_diffs", _cells_hook, False),
    ("martingale.stop", "martingale", "stop", None, False),
    ("martingale.martingale_from_terminal", "martingale",
     "martingale_from_terminal", None, False),
    ("martingale.cond_square", "martingale", "cond_square", None, False),
    ("martingale.maximal", "martingale", "maximal", None, False),
    ("bmo.bmo_norm", "bmo", "bmo_norm", _bmo_hook, False),
    ("bmo.candidate_matrix", "bmo", "candidate_matrix", None, True),
    ("hardy.atomic_decompose", "hardy", "atomic_decompose", _decompose_hook, False),
    ("hardy.reconstruct", "hardy", "reconstruct", None, False),
    ("hardy.is_atom", "hardy", "is_atom", None, False),
    ("hardy.a_quantity", "hardy", "a_quantity", None, False),
    ("hardy.hs_norm", "hardy", "hs_norm", None, False),
    ("experiments.exp_jn_curve", "experiments", "exp_jn_curve", None, False),
    ("experiments.weak_type_check", "experiments", "weak_type_check", None, False),
    ("experiments.doob_strong_check", "experiments", "doob_strong_check", None, False),
    ("experiments.lemma34_check", "experiments", "lemma34_check", None, False),
    ("experiments.violation_33_search", "experiments", "violation_33_search",
     None, False),
    ("serialize.space_from_json", "serialize", "space_from_json", None, True),
    ("serialize.dumps", "serialize", "dumps", _bytes_hook, True),
    ("cli.run", "cli", "run", None, True),
)

EXPONENT_BOUNDS = "space.exponent_bounds"


class Recorder:
    """In-memory spans: parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.tags: list[str | None] = []
        self.counts: list[dict | None] = []
        self._stack: list[int] = []
        self.op_id = -1

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.tags.append(None)
        self.counts.append(None)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                self.counts[sid], self.tags[sid] = hook(fn, args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced


def _vexmart_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "vexmart" or name.startswith("vexmart."))]


def bindings(rec: Recorder) -> list[tuple]:
    """Every (object, name, original, wrapper) that tracing rebinds."""
    modules = _vexmart_modules()
    out = []
    for name, modname, attr, hook, owner_too in ENTRY_POINTS:
        home = sys.modules[f"vexmart.{modname}"]
        fn = getattr(home, attr)
        wrapped = rec.wrap(name, fn, hook)
        for mod in modules:
            if mod is home and not owner_too:
                continue
            for key, val in vars(mod).items():
                if val is fn:
                    out.append((mod, key, fn, wrapped))
    exponent = sys.modules["vexmart.space"].Exponent
    for attr in ("p_minus", "p_plus"):
        fn = exponent.__dict__[attr]
        out.append((exponent, attr, fn, rec.wrap(EXPONENT_BOUNDS, fn, None)))
    return out


def rebind(binds: list[tuple], traced: bool) -> None:
    """Switch every entry point to its wrapper, or back."""
    for obj, key, fn, wrapped in binds:
        setattr(obj, key, wrapped if traced else fn)


# (name, unit) of every per-layer metric, in the order of BENCHMARK.json
with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json",
          encoding="utf-8") as _fh:
    PER_LAYER = [(m["name"], m["unit"]) for m in json.load(_fh)["per_layer"]]

# Metrics that depend only on the inputs, never on the clock.
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER
    if unit in ("count", "iters")
    or name in ("varlp.luxemburg_norm.max_residual",
                "bmo.indicator_solves_per_candidate",
                "bmo.sampled_unique_frac")
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.  Spans of the timed ops
    (op id >= 0) feed every metric except ``space.build``, which is only
    called while setting up (op id -1)."""
    n = len(rec.names)
    dur = np.array(rec.ends) - np.array(rec.starts)
    parents = np.array(rec.parents, dtype=np.intp)
    child = np.zeros(n)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child
    in_op = np.array(rec.ops) >= 0

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    max_residual = 0.0
    tagged: dict[tuple[str, str], list[float]] = {}
    bmo_solves = 0
    for i in range(n):
        name = rec.names[i]
        if not in_op[i] and name != "space.build":
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + float(self_t[i])
        total_s[name] = total_s.get(name, 0.0) + float(dur[i])
        c = rec.counts[i]
        if c:
            for key, val in c.items():
                if key == "max_residual":
                    max_residual = max(max_residual, float(val))
                else:
                    k = f"{name}.{key}"
                    counts[k] = counts.get(k, 0) + val
        if rec.tags[i] is not None:
            tagged.setdefault((name, rec.tags[i]), []).append(float(dur[i]))
        if (name == "varlp.luxemburg_norm" and parents[i] >= 0
                and rec.names[parents[i]] == "bmo.bmo_norm"):
            bmo_solves += 1

    def per_call_us(name: str, tag: str) -> float:
        d = tagged.get((name, tag), [])
        return 1e6 * sum(d) / len(d) if d else 0.0

    lux = "varlp.luxemburg_norm"
    out = {
        f"{lux}.calls": calls.get(lux, 0),
        f"{lux}.us_per_call": 1e6 * _ratio(total_s.get(lux, 0.0), calls.get(lux, 0)),
        f"{lux}.iters_per_call": _ratio(counts.get(f"{lux}.iterations", 0),
                                        calls.get(lux, 0)),
        f"{lux}.max_residual": max_residual,
        "varlp.norm_batch.rows": counts.get("varlp.norm_batch.rows", 0),
        "varlp.norm_batch.us_per_row": 1e6 * _ratio(
            total_s.get("varlp.norm_batch", 0.0),
            counts.get("varlp.norm_batch.rows", 0)),
        "martingale.enumerate_stopping_matrix.rows_per_s": _ratio(
            counts.get("martingale.enumerate_stopping_matrix.rows", 0),
            self_s.get("martingale.enumerate_stopping_matrix", 0.0)),
        "martingale.stopped_terminal_diffs.cells": counts.get(
            "martingale.stopped_terminal_diffs.cells", 0),
        "bmo.bmo_norm.candidates": counts.get("bmo.bmo_norm.candidates", 0),
        "bmo.indicator_solves_per_candidate": _ratio(
            bmo_solves, counts.get("bmo.bmo_norm.candidates", 0)),
        "bmo.sampled_unique_frac": _ratio(
            counts.get("bmo.bmo_norm.sampled_candidates", 0),
            counts.get("bmo.bmo_norm.sampled_slots", 0)),
        "hardy.atomic_decompose.terms_per_call": _ratio(
            counts.get("hardy.atomic_decompose.terms", 0),
            calls.get("hardy.atomic_decompose", 0)),
        "serialize.dumps.bytes": counts.get("serialize.dumps.bytes", 0),
        "trace.overhead_frac": overhead_frac,
    }
    for label in ("dyadic-3", "3ary-2", "dyadic-6"):
        out[f"bmo.bmo_norm.us_per_call.{label}"] = per_call_us("bmo.bmo_norm", label)
    for d in ("d4", "d6", "d8"):
        out[f"hardy.atomic_decompose.us_per_call.{d}"] = per_call_us(
            "hardy.atomic_decompose", d)
    for metric, _ in PER_LAYER:
        if metric in out:
            continue
        span, field = metric.rsplit(".", 1)
        if field not in ("calls", "self_s"):
            raise ValueError(f"no rule computes {metric}")
        out[metric] = calls.get(span, 0) if field == "calls" else self_s.get(span, 0.0)
    return {name: out[name] for name, _ in PER_LAYER}
