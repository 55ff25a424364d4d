"""JSON and CSV round-trip formats for all domain values.

JSON is the source of truth (floats emitted with Python's shortest
round-trip representation, which reconstructs the exact binary64 value);
CSV is lossy (12 significant digits) and intended only for plotting.
"""

from __future__ import annotations

import io
import json
import math
from typing import Any, Mapping, Sequence

from .errors import ValidationError
from .hardy import AtomTerm, AtomicDecomposition
from .martingale import (
    INF,
    Martingale,
    StoppingTime,
    make_martingale,
    martingale_from_terminal,
    validate_stopping_time,
)
from .space import Exponent, FilteredSpace, as_leaf_values, validate_filtration


def space_to_json(space: FilteredSpace) -> dict:
    return {
        "leaf_probs": space.probs.tolist(),
        "levels": [[list(b) for b in level] for level in space.levels],
    }


def _require_object(obj: Any, what: str) -> None:
    if not isinstance(obj, Mapping):
        raise ValidationError(
            f"{what} JSON must be an object, got {type(obj).__name__}"
        )


def space_from_json(obj: Mapping[str, Any]) -> FilteredSpace:
    _require_object(obj, "space")
    try:
        return validate_filtration(obj["levels"], obj["leaf_probs"])
    except KeyError as exc:
        raise ValidationError(f"space JSON missing key {exc}") from exc


def exponent_to_json(p: Exponent) -> dict:
    return {"values": p.vals.tolist()}


def exponent_from_json(obj: Mapping[str, Any]) -> Exponent:
    _require_object(obj, "exponent")
    try:
        return Exponent(obj["values"])
    except KeyError as exc:
        raise ValidationError(f"exponent JSON missing key {exc}") from exc


def function_to_json(values: Sequence[float]) -> dict:
    return {"values": [float(v) for v in values]}


def function_from_json(obj: Mapping[str, Any]) -> list[float]:
    _require_object(obj, "function")
    try:
        return [float(v) for v in obj["values"]]
    except KeyError as exc:
        raise ValidationError(f"function JSON missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"function values must be finite numbers: {exc}") from exc


def martingale_to_json(f: Martingale, full: bool = False) -> dict:
    if full:
        return {"levels": f.arrays.tolist()}
    return {"terminal": f.terminal.tolist()}


def martingale_from_json(space: FilteredSpace, obj: Mapping[str, Any]) -> Martingale:
    _require_object(obj, "martingale")
    if "levels" in obj:
        return make_martingale(space, obj["levels"])
    if "terminal" in obj:
        return martingale_from_terminal(space, obj["terminal"])
    raise ValidationError("martingale JSON needs 'terminal' or 'levels'")


def stopping_time_to_json(tau: StoppingTime) -> dict:
    return {
        "stop_level": [
            "inf" if math.isinf(t) else int(t) for t in tau.vals.tolist()
        ]
    }


def _stopping_time(space: FilteredSpace, raw: Any, what: str) -> StoppingTime:
    """A JSON list of stop levels, "inf" read as never, through
    :func:`validate_stopping_time`."""
    if not isinstance(raw, list):
        raise ValidationError(f"{what} must be a list, got {raw!r}")
    return validate_stopping_time(space, [INF if v == "inf" else v for v in raw])


def stopping_time_from_json(
    space: FilteredSpace, obj: Mapping[str, Any]
) -> StoppingTime:
    """A stopping time validated against the space: finite entries are
    levels in 0..N, "inf" means never, and {tau = n} is F_n-measurable."""
    _require_object(obj, "stopping time")
    try:
        raw = obj["stop_level"]
    except KeyError as exc:
        raise ValidationError(f"stopping time JSON missing key {exc}") from exc
    return _stopping_time(space, raw, "stop_level")


def decomposition_to_json(dec: AtomicDecomposition) -> list:
    return [
        {
            "k": term.k,
            "mu": term.mu,
            "tau": stopping_time_to_json(term.tau)["stop_level"],
            "atom_terminal": term.atom_terminal.tolist(),
        }
        for term in dec.terms
    ]


def _term_from_json(space: FilteredSpace, t: Mapping[str, Any]) -> AtomTerm:
    """One decomposition term, validated against the space: an integer k,
    a finite weight mu >= 0, a stopping time and finite atom values."""
    try:
        k, mu, tau, atom = t["k"], t["mu"], t["tau"], t["atom_terminal"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"decomposition term missing key {exc}") from exc
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValidationError(f"term k must be an integer, got {k!r}")
    if isinstance(mu, bool) or not isinstance(mu, (int, float)) or not (
        math.isfinite(mu) and mu >= 0
    ):
        raise ValidationError(f"term mu must be finite and >= 0, got {mu!r}")
    return AtomTerm(
        k,
        float(mu),
        _stopping_time(space, tau, "term tau"),
        as_leaf_values(space, atom),
    )


def decomposition_from_json(
    space: FilteredSpace, obj: Sequence[Mapping[str, Any]]
) -> AtomicDecomposition:
    terms = tuple(_term_from_json(space, t) for t in obj)
    if terms:
        return AtomicDecomposition(space, terms, terms[0].k, terms[-1].k)
    return AtomicDecomposition(space, (), 0, -1)


def dumps(obj: Any) -> str:
    """Deterministic JSON text: fixed key order as constructed, no spaces
    lost to platform differences."""
    return json.dumps(obj, indent=2, allow_nan=True)


def report_to_csv(report_obj: Mapping[str, Any]) -> str:
    """Flat (x, y) CSV for curve-type outputs, else (index, ratio)."""
    buf = io.StringIO()
    details = report_obj.get("details", {})
    curve = details.get("curve")
    if not curve:
        grid = details.get("lambda_grid")
        ratios = report_obj.get("ratios", [])
        if grid and len(grid) == len(ratios):
            curve = list(zip(grid, ratios))
    if curve:
        buf.write("x,y\n")
        for x, y in curve:
            buf.write(f"{x:.12g},{y:.12g}\n")
    else:
        buf.write("index,ratio\n")
        for i, r in enumerate(report_obj.get("ratios", [])):
            buf.write(f"{i},{r:.12g}\n")
    return buf.getvalue()
