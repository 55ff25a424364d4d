"""Adapted sequences, conditional expectation, Doob maximal and conditional
square functions, and stopping times on atom filtrations.

Conventions: the maximal and square functions use f_{-1} = f_0 (so the 0-th
increment vanishes); the shifted stop used by the BMO module uses f_{-1} = 0,
the only choice under which ||f - f^{tau-1}|| controls f on {tau = 0}.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceError, ValidationError
from .space import ArrayValue, FilteredSpace, as_leaf_values

INF = math.inf
ENUMERATION_CAP = 10**6
TOWER_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Martingale(ArrayValue):
    """Adapted sequence: row n of the read-only (N+1, n_leaves) array
    ``arrays`` is the leaf-indexed function f_n."""

    ARRAYS = {"arrays": float}
    space: FilteredSpace
    arrays: np.ndarray

    @property
    def levels(self) -> tuple[tuple[float, ...], ...]:
        """The level values as nested tuples of Python floats."""
        return tuple(map(tuple, self.arrays.tolist()))

    @property
    def terminal(self) -> np.ndarray:
        return self.arrays[-1]

    def scaled(self, c: float) -> "Martingale":
        return Martingale(self.space, c * self.arrays)


def make_martingale(
    space: FilteredSpace,
    levels: Sequence[Sequence[float]],
) -> Martingale:
    """Validated constructor: per-level measurability and the tower
    property E(f_{n+1} | F_n) = f_n within an absolute tolerance."""
    try:
        arr = np.asarray(levels, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"martingale values must be finite numbers: {exc}") from exc
    if arr.shape != (space.depth + 1, space.n_leaves):
        raise ValidationError(
            f"expected {space.depth + 1} levels of {space.n_leaves} values, "
            f"got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError("martingale values must be finite")
    tol = TOWER_TOL * max(1.0, float(np.abs(arr).max()))
    proj = np.abs(space.level_averages(arr) - arr).max(axis=1)
    bad = np.flatnonzero(proj > tol)
    if bad.size:
        raise ValidationError(
            f"level {bad[0]} is not measurable with respect to its partition"
        )
    back = np.abs(space.level_averages(arr[1:]) - arr[:-1]).max(axis=1)
    bad = np.flatnonzero(back > tol)
    if bad.size:
        raise ValidationError(
            f"tower property fails between levels {bad[0]} and {bad[0] + 1}"
        )
    return Martingale(space, arr)


def require_f0_zero(f: Martingale, message: str) -> None:
    """Raise DomainError(message) unless f_0 vanishes relative to f_N."""
    if float(np.abs(f.arrays[0]).max()) > 1e-12 * max(
        1.0, float(np.abs(f.terminal).max())
    ):
        raise DomainError(message)


def cond_expect(
    space: FilteredSpace, f: Sequence[float], level: int
) -> np.ndarray:
    """E(f | F_level): probability-weighted average on each block."""
    if not 0 <= level <= space.depth:
        raise ValidationError(f"level {level} outside 0..{space.depth}")
    v = as_leaf_values(space, f)
    return space.level_averages(np.broadcast_to(v, (level + 1, v.size)))[level]


def martingale_from_terminal(
    space: FilteredSpace, f_inf: Sequence[float]
) -> Martingale:
    """The martingale f_n = E(f_inf | F_n)."""
    v = as_leaf_values(space, f_inf)
    return Martingale(
        space, space.level_averages(np.broadcast_to(v, (space.depth + 1, v.size)))
    )


def maximal(f: Martingale) -> np.ndarray:
    """Doob maximal function: pointwise max of |f_n| over all levels."""
    return np.abs(f.arrays).max(axis=0)


def cond_square_levels(f: Martingale) -> np.ndarray:
    """Rows s_0(f), ..., s_N(f) of the conditional square function:
    square roots of the cumulative conditioned squared increments (the 0-th
    increment is zero since f_{-1} = f_0)."""
    df = np.diff(f.arrays, axis=0)
    acc = np.zeros(f.arrays.shape)
    np.cumsum(f.space.level_averages(df * df), axis=0, out=acc[1:])
    return np.sqrt(acc)


def cond_square(f: Martingale) -> np.ndarray:
    """Conditional square function s(f) = s_N(f)."""
    return cond_square_levels(f)[-1]


@dataclass(frozen=True, eq=False)
class StoppingTime(ArrayValue):
    """Per-leaf stop level in {0, ..., N} or math.inf ('never stop'), as a
    read-only float array."""

    ARRAYS = {"vals": float}
    vals: np.ndarray

    @property
    def stop_level(self) -> tuple[float, ...]:
        """The stop levels as a tuple of Python floats."""
        return tuple(self.vals.tolist())

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.vals)


def validate_stopping_time(
    space: FilteredSpace, stop_level: Sequence[float]
) -> StoppingTime:
    """Accepts iff {tau = n} is a union of level-n blocks for every n."""
    try:
        vals = np.array(stop_level, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"stop levels must be numbers: {exc}") from exc
    if vals.shape != (space.n_leaves,):
        raise ValidationError(
            f"expected {space.n_leaves} stop levels, got {vals.size}"
        )
    ok = np.isposinf(vals) | (
        (vals >= 0) & (vals <= space.depth) & (vals == np.floor(vals))
    )
    if not ok.all():
        raise ValidationError(
            f"stop level {float(vals[~ok][0])} outside "
            f"{{0..{space.depth}}} and infinity"
        )
    for n in range(space.depth + 1):
        hit = vals == n
        if not hit.any():
            continue
        bo, n_blocks = space.block_of[n], space.n_blocks[n]
        hits = np.bincount(bo[hit], minlength=n_blocks)
        split = (hits > 0) & (hits != np.bincount(bo, minlength=n_blocks))
        if split.any():
            b = int(np.flatnonzero(split)[0])
            raise ValidationError(
                f"{{tau = {n}}} splits level-{n} block {b} "
                f"{tuple(np.flatnonzero(bo == b).tolist())}: not measurable"
            )
    return StoppingTime(vals)


def _stopped_values(
    f: Martingale,
    tau_vals: np.ndarray,
    upto: float | np.ndarray,
    shift: str = "none",
) -> np.ndarray:
    """f_{min(upto, tau)} at every leaf, or f_{min(upto, tau - 1)} with
    f_{-1} = 0 for shift="minus-one".  ``tau_vals`` and ``upto`` broadcast
    against a trailing leaf axis."""
    if shift not in ("none", "minus-one"):
        raise ValidationError(f"unknown shift mode {shift!r}")
    t = tau_vals if shift == "none" else tau_vals - 1.0
    idx = np.minimum(t, upto)
    leaf = np.arange(f.space.n_leaves)
    return np.where(
        idx < 0, 0.0, f.arrays[np.maximum(idx, 0.0).astype(np.intp), leaf]
    )


def stop(f: Martingale, tau: StoppingTime, shift: str = "none") -> Martingale:
    """Stopped martingale f^tau, or the shifted variant f^{tau-1} used by
    the BMO norm (shift="minus-one", value 0 where tau = 0).

    The shifted sequence is adapted but generally fails the tower property,
    since tau - 1 is not a stopping time; no validation is applied.
    """
    n = np.arange(f.space.depth + 1, dtype=float)[:, None]
    return Martingale(f.space, _stopped_values(f, tau.vals, n, shift))


def count_stopping_times(space: FilteredSpace) -> int:
    """Number of stopping times of the filtration (antichains of the tree,
    counting 'never stop' continuations), built bottom-up: a terminal block
    counts 2 (stop at N, or never) and any other block 1 (stop here) plus
    the product of its children's counts."""
    counts = [2] * space.n_blocks[-1]
    for kids in reversed(space.children):
        counts = [1 + math.prod(counts[c] for c in ch) for ch in kids]
    return math.prod(counts)


def _product(parts: list[np.ndarray]) -> np.ndarray:
    """Rows of the cartesian product of the parts' rows, first part
    slowest, columns side by side."""
    combo = parts[0]
    for part in parts[1:]:
        m, k = combo.shape[0], part.shape[0]
        combo = np.hstack([np.repeat(combo, k, axis=0), np.tile(part, (m, 1))])
    return combo


def _node_matrix(space: FilteredSpace, level: int, block_pos: int) -> np.ndarray:
    """All stop assignments for the leaves of one block, rows in a fixed
    deterministic order: stop-here first, then the cartesian product of the
    children's assignments.  Columns follow the leaves in tree order (see
    :func:`enumerate_stopping_matrix`)."""
    if level == space.depth:
        return np.array([[float(level)], [INF]])
    combo = _product([
        _node_matrix(space, level + 1, child)
        for child in space.children[level][block_pos]
    ])
    return np.vstack([np.full((1, combo.shape[1]), float(level)), combo])


def enumerate_stopping_matrix(space: FilteredSpace) -> np.ndarray:
    """All stopping times as a (count, n_leaves) matrix of stop levels
    (inf for 'never'), deterministic order; refused over ENUMERATION_CAP.
    Internal fast path."""
    count = count_stopping_times(space)
    if count > ENUMERATION_CAP:
        raise ResourceError(
            f"{count} stopping times exceed cap {ENUMERATION_CAP}; use sampling mode"
        )
    combo = _product([_node_matrix(space, 0, b) for b in range(space.n_blocks[0])])
    # tree order: leaves sorted by their block at level 0, then level 1, ...
    tree_order = np.lexsort(space.block_of[::-1])
    out = np.empty_like(combo)
    out[:, tree_order] = combo
    return out


def enumerate_stopping_times(space: FilteredSpace) -> tuple[StoppingTime, ...]:
    """Exhaustive enumeration by recursive stop/continue labeling of the
    filtration tree, refused over ENUMERATION_CAP."""
    matrix = enumerate_stopping_matrix(space)
    return tuple(StoppingTime(row) for row in matrix)


def _preorder(space: FilteredSpace) -> tuple[list[int], list[int]]:
    """The blocks of all levels in preorder of the filtration tree (roots
    in block order, children ascending), numbered level-major as in
    ``space._stacked_blocks``, and for each preorder position the position
    just past that block's subtree."""
    offsets = np.cumsum((0,) + space.n_blocks[:-1]).tolist()
    depth, children = space.depth, space.children
    order: list[int] = []
    skip: list[int] = []

    def visit(level: int, block_pos: int) -> None:
        at = len(order)
        order.append(offsets[level] + block_pos)
        skip.append(0)
        if level < depth:
            for child in children[level][block_pos]:
                visit(level + 1, child)
        skip[at] = len(order)

    for b in range(space.n_blocks[0]):
        visit(0, b)
    return order, skip


def sample_stopping_matrix(
    space: FilteredSpace, count: int, seed: int = 0
) -> np.ndarray:
    """Seeded random stopping times as a (count, n_leaves) matrix of stop
    levels; rows 0 and 1 are tau = 0 and tau = infinity.  Every other row
    walks the tree from the roots and, at each block reached, stops there
    with probability 1/2 or else continues into its children."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    rng = random.Random(f"vexmart-stopping:{seed}")
    order, skip = _preorder(space)
    total, draw = len(order), rng.random
    # stopped blocks are flagged in one (all blocks, count) array, a column
    # per sample, so that the gathers below take whole rows
    stops = np.zeros((total, count), dtype=bool)
    stops[: space.n_blocks[0], 0] = True
    hits: list[int] = []
    for s in range(2, count):
        i = 0
        while i < total:
            if draw() < 0.5:
                hits.append(order[i] * count + s)
                i = skip[i]
            else:
                i += 1
    stops.flat[hits] = True
    # the stopped blocks of a sample form an antichain: a leaf lies in at
    # most one, so the levels can be written in any order
    out = np.full((space.n_leaves, count), INF)
    for n, ids in enumerate(space._stacked_blocks[0]):
        out[stops[ids]] = n
    return out.T


def sample_stopping_times(
    space: FilteredSpace, count: int, seed: int = 0
) -> tuple[StoppingTime, ...]:
    """Seeded random stopping times; always includes tau = 0 and
    tau = infinity first."""
    matrix = sample_stopping_matrix(space, count, seed)
    return tuple(StoppingTime(row) for row in matrix)


def stopped_terminal_diffs(
    f: Martingale, tau_matrix: np.ndarray, shift: str = "minus-one"
) -> np.ndarray:
    """(f - f^{tau-1})_N (or unshifted f - f^tau) per leaf, for a whole
    matrix of stopping times at once."""
    return f.terminal[None, :] - _stopped_values(
        f, tau_matrix, float(f.space.depth), shift
    )
