"""Adapted sequences, conditional expectation, Doob maximal and conditional
square functions, and stopping times on atom filtrations.

Conventions: the maximal and square functions use f_{-1} = f_0 (so the 0-th
increment vanishes); the shifted stop used by the BMO module uses f_{-1} = 0,
the only choice under which ||f - f^{tau-1}|| controls f on {tau = 0}.

Every stopped value (``stop``, the BMO and Lipschitz differences and the
atoms' f^{tau_k}) is gathered from one (N+2)-row stack, ``level_stack``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceError, ValidationError
from .space import (
    BLOCK_BYTES,
    ENUMERATION_CAP,
    MAX_SPACE_BYTES,
    ArrayValue,
    FilteredSpace,
    as_leaf_values,
)

INF = math.inf
TOWER_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Martingale(ArrayValue):
    """Adapted sequence: row n of the read-only (N+1, n_leaves) array
    ``arrays`` is the leaf-indexed function f_n."""

    ARRAYS = {"arrays": float}
    space: FilteredSpace
    arrays: np.ndarray

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
    return space.level_averages(v[None], start=level)[0]


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
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.vals)


def _stop_levels(space: FilteredSpace, stop_level: Sequence[float]) -> np.ndarray:
    """The stop levels as a float array, once there is one per leaf and
    each lies in {0, ..., N} or is infinity."""
    try:
        vals = np.array(stop_level, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"stop levels must be numbers: {exc}") from exc
    if vals.shape != (space.n_leaves,):
        raise ValidationError(
            f"expected {space.n_leaves} stop levels, got shape {vals.shape}"
        )
    ok = np.isposinf(vals) | (
        (vals >= 0) & (vals <= space.depth) & (vals == np.floor(vals))
    )
    if not ok.all():
        raise ValidationError(
            f"stop level {float(vals[~ok][0])} outside "
            f"{{0..{space.depth}}} and infinity"
        )
    return vals


def validate_stopping_time(
    space: FilteredSpace, stop_level: Sequence[float]
) -> StoppingTime:
    """Accepts iff {tau = n} is a union of level-n blocks for every n."""
    vals = _stop_levels(space, stop_level)
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


def level_stack(f: Martingale, shift: str = "none") -> np.ndarray:
    """The (N+2, n_leaves) stack of levels that every stopped value is
    gathered from: (f_{-1}, f_0, ..., f_N) with f_{-1} = 0 for
    shift="minus-one", or (f_0, ..., f_N, f_N) for shift="none".  At a
    leaf x its row min(tau(x), N+1) holds f_{tau-1} or f_tau, and f_N
    where tau = inf."""
    if shift not in ("none", "minus-one"):
        raise ValidationError(f"unknown shift mode {shift!r}")
    arrays = f.arrays
    out = np.empty((arrays.shape[0] + 1, arrays.shape[1]))
    if shift == "minus-one":
        out[0] = 0.0
        out[1:] = arrays
    else:
        out[:-1] = arrays
        out[-1] = arrays[-1]
    return out


def stop(f: Martingale, tau: StoppingTime, shift: str = "none") -> Martingale:
    """Stopped martingale f^tau, or the shifted variant f^{tau-1} used by
    the BMO norm (shift="minus-one", value 0 where tau = 0): level n is row
    min(tau, n), or min(tau, n + 1), of ``level_stack``.  Per-leaf levels
    in {0, ..., N} and infinity are gathered, measurable or not; others are
    refused.  The shifted sequence is adapted but generally fails the tower
    property, since tau - 1 is not a stopping time."""
    vals = _stop_levels(f.space, tau.vals)
    top = np.arange(f.space.depth + 1) + (shift == "minus-one")
    rows = np.minimum(vals, top[:, None]).astype(np.intp)
    return Martingale(f.space, np.take_along_axis(level_stack(f, shift), rows, axis=0))


def _children(space: FilteredSpace) -> list[list[int]]:
    """Each block's children, ascending, in the level-major numbering of
    ``level_slices``, read off ``parents``; a child's number exceeds its
    parent's, so a walk down the numbers meets children first."""
    level = space.level_slices
    kids: list[list[int]] = [[] for _ in range(level[-1].stop)]
    for n, par in enumerate(space.parents):
        here = kids[level[n]]  # the same lists, by level-n position
        for child, b in enumerate(par.tolist(), level[n + 1].start):
            here[b].append(child)
    return kids


def _count_walk(space: FilteredSpace) -> int:
    """The number of stopping times in Python ints: 1 + the product of the
    children's counts per block (stop here, or any combination of theirs;
    2 at a terminal block), multiplied over the roots."""
    kids = _children(space)
    paths = [2] * len(kids)
    for b in reversed(range(space.level_slices[-1].start)):
        paths[b] = 1 + math.prod(map(paths.__getitem__, kids[b]))
    return math.prod(paths[: space.n_blocks[0]])


def count_stopping_times(space: FilteredSpace) -> int:
    """Number of stopping times, walked once per space and kept as one int."""
    cache = space._scan_cache
    if "count" not in cache:
        cache["count"] = _count_walk(space)
    return cache["count"]


def _product(parts: list[np.ndarray], stop: float | None = None) -> np.ndarray:
    """Every combination of one row of each part, the first part slowest,
    with the parts' columns side by side, after a first row of ``stop``
    when one is given.  Each part is written straight into the result,
    broadcast along the other axes of a view with one axis per part."""
    lens = [len(part) for part in parts]
    head = stop is not None
    out = np.empty((head + math.prod(lens), sum(part.shape[1] for part in parts)))
    if head:
        out[0] = stop
    view, col = out[head:].reshape(*lens, -1), 0
    for k, part in enumerate(parts):
        shape = [1] * len(parts)
        shape[k] = lens[k]
        view[..., col : col + part.shape[1]] = part.reshape(*shape, -1)
        col += part.shape[1]
    return out


def enumerate_stopping_matrix(space: FilteredSpace) -> np.ndarray:
    """All stopping times as a (count, n_leaves) matrix of stop levels
    (inf for 'never'), refused over ENUMERATION_CAP.  On a block's leaves
    they are 'stop here', then every combination of its children's ('never'
    under a terminal block), built children first over the leaves in tree
    order: by level-0 block, then level-1 block, and so on."""
    count = count_stopping_times(space)
    if count > ENUMERATION_CAP:
        raise ResourceError(
            f"{count} stopping times exceed cap {ENUMERATION_CAP}; enumeration refused"
        )
    kids = _children(space)
    level = np.repeat(np.arange(space.depth + 1.0), space.n_blocks).tolist()
    never = [np.full((1, 1), INF)]
    # the rows of the blocks whose parent is not built yet
    built: dict[int, np.ndarray] = {}
    for b in reversed(range(len(kids))):
        built[b] = _product([built.pop(c) for c in kids[b]] or never, level[b])
    roots = [built.pop(b) for b in range(space.n_blocks[0])]
    out = roots[0] if len(roots) == 1 else _product(roots)
    rank = np.argsort(np.lexsort(space.block_of[::-1]))
    if not np.array_equal(rank, np.arange(rank.size)):
        # leaves back to their own numbering, in place a row block at a
        # time, so the peak stays near the result
        step = max(1, BLOCK_BYTES // out[0].nbytes)
        for start in range(0, len(out), step):
            block = out[start : start + step]
            block[:] = block[:, rank]
    return out


def sample_stopping_matrix(
    space: FilteredSpace, count: int, seed: int = 0
) -> np.ndarray:
    """Seeded random stopping times as a (count, n_leaves) matrix of stop
    levels; rows 0 and 1 are tau = 0 and tau = infinity.  Every other row
    is a depth-first walk, roots and children ascending, that stops at each
    block reached with probability 1/2 or else continues into its children;
    the flagged blocks become levels in ``_tree_witness``.  Refused when
    its arrays would exceed MAX_SPACE_BYTES."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    rng = random.Random(f"vexmart-stopping:{seed}")
    total, draw = space.level_slices[-1].stop, rng.random
    if count * (total + 8 * space.n_leaves) > MAX_SPACE_BYTES:
        raise ResourceError(f"{count} sampled stopping times over {MAX_SPACE_BYTES} bytes")
    kids = [c[::-1] for c in _children(space)]
    # stopped blocks are flagged in one (all blocks, count) array, a column
    # per sample, so that the witness's gathers take whole rows
    stops = np.zeros((total, count), dtype=bool)
    stops[space.level_slices[0], 0] = True
    roots, hits = [*reversed(range(space.n_blocks[0]))], []
    for s in range(2, count):
        todo = roots[:]
        while todo:
            b = todo.pop()
            if draw() < 0.5:
                hits.append(b * count + s)
            else:
                todo += kids[b]
    stops.flat[hits] = True
    return _tree_witness(space, stops.T)


def sample_stopping_times(
    space: FilteredSpace, count: int, seed: int = 0
) -> tuple[StoppingTime, ...]:
    """Seeded random stopping times; always includes tau = 0 and
    tau = infinity first."""
    matrix = sample_stopping_matrix(space, count, seed)
    return tuple(StoppingTime(row) for row in matrix)


def stopped_terminal_diffs(f: Martingale, shift: str = "minus-one") -> np.ndarray:
    """The (N+2, n_leaves) table of stopped terminal differences, f_N
    minus ``level_stack``: row n holds (f - f^{n-1})_N with f_{-1} = 0, or
    (f - f^n)_N for shift="none", and row N+1, the row of tau = inf, is
    exactly 0.  The difference of a stopping time tau at leaf x is the
    entry at row min(tau(x), N+1), so a scan takes all of its differences
    with one gather from this table, and the block sums of ``bmo_norm``'s
    dp mode are sums over its rows."""
    stack = level_stack(f, shift)
    return np.subtract(f.terminal, stack, out=stack)


def _tree_witness(space: FilteredSpace, stops: np.ndarray) -> np.ndarray:
    """(K, n_leaves) stop levels from (K, all blocks) stop flags numbered
    as in ``level_slices``: each leaf stops at the level of the first
    flagged block on its path from the root, or never (inf), so the flags
    need not be an antichain.  The top-down walk gathers rows of
    ``stops.T``, so flags held a column per stopping time are passed as a
    transposed view."""
    flags, level = stops.T, space.level_slices
    first = np.where(flags[level[0]], 0.0, INF)
    for n in range(1, space.depth + 1):
        first = first[space.parents[n - 1]]
        first[flags[level[n]] & (first == INF)] = n
    # the terminal blocks are the leaves
    return first[space.block_of[-1]].T

