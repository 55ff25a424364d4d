"""Finite filtered probability spaces and variable exponent functions.

A space is a finite outcome set carrying one probability per leaf and a
refining sequence of partitions (the filtration).  Exponent functions assign
one positive real per leaf.  Everything here is immutable after construction
and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceError, ValidationError

# largest arrays a space builder or the stopping-time sampler may
# allocate, in bytes; `check lemma34` evaluates at most one eighth of it in
# leaf pairs (the bytes of an n x n matrix), holding one row block at a time
MAX_SPACE_BYTES = 1 << 30
# largest working set of the single-block pass that `auto` takes past
# ENUMERATION_CAP: 8 bytes per (level, leaf) cell times the cell-sized
# arrays it holds at once (bmo.BLOCK_PASS_ARRAYS), so dyadic depth 14
# (21.6 MB) runs and depth 15 (46 MB) is refused
MAX_SCAN_BYTES = 1 << 25
# bytes of one row block where a long array is made or walked a block at
# a time, so that memory does not grow with the number of rows
BLOCK_BYTES = 1 << 20
# most stopping times an enumeration lists
ENUMERATION_CAP = 10**6
BRUTE_FORCE_LEAF_LIMIT = 20
PROB_TOL = 1e-12


def readonly(a: np.ndarray) -> np.ndarray:
    """Freeze an array owned by an immutable value."""
    a.setflags(write=False)
    return a


class ArrayValue:
    """Base of the frozen dataclasses that hold arrays.  Each field named
    in ``ARRAYS`` stores a read-only copy of its input with the dtype given
    there, so a caller's array is never frozen or aliased, and values
    compare field by field with arrays compared by content.  Subclasses are
    declared with ``eq=False`` and are unhashable."""

    ARRAYS: dict[str, type] = {}

    def __post_init__(self) -> None:
        for name, dtype in self.ARRAYS.items():
            value = np.array(getattr(self, name), dtype=dtype)
            object.__setattr__(self, name, readonly(value))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for field in fields(self):
            a, b = getattr(self, field.name), getattr(other, field.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True


@dataclass(frozen=True, eq=False)
class FilteredSpace(ArrayValue):
    """Finite probability space with an atom filtration.

    ``probs[i]`` is the probability of leaf i and ``block_of[n, i]`` the
    position of the level-n block holding leaf i, so row n is the partition
    generating the n-th sigma-algebra; the last row must be the discrete
    partition.  Instances built via :func:`validate_filtration` or the
    builders are guaranteed to satisfy all invariants.
    """

    ARRAYS = {"probs": float, "block_of": np.intp}
    probs: np.ndarray
    block_of: np.ndarray

    @property
    def n_leaves(self) -> int:
        return self.probs.size

    @property
    def depth(self) -> int:
        """Index N of the terminal level."""
        return self.block_of.shape[0] - 1

    @cached_property
    def n_blocks(self) -> tuple[int, ...]:
        """Number of blocks of each level."""
        return tuple((self.block_of.max(axis=1) + 1).tolist())

    @cached_property
    def level_slices(self) -> tuple[slice, ...]:
        """Per level, the slice of its blocks in the level-major numbering
        of ``block_ids``, which numbers the blocks of all levels
        consecutively, level 0 first."""
        ends = np.cumsum(self.n_blocks).tolist()
        return tuple(slice(end - k, end) for end, k in zip(ends, self.n_blocks))

    @cached_property
    def block_ids(self) -> np.ndarray:
        """``block_of`` with the blocks of all levels numbered consecutively,
        level 0 first: the level-major numbering of ``level_slices``."""
        offsets = np.array([level.start for level in self.level_slices])
        return readonly(self.block_of + offsets[:, None])

    @cached_property
    def block_probs(self) -> np.ndarray:
        """The probability of every block, level-major: level n's are
        ``block_probs[level_slices[n]]``."""
        return readonly(self.block_sums(np.broadcast_to(1.0, self.block_of.shape)))

    @cached_property
    def block_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat (level, leaf) cells of ``block_ids`` grouped by block,
        from one stable argsort, so the blocks run level-major and a block's
        cells in leaf order, and the position of each block's first cell
        there."""
        counts = np.bincount(self.block_ids.ravel())
        return (readonly(np.argsort(self.block_ids, axis=None, kind="stable")),
                readonly(np.cumsum(counts) - counts))

    @cached_property
    def parents(self) -> tuple[np.ndarray, ...]:
        """Per level n >= 1, at index n - 1: the position of the level-(n-1)
        block holding each level-n block, so that
        ``parents[n - 1][block_of[n]] == block_of[n - 1]``."""
        out = []
        for n in range(1, self.depth + 1):
            par = np.empty(self.n_blocks[n], dtype=np.intp)
            par[self.block_of[n]] = self.block_of[n - 1]
            out.append(readonly(par))
        return tuple(out)

    @cached_property
    def _scan_cache(self) -> dict:
        """Stopping-time data that depend on the filtration alone, filled
        on first use by ``martingale`` (the count) and ``bmo`` (the
        exhaustive scan) and kept while the space lives.  Not part of the
        value: equality ignores it."""
        return {}

    @cached_property
    def _kept_norms(self) -> list:
        """The indicator norms ||chi_E||_{p(.)} kept on this space by
        ``varlp.kept_indicator_norms``, ``varlp.kept_subset_norms`` and
        ``varlp.kept_block_norms``: [bytes held, {exponent bytes: {(mask
        shape, packed mask bits), ("subsets", b"") or ("blocks", b""):
        norms}}].  Not part of the value: equality ignores it."""
        return [0, {}]

    def block_sums(self, rows: np.ndarray, start: int = 0) -> np.ndarray:
        """Entry b is sum_B P rows[k] over block b of ``block_ids``, B of
        level start + k, from one weighted bincount; the blocks of levels
        below ``start`` sum to 0, and the result ends with the last level
        passed.  A level's blocks sum their leaves in leaf order, so a sum
        does not depend on which other rows are passed."""
        ids = self.block_ids[start : start + len(rows)]
        return np.bincount(ids.ravel(), weights=(self.probs * rows).ravel())

    def level_averages(self, rows: np.ndarray, start: int = 0) -> np.ndarray:
        """Row k of the result is the block average of ``rows[k]`` at level
        start + k, ``block_sums`` over ``block_probs``: the one
        implementation of conditional expectation."""
        ids = self.block_ids[start : start + len(rows)]
        sums = self.block_sums(rows, start)
        return (sums / self.block_probs[: sums.size])[ids]


@dataclass(frozen=True, eq=False)
class Exponent(ArrayValue):
    """Variable exponent p(.), one positive finite value per leaf, as a
    read-only float array."""

    ARRAYS = {"vals": float}
    vals: np.ndarray

    def __post_init__(self) -> None:
        try:
            super().__post_init__()
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"exponent values must be numbers: {exc}") from exc
        v = self.vals
        if v.ndim != 1:
            raise ValidationError("exponent values must be a flat list of numbers")
        if not v.min(initial=np.inf) > 0:  # NaN fails too
            raise ValidationError(f"exponent values must be positive, got {v[~(v > 0)][0]}")
        if v.max(initial=0.0) == np.inf:
            raise ValidationError("exponent values must be finite")

    def p_minus(self, leaves: Sequence[int] | np.ndarray | None = None) -> float:
        v = self.vals if leaves is None else self.vals[np.asarray(leaves)]
        return float(v.min())

    def p_plus(self, leaves: Sequence[int] | np.ndarray | None = None) -> float:
        v = self.vals if leaves is None else self.vals[np.asarray(leaves)]
        return float(v.max())

    def scaled(self, r: float) -> "Exponent":
        return Exponent(r * self.vals)


def constant_exponent(space: FilteredSpace, p0: float) -> Exponent:
    return Exponent(np.full(space.n_leaves, p0, dtype=float))


def as_leaf_values(space: FilteredSpace, f: Sequence[float]) -> np.ndarray:
    try:
        v = np.asarray(f, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"leaf values must be finite numbers: {exc}") from exc
    if v.shape != (space.n_leaves,):
        raise ValidationError(
            f"expected {space.n_leaves} leaf values, got shape {v.shape}"
        )
    if not np.isfinite(v).all():
        raise ValidationError("leaf values must be finite")
    return v


def as_leaf_exponent(space: FilteredSpace, p: Exponent) -> np.ndarray:
    """``p.vals``, once it holds one value per leaf of the space."""
    if p.vals.shape != (space.n_leaves,):
        raise ValidationError(
            f"expected {space.n_leaves} exponent values, got shape {p.vals.shape}"
        )
    return p.vals


def _uniform_space(arity: int, depth: int) -> FilteredSpace:
    """Uniform leaves, level n in arity^n equal blocks of consecutive
    leaves.  Refused before any allocation when probs and block_of would
    exceed MAX_SPACE_BYTES; a depth of at least the cap's bit length
    exceeds it for any arity, and skipping the power keeps the check
    cheap."""
    if depth >= MAX_SPACE_BYTES.bit_length() or (
        8 * (depth + 2) * arity**depth > MAX_SPACE_BYTES
    ):
        raise ResourceError(f"arity {arity}, depth {depth}: over {MAX_SPACE_BYTES} bytes")
    leaves = arity**depth
    widths = arity ** np.arange(depth, -1, -1)
    block_of = np.arange(leaves) // widths[:, None]
    return FilteredSpace(np.full(leaves, 1.0 / leaves), block_of)


def build_dyadic_space(depth: int) -> FilteredSpace:
    """Dyadic filtration of depth N: level n has 2^n equal blocks of
    consecutive leaves, 2^N uniform leaves in total."""
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    return _uniform_space(2, depth)


def build_mary_space(arity: int, depth: int) -> FilteredSpace:
    """Uniform m-ary analogue of the dyadic construction."""
    if arity < 2 or depth < 0:
        raise ValidationError("arity must be >= 2 and depth nonnegative")
    return _uniform_space(arity, depth)


def _level_block_of(k: int, level, n: int) -> np.ndarray:
    """Leaf -> block position map of level k, given as a list of blocks of
    integer leaf indices that must cover each of the n leaves once."""
    try:
        sizes = np.fromiter(map(len, level), dtype=np.intp)
        leaves = np.array(list(chain.from_iterable(level)))
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"level {k} is not a list of blocks of leaf indices"
        ) from exc
    if leaves.ndim != 1 or (leaves.size and leaves.dtype.kind not in "iu"):
        raise ValidationError(f"level {k}: leaf indices must be integers")
    block = np.repeat(np.arange(sizes.size), sizes)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValidationError(f"level {k} block {empty[0]} is empty")
    unknown = np.flatnonzero((leaves < 0) | (leaves >= n))
    if unknown.size:
        i = unknown[0]
        raise ValidationError(
            f"level {k} block {block[i]} references unknown leaf {leaves[i]}"
        )
    counts = np.bincount(leaves.astype(np.intp), minlength=n)
    if counts.max() > 1:
        raise ValidationError(
            f"level {k}: leaf {counts.argmax()} appears in two blocks"
        )
    if counts.min() == 0:
        missing = np.flatnonzero(counts == 0).tolist()
        raise ValidationError(f"level {k} does not cover leaves {missing}")
    bo = np.empty(n, dtype=np.intp)
    bo[leaves] = block
    return bo


def validate_filtration(
    levels: Sequence[Sequence[Sequence[int]]],
    leaf_probs: Sequence[float],
) -> FilteredSpace:
    """Checked constructor: verifies normalization, positivity, that each
    level partitions the leaves, that consecutive levels refine, and that
    the terminal level is discrete.  Blocks keep their input order."""
    try:
        probs = np.array(leaf_probs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"leaf probabilities must be numbers: {exc}") from exc
    if probs.ndim != 1:
        raise ValidationError("leaf probabilities must be a flat list of numbers")
    n = probs.size
    if n == 0:
        raise ValidationError("empty leaf set")
    nonpositive = np.flatnonzero(~(probs > 0))
    if nonpositive.size:
        i = int(nonpositive[0])
        raise ValidationError(f"leaf_probs[{i}] = {float(probs[i])} is not positive")
    total = float(probs.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(
            f"leaf probabilities sum to {total!r}, not 1 within {PROB_TOL}"
        )
    if not isinstance(levels, (list, tuple)):
        raise ValidationError("levels must be a list of levels")
    if not levels:
        raise ValidationError("filtration must have at least one level")

    block_of = np.stack([_level_block_of(k, lv, n) for k, lv in enumerate(levels)])

    for k in range(len(block_of) - 1):
        coarse, fine = block_of[k], block_of[k + 1]
        parent = coarse[np.unique(fine, return_index=True)[1]]
        crossing = fine[coarse != parent[fine]]
        if crossing.size:
            b = int(crossing.min())
            parents = np.unique(coarse[fine == b]).tolist()
            raise ValidationError(
                f"level {k + 1} block {b} crosses blocks {parents} "
                f"of level {k}: not a refinement"
            )

    if block_of[-1].max() + 1 != n:
        raise ValidationError("terminal level must be the discrete partition")

    return FilteredSpace(probs, block_of)


@dataclass(frozen=True)
class ConditionKResult:
    k: float
    witness: tuple[int, ...]
    mode: str


def _staircase(probs: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """The leaves k, ascending in p, that no other leaf beats with both
    P <= P_k and p <= p_k; of equal points only the smallest leaf.  Sorted
    by (p, P, leaf), a leaf is kept when its P is below every earlier P."""
    order = np.lexsort((probs, pv))
    sorted_probs = probs[order]
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = sorted_probs[1:] < np.minimum.accumulate(sorted_probs)[:-1]
    return order[keep]


def condition_k(
    space: FilteredSpace,
    p: Exponent,
    mode: str = "exact-pairwise",
    subsets: str = "all",
) -> ConditionKResult:
    """Smallest constant K with P(A)^(p_-(A) - p_+(A)) <= K over nonempty
    measurable A, with a witness set.

    Exact-pairwise mode reduces A to pairs and the pairs to two staircases.
    For any A, let i attain the min and j the max of p on A: the pair {i, j}
    has the same exponent spread and P({i, j}) <= P(A), and t -> t^(-spread)
    is nonincreasing on (0, 1], so the pair's value dominates A's; every
    pair is itself an admissible A.  In a pair with p_i <= p_j, a leaf k
    with p_k <= p_i and P_k <= P_i is at least as good as i, and one with
    p_k >= p_j and P_k <= P_j at least as good as j.  So the best pair joins
    the lower staircase, the leaves that no other leaf beats with both
    smaller P and smaller p, to the upper one, beaten by none with smaller P
    and larger p: the maxima of a point set, each one sort and a running
    minimum of P, with equal points kept at their smallest leaf.  The
    staircase pairs are scored by the pairwise formula
    (P_i + P_j)^(-|p_i - p_j|) in chunks of about BLOCK_BYTES; the
    witness is the lexicographically first pair i < j of largest value, or
    (0,) when no pair exceeds 1.  Pairs off the staircases are strictly
    worse in exact arithmetic, so this is the maximum and first argmax over
    all pairs unless rounding makes two values meet.  Brute-force mode is
    kept as the independent oracle.

    ``subsets="blocks"`` restricts A to filtration blocks (the sets the
    maximal-inequality proof actually uses) instead of all leaf subsets.
    """
    if mode not in ("exact-pairwise", "brute-force"):
        raise DomainError(f"unknown condition_k mode {mode!r}")
    pv = as_leaf_exponent(space, p)
    probs = space.probs
    n = space.n_leaves

    if subsets == "blocks":
        # all blocks of all levels at once, numbered level-major; argmax
        # keeps the first largest value, as a scan with a strict > would
        block_probs = space.block_probs
        flat, pv_flat = space.block_ids.ravel(), np.tile(pv, space.depth + 1)
        hi = np.full(block_probs.size, -np.inf)
        lo = np.full(block_probs.size, np.inf)
        np.maximum.at(hi, flat, pv_flat)
        np.minimum.at(lo, flat, pv_flat)
        vals = block_probs ** (lo - hi)
        j = int(np.argmax(vals))
        if vals[j] > 1.0:
            leaves = np.flatnonzero(flat == j) % n
            return ConditionKResult(float(vals[j]), tuple(leaves.tolist()), mode)
        return ConditionKResult(1.0, (int(np.argmin(probs)),), mode)
    if subsets != "all":
        raise DomainError(f"unknown subsets option {subsets!r}")

    if mode == "exact-pairwise":
        lower, upper = _staircase(probs, pv), _staircase(probs, -pv)
        best, first = 1.0, None
        step = max(1, BLOCK_BYTES // (8 * upper.size))
        for a in range(0, lower.size, step):
            i = lower[a : a + step, None]
            vals = (probs[i] + probs[upper]) ** -np.abs(pv[i] - pv[upper])
            top = vals.max()
            if top <= 1.0 or top < best:
                continue
            rows, cols = np.nonzero(vals == top)
            x, y = i[rows, 0], upper[cols]
            key = int(np.min(np.minimum(x, y) * n + np.maximum(x, y)))
            first = key if top > best else min(first, key)
            best = float(top)
        witness = (0,) if first is None else divmod(first, n)
        return ConditionKResult(best, witness, mode)

    if n > BRUTE_FORCE_LEAF_LIMIT:
        raise ResourceError(
            f"brute-force condition_k limited to {BRUTE_FORCE_LEAF_LIMIT} "
            f"leaves, got {n}"
        )
    best = 1.0
    witness = (0,)
    total = 1 << n
    chunk = 1 << 14
    bits = np.arange(n)
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        m = ((idx[:, None] >> bits) & 1).astype(bool)
        pa = m @ probs
        pmin = np.where(m, pv, np.inf).min(axis=1)
        pmax = np.where(m, pv, -np.inf).max(axis=1)
        vals = pa ** (pmin - pmax)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            witness = tuple(int(b) for b in np.nonzero(m[j])[0])
    return ConditionKResult(best, witness, mode)


def aoyama_c(space: FilteredSpace, p: Exponent) -> float:
    """Minimal C with 1/p <= C * E(1/p | F_n) over all levels n."""
    recip = 1.0 / as_leaf_exponent(space, p)
    cond = space.level_averages(np.broadcast_to(recip, space.block_of.shape))
    return max(1.0, float(np.max(recip / cond)))


def exponent_algebra(
    op: str, p: Exponent, q: Exponent | None = None
) -> Exponent:
    """Pointwise exponent arithmetic: sum, reciprocal, conjugate
    (1/p + 1/p' = 1, needs p_- > 1), harmonic-sum (1/r = 1/p + 1/q)."""
    pv = p.vals
    if op == "sum":
        if q is None:
            raise DomainError("sum requires a second exponent")
        return Exponent(pv + q.vals)
    if op == "reciprocal":
        return Exponent(1.0 / pv)
    if op == "conjugate":
        if p.p_minus() <= 1.0:
            raise DomainError("conjugate exponent requires p_- > 1")
        return Exponent(pv / (pv - 1.0))
    if op == "harmonic-sum":
        if q is None:
            raise DomainError("harmonic-sum requires a second exponent")
        return Exponent(1.0 / (1.0 / pv + 1.0 / q.vals))
    raise DomainError(f"unknown exponent operation {op!r}")
