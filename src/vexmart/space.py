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

Blocks = tuple[tuple[int, ...], ...]

# largest probs + block_of a builder may allocate, in bytes
MAX_SPACE_BYTES = 1 << 30
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


def _groups(keys: np.ndarray, n_groups: int) -> tuple[tuple[int, ...], ...]:
    """The positions of ``keys`` grouped by key value 0..n_groups-1, each
    group in ascending order."""
    order = np.argsort(keys, kind="stable").tolist()
    ends = np.cumsum(np.bincount(keys, minlength=n_groups)).tolist()
    return tuple(tuple(order[a:b]) for a, b in zip([0, *ends], ends))


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

    @property
    def leaf_probs(self) -> tuple[float, ...]:
        """The leaf probabilities as a tuple of Python floats."""
        return tuple(self.probs.tolist())

    @property
    def levels(self) -> tuple[Blocks, ...]:
        """Each level as a tuple of blocks of leaf indices, blocks by
        position and leaves ascending inside a block."""
        return tuple(map(_groups, self.block_of, self.n_blocks))

    @cached_property
    def _stacked_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """``block_of`` with blocks numbered consecutively across levels,
        and the block probabilities in that numbering."""
        offsets = np.cumsum((0,) + self.n_blocks[:-1])
        ids = readonly(self.block_of + offsets[:, None])
        probs = np.bincount(ids.ravel(), weights=np.tile(self.probs, self.depth + 1))
        return ids, readonly(probs)

    @cached_property
    def block_probs(self) -> tuple[np.ndarray, ...]:
        """Per level, the probability of each block."""
        return tuple(np.split(self._stacked_blocks[1], np.cumsum(self.n_blocks)[:-1]))

    @cached_property
    def children(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each level n < N, block position -> child block positions
        at level n+1, ascending."""
        return tuple(
            _groups(coarse[np.unique(fine, return_index=True)[1]], k)
            for coarse, fine, k in zip(self.block_of, self.block_of[1:], self.n_blocks)
        )

    def level_averages(self, rows: np.ndarray) -> np.ndarray:
        """Row n of the result is the block average of ``rows[n]`` at level
        n, for the first len(rows) levels, from one weighted bincount: the
        one implementation of conditional expectation.  A level's blocks
        sum their leaves in leaf order, so a row does not depend on how
        many rows are passed."""
        ids, block_probs = self._stacked_blocks
        ids = ids[: len(rows)]
        sums = np.bincount(ids.ravel(), weights=(self.probs * rows).ravel())
        return (sums / block_probs[: sums.size])[ids]


@dataclass(frozen=True, eq=False)
class Exponent(ArrayValue):
    """Variable exponent p(.), one positive value per leaf, as a read-only
    float array.

    ``allow_infinite`` unlocks +inf entries, on which the Luxemburg norm
    applies its max rule (see :mod:`vexmart.varlp`); operations that need a
    finite exponent reject such exponents.
    """

    ARRAYS = {"vals": float}
    vals: np.ndarray
    allow_infinite: bool = False

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
        if not self.allow_infinite and v.max(initial=0.0) == np.inf:
            raise ValidationError(
                "infinite exponent entries require allow_infinite=True"
            )

    @property
    def values(self) -> tuple[float, ...]:
        """The exponent values as a tuple of Python floats."""
        return tuple(self.vals.tolist())

    @cached_property
    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.vals)))

    def p_minus(self, leaves: Sequence[int] | np.ndarray | None = None) -> float:
        v = self.vals if leaves is None else self.vals[np.asarray(leaves)]
        return float(v.min())

    def p_plus(self, leaves: Sequence[int] | np.ndarray | None = None) -> float:
        v = self.vals if leaves is None else self.vals[np.asarray(leaves)]
        return float(v.max())

    def scaled(self, r: float) -> "Exponent":
        return Exponent(r * self.vals, self.allow_infinite)


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


def condition_k(
    space: FilteredSpace,
    p: Exponent,
    mode: str = "exact-pairwise",
    subsets: str = "all",
) -> ConditionKResult:
    """Smallest constant K with P(A)^(p_-(A) - p_+(A)) <= K over nonempty
    measurable A, with a witness set.

    The exact-pairwise algorithm is exact: for any A, let i attain the min
    and j the max of p on A.  The pair {i, j} has the same exponent spread
    as A and P({i,j}) <= P(A); since t -> t^(-spread) is nonincreasing on
    (0, 1] for spread >= 0, the pair's value dominates A's.  Every pair is
    itself an admissible A, so the pairwise maximum equals the full
    supremum.  Brute-force mode is kept as its independent oracle.

    ``subsets="blocks"`` restricts A to filtration blocks (the sets the
    maximal-inequality proof actually uses) instead of all leaf subsets.
    """
    if not p.is_finite:
        raise DomainError("condition_k requires a finite exponent")
    pv = p.vals
    probs = space.probs
    n = space.n_leaves

    if subsets == "blocks":
        # all blocks of all levels at once, numbered level-major; argmax
        # keeps the first largest value, as a scan with a strict > would
        ids, block_probs = space._stacked_blocks
        flat, pv_flat = ids.ravel(), np.tile(pv, space.depth + 1)
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
        best = 1.0
        witness: tuple[int, ...] = (0,)
        for i in range(n - 1):
            s = probs[i] + probs[i + 1 :]
            d = np.abs(pv[i] - pv[i + 1 :])
            vals = s ** (-d)
            j = int(np.argmax(vals))
            if vals[j] > best:
                best = float(vals[j])
                witness = (i, i + 1 + j)
        return ConditionKResult(best, witness, mode)

    if mode == "brute-force":
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

    raise DomainError(f"unknown condition_k mode {mode!r}")


def aoyama_c(space: FilteredSpace, p: Exponent) -> float:
    """Minimal C with 1/p <= C * E(1/p | F_n) over all levels n."""
    if not p.is_finite:
        raise DomainError("aoyama_c requires a finite exponent")
    recip = 1.0 / p.vals
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
