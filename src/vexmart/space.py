"""Finite filtered probability spaces and variable exponent functions.

A space is a finite outcome set carrying one probability per leaf and a
refining sequence of partitions (the filtration).  Exponent functions assign
one positive real per leaf.  Everything here is immutable after construction
and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ResourceError, ValidationError

Blocks = tuple[tuple[int, ...], ...]

MAX_DYADIC_DEPTH = 24
BRUTE_FORCE_LEAF_LIMIT = 20
PROB_TOL = 1e-12


def readonly(a: np.ndarray) -> np.ndarray:
    """Freeze an array owned by an immutable value."""
    a.setflags(write=False)
    return a


class ArrayValue:
    """Base of the frozen dataclasses that hold float arrays.  Each field
    named in ``ARRAYS`` stores a read-only float copy of its input, so a
    caller's array is never frozen or aliased, and values compare field by
    field with arrays compared by content.  Subclasses are declared with
    ``eq=False`` and are unhashable."""

    ARRAYS: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in self.ARRAYS:
            value = np.array(getattr(self, name), dtype=float)
            object.__setattr__(self, name, readonly(value))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for field in fields(self):
            a, b = getattr(self, field.name), getattr(other, field.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True


@dataclass(frozen=True)
class FilteredSpace:
    """Finite probability space with an atom filtration.

    ``levels[n]`` is the partition of leaf indices generating the n-th
    sigma-algebra; ``levels[-1]`` must be the discrete partition.
    Instances built via :func:`validate_filtration` or
    :func:`build_dyadic_space` are guaranteed to satisfy all invariants.
    """

    leaf_probs: tuple[float, ...]
    levels: tuple[Blocks, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "leaf_probs", tuple(float(p) for p in self.leaf_probs)
        )
        object.__setattr__(
            self,
            "levels",
            tuple(
                tuple(tuple(int(i) for i in block) for block in level)
                for level in self.levels
            ),
        )

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_probs)

    @property
    def depth(self) -> int:
        """Index N of the terminal level."""
        return len(self.levels) - 1

    @cached_property
    def probs(self) -> np.ndarray:
        return readonly(np.array(self.leaf_probs, dtype=float))

    @cached_property
    def block_of(self) -> tuple[np.ndarray, ...]:
        """Per level, the array mapping leaf index -> block position."""
        out = []
        for level in self.levels:
            m = np.empty(self.n_leaves, dtype=np.intp)
            for j, block in enumerate(level):
                for leaf in block:
                    m[leaf] = j
            out.append(readonly(m))
        return tuple(out)

    @cached_property
    def block_probs(self) -> tuple[np.ndarray, ...]:
        out = []
        for n, level in enumerate(self.levels):
            bp = np.bincount(
                self.block_of[n], weights=self.probs, minlength=len(level)
            )
            out.append(readonly(bp))
        return tuple(out)

    @cached_property
    def children(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each level n < N, block position -> child block positions
        at level n+1."""
        out = []
        for n in range(self.depth):
            kids: list[list[int]] = [[] for _ in self.levels[n]]
            seen = set()
            for j, block in enumerate(self.levels[n + 1]):
                parent = int(self.block_of[n][block[0]])
                if (parent, j) not in seen:
                    seen.add((parent, j))
                    kids[parent].append(j)
            out.append(tuple(tuple(k) for k in kids))
        return tuple(out)

    def block_average(self, values: Sequence[float], level: int) -> np.ndarray:
        """Conditional expectation of a leaf function at the given level,
        returned per leaf."""
        v = np.asarray(values, dtype=float)
        bo = self.block_of[level]
        sums = np.bincount(bo, weights=self.probs * v,
                           minlength=len(self.levels[level]))
        return (sums / self.block_probs[level])[bo]

    @cached_property
    def _stacked_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Leaf -> block maps of all levels as one (N+1, n_leaves) array,
        with blocks numbered consecutively across levels, and the block
        probabilities in that numbering."""
        sizes = [len(level) for level in self.levels]
        offsets = np.cumsum([0] + sizes[:-1])[:, None]
        ids = readonly(np.stack(self.block_of) + offsets)
        return ids, readonly(np.concatenate(self.block_probs))

    def level_averages(self, rows: np.ndarray) -> np.ndarray:
        """Row n of the result is the block average of ``rows[n]`` at level
        n, for the first len(rows) levels, from one weighted bincount.
        Each row equals its :meth:`block_average` bit for bit."""
        ids, block_probs = self._stacked_blocks
        ids = ids[: len(rows)]
        sums = np.bincount(ids.ravel(), weights=(self.probs * rows).ravel())
        return (sums / block_probs[: sums.size])[ids]


@dataclass(frozen=True)
class Exponent:
    """Variable exponent p(.), one positive value per leaf.

    ``allow_infinite`` unlocks +inf entries, used only by the mixed-modular
    mode of the Luxemburg norm; ordinary operations reject such exponents.
    """

    values: tuple[float, ...]
    allow_infinite: bool = False

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        for v in vals:
            if math.isnan(v) or v <= 0:
                raise ValidationError(f"exponent values must be positive, got {v}")
            if math.isinf(v) and not self.allow_infinite:
                raise ValidationError(
                    "infinite exponent entries require allow_infinite=True"
                )

    @cached_property
    def vals(self) -> np.ndarray:
        return readonly(np.array(self.values, dtype=float))

    @cached_property
    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.vals)))

    def p_minus(self, leaves: Iterable[int] | None = None) -> float:
        v = self.vals if leaves is None else self.vals[list(leaves)]
        return float(v.min())

    def p_plus(self, leaves: Iterable[int] | None = None) -> float:
        v = self.vals if leaves is None else self.vals[list(leaves)]
        return float(v.max())

    def scaled(self, r: float) -> "Exponent":
        return Exponent(tuple(r * v for v in self.values), self.allow_infinite)


def constant_exponent(space: FilteredSpace, p0: float) -> Exponent:
    return Exponent((p0,) * space.n_leaves)


def as_leaf_values(space: FilteredSpace, f: Sequence[float]) -> np.ndarray:
    try:
        v = np.asarray(f, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"leaf values must be numbers: {exc}") from exc
    if v.shape != (space.n_leaves,):
        raise ValidationError(
            f"expected {space.n_leaves} leaf values, got shape {v.shape}"
        )
    if not np.isfinite(v).all():
        raise ValidationError("leaf values must be finite")
    return v


def build_dyadic_space(depth: int, max_depth: int = MAX_DYADIC_DEPTH) -> FilteredSpace:
    """Dyadic filtration of depth N: level n has 2^n equal blocks of
    consecutive leaves, 2^N uniform leaves in total."""
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    if depth > max_depth:
        raise ResourceError(f"dyadic depth {depth} exceeds maximum {max_depth}")
    leaves = 1 << depth
    probs = (1.0 / leaves,) * leaves
    levels = []
    for n in range(depth + 1):
        width = leaves >> n
        levels.append(
            tuple(tuple(range(j * width, (j + 1) * width)) for j in range(1 << n))
        )
    return FilteredSpace(probs, tuple(levels))


def build_mary_space(arity: int, depth: int) -> FilteredSpace:
    """Uniform m-ary analogue of the dyadic construction."""
    if arity < 2 or depth < 0:
        raise ValidationError("arity must be >= 2 and depth nonnegative")
    leaves = arity**depth
    if leaves > (1 << MAX_DYADIC_DEPTH):
        raise ResourceError("m-ary space too large")
    probs = (1.0 / leaves,) * leaves
    levels = []
    for n in range(depth + 1):
        width = arity ** (depth - n)
        levels.append(
            tuple(tuple(range(j * width, (j + 1) * width)) for j in range(arity**n))
        )
    return FilteredSpace(probs, tuple(levels))


def validate_filtration(
    levels: Sequence[Sequence[Sequence[int]]],
    leaf_probs: Sequence[float],
) -> FilteredSpace:
    """Checked constructor: verifies normalization, positivity, that each
    level partitions the leaves, that consecutive levels refine, and that
    the terminal level is discrete."""
    probs = tuple(float(p) for p in leaf_probs)
    n = len(probs)
    if n == 0:
        raise ValidationError("empty leaf set")
    for i, p in enumerate(probs):
        if not (p > 0):
            raise ValidationError(f"leaf_probs[{i}] = {p} is not positive")
    if abs(sum(probs) - 1.0) > PROB_TOL:
        raise ValidationError(
            f"leaf probabilities sum to {sum(probs)!r}, not 1 within {PROB_TOL}"
        )
    if not levels:
        raise ValidationError("filtration must have at least one level")

    lv = tuple(
        tuple(tuple(int(i) for i in block) for block in level) for level in levels
    )
    for k, level in enumerate(lv):
        seen: set[int] = set()
        for b, block in enumerate(level):
            if not block:
                raise ValidationError(f"level {k} block {b} is empty")
            for leaf in block:
                if leaf < 0 or leaf >= n:
                    raise ValidationError(
                        f"level {k} block {b} references unknown leaf {leaf}"
                    )
                if leaf in seen:
                    raise ValidationError(
                        f"level {k}: leaf {leaf} appears in two blocks"
                    )
                seen.add(leaf)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise ValidationError(f"level {k} does not cover leaves {missing}")

    for k in range(len(lv) - 1):
        parent_of = {}
        for b, block in enumerate(lv[k]):
            for leaf in block:
                parent_of[leaf] = b
        for b, block in enumerate(lv[k + 1]):
            parents = {parent_of[leaf] for leaf in block}
            if len(parents) > 1:
                raise ValidationError(
                    f"level {k + 1} block {b} crosses blocks {sorted(parents)} "
                    f"of level {k}: not a refinement"
                )

    if any(len(block) != 1 for block in lv[-1]):
        raise ValidationError("terminal level must be the discrete partition")

    return FilteredSpace(probs, lv)


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
        best, witness = 1.0, (int(np.argmin(probs)),)
        for level in space.levels:
            for block in level:
                idx = list(block)
                spread = float(pv[idx].max() - pv[idx].min())
                val = float(probs[idx].sum()) ** (-spread)
                if val > best:
                    best, witness = val, tuple(block)
        return ConditionKResult(best, witness, mode)
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
    c = 1.0
    for n in range(space.depth + 1):
        cond = space.block_average(recip, n)
        c = max(c, float(np.max(recip / cond)))
    return c


def exponent_algebra(
    op: str, p: Exponent, q: Exponent | None = None
) -> Exponent:
    """Pointwise exponent arithmetic: sum, reciprocal, conjugate
    (1/p + 1/p' = 1, needs p_- > 1), harmonic-sum (1/r = 1/p + 1/q)."""
    pv = p.vals
    if op == "sum":
        if q is None:
            raise DomainError("sum requires a second exponent")
        return Exponent(tuple(pv + q.vals))
    if op == "reciprocal":
        return Exponent(tuple(1.0 / pv))
    if op == "conjugate":
        if p.p_minus() <= 1.0:
            raise DomainError("conjugate exponent requires p_- > 1")
        return Exponent(tuple(pv / (pv - 1.0)))
    if op == "harmonic-sum":
        if q is None:
            raise DomainError("harmonic-sum requires a second exponent")
        return Exponent(tuple(1.0 / (1.0 / pv + 1.0 / q.vals)))
    raise DomainError(f"unknown exponent operation {op!r}")
