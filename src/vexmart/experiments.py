"""Empirical verification harness: inequality ratio estimation on random
instances, the two quantitative counterexamples, and seeded generators.

All randomness flows through ``random.Random`` seeded with strings, which
hashes platform-independently, so identical configs reproduce identical
instances everywhere.  Per-trial seeds are derived from (master seed, trial
index), making trials order-independent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericalError, ResourceError, ValidationError
from .bmo import _block_max, candidate_matrix
from .martingale import (
    Martingale,
    martingale_from_terminal,
    maximal,
    require_f0_zero,
    stopped_terminal_diffs,
)
from .space import (
    BLOCK_BYTES,
    MAX_SPACE_BYTES,
    ArrayValue,
    Exponent,
    FilteredSpace,
    as_leaf_exponent,
    as_leaf_values,
    build_dyadic_space,
    build_mary_space,
    condition_k,
    validate_filtration,
)
from .varlp import (
    kept_subset_norms,
    luxemburg_norm,
    max_norm_ratio,
    modular_grid,
    norm_batch,
)

ASSERT_SLACK = 1e-9
_T_GRID_POINTS = 64
EXPONENT_LAWS = ("constant", "two-block", "iid-uniform", "block-structured")
MARTINGALE_LAWS = ("normal", "uniform", "two-point")


def _rng(*parts) -> random.Random:
    return random.Random("vexmart:" + ":".join(str(x) for x in parts))


# The bulk draws below give the floats of n per-element calls bit for bit,
# read from one getrandbits call on the same MT19937 stream, whose 32-bit
# words come least significant first in the order they are generated.


def _words(rng: random.Random, n: int) -> np.ndarray:
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


def _randoms(rng: random.Random, n: int) -> np.ndarray:
    """n values of rng.random(), as CPython forms each from two words."""
    w = _words(rng, 2 * n).reshape(n, 2)
    return ((w[:, 0] >> 5) * 67108864.0 + (w[:, 1] >> 6)) * 2.0**-53


def _gausses(rng: random.Random, n: int) -> np.ndarray:
    """n values of rng.gauss(0.0, 1.0): Box-Muller on pairs of uniforms in
    CPython's order, with libm's log, cos and sin through ``math``.  A
    pending value is used first and an odd draw leaves one pending."""
    if not n:
        return np.empty(0)
    head = [] if rng.gauss_next is None else [rng.gauss_next]
    rng.gauss_next = None
    u = _randoms(rng, (n - len(head) + 1) // 2 * 2).reshape(-1, 2)

    def libm(f, x):
        return np.fromiter(map(f, x), float, len(x))

    x2pi = (u[:, 0] * (2.0 * math.pi)).tolist()
    g2rad = np.sqrt(-2.0 * libm(math.log, (1.0 - u[:, 1]).tolist()))
    z = np.empty((len(x2pi), 2))
    z[:, 0] = libm(math.cos, x2pi) * g2rad
    z[:, 1] = libm(math.sin, x2pi) * g2rad
    z = np.concatenate((head, z.ravel()))
    if z.size > n:
        rng.gauss_next = float(z[-1])
    return 0.0 + z[:n] * 1.0


def _signs(rng: random.Random, n: int) -> np.ndarray:
    """n values of rng.choice((-1.0, 1.0)): each is a 2-bit getrandbits,
    the word's top bits, redrawn while 2 or more.  Words are drawn ahead,
    so the generator is left further on than by the per-element calls."""
    idx = np.empty(0, np.uint32)
    while idx.size < n:
        top = _words(rng, 2 * (n - idx.size) + 16) >> 30
        idx = np.concatenate((idx, top[top < 2]))
    return np.array((-1.0, 1.0))[idx[:n]]


@dataclass(frozen=True)
class TrialConfig:
    space: FilteredSpace
    seed: int = 0
    trials: int = 100
    p_range: tuple[float, float] = (1.1, 3.0)
    exponent_law: str = "iid-uniform"
    martingale_law: str = "normal"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        lo, hi = self.p_range
        if not (0 < lo <= hi):
            raise ValidationError(f"invalid exponent range {self.p_range}")
        if self.exponent_law not in EXPONENT_LAWS:
            raise ValidationError(f"unknown exponent law {self.exponent_law!r}")
        if self.martingale_law not in MARTINGALE_LAWS:
            raise ValidationError(
                f"unknown martingale law {self.martingale_law!r}"
            )


@dataclass(frozen=True, eq=False)
class ConstantReport(ArrayValue):
    """What one experiment measured: its ratios as one read-only float
    array, the witness of the largest and experiment-specific details,
    both JSON-ready.  The max, mean and quantiles are read from the
    ratios on request; with no ratios they are 0.0, 0.0 and {}."""

    ARRAYS = {"ratios": float}
    name: str
    ratios: np.ndarray
    witness: dict | None
    details: dict

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max()) if self.ratios.size else 0.0

    @property
    def mean_ratio(self) -> float:
        return float(self.ratios.mean()) if self.ratios.size else 0.0

    @property
    def quantiles(self) -> dict[str, float]:
        if not self.ratios.size:
            return {}
        q50, q90 = np.quantile(self.ratios, [0.5, 0.9]).tolist()
        return {"q50": q50, "q90": q90, "q100": self.max_ratio}

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ratios": self.ratios.tolist(),
            "max": self.max_ratio,
            "mean": self.mean_ratio,
            "quantiles": self.quantiles,
            "witness": self.witness,
            "details": self.details,
        }


def generate_exponent(
    space: FilteredSpace,
    law: str,
    p_range: tuple[float, float],
    seed: int = 0,
) -> Exponent:
    lo, hi = p_range
    rng = _rng("exponent", law, lo, hi, seed)
    n = space.n_leaves
    if law == "constant":
        vals = [0.5 * (lo + hi)] * n
    elif law == "two-block":
        half = max(1, n // 2)
        vals = [lo] * half + [hi] * (n - half)
    elif law == "iid-uniform":
        vals = lo + (hi - lo) * _randoms(rng, n)
    elif law == "block-structured":
        level = min(1, space.depth)
        draws = lo + (hi - lo) * _randoms(rng, space.n_blocks[level])
        vals = draws[space.block_of[level]]
    else:
        raise DomainError(f"unknown exponent law {law!r}")
    return Exponent(vals)


def generate_martingale(config: TrialConfig, index: int = 0) -> Martingale:
    """Terminal values drawn per the config law, then centered on each F_0
    block so f_0 = 0."""
    space = config.space
    rng = _rng("martingale", config.martingale_law, config.seed, index)
    n = space.n_leaves
    if config.martingale_law == "normal":
        v = _gausses(rng, n)
    elif config.martingale_law == "uniform":
        v = -1.0 + 2.0 * _randoms(rng, n)
    else:
        v = _signs(rng, n)
    v = v - space.level_averages(v[None])[0]
    return martingale_from_terminal(space, v)


def _with_midpoints(vals: np.ndarray) -> np.ndarray:
    """Ascending values with the midpoint of each neighbouring pair between
    them; none for none."""
    out = np.repeat(vals, 2)[:-1]
    out[1::2] = 0.5 * (vals[:-1] + vals[1:])
    return out


def default_lambda_grid(f: Martingale) -> np.ndarray:
    """Half the smallest positive value of Mf, then the distinct positive
    values of Mf (the only levels where the weak-type ratio changes) with
    their midpoints: an ascending float array, empty when Mf = 0."""
    vals = np.unique(maximal(f))
    vals = vals[vals > 0]
    return np.concatenate((0.5 * vals[:1], _with_midpoints(vals)))


def weak_type_check(
    f: Martingale,
    p: Exponent,
    lambda_grid: Sequence[float] | None = None,
) -> ConstantReport:
    """Per lambda: P(Mf > lambda) / rho(f_N / lambda) against the
    proof-chain constant p_+(A)/p_-(A), A = {Mf > lambda}.

    The constant is proved through Young's inequality, which needs p >= 1
    on A; the bound is asserted exactly there and only reported elsewhere.

    The sets A are nested: with the leaves sorted by decreasing Mf, each A
    is a prefix, so P(A), p_-(A) and p_+(A) are read from one running sum,
    minimum and maximum at the prefix length of each lambda.
    """
    space = f.space
    pvals = as_leaf_exponent(space, p)
    grid = np.asarray(
        default_lambda_grid(f) if lambda_grid is None else lambda_grid, dtype=float
    )
    if not np.all(grid > 0):
        raise DomainError("lambda grid must be positive")
    mf = maximal(f)
    order = np.argsort(-mf, kind="stable")
    # |A| for each lambda: the count of leaves with -Mf < -lambda
    size = np.searchsorted(-mf[order], -grid)
    live = size > 0
    last = size[live] - 1
    pv = pvals[order]
    p_lo = np.minimum.accumulate(pv)[last]
    ratios = np.zeros(grid.size)
    bounds = np.ones(grid.size)
    asserted = np.zeros(grid.size, dtype=bool)
    ratios[live] = np.cumsum(space.probs[order])[last] / modular_grid(
        space.probs, pvals, f.terminal, grid[live]
    )
    bounds[live] = np.maximum.accumulate(pv)[last] / p_lo
    asserted[live] = p_lo >= 1.0
    bad = np.flatnonzero(asserted & (ratios > bounds + ASSERT_SLACK))
    if bad.size:
        j = bad[0]
        raise NumericalError(
            f"weak-type ratio {ratios[j]} exceeds proof-chain constant "
            f"{bounds[j]} at lambda={grid[j]}"
        )
    # the first largest ratio over the lambdas with P(Mf > lambda) > 0
    witness = None
    if live.any():
        j = int(np.argmax(np.where(live, ratios, -np.inf)))
        witness = {
            "lambda": float(grid[j]),
            "ratio": float(ratios[j]),
            "bound": float(bounds[j]),
            "terminal": f.terminal.tolist(),
            "exponent": p.vals.tolist(),
        }
    return ConstantReport(
        "weak-type proof-chain constant",
        ratios,
        witness,
        {
            "lambda_grid": grid.tolist(),
            "bounds": bounds.tolist(),
            "asserted": asserted.tolist(),
        },
    )


def _trial_witness(
    config: TrialConfig, p: Exponent, ratios: Sequence[float], kept: Sequence[int]
) -> dict | None:
    """The first kept trial of largest ratio, or None when no trial was
    kept.  ``kept`` lists the trial index of each ratio; the witness trial's
    martingale is generated again rather than held."""
    if not len(ratios):
        return None
    j = int(np.argmax(ratios))
    i = int(kept[j])
    return {
        "trial": i,
        "ratio": float(ratios[j]),
        "terminal": generate_martingale(config, i).terminal.tolist(),
        "exponent": p.vals.tolist(),
    }


def doob_strong_check(config: TrialConfig, p: Exponent) -> ConstantReport:
    """Per trial: ||Mf||_{p(.)} / ||f_N||_{p(.)}, with a per-ratio scale
    invariance check (f -> 10f agrees to 1e-6 relative).  The four norms
    of a trial are solved in one batch with those of other trials."""
    space, n = config.space, config.space.n_leaves
    pvals = as_leaf_exponent(space, p)
    if p.p_minus() <= 1.0:
        raise DomainError("maximal-norm ratio requires p_- > 1")
    # rows f_N, Mf, 10 f_N and 10 Mf per trial; a batch takes at most
    # about BLOCK_BYTES, so memory does not grow with the trials
    per_call = max(1, BLOCK_BYTES // (32 * n))
    norms = np.empty((config.trials, 4))
    for start in range(0, config.trials, per_call):
        rows = np.empty((min(per_call, config.trials - start), 4, n))
        for i, row in enumerate(rows, start):
            f = generate_martingale(config, i)
            row[0], row[1] = f.terminal, maximal(f)
        rows[:, 2:] = 10.0 * rows[:, :2]
        norms[start : start + len(rows)] = norm_batch(
            space.probs, pvals, rows.reshape(-1, n)
        ).reshape(-1, 4)
    den, num, den10, num10 = norms.T
    kept = np.flatnonzero(den != 0.0)
    ratios = num[kept] / den[kept]
    ratios10 = num10[kept] / den10[kept]
    bad = np.flatnonzero(np.abs(ratios10 - ratios) > 1e-6 * ratios)
    if bad.size:
        j = bad[0]
        raise NumericalError(
            f"maximal-norm ratio not scale invariant: {ratios[j]} vs {ratios10[j]}"
        )
    k = condition_k(space, p)
    return ConstantReport(
        "maximal-norm ratio envelope",
        ratios,
        _trial_witness(config, p, ratios, kept),
        {"skips": config.trials - kept.size, "condition_k": k.k},
    )


def lemma34_check(
    f: Sequence[float], p: Exponent, space: FilteredSpace
) -> ConstantReport:
    """Pointwise block-average inequality with K = condition_k:
    (avg_B |f|)^{p(x)/p_-} <= K * (avg_B |f|^{p(x)/p_-} + 1) for every
    filtration block B and leaf x in B, after rescaling to ||f|| <= 1/2.

    The right side's exponent follows the evaluation point x, so every
    pair (x, y) of leaves is one power P(y) |f(y)|^{e_x}.  Rows x run in
    blocks through one buffer whose columns are the leaves in level-N
    block order, and a block's sums go bottom-up: level N is the entries
    themselves, and each coarser level is one bincount over (row, parent)
    of the level below, with index arrays built once.  A block has
    BLOCK_BYTES / (8 * the blocks of all levels) rows, so the buffer and
    the index arrays each take at most about BLOCK_BYTES, whatever n and
    the depth; each row reads its own block's sum at every level."""
    fv = np.abs(as_leaf_values(space, f))
    n = space.n_leaves
    # the cap bounds the time, n^2 powers: a pair counts the 8 bytes it
    # would take in an n x n matrix
    if 8 * n**2 > MAX_SPACE_BYTES:
        raise ResourceError(
            f"lemma34 check on {n} leaves evaluates {n**2} leaf pairs, "
            f"over {MAX_SPACE_BYTES // 8}"
        )
    norm = luxemburg_norm(space, fv, p).norm
    scale = 1.0
    if norm > 0.5:
        scale = 0.5 / norm
        fv = fv * scale
    k = condition_k(space, p).k
    e = p.vals / p.p_minus()
    lhs = space.level_averages(np.broadcast_to(fv, space.block_of.shape)) ** e
    ratios = np.empty((space.depth + 1, n))
    cols = np.argsort(space.block_of[-1])
    fcols, pcols = fv[cols], space.probs[cols]
    nb = space.n_blocks
    step = min(n, max(1, BLOCK_BYTES // (8 * sum(nb))))
    buf = np.empty((step, n))
    row = np.arange(step)
    # per level m >= 1, each level-m sum's (row, parent) position in the
    # level-(m-1) sums, row-major
    up = [
        (row[:, None] * nb[m - 1] + par).ravel()
        for m, par in enumerate(space.parents, 1)
    ]
    for start in range(0, n, step):
        x = slice(start, start + step)
        r = e[x].size
        # row x: P(y) |f(y)|^{e_x}; the exponent tracks the evaluation
        # point x, not the integration variable y
        sums = np.power(fcols, e[x, None], out=buf[:r])
        sums *= pcols
        sums = sums.ravel()
        for m in range(space.depth, -1, -1):
            bo = space.block_of[m][x]
            avg = sums[row[:r] * nb[m] + bo] / space.block_probs[space.block_ids[m, x]]
            ratios[m, x] = lhs[m, x] / (k * (avg + 1.0))
            if m:
                sums = np.bincount(up[m - 1][: r * nb[m]], sums, r * nb[m - 1])
    # first largest ratio in level-major, leaf-minor order
    level, leaf = divmod(int(np.argmax(ratios)), n)
    best = float(ratios[level, leaf])
    witness = {"level": level, "leaf": leaf, "ratio": best}
    if best > 1.0 + ASSERT_SLACK:
        raise NumericalError(
            f"pointwise block-average inequality violated: max ratio {best}"
        )
    return ConstantReport(
        "block-average pointwise inequality",
        ratios.ravel(),
        witness,
        {"condition_k": k, "rescale": scale},
    )


def jn_equivalence(config: TrialConfig, p: Exponent) -> ConstantReport:
    """Two-sided envelope of bmo_norm(f, p) / bmo_norm(f, 1) over random
    martingales, both norms read from one stopped-difference table per
    trial (``_sups``).  BMO_1, and BMO_p for a constant p, are block
    maxima, ``bmo_norm``'s "dp" values bit for bit, at any depth; a
    variable p is the exhaustive scan, which reads the space's cached scan
    and the denominators the space keeps for each exponent."""
    pv = as_leaf_exponent(config.space, p)
    if p.p_minus() < 1.0:
        raise DomainError("BMO norm equivalence requires p_- >= 1")
    ratios, kept = [], []
    for i in range(config.trials):
        _, b1, bmo_at, _, _ = _sups(generate_martingale(config, i), pv)
        if b1 == 0.0 or (bp := bmo_at(1.0)) == 0.0:
            continue
        ratios.append(bp / b1)
        kept.append(i)
    witness = _trial_witness(config, p, ratios, kept)
    arr = np.array(ratios)
    details = {
        "skips": config.trials - len(kept),
        "upper_envelope": float(arr.max()) if arr.size else 0.0,
        "lower_envelope": float((1.0 / arr).max()) if arr.size else 0.0,
    }
    return ConstantReport("BMO norm equivalence ratio", ratios, witness, details)


def _t_grid_from_diffs(diffs: np.ndarray) -> np.ndarray:
    """0, the distinct positive differences with their midpoints, and 1.25
    times the largest, thinned to at most _T_GRID_POINTS evenly spaced
    entries: an ascending float array, [0.0] when no difference is
    positive."""
    vals = diffs[diffs > 0]
    vals.sort()
    # each value where it first appears in the sorted run
    first = np.empty(vals.size, dtype=bool)
    first[:1] = True
    np.not_equal(vals[1:], vals[:-1], out=first[1:])
    vals = vals[first]
    grid = np.concatenate(([0.0], _with_midpoints(vals), 1.25 * vals[-1:]))
    if grid.size > _T_GRID_POINTS:
        # the indices step by (grid.size - 1) / (_T_GRID_POINTS - 1) > 1,
        # so they are distinct and ascending
        grid = grid[np.linspace(0, grid.size - 1, _T_GRID_POINTS).astype(int)]
    return grid


def _decay_segments(
    cells: np.ndarray, counts: np.ndarray, norm_of_code: np.ndarray
):
    """The decay envelope's indicator norms as step functions of the grid
    index j, in row blocks of about BLOCK_BYTES of the scan's ``cells``.

    ``counts``, which the cells index as the table of stopped differences,
    is at (level n, leaf x) the number of grid points <= that difference,
    and 0 in the last row (tau = inf).  A cell with count k lies in the
    indicator at grid index j exactly when j < k, so with a row's cells
    sorted by decreasing k the indicator at j is a prefix: the first i
    cells on j in [k_(i+1), k_(i)), where k_(n+1) = 0.
    Yields, per block, the row, lo, hi and norm (by the set's code, as in
    ``StoppingScan``) of every nonempty segment [lo, hi); a row's norm is 0
    off its segments.

    Each block's keys are gathered into one buffer reused across blocks and
    sorted there row by row; after that the block is walked flat, cell k
    of the block at row k // n: lo is hi shifted down by one cell with each
    row's last cell set to 0, and a row's prefix codes are one running sum
    over the block less i * (2^n - 1) at block row i, since every row holds
    each leaf, and so each bit, once.  The sums are integers, so exact."""
    n_rows, n = cells.shape
    code = 1 << np.arange(n - 1, -1, -1)
    bits = (1 << n) - 1
    # each cell's count above its bit, negated so that an ascending sort
    # puts a row's cells in order of decreasing count
    neg_key = -((counts << n) | code).ravel()
    step = max(1, BLOCK_BYTES // (8 * n))
    buf = np.empty(min(step, n_rows) * n, dtype=neg_key.dtype)
    for start in range(0, n_rows, step):
        block = cells[start : start + step]
        key = buf[: block.size]
        # the cells index the table by construction (see StoppingScan), so
        # "clip" clips nothing; it only spares numpy a bounds-checked copy
        np.take(neg_key, block, out=key.reshape(block.shape), mode="clip")
        key.reshape(block.shape).sort(axis=1)
        np.negative(key, out=key)
        hi = key >> n
        lo = np.empty_like(hi)
        lo[:-1] = hi[1:]
        lo[n - 1 :: n] = 0
        at = np.flatnonzero(lo < hi)
        row = at // n
        key &= bits
        lhs = norm_of_code[np.cumsum(key)[at] - row * bits]
        yield row + start, lo[at], hi[at], lhs


def _decay_error(t: float, lhs: float, bound: float) -> NumericalError:
    return NumericalError(f"decay bound violated at t={t}: level norm {lhs} > bound {bound}")


def _scan_sups(space: FilteredSpace, pvals: np.ndarray, table: np.ndarray):
    """``exp_jn_curve``'s suprema over the exhaustive scan: ||f||_{BMO_{r p(.)}}
    as a function of r, and the decay envelope as a function of (grid,
    counts, factors) that raises on a broken bound; and the size of the
    family compared, as a details entry.

    No pass is made per grid point.  Each stopping time's numerator is a
    step function of t with at most one step per leaf (see
    ``_decay_segments``), read in one pass over the scan: the envelope at
    each t is the largest segment value over t, and the decay bound is
    checked once per segment against the least bound up to its end, then
    per grid point only on the segments that break that one."""
    scan = candidate_matrix(space)
    # the scan holds every constant tau = n, so the table has exactly the
    # positive values of the scan's differences, and the same grid
    diffs = np.take(table, scan.cells)
    # every indicator's norm by its set's code (see StoppingScan; at most
    # 19 leaves under the cap), 0 for the empty set; in L^{r p(.)} it is
    # the power 1/r of the L^{p(.)} one
    norm_of_code = kept_subset_norms(space, pvals)
    dens = norm_of_code[scan.codes]

    def bmo_at(r: float) -> float:
        return max_norm_ratio(space.probs, pvals * r, diffs, dens ** (1.0 / r))[0]

    def envelope(grid: np.ndarray, counts: np.ndarray, factors: np.ndarray):
        # grid index j below is a position on the ascending grid;
        # least[hi - 1], the least factor on grid indices 0..hi-1, is at
        # most every factor on a segment [lo, hi); the bound
        # fl(fl(factor * den) + slack) is monotone in the factor, so a
        # segment that breaks it somewhere on its range breaks it at
        # least[hi - 1]
        g = grid.size
        span = np.arange(g)
        least = np.minimum.accumulate(factors)
        slack = ASSERT_SLACK * max(1.0, float(dens.max()))
        # top[lo * (g + 1) + hi]: the largest value lhs / den of the
        # segments on [lo, hi)
        top = np.zeros((g + 1) ** 2)
        broken = np.zeros(g, dtype=bool)
        for rows, lo, hi, lhs in _decay_segments(scan.cells, counts, norm_of_code):
            den = dens[rows]
            np.maximum.at(top, lo * (g + 1) + hi, lhs / den)
            over = np.flatnonzero(lhs > least[hi - 1] * den + slack)
            if over.size:
                on = (span >= lo[over, None]) & (span < hi[over, None])
                bound = factors * den[over, None] + slack
                broken |= (on & (lhs[over, None] > bound)).any(axis=0)
        if broken.any():
            # the first broken grid point, and its row of largest excess,
            # from the segments on it
            j = int(np.flatnonzero(broken)[0])
            lhs_at = np.zeros(dens.size)
            for rows, lo, hi, lhs in _decay_segments(scan.cells, counts, norm_of_code):
                on = (lo <= j) & (j < hi)
                lhs_at[rows[on]] = lhs[on]
            bound = factors[j] * dens
            i = int(np.argmax(lhs_at - bound))
            raise _decay_error(float(grid[j]), lhs_at[i], bound[i])
        # the envelope at j is the largest value over lo <= j < hi
        top = top.reshape(g + 1, g + 1)
        np.maximum.accumulate(top, axis=0, out=top)
        np.maximum.accumulate(top[:, ::-1], axis=1, out=top[:, ::-1])
        return top.diagonal(1).copy()

    return bmo_at, envelope, {"stopping_times": len(diffs)}


def _block_sups(space: FilteredSpace, p0: float, table: np.ndarray):
    """``_scan_sups`` for a constant exponent p0, where every supremum is a
    maximum over single blocks (see ``bmo``): both quantities are read from
    per-block sums, at any depth, with no scan and no subset norms.

    The decay envelope at grid index j is the largest P(B, D >= t_j)^(1/p0)
    / P(B)^(1/p0) over the blocks B, D the block's stopped differences: a
    cell with count k lies in the indicator at j exactly when j < k, so the
    numerators of every block and grid point are one (blocks x counts)
    histogram of the leaf probabilities, summed from the largest count
    down.  The decay bound is checked against every block and grid point,
    and a break names the block of largest excess at the first broken
    t."""
    ids, probs = space.block_ids, space.block_probs
    den = probs ** (1.0 / p0)

    def bmo_at(r: float) -> float:
        return _block_max(space, table, r * p0)[0]

    def envelope(grid: np.ndarray, counts: np.ndarray, factors: np.ndarray):
        g, nb = grid.size, probs.size
        hist = np.bincount(
            (ids * (g + 1) + counts[:-1]).ravel(),
            np.broadcast_to(space.probs, ids.shape).ravel(),
            minlength=nb * (g + 1),
        ).reshape(nb, g + 1)
        # column k of the suffix sums holds the cells with count >= k, and
        # column j + 1 the indicator at grid index j
        lhs = np.cumsum(hist[:, ::-1], axis=1)[:, -2::-1] ** (1.0 / p0)
        bound = factors * den[:, None]
        broken = (lhs > bound + ASSERT_SLACK * max(1.0, float(den.max()))).any(axis=0)
        if broken.any():
            j = int(np.flatnonzero(broken)[0])
            i = int(np.argmax(lhs[:, j] - bound[:, j]))
            raise _decay_error(float(grid[j]), lhs[i, j], bound[i, j])
        return (lhs / den[:, None]).max(axis=0)

    return bmo_at, envelope, {"blocks": probs.size}


def _sups(f: Martingale, pvals: np.ndarray):
    """One stopped-difference table of f and the suprema read from it:
    ||f||_{BMO_1}, the block maximum at 1 and bit for bit ``bmo_norm``'s dp
    value; ``bmo_at`` and the envelope of ``_block_sups`` for a constant
    exponent or of ``_scan_sups`` otherwise (refused past the scan's cap);
    and the table with the family's details entry."""
    space = f.space
    table = stopped_terminal_diffs(f)
    if (pvals == pvals[0]).all():
        bmo_at, envelope, family = _block_sups(space, float(pvals[0]), table)
    else:
        bmo_at, envelope, family = _scan_sups(space, pvals, table)
    return table, _block_max(space, table, 1.0)[0], bmo_at, envelope, family


def exp_jn_curve(f: Martingale, p: Exponent) -> ConstantReport:
    """Exponential decay of ||chi_{tau<inf, f - f_{tau-1} >= t}||_{p(.)} /
    ||chi_{tau<inf}||_{p(.)} in t, over every stopping time.

    Asserts the envelope curve is nonincreasing, fits (C1, C2) by log-linear
    regression with C2 > 0 (no fit for a flat curve or one numpy finds
    rank-deficient), and checks the explicit construction C1 = 4,
    C2 = ln2 / (2*C_hat) pointwise, where C_hat is the measured constant of
    the moment chain sup_r ||f||_{BMO_{r p(.)}} / ||f||_{BMO_1} over the r
    values the construction actually uses (a fixed point, since r depends on
    C_hat through r = t / (2 * C_hat * ||f||_{BMO_1})).

    The suprema come from the stopped differences of one table (``_sups``),
    which also gives the ascending t grid.  For a constant exponent p0 each
    is a maximum over single blocks (``_block_sups``), at any depth, and the
    curve keeps the scan's form P(B, D >= t)^(1/p0) / P(B)^(1/p0); details
    then count the ``blocks`` compared.  A variable exponent is read from
    the exhaustive scan (``_scan_sups``), refused past its cap, and details
    count the ``stopping_times`` scanned.  For every p, ||f||_{BMO_1} is
    the block maximum of the same table, bit for bit ``bmo_norm``'s dp
    value.  Off {tau < inf} the differences are exactly 0."""
    pvals = as_leaf_exponent(f.space, p)
    require_f0_zero(f, "exp_jn_curve requires f_0 = 0")
    table, b1, bmo_at, envelope, family = _sups(f, pvals)
    if b1 == 0.0:
        raise DomainError("exponential decay curve requires a nonzero BMO_1 norm")
    grid = _t_grid_from_diffs(table)

    cache: dict[float, float] = {}

    def moment_ratio(r: float) -> float:
        if r not in cache:
            cache[r] = bmo_at(r) / b1
        return cache[r]

    # fixed point for C_hat: the r values used depend on C_hat and vice
    # versa; the iteration is monotone nondecreasing and verified after
    def used_rs(c_hat: float) -> list[float]:
        c0 = c_hat * b1
        return (grid[grid >= 2.0 * c0] / (2.0 * c0)).tolist()

    c_hat = max(moment_ratio(1.0), 1e-12)
    for _ in range(60):
        new = max(map(moment_ratio, used_rs(c_hat)), default=c_hat)
        if new <= c_hat * (1.0 + 1e-12):
            break
        c_hat = new
    for r in used_rs(c_hat):
        if moment_ratio(r) > c_hat * (1.0 + ASSERT_SLACK):
            raise NumericalError(
                "moment-chain constant fixed point failed to stabilize: "
                f"r={r!r} has moment ratio {moment_ratio(r)!r} > "
                f"C_hat {c_hat!r}"
            )
    c2 = math.log(2.0) / (2.0 * c_hat)

    counts = np.searchsorted(grid, table, side="right")
    counts[-1] = 0
    # libm's exp through math, which numpy's may differ from in the last bit
    factors = 4.0 * np.array(list(map(math.exp, (-c2 * grid / b1).tolist())))
    env = envelope(grid, counts, factors)
    curve = np.column_stack((grid, env)).tolist()
    rise = np.flatnonzero(env[1:] > env[:-1] + 1e-12)
    if rise.size:
        (t0, y0), (t1, y1) = curve[rise[0] : rise[0] + 2]
        raise NumericalError(
            f"decay curve is not nonincreasing: envelope {y1!r} "
            f"at t={t1!r} exceeds {y0!r} at t={t0!r}"
        )

    pos = (env > 0) & (grid > 0)
    ts, ys = grid[pos], env[pos]
    fit = None
    if ts.size >= 2 and ys.max() > ys.min():
        logs = np.log(ys)
        (slope, intercept), _, rank, _, _ = np.polyfit(ts / b1, logs, 1, full=True)
        # numpy finds rank 1 when the positive t lie within a few ulp of
        # each other: a line through them measures nothing.  It may find
        # rank 2 there too, with an intercept past exp's range: no fit
        if rank == 2 and intercept < math.log(np.finfo(float).max):
            fit = {"C1": float(math.exp(intercept)), "C2": float(-slope)}
        # a curve flat up to round-off fits an arbitrarily-signed tiny
        # slope; only a genuine decay pins the sign
        if fit and logs.max() - logs.min() > 1e-9 and fit["C2"] <= 0:
            raise NumericalError(f"fitted decay rate is not positive: {fit['C2']}")
    witness = {
        "t_max_positive": float(ts[-1]) if ts.size else 0.0,
        "ratio": float(env[0]),
        "bmo1": b1,
    }
    return ConstantReport(
        "exponential decay envelope",
        env,
        witness,
        {
            "curve": curve,
            "fit": fit,
            "proof_constants": {"C1": 4.0, "C2": c2, "C_hat": c_hat},
            "bmo1": b1,
            **family,
        },
    )


NS_DEPTH_CAP = 1 << 20


def _ns_h(depth: int) -> np.ndarray:
    """h_m for m = 1..depth on the dyadic counterexample: partial sums of
    1/ln(2^n e) minus the next term."""
    n = np.arange(1, depth + 1)
    inv = 1.0 / (n * math.log(2.0) + 1.0)
    next_inv = 1.0 / ((n + 1) * math.log(2.0) + 1.0)
    return np.cumsum(inv) - next_inv


def nakai_sadasue(max_n: int) -> ConstantReport:
    """The dyadic counterexample exponent g = sin(h): verifies
    P(B_N)^{g_-(B_N) - g_+(B_N)} >= 2^{N/2} for N = 1..max_n and the
    increment bounds 0 < h_{m+1} - h_m <= 2/((m+1) ln2).

    B_m is the leftmost dyadic interval of measure 2^-m; g is constant
    sin(h_m) on the ring B_m \\ B_{m+1}, so the computation runs on the ring
    index m directly and never materializes 2^D leaves.  The depth D is
    grown adaptively until every N <= max_n has sine-window witnesses
    (some ring with sin >= 1/2 and one with sin <= 0); rings inside the
    unresolved tail B_D are excluded, so every reported spread is a
    certified lower bound."""
    if max_n < 1:
        raise ValidationError("max_n must be >= 1")
    if max_n > 30:
        raise DomainError("max_n is capped at 30")

    depth = 4 * max_n + 64
    while True:
        h = _ns_h(depth)
        sines = np.sin(h)
        window = sines[max_n - 1 :]
        if window.max() >= 0.5 and window.min() <= 0.0:
            break
        if depth >= NS_DEPTH_CAP:
            raise ResourceError(
                f"no sine-window witnesses for N={max_n} up to ring depth "
                f"{depth}; partial spread {window.max() - window.min():.6f}"
            )
        depth *= 2

    inc = np.diff(h)
    m = np.arange(1, depth)
    inc_bound = 2.0 / ((m + 1) * math.log(2.0))
    bad = np.flatnonzero(~((inc > 0) & (inc <= inc_bound)))
    if bad.size:
        j = int(bad[0])
        raise NumericalError(
            f"h increment bounds violated at m={j + 1}: h_(m+1) - h_m = "
            f"{float(inc[j])!r} is not in (0, {float(inc_bound[j])!r}]"
        )

    # suffix extrema of sin(h_m) over rings m >= N give g_+/g_- on B_N
    suf_max = np.maximum.accumulate(sines[::-1])[::-1]
    suf_min = np.minimum.accumulate(sines[::-1])[::-1]
    ratios = []
    witness = None
    for big_n in range(1, max_n + 1):
        spread = float(suf_max[big_n - 1] - suf_min[big_n - 1])
        ratio = 2.0 ** (big_n * (spread - 0.5))
        if spread < 0.5:
            raise NumericalError(
                f"resolved spread {spread} at N={big_n} below 1/2"
            )
        ratios.append(ratio)
        if big_n == max_n:
            witness = {
                "N": big_n,
                "spread": spread,
                "ratio_vs_2_pow_half_N": ratio,
                "y_ring": int(big_n - 1 + np.argmax(sines[big_n - 1 :]) + 1),
                "z_ring": int(big_n - 1 + np.argmin(sines[big_n - 1 :]) + 1),
            }
    return ConstantReport(
        "dyadic counterexample margin",
        ratios,
        witness,
        {
            "depth": depth,
            "h1": float(h[0]),
            "excluded_tail_measure": 2.0**-depth,
            "max_increment_bound": float(inc_bound[0]),
        },
    )


def _jensen_ratio(
    space: FilteredSpace, f: Sequence[float], p: Exponent
) -> tuple[float, dict]:
    """max over levels n and leaves w of |E(f|F_n)(w)|^{p(w)} /
    E(|f|^{p(.)}|F_n)(w), and the first (level, leaf) attaining it in
    level-major order; (0.0, {}) when no ratio is positive."""
    fv = as_leaf_values(space, f)
    shape = space.block_of.shape
    num = np.abs(space.level_averages(np.broadcast_to(fv, shape))) ** p.vals
    den = space.level_averages(np.broadcast_to(np.abs(fv) ** p.vals, shape))
    ok = den > 0
    ratio = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
    n, j = divmod(int(np.argmax(ratio)), space.n_leaves)
    if ratio[n, j] > 0.0:
        return float(ratio[n, j]), {"level": n, "leaf": j}
    return 0.0, {}


def _violation_draw(config: TrialConfig, i: int) -> tuple[np.ndarray, Exponent]:
    """Leaf values and exponent of random trial i of violation_33_search."""
    fv = _gausses(_rng("violation", config.seed, i), config.space.n_leaves)
    p = generate_exponent(
        config.space, config.exponent_law, config.p_range, seed=config.seed * 7919 + i
    )
    return fv, p


def violation_33_search(config: TrialConfig) -> ConstantReport:
    """Maximum pointwise Jensen-gap ratio over random instances plus the
    deterministic scaling family f_c = (c, 0) on the uniform 2-leaf space
    with p = (1, 2), whose ratio is exactly c/2 — no uniform constant can
    bound the variable-exponent conditional Jensen inequality."""
    two = validate_filtration([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    p12 = Exponent((1.0, 2.0))
    ratios, infos, family = [], [], []
    for c in (8.0, 100.0, 1e4):
        ratio, info = _jensen_ratio(two, (c, 0.0), p12)
        ratios.append(ratio)
        infos.append(info)
        family.append({"c": c, "ratio": ratio})
    for i in range(config.trials):
        ratio, info = _jensen_ratio(config.space, *_violation_draw(config, i))
        ratios.append(ratio)
        infos.append(info)
    # the first largest ratio, the deterministic family first; a random
    # witness trial is drawn again rather than held
    j = int(np.argmax(ratios))
    if j < len(family):
        witness = {"kind": "deterministic", **family[j], **infos[j]}
    else:
        fv, p = _violation_draw(config, j - len(family))
        witness = {
            "kind": "random",
            "trial": j - len(family),
            "ratio": ratios[j],
            "f": fv.tolist(),
            "exponent": p.vals.tolist(),
            **infos[j],
        }
    return ConstantReport(
        "conditional Jensen gap",
        ratios,
        witness,
        {"deterministic_family": family},
    )


def default_test_matrix(seed: int = 0):
    """(label, space, exponent) triples covering dyadic depths 1-6, one
    3-ary space, and the constant / two-block / iid-uniform exponent
    families."""
    spaces = [(f"dyadic-{d}", build_dyadic_space(d)) for d in range(1, 7)]
    spaces.append(("3ary-2", build_mary_space(3, 2)))
    out = []
    for name, space in spaces:
        for law in ("constant", "two-block", "iid-uniform"):
            p = generate_exponent(space, law, (1.1, 3.0), seed=seed)
            out.append((f"{name}/{law}", space, p))
    return out
