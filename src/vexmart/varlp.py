"""Modular and Luxemburg quasi-norm of L^{p(.)} on a finite space.

The modular is the finite weighted sum  rho(f/lambda) = sum_w P(w) *
(|f(w)|/lambda)^{p(w)}, computed for a whole grid of lambdas by one
function, of which the scalar modular is a one-lambda call.  The Luxemburg
norm is the infimal lambda with rho(f/lambda) <= 1, solved by Newton's
method, run by the batch loop on rows and by one loop on one row, one set
or the blocks of a table:

* In s = log(lambda), g(s) = log rho(f e^{-s}) is a log-sum-exp of affine
  functions of s, hence convex and strictly decreasing for f != 0, and the
  norm is its root.  Its slope -g' is the mean of p under the modular's
  weights, so it lies in [p_-, p_+].  g is evaluated with the row maximum
  shifted out, so no power overflows, and weights below e^-600 are raised
  to it, far under the last bit of the sums, so exp never meets -inf
  (zero entries) or underflow, which are many times slower.
* On a probability space rho(f/||f||_inf) <= 1, so the root lies at or
  left of t = log ||f||_inf, and Newton starts at the zero of g's tangent
  there, which convexity puts left of the root; the slope comes from the
  same pass as g(t).  Newton's method started left of the root climbs to
  it monotonically.
* Brackets: left of the root, Newton's step stays left of it, and -g' is
  at least its value at t, so the root lies in [s + g/(-g'(s)),
  s + g/(-g'(t))]; at t it lies in [t + g/(-g'(t)), t + g/p_+].
  A supremum of norm / den over many rows (:func:`max_norm_ratio`, the
  BMO norm and the John-Nirenberg moment ratios) gives a row up once the
  upper end of its bracket, over its den, is below (1 - PRUNE_MARGIN)
  times a ratio some row is known to reach: a finished row's ratio or the
  lower end of a running row's bracket.
  Such a row is strictly below the maximum, so the value and the first
  row attaining it come from rows solved exactly as in :func:`norm_batch`.
* A constant exponent takes the closed form (E|f|^p)^{1/p}.
* One loop, :func:`_newton`, solves one row (:func:`luxemburg_norm`, on
  the support of f), one indicator norm ||chi_E|| (:func:`indicator_norm`,
  on E alone: P(E)^{1/p} where p is constant on E, else from the tangent
  at lambda = 1) and the norms of T_n 1_B for every block B of every level
  n of a (levels x leaves) table T (:func:`block_norms`, the single-block
  suprema past the cap), with the kernel's start, floor and stopping rule.
  A row or a set is evaluated by the kernel's pass, the blocks by one
  pass over the table's cells, segmented by block.
* The norms ||chi_{tau<inf}|| that the BMO and Lipschitz denominators and
  the atomic decomposition divide by, and the blocks' ||chi_B||, are kept
  on the space, one store per space under one byte budget: one set's norm
  (:func:`kept_indicator_norms`), every leaf subset's by code
  (:func:`kept_subset_norms`) and every block's (:func:`kept_block_norms`).
* The kernel solves every batch on its leaves x rows transpose, and its
  pass sums over the leaves on axis 0, for one 1-d row alike.  A batch's
  columns and a support alone sum in their own orders, so a norm agrees
  across them to about one unit in the last place of log(norm / max|f|).

Exponents are finite, as an :class:`Exponent` guarantees.  The one +inf
exponent of the theory, 1/alpha(.) on {alpha = 0} in the Lipschitz norm,
meets only indicators, and :func:`vexmart.bmo.lipschitz_norm` finds their
norms without passing it here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .space import (
    BLOCK_BYTES,
    Exponent,
    FilteredSpace,
    as_leaf_exponent,
    as_leaf_values,
    readonly,
)

NEWTON_REL_TOL = 1e-12
NEWTON_MAX_ITER = 200
# relative slack of the pruned suprema, far above NEWTON_REL_TOL
PRUNE_MARGIN = 1e-9
_LOG_KEEP = math.log1p(-PRUNE_MARGIN)
ASSERT_TOL = 1e-9
# bytes of indicator norms that one space keeps: keys, values and
# _ENTRY_BYTES per kept norm or exponent, about what Python's objects and
# dict slots add to each (170-210 bytes in all per kept float, measured)
_KEPT_NORM_BUDGET = 1 << 19
_ENTRY_BYTES = 160


@dataclass(frozen=True)
class NormResult:
    """``iterations`` counts Newton steps, 0 for a closed form.
    ``residual`` is |rho(f/norm) - 1|, or 0 where a closed form gives the
    norm."""

    norm: float
    iterations: int
    residual: float


def modular(
    space: FilteredSpace,
    f: Sequence[float],
    p: Exponent,
    lam: float,
) -> float:
    """rho(f/lam), a one-lambda call of :func:`modular_grid`."""
    if not lam > 0:
        raise DomainError("modular requires lambda > 0")
    v = as_leaf_values(space, f)
    return float(modular_grid(space.probs, as_leaf_exponent(space, p), v, [lam])[0])


def modular_grid(
    probs: np.ndarray,
    pvals: np.ndarray,
    f: np.ndarray,
    lams: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """rho(f/lam) for every lam of a positive 1-d array.  The (lambda,
    leaf) terms are made in one reused buffer of about BLOCK_BYTES, block
    after block, so memory does not grow with the grid and no block is
    allocated afresh; each term takes the one-lambda operations in the
    same order, and each block's rows are summed exactly as a one-lambda
    call sums.
    Internal plumbing for the weak-type check, like :func:`norm_batch`."""
    lams = np.asarray(lams, dtype=float)
    a = np.abs(f)
    step = max(1, BLOCK_BYTES // a.nbytes)
    buf = np.empty((min(step, lams.size), a.size))
    out = np.empty(lams.size)
    for start in range(0, lams.size, step):
        lam = lams[start : start + step, None]
        terms = np.divide(a, lam, out=buf[: lam.size])
        np.power(terms, pvals, out=terms)
        np.multiply(probs, terms, out=terms)
        np.sum(terms, axis=1, out=out[start : start + step])
    return out


_LOG_WEIGHT_FLOOR = -600.0


def _log_modular(
    logw: np.ndarray, pvals: np.ndarray, u: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """g(u) = log sum_w exp(logw - p u) and the slope -g'(u), which is the
    mean of p under the weights exp(logw - p u), summed over the leaves on
    axis 0: one row for a 1-d ``logw`` and a scalar u, one per column of a
    leaves x rows ``logw`` with one u per column."""
    e = logw - np.multiply.outer(pvals, u)
    top = e.max(axis=0)
    e -= top
    # each row's largest weight is exactly 1, so weights below e^-600 are
    # far under the last bit of both sums; raised to it, zero entries
    # (-inf) and underflow skip exp's slow path
    np.maximum(e, _LOG_WEIGHT_FLOOR, out=e)
    w = np.exp(e, out=e)
    total = w.sum(axis=0)
    return top + np.log(total), pvals @ w / total


def _newton(evaluate, u, what, scale=1.0):
    """Newton's method on g from a start u left of the root, a float or one
    entry per independent problem, where ``evaluate(u)`` gives g(u) and the
    slope -g'(u): each entry stops at its first point whose step is at most
    NEWTON_REL_TOL and keeps it.  Returns u, the steps taken and g there.
    A failure to converge names ``what(running, k)``, given the entries
    still running and the index k of the first, and its last lambda,
    scale * e^u."""
    for it in range(1, NEWTON_MAX_ITER + 1):
        g, slope = evaluate(u)
        step = g / slope
        done = step <= NEWTON_REL_TOL
        running = done.size - np.count_nonzero(done)
        if not running:
            return u, it, g
        if running < done.size:
            step[done] = 0.0
        u += step
    k = int(np.argmin(done))
    lam = float(np.ravel(scale * np.exp(u))[k])
    raise NumericalError(
        f"Luxemburg Newton iteration did not converge in {NEWTON_MAX_ITER} steps "
        f"on {what(running, k)}, last at lambda {lam!r}"
    )


def _luxemburg_rows(
    probs: np.ndarray,
    pvals: np.ndarray,
    rows: np.ndarray,
    dens: np.ndarray | None = None,
) -> np.ndarray:
    """The Luxemburg norms of the rows of a 2-d array, solved on its leaves
    x rows transpose.

    Newton runs on u = log(lambda / max|f|), where the modular terms are
    P(w) |f(w)/max|f||^{p(w)} e^{-p(w) u}, and stops at the first point
    whose step is at most NEWTON_REL_TOL; that point is returned.  Steps
    below zero only arise from rounding at the root and stop the
    iteration too.

    With positive ``dens``, one per row, a row leaves the iteration as soon
    as its bracket shows that its norm / den is below (1 - PRUNE_MARGIN)
    times a ratio that some row is known to reach; its norm is NaN.  A row
    attaining the largest ratio is never dropped, and every row that
    finishes is solved exactly as without ``dens``.
    """
    a = np.abs(rows.T, order="C")
    m = rows.shape[0]
    norms = np.zeros(m)
    top = a.max(axis=0, initial=0.0)
    live = top > 0
    # log(0) = -inf marks a zero entry; terms far below the row maximum
    # may underflow to 0
    with np.errstate(divide="ignore", under="ignore"):
        if np.all(pvals == pvals[0]):
            scale = np.where(live, top, 1.0)
            p0 = pvals[0]
            norms = scale * (probs @ (a / scale) ** p0) ** (1.0 / p0)
        elif live.any():
            idx = np.flatnonzero(live)
            h = a if idx.size == m else np.take(a, idx, axis=1)
            h = h / top[idx]
            logw = np.log(probs)[:, None] + pvals[:, None] * np.log(h)
            # the rest reads only logw: free two batch-sized arrays before
            # the passes allocate their own
            del a, h
            # g is convex, so its tangent at u = 0 meets zero left of the root
            g0, slope0 = _log_modular(logw, pvals, np.zeros(idx.size))
            u = g0 / slope0
            if dens is not None:
                # in logs, the ratio a row reaches at e^u is lgain + u; the
                # root r lies in [g0 / slope0, g0 / max p], as
                # slope0 <= -g' <= max p on [r, 0], so the row that reaches
                # best is kept
                lgain = np.log(top[idx] / dens[idx])
                norms[idx] = np.nan
                best = (lgain + u).max()
                keep = lgain + g0 / pvals.max() >= best + _LOG_KEEP
                if not keep.all():
                    idx, u, lgain = idx[keep], u[keep], lgain[keep]
                    slope0 = slope0[keep]
                    logw = np.compress(keep, logw, axis=1)
            for _ in range(NEWTON_MAX_ITER):
                g, slope = _log_modular(logw, pvals, u)
                step = g / slope
                done = step <= NEWTON_REL_TOL
                keep = ~done
                if done.any():
                    k = idx[done]
                    norms[k] = top[k] * np.exp(u[done])
                nxt = u + step
                if dens is not None:
                    # Newton's step stays left of the root, and -g' >= slope0
                    # left of it: r lies in [u + g / slope, u + g / slope0]
                    best = max(best, (lgain + np.where(done, u, nxt)).max())
                    keep &= lgain + u + g / slope0 >= best + _LOG_KEEP
                if not keep.any():
                    break
                u = nxt
                if not keep.all():
                    idx, u = idx[keep], u[keep]
                    logw = np.compress(keep, logw, axis=1)
                    if dens is not None:
                        slope0, lgain = slope0[keep], lgain[keep]
            else:
                lam = float(top[idx[0]] * np.exp(u[0]))
                raise NumericalError(
                    f"Luxemburg Newton iteration did not converge in "
                    f"{NEWTON_MAX_ITER} steps on {idx.size} rows; the first, "
                    f"row {idx[0]} of the batch, was last at lambda {lam!r}"
                )
    return norms


def luxemburg_norm(
    space: FilteredSpace,
    f: Sequence[float],
    p: Exponent,
) -> NormResult:
    """Luxemburg norm inf{lambda > 0 : rho(f/lambda) <= 1}: the kernel's
    closed form, or its Newton iteration run on the support of f alone."""
    a = np.abs(as_leaf_values(space, f))
    pvals = as_leaf_exponent(space, p)
    top = float(a.max())
    if top == 0.0:
        return NormResult(0.0, 0, 0.0)
    with np.errstate(divide="ignore", under="ignore"):
        if (pvals == pvals[0]).all():
            p0 = pvals[0]
            norm = top * float((a / top) ** p0 @ space.probs) ** (1.0 / p0)
            return NormResult(float(norm), 0, 0.0)
        live = a > 0
        q = pvals[live]
        logw = np.log(space.probs[live]) + q * np.log(a[live] / top)
        # g is convex, so its tangent at u = 0 meets zero left of the root
        g0, slope0 = _log_modular(logw, q, 0.0)
        u, steps, g = _newton(
            lambda u: _log_modular(logw, q, u), g0 / slope0,
            lambda *_: f"the support of f, a set of {q.size} leaves", top,
        )
    return NormResult(top * math.exp(u), steps, abs(math.expm1(g)))


def norm_batch(
    probs: np.ndarray,
    pvals: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Luxemburg norms of many leaf functions sharing one (space, exponent),
    from the batch kernel, solved on the batch's leaves x rows transpose
    with the pass and stopping rule that :func:`luxemburg_norm` runs on one
    row.  A row's norm can change in its last bit with the other rows in
    its batch, so splitting batches another way can move pinned outputs.
    Internal plumbing for the sup-over-stopping-times modules."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return _luxemburg_rows(probs, pvals, rows)


def max_norm_ratio(
    probs: np.ndarray,
    pvals: np.ndarray,
    rows: np.ndarray,
    dens: np.ndarray,
) -> tuple[float, int]:
    """The largest ||row_i||_{p(.)} / dens_i over the rows of a nonempty
    2-d array and the first i attaining it; ``dens`` must be positive and
    ``probs`` a probability vector.  Rows that provably fall short of the
    largest ratio are given up before they are solved to the end, so the
    value and i are those of the full :func:`norm_batch`.  Internal
    plumbing for the suprema over stopping times."""
    # given-up rows are NaN, which fmax passes over
    ratios = _luxemburg_rows(probs, pvals, rows, dens) / dens
    best = np.fmax.reduce(ratios)
    return float(best), int(np.argmax(ratios == best))


def _segment_log_modular(
    logw: np.ndarray, pvals: np.ndarray, u: np.ndarray, seg: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_log_modular` on the segments of a 1-d ``logw``: per segment
    k, the cells with seg == k, which run from starts[k] to the next start,
    g(u[k]) and the slope -g'(u[k]), with the kernel's shift and floor."""
    e = u.take(seg)
    e *= pvals
    np.subtract(logw, e, out=e)
    top = np.maximum.reduceat(e, starts)
    e -= top.take(seg)
    np.maximum(e, _LOG_WEIGHT_FLOOR, out=e)
    w = np.exp(e, out=e)
    total = np.add.reduceat(w, starts)
    w *= pvals
    return top + np.log(total), np.add.reduceat(w, starts) / total


def block_norms(space: FilteredSpace, table: np.ndarray, pvals: np.ndarray) -> np.ndarray:
    """||T_n 1_B||_{p(.)} for every block B of every level n, in the
    level-major numbering of ``FilteredSpace.level_slices``, from a
    (levels x leaves) table T: one Newton pass over its cells, segmented by
    block (``FilteredSpace.block_cells``, kept on the space), with no
    blocks x leaves array.

    Zero cells are left out, since the kernel's floor puts their weights
    e^-600 under the block's largest, below the last bit of every sum; a
    block with no nonzero cell has norm 0.  On the others :func:`_newton`
    runs on u = log(lambda / max|T_n 1_B|) from the zero of the tangent at
    u = 0, with the kernel's shift and floor, and each block keeps the
    first point whose step is at most NEWTON_REL_TOL, so a norm agrees with
    the kernel's to about one unit in the last place of u.  Besides
    ``table`` and the grouping it holds at most five arrays of one float or
    index per cell at once (counted in ``bmo.BLOCK_PASS_ARRAYS``)."""
    order, starts = space.block_cells
    # the cell-sized arrays held at once are at most five: the values (then
    # logw), the leaves, the segments and p per cell, and one temporary; in
    # the loop logw, the segments, p and the iteration's two
    a = table.take(order)
    np.abs(a, out=a)
    nz = a > 0
    counts = np.add.reduceat(nz, starts, dtype=np.intp)
    norms = np.zeros(starts.size)
    live = np.flatnonzero(counts)
    if not live.size:
        return norms
    leaf = order % space.n_leaves
    if np.count_nonzero(nz) < nz.size:
        a, leaf, counts = a[nz], leaf[nz], counts[live]
    del nz
    # each cell's segment: the position of its block among the live ones
    seg = np.repeat(np.arange(live.size), counts)
    starts = np.cumsum(counts) - counts
    top = np.maximum.reduceat(a, starts)
    with np.errstate(divide="ignore", under="ignore"):
        a /= top.take(seg)
        logw = np.log(a, out=a)
        q = pvals[leaf]
        logw *= q
        logw += np.log(space.probs)[leaf]
        del a, leaf
        # g is convex, so its tangent at u = 0 meets zero left of the root
        g0, slope0 = _segment_log_modular(logw, q, np.zeros(live.size), seg, starts)
        u = _newton(
            lambda u: _segment_log_modular(logw, q, u, seg, starts), g0 / slope0,
            lambda running, k: f"{running} blocks; the first, block {live[k]}", top,
        )[0]
    norms[live] = top * np.exp(u)
    return norms


def indicator_norm(probs: np.ndarray, pvals: np.ndarray, mask: np.ndarray) -> float:
    """||chi_E||_{p(.)} for the leaf set E = {mask}, solved on E alone,
    where the modular of chi_E / lambda is G(lambda) = sum_E P lambda^{-p}.

    An empty E has norm 0.  Where p is constant on E it is P(E)^{1/p}.
    Otherwise Newton runs on g(u) = log G(e^u), shifted by its largest
    term, with the kernel's stopping rule; it starts from the zero of the
    tangent at u = 0, where g = log P(E) and the slope -g' is the P-mean
    of p on E, which convexity puts left of the root.
    Internal plumbing for the atomic decomposition and the indicator
    profiles.
    """
    pe, q = probs[mask], pvals[mask]
    if not q.size:
        return 0.0
    total = float(pe.sum())
    if (q == q[0]).all():
        return total ** (1.0 / float(q[0]))
    u = math.log(total) * total / float(pe @ q)
    logw = np.log(pe)
    u = _newton(lambda u: _log_modular(logw, q, u), u,
                lambda *_: f"the indicator of a set of {q.size} leaves")[0]
    return math.exp(u)


def _kept(space: FilteredSpace, pvals: np.ndarray, key: tuple, solve):
    """The value kept on the space under the exponent's bytes and then
    ``key``, a pair whose second item is bytes, or else ``solve()``'s,
    kept there.  A value that would take the space past _KEPT_NORM_BUDGET
    bytes gives up every kept one first, and is not kept if it alone passes
    the budget."""
    held, by_exponent = store = space._kept_norms
    pkey = pvals.tobytes()
    kept = by_exponent.get(pkey)
    if kept is not None and key in kept:
        return kept[key]
    norm = solve()
    size = (norm.nbytes if isinstance(norm, np.ndarray) else 8) + _ENTRY_BYTES + len(key[1])
    # what the exponent's own entry adds while it has none
    grow = _ENTRY_BYTES + len(pkey)
    if held + size + (kept is None) * grow > _KEPT_NORM_BUDGET:
        by_exponent.clear()
        held, kept = 0, None
    if kept is None:
        kept, size = {}, size + grow
    if size <= _KEPT_NORM_BUDGET:
        kept[key] = norm
        by_exponent[pkey] = kept
        held += size
    store[0] = held
    return norm


def kept_indicator_norms(space: FilteredSpace, pvals: np.ndarray, mask: np.ndarray) -> float:
    """||chi_E||_{p(.)} for E = {mask}, a 1-d mask, solved on E by
    :func:`indicator_norm`.  Kept on the space by the exponent's bytes,
    then by the mask's shape and packed bits (see :func:`_kept`)."""
    key = (mask.shape, np.packbits(mask).tobytes())
    return _kept(space, pvals, key, lambda: indicator_norm(space.probs, pvals, mask))


def kept_subset_norms(space: FilteredSpace, pvals: np.ndarray) -> np.ndarray:
    """||chi_E||_{p(.)} for every leaf set E by its code, E's bits read with
    leaf 0 on top as in ``bmo.StoppingScan``: one read-only array, 0 at
    code 0, then codes 1, ..., 2^n - 1 from one :func:`norm_batch`.  Kept
    on the space under the exponent's bytes and the key ("subsets", b"")
    (see :func:`_kept`)."""
    def solve():
        n = space.n_leaves
        masks = (np.arange(1, 1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        return readonly(np.concatenate(([0.0], norm_batch(space.probs, pvals, masks))))

    return _kept(space, pvals, ("subsets", b""), solve)


def kept_block_norms(space: FilteredSpace, pvals: np.ndarray) -> np.ndarray:
    """||chi_B||_{p(.)} for every block B of every level, level-major, as
    one read-only array from :func:`block_norms` on a table of ones, kept
    on the space under the exponent's bytes and the key ("blocks", b"")
    (see :func:`_kept`)."""
    return _kept(space, pvals, ("blocks", b""), lambda: readonly(
        block_norms(space, np.ones(space.block_of.shape), pvals)))


def check_power_identity(
    space: FilteredSpace, f: Sequence[float], p: Exponent, r: float
) -> tuple[float, float]:
    """Both sides of || |f|^r ||_{p(.)} = ||f||_{rp(.)}^r (stated for
    p_- >= 1), computed by two independent norm evaluations."""
    if not r > 0:
        raise DomainError("power identity requires r > 0")
    v = np.abs(as_leaf_values(space, f))
    left = luxemburg_norm(space, v**r, p).norm
    right = luxemburg_norm(space, v, p.scaled(r)).norm ** r
    return left, right


def _require_reciprocals(
    lhs: np.ndarray | float, rhs: np.ndarray | float, message: str
) -> None:
    """The exponent relation lhs = rhs between sums of reciprocals, to
    1e-12 at every leaf; DomainError(message) otherwise."""
    if np.max(np.abs(lhs - rhs)) > 1e-12:
        raise DomainError(message)


def check_holder(
    space: FilteredSpace,
    f: Sequence[float],
    g: Sequence[float],
    p: Exponent,
    q: Exponent,
    r: Exponent,
) -> tuple[float, float, float]:
    """(||fg||_p, ||f||_q, ||g||_r) for 1/p = 1/q + 1/r pointwise."""
    pv, qv, rv = (as_leaf_exponent(space, e) for e in (p, q, r))
    _require_reciprocals(1.0 / pv, 1.0 / qv + 1.0 / rv, "exponents violate 1/p = 1/q + 1/r")
    fv = as_leaf_values(space, f)
    gv = as_leaf_values(space, g)
    return (
        luxemburg_norm(space, fv * gv, p).norm,
        luxemburg_norm(space, fv, q).norm,
        luxemburg_norm(space, gv, r).norm,
    )


@dataclass(frozen=True)
class BridgeReport:
    rho: float
    norm: float
    clause_unit: bool
    clause_above: bool
    clause_below: bool

    @property
    def all_hold(self) -> bool:
        return self.clause_unit and self.clause_above and self.clause_below


def norm_modular_bridge(
    space: FilteredSpace, f: Sequence[float], p: Exponent
) -> BridgeReport:
    """Check the three norm/modular comparison clauses:
    (1) norm <=> 1 iff rho(f) <=> 1, (2) norm > 1 implies
    rho^{1/p_+} <= norm <= rho^{1/p_-}, (3) 0 < norm <= 1 implies
    rho^{1/p_-} <= norm <= rho^{1/p_+}.  Directions exactly as printed."""
    rho = modular(space, f, p, 1.0)
    norm = luxemburg_norm(space, f, p).norm
    tol = ASSERT_TOL
    pm, pp = p.p_minus(), p.p_plus()

    def cmp_side(x: float) -> int:
        if x > 1.0 + tol:
            return 1
        if x < 1.0 - tol:
            return -1
        return 0

    clause_unit = cmp_side(rho) == cmp_side(norm) or 0 in (
        cmp_side(rho),
        cmp_side(norm),
    )
    clause_above = True
    clause_below = True
    if norm > 1.0 + tol:
        clause_above = (
            rho ** (1.0 / pp) <= norm + tol and norm <= rho ** (1.0 / pm) + tol
        )
    if 0.0 < norm <= 1.0 + tol:
        clause_below = (
            rho ** (1.0 / pm) <= norm + tol and norm <= rho ** (1.0 / pp) + tol
        )
    return BridgeReport(rho, norm, clause_unit, clause_above, clause_below)


@dataclass(frozen=True)
class IndicatorProfile:
    lower: float  # P(B)^{1/p_-(B)}
    upper: float  # P(B)^{1/p_+(B)}
    norm: float
    max_ratio: float


def _indicator(
    space: FilteredSpace, leaves: Sequence[int], what: str
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct leaves of a nonempty set B, ascending, and its leaf
    mask.  Leaves must be integers (integral floats included) in 0..n-1."""
    try:
        items = list(leaves)
        raw = np.array(items, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} leaves must be integers: {exc}") from exc
    if raw.ndim != 1:
        raise ValidationError(f"{what} leaves must be a flat list of integers")
    ok = (raw >= 0) & (raw < space.n_leaves) & (raw == np.floor(raw))
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValidationError(
            f"{what}: leaf {items[bad[0]]!r} is not an integer "
            f"in 0..{space.n_leaves - 1}"
        )
    if not raw.size:
        raise DomainError(f"{what} requires a nonempty set")
    idx = np.unique(raw.astype(np.intp))
    mask = np.zeros(space.n_leaves, dtype=bool)
    mask[idx] = True
    return idx, mask


def indicator_norm_profile(
    space: FilteredSpace, leaves: Sequence[int], p: Exponent
) -> IndicatorProfile:
    """P(B)^{1/p_-(B)}, P(B)^{1/p_+(B)}, ||chi_B||_{p(.)} and the max
    pairwise ratio of the three; the norm always lies in the sandwich."""
    idx, mask = _indicator(space, leaves, "indicator profile")
    pb = float(space.probs[idx].sum())
    lower = pb ** (1.0 / p.p_minus(idx))
    upper = pb ** (1.0 / p.p_plus(idx))
    norm = indicator_norm(space.probs, as_leaf_exponent(space, p), mask)
    vals = (lower, upper, norm)
    return IndicatorProfile(lower, upper, norm, max(vals) / min(vals))


def indicator_product_ratio(
    space: FilteredSpace,
    leaves: Sequence[int],
    p: Exponent,
    q: Exponent,
    mode: str = "conjugate",
    r: Exponent | None = None,
) -> float:
    """||chi_B||_target / (||chi_B||_p * ||chi_B||_q), target = L^1 for
    conjugate mode (1/p + 1/q = 1) or L^{r(.)} for harmonic mode
    (1/r = 1/p + 1/q)."""
    idx, mask = _indicator(space, leaves, "indicator ratio")
    pvals, qvals = as_leaf_exponent(space, p), as_leaf_exponent(space, q)
    if mode == "conjugate":
        _require_reciprocals(
            1.0 / pvals + 1.0 / qvals, 1.0, "exponents are not pointwise conjugate"
        )
        target = float(space.probs[idx].sum())
    elif mode == "harmonic":
        if r is None:
            raise DomainError("harmonic mode requires the target exponent r")
        rvals = as_leaf_exponent(space, r)
        _require_reciprocals(
            1.0 / pvals + 1.0 / qvals, 1.0 / rvals, "exponents violate 1/r = 1/p + 1/q"
        )
        target = indicator_norm(space.probs, rvals, mask)
    else:
        raise DomainError(f"unknown indicator ratio mode {mode!r}")
    return target / (
        indicator_norm(space.probs, pvals, mask) * indicator_norm(space.probs, qvals, mask)
    )
