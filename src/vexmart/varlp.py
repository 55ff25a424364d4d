"""Modular and Luxemburg quasi-norm of L^{p(.)} on a finite space.

The modular is the finite weighted sum  rho(f/lambda) = sum_w P(w) *
(|f(w)|/lambda)^{p(w)}.  The Luxemburg norm is the infimal lambda with
rho(f/lambda) <= 1.  Every norm comes from one batch kernel:

* In s = log(lambda), g(s) = log rho(f e^{-s}) is a log-sum-exp of affine
  functions of s, hence convex and strictly decreasing for f != 0, and the
  norm is its root.  Newton's method started left of the root climbs to it
  monotonically.  g is evaluated with the row maximum shifted out, so no
  power overflows.
* The start is the closed-form left bracket of the norm-modular bridge,
  ||f|| >= ||f||_inf * rho(f/||f||_inf)^{1/p_-(supp f)}, so no bracket
  search is needed.
* A constant exponent takes the closed form (E|f|^p)^{1/p}.

Where p(w) = +inf (only an ``Exponent(allow_infinite=True)`` or a raw
exponent array carries such entries), the modular instead imposes the
constraint |f(w)| <= lambda, and the norm is the larger of max_{p = inf} |f|
and the root of the finite part.  The Lipschitz-space exponent 1/alpha(.)
is the one user of this max rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .space import Exponent, FilteredSpace, as_leaf_values

BISECT_REL_TOL = 1e-12
BISECT_MAX_ITER = 200
ASSERT_TOL = 1e-9


@dataclass(frozen=True)
class NormResult:
    """``iterations`` counts Newton steps, 0 for a closed form.
    ``residual`` is |rho(f/norm) - 1|, or 0 where a closed form or the
    constraint max_{p = inf} |f| gives the norm."""

    norm: float
    iterations: int
    residual: float


def modular(
    space: FilteredSpace,
    f: Sequence[float],
    p: Exponent,
    lam: float,
) -> float:
    """rho(f/lam); math.inf when |f| > lam somewhere on {p = inf}."""
    if lam <= 0:
        raise DomainError("modular requires lambda > 0")
    v = np.abs(as_leaf_values(space, f)) / lam
    pv = p.vals
    if not p.is_finite:
        inf_mask = np.isinf(pv)
        if np.any(v[inf_mask] > 1.0):
            return math.inf
        fin = ~inf_mask
        return float(np.sum(space.probs[fin] * v[fin] ** pv[fin]))
    return float(np.sum(space.probs * v**pv))


def _log_modular(
    logw: np.ndarray, pvals: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, g(u) = log sum_w exp(logw - p u) and the slope -g'(u),
    which is the mean of p under the weights exp(logw - p u)."""
    e = logw - pvals * u[:, None]
    top = e.max(axis=1)
    w = np.exp(e - top[:, None])
    total = w.sum(axis=1)
    return top + np.log(total), (w @ pvals) / total


def _luxemburg_rows(
    probs: np.ndarray,
    pvals: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(norms, Newton steps, residuals) of the rows of a 2-d array.

    Newton runs on u = log(lambda / max|f|), where the modular terms are
    P(w) |f(w)/max|f||^{p(w)} e^{-p(w) u}, and stops at the first point
    whose step is at most BISECT_REL_TOL; that point is returned, so the
    residual is the one of the returned norm.  Steps below zero only arise
    from rounding at the root and stop the iteration too.
    """
    a = np.abs(rows)
    sup = None
    inf = np.isinf(pvals)
    if inf.any():
        sup = a[:, inf].max(axis=1)
        a, probs, pvals = a[:, ~inf], probs[~inf], pvals[~inf]
    m = a.shape[0]
    norms = np.zeros(m)
    steps = np.zeros(m, dtype=np.intp)
    resid = np.zeros(m)
    top = a.max(axis=1, initial=0.0)
    live = top > 0
    # log(0) = -inf marks a zero entry; terms far below the row maximum
    # may underflow to 0
    with np.errstate(divide="ignore", under="ignore"):
        if pvals.size and np.all(pvals == pvals[0]):
            scale = np.where(live, top, 1.0)
            p0 = pvals[0]
            norms = scale * ((a / scale[:, None]) ** p0 @ probs) ** (1.0 / p0)
        elif live.any():
            idx = np.flatnonzero(live)
            h = (a if idx.size == m else a[idx]) / top[idx, None]
            logw = np.log(probs) + pvals * np.log(h)
            g0, _ = _log_modular(logw, pvals, np.zeros(idx.size))
            u = g0 / np.where(h > 0, pvals, np.inf).min(axis=1)
            for it in range(1, BISECT_MAX_ITER + 1):
                g, slope = _log_modular(logw, pvals, u)
                step = g / slope
                done = step <= BISECT_REL_TOL
                if done.any():
                    k = idx[done]
                    norms[k] = top[k] * np.exp(u[done])
                    steps[k] = it
                    resid[k] = np.abs(np.expm1(g[done]))
                    if done.all():
                        break
                    keep = ~done
                    idx, logw, u, step = idx[keep], logw[keep], u[keep], step[keep]
                u = u + step
            else:
                raise NumericalError(
                    f"Luxemburg Newton iteration did not converge in "
                    f"{BISECT_MAX_ITER} steps on {idx.size} rows"
                )
    if sup is not None:
        resid[sup >= norms] = 0.0
        norms = np.maximum(norms, sup)
    return norms, steps, resid


def luxemburg_norm(
    space: FilteredSpace,
    f: Sequence[float],
    p: Exponent,
) -> NormResult:
    """Luxemburg norm inf{lambda > 0 : rho(f/lambda) <= 1}, as a one-row
    call of the batch kernel."""
    v = as_leaf_values(space, f)
    norms, steps, resid = _luxemburg_rows(space.probs, p.vals, v[None, :])
    return NormResult(float(norms[0]), int(steps[0]), float(resid[0]))


def norm_batch(
    probs: np.ndarray,
    pvals: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Luxemburg norms of many leaf functions sharing one (space, exponent),
    from the kernel of :func:`luxemburg_norm`.  Internal plumbing for the
    sup-over-stopping-times modules."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return _luxemburg_rows(probs, pvals, rows)[0]


def check_power_identity(
    space: FilteredSpace, f: Sequence[float], p: Exponent, r: float
) -> tuple[float, float]:
    """Both sides of || |f|^r ||_{p(.)} = ||f||_{rp(.)}^r (stated for
    p_- >= 1), computed by two independent norm evaluations."""
    if r <= 0:
        raise DomainError("power identity requires r > 0")
    v = np.abs(as_leaf_values(space, f))
    left = luxemburg_norm(space, v**r, p).norm
    right = luxemburg_norm(space, v, p.scaled(r)).norm ** r
    return left, right


def check_holder(
    space: FilteredSpace,
    f: Sequence[float],
    g: Sequence[float],
    p: Exponent,
    q: Exponent,
    r: Exponent,
) -> tuple[float, float, float]:
    """(||fg||_p, ||f||_q, ||g||_r) for 1/p = 1/q + 1/r pointwise."""
    lhs_recip = 1.0 / p.vals
    rhs_recip = 1.0 / q.vals + 1.0 / r.vals
    if np.max(np.abs(lhs_recip - rhs_recip)) > 1e-12:
        raise DomainError("exponents violate 1/p = 1/q + 1/r")
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


def indicator_norm_profile(
    space: FilteredSpace, leaves: Sequence[int], p: Exponent
) -> IndicatorProfile:
    """P(B)^{1/p_-(B)}, P(B)^{1/p_+(B)}, ||chi_B||_{p(.)} and the max
    pairwise ratio of the three; the norm always lies in the sandwich."""
    idx = sorted(set(int(i) for i in leaves))
    if not idx:
        raise DomainError("indicator profile requires a nonempty set")
    pb = float(space.probs[idx].sum())
    chi = np.zeros(space.n_leaves)
    chi[idx] = 1.0
    lower = pb ** (1.0 / p.p_minus(idx))
    upper = pb ** (1.0 / p.p_plus(idx))
    norm = luxemburg_norm(space, chi, p).norm
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
    idx = sorted(set(int(i) for i in leaves))
    if not idx:
        raise DomainError("indicator ratio requires a nonempty set")
    chi = np.zeros(space.n_leaves)
    chi[idx] = 1.0
    if mode == "conjugate":
        if np.max(np.abs(1.0 / p.vals + 1.0 / q.vals - 1.0)) > 1e-12:
            raise DomainError("exponents are not pointwise conjugate")
        target = float(space.probs[idx].sum())
    elif mode == "harmonic":
        if r is None:
            raise DomainError("harmonic mode requires the target exponent r")
        if np.max(np.abs(1.0 / p.vals + 1.0 / q.vals - 1.0 / r.vals)) > 1e-12:
            raise DomainError("exponents violate 1/r = 1/p + 1/q")
        target = luxemburg_norm(space, chi, r).norm
    else:
        raise DomainError(f"unknown indicator ratio mode {mode!r}")
    np_ = luxemburg_norm(space, chi, p).norm
    nq = luxemburg_norm(space, chi, q).norm
    return target / (np_ * nq)
