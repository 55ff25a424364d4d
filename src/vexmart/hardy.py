"""Variable-exponent Hardy norms and the stopping-time atomic decomposition.

The decomposition thresholds the conditional square function at powers of
two: tau_k is the first level n with s_{n+1}(f) > 2^k (strict, ties do not
trigger), atoms are the normalized stopped differences between consecutive
thresholds, and the weights are mu_k = 3 * 2^k * ||chi_{tau_k < inf}||_{p(.)}.
On a finite space the sum over k telescopes exactly back to f.  The weights,
the atom bounds and A(mu, tau) read each ||chi_{tau < inf}|| one set at a
time from ``varlp.kept_indicator_norms``, which keeps the solved norms on
the space, so each set is solved once per space and exponent while the
space's byte budget holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .martingale import (
    INF,
    Martingale,
    StoppingTime,
    cond_square,
    cond_square_levels,
    level_stack,
    martingale_from_terminal,
    maximal,
    require_f0_zero,
)
from .space import ArrayValue, Exponent, FilteredSpace, as_leaf_exponent, as_leaf_values
from .varlp import kept_indicator_norms, luxemburg_norm

ATOM_MEAN_TOL = 1e-10
ATOM_SIZE_TOL = 1e-9
ZERO_TOL = 1e-13


def hs_norm(f: Martingale, p: Exponent) -> float:
    """||s(f)||_{p(.)}."""
    return luxemburg_norm(f.space, cond_square(f), p).norm


def hmax_norm(f: Martingale, p: Exponent) -> float:
    """||Mf||_{p(.)}."""
    return luxemburg_norm(f.space, maximal(f), p).norm


@dataclass(frozen=True)
class AtomCheck:
    ok: bool
    mean_ok: bool
    size_ok: bool
    max_mean_violation: float
    s_sup: float
    s_bound: float

    def __bool__(self) -> bool:
        return self.ok


def is_atom(
    space: FilteredSpace,
    a_terminal: Sequence[float],
    tau: StoppingTime,
    p: Exponent,
) -> AtomCheck:
    """Check the two atom clauses against tau: (1) E(a | F_n) vanishes on
    {tau >= n} for every n, (2) ||s(a)||_inf <= ||chi_{tau<inf}||^{-1},
    with the norm kept on the space.  A stopping time that is never
    finite forces a = 0."""
    a = as_leaf_values(space, a_terminal)
    pvals = as_leaf_exponent(space, p)
    if tau.vals.shape != (space.n_leaves,):
        raise ValidationError(
            f"expected a stopping time on {space.n_leaves} leaves, "
            f"got shape {tau.vals.shape}"
        )
    amax = float(np.abs(a).max())
    finite = tau.finite_mask
    if not finite.any():
        zero = amax <= ATOM_MEAN_TOL
        return AtomCheck(zero, zero, zero, amax, 0.0, math.inf)
    # rows a_0, ..., a_N of the martingale a_n = E(a | F_n)
    levels = space.level_averages(a[None].repeat(space.depth + 1, axis=0))
    on_continue = tau.vals >= np.arange(space.depth + 1)[:, None]
    worst = float(np.abs(levels[on_continue]).max(initial=0.0))
    mean_ok = worst <= ATOM_MEAN_TOL * max(1.0, amax)
    # s(a)^2 sums the conditioned squared increments over the levels
    d = levels[1:] - levels[:-1]
    s_sup = math.sqrt(space.level_averages(d * d).sum(axis=0).max())
    bound = 1.0 / kept_indicator_norms(space, pvals, finite)
    size_ok = s_sup <= bound * (1.0 + ATOM_SIZE_TOL)
    return AtomCheck(mean_ok and size_ok, mean_ok, size_ok, worst, s_sup, bound)


@dataclass(frozen=True, eq=False)
class AtomTerm(ArrayValue):
    """One weighted atom; ``atom_terminal`` is a_N as a read-only array."""

    ARRAYS = {"atom_terminal": float}
    k: int
    mu: float
    tau: StoppingTime
    atom_terminal: np.ndarray


@dataclass(frozen=True)
class AtomicDecomposition:
    space: FilteredSpace
    terms: tuple[AtomTerm, ...]


def _threshold_times(s_next: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """One row per cut: tau per leaf, the first n with s_{n+1}(f) > cut
    (inf when never).  ``s_next[n]`` holds s_{n+1} values; beyond the last
    level s is constant."""
    above = s_next[None, :, :] > cuts[:, None, None]
    return np.where(above.any(axis=1), above.argmax(axis=1), INF)


def _ceil_log2(x: float) -> int:
    """The least k with 2^k >= x, exact for every positive finite x: with
    x = m * 2^e and 1/2 <= m < 1, x is 2^(e-1) or lies in (2^(e-1), 2^e)."""
    m, e = math.frexp(x)
    return e - (m == 0.5)


def atomic_decompose(f: Martingale, p: Exponent) -> AtomicDecomposition:
    """Construct the threshold decomposition of a martingale with f_0 = 0.

    Nonvanishing terms live in a finite window of k: from
    k = ceil(log2(max s(f))) on every tau_k is identically infinite, and
    once 2^k falls below the smallest positive value of the square function
    the stopped martingale f^{tau_k} is identically zero, so lower terms
    vanish.  A square function that overflows binary64 is refused.
    """
    space = f.space
    pvals = as_leaf_exponent(space, p)
    require_f0_zero(f, "atomic decomposition requires f_0 = 0")

    with np.errstate(over="ignore"):
        s_by_level = cond_square_levels(f)
    smax = float(s_by_level[-1].max())
    if not math.isfinite(smax):
        raise DomainError("square function s(f) overflows binary64")
    if smax <= 0.0:
        return AtomicDecomposition(space, ())

    # s_next[n] = s_{n+1}(f); past the terminal level s stays s_N
    s_next = np.vstack([s_by_level[1:], s_by_level[-1:]])
    vmin = float(s_next[s_next > ZERO_TOL * smax].min())
    k_hi, k_lo = _ceil_log2(smax), _ceil_log2(vmin) - 1

    # row i is tau_{k_lo + i}; the atom of k is f^{tau_{k+1}}_N - f^{tau_k}_N
    cuts = np.ldexp(1.0, np.arange(k_lo, k_hi + 1))
    taus = _threshold_times(s_next, cuts)
    at = np.minimum(taus, space.depth + 1).astype(np.intp)
    stopped = np.take_along_axis(level_stack(f), at, axis=0)
    diffs = stopped[1:] - stopped[:-1]
    fscale = max(1.0, float(np.abs(f.terminal).max()))
    # zero atoms contribute nothing
    rows = np.flatnonzero(np.abs(diffs).max(axis=1) > 1e-14 * fscale)
    norms = [kept_indicator_norms(space, pvals, m) for m in np.isfinite(taus[rows])]
    mus = 3.0 * cuts[rows] * norms
    return AtomicDecomposition(space, tuple(
        AtomTerm(k_lo + i, mu, StoppingTime(taus[i]), diffs[i] / mu)
        for i, mu in zip(rows.tolist(), mus.tolist())
    ))


def a_quantity(dec: AtomicDecomposition, p: Exponent) -> float:
    """Luxemburg norm of the l^{p_underline} aggregate of the weighted,
    normalized indicator profile of the decomposition's stopping sets.
    Each chi is 0 or 1, so (mu chi / ||chi||)^p_ = (mu / ||chi||)^p_ chi
    and the aggregate is one weight-vector times mask-matrix product, with
    each ||chi|| kept on the space."""
    p_under = min(p.p_minus(), 1.0)
    sp = dec.space
    pvals = as_leaf_exponent(sp, p)
    terms = [t for t in dec.terms if t.mu != 0.0]
    masks = np.array([t.tau.finite_mask for t in terms]).reshape(-1, sp.n_leaves)
    mus = np.array([t.mu for t in terms])
    norms = np.array([kept_indicator_norms(sp, pvals, m) for m in masks])
    weights = (mus / norms) ** p_under
    return luxemburg_norm(sp, (weights @ masks) ** (1.0 / p_under), p).norm


def reconstruct(dec: AtomicDecomposition) -> Martingale:
    """The martingale of the weighted sum of the atoms' terminals, which
    by linearity of conditional expectation is the sum of the weighted
    atom martingales; telescopes back to the decomposed martingale up to
    floating point."""
    sp = dec.space
    atoms = np.array([t.atom_terminal for t in dec.terms]).reshape(-1, sp.n_leaves)
    return martingale_from_terminal(sp, np.array([t.mu for t in dec.terms]) @ atoms)


@dataclass(frozen=True)
class Prop41Report:
    power_sum: float  # (sum mu_k^{p_+})^{1/p_+}
    linear_sum: float  # sum mu_k
    a_value: float
    holds_power: bool
    linear_applicable: bool
    holds_linear: bool


def prop41_bounds(dec: AtomicDecomposition, p: Exponent) -> Prop41Report:
    """Weight-sum lower bounds on the aggregate quantity: the p_+ power sum
    always, the plain sum additionally when p_+ <= 1."""
    a_val = a_quantity(dec, p)
    mus = [t.mu for t in dec.terms]
    if not mus:
        return Prop41Report(0.0, 0.0, 0.0, True, p.p_plus() <= 1.0, True)
    pp = p.p_plus()
    power_sum = float(sum(m**pp for m in mus)) ** (1.0 / pp)
    linear_sum = float(sum(mus))
    slack = 1e-9 * max(1.0, a_val)
    applicable = pp <= 1.0
    return Prop41Report(
        power_sum,
        linear_sum,
        a_val,
        power_sum <= a_val + slack,
        applicable,
        (linear_sum <= a_val + slack) if applicable else True,
    )
