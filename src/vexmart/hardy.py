"""Variable-exponent Hardy norms and the stopping-time atomic decomposition.

The decomposition thresholds the conditional square function at powers of
two: tau_k is the first level n with s_{n+1}(f) > 2^k (strict, ties do not
trigger), atoms are the normalized stopped differences between consecutive
thresholds, and the weights are mu_k = 3 * 2^k * ||chi_{tau_k < inf}||_{p(.)}.
On a finite space the sum over k telescopes exactly back to f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .martingale import (
    INF,
    Martingale,
    StoppingTime,
    _stopped_values,
    cond_square,
    cond_square_levels,
    martingale_from_terminal,
    maximal,
    require_f0_zero,
)
from .space import ArrayValue, Exponent, FilteredSpace, as_leaf_values
from .varlp import luxemburg_norm, norm_batch

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
    {tau >= n} for every n, (2) ||s(a)||_inf <= ||chi_{tau<inf}||^{-1}.
    A stopping time that is never finite forces a = 0."""
    a = as_leaf_values(space, a_terminal)
    scale = max(1.0, float(np.abs(a).max()))
    finite = tau.finite_mask
    if not finite.any():
        zero = bool(np.abs(a).max() <= ATOM_MEAN_TOL)
        return AtomCheck(zero, zero, zero, float(np.abs(a).max()), 0.0, math.inf)
    mart = martingale_from_terminal(space, a)
    on_continue = tau.vals >= np.arange(space.depth + 1)[:, None]
    worst = float(np.abs(mart.arrays[on_continue]).max(initial=0.0))
    mean_ok = worst <= ATOM_MEAN_TOL * scale
    s_sup = float(cond_square(mart).max())
    bound = 1.0 / luxemburg_norm(space, finite.astype(float), p).norm
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
    k_min: int
    k_max: int


def _threshold_times(s_next: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """One row per cut: tau per leaf, the first n with s_{n+1}(f) > cut
    (inf when never).  ``s_next[n]`` holds s_{n+1} values; beyond the last
    level s is constant."""
    above = s_next[None, :, :] > cuts[:, None, None]
    return np.where(above.any(axis=1), above.argmax(axis=1), INF)


def atomic_decompose(f: Martingale, p: Exponent) -> AtomicDecomposition:
    """Construct the threshold decomposition of a martingale with f_0 = 0.

    Nonvanishing terms live in a finite window of k: above
    ceil(log2(max s(f))) every tau_k is identically infinite, and once 2^k
    falls below the smallest positive value of the square function the
    stopped martingale f^{tau_k} is identically zero, so lower terms vanish.
    """
    space = f.space
    require_f0_zero(f, "atomic decomposition requires f_0 = 0")

    s_by_level = cond_square_levels(f)
    s_total = s_by_level[-1]
    smax = float(s_total.max())
    if smax <= 0.0:
        return AtomicDecomposition(space, (), 0, -1)

    # s_next[n] = s_{n+1}(f); past the terminal level s stays s_N
    s_next = np.vstack([s_by_level[1:], s_by_level[-1:]])
    positive = s_next[s_next > ZERO_TOL * smax]
    vmin = float(positive.min())

    k_hi = math.ceil(math.log2(smax))
    while 2.0**k_hi < smax:
        k_hi += 1
    while k_hi - 1 >= -1074 and 2.0 ** (k_hi - 1) >= smax:
        k_hi -= 1
    k_lo = math.floor(math.log2(vmin))
    while 2.0**k_lo >= vmin:
        k_lo -= 1

    # row i is tau_{k_lo + i}; the atom of k is f^{tau_{k+1}}_N - f^{tau_k}_N
    taus = _threshold_times(
        s_next, np.array([2.0**k for k in range(k_lo, k_hi + 1)])
    )
    stopped = _stopped_values(f, taus, float(space.depth))
    diffs = stopped[1:] - stopped[:-1]
    fscale = max(1.0, float(np.abs(f.terminal).max()))
    # zero atoms contribute nothing
    rows = np.flatnonzero(np.abs(diffs).max(axis=1) > 1e-14 * fscale)
    if rows.size == 0:
        return AtomicDecomposition(space, (), 0, -1)
    finite = np.isfinite(taus[rows]).astype(float)
    chi_norms = norm_batch(space.probs, p.vals, finite)
    terms = []
    for i, chi_norm in zip(rows.tolist(), chi_norms.tolist()):
        k = k_lo + i
        mu = 3.0 * 2.0**k * chi_norm
        terms.append(AtomTerm(k, mu, StoppingTime(taus[i]), diffs[i] / mu))
    return AtomicDecomposition(
        space, tuple(terms), terms[0].k, terms[-1].k
    )


def a_quantity(dec: AtomicDecomposition, p: Exponent) -> float:
    """Luxemburg norm of the l^{p_underline} aggregate of the weighted,
    normalized indicator profile of the decomposition's stopping sets."""
    if not dec.terms:
        return 0.0
    p_under = min(p.p_minus(), 1.0)
    sp = dec.space
    terms = [t for t in dec.terms if t.mu != 0.0]
    chis = np.array([t.tau.finite_mask for t in terms], dtype=float)
    chis = chis.reshape(-1, sp.n_leaves)
    acc = np.zeros(sp.n_leaves)
    for term, chi, chi_norm in zip(terms, chis, norm_batch(sp.probs, p.vals, chis)):
        acc += (term.mu * chi / chi_norm) ** p_under
    return luxemburg_norm(sp, acc ** (1.0 / p_under), p).norm


def reconstruct(dec: AtomicDecomposition) -> Martingale:
    """Sum of the weighted atom martingales; telescopes back to the
    decomposed martingale up to floating point."""
    sp = dec.space
    total = np.zeros((sp.depth + 1, sp.n_leaves))
    for term in dec.terms:
        atom = martingale_from_terminal(sp, term.atom_terminal)
        total += term.mu * atom.arrays
    return Martingale(sp, total)


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
