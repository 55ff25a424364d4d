"""BMO and Lipschitz norms as suprema over stopping times.

For a variable exponent (for Lipschitz, a variable alpha) "exhaustive"
scans every stopping time, up to ENUMERATION_CAP of them.  The family
depends on the filtration alone, so it is enumerated once per space and
cached there, each row with the code of its {tau < inf} set.  Every
nonempty leaf subset is such a set, and the space keeps the norms of all
subsets by code per exponent under a byte budget
(``varlp.kept_subset_norms``), so a call gathers its stopped differences
from one table and solves its numerators, and its denominators only for
an exponent the space has not kept.  "auto" takes that scan up to the
cap.  Past it, "auto" takes the stopping times that stop at one block B
of one level n (tau = n on B) and never elsewhere: the largest ratio of
one block, with its numerators from one Newton pass over the (level,
leaf) cells segmented by block (``varlp.block_norms``) and its
denominators kept on the space (``varlp.kept_block_norms``), so no
blocks x leaves array is made.  That is a lower bound of the true
supremum and is reported as mode "block-lower", so callers can pin exact
results only.

For a constant exponent both norms have a third mode, "dp", exact and
with no scan, which "auto" takes at every size.  A stopping time tau
stops on disjoint blocks B_j, and each ratio is built from per-block sums
a_j and b_j = P(B_j).  The BMO ratio's power p0 is sum_j a_j / sum_j b_j,
with a_j the integral of |f - f_{n-1}|^p0 over a block B_j of level n; by
the mediant inequality that is at most max_j a_j / b_j.  The Lipschitz
ratio's power q, for a constant alpha, is sum_j a_j / (sum_j b_j)^s with
a_j the integral of |f - f_n|^q over B_j and s = 1 + alpha q >= 1; as
(sum_j b_j)^s >= sum_j b_j^s, that is at most max_j a_j / b_j^s.  Either
bound is attained by the tau that stops on the best block alone, so the
supremum is a maximum over the blocks, the first in level-major order
(the coarsest) on a tie.  The mediant argument fails for a variable
exponent, which is why the single-block value is only a lower bound
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceError
from .martingale import (
    ENUMERATION_CAP,
    INF,
    Martingale,
    StoppingTime,
    count_stopping_times,
    enumerate_stopping_matrix,
    martingale_from_terminal,
    require_f0_zero,
    stopped_terminal_diffs,
)
from .space import (
    MAX_SCAN_BYTES, Exponent, FilteredSpace, as_leaf_exponent, as_leaf_values, readonly,
)
from .varlp import block_norms, kept_block_norms, kept_subset_norms, max_norm_ratio
from .hardy import hs_norm

# arrays of one float or index per (level, leaf) cell that a "block-lower"
# call holds at once at its peak: the space's block_of and level-major
# ids, the grouping of the cells by block, the martingale's levels, the
# table of stopped differences, the table of ones whose block norms are
# the denominators, and the five of ``varlp.block_norms``; arrays of one
# float per block (about two per leaf on a dyadic tree) are left out
BLOCK_PASS_ARRAYS = 11


@dataclass(frozen=True)
class SupNormResult:
    value: float
    argmax_tau: StoppingTime
    mode: str  # "exhaustive" | "block-lower" | "dp"
    # the scanned stopping times, or for "dp" and "block-lower" the blocks compared
    candidates: int


@dataclass(frozen=True, eq=False)
class StoppingScan:
    """Every stopping time finite somewhere, to scan, both arrays read-only:
    per row and leaf x, ``cells`` holds the position
    min(tau(x), N+1) * n_leaves + x of its difference in the table of
    ``stopped_terminal_diffs``, and ``codes`` holds each row's {tau < inf}
    bits read as a binary number, leaf 0 on top.  The family has every
    nonempty subset (tau = N on it), so the codes are 1, ..., 2^n - 1, and
    they index the subset norms the space keeps (see
    ``varlp.kept_subset_norms``)."""

    cells: np.ndarray
    codes: np.ndarray

    @classmethod
    def of(cls, taus: np.ndarray, depth: int) -> "StoppingScan":
        """The scan of the rows of ``taus``, each finite somewhere."""
        n = taus.shape[1]
        codes = np.isfinite(taus) @ (1 << np.arange(n - 1, -1, -1))
        cells = np.minimum(taus, depth + 1).astype(np.intp)
        cells *= n
        cells += np.arange(n)
        return cls(*map(readonly, (cells, codes)))


def candidate_matrix(space: FilteredSpace) -> StoppingScan:
    """Every stopping time that is finite somewhere, to scan: refused past
    ENUMERATION_CAP of them, decided on every call from the count.  A
    stopping time that is never finite contributes nothing to any supremum
    over stopping times and is left out.  The scan is built once and cached
    on the space."""
    count = count_stopping_times(space)
    if count > ENUMERATION_CAP:
        raise ResourceError(
            f"{count} stopping times exceed cap {ENUMERATION_CAP}; "
            "exhaustive mode refused"
        )
    cache = space._scan_cache
    if "exhaustive" not in cache:
        # the enumeration's last row, tau = inf, is its only never-finite one
        cache["exhaustive"] = StoppingScan.of(
            enumerate_stopping_matrix(space)[:-1], space.depth
        )
    return cache["exhaustive"]


def _scan_or_blocks(space: FilteredSpace, mode: str) -> StoppingScan | None:
    """The scan of an "exhaustive" or "auto" supremum of a variable exponent
    or alpha, or None past ENUMERATION_CAP in "auto", which then takes the
    single-block lower end from ``varlp.block_norms``.  That pass is
    refused before anything is allocated when its BLOCK_PASS_ARRAYS arrays
    of one float per (level, leaf) cell would take over MAX_SCAN_BYTES."""
    if mode not in ("auto", "exhaustive"):
        raise DomainError(f"unknown supremum mode {mode!r}")
    if mode == "exhaustive" or count_stopping_times(space) <= ENUMERATION_CAP:
        return candidate_matrix(space)
    need = 8 * space.block_of.size * BLOCK_PASS_ARRAYS
    if need > MAX_SCAN_BYTES:
        raise ResourceError(
            f"{space.depth + 1} levels of {space.n_leaves} leaves: the single-block "
            f"pass needs {need} bytes, over {MAX_SCAN_BYTES}; a constant exponent "
            "or alpha takes mode dp at any size"
        )
    return None


def _sup_result(scan: StoppingScan, value: float, i: int) -> SupNormResult:
    rows, n = scan.cells.shape
    tau = np.where(scan.codes[i] >> np.arange(n - 1, -1, -1) & 1, scan.cells[i] // n, INF)
    return SupNormResult(value, StoppingTime(tau), "exhaustive", rows)


def _block_sums(space: FilteredSpace, table: np.ndarray, p0: float) -> tuple[np.ndarray, int]:
    """Per block B of every level n, in the level-major numbering of
    ``level_slices``, sum_B P |T_n / 2^e|^p0 with T_n row n of a table of
    ``stopped_terminal_diffs``, from ``FilteredSpace.block_sums``, and e.
    The power of two scales the rows exactly into [0, 1), so no power
    overflows and only powers negligible beside the largest can
    underflow."""
    e = math.frexp(float(np.abs(table).max()))[1]
    return space.block_sums(np.abs(np.ldexp(table[:-1], -e)) ** p0), e


def _block_max(
    space: FilteredSpace, table: np.ndarray, p0: float, s: float = 1.0
) -> tuple[float, int]:
    """The largest (sum_B P |T_n|^p0 / P(B)^s)^(1/p0) over the blocks B of
    every level n, from ``_block_sums``, and its block, the first (the
    coarsest) on a tie."""
    sums, e = _block_sums(space, table, p0)
    probs = space.block_probs
    ratios = sums / (probs if s == 1.0 else probs**s)
    b = int(np.argmax(ratios))
    return math.ldexp(float(ratios[b]) ** (1.0 / p0), e), b


def _block_result(space: FilteredSpace, value: float, b: int, mode: str) -> SupNormResult:
    """A supremum attained on block b of the level-major numbering alone:
    its witness stops at the block's level on the block's leaves and never
    elsewhere, and ``candidates`` counts the blocks compared."""
    n = next(n for n, level in enumerate(space.level_slices) if b < level.stop)
    tau = StoppingTime(np.where(space.block_ids[n] == b, float(n), INF))
    return SupNormResult(value, tau, mode, space.block_probs.size)


def _block_lower(space: FilteredSpace, ratios: np.ndarray) -> SupNormResult:
    """The largest of the per-block ratios, the first block in level-major
    order on a tie, as a "block-lower" result."""
    b = int(np.argmax(ratios))
    return _block_result(space, float(ratios[b]), b, "block-lower")


def bmo_norm(
    f: Martingale,
    p: Exponent,
    mode: str = "auto",
) -> SupNormResult:
    """sup over tau of ||f - f^{tau-1}||_{p(.)} / ||chi_{tau<inf}||_{p(.)},
    with the terminal-level difference and f_{-1} = 0; stopping times that
    are never finite contribute nothing.

    Modes: "exhaustive" scans every stopping time (refused past
    ENUMERATION_CAP of them), and "dp", for a constant exponent p0 only,
    maximizes the p0-th power of the ratio, sum over {tau<inf} of
    P |f - f^{tau-1}|^p0 over P(tau < inf).  Both are sums over the blocks
    at which tau stops, and by the mediant inequality the ratio of two
    such sums is at most the best ratio of one block's terms, so dp
    returns the tau that stops on that block alone, the first in
    level-major order (the coarsest level) on a tie.  "auto" takes dp
    for a constant exponent, at every size; otherwise it scans
    exhaustively up to ENUMERATION_CAP stopping times, and past it takes
    the tau that stop on one block alone, reported as "block-lower": a
    lower bound, the largest ||T_n 1_B|| / ||chi_B|| over the blocks B of
    every level n, with T_n = (f - f_{n-1})_N, from ``varlp.block_norms``
    and the denominators kept on the space (``varlp.kept_block_norms``);
    refused past MAX_SCAN_BYTES (see ``_scan_or_blocks``).  In both dp and
    block-lower ``candidates`` counts the blocks compared."""
    space = f.space
    require_f0_zero(f, "bmo_norm requires f_0 = 0")
    pv = as_leaf_exponent(space, p)
    constant = bool((pv == pv[0]).all())
    if mode == "dp" and not constant:
        raise DomainError("dp mode requires a constant exponent")
    if mode == "dp" or (mode == "auto" and constant):
        table = stopped_terminal_diffs(f, shift="minus-one")
        return _block_result(space, *_block_max(space, table, float(pv[0])), "dp")
    scan = _scan_or_blocks(space, mode)
    table = stopped_terminal_diffs(f, shift="minus-one")
    if scan is None:
        return _block_lower(space, block_norms(space, table[:-1], pv)
                            / kept_block_norms(space, pv))
    diffs = np.take(table, scan.cells)
    dens = kept_subset_norms(space, pv)[scan.codes]
    return _sup_result(scan, *max_norm_ratio(space.probs, pv, diffs, dens))


def lipschitz_norm(
    f: Martingale,
    q: float,
    alpha: Exponent | Sequence[float],
    mode: str = "auto",
) -> SupNormResult:
    """sup over tau of ||chi||_{1/alpha(.)}^{-1} ||chi||_q^{-1}
    ||f - f^tau||_q, chi = chi_{tau<inf}, where alpha(.) >= 0 and 1/alpha
    reads 1/0 as +inf.  On {1/alpha = inf} the modular asks |chi| <= lambda,
    so an indicator meeting {alpha = 0} has norm at least 1, and exactly 1,
    as the modular of the rest at lambda = 1 is at most P(tau < inf).  Any
    other indicator vanishes on {alpha = 0}, where a finite value of
    1/alpha is put in place of +inf.

    The modes are ``bmo_norm``'s.  For a constant alpha the ratio's power q
    is sum_j a_j / (sum_j b_j)^s over the blocks B_j at which tau stops,
    with a_j = sum_{B_j} P |f - f^tau|^q, b_j = P(B_j) and s = 1 + alpha q
    >= 1 (alpha = 0 gives s = 1, as ||chi||_inf = 1); that is at most
    max_j a_j / b_j^s, so "dp", which "auto" takes for a constant alpha, is
    the block maximum.  A variable alpha refuses "dp", and past the cap
    "auto" takes it as a lower bound, "block-lower", over the tau that stop
    on one block alone: per block B of level n, (sum_B P |T_n|^q / P(B))^(1/q)
    with T_n = (f - f_n)_N, from ``_block_sums``, over ||chi_B||_{1/alpha(.)}
    (1 on a block that meets {alpha = 0}) from ``varlp.kept_block_norms``."""
    if not (math.isfinite(q) and q >= 1):
        raise DomainError(f"lipschitz_norm requires a finite q >= 1, got {q}")
    space = f.space
    avals = as_leaf_values(space, alpha.vals if isinstance(alpha, Exponent) else alpha)
    if np.any(avals < 0):
        raise DomainError("alpha must be nonnegative")
    constant = bool((avals == avals[0]).all())
    if mode == "dp" and not constant:
        raise DomainError("dp mode requires a constant alpha: for a variable "
                          "alpha the Lipschitz ratio is not a ratio of block sums")
    if mode == "dp" or (mode == "auto" and constant):
        table = stopped_terminal_diffs(f, shift="none")
        return _block_result(
            space, *_block_max(space, table, q, 1.0 + float(avals[0]) * q), "dp"
        )
    scan = _scan_or_blocks(space, mode)
    table = stopped_terminal_diffs(f, shift="none")
    pos = avals > 0
    inv_alpha = 1.0 / np.where(pos, avals, avals.max() or 1.0)
    if scan is None:
        probs = space.block_probs
        sums, e = _block_sums(space, table, q)
        meets_zero = np.zeros(probs.size, dtype=bool)
        meets_zero[space.block_ids[:, ~pos]] = True
        dens_alpha = np.where(meets_zero, 1.0, kept_block_norms(space, inv_alpha))
        return _block_lower(space, np.ldexp(sums ** (1.0 / q), e)
                            / (probs ** (1.0 / q) * dens_alpha))

    diffs = np.abs(np.take(table, scan.cells))
    nums = (diffs**q @ space.probs) ** (1.0 / q)
    finite = scan.cells < (space.depth + 1) * space.n_leaves
    dens_q = (finite @ space.probs) ** (1.0 / q)
    meets_zero = finite[:, ~pos].any(axis=1)
    norms = kept_subset_norms(space, inv_alpha)[scan.codes]
    ratios = nums / (dens_q * np.where(meets_zero, 1.0, norms))
    i = int(np.argmax(ratios))
    return _sup_result(scan, float(ratios[i]), i)


def duality_pairing_ratio(
    f: Martingale,
    phi: Sequence[float],
    p: Exponent,
    mode: str = "auto",
) -> float:
    """|E(f_N phi)| / (||f||_{H^s_{p(.)}} * ||phi||_{Lambda_2(1/p - 1)}),
    the finite pairing whose boundedness the duality theorem asserts.  For
    a constant p, alpha = 1/p - 1 is constant, so "auto" takes the exact
    Lipschitz norm at any depth.  A nonzero pairing with a variable p past
    the cap is refused, before anything is solved: "auto" would take its
    Lipschitz norm as a lower bound ("block-lower"), and dividing by it
    would over-report the pairing."""
    space = f.space
    if p.p_plus() > 1.0:
        raise DomainError("duality pairing requires p_+ <= 1")
    require_f0_zero(f, "duality pairing requires f_0 = 0")
    phi_v = as_leaf_values(space, phi)
    pairing = abs(float(np.sum(space.probs * f.terminal * phi_v)))
    zero = pairing <= 1e-15 * max(1.0, float(np.abs(phi_v).max())) * max(
        1.0, float(np.abs(f.terminal).max())
    )
    alpha = 1.0 / p.vals - 1.0
    if (not zero and mode == "auto" and (alpha != alpha[0]).any()
            and count_stopping_times(space) > ENUMERATION_CAP):
        raise DomainError("duality pairing for a variable p past the cap: the "
                          "Lipschitz norm is only a lower bound there")
    # remove the F_0 projection: it pairs to zero against f and makes the
    # Lipschitz norm's f_0 = 0 convention applicable
    centered = phi_v - space.level_averages(phi_v[None])[0]
    phi_mart = martingale_from_terminal(space, centered)
    hs = hs_norm(f, p)
    lip = lipschitz_norm(phi_mart, 2.0, alpha, mode=mode).value
    if zero:
        return 0.0
    if hs == 0.0 or lip == 0.0:
        raise DomainError("zero denominator in duality pairing ratio")
    return pairing / (hs * lip)
