"""BMO and Lipschitz norms as suprema over stopping times.

Both norms scan a family of stopping times: the full (exhaustively
enumerated) family when its size fits under the cap, otherwise a seeded
sample that always contains tau = 0, tau = infinity and every constant-level
tau = n.  Sampled values are lower bounds of the true supremum and the mode
is reported so callers can pin exhaustive results only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceError
from .martingale import (
    ENUMERATION_CAP,
    Martingale,
    StoppingTime,
    count_stopping_times,
    enumerate_stopping_matrix,
    martingale_from_terminal,
    require_f0_zero,
    sample_stopping_matrix,
    stopped_terminal_diffs,
)
from .space import Exponent, FilteredSpace, as_leaf_values
from .varlp import norm_batch
from .hardy import hs_norm


@dataclass(frozen=True)
class SupNormResult:
    value: float
    argmax_tau: StoppingTime | None
    mode: str  # "exhaustive" | "sampled"
    candidates: int


def candidate_matrix(
    space: FilteredSpace,
    mode: str = "auto",
    seed: int = 0,
    samples: int = 256,
) -> tuple[np.ndarray, str]:
    """Stopping times to scan, as a stop-level matrix, plus the achieved
    mode.  Exhaustive mode is taken when at most ENUMERATION_CAP stopping
    times exist.  Stopping times that are never finite contribute nothing
    to any supremum over stopping times and are left out."""
    if mode not in ("auto", "exhaustive", "sampled"):
        raise DomainError(f"unknown supremum mode {mode!r}")
    count = count_stopping_times(space)
    if mode in ("auto", "exhaustive") and count <= ENUMERATION_CAP:
        taus, achieved = enumerate_stopping_matrix(space), "exhaustive"
    elif mode == "exhaustive":
        raise ResourceError(
            f"{count} stopping times exceed cap {ENUMERATION_CAP}; "
            "exhaustive mode refused"
        )
    else:
        levels = np.arange(space.depth + 1, dtype=float)[:, None]
        rows = np.vstack([
            sample_stopping_matrix(space, samples, seed),
            np.broadcast_to(levels, (space.depth + 1, space.n_leaves)),
        ])
        taus, achieved = rows[_distinct_rows(rows)[0]], "sampled"
    return taus[np.isfinite(taus).any(axis=1)], achieved


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One index per distinct row of a 2-d array, rows ascending in
    lexicographic order (first column most significant), and for every row
    the position of its distinct row in that list.  The rows and order of
    ``np.unique(a, axis=0)``, from one lexsort and one compare of
    neighbouring sorted rows."""
    order = np.lexsort(a.T[::-1])
    ranked = a[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    which = np.empty(order.size, dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return order[new], which


def indicator_norms(
    probs: np.ndarray, pvals: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Luxemburg norms of the rows of a boolean matrix read as indicators,
    with one solve per distinct row.  Rows are told apart by their packed
    bits, a few byte columns, whose lexicographic order is the byte order
    of the packed rows."""
    first, which = _distinct_rows(np.packbits(masks, axis=1))
    return norm_batch(probs, pvals, masks[first].astype(float))[which]


def _sup_result(
    taus: np.ndarray, ratios: np.ndarray, mode: str
) -> SupNormResult:
    if ratios.size == 0 or not np.any(np.isfinite(ratios)):
        return SupNormResult(0.0, None, mode, taus.shape[0])
    i = int(np.argmax(ratios))
    return SupNormResult(
        float(ratios[i]), StoppingTime(taus[i]), mode, taus.shape[0]
    )


def bmo_norm(
    f: Martingale,
    p: Exponent,
    mode: str = "auto",
    seed: int = 0,
    samples: int = 256,
) -> SupNormResult:
    """sup over tau of ||f - f^{tau-1}||_{p(.)} / ||chi_{tau<inf}||_{p(.)},
    with the terminal-level difference and f_{-1} = 0; stopping times that
    are never finite contribute nothing."""
    space = f.space
    require_f0_zero(f, "bmo_norm requires f_0 = 0")
    taus, achieved = candidate_matrix(space, mode, seed, samples)
    finite = np.isfinite(taus)
    diffs = stopped_terminal_diffs(f, taus, shift="minus-one")
    nums = norm_batch(space.probs, p.vals, diffs)
    dens = indicator_norms(space.probs, p.vals, finite)
    return _sup_result(taus, nums / dens, achieved)


def lipschitz_norm(
    f: Martingale,
    q: float,
    alpha: Exponent | Sequence[float],
    mode: str = "auto",
    seed: int = 0,
    samples: int = 256,
) -> SupNormResult:
    """sup over tau of ||chi||_{1/alpha(.)}^{-1} ||chi||_q^{-1}
    ||f - f^tau||_q, where alpha(.) >= 0 and 1/alpha reads 1/0 as +inf,
    where the Luxemburg norm applies its max rule."""
    if q < 1:
        raise DomainError("lipschitz_norm requires q >= 1")
    space = f.space
    avals = as_leaf_values(space, alpha.vals if isinstance(alpha, Exponent) else alpha)
    if np.any(avals < 0):
        raise DomainError("alpha must be nonnegative")
    inv_alpha = np.where(avals > 0, 1.0 / np.where(avals > 0, avals, 1.0), math.inf)

    taus, achieved = candidate_matrix(space, mode, seed, samples)
    finite = np.isfinite(taus)
    diffs = np.abs(stopped_terminal_diffs(f, taus, shift="none"))
    nums = (diffs**q @ space.probs) ** (1.0 / q)
    pq = finite @ space.probs
    dens_q = pq ** (1.0 / q)
    dens_alpha = indicator_norms(space.probs, inv_alpha, finite)
    return _sup_result(taus, nums / (dens_q * dens_alpha), achieved)


def duality_pairing_ratio(
    f: Martingale,
    phi: Sequence[float],
    p: Exponent,
    mode: str = "auto",
) -> float:
    """|E(f_N phi)| / (||f||_{H^s_{p(.)}} * ||phi||_{Lambda_2(1/p - 1)}),
    the finite pairing whose boundedness the duality theorem asserts."""
    space = f.space
    if p.p_plus() > 1.0:
        raise DomainError("duality pairing requires p_+ <= 1")
    require_f0_zero(f, "duality pairing requires f_0 = 0")
    phi_v = as_leaf_values(space, phi)
    pairing = abs(float(np.sum(space.probs * f.terminal * phi_v)))
    # remove the F_0 projection: it pairs to zero against f and makes the
    # Lipschitz norm's f_0 = 0 convention applicable
    centered = phi_v - space.level_averages(phi_v[None])[0]
    phi_mart = martingale_from_terminal(space, centered)
    alpha = 1.0 / p.vals - 1.0
    hs = hs_norm(f, p)
    lip = lipschitz_norm(phi_mart, 2.0, alpha, mode=mode).value
    if pairing <= 1e-15 * max(1.0, float(np.abs(phi_v).max())) * max(
        1.0, float(np.abs(f.terminal).max())
    ):
        return 0.0
    if hs == 0.0 or lip == 0.0:
        raise DomainError("zero denominator in duality pairing ratio")
    return pairing / (hs * lip)
