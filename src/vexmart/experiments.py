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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericalError, ResourceError, ValidationError
from .bmo import candidate_matrix, indicator_norms
from .martingale import (
    ENUMERATION_CAP,
    Martingale,
    martingale_from_terminal,
    maximal,
    require_f0_zero,
    stopped_terminal_diffs,
)
from .space import (
    MAX_SPACE_BYTES,
    Exponent,
    FilteredSpace,
    as_leaf_values,
    build_dyadic_space,
    build_mary_space,
    condition_k,
    validate_filtration,
)
from .varlp import luxemburg_norm, modular, norm_batch

ASSERT_SLACK = 1e-9
_T_GRID_POINTS = 64
EXPONENT_LAWS = ("constant", "two-block", "iid-uniform", "block-structured")
MARTINGALE_LAWS = ("normal", "uniform", "two-point")


def _rng(*parts) -> random.Random:
    return random.Random("vexmart:" + ":".join(str(x) for x in parts))


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


@dataclass(frozen=True)
class ConstantReport:
    name: str
    ratios: tuple[float, ...]
    max_ratio: float
    mean_ratio: float
    quantiles: dict[str, float]
    witness: dict | None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ratios": list(self.ratios),
            "max": self.max_ratio,
            "mean": self.mean_ratio,
            "quantiles": dict(self.quantiles),
            "witness": self.witness,
            "details": self.details,
        }


def _report(
    name: str,
    ratios: Sequence[float],
    witness: dict | None,
    details: dict | None = None,
) -> ConstantReport:
    r = [float(x) for x in ratios]
    if r:
        arr = np.array(r)
        quantiles = {
            "q50": float(np.quantile(arr, 0.5)),
            "q90": float(np.quantile(arr, 0.9)),
            "q100": float(arr.max()),
        }
        mx, mean = float(arr.max()), float(arr.mean())
    else:
        quantiles, mx, mean = {}, 0.0, 0.0
    return ConstantReport(
        name, tuple(r), mx, mean, quantiles, witness, details or {}
    )


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
        vals = [rng.uniform(lo, hi) for _ in range(n)]
    elif law == "block-structured":
        level = min(1, space.depth)
        draws = [rng.uniform(lo, hi) for _ in range(space.n_blocks[level])]
        vals = np.array(draws)[space.block_of[level]]
    else:
        raise DomainError(f"unknown exponent law {law!r}")
    return Exponent(vals)


def generate_martingale(config: TrialConfig, index: int = 0) -> Martingale:
    """Terminal values drawn per the config law, then centered on each F_0
    block so f_0 = 0."""
    space = config.space
    rng = _rng("martingale", config.martingale_law, config.seed, index)
    if config.martingale_law == "normal":
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(space.n_leaves)])
    elif config.martingale_law == "uniform":
        v = np.array([rng.uniform(-1.0, 1.0) for _ in range(space.n_leaves)])
    else:
        v = np.array([rng.choice((-1.0, 1.0)) for _ in range(space.n_leaves)])
    v = v - space.level_averages(v[None])[0]
    return martingale_from_terminal(space, v)


def _with_midpoints(vals: np.ndarray) -> np.ndarray:
    """Nonempty ascending values with the midpoint of each neighbouring
    pair between them."""
    out = np.empty(2 * vals.size - 1)
    out[::2] = vals
    out[1::2] = 0.5 * (vals[:-1] + vals[1:])
    return out


def default_lambda_grid(f: Martingale) -> tuple[float, ...]:
    """Distinct positive values of Mf (the only levels where the weak-type
    ratio changes) plus midpoints, plus half the smallest."""
    vals = np.unique(maximal(f))
    vals = vals[vals > 0]
    if vals.size == 0:
        return ()
    return (0.5 * float(vals[0]), *_with_midpoints(vals).tolist())


def weak_type_check(
    f: Martingale,
    p: Exponent,
    lambda_grid: Sequence[float] | None = None,
) -> ConstantReport:
    """Per lambda: P(Mf > lambda) / rho(f_N / lambda) against the
    proof-chain constant p_+(A)/p_-(A), A = {Mf > lambda}.

    The constant is proved through Young's inequality, which needs p >= 1
    on A; the bound is asserted exactly there and only reported elsewhere.
    """
    space = f.space
    grid = default_lambda_grid(f) if lambda_grid is None else tuple(lambda_grid)
    for lam in grid:
        if lam <= 0:
            raise DomainError("lambda grid must be positive")
    mf = maximal(f)
    ratios, bounds, asserted = [], [], []
    for lam in grid:
        a_mask = mf > lam
        pa = float(space.probs[a_mask].sum())
        if pa == 0.0:
            ratios.append(0.0)
            bounds.append(1.0)
            asserted.append(False)
            continue
        rho = modular(space, f.terminal, p, lam)
        ratio = pa / rho
        idx = np.nonzero(a_mask)[0]
        p_lo = p.p_minus(idx)
        bound = p.p_plus(idx) / p_lo
        check = p_lo >= 1.0
        if check and ratio > bound + ASSERT_SLACK:
            raise NumericalError(
                f"weak-type ratio {ratio} exceeds proof-chain constant "
                f"{bound} at lambda={lam}"
            )
        ratios.append(ratio)
        bounds.append(bound)
        asserted.append(check)
    # the first largest ratio over the lambdas with P(Mf > lambda) > 0
    kept = np.array(grid) < mf.max()
    witness = None
    if kept.any():
        j = int(np.argmax(np.where(kept, ratios, -np.inf)))
        witness = {
            "lambda": grid[j],
            "ratio": ratios[j],
            "bound": bounds[j],
            "terminal": f.terminal.tolist(),
            "exponent": p.vals.tolist(),
        }
    return _report(
        "weak-type proof-chain constant",
        ratios,
        witness,
        {"lambda_grid": list(grid), "bounds": bounds, "asserted": asserted},
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
    if p.p_minus() <= 1.0:
        raise DomainError("maximal-norm ratio requires p_- > 1")
    space, n = config.space, config.space.n_leaves
    # rows f_N, Mf, 10 f_N and 10 Mf per trial; a batch holds at most
    # ENUMERATION_CAP entries, so memory does not grow with the trials
    per_call = max(1, ENUMERATION_CAP // (4 * n))
    norms = np.empty((config.trials, 4))
    for start in range(0, config.trials, per_call):
        rows = np.empty((min(per_call, config.trials - start), 4, n))
        for i, row in enumerate(rows, start):
            f = generate_martingale(config, i)
            row[0], row[1] = f.terminal, maximal(f)
        rows[:, 2:] = 10.0 * rows[:, :2]
        norms[start : start + len(rows)] = norm_batch(
            space.probs, p.vals, rows.reshape(-1, n)
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
    return _report(
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
    filtration block B and leaf x in B, after rescaling to ||f|| <= 1/2."""
    fv = np.abs(as_leaf_values(space, f))
    # the (leaf, leaf) weight matrix below is the largest allocation
    n_bytes = 8 * space.n_leaves**2
    if n_bytes > MAX_SPACE_BYTES:
        raise ResourceError(
            f"lemma34 check on {space.n_leaves} leaves needs {n_bytes} bytes, "
            f"over {MAX_SPACE_BYTES}"
        )
    norm = luxemburg_norm(space, fv, p).norm
    scale = 1.0
    if norm > 0.5:
        scale = 0.5 / norm
        fv = fv * scale
    k = condition_k(space, p).k
    e = p.vals / p.p_minus()
    # row x: P(y) |f(y)|^{e_x}; the exponent tracks the evaluation point x,
    # not the integration variable y, and does not depend on the level
    weighted = fv[None, :] ** e[:, None]
    weighted *= space.probs
    lhs = space.level_averages(np.broadcast_to(fv, space.block_of.shape)) ** e
    ratios = np.empty((space.depth + 1, space.n_leaves))
    for n, bo in enumerate(space.block_of):
        same_block = bo[:, None] == bo[None, :]
        avg = weighted.sum(axis=1, where=same_block) / space.block_probs[n][bo]
        ratios[n] = lhs[n] / (k * (avg + 1.0))
    # first largest ratio in level-major, leaf-minor order
    n, x = divmod(int(np.argmax(ratios)), space.n_leaves)
    best = float(ratios[n, x])
    witness = {"level": n, "leaf": x, "ratio": best}
    if best > 1.0 + ASSERT_SLACK:
        raise NumericalError(
            f"pointwise block-average inequality violated: max ratio {best}"
        )
    return _report(
        "block-average pointwise inequality",
        ratios.ravel().tolist(),
        witness,
        {"condition_k": k, "rescale": scale},
    )


def jn_equivalence(config: TrialConfig, p: Exponent) -> ConstantReport:
    """Two-sided envelope of bmo_norm(f, p) / bmo_norm(f, 1) over random
    martingales, both norms taken exhaustively.  The stopping times and both
    denominators depend only on (space, p), so they are built once, and the
    two numerators of a trial share one stopped-difference gather."""
    if p.p_minus() < 1.0:
        raise DomainError("BMO norm equivalence requires p_- >= 1")
    space = config.space
    probs, ones = space.probs, np.ones(space.n_leaves)
    taus, _ = candidate_matrix(space, "exhaustive")
    finite = np.isfinite(taus)
    dens1 = indicator_norms(probs, ones, finite)
    densp = indicator_norms(probs, p.vals, finite)
    ratios, kept = [], []
    for i in range(config.trials):
        f = generate_martingale(config, i)
        diffs = stopped_terminal_diffs(f, taus, shift="minus-one")
        b1 = float(np.max(norm_batch(probs, ones, diffs) / dens1))
        bp = float(np.max(norm_batch(probs, p.vals, diffs) / densp))
        if b1 == 0.0 or bp == 0.0:
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
    return _report("BMO norm equivalence ratio", ratios, witness, details)


def _t_grid_from_diffs(diffs: np.ndarray) -> tuple[float, ...]:
    """0, the distinct positive differences with their midpoints, and 1.25
    times the largest, thinned to at most _T_GRID_POINTS evenly spaced
    entries."""
    vals = np.unique(diffs[diffs > 0])
    if vals.size == 0:
        return (0.0,)
    grid = np.concatenate(([0.0], _with_midpoints(vals), [1.25 * vals[-1]]))
    if grid.size > _T_GRID_POINTS:
        idx = np.linspace(0, grid.size - 1, _T_GRID_POINTS).astype(int)
        grid = grid[np.unique(idx)]
    return tuple(grid.tolist())


def exp_jn_curve(f: Martingale, p: Exponent) -> ConstantReport:
    """Exponential decay of ||chi_{tau<inf, f - f_{tau-1} >= t}||_{p(.)} /
    ||chi_{tau<inf}||_{p(.)} in t, over the exhaustively enumerated stopping
    times.

    Asserts the envelope curve is nonincreasing, fits (C1, C2) by log-linear
    regression with C2 > 0, and checks the explicit construction C1 = 4,
    C2 = ln2 / (2*C_hat) pointwise, where C_hat is the measured constant of
    the moment chain sup_r ||f||_{BMO_{r p(.)}} / ||f||_{BMO_1} over the r
    values the construction actually uses (a fixed point, since r depends on
    C_hat through r = t / (2 * C_hat * ||f||_{BMO_1})).

    One scan serves everything: ||f||_{BMO_1} is taken from the same
    stopping times and stopped differences as the curve.  Off {tau < inf}
    the differences are exactly 0."""
    space = f.space
    require_f0_zero(f, "exp_jn_curve requires f_0 = 0")
    taus, _ = candidate_matrix(space, "exhaustive")
    finite = np.isfinite(taus)
    diffs = stopped_terminal_diffs(f, taus, shift="minus-one")
    probs, ones = space.probs, np.ones(space.n_leaves)
    b1 = float(np.max(
        norm_batch(probs, ones, diffs) / indicator_norms(probs, ones, finite)
    ))
    if b1 == 0.0:
        raise DomainError("exponential decay curve requires a nonzero BMO_1 norm")
    # the norm of an indicator in L^{r p(.)} is its L^{p(.)} norm to the
    # power 1/r, so these serve every moment r below
    dens = indicator_norms(probs, p.vals, finite)
    grid = _t_grid_from_diffs(diffs)

    cache: dict[float, float] = {}

    def moment_ratio(r: float) -> float:
        if r not in cache:
            nums = norm_batch(probs, p.vals * r, diffs)
            cache[r] = float(np.max(nums / dens ** (1.0 / r))) / b1
        return cache[r]

    # fixed point for C_hat: the r values used depend on C_hat and vice
    # versa; the iteration is monotone nondecreasing and verified after
    c_hat = max(moment_ratio(1.0), 1e-12)
    for _ in range(60):
        c0 = c_hat * b1
        rs = [t / (2.0 * c0) for t in grid if t >= 2.0 * c0]
        new = max((moment_ratio(r) for r in rs), default=c_hat)
        if new <= c_hat * (1.0 + 1e-12):
            break
        c_hat = new
    c0 = c_hat * b1
    for t in grid:
        if t >= 2.0 * c0:
            r = t / (2.0 * c0)
            if moment_ratio(r) > c_hat * (1.0 + ASSERT_SLACK):
                raise NumericalError(
                    "moment-chain constant fixed point failed to stabilize"
                )
    c2 = math.log(2.0) / (2.0 * c_hat)

    # the envelope rows of a slice of the grid are solved in one call,
    # with the slice sized so that at most ENUMERATION_CAP rows are stacked
    envelope = []
    n_taus, n_leaves = diffs.shape
    per_call = max(1, ENUMERATION_CAP // n_taus)
    for start in range(0, len(grid), per_call):
        ts = np.array(grid[start : start + per_call])
        masks = finite & (diffs >= ts[:, None, None])
        norms = indicator_norms(probs, p.vals, masks.reshape(-1, n_leaves))
        for t, lhs in zip(ts.tolist(), norms.reshape(ts.size, n_taus)):
            bound = 4.0 * math.exp(-c2 * t / b1) * dens
            bad = lhs > bound + ASSERT_SLACK * max(1.0, float(dens.max()))
            if np.any(bad):
                j = int(np.argmax(lhs - bound))
                raise NumericalError(
                    f"decay bound violated at t={t}: level norm {lhs[j]} > "
                    f"bound {bound[j]}"
                )
            envelope.append(float(np.max(lhs / dens)))

    for a, b in zip(envelope, envelope[1:]):
        if b > a + 1e-12:
            raise NumericalError("decay curve is not nonincreasing")

    pos = [(t, y) for t, y in zip(grid, envelope) if y > 0 and t > 0]
    fit = None
    if len(pos) >= 2 and len({y for _, y in pos}) >= 2:
        xs = np.array([t / b1 for t, _ in pos])
        ys = np.log(np.array([y for _, y in pos]))
        slope, intercept = np.polyfit(xs, ys, 1)
        fit = {"C1": float(math.exp(intercept)), "C2": float(-slope)}
        # a curve flat up to round-off fits an arbitrarily-signed tiny
        # slope; only a genuine decay pins the sign
        if ys.max() - ys.min() > 1e-9 and fit["C2"] <= 0:
            raise NumericalError(
                f"fitted decay rate is not positive: {fit['C2']}"
            )
    witness = {
        "t_max_positive": pos[-1][0] if pos else 0.0,
        "ratio": envelope[0] if envelope else 0.0,
        "bmo1": b1,
    }
    return _report(
        "exponential decay envelope",
        envelope,
        witness,
        {
            "curve": [[t, y] for t, y in zip(grid, envelope)],
            "fit": fit,
            "proof_constants": {"C1": 4.0, "C2": c2, "C_hat": c_hat},
            "bmo1": b1,
            "stopping_times": int(taus.shape[0]),
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
    if not (np.all(inc > 0) and np.all(inc <= inc_bound)):
        raise NumericalError("h increment bounds violated")

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
    return _report(
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


def _violation_draw(config: TrialConfig, i: int) -> tuple[list[float], Exponent]:
    """Leaf values and exponent of random trial i of violation_33_search."""
    rng = _rng("violation", config.seed, i)
    fv = [rng.gauss(0.0, 1.0) for _ in range(config.space.n_leaves)]
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
            "f": fv,
            "exponent": p.vals.tolist(),
            **infos[j],
        }
    return _report(
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
