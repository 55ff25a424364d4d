import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexmart import (
    DomainError,
    Exponent,
    NumericalError,
    ResourceError,
    bmo_norm,
    build_dyadic_space,
    build_mary_space,
    cond_expect,
    constant_exponent,
    duality_pairing_ratio,
    StoppingTime,
    lipschitz_norm,
    luxemburg_norm,
    martingale_from_terminal,
    stop,
    validate_filtration,
    validate_stopping_time,
)
from vexmart import bmo, serialize, varlp
from vexmart.bmo import StoppingScan
from vexmart.martingale import _tree_witness, sample_stopping_matrix, stopped_terminal_diffs
from vexmart.varlp import block_norms, indicator_norm, kept_block_norms, kept_subset_norms

from conftest import (
    bisection_oracle,
    children_of,
    drop_root_level,
    lp_norm,
    random_exponent,
    random_tree_space,
    relabelled_levels,
)


def centered(rng, space, scale=1.0):
    v = np.array([rng.gauss(0, scale) for _ in range(space.n_leaves)])
    v -= cond_expect(space, v, 0)
    return martingale_from_terminal(space, v)


class TestBmoNorm:
    def test_zero_martingale(self, four_leaf):
        f = martingale_from_terminal(four_leaf, (0.0,) * 4)
        res = bmo_norm(f, constant_exponent(four_leaf, 2.0))
        assert res.value == 0.0

    def test_two_leaf_example(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        res = bmo_norm(f, constant_exponent(two_leaf, 2.0))
        assert res.value == pytest.approx(1.0, rel=1e-10)
        # a constant exponent: auto compares the root and the two leaves
        assert res.mode == "dp"
        assert res.candidates == 3

    def test_requires_zero_start(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (2.0, 1.0))
        with pytest.raises(DomainError):
            bmo_norm(f, constant_exponent(two_leaf, 1.0))

    def test_exhaustive_over_cap(self, monkeypatch):
        monkeypatch.setattr(bmo, "ENUMERATION_CAP", 5)
        sp = build_dyadic_space(2)
        f = centered(random.Random(1), sp)
        with pytest.raises(ResourceError):
            bmo_norm(f, constant_exponent(sp, 1.0), mode="exhaustive")

    def test_exhaustive_dominates_sampled(self):
        """No sampled stopping time's own ratio, from ``stop`` and the
        bisection oracle, exceeds the exhaustive supremum."""
        rng = random.Random(3)
        for _ in range(20):
            sp = random_tree_space(rng, max_leaves=6)
            f = centered(rng, sp)
            p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
            full = bmo_norm(f, p, mode="exhaustive").value
            for row in sample_stopping_matrix(sp, 16, seed=9):
                chi = np.isfinite(row)
                if chi.any():
                    diff = f.terminal - stop(f, StoppingTime(row), shift="minus-one").terminal
                    own = (bisection_oracle(sp.probs, p.vals, diff)
                           / bisection_oracle(sp.probs, p.vals, chi.astype(float)))
                    assert own <= full * (1 + 1e-10)

    def test_more_samples_never_decrease(self):
        """The sampled stream is a prefix: more samples only add rows."""
        sp = build_dyadic_space(3)
        small = sample_stopping_matrix(sp, 8, seed=2)
        assert np.array_equal(sample_stopping_matrix(sp, 64, seed=2)[:8], small)

    def test_witness_reproduces_value(self):
        rng = random.Random(7)
        sp = random_tree_space(rng, max_leaves=6)
        f = centered(rng, sp)
        p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
        res = bmo_norm(f, p, mode="exhaustive")
        tau = res.argmax_tau
        diff = f.terminal - stop(f, tau, shift="minus-one").terminal
        num = luxemburg_norm(sp, np.abs(diff), p).norm
        den = luxemburg_norm(sp, tau.finite_mask.astype(float), p).norm
        assert res.value == pytest.approx(num / den, rel=1e-9)

    def test_scale_invariance_of_ratio(self):
        rng = random.Random(11)
        sp = random_tree_space(rng, max_leaves=6)
        p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
        one = constant_exponent(sp, 1.0)
        f = centered(rng, sp)
        r = bmo_norm(f, p).value / bmo_norm(f, one).value
        g = f.scaled(37.5)
        r2 = bmo_norm(g, p).value / bmo_norm(g, one).value
        assert r2 == pytest.approx(r, rel=1e-9)

    def test_constant_exponent_pair_envelope(self):
        # p = 1 and p = 2 norms stay within a finite two-sided envelope
        rng = random.Random(13)
        lo, hi = math.inf, 0.0
        sp = build_dyadic_space(2)
        p1 = constant_exponent(sp, 1.0)
        p2 = constant_exponent(sp, 2.0)
        for _ in range(50):
            f = centered(rng, sp)
            a = bmo_norm(f, p1).value
            b = bmo_norm(f, p2).value
            if a == 0.0:
                continue
            lo, hi = min(lo, b / a), max(hi, b / a)
        assert 0.0 < lo <= hi < math.inf

    def test_refinement_stability(self):
        # split every leaf into two equal halves: the ratio envelope of a
        # lifted martingale is unchanged
        rng = random.Random(17)
        sp = build_dyadic_space(2)
        levels = [
            [[2 * i for i in b] + [2 * i + 1 for i in b] for b in level]
            for level in serialize.space_to_json(sp)["levels"]
        ]
        levels.append([[i] for i in range(8)])
        fine = validate_filtration(
            [sorted(map(sorted, lv)) for lv in levels], [0.125] * 8
        )
        p = random_exponent(rng, 4, 1.0, 3.0)
        p_fine = Exponent(tuple(np.repeat(p.vals, 2)))
        one, one_fine = constant_exponent(sp, 1.0), constant_exponent(fine, 1.0)
        for _ in range(10):
            f = centered(rng, sp)
            g = martingale_from_terminal(fine, np.repeat(f.terminal, 2))
            r = bmo_norm(f, p).value / bmo_norm(f, one).value
            r_fine = (
                bmo_norm(g, p_fine).value / bmo_norm(g, one_fine).value
            )
            # the fine space has strictly more stopping times, but none can
            # separate the duplicated leaves profitably beyond round-off
            assert r_fine == pytest.approx(r, rel=0.1)


def dp_space(rng, shape):
    """A random tree, the same tree relabelled, or the forest left by
    dropping its level 0, or a one-leaf space."""
    if shape == "one-leaf":
        return validate_filtration([[[0]]] * rng.randint(1, 4), [1.0])
    sp = random_tree_space(rng, max_leaves=8)
    if shape == "relabelled":
        return validate_filtration(*relabelled_levels(sp, rng))
    return drop_root_level(sp) if shape == "forest" else sp


def dp_martingale(rng, space, law):
    """A centred Gaussian martingale, f = 0, or the centred spike at one
    leaf."""
    v = np.zeros(space.n_leaves)
    if law == "gauss":
        v = np.array([rng.gauss(0, 1) for _ in range(space.n_leaves)])
    elif law == "spike":
        v[rng.randrange(space.n_leaves)] = rng.uniform(0.5, 3.0)
    return martingale_from_terminal(space, v - cond_expect(space, v, 0))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       shape=st.sampled_from(["tree", "forest", "relabelled", "one-leaf"]),
       law=st.sampled_from(["gauss", "gauss", "zero", "spike"]),
       p0=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
def test_dp_matches_exhaustive(seed, shape, law, p0):
    """The block maximum is the exhaustive supremum, after comparing every
    block once, and its witness is a stopping time that stops on one block
    alone (block 0 of level 0 when every ratio ties, as for f = 0) whose
    own ratio, from ``stop`` and closed-form norms, is the dp value."""
    rng = random.Random(seed)
    sp = dp_space(rng, shape)
    f = dp_martingale(rng, sp, law)
    p = constant_exponent(sp, p0)
    full = bmo_norm(f, p, mode="exhaustive").value
    res = bmo_norm(f, p, mode="dp")
    assert res.mode == "dp" and res.candidates == sum(sp.n_blocks)
    assert abs(res.value - full) <= 1e-12 * full
    tau = validate_stopping_time(sp, res.argmax_tau.vals)
    chi = tau.finite_mask
    levels = np.unique(tau.vals[chi])
    assert levels.size == 1
    n = int(levels[0])
    blocks = np.unique(sp.block_of[n, chi])
    assert blocks.size == 1
    assert np.array_equal(chi, sp.block_of[n] == blocks[0])
    if law == "zero":
        assert (n, blocks[0]) == (0, 0)
    diff = f.terminal - stop(f, tau, shift="minus-one").terminal
    own = lp_norm(sp.probs, diff, p0) / lp_norm(sp.probs, chi, p0)
    assert abs(own - res.value) <= 1e-12 * res.value


def first_flagged_oracle(space, stops):
    """Per row of (K, all blocks) stop flags and per leaf, the level of the
    first flagged block met walking down the leaf's blocks ``block_of[n,
    x]`` from the root, or inf; one leaf at a time."""
    offsets = [sum(space.n_blocks[:n]) for n in range(space.depth + 1)]
    out = np.full((len(stops), space.n_leaves), math.inf)
    for k, row in enumerate(stops):
        for x in range(space.n_leaves):
            for n in range(space.depth + 1):
                if row[offsets[n] + space.block_of[n, x]]:
                    out[k, x] = n
                    break
    return out


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       shape=st.sampled_from(["tree", "forest", "relabelled", "one-leaf"]),
       k=st.sampled_from([1, 3, 17]),
       density=st.sampled_from([0.0, 0.1, 0.4, 1.0]))
def test_tree_witness_takes_first_flagged_ancestor(seed, shape, k, density):
    """``_tree_witness`` reads arbitrary flags, antichains or not, as the
    first flagged level on each leaf's path; a caller's (blocks, K) array
    passed as a transposed view reads the same."""
    rng = random.Random(seed)
    sp = dp_space(rng, shape)
    stops = np.array([[rng.random() < density for _ in range(sum(sp.n_blocks))]
                      for _ in range(k)])
    got = _tree_witness(sp, stops)
    assert got.shape == (k, sp.n_leaves)
    assert np.array_equal(got, first_flagged_oracle(sp, stops))
    assert np.array_equal(_tree_witness(sp, np.ascontiguousarray(stops.T).T), got)


class TestDpMode:
    def test_dp_dominates_sampled(self):
        """Past the cap, where no exhaustive oracle runs, no sampled
        stopping time's closed-form ratio exceeds dp."""
        rng = random.Random(47)
        sp = build_dyadic_space(6)
        taus = sample_stopping_matrix(sp, 64, seed=47)
        taus = taus[np.isfinite(taus).any(axis=1)]
        cells = (np.minimum(taus, sp.depth + 1).astype(int), np.arange(sp.n_leaves))
        chi = np.isfinite(taus)
        for law in (2.0, 1.0, 1.5):
            p = constant_exponent(sp, law)
            for _ in range(4):
                f = centered(rng, sp)
                exact = bmo_norm(f, p, mode="dp").value
                diffs = stopped_terminal_diffs(f)[cells]
                own = ((np.abs(diffs) ** law @ sp.probs) / (chi @ sp.probs)) ** (1 / law)
                assert exact >= own.max() * (1 - 1e-12)

    def test_dp_at_extreme_scales(self):
        """Powers of differences near 1e160 or 1e-160 leave binary64, but
        the DP scales them and stays the exhaustive supremum."""
        rng = random.Random(71)
        sp = random_tree_space(rng, max_leaves=7)
        f = centered(rng, sp)
        for p0 in (0.5, 3.0):
            p = constant_exponent(sp, p0)
            one = bmo_norm(f, p, mode="dp").value
            for c in (1e160, 1e-160):
                got = bmo_norm(f.scaled(c), p, mode="dp").value
                full = bmo_norm(f.scaled(c), p, mode="exhaustive").value
                assert abs(got - full) <= 1e-12 * full
                assert abs(got - c * one) <= 1e-12 * c * one

    def test_variable_exponent_refused(self):
        rng = random.Random(53)
        sp = build_dyadic_space(2)
        f = centered(rng, sp)
        with pytest.raises(DomainError, match="constant exponent"):
            bmo_norm(f, Exponent([1.5, 2.0, 1.5, 2.0]), mode="dp")

    def test_lipschitz_refuses_dp(self):
        """dp is refused for a variable alpha only, and so for the duality
        pairing of a variable p, whose alpha is 1/p - 1."""
        sp = build_dyadic_space(2)
        f = centered(random.Random(59), sp)
        with pytest.raises(DomainError, match="constant alpha"):
            lipschitz_norm(f, 2.0, [0.5, 0.25, 0.5, 0.25], mode="dp")
        with pytest.raises(DomainError, match="constant alpha"):
            duality_pairing_ratio(f, [1.0, -1.0, 0.5, 0.0],
                                  Exponent([0.8, 0.6, 0.8, 0.6]), mode="dp")
        assert lipschitz_norm(f, 2.0, [0.5] * 4, mode="dp").mode == "dp"

    def test_auto_bands(self):
        """auto takes the block maximum for a constant exponent at every
        size (dyadic 3: 677 stopping times; 3-ary 2: 730; dyadic 4:
        458,330; dyadic 6, past the cap), and a variable exponent scans
        exhaustively up to the cap and past it the tau that stop on one
        block alone, 127 of them on dyadic 6."""
        rng = random.Random(61)
        for sp, mode in ((build_dyadic_space(3), "exhaustive"),
                         (build_mary_space(3, 2), "exhaustive"),
                         (build_dyadic_space(4), None),
                         (build_dyadic_space(6), "block-lower")):
            f = centered(rng, sp)
            p = constant_exponent(sp, 2.0)
            res = bmo_norm(f, p)
            assert res.mode == "dp" and res == bmo_norm(f, p, mode="dp")
            # dyadic 4's variable exponent is the next test's
            if mode is not None:
                q = random_exponent(rng, sp.n_leaves)
                res = bmo_norm(f, q)
                assert res.mode == mode
                if mode == "exhaustive":
                    assert res == bmo_norm(f, q, mode=mode)
                else:
                    assert res.candidates == sum(sp.n_blocks) == 127

    def test_auto_dp_band_matches_exhaustive(self, monkeypatch):
        """Dyadic 4 is exact either way, and a variable exponent there is
        scanned; with the cap lowered past it, a variable exponent takes
        the single-block pass, a lower bound, and a constant one still takes the
        block maximum."""
        rng = random.Random(67)
        sp = build_dyadic_space(4)
        f = centered(rng, sp)
        p = constant_exponent(sp, 1.5)
        auto = bmo_norm(f, p)
        full = bmo_norm(f, p, mode="exhaustive")
        assert auto.mode == "dp"
        assert abs(auto.value - full.value) <= 1e-12 * full.value
        q = random_exponent(rng, 16)
        scanned = bmo_norm(f, q)
        assert scanned.mode == "exhaustive"
        monkeypatch.setattr(bmo, "ENUMERATION_CAP", 10**5)
        lower = bmo_norm(f, q)
        assert lower.mode == "block-lower" and lower.candidates == 31
        assert lower.value <= scanned.value * (1 + 1e-12)
        assert bmo_norm(f, p) == auto

    def test_block_lower_on_dyadic_six(self):
        """The pinned outputs' dyadic-6 inputs past the cap: both suprema stop on the
        level-5 block of leaves 2 and 3 (the seeded sampler read 1.9044
        and 1.9424 on them)."""
        sp = build_dyadic_space(6)
        f = martingale_from_terminal(sp, [1.0, -1.0, 2.5, -2.5] * 16)
        want = np.full(64, math.inf)
        want[2:4] = 5.0
        for res, value in ((bmo_norm(f, Exponent([1.2, 2.8, 1.5, 2.1] * 16)), 2.5),
                           (lipschitz_norm(f, 2.0, [0.2, 0.4] * 32), 5.601775471891431)):
            assert res.mode == "block-lower" and res.candidates == 127
            assert res.value == pytest.approx(value, rel=1e-12)
            assert np.array_equal(res.argmax_tau.vals, want)


def block_scan_sup(f, pvals):
    """``bmo_norm``'s block-lower supremum, for a constant exponent too,
    which ``auto`` sends to dp instead: the largest ratio of the per-block
    norms of the stopped differences to the kept block denominators."""
    table = stopped_terminal_diffs(f)[:-1]
    return (block_norms(f.space, table, pvals) / kept_block_norms(f.space, pvals)).max()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       shape=st.sampled_from(["tree", "forest", "relabelled", "one-leaf"]),
       law=st.sampled_from(["gauss", "zero", "spike"]),
       p0=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_block_norms_match_a_loop_over_blocks(seed, shape, law, p0):
    """The segmented pass gives, per block B of level n in level-major
    order, the norm of T_n 1_B that ``luxemburg_norm`` gives one block at a
    time, to 1e-12 relative, and exactly 0 where T_n vanishes on B; its
    kept denominators are ``indicator_norm`` of each block.  Leaves out of
    tree order ("relabelled") are grouped by block all the same.  For a
    constant exponent the largest ratio is ``_block_max``'s."""
    rng = random.Random(seed)
    sp = dp_space(rng, shape)
    f = dp_martingale(rng, sp, law)
    p = random_exponent(rng, sp.n_leaves, 0.5, 4.0)
    full = stopped_terminal_diffs(f)
    table = full[:-1]
    got = block_norms(sp, table, p.vals)
    dens = kept_block_norms(sp, p.vals)
    k = 0
    for n in range(sp.depth + 1):
        for b in range(sp.n_blocks[n]):
            chi = sp.block_of[n] == b
            want = luxemburg_norm(sp, table[n] * chi, p).norm
            if want == 0.0:
                assert got[k] == 0.0
            assert abs(got[k] - want) <= 1e-12 * want
            den = indicator_norm(sp.probs, p.vals, chi)
            assert abs(dens[k] - den) <= 1e-12 * den
            k += 1
    assert k == got.size == dens.size
    exact = bmo._block_max(sp, full, p0)[0]
    assert abs(block_scan_sup(f, np.full(sp.n_leaves, p0)) - exact) <= 1e-12 * exact


def test_block_norms_failure_names_first_unconverged_block(monkeypatch):
    """With one Newton step allowed, the error names how many blocks are
    still short of their roots (3 of the 5 with a nonzero cell), the first
    of them in level-major order, and the lambda it reached, which lies
    below its norm: Newton climbs to the root from the left."""
    sp = build_dyadic_space(2)
    p = Exponent((1.2, 2.8, 1.5, 3.5))
    table = stopped_terminal_diffs(martingale_from_terminal(sp, [1.0, -2.0, 0.5, 0.5]))[:-1]
    want = block_norms(sp, table, p.vals)
    assert np.count_nonzero(want) == 5
    monkeypatch.setattr(varlp, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NumericalError, match=r"on 3 blocks; the first, block 0,") as info:
        block_norms(sp, table, p.vals)
    lam = float(str(info.value).rsplit("lambda ", 1)[1])
    assert 0.0 < lam < want[0]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       shape=st.sampled_from(["tree", "forest", "relabelled", "one-leaf"]),
       law=st.sampled_from(["gauss", "gauss", "zero", "spike"]),
       norm=st.sampled_from(["bmo", "lipschitz"]))
def test_block_lower_is_a_single_block_lower_bound(seed, shape, law, norm):
    """With the cap at 0, auto scans the tau that stop on one block alone:
    for a variable exponent or alpha it reports "block-lower" after every
    block, at most the exhaustive supremum, with a witness that stops on
    one block whose own ratio, from ``stop`` and the bisection oracle, is
    the value.  For a constant exponent the block scan is dp."""
    rng = random.Random(seed)
    sp = dp_space(rng, shape)
    f = dp_martingale(rng, sp, law)
    n = sp.n_leaves
    if norm == "bmo":
        p = random_exponent(rng, n, 0.5, 4.0)
        full = bmo_norm(f, p, mode="exhaustive").value
        with mock.patch.object(bmo, "ENUMERATION_CAP", 0):
            res = bmo_norm(f, p)
        pvals, shift, q = p.vals, "minus-one", None
    else:
        alpha = [0.0 if rng.random() < 0.2 else rng.uniform(0.0, 1.5) for _ in range(n)]
        full = lipschitz_norm(f, 2.0, alpha, mode="exhaustive").value
        with mock.patch.object(bmo, "ENUMERATION_CAP", 0):
            res = lipschitz_norm(f, 2.0, alpha)
        pvals = np.array([math.inf if a == 0 else 1 / a for a in alpha])
        shift, q = "none", 2.0
    variable = np.unique(pvals).size > 1
    assert res.mode == ("block-lower" if variable else "dp")
    assert res.candidates == sum(sp.n_blocks)
    assert res.value <= full * (1 + 1e-12)
    tau = validate_stopping_time(sp, res.argmax_tau.vals)
    chi = tau.finite_mask
    level = int(tau.vals[chi][0])
    assert np.array_equal(chi, sp.block_of[level] == sp.block_of[level, chi][0])
    diff = f.terminal - stop(f, tau, shift=shift).terminal
    if q is None:
        own = (bisection_oracle(sp.probs, pvals, diff)
               / bisection_oracle(sp.probs, pvals, chi.astype(float)))
    else:
        own = (lp_norm(sp.probs, diff, q) / lp_norm(sp.probs, chi, q)
               / bisection_oracle(sp.probs, pvals, chi.astype(float)))
    assert abs(own - res.value) <= 1e-10 * res.value
    if norm == "bmo":
        p0 = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        exact = bmo_norm(f, constant_exponent(sp, p0), mode="dp").value
        assert abs(block_scan_sup(f, np.full(n, p0)) - exact) <= 1e-12 * exact


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       law=st.sampled_from(["gauss", "gauss", "zero", "spike"]),
       q_alpha=st.sampled_from([(1.0, 0.5), (2.0, 1.0), (2.0, 0.25),
                                (1.5, 2.0), (2.0, 0.0)]))
def test_lipschitz_block_max_matches_exhaustive(seed, law, q_alpha):
    """For a constant alpha the Lipschitz supremum is the block maximum
    with denominator P(B)^s, s = 1 + alpha q (alpha = 0: s = 1), to 1e-12
    of the exhaustive scan, after comparing every block once; its witness
    stops on one block alone, and its own ratio, from ``stop`` and
    closed-form norms, is the value.  auto takes the same result."""
    q, alpha = q_alpha
    rng = random.Random(seed)
    sp = random_tree_space(rng, max_leaves=8)
    f = dp_martingale(rng, sp, law)
    full = lipschitz_norm(f, q, [alpha] * sp.n_leaves, mode="exhaustive").value
    res = lipschitz_norm(f, q, [alpha] * sp.n_leaves, mode="dp")
    assert res.mode == "dp" and res.candidates == sum(sp.n_blocks)
    assert abs(res.value - full) <= 1e-12 * full
    assert lipschitz_norm(f, q, [alpha] * sp.n_leaves) == res
    tau = validate_stopping_time(sp, res.argmax_tau.vals)
    chi = tau.finite_mask
    n = int(tau.vals[chi][0])
    assert np.array_equal(chi, sp.block_of[n] == sp.block_of[n, chi][0])
    diff = f.terminal - stop(f, tau).terminal
    pq = float(chi @ sp.probs)
    own = lp_norm(sp.probs, diff, q) / (pq ** (1 / q) * pq**alpha)
    assert abs(own - res.value) <= 1e-12 * res.value


class TestLipschitzNorm:
    def test_zero(self, four_leaf):
        f = martingale_from_terminal(four_leaf, (0.0,) * 4)
        assert lipschitz_norm(f, 2.0, (0.0,) * 4).value == 0.0

    def test_rejects_q_below_one(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        with pytest.raises(DomainError):
            lipschitz_norm(f, 0.5, (0.0, 0.0))

    def test_rejects_negative_alpha(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        with pytest.raises(DomainError):
            lipschitz_norm(f, 2.0, (-0.1, 0.0))

    def test_alpha_zero_matches_unshifted_bmo(self, two_leaf):
        # with alpha = 0 the 1/alpha factor is an L^inf indicator norm = 1,
        # so the value is the unshifted analogue of the BMO quantity
        from vexmart import StoppingTime, stop
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        res = lipschitz_norm(f, 2.0, (0.0, 0.0), mode="exhaustive")
        best = 0.0
        for tau in [(0.0, 0.0), (1.0, 1.0), (1.0, math.inf), (math.inf, 1.0)]:
            st = StoppingTime(tau)
            diff = f.terminal - stop(f, st).terminal
            num = float((np.abs(diff) ** 2 @ two_leaf.probs) ** 0.5)
            den = float(st.finite_mask @ two_leaf.probs) ** 0.5
            best = max(best, num / den)
        assert res.value == pytest.approx(best, rel=1e-12)

    def test_homogeneous(self):
        rng = random.Random(19)
        sp = random_tree_space(rng, max_leaves=6)
        f = centered(rng, sp)
        alpha = tuple(rng.uniform(0, 1) for _ in range(sp.n_leaves))
        a = lipschitz_norm(f, 2.0, alpha).value
        b = lipschitz_norm(f.scaled(3.0), 2.0, alpha).value
        assert b == pytest.approx(3.0 * a, rel=1e-9)

    def test_mixed_alpha_exhaustive_matches_brute_force(self):
        # alpha = 0 leaves are +inf entries of 1/alpha, which the bisection
        # reads as |chi| <= lambda: on dyadic depth 3 (255 masks on 8
        # leaves) and on trees with unequal leaf probabilities, with no, some
        # and only zero alphas, for q = 1, 2, 3
        from vexmart import StoppingTime, stop
        from vexmart.martingale import enumerate_stopping_matrix
        rng = random.Random(41)
        spaces = [build_dyadic_space(3)] + [
            random_tree_space(rng, max_leaves=7) for _ in range(4)]
        for sp in spaces:
            n = sp.n_leaves
            taus = [StoppingTime(row) for row in enumerate_stopping_matrix(sp)]
            taus = [tau for tau in taus if tau.finite_mask.any()]
            alphas = [[0.0 if rng.random() < share else rng.uniform(0.05, 1.5)
                       for _ in range(n)] for share in (0.0, 0.3, 1.0)]
            if n == 8:
                alphas.append([0.0, 0.4] * 4)
            for alpha in alphas:
                f = martingale_from_terminal(sp, [rng.gauss(0, 1) for _ in range(n)])
                inv_alpha = np.array([math.inf if a == 0 else 1 / a for a in alpha])
                oracle = {}
                cases = []
                for tau in taus:
                    chi = tau.finite_mask.astype(float)
                    key = chi.tobytes()
                    if key not in oracle:
                        oracle[key] = bisection_oracle(sp.probs, inv_alpha, chi)
                    diff = np.abs(f.terminal - stop(f, tau).terminal)
                    cases.append((diff, float(chi @ sp.probs), oracle[key]))
                for q in (1.0, 2.0, 3.0):
                    res = lipschitz_norm(f, q, alpha, mode="exhaustive")
                    best = max(float(diff**q @ sp.probs) ** (1 / q) / (pq ** (1 / q) * den)
                               for diff, pq, den in cases)
                    assert res.mode == "exhaustive" and res.candidates == len(taus)
                    assert res.value == pytest.approx(best, rel=1e-10)


class TestDualityPairing:
    def test_orthogonal_to_constants(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        p = constant_exponent(two_leaf, 1.0)
        assert duality_pairing_ratio(f, (5.0, 5.0), p) == 0.0

    def test_self_pairing_positive(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        p = constant_exponent(two_leaf, 1.0)
        r = duality_pairing_ratio(f, (1.0, -1.0), p)
        assert r > 0.0

    def test_scale_invariant(self):
        rng = random.Random(23)
        sp = random_tree_space(rng, max_leaves=6)
        p = random_exponent(rng, sp.n_leaves, 0.5, 1.0)
        f = centered(rng, sp)
        phi = [rng.gauss(0, 1) for _ in range(sp.n_leaves)]
        r1 = duality_pairing_ratio(f, phi, p)
        r2 = duality_pairing_ratio(f.scaled(2.0), phi, p)
        assert r2 == pytest.approx(r1, rel=1e-9)

    def test_rejects_large_exponent(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        with pytest.raises(DomainError):
            duality_pairing_ratio(f, (1.0, 0.0), constant_exponent(two_leaf, 2.0))

    def test_refuses_a_lower_bound_past_the_cap(self, monkeypatch):
        """Past the cap a variable p's Lipschitz norm is only the block
        scan's lower bound, and dividing a nonzero pairing by it would
        over-report it, so that is refused before any norm is solved; a
        zero pairing is still 0, and a constant p stays exact at any
        depth."""
        rng = random.Random(31)
        sp = build_dyadic_space(6)
        f = centered(rng, sp)
        phi = [rng.gauss(0, 1) for _ in range(sp.n_leaves)]
        p = Exponent([0.5, 0.9] * 32)
        assert duality_pairing_ratio(f, [5.0] * sp.n_leaves, p) == 0.0
        assert 0.0 < duality_pairing_ratio(f, phi, constant_exponent(sp, 0.5)) < math.inf

        def unsolvable(*args, **kwargs):
            raise AssertionError("solved before the refusal")

        monkeypatch.setattr(bmo, "hs_norm", unsolvable)
        monkeypatch.setattr(bmo, "lipschitz_norm", unsolvable)
        with pytest.raises(DomainError, match="lower bound"):
            duality_pairing_ratio(f, phi, p)

    def test_bounded_over_random_instances(self):
        rng = random.Random(29)
        vals = []
        for _ in range(40):
            sp = random_tree_space(rng, max_leaves=6)
            p = random_exponent(rng, sp.n_leaves, 0.6, 1.0)
            f = centered(rng, sp)
            phi = [rng.gauss(0, 1) for _ in range(sp.n_leaves)]
            try:
                vals.append(duality_pairing_ratio(f, phi, p))
            except DomainError:
                continue
        assert vals and max(vals) < math.inf


def _sampled_candidates_oracle(space, samples, seed):
    """The sampler's rows as first built: tau = 0, tau = inf, then one
    recursive descent per sampled stopping time."""
    children = children_of(space)
    rng = random.Random(f"vexmart-stopping:{seed}")
    n = space.n_leaves
    rows = [[0.0] * n, [math.inf] * n][:samples]
    while len(rows) < samples:
        vals = [math.inf] * n

        def descend(level, b):
            if rng.random() < 0.5:
                for leaf in np.flatnonzero(space.block_of[level] == b).tolist():
                    vals[leaf] = float(level)
            elif level < space.depth:
                for child in children[level][b]:
                    descend(level + 1, child)

        for b in range(space.n_blocks[0]):
            descend(0, b)
        rows.append(vals)
    return np.array(rows)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       samples=st.sampled_from([1, 2, 3, 16, 64]))
def test_sampled_candidates_match_recursive_oracle(seed, samples):
    rng = random.Random(seed)
    tree = validate_filtration(*relabelled_levels(random_tree_space(rng), rng))
    for sp in (tree, drop_root_level(tree)):
        want = _sampled_candidates_oracle(sp, samples, seed)
        assert np.array_equal(sample_stopping_matrix(sp, samples, seed), want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_indicator_norms_match_per_row_loop(seed):
    """A scan of the stopping times tau = N on random leaf subsets, with
    duplicate and empty subsets: the kept subset norms gathered by the
    scan's codes are the per-row norms, and the empty mask, which the
    scan's callers leave out before ``StoppingScan.of``, has norm 0."""
    rng = random.Random(seed)
    # the subset norms are 2**n solves: past 19 leaves no exhaustive scan
    # is under ENUMERATION_CAP, and 16 keeps the solve near 0.3 s
    sp = random_tree_space(rng, max_leaves=16)
    n = sp.n_leaves
    vals = [rng.uniform(0.5, 4.0) for _ in range(n)]
    if rng.random() < 0.3:
        vals = [vals[0]] * n  # the constant-exponent closed form
    p = Exponent(vals)
    m = rng.randint(1, 40)
    masks = np.array([[rng.random() < 0.5 for _ in range(n)] for _ in range(m + 1)])
    masks[m] = False
    for _ in range(m // 3):  # duplicates and more empty rows
        masks[rng.randrange(m)] = masks[rng.randrange(m)]
        masks[rng.randrange(m)] = False
    taus = np.where(masks, float(sp.depth), math.inf)
    nonempty = masks.any(axis=1)
    scan = StoppingScan.of(taus[nonempty], sp.depth)
    code = 1 << np.arange(n - 1, -1, -1)
    assert np.array_equal(scan.codes, masks[nonempty] @ code)
    got = np.zeros(m + 1)
    got[nonempty] = kept_subset_norms(sp, p.vals)[scan.codes]
    want = np.array([luxemburg_norm(sp, row.astype(float), p).norm for row in masks])
    assert np.all(want[~nonempty] == 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * want)
