import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexmart import (
    DomainError,
    Exponent,
    ResourceError,
    bmo_norm,
    build_dyadic_space,
    cond_expect,
    constant_exponent,
    duality_pairing_ratio,
    lipschitz_norm,
    luxemburg_norm,
    martingale_from_terminal,
    validate_filtration,
)
from vexmart import bmo
from vexmart.bmo import candidate_matrix, indicator_norms

from conftest import random_exponent, random_tree_space, relabelled_levels


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
        assert res.mode == "exhaustive"
        assert res.candidates == 4  # the never-finite candidate is skipped

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
        rng = random.Random(3)
        for _ in range(20):
            sp = random_tree_space(rng, max_leaves=6)
            f = centered(rng, sp)
            p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
            full = bmo_norm(f, p, mode="exhaustive").value
            part = bmo_norm(f, p, mode="sampled", samples=16, seed=9).value
            assert part <= full + 1e-10

    def test_more_samples_never_decrease(self):
        rng = random.Random(5)
        sp = build_dyadic_space(3)
        f = centered(rng, sp)
        p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
        small = bmo_norm(f, p, mode="sampled", samples=8, seed=2).value
        # the sampled stream is a prefix: more samples only add candidates
        big = bmo_norm(f, p, mode="sampled", samples=64, seed=2).value
        assert big >= small - 1e-12

    def test_witness_reproduces_value(self):
        rng = random.Random(7)
        from vexmart import StoppingTime, luxemburg_norm, stop
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
            for level in sp.levels
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
    """Sampled candidates as first built: one recursive descent per sampled
    stopping time, then the constant rows tau = n, deduplicated by
    ``np.unique(axis=0)``, never-finite rows dropped."""
    rng = random.Random(f"vexmart-stopping:{seed}")
    n = space.n_leaves
    rows = [[0.0] * n, [math.inf] * n][:samples]
    while len(rows) < samples:
        vals = [math.inf] * n

        def descend(level, b):
            if rng.random() < 0.5:
                for leaf in space.levels[level][b]:
                    vals[leaf] = float(level)
            elif level < space.depth:
                for child in space.children[level][b]:
                    descend(level + 1, child)

        for b in range(space.n_blocks[0]):
            descend(0, b)
        rows.append(vals)
    rows.extend([float(level)] * n for level in range(space.depth + 1))
    taus = np.unique(np.array(rows), axis=0)
    return taus[np.isfinite(taus).any(axis=1)]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       samples=st.sampled_from([1, 2, 3, 16, 64]))
def test_sampled_candidates_match_recursive_oracle(seed, samples):
    rng = random.Random(seed)
    sp = validate_filtration(*relabelled_levels(random_tree_space(rng), rng))
    taus, mode = candidate_matrix(sp, "sampled", seed=seed, samples=samples)
    assert mode == "sampled"
    assert np.array_equal(taus, _sampled_candidates_oracle(sp, samples, seed))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), infinite=st.booleans())
def test_indicator_norms_match_per_row_loop(seed, infinite):
    rng = random.Random(seed)
    sp = random_tree_space(rng, max_leaves=20)
    n = sp.n_leaves
    vals = [rng.uniform(0.5, 4.0) for _ in range(n)]
    if infinite:
        vals = [math.inf if rng.random() < 0.3 else v for v in vals]
    elif rng.random() < 0.3:
        vals = [vals[0]] * n  # the constant-exponent closed form
    p = Exponent(vals, allow_infinite=infinite)
    m = rng.randint(1, 40)
    masks = np.array([[rng.random() < 0.5 for _ in range(n)] for _ in range(m)])
    for _ in range(m // 3):  # duplicates and all-zero rows
        masks[rng.randrange(m)] = masks[rng.randrange(m)]
        masks[rng.randrange(m)] = False
    got = indicator_norms(sp.probs, p.vals, masks)
    want = np.array([luxemburg_norm(sp, row.astype(float), p).norm for row in masks])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * want)
