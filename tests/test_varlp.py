import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexmart import (
    DomainError,
    Exponent,
    build_dyadic_space,
    check_holder,
    check_power_identity,
    constant_exponent,
    exponent_algebra,
    indicator_norm_profile,
    indicator_product_ratio,
    luxemburg_norm,
    modular,
    norm_modular_bridge,
)
from vexmart.varlp import norm_batch

from conftest import lp_norm, random_exponent, random_tree_space


def test_modular_unit_function(two_leaf):
    assert modular(two_leaf, (1.0, 1.0), Exponent((1.3, 2.7)), 1.0) == 1.0


def test_modular_hand_value(two_leaf):
    # (1/2) * 2^2 + (1/2) * 0^3
    assert modular(two_leaf, (2.0, 0.0), Exponent((2.0, 3.0)), 1.0) == 2.0


def test_modular_zero(two_leaf):
    assert modular(two_leaf, (0.0, 0.0), Exponent((1.0, 2.0)), 3.0) == 0.0


def test_modular_requires_positive_lambda(two_leaf):
    with pytest.raises(DomainError):
        modular(two_leaf, (1.0, 1.0), Exponent((1.0, 2.0)), 0.0)


def test_modular_strictly_decreasing_in_lambda(two_leaf):
    p = Exponent((1.0, 2.5))
    vals = [modular(two_leaf, (0.3, 2.0), p, lam)
            for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_quadratic_norm_value(two_leaf):
    # rho(f/lam) = 1 for f=(1,2), p=(1,2) solves lam^2 - lam/2 - 2 = 0
    res = luxemburg_norm(two_leaf, (1.0, 2.0), Exponent((1.0, 2.0)))
    assert res.norm == pytest.approx((1 + math.sqrt(33)) / 4, rel=1e-10)
    assert res.residual <= 1e-9


def test_unit_constant_norm(two_leaf):
    assert luxemburg_norm(
        two_leaf, (1.0, 1.0), constant_exponent(two_leaf, 2.0)
    ).norm == pytest.approx(1.0, rel=1e-12)


def test_zero_norm(two_leaf):
    res = luxemburg_norm(two_leaf, (0.0, 0.0), Exponent((1.0, 2.0)))
    assert res.norm == 0.0 and res.iterations == 0


def test_constant_exponent_closed_form():
    rng = random.Random(11)
    for _ in range(200):
        sp = random_tree_space(rng, max_leaves=10)
        p0 = rng.uniform(0.3, 5.0)
        f = [rng.gauss(0, 2) for _ in range(sp.n_leaves)]
        got = luxemburg_norm(sp, f, constant_exponent(sp, p0)).norm
        assert got == pytest.approx(lp_norm(sp.leaf_probs, f, p0), rel=1e-10)


def test_indicator_constant_exponent_closed_form(four_leaf):
    p0 = 1.7
    got = luxemburg_norm(
        four_leaf, (1.0, 1.0, 0.0, 0.0), constant_exponent(four_leaf, p0)
    ).norm
    assert got == pytest.approx(0.5 ** (1 / p0), rel=1e-10)


def test_modular_at_norm_is_one():
    rng = random.Random(13)
    for _ in range(100):
        sp = random_tree_space(rng)
        p = random_exponent(rng, sp.n_leaves, 0.5, 4.0)
        f = [rng.gauss(0, 1) for _ in range(sp.n_leaves)]
        if all(abs(x) < 1e-12 for x in f):
            continue
        nrm = luxemburg_norm(sp, f, p).norm
        # the infimum is attained with modular exactly 1, unless |f| is
        # constant and the norm clamps at max|f| with modular <= 1
        assert modular(sp, f, p, nrm) <= 1.0 + 1e-9
        if nrm < max(abs(x) for x in f) * (1 - 1e-9):
            assert abs(modular(sp, f, p, nrm) - 1.0) <= 1e-9


@settings(max_examples=120, deadline=None)
@given(
    c=st.floats(min_value=-50, max_value=50).filter(lambda x: abs(x) > 1e-6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_homogeneity(c, seed):
    rng = random.Random(seed)
    sp = random_tree_space(rng, max_leaves=8)
    p = random_exponent(rng, sp.n_leaves, 0.5, 4.0)
    f = np.array([rng.gauss(0, 1) for _ in range(sp.n_leaves)])
    base = luxemburg_norm(sp, f, p).norm
    scaled = luxemburg_norm(sp, c * f, p).norm
    assert scaled == pytest.approx(abs(c) * base, rel=1e-10, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_underline_p_triangle(seed):
    rng = random.Random(seed)
    sp = random_tree_space(rng, max_leaves=8)
    p = random_exponent(rng, sp.n_leaves, 0.4, 3.0)
    f = np.array([rng.gauss(0, 1) for _ in range(sp.n_leaves)])
    g = np.array([rng.gauss(0, 1) for _ in range(sp.n_leaves)])
    pu = min(p.p_minus(), 1.0)
    nf = luxemburg_norm(sp, f, p).norm
    ng = luxemburg_norm(sp, g, p).norm
    nfg = luxemburg_norm(sp, f + g, p).norm
    assert nfg**pu <= nf**pu + ng**pu + 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_monotone_in_absolute_value(seed):
    rng = random.Random(seed)
    sp = random_tree_space(rng, max_leaves=8)
    p = random_exponent(rng, sp.n_leaves, 0.5, 4.0)
    f = np.array([rng.gauss(0, 1) for _ in range(sp.n_leaves)])
    g = f * np.array([rng.uniform(0, 1) for _ in range(sp.n_leaves)])
    assert (
        luxemburg_norm(sp, g, p).norm
        <= luxemburg_norm(sp, f, p).norm + 1e-12
    )


def test_mixed_mode_all_infinite(two_leaf):
    p = Exponent((math.inf, math.inf), allow_infinite=True)
    res = luxemburg_norm(two_leaf, (0.5, 2.0), p)
    assert res.norm == pytest.approx(2.0, rel=1e-11)


def test_mixed_mode_partial_infinite(two_leaf):
    p = Exponent((2.0, math.inf), allow_infinite=True)
    # constraint |f| <= lam on leaf 1 binds at lam = 3; modular there < 1
    res = luxemburg_norm(two_leaf, (1.0, 3.0), p)
    assert res.norm == pytest.approx(3.0)


def test_norm_batch_matches_scalar():
    rng = random.Random(19)
    for _ in range(20):
        sp = random_tree_space(rng, max_leaves=8)
        p = random_exponent(rng, sp.n_leaves, 0.6, 3.5)
        rows = np.array(
            [[rng.gauss(0, 1) for _ in range(sp.n_leaves)] for _ in range(7)]
        )
        rows[0] = 0.0
        batch = norm_batch(sp.probs, p.vals, rows)
        for row, got in zip(rows, batch):
            want = luxemburg_norm(sp, row, p).norm
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def bisection_oracle(probs, pvals, f) -> float:
    """Plain bisection on lambda -> rho(f/lambda), independent of the
    package's kernel; +inf entries of p impose |f| <= lambda instead."""
    v = np.abs(np.asarray(f, dtype=float))
    if not v.any():
        return 0.0
    inf = np.isinf(pvals)

    def feasible(lam):
        if np.any(v[inf] > lam):
            return False
        return float(np.sum(probs[~inf] * (v[~inf] / lam) ** pvals[~inf])) <= 1.0

    hi = float(v.max())  # feasible on a probability space
    lo = hi
    while feasible(lo):
        lo *= 0.5
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    p_lo=st.floats(min_value=0.3, max_value=6.0),
    p_hi=st.floats(min_value=0.3, max_value=6.0),
    log_scale=st.floats(min_value=-6.0, max_value=6.0),
    zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
    infinite=st.booleans(),
)
def test_kernel_matches_bisection_oracle(seed, p_lo, p_hi, log_scale, zero_frac,
                                         infinite):
    rng = random.Random(seed)
    sp = random_tree_space(rng)
    n = sp.n_leaves
    lo, hi = min(p_lo, p_hi), max(p_lo, p_hi)
    pv = [rng.uniform(lo, hi) for _ in range(n)]
    if infinite:
        pv = [math.inf if rng.random() < 0.4 else x for x in pv]
    p = Exponent(tuple(pv), allow_infinite=infinite)
    scale = 10.0**log_scale
    rows = np.array([[0.0 if rng.random() < zero_frac else scale * rng.gauss(0, 1)
                      for _ in range(n)] for _ in range(6)])
    rows[0] = 0.0
    with np.errstate(all="raise"):
        want = [bisection_oracle(sp.probs, p.vals, row) for row in rows]
        batch = norm_batch(sp.probs, p.vals, rows)
        single = [luxemburg_norm(sp, row, p) for row in rows]
    for w, b, res in zip(want, batch, single):
        assert b == pytest.approx(w, rel=1e-10, abs=0.0)
        assert res.norm == pytest.approx(w, rel=1e-10, abs=0.0)
        assert res.residual <= 1e-9


def test_power_identity():
    rng = random.Random(29)
    for _ in range(60):
        sp = random_tree_space(rng, max_leaves=8)
        p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
        r = rng.uniform(0.3, 3.0)
        f = [rng.gauss(0, 1) for _ in range(sp.n_leaves)]
        left, right = check_power_identity(sp, f, p, r)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-12)


def test_power_identity_trivial_cases(two_leaf):
    p = Exponent((1.0, 2.0))
    l1, r1 = check_power_identity(two_leaf, (1.0, 2.0), p, 1.0)
    assert l1 == pytest.approx(r1, rel=1e-12)
    l0, r0 = check_power_identity(two_leaf, (0.0, 0.0), p, 2.0)
    assert (l0, r0) == (0.0, 0.0)


def test_holder_cauchy_schwarz(four_leaf):
    rng = random.Random(31)
    p1 = constant_exponent(four_leaf, 1.0)
    p2 = constant_exponent(four_leaf, 2.0)
    for _ in range(30):
        f = [rng.gauss(0, 1) for _ in range(4)]
        g = [rng.gauss(0, 1) for _ in range(4)]
        prod, nf, ng = check_holder(four_leaf, f, g, p1, p2, p2)
        assert prod <= nf * ng + 1e-10


def test_holder_unit_indicators(four_leaf):
    chi = (1.0, 1.0, 1.0, 1.0)
    prod, nf, ng = check_holder(
        four_leaf, chi, chi,
        constant_exponent(four_leaf, 1.0),
        constant_exponent(four_leaf, 2.0),
        constant_exponent(four_leaf, 2.0),
    )
    assert (prod, nf, ng) == pytest.approx((1.0, 1.0, 1.0), rel=1e-10)


def test_holder_rejects_mismatched_exponents(four_leaf):
    with pytest.raises(DomainError):
        check_holder(
            four_leaf, (1.0,) * 4, (1.0,) * 4,
            constant_exponent(four_leaf, 1.0),
            constant_exponent(four_leaf, 2.0),
            constant_exponent(four_leaf, 3.0),
        )


def test_holder_variable_exponents_bounded():
    rng = random.Random(37)
    worst = 0.0
    for _ in range(200):
        sp = random_tree_space(rng, max_leaves=8)
        q = random_exponent(rng, sp.n_leaves, 1.2, 4.0)
        r = random_exponent(rng, sp.n_leaves, 1.2, 4.0)
        p = exponent_algebra("harmonic-sum", q, r)
        f = [rng.gauss(0, 1) for _ in range(sp.n_leaves)]
        g = [rng.gauss(0, 1) for _ in range(sp.n_leaves)]
        prod, nf, ng = check_holder(sp, f, g, p, q, r)
        if nf * ng > 0:
            worst = max(worst, prod / (nf * ng))
    assert worst <= 2.0  # recorded envelope for the product bound


def test_bridge_unit_modular(two_leaf):
    p = Exponent((1.0, 2.0))
    rep = norm_modular_bridge(two_leaf, (1.0, 1.0), p)
    assert rep.rho == pytest.approx(1.0) and rep.norm == pytest.approx(1.0, rel=1e-9)
    assert rep.all_hold


def test_bridge_above_one(two_leaf):
    rep = norm_modular_bridge(two_leaf, (2.0, 2.0), Exponent((1.0, 2.0)))
    assert rep.rho == pytest.approx(3.0)
    assert rep.norm == pytest.approx(2.0, rel=1e-9)
    assert rep.all_hold


def test_bridge_below_one(two_leaf):
    rep = norm_modular_bridge(two_leaf, (0.5, 0.5), Exponent((1.0, 2.0)))
    assert rep.rho < 1.0 and rep.norm < 1.0
    assert rep.all_hold


def test_bridge_random_sweep():
    rng = random.Random(41)
    for _ in range(150):
        sp = random_tree_space(rng, max_leaves=8)
        p = random_exponent(rng, sp.n_leaves, 0.5, 4.0)
        f = [rng.gauss(0, 1) * rng.choice([0.2, 1.0, 5.0])
             for _ in range(sp.n_leaves)]
        assert norm_modular_bridge(sp, f, p).all_hold


def test_indicator_profile_quadratic(four_leaf):
    # rho(chi/lam) = 1 with p=(1,1,2,2) on {0,2}: 1/(4 lam) + 1/(4 lam^2) = 1
    p = Exponent((1.0, 1.0, 2.0, 2.0))
    prof = indicator_norm_profile(four_leaf, [0, 2], p)
    assert prof.norm == pytest.approx((1 + math.sqrt(17)) / 8, rel=1e-10)
    assert prof.lower == pytest.approx(0.5)
    assert prof.upper == pytest.approx(math.sqrt(0.5))
    assert prof.lower - 1e-12 <= prof.norm <= prof.upper + 1e-12


def test_indicator_profile_singleton(four_leaf):
    p = Exponent((3.0, 2.0, 2.0, 2.0))
    prof = indicator_norm_profile(four_leaf, [0], p)
    assert prof.norm == pytest.approx(0.25 ** (1 / 3.0), rel=1e-10)
    assert prof.max_ratio == pytest.approx(1.0, rel=1e-9)


def test_indicator_profile_sandwich_random():
    rng = random.Random(43)
    for _ in range(100):
        sp = random_tree_space(rng)
        p = random_exponent(rng, sp.n_leaves, 0.5, 4.0)
        k = rng.randint(1, sp.n_leaves)
        leaves = rng.sample(range(sp.n_leaves), k)
        prof = indicator_norm_profile(sp, leaves, p)
        assert prof.lower - 1e-10 <= prof.norm <= prof.upper + 1e-10


def test_indicator_profile_rejects_empty(four_leaf):
    with pytest.raises(DomainError):
        indicator_norm_profile(four_leaf, [], Exponent((1.0,) * 4))


def test_indicator_product_constant_conjugate(four_leaf):
    p2 = constant_exponent(four_leaf, 2.0)
    ratio = indicator_product_ratio(four_leaf, [0, 1], p2, p2)
    assert ratio == pytest.approx(1.0, rel=1e-10)


def test_indicator_product_whole_space():
    rng = random.Random(47)
    sp = random_tree_space(rng)
    p = random_exponent(rng, sp.n_leaves, 1.5, 3.0)
    q = exponent_algebra("conjugate", p)
    ratio = indicator_product_ratio(sp, range(sp.n_leaves), p, q)
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_indicator_product_harmonic_mode(four_leaf):
    p = constant_exponent(four_leaf, 2.0)
    r = constant_exponent(four_leaf, 1.0)
    ratio = indicator_product_ratio(four_leaf, [1, 2], p, p, mode="harmonic", r=r)
    assert ratio == pytest.approx(1.0, rel=1e-10)


def test_indicator_product_rejects_bad_relation(four_leaf):
    with pytest.raises(DomainError):
        indicator_product_ratio(
            four_leaf, [0],
            constant_exponent(four_leaf, 2.0),
            constant_exponent(four_leaf, 3.0),
        )
