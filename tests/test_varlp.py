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
from vexmart import NumericalError, ValidationError, varlp
from vexmart.varlp import indicator_norm, max_norm_ratio, norm_batch

from conftest import bisection_oracle, lp_norm, random_exponent, random_tree_space


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
    with pytest.raises(DomainError, match="lambda > 0"):
        modular(two_leaf, (1.0, 1.0), Exponent((1.0, 2.0)), math.nan)


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
        assert got == pytest.approx(lp_norm(sp.probs, f, p0), rel=1e-10)


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


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    p_lo=st.floats(min_value=0.3, max_value=6.0),
    p_hi=st.floats(min_value=0.3, max_value=6.0),
    log_scale=st.floats(min_value=-6.0, max_value=6.0),
    zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
    constant=st.booleans(),
    shape=st.sampled_from(["one", "square", "tall"]),
)
def test_kernel_matches_bisection_oracle(seed, p_lo, p_hi, log_scale, zero_frac,
                                         constant, shape):
    # one row, n rows and n + 5 rows, each batch on its leaves x rows transpose
    rng = random.Random(seed)
    sp = random_tree_space(rng)
    n = sp.n_leaves
    lo, hi = min(p_lo, p_hi), max(p_lo, p_hi)
    pv = [rng.uniform(lo, hi) for _ in range(n)]
    if constant:
        pv = [pv[0]] * n
    p = Exponent(tuple(pv))
    scale = 10.0**log_scale
    m = {"one": 1, "square": n, "tall": n + 5}[shape]
    rows = np.array([[0.0 if rng.random() < zero_frac else scale * rng.gauss(0, 1)
                      for _ in range(n)] for _ in range(m)])
    if m > 1:
        rows[0] = 0.0
    with np.errstate(all="raise"):
        want = [bisection_oracle(sp.probs, p.vals, row) for row in rows]
        batch = norm_batch(sp.probs, p.vals, rows)
        single = [luxemburg_norm(sp, row, p) for row in rows]
    for w, b, res in zip(want, batch, single):
        assert b == pytest.approx(w, rel=1e-10, abs=0.0)
        assert res.norm == pytest.approx(w, rel=1e-10, abs=0.0)
        assert res.residual <= 1e-9


@pytest.mark.parametrize("tall", [False, True])
def test_short_and_tall_batches_match_one_row_solves(tall):
    # a batch sums each column of its leaves x rows transpose, a one-row
    # call its support: the two differ in summation order only
    rng = random.Random(23 + tall)
    for _ in range(40):
        sp = random_tree_space(rng)
        n = sp.n_leaves
        p = Exponent(tuple(rng.uniform(0.4, 5.0) for _ in range(n)))
        m = rng.randint(n + 1, 3 * n) if tall else rng.randint(1, n)
        rows = np.array([[0.0 if rng.random() < 0.3 else
                          rng.gauss(0, 1) * 10.0 ** rng.uniform(-4, 4)
                          for _ in range(n)] for _ in range(m)])
        batch = norm_batch(sp.probs, p.vals, rows)
        for row, got in zip(rows, batch):
            want = luxemburg_norm(sp, row, p).norm
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)



@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    law=st.sampled_from(["constant", "variable"]),
    tall=st.booleans(),
)
def test_max_norm_ratio_matches_the_full_batch(seed, law, tall):
    """The supremum that gives rows up is max(norm_batch / dens) to 1e-14,
    and no row before its index beats that index's full-batch ratio by
    more, with all-zero rows, copies of earlier rows (den included) that
    tie exactly and rows whose den puts them a hair below the largest
    ratio, on batches wide and tall."""
    rng = random.Random(seed)
    sp = random_tree_space(rng)
    n = sp.n_leaves
    pv = [rng.uniform(0.5, 4.0) for _ in range(n)]
    if law == "constant":
        pv = [pv[0]] * n
    pvals = np.array(pv)
    m = rng.randint(n + 1, 4 * n) if tall else rng.randint(1, n)
    rows = np.array([[0.0 if rng.random() < 0.3 else
                      rng.gauss(0, 1) * 10.0 ** rng.uniform(-1, 1)
                      for _ in range(n)] for _ in range(m)])
    dens = np.array([rng.uniform(0.5, 2.0) for _ in range(m)])
    for i in range(m):
        pick = rng.random()
        if pick < 0.1:
            rows[i] = 0.0
        elif pick < 0.3 and i:
            j = rng.randrange(i)
            rows[i], dens[i] = rows[j], dens[j]
    norms = norm_batch(sp.probs, pvals, rows)
    best = np.max(norms / dens)
    for j in np.flatnonzero(norms):
        if rng.random() < 0.3:
            dens[j] = norms[j] / (best * (1.0 - 10.0 ** -rng.uniform(3, 9)))
    value, i = max_norm_ratio(sp.probs, pvals, rows, dens)
    full = norms / dens
    best = full.max()
    assert value == pytest.approx(best, rel=1e-14, abs=0.0)
    assert full[i] >= best * (1.0 - 1e-14)
    assert np.all(full[:i] <= full[i] * (1.0 + 1e-14))


@pytest.mark.parametrize("tall", [False, True])
def test_newton_failure_names_first_unconverged_row(monkeypatch, tall):
    """With one Newton step allowed, the error names the batch index of the
    first row still short of its root (row 0 is zero and never enters the
    iteration), in a batch with fewer rows than leaves and in one with
    more, and the lambda it reached, which lies below its norm: Newton
    climbs to the root from the left."""
    sp = build_dyadic_space(2)
    p = Exponent((1.2, 2.8, 1.5, 3.5))
    rows = np.array([[0.0] * 4, [1.0, -2.0, 0.5, 3.0], [2.0, 0.0, -1.0, 1.0]]
                    + [[1.0, 0.5, 0.25, 2.0]] * (3 if tall else 0))
    norms = norm_batch(sp.probs, p.vals, rows)
    monkeypatch.setattr(varlp, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NumericalError, match=r"row 1 of the batch") as info:
        norm_batch(sp.probs, p.vals, rows)
    lam = float(str(info.value).rsplit("lambda ", 1)[1])
    assert 0.0 < lam < norms[1]


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    law=st.sampled_from(["constant-on-E", "two-valued", "iid"]),
    frac=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
)
def test_indicator_norm_matches_the_kernel(seed, law, frac):
    """The solve on E alone is the kernel's norm of chi_E to 1e-13, on
    spaces with unequal leaf probabilities and exponents in [0.3, 6].
    On a nonempty E, chi_E over it has modular 1 to the stopping rule's
    own bound: the last Newton step in log lambda is at most
    NEWTON_REL_TOL, so log rho is at most p_+(E) times that."""
    rng = random.Random(seed)
    sp = random_tree_space(rng, max_leaves=40)
    n = sp.n_leaves
    mask = np.array([rng.random() < frac for _ in range(n)])
    pv = [rng.uniform(0.3, 6.0) for _ in range(n)]
    if law == "constant-on-E":
        pv = [pv[0] if m else x for m, x in zip(mask, pv)]
    elif law == "two-valued":
        pv = [rng.choice(pv[:2]) for _ in range(n)]
    p = Exponent(pv)
    got = indicator_norm(sp.probs, p.vals, mask)
    assert got == pytest.approx(luxemburg_norm(sp, mask, p).norm, rel=1e-13, abs=0.0)
    if mask.any():
        tol = varlp.NEWTON_REL_TOL * p.p_plus(mask) + 1e-14
        assert abs(modular(sp, mask / got, p, 1.0) - 1.0) <= tol


def _one_row_kernel(probs, pvals, f):
    """(norm, Newton steps, residual) of f as the batch kernel solves a
    one-row batch: Newton over every leaf, zero entries floored at e^-600,
    from the tangent at lambda = max|f|."""
    a = np.abs(np.asarray(f, dtype=float))[None]
    top = a.max(axis=1)
    if not top[0] > 0:
        return 0.0, 0, 0.0
    with np.errstate(divide="ignore", under="ignore"):
        if np.all(pvals == pvals[0]):
            p0 = pvals[0]
            return float((top * ((a / top) ** p0 @ probs) ** (1.0 / p0))[0]), 0, 0.0
        logw = np.log(probs) + pvals * np.log(a / top)
    u = np.zeros(1)
    for it in range(varlp.NEWTON_MAX_ITER + 1):
        e = logw - pvals * u
        m = e.max(axis=1)
        w = np.exp(np.maximum(e - m, -600.0))
        total = w.sum(axis=1)
        g = m + np.log(total)
        step = g / ((w @ pvals) / total)
        if it and step[0] <= varlp.NEWTON_REL_TOL:
            return float((top * np.exp(u))[0]), it, float(np.abs(np.expm1(g))[0])
        u = u + step
    raise AssertionError("the one-row kernel did not converge")


def _norm_cases(rng, count):
    """(space, f, exponent) on random trees with unequal probabilities, p in
    (0.3, 6): rows with zero entries, a single nonzero leaf, and entries
    1e-300 beside entries near 1."""
    for i in range(count):
        sp = random_tree_space(rng, max_leaves=40, max_depth=6)
        n = sp.n_leaves
        lo, hi = sorted(rng.uniform(0.3, 6.0) for _ in range(2))
        pv = [rng.uniform(lo, hi) for _ in range(n)]
        if i % 7 == 0:
            pv = [pv[0]] * n
        law = ("zeros", "single", "tiny")[i % 3]
        if law == "zeros":
            frac = rng.choice([0.0, 0.3, 0.8])
            f = [0.0 if rng.random() < frac else rng.gauss(0, 1) * 10.0 ** rng.uniform(-5, 5)
                 for _ in range(n)]
        elif law == "single":
            f = [0.0] * n
            f[rng.randrange(n)] = rng.uniform(-3.0, 3.0)
        else:
            f = [rng.choice([1e-300, -1e-300, rng.uniform(0.5, 1.0), 0.0]) for _ in range(n)]
        yield sp, np.array(f), Exponent(pv)


def test_luxemburg_norm_matches_the_one_row_kernel():
    """The solve on the support of f takes the kernel's steps to its norm.
    Both iterate on u = log(lambda / max|f|) and return max|f| e^u, and the
    support alone is summed in another order, which can round u the other
    way by one unit in its last place: the norms agree to 1e-15 relative
    beyond that."""
    rng = random.Random(157)
    for sp, f, p in _norm_cases(rng, 900):
        want, steps, _ = _one_row_kernel(sp.probs, p.vals, f)
        got = luxemburg_norm(sp, f, p)
        if not want:
            assert (got.norm, got.iterations, got.residual) == (0.0, 0, 0.0)
            continue
        u = math.log(want / np.abs(f).max())
        assert abs(got.norm - want) <= want * (1e-15 + math.ulp(u)), (f, p.vals)
        assert got.iterations == steps


def test_luxemburg_norm_residual_is_the_modular_gap():
    """``residual`` is |rho(f / norm) - 1| as :func:`modular` computes it,
    0 for a closed form or a zero row."""
    rng = random.Random(163)
    for sp, f, p in _norm_cases(rng, 300):
        res = luxemburg_norm(sp, f, p)
        if not res.iterations:
            assert res.residual == 0.0
            continue
        want = abs(modular(sp, f, p, res.norm) - 1.0)
        assert abs(res.residual - want) <= 1e-14


def test_luxemburg_norm_failure_names_its_support(monkeypatch):
    """With one Newton step allowed, the error names the size of the support
    of f and a lambda below the norm: Newton climbs to the root from the
    left."""
    sp = build_dyadic_space(3)
    p = Exponent((1.2, 2.8, 1.5, 3.5, 0.6, 2.0, 4.5, 1.1))
    f = (1.0, 0.0, -2.0, 0.5, 0.0, 3.0, 0.25, -1.5)
    want = luxemburg_norm(sp, f, p).norm
    monkeypatch.setattr(varlp, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NumericalError, match=r"support of f, a set of 6 leaves") as info:
        luxemburg_norm(sp, f, p)
    lam = float(str(info.value).rsplit("lambda ", 1)[1])
    assert 0.0 < lam < want


def test_indicator_norm_closed_forms():
    """0 on the empty set, P(E)^{1/p} where p is constant on E, also when
    p varies off E."""
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    pvals = np.array([2.0, 2.0, 5.0, 3.0])
    assert indicator_norm(probs, pvals, np.zeros(4, dtype=bool)) == 0.0
    assert indicator_norm(probs, pvals, np.array([True, True, False, False])) == (
        (0.1 + 0.2) ** 0.5)


def test_indicator_norm_failure_names_its_set(monkeypatch):
    """With one Newton step allowed, the error names the size of E and a
    lambda below the norm: Newton climbs to the root from the left."""
    probs, pvals = np.full(4, 0.25), np.array([0.5, 6.0, 1.5, 3.0])
    mask = np.array([True, True, False, True])
    want = indicator_norm(probs, pvals, mask)
    monkeypatch.setattr(varlp, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NumericalError, match=r"a set of 3 leaves") as info:
        indicator_norm(probs, pvals, mask)
    lam = float(str(info.value).rsplit("lambda ", 1)[1])
    assert 0.0 < lam < want


def test_power_identity():
    rng = random.Random(29)
    for _ in range(60):
        sp = random_tree_space(rng, max_leaves=8)
        p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
        r = rng.uniform(0.3, 3.0)
        f = [rng.gauss(0, 1) for _ in range(sp.n_leaves)]
        left, right = check_power_identity(sp, f, p, r)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("r", [0.0, math.nan])
def test_power_identity_requires_positive_r(two_leaf, r):
    with pytest.raises(DomainError, match="r > 0"):
        check_power_identity(two_leaf, (1.0, 2.0), Exponent((1.0, 2.0)), r)


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


@pytest.mark.parametrize("leaves, match", [
    ([-1], "leaf -1 is not an integer in 0..3"),
    ([0.5], "leaf 0.5 is not an integer in 0..3"),
    ([4], "leaf 4 is not an integer in 0..3"),
    ([math.nan], "leaf nan is not an integer"),
    (["a"], "must be integers"),
    ([[0, 1]], "flat list"),
])
def test_indicator_rejects_bad_leaves(four_leaf, leaves, match):
    p = constant_exponent(four_leaf, 2.0)
    with pytest.raises(ValidationError, match=match):
        indicator_norm_profile(four_leaf, leaves, p)
    with pytest.raises(ValidationError, match=match):
        indicator_product_ratio(four_leaf, leaves, p, p)


def test_indicator_accepts_integral_floats_and_repeats(four_leaf):
    p = Exponent((1.0, 1.0, 2.0, 2.0))
    assert indicator_norm_profile(four_leaf, [2.0, 0, 2], p) == indicator_norm_profile(
        four_leaf, [0, 2], p
    )


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
