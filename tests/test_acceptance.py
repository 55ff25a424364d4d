"""End-to-end acceptance gate: each test pins one advertised guarantee of
the package at its stated tolerance."""

import json
import math
import random
import time

import numpy as np
import pytest

from vexmart import (
    Exponent,
    a_quantity,
    atomic_decompose,
    bmo_norm,
    build_dyadic_space,
    condition_k,
    cond_expect,
    constant_exponent,
    default_test_matrix,
    doob_strong_check,
    exp_jn_curve,
    generate_exponent,
    generate_martingale,
    hs_norm,
    is_atom,
    jn_equivalence,
    lemma34_check,
    luxemburg_norm,
    martingale_from_terminal,
    nakai_sadasue,
    prop41_bounds,
    reconstruct,
    validate_filtration,
    violation_33_search,
    weak_type_check,
    TrialConfig,
)
from vexmart import serialize
from vexmart.cli import run
from vexmart.experiments import _ns_h

from conftest import lp_norm, random_exponent, random_tree_space


def centered(rng, space, scale=1.0):
    v = np.array([rng.gauss(0, scale) for _ in range(space.n_leaves)])
    v -= cond_expect(space, v, 0)
    return martingale_from_terminal(space, v)


def test_01_luxemburg_norm_exactness():
    t0 = time.monotonic()
    two = validate_filtration([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    got = luxemburg_norm(two, (1.0, 2.0), Exponent((1.0, 2.0))).norm
    assert got == pytest.approx((1 + math.sqrt(33)) / 4, rel=1e-10)

    rng = random.Random(20260823)
    for _ in range(1000):
        sp = random_tree_space(rng)
        p0 = rng.uniform(0.3, 5.0)
        f = [rng.gauss(0, 3) for _ in range(sp.n_leaves)]
        want = lp_norm(sp.probs, f, p0)
        have = luxemburg_norm(sp, f, constant_exponent(sp, p0)).norm
        assert have == pytest.approx(want, rel=1e-10, abs=1e-300)
    assert time.monotonic() - t0 < 1.0


def test_02_condition_k_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(7)
    for _ in range(500):
        sp = random_tree_space(rng, max_leaves=12)
        p = random_exponent(rng, sp.n_leaves, 0.5, 4.0)
        fast = condition_k(sp, p, mode="exact-pairwise").k
        brute = condition_k(sp, p, mode="brute-force").k
        assert fast == pytest.approx(brute, rel=1e-12)
    assert time.monotonic() - t0 < 30.0


EXPONENT_FAMILIES = ("constant", "two-block", "iid-uniform")


def test_03_atomic_decomposition_round_trip():
    t0 = time.monotonic()
    rng = random.Random(42)
    for depth in range(1, 7):
        sp = build_dyadic_space(depth)
        for law in EXPONENT_FAMILIES:
            p = generate_exponent(sp, law, (0.5, 3.0), seed=depth)
            for _ in range(200):
                f = centered(rng, sp, scale=rng.choice([0.1, 1.0, 10.0]))
                dec = atomic_decompose(f, p)
                rec = reconstruct(dec)
                tol = 1e-9 * max(1e-30, float(np.abs(f.arrays).max()))
                assert np.abs(rec.arrays - f.arrays).max() <= tol
                for term in dec.terms:
                    assert is_atom(sp, term.atom_terminal, term.tau, p).ok
                assert hs_norm(f, p) <= a_quantity(dec, p) + 1e-9
    assert time.monotonic() - t0 < 120.0


def test_04_decomposition_sum_bounds():
    rng = random.Random(43)
    seen_linear = 0
    for depth in (1, 2, 3, 4):
        sp = build_dyadic_space(depth)
        for lo, hi in ((0.4, 0.9), (0.5, 3.0)):
            for _ in range(50):
                p = random_exponent(rng, sp.n_leaves, lo, hi)
                f = centered(rng, sp)
                rep = prop41_bounds(atomic_decompose(f, p), p)
                assert rep.holds_power
                if rep.linear_applicable:
                    assert rep.holds_linear
                    seen_linear += 1
    assert seen_linear > 0  # the p_+ <= 1 clause was actually exercised


def test_05_weak_type_zero_violations():
    for label, sp, p in default_test_matrix(seed=0):
        cfg = TrialConfig(space=sp, seed=1, trials=1)
        for i in range(10):
            f = generate_martingale(cfg, i)
            rep = weak_type_check(f, p)  # raises on any violation
            for ratio, bound, checked in zip(
                rep.ratios, rep.details["bounds"], rep.details["asserted"]
            ):
                if ratio > 0:
                    assert checked  # p_- >= 1.1 on the whole matrix
                    assert ratio <= bound + 1e-9, label


def test_06_maximal_norm_ratio_gate():
    sp = build_dyadic_space(4)
    cfg = TrialConfig(space=sp, seed=5, trials=100)
    classical = doob_strong_check(cfg, constant_exponent(sp, 2.0))
    assert classical.max_ratio <= 2.0 + 1e-9

    # variable exponent: finite envelope; per-ratio 1e-6 scale invariance is
    # asserted inside doob_strong_check itself
    p = generate_exponent(sp, "iid-uniform", (1.2, 2.8), seed=3)
    base = doob_strong_check(cfg, p)
    assert 1.0 <= base.max_ratio < math.inf
    assert base.details["condition_k"] < math.inf

    # +-10% stability under a 1e-6 relative probability perturbation
    rng = random.Random(11)
    probs = sp.probs.copy()
    probs *= 1.0 + np.array([rng.uniform(-1e-6, 1e-6) for _ in probs])
    probs /= probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    sp2 = validate_filtration(serialize.space_to_json(sp)["levels"], tuple(probs))
    pert = doob_strong_check(TrialConfig(space=sp2, seed=5, trials=100), p)
    assert pert.max_ratio == pytest.approx(base.max_ratio, rel=0.1)


def test_07_pointwise_block_average_inequality():
    rng = random.Random(13)
    for label, sp, p in default_test_matrix(seed=0):
        for _ in range(5):
            f = [rng.gauss(0, 5) for _ in range(sp.n_leaves)]
            rep = lemma34_check(f, p, sp)  # raises on any violation
            assert rep.max_ratio <= 1.0 + 1e-9, label


def test_08_dyadic_counterexample_margin():
    t0 = time.monotonic()
    rep = nakai_sadasue(20)
    assert len(rep.ratios) == 20
    # report ratios are P(B_N)^{spread} / 2^{N/2}; >= 1 is the printed claim
    assert all(r >= 1.0 for r in rep.ratios)
    h = _ns_h(21)
    for m in range(1, 21):
        d = h[m] - h[m - 1]
        assert 0.0 < d <= 2.0 / ((m + 1) * math.log(2.0))
    assert time.monotonic() - t0 < 5.0


def test_09_no_uniform_jensen_constant():
    sp = build_dyadic_space(1)
    rep = violation_33_search(TrialConfig(space=sp, trials=1))
    for got, c in zip(rep.ratios, (8.0, 100.0, 1e4)):
        assert got == pytest.approx(c / 2.0, rel=1e-12)
    assert rep.max_ratio >= 5000.0


def test_10_bmo_norm_equivalence_envelopes():
    for depth in (2, 3):
        sp = build_dyadic_space(depth)
        cfg = TrialConfig(space=sp, seed=9, trials=200)
        p = generate_exponent(sp, "iid-uniform", (1.0, 3.0), seed=depth)
        rep = jn_equivalence(cfg, p)
        assert len(rep.ratios) + rep.details["skips"] == 200
        up, lo = rep.details["upper_envelope"], rep.details["lower_envelope"]
        assert 0.0 < up < math.inf and 0.0 < lo < math.inf

    # scale invariance of the per-function ratio
    sp = build_dyadic_space(2)
    one = constant_exponent(sp, 1.0)
    p = generate_exponent(sp, "iid-uniform", (1.0, 3.0), seed=2)
    rng = random.Random(17)
    for _ in range(20):
        f = centered(rng, sp)
        r = bmo_norm(f, p).value / bmo_norm(f, one).value
        g = f.scaled(13.25)
        r2 = bmo_norm(g, p).value / bmo_norm(g, one).value
        assert r2 == pytest.approx(r, rel=1e-9)

    # refinement stability: split every leaf in two equal halves and lift
    levels = [
        [[2 * i for i in b] + [2 * i + 1 for i in b] for b in level]
        for level in serialize.space_to_json(sp)["levels"]
    ]
    levels.append([[i] for i in range(8)])
    fine = validate_filtration(
        [sorted(map(sorted, lv)) for lv in levels], [0.125] * 8
    )
    p_fine = Exponent(tuple(np.repeat(p.vals, 2)))
    one_fine = constant_exponent(fine, 1.0)
    for _ in range(10):
        f = centered(rng, sp)
        g = martingale_from_terminal(fine, np.repeat(f.terminal, 2))
        r = bmo_norm(f, p).value / bmo_norm(f, one).value
        r_fine = bmo_norm(g, p_fine).value / bmo_norm(g, one_fine).value
        assert r_fine == pytest.approx(r, rel=0.1)


def test_11_exponential_decay_bound():
    rng = random.Random(19)
    for depth in (2, 3):
        sp = build_dyadic_space(depth)
        for law in EXPONENT_FAMILIES:
            p = generate_exponent(sp, law, (1.0, 2.5), seed=depth)
            for _ in range(5):
                f = centered(rng, sp)
                # monotonicity and the C1 = 4, C2 = ln2/(2*C_hat) pointwise
                # bound are hard assertions inside exp_jn_curve
                rep = exp_jn_curve(f, p)
                ys = [y for _, y in rep.details["curve"]]
                assert all(a >= b - 1e-12 for a, b in zip(ys, ys[1:]))
                assert rep.details["proof_constants"]["C2"] > 0.0


def test_12_seeded_reruns_are_byte_identical(tmp_path):
    cases = [
        ["experiment", "doob", "--depth", "3", "--seed", "11",
         "--trials", "30", "--p-lo", "1.2"],
        ["experiment", "weak-type", "--depth", "3", "--seed", "4"],
        ["experiment", "jn", "--depth", "2", "--seed", "8", "--trials", "25"],
        ["experiment", "exp-jn", "--depth", "2", "--seed", "6"],
        ["experiment", "violation-33", "--depth", "2", "--seed", "3",
         "--trials", "10"],
        ["experiment", "nakai-sadasue", "--max-n", "12"],
    ]
    for i, argv in enumerate(cases):
        a = tmp_path / f"{i}a.json"
        b = tmp_path / f"{i}b.json"
        assert run(argv + ["--output", str(a)]) == 0
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())
