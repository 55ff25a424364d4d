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
    ValidationError,
    StoppingTime,
    a_quantity,
    atomic_decompose,
    build_dyadic_space,
    cond_expect,
    constant_exponent,
    hmax_norm,
    hs_norm,
    is_atom,
    luxemburg_norm,
    martingale_from_terminal,
    prop41_bounds,
    reconstruct,
    stop,
)
from vexmart import serialize, varlp
from vexmart.hardy import (
    ATOM_MEAN_TOL,
    ATOM_SIZE_TOL,
    AtomCheck,
    AtomicDecomposition,
    AtomTerm,
    _ceil_log2,
)
from vexmart.martingale import (
    Martingale,
    cond_square,
    cond_square_levels,
    sample_stopping_times,
)
from vexmart.varlp import indicator_norm, kept_indicator_norms

from conftest import drop_root_level, random_exponent, random_tree_space

INF = math.inf


def centered_martingale(rng, space, scale=1.0):
    v = np.array([rng.gauss(0, scale) for _ in range(space.n_leaves)])
    v -= cond_expect(space, v, 0)
    return martingale_from_terminal(space, v)


def threshold_oracle(f, cut):
    """Per leaf, the first n with s_{n+1}(f) > cut (s_N past the last
    level), or inf."""
    depth = f.space.depth
    s_levels = cond_square_levels(f)
    s_next = [s_levels[min(n + 1, depth)] for n in range(depth + 1)]
    return StoppingTime([
        next((float(n) for n in range(depth + 1) if s_next[n][w] > cut), INF)
        for w in range(f.space.n_leaves)
    ])


class TestHardyNorms:
    def test_zero(self, four_leaf):
        f = martingale_from_terminal(four_leaf, (0.0,) * 4)
        p = constant_exponent(four_leaf, 1.5)
        assert hs_norm(f, p) == 0.0
        assert hmax_norm(f, p) == 0.0

    def test_two_leaf_sign_martingale(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        p = Exponent((1.0, 2.0))
        assert hs_norm(f, p) == pytest.approx(1.0, rel=1e-10)
        assert hmax_norm(f, constant_exponent(two_leaf, 2.0)) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_constant_martingale_max_norm(self, four_leaf):
        f = martingale_from_terminal(four_leaf, (-2.5,) * 4)
        assert hmax_norm(f, Exponent((1.0, 2.0, 1.5, 3.0))) == pytest.approx(
            2.5, rel=1e-10
        )

    def test_constant_exponent_reduction(self):
        rng = random.Random(3)
        sp = random_tree_space(rng)
        f = centered_martingale(rng, sp)
        from vexmart import cond_square, luxemburg_norm
        p = constant_exponent(sp, 2.0)
        want = luxemburg_norm(sp, cond_square(f), p).norm
        assert hs_norm(f, p) == want


class TestIsAtom:
    def test_zero_is_atom(self, two_leaf):
        tau = StoppingTime((0.0, 0.0))
        assert is_atom(two_leaf, (0.0, 0.0), tau, Exponent((1.0, 2.0)))

    def test_example_atom(self, two_leaf):
        p = constant_exponent(two_leaf, 1.0)
        chk = is_atom(two_leaf, (2 / 3, -2 / 3), StoppingTime((0.0, 0.0)), p)
        assert chk.ok and chk.mean_ok and chk.size_ok
        assert chk.s_sup == pytest.approx(2 / 3, rel=1e-12)

    def test_mean_clause_fails_with_late_stop(self, two_leaf):
        p = constant_exponent(two_leaf, 1.0)
        chk = is_atom(two_leaf, (2 / 3, -2 / 3), StoppingTime((1.0, 1.0)), p)
        assert not chk.ok and not chk.mean_ok

    def test_rejects_wrong_lengths(self, four_leaf):
        a = (1.0, -1.0, 0.0, 0.0)
        tau = StoppingTime((0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValidationError, match="stopping time on 4 leaves"):
            is_atom(four_leaf, a, StoppingTime((0.0, 0.0)), constant_exponent(four_leaf, 2.0))
        for p in (Exponent((2.0, 2.0, 2.0)), Exponent((1.5, 2.5, 2.0))):
            with pytest.raises(ValidationError, match="expected 4 exponent values"):
                is_atom(four_leaf, a, tau, p)

    def test_never_finite_requires_zero(self, two_leaf):
        p = constant_exponent(two_leaf, 1.0)
        assert is_atom(two_leaf, (0.0, 0.0), StoppingTime((INF, INF)), p)
        assert not is_atom(two_leaf, (1.0, -1.0), StoppingTime((INF, INF)), p)

    def test_matches_the_martingale_path(self):
        """Bit for bit the check read from the Martingale of a and its
        square function, on decomposition terms, on random a and tau, on
        depth 0 and with a tau that is never finite."""
        rng = random.Random(167)
        for trial in range(90):
            sp = build_dyadic_space(0) if trial % 9 == 0 else random_tree_space(rng)
            n = sp.n_leaves
            p = random_exponent(rng, n, 0.5, 3.0)
            f = centered_martingale(rng, sp, 10.0 ** rng.uniform(-2, 2))
            cases = [(t.atom_terminal, t.tau) for t in atomic_decompose(f, p).terms]
            a = np.array([rng.gauss(0, 1) for _ in range(n)])
            levels = [0.0, float(sp.depth), INF]
            cases += [
                (a, StoppingTime([rng.choice(levels) for _ in range(n)])),
                (f.terminal, StoppingTime([rng.choice(levels) for _ in range(n)])),
                (a * 10.0 ** rng.choice([-12, 0]), StoppingTime([INF] * n)),
            ]
            for a, tau in cases:
                assert repr(is_atom(sp, a, tau, p)) == repr(_martingale_path(sp, a, tau, p))


def _martingale_path(space, a, tau, p):
    """is_atom as computed from martingale_from_terminal and cond_square."""
    pvals = p.vals
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
    bound = 1.0 / indicator_norm(space.probs, pvals, finite)
    size_ok = s_sup <= bound * (1.0 + ATOM_SIZE_TOL)
    return AtomCheck(mean_ok and size_ok, mean_ok, size_ok, worst, s_sup, bound)


class TestAtomicDecomposition:
    def test_zero_martingale_empty(self, four_leaf):
        f = martingale_from_terminal(four_leaf, (0.0,) * 4)
        dec = atomic_decompose(f, constant_exponent(four_leaf, 1.0))
        assert dec.terms == ()
        assert a_quantity(dec, constant_exponent(four_leaf, 1.0)) == 0.0

    def test_rejects_nonzero_start(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (2.0, 1.0))
        with pytest.raises(DomainError):
            atomic_decompose(f, Exponent((1.0, 2.0)))

    def test_single_term_example(self, two_leaf):
        # s(f) is identically 1, so exactly the k = -1 threshold crosses
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        p = constant_exponent(two_leaf, 1.0)
        dec = atomic_decompose(f, p)
        assert len(dec.terms) == 1
        term = dec.terms[0]
        assert term.k == -1
        assert term.mu == pytest.approx(1.5, rel=1e-12)
        assert term.tau.vals.tolist() == [0.0, 0.0]
        assert term.atom_terminal == pytest.approx((2 / 3, -2 / 3), rel=1e-12)
        assert a_quantity(dec, p) == pytest.approx(1.5, rel=1e-9)
        rep = prop41_bounds(dec, p)
        assert rep.linear_sum == pytest.approx(rep.a_value, rel=1e-9)

    def test_high_thresholds_vanish(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        dec = atomic_decompose(f, constant_exponent(two_leaf, 1.0))
        assert all(t.k <= 0 for t in dec.terms)

    def test_omega_sets_nested(self):
        rng = random.Random(5)
        for _ in range(30):
            sp = random_tree_space(rng)
            f = centered_martingale(rng, sp)
            p = random_exponent(rng, sp.n_leaves, 0.5, 3.0)
            dec = atomic_decompose(f, p)
            for a, b in zip(dec.terms, dec.terms[1:]):
                assert np.all(a.tau.vals <= b.tau.vals)

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            sp = random_tree_space(rng)
            f = centered_martingale(rng, sp, scale=rng.choice([0.01, 1.0, 100.0]))
            p = random_exponent(rng, sp.n_leaves, 0.5, 3.0)
            dec = atomic_decompose(f, p)
            rec = reconstruct(dec)
            tol = 1e-9 * max(1e-30, float(np.abs(f.arrays).max()))
            assert np.abs(rec.arrays - f.arrays).max() <= tol

    def test_atoms_valid_random(self):
        rng = random.Random(11)
        for _ in range(50):
            sp = random_tree_space(rng)
            f = centered_martingale(rng, sp)
            p = random_exponent(rng, sp.n_leaves, 0.5, 3.0)
            for term in atomic_decompose(f, p).terms:
                chk = is_atom(sp, term.atom_terminal, term.tau, p)
                assert chk.ok, (term.k, chk)

    def test_atoms_are_stopped_terminal_differences(self):
        # bit for bit: a_k = (f^{tau_{k+1}}_N - f^{tau_k}_N) / mu_k with the
        # stopped terminals of stop()
        rng = random.Random(19)
        for _ in range(40):
            sp = random_tree_space(rng)
            f = centered_martingale(rng, sp, scale=rng.choice([0.01, 1.0, 100.0]))
            p = random_exponent(rng, sp.n_leaves, 0.5, 3.0)
            for term in atomic_decompose(f, p).terms:
                tau_k = threshold_oracle(f, 2.0**term.k)
                tau_k1 = threshold_oracle(f, 2.0 ** (term.k + 1))
                assert term.tau == tau_k
                diff = stop(f, tau_k1).terminal - stop(f, tau_k).terminal
                assert np.array_equal(term.atom_terminal, diff / term.mu)

    def test_atom_term_value_semantics(self):
        atom = np.array([2 / 3, -2 / 3])
        tau = StoppingTime((0.0, 0.0))
        term = AtomTerm(-1, 1.5, tau, atom)
        assert term == AtomTerm(-1, 1.5, StoppingTime(np.zeros(2)), atom.copy())
        for other in (AtomTerm(0, 1.5, tau, atom), AtomTerm(-1, 2.0, tau, atom),
                      AtomTerm(-1, 1.5, StoppingTime((1.0, 1.0)), atom),
                      AtomTerm(-1, 1.5, tau, -atom)):
            assert term != other
        atom[0] = 5.0
        assert term.atom_terminal[0] == 2 / 3
        assert not term.atom_terminal.flags.writeable
        f = martingale_from_terminal(build_dyadic_space(2), (1.0, -1.0, 2.0, -2.0))
        p = constant_exponent(f.space, 1.5)
        assert atomic_decompose(f, p) == atomic_decompose(f, p)

    def test_weights_formula(self):
        rng = random.Random(13)
        from vexmart import luxemburg_norm
        sp = random_tree_space(rng)
        f = centered_martingale(rng, sp)
        p = random_exponent(rng, sp.n_leaves)
        for term in atomic_decompose(f, p).terms:
            chi = term.tau.finite_mask.astype(float)
            want = 3.0 * 2.0 ** term.k * luxemburg_norm(sp, chi, p).norm
            assert term.mu == pytest.approx(want, rel=1e-12)

    def test_weights_and_atom_bounds_share_one_indicator_solve(self):
        # mu_k = 3 * 2^k * ||chi|| and the atom bound 1 / ||chi|| come from
        # the same solve of the same chi, so their product is 3 * 2^k up to
        # the rounding of the two products and the reciprocal
        rng = random.Random(53)
        for trial in range(60):
            sp = random_tree_space(rng, max_leaves=24)
            lo, hi = (0.5, 3.0) if trial % 3 else (1.7, 1.7)
            p = random_exponent(rng, sp.n_leaves, lo, hi)
            f = centered_martingale(rng, sp, 10.0 ** rng.uniform(-2, 2))
            for term in atomic_decompose(f, p).terms:
                check = is_atom(sp, term.atom_terminal, term.tau, p)
                want = 3.0 * 2.0**term.k
                assert abs(term.mu * check.s_bound - want) <= 4 * math.ulp(want)

    def test_converse_norm_bound(self):
        rng = random.Random(17)
        for _ in range(100):
            sp = random_tree_space(rng)
            f = centered_martingale(rng, sp)
            p = random_exponent(rng, sp.n_leaves, 0.4, 3.0)
            dec = atomic_decompose(f, p)
            assert hs_norm(f, p) <= a_quantity(dec, p) + 1e-9

    def test_forward_ratio_scale_invariant(self):
        rng = random.Random(19)
        sp = random_tree_space(rng)
        p = random_exponent(rng, sp.n_leaves)
        f = centered_martingale(rng, sp)
        r1 = a_quantity(atomic_decompose(f, p), p) / hs_norm(f, p)
        # dyadic scaling shifts the threshold grid by a whole number of
        # levels, so the ratio is exactly preserved; non-dyadic factors
        # realign the thresholds and may perturb it
        g = f.scaled(16.0)
        r2 = a_quantity(atomic_decompose(g, p), p) / hs_norm(g, p)
        assert r2 == pytest.approx(r1, rel=1e-6)

    def test_power_sum_bound_random(self):
        rng = random.Random(23)
        for _ in range(60):
            sp = random_tree_space(rng)
            f = centered_martingale(rng, sp)
            p = random_exponent(rng, sp.n_leaves, 0.4, 3.0)
            rep = prop41_bounds(atomic_decompose(f, p), p)
            assert rep.holds_power
            assert rep.holds_linear

    def test_linear_sum_bound_small_exponents(self):
        rng = random.Random(29)
        for _ in range(40):
            sp = random_tree_space(rng)
            f = centered_martingale(rng, sp)
            p = random_exponent(rng, sp.n_leaves, 0.3, 1.0)
            rep = prop41_bounds(atomic_decompose(f, p), p)
            assert rep.linear_applicable and rep.holds_linear

    def test_geometric_sum_comparability(self):
        rng = random.Random(31)
        for _ in range(40):
            sp = random_tree_space(rng)
            f = centered_martingale(rng, sp)
            p = random_exponent(rng, sp.n_leaves, 0.4, 3.0)
            dec = atomic_decompose(f, p)
            if not dec.terms:
                continue
            pu = min(p.p_minus(), 1.0)
            acc = np.zeros(sp.n_leaves)
            sup = np.zeros(sp.n_leaves)
            for t in dec.terms:
                chi = t.tau.finite_mask.astype(float)
                w = 3.0 * 2.0 ** t.k * chi
                acc += w**pu
                sup = np.maximum(sup, w)
            lhs = acc ** (1.0 / pu)
            factor = (1.0 - 2.0 ** (-pu)) ** (-1.0 / pu)
            mask = sup > 0
            assert np.all(lhs[mask] >= sup[mask] - 1e-12)
            assert np.all(lhs[mask] <= factor * sup[mask] + 1e-9)

    def test_reconstruct_empty_is_zero(self, four_leaf):
        dec = AtomicDecomposition(four_leaf, ())
        assert np.all(reconstruct(dec).arrays == 0.0)


def window_oracle(smax, vmin):
    """The threshold window by log2 and correction loops: the least k with
    2^k >= smax and the greatest k with 2^k < vmin."""
    k_hi = math.ceil(math.log2(smax))
    while 2.0**k_hi < smax:
        k_hi += 1
    while k_hi - 1 >= -1074 and 2.0 ** (k_hi - 1) >= smax:
        k_hi -= 1
    k_lo = math.floor(math.log2(vmin))
    while 2.0**k_lo >= vmin:
        k_lo -= 1
    return k_hi, k_lo


def reconstruct_oracle(dec):
    """One martingale per term, weighted and summed."""
    sp = dec.space
    total = np.zeros((sp.depth + 1, sp.n_leaves))
    for term in dec.terms:
        total += term.mu * martingale_from_terminal(sp, term.atom_terminal).arrays
    return total


def a_quantity_oracle(dec, p):
    """The l^{p_underline} aggregate accumulated term by term."""
    if not dec.terms:
        return 0.0
    p_under = min(p.p_minus(), 1.0)
    sp = dec.space
    acc = np.zeros(sp.n_leaves)
    for term in dec.terms:
        if term.mu != 0.0:
            chi = term.tau.finite_mask.astype(float)
            chi_norm = luxemburg_norm(sp, chi, p).norm
            acc += (term.mu * chi / chi_norm) ** p_under
    return luxemburg_norm(sp, acc ** (1.0 / p_under), p).norm


class TestWholeArrayOracles:
    def test_window_matches_log2_loops(self):
        powers = [2.0**k for k in range(-1074, 1024)]
        values = powers + [math.nextafter(v, d) for v in powers for d in (0.0, INF)]
        rng = random.Random(37)
        values += [math.ldexp(rng.random(), rng.randint(-1074, 1023)) for _ in range(20000)]
        # past 2^1023 the loops overflow computing 2.0**1024; a finite s(f)
        # stays below 2^512
        for x in (v for v in values if 0.0 < v <= 2.0**1023):
            assert (_ceil_log2(x), _ceil_log2(x) - 1) == window_oracle(x, x), x
        assert _ceil_log2(math.nextafter(2.0**1023, INF)) == 1024

    def test_reconstruct_matches_per_term_sum(self):
        rng = random.Random(41)
        for _ in range(100):
            sp = random_tree_space(rng)
            f = centered_martingale(rng, sp, scale=rng.choice([0.01, 1.0, 100.0]))
            p = random_exponent(rng, sp.n_leaves, 0.5, 3.0)
            dec = atomic_decompose(f, p)
            got = reconstruct(dec).arrays
            tol = 1e-12 * max(1e-30, float(np.abs(f.arrays).max()))
            assert np.abs(got - reconstruct_oracle(dec)).max() <= tol

    def test_a_quantity_matches_per_term_loop(self):
        rng = random.Random(43)
        for _ in range(60):
            sp = random_tree_space(rng)
            p = random_exponent(rng, sp.n_leaves, 0.3, 3.0)
            dec = atomic_decompose(centered_martingale(rng, sp), p)
            assert a_quantity(dec, p) == pytest.approx(a_quantity_oracle(dec, p), rel=1e-12)

    def test_a_quantity_matches_per_term_loop_from_json(self):
        # arbitrary weights, zeros among them, on sampled stopping times
        # finite somewhere (a never-finite one has a zero indicator norm)
        rng = random.Random(47)
        for trial in range(60):
            sp = random_tree_space(rng)
            p = random_exponent(rng, sp.n_leaves, 0.3, 3.0)
            taus = [t for t in sample_stopping_times(sp, 12, seed=trial)
                    if t.finite_mask.any()]
            obj = [{
                "k": rng.randint(-5, 5),
                "mu": rng.choice([0.0, rng.uniform(0.0, 10.0), rng.expovariate(0.01)]),
                "tau": serialize.stopping_time_to_json(t)["stop_level"],
                "atom_terminal": [rng.gauss(0, 1) for _ in range(sp.n_leaves)],
            } for t in rng.sample(taus, rng.randint(0, len(taus)))]
            dec = serialize.decomposition_from_json(sp, obj)
            assert a_quantity(dec, p) == pytest.approx(a_quantity_oracle(dec, p), rel=1e-12)


def fresh_space(sp):
    """An equal space that has kept no indicator norm."""
    return serialize.space_from_json(serialize.space_to_json(sp))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    budget=st.sampled_from([0, 100, 400, varlp._KEPT_NORM_BUDGET]),
)
def test_kept_chi_norms_equal_fresh_solves(seed, budget):
    """Every {tau < inf} norm kept on a tree or a forest is the float a
    fresh solve returns, across exponent switches and the clears that a
    small byte budget forces; the bytes held stay within the budget."""
    rng = random.Random(seed)
    sp = random_tree_space(rng, max_leaves=24)
    if rng.random() < 0.5:
        sp = drop_root_level(sp)
    n = sp.n_leaves
    exponents = [random_exponent(rng, n, 0.3, 4.0), constant_exponent(sp, rng.uniform(0.3, 4.0))]
    masks = [np.array([rng.random() < 0.6 for _ in range(n)]) for _ in range(6)]
    with mock.patch.object(varlp, "_KEPT_NORM_BUDGET", budget):
        for _ in range(40):
            pvals = rng.choice(exponents).vals
            mask = rng.choice(masks)
            got = kept_indicator_norms(sp, pvals, mask)
            assert got.hex() == indicator_norm(sp.probs, pvals, mask).hex()
            held, kept = sp._kept_norms
            assert held <= budget
            for pkey, norms in kept.items():
                for (shape, bits), norm in norms.items():
                    assert shape == (n,)
                    m = np.unpackbits(np.frombuffer(bits, np.uint8), count=n).astype(bool)
                    assert norm.hex() == indicator_norm(sp.probs, np.frombuffer(pkey), m).hex()


def test_pipeline_solves_each_distinct_set_once(monkeypatch):
    """atomic_decompose, is_atom on every term and a_quantity solve each
    distinct {tau_k < inf} of a variable exponent once between them."""
    calls = []

    def counting(probs, pvals, mask):
        calls.append(mask.tobytes())
        return indicator_norm(probs, pvals, mask)

    # the store's one solve of a single set
    monkeypatch.setattr(varlp, "indicator_norm", counting)
    rng = random.Random(61)
    terms = distinct = 0
    for trial in range(40):
        sp = build_dyadic_space(rng.choice([3, 5])) if trial % 2 else random_tree_space(rng)
        p = random_exponent(rng, sp.n_leaves, 0.5, 3.0)
        calls.clear()
        dec = atomic_decompose(centered_martingale(rng, sp, rng.choice([0.1, 10.0])), p)
        assert all(is_atom(sp, t.atom_terminal, t.tau, p) for t in dec.terms)
        a_quantity(dec, p)
        masks = {t.tau.finite_mask.tobytes() for t in dec.terms}
        assert sorted(calls) == sorted(masks)
        terms, distinct = terms + len(dec.terms), distinct + len(masks)
    # some sets repeat within a decomposition, and each term was solved
    # three times before the norms were kept
    assert terms > distinct


def test_interleaved_exponents_solve_each_exponent_and_set_once(monkeypatch):
    """Three exponents interleaved through atomic_decompose, is_atom on
    every term and a_quantity on one space: each distinct (exponent, set)
    is solved once while the space stays within its budget, however many
    other exponents ran in between."""
    calls = []

    def counting(probs, pvals, mask):
        calls.append((pvals.tobytes(), mask.tobytes()))
        return indicator_norm(probs, pvals, mask)

    monkeypatch.setattr(varlp, "indicator_norm", counting)
    rng = random.Random(67)
    sp = build_dyadic_space(5)
    exponents = [random_exponent(rng, sp.n_leaves, 0.5, 3.0) for _ in range(3)]
    used, again = set(), 0
    for trial in range(30):
        p = exponents[trial % 3]
        dec = atomic_decompose(centered_martingale(rng, sp, rng.choice([0.1, 10.0])), p)
        assert all(is_atom(sp, t.atom_terminal, t.tau, p) for t in dec.terms)
        a_quantity(dec, p)
        sets = {(p.vals.tobytes(), t.tau.finite_mask.tobytes()) for t in dec.terms}
        again += len(sets & used)
        used |= sets
    assert sorted(calls) == sorted(used)
    # sets met again after another exponent ran, still not solved again
    assert again
    assert sp._kept_norms[0] <= varlp._KEPT_NORM_BUDGET


def test_a_quantity_from_json_under_a_second_exponent():
    """A decomposition read from JSON carries no exponent: a_quantity with
    one exponent, then another, then the first again equals the per-term
    loop and, bit for bit, a call on a space that has kept nothing."""
    rng = random.Random(71)
    for trial in range(40):
        sp = random_tree_space(rng)
        if trial % 2:
            sp = drop_root_level(sp)
        taus = [t for t in sample_stopping_times(sp, 12, seed=trial) if t.finite_mask.any()]
        obj = [{
            "k": rng.randint(-5, 5),
            "mu": rng.uniform(0.0, 10.0),
            "tau": serialize.stopping_time_to_json(t)["stop_level"],
            "atom_terminal": [rng.gauss(0, 1) for _ in range(sp.n_leaves)],
        } for t in rng.sample(taus, rng.randint(1, len(taus)))]
        dec = serialize.decomposition_from_json(sp, obj)
        p, q = (random_exponent(rng, sp.n_leaves, 0.3, 3.0) for _ in range(2))
        for e in (p, q, p):
            got = a_quantity(dec, e)
            assert got == pytest.approx(a_quantity_oracle(dec, e), rel=1e-12)
            cold = a_quantity(serialize.decomposition_from_json(fresh_space(sp), obj), e)
            assert got.hex() == cold.hex()
