import math
import random

import numpy as np
import pytest

from vexmart import (
    DomainError,
    Exponent,
    StoppingTime,
    a_quantity,
    atomic_decompose,
    build_dyadic_space,
    cond_expect,
    constant_exponent,
    hmax_norm,
    hs_norm,
    is_atom,
    martingale_from_terminal,
    prop41_bounds,
    reconstruct,
    stop,
)
from vexmart.hardy import AtomTerm
from vexmart.martingale import Martingale, cond_square_levels

from conftest import random_exponent, random_tree_space

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

    def test_never_finite_requires_zero(self, two_leaf):
        p = constant_exponent(two_leaf, 1.0)
        assert is_atom(two_leaf, (0.0, 0.0), StoppingTime((INF, INF)), p)
        assert not is_atom(two_leaf, (1.0, -1.0), StoppingTime((INF, INF)), p)


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
        assert term.tau.stop_level == (0.0, 0.0)
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
        from vexmart.hardy import AtomicDecomposition
        dec = AtomicDecomposition(four_leaf, (), 0, -1)
        assert np.all(reconstruct(dec).arrays == 0.0)
