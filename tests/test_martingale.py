import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexmart import (
    Martingale,
    validate_filtration,
    ResourceError,
    StoppingTime,
    ValidationError,
    build_dyadic_space,
    build_mary_space,
    cond_expect,
    cond_square,
    count_stopping_times,
    enumerate_stopping_times,
    make_martingale,
    martingale_from_terminal,
    maximal,
    sample_stopping_times,
    stop,
    validate_stopping_time,
)
from vexmart import martingale
from vexmart.martingale import (
    cond_square_levels,
    enumerate_stopping_matrix,
    stopped_terminal_diffs,
)

from conftest import random_tree_space, relabelled_levels

INF = math.inf


def random_martingale(rng, space):
    v = np.array([rng.gauss(0, 1) for _ in range(space.n_leaves)])
    return martingale_from_terminal(space, v)


def random_stopping_time(rng, space):
    return sample_stopping_times(space, 3, seed=rng.randint(0, 10**9))[-1]


class TestConditionalExpectation:
    def test_terminal_level_identity(self, four_leaf):
        f = (1.0, 2.0, 3.0, 4.0)
        assert tuple(cond_expect(four_leaf, f, 2)) == f

    def test_level_one_averages(self, four_leaf):
        got = cond_expect(four_leaf, (1.0, 2.0, 3.0, 4.0), 1)
        assert tuple(got) == (1.5, 1.5, 3.5, 3.5)

    def test_constants_fixed(self, four_leaf):
        for n in range(3):
            assert np.all(cond_expect(four_leaf, (1.0,) * 4, n) == 1.0)

    def test_linearity(self):
        rng = random.Random(3)
        sp = random_tree_space(rng)
        f = np.array([rng.gauss(0, 1) for _ in range(sp.n_leaves)])
        g = np.array([rng.gauss(0, 1) for _ in range(sp.n_leaves)])
        for n in range(sp.depth + 1):
            lhs = cond_expect(sp, 2 * f - 3 * g, n)
            rhs = 2 * cond_expect(sp, f, n) - 3 * cond_expect(sp, g, n)
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestMartingaleConstruction:
    def test_from_terminal_constant(self, four_leaf):
        f = martingale_from_terminal(four_leaf, (2.0,) * 4)
        assert np.all(f.arrays == 2.0)

    def test_from_terminal_two_leaf(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        assert tuple(f.arrays[0]) == (0.0, 0.0)
        assert tuple(f.arrays[1]) == (1.0, -1.0)

    def test_from_terminal_satisfies_tower(self):
        rng = random.Random(5)
        for _ in range(20):
            sp = random_tree_space(rng)
            f = random_martingale(rng, sp)
            # re-validate through the checked constructor
            make_martingale(sp, [tuple(r) for r in f.arrays])

    def test_rejects_non_measurable_level(self, two_leaf):
        with pytest.raises(ValidationError, match="measurable"):
            make_martingale(two_leaf, [(0.0, 1.0), (0.0, 1.0)])

    def test_rejects_tower_violation(self, two_leaf):
        with pytest.raises(ValidationError, match="tower"):
            make_martingale(two_leaf, [(5.0, 5.0), (1.0, -1.0)])

    def test_rejects_wrong_shape(self, two_leaf):
        with pytest.raises(ValidationError, match="shape"):
            make_martingale(two_leaf, [(0.0, 0.0)])


class TestMaximalAndSquare:
    def test_constant_martingale(self, four_leaf):
        f = martingale_from_terminal(four_leaf, (-3.0,) * 4)
        assert np.all(maximal(f) == 3.0)
        assert np.all(cond_square(f) == 0.0)

    def test_two_leaf_values(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        assert tuple(maximal(f)) == (1.0, 1.0)
        assert np.allclose(cond_square(f), 1.0)

    def test_dominates_terminal(self):
        rng = random.Random(2)
        for _ in range(20):
            sp = random_tree_space(rng)
            f = random_martingale(rng, sp)
            assert np.all(maximal(f) >= np.abs(f.terminal) - 1e-15)

    def test_square_increments_nonnegative(self):
        rng = random.Random(7)
        for _ in range(20):
            sp = random_tree_space(rng)
            f = random_martingale(rng, sp)
            prev = np.zeros(sp.n_leaves)
            for cur in cond_square_levels(f):
                assert np.all(cur >= prev - 1e-12)
                prev = cur

    def test_square_level_measurable(self):
        rng = random.Random(9)
        sp = random_tree_space(rng)
        f = random_martingale(rng, sp)
        for m in range(1, sp.depth + 1):
            s2 = cond_square_levels(f)[m] ** 2
            proj = cond_expect(sp, s2, m - 1)
            assert np.allclose(proj, s2, atol=1e-12)

    def test_redundant_level_invariance(self, four_leaf):
        # duplicating the discrete terminal level changes nothing
        levels = list(four_leaf.levels) + [four_leaf.levels[-1]]
        from vexmart import validate_filtration
        sp2 = validate_filtration(levels, four_leaf.leaf_probs)
        v = (0.5, -1.0, 2.0, -1.5)
        f = martingale_from_terminal(four_leaf, v)
        g = martingale_from_terminal(sp2, v)
        assert np.allclose(maximal(f), maximal(g))
        assert np.allclose(cond_square(f), cond_square(g))


class TestStoppingTimes:
    def test_constant_times_valid(self, four_leaf):
        validate_stopping_time(four_leaf, (0.0,) * 4)
        validate_stopping_time(four_leaf, (INF,) * 4)

    def test_rejects_block_split(self, two_leaf):
        with pytest.raises(ValidationError, match="splits"):
            validate_stopping_time(two_leaf, (0.0, 1.0))

    def test_rejects_out_of_range(self, two_leaf):
        with pytest.raises(ValidationError):
            validate_stopping_time(two_leaf, (2.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_non_finite_levels(self, two_leaf, bad):
        with pytest.raises(ValidationError):
            validate_stopping_time(two_leaf, (bad, bad))

    def test_stop_never(self, four_leaf):
        rng = random.Random(11)
        f = random_martingale(rng, four_leaf)
        g = stop(f, StoppingTime((INF,) * 4))
        assert np.allclose(g.arrays, f.arrays)

    def test_stop_immediately(self, four_leaf):
        rng = random.Random(13)
        f = random_martingale(rng, four_leaf)
        g = stop(f, StoppingTime((0.0,) * 4))
        assert np.allclose(g.arrays, np.tile(f.arrays[0], (3, 1)))
        h = stop(f, StoppingTime((0.0,) * 4), shift="minus-one")
        assert np.all(h.arrays == 0.0)

    def test_stopped_is_martingale(self):
        rng = random.Random(17)
        for _ in range(100):
            sp = random_tree_space(rng)
            f = random_martingale(rng, sp)
            tau = random_stopping_time(rng, sp)
            g = stop(f, tau)
            make_martingale(sp, [tuple(r) for r in g.arrays])

    def test_double_stop_is_min(self):
        rng = random.Random(19)
        for _ in range(50):
            sp = random_tree_space(rng)
            f = random_martingale(rng, sp)
            tau = random_stopping_time(rng, sp)
            sigma = random_stopping_time(rng, sp)
            both = stop(stop(f, tau), sigma)
            m = StoppingTime(tuple(np.minimum(tau.vals, sigma.vals)))
            assert np.allclose(both.arrays, stop(f, m).arrays, atol=1e-12)

    def test_square_split_identity(self):
        rng = random.Random(23)
        for _ in range(100):
            sp = random_tree_space(rng)
            f = random_martingale(rng, sp)
            tau = random_stopping_time(rng, sp)
            g = stop(f, tau)
            rest = Martingale(sp, tuple(
                tuple(a - b) for a, b in zip(f.arrays, g.arrays)
            ))
            lhs = cond_square(rest) ** 2 + cond_square(g) ** 2
            assert np.allclose(lhs, cond_square(f) ** 2, atol=1e-10)

    def test_stopped_square_bounded(self):
        rng = random.Random(29)
        for _ in range(50):
            sp = random_tree_space(rng)
            f = random_martingale(rng, sp)
            tau = random_stopping_time(rng, sp)
            assert np.all(
                cond_square(stop(f, tau)) <= cond_square(f) + 1e-12
            )


def _count_oracle(space):
    """The top-down memoized recursion over (level, block) that the
    bottom-up count replaced."""
    memo = {}

    def node(level, block_pos):
        key = (level, block_pos)
        if key not in memo:
            if level == space.depth:
                memo[key] = 2
            else:
                total = 1
                for child in space.children[level][block_pos]:
                    total *= node(level + 1, child)
                memo[key] = 1 + total
        return memo[key]

    return math.prod(node(0, b) for b in range(space.n_blocks[0]))


class TestEnumeration:
    def test_single_leaf_count(self):
        assert count_stopping_times(build_dyadic_space(0)) == 2

    def test_small_dyadic_counts(self):
        assert count_stopping_times(build_dyadic_space(1)) == 5
        assert count_stopping_times(build_dyadic_space(2)) == 26
        assert count_stopping_times(build_dyadic_space(4)) == 458330

    def test_enumeration_matches_count_and_validates(self):
        rng = random.Random(31)
        for _ in range(10):
            sp = random_tree_space(rng, max_leaves=6)
            taus = enumerate_stopping_times(sp)
            assert len(taus) == count_stopping_times(sp)
            seen = {t.stop_level for t in taus}
            assert len(seen) == len(taus)
            for t in taus:
                validate_stopping_time(sp, t.stop_level)

    def test_enumeration_matches_brute_filter(self, four_leaf):
        # oracle: filter every assignment in {0,1,2,inf}^4 through the
        # measurability validator
        valid = 0
        options = [0.0, 1.0, 2.0, INF]
        for a in options:
            for b in options:
                for c in options:
                    for d in options:
                        try:
                            validate_stopping_time(four_leaf, (a, b, c, d))
                            valid += 1
                        except ValidationError:
                            pass
        assert valid == count_stopping_times(four_leaf) == 26

    def test_count_matches_memoized_recursion(self):
        spaces = [build_mary_space(3, d) for d in (1, 2, 3)]
        rng = random.Random(43)
        spaces += [random_tree_space(rng) for _ in range(40)]
        for sp in spaces:
            assert count_stopping_times(sp) == _count_oracle(sp)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(martingale, "ENUMERATION_CAP", 10)
        sp = build_dyadic_space(3)
        with pytest.raises(ResourceError):
            enumerate_stopping_times(sp)

    def test_sampling_deterministic_and_valid(self):
        rng = random.Random(37)
        sp = random_tree_space(rng)
        a = sample_stopping_times(sp, 20, seed=4)
        b = sample_stopping_times(sp, 20, seed=4)
        assert a == b
        assert a[0].stop_level == (0.0,) * sp.n_leaves
        assert a[1].stop_level == (INF,) * sp.n_leaves
        for t in a:
            validate_stopping_time(sp, t.stop_level)

    def test_sampling_count_two(self, four_leaf):
        a = sample_stopping_times(four_leaf, 2, seed=0)
        assert len(a) == 2

    def test_batched_diffs_match_stop(self):
        rng = random.Random(41)
        sp = random_tree_space(rng, max_leaves=6)
        f = random_martingale(rng, sp)
        matrix = enumerate_stopping_matrix(sp)
        for shift in ("none", "minus-one"):
            batch = stopped_terminal_diffs(f, matrix, shift=shift)
            for row, diff in zip(matrix, batch):
                want = f.terminal - stop(f, StoppingTime(tuple(row)), shift).terminal
                assert np.allclose(diff, want, atol=1e-12)


def stop_oracle(f, stop_levels, shift):
    """f^tau_n(w) = f_{min(n, tau(w))}(w) leaf by leaf, or f_{min(n, tau(w) - 1)}(w)
    with f_{-1} = 0 for the shifted stop."""
    depth, n_leaves = f.space.depth, f.space.n_leaves
    out = np.zeros((depth + 1, n_leaves))
    for n in range(depth + 1):
        for w in range(n_leaves):
            t = stop_levels[w] if shift == "none" else stop_levels[w] - 1
            m = min(n, t)
            out[n, w] = 0.0 if m < 0 else f.arrays[int(m), w]
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       shift=st.sampled_from(["none", "minus-one"]))
def test_stop_matches_per_leaf_oracle(seed, shift):
    # any per-leaf level in {0..N, inf}: stop() gathers without validating
    rng = random.Random(seed)
    sp = random_tree_space(rng)
    f = random_martingale(rng, sp)
    levels = [rng.choice([*range(sp.depth + 1), INF]) for _ in range(sp.n_leaves)]
    want = stop_oracle(f, levels, shift)
    assert np.array_equal(stop(f, StoppingTime(levels), shift).arrays, want)
    matrix = np.array([levels, [INF] * sp.n_leaves, [0.0] * sp.n_leaves])
    diffs = stopped_terminal_diffs(f, matrix, shift=shift)
    assert np.array_equal(diffs[0], f.terminal - want[-1])


def test_unknown_shift_rejected(four_leaf):
    f = random_martingale(random.Random(1), four_leaf)
    tau = StoppingTime((0.0,) * 4)
    with pytest.raises(ValidationError, match="shift"):
        stop(f, tau, shift="plus-one")
    with pytest.raises(ValidationError, match="shift"):
        stopped_terminal_diffs(f, tau.vals[None, :], shift="plus-one")


class TestArrayValues:
    def test_martingale_value_semantics(self, four_leaf):
        levels = np.array([[0.0] * 4, [1.0, 1.0, -1.0, -1.0], [2.0, 0.0, -1.0, -1.0]])
        f = Martingale(four_leaf, levels)
        assert f == Martingale(four_leaf, levels.copy())
        assert f == make_martingale(four_leaf, levels.tolist())
        assert f != Martingale(four_leaf, levels * 2.0)
        assert f != Martingale(build_dyadic_space(1), levels[:2, :2])
        assert (f == StoppingTime(levels[2])) is False
        levels[2, 0] = 99.0  # the caller keeps its array writeable
        assert f.arrays[2, 0] == 2.0
        assert not f.arrays.flags.writeable
        assert f.levels[2] == (2.0, 0.0, -1.0, -1.0)
        assert f.scaled(2.0) == Martingale(four_leaf, 2.0 * f.arrays)

    def test_stopping_time_value_semantics(self):
        vals = np.array([0.0, 1.0, INF, INF])
        tau = StoppingTime(vals)
        assert tau == StoppingTime((0.0, 1.0, INF, INF))
        assert tau != StoppingTime((0.0, 1.0, INF, 2.0))
        assert tau != StoppingTime((0.0, 1.0))
        vals[0] = 2.0
        assert tau.stop_level == (0.0, 1.0, INF, INF)
        assert not tau.vals.flags.writeable
        assert vals.flags.writeable
        with pytest.raises(ValueError):
            tau.vals[0] = 1.0

    def test_validated_values_are_frozen_copies(self, four_leaf):
        levels = np.array([[0.0] * 4, [1.0, 1.0, -1.0, -1.0], [2.0, 0.0, -1.0, -1.0]])
        f = make_martingale(four_leaf, levels)
        stop_levels = np.array([1.0, 1.0, INF, INF])
        tau = validate_stopping_time(four_leaf, stop_levels)
        levels[:] = 0.0
        stop_levels[:] = 0.0
        assert f.levels[1] == (1.0, 1.0, -1.0, -1.0)
        assert tau.stop_level == (1.0, 1.0, INF, INF)
        assert not (f.arrays.flags.writeable or tau.vals.flags.writeable)


def _block_average(space, values, level):
    """Conditional expectation at one level by its own bincount."""
    v = np.asarray(values, dtype=float)
    bo = space.block_of[level]
    sums = np.bincount(bo, weights=space.probs * v, minlength=space.n_blocks[level])
    return (sums / space.block_probs[level])[bo]


def test_level_averages_match_block_average():
    rng = random.Random(43)
    for _ in range(30):
        sp = random_tree_space(rng)
        rows = np.array([[rng.gauss(0, 1) for _ in range(sp.n_leaves)]
                         for _ in range(sp.depth + 1)])
        for r in range(sp.depth + 2):
            got = sp.level_averages(rows[:r])
            assert got.shape == (r, sp.n_leaves)
            for n in range(r):
                assert np.array_equal(got[n], _block_average(sp, rows[n], n))
        for n in range(sp.depth + 1):
            want = _block_average(sp, rows[n], n)
            assert np.array_equal(cond_expect(sp, rows[n], n), want)


def test_cond_square_matches_level_loop():
    # the cumulative sum adds the conditioned increments in level order,
    # like this loop, so the results are equal bit for bit
    rng = random.Random(47)
    for _ in range(30):
        sp = random_tree_space(rng)
        f = random_martingale(rng, sp)
        acc = np.zeros(sp.n_leaves)
        for m in range(sp.depth + 1):
            if m:
                df = f.arrays[m] - f.arrays[m - 1]
                acc += cond_expect(sp, df * df, m - 1)
            assert np.array_equal(cond_square_levels(f)[m], np.sqrt(acc))
        assert np.array_equal(cond_square(f), np.sqrt(acc))


def _enumeration_oracle(space):
    """The recursive enumeration over leaf lists that the tree-order one
    replaced: the same rows in the same order."""
    def node(level, b):
        block = space.levels[level][b]
        if level == space.depth:
            return np.array([[float(level)], [INF]])
        kids = space.children[level][b]
        combo = node(level + 1, kids[0])
        for child in kids[1:]:
            part = node(level + 1, child)
            m, k = combo.shape[0], part.shape[0]
            combo = np.hstack([np.repeat(combo, k, axis=0), np.tile(part, (m, 1))])
        leaves = [leaf for child in kids for leaf in space.levels[level + 1][child]]
        combo = combo[:, np.argsort(leaves)]
        return np.vstack([np.full((1, len(block)), float(level)), combo])

    combo, cols = None, []
    for b, block in enumerate(space.levels[0]):
        part = node(0, b)
        cols.extend(block)
        if combo is None:
            combo = part
        else:
            m, k = combo.shape[0], part.shape[0]
            combo = np.hstack([np.repeat(combo, k, axis=0), np.tile(part, (m, 1))])
    out = np.empty_like(combo)
    out[:, cols] = combo
    return out


def _sampling_oracle(space, count, seed):
    """The leaf-by-leaf descent that the block-flag sampler replaced."""
    rng = random.Random(f"vexmart-stopping:{seed}")
    out = [[0.0] * space.n_leaves, [INF] * space.n_leaves][:count]
    while len(out) < count:
        vals = [0.0] * space.n_leaves

        def descend(level, b):
            if rng.random() < 0.5:
                for leaf in space.levels[level][b]:
                    vals[leaf] = float(level)
            elif level == space.depth:
                for leaf in space.levels[level][b]:
                    vals[leaf] = INF
            else:
                for child in space.children[level][b]:
                    descend(level + 1, child)

        for b in range(len(space.levels[0])):
            descend(0, b)
        out.append(vals)
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_enumeration_and_sampling_match_leaf_oracles(seed):
    rng = random.Random(seed)
    sp = validate_filtration(*relabelled_levels(random_tree_space(rng, max_leaves=7), rng))
    assert np.array_equal(enumerate_stopping_matrix(sp), _enumeration_oracle(sp))
    got = [t.stop_level for t in sample_stopping_times(sp, 12, seed)]
    assert got == [tuple(v) for v in _sampling_oracle(sp, 12, seed)]
