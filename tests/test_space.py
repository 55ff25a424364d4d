import math
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexmart import serialize
from vexmart import space as space_module
from vexmart import (
    DomainError,
    Exponent,
    ResourceError,
    TrialConfig,
    ValidationError,
    aoyama_c,
    build_dyadic_space,
    bmo_norm,
    build_mary_space,
    check_holder,
    cond_expect,
    condition_k,
    constant_exponent,
    doob_strong_check,
    exp_jn_curve,
    exponent_algebra,
    jn_equivalence,
    lipschitz_norm,
    martingale_from_terminal,
    validate_filtration,
    weak_type_check,
)

from conftest import (
    drop_root_level,
    random_exponent,
    random_tree_space,
    relabelled_levels,
)


class TestDyadicConstruction:
    def test_depth_zero_degenerate(self):
        sp = build_dyadic_space(0)
        assert sp.n_leaves == 1
        assert sp.probs.tolist() == [1.0]
        assert serialize.space_to_json(sp)["levels"] == [[[0]]]

    def test_depth_two_blocks(self):
        sp = build_dyadic_space(2)
        assert sp.n_leaves == 4
        assert sp.probs.tolist() == [0.25] * 4
        levels = serialize.space_to_json(sp)["levels"]
        assert levels[1] == [[0, 1], [2, 3]]
        assert levels[2] == [[0], [1], [2], [3]]

    def test_depth_three_indexing(self):
        sp = build_dyadic_space(3)
        bo = sp.block_of[2]
        assert np.flatnonzero(bo == bo[5]).tolist() == [4, 5]

    def test_depth_cap(self):
        with pytest.raises(ResourceError):
            build_dyadic_space(25)

    def test_mary(self):
        sp = build_mary_space(3, 2)
        assert sp.n_leaves == 9
        assert sp.n_blocks[1] == 3
        assert sum(sp.probs.tolist()) == pytest.approx(1.0, abs=1e-15)


class TestValidation:
    def test_accepts_dyadic_levels(self):
        sp = build_dyadic_space(2)
        again = validate_filtration(serialize.space_to_json(sp)["levels"], sp.probs)
        assert again == sp

    def test_rejects_crossing_blocks(self):
        levels = [[[0, 1], [2, 3]], [[0, 2], [1, 3]],
                  [[0], [1], [2], [3]]]
        with pytest.raises(ValidationError, match="refinement"):
            validate_filtration(levels, [0.25] * 4)

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValidationError, match="sum"):
            validate_filtration([[[0], [1]]], [0.5, 0.6])

    def test_rejects_nonpositive_prob(self):
        with pytest.raises(ValidationError, match="positive"):
            validate_filtration([[[0], [1]]], [1.0, 0.0])

    def test_rejects_noncovering_level(self):
        with pytest.raises(ValidationError, match="cover"):
            validate_filtration([[[0]], [[0], [1]]], [0.5, 0.5])

    def test_rejects_coarse_terminal(self):
        with pytest.raises(ValidationError, match="discrete"):
            validate_filtration([[[0, 1]]], [0.5, 0.5])

    def test_block_average_is_projection(self):
        rng = random.Random(7)
        sp = random_tree_space(rng)
        v = np.array([rng.gauss(0, 1) for _ in range(sp.n_leaves)])
        for n in range(sp.depth + 1):
            once = cond_expect(sp, v, n)
            assert np.allclose(cond_expect(sp, once, n), once, atol=1e-14)
        assert np.allclose(cond_expect(sp, v, sp.depth), v)


class TestExponent:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            Exponent((1.0, 0.0))

    def test_rejects_infinite_by_default(self):
        for vals in [(1.0, math.inf), (math.inf,), (math.inf, math.inf)]:
            with pytest.raises(ValidationError, match="finite"):
                Exponent(vals)
        with pytest.raises(TypeError):
            Exponent((1.0, 2.0), allow_infinite=True)

    def test_restricted_extrema(self):
        p = Exponent((1.0, 3.0, 2.0))
        assert p.p_minus() == 1.0
        assert p.p_plus([1, 2]) == 3.0
        assert p.p_minus([2]) == 2.0


# library entry points that take an exponent, each called on the 4-leaf
# dyadic space with the given exponent in one exponent slot
_V4 = (1.0, -1.0, 2.0, -2.0)
EXPONENT_ENTRY_POINTS = {
    "bmo_norm": lambda sp, p: bmo_norm(martingale_from_terminal(sp, _V4), p),
    "lipschitz_norm": lambda sp, p: lipschitz_norm(
        martingale_from_terminal(sp, _V4), 2.0, p
    ),
    "condition_k": condition_k,
    "aoyama_c": aoyama_c,
    "check_holder": lambda sp, p: check_holder(
        sp, _V4, _V4, constant_exponent(sp, 1.0), constant_exponent(sp, 2.0), p
    ),
    "weak_type_check": lambda sp, p: weak_type_check(
        martingale_from_terminal(sp, _V4), p
    ),
    "doob_strong_check": lambda sp, p: doob_strong_check(TrialConfig(sp, trials=2), p),
    "jn_equivalence": lambda sp, p: jn_equivalence(TrialConfig(sp, trials=2), p),
    "exp_jn_curve": lambda sp, p: exp_jn_curve(martingale_from_terminal(sp, _V4), p),
}


@pytest.mark.parametrize("vals", [
    (2.0, 2.0, 2.0), (1.5, 2.5, 2.0), (1.5, 2.5, 2.0, 3.0, 1.2),
])
@pytest.mark.parametrize("entry", sorted(EXPONENT_ENTRY_POINTS))
def test_entry_points_refuse_exponent_of_the_wrong_length(entry, vals):
    with pytest.raises(ValidationError, match="expected 4 "):
        EXPONENT_ENTRY_POINTS[entry](build_dyadic_space(2), Exponent(vals))


def _pairwise_condition_k(space, p):
    """Oracle: every pair {i, j}, i < j, scored by one numpy row per i;
    the first strictly larger value wins, so ties keep the
    lexicographically first pair.  (K, witness), or (1.0, (0,)) when no
    pair exceeds 1."""
    probs, pv = space.probs, p.vals
    best, witness = 1.0, (0,)
    for i in range(space.n_leaves - 1):
        vals = (probs[i] + probs[i + 1 :]) ** (-np.abs(pv[i] - pv[i + 1 :]))
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, witness = float(vals[j]), (i, i + 1 + j)
    return best, witness


# four leaves on which the pairs (0, 3) and (2, 3) both reach the largest
# value 4 exactly, from two lower-staircase leaves: leaf 2 is scored before
# leaf 0 in the first case and after it in the second
TIED_PAIRS = [
    ((0.125, 0.375, 0.375, 0.125), (2.0, 2.0, 1.0, 3.0)),
    ((0.375, 0.375, 0.125, 0.125), (1.0, 2.0, 2.0, 3.0)),
]


class TestConditionK:
    def test_constant_exponent_gives_one(self):
        sp = build_dyadic_space(3)
        res = condition_k(sp, constant_exponent(sp, 1.7))
        assert res.k == 1.0

    def test_two_leaf_spread_one(self, two_leaf):
        # the only set with exponent spread is the whole space, P = 1
        res = condition_k(two_leaf, Exponent((1.0, 2.0)))
        assert res.k == 1.0

    def test_four_leaf_witness(self, four_leaf):
        res = condition_k(four_leaf, Exponent((1.0, 1.0, 2.0, 2.0)))
        assert res.k == pytest.approx(2.0, rel=1e-14)
        i, j = res.witness
        assert float(four_leaf.probs[[i, j]].sum()) == 0.5

    def test_pairwise_matches_brute_force(self):
        rng = random.Random(101)
        for _ in range(60):
            sp = random_tree_space(rng, max_leaves=9)
            p = random_exponent(rng, sp.n_leaves, 0.4, 4.0)
            fast = condition_k(sp, p, mode="exact-pairwise").k
            slow = condition_k(sp, p, mode="brute-force").k
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_witness_reproduces_value(self):
        rng = random.Random(5)
        sp = random_tree_space(rng)
        p = random_exponent(rng, sp.n_leaves, 0.5, 3.5)
        res = condition_k(sp, p)
        idx = list(res.witness)
        spread = p.p_plus(idx) - p.p_minus(idx)
        assert res.k == pytest.approx(
            float(sp.probs[idx].sum()) ** (-spread), rel=1e-12
        )

    def test_permutation_invariance(self):
        rng = random.Random(17)
        sp = build_dyadic_space(2)
        p = random_exponent(rng, 4)
        perm = [2, 0, 3, 1]
        sp2 = validate_filtration(
            [[[perm.index(i) for i in range(4)]],
             [[perm.index(0), perm.index(1)], [perm.index(2), perm.index(3)]],
             [[0], [1], [2], [3]]],
            [sp.probs[perm.index(i)] for i in range(4)],
        )
        p2 = Exponent([p.vals[perm.index(i)] for i in range(4)])
        assert condition_k(sp, p).k == pytest.approx(
            condition_k(sp2, p2).k, rel=1e-12
        )

    def test_block_restriction_never_exceeds_full(self):
        rng = random.Random(23)
        for _ in range(20):
            sp = random_tree_space(rng, max_leaves=8)
            p = random_exponent(rng, sp.n_leaves, 0.8, 3.0)
            blocks = condition_k(sp, p, subsets="blocks").k
            full = condition_k(sp, p).k
            assert blocks <= full + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           max_leaves=st.integers(min_value=2, max_value=40),
           probs=st.sampled_from(["random", "uniform"]),
           values=st.sampled_from(["iid", "repeated", "constant"]))
    def test_staircase_matches_pairwise_and_brute_force(
        self, seed, max_leaves, probs, values
    ):
        rng = random.Random(seed)
        sp = random_tree_space(rng, max_leaves=max_leaves)
        n = sp.n_leaves
        if probs == "uniform":
            sp = validate_filtration(serialize.space_to_json(sp)["levels"],
                                     [1.0 / n] * n)
        if values == "iid":
            p = random_exponent(rng, n, 0.4, 4.0)
        elif values == "repeated":
            pool = [rng.uniform(0.4, 4.0) for _ in range(3)]
            p = Exponent([rng.choice(pool) for _ in range(n)])
        else:
            p = constant_exponent(sp, rng.uniform(0.4, 4.0))
        res = condition_k(sp, p)
        assert (res.k, res.witness) == _pairwise_condition_k(sp, p)
        if n <= 12:
            slow = condition_k(sp, p, mode="brute-force").k
            assert res.k == pytest.approx(slow, rel=1e-12)

    @pytest.mark.parametrize("budget", [1, 10**6])
    @pytest.mark.parametrize("probs, values", TIED_PAIRS)
    def test_tied_maximum_keeps_first_pair(self, monkeypatch, budget, probs, values):
        # with a budget of 1 byte each lower-staircase leaf is scored in its
        # own chunk
        monkeypatch.setattr(space_module, "BLOCK_BYTES", budget)
        sp = validate_filtration([[[0, 1, 2, 3]], [[0], [1], [2], [3]]], probs)
        p = Exponent(values)
        res = condition_k(sp, p)
        assert (res.k, res.witness) == (4.0, (0, 3))
        assert _pairwise_condition_k(sp, p) == (4.0, (0, 3))

    def test_equal_points_keep_smallest_leaf(self):
        sp = build_dyadic_space(3)
        res = condition_k(sp, Exponent((2.0, 1.0) * 4))
        assert (res.k, res.witness) == (4.0, (0, 1))

    def test_two_antichains_score_in_several_chunks(self):
        # 2,048 leaves whose p falls as P grows (all on the lower
        # staircase) and 2,048 whose p grows with P (all on the upper one)
        m = 2048
        t = np.arange(m) / m
        probs = np.tile(1.0 + t, 2) / (2 * (1.0 + t).sum())
        n = 2 * m
        sp = validate_filtration([[list(range(n))], [[i] for i in range(n)]], probs)
        p = Exponent(np.concatenate([1.5 - t, 2.0 + t]))
        lower = space_module._staircase(sp.probs, p.vals)
        upper = space_module._staircase(sp.probs, -p.vals)
        assert (lower.size, upper.size) == (m, m)
        assert 8 * lower.size * upper.size > space_module.BLOCK_BYTES
        res = condition_k(sp, p)
        assert (res.k, res.witness) == _pairwise_condition_k(sp, p)

    @pytest.mark.parametrize("subsets", ["all", "blocks"])
    def test_unknown_mode_rejected(self, four_leaf, subsets):
        with pytest.raises(DomainError, match="unknown condition_k mode 'nonsense'"):
            condition_k(four_leaf, constant_exponent(four_leaf, 2.0),
                        mode="nonsense", subsets=subsets)

    def test_brute_force_leaf_cap(self):
        sp = build_dyadic_space(5)
        with pytest.raises(ResourceError):
            condition_k(sp, constant_exponent(sp, 2.0), mode="brute-force")

    def test_sum_closure_bound(self):
        rng = random.Random(31)
        for _ in range(50):
            sp = random_tree_space(rng, max_leaves=8)
            p = random_exponent(rng, sp.n_leaves, 1.1, 3.0)
            q = random_exponent(rng, sp.n_leaves, 1.1, 3.0)
            kp = condition_k(sp, p).k
            kq = condition_k(sp, q).k
            ks = condition_k(sp, exponent_algebra("sum", p, q)).k
            assert ks <= kp * kq + 1e-9

    def test_conjugate_closure_bound(self):
        rng = random.Random(37)
        for _ in range(50):
            sp = random_tree_space(rng, max_leaves=8)
            p = random_exponent(rng, sp.n_leaves, 1.2, 3.0)
            kp = condition_k(sp, p).k
            kc = condition_k(sp, exponent_algebra("conjugate", p)).k
            # chain bound through 1 - 1/p and reciprocal closure
            assert kc <= kp ** (1.0 / (p.p_minus() - 1.0) ** 2) + 1e-9


class TestAoyama:
    def test_constant_exponent(self):
        sp = build_dyadic_space(2)
        assert aoyama_c(sp, constant_exponent(sp, 2.5)) == 1.0

    def test_two_leaf_value(self, two_leaf):
        # E(1/p | trivial) = (1 + 1/2)/2 = 3/4, max of 1/p is 1
        assert aoyama_c(two_leaf, Exponent((1.0, 2.0))) == pytest.approx(
            4.0 / 3.0, rel=1e-14
        )

    def test_measurable_exponent_gives_one(self, four_leaf):
        # p constant on every level-1 block is still not F_0-measurable
        p = Exponent((2.0, 2.0, 3.0, 3.0))
        assert aoyama_c(four_leaf, p) > 1.0
        assert aoyama_c(four_leaf, constant_exponent(four_leaf, 3.0)) == 1.0

    def test_at_least_one(self):
        rng = random.Random(41)
        for _ in range(30):
            sp = random_tree_space(rng)
            assert aoyama_c(sp, random_exponent(rng, sp.n_leaves)) >= 1.0

    def test_matches_level_loop(self):
        # the per-level loop aoyama_c once ran, one conditional expectation
        # per level; the maximum is the same float
        rng = random.Random(43)
        spaces = [build_dyadic_space(d) for d in range(5)]
        spaces += [random_tree_space(rng) for _ in range(40)]
        for sp in spaces:
            p = random_exponent(rng, sp.n_leaves, 0.5, 4.0)
            recip = 1.0 / p.vals
            want = 1.0
            for n in range(sp.depth + 1):
                want = max(want, float(np.max(recip / cond_expect(sp, recip, n))))
            assert aoyama_c(sp, p) == want


class TestExponentAlgebra:
    def test_conjugate_of_two(self):
        p = exponent_algebra("conjugate", Exponent((2.0, 2.0)))
        assert p.vals.tolist() == [2.0, 2.0]

    def test_conjugate_swaps(self):
        p = exponent_algebra("conjugate", Exponent((1.5, 3.0)))
        assert p.vals.tolist() == pytest.approx([3.0, 1.5])

    def test_conjugate_identity(self):
        rng = random.Random(43)
        p = random_exponent(rng, 6, 1.2, 5.0)
        c = exponent_algebra("conjugate", p)
        assert np.allclose(1.0 / p.vals + 1.0 / c.vals, 1.0, atol=1e-12)

    def test_conjugate_needs_pminus_above_one(self):
        with pytest.raises(DomainError):
            exponent_algebra("conjugate", Exponent((1.0, 2.0)))

    def test_harmonic_sum(self):
        r = exponent_algebra(
            "harmonic-sum", Exponent((2.0, 2.0)), Exponent((2.0, 2.0))
        )
        assert r.vals.tolist() == [1.0, 1.0]

    def test_sum_and_reciprocal(self):
        p = exponent_algebra("sum", Exponent((1.0, 2.0)), Exponent((2.0, 1.0)))
        assert p.vals.tolist() == [3.0, 3.0]
        r = exponent_algebra("reciprocal", Exponent((2.0, 4.0)))
        assert r.vals.tolist() == [0.5, 0.25]


def _loop_validate(levels, leaf_probs):
    """The per-leaf loop validator the vectorized one replaced: the
    accepted (levels, leaf_probs), or ValidationError."""
    probs = tuple(float(p) for p in leaf_probs)
    n = len(probs)
    if n == 0:
        raise ValidationError("empty leaf set")
    for i, p in enumerate(probs):
        if not (p > 0):
            raise ValidationError(f"leaf_probs[{i}] = {p} is not positive")
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ValidationError("sum")
    if not levels:
        raise ValidationError("filtration must have at least one level")
    lv = tuple(
        tuple(tuple(int(i) for i in block) for block in level) for level in levels
    )
    for k, level in enumerate(lv):
        seen = set()
        for b, block in enumerate(level):
            if not block:
                raise ValidationError(f"level {k} block {b} is empty")
            for leaf in block:
                if leaf < 0 or leaf >= n:
                    raise ValidationError(
                        f"level {k} block {b} references unknown leaf {leaf}"
                    )
                if leaf in seen:
                    raise ValidationError(
                        f"level {k}: leaf {leaf} appears in two blocks"
                    )
                seen.add(leaf)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise ValidationError(f"level {k} does not cover leaves {missing}")
    for k in range(len(lv) - 1):
        parent_of = {}
        for b, block in enumerate(lv[k]):
            for leaf in block:
                parent_of[leaf] = b
        for b, block in enumerate(lv[k + 1]):
            parents = {parent_of[leaf] for leaf in block}
            if len(parents) > 1:
                raise ValidationError(
                    f"level {k + 1} block {b} crosses blocks {sorted(parents)} "
                    f"of level {k}: not a refinement"
                )
    if any(len(block) != 1 for block in lv[-1]):
        raise ValidationError("terminal level must be the discrete partition")
    return lv, probs


def _corrupt(levels, kind, rng):
    """One random corruption of nested-list levels, in place."""
    k = rng.randrange(len(levels))
    level = levels[k]
    full = [block for block in level if block]
    if not full:
        return
    if kind == "move":
        block = rng.choice(full)
        rng.choice(level).append(block.pop(rng.randrange(len(block))))
    elif kind == "duplicate":
        rng.choice(level).append(rng.choice(rng.choice(full)))
    elif kind == "drop":
        block = rng.choice(full)
        block.pop(rng.randrange(len(block)))
    elif kind == "cross" and k > 0 and len(full) > 1:
        b, c = rng.sample(full, 2)
        i, j = rng.randrange(len(b)), rng.randrange(len(c))
        b[i], c[j] = c[j], b[i]
    elif kind == "coarse-terminal" and len(levels) > 1:
        levels.pop()
    elif kind == "unsorted":
        for block in level:
            rng.shuffle(block)
    elif kind == "unknown":
        rng.choice(level).append(rng.choice([-1, sum(map(len, level))]))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       kinds=st.lists(st.sampled_from(
           ["none", "move", "duplicate", "drop", "cross", "coarse-terminal",
            "unsorted", "unknown"]), min_size=1, max_size=3))
def test_validator_matches_loop_oracle(seed, kinds):
    rng = random.Random(seed)
    sp = random_tree_space(rng)
    levels, probs = relabelled_levels(sp, rng)
    for kind in kinds:
        _corrupt(levels, kind, rng)
    try:
        want = _loop_validate(levels, probs)
    except ValidationError:
        with pytest.raises(ValidationError):
            validate_filtration(levels, probs)
        return
    got = validate_filtration(levels, probs)
    want_levels, want_probs = want
    assert serialize.space_to_json(got)["levels"] == [
        [sorted(b) for b in level] for level in want_levels
    ]
    assert got.probs.tolist() == list(want_probs)


@pytest.mark.parametrize("levels, probs, match", [
    ([[[0, 1]], [[0], [1]]], ["a", 0.5], "numbers"),
    ([[[0, 1]], [[0], [1]]], [[0.5], [0.5]], "flat"),
    ([[[0, "1"]], [[0], [1]]], [0.5, 0.5], "integers"),
    ([[[0, None]], [[0], [1]]], [0.5, 0.5], "integers"),
    (5, [0.5, 0.5], "list of levels"),
    ([[0, 1], [[0], [1]]], [0.5, 0.5], "not a list of blocks"),
    ([[[0, [1]]], [[0], [1]]], [0.5, 0.5], "not a list of blocks"),
    # leaf indices were once truncated: this read as leaves 0 and 1
    ([[[0, 1.9]], [[0], [1.2]]], [0.5, 0.5], "integers"),
    ([[[0, 1]], [[0.0], [1.0]]], [0.5, 0.5], "integers"),
    ([[[0, 1]], [[0], [math.nan]]], [0.5, 0.5], "integers"),
])
def test_rejects_malformed_filtration(levels, probs, match):
    with pytest.raises(ValidationError, match=match):
        validate_filtration(levels, probs)


@pytest.mark.parametrize("depth", range(0, 7))
def test_builders_match_validated_levels(depth):
    for arity in (2, 3):
        if arity**depth > 800:
            continue
        want = [
            [
                list(range(j * arity ** (depth - n), (j + 1) * arity ** (depth - n)))
                for j in range(arity**n)
            ]
            for n in range(depth + 1)
        ]
        n_leaves = arity**depth
        sp = build_mary_space(arity, depth)
        checked = validate_filtration(want, [1.0 / n_leaves] * n_leaves)
        assert sp == checked
        assert serialize.space_to_json(sp)["levels"] == want
        assert sp.probs.tolist() == [1.0 / n_leaves] * n_leaves
        if arity == 2:
            assert build_dyadic_space(depth) == checked


def _level_numbering_spaces():
    rng = random.Random(83)
    tree = random_tree_space(rng, max_leaves=9)
    return [build_dyadic_space(0), build_dyadic_space(3), build_mary_space(3, 2),
            tree, drop_root_level(tree),
            validate_filtration(*relabelled_levels(tree, rng))]


@pytest.mark.parametrize("sp", _level_numbering_spaces())
def test_level_slices_partition_the_block_numbering(sp):
    """The level slices tile 0..(all blocks) in level order, each as long
    as its level, and hold exactly the level-major ids of their level; the
    block probabilities are each level's own bincount, byte for byte, and
    so are the block sums of any rows from any start level, which are 0 on
    the levels below it.  The block arrays are read-only."""
    slices = sp.level_slices
    assert len(slices) == sp.depth + 1
    assert [s.stop - s.start for s in slices] == list(sp.n_blocks)
    assert slices[0].start == 0
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    ids, probs = sp.block_ids, sp.block_probs
    assert slices[-1].stop == probs.size
    for n, s in enumerate(slices):
        assert np.array_equal(np.unique(ids[n]), np.arange(s.start, s.stop))
        own = np.bincount(sp.block_of[n], weights=sp.probs)
        assert probs[s].tobytes() == own.tobytes()
    rows = np.random.default_rng(sp.n_leaves).normal(size=sp.block_of.shape)
    for start in range(sp.depth + 1):
        sums = sp.block_sums(rows[start:], start)
        assert sums.size == probs.size
        assert not sums[: slices[start].start].any()
        for n in range(start, sp.depth + 1):
            own = np.bincount(sp.block_of[n], weights=sp.probs * rows[n])
            assert sums[slices[n]].tobytes() == own.tobytes()
    for a in (ids, probs, *sp.block_cells):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]


def test_mary_byte_cap():
    # 3^20 leaves over 21 levels would need about 28 GB
    with pytest.raises(ResourceError):
        build_mary_space(3, 20)
    with pytest.raises(ResourceError):
        build_mary_space(10**9, 10**9)


class TestArrayFields:
    def test_space_stores_two_arrays(self):
        sp = build_dyadic_space(2)
        assert [f.name for f in fields(sp)] == ["probs", "block_of"]
        assert sp.block_of.dtype == np.intp and sp.probs.dtype == float
        assert not sp.block_of.flags.writeable and not sp.probs.flags.writeable
        assert sp.block_of.tolist() == [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]]
        assert sp.n_blocks == (1, 2, 4)

    def test_space_value_semantics(self):
        a, b = build_dyadic_space(2), build_mary_space(2, 2)
        assert a == b and a is not b
        assert a != build_dyadic_space(3)
        with pytest.raises(TypeError):
            hash(a)

    def test_exponent_stores_one_array(self):
        p = Exponent((1.0, 2.5))
        assert [f.name for f in fields(p)] == ["vals"]
        assert not p.vals.flags.writeable
        assert p.vals.tolist() == [1.0, 2.5]
        assert p == Exponent(np.array([1.0, 2.5]))
        assert p != Exponent((1.0, 2.0))
        with pytest.raises(TypeError):
            hash(p)

    @pytest.mark.parametrize("bad", [["a", 1.0], [[1.0], [2.0]], "ab", None])
    def test_exponent_rejects_non_numbers(self, bad):
        with pytest.raises(ValidationError):
            Exponent(bad)

    def test_extrema_accept_index_arrays(self):
        p = Exponent((1.0, 3.0, 2.0))
        assert p.p_minus(np.array([1, 2])) == 2.0
        assert p.p_plus((0, 2)) == 2.0


def test_block_condition_k_matches_block_loop():
    rng = random.Random(59)
    for _ in range(40):
        sp = random_tree_space(rng, max_leaves=10)
        p = random_exponent(rng, sp.n_leaves, 0.8, 3.0)
        best, witness = 1.0, (int(np.argmin(sp.probs)),)
        for bo, k in zip(sp.block_of, sp.n_blocks):
            for b in range(k):
                idx = np.flatnonzero(bo == b)
                spread = float(p.vals[idx].max() - p.vals[idx].min())
                val = float(sp.probs[idx].sum()) ** (-spread)
                if val > best:
                    best, witness = val, tuple(idx.tolist())
        res = condition_k(sp, p, subsets="blocks")
        assert res.k == pytest.approx(best, rel=1e-14)
        assert res.witness == witness
