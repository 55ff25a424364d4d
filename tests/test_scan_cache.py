"""The stopping-time data cached on the space: the exhaustive scan's oracle
equality with a fresh enumeration, the grouping of the (level, leaf)
cells by block against the rows of every single block, their cells in
the table of stopped differences, their read-only arrays, and that warm
and cold spaces give the same suprema while the cap is still checked on
every call.  The indicator norms each space keeps per exponent, for one
mask, for every leaf subset by code and for the blocks: equal bit for bit
to a fresh solve on their own path, read-only, never solved twice and
bounded by bytes."""

import itertools
import math
import operator
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexmart import (
    ResourceError,
    TrialConfig,
    bmo_norm,
    build_dyadic_space,
    cond_expect,
    count_stopping_times,
    exp_jn_curve,
    jn_equivalence,
    lipschitz_norm,
    martingale_from_terminal,
    validate_filtration,
)
from vexmart import bmo, experiments, martingale, varlp
from vexmart.bmo import candidate_matrix
from vexmart.martingale import enumerate_stopping_matrix, stopped_terminal_diffs
from vexmart.varlp import (
    block_norms, indicator_norm, kept_block_norms, kept_indicator_norms, kept_subset_norms,
    norm_batch,
)

from conftest import (
    drop_root_level,
    random_exponent,
    random_tree_space,
    relabelled_levels,
    scan_levels,
    stopped_diffs_oracle,
)


def centered(rng, space):
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(space.n_leaves)])
    return martingale_from_terminal(space, v - cond_expect(space, v, 0))


def _fresh_exhaustive(sp):
    taus = enumerate_stopping_matrix(sp)
    return taus[np.isfinite(taus).any(axis=1)]


def _fresh_blocks(sp):
    """One row per block, level 0 first: its level on the block's leaves
    and never elsewhere."""
    return np.array([np.where(sp.block_of[n] == b, float(n), math.inf)
                     for n in range(sp.depth + 1) for b in range(sp.n_blocks[n])])


def _block_groups(sp):
    """The cells of each block, level-major, as the kept grouping lists
    them."""
    order, starts = sp.block_cells
    return np.split(order, starts[1:])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_cached_scans_match_fresh_enumeration_and_block_rows(seed):
    """The exhaustive scan is a fresh enumeration's rows, and the grouping
    of the cells by block holds, per block, the cells that its single-block
    row stops on (tau = n on the block's leaves), in leaf order: cold, then
    from the cache."""
    rng = random.Random(seed)
    tree = random_tree_space(rng, max_leaves=8)
    sp = validate_filtration(*relabelled_levels(tree, rng))
    taus, rows = _fresh_exhaustive(sp), _fresh_blocks(sp)
    n = sp.n_leaves
    for _ in range(2):
        scan = candidate_matrix(sp)
        assert np.array_equal(scan_levels(scan, sp.depth), taus)
        # each row's finite leaves read as a binary number, leaf 0 on top
        codes = [int("".join("1" if t < math.inf else "0" for t in row), 2) for row in taus]
        assert scan.codes.tolist() == codes
        groups = _block_groups(sp)
        assert len(groups) == len(rows)
        for cells, row in zip(groups, rows):
            leaves = np.flatnonzero(np.isfinite(row))
            assert np.array_equal(cells, row[leaves].astype(int) * n + leaves)
    assert sp.block_cells is sp.block_cells


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_cells_gather_each_rows_own_differences(seed):
    """On random trees, relabelled ones and ones without their root level,
    for both shifts: the table of stopped differences gathered at the
    exhaustive scan's cells, and at each block's grouped cells, is, byte for
    byte, the differences of the freshly made rows taken one row at a time
    (for a block, on its leaves), and the witness the scan rebuilds for
    each row is that row."""
    rng = random.Random(seed)
    tree = random_tree_space(rng, max_leaves=7)
    relabelled = validate_filtration(*relabelled_levels(tree, rng))
    for sp in (tree, relabelled, drop_root_level(tree)):
        f = centered(rng, sp)
        taus, rows = _fresh_exhaustive(sp), _fresh_blocks(sp)
        scan = candidate_matrix(sp)
        for shift in ("none", "minus-one"):
            table = stopped_terminal_diffs(f, shift)
            got = np.take(table, scan.cells)
            assert got.tobytes() == stopped_diffs_oracle(f, taus, shift).tobytes()
            want = stopped_diffs_oracle(f, rows, shift)
            for cells, row, diffs in zip(_block_groups(sp), rows, want):
                assert np.take(table, cells).tobytes() == diffs[np.isfinite(row)].tobytes()
        for i, row in enumerate(taus):
            assert np.array_equal(bmo._sup_result(scan, 0.0, i).argmax_tau.vals, row)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_exhaustive_masks_are_every_nonempty_subset_by_code(seed):
    """The exhaustive scan's distinct {tau < inf} codes, the masks' bits
    read as a binary number with leaf 0 on top, are 1, 2, ..., 2**n - 1:
    tau = N on any leaf subset is a stopping time.  The kept subset norms
    read 0 at code 0 and at every code c the norm of mask c."""
    rng = random.Random(seed)
    tree = random_tree_space(rng, max_leaves=8)
    relabelled = validate_filtration(*relabelled_levels(tree, rng))
    for sp in (tree, relabelled, drop_root_level(tree)):
        n = sp.n_leaves
        assert np.array_equal(np.unique(candidate_matrix(sp).codes), np.arange(1, 2**n))
        p = random_exponent(rng, n, 0.5, 4.0).vals
        norms = kept_subset_norms(sp, p)
        assert norms.shape == (2**n,) and norms[0] == 0.0
        for c in range(1, 2**n):
            mask = np.array([c >> (n - 1 - x) & 1 for x in range(n)], dtype=bool)
            want = indicator_norm(sp.probs, p, mask)
            assert abs(norms[c] - want) <= 1e-14 * want


def test_cached_scan_arrays_are_read_only():
    sp = build_dyadic_space(2)
    p = np.array([1.5, 2.5, 1.2, 3.0])
    scan = candidate_matrix(sp)
    # the subset and block norms as solved, then as kept
    solved = kept_subset_norms(sp, p), kept_block_norms(sp, p)
    kept = kept_subset_norms(sp, p), kept_block_norms(sp, p)
    assert all(map(operator.is_, kept, solved))
    for a in (scan.cells, scan.codes, *sp.block_cells, *kept):
        corner = (0,) * a.ndim
        with pytest.raises(ValueError):
            a[corner] = a[corner]


def _all_results(sp, seed):
    """Every scan-reading call once, on a martingale and exponent drawn
    from ``seed``, with the bmo and Lipschitz norms on the exhaustive scan
    and, with the cap at 0, from the single-block pass."""
    rng = random.Random(seed)
    f = centered(rng, sp)
    p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
    alpha = [rng.uniform(0.0, 0.5) for _ in range(sp.n_leaves)]
    out = []
    for cap in (bmo.ENUMERATION_CAP, 0):
        with mock.patch.object(bmo, "ENUMERATION_CAP", cap):
            out.append(bmo_norm(f, p))
            out.append(lipschitz_norm(f, 2.0, alpha))
    out.append(exp_jn_curve(f, p))
    out.append(jn_equivalence(TrialConfig(sp, seed=seed, trials=3), p))
    return out


@pytest.mark.parametrize("make", [
    lambda: build_dyadic_space(3),
    lambda: random_tree_space(random.Random(5), max_leaves=9),
])
def test_warm_space_gives_the_cold_results(make):
    """A space warmed by calls with other martingales, exponents and scans
    returns, call for call, what a fresh space returns: no
    exponent- or martingale-dependent value leaks between calls."""
    warm = make()
    for seed in (11, 12, 13):
        _all_results(warm, seed)
    for seed in (1, 2):
        cold = _all_results(make(), seed)
        assert _all_results(warm, seed) == cold
    assert warm == make()


def test_cap_is_checked_on_every_call(monkeypatch):
    sp = build_dyadic_space(3)
    rng = random.Random(3)
    f = centered(rng, sp)
    p = random_exponent(rng, sp.n_leaves)
    cached = candidate_matrix(sp)
    assert bmo_norm(f, p).mode == "exhaustive"
    monkeypatch.setattr(bmo, "ENUMERATION_CAP", count_stopping_times(sp) - 1)
    for call in (lambda: bmo_norm(f, p, mode="exhaustive"),
                 lambda: lipschitz_norm(f, 2.0, [0.5] * 8, mode="exhaustive"),
                 lambda: exp_jn_curve(f, p),
                 lambda: jn_equivalence(TrialConfig(sp, trials=2), p)):
        with pytest.raises(ResourceError, match="exhaustive mode refused"):
            call()
    assert bmo_norm(f, p).mode == "block-lower"
    # a constant alpha takes the block maximum, which has no cap
    assert lipschitz_norm(f, 2.0, [0.5, 0.25] * 4).mode == "block-lower"
    assert lipschitz_norm(f, 2.0, [0.5] * 8).mode == "dp"
    monkeypatch.undo()
    assert candidate_matrix(sp) is cached


def test_second_call_enumerates_and_walks_nothing(monkeypatch):
    """A warm call builds no scan and no grouping of the cells by block,
    and solves no denominator again: neither the subset norms nor the
    block norms of an exponent the space keeps.  With a variable exponent,
    exp_jn_curve and jn_equivalence scan for it alone: ||f||_{BMO_1} is a
    block maximum, so no numerator is solved with a constant exponent."""
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(martingale, "_count_walk")
    counting(bmo, "enumerate_stopping_matrix")
    counting(bmo.StoppingScan, "of")
    mask_solves = Counter()
    solve, solve_blocks = varlp.norm_batch, varlp.block_norms

    def counted_solve(probs, pvals, rows):
        mask_solves[pvals.tobytes()] += 1
        return solve(probs, pvals, rows)

    def counted_block_solve(space, table, pvals):
        mask_solves[pvals.tobytes()] += 1
        return solve_blocks(space, table, pvals)

    # the store's one batch solve of the subsets, and its one block pass
    # on a table of ones; bmo's own block pass, its numerators, is not one
    monkeypatch.setattr(varlp, "norm_batch", counted_solve)
    monkeypatch.setattr(varlp, "block_norms", counted_block_solve)
    ratio_pvals = []
    for module in (bmo, experiments):
        def counted_ratio(probs, pvals, *rest, ratio=module.max_norm_ratio):
            ratio_pvals.append(pvals)
            return ratio(probs, pvals, *rest)

        monkeypatch.setattr(module, "max_norm_ratio", counted_ratio)
    small, large = build_dyadic_space(3), build_dyadic_space(6)

    def calls_on(seed):
        rng = random.Random(seed)
        f, g = centered(rng, small), centered(rng, large)
        p = random_exponent(rng, small.n_leaves)
        q = random_exponent(rng, large.n_leaves)
        bmo_norm(f, p)
        ratio_pvals.clear()
        exp_jn_curve(f, p)
        jn_equivalence(TrialConfig(small, seed=seed, trials=2), p)
        assert ratio_pvals
        assert not any((v == v[0]).all() for v in ratio_pvals)
        # over the cap: the single-block pass
        lipschitz_norm(g, 2.0, [0.5, 0.25] * 32)
        bmo_norm(g, q)
        return count_stopping_times(small), count_stopping_times(large)

    counts = calls_on(0)
    # one count walk per space; the enumeration walks no paths, the small
    # space builds one scan, and the large one groups its cells once, kept
    # on the space (``block_cells``) from then on
    assert calls == {"_count_walk": 2, "enumerate_stopping_matrix": 1, "of": 1}
    grouping = large.block_cells
    # the subsets of p for the exhaustive scan (then kept for exp_jn_curve
    # and jn_equivalence), the blocks of 1/alpha and of q; p = 1 solves none
    assert sorted(mask_solves.values()) == [1, 1, 1]
    calls.clear()
    mask_solves.clear()
    assert calls_on(1) == counts
    assert not calls
    # only the new p and q
    assert sorted(mask_solves.values()) == [1, 1]
    mask_solves.clear()
    # the same exponents again: nothing is solved twice
    assert calls_on(1) == counts
    assert not calls and not mask_solves
    assert large.block_cells is grouping
    # only the total is kept, never the per-block counts
    assert type(small._scan_cache["count"]) is int
    assert not any(isinstance(v, list) for v in small._scan_cache.values())


def _fresh(sp, pvals, mask=None):
    """What the store solves: for one mask, ``indicator_norm`` on it; for
    None, the subset family, 0 and then one ``norm_batch`` over the masks
    of codes 1, ..., 2**n - 1 in order, which ``itertools.product`` lists
    with leaf 0 varying slowest."""
    if mask is not None:
        return indicator_norm(sp.probs, pvals, mask)
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=sp.n_leaves))[1:])
    return np.concatenate(([0.0], norm_batch(sp.probs, pvals, masks)))


def _kept(sp, pvals, mask=None):
    """The kept norm of one mask, or for None of every leaf subset."""
    if mask is None:
        return kept_subset_norms(sp, pvals)
    return kept_indicator_norms(sp, pvals, mask)


@pytest.mark.parametrize("make", [
    lambda: build_dyadic_space(3),
    lambda: random_tree_space(random.Random(7), max_leaves=9),
    lambda: random_tree_space(random.Random(8), max_leaves=9),
])
def test_kept_mask_norms_equal_fresh_solves(make):
    """Calls with a constant, a variable, the unit and a Lipschitz exponent
    1/alpha with the finite value lipschitz_norm puts on {alpha = 0},
    interleaved on the subset family, the single blocks' masks and the
    block family, each return exactly what a fresh solve returns."""
    sp = make()
    n = sp.n_leaves
    rng = random.Random(n)
    alpha = np.array([0.0 if i % 3 == 0 else rng.uniform(0.1, 0.5) for i in range(n)])
    exponents = [
        np.full(n, 2.0),
        random_exponent(rng, n, 1.0, 3.0).vals,
        np.ones(n),
        1.0 / np.where(alpha > 0, alpha, alpha.max()),
        random_exponent(rng, n, 0.5, 4.0).vals,
    ]
    masks = [None, *np.isfinite(_fresh_blocks(sp))]
    ones = np.ones(sp.block_of.shape)
    for _ in range(3):
        for pvals in rng.sample(exponents, len(exponents)):
            for m in masks:
                assert np.array_equal(_kept(sp, pvals, m), _fresh(sp, pvals, m))
            got = kept_block_norms(sp, pvals)
            assert np.array_equal(got, block_norms(sp, ones, pvals))


def _held_bytes(sp):
    """The bytes of the norms kept on the space, counted from the store."""
    over = varlp._ENTRY_BYTES
    return sum(
        over + len(pkey) + sum(over + len(bits) + 8 * np.size(norm)
                               for (_, bits), norm in norms.items())
        for pkey, norms in sp._kept_norms[1].items()
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       budget=st.sampled_from([0, 600, varlp._KEPT_NORM_BUDGET]))
def test_kept_indicator_norms_equal_fresh_solves(seed, budget):
    """On a tree or a forest, calls with single masks and with the subset
    family, interleaved over a constant, two variable, the unit and a
    Lipschitz exponent 1/alpha with the finite value lipschitz_norm puts on
    {alpha = 0}, each return exactly what a fresh solve on their path
    returns, across the clears that a budget of zero or a small one forces.
    Every kept value is that fresh solve, arrays are read-only, and the
    held bytes are the kept entries' and within the budget."""
    rng = random.Random(seed)
    sp = random_tree_space(rng, max_leaves=9)
    if rng.random() < 0.5:
        sp = drop_root_level(sp)
    n = sp.n_leaves
    alpha = np.array([0.0 if i % 3 == 0 else rng.uniform(0.1, 0.5) for i in range(n)])
    exponents = [
        np.full(n, rng.uniform(0.3, 4.0)),
        random_exponent(rng, n, 1.0, 3.0).vals,
        random_exponent(rng, n, 0.3, 4.0).vals,
        np.ones(n),
        1.0 / np.where(alpha > 0, alpha, alpha.max()),
    ]
    masks = [np.array([rng.random() < 0.6 for _ in range(n)]) for _ in range(4)]
    masks += [None, *np.isfinite(_fresh_blocks(sp))[:2]]
    with mock.patch.object(varlp, "_KEPT_NORM_BUDGET", budget):
        for _ in range(40):
            pvals, m = rng.choice(exponents), rng.choice(masks)
            got, want = _kept(sp, pvals, m), _fresh(sp, pvals, m)
            if m is not None:
                assert type(got) is float and got.hex() == want.hex()
            else:
                assert np.array_equal(got, want) and not got.flags.writeable
            held, kept = sp._kept_norms
            assert held == _held_bytes(sp) <= budget
            for pkey, norms in kept.items():
                for key, norm in norms.items():
                    m = None
                    if key != ("subsets", b""):
                        (size,), bits = key
                        m = np.unpackbits(np.frombuffer(bits, np.uint8), count=size)
                        m = m.astype(bool)
                    assert np.array_equal(norm, _fresh(sp, np.frombuffer(pkey), m))


def test_kept_mask_norms_stay_under_the_byte_budget(monkeypatch):
    """Under a budget of three exponents' subset entries, a fourth exponent
    gives up every kept norm at once and is then kept alone; a norm given
    up solves again to the same bits, and one larger than the whole budget
    is not kept and leaves the store empty.  The held bytes are the kept
    entries' after every miss and clear."""
    sp = build_dyadic_space(2)
    exponents = [np.full(4, 1.0 + k / 4) for k in range(6)]
    entry = 2 * varlp._ENTRY_BYTES + exponents[0].nbytes + 8 * 2**sp.n_leaves
    budget = 3 * entry + entry // 2
    monkeypatch.setattr(varlp, "_KEPT_NORM_BUDGET", budget)
    first = []
    for k, pvals in enumerate(exponents):
        first.append(kept_subset_norms(sp, pvals))
        held, kept = sp._kept_norms
        assert held == _held_bytes(sp) <= budget
        assert list(kept) == [e.tobytes() for e in exponents[k - k % 3 : k + 1]]
    again = kept_subset_norms(sp, exponents[0])
    assert again is not first[0]
    assert np.array_equal(again, first[0])
    assert list(sp._kept_norms[1]) == [exponents[0].tobytes()]
    assert sp._kept_norms[0] == _held_bytes(sp) == entry

    monkeypatch.setattr(varlp, "_KEPT_NORM_BUDGET", entry - 1)
    fresh = build_dyadic_space(2)
    got = kept_subset_norms(fresh, exponents[1])
    assert np.array_equal(got, first[1])
    assert fresh._kept_norms == [0, {}]


def test_a_mask_and_the_subset_family_keep_their_own_entries():
    """A mask and the subset family are two keys under one exponent: each
    call returns its own path's value, in either order, although the two
    paths differ in the last bits on some sets."""
    rng = random.Random(29)
    differ = 0
    for trial in range(200):
        sp = random_tree_space(rng, max_leaves=9)
        n = sp.n_leaves
        pvals = random_exponent(rng, n, 0.3, 4.0).vals
        mask = np.array([rng.random() < 0.6 for _ in range(n)])
        calls = [mask, None] if trial % 2 else [None, mask]
        for _ in range(2):
            for m in calls:
                assert np.array_equal(_kept(sp, pvals, m), _fresh(sp, pvals, m))
        assert len(sp._kept_norms[1][pvals.tobytes()]) == 2
        code = int(mask @ (1 << np.arange(n - 1, -1, -1)))
        differ += kept_indicator_norms(sp, pvals, mask) != kept_subset_norms(sp, pvals)[code]
    assert differ


def test_an_exponent_is_held_once_for_all_its_entries():
    """Single masks and the subset family under one exponent sit under one
    exponent key, whose bytes the held total counts once."""
    sp = build_dyadic_space(3)
    pvals = random_exponent(random.Random(31), sp.n_leaves).vals
    masks = np.isfinite(_fresh_blocks(sp))
    for m in (None, masks[0], masks[-1], masks[1]):
        _kept(sp, pvals, m)
    held, kept = sp._kept_norms
    assert list(kept) == [pvals.tobytes()]
    assert len(kept[pvals.tobytes()]) == 4
    assert held == _held_bytes(sp)


def test_each_space_clears_only_its_own_norms(monkeypatch):
    """The budget is per space: a space that passes it gives up its own
    norms and leaves another space's kept."""
    a, b = build_dyadic_space(2), build_dyadic_space(2)
    pvals = [np.full(4, 1.0 + k / 4) for k in range(3)]
    mask = np.array([True, False, True, True])
    entry = 2 * varlp._ENTRY_BYTES + pvals[0].nbytes + 1 + 8
    monkeypatch.setattr(varlp, "_KEPT_NORM_BUDGET", 2 * entry)
    kept_b = kept_indicator_norms(b, pvals[0], mask)
    for p in pvals:
        kept_indicator_norms(a, p, mask)
    assert list(a._kept_norms[1]) == [pvals[2].tobytes()]
    key = ((4,), np.packbits(mask).tobytes())
    assert b._kept_norms == [entry, {pvals[0].tobytes(): {key: kept_b}}]
