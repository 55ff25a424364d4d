"""The stopping-time scan cached on the space: its bit packing, its oracle
equality with a fresh enumeration or sample, its read-only arrays, and that
warm and cold spaces give the same suprema while the cap is still checked
on every call."""

import random
from collections import Counter

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
from vexmart import bmo, martingale
from vexmart.bmo import candidate_matrix
from vexmart.martingale import enumerate_stopping_matrix, sample_stopping_matrix

from conftest import (
    drop_root_level,
    random_exponent,
    random_tree_space,
    relabelled_levels,
)


def centered(rng, space):
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(space.n_leaves)])
    return martingale_from_terminal(space, v - cond_expect(space, v, 0))


def test_flat_packing_matches_packbits_along_rows():
    rng = np.random.default_rng(0)
    for width in range(1, 41):
        for rows in (0, 1, 7, 50):
            m = rng.random((rows, width)) < 0.5
            want = np.packbits(m, axis=1)
            assert np.array_equal(bmo._packed_rows(m), want), (rows, width)
            # a non-contiguous view packs the same
            assert np.array_equal(bmo._packed_rows(np.asfortranarray(m)), want)


def _fresh_exhaustive(sp):
    taus = enumerate_stopping_matrix(sp)
    return taus[np.isfinite(taus).any(axis=1)]


def _fresh_sampled(sp, samples, seed):
    levels = np.arange(sp.depth + 1, dtype=float)[:, None]
    rows = np.vstack([
        sample_stopping_matrix(sp, samples, seed),
        np.broadcast_to(levels, (sp.depth + 1, sp.n_leaves)),
    ])
    taus = np.unique(rows, axis=0)
    return taus[np.isfinite(taus).any(axis=1)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       samples=st.sampled_from([1, 2, 16, 64]))
def test_cached_scans_match_fresh_enumeration_and_sampling(seed, samples):
    rng = random.Random(seed)
    tree = random_tree_space(rng, max_leaves=8)
    sp = validate_filtration(*relabelled_levels(tree, rng))
    want = {"exhaustive": _fresh_exhaustive(sp),
            "sampled": _fresh_sampled(sp, samples, seed)}
    for _ in range(2):  # cold, then from the cache
        for mode, taus in want.items():
            scan = candidate_matrix(sp, mode, seed=seed, samples=samples)
            assert scan.mode == mode
            assert np.array_equal(scan.taus, taus)
            assert np.array_equal(scan.finite, np.isfinite(taus))
            _, first, which = np.unique(
                scan.finite, axis=0, return_index=True, return_inverse=True
            )
            assert np.array_equal(scan.first, first)
            assert np.array_equal(scan.which, which.ravel())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_exhaustive_masks_are_every_nonempty_subset_by_code(seed):
    """The exhaustive scan's distinct {tau < inf} masks, their bits read as
    a binary number with leaf 0 on top, are 1, 2, ..., 2**n - 1 in order:
    tau = N on any leaf subset is a stopping time."""
    rng = random.Random(seed)
    tree = random_tree_space(rng, max_leaves=8)
    relabelled = validate_filtration(*relabelled_levels(tree, rng))
    for sp in (tree, relabelled, drop_root_level(tree)):
        scan = candidate_matrix(sp, "exhaustive")
        n = sp.n_leaves
        codes = scan.finite[scan.first] @ (1 << np.arange(n - 1, -1, -1))
        assert np.array_equal(codes, np.arange(1, 2**n))


def test_cached_scan_arrays_are_read_only():
    sp = build_dyadic_space(2)
    for scan in (candidate_matrix(sp, "exhaustive"),
                 candidate_matrix(sp, "sampled", samples=8)):
        for a in (scan.taus, scan.finite, scan.first, scan.which):
            corner = (0,) * a.ndim
            with pytest.raises(ValueError):
                a[corner] = a[corner]


def _all_results(sp, seed):
    """Every scan-reading call once, on a martingale and exponent drawn
    from ``seed``, with the bmo and Lipschitz norms in all three modes."""
    rng = random.Random(seed)
    f = centered(rng, sp)
    p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
    alpha = [rng.uniform(0.0, 0.5) for _ in range(sp.n_leaves)]
    out = []
    for mode in ("auto", "exhaustive", "sampled"):
        out.append(bmo_norm(f, p, mode=mode, seed=seed % 3, samples=32))
        out.append(lipschitz_norm(f, 2.0, alpha, mode=mode, seed=seed % 3, samples=32))
    out.append(exp_jn_curve(f, p))
    out.append(jn_equivalence(TrialConfig(sp, seed=seed, trials=3), p))
    return out


@pytest.mark.parametrize("make", [
    lambda: build_dyadic_space(3),
    lambda: random_tree_space(random.Random(5), max_leaves=9),
])
def test_warm_space_gives_the_cold_results(make):
    """A space warmed by calls with other martingales, exponents, modes and
    sample seeds returns, call for call, what a fresh space returns: no
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
    cached = candidate_matrix(sp, "exhaustive")
    assert bmo_norm(f, p).mode == "exhaustive"
    monkeypatch.setattr(bmo, "ENUMERATION_CAP", count_stopping_times(sp) - 1)
    for call in (lambda: bmo_norm(f, p, mode="exhaustive"),
                 lambda: lipschitz_norm(f, 2.0, [0.5] * 8, mode="exhaustive"),
                 lambda: exp_jn_curve(f, p),
                 lambda: jn_equivalence(TrialConfig(sp, trials=2), p)):
        with pytest.raises(ResourceError, match="exhaustive mode refused"):
            call()
    assert bmo_norm(f, p).mode == "sampled"
    assert lipschitz_norm(f, 2.0, [0.5] * 8).mode == "sampled"
    monkeypatch.undo()
    assert candidate_matrix(sp) is cached


def test_second_call_enumerates_samples_and_walks_nothing(monkeypatch):
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(martingale, "_path_counts")
    counting(bmo, "enumerate_stopping_matrix")
    counting(bmo, "sample_stopping_matrix")
    small, large = build_dyadic_space(3), build_dyadic_space(6)

    def calls_on(seed):
        rng = random.Random(seed)
        f, g = centered(rng, small), centered(rng, large)
        p = random_exponent(rng, small.n_leaves)
        q = random_exponent(rng, large.n_leaves)
        bmo_norm(f, p)
        lipschitz_norm(f, 2.0, [0.5] * 8, mode="sampled")
        exp_jn_curve(f, p)
        jn_equivalence(TrialConfig(small, seed=seed, trials=2), p)
        bmo_norm(g, q)  # over the cap: sampled
        return count_stopping_times(small), count_stopping_times(large)

    counts = calls_on(0)
    # one count walk per space; the enumeration walks no paths
    assert calls == {"_path_counts": 2, "enumerate_stopping_matrix": 1,
                     "sample_stopping_matrix": 2}
    calls.clear()
    assert calls_on(1) == counts
    assert not calls
    # only the total is kept, never the per-position path counts
    assert type(small._scan_cache["count"]) is int
    assert not any(isinstance(v, list) for v in small._scan_cache.values())
