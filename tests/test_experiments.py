import json
import math
import random

import numpy as np
import pytest

from vexmart import (
    DomainError,
    Exponent,
    NumericalError,
    ResourceError,
    TrialConfig,
    ValidationError,
    build_dyadic_space,
    cond_expect,
    constant_exponent,
    default_test_matrix,
    doob_strong_check,
    exp_jn_curve,
    generate_exponent,
    generate_martingale,
    jn_equivalence,
    lemma34_check,
    make_martingale,
    martingale_from_terminal,
    maximal,
    modular,
    nakai_sadasue,
    violation_33_search,
    weak_type_check,
)
from vexmart import bmo_norm, condition_k, luxemburg_norm, validate_filtration
from vexmart import bmo, experiments, serialize
from vexmart.cli import run
from vexmart.experiments import _ns_h, default_lambda_grid
from vexmart.martingale import enumerate_stopping_matrix, stopped_terminal_diffs

from conftest import random_exponent, random_tree_space, relabelled_levels


def config(depth=3, **kw):
    return TrialConfig(space=build_dyadic_space(depth), **kw)


class TestConfigAndGenerators:
    def test_rejects_bad_trials(self):
        with pytest.raises(ValidationError):
            config(trials=0)

    def test_rejects_bad_range(self):
        with pytest.raises(ValidationError):
            config(p_range=(2.0, 1.0))

    def test_rejects_unknown_laws(self):
        with pytest.raises(ValidationError):
            config(exponent_law="gamma")
        with pytest.raises(ValidationError):
            config(martingale_law="cauchy")

    def test_same_seed_same_martingale(self):
        a = generate_martingale(config(seed=9), 4)
        b = generate_martingale(config(seed=9), 4)
        assert a.levels == b.levels
        c = generate_martingale(config(seed=10), 4)
        assert a.levels != c.levels

    def test_two_point_centering_exact(self):
        cfg = config(depth=4, seed=3, martingale_law="two-point")
        f = generate_martingale(cfg, 0)
        assert np.all(f.arrays[0] == 0.0)

    def test_generated_passes_invariants(self):
        for law in ("normal", "uniform", "two-point"):
            cfg = config(depth=6, seed=1, martingale_law=law)
            f = generate_martingale(cfg, 2)
            make_martingale(f.space, [tuple(r) for r in f.arrays])

    def test_exponent_laws(self):
        sp = build_dyadic_space(3)
        for law in ("constant", "two-block", "iid-uniform", "block-structured"):
            p = generate_exponent(sp, law, (1.1, 3.0), seed=5)
            assert p.p_minus() >= 1.1 and p.p_plus() <= 3.0
            assert p.values == generate_exponent(sp, law, (1.1, 3.0), seed=5).values

    def test_default_matrix_shape(self):
        rows = default_test_matrix()
        assert len(rows) == 21
        labels = {label for label, _, _ in rows}
        assert "dyadic-6/iid-uniform" in labels and "3ary-2/constant" in labels


class TestWeakType:
    def test_grid_above_max_gives_zero(self):
        f = generate_martingale(config(seed=2), 0)
        p = constant_exponent(f.space, 2.0)
        big = float(maximal(f).max()) * 2.0
        rep = weak_type_check(f, p, [big])
        assert rep.ratios == (0.0,)

    def test_two_leaf_hand_value(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        p = constant_exponent(two_leaf, 2.0)
        rep = weak_type_check(f, p, [0.5])
        assert rep.ratios[0] == pytest.approx(0.25, rel=1e-12)

    def test_constant_exponent_first_passage(self):
        rng = random.Random(7)
        for _ in range(30):
            cfg = config(depth=4, seed=rng.randint(0, 10**6))
            f = generate_martingale(cfg, 0)
            p = constant_exponent(f.space, rng.uniform(1.0, 3.0))
            rep = weak_type_check(f, p)
            assert all(r <= 1.0 + 1e-9 for r in rep.ratios)

    def test_joint_scale_invariance(self):
        cfg = config(seed=11)
        f = generate_martingale(cfg, 0)
        p = generate_exponent(f.space, "iid-uniform", (1.1, 3.0), 1)
        grid = default_lambda_grid(f)
        base = weak_type_check(f, p, grid).ratios
        c = 3.7
        scaled = weak_type_check(f.scaled(c), p, [c * t for t in grid]).ratios
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_rejects_nonpositive_lambda(self, two_leaf):
        f = martingale_from_terminal(two_leaf, (1.0, -1.0))
        with pytest.raises(DomainError):
            weak_type_check(f, constant_exponent(two_leaf, 2.0), [0.0])

    def test_witness_replays(self):
        cfg = config(seed=13)
        f = generate_martingale(cfg, 0)
        p = generate_exponent(f.space, "iid-uniform", (1.1, 3.0), 2)
        rep = weak_type_check(f, p)
        w = rep.witness
        g = martingale_from_terminal(f.space, w["terminal"])
        mf = maximal(g)
        pa = float(f.space.probs[mf > w["lambda"]].sum())
        rho = modular(f.space, g.terminal, Exponent(tuple(w["exponent"])),
                      w["lambda"])
        assert pa / rho == pytest.approx(w["ratio"], rel=1e-9)


class TestDoobStrong:
    def test_rejects_small_exponent(self):
        cfg = config()
        with pytest.raises(DomainError):
            doob_strong_check(cfg, constant_exponent(cfg.space, 1.0))

    def test_classical_l2_bound(self):
        cfg = config(depth=4, seed=5, trials=50)
        rep = doob_strong_check(cfg, constant_exponent(cfg.space, 2.0))
        assert rep.max_ratio <= 2.0 + 1e-9
        assert rep.quantiles["q100"] <= rep.max_ratio

    def test_variable_exponent_envelope_finite(self):
        cfg = config(depth=3, seed=6, trials=30)
        p = generate_exponent(cfg.space, "iid-uniform", (1.3, 2.5), 3)
        rep = doob_strong_check(cfg, p)
        assert 1.0 <= rep.max_ratio < math.inf
        assert rep.details["condition_k"] >= 1.0


class TestLemma34:
    def test_zero_function(self, four_leaf):
        p = random_exponent(random.Random(1), 4)
        rep = lemma34_check((0.0,) * 4, p, four_leaf)
        assert rep.max_ratio <= 1.0

    def test_constant_exponent(self, four_leaf):
        rep = lemma34_check(
            (1.0, -2.0, 0.5, 3.0), constant_exponent(four_leaf, 2.0), four_leaf
        )
        assert rep.max_ratio <= 1.0 + 1e-9

    def test_random_sweep_with_rescale(self):
        rng = random.Random(3)
        sp = build_dyadic_space(3)
        for _ in range(50):
            p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
            f = [rng.gauss(0, 5) for _ in range(sp.n_leaves)]
            rep = lemma34_check(f, p, sp)
            assert rep.max_ratio <= 1.0 + 1e-9
            assert 0 < rep.details["rescale"] <= 1.0


def test_lemma34_refuses_matrix_over_byte_cap(monkeypatch, tmp_path, capsys):
    sp = build_dyadic_space(4)
    p = random_exponent(random.Random(2), sp.n_leaves, 1.0, 3.0)
    f = [float(i % 3) for i in range(sp.n_leaves)]
    need = 8 * sp.n_leaves**2
    monkeypatch.setattr(experiments, "MAX_SPACE_BYTES", need)
    lemma34_check(f, p, sp)
    monkeypatch.setattr(experiments, "MAX_SPACE_BYTES", need - 1)
    with pytest.raises(ResourceError):
        lemma34_check(f, p, sp)
    paths = {}
    for name, obj in (("space", serialize.space_to_json(sp)),
                      ("exponent", {"values": p.vals.tolist()}),
                      ("function", {"values": f})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    code = run(["check", "lemma34", "--space", str(paths["space"]),
                "--exponent", str(paths["exponent"]),
                "--function", str(paths["function"])])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _lemma34_oracle(f, p, space):
    """Ratios and witness of lemma34_check by a loop over levels and
    leaves, each block sum taken over the block's own leaves."""
    fv = np.abs(np.asarray(f, dtype=float))
    norm = luxemburg_norm(space, fv, p).norm
    if norm > 0.5:
        fv = fv * (0.5 / norm)
    k = condition_k(space, p).k
    e = p.vals / p.p_minus()
    ratios, witness, best = [], None, -1.0
    for n, level in enumerate(space.levels):
        av = cond_expect(space, fv, n)
        for x in range(space.n_leaves):
            block = next(list(b) for b in level if x in b)
            avg_x = float(np.sum(space.probs[block] * fv[block] ** e[x])) / float(
                space.probs[block].sum()
            )
            ratio = av[x] ** e[x] / (k * (avg_x + 1.0))
            ratios.append(ratio)
            if ratio > best:
                best, witness = ratio, {"level": n, "leaf": x, "ratio": ratio}
    return ratios, witness


def test_lemma34_matches_leaf_loop():
    rng = random.Random(61)
    for _ in range(25):
        sp = validate_filtration(*relabelled_levels(random_tree_space(rng), rng))
        p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
        f = [rng.gauss(0, 3) for _ in range(sp.n_leaves)]
        want, witness = _lemma34_oracle(f, p, sp)
        rep = lemma34_check(f, p, sp)
        assert np.allclose(rep.ratios, want, rtol=1e-12, atol=0)
        assert (rep.witness["level"], rep.witness["leaf"]) == (
            witness["level"], witness["leaf"])


class TestJnEquivalence:
    def test_constant_one_gives_unit_ratios(self):
        cfg = config(depth=2, seed=7, trials=10)
        rep = jn_equivalence(cfg, constant_exponent(cfg.space, 1.0))
        assert all(r == pytest.approx(1.0, rel=1e-9) for r in rep.ratios)

    def test_rejects_small_exponent(self):
        cfg = config(depth=2)
        with pytest.raises(DomainError):
            jn_equivalence(cfg, constant_exponent(cfg.space, 0.8))

    def test_two_sided_envelope(self):
        cfg = config(depth=2, seed=8, trials=20)
        p = Exponent((1.0, 1.0, 2.0, 2.0))
        rep = jn_equivalence(cfg, p)
        assert rep.details["upper_envelope"] >= 1.0 - 1e-12
        assert 0.0 < rep.details["lower_envelope"] < math.inf


def _jn_oracle(config, p):
    """Ratios, skips and witness of jn_equivalence from two exhaustive
    bmo_norm calls per trial."""
    one = constant_exponent(config.space, 1.0)
    ratios, skips, witness, best = [], 0, None, -1.0
    for i in range(config.trials):
        f = generate_martingale(config, i)
        b1 = bmo_norm(f, one, mode="exhaustive").value
        bp = bmo_norm(f, p, mode="exhaustive").value
        if b1 == 0.0 or bp == 0.0:
            skips += 1
            continue
        ratios.append(bp / b1)
        if bp / b1 > best:
            best = bp / b1
            witness = {"trial": i, "ratio": best,
                       "terminal": f.terminal.tolist(),
                       "exponent": p.vals.tolist()}
    return ratios, skips, witness


def test_jn_equivalence_matches_per_trial_bmo_norms():
    rng = random.Random(67)
    spaces = [build_dyadic_space(d) for d in (0, 1, 2, 3)]
    spaces += [random_tree_space(rng, max_leaves=8) for _ in range(6)]
    for k, sp in enumerate(spaces):
        cfg = TrialConfig(space=sp, seed=k, trials=6)
        p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
        rep = jn_equivalence(cfg, p)
        ratios, skips, witness = _jn_oracle(cfg, p)
        assert list(rep.ratios) == ratios
        assert rep.details["skips"] == skips
        assert rep.witness == witness
    # the one-leaf space only has the zero martingale: every trial skips
    assert jn_equivalence(TrialConfig(build_dyadic_space(0), trials=3),
                          Exponent((2.0,))).details["skips"] == 3


def test_exp_jn_bmo1_equals_exhaustive_bmo_norm():
    rng = random.Random(71)
    spaces = [build_dyadic_space(2), build_dyadic_space(3)]
    spaces += [random_tree_space(rng, max_leaves=8) for _ in range(8)]
    for sp in spaces:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(sp.n_leaves)])
        f = martingale_from_terminal(sp, v - cond_expect(sp, v, 0))
        p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
        want = bmo_norm(f, constant_exponent(sp, 1.0), mode="exhaustive").value
        assert exp_jn_curve(f, p).details["bmo1"] == want


def test_jn_calls_over_cap_fail_from_the_count(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(bmo, "enumerate_stopping_matrix", refuse)
    cfg = config(depth=5, trials=2)
    p = constant_exponent(cfg.space, 2.0)
    with pytest.raises(ResourceError, match="exhaustive mode refused"):
        jn_equivalence(cfg, p)
    f = generate_martingale(cfg, 0)
    with pytest.raises(ResourceError, match="exhaustive mode refused"):
        exp_jn_curve(f, p)
    # f_0 != 0 is rejected before the size of the space is looked at
    g = martingale_from_terminal(cfg.space, np.ones(cfg.space.n_leaves))
    with pytest.raises(DomainError):
        exp_jn_curve(g, p)


class TestExpJnCurve:
    def test_rejects_zero_bmo(self, four_leaf):
        f = martingale_from_terminal(four_leaf, (0.0,) * 4)
        with pytest.raises(DomainError):
            exp_jn_curve(f, constant_exponent(four_leaf, 2.0))

    def test_curve_shape_and_fit(self):
        cfg = config(depth=3, seed=9)
        f = generate_martingale(cfg, 0)
        p = generate_exponent(f.space, "iid-uniform", (1.0, 2.5), 4)
        rep = exp_jn_curve(f, p)
        ys = [y for _, y in rep.details["curve"]]
        assert ys[0] == pytest.approx(1.0, rel=1e-9)  # t = 0
        assert all(a >= b - 1e-12 for a, b in zip(ys, ys[1:]))
        assert ys[-1] == 0.0  # beyond the largest difference
        assert rep.details["fit"]["C2"] > 0
        assert rep.details["proof_constants"]["C1"] == 4.0
        assert rep.details["proof_constants"]["C2"] > 0


def _envelope_oracle(f, p, grid):
    """max over stopping times of ||chi_{tau<inf, f - f_{tau-1} >= t}|| /
    ||chi_{tau<inf}|| for each t in turn, with one scalar norm per distinct
    indicator row (a dict keyed by the row's bytes)."""
    sp = f.space
    taus = enumerate_stopping_matrix(sp)
    taus = taus[np.isfinite(taus).any(axis=1)]
    finite = np.isfinite(taus)
    diffs = stopped_terminal_diffs(f, taus, shift="minus-one")
    cache = {}

    def norm(row):
        key = row.tobytes()
        if key not in cache:
            cache[key] = luxemburg_norm(sp, row.astype(float), p).norm
        return cache[key]

    dens = np.array([norm(row) for row in finite])
    return [
        max(norm(row) / d for row, d in zip(finite & (diffs >= t), dens))
        for t in grid
    ]


@pytest.mark.parametrize("stack", [None, 1, 3])
@pytest.mark.parametrize("depth, seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_exp_jn_envelope_matches_per_t_loop(monkeypatch, depth, seed, stack):
    """The envelope rows of several grid points are solved in one call;
    ``stack`` grid points per call (by shrinking the row cap) exercises the
    slicing of the grid, None keeps the default of one call."""
    sp = build_dyadic_space(depth)
    rng = random.Random(f"exp-jn-oracle:{depth}:{seed}")
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(sp.n_leaves)])
    f = martingale_from_terminal(sp, v - v.mean())
    p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
    if stack is not None:
        n_taus = enumerate_stopping_matrix(sp).shape[0] - 1
        monkeypatch.setattr(experiments, "ENUMERATION_CAP", stack * n_taus)
    curve = exp_jn_curve(f, p).details["curve"]
    grid = [t for t, _ in curve]
    assert len(grid) > 3
    want = np.array(_envelope_oracle(f, p, grid))
    got = np.array([y for _, y in curve])
    assert np.all(np.abs(got - want) <= 1e-12 * want)


class TestNakaiSadasue:
    def test_h1_value(self):
        want = 1 / math.log(2 * math.e) - 1 / math.log(4 * math.e)
        assert _ns_h(1)[0] == pytest.approx(want, rel=1e-14)

    def test_increment_bounds_first_twenty(self):
        h = _ns_h(25)
        for m in range(1, 21):
            d = h[m] - h[m - 1]
            assert 0 < d <= 2 / ((m + 1) * math.log(2))

    def test_margin_at_ten(self):
        rep = nakai_sadasue(10)
        # ratios are normalized by 2^{N/2}; >= 1 means the printed bound
        assert all(r >= 1.0 for r in rep.ratios)
        spread = rep.witness["spread"]
        assert (2.0 ** 10) ** spread >= 2.0 ** 5

    def test_caps_max_n(self):
        with pytest.raises(DomainError):
            nakai_sadasue(31)


class TestViolationSearch:
    def test_deterministic_family_values(self):
        cfg = config(depth=1, trials=1)
        rep = violation_33_search(cfg)
        assert rep.ratios[0] == 4.0
        assert rep.ratios[1] == 50.0
        assert rep.ratios[2] == 5000.0

    def test_constant_one_exponent_jensen(self):
        from vexmart.experiments import _jensen_ratio
        rng = random.Random(5)
        sp = build_dyadic_space(3)
        p1 = constant_exponent(sp, 1.0)
        for _ in range(50):
            f = [rng.gauss(0, 1) for _ in range(sp.n_leaves)]
            ratio, _ = _jensen_ratio(sp, f, p1)
            assert ratio <= 1.0 + 1e-12

    def test_seeded_reproducibility(self):
        cfg = config(depth=2, seed=21, trials=10)
        a = violation_33_search(cfg)
        b = violation_33_search(cfg)
        assert a.ratios == b.ratios


class TestReportInvariants:
    def test_quantiles_below_max(self):
        cfg = config(depth=3, seed=1, trials=30)
        p = constant_exponent(cfg.space, 2.0)
        rep = doob_strong_check(cfg, p)
        assert all(q <= rep.max_ratio + 1e-15 for q in rep.quantiles.values())

    def test_envelopes_stable_under_prob_perturbation(self):
        from vexmart import validate_filtration
        cfg = config(depth=2, seed=2, trials=15)
        p = generate_exponent(cfg.space, "iid-uniform", (1.2, 2.5), 6)
        base = doob_strong_check(cfg, p).max_ratio
        rng = random.Random(99)
        probs = np.array(cfg.space.leaf_probs)
        probs = probs + np.array([rng.uniform(-1e-6, 1e-6) for _ in probs]) * probs
        probs = probs / probs.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
        sp2 = validate_filtration(cfg.space.levels, tuple(probs))
        cfg2 = TrialConfig(space=sp2, seed=2, trials=15)
        pert = doob_strong_check(cfg2, p).max_ratio
        assert pert == pytest.approx(base, rel=0.1)


def _jensen_oracle(space, f, p):
    """_jensen_ratio by a loop over levels keeping the best so far."""
    fv = np.asarray(f, dtype=float)
    best, info = 0.0, {}
    for n in range(space.depth + 1):
        num = np.abs(cond_expect(space, fv, n)) ** p.vals
        den = cond_expect(space, np.abs(fv) ** p.vals, n)
        ok = den > 0
        if not np.any(ok):
            continue
        ratio = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
        j = int(np.argmax(ratio))
        if ratio[j] > best:
            best = float(ratio[j])
            info = {"level": n, "leaf": j}
    return best, info


def test_jensen_ratio_matches_level_loop():
    from vexmart.experiments import _jensen_ratio
    rng = random.Random(73)
    for i in range(60):
        sp = random_tree_space(rng)
        n = sp.n_leaves
        # a constant exponent ties the leaves of a block, and a block kept
        # at the next level ties two levels: the witness is the first
        p = (constant_exponent(sp, rng.uniform(0.5, 4.0)) if i % 2
             else random_exponent(rng, n, 0.3, 6.0))
        f = [0.0 if rng.random() < 0.3 else rng.gauss(0, 1) for _ in range(n)]
        assert _jensen_ratio(sp, f, p) == _jensen_oracle(sp, f, p)
        assert _jensen_ratio(sp, [0.0] * n, p) == (0.0, {})


def test_violation_witness_is_first_largest_ratio(monkeypatch):
    from vexmart.experiments import _jensen_ratio
    cases = [config(depth=d, seed=1, trials=20, p_range=(0.05, 60.0),
                    exponent_law=law)
             for d in (1, 2) for law in ("iid-uniform", "two-block")]
    kinds = set()
    for cfg in cases:
        rep = violation_33_search(cfg)
        # the best-so-far scan over the same ratios
        two = validate_filtration([[[0, 1]], [[0], [1]]], [0.5, 0.5])
        best, witness = -1.0, None
        for c in (8.0, 100.0, 1e4):
            ratio, info = _jensen_ratio(two, (c, 0.0), Exponent((1.0, 2.0)))
            if ratio > best:
                best = ratio
                witness = {"kind": "deterministic", "c": c, "ratio": ratio, **info}
        for i, ratio in enumerate(rep.ratios[3:]):
            if ratio > best:
                best, witness = ratio, {"kind": "random", "trial": i}
        kinds.add(witness["kind"])
        for key, value in witness.items():
            assert rep.witness[key] == value
        if witness["kind"] == "random":
            # the witness replays: its f and exponent give its ratio
            w = rep.witness
            got = _jensen_ratio(cfg.space, w["f"], Exponent(w["exponent"]))
            assert got == (w["ratio"], {"level": w["level"], "leaf": w["leaf"]})
        assert list(rep.witness)[:2] == list(witness)[:2]
    assert kinds == {"deterministic", "random"}
    # every random trial ties the family's largest ratio: the earliest wins

    def tied(space, f, p):
        ratio, info = _jensen_ratio(space, f, p)
        return (ratio if space.n_leaves == 2 else 5000.0), info

    monkeypatch.setattr(experiments, "_jensen_ratio", tied)
    rep = violation_33_search(config(depth=2, trials=4))
    assert rep.ratios[2:] == (5000.0,) * 5
    assert rep.witness["kind"] == "deterministic" and rep.witness["c"] == 1e4


def _grid_with_midpoints_oracle(vals):
    grid = []
    for i, v in enumerate(vals):
        grid.append(float(v))
        if i + 1 < vals.size:
            grid.append(0.5 * float(v + vals[i + 1]))
    return grid


def test_lambda_grid_matches_midpoint_loop():
    rng = random.Random(79)
    for _ in range(40):
        sp = random_tree_space(rng)
        v = np.array([rng.gauss(0, 1) for _ in range(sp.n_leaves)])
        f = martingale_from_terminal(sp, v)
        vals = np.unique(maximal(f))
        vals = vals[vals > 0]
        want = [0.5 * float(vals[0]), *_grid_with_midpoints_oracle(vals)]
        assert default_lambda_grid(f) == tuple(want)
    zero = martingale_from_terminal(sp, np.zeros(sp.n_leaves))
    assert default_lambda_grid(zero) == ()


def test_t_grid_matches_midpoint_loop():
    from vexmart.experiments import _T_GRID_POINTS, _t_grid_from_diffs
    rng = random.Random(83)
    sizes = []
    for size in (0, 1, 2, 5, 20, 31, 32, 33, 100, 400):
        # repeats, zeros and negative entries, as stopped differences have
        diffs = np.array([round(rng.gauss(0, 1), 2) for _ in range(size)])
        vals = np.unique(diffs[diffs > 0])
        want = (0.0,)
        if vals.size:
            grid = [0.0, *_grid_with_midpoints_oracle(vals), 1.25 * float(vals[-1])]
            if len(grid) > _T_GRID_POINTS:
                idx = np.linspace(0, len(grid) - 1, _T_GRID_POINTS).astype(int)
                grid = [grid[j] for j in np.unique(idx)]
            want = tuple(grid)
        sizes.append(len(want))
        assert _t_grid_from_diffs(diffs.reshape(-1, 1)) == want
    assert min(sizes) == 1 and max(sizes) == _T_GRID_POINTS


def _doob_oracle(cfg, p):
    """doob_strong_check's ratios, skips and witness trial by one
    luxemburg_norm call per norm and trial."""
    ratios, skips, best, trial = [], 0, -1.0, None
    for i in range(cfg.trials):
        f = generate_martingale(cfg, i)
        den = luxemburg_norm(cfg.space, f.terminal, p).norm
        if den == 0.0:
            skips += 1
            continue
        ratio = luxemburg_norm(cfg.space, maximal(f), p).norm / den
        ratios.append(ratio)
        if ratio > best:
            best, trial = ratio, i
    return ratios, skips, trial


@pytest.mark.parametrize("stack", [None, 1, 3])
def test_doob_matches_per_trial_norms(monkeypatch, stack):
    """``stack`` trials per batch (by shrinking the entry cap) exercises the
    slicing of the trials, None keeps the default of one batch."""
    rng = random.Random(89)
    cases = [config(depth=0, trials=3), config(depth=1, seed=2, trials=12,
                                               martingale_law="two-point")]
    cases += [config(depth=d, seed=d, trials=15) for d in (2, 3, 4)]
    cases += [TrialConfig(random_tree_space(rng), seed=i, trials=10,
                          martingale_law=("normal", "two-point")[i % 2])
              for i in range(10)]
    seen_skips = set()
    for cfg in cases:
        if stack is not None:
            monkeypatch.setattr(experiments, "ENUMERATION_CAP",
                                stack * 4 * cfg.space.n_leaves)
        for p in (random_exponent(rng, cfg.space.n_leaves, 1.1, 4.0),
                  constant_exponent(cfg.space, 2.0)):
            rep = doob_strong_check(cfg, p)
            ratios, skips, trial = _doob_oracle(cfg, p)
            got = np.array(rep.ratios)
            assert got.shape == (len(ratios),)
            assert np.all(np.abs(got - ratios) <= 1e-14 * np.abs(ratios))
            assert rep.details["skips"] == skips
            assert (rep.witness and rep.witness["trial"]) == trial
            seen_skips.add(0 < skips < cfg.trials)
            if trial is not None:
                f = generate_martingale(cfg, trial)
                assert rep.witness["terminal"] == f.terminal.tolist()
    assert seen_skips == {True, False}


def test_doob_scale_check_reports_first_failing_trial(monkeypatch):
    cfg = config(depth=2, seed=4, trials=6)
    p = constant_exponent(cfg.space, 2.0)
    real = experiments.norm_batch

    def skewed(probs, pvals, rows):
        norms = real(probs, pvals, rows).copy()
        # rows f_N, Mf, 10 f_N, 10 Mf per trial: the 10 Mf norms of
        # trials 2 and 4 come out doubled
        norms[4 * np.array([2, 4]) + 3] *= 2.0
        return norms

    monkeypatch.setattr(experiments, "norm_batch", skewed)
    f = generate_martingale(cfg, 2)
    ratio = (luxemburg_norm(cfg.space, maximal(f), p).norm
             / luxemburg_norm(cfg.space, f.terminal, p).norm)
    with pytest.raises(NumericalError, match="not scale invariant") as info:
        doob_strong_check(cfg, p)
    first, second = map(float, str(info.value).split(": ")[1].split(" vs "))
    assert first == pytest.approx(ratio, rel=1e-14)
    assert second == pytest.approx(2.0 * ratio, rel=1e-14)


def _weak_type_witness_oracle(f, p, grid):
    """The best-so-far witness scan of weak_type_check."""
    mf = maximal(f)
    best, witness = -1.0, None
    for lam in grid:
        a_mask = mf > lam
        pa = float(f.space.probs[a_mask].sum())
        if pa == 0.0:
            continue
        ratio = pa / modular(f.space, f.terminal, p, lam)
        if ratio > best:
            best, witness = ratio, lam
    return witness


def test_weak_type_witness_is_first_largest_ratio():
    rng = random.Random(97)
    for i in range(30):
        sp = random_tree_space(rng)
        v = [2.0] + [rng.choice((-1.0, 0.0, 2.0)) for _ in range(sp.n_leaves - 1)]
        f = martingale_from_terminal(sp, v)
        p = (constant_exponent(sp, 1.5) if i % 2
             else random_exponent(rng, sp.n_leaves, 0.5, 3.0))
        top = float(maximal(f).max())
        grid = [*default_lambda_grid(f), top, 2.0 * top + 1.0]
        grid = grid[::-1] if i % 3 == 0 else grid
        want = _weak_type_witness_oracle(f, p, grid)
        rep = weak_type_check(f, p, grid)
        assert (rep.witness and rep.witness["lambda"]) == want
    # no lambda below max Mf: nothing to witness
    assert weak_type_check(f, p, [top, top + 1.0]).witness is None
    # p = 1 and Mf = (1.5, 0.8): lambda = 0.5 and 1 give the same ratio
    # 0.5 / E|f_N| to the last bit, and the earlier lambda is the witness
    two = validate_filtration([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    f = martingale_from_terminal(two, (1.5, -0.8))
    p = constant_exponent(two, 1.0)
    for grid in ([0.5, 1.0], [1.0, 0.5]):
        rep = weak_type_check(f, p, grid)
        assert rep.ratios[0] == rep.ratios[1]
        assert rep.witness["lambda"] == grid[0]
