import json
import math
import random
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexmart import (
    ConstantReport,
    DomainError,
    Exponent,
    NumericalError,
    ResourceError,
    TrialConfig,
    ValidationError,
    build_dyadic_space,
    build_mary_space,
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
from vexmart.experiments import EXPONENT_LAWS, _ns_h, default_lambda_grid
from vexmart.martingale import enumerate_stopping_matrix, stopped_terminal_diffs
from vexmart.varlp import kept_subset_norms, modular_grid

from conftest import (
    drop_root_level,
    random_exponent,
    random_tree_space,
    relabelled_levels,
    stopped_diffs_oracle,
)


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
        assert a.arrays.tolist() == b.arrays.tolist()
        c = generate_martingale(config(seed=10), 4)
        assert a.arrays.tolist() != c.arrays.tolist()

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
            again = generate_exponent(sp, law, (1.1, 3.0), seed=5)
            assert p.vals.tolist() == again.vals.tolist()

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
        assert rep.ratios.tolist() == [0.0]

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
    for n, bo in enumerate(space.block_of):
        av = cond_expect(space, fv, n)
        for x in range(space.n_leaves):
            block = np.flatnonzero(bo == bo[x])
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


def test_lemma34_matches_leaf_loop_across_row_blocks(monkeypatch):
    """Rows in blocks of 3, so every space splits into several blocks with
    a partial last one, on trees, forests and relabelled trees."""
    rng = random.Random(67)
    partial = 0
    for i in range(30):
        tree = random_tree_space(rng, max_leaves=20, max_depth=5)
        sp = (tree, drop_root_level(tree),
              validate_filtration(*relabelled_levels(tree, rng)))[i % 3]
        partial += sp.n_leaves > 3 and sp.n_leaves % 3 > 0
        assert len(sp.parents) == sp.depth
        for n, par in enumerate(sp.parents, 1):
            assert par.dtype == np.intp and not par.flags.writeable
            assert np.array_equal(par[sp.block_of[n]], sp.block_of[n - 1])
        monkeypatch.setattr(experiments, "BLOCK_BYTES", 3 * 8 * sum(sp.n_blocks))
        p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
        f = [rng.gauss(0, 3) for _ in range(sp.n_leaves)]
        want, witness = _lemma34_oracle(f, p, sp)
        rep = lemma34_check(f, p, sp)
        assert np.allclose(rep.ratios, want, rtol=1e-12, atol=0)
        assert (rep.witness["level"], rep.witness["leaf"]) == (
            witness["level"], witness["leaf"])
    assert partial >= 10


def test_lemma34_memory_is_one_row_block_on_2048_leaves():
    """Its n x n weight matrix alone would take 32 MiB."""
    sp = build_dyadic_space(11)
    rng = random.Random(11)
    p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
    f = [rng.gauss(0, 3) for _ in range(sp.n_leaves)]
    tracemalloc.start()
    try:
        rep = lemma34_check(f, p, sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ratios.size == 12 * 2048
    assert peak < 8 * 2**20


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
    """Ratios, skips and witness of jn_equivalence from two bmo_norm calls
    per trial: the exact dp block maximum for BMO_1, whose exponent is
    constant, and the exhaustive scan for p."""
    one = constant_exponent(config.space, 1.0)
    ratios, skips, witness, best = [], 0, None, -1.0
    for i in range(config.trials):
        f = generate_martingale(config, i)
        b1 = bmo_norm(f, one, mode="dp").value
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


def test_jn_equivalence_builds_one_table_per_trial(monkeypatch):
    """Both norms of a trial, BMO_1 and BMO_p, are read from one table of
    stopped differences, for a constant and a variable exponent."""
    calls = []
    for module in (experiments, bmo):
        def counted(f, *args, table=module.stopped_terminal_diffs, **kwargs):
            calls.append(f)
            return table(f, *args, **kwargs)

        monkeypatch.setattr(module, "stopped_terminal_diffs", counted)
    cfg = config(depth=3, seed=5, trials=5)
    for p in (constant_exponent(cfg.space, 2.0), random_exponent(random.Random(5), 8)):
        calls.clear()
        assert jn_equivalence(cfg, p).ratios.size == 5
        assert len(calls) == 5


def test_exp_jn_bmo1_equals_dp_bmo_norm():
    """For a variable and a constant p, exp_jn_curve's ||f||_{BMO_1} and the
    denominator of each jn_equivalence ratio are bmo_norm's dp value, bit
    for bit.  The exhaustive oracle of dp at p = 1 is
    ``test_bmo.py::test_dp_matches_exhaustive``."""
    rng = random.Random(71)
    spaces = [build_dyadic_space(2), build_dyadic_space(3)]
    spaces += [random_tree_space(rng, max_leaves=8) for _ in range(8)]
    for k, sp in enumerate(spaces):
        ones = constant_exponent(sp, 1.0)
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(sp.n_leaves)])
        f = martingale_from_terminal(sp, v - cond_expect(sp, v, 0))
        bmo1 = bmo_norm(f, ones, mode="dp").value
        cfg = TrialConfig(space=sp, seed=k, trials=3)
        variable = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
        for p in (variable, constant_exponent(sp, rng.uniform(1.0, 3.0))):
            assert exp_jn_curve(f, p).details["bmo1"] == bmo1
            ratios = []
            for i in range(cfg.trials):
                g = generate_martingale(cfg, i)
                b1, bp = bmo_norm(g, ones, mode="dp").value, bmo_norm(g, p).value
                if b1 and bp:
                    ratios.append(bp / b1)
            assert list(jn_equivalence(cfg, p).ratios) == ratios


def test_jn_calls_over_cap_fail_from_the_count(monkeypatch):
    """Past the cap a variable exponent is refused before anything is
    enumerated; a constant one reads every supremum from the blocks."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(bmo, "enumerate_stopping_matrix", refuse)
    cfg = config(depth=5, trials=2)
    p = Exponent([1.5, 2.5] * 16)
    with pytest.raises(ResourceError, match="exhaustive mode refused"):
        jn_equivalence(cfg, p)
    f = generate_martingale(cfg, 0)
    with pytest.raises(ResourceError, match="exhaustive mode refused"):
        exp_jn_curve(f, p)
    # f_0 != 0 is rejected before the size of the space is looked at
    g = martingale_from_terminal(cfg.space, np.ones(cfg.space.n_leaves))
    with pytest.raises(DomainError):
        exp_jn_curve(g, p)
    c = constant_exponent(cfg.space, 2.0)
    assert jn_equivalence(cfg, c).ratios.size == 2
    assert exp_jn_curve(f, c).details["blocks"] == 63
    with pytest.raises(DomainError):
        exp_jn_curve(g, c)


def test_jn_constant_exponent_is_the_exhaustive_ratio():
    """For a constant p each trial's ratio is that of the two exhaustive
    bmo_norm scans, to 1e-12."""
    rng = random.Random(73)
    spaces = [build_dyadic_space(2), build_mary_space(3, 2)]
    spaces += [random_tree_space(rng, max_leaves=8) for _ in range(4)]
    for k, sp in enumerate(spaces):
        cfg = TrialConfig(space=sp, seed=k, trials=4)
        p = constant_exponent(sp, rng.choice([1.5, 2.0, 3.0]))
        rep = jn_equivalence(cfg, p)
        ratios, skips, _ = _jn_oracle(cfg, p)
        assert rep.details["skips"] == skips
        assert np.all(np.abs(rep.ratios - ratios) <= 1e-12 * np.array(ratios))


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

    @pytest.mark.parametrize("law", EXPONENT_LAWS)
    @pytest.mark.parametrize("seed", [0, 11, 16, 26])
    def test_rank_deficient_fit_is_no_fit(self, monkeypatch, seed, law):
        """On these depth-1 martingales the positive grid points t / b1 lie
        within a few ulp of 1, so numpy finds the fit rank-deficient: the
        report has no fit and raises no warning, and the rest of it is the
        one a fit taken as full rank gives."""
        cfg = config(depth=1, seed=seed)
        f = generate_martingale(cfg, 0)
        p = generate_exponent(f.space, law, cfg.p_range, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = exp_jn_curve(f, p).as_dict()
        assert rep["details"]["fit"] is None
        b1 = rep["details"]["bmo1"]
        xs = [t / b1 for t, y in rep["details"]["curve"] if t > 0 and y > 0]
        assert len(xs) >= 2 and max(xs) - min(xs) <= 8 * np.spacing(max(xs))

        polyfit = np.polyfit

        def full_rank(*args, **kwargs):
            c, resids, _, sv, rcond = polyfit(*args, **kwargs)
            return c, resids, 2, sv, rcond

        monkeypatch.setattr(np, "polyfit", full_rank)
        plain = exp_jn_curve(f, p).as_dict()
        assert plain["details"].pop("fit") is not None
        rep["details"].pop("fit")
        assert serialize.dumps(rep) == serialize.dumps(plain)

    def test_fit_past_exp_range_is_no_fit(self):
        """Two leaves whose positive grid points lie within 3 ulp of each
        other, where numpy still finds rank 2 but an intercept near 1e14:
        the report has no fit rather than an overflow."""
        sp = validate_filtration([[[0, 1]], [[0], [1]]],
                                 [0.6033967876164367, 0.39660321238356333])
        f = martingale_from_terminal(sp, [0.014215884294332848, -0.021628213409505936])
        rep = exp_jn_curve(f, constant_exponent(sp, 1.0))
        assert rep.details["fit"] is None
        assert [y for _, y in rep.details["curve"]] == [1.0, 1.0, sp.probs[0], sp.probs[0], 0.0]

    def test_unsettled_fixed_point_names_its_witness(self, monkeypatch):
        """Every numerator solve in exp_jn_curve reads a little larger than
        the one before, so the moment-chain constant never settles; the
        error names the r whose moment ratio exceeds C_hat, and both."""
        sp = build_dyadic_space(3)
        f = martingale_from_terminal(sp, np.array([7.0] + [-1.0] * 7))
        p = Exponent((1.0, 1.5, 2.0, 2.5, 3.0, 1.2, 1.7, 2.2))
        solve, calls = experiments.max_norm_ratio, []

        def growing(probs, pvals, rows, dens):
            calls.append(None)
            value, i = solve(probs, pvals, rows, dens)
            return value * (1.0 + 1e-6 * len(calls)), i

        monkeypatch.setattr(experiments, "max_norm_ratio", growing)
        with pytest.raises(NumericalError, match="failed to stabilize") as info:
            exp_jn_curve(f, p)
        m = re.search(r"r=(\S+) has moment ratio (\S+) > C_hat (\S+)$",
                      str(info.value))
        r, ratio, c_hat = map(float, m.groups())
        assert r >= 1.0
        assert ratio > c_hat * (1.0 + experiments.ASSERT_SLACK)

    def test_rising_curve_names_its_grid_points(self, monkeypatch):
        """Segments that start past grid index 0 raised a millionfold (with
        the slack opened, so the decay bound holds) make the envelope rise
        where the first of them starts, at grid index k; the error names
        grid points k - 1 and k, with the envelope at k - 1, which no
        raised segment reaches, as the curve has it, and a larger one at
        k."""
        cfg = config(depth=3, seed=9)
        f = generate_martingale(cfg, 0)
        p = generate_exponent(f.space, "iid-uniform", (1.0, 2.5), 4)
        curve = exp_jn_curve(f, p).details["curve"]
        segments_of = experiments._decay_segments
        starts = []

        def raised(cells, counts, norm_of_code):
            for rows, lo, hi, lhs in segments_of(cells, counts, norm_of_code):
                starts.extend(lo[lo > 0].tolist())
                yield rows, lo, hi, np.where(lo > 0, 1e6 * lhs, lhs)

        monkeypatch.setattr(experiments, "_decay_segments", raised)
        monkeypatch.setattr(experiments, "ASSERT_SLACK", 1e300)
        with pytest.raises(NumericalError, match="not nonincreasing") as info:
            exp_jn_curve(f, p)
        m = re.search(r"envelope (\S+) at t=(\S+) exceeds (\S+) at t=(\S+)$",
                      str(info.value))
        y1, t1, y0, t0 = map(float, m.groups())
        k = min(starts)
        assert [t0, y0] == curve[k - 1]
        assert t1 == curve[k][0] and y1 > y0


def _envelope_oracle(f, p, grid):
    """max over stopping times of ||chi_{tau<inf, f - f_{tau-1} >= t}|| /
    ||chi_{tau<inf}|| for each t in turn, with one scalar norm per distinct
    indicator row (a dict keyed by the row's bytes)."""
    sp = f.space
    taus = enumerate_stopping_matrix(sp)
    taus = taus[np.isfinite(taus).any(axis=1)]
    finite = np.isfinite(taus)
    diffs = stopped_diffs_oracle(f, taus)
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


def _per_t_envelope(f, p, grid, c2, b1):
    """The envelope and decay-bound check by one pass over the enumerated
    stopping times per grid point t, in grid order, as the reference: the
    indicator of each stopping time at t read by its mask's bits from the
    norms the space keeps for every leaf subset by code, against the bound
    4 exp(-C2 t / ||f||_{BMO_1}) times its denominator.  Returns the
    envelope and, for the first t where some stopping time breaks the
    bound, (t, its level norm, its bound) at the stopping time of largest
    excess, or None."""
    sp = f.space
    taus = enumerate_stopping_matrix(sp)
    taus = taus[np.isfinite(taus).any(axis=1)]
    finite = np.isfinite(taus)
    diffs = stopped_diffs_oracle(f, taus)
    norm_of_code = kept_subset_norms(sp, p.vals)
    code = 1 << np.arange(sp.n_leaves - 1, -1, -1)
    dens = norm_of_code[finite @ code]
    slack = experiments.ASSERT_SLACK * max(1.0, float(dens.max()))
    envelope, broken = [], None
    for t in grid:
        lhs = norm_of_code[(finite & (diffs >= t)) @ code]
        bound = 4.0 * math.exp(-c2 * t / b1) * dens
        if broken is None and np.any(lhs > bound + slack):
            j = int(np.argmax(lhs - bound))
            broken = (t, float(lhs[j]), float(bound[j]))
        envelope.append(float(np.max(lhs / dens)))
    return envelope, broken


def _jn_instance(space, rng, law="variable"):
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(space.n_leaves)])
    f = martingale_from_terminal(space, v - cond_expect(space, v, 0))
    if law == "constant":
        return f, constant_exponent(space, 2.0)
    return f, random_exponent(rng, space.n_leaves, 1.0, 3.0)


def _assert_envelope_is_per_t_loop(f, p, rep, rel=0.0):
    """The report's curve is the per-t loop's, bit for bit, or to ``rel``
    relative."""
    curve = rep.details["curve"]
    grid = [t for t, _ in curve]
    constants = rep.details["proof_constants"]
    want, broken = _per_t_envelope(f, p, grid, constants["C2"], rep.details["bmo1"])
    assert broken is None
    got = [y for _, y in curve]
    if rel:
        assert np.all(np.abs(np.subtract(got, want)) <= rel * np.array(want))
    else:
        assert got == want
    return grid, want


def _tied_terminal(sp, law):
    """A centred terminal on a dyadic space whose stopped differences tie:
    a balanced two-point +-1, or 3/4 and -3/4 on the two level-1 blocks
    (so every difference past level 1 is 0).  Short dyadic fractions, so
    that f_0 sums to exactly 0."""
    if law == "two-point":
        half = sp.n_leaves // 2
        rng = random.Random(f"exp-jn-ties:{sp.depth}")
        return np.array(rng.sample([1.0, -1.0] * half, 2 * half))
    return np.where(sp.block_of[1] == 0, 0.75, -0.75)


@pytest.mark.parametrize("stack", [None, 1, 3])
@pytest.mark.parametrize(
    "depth, seed",
    [(2, 0), (2, 1), (3, 2), (3, 3), (2, "two-point"), (3, "two-point"), (3, "level-1")],
)
def test_exp_jn_envelope_matches_per_t_loop(monkeypatch, depth, seed, stack):
    """The envelope equals the per-t loop bit for bit, and a scalar solve
    of every indicator to 1e-12.  ``stack`` rows per row block (by
    shrinking the block bytes) walks the scan in many blocks, None keeps
    the default of one block.  A named ``seed`` takes a tied terminal
    (see ``_tied_terminal``) in place of Gaussian draws, so that rows hold
    equal counts and counts of 0 side by side."""
    sp = build_dyadic_space(depth)
    rng = random.Random(f"exp-jn-oracle:{depth}:{seed}")
    if isinstance(seed, str):
        f = martingale_from_terminal(sp, _tied_terminal(sp, seed))
        table = stopped_terminal_diffs(f)
        pos = table[table > 0]
        assert np.unique(pos).size < pos.size and (table[:-1] <= 0).any()
    else:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(sp.n_leaves)])
        f = martingale_from_terminal(sp, v - v.mean())
    p = random_exponent(rng, sp.n_leaves, 1.0, 3.0)
    if stack is not None:
        monkeypatch.setattr(experiments, "BLOCK_BYTES", stack * 8 * sp.n_leaves)
    grid, got = _assert_envelope_is_per_t_loop(f, p, exp_jn_curve(f, p))
    # a tied terminal may have one positive difference: grid 0, d, 1.25 d
    assert len(grid) > 3 or isinstance(seed, str)
    want = np.array(_envelope_oracle(f, p, grid))
    assert np.all(np.abs(np.array(got) - want) <= 1e-12 * want)


def _uneven_space(kind, rng):
    if kind == "3ary":
        return build_mary_space(3, 2)
    sp = random_tree_space(rng, max_leaves=9)
    if kind == "relabelled":
        sp = validate_filtration(*relabelled_levels(sp, rng))
    return sp


@pytest.mark.parametrize("law", ["constant", "variable"])
@pytest.mark.parametrize("kind", ["random-tree", "3ary", "relabelled"])
def test_exp_jn_envelope_is_per_t_loop_on_uneven_spaces(kind, law):
    """Unequal leaf probabilities, three children per block, leaves not
    numbered in tree order, constant and variable exponents: the envelope
    is the per-t loop's, bit for bit.  A constant exponent's curve comes
    from block sums, which add a block's probabilities in another order
    than the per-t loop's batch solve of the same indicator; on the fourth
    relabelled tree that puts one block an ulp above at two grid points,
    so that tree is compared to 1e-12."""
    rng = random.Random(f"exp-jn-uneven:{kind}:{law}")
    for k in range(4):
        sp = _uneven_space(kind, rng)
        f, p = _jn_instance(sp, rng, law)
        rel = 1e-12 if (kind, law, k) == ("relabelled", "constant", 3) else 0.0
        _assert_envelope_is_per_t_loop(f, p, exp_jn_curve(f, p), rel)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       p0=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       shape=st.sampled_from(["tree", "relabelled", "forest"]))
def test_exp_jn_blocks_match_the_scan(seed, p0, shape):
    """For a constant exponent exp_jn_curve reads b1, the moment ratios
    and the curve from block sums; on random trees under the cap, b1,
    C_hat and the curve are those of the scan path to 1e-12, and details
    count the blocks compared in place of the stopping times."""
    rng = random.Random(seed)
    sp = random_tree_space(rng, max_leaves=8)
    if shape == "relabelled":
        sp = validate_filtration(*relabelled_levels(sp, rng))
    elif shape == "forest":
        sp = drop_root_level(sp)
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(sp.n_leaves)])
    f = martingale_from_terminal(sp, v - cond_expect(sp, v, 0))
    p = constant_exponent(sp, p0)
    if bmo_norm(f, constant_exponent(sp, 1.0), mode="exhaustive").value == 0.0:
        # a forest whose level 0 is discrete has only f = 0
        with pytest.raises(DomainError, match="nonzero BMO_1"):
            exp_jn_curve(f, p)
        return
    rep = exp_jn_curve(f, p)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(experiments, "_block_sups", lambda space, q, table:
                  experiments._scan_sups(space, np.full(space.n_leaves, q), table))
        scan = exp_jn_curve(f, p)
    assert rep.details["blocks"] == sum(sp.n_blocks)
    assert "stopping_times" not in rep.details and "blocks" not in scan.details
    want = scan.details["bmo1"]
    assert abs(rep.details["bmo1"] - want) <= 1e-12 * want
    want = scan.details["proof_constants"]["C_hat"]
    assert abs(rep.details["proof_constants"]["C_hat"] - want) <= 1e-12 * want
    got, want = np.array(rep.details["curve"]), np.array(scan.details["curve"])
    assert np.array_equal(got[:, 0], want[:, 0])
    assert np.all(np.abs(got[:, 1] - want[:, 1]) <= 1e-12 * want[:, 1])


def test_level_leaf_table_gives_the_scan_grid():
    """Every stopped difference of the exhaustive scan, gathered from the
    (level, leaf) table at the scan's cells, is its row's own difference
    bit for bit, and the t grid from the table is the one from those
    differences."""
    rng = random.Random("exp-jn-table")
    spaces = [build_dyadic_space(3), build_mary_space(3, 2)]
    for _ in range(12):
        sp = random_tree_space(rng, max_leaves=10)
        spaces += [sp, validate_filtration(*relabelled_levels(sp, rng))]
    for sp in spaces:
        f, _ = _jn_instance(sp, rng)
        taus = enumerate_stopping_matrix(sp)
        diffs = stopped_diffs_oracle(f, taus[np.isfinite(taus).any(axis=1)])
        table = stopped_terminal_diffs(f)
        cells = np.take(table, bmo.candidate_matrix(sp).cells)
        assert cells.tobytes() == diffs.tobytes()
        assert not table[-1].any()
        grid = experiments._t_grid_from_diffs(diffs)
        assert np.array_equal(experiments._t_grid_from_diffs(table), grid)


@pytest.mark.parametrize("block_rows", [None, 50])
@pytest.mark.parametrize("depth", [1, 3])
def test_decay_bound_violation_names_the_first_broken_grid_point(
    monkeypatch, depth, block_rows
):
    """With every solve in a non-unit exponent shrunk a thousandfold, the
    moment-chain constant C_hat is tiny and C2 huge, so the decay bound
    fails.  The error names the first broken grid point in grid order,
    and the level norm and bound there of the stopping time of largest excess, as the per-t loop
    finds them, also when the scan is walked in many row blocks.  On two
    leaves every indicator is one segment from t = 0, where the bound
    holds, up to t = 1, where it fails: the bound is checked inside a
    segment's range, not only where it starts."""
    sp = build_dyadic_space(depth)
    if depth == 1:
        f = martingale_from_terminal(sp, np.array([1.0, -1.0]))
        p = Exponent((1.5, 2.5))
    else:
        f, p = _jn_instance(sp, random.Random("exp-jn-broken"))
    solve = experiments.max_norm_ratio

    def shrunk(probs, pvals, rows, dens):
        value, i = solve(probs, pvals, rows, dens)
        return (value, i) if np.all(pvals == 1.0) else (1e-3 * value, i)

    monkeypatch.setattr(experiments, "max_norm_ratio", shrunk)
    # with the slack opened up the same run reports its constants
    with monkeypatch.context() as m:
        m.setattr(experiments, "ASSERT_SLACK", 1e300)
        rep = exp_jn_curve(f, p)
    grid = [t for t, _ in rep.details["curve"]]
    if block_rows is not None:
        monkeypatch.setattr(experiments, "BLOCK_BYTES", block_rows * 8 * sp.n_leaves)
    constants = rep.details["proof_constants"]
    _, want = _per_t_envelope(f, p, grid, constants["C2"], rep.details["bmo1"])
    assert want is not None and want[0] not in (grid[0], grid[-1])
    with pytest.raises(NumericalError, match="decay bound violated") as info:
        exp_jn_curve(f, p)
    m = re.search(r"at t=(\S+): level norm (\S+) > bound (\S+)$", str(info.value))
    assert tuple(map(float, m.groups())) == want


def _block_decay_oracle(f, p0, grid, c2, b1):
    """The first grid point t at which some block B of some level n has
    P(B, D_n >= t)^(1/p0) above 4 exp(-C2 t / b1) P(B)^(1/p0) plus the
    slack, D_n = f - f_{n-1}, with that level norm and bound for the block
    of largest excess, or None: one block and grid point at a time."""
    sp = f.space
    levels = np.repeat(np.arange(sp.depth + 1.0)[:, None], sp.n_leaves, axis=1)
    diffs = stopped_diffs_oracle(f, levels)
    blocks = [(n, sp.block_of[n] == b) for n in range(sp.depth + 1)
              for b in range(sp.n_blocks[n])]
    dens = [float(sp.probs[on].sum()) ** (1 / p0) for _, on in blocks]
    slack = experiments.ASSERT_SLACK * max(1.0, max(dens))
    for t in grid:
        factor = 4.0 * math.exp(-c2 * t / b1)
        found = []
        for (n, on), den in zip(blocks, dens):
            lhs = float(sp.probs[on & (diffs[n] >= t)].sum()) ** (1 / p0)
            if lhs > factor * den + slack:
                found.append((lhs - factor * den, lhs, factor * den))
        if found:
            _, lhs, bound = max(found)
            return t, lhs, bound
    return None


def test_block_decay_bound_violation_names_its_block(monkeypatch):
    """For a constant exponent, every moment ratio shrunk a thousandfold
    breaks the decay bound on the block path too: the error names the
    first broken grid point, the scan's first broken one as well, and
    there the level norm and bound of the block of largest excess."""
    sp = build_dyadic_space(3)
    f, _ = _jn_instance(sp, random.Random("exp-jn-broken"))
    p0 = 2.0
    p = constant_exponent(sp, p0)
    block_max = experiments._block_max

    def shrunk(space, table, q, s=1.0):
        value, b = block_max(space, table, q, s)
        return (value, b) if q == 1.0 else (1e-3 * value, b)

    monkeypatch.setattr(experiments, "_block_max", shrunk)
    with monkeypatch.context() as m:
        m.setattr(experiments, "ASSERT_SLACK", 1e300)
        rep = exp_jn_curve(f, p)
    grid = [t for t, _ in rep.details["curve"]]
    c2, b1 = rep.details["proof_constants"]["C2"], rep.details["bmo1"]
    want = _block_decay_oracle(f, p0, grid, c2, b1)
    assert want is not None and want[0] not in (grid[0], grid[-1])
    assert _per_t_envelope(f, p, grid, c2, b1)[1][0] == want[0]
    with pytest.raises(NumericalError, match="decay bound violated") as info:
        exp_jn_curve(f, p)
    m = re.search(r"at t=(\S+): level norm (\S+) > bound (\S+)$", str(info.value))
    t, lhs, bound = map(float, m.groups())
    assert t == want[0]
    assert lhs == pytest.approx(want[1], rel=1e-12)
    assert bound == pytest.approx(want[2], rel=1e-12)
    # the command line reports it with exit code 3
    assert run(["experiment", "exp-jn", "--depth", "3", "--p-law", "constant"]) == 3


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

    def test_bad_increment_names_its_m(self, monkeypatch):
        """h_5 = h_4 makes the step at m = 4 zero, not positive; the error
        names m, the step and its bound 2/((m+1) ln 2)."""
        def flat(depth):
            h = _ns_h(depth)
            h[4] = h[3]
            return h

        monkeypatch.setattr(experiments, "_ns_h", flat)
        with pytest.raises(NumericalError, match="increment bounds") as info:
            nakai_sadasue(1)
        m = re.search(r"at m=(\d+): h_\(m\+1\) - h_m = (\S+) is not in "
                      r"\(0, (\S+)\]$", str(info.value))
        assert int(m.group(1)) == 4
        assert float(m.group(2)) == 0.0
        assert float(m.group(3)) == 2.0 / (5 * math.log(2.0))


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
        assert np.array_equal(a.ratios, b.ratios)
        assert a == b


def _report_oracle(ratios):
    """The max, mean and quantiles as a report computed them when it stored
    them beside a tuple of its ratios."""
    r = [float(x) for x in ratios]
    if r:
        arr = np.array(r)
        q50, q90 = np.quantile(arr, [0.5, 0.9]).tolist()
        quantiles = {"q50": q50, "q90": q90, "q100": float(arr.max())}
        mx, mean = float(arr.max()), float(arr.mean())
    else:
        quantiles, mx, mean = {}, 0.0, 0.0
    return mx, mean, quantiles


def _bits(x):
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), max_size=50), st.booleans())
def test_report_statistics_match_stored_formula(ratios, as_array):
    """max, mean and quantiles read from the ratios array are the floats of
    the stored formula, bit for bit, from a list or an array."""
    rep = ConstantReport("r", np.array(ratios) if as_array else ratios, None, {})
    mx, mean, quantiles = _report_oracle(ratios)
    assert isinstance(rep.ratios, np.ndarray) and not rep.ratios.flags.writeable
    assert type(rep.max_ratio) is float and type(rep.mean_ratio) is float
    assert (_bits(rep.max_ratio), _bits(rep.mean_ratio)) == (_bits(mx), _bits(mean))
    assert list(rep.quantiles) == list(quantiles)
    assert list(map(_bits, rep.quantiles.values())) == list(map(_bits, quantiles.values()))
    assert rep.as_dict()["ratios"] == [float(x) for x in ratios]


def test_empty_reports():
    """A zero martingale has an empty lambda grid and a one-leaf space
    skips every BMO trial: both reports list no ratio."""
    sp = build_dyadic_space(3)
    zero = martingale_from_terminal(sp, np.zeros(sp.n_leaves))
    reps = [weak_type_check(zero, constant_exponent(sp, 2.0)),
            jn_equivalence(config(depth=0, trials=3), Exponent((2.0,)))]
    for rep in reps:
        got = rep.as_dict()
        assert got["ratios"] == [] and got["quantiles"] == {}
        assert (got["max"], got["mean"]) == (0.0, 0.0)
        assert rep.ratios.shape == (0,) and got["witness"] is None
    assert reps[0].details["lambda_grid"] == []
    assert reps[1].details["skips"] == 3


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
        probs = cfg.space.probs.copy()
        probs = probs + np.array([rng.uniform(-1e-6, 1e-6) for _ in probs]) * probs
        probs = probs / probs.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
        levels = serialize.space_to_json(cfg.space)["levels"]
        sp2 = validate_filtration(levels, tuple(probs))
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
    assert rep.ratios[2:].tolist() == [5000.0] * 5
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
        assert default_lambda_grid(f).tolist() == want
    zero = martingale_from_terminal(sp, np.zeros(sp.n_leaves))
    assert default_lambda_grid(zero).tolist() == []


def test_t_grid_matches_midpoint_loop():
    from vexmart.experiments import _T_GRID_POINTS, _t_grid_from_diffs
    rng = random.Random(83)
    # repeats, zeros and negative entries, as stopped differences have
    cases = [
        np.array([round(rng.gauss(0, 1), 2) for _ in range(size)])
        for size in (0, 1, 2, 5, 20, 31, 32, 33, 100, 400)
    ]
    x = 0.3
    up = np.nextafter(x, np.inf)
    cases += [
        # exact repeats only
        np.array([0.5, 0.5, 0.5, 1.0, 1.0, -1.0, 0.0, 1.0]),
        # ulp neighbours, whose midpoints round onto one of them
        np.array([x, up, np.nextafter(up, np.inf), np.nextafter(x, -np.inf), x]),
        # one positive value among zeros, signed zeros and negatives
        np.array([0.0, -2.0, 0.7, -0.0, -0.7, 0.7]),
        # more distinct values than grid points, repeated and shuffled
        rng.sample(list(np.arange(1, 3 * _T_GRID_POINTS) / 7) * 2, 6 * _T_GRID_POINTS - 2),
    ]
    sizes = []
    for diffs in cases:
        diffs = np.asarray(diffs, dtype=float)
        vals = np.unique(diffs[diffs > 0])
        want = [0.0]
        if vals.size:
            grid = [0.0, *_grid_with_midpoints_oracle(vals), 1.25 * float(vals[-1])]
            if len(grid) > _T_GRID_POINTS:
                idx = np.linspace(0, len(grid) - 1, _T_GRID_POINTS).astype(int)
                grid = [grid[j] for j in np.unique(idx)]
            want = grid
        sizes.append(len(want))
        assert _t_grid_from_diffs(diffs.reshape(-1, 1)).tolist() == want
    assert min(sizes) == 1 and max(sizes) == _T_GRID_POINTS
    # the single positive value: 0, itself and 1.25 times it
    assert sizes[-2] == 3


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
    """``stack`` trials per batch (by shrinking the batch's byte budget)
    exercises the slicing of the trials, None keeps the default of one
    batch."""
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
            monkeypatch.setattr(experiments, "BLOCK_BYTES",
                                stack * 32 * cfg.space.n_leaves)
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


def _weak_type_oracle(f, p, grid):
    """The former per-lambda loop of weak_type_check: a masked sum, a scalar
    modular and the exponent extrema of A = {Mf > lambda} for each lambda in
    turn.  (ratios, bounds, asserted), and the first lambda whose asserted
    bound is exceeded, or None."""
    mf = maximal(f)
    ratios, bounds, asserted, failed = [], [], [], None
    for lam in grid:
        a_mask = mf > lam
        pa = float(f.space.probs[a_mask].sum())
        if pa == 0.0:
            ratios.append(0.0)
            bounds.append(1.0)
            asserted.append(False)
            continue
        idx = np.nonzero(a_mask)[0]
        ratio = pa / modular(f.space, f.terminal, p, lam)
        bound = p.p_plus(idx) / p.p_minus(idx)
        check = p.p_minus(idx) >= 1.0
        if failed is None and check and ratio > bound + experiments.ASSERT_SLACK:
            failed = lam
        ratios.append(ratio)
        bounds.append(bound)
        asserted.append(check)
    return ratios, bounds, asserted, failed


def _weak_type_grids(f, rng):
    """The default grid with max Mf and a lambda above it appended, and a
    shuffled copy of it with some lambdas repeated."""
    top = float(maximal(f).max())
    grid = [*default_lambda_grid(f), top, 2.0 * top + 1.0]
    mixed = grid + rng.sample(grid, len(grid) // 2)
    rng.shuffle(mixed)
    return grid, mixed


def _assert_weak_type_matches(f, p, grid, rel):
    ratios, bounds, asserted, failed = _weak_type_oracle(f, p, grid)
    assert failed is None
    rep = weak_type_check(f, p, grid)
    got, want = np.array(rep.ratios), np.array(ratios)
    assert np.all(np.abs(got - want) <= rel * want)
    assert rep.details["lambda_grid"] == grid
    np.testing.assert_array_equal(rep.details["bounds"], bounds)
    assert rep.details["asserted"] == asserted
    return rep


def test_weak_type_matches_per_lambda_loop():
    """Random trees, exponents in [0.5, 3] so that p < 1 on part of some
    sets A, and unsorted grids with repeats and lambdas >= max Mf.  P(A) is
    a prefix sum over the leaves by decreasing Mf instead of a masked sum,
    so a ratio may move in its last bits."""
    rng = random.Random(151)
    for _ in range(60):
        sp = random_tree_space(rng)
        v = [rng.gauss(0.0, 1.0) for _ in range(sp.n_leaves)]
        f = martingale_from_terminal(sp, v)
        p = random_exponent(rng, sp.n_leaves, 0.5, 3.0)
        for grid in _weak_type_grids(f, rng):
            _assert_weak_type_matches(f, p, grid, 1e-14)


@pytest.mark.parametrize("law", ["constant", "two-block", "iid-uniform"])
@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_weak_type_matches_per_lambda_loop_bitwise_on_dyadic(depth, law):
    """Every partial sum of 2^-depth is exact, so on dyadic spaces the
    whole report equals the loop's bit for bit."""
    rng = random.Random(f"weak-type:{depth}:{law}")
    cfg = config(depth=depth, seed=depth)
    f = generate_martingale(cfg, 0)
    p = generate_exponent(f.space, law, (0.8, 3.0), depth)
    for grid in _weak_type_grids(f, rng):
        rep = _assert_weak_type_matches(f, p, grid, 0.0)
        loop = _weak_type_oracle(f, p, grid)[0]
        assert rep.ratios.tolist() == loop
        top = float(maximal(f).max())
        best = max(r for r, lam in zip(loop, grid) if lam < top)
        assert rep.witness["ratio"] == best
        assert rep.witness["lambda"] == grid[loop.index(best)]


def test_weak_type_failure_names_first_failing_lambda(monkeypatch):
    """With every modular read ten times too small, the ratios exceed their
    bounds; the error names the first such lambda in grid order, as the
    loop does."""
    rng = random.Random(5)
    f = generate_martingale(config(depth=4, seed=2), 0)
    p = generate_exponent(f.space, "iid-uniform", (0.8, 3.0), 2)
    # ascending: the smallest lambdas have p < 1 on A and assert nothing
    grid = _weak_type_grids(f, rng)[0]
    real = experiments.modular_grid
    monkeypatch.setattr(experiments, "modular_grid",
                        lambda *args: real(*args) / 10.0)
    failed = None
    mf = maximal(f)
    for lam in grid:
        idx = np.nonzero(mf > lam)[0]
        if idx.size and p.p_minus(idx) >= 1.0:
            pa = float(f.space.probs[idx].sum())
            ratio = pa / (modular(f.space, f.terminal, p, lam) / 10.0)
            if ratio > p.p_plus(idx) / p.p_minus(idx) + experiments.ASSERT_SLACK:
                failed = lam
                break
    assert failed is not None and failed != grid[0]
    with pytest.raises(NumericalError, match="exceeds proof-chain") as info:
        weak_type_check(f, p, grid)
    assert str(info.value).endswith(f"at lambda={failed}")


def _modular_oracle(probs, pvals, f, lam):
    """The former scalar modular: one sum of the leaves' terms."""
    return float(np.sum(probs * (np.abs(f) / lam) ** pvals))


def test_modular_grid_matches_one_lambda_calls():
    """Bit for bit, across the 1 MB blocks of a 2048-leaf grid."""
    rng = random.Random(29)
    spaces = [random_tree_space(rng) for _ in range(30)] + [build_dyadic_space(11)]
    for sp in spaces:
        n = sp.n_leaves
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        p = Exponent([rng.uniform(0.5, 3.0) for _ in range(n)])
        lams = np.concatenate((
            np.abs(v[: min(n, 50)]),
            [rng.uniform(0.01, 4.0) for _ in range(150)],
        ))
        got = modular_grid(sp.probs, p.vals, v, lams)
        one = [modular(sp, v, p, lam) for lam in lams]
        want = [_modular_oracle(sp.probs, p.vals, v, lam) for lam in lams]
        assert got.tolist() == one == want


def test_weak_type_memory_is_bounded_on_2048_leaves():
    """About 4,000 lambdas on 2048 leaves: all (lambda, leaf) terms at once
    would hold 62 MB per temporary; made 1 MB at a time the call peaks
    far lower."""
    f = generate_martingale(config(depth=11, seed=1), 0)
    p = generate_exponent(f.space, "iid-uniform", (1.2, 2.8), 0)
    tracemalloc.start()
    try:
        rep = weak_type_check(f, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.ratios) > 3000
    assert peak < 16 * 2**20
