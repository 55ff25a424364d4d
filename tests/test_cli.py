import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vexmart
from vexmart import (
    Exponent,
    FilteredSpace,
    Martingale,
    NumericalError,
    StoppingTime,
    ValidationError,
    atomic_decompose,
    build_dyadic_space,
    build_mary_space,
    constant_exponent,
    martingale_from_terminal,
    reconstruct,
    validate_filtration,
)
from vexmart import bmo, martingale, serialize, space
from vexmart.cli import run
from vexmart.experiments import (
    TrialConfig,
    doob_strong_check,
    exp_jn_curve,
    generate_exponent,
    generate_martingale,
    jn_equivalence,
    violation_33_search,
    weak_type_check,
)

from conftest import drop_root_level, random_tree_space, relabelled_levels
import random


# four leaves; level 0 is {0}, {1}, {2, 3}
STOPPING_SPACE = {
    "leaf_probs": [0.25] * 4,
    "levels": [[[0], [1], [2, 3]], [[0], [1], [2], [3]]],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def quad_inputs(tmp_path):
    """Uniform two-leaf space, f = (1, 2), p = (1, 2)."""
    sp = write_json(tmp_path / "space.json", {
        "leaf_probs": [0.5, 0.5],
        "levels": [[[0, 1]], [[0], [1]]],
    })
    pe = write_json(tmp_path / "p.json", {"values": [1.0, 2.0]})
    fn = write_json(tmp_path / "f.json", {"values": [1.0, 2.0]})
    return sp, pe, fn


class TestNorm:
    def test_quadratic_example(self, capsys, quad_inputs):
        sp, pe, fn = quad_inputs
        code = run(["norm", "--space", sp, "--exponent", pe, "--function", fn])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "1.68614066163"
        assert float(out) == pytest.approx((1 + math.sqrt(33)) / 4, rel=1e-10)

    def test_output_file(self, capsys, tmp_path, quad_inputs):
        sp, pe, fn = quad_inputs
        dest = tmp_path / "norm.txt"
        code = run(["norm", "--space", sp, "--exponent", pe,
                    "--function", fn, "--output", str(dest)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text().strip() == "1.68614066163"

    def test_output_env_prefix(self, tmp_path, monkeypatch, quad_inputs):
        sp, pe, fn = quad_inputs
        monkeypatch.setenv("VEXMART_OUT", str(tmp_path))
        code = run(["norm", "--space", sp, "--exponent", pe,
                    "--function", fn, "--output", "rel.txt"])
        assert code == 0
        assert (tmp_path / "rel.txt").read_text().strip() == "1.68614066163"


class TestSpaceGen:
    def test_gen_dyadic_reingests(self, capsys):
        assert run(["space", "gen-dyadic", "--depth", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["leaf_probs"] == [0.25] * 4
        sp = serialize.space_from_json(obj)
        assert sp.n_leaves == 4 and sp.depth == 2

    def test_matches_builder(self, capsys):
        run(["space", "gen-dyadic", "--depth", "3"])
        obj = json.loads(capsys.readouterr().out)
        want = serialize.space_to_json(build_dyadic_space(3))
        assert obj == want


class TestSerializeRoundTrips:
    def test_space(self):
        rng = random.Random(1)
        for _ in range(10):
            sp = random_tree_space(rng)
            sp2 = serialize.space_from_json(
                json.loads(serialize.dumps(serialize.space_to_json(sp)))
            )
            assert sp2 == sp

    def test_space_levels_group_block_of(self):
        # each level's blocks by position, leaves ascending inside a block,
        # against a per-block loop, on trees, relabelled trees and forests
        rng = random.Random(5)
        for _ in range(20):
            base = random_tree_space(rng)
            relabelled = validate_filtration(*relabelled_levels(base, rng))
            for sp in (base, relabelled, drop_root_level(base), build_mary_space(3, 2)):
                obj = serialize.space_to_json(sp)
                assert obj["levels"] == [
                    [np.flatnonzero(bo == b).tolist() for b in range(k)]
                    for bo, k in zip(sp.block_of, sp.n_blocks)
                ]
                assert obj["leaf_probs"] == sp.probs.tolist()
                assert serialize.space_from_json(obj) == sp

    def test_exponent_and_function(self):
        p = Exponent((1.25, 17.5, 2.0))
        back = serialize.exponent_from_json(
            json.loads(serialize.dumps(serialize.exponent_to_json(p)))
        )
        assert back == p
        vals = [0.1, -3.7, 0.0]
        assert serialize.function_from_json(
            json.loads(serialize.dumps(serialize.function_to_json(vals)))
        ) == vals

    def test_martingale_terminal_and_full(self):
        sp = build_mary_space(3, 2)
        rng = random.Random(2)
        f = martingale_from_terminal(
            sp, [rng.gauss(0, 1) for _ in range(sp.n_leaves)]
        )
        for full in (False, True):
            obj = json.loads(serialize.dumps(serialize.martingale_to_json(f, full)))
            assert serialize.martingale_from_json(sp, obj) == f

    def test_stopping_time(self):
        sp = serialize.space_from_json(STOPPING_SPACE)
        tau = StoppingTime((0.0, 1.0, math.inf, math.inf))
        obj = serialize.stopping_time_to_json(tau)
        assert obj["stop_level"] == [0, 1, "inf", "inf"]
        assert serialize.stopping_time_from_json(sp, obj) == tau

    @pytest.mark.parametrize("obj, match", [
        ({"stop_level": [0, "x", "inf", "inf"]}, "numbers"),
        ({"stop_level": [0.5, 1, "inf", "inf"]}, "stop level 0.5"),
        ({"stop_level": [0, 7, "inf", "inf"]}, "stop level 7.0"),
        ({"stop_level": [0, 1, 0, "inf"]}, "not measurable"),
        ({"stop_level": [0, 1, "inf"]}, "expected 4 stop levels"),
        ({"stop_level": "inf"}, "list"),
        ({"levels": [0, 0, 0, 0]}, "missing key"),
        ([0, 1, "inf", "inf"], "object"),
        ({"stop_level": [[0, 0, 1, 1]]}, r"expected 4 stop levels, got shape \(1, 4\)"),
    ])
    def test_stopping_time_rejects(self, obj, match):
        sp = serialize.space_from_json(STOPPING_SPACE)
        with pytest.raises(ValidationError, match=match):
            serialize.stopping_time_from_json(sp, obj)

    def test_decomposition(self):
        sp = build_dyadic_space(3)
        rng = random.Random(3)
        v = np.array([rng.gauss(0, 1) for _ in range(sp.n_leaves)])
        v -= v.mean()
        f = martingale_from_terminal(sp, v)
        p = constant_exponent(sp, 1.5)
        dec = atomic_decompose(f, p)
        back = serialize.decomposition_from_json(
            sp, json.loads(serialize.dumps(serialize.decomposition_to_json(dec)))
        )
        assert back.terms == dec.terms
        assert np.allclose(reconstruct(back).arrays, f.arrays, atol=1e-12)

    def test_decomposition_rejects_nan_term(self):
        text = ('[{"k": 0, "mu": NaN, "tau": [NaN, -5.0], '
                '"atom_terminal": [1.0, -1.0]}]')
        with pytest.raises(ValidationError):
            serialize.decomposition_from_json(build_dyadic_space(1), json.loads(text))
        term = {"mu": 1.5, "tau": [0, 0], "atom_terminal": [1.0, -1.0]}
        with pytest.raises(ValidationError, match="missing"):
            serialize.decomposition_from_json(build_dyadic_space(1), [term])

    @pytest.mark.parametrize("change, match", [
        ({"tau": [0, 1]}, "not measurable"),
        ({"tau": [math.nan, -5.0]}, "stop level"),
        ({"tau": ["inf", "never"]}, "numbers"),
        ({"tau": 0}, "list"),
        ({"mu": math.inf}, "mu"),
        ({"mu": -1.0}, "mu"),
        ({"mu": "1.5"}, "mu"),
        ({"k": 0.5}, "integer"),
        ({"k": True}, "integer"),
        ({"atom_terminal": [math.inf, -1.0]}, "finite"),
        ({"atom_terminal": [1.0, -1.0, 0.0]}, "leaf values"),
        ({"atom_terminal": [1.0, "x"]}, "numbers"),
    ])
    def test_decomposition_rejects_bad_terms(self, change, match):
        term = {"k": 0, "mu": 1.5, "tau": [0, 0], "atom_terminal": [1.0, -1.0]}
        sp = build_dyadic_space(1)
        assert serialize.decomposition_from_json(sp, [term]).terms[0].mu == 1.5
        with pytest.raises(ValidationError, match=match):
            serialize.decomposition_from_json(sp, [{**term, **change}])


class TestDeterminism:
    def test_experiment_bytes_identical(self, tmp_path):
        argv = ["experiment", "doob", "--depth", "2", "--seed", "7",
                "--trials", "20", "--p-lo", "1.3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--output", str(a)]) == 0
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())  # stays valid JSON

    @pytest.mark.parametrize("name", ["weak-type", "doob", "jn", "exp-jn", "violation-33"])
    def test_experiment_defaults_are_trial_configs(self, capsys, name):
        # an experiment option left out takes TrialConfig's default: the
        # report is the library call's on TrialConfig(space, trials=2) and
        # the exponent drawn by TrialConfig's law, range and seed
        argv = ["experiment", name, "--depth", "2"]
        if name in ("doob", "jn", "violation-33"):
            argv += ["--trials", "2"]
        assert run(argv) == 0
        sp = build_dyadic_space(2)
        config = TrialConfig(sp, trials=2)
        p = generate_exponent(sp, TrialConfig.exponent_law, TrialConfig.p_range,
                              TrialConfig.seed)
        report = {
            "weak-type": lambda: weak_type_check(generate_martingale(config), p),
            "doob": lambda: doob_strong_check(config, p),
            "jn": lambda: jn_equivalence(config, p),
            "exp-jn": lambda: exp_jn_curve(generate_martingale(config), p),
            "violation-33": lambda: violation_33_search(config),
        }[name]()
        assert capsys.readouterr().out == serialize.dumps(report.as_dict()) + "\n"

    def test_violation_json_has_family(self, capsys):
        assert run(["experiment", "violation-33", "--depth", "1",
                    "--trials", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ratios"][:3] == [4.0, 50.0, 5000.0]
        assert obj["details"]["deterministic_family"][2]["c"] == 10000.0

    def test_nakai_sadasue_json(self, capsys):
        assert run(["experiment", "nakai-sadasue", "--max-n", "5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["ratios"]) == 5
        assert obj["witness"]["spread"] >= 0.5


class TestCsvOutput:
    def test_exp_jn_curve_csv(self, capsys):
        assert run(["experiment", "exp-jn", "--depth", "2", "--seed", "3",
                    "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,y"
        xs = [float(l.split(",")[0]) for l in lines[1:]]
        assert xs == sorted(xs) and xs[0] == 0.0

    def test_weak_type_lambda_csv(self, capsys):
        assert run(["experiment", "weak-type", "--depth", "2", "--seed", "1",
                    "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,y"
        xs = [float(l.split(",")[0]) for l in lines[1:]]
        assert xs == sorted(xs) and xs[0] > 0.0

    def test_ratio_csv(self, capsys):
        assert run(["experiment", "nakai-sadasue", "--max-n", "3",
                    "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,ratio"
        assert len(lines) == 4


class TestOtherCommands:
    def test_decompose_round_trip(self, capsys, tmp_path):
        sp_obj = serialize.space_to_json(build_dyadic_space(2))
        sp = write_json(tmp_path / "s.json", sp_obj)
        pe = write_json(tmp_path / "p.json", {"values": [1.0] * 4})
        mg = write_json(tmp_path / "m.json",
                        {"terminal": [1.0, -1.0, 2.0, -2.0]})
        assert run(["decompose", "--space", sp, "--exponent", pe,
                    "--martingale", mg]) == 0
        terms = json.loads(capsys.readouterr().out)
        space = serialize.space_from_json(sp_obj)
        dec = serialize.decomposition_from_json(space, terms)
        rec = reconstruct(dec)
        assert np.allclose(rec.terminal, [1.0, -1.0, 2.0, -2.0], atol=1e-9)

    def test_check_condition_k(self, capsys, tmp_path):
        sp = write_json(
            tmp_path / "s.json",
            serialize.space_to_json(build_dyadic_space(2)),
        )
        pe = write_json(tmp_path / "p.json", {"values": [1.0, 1.0, 2.0, 2.0]})
        assert run(["check", "condition-k", "--space", sp,
                    "--exponent", pe]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["k"] == pytest.approx(2.0, rel=1e-12)
        assert obj["mode"] == "exact-pairwise"

    def test_bmo_command(self, capsys, tmp_path):
        sp = write_json(
            tmp_path / "s.json",
            {"leaf_probs": [0.5, 0.5], "levels": [[[0, 1]], [[0], [1]]]},
        )
        pe = write_json(tmp_path / "p.json", {"values": [2.0, 2.0]})
        mg = write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0]})
        assert run(["bmo", "--space", sp, "--exponent", pe,
                    "--martingale", mg]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["value"] == pytest.approx(1.0, rel=1e-10)
        # a constant exponent: auto compares the root and the two leaves
        assert obj["mode"] == "dp" and obj["candidates"] == 3


class TestExitCodes:
    def test_missing_file_is_validation(self, capsys, tmp_path):
        code = run(["norm", "--space", str(tmp_path / "nope.json"),
                    "--exponent", "x", "--function", "y"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(["norm", "--space", str(bad),
                    "--exponent", str(bad), "--function", str(bad)])
        assert code == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run(["norm", "--nope"]) == 1
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    def test_domain_error_exit_one(self, capsys, tmp_path):
        # doob requires p_- > 1: a constant exponent at 1.0 is rejected
        code = run(["experiment", "doob", "--depth", "1", "--p-law",
                    "constant", "--p-lo", "1.0", "--p-hi", "1.0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_resource_error_exit_two(self, capsys, tmp_path):
        # depth 5 has ~2e11 stopping times, far past the enumeration cap
        sp5 = build_dyadic_space(5)
        sp = write_json(tmp_path / "s.json", serialize.space_to_json(sp5))
        pe = write_json(tmp_path / "p.json", {"values": [1.5] * 32})
        term = [1.0 if i % 2 == 0 else -1.0 for i in range(32)]
        mg = write_json(tmp_path / "m.json", {"terminal": term})
        code = run(["bmo", "--space", sp, "--exponent", pe,
                    "--martingale", mg, "--mode", "exhaustive"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_dp_mode(self, capsys, tmp_path):
        # the block maximum on dyadic 5 (2 * 10^11 stopping times, 63 blocks)
        # with a constant exponent or alpha; a variable one is refused with
        # exit 1
        sp = write_json(tmp_path / "s.json", serialize.space_to_json(build_dyadic_space(5)))
        term = [1.0 if i % 3 == 0 else -0.5 for i in range(32)]
        term = [t - sum(term) / 32 for t in term]
        mg = write_json(tmp_path / "m.json", {"terminal": term})
        pc = write_json(tmp_path / "pc.json", {"values": [1.5] * 32})
        pv = write_json(tmp_path / "pv.json", {"values": [1.5, 2.5] * 16})
        code = run(["bmo", "--space", sp, "--exponent", pc, "--martingale", mg,
                    "--mode", "dp"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["mode"] == "dp" and out["candidates"] == 63
        assert out["value"] > 0 and len(out["argmax_tau"]) == 32
        code = run(["bmo", "--space", sp, "--exponent", pv, "--martingale", mg,
                    "--mode", "dp"])
        assert code == 1
        assert "constant exponent" in capsys.readouterr().err
        for alpha, mode in ((pc, "dp"), (pc, "auto")):
            code = run(["lipschitz", "--space", sp, "--martingale", mg, "--q", "2",
                        "--alpha", alpha, "--mode", mode])
            out = json.loads(capsys.readouterr().out)
            assert code == 0 and out["mode"] == "dp" and out["candidates"] == 63
        code = run(["lipschitz", "--space", sp, "--martingale", mg, "--q", "2",
                    "--alpha", pv, "--mode", "dp"])
        assert code == 1
        assert "constant alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bmo", "lipschitz"])
    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "dp"])
    @pytest.mark.parametrize("samples", ["0", "-7"])
    def test_nonpositive_samples_refused_in_every_mode(
        self, capsys, tmp_path, command, mode, samples
    ):
        # no command samples: --samples is refused at parse time as an
        # unknown option in every mode
        sp = write_json(tmp_path / "s.json", serialize.space_to_json(build_dyadic_space(3)))
        mg = write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0, 2.5, -2.5] * 2})
        vals = write_json(tmp_path / "v.json", {"values": [1.5] * 8})
        inputs = (["--exponent", vals] if command == "bmo"
                  else ["--q", "2", "--alpha", vals])
        code = run([command, "--space", sp, "--martingale", mg, *inputs,
                    "--samples", samples, "--mode", mode])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --samples {samples}" in captured.err

    @pytest.mark.parametrize("command", ["bmo", "lipschitz"])
    @pytest.mark.parametrize("option", [["--mode", "sampled"], ["--seed", "3"]])
    def test_sampling_options_refused(self, capsys, tmp_path, command, option):
        # the sampler's other option, --samples, is the test above's
        sp = write_json(tmp_path / "s.json", serialize.space_to_json(build_dyadic_space(6)))
        mg = write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0, 2.5, -2.5] * 16})
        vals = write_json(tmp_path / "v.json", {"values": [1.5, 2.5] * 32})
        inputs = (["--exponent", vals] if command == "bmo"
                  else ["--q", "2", "--alpha", vals])
        assert run([command, "--space", sp, "--martingale", mg, *inputs, *option]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and option[0] in captured.err

    def test_block_scan_memory_cap_exit_two(self, capsys, tmp_path, monkeypatch):
        """Past the cap a variable exponent takes the single-block pass,
        refused by its working set's bytes before it is allocated; a
        constant one takes dp."""
        # 7 levels of 64 leaves, BLOCK_PASS_ARRAYS floats per cell
        need = 8 * 7 * 64 * bmo.BLOCK_PASS_ARRAYS
        monkeypatch.setattr(bmo, "MAX_SCAN_BYTES", need - 1)
        sp = write_json(tmp_path / "s.json", serialize.space_to_json(build_dyadic_space(6)))
        mg = write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0, 2.0, -2.0] * 16})
        for values, code in (([1.5, 2.5] * 32, 2), ([1.5] * 64, 0)):
            pe = write_json(tmp_path / "p.json", {"values": values})
            assert run(["bmo", "--space", sp, "--exponent", pe, "--martingale", mg]) == code
            err = capsys.readouterr().err
            assert ("bytes" in err and "dp" in err) if code else err == ""
        # the budget is met exactly
        monkeypatch.setattr(bmo, "MAX_SCAN_BYTES", need)
        pe = write_json(tmp_path / "p.json", {"values": [1.5, 2.5] * 32})
        assert run(["bmo", "--space", sp, "--exponent", pe, "--martingale", mg]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "block-lower"

    @pytest.mark.parametrize("mode", ["auto", "exhaustive"])
    def test_deep_filtration_bmo(self, capsys, tmp_path, mode):
        # 1,500 levels: far deeper than the interpreter's recursion limit,
        # with 1 + 1501**2 stopping times, so auto mode takes the 3,001
        # single-block stopping times and exhaustive mode is refused
        sp = write_json(tmp_path / "s.json", {
            "leaf_probs": [0.5, 0.5],
            "levels": [[[0, 1]]] + [[[0], [1]]] * 1500,
        })
        pe = write_json(tmp_path / "p.json", {"values": [1.5, 2.5]})
        mg = write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0]})
        code = run(["bmo", "--space", sp, "--exponent", pe, "--martingale", mg,
                    "--mode", mode])
        if mode == "exhaustive":
            assert code == 2
            return
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "block-lower" and out["candidates"] == 3001

    def test_bad_space_json_exit_one(self, capsys, tmp_path):
        # validation failure inside the space loader: bad refinement
        bad = write_json(tmp_path / "bad.json", {
            "leaf_probs": [0.5, 0.5],
            "levels": [[[0], [1]], [[0, 1]]],
        })
        pe = write_json(tmp_path / "p.json", {"values": [1.5, 1.5]})
        mg = write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0]})
        code = run(["bmo", "--space", bad, "--exponent", pe,
                    "--martingale", mg])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "a"])
    def test_non_finite_function_exit_one(self, capsys, tmp_path, quad_inputs, bad):
        sp, pe, _ = quad_inputs
        fn = write_json(tmp_path / "bad_f.json", {"values": [bad, 1.0]})
        code = run(["norm", "--space", sp, "--exponent", pe, "--function", fn])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "a"])
    @pytest.mark.parametrize("key", ["terminal", "levels"])
    def test_non_finite_martingale_exit_one(self, capsys, tmp_path, quad_inputs,
                                            bad, key):
        sp, pe, _ = quad_inputs
        obj = ({"terminal": [bad, 1.0]} if key == "terminal"
               else {"levels": [[0.0, 0.0], [bad, 1.0]]})
        mg = write_json(tmp_path / "bad_m.json", obj)
        code = run(["decompose", "--space", sp, "--exponent", pe,
                    "--martingale", mg])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["a", 1.0], [math.nan, 1.0], [0.0, 1.0],
                                     [[1.0], [2.0]], "ab", [math.inf, 1.0]])
    def test_bad_exponent_exit_one(self, capsys, tmp_path, quad_inputs, bad):
        sp, _, fn = quad_inputs
        pe = write_json(tmp_path / "bad_p.json", {"values": bad})
        code = run(["norm", "--space", sp, "--exponent", pe, "--function", fn])
        assert code == 1
        assert "exponent values" in capsys.readouterr().err

    @pytest.mark.parametrize("space", [
        {"leaf_probs": ["a", 0.5], "levels": [[[0, 1]], [[0], [1]]]},
        {"leaf_probs": [0.5, 0.5], "levels": [[[0, "1"]], [[0], [1]]]},
        {"leaf_probs": [0.5, 0.5], "levels": [[0, 1], [[0], [1]]]},
        {"leaf_probs": [0.5, 0.5], "levels": [[[0, 1.9]], [[0], [1.2]]]},
        [1, 2],
        "space",
        None,
    ])
    def test_malformed_space_exit_one(self, capsys, tmp_path, quad_inputs, space):
        _, pe, fn = quad_inputs
        sp = write_json(tmp_path / "bad_space.json", space)
        code = run(["norm", "--space", sp, "--exponent", pe, "--function", fn])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[1.0, 2.0], "x", 3, None])
    @pytest.mark.parametrize("which", ["space", "exponent", "function"])
    def test_non_object_json_exit_one(self, capsys, tmp_path, quad_inputs,
                                      which, value):
        files = dict(zip(("space", "exponent", "function"), quad_inputs))
        files[which] = write_json(tmp_path / "bad.json", value)
        code = run(["norm", "--space", files["space"], "--exponent",
                    files["exponent"], "--function", files["function"]])
        assert code == 1
        assert f"{which} JSON must be an object" in capsys.readouterr().err

    def test_decompose_square_function_overflow_exit_one(self, capsys, tmp_path,
                                                         quad_inputs):
        sp, _, _ = quad_inputs
        pe = write_json(tmp_path / "p2.json", {"values": [2.0, 2.0]})
        mg = write_json(tmp_path / "m.json", {"terminal": [1e160, -1e160]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["decompose", "--space", sp, "--exponent", pe,
                        "--martingale", mg])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "overflows" in captured.err

    @pytest.mark.parametrize("values", [[3.0] * 3, [1.5, 2.5, 2.0]])
    @pytest.mark.parametrize("command", [
        ["norm", "--function", "f"], ["decompose", "--martingale", "m"],
        ["check", "condition-k"], ["check", "aoyama"],
        ["check", "lemma34", "--function", "f"], ["bmo", "--martingale", "m"],
        ["experiment", "weak-type", "--martingale", "m"],
        ["experiment", "doob", "--trials", "2"],
        ["experiment", "jn", "--trials", "2"],
        ["experiment", "exp-jn", "--martingale", "m"],
    ])
    def test_exponent_of_the_wrong_length_exit_one(self, capsys, tmp_path,
                                                   values, command):
        # three exponent values on four leaves, constant or variable
        paths = {
            "--space": write_json(tmp_path / "s.json",
                                  serialize.space_to_json(build_dyadic_space(2))),
            "--exponent": write_json(tmp_path / "p.json", {"values": values}),
            "f": write_json(tmp_path / "f.json", {"values": [1.0, -2.0, 0.5, 3.0]}),
            "m": write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0, 2.5, -2.5]}),
        }
        argv = [paths.get(a, a) for a in command]
        code = run([*argv, "--space", paths["--space"],
                    "--exponent", paths["--exponent"]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: expected 4 exponent values")

    @pytest.mark.parametrize("command, option", [
        (["space", "gen-dyadic", "--depth", "1"], ["--format", "csv"]),
        (["norm", "--exponent", "p", "--function", "f"], ["--format", "csv"]),
        (["decompose", "--exponent", "p", "--martingale", "m"], ["--format", "csv"]),
        (["check", "condition-k", "--exponent", "p"], ["--format", "csv"]),
        (["check", "aoyama", "--exponent", "p"], ["--format", "csv"]),
        (["bmo", "--exponent", "p", "--martingale", "m"], ["--format", "csv"]),
        (["lipschitz", "--martingale", "m", "--q", "2", "--alpha", "a"],
         ["--format", "csv"]),
        (["experiment", "weak-type"], ["--trials", "7"]),
        (["experiment", "exp-jn"], ["--trials", "7"]),
        (["experiment", "violation-33", "--trials", "2"], ["--f-law", "uniform"]),
    ])
    def test_option_the_command_does_not_read_exit_one(self, capsys, tmp_path,
                                                       command, option):
        # each command runs without the option and is refused with it
        paths = {
            "s": write_json(tmp_path / "s.json",
                            serialize.space_to_json(build_dyadic_space(2))),
            "p": write_json(tmp_path / "p.json", {"values": [1.5, 2.5, 2.0, 3.0]}),
            "f": write_json(tmp_path / "f.json", {"values": [1.0, -2.0, 0.5, 3.0]}),
            "m": write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0, 2.5, -2.5]}),
            "a": write_json(tmp_path / "a.json", {"values": [0.0, 0.4, 0.2, 0.0]}),
        }
        argv = [paths.get(a, a) for a in command]
        if command[0] == "experiment":
            argv += ["--depth", "2"]
        elif command[0] != "space":
            argv += ["--space", paths["s"]]
        assert run(argv) == 0
        capsys.readouterr()
        assert run(argv + option) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {' '.join(option)}\n"

    @pytest.mark.parametrize("command, option", [
        (["experiment", "doob", "--trials", "2"], ["--depth", "2"]),
        (["experiment", "violation-33", "--trials", "2"], ["--depth", "2"]),
        (["experiment", "weak-type", "--exponent", "p", "--martingale", "m"],
         ["--p-law", "constant"]),
        (["experiment", "doob", "--exponent", "p", "--trials", "2"],
         ["--p-lo", "2.9"]),
        (["experiment", "jn", "--exponent", "p", "--trials", "2"],
         ["--p-hi", "2.0"]),
        (["experiment", "exp-jn", "--exponent", "p"], ["--p-law", "two-block"]),
        (["experiment", "weak-type", "--martingale", "m"], ["--f-law", "two-point"]),
        (["experiment", "exp-jn", "--martingale", "m"], ["--f-law", "uniform"]),
        (["experiment", "weak-type", "--exponent", "p", "--martingale", "m"],
         ["--seed", "5"]),
        (["experiment", "exp-jn", "--exponent", "p", "--martingale", "m"],
         ["--seed", "5"]),
    ])
    def test_option_a_given_file_leaves_unread_exit_one(self, capsys, tmp_path,
                                                        command, option):
        # --depth beside --space, the exponent law and range beside
        # --exponent, the martingale law beside --martingale and the seed
        # beside both: each command runs without the option and is refused
        # with it
        paths = {
            "p": write_json(tmp_path / "p.json", {"values": [1.5, 2.5, 2.0, 3.0]}),
            "m": write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0, 2.5, -2.5]}),
        }
        space = write_json(tmp_path / "s.json",
                           serialize.space_to_json(build_dyadic_space(2)))
        argv = [paths.get(a, a) for a in command] + ["--space", space]
        assert run(argv) == 0
        capsys.readouterr()
        assert run(argv + option) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument {option[0]}: not allowed"
                                       if option[0] == "--depth" else
                                       f"error: {option[0]} is not read beside --")

    @pytest.mark.parametrize("command, option", [
        (["doob", "--exponent", "p", "--trials", "2"], ["--seed", "5"]),
        (["jn", "--exponent", "p", "--trials", "2"], ["--f-law", "uniform"]),
        (["weak-type", "--martingale", "m"], ["--seed", "5"]),
        (["weak-type", "--exponent", "p"], ["--f-law", "two-point"]),
        (["weak-type", "--martingale", "m"], ["--p-lo", "2.5"]),
        (["exp-jn"], ["--depth", "2"]),
    ])
    def test_option_read_beside_a_file_changes_the_report(self, capsys, tmp_path,
                                                          command, option):
        # what a given file leaves to be generated still reads its options
        paths = {
            "p": write_json(tmp_path / "p.json", {"values": [1.5, 2.5, 2.0, 3.0]}),
            "m": write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0, 2.5, -2.5]}),
        }
        argv = ["experiment", *(paths.get(a, a) for a in command)]
        if option[0] != "--depth":
            argv += ["--depth", "2"]
        outs = []
        for extra in ([], option):
            assert run(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]

    @pytest.mark.parametrize("value", [[1.0, 2.0], 3])
    def test_non_object_martingale_exit_one(self, capsys, tmp_path, quad_inputs,
                                            value):
        sp, pe, _ = quad_inputs
        mg = write_json(tmp_path / "bad_m.json", value)
        code = run(["decompose", "--space", sp, "--exponent", pe,
                    "--martingale", mg])
        assert code == 1
        assert "martingale JSON must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["nan", "inf"])
    def test_non_finite_lipschitz_q_exit_one(self, capsys, tmp_path, q):
        sp = write_json(tmp_path / "s.json", serialize.space_to_json(build_dyadic_space(3)))
        mg = write_json(tmp_path / "m.json", {"terminal": [1.0, -1.0, 2.5, -2.5] * 2})
        al = write_json(tmp_path / "a.json", {"values": [0.2, 0.4] * 4})
        code = run(["lipschitz", "--space", sp, "--martingale", mg, "--q", q,
                    "--alpha", al])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "finite q >= 1" in captured.err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dumps_refuses_non_finite_numbers(value):
    with pytest.raises(NumericalError, match="JSON"):
        serialize.dumps({"x": value})
    with pytest.raises(NumericalError):
        serialize.dumps({"curve": [[0.0, 1.0], [value, 0.5]]})


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-320, 5e-324, 1.7976931348623157e308]),
    st.text(),
    st.sampled_from(["inf", "a\"b\\c\n\t", "\x00\x1f", "é☃\U0001f600"]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | st.lists(st.one_of(st.integers(0, 20), st.just("inf"))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=5),
        st.dictionaries(st.one_of(st.integers(), st.text(max_size=3)), inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_dumps_is_json_dumps_with_indent(obj):
    assert serialize.dumps(obj) == json.dumps(obj, indent=2, allow_nan=False)


def test_tuple_views_are_removed():
    # values are arrays only: no tuple views and no StoppingTime wrapper
    # around the enumerated matrix
    for cls, name in (
        (FilteredSpace, "leaf_probs"),
        (FilteredSpace, "levels"),
        (Exponent, "values"),
        (Martingale, "levels"),
        (StoppingTime, "stop_level"),
    ):
        assert not hasattr(cls, name), name
    for module, name in (
        (vexmart, "enumerate_stopping_times"),
        (martingale, "enumerate_stopping_times"),
        (space, "_groups"),
        (space, "Blocks"),
    ):
        assert not hasattr(module, name), name
    assert "enumerate_stopping_times" not in vexmart.__all__
