import json
import math

import numpy as np
import pytest

from vexmart import (
    Exponent,
    StoppingTime,
    ValidationError,
    atomic_decompose,
    build_dyadic_space,
    build_mary_space,
    constant_exponent,
    martingale_from_terminal,
    reconstruct,
)
from vexmart import serialize
from vexmart.cli import run

from conftest import random_tree_space
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
            assert sp2.levels == sp.levels
            assert sp2.leaf_probs == sp.leaf_probs

    def test_exponent_and_function(self):
        p = Exponent((1.25, 17.5, 2.0))
        back = serialize.exponent_from_json(
            json.loads(serialize.dumps(serialize.exponent_to_json(p)))
        )
        assert back.values == p.values
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
            assert serialize.martingale_from_json(sp, obj).levels == f.levels

    def test_stopping_time(self):
        sp = serialize.space_from_json(STOPPING_SPACE)
        tau = StoppingTime((0.0, 1.0, math.inf, math.inf))
        obj = serialize.stopping_time_to_json(tau)
        assert obj["stop_level"] == [0, 1, "inf", "inf"]
        assert serialize.stopping_time_from_json(sp, obj).stop_level == tau.stop_level

    @pytest.mark.parametrize("obj, match", [
        ({"stop_level": [0, "x", "inf", "inf"]}, "numbers"),
        ({"stop_level": [0.5, 1, "inf", "inf"]}, "stop level 0.5"),
        ({"stop_level": [0, 7, "inf", "inf"]}, "stop level 7.0"),
        ({"stop_level": [0, 1, 0, "inf"]}, "not measurable"),
        ({"stop_level": [0, 1, "inf"]}, "expected 4 stop levels"),
        ({"stop_level": "inf"}, "list"),
        ({"levels": [0, 0, 0, 0]}, "missing key"),
        ([0, 1, "inf", "inf"], "object"),
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
        assert obj["candidates"] == 4


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
                                     [[1.0], [2.0]], "ab"])
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

    @pytest.mark.parametrize("value", [[1.0, 2.0], 3])
    def test_non_object_martingale_exit_one(self, capsys, tmp_path, quad_inputs,
                                            value):
        sp, pe, _ = quad_inputs
        mg = write_json(tmp_path / "bad_m.json", value)
        code = run(["decompose", "--space", sp, "--exponent", pe,
                    "--martingale", mg])
        assert code == 1
        assert "martingale JSON must be an object" in capsys.readouterr().err
