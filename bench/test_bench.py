"""Self-check of the benchmark (about two minutes):

    python3 -m pytest bench -q

It checks that every metric named in BENCHMARK.json is emitted for every
workload, that the traced counts repeat exactly, that a perturbed reference
value or a corrupted hardy-atoms output is caught, that bmo-free workloads
never reach bmo or stopping-time enumeration, and that the benchmark refuses
to run without the package.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import BmoSup, HardyAtoms, WideCli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in NAMES:
        out[name] = {
            "plain": result_of(bench(name, 0)),
            "traced": [result_of(bench(name, 1)) for _ in range(2)],
        }
    return out


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted(results, name):
    for res, spec_key in ((results[name]["plain"], "end_to_end"),
                          (results[name]["traced"][0], "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        for metric in res["metrics"].values():
            assert math.isfinite(metric["value"])
    assert results[name]["plain"]["attempted"] >= run.MIN_OPS
    for metric in results[name]["plain"]["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(results, name):
    first, second = (r["metrics"] for r in results[name]["traced"])
    for metric in spans.DETERMINISTIC:
        assert first[metric]["value"] == second[metric]["value"], metric


@pytest.mark.parametrize("name", ["hardy-atoms", "wide-cli"])
def test_bmo_free_workloads_bypass_bmo(results, name):
    metrics = results[name]["traced"][0]["metrics"]
    assert metrics["bmo.bmo_norm.calls"]["value"] == 0
    assert metrics["martingale.enumerate_stopping_matrix.calls"]["value"] == 0


def _first_cycle_failures(cls, reference, tmp_path):
    sys.path.insert(0, str(run.SRC))
    wl, _ = run.set_up(cls, 0, reference, tmp_path / "work")
    cycle = next(wl.schedule(0))
    lat, _, failures = run.run_ops(wl, [cycle], done=lambda elapsed, n: False)
    return cycle, lat, failures


def test_perturbed_bmo_reference_fails(tmp_path):
    reference = BmoSup.load_reference()
    cycle = next(BmoSup().schedule(0))
    exhaustive = next(op for op in cycle if op.startswith("bmo/dyadic-3/"))
    sampled = next(op for op in cycle if op.startswith("bmo/dyadic-6/"))
    reference[exhaustive] = dict(reference[exhaustive])
    reference[exhaustive]["value"] *= 1 + 1e-7
    # a sampled value is a lower bound: lowering it must still pass,
    # raising it must fail
    reference[sampled] = dict(reference[sampled], value=reference[sampled]["value"] * (1 + 1e-7))
    _, lat, failures = _first_cycle_failures(BmoSup, reference, tmp_path)
    assert len(failures) == 2 and len(failures) / len(lat) > 0
    reference[sampled]["value"] *= (1 - 1e-6)
    reference[exhaustive]["value"] /= 1 + 1e-7
    _, _, failures = _first_cycle_failures(BmoSup, reference, tmp_path)
    assert failures == []


def test_corrupted_hardy_output_fails(tmp_path):
    sys.path.insert(0, str(run.SRC))
    wl, _ = run.set_up(HardyAtoms, 0, None, tmp_path / "work")
    op = next(wl.schedule(0))[0]
    out = wl.execute(op)
    assert wl.check(op, out) is None
    f_max = float(np.abs(np.asarray(out["f"])).max())
    corruptions = (
        ("rec", np.asarray(out["rec"]) + 1e-6 * f_max),
        ("atoms", [False] + out["atoms"][1:]),
        ("hs", out["a"] + 1e-6),
    )
    for key, bad in corruptions:
        assert wl.check(op, dict(out, **{key: bad})) is not None, key


def test_perturbed_cli_reference_fails(tmp_path):
    reference = WideCli.load_reference()
    for input_set in range(WideCli.INPUT_SETS):
        nums = reference[f"{input_set}/lemma34"]["numbers"].copy()
        nums[len(nums) // 2] *= 1 + 1e-7
        reference[f"{input_set}/lemma34"]["numbers"] = nums
    cycle, lat, failures = _first_cycle_failures(WideCli, reference, tmp_path)
    assert len(failures) == cycle.count("lemma34") == 1
    assert "numbers differ" in failures[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("hardy-atoms", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
