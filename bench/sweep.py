"""Run every workload over seeds 1 to 10, one fresh process per run, and
summarize each end-to-end metric by its median and quartiles; one traced
run per workload adds the per-layer metrics.

    python3 bench/sweep.py --out bench/results/BENCH_0.json
    python3 bench/sweep.py --against bench/results/BENCH_0.json

The spread of a metric is (q3 - q1) / median over the runs, with the
quartiles of ``statistics.quantiles(values, n=4)``.  A spread above a third
of the metric's bound in BENCHMARK.json is flagged.  The summary keeps every
run's reported values, its unscaled timings and its host-speed factors, so
that the probe scaling can be checked against the raw clock.  With
``--against`` each median is compared with that of an earlier summary, and
a shift for the worse beyond the metric's bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def worse_by(metric: dict, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--against", help="an earlier summary to compare medians with")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
               "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        reported: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        speeds: dict[str, list[float]] = {"host_speed": [], "setup_host_speed": []}
        attempted = failed = 0
        for seed in SEEDS:
            result, env = run_once(spec, workload, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                reported.setdefault(name, []).append(m["value"])
            for name, value in env["unscaled"].items():
                unscaled.setdefault(name, []).append(value)
            for name, values in speeds.items():
                values.append(env[name])
        traced, _ = run_once(spec, workload, SEEDS[0], 1)
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "metrics": {name: summarize(v) for name, v in reported.items()},
            "unscaled": {name: summarize(v) for name, v in unscaled.items()},
            **speeds,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}}
        summary["env"] = {k: v for k, v in env.items()
                          if k in ("nproc", "cpu", "python", "numpy",
                                   "blas_threads", "commit", "seconds")}
        ok = ok and failed == 0
        print(f"{workload}: {attempted} ops, {failed} failed")
        for kind in ("metrics", "unscaled"):
            for name, st in summary["workloads"][workload][kind].items():
                bound = end_to_end[name]["bound"]
                flag = ""
                if kind == "metrics" and st["spread"] > bound / 3:
                    flag += "  spread above bound/3"
                    ok = False
                line = (f"  {name + ('' if kind == 'metrics' else ' (raw)'):24s}"
                        f" median {st['median']:12.6g}  spread {st['spread']:.4f}")
                if earlier is not None:
                    old = earlier[workload][kind][name]["median"]
                    shift = worse_by(end_to_end[name], old, st["median"])
                    line += f"  worse by {shift:+.4f} (bound {bound})"
                    if kind == "metrics" and shift > bound:
                        flag += "  shift above bound"
                        ok = False
                print(line + flag)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
