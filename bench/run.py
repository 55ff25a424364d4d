"""Run one benchmark workload against the package in ``src/``.

    python3 bench/run.py --workload bmo-sup --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs a fixed number of cycles, each op once untraced and once with spans
recorded, and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it repeat the metrics with their
units and record the environment.
"""

import os

# BLAS threads are pinned before numpy is imported, and recorded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
MIN_OPS = 100  # so that at least ten latencies lie beyond op_p90_ms

# On a shared host the CPU's speed jumps by tens of percent within seconds,
# which would swamp a 10% change in the program.  The probe is a fixed piece
# of interpreter and numpy work that never touches vexmart; it runs around
# every set-up and between ops every PROBE_EVERY_S.  Each timed interval is
# scaled by PROBE_REF_S / (mean of the two probes around it), i.e. reported
# at the host speed at which PROBE_REF_S was measured.
PROBE_REF_S = 2.5e-3
PROBE_EVERY_S = 0.1
_PROBE_DATA = np.random.default_rng(0).standard_normal(400)

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    END_TO_END_UNITS = {m["name"]: m["unit"] for m in json.load(_fh)["end_to_end"]}


def import_vexmart():
    """A fresh import of the package from ``src/`` (earlier copies are
    dropped, so each set-up pays the import)."""
    for name in [n for n in sys.modules if n == "vexmart" or n.startswith("vexmart.")]:
        del sys.modules[name]
    vm = importlib.import_module("vexmart")
    importlib.import_module("vexmart.cli")
    if Path(vm.__file__).resolve().parent != SRC / "vexmart":
        raise SystemExit(f"vexmart was imported from {vm.__file__}, not from {SRC}")
    return vm


def set_up(cls, seed, reference, workdir, rec=None):
    """Import, input generation, space construction and one warm-up op.
    With a recorder, spans are recorded from just after the import, and
    the tracing bindings are returned with the workload."""
    vm = import_vexmart()
    binds = spans.bindings(rec) if rec is not None else []
    spans.rebind(binds, True)
    try:
        wl = cls(reference, workdir)
        wl.setup(vm, seed)
    finally:
        spans.rebind(binds, False)
    return wl, binds


def run_one(wl, op) -> tuple[float, str | None]:
    """Time one op, then check its output: (seconds, failure or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.execute(op)
    except Exception:  # the op failed; count it and keep running
        return time.perf_counter() - t0, traceback.format_exc()
    seconds = time.perf_counter() - t0
    try:
        return seconds, wl.check(op, out)
    except Exception:
        return seconds, traceback.format_exc()


def probe() -> float:
    """Seconds taken by the machine-speed probe."""
    t0 = time.perf_counter()
    for i in range(300):
        float((np.abs(_PROBE_DATA[i:i + 64]) ** 1.7).sum())
        sum(j * j for j in range(50))
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host speed, from the probes around it."""
    return seconds * PROBE_REF_S / (0.5 * (before + after))


def run_ops(wl, cycles, done):
    """Closed loop over ``cycles``; ``done(elapsed, n_ops)`` is asked at
    each cycle boundary.  A probe runs before the first op, between ops
    every PROBE_EVERY_S and after the last op.  Returns per-op latencies,
    the same scaled to the reference host speed, and failure reasons."""
    latencies: list[float] = []
    last_probe_of: list[int] = []
    failures: list[str] = []
    probes = [probe()]
    start = last_probe = time.perf_counter()
    for cycle in cycles:
        for op in cycle:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
            seconds, reason = run_one(wl, op)
            latencies.append(seconds)
            last_probe_of.append(len(probes) - 1)
            if reason is not None:
                failures.append(reason)
        if done(time.perf_counter() - start, len(latencies)):
            break
    probes.append(probe())
    at_ref = [scaled(t, probes[k], probes[k + 1])
              for t, k in zip(latencies, last_probe_of)]
    return latencies, at_ref, failures


def run_paired(wl, cycles, rec, binds):
    """Every op twice, untraced and traced, in alternating order, so that
    a drift in machine speed hits both sides alike.  Returns the untraced
    and traced latencies and the failure reasons."""
    lat: dict[bool, list[float]] = {False: [], True: []}
    failures: list[str] = []
    for cycle in cycles:
        for op in cycle:
            first = len(lat[True]) % 2 == 1
            for traced in (first, not first):
                rec.op_id = len(lat[True])
                spans.rebind(binds, traced)
                try:
                    seconds, reason = run_one(wl, op)
                finally:
                    spans.rebind(binds, False)
                lat[traced].append(seconds)
                if reason is not None:
                    failures.append(reason)
    return lat[False], lat[True], failures


def throughput(latencies, failures) -> float:
    return (len(latencies) - len(failures)) / sum(latencies)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def timed_metrics(lat, setup_times, failures) -> dict[str, float]:
    return {
        "throughput_ops_s": throughput(lat, failures),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_times),
    }


def measure(cls, args, reference, workdir):
    setup_times, setup_at_ref = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl, _ = set_up(cls, args.seed, reference, workdir)
        setup_times.append(time.perf_counter() - t0)
        after = probe()
        setup_at_ref.append(scaled(setup_times[-1], before, after))
        before = after
    lat, lat_at_ref, failures = run_ops(
        wl, wl.schedule(args.seed),
        done=lambda elapsed, n: elapsed >= args.seconds and n >= MIN_OPS,
    )
    metrics = timed_metrics(lat_at_ref, setup_at_ref, failures)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = {
        # this host's speed during the run, relative to the reference
        "host_speed": sum(lat_at_ref) / sum(lat),
        "setup_host_speed": sum(setup_at_ref) / sum(setup_times),
        "unscaled": timed_metrics(lat, setup_times, failures),
    }
    metrics = {k: (metrics[k], unit) for k, unit in END_TO_END_UNITS.items()}
    return metrics, len(lat), failures, extra


def measure_traced(cls, args, reference, workdir):
    rec = spans.Recorder()
    wl, binds = set_up(cls, args.seed, reference, workdir, rec)
    # a fixed number of cycles, so the counts depend on the inputs alone
    n_cycles = max(1, round(args.seconds / 2 / cls.CYCLE_S))
    schedule = wl.schedule(args.seed)
    cycles = [next(schedule) for _ in range(n_cycles)]
    lat_u, lat_t, failures = run_paired(wl, cycles, rec, binds)
    overhead = 1.0 - sum(lat_u) / sum(lat_t)
    values = spans.layer_metrics(rec, overhead)
    metrics = {name: (values[name], unit) for name, unit in spans.PER_LAYER}
    return metrics, len(lat_u) + len(lat_t), failures, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vexmart" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'vexmart'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cls = WORKLOADS[args.workload]
    reference = cls.load_reference()
    workdir = BENCH_DIR / "_work" / str(os.getpid())
    run = measure_traced if args.trace else measure
    try:
        metrics, attempted, failures, extra = run(cls, args, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for reason in failures[:3]:
        print(f"failed op: {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} ops {attempted} "
          f"failed {len(failures)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'failed_frac':52s} {len(failures) / attempted:14.6g} ratio")
    print("env " + json.dumps({**environment(args), **extra}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
