"""Record the reference outputs that ``bmo-sup`` and ``wide-cli`` check
against.  The committed files were recorded at the commit that introduced
the benchmark; re-recording them from a later commit would hide any change
in results, so do it only when a workload's inputs change.

    python3 bench/record_reference.py
"""

import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported

import numpy as np

from workloads import REFERENCE_DIR, BmoSup, WideCli, summarize_output


def write_lines(path, obj: dict) -> None:
    """JSON with one top-level entry per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(obj[k])}" for k in sorted(obj)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def record_bmo_sup(vm) -> None:
    wl = BmoSup()
    wl.setup(vm)
    ref = {}
    for op in wl.inputs:
        out = wl.execute(op)
        ref[op] = out if "curve" in out else {"value": out["value"], "mode": out["mode"]}
    write_lines(REFERENCE_DIR / "bmo-sup.json", ref)


def record_wide_cli(vm) -> None:
    meta, arrays = {}, {}
    workdir = run.BENCH_DIR / "_work" / str(os.getpid())
    try:
        for input_set in range(WideCli.INPUT_SETS):
            wl = WideCli(None, workdir)
            wl.setup(vm, input_set=input_set)
            for cmd in wl.argv:
                out = wl.execute(cmd)
                if out["code"] != 0:
                    raise SystemExit(f"{cmd} exited {out['code']}: {out['stderr']}")
                nums, digest = summarize_output(out["stdout"])
                key = f"{input_set}/{cmd}"
                meta[key] = {"digest": digest}
                arrays[key] = nums
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write_lines(REFERENCE_DIR / "wide-cli.json", meta)
    np.savez_compressed(REFERENCE_DIR / "wide-cli.npz", **arrays)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    vm = run.import_vexmart()
    REFERENCE_DIR.mkdir(exist_ok=True)
    record_bmo_sup(vm)
    record_wide_cli(vm)
    print(f"recorded bmo-sup and wide-cli in {REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
