"""The three benchmark workloads.

Each workload is a closed loop with one client: the next op starts when the
previous one returns.  Ops come in cycles of fixed composition whose order
(and, for the library workloads, whose inputs) the run seed draws, so every
run measures the same mix.  Inputs are made here from string-seeded
``random.Random`` and reach ``vexmart`` only as arrays or JSON files; the
package's own generators are never called, so a change to them cannot
change a workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-9


def close(got, want) -> bool:
    """Every entry within RTOL relative of the reference (zeros and other
    non-finite or exact values must match exactly)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    with np.errstate(invalid="ignore"):
        ok = (got == want) | (np.abs(got - want) <= RTOL * np.abs(want))
    return bool(np.all(ok))


def _centred_gauss(rng: random.Random, n: int, scale: float = 1.0) -> np.ndarray:
    v = np.array([rng.gauss(0.0, scale) for _ in range(n)])
    return v - v.mean()


class Workload:
    """Interface of a workload: ``setup`` builds the inputs and runs one
    warm-up op, ``schedule`` yields the seeded cycles of ops, ``execute``
    is the timed call into the package and ``check`` returns None or the
    reason an output is wrong."""

    name = ""
    CYCLE_S = 1.0  # nominal seconds per cycle, sizes the traced run

    def __init__(self, reference=None, workdir: Path | None = None) -> None:
        self.reference = reference
        self.workdir = workdir

    @staticmethod
    def load_reference():
        return None


class BmoSup(Workload):
    """BMO norms as suprema over stopping times, plus the John-Nirenberg
    decay curve.  One op builds the martingale from its terminal array and
    calls ``bmo_norm`` (mode auto) or ``exp_jn_curve``."""

    name = "bmo-sup"
    # (op kind, space); bmo on dyadic-6 is where auto falls back to sampling
    KINDS = (("bmo", "dyadic-3"), ("bmo", "3ary-2"), ("bmo", "dyadic-6"),
             ("exp_jn", "dyadic-3"))
    LAWS = ("constant", "two-block", "iid-uniform", "one")
    POOL = 48  # instances per (kind, space, law) with a recorded reference
    CYCLE_S = 3.2

    @staticmethod
    def load_reference() -> dict:
        with open(REFERENCE_DIR / "bmo-sup.json", encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def _exponent_values(n: int, law: str, rng: random.Random) -> list[float]:
        if law == "constant":
            return [2.0] * n
        if law == "two-block":
            return [1.0] * (n // 2) + [3.0] * (n - n // 2)
        if law == "iid-uniform":
            return [rng.uniform(1.0, 3.0) for _ in range(n)]
        return [1.0] * n

    def setup(self, vm, seed: int = 0) -> None:
        # the pool is fixed so that references exist; the seed only
        # draws the schedule
        self.vm = vm
        self.spaces = {
            "dyadic-3": vm.build_dyadic_space(3),
            "3ary-2": vm.build_mary_space(3, 2),
            "dyadic-6": vm.build_dyadic_space(6),
        }
        self.inputs = {}
        for kind, sp_name in self.KINDS:
            n = self.spaces[sp_name].n_leaves
            for law in self.LAWS:
                for i in range(self.POOL):
                    key = f"{kind}/{sp_name}/{law}/{i}"
                    rng = random.Random(f"bench:bmo-sup:{key}")
                    terminal = _centred_gauss(rng, n)
                    p = vm.Exponent(tuple(self._exponent_values(n, law, rng)))
                    self.inputs[key] = (kind, sp_name, terminal, p)
        self.execute("bmo/dyadic-3/constant/0")  # warm-up

    def schedule(self, seed: int):
        """Cycles of the 16 (kind, law) ops in seeded order; each pairing
        walks a seeded permutation of its pool, so no instance repeats
        before the pool is used up."""
        rng = random.Random(f"bench:bmo-sup:schedule:{seed}")
        pairs = [(k, s, law) for k, s in self.KINDS for law in self.LAWS]
        perms = {pair: rng.sample(range(self.POOL), self.POOL) for pair in pairs}
        c = 0
        while True:
            order = rng.sample(pairs, len(pairs))
            yield [f"{k}/{s}/{law}/{perms[(k, s, law)][c % self.POOL]}"
                   for k, s, law in order]
            c += 1

    def execute(self, op: str):
        kind, sp_name, terminal, p = self.inputs[op]
        vm = self.vm
        f = vm.martingale_from_terminal(self.spaces[sp_name], terminal)
        if kind == "bmo":
            res = vm.bmo_norm(f, p)
            return {"value": res.value, "mode": res.mode}
        rep = vm.exp_jn_curve(f, p)
        return {"curve": rep.details["curve"]}

    def check(self, op: str, out) -> str | None:
        want = self.reference[op]
        if "curve" in want:
            if not close(out["curve"], want["curve"]):
                return "exp_jn_curve curve differs from the reference"
            return None
        if want["mode"] == "exhaustive":
            if not close(out["value"], want["value"]):
                return f"exhaustive bmo_norm {out['value']!r} != {want['value']!r}"
            return None
        # sampled values are lower bounds; an exact mode may raise them
        if out["value"] < want["value"] * (1.0 - RTOL):
            return f"sampled bmo_norm {out['value']!r} below {want['value']!r}"
        return None


class HardyAtoms(Workload):
    """Acceptance test 03's pipeline: atomic_decompose -> reconstruct ->
    is_atom on every term -> a_quantity -> hs_norm, on fresh seeded
    centred martingales.  No stopping-time enumeration, no bmo."""

    name = "hardy-atoms"
    DEPTHS = (4, 6, 8)
    LAWS = ("constant", "two-block", "iid-uniform")
    SCALES = (0.1, 1.0, 10.0)
    P_RANGE = (0.5, 3.0)  # includes the quasi-norm regime p < 1
    CYCLE_S = 0.45

    def setup(self, vm, seed: int = 0) -> None:
        self.vm = vm
        self.spaces = {d: vm.build_dyadic_space(d) for d in self.DEPTHS}
        lo, hi = self.P_RANGE
        rng = random.Random(f"bench:hardy-atoms:exponents:{seed}")
        self.exponents = {}
        for d, sp in self.spaces.items():
            n = sp.n_leaves
            self.exponents[(d, "constant")] = vm.Exponent((0.5 * (lo + hi),) * n)
            self.exponents[(d, "two-block")] = vm.Exponent(
                (lo,) * (n // 2) + (hi,) * (n - n // 2))
            self.exponents[(d, "iid-uniform")] = vm.Exponent(
                tuple(rng.uniform(lo, hi) for _ in range(n)))
        warmup = _centred_gauss(random.Random("bench:hardy-atoms:warmup"), 256)
        self.execute((8, "iid-uniform", warmup))

    def schedule(self, seed: int):
        rng = random.Random(f"bench:hardy-atoms:schedule:{seed}")
        combos = [(d, law, s) for d in self.DEPTHS for law in self.LAWS
                  for s in self.SCALES]
        while True:
            yield [(d, law, _centred_gauss(rng, 1 << d, s))
                   for d, law, s in rng.sample(combos, len(combos))]

    def execute(self, op):
        d, law, terminal = op
        vm, sp, p = self.vm, self.spaces[d], self.exponents[(d, law)]
        f = vm.martingale_from_terminal(sp, terminal)
        dec = vm.atomic_decompose(f, p)
        rec = vm.reconstruct(dec)
        atoms = [bool(vm.is_atom(sp, t.atom_terminal, t.tau, p).ok)
                 for t in dec.terms]
        return {
            "f": f.arrays,
            "rec": rec.arrays,
            "atoms": atoms,
            "a": vm.a_quantity(dec, p),
            "hs": vm.hs_norm(f, p),
        }

    def check(self, op, out) -> str | None:
        f, rec = np.asarray(out["f"]), np.asarray(out["rec"])
        tol = 1e-9 * max(1e-30, float(np.abs(f).max()))
        if not float(np.abs(rec - f).max()) <= tol:
            return "reconstruct does not return the martingale"
        if not all(out["atoms"]):
            return "a decomposition term fails is_atom"
        if not out["hs"] <= out["a"] + 1e-9:
            return f"hs_norm {out['hs']!r} exceeds a_quantity {out['a']!r}"
        return None


def flatten_json(obj, nums: list[float], tokens: list[str]) -> None:
    """Numbers in document order, and every other token (keys, strings,
    booleans, nulls, brackets) for an exact structural digest."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        tokens.append(json.dumps(obj))
    elif isinstance(obj, (int, float)):
        nums.append(float(obj))
        tokens.append("#")
    elif isinstance(obj, dict):
        tokens.append("{")
        for key, val in obj.items():
            tokens.append(json.dumps(key))
            flatten_json(val, nums, tokens)
        tokens.append("}")
    else:
        tokens.append("[")
        for val in obj:
            flatten_json(val, nums, tokens)
        tokens.append("]")


def summarize_output(text: str) -> tuple[np.ndarray, str]:
    nums: list[float] = []
    tokens: list[str] = []
    flatten_json(json.loads(text), nums, tokens)
    digest = hashlib.sha256("\x00".join(tokens).encode("utf-8")).hexdigest()
    return np.array(nums, dtype=float), digest


class WideCli(Workload):
    """In-process ``vexmart.cli.run`` on a 2048-leaf dyadic space.  The
    inputs are written as JSON at setup and every call re-reads them."""

    name = "wide-cli"
    DEPTH = 11
    INPUT_SETS = 2
    # ops per cycle: the cheap commands run often enough that a run has
    # at least 100 ops, the two slow ones once per cycle
    MIX = (("norm", 12), ("condition-k", 8), ("violation-33", 5),
           ("decompose", 4), ("doob", 3), ("lemma34", 1), ("weak-type", 1))
    CYCLE_S = 7.5

    @staticmethod
    def load_reference() -> dict:
        with open(REFERENCE_DIR / "wide-cli.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        with np.load(REFERENCE_DIR / "wide-cli.npz") as npz:
            for key, entry in meta.items():
                entry["numbers"] = npz[key]
        return meta

    def input_set(self, seed: int) -> int:
        return random.Random(f"bench:wide-cli:set:{seed}").randrange(self.INPUT_SETS)

    def setup(self, vm, seed: int = 0, input_set: int | None = None) -> None:
        self.vm = vm
        self.set = self.input_set(seed) if input_set is None else input_set
        space = vm.build_dyadic_space(self.DEPTH)
        n = space.n_leaves
        rng = random.Random(f"bench:wide-cli:inputs:{self.set}")
        exponent = [rng.uniform(1.2, 2.8) for _ in range(n)]
        function = [rng.gauss(0.0, 1.0) for _ in range(n)]
        terminal = _centred_gauss(rng, n)
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = {
            "space": vm.serialize.space_to_json(space),
            "exponent": {"values": exponent},
            "function": {"values": function},
            "martingale": {"terminal": terminal.tolist()},
        }
        path = {}
        for key, obj in files.items():
            path[key] = str(self.workdir / f"{key}.json")
            with open(path[key], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        s, e = ["--space", path["space"]], ["--exponent", path["exponent"]]
        seed_arg = ["--seed", str(self.set)]
        self.argv = {
            "norm": ["norm", *s, *e, "--function", path["function"]],
            "decompose": ["decompose", *s, *e, "--martingale", path["martingale"]],
            "condition-k": ["check", "condition-k", *s, *e],
            "lemma34": ["check", "lemma34", *s, *e, "--function", path["function"]],
            "doob": ["experiment", "doob", *s, *e, "--trials", "10", *seed_arg],
            "weak-type": ["experiment", "weak-type", *s, *e,
                          "--martingale", path["martingale"]],
            "violation-33": ["experiment", "violation-33", *s, "--trials", "20",
                             *seed_arg],
        }
        self.execute("norm")  # warm-up

    def schedule(self, seed: int):
        rng = random.Random(f"bench:wide-cli:schedule:{seed}")
        cycle = [cmd for cmd, count in self.MIX for _ in range(count)]
        while True:
            yield rng.sample(cycle, len(cycle))

    def execute(self, op: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.vm.cli.run(self.argv[op])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, op: str, out) -> str | None:
        if out["code"] != 0:
            return f"exit code {out['code']}: {out['stderr'].strip()}"
        want = self.reference[f"{self.set}/{op}"]
        nums, digest = summarize_output(out["stdout"])
        if digest != want["digest"]:
            return "output structure differs from the reference"
        if not close(nums, want["numbers"]):
            return "output numbers differ from the reference"
        return None


WORKLOADS = {w.name: w for w in (BmoSup, HardyAtoms, WideCli)}
