"""The CLI's pinned outputs: one table of commands, each with the sha256 of
its stdout (or the stdout itself), and where it has one, its exit code,
first line, peak-RSS limit or wall-clock limit.

Entries without a limit run in-process through ``cli.run``. Entries with
one run once in a fresh ``python -m vexmart.cli`` child, which checks the
bytes and the limit together. Every command runs in one directory of
input files that ``write_inputs`` makes.

A change that moves a pin replaces the expected hash with the one the
failure prints, keeps or corrects the entry's comment, and lists the move
in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from typing import NamedTuple, Optional

import pytest

import vexmart
from vexmart import cli


class Pin(NamedTuple):
    argv: str  # the command line after ``vexmart``, split on spaces
    expect: str  # the sha256 of stdout, or stdout itself
    code: int = 0
    header: Optional[str] = None  # stdout's first line
    mb: Optional[float] = None  # the child's own peak RSS limit
    seconds: Optional[float] = None  # the child's wall-clock limit


# a guarded command with no wall-clock limit of its own is killed after
# this many seconds
GUARD_SECONDS = 60

PINS = [
    # the console script's smallest output; CI checks these bytes through
    # the installed entry point
    Pin("space gen-dyadic --depth 2",
        "11264238fd56a715179f3609993308eada5cd2934656f005d46a2f65c1d2b41e"),
    # the smallest exhaustive scans, over 26 stopping times
    Pin("experiment exp-jn --depth 2",
        "42e10ed8060aafadc9849e365fa25ae1cda6c09b0c9210c977722cf501feef4c"),
    Pin("experiment jn --depth 2 --trials 3",
        "2e32613c0d72eaac27a848735c89faa009cdfa4159f2a3fa0f8e850653188c9a"),
    # 677 stopping times: the exhaustive scan cached on the space; the
    # decay envelope's bytes for a variable exponent, and for a constant
    # one, which reads every supremum from the 15 blocks
    Pin("experiment exp-jn --depth 3",
        "f8ae3e662c4e3943cb7415b4a0f90a3f084414749453ea610eb98baa2d8d7679"),
    Pin("experiment exp-jn --depth 3 --p-law constant",
        "f8e1a6f9cd8099008d992260937d5780a04a9724c2b10bb871f24306a494711d"),
    # a constant exponent past the cap: the decay envelope on 4,096
    # leaves and 8,191 blocks (one blocks x grid histogram, about 50 MB
    # peak), and jn's two block maxima per trial on 1,024 leaves
    Pin("experiment exp-jn --depth 12 --p-law constant",
        "6be53914c7d9d7ad35445b15e6672292f1ba20c5edebf961b12d61a0f335c279", mb=150),
    Pin("experiment jn --depth 10 --p-law constant --trials 5",
        "32cb8d946b3083444447da57923160e2b0037863f36e540fc6358450babacf57", mb=150),
    # 458,330 stopping times built as products over the tree, and the
    # norms of all 65,535 nonempty leaf subsets; it peaks near 393 MB,
    # so a scan or its mask norms held twice fails the 600 MB guard.
    # jn's bp supremum over 458,329 rows is the largest pruned scan.
    # The decay envelope is walked in 56 row blocks.
    Pin("experiment exp-jn --depth 4",
        "7ed904418e11fee301731ce98094c68ff2d7083aa00ef04ad4654f3edf552c2d", mb=600),
    Pin("experiment jn --depth 4 --trials 2",
        "8546755f9ac38a60cffb114d5e6d7557bcb27a5fddb240de4d2bb3f643b487e8", mb=600),
    # jn's two suprema per trial are bmo_norm's exhaustive scans
    Pin("experiment jn --depth 3 --trials 3",
        "5472757d706d1e28aea7ac9647acd138c8b7f62103d07f0e0b217f821747b4cb"),
    # each martingale law draws its leaves in bulk from the seeded stream
    Pin("experiment doob --depth 3 --trials 5 --f-law normal",
        "3537c6abcbd838858551fec0c9d3505074cdbf6afad42e18e9d4858b0bda2b64"),
    Pin("experiment doob --depth 3 --trials 5 --f-law uniform",
        "10cb9b571401d878824d0b18b42559a5334909b8a5971dd44765e2ef1e002d91"),
    Pin("experiment doob --depth 3 --trials 5 --f-law two-point",
        "92c7f30a218374b100d8d2d5cfda8c5ff5b1019cc69a57f412a7cee8a1aa6d96"),
    Pin("experiment weak-type --depth 2",
        "4efce68f7ab63958d14178dba782c5a52407fc107c6f5058862a91480501fc58"),
    # about 7,500 lambdas on 4,096 leaves: the modular's (lambda, leaf)
    # terms are made about 1 MB at a time and the run peaks near 38 MB;
    # all of them at once would hold 246 MB per temporary
    Pin("experiment weak-type --depth 12",
        "88cfd8708983cb406fd0618841ce2412347c6f177a8e66621462733aab24b41b", mb=150),
    Pin("experiment violation-33 --depth 2 --trials 3",
        "4c9586d97ee28daef482f01726c3e7baf3610a8d24f9022fd8653f9eb98d2be1"),
    Pin("experiment violation-33 --depth 3 --trials 3 --p-law block-structured",
        "43ad56578020badd367890c4ae0f741dc78dbb55c9d2f64e24bdb9a58aa6565f"),
    # the report CSV writer: x,y from the decay curve or the lambda grid,
    # else index,ratio; a zero martingale's empty report is the header
    # alone
    Pin("experiment exp-jn --depth 3 --format csv",
        "466460c655dd05f1d90526f944a4acc10b93030418332ec8185a336da09ac9b2", header="x,y"),
    Pin("experiment weak-type --depth 3 --format csv",
        "c6e81c33066627bbecc6215299a6b81ac30e392f24a4cf27a77f38fd1515f00b", header="x,y"),
    Pin("experiment doob --depth 3 --trials 5 --format csv",
        "7b0439009b26878fb7168bfb4de004aeb52bda69388d0008524efdc6cb4df228",
        header="index,ratio"),
    Pin("experiment weak-type --depth 0 --format csv",
        "01ed927b1eb190d1526d47c6dd7f218086a165aa3d44c1fb48ac59f580df8594",
        header="index,ratio"),
    # 8,192 leaves: lemma34 evaluates all 6.7 * 10^7 leaf pairs in row
    # blocks of about 1 MB; the 8,192 x 8,192 weight matrix alone
    # would take 512 MiB
    Pin("check lemma34 --space d13.json --exponent p13.json --function f13.json",
        "a321434088760620712f8862c2dd13143b56300041015b337488d55a789bfb51", mb=150),
    # the block maximum on 4,096 leaves, past the cap: no scan, no mask
    # norms, one ratio per block
    Pin("bmo --space d12.json --exponent pc12.json --martingale mc12.json --mode dp",
        "3f9413084abba388bfd077271685ce9d20471f0d08055abf3d1ae5e3181154d6", mb=150),
    # 65,536 leaves and 131,071 blocks: it peaks near 112 MB, mostly the
    # JSON load
    Pin("bmo --space d16.json --exponent pc16.json --martingale mc16.json --mode dp",
        "25e49154600acb46d5593093c61f0c05c69178aae74aed88e919a57a9bdd7c6d", mb=150),
    # auto past the cap with a constant exponent takes the block maximum:
    # the same bytes as --mode dp (test_d12_auto_pins_the_dp_bytes)
    Pin("bmo --space d12.json --exponent pc12.json --martingale mc12.json",
        "3f9413084abba388bfd077271685ce9d20471f0d08055abf3d1ae5e3181154d6"),
    # the two d3 runs pinned to the same hash print the same bytes: both
    # attain 2.5 at the same tau
    Pin("bmo --space d3.json --exponent p3.json --martingale m3.json --mode auto",
        "500e737c5f3709a79ff7b3b8044253a89316bd1d7d824f918bf14c19d003073b"),
    Pin("lipschitz --space d3.json --martingale m3.json --q 2 --alpha a3.json --mode auto",
        "7473a9b67abd6d076dbf7e4b2cc7e703f43e84f32b02224883a6c41190545394"),
    # a variable exponent and alpha past the cap: the single-block
    # pass's bytes, 127 single-block stopping times, both witnesses the
    # level-5 block of leaves 2 and 3
    Pin("bmo --space d6.json --exponent p6.json --martingale m6.json --mode auto",
        "0206074137036bf6d9e1754ffa41d81e22efbb4594117a4637b672858df6c049"),
    Pin("lipschitz --space d6.json --martingale m6.json --q 2 --alpha a6.json --mode auto",
        "31974534efa4be6139a74a008cb9498f6c4f6b9938cd4e0fffc51fad07e29f1c"),
    # dyadic 10: 2,047 blocks over 11,264 (level, leaf) cells, about
    # 32 MB peak, with no blocks x leaves array
    Pin("bmo --space d10.json --exponent p10.json --martingale m10.json",
        "8a00c6e0020292d613da3efc0af67234b78ac3eff8563e3b439dbca9ef9f3467", mb=150),
    # dyadic 12: 8,191 blocks over 53,248 cells, about 38 MB peak, and
    # their bytes for bmo and for lipschitz
    Pin("bmo --space d12.json --exponent p12.json --martingale m12.json",
        "82b52b059bc5c372b64c724f77fdeadccac2c5af5eb8cda7c365e2248ceb51da", mb=150),
    Pin("lipschitz --space d12.json --martingale m12.json --q 2 --alpha a12.json",
        "5e9f9703265966735c38826140e89dabce546e735699d608d1b6eef1e1ccad0d"),
    # dyadic 16: the pass's working set on 17 x 65,536 cells is over
    # MAX_SCAN_BYTES, refused with exit 2 before it is allocated
    Pin("bmo --space d16.json --exponent p16.json --martingale mc16.json", "", code=2),
    Pin("lipschitz --space d3.json --martingale m3.json --q 2 --alpha z3.json --mode exhaustive",
        "500e737c5f3709a79ff7b3b8044253a89316bd1d7d824f918bf14c19d003073b"),
    # the scan suprema's bytes: their denominators are one batch over the
    # scan's masks, kept on the space, and must print what a fresh solve
    # prints. Unequal probabilities, a non-constant finite part of 1/alpha
    # and zero alphas
    Pin("lipschitz --space u7.json --martingale mu7.json --q 2 --alpha au7.json --mode exhaustive",
        "f5d28a5d7f61643bbe3f137d9e3defd92ec705a193e17d2dc11254e6ba60b1a7"),
    # leaves out of tree order: every scan reader gathers through the cells
    Pin("bmo --space r7.json --exponent pr7.json --martingale mr7.json --mode exhaustive",
        "69c84a07fc7943b0dc34454c624f797d19bfc8100019c0e5926475af8b736bb9"),
    Pin("lipschitz --space r7.json --martingale mr7.json --q 2 --alpha ar7.json --mode exhaustive",
        "a7d8b559d01fa506b3ae1802d6de4c73d7e40e74e861aa41fdc191d930728bd7"),
    Pin("experiment exp-jn --space r7.json --exponent pr7.json --martingale mr7.json",
        "d9db7a01629b3f0ed3bf89bb0aa5712b4e1808987b611bc3ba97beaddac63926"),
    Pin("experiment jn --space r7.json --exponent pr7.json --trials 3",
        "68d8605c8f3f4a8c29b68111dceeabe6c429527909fb56020536599b66d9bf16"),
    # the decay envelope on a space that is neither dyadic nor uniform
    Pin("experiment exp-jn --space u7.json",
        "5ef14d4c100f96425d7161128553fd140817513bc24fbbaf15b75a0eb7b432cf"),
    # 7 leaves: an odd count of normal draws leaves one pending
    Pin("experiment doob --space u7.json --trials 3",
        "8c0704d488c7abe1060a2cfffdabccfbdba78e5118e638802a32afa85024b691"),
    # 1,501 levels: the count without recursion, and 3,001 block rows
    Pin("bmo --space deep.json --exponent p2.json --martingale m2.json --mode auto",
        "4e57abfeb5a68dcbdf4e765118ea56170f602d2702778ee784bdac7bd43b06bd"),
    # the decompositions' bytes: indicator norms kept on the space must
    # print exactly what a fresh solve prints
    Pin("decompose --space d6.json --exponent p6.json --martingale m6.json",
        "d399e42c8ee7edadb89d84522aaa0c8e0733a4ae0e431c9c1467d277461515be"),
    # unequal probabilities: the indicator norm of {0, 1, 2} is a Newton solve
    Pin("decompose --space u7.json --exponent pu7.json --martingale mu7.json",
        "86a2574132153ff048d0498e9efc68259f72f43936ffdf0942501a43fcf1c396"),
    # norms that are solved on the support of f: the single leaf's root is
    # Newton's start, 3 * 0.1^(1/0.7)
    Pin("norm --space u7.json --exponent pu7.json --function fz7.json", "1.04149682456\n"),
    Pin("norm --space u7.json --exponent pu7.json --function fs7.json", "0.111827811609\n"),
    # an exponent of the wrong length: refused with exit 1, not solved
    Pin("norm --space d1.json --exponent p3c.json --function f2.json", "", code=1),
    # exponents are finite: one holding Infinity is refused with exit 1
    Pin("norm --space d1.json --exponent pinf.json --function f2.json", "", code=1),
    # --format belongs to the commands that print a report: exit 1 on norm
    Pin("norm --space d1.json --exponent p1.json --function f2.json --format csv", "", code=1),
    # s(f) overflows binary64: refused with exit 1, not a traceback
    Pin("decompose --space d1.json --exponent p1.json --martingale m1.json", "", code=1),
    # condition (K) by the Pareto staircases and by brute force, Aoyama's
    # constant and Lemma 3.4 on unequal probabilities, and the dyadic
    # counterexample's margins, which never build its 2^D leaves
    Pin("check condition-k --space u7.json --exponent pu7.json --mode exact-pairwise",
        "585c9c58af4b533e11e12b6e1e108022d4dc15e319187f20811ca8f4ad7934ac"),
    Pin("check condition-k --space u7.json --exponent pu7.json --mode brute-force",
        "5e6d3155dbeca7121775bf581af24b5e2b230818065e54eaecd9dfe6c64f6a77"),
    Pin("check aoyama --space u7.json --exponent pu7.json",
        "acbfec9479cf42e0335ef48dfba91c19f9ba6eff963a6052bd0629d909f59d6a"),
    Pin("check lemma34 --space u7.json --exponent pu7.json --function fz7.json",
        "ff65ea25d3223da49979d4fbfc1dbcb7a2ae7af2ffe65161f1c1b2dbab984df3"),
    Pin("experiment nakai-sadasue --max-n 8",
        "353b357a8544e427903e3da61eee79fce21d437c0b4ea39b5b395ceef607df0b"),
    # 65,536 leaves: under 1 s with the staircases on a 2-vCPU VM, JSON
    # loading included; a scan of all 2 * 10^9 pairs takes over 10 s
    Pin("check condition-k --space d16.json --exponent p16.json",
        "55735198681f07b0a81bd6365b6d702750457c7746e42fe4b0b20ed1a9a9da0f", seconds=5),
]
BY_ARGV = {pin.argv: pin for pin in PINS}


def write_inputs(directory):
    """The input files the table names, written into ``directory``."""
    for d in (1, 3, 6, 10, 13, 4, 12):
        assert cli.run(["space", "gen-dyadic", "--depth", str(d),
                        "--output", str(directory / f"d{d}.json")]) == 0

    def put(name, obj): (directory / name).write_text(json.dumps(obj))
    put('deep.json', {'leaf_probs': [0.5, 0.5], 'levels': [[[0, 1]]] + [[[0], [1]]] * 1500})
    put('p2.json', {'values': [1.5, 2.5]})
    put('m2.json', {'terminal': [1.0, -1.0]})
    put('p1.json', {'values': [2.0, 2.0]})
    put('m1.json', {'terminal': [1e160, -1e160]})
    # 7 leaves on 3 levels with unequal probabilities: blocks of 3 and 2
    put('u7.json', {'leaf_probs': [0.05, 0.1, 0.15, 0.2, 0.1, 0.25, 0.15], 'levels': [
        [list(range(7))], [[0, 1, 2], [3, 4], [5, 6]], [[i] for i in range(7)]]})
    # a variable exponent and a martingale centred under u7's probabilities
    put('pu7.json', {'values': [1.2, 2.8, 1.5, 2.1, 0.7, 3.0, 1.9]})
    put('mu7.json', {'terminal': [6.0, -3.0, 1.0, 0.5, -2.0, 1.2, -7 / 3]})
    # alpha on u7: zeros among a non-constant finite part
    put('au7.json', {'values': [0.0, 0.3, 0.5, 0.0, 0.2, 0.7, 0.4]})
    # functions on u7 with zero entries, and with a single nonzero leaf
    put('fz7.json', {'values': [0.0, 2.0, -1.0, 0.0, 3.0, 0.5, 0.0]})
    put('fs7.json', {'values': [0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0]})
    # 7 leaves whose blocks do not list them in tree order, so the
    # enumeration permutes its leaves back: a scan's cells must follow
    r7 = [0.15, 0.1, 0.2, 0.05, 0.25, 0.1, 0.15]
    put('r7.json', {'leaf_probs': r7, 'levels': [
        [list(range(7))], [[4, 0, 6], [2, 5], [1, 3]],
        [[i] for i in (3, 1, 6, 0, 5, 2, 4)]]})
    put('pr7.json', {'values': [1.2, 2.8, 1.5, 2.1, 1.7, 3.0, 1.9]})
    m = [6.0, -3.0, 1.0, 0.5, -2.0, 1.2, -1.0]
    mean = sum(p * v for p, v in zip(r7, m))
    put('mr7.json', {'terminal': [v - mean for v in m]})
    put('ar7.json', {'values': [0.0, 0.3, 0.5, 0.0, 0.2, 0.7, 0.4]})
    # three exponent values for the two leaves of d1.json
    put('p3c.json', {'values': [2.0, 2.0, 2.0]})
    put('f2.json', {'values': [1.0, -1.0]})
    # json writes the infinite entry as Infinity
    put('pinf.json', {'values': [1.5, float('inf')]})
    for d, n in ((3, 8), (6, 64), (10, 1024), (12, 4096)):
        put(f'p{d}.json', {'values': [1.2, 2.8, 1.5, 2.1] * (n // 4)})
        put(f'm{d}.json', {'terminal': [1.0, -1.0, 2.5, -2.5] * (n // 4)})
        put(f'a{d}.json', {'values': [0.2, 0.4] * (n // 2)})
    # alpha = 0 reads 1/alpha as +inf: an indicator meeting it has norm 1
    put('z3.json', {'values': [0.0, 0.4] * 4})
    n = 1 << 16
    put('d16.json', {'leaf_probs': [1 / n] * n, 'levels': [
        [list(range(i, i + (n >> k))) for i in range(0, n, n >> k)] for k in range(17)]})
    rng = random.Random(16)
    put('p16.json', {'values': [rng.uniform(1.1, 3.0) for _ in range(n)]})
    # constant exponents and centred martingales for the block maximum
    for d in (4, 12, 16):
        rng = random.Random(d)
        m = [rng.gauss(0.0, 1.0) for _ in range(1 << d)]
        mean = sum(m) / len(m)
        put(f'pc{d}.json', {'values': [1.5] * len(m)})
        put(f'mc{d}.json', {'terminal': [v - mean for v in m]})
    rng = random.Random(13)
    put('p13.json', {'values': [rng.uniform(1.1, 3.0) for _ in range(1 << 13)]})
    put('f13.json', {'values': [rng.gauss(0.0, 3.0) for _ in range(1 << 13)]})


@pytest.fixture(scope="session")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pinned-inputs")
    write_inputs(directory)
    return directory


def in_process(argv):
    """``cli.run(argv)``'s stdout bytes and exit code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return buf.getvalue().encode(), code


# one small parent per child: exec carries the
# high-water RSS of the process that starts the child into the child's
# ru_maxrss, so a child of the test process would report the test
# process's peak. The parent kills the child after the time limit.
MEASURE = """
import resource, subprocess, sys, time
seconds, cmd = float(sys.argv[1]), sys.argv[2:]
start = time.perf_counter()
try:
    code = subprocess.run(cmd, timeout=seconds).returncode
except subprocess.TimeoutExpired:
    code = -9
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(code, peak, wall, file=sys.stderr)
"""


def in_child(cmd, seconds):
    """Run ``cmd`` with the imported vexmart first on its path, killed after
    ``seconds``: its stdout bytes, exit code, own peak RSS in MB and wall
    time in seconds."""
    path = os.path.dirname(os.path.dirname(vexmart.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (path, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", MEASURE, str(seconds), *cmd],
                          capture_output=True, env=env)
    sys.stderr.write(proc.stderr.decode())
    code, peak, wall = proc.stderr.split()[-3:]
    return proc.stdout, int(code), float(peak), float(wall)


def check(pin):
    """Run one entry in the current directory; every failure names its argv."""
    argv = pin.argv.split()
    if pin.mb is None and pin.seconds is None:
        out, code = in_process(argv)
    else:
        seconds = pin.seconds or GUARD_SECONDS
        out, code, peak, wall = in_child([sys.executable, "-m", "vexmart.cli", *argv], seconds)
        usage = f"peak RSS {peak:.1f} MB (limit {pin.mb}), wall {wall:.1f} s (limit {seconds:g})"
        assert wall <= seconds and (pin.mb is None or peak <= pin.mb), f"{pin.argv}: {usage}"
    assert code == pin.code, f"{pin.argv}: exit {code}, expected {pin.code}"
    digest = hashlib.sha256(out).hexdigest()
    text = out.decode()
    assert pin.expect in (digest, text), f"{pin.argv}: stdout sha256 {digest}, {text[:200]!r}"
    if pin.header is not None:
        assert text.split("\n", 1)[0] == pin.header, f"{pin.argv}: header {text[:80]!r}"


@pytest.mark.parametrize("pin", PINS, ids=[pin.argv for pin in PINS])
def test_pinned_output(pin, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    check(pin)


def test_runner_fails_naming_the_argv(inputs, monkeypatch):
    """A wrong hash, peak limit or exit code fails the entry and names it."""
    monkeypatch.chdir(inputs)
    hashed = BY_ARGV["experiment exp-jn --depth 2"]
    guarded = BY_ARGV["bmo --space d10.json --exponent p10.json --martingale m10.json"]
    refused = BY_ARGV["norm --space d1.json --exponent pinf.json --function f2.json"]
    off = format(int(hashed.expect[-1], 16) ^ 1, "x")
    for bad, why in ((hashed._replace(expect=hashed.expect[:-1] + off), "stdout sha256"),
                     (guarded._replace(mb=1), "peak RSS"),
                     (refused._replace(code=0), "exit 1, expected 0")):
        with pytest.raises(AssertionError, match=re.escape(f"{bad.argv}: {why}")):
            check(bad)


def test_d12_auto_pins_the_dp_bytes():
    """auto past the cap with a constant exponent prints what --mode dp
    prints, so the two entries pin one hash."""
    auto = "bmo --space d12.json --exponent pc12.json --martingale mc12.json"
    assert BY_ARGV[auto].expect == BY_ARGV[auto + " --mode dp"].expect


def test_dyadic4_auto_is_dp_and_exhaustive(inputs, monkeypatch):
    """Dyadic 4 with a constant exponent: auto takes dp, which is the
    exhaustive supremum over its 458,329 finite stopping times."""
    monkeypatch.chdir(inputs)

    def bmo(*mode):
        out, code = in_process(["bmo", "--space", "d4.json", "--exponent", "pc4.json",
                                "--martingale", "mc4.json", *mode])
        assert code == 0
        return json.loads(out)

    auto, full = bmo(), bmo("--mode", "exhaustive")
    assert auto["mode"] == "dp" and full["mode"] == "exhaustive", (auto, full)
    assert abs(auto["value"] - full["value"]) <= 1e-12 * full["value"], (auto, full)


def test_d16_serializer_round_trip_in_5_s(inputs, monkeypatch):
    """The serializer groups block_of itself: the same 65,536-leaf space
    read and written back gives the input object, in about 1 s."""
    monkeypatch.chdir(inputs)
    code = """
import json
from vexmart import serialize
obj = json.load(open('d16.json'))
assert serialize.space_to_json(serialize.space_from_json(obj)) == obj
"""
    _, status, _, wall = in_child([sys.executable, "-c", code], 5)
    assert status == 0 and wall <= 5, (status, wall)
