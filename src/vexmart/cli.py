"""Command-line surface: JSON in, JSON/CSV out, deterministic by seed.

Exit codes: 0 success, 1 validation/domain error, 2 resource cap, 3
numerical failure.  Set VEXMART_OUT to prefix relative --output paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import serialize
from .bmo import bmo_norm, lipschitz_norm
from .errors import ValidationError, VexmartError
from .experiments import (
    TrialConfig,
    exp_jn_curve,
    doob_strong_check,
    generate_exponent,
    generate_martingale,
    jn_equivalence,
    lemma34_check,
    nakai_sadasue,
    violation_33_search,
    weak_type_check,
)
from .hardy import atomic_decompose
from .space import aoyama_c, build_dyadic_space, condition_k
from .varlp import luxemburg_norm


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse hook
        raise ValidationError(message)


def _positive_int(text: str) -> int:
    """argparse type of --samples: an integer of at least 1, refused at
    parse time in every mode, whether or not the run samples."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text + "\n")
        return
    base = os.environ.get("VEXMART_OUT")
    if base and not os.path.isabs(output):
        output = os.path.join(base, output)
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _emit_report(report, args) -> None:
    obj = report.as_dict()
    if args.format == "csv":
        _emit(serialize.report_to_csv(obj).rstrip("\n"), args.output)
    else:
        _emit(serialize.dumps(obj), args.output)


def _space_from(args):
    return serialize.space_from_json(_load(args.space))


def _exponent_from(args):
    return serialize.exponent_from_json(_load(args.exponent))


def _given(value, default):
    return default if value is None else value


def _config_from(args, space) -> TrialConfig:
    # weak-type and exp-jn draw one martingale and violation-33 none, so
    # they take no --trials or no --f-law
    return TrialConfig(
        space=space,
        seed=_given(args.seed, 0),
        trials=getattr(args, "trials", 1),
        p_range=(_given(args.p_lo, 1.1), _given(args.p_hi, 3.0)),
        exponent_law=_given(args.p_law, "iid-uniform"),
        martingale_law=_given(getattr(args, "f_law", None), "normal"),
    )


# input files -> the options that generate what they replace
_REPLACED_BY = {("exponent",): ("p_law", "p_lo", "p_hi"), ("martingale",): ("f_law",),
                ("exponent", "martingale"): ("seed",)}


def _refuse_unread(args) -> None:
    """Refuse an experiment option that a given input file leaves unread,
    as argparse refuses --depth beside --space."""
    for files, options in _REPLACED_BY.items():
        given = [name for name in options if getattr(args, name, None) is not None]
        if given and all(getattr(args, name, None) is not None for name in files):
            flag, beside = given[0].replace("_", "-"), " and --".join(files)
            raise ValidationError(f"--{flag} is not read beside --{beside}")


def _add_io(sub) -> None:
    sub.add_argument("--output", default=None, help="write here instead of stdout")


def _add_report_io(sub) -> None:
    _add_io(sub)
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_config(sub, name: str) -> None:
    # options left out are None here and take their defaults where read
    where = sub.add_mutually_exclusive_group()
    where.add_argument("--space", default=None, help="space JSON path")
    where.add_argument("--depth", type=int, default=None,
                       help="dyadic depth of the space (default 3)")
    sub.add_argument("--seed", type=int, default=None)
    if name not in ("weak-type", "exp-jn"):
        sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--p-law", default=None)
    sub.add_argument("--p-lo", type=float, default=None)
    sub.add_argument("--p-hi", type=float, default=None)
    if name != "violation-33":
        sub.add_argument("--f-law", default=None)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every
    later call; callers must not modify it."""
    parser = _Parser(prog="vexmart")
    top = parser.add_subparsers(dest="command", required=True)

    sp = top.add_parser("space").add_subparsers(dest="space_cmd", required=True)
    gen = sp.add_parser("gen-dyadic")
    gen.add_argument("--depth", type=int, required=True)
    _add_io(gen)

    norm = top.add_parser("norm")
    norm.add_argument("--space", required=True)
    norm.add_argument("--exponent", required=True)
    norm.add_argument("--function", required=True)
    _add_io(norm)

    dec = top.add_parser("decompose")
    dec.add_argument("--space", required=True)
    dec.add_argument("--exponent", required=True)
    dec.add_argument("--martingale", required=True)
    _add_io(dec)

    chk = top.add_parser("check").add_subparsers(dest="check_cmd", required=True)
    ck = chk.add_parser("condition-k")
    ck.add_argument("--space", required=True)
    ck.add_argument("--exponent", required=True)
    ck.add_argument("--mode", choices=("exact-pairwise", "brute-force"),
                    default="exact-pairwise")
    ck.add_argument("--subsets", choices=("all", "blocks"), default="all")
    _add_io(ck)
    ao = chk.add_parser("aoyama")
    ao.add_argument("--space", required=True)
    ao.add_argument("--exponent", required=True)
    _add_io(ao)
    lm = chk.add_parser("lemma34")
    lm.add_argument("--space", required=True)
    lm.add_argument("--exponent", required=True)
    lm.add_argument("--function", required=True)
    _add_report_io(lm)

    bm = top.add_parser("bmo")
    bm.add_argument("--space", required=True)
    bm.add_argument("--exponent", required=True)
    bm.add_argument("--martingale", required=True)
    bm.add_argument("--mode", choices=("auto", "exhaustive", "sampled", "dp"),
                    default="auto")
    bm.add_argument("--seed", type=int, default=0)
    bm.add_argument("--samples", type=_positive_int, default=256)
    _add_io(bm)

    lp = top.add_parser("lipschitz")
    lp.add_argument("--space", required=True)
    lp.add_argument("--martingale", required=True)
    lp.add_argument("--q", type=float, required=True)
    lp.add_argument("--alpha", required=True, help="JSON with per-leaf values")
    lp.add_argument("--mode", choices=("auto", "exhaustive", "sampled"),
                    default="auto")
    lp.add_argument("--seed", type=int, default=0)
    lp.add_argument("--samples", type=_positive_int, default=256)
    _add_io(lp)

    exp = top.add_parser("experiment").add_subparsers(dest="exp_cmd", required=True)
    for name in ("weak-type", "doob", "jn", "exp-jn", "violation-33"):
        e = exp.add_parser(name)
        _add_config(e, name)
        if name in ("weak-type", "exp-jn"):
            e.add_argument("--exponent", default=None)
            e.add_argument("--martingale", default=None)
        if name in ("doob", "jn"):
            e.add_argument("--exponent", default=None)
        _add_report_io(e)
    ns = exp.add_parser("nakai-sadasue")
    ns.add_argument("--max-n", type=int, required=True)
    _add_report_io(ns)
    return parser


def _sup_result_json(res) -> dict:
    return {
        "value": res.value,
        "argmax_tau": serialize.stopping_time_to_json(res.argmax_tau)["stop_level"],
        "mode": res.mode,
        "candidates": res.candidates,
    }


def _experiment_space(args):
    if args.space is not None:
        return serialize.space_from_json(_load(args.space))
    return build_dyadic_space(_given(args.depth, 3))


def _experiment_exponent(args, space, config):
    if getattr(args, "exponent", None) is not None:
        return _exponent_from(args)
    return generate_exponent(space, config.exponent_law, config.p_range, config.seed)


def _experiment_martingale(args, space, config):
    if getattr(args, "martingale", None) is not None:
        return serialize.martingale_from_json(space, _load(args.martingale))
    return generate_martingale(config, 0)


def _dispatch(args) -> None:
    if args.command == "space":
        _emit(serialize.dumps(
            serialize.space_to_json(build_dyadic_space(args.depth))
        ), args.output)

    elif args.command == "norm":
        space = _space_from(args)
        p = _exponent_from(args)
        f = serialize.function_from_json(_load(args.function))
        result = luxemburg_norm(space, f, p)
        _emit(f"{result.norm:.12g}", args.output)

    elif args.command == "decompose":
        space = _space_from(args)
        p = _exponent_from(args)
        f = serialize.martingale_from_json(space, _load(args.martingale))
        dec = atomic_decompose(f, p)
        _emit(serialize.dumps(serialize.decomposition_to_json(dec)), args.output)

    elif args.command == "check":
        space = _space_from(args)
        p = _exponent_from(args)
        if args.check_cmd == "condition-k":
            res = condition_k(space, p, mode=args.mode, subsets=args.subsets)
            _emit(serialize.dumps(
                {"k": res.k, "witness": list(res.witness), "mode": res.mode}
            ), args.output)
        elif args.check_cmd == "aoyama":
            _emit(serialize.dumps({"c": aoyama_c(space, p)}), args.output)
        else:
            f = serialize.function_from_json(_load(args.function))
            _emit_report(lemma34_check(f, p, space), args)

    elif args.command == "bmo":
        space = _space_from(args)
        p = _exponent_from(args)
        f = serialize.martingale_from_json(space, _load(args.martingale))
        res = bmo_norm(f, p, mode=args.mode, seed=args.seed, samples=args.samples)
        _emit(serialize.dumps(_sup_result_json(res)), args.output)

    elif args.command == "lipschitz":
        space = _space_from(args)
        f = serialize.martingale_from_json(space, _load(args.martingale))
        alpha = serialize.function_from_json(_load(args.alpha))
        res = lipschitz_norm(f, args.q, alpha, mode=args.mode,
                             seed=args.seed, samples=args.samples)
        _emit(serialize.dumps(_sup_result_json(res)), args.output)

    elif args.exp_cmd == "nakai-sadasue":
        _emit_report(nakai_sadasue(args.max_n), args)

    else:
        _refuse_unread(args)
        space = _experiment_space(args)
        config = _config_from(args, space)
        if args.exp_cmd == "weak-type":
            p = _experiment_exponent(args, space, config)
            f = _experiment_martingale(args, space, config)
            _emit_report(weak_type_check(f, p), args)
        elif args.exp_cmd == "doob":
            p = _experiment_exponent(args, space, config)
            _emit_report(doob_strong_check(config, p), args)
        elif args.exp_cmd == "jn":
            p = _experiment_exponent(args, space, config)
            _emit_report(jn_equivalence(config, p), args)
        elif args.exp_cmd == "exp-jn":
            p = _experiment_exponent(args, space, config)
            f = _experiment_martingale(args, space, config)
            _emit_report(exp_jn_curve(f, p), args)
        else:
            _emit_report(violation_33_search(config), args)


def run(argv: Sequence[str]) -> int:
    try:
        args = build_parser().parse_args(list(argv))
        _dispatch(args)
    except VexmartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
