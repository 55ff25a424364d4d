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
    TrialConfig, doob_strong_check, exp_jn_curve, generate_exponent, generate_martingale,
    jn_equivalence, lemma34_check, nakai_sadasue, violation_33_search, weak_type_check,
)
from .hardy import atomic_decompose
from .space import aoyama_c, build_dyadic_space, condition_k
from .varlp import luxemburg_norm


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse hook
        raise ValidationError(message)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


# each input file option -> how its JSON is read, given the space read
# before it; a command's inputs are read in this order
_READERS = {
    "space": lambda obj, space: serialize.space_from_json(obj),
    "exponent": lambda obj, space: serialize.exponent_from_json(obj),
    "function": lambda obj, space: serialize.function_from_json(obj),
    "martingale": lambda obj, space: serialize.martingale_from_json(space, obj),
    "alpha": lambda obj, space: serialize.function_from_json(obj),
}
_HELP = {"alpha": "JSON with per-leaf values"}


def _inputs(args, names):
    """Yield the inputs ``names`` in the order of _READERS, each read from
    its file when it is asked for.  One whose option is not given is None,
    but the space is then the dyadic one of --depth (default 3)."""
    space = None
    for name, read in _READERS.items():
        if name in names:
            path = getattr(args, name)
            value = None if path is None else read(_load(path), space)
            if name == "space":
                space = value = value if value is not None else build_dyadic_space(
                    3 if args.depth is None else args.depth)
            yield value


# the experiment options in parser order: dest, argparse type and the
# TrialConfig field it sets, where p_lo and p_hi set p_range together
_CONFIG_OPTIONS = (("seed", int, "seed"), ("trials", int, "trials"),
                   ("p_law", None, "exponent_law"), ("p_lo", float, None),
                   ("p_hi", float, None), ("f_law", None, "martingale_law"))

# each draw an experiment makes -> the options it reads
_DRAWS = {
    "exponent": ("seed", "p_law", "p_lo", "p_hi"),
    "martingale": ("seed", "f_law"),
    "trial martingales": ("seed", "trials", "f_law"),
    "trial instances": ("seed", "trials", "p_law", "p_lo", "p_hi"),
}

# experiment -> (its draws, its run on the TrialConfig and the inputs:
# the draws named after an input file option, which a given file replaces)
_EXPERIMENTS = {
    "weak-type": (("exponent", "martingale"), lambda c, p, f: weak_type_check(f, p)),
    "doob": (("exponent", "trial martingales"), lambda c, p: doob_strong_check(c, p)),
    "jn": (("exponent", "trial martingales"), lambda c, p: jn_equivalence(c, p)),
    "exp-jn": (("exponent", "martingale"), lambda c, p, f: exp_jn_curve(f, p)),
    "violation-33": (("trial instances",), lambda c: violation_33_search(c)),
}


def _experiment(name: str, args):
    """Run experiment ``name`` on the TrialConfig of the options given, so
    each one left out takes TrialConfig's default.  An option that only
    draws replaced by given files read is refused, as --depth beside --space."""
    draws, run = _EXPERIMENTS[name]
    given = {key: value for key, value in vars(args).items() if value is not None}
    unread = {}
    for dest, _, _ in _CONFIG_OPTIONS:
        readers = [draw for draw in draws if dest in _DRAWS[draw]]
        if dest in given and all(draw in given for draw in readers):
            unread[dest] = readers
    if unread:
        # an option one file leaves unread is named before one that two do
        dest = min(unread, key=lambda d: len(unread[d]))
        beside = " and --".join(unread[dest])
        raise ValidationError(f"--{dest.replace('_', '-')} is not read beside --{beside}")
    files = [draw for draw in draws if draw in _READERS]
    inputs = _inputs(args, ("space", *files))
    space = next(inputs)
    fields = {field: given[dest] for dest, _, field in _CONFIG_OPTIONS
              if field and dest in given}
    if "p_lo" in given or "p_hi" in given:
        lo, hi = TrialConfig.p_range
        fields["p_range"] = (given.get("p_lo", lo), given.get("p_hi", hi))
    config = TrialConfig(space, **fields)
    generate = {"exponent": lambda: generate_exponent(space, config.exponent_law,
                                                      config.p_range, config.seed),
                "martingale": lambda: generate_martingale(config, 0)}
    # each input is read or generated in turn, the exponent first
    return run(config, *(generate[draw]() if value is None else value
                         for draw, value in zip(files, inputs)))


def _sup_json(res) -> dict:
    return {"value": res.value,
            "argmax_tau": serialize.stopping_time_to_json(res.argmax_tau)["stop_level"],
            "mode": res.mode, "candidates": res.candidates}


def _choice(flag: str, *choices: str) -> tuple:
    return (flag, {"choices": choices, "default": choices[0]})


# command path -> (its options in parser order, whether it prints a
# report, its run).  A bare string is a required input file option and a
# list a group of mutually exclusive options.  The run takes the parsed
# args and those files' inputs and returns the text to print, a report
# (printed by --format) or a JSON value.  It names library functions in
# its body, so each is looked up as a module global when called.
_COMMANDS = {
    ("space", "gen-dyadic"): (
        (("--depth", {"type": int, "required": True}),), False,
        lambda a: serialize.space_to_json(build_dyadic_space(a.depth))),
    ("norm",): (("space", "exponent", "function"), False,
                lambda a, space, p, f: f"{luxemburg_norm(space, f, p).norm:.12g}"),
    ("decompose",): (
        ("space", "exponent", "martingale"), False,
        lambda a, space, p, f: serialize.decomposition_to_json(atomic_decompose(f, p))),
    ("check", "condition-k"): (
        ("space", "exponent", _choice("--mode", "exact-pairwise", "brute-force"),
         _choice("--subsets", "all", "blocks")), False,
        lambda a, space, p: vars(condition_k(space, p, mode=a.mode, subsets=a.subsets))),
    ("check", "aoyama"): (("space", "exponent"), False,
                          lambda a, space, p: {"c": aoyama_c(space, p)}),
    ("check", "lemma34"): (("space", "exponent", "function"), True,
                           lambda a, space, p, f: lemma34_check(f, p, space)),
    ("bmo",): (
        ("space", "exponent", "martingale", _choice("--mode", "auto", "exhaustive", "dp")),
        False, lambda a, space, p, f: _sup_json(bmo_norm(f, p, mode=a.mode))),
    ("lipschitz",): (
        ("space", "martingale", ("--q", {"type": float, "required": True}), "alpha",
         _choice("--mode", "auto", "exhaustive", "dp")), False,
        lambda a, space, f, alpha: _sup_json(lipschitz_norm(f, a.q, alpha, mode=a.mode))),
    # an experiment takes the options its draws read, and files for them
    **{("experiment", name): (
        ([("--space", {"help": "space JSON path"}),
          ("--depth", {"type": int, "help": "dyadic depth of the space (default 3)"})],
         *(("--" + dest.replace("_", "-"), {"type": kind}) for dest, kind, _
           in _CONFIG_OPTIONS if any(dest in _DRAWS[draw] for draw in draws)),
         *(("--" + draw, {}) for draw in draws if draw in _READERS)),
        True, functools.partial(_experiment, name))
       for name, (draws, _) in _EXPERIMENTS.items()},
    ("experiment", "nakai-sadasue"): (
        (("--max-n", {"type": int, "required": True}),), True,
        lambda a: nakai_sadasue(a.max_n)),
}


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every
    later call; callers must not modify it."""
    parser = _Parser(prog="vexmart")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (options, report, _) in _COMMANDS.items():
        if path[:-1] not in groups:
            # argparse names a missing subcommand by the dest of its group
            dest = {"space": "space_cmd", "check": "check_cmd", "experiment": "exp_cmd"}
            groups[path[:-1]] = groups[()].add_parser(path[0]).add_subparsers(
                dest=dest[path[0]], required=True)
        sub = groups[path[:-1]].add_parser(path[-1])
        sub.set_defaults(path=path)
        for option in options:
            if isinstance(option, str):
                sub.add_argument("--" + option, required=True, help=_HELP.get(option))
            elif isinstance(option, list):
                exclusive = sub.add_mutually_exclusive_group()
                for flag, kwargs in option:
                    exclusive.add_argument(flag, **kwargs)
            else:
                sub.add_argument(option[0], **option[1])
        sub.add_argument("--output", default=None, help="write here instead of stdout")
        if report:
            sub.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def run(argv: Sequence[str]) -> int:
    try:
        args = build_parser().parse_args(list(argv))
        options, report, command = _COMMANDS[args.path]
        files = [option for option in options if isinstance(option, str)]
        result = command(args, *_inputs(args, files))
        if report:
            result = result.as_dict()
            if args.format == "csv":
                result = serialize.report_to_csv(result).rstrip("\n")
        text = (result if isinstance(result, str) else serialize.dumps(result)) + "\n"
        if args.output is None:
            sys.stdout.write(text)
        else:
            # VEXMART_OUT prefixes a relative --output path
            out = os.path.join(os.environ.get("VEXMART_OUT", ""), args.output)
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except VexmartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
