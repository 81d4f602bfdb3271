"""Command-line front end.

Exit codes: 0 success, 1 property failure, 2 input error or out of memory,
141 closed stdout.

Subcommands:
  compute   polynomial of a diagram file
  resolve   signed resolution sum for a diagram with singular crossings
  tensor    side-by-side product of two diagram files
  compose   stack the first file above the second, with prediction check
  check     randomized property suites (moves, prop2, corollary,
            compose, vassiliev)
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .algebra import collapse_variables, poly_json_text, render, substitute_symbols
from .diagram import from_json, parse, serialize, to_json
from .errors import (ArityMismatch, DiagramParseError, HasSingular, MissingSymbol,
                     OrientationMismatch, SymbolicExponent, ValidationFailure)
from .invariant import maip, structured_maip, vassiliev_eval
from .tangle_ops import GluePlan, predict_composed, tensor


DEFAULT_TRIALS = 200
# The names of checks.SUITES, in its order, so that building the parser
# does not import the suites.
SUITE_NAMES = ("moves", "prop2", "corollary", "compose", "vassiliev")


class _InputError(Exception):
    pass


def _load(path: str):
    """Read a diagram file, in either the text format or its JSON mirror."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        if text.lstrip().startswith("{"):
            try:
                data = json.loads(text)
            except (ValueError, RecursionError) as exc:  # bad syntax, huge number, deep nesting
                raise _InputError(f"{path}: bad diagram JSON: {exc}") from exc
            return from_json(data)
        return parse(text)
    except DiagramParseError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    except ValidationFailure as exc:
        lines = "\n".join(f"  - {v}" for v in exc.violations)
        raise _InputError(f"{path}: invalid diagram\n{lines}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc


def _integer(text: str) -> int:
    """``text`` read as an optional sign and ASCII digits, else ValueError.

    int() alone also reads "3_0" and other scripts' digits.
    """
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)    # too many digits: ValueError


def _parse_assignment(text: str, symbols) -> dict[int, int]:
    out: dict[int, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        symbol = re.fullmatch(r"c([0-9]+)", name)
        try:
            if not (symbol or name == "all"):
                raise ValueError
            val = _integer(value)
            index = int(symbol[1]) if symbol else None  # too many digits: ValueError
        except ValueError:
            raise _InputError(f"bad assignment {item!r}; expected c<i>=<int> or all=<int>")
        if symbol:
            out[index] = val
        else:
            for s in symbols:
                out.setdefault(s, val)
    return out


def _print_poly(poly, as_json: bool) -> None:
    print(poly_json_text(poly) if as_json else render(poly))


def _emit_diagram(args, d, poly, **extra) -> None:
    """Write ``d`` to ``-o`` if given, then print it, its polynomial if any and ``extra``."""
    text = serialize(d) if args.out or not args.json else None
    if args.out:
        _write(args.out, text)
    if args.json:
        # json.dumps of {"diagram": ..., "maip": ..., **extra} with the
        # polynomial's text spliced in: embedding poly_to_json(poly) cost
        # 0.8 ms more per compose and 7.7 ms per tensor of the two halves
        # of a 1600-crossing diagram (Xeon)
        fields = [("diagram", json.dumps(to_json(d))),
                  ("maip", "null" if poly is None else poly_json_text(poly)),
                  *((key, json.dumps(value)) for key, value in extra.items())]
        print("{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in fields) + "}")
    else:
        sys.stdout.write(text)
        if poly is not None:
            print(f"# maip: {render(poly)}")
        for key, value in extra.items():
            print(f"# {key}: {value}")


def cmd_compute(args) -> int:
    d = _load(args.file)
    try:
        poly = maip(d)
    except HasSingular as exc:
        raise _InputError(f"{args.file}: diagram has singular crossings; use resolve") from exc
    if args.numeric is not None:
        try:
            poly = substitute_symbols(poly, _parse_assignment(args.numeric, poly.symbols()))
        except MissingSymbol as exc:
            raise _InputError(f"--numeric incomplete: {exc}") from exc
    if args.collapse:
        try:
            poly = collapse_variables(poly)
        except SymbolicExponent as exc:
            raise _InputError(f"--collapse needs numeric labels first: {exc}") from exc
    _print_poly(poly, args.json)
    return 0


def cmd_resolve(args) -> int:
    d = _load(args.file)
    if not d.has_singular():
        raise _InputError(f"{args.file}: no singular crossings; use compute")
    _print_poly(vassiliev_eval(d), args.json)
    return 0


def cmd_tensor(args) -> int:
    left = _load(args.left)
    right = _load(args.right)
    product = tensor(left, right)
    _emit_diagram(args, product, None if product.has_singular() else maip(product))
    return 0


def cmd_compose(args) -> int:
    upper = _load(args.upper)
    lower = _load(args.lower)
    try:
        plan = GluePlan.from_tangles(upper, lower)
    except (ArityMismatch, OrientationMismatch) as exc:
        raise _InputError(f"cannot compose: {exc}") from exc
    composite = plan.glue(upper, lower)
    try:
        poly = maip(composite)
    except HasSingular as exc:
        raise _InputError("composite has singular crossings; resolve the factors first") from exc
    predicted = predict_composed(structured_maip(upper), structured_maip(lower), plan)
    verdict = "ok" if predicted == poly else "MISMATCH"
    _emit_diagram(args, composite, poly, predict=verdict)
    return 1 if verdict == "MISMATCH" else 0


def cmd_check(args) -> int:
    from . import checks

    if args.what in checks.RANDOM_ONLY and (args.file or not args.random):
        raise _InputError(f"--what {args.what} runs on random inputs only; "
                          "pass --random and no diagram file")
    if not args.random and not args.file:
        raise _InputError("pass a diagram file or --random")
    if args.random and args.file:
        raise _InputError("pass a diagram file or --random, not both")
    if args.file and args.what in checks.ONCE_ON_A_DIAGRAM and args.trials is not None:
        raise _InputError(f"--what {args.what} checks a diagram file once; "
                          "--trials applies to --random")
    suite = checks.SUITES[args.what]
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    if args.file:
        diagram = _load(args.file)
        try:  # every suite that takes a file computes the polynomial first
            report = suite(trials, args.seed, diagram=diagram)
        except HasSingular as exc:
            raise _InputError(f"{args.file}: diagram has singular crossings; use resolve") from exc
    else:
        report = suite(trials, args.seed)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print("\n".join([report.summary(), *report.failure_lines()]))
    return 0 if report.ok else 1


def _trial_count(text: str) -> int:
    try:
        value = _integer(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maip",
        description="Polynomial invariant of virtual tangle diagrams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="polynomial of a diagram file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--numeric", metavar="ASSIGN",
                   help="substitute labels, e.g. 'c1=0,c2=3' or 'all=0'")
    p.add_argument("--collapse", action="store_true",
                   help="merge all variables into t1 (after --numeric)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("resolve", help="resolve singular crossings and evaluate")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("tensor", help="place the second tangle to the right of the first")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--out", help="also write the product diagram to a file")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("compose", help="stack the first tangle above the second")
    p.add_argument("upper")
    p.add_argument("lower")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--out", help="also write the composite diagram to a file")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("check", help="run a randomized property suite")
    p.add_argument("file", nargs="?")
    p.add_argument("--what", required=True, choices=SUITE_NAMES)
    p.add_argument("--random", action="store_true", help="generate random diagrams")
    p.add_argument("--trials", type=_trial_count)
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        inputs = [getattr(args, name) for name in ("file", "left", "right", "upper", "lower")
                  if getattr(args, name, None)]
        print(f"error: {', '.join(inputs) or 'random diagrams'}: out of memory "
              f"in maip {args.command}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone; send the exit flush of stdout nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
