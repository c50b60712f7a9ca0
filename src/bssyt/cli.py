"""Command-line verification harness.

One command per invocation, flags only, machine-readable output.  Exit
codes: 0 every checked identity holds, 1 a checked identity fails, 2
invalid input (including balanced-only claims on unbalanced shapes), 3 a
run refused up front by --limit.

Each command's arguments are one table in `_COMMANDS`: (name, keyword
arguments) pairs, the keyword arguments being those of `add_argument`.
A well-formed command line (a known command, its positionals, exact long
flags each followed by one value not beginning with "-", every value of its
declared type and choices, every required flag present) is read from that
table straight into the Namespace argparse would give, without building a
parser (`_read_args`).  Anything else goes to `build_parser()`, the full
parser built from the same table, so help, usage and error text and exit
codes are argparse's own.
"""

import argparse
import csv
import json
import sys
import time
from fractions import Fraction

from . import bijections, hecke, jaggedness
from .shapes import Partition, is_balanced, rect_staircase
from .tableaux import count_bssyt, count_rpp, count_ssyt, require_bound

CLAIMS = (
    "conjecture11",
    "theorem31",
    "theorem21",
    "theorem22",
    "doublesums",
    "fk14",
    "fk36",
    "fk37",
    "togglesym",
    "roundtrip",
)

_COUNTERS = {"ssyt": count_ssyt, "bssyt": count_bssyt, "rpp": count_rpp}


class LimitExceeded(Exception):
    pass


_VERIFY_EPILOG = (
    "claims:\n"
    "  conjecture11  staircase count factor: bssyt = (k*a*b*(d-1)/(a+b)) * ssyt"
    "  (--a --b --d --k)\n"
    "  theorem31     balanced count factor: bssyt = (k*r*c/(r+c)) * ssyt"
    "  (--shape --k; balanced only)\n"
    "  theorem21     expected jaggedness equals 2rc/(r+c), from the weak"
    " subshape histogram (balanced only)\n"
    "  theorem22     same expectation summed over every subshape, with a"
    " normalization check (balanced only)\n"
    "  doublesums    corner and outside-corner ensemble sums both equal the"
    " bssyt count (any shape)\n"
    "  togglesym     per-cell toggle-in/out sums agree across the pair"
    " ensemble (any shape)\n"
    "  roundtrip     both corner representations invert on every bssyt\n"
    "  fk14          longest-permutation word polynomial against both"
    " product-formula variants (--n)\n"
    "  fk36          word-polynomial ratio identity for a balanced dominant"
    " code (--shape; --k only sizes --limit)\n"
    "  fk37          word-polynomial ratio at x=k against the two tableau"
    " counts (--shape --k)\n"
)

_COMMON = (
    ("--format", {"choices": ("json", "csv", "text"), "default": "text",
                  "help": "output format (default: text)"}),
    ("--limit", {"type": int, "default": None,
                 "help": "refuse runs whose size heuristic (k + rows) * cells exceeds this"}),
)

# name -> (help in the command list, parser keyword arguments,
#          (flag or positional name, add_argument keyword arguments) pairs)
_COMMANDS = {
    "count": (
        "count one tableau family exactly",
        {},
        (
            ("kind", {"choices": sorted(_COUNTERS)}),
            ("--shape", {"required": True, "help": 'comma-separated parts, "" for empty'}),
            ("--k", {"type": int, "required": True}),
        ) + _COMMON,
    ),
    "verify": (
        "check one identity and report lhs/rhs",
        {"formatter_class": argparse.RawDescriptionHelpFormatter, "epilog": _VERIFY_EPILOG},
        (
            ("claim", {"choices": CLAIMS}),
            ("--shape", {}),
            ("--k", {"type": int}),
            ("--a", {"type": int}),
            ("--b", {"type": int}),
            ("--d", {"type": int}),
            ("--n", {"type": int}),
        ) + _COMMON,
    ),
    "expected-jaggedness": (
        "exact expected jaggedness under the weak distribution",
        {},
        (
            ("--shape", {"required": True}),
            ("--k", {"type": int, "required": True}),
        ) + _COMMON,
    ),
}


def build_parser():
    """The full parser: every command under one subparser list."""
    parser = argparse.ArgumentParser(
        prog="bssyt",
        description=(
            "Exact enumeration and identity checking for barely set-valued "
            "tableaux, reverse plane partitions, and 0-Hecke word polynomials."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, kwargs, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, **kwargs)
        for flag, flag_kwargs in arguments:
            command.add_argument(flag, **flag_kwargs)
    return parser


def _read_args(argv):
    """The Namespace `build_parser().parse_args(argv)` gives for a well-formed
    argv: a command, its positionals, and exact long flags each followed by
    one value.  None for anything else (help, `--k=2`, abbreviations, `--`,
    a value beginning with "-", bad values, missing flags), which only
    argparse reads."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    table = dict(_COMMANDS[argv[0]][2])
    positionals = [name for name in table if not name.startswith("-")]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name, value = token, next(tokens, None)
            if name not in table or value is None or value.startswith("-"):
                return None
        elif positionals:
            name, value = positionals.pop(0), token
        else:
            return None
        kwargs = table[name]
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[name] = value
    if positionals or any(
        kwargs.get("required") and name not in given for name, kwargs in table.items()
    ):
        return None
    return argparse.Namespace(command=argv[0], **{
        name.lstrip("-"): given.get(name, kwargs.get("default"))
        for name, kwargs in table.items()
    })


def _need(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"claim {args.claim} requires --{name}")


def _check_limit(shape, k, limit):
    """Reject a bad bound k, then refuse a run whose size heuristic exceeds
    limit, so bad input exits 2 whatever the limit."""
    require_bound(k)
    if limit is None:
        return
    cost = (k + shape.rows) * shape.ncells
    if cost > limit:
        raise LimitExceeded(
            f"size heuristic ({k} + {shape.rows}) * {shape.ncells} = {cost} "
            f"exceeds --limit {limit}"
        )


def _fraction_text(value):
    return f"{value.numerator}/{value.denominator}"


def _run_verify(args):
    """Build the single report document for the requested claim."""
    claim = args.claim
    if claim == "conjecture11":
        _need(args, "a", "b", "d", "k")
        _check_limit(rect_staircase(args.a, args.b, args.d), args.k, args.limit)
        return jaggedness.verify_conjecture_rect(args.a, args.b, args.d, args.k).as_dict()
    if claim == "fk14":
        _need(args, "n")
        return hecke.verify_fk_longest(args.n).as_dict()

    _need(args, "shape")
    shape = Partition.from_text(args.shape)
    if claim == "fk36":
        # the identity is checked as polynomials; --k only sizes the --limit heuristic
        _check_limit(shape, 1 if args.k is None else args.k, args.limit)
        return hecke.verify_fk_ratio(shape).as_dict()

    _need(args, "k")
    _check_limit(shape, args.k, args.limit)
    if claim == "theorem31":
        return jaggedness.verify_count_identity(shape, args.k).as_dict()
    if claim == "theorem21":
        return jaggedness.verify_balanced_expectation(shape, args.k).as_dict()
    if claim == "theorem22":
        return jaggedness.verify_weak_expectation_by_subshape(shape, args.k).as_dict()
    if claim == "doublesums":
        return jaggedness.verify_double_sums(shape, args.k).as_dict()
    if claim == "fk37":
        return hecke.verify_fk_bssyt_relation(shape, args.k).as_dict()
    if claim == "roundtrip":
        return bijections.verify_roundtrip(shape, args.k).as_dict()
    if claim == "togglesym":
        return jaggedness.check_toggle_symmetric(shape, args.k).as_dict()
    raise ValueError(f"unknown claim {claim}")


def _emit(doc, fmt, out):
    if fmt == "json":
        out.write(json.dumps(doc, indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(doc.keys())
        writer.writerow(
            json.dumps(v) if isinstance(v, (dict, list)) else v for v in doc.values()
        )
    else:
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            out.write(f"{key}: {value}\n")


def _elapsed_ms(start):
    return int((time.perf_counter() - start) * 1000)


def _dispatch(args, out):
    start = time.perf_counter()
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be a non-negative integer, got {args.limit}")
    if args.command == "count":
        shape = Partition.from_text(args.shape)
        _check_limit(shape, args.k, args.limit)
        value = _COUNTERS[args.kind](shape, args.k)
        if args.format == "text":
            out.write(f"{value}\n")
        else:
            _emit(
                {
                    "command": "count",
                    "kind": args.kind,
                    "shape": shape.to_text(),
                    "k": args.k,
                    "count": value,
                },
                args.format,
                out,
            )
        return 0

    if args.command == "expected-jaggedness":
        shape = Partition.from_text(args.shape)
        _check_limit(shape, args.k, args.limit)
        value = jaggedness.expected_jaggedness_weak(shape, args.k)
        balanced = bool(shape.parts) and is_balanced(shape)
        closed = (
            Fraction(2 * shape.rows * shape.cols, shape.rows + shape.cols)
            if balanced
            else None
        )
        if args.format == "text":
            if not shape.parts:
                note = " (empty shape)"
            elif balanced:
                note = f" (balanced; closed form 2rc/(r+c) = {_fraction_text(closed)})"
            else:
                note = " (unbalanced)"
            out.write(f"{_fraction_text(value)}{note}\n")
        else:
            _emit(
                {
                    "command": "expected_jaggedness",
                    "shape": shape.to_text(),
                    "k": args.k,
                    "value": _fraction_text(value),
                    "balanced": balanced,
                    "closed_form": _fraction_text(closed) if closed is not None else None,
                },
                args.format,
                out,
            )
        return 0

    doc = _run_verify(args)
    doc["elapsed_ms"] = _elapsed_ms(start)
    if args.format == "text":
        verdict = "PASS" if doc["equal"] else "FAIL"
        out.write(
            f"{verdict} {doc['claim']} lhs={json.dumps(doc['lhs'])} "
            f"rhs={json.dumps(doc['rhs'])} params={json.dumps(doc['params'])}\n"
        )
    else:
        _emit(doc, args.format, out)
    return 0 if doc["equal"] else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, sys.stdout)
    except LimitExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
