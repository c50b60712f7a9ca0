"""Command-line verification harness.

One command per invocation, flags only, machine-readable output.  Exit
codes: 0 every checked identity holds, 1 a checked identity fails, 2
invalid input (including balanced-only claims on unbalanced shapes), 3 a
run refused up front by --limit.

The CLI is driven by two tables.  `CLAIMS` has one row per `verify` claim:
the module and name of the library call that checks it, the argument
reader that checks and parses its flags and sizes --limit, the help line
that `bssyt verify --help` lists, and the flags the reader reads; any other
claim flag is invalid input.  `_COMMANDS` has one row per
command: its help, its arguments as (name, `add_argument` keyword
arguments) pairs and its handler, which returns the report document and
its text line.  A well-formed command line (a known command, its
positionals, exact long flags each followed by one value not beginning with
"-", every value of its declared type and choices, every required flag
present) is read into the Namespace argparse would give without building a
parser, by `_read_args` from lookup tables built from `_COMMANDS` at import.
Anything else goes to `build_parser()`, the full parser built from the same
table, so help, usage and error text and exit codes are argparse's own.
`--format json` writes each document as one line of JSON.
"""

import argparse
import json
import sys
import time

from . import bijections, hecke, jaggedness
from .shapes import Partition, is_balanced, rect_staircase
from .tableaux import count_bssyt, count_rpp, count_ssyt, require_bound

_COUNTERS = {"ssyt": count_ssyt, "bssyt": count_bssyt, "rpp": count_rpp}


class LimitExceeded(Exception):
    pass


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


# Argument readers: each checks its flags, sizes --limit and returns the
# arguments of the library call.


def _shape_k(args):
    _need(args, "shape")
    shape = Partition.from_text(args.shape)
    _need(args, "k")
    _check_limit(shape, args.k, args.limit)
    return shape, args.k


def _shape(args):
    # the identity is checked as polynomials; --k only sizes the --limit heuristic
    _need(args, "shape")
    shape = Partition.from_text(args.shape)
    _check_limit(shape, 1 if args.k is None else args.k, args.limit)
    return (shape,)


def _staircase(args):
    _need(args, "a", "b", "d", "k")
    _check_limit(rect_staircase(args.a, args.b, args.d), args.k, args.limit)
    return args.a, args.b, args.d, args.k


def _n(args):
    _need(args, "n")
    return (args.n,)


_SHAPE_K, _STAIRCASE = ("shape", "k"), ("a", "b", "d", "k")

# claim -> (module, name of its library call, argument reader, help line, the
# flags the reader reads).  The call is looked up when it runs, so a wrapped or
# patched attribute is called.  Any other claim flag is refused.
CLAIMS = {name: tuple(row) for name, *row in (
    ("conjecture11", jaggedness, "verify_conjecture_rect", _staircase,
     "staircase count factor: bssyt = (k*a*b*(d-1)/(a+b)) * ssyt  (--a --b --d --k)",
     _STAIRCASE),
    ("theorem31", jaggedness, "verify_count_identity", _shape_k,
     "balanced count factor: bssyt = (k*r*c/(r+c)) * ssyt  (--shape --k; balanced only)",
     _SHAPE_K),
    ("theorem21", jaggedness, "verify_balanced_expectation", _shape_k,
     "expected jaggedness equals 2rc/(r+c), from the weak subshape histogram"
     "  (--shape --k; balanced only)", _SHAPE_K),
    ("theorem22", jaggedness, "verify_weak_expectation_by_subshape", _shape_k,
     "same expectation summed over every subshape, with a normalization check"
     "  (--shape --k; balanced only)", _SHAPE_K),
    ("doublesums", jaggedness, "verify_double_sums", _shape_k,
     "corner and outside-corner ensemble sums both equal the bssyt count"
     "  (--shape --k; any shape)", _SHAPE_K),
    ("fk14", hecke, "verify_fk_longest", _n,
     "longest-permutation word polynomial against both product-formula variants  (--n)",
     ("n",)),
    ("fk36", hecke, "verify_fk_ratio", _shape,
     "word-polynomial ratio identity for a balanced dominant code"
     "  (--shape; --k only sizes --limit)", _SHAPE_K),
    ("fk37", hecke, "verify_fk_bssyt_relation", _shape_k,
     "word-polynomial ratio at x=k against the two tableau counts  (--shape --k)", _SHAPE_K),
    ("togglesym", jaggedness, "check_toggle_symmetric", _shape_k,
     "per-cell toggle-in/out sums agree across the pair ensemble  (--shape --k; any shape)",
     _SHAPE_K),
    ("roundtrip", bijections, "verify_roundtrip", _shape_k,
     "both corner representations invert on every bssyt  (--shape --k)", _SHAPE_K),
)}

_VERIFY_EPILOG = "claims:\n" + "".join(f"  {name:<13} {row[3]}\n" for name, row in CLAIMS.items())


def _fraction_text(value):
    return f"{value.numerator}/{value.denominator}"


# Command handlers: each returns (document, a function giving the text line,
# exit code), so that the text line is built only when it is printed.


def _count(args):
    shape, k = _shape_k(args)
    value = _COUNTERS[args.kind](shape, k)
    doc = {
        "command": "count",
        "kind": args.kind,
        "shape": shape.to_text(),
        "k": k,
        "count": value,
    }
    return doc, lambda: str(value), 0


def _verify(args):
    start = time.perf_counter()
    module, call, reader, _, flags = CLAIMS[args.claim]
    for name in _VERIFY_FLAGS:
        if name not in flags and getattr(args, name) is not None:
            raise ValueError(f"claim {args.claim} does not take --{name}")
    doc = getattr(module, call)(*reader(args)).as_dict()
    doc["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
    line = (lambda: f"{'PASS' if doc['equal'] else 'FAIL'} {doc['claim']} "
            f"lhs={json.dumps(doc['lhs'])} rhs={json.dumps(doc['rhs'])} "
            f"params={json.dumps(doc['params'])}")
    return doc, line, 0 if doc["equal"] else 1


def _expected_jaggedness(args):
    shape, k = _shape_k(args)
    value = jaggedness.expected_jaggedness_weak(shape, k)
    closed = jaggedness._closed_form(shape) if shape.parts and is_balanced(shape) else None
    doc = {
        "command": "expected_jaggedness",
        "shape": shape.to_text(),
        "k": k,
        "value": _fraction_text(value),
        "balanced": closed is not None,
        "closed_form": None if closed is None else _fraction_text(closed),
    }
    note = ("empty shape" if not shape.parts else "unbalanced" if closed is None
            else f"balanced; closed form 2rc/(r+c) = {doc['closed_form']}")
    return doc, lambda: f"{doc['value']} ({note})", 0


_COMMON = (
    ("--format", {"choices": ("json", "csv", "text"), "default": "text",
                  "help": "output format (default: text)"}),
    ("--limit", {"type": int, "default": None,
                 "help": "refuse runs whose size heuristic (k + rows) * cells exceeds this"}),
)

# name -> (help in the command list, parser keyword arguments,
#          (flag or positional name, add_argument keyword arguments) pairs,
#          handler)
_COMMANDS = {
    "count": (
        "count one tableau family exactly",
        {},
        (
            ("kind", {"choices": sorted(_COUNTERS)}),
            ("--shape", {"required": True, "help": 'comma-separated parts, "" for empty'}),
            ("--k", {"type": int, "required": True}),
        ) + _COMMON,
        _count,
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
        _verify,
    ),
    "expected-jaggedness": (
        "exact expected jaggedness under the weak distribution",
        {},
        (
            ("--shape", {"required": True}),
            ("--k", {"type": int, "required": True}),
        ) + _COMMON,
        _expected_jaggedness,
    ),
}


# the claim flags of `verify`, all but its positional and --format and --limit,
# which every claim takes
_VERIFY_FLAGS = [flag[2:] for flag, _ in _COMMANDS["verify"][2][1 : -len(_COMMON)]]


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
    for name, (help_text, kwargs, arguments, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, **kwargs)
        for flag, flag_kwargs in arguments:
            command.add_argument(flag, **flag_kwargs)
    return parser


def _reader_table(arguments):
    """A command's arguments as `_read_args` reads them: name -> (Namespace
    attribute, type, choices), the positional names, the attributes of the
    required flags, and every attribute's default."""
    types = {name: (name.lstrip("-"), kwargs.get("type", str), kwargs.get("choices"))
             for name, kwargs in arguments}
    return (
        types,
        [name for name in types if not name.startswith("-")],
        {name.lstrip("-") for name, kwargs in arguments if kwargs.get("required")},
        {name.lstrip("-"): kwargs.get("default") for name, kwargs in arguments},
    )


_READER_TABLES = {name: _reader_table(row[2]) for name, row in _COMMANDS.items()}


def _read_args(argv):
    """The Namespace `build_parser().parse_args(argv)` gives for a well-formed
    argv: a command, its positionals, and exact long flags each followed by
    one value.  None for anything else (help, `--k=2`, abbreviations, `--`,
    a value beginning with "-", bad values, missing flags), which only
    argparse reads."""
    if not argv or argv[0] not in _READER_TABLES:
        return None
    types, positionals, required, defaults = _READER_TABLES[argv[0]]
    positionals = list(positionals)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name, value = token, next(tokens, None)
            if name not in types or value is None or value.startswith("-"):
                return None
        elif positionals:
            name, value = positionals.pop(0), token
        else:
            return None
        dest, kind, choices = types[name]
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    if positionals or not required <= given.keys():
        return None
    return argparse.Namespace(command=argv[0], **{**defaults, **given})


def _dispatch(args, out):
    """Run the command's handler, then write its text line or its document."""
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be a non-negative integer, got {args.limit}")
    doc, line, code = _COMMANDS[args.command][3](args)
    if args.format == "text":
        out.write(line() + "\n")
    elif args.format == "json":
        out.write(json.dumps(doc) + "\n")
    else:
        import csv  # imported here, so that the other formats never pay for it

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(doc.keys())
        writer.writerow(
            json.dumps(v) if isinstance(v, (dict, list)) else v for v in doc.values()
        )
    return code


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
