"""Command line front end: `modlam <command> [arguments]`.

`modlam --help` prints _DESCRIPTION, which lists the exit codes.  The
commands and their arguments are one table, _COMMANDS.  A request whose
first argument names a command builds just that command's parser, the
one the full parser would hand the rest to, so help texts and usage
errors are the same; any other request (no arguments, help, an option
or `--` first, an unknown command) builds the full parser.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog, lam, typed
from .errors import ConfigError, ParseError, TypeCheckError
from .fuel import DEFAULT_FUEL, DepthLimit, FuelExhausted

EXIT_OK = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_FUEL = 3
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

_DESCRIPTION = """Command line front end.

Exit codes: 0 success, 1 negative verdict (inequivalent, unrelated,
ill-typed, failed laws), 2 parse error, 3 fuel exhausted or depth limit
exceeded, 64 usage, 70 internal error (any other exception, reported on
one stderr line).
"""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; we reserve that
        raise _UsageError(message)


def _nonnegative_int(text: str) -> int:
    # The type of every bound: a nonnegative int, so a negative one is a
    # usage error and never reaches a budget or a verdict.
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def _read_term_arg(text: str) -> str:
    if text == "-":
        return sys.stdin.read().rstrip()
    return text


def _arg(*args, **kwargs):
    """The arguments of one add_argument call."""
    return args, kwargs


_FUEL = _arg("--fuel", type=_nonnegative_int, default=DEFAULT_FUEL)
_DEBRUIJN = _arg("--debruijn", action="store_true")

# Each command, in the order --help lists them: its help line and the
# add_argument calls of its parser.
_COMMANDS = {
    "parse": ("parse a lambda term and echo its canonical form", [_arg("term"), _DEBRUIJN]),
    "normalize": ("reduce to beta-eta normal form", [_arg("term"), _FUEL, _DEBRUIJN]),
    "equiv": ("decide beta-eta equivalence within fuel", [_arg("term1"), _arg("term2"), _FUEL]),
    "leq": (
        "search the reduction preorder up to a depth",
        [_arg("term1"), _arg("term2"), _arg("--depth", type=_nonnegative_int, default=20)],
    ),
    "subst": (
        "substitute free names in a term",
        [_arg("term"), _arg("--map", required=True, metavar="x=t,y=u", dest="mapping")],
    ),
    "laws": (
        "run a law suite and print its report",
        [
            _arg("--suite", required=True, choices=catalog.SUITES),
            _arg("--instance", required=True, choices=catalog.INSTANCES),
            _arg("--samples", type=_nonnegative_int, default=1000),
            _arg("--seed", type=int, default=0),
        ],
    ),
    "fold": (
        "fold a term into an exponential target",
        [_arg("term"), _arg("--target", required=True, choices=["nf"]), _FUEL],
    ),
    "typecheck": ("synthesize the type of a typed term", [_arg("term")]),
}


def _add_arguments(parser: _Parser, command: str) -> _Parser:
    for args, kwargs in _COMMANDS[command][1]:
        parser.add_argument(*args, **kwargs)
    return parser


def _build_parser() -> _Parser:
    """The top-level parser with a subparser for each command, in order."""
    parser = _Parser(prog="modlam", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # Only the full parser lists the commands, in help and in the errors for
    # a missing or unknown one; a named command's is the one add_parser makes.
    if argv and argv[0] in _COMMANDS:
        parser = _add_arguments(_Parser(prog=f"modlam {argv[0]}"), argv[0])
        return parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return _build_parser().parse_args(argv)


def run(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return _dispatch(args)
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return EXIT_PARSE
    except FuelExhausted as e:
        print(_limit_message(e), file=sys.stderr)
        return EXIT_FUEL
    except (ConfigError, _UsageError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # e.g. RecursionError on deeply nested input
        detail = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {detail}", file=sys.stderr)
        return EXIT_SOFTWARE


def _limit_message(e: FuelExhausted) -> str:
    return f"depth limit exceeded: {e}" if isinstance(e, DepthLimit) else "fuel exhausted"


def _dispatch(args) -> int:
    if args.command == "parse":
        t = lam.parse(_read_term_arg(args.term))
        print(lam.show(t, debruijn=args.debruijn))
        return EXIT_OK

    if args.command == "normalize":
        t = lam.parse(_read_term_arg(args.term))
        nf = lam.normalize(t, args.fuel)
        print(lam.show_nf(nf, debruijn=args.debruijn))
        return EXIT_OK

    if args.command == "equiv":
        t1 = lam.parse(_read_term_arg(args.term1))
        t2 = lam.parse(_read_term_arg(args.term2))
        verdict = lam.beta_eta_equiv(t1, t2, args.fuel)
        print(verdict.value)
        if verdict is lam.Equivalence.EQUIVALENT:
            return EXIT_OK
        if verdict is lam.Equivalence.INEQUIVALENT:
            return EXIT_NO
        # Reduction is deterministic, so the side that ran out does again.
        for side, t in (("term1", t1), ("term2", t2)):
            try:
                lam.normalize(t, args.fuel)
            except FuelExhausted as e:
                print(f"{side}: {_limit_message(e)}", file=sys.stderr)
                break
        return EXIT_FUEL

    if args.command == "leq":
        t1 = lam.parse(_read_term_arg(args.term1))
        t2 = lam.parse(_read_term_arg(args.term2))
        if lam.preorder_leq(t1, t2, args.depth):
            print("related")
            return EXIT_OK
        print(f"not related within depth {args.depth}")
        return EXIT_NO

    if args.command == "subst":
        t = lam.parse(_read_term_arg(args.term))
        s = {}
        start = 0  # where the piece starts in --map
        for piece in args.mapping.split(","):
            if "=" not in piece:
                raise _UsageError(f"bad --map entry {piece!r}")
            name, image = piece.split("=", 1)
            at = start + len(name) + 1  # where the image starts in --map
            start += len(piece) + 1
            name = name.strip()
            if lam._TOKEN.findall(name) != [name] or not lam._is_name(name):
                raise _UsageError(f"bad name {name!r} in --map")
            if name in s:
                raise _UsageError(f"name {name!r} mapped twice in --map")
            try:
                s[name] = lam.parse(image)
            except ParseError as e:
                # Locate the error in --map, not in the image alone.
                raise ParseError(e.message, at + e.position) from None
        print(lam.show(lam.subst(s, t)))
        return EXIT_OK

    if args.command == "laws":
        report = catalog.run_suite(args.suite, args.instance, args.samples, args.seed)
        print(report.format())
        if catalog.expects_counterexample(args.suite, args.instance):
            found = any(c.counterexample is not None for c in report.checks)
            print(
                "expected failure: counterexample found"
                if found
                else "expected failure: no counterexample found"
            )
            return EXIT_OK if found else EXIT_NO
        return EXIT_OK if report.passed else EXIT_NO

    if args.command == "fold":
        t = lam.parse(_read_term_arg(args.term))
        out = lam.iota_fold(t, fuel=args.fuel)
        print(lam.show_nf(out))
        return EXIT_OK

    if args.command == "typecheck":
        t = typed.parse_stlc(_read_term_arg(args.term))
        try:
            ty = typed.type_of(t)
        except TypeCheckError as e:
            print(f"type error: {e}", file=sys.stderr)
            return EXIT_NO
        print(typed.show_type(ty))
        return EXIT_OK

    raise _UsageError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
