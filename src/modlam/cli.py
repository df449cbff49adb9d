"""Command line front end.

Exit codes: 0 success, 1 negative verdict (inequivalent, unrelated,
ill-typed, failed laws), 2 parse error, 3 fuel exhausted or depth limit
exceeded, 64 usage, 70 internal error (any other exception, reported on
one stderr line).
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
        return sys.stdin.read().strip()
    return text


def _build_parser() -> _Parser:
    parser = _Parser(prog="modlam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a lambda term and echo its canonical form")
    p.add_argument("term")
    p.add_argument("--debruijn", action="store_true")

    p = sub.add_parser("normalize", help="reduce to beta-eta normal form")
    p.add_argument("term")
    p.add_argument("--fuel", type=_nonnegative_int, default=DEFAULT_FUEL)
    p.add_argument("--debruijn", action="store_true")

    p = sub.add_parser("equiv", help="decide beta-eta equivalence within fuel")
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--fuel", type=_nonnegative_int, default=DEFAULT_FUEL)

    p = sub.add_parser("leq", help="search the reduction preorder up to a depth")
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--depth", type=_nonnegative_int, default=20)

    p = sub.add_parser("subst", help="substitute free names in a term")
    p.add_argument("term")
    p.add_argument("--map", required=True, metavar="x=t,y=u", dest="mapping")

    p = sub.add_parser("laws", help="run a law suite and print its report")
    p.add_argument("--suite", required=True, choices=catalog.SUITES)
    p.add_argument("--instance", required=True, choices=catalog.INSTANCES)
    p.add_argument("--samples", type=_nonnegative_int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fold", help="fold a term into an exponential target")
    p.add_argument("term")
    p.add_argument("--target", required=True, choices=["nf"])
    p.add_argument("--fuel", type=_nonnegative_int, default=DEFAULT_FUEL)

    p = sub.add_parser("typecheck", help="synthesize the type of a typed term")
    p.add_argument("term")

    return parser


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return _dispatch(args)
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return EXIT_PARSE
    except DepthLimit as e:
        print(f"depth limit exceeded: {e}", file=sys.stderr)
        return EXIT_FUEL
    except FuelExhausted:
        print("fuel exhausted", file=sys.stderr)
        return EXIT_FUEL
    except (ConfigError, _UsageError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # e.g. RecursionError on deeply nested input
        detail = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {detail}", file=sys.stderr)
        return EXIT_SOFTWARE


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
        for piece in args.mapping.split(","):
            if "=" not in piece:
                raise _UsageError(f"bad --map entry {piece!r}")
            name, image = piece.split("=", 1)
            name = name.strip()
            if not name.isidentifier():
                raise _UsageError(f"bad name {name!r} in --map")
            if name in s:
                raise _UsageError(f"name {name!r} mapped twice in --map")
            s[name] = lam.parse(image)
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
