import contextlib
import io
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from modlam import catalog, cli, lam, typed
from modlam.cli import (
    EXIT_FUEL,
    EXIT_NO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SOFTWARE,
    EXIT_USAGE,
    run,
)
from modlam.errors import ConfigError

from reference_terms import show_type as reference_show_type

OMEGA = "(\\x. x x) (\\x. x x)"
PLUS = "(\\m. \\n. \\f. \\x. m f (n f x))"


def numeral(n: int) -> str:
    return f"(\\f. \\x. {'f (' * n}x{')' * n})"


# 2^9, whose normal form nests 514 levels deep
TWO_TO_NINE = f"(\\m. \\n. n m) {numeral(2)} {numeral(9)}"
NUMERAL_512 = "\\v0. \\v1. " + "v0 (" * 511 + "v0 v1" + ")" * 511 + "\n"


class TestParse:
    def test_echoes_canonical_form(self, capsys):
        assert run(["parse", "\\x. x y"]) == EXIT_OK
        assert capsys.readouterr().out == "\\v0. v0 y\n"

    def test_debruijn(self, capsys):
        assert run(["parse", "\\x. x y", "--debruijn"]) == EXIT_OK
        assert capsys.readouterr().out == "λ. 0 y\n"

    def test_parse_error(self, capsys):
        assert run(["parse", "(x"]) == EXIT_PARSE
        assert "parse error at" in capsys.readouterr().err

    def test_lambda_sign_is_not_a_name(self, capsys):
        # λ starts a binder, as \ does, so it cannot stand as an argument.
        assert run(["parse", "f λ x"]) == EXIT_PARSE
        assert run(["normalize", "(\\x. x x) (\\f. f λ)"]) == EXIT_PARSE
        assert capsys.readouterr().err.count("parse error at") == 2

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\\x. x\n"))
        assert run(["parse", "-"]) == EXIT_OK
        assert capsys.readouterr().out == "\\v0. v0\n"
        # Leading blanks stay, so a position is an index into the input.
        monkeypatch.setattr(sys, "stdin", io.StringIO("   x )\n"))
        assert run(["parse", "-"]) == EXIT_PARSE
        assert capsys.readouterr() == ("", "parse error at 5: trailing input\n")


class TestNormalize:
    def test_beta(self, capsys):
        assert run(["normalize", "(\\x. x) y"]) == EXIT_OK
        assert capsys.readouterr().out == "y\n"

    def test_eta_postpass(self, capsys):
        assert run(["normalize", "\\x. y x"]) == EXIT_OK
        assert capsys.readouterr().out == "y\n"

    def test_fuel_exhaustion(self, capsys):
        assert run(["normalize", OMEGA, "--fuel", "50"]) == EXIT_FUEL
        assert capsys.readouterr() == ("", "fuel exhausted\n")

    @pytest.mark.parametrize(
        "fuel, expected",
        [
            (1023, (EXIT_FUEL, "", "fuel exhausted\n")),
            (1024, (EXIT_OK, NUMERAL_512, "")),
        ],
        ids=["1023", "1024"],
    )
    def test_one_fuel_unit_per_beta_step(self, capsys, fuel, expected):
        # 2^9 takes 1024 beta steps, most of them in walks that contract a
        # two-binder head at once.
        code = run(["normalize", TWO_TO_NINE, "--fuel", str(fuel)])
        assert (code, *capsys.readouterr()) == expected

    def test_negative_fuel(self, capsys):
        assert run(["normalize", "x", "--fuel", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: argument --fuel: must be nonnegative, got -1\n"
        )
        assert run(["normalize", "x", "--fuel", "0"]) == EXIT_OK
        assert capsys.readouterr().out == "x\n"


class TestEquiv:
    def test_equivalent(self, capsys):
        assert run(["equiv", "\\x. y x", "y"]) == EXIT_OK
        assert capsys.readouterr().out == "equivalent\n"

    def test_inequivalent(self, capsys):
        assert run(["equiv", "\\x. x", "y"]) == EXIT_NO
        assert capsys.readouterr().out == "inequivalent\n"

    def test_inconclusive(self, capsys):
        # One stderr line names the side that ran out and the limit.
        assert run(["equiv", OMEGA, "y", "--fuel", "50"]) == EXIT_FUEL
        assert capsys.readouterr() == ("inconclusive\n", "term1: fuel exhausted\n")
        assert run(["equiv", "y", OMEGA, "--fuel", "50"]) == EXIT_FUEL
        assert capsys.readouterr() == ("inconclusive\n", "term2: fuel exhausted\n")
        deep = "\\x. " * 2000 + "x"
        assert run(["equiv", "y", deep]) == EXIT_FUEL
        out, err = capsys.readouterr()
        assert out == "inconclusive\n" and err.count("\n") == 1
        assert err.startswith("term2: depth limit exceeded: term nesting passed 600")

    def test_negative_fuel(self, capsys):
        assert run(["equiv", "x", "x", "--fuel", "-1"]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "",
            "usage error: argument --fuel: must be nonnegative, got -1\n",
        )

    def test_deep_normal_forms(self, capsys):
        assert run(["equiv", TWO_TO_NINE, TWO_TO_NINE]) == EXIT_OK
        assert capsys.readouterr().out == "equivalent\n"
        assert run(["equiv", TWO_TO_NINE, f"{PLUS} {numeral(256)} {numeral(256)}"]) == EXIT_OK
        assert capsys.readouterr().out == "equivalent\n"
        assert run(["equiv", TWO_TO_NINE, f"{PLUS} {numeral(256)} {numeral(255)}"]) == EXIT_NO
        assert capsys.readouterr() == ("inequivalent\n", "")


class TestLeq:
    def test_related(self, capsys):
        assert run(["leq", "(\\x. x) y", "y"]) == EXIT_OK
        assert capsys.readouterr().out == "related\n"

    def test_not_related(self, capsys):
        assert run(["leq", "y", "(\\x. x) y"]) == EXIT_NO
        assert capsys.readouterr().out == "not related within depth 20\n"

    def test_depth_bound(self, capsys):
        t = "(\\x. x) ((\\x. x) y)"
        assert run(["leq", t, "y", "--depth", "1"]) == EXIT_NO
        assert capsys.readouterr().out == "not related within depth 1\n"
        assert run(["leq", t, "y", "--depth", "2"]) == EXIT_OK

    def test_mult_reaches_its_numeral(self, capsys):
        # Some step of this search substitutes a bare index whose image,
        # shifted under a binder, is the very variable it replaces: that
        # subterm comes back unchanged yet uses the index, so it must not
        # be marked closed.
        mult = f"(\\m. \\n. \\f. m (n f)) {numeral(2)} {numeral(3)}"
        assert run(["leq", mult, numeral(6), "--depth", "20"]) == EXIT_OK
        assert capsys.readouterr() == ("related\n", "")

    def test_negative_depth(self, capsys):
        assert run(["leq", "x", "x", "--depth", "-1"]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "",
            "usage error: argument --depth: must be nonnegative, got -1\n",
        )
        assert run(["leq", "x", "x", "--depth", "0"]) == EXIT_OK


class TestSubst:
    def test_map(self, capsys):
        assert run(["subst", "x y", "--map", "x=\\z. z,y=w"]) == EXIT_OK
        assert capsys.readouterr().out == "(\\v0. v0) w\n"

    def test_bad_entry(self, capsys):
        assert run(["subst", "x", "--map", "nonsense"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_image_parse_error(self, capsys):
        # The position counts from the start of --map, so it names the image.
        assert run(["subst", "x", "--map", "x=(y"]) == EXIT_PARSE
        assert capsys.readouterr() == ("", "parse error at 4: expected ')'\n")
        assert run(["subst", "x", "--map", "y=w,x=(y"]) == EXIT_PARSE
        assert capsys.readouterr() == ("", "parse error at 8: expected ')'\n")
        assert run(["subst", "x", "--map", "y=(w,x=y"]) == EXIT_PARSE
        assert capsys.readouterr() == ("", "parse error at 4: expected ')'\n")

    def test_repeated_name(self, capsys):
        # A name mapped twice is refused, not resolved by the last entry.
        assert run(["subst", "x", "--map", "x=y,x=z"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "usage error: name 'x' mapped twice in --map\n")
        assert run(["subst", "x", "--map", "x=y, x =z"]) == EXIT_USAGE

    @pytest.mark.parametrize("name, term", [("x'", "x' y"), ("xλ", "xλ y")])
    def test_any_name_of_the_grammar_maps(self, capsys, name, term):
        assert run(["subst", term, "--map", f"{name}=z"]) == EXIT_OK
        assert capsys.readouterr() == ("z y\n", "")

    @pytest.mark.parametrize("name", ["λ", "x y", "", "1x"])
    def test_a_name_is_one_name_token(self, capsys, name):
        # λ always starts a binder, and a name is one token starting with a
        # letter or '_', so none of these is a name the term could hold.
        assert run(["subst", "x", "--map", f"{name}=z"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"usage error: bad name {name!r} in --map\n")


class TestLaws:
    def test_passing_suite(self, capsys):
        code = run(["laws", "--suite", "monad", "--instance", "list", "--samples", "50"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "suite: monad" in out
        assert "result: PASS" in out

    def test_expected_failure_inverts(self, capsys):
        code = run(["laws", "--suite", "linearity", "--instance", "pt", "--samples", "50"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "result: FAIL" in out
        assert out.rstrip().endswith("expected failure: counterexample found")

    def test_bad_combination(self, capsys):
        code = run(["laws", "--suite", "algebra", "--instance", "lc"])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_monad_suite_needs_a_monad(self, capsys):
        code = run(["laws", "--suite", "monad", "--instance", "derived-lc"])
        assert code == EXIT_USAGE

    def test_unknown_instance(self, capsys):
        assert run(["laws", "--suite", "monad", "--instance", "bogus"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "suite, instance",
        [
            (suite, instance)
            for suite in catalog.SUITES
            for instance in catalog.INSTANCES
            if (suite, instance) not in catalog.PAIRS
        ],
    )
    def test_every_pair_outside_the_table_is_a_usage_error(self, capsys, suite, instance):
        argv = ["laws", "--suite", suite, "--instance", instance, "--samples", "5"]
        assert run(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1
        with pytest.raises(ConfigError):
            catalog.run_suite(suite, instance, 5)

    @pytest.mark.parametrize(
        "suite, instance", [(s, i) for s in catalog.SUITES for i in catalog.INSTANCES]
    )
    def test_every_pair_of_the_grid_exits_as_the_table_says(self, capsys, suite, instance):
        code = run(["laws", "--suite", suite, "--instance", instance, "--samples", "20"])
        out, err = capsys.readouterr()
        if (suite, instance) not in catalog.PAIRS:
            assert (code, out, err.count("\n")) == (EXIT_USAGE, "", 1)
        else:
            assert (code, err) == (EXIT_OK, "")
            if catalog.PAIRS[suite, instance]:
                assert out.endswith("\nexpected failure: counterexample found\n")

    def test_the_grid_has_nine_pairs_outside_the_table(self):
        grid = {(s, i) for s in catalog.SUITES for i in catalog.INSTANCES}
        assert set(catalog.PAIRS) < grid and len(grid - set(catalog.PAIRS)) == 9

    def test_negative_samples(self, capsys):
        argv = ["laws", "--suite", "monad", "--instance", "pt", "--samples", "-1"]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr() == (
            "",
            "usage error: argument --samples: must be nonnegative, got -1\n",
        )


class TestFold:
    def test_fold_to_nf(self, capsys):
        assert run(["fold", "(\\x. x) y", "--target", "nf"]) == EXIT_OK
        assert capsys.readouterr().out == "y\n"

    def test_fold_fuel(self, capsys):
        assert run(["fold", OMEGA, "--target", "nf", "--fuel", "50"]) == EXIT_FUEL
        assert capsys.readouterr() == ("", "fuel exhausted\n")

    def test_negative_fuel(self, capsys):
        assert run(["fold", "x", "--target", "nf", "--fuel", "-1"]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "",
            "usage error: argument --fuel: must be nonnegative, got -1\n",
        )


class TestTypecheck:
    def test_synthesizes(self, capsys):
        assert run(["typecheck", "\\x:*. x"]) == EXIT_OK
        assert capsys.readouterr().out == "* -> *\n"

    def test_type_error(self, capsys):
        assert run(["typecheck", "x y"]) == EXIT_NO
        assert capsys.readouterr().err.startswith("type error:")

    def test_parse_error(self, capsys):
        assert run(["typecheck", "\\x. x"]) == EXIT_PARSE


def right_nested(n: int) -> str:
    """The type * -> * -> ... -> * of n arrows, as show_type prints it."""
    return "* -> " * n + "*"


def left_nested(n: int) -> str:
    """The type ((* -> *) -> ...) -> * of n arrows, as show_type prints it."""
    return "(" * (n - 1) + "* -> *" + ") -> *" * (n - 1)


class TestDeepBinderTypes:
    # A binder type of any nesting parses, so it must print too: the type
    # printer runs on an explicit stack, not one Python frame per arrow.

    @pytest.mark.parametrize("nested", [right_nested, left_nested])
    def test_the_texts_are_what_the_recursive_printer_prints(self, nested):
        for n in (1, 2, 3, 50):
            ty = typed.parse_stlc(f"\\x:{nested(n)}. x").binder_type
            assert reference_show_type(ty) == nested(n) == typed.show_type(ty)

    @pytest.mark.parametrize("nested", [right_nested, left_nested])
    @pytest.mark.parametrize("n", [1000, 20000])
    def test_typecheck(self, capsys, nested, n):
        assert run(["typecheck", f"\\x:{nested(n)}. x"]) == EXIT_OK
        assert capsys.readouterr() == (f"({nested(n)}) -> {nested(n)}\n", "")

    @pytest.mark.parametrize("nested", [right_nested, left_nested])
    @pytest.mark.parametrize("n", [1000, 20000])
    def test_subst(self, capsys, nested, n):
        # modlam subst reads untyped terms, where a binder type is a parse
        # error at its ':'; a typed term goes through stlc_subst and show.
        assert run(["subst", f"\\x:{nested(n)}. y x", "--map", "y=z"]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse error at 2:")
        t = typed.parse_stlc(f"\\x:{nested(n)}. \\g:({nested(n)}) -> * -> *. g x y")
        out = lam.show(typed.stlc_subst({"y": typed.parse_stlc("z")}, t))
        assert out == f"\\v0:{nested(n)}. \\v1:({nested(n)}) -> * -> *. v1 v0 z"


# Typed terms nested n deep, each with the type modlam typecheck prints for it.
DEEP_TYPED_TERMS = {
    "binders": lambda n: ("\\x:*. " * n + "x", right_nested(n)),
    "right-nested-apps": lambda n: (
        "\\f:* -> *. \\x:*. " + "f (" * n + "x" + ")" * n,
        "(* -> *) -> * -> *",
    ),
    "left-nested-apps": lambda n: (
        f"\\f:{right_nested(n)}. \\x:*. f" + " x" * n,
        f"({right_nested(n)}) -> * -> *",
    ),
}


class TestDeepTypecheck:
    # The type checker runs on an explicit stack, so a term nested deeper
    # than Python's recursion limit types like a shallow one.

    @pytest.mark.parametrize("shape", DEEP_TYPED_TERMS)
    @pytest.mark.parametrize("n", [1000, 5000])
    def test_typecheck(self, capsys, shape, n):
        term, ty = DEEP_TYPED_TERMS[shape](n)
        assert run(["typecheck", term]) == EXIT_OK
        assert capsys.readouterr() == (f"{ty}\n", "")


class TestDeepTerms:
    # The printer, the conversion to signature terms and the generic fold
    # run on explicit stacks, so parse and fold take any nesting; a term
    # the normalizer must nest past MAX_DEPTH still ends in the depth limit.

    @pytest.mark.parametrize(
        "text",
        [
            "\\x. " * 20000 + "x",
            "f (" * 20000 + "x" + ")" * 20000,
        ],
        ids=["binders", "right-nested-apps"],
    )
    def test_parse_prints_what_parses_back(self, capsys, monkeypatch, text):
        assert run(["parse", text]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        assert run(["parse", "-"]) == EXIT_OK
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("n", [1000, 20000])
    def test_fold_nested_binders(self, capsys, n):
        assert run(["fold", "\\x. " * n + "x", "--target", "nf"]) == EXIT_OK
        names = [f"v{k}" for k in range(n)]
        assert capsys.readouterr() == ("".join(f"\\{v}. " for v in names) + f"{names[-1]}\n", "")

    def test_fold_deep_spine_hits_the_depth_limit(self, capsys):
        assert run(["fold", "f (" * 1000 + "x" + ")" * 1000, "--target", "nf"]) == EXIT_FUEL
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("depth limit exceeded: term nesting passed 600")


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1

    def test_missing_required_option(self, capsys):
        assert run(["subst", "x"]) == EXIT_USAGE


# Requests whose exit code and transcript the one-command parser must give
# as the full parser gives them: each command with valid arguments, the
# shapes a parser standing alone might read otherwise (an abbreviated
# option, --option=value, a term that looks like an option, with and
# without --), each kind of usage error, and the requests that name no
# command.
PARSER_TABLE = [
    (["parse", "\\x. x y", "--debruijn"], EXIT_OK),
    (["normalize", "(\\x. x) y", "--fuel", "5"], EXIT_OK),
    (["equiv", "\\x. y x", "y", "--fuel", "5"], EXIT_OK),
    (["leq", "(\\x. x) y", "y", "--depth", "2"], EXIT_OK),
    (["subst", "x y", "--map", "x=\\z. z,y=w"], EXIT_OK),
    (["laws", "--suite", "monad", "--instance", "list", "--samples", "5", "--seed", "1"], EXIT_OK),
    (["fold", "(\\x. x) y", "--target", "nf", "--fuel", "5"], EXIT_OK),
    (["typecheck", "\\x:*. x"], EXIT_OK),
    (["parse", "--", "x"], EXIT_OK),
    (["normalize", "x", "--fu", "3"], EXIT_OK),
    (["normalize", "--fuel=3", "x"], EXIT_OK),
    (["laws", "--suite=monad", "--instance=list", "--samples=5"], EXIT_OK),
    (["normalize", "--", "-x"], EXIT_PARSE),
    (["normalize", "-x"], EXIT_USAGE),
    (["parse"], EXIT_USAGE),
    (["normalize", "--fuel", "5"], EXIT_USAGE),
    (["equiv", "x"], EXIT_USAGE),
    (["leq"], EXIT_USAGE),
    (["subst", "x"], EXIT_USAGE),
    (["laws", "--suite", "monad"], EXIT_USAGE),
    (["fold", "--target", "nf"], EXIT_USAGE),
    (["typecheck"], EXIT_USAGE),
    (["normalize", "x", "--fuel", "-1"], EXIT_USAGE),
    (["equiv", "x", "x", "--fuel", "-2"], EXIT_USAGE),
    (["fold", "x", "--target", "nf", "--fuel", "-1"], EXIT_USAGE),
    (["normalize", "x", "--fuel", "ten"], EXIT_USAGE),
    (["leq", "x", "x", "--depth", "-1"], EXIT_USAGE),
    (["laws", "--suite", "monad", "--instance", "pt", "--samples", "-1"], EXIT_USAGE),
    (["parse", "x", "--bogus"], EXIT_USAGE),
    (["typecheck", "x", "-q"], EXIT_USAGE),
    (["parse", "x", "y"], EXIT_USAGE),
    (["equiv", "x", "y", "z"], EXIT_USAGE),
    (["fold", "x", "--target", "lc"], EXIT_USAGE),
    (["laws", "--suite", "bogus", "--instance", "pt"], EXIT_USAGE),
    (["laws", "--suite", "monad", "--instance", "bogus"], EXIT_USAGE),
    (["laws", "--suite", "algebra", "--instance", "lc"], EXIT_USAGE),
    ([], EXIT_USAGE),
    (["bogus"], EXIT_USAGE),
    (["bogus", "x"], EXIT_USAGE),
    (["Parse", "x"], EXIT_USAGE),
    (["norm", "x"], EXIT_USAGE),
    (["--fuel", "3", "normalize", "x"], EXIT_USAGE),
    (["-q", "parse", "x"], EXIT_USAGE),
    (["--", "parse", "x"], EXIT_USAGE),
    (["--"], EXIT_USAGE),
    (["-"], EXIT_USAGE),
]


def _full_parse(argv):
    return cli._build_parser().parse_args(argv)


def _parse_outcome(parse, argv):
    """What parse makes of argv: the namespace, the usage message, or the
    exit code and stdout of --help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(parse(argv))
    except cli._UsageError as e:
        return ("usage", str(e))
    except SystemExit as e:
        return ("exit", e.code, out.getvalue())


class TestOneCommandParser:
    """A request that names its command builds only that command's
    parser; what the user sees is what the full parser gives."""

    @pytest.mark.parametrize(
        "argv, code", PARSER_TABLE, ids=[" ".join(argv) or "(none)" for argv, _ in PARSER_TABLE]
    )
    def test_same_transcript_as_the_full_parser(self, capsys, monkeypatch, argv, code):
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(_full_parse, argv)
        got = (run(argv), *capsys.readouterr())
        monkeypatch.setattr(cli, "_parse_args", _full_parse)
        want = (run(argv), *capsys.readouterr())
        assert got == want
        assert got[0] == code
        if code == EXIT_USAGE:
            assert got[1] == "" and got[2].startswith("usage error: ") and got[2].count("\n") == 1

    def test_the_table_has_each_command_with_valid_arguments(self):
        assert {argv[0] for argv, code in PARSER_TABLE if code == EXIT_OK} == set(cli._COMMANDS)

    # tests/cli_help holds every --help text at 80 columns: modlam.txt the
    # top-level one, <command>.txt each command's.
    @pytest.mark.parametrize("command", ["", *cli._COMMANDS])
    def test_help_texts_are_the_goldens(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as e:
            run([command, "--help"] if command else ["--help"])
        assert e.value.code == 0
        golden = pathlib.Path(__file__).parent / "cli_help" / f"{command or 'modlam'}.txt"
        assert capsys.readouterr() == (golden.read_text(), "")


class TestParsersBuilt:
    """The work a request saves, as a count of the _Parser objects it
    builds: a named command's own, or the top-level one and one per
    command."""

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["normalize", "x"], 1),
            (["laws", "--suite", "monad", "--instance", "bogus"], 1),
            ([], 9),
            (["bogus"], 9),
            (["--", "normalize", "x"], 9),
        ],
        ids=["normalize", "laws-usage-error", "no-arguments", "unknown-command", "dashdash-first"],
    )
    def test_parsers_built(self, capsys, monkeypatch, argv, built):
        count = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            count.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        run(argv)
        assert len(count) == built


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "modlam", "normalize", "(\\x. x) y"],
            capture_output=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout == b"y\n"

    def test_long_reductions_end_within_10_s(self):
        # Without cycle detection, Ω at this fuel runs for minutes.
        def modlam(*argv):
            return subprocess.run(
                [sys.executable, "-m", "modlam", *argv], capture_output=True, text=True, timeout=10
            )

        proc = modlam("normalize", OMEGA, "--fuel", "100000000")
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_FUEL, "", "fuel exhausted\n")
        proc = modlam("normalize", TWO_TO_NINE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, NUMERAL_512, "")
        proc = modlam("parse", NUMERAL_512.rstrip("\n"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, NUMERAL_512, "")


def _raise_recursion_error(text):
    raise RecursionError("maximum recursion depth\nexceeded")


class TestInternalError:
    """An exception that escapes a command exits 70 with one line on
    stderr and no traceback.  Parsing is made to raise one whose message
    spans two lines."""

    def test_escaped_exception_maps_to_70(self, capsys, monkeypatch):
        monkeypatch.setattr(lam, "parse", _raise_recursion_error)
        assert run(["parse", "x"]) == EXIT_SOFTWARE
        err = capsys.readouterr().err
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"

    def test_module_invocation_has_no_traceback(self):
        code = (
            "import sys\n"
            "from modlam import cli, lam\n"
            "def parse(text):\n"
            "    raise RecursionError('maximum recursion depth\\nexceeded')\n"
            "lam.parse = parse\n"
            "sys.argv[1:] = ['parse', 'x']\n"
            "cli.main()\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert proc.returncode == EXIT_SOFTWARE
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.count(b"\n") == 1


# Short inputs over the grammars' characters plus any others; numeric
# flags stay small so that every request ends quickly.
TEXT = st.text(st.sampled_from("\\.()xyzf:*->,=@ λ01") | st.characters(), max_size=24)
SMALL = st.integers(-2, 60).map(str)
FLAGS = ["--debruijn", "--fuel", "--depth", "--map", "-", "--", "-q"]
EXTRA = st.lists(st.sampled_from(FLAGS), max_size=2)
REQUESTS = st.one_of(
    st.tuples(st.just("parse"), st.lists(TEXT, max_size=2)),
    st.tuples(st.just("normalize"), st.tuples(TEXT, st.just("--fuel"), SMALL)),
    st.tuples(st.just("equiv"), st.tuples(TEXT, TEXT, st.just("--fuel"), SMALL)),
    st.tuples(
        st.just("leq"), st.tuples(TEXT, TEXT, st.just("--depth"), st.integers(-2, 3).map(str))
    ),
    st.tuples(st.just("subst"), st.tuples(TEXT, st.just("--map"), TEXT)),
    st.tuples(
        st.just("fold"),
        st.tuples(
            TEXT, st.just("--target"), st.sampled_from(["nf", "x"]), st.just("--fuel"), SMALL
        ),
    ),
    st.tuples(st.just("typecheck"), st.lists(TEXT, max_size=2)),
)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(REQUESTS, EXTRA, TEXT)
    def test_every_request_ends_in_a_documented_code(self, request, extra, stdin):
        command, args = request
        argv = [command, *args, *extra]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(stdin)):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run(argv)
                except SystemExit as e:  # argparse's --help, as main() would exit
                    code = e.code
        assert code in (EXIT_OK, EXIT_NO, EXIT_PARSE, EXIT_FUEL, EXIT_USAGE, EXIT_SOFTWARE)
        assert "Traceback" not in err.getvalue()
        # the one-command parser reads argv as the full parser does
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(_full_parse, argv)
