import contextlib
import io
import subprocess
import sys
from unittest import mock

from hypothesis import given, settings, strategies as st

from modlam.cli import (
    EXIT_FUEL,
    EXIT_NO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SOFTWARE,
    EXIT_USAGE,
    run,
)

OMEGA = "(\\x. x x) (\\x. x x)"
DEEP = "(" * 3000 + "x" + ")" * 3000
PLUS = "(\\m. \\n. \\f. \\x. m f (n f x))"


def numeral(n: int) -> str:
    return f"(\\f. \\x. {'f (' * n}x{')' * n})"


# 2^9, whose normal form nests 514 levels deep
TWO_TO_NINE = f"(\\m. \\n. n m) {numeral(2)} {numeral(9)}"


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

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\\x. x\n"))
        assert run(["parse", "-"]) == EXIT_OK
        assert capsys.readouterr().out == "\\v0. v0\n"


class TestNormalize:
    def test_beta(self, capsys):
        assert run(["normalize", "(\\x. x) y"]) == EXIT_OK
        assert capsys.readouterr().out == "y\n"

    def test_eta_postpass(self, capsys):
        assert run(["normalize", "\\x. y x"]) == EXIT_OK
        assert capsys.readouterr().out == "y\n"

    def test_fuel_exhaustion(self, capsys):
        assert run(["normalize", OMEGA, "--fuel", "50"]) == EXIT_FUEL
        assert capsys.readouterr().err == "fuel exhausted\n"

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
        assert run(["equiv", OMEGA, "y", "--fuel", "50"]) == EXIT_FUEL
        assert capsys.readouterr().out == "inconclusive\n"

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
        assert run(["subst", "x", "--map", "x=(y"]) == EXIT_PARSE


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


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_option(self, capsys):
        assert run(["subst", "x"]) == EXIT_USAGE


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "modlam", "normalize", "(\\x. x) y"],
            capture_output=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout == b"y\n"


class TestInternalError:
    def test_escaped_exception_maps_to_70(self, capsys):
        assert run(["parse", DEEP]) == EXIT_SOFTWARE
        err = capsys.readouterr().err
        assert err.startswith("internal error: RecursionError")
        assert err.count("\n") == 1

    def test_module_invocation_has_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "modlam", "parse", DEEP], capture_output=True
        )
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
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(stdin)):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run([command, *args, *extra])
                except SystemExit as e:  # argparse's --help, as main() would exit
                    code = e.code
        assert code in (EXIT_OK, EXIT_NO, EXIT_PARSE, EXIT_FUEL, EXIT_USAGE, EXIT_SOFTWARE)
        assert "Traceback" not in err.getvalue()
