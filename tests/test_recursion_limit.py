"""No outcome depends on Python's recursion limit: a table of command-line
requests runs in two interpreters, one at recursion limit 1000 and one at
4000, and every request must print the same stdout and stderr and exit
with the same code in both, none with 70 (an internal error)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from modlam.cli import EXIT_SOFTWARE

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

# Run each request in-process through cli.run with its output captured,
# and print the transcripts as one JSON list.
RUNNER = """
import contextlib, io, json, sys
sys.setrecursionlimit(int(sys.argv[1]))
from modlam.cli import run
out = []
for argv in json.load(sys.stdin):
    o, e = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
        code = run(argv)
    out.append((code, o.getvalue(), e.getvalue()))
print(json.dumps(out))
"""


def numeral(n: int) -> str:
    return f"(\\f. \\x. {'f (' * n}x{')' * n})"


BINDERS = "\\x. " * 2000 + "x y"
SPINE = "f (" * 2000 + "y" + ")" * 2000
# 550 binders over x applied to 550 binders over b: the substitution nests
# the argument 550 binders deep, past the normalizer's depth limit.
DEEPER_THAN_THE_LIMIT = "(\\x. " + "\\a. " * 550 + "x) (" + "\\b. " * 550 + "b)"

REQUESTS = {
    **{
        f"{command}-{shape}": argv
        for shape, term in (("binders", BINDERS), ("spine", SPINE))
        for command, argv in (
            ("normalize", ["normalize", term]),
            ("subst", ["subst", term, "--map", "y=z,f=g"]),
            ("equiv", ["equiv", term, term]),
        )
    },
    **{
        f"church-2^{n}": ["normalize", f"(\\m. \\n. n m) {numeral(2)} {numeral(n)}"]
        for n in range(2, 10)
    },
    "550-over-550": ["normalize", DEEPER_THAN_THE_LIMIT],
}


def transcripts(limit: int) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(limit)],
        input=json.dumps(list(REQUESTS.values())),
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(zip(REQUESTS, map(tuple, json.loads(proc.stdout))))


@pytest.fixture(scope="module")
def at_both_limits():
    return transcripts(1000), transcripts(4000)


@pytest.mark.parametrize("name", REQUESTS)
def test_same_transcript_at_both_limits(at_both_limits, name):
    low, high = (t[name] for t in at_both_limits)
    assert low == high
    assert low[0] != EXIT_SOFTWARE, low


def test_the_deep_normalizations_end_in_the_depth_limit(at_both_limits):
    low, _ = at_both_limits
    for name in ("normalize-binders", "normalize-spine", "550-over-550"):
        assert low[name] == (
            3,
            "",
            "depth limit exceeded: term nesting passed 600, "
            "the depth limit set below the recursion limit\n",
        )
    assert low["subst-spine"] == (0, "g (" * 1999 + "g z" + ")" * 1999 + "\n", "")
    assert low["church-2^9"][0] == 0
