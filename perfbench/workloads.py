"""The four benchmark workloads.

Each workload runs in whole rounds.  A round is a fixed mix of requests
whose inputs are drawn from the workload seed and the round index, so a
traced phase can replay exactly the rounds an untraced phase ran.  Only
the calls into modlam are timed; inputs are built before and outputs
checked after, against answers the benchmark computes itself.

Every module is reached through its public functions, looked up on the
module at call time so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time
from dataclasses import dataclass, field

now = time.perf_counter

PROBE_EVERY = 0.1  # seconds between host-speed probes
# Seconds probe() takes on an unloaded vCPU of the machine the benchmark
# was sized on (2-vCPU KVM guest on a 2.1 GHz Xeon, Python 3.11.7).
HOST_REF_S = 0.00036


def _tree(depth: int):
    return None if depth == 0 else (_tree(depth - 1), depth, _tree(depth - 1))


def _walk(t) -> int:
    return 0 if t is None else _walk(t[0]) + t[1] + _walk(t[2])


def probe() -> float:
    """Seconds to build and walk a 4095-node tuple tree, best of two: how
    fast the host runs allocation- and recursion-heavy Python just now."""
    best = float("inf")
    for _ in range(2):
        t0 = now()
        _walk(_tree(11))
        best = min(best, now() - t0)
    return best


@dataclass
class Tally:
    """What a phase of rounds did: requests, op counts and failures.

    The host is shared: other tenants slow this process by up to ~1.7x
    for seconds to minutes at a time, which would swamp run-to-run
    comparisons.  So probe() runs between requests (at most every
    PROBE_EVERY seconds), and each request's time is divided by the
    host's slowdown then, the mean of the probes either side of it over
    HOST_REF_S: times are stated at the reference host speed.  Raw
    figures are printed next to them.
    """

    requests: list = field(default_factory=list)  # (seconds, ops, round, probe before)
    probes: list = field(default_factory=list)  # probe() seconds
    ops: int = 0
    failed: int = 0
    kinds: dict = field(default_factory=dict)  # failure kind -> failed ops
    errors: list = field(default_factory=list)  # correctness failures
    # Checks that call modlam run inside this context; the traced phase
    # sets it to pause tracing so that checking is not counted as work.
    unmeasured: object = contextlib.nullcontext
    round: int = 0
    probed_at: float = float("-inf")

    def sample_host(self) -> None:
        if now() - self.probed_at >= PROBE_EVERY:
            self.probes.append(probe())
            self.probed_at = now()

    def add(self, seconds: float, ops: int = 1, failed: int = 0, kind: str | None = None) -> None:
        self.requests.append((seconds, ops, self.round, len(self.probes) - 1))
        self.ops += ops
        if failed:
            self.failed += failed
            self.kinds[kind] = self.kinds.get(kind, 0) + failed
        self.sample_host()

    def error(self, message: str) -> None:
        self.errors.append(message)

    def run_round(self, workload, index: int) -> None:
        self.round = index
        self.sample_host()
        workload.run_round(index, self)

    def slowdown(self) -> float:
        """The host's median slowdown over the phase."""
        return statistics.median(self.probes) / HOST_REF_S

    def latencies(self, scaled: bool = True) -> list[float]:
        if not scaled:
            return [r[0] for r in self.requests]
        last = len(self.probes) - 1
        return [
            seconds * 2 * HOST_REF_S / (self.probes[b] + self.probes[min(b + 1, last)])
            for seconds, _, _, b in self.requests
        ]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Median over rounds of ops per busy second."""
        per_round: dict = {}
        for (_, ops, r, _), seconds in zip(self.requests, self.latencies(scaled)):
            done, busy = per_round.get(r, (0, 0.0))
            per_round[r] = (done + ops, busy + seconds)
        return statistics.median(done / busy for done, busy in per_round.values())


# ---------- law sweeps ----------

SYNTAX_PAIRS = (
    [("monad", i) for i in ("lc", "list", "pt", "stlc", "tlist")]
    + [("module", i) for i in ("lc", "list", "pt", "stlc", "tlist", "derived-lc", "product-lc")]
    + [("linearity", i) for i in ("lc", "list", "pt", "tlist", "derived-lc", "product-lc")]
    + [("algebra", "list")]
)
NF_PAIRS = [("monad", "nf"), ("module", "nf"), ("linearity", "nf"), ("linearity", "stlc")]
SAMPLES = 1000

# The normalizing suites spend nearly all their time in the ~0.2% of
# samples that end skipped, and how many a law seed draws varies a lot
# (a sweep of these four pairs took 2.5 s to 9.0 s over law seeds 0-7).
# No run short enough to repeat 10 times could average that out, so
# laws-nf sweeps a fixed panel: law seed 0 (the baseline seed) and law
# seed 1 (the slow one).  The workload seed orders the jobs.
NF_PANEL = (0, 1)


class Laws:
    """Sweeps of catalog.run_suite at 1000 samples; a request is one
    (suite, instance, law seed) call and an op is one law sample.  Round
    i sweeps every pair at the law seeds of group i mod len(groups)."""

    def __init__(self, pairs, groups, seed: int, min_rounds: int):
        self.jobs = [[(s, i, ls) for ls in group for s, i in pairs] for group in groups]
        self.seed = seed
        self.min_rounds = min_rounds
        self.per_round = len(self.jobs[0])
        self.failure_kinds = ("skipped",)
        self.formats: dict = {}

    def run_round(self, index: int, tally: Tally) -> None:
        from modlam import catalog

        jobs = list(self.jobs[index % len(self.jobs)])
        random.Random(f"{self.seed}:{index}").shuffle(jobs)
        for suite, instance, law_seed in jobs:
            t0 = now()
            report = catalog.run_suite(suite, instance, SAMPLES, law_seed)
            dt = now() - t0
            where = f"{suite} {instance} seed {law_seed}"
            if catalog.expects_counterexample(suite, instance):
                ok = any(c.counterexample is not None for c in report.checks)
            else:
                ok = report.passed
            text = report.format()
            previous = self.formats.setdefault((suite, instance, law_seed), text)
            if not ok:
                tally.error(f"{where}: unexpected verdict\n{text}")
            elif text != previous:
                tally.error(f"{where}: report differs between repeats")
            else:
                skipped = sum(c.skipped for c in report.checks)
                samples = sum(c.checked for c in report.checks) + skipped
                tally.add(dt, samples, skipped, "skipped")


def laws_syntax(seed: int) -> Laws:
    rng = random.Random(f"laws-syntax:{seed}")
    law_seeds = [(rng.randrange(1 << 30),) for _ in range(3)]
    return Laws(SYNTAX_PAIRS, law_seeds, seed, min_rounds=12)


def laws_nf(seed: int) -> Laws:
    return Laws(NF_PAIRS, [NF_PANEL], seed, min_rounds=2)


# ---------- Church-numeral requests through the command line ----------

PLUS = r"(\m. \n. \f. \x. m f (n f x))"
MULT = r"(\m. \n. \f. m (n f))"
EXP = r"(\m. \n. n m)"  # EXP m n is m to the power n


def numeral(n: int) -> str:
    """Church numeral n in the input grammar."""
    body = "x"
    for i in range(n):
        body = "f x" if i == 0 else f"f ({body})"
    return f"(\\f. \\x. {body})"


def numeral_nf(n: int) -> str:
    """The printed beta-eta normal form of Church numeral n: binders are
    named v0, v1, ... and numeral 1 eta-contracts to the identity."""
    if n == 0:
        return "\\v0. \\v1. v1"
    if n == 1:
        return "\\v0. v0"
    return "\\v0. \\v1. " + "v0 (" * (n - 1) + "v0 v1" + ")" * (n - 1)


def _value(op: str, a: int, b: int) -> tuple[str, int]:
    if op == "plus":
        return f"{PLUS} {numeral(a)} {numeral(b)}", a + b
    if op == "mult":
        return f"{MULT} {numeral(a)} {numeral(b)}", a * b
    return f"{EXP} {numeral(a)} {numeral(b)}", a**b


# Powers whose numeral normalizes at the default recursion limit.
SMALL_POWERS = ((2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (6, 3), (7, 3), (8, 3), (16, 2))
BATCH = 60
LEQ_DEPTH = 20  # plus/mult of operands <= 3 reach their numeral in at most 7 steps


def church_batch(rng: random.Random) -> list[tuple[list[str], int, str]]:
    """One round: 60 requests as (argv, expected exit code, expected
    stdout), in a fixed mix with operand sizes drawn from rng.

    The mix: 4 normalizations of 2^9 (the largest power of two that
    normalizes at the default recursion limit; a fixed class, so the p95
    tail lands inside one homogeneous class), one of 2^10 or 2^11
    (exhausts the stack at this commit), one plus with an operand past
    the parser's recursion limit, and cheaper normalize, fold, equiv and
    leq requests on plus, mult and small powers.
    """
    r = rng.randint
    reqs: list[tuple[list[str], int, str]] = []

    def normalize(op, a, b, cmd="normalize"):
        term, v = _value(op, a, b)
        argv = [cmd, term] + (["--target", "nf"] if cmd == "fold" else [])
        reqs.append((argv, 0, numeral_nf(v) + "\n"))

    def equiv(left, right):
        (t1, v1), (t2, v2) = left, right
        ok = v1 == v2
        reqs.append((["equiv", t1, t2], 0 if ok else 1, "equivalent\n" if ok else "inequivalent\n"))

    for _ in range(4):
        normalize("exp", 2, 9)
    normalize("exp", 2, r(10, 11))
    normalize("plus", r(340, 420), r(0, 40))
    for _ in range(4):
        normalize("exp", *SMALL_POWERS[rng.randrange(len(SMALL_POWERS))])
    for _ in range(17):
        normalize("plus", r(0, 160), r(0, 160))
    for _ in range(8):
        normalize("mult", r(2, 16), r(2, 16))
    for _ in range(6):
        normalize("plus", r(0, 40), r(0, 40), cmd="fold")
    for _ in range(2):
        normalize("mult", r(2, 6), r(2, 6), cmd="fold")
    for _ in range(4):
        a, b = r(0, 80), r(0, 80)
        equiv(_value("plus", a, b), _value("plus", b, a))
    for _ in range(2):
        a, b = r(2, 12), r(2, 12)
        equiv(_value("mult", a, b), _value("mult", b, a))
    for _ in range(2):
        a, b = r(0, 80), r(0, 80)
        equiv(_value("plus", a, b), (numeral(a + b + 1), a + b + 1))
    for _ in range(2):
        n = r(2, 6)
        equiv(_value("exp", 2, n), (numeral(2**n), 2**n))
    for i in range(7):
        term, v = _value("plus" if rng.random() < 0.5 else "mult", r(0, 3), r(0, 3))
        target = v if i < 4 else v + 1
        related = target == v
        reqs.append(
            (
                ["leq", term, numeral(target), "--depth", str(LEQ_DEPTH)],
                0 if related else 1,
                "related\n" if related else f"not related within depth {LEQ_DEPTH}\n",
            )
        )
    rng.shuffle(reqs)
    assert len(reqs) == BATCH
    return reqs


class Church:
    """In-process cli.run requests with stdout and stderr captured."""

    def __init__(self, seed: int):
        self.seed = seed
        self.min_rounds = 4
        self.per_round = BATCH
        self.failure_kinds = ("crashed", "resource", "wrong")

    def run_round(self, index: int, tally: Tally) -> None:
        from modlam import cli

        for argv, code, expected in church_batch(random.Random(f"church-cli:{self.seed}:{index}")):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = now()
                try:
                    rc = cli.run(argv)
                except Exception:  # an escaped exception is a crash, counted, not fatal
                    rc = None
                dt = now() - t0
            if rc is None:
                tally.add(dt, failed=1, kind="crashed")
            elif rc not in (0, 1):
                tally.add(dt, failed=1, kind="resource")
            elif (rc, out.getvalue(), err.getvalue()) != (code, expected, ""):
                tally.add(dt, failed=1, kind="wrong")
                tally.error(
                    f"{argv[0]} {' '.join(argv[1:])[:120]}...: exit {rc}, expected {code}; "
                    f"stdout {out.getvalue()[:80]!r}, expected {expected[:80]!r}"
                )
            else:
                tally.add(dt)


# ---------- generic substitution over parsed signatures ----------

# (name, arity) lists; the benchmark renders them as signature files.
SIGNATURES = {
    "lambda": (("app", (0, 0)), ("abs", (1,))),
    "rich": (
        ("let", (0, 1)),
        ("letrec", (2, 2)),
        ("pair", (0, 0)),
        ("case", (0, 1, 1)),
        ("lam2", (2,)),
        ("fix", (1,)),
        ("unit", ()),
    ),
}
NAMES = ("x", "y", "z", "w", "u")

# Own term representation: ("f", name) | ("b", index) | ("o", op, args).


def gen_tree(rng: random.Random, ops, budget: int, depth: int):
    """A random well-scoped tree of about `budget` nodes."""
    if budget <= 1 or rng.random() < 0.05:
        if depth and rng.random() < 0.5:
            return ("b", rng.randrange(depth))
        return ("f", NAMES[rng.randrange(len(NAMES))])
    name, arity = ops[rng.randrange(len(ops))]
    rest = budget - 1
    cuts = sorted(rng.randint(0, rest) for _ in range(len(arity) - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [rest])]
    return ("o", name, tuple(gen_tree(rng, ops, n, depth + k) for n, k in zip(sizes, arity)))


def render(t) -> str:
    """The s-expression grammar: ident | '#' nat | '(' op term* ')'."""
    if t[0] == "f":
        return t[1]
    if t[0] == "b":
        return f"#{t[1]}"
    return "(" + " ".join([t[1]] + [render(a) for a in t[2]]) + ")"


def replace_free(t, images):
    """Substitute closed images for free names: no shifting is needed."""
    if t[0] == "f":
        return images.get(t[1], t)
    if t[0] == "b":
        return t
    return ("o", t[1], tuple(replace_free(a, images) for a in t[2]))


def signature_text(ops) -> str:
    return "".join(f"# operator {i}\n{name}: [{', '.join(map(str, ar))}]\n" for i, (name, ar) in enumerate(ops))


class GenericSubst:
    """One request is one term taken through parse_sexpr, substitute,
    rename, fold and show_sexpr; the lambda-signature terms are also
    compared with lam's own substitution."""

    ITEMS = 250

    def __init__(self, seed: int):
        from modlam import terms

        self.seed = seed
        self.min_rounds = 4
        self.per_round = self.ITEMS
        self.failure_kinds = ("wrong",)
        self.sigs = {}
        for key, ops in SIGNATURES.items():
            sig = terms.parse_signature(signature_text(ops))
            if sig.ops != ops:
                raise RuntimeError(f"parse_signature misread the {key} signature: {sig.ops!r}")
            self.sigs[key] = (sig, ops, terms.self_representation(sig))

    def items(self, index: int):
        rng = random.Random(f"generic-subst:{self.seed}:{index}")
        for _ in range(self.ITEMS):
            key = "lambda" if rng.random() < 0.5 else "rich"
            sig, ops, rep = self.sigs[key]
            t = gen_tree(rng, ops, rng.randint(40, 400), 0)
            images = {n: gen_tree(rng, ops, rng.randint(1, 12), 0) for n in NAMES if rng.random() < 0.5}
            renaming = {n: NAMES[rng.randrange(len(NAMES))] for n in NAMES if rng.random() < 0.5}
            yield key, sig, rep, t, images, renaming

    def run_round(self, index: int, tally: Tally) -> None:
        from modlam import lam, terms

        for key, sig, rep, t, images, renaming in self.items(index):
            text = render(t)
            image_texts = {n: render(i) for n, i in images.items()}
            t0 = now()
            parsed = terms.parse_sexpr(sig, text)
            s = {n: terms.parse_sexpr(sig, i) for n, i in image_texts.items()}
            substituted = terms.substitute(sig, s, parsed)
            renamed = terms.rename(sig, renaming, parsed)
            env = {n: s.get(n, terms.fvar(n)) for n in NAMES}
            folded = terms.fold(rep, parsed, env)
            shown = (terms.show_sexpr(sig, parsed), terms.show_sexpr(sig, substituted), terms.show_sexpr(sig, renamed))
            dt = now() - t0
            expected = (
                text,
                render(replace_free(t, images)),
                render(replace_free(t, {a: ("f", b) for a, b in renaming.items()})),
            )
            problems = [what for what, got, want in zip(("round trip", "substitute", "rename"), shown, expected) if got != want]
            if folded != substituted:
                problems.append("fold with closed images differs from substitute")
            with tally.unmeasured():
                if terms.parse_sexpr(sig, shown[0]) != parsed:
                    problems.append("parse of show")
                if key == "lambda":
                    lt = lam.from_scoped(parsed)
                    ls = {n: lam.from_scoped(v) for n, v in s.items()}
                    lifted = {n: lam.to_scoped(v) for n, v in ls.items()}
                    generic = lam.from_scoped(terms.substitute(lam.SIG_LC, lifted, lam.to_scoped(lt)))
                    if generic != lam.subst(ls, lt):
                        problems.append("terms.substitute differs from lam.subst")
            if problems:
                tally.add(dt, failed=1, kind="wrong")
                tally.error(f"generic-subst {key} {text[:80]}: " + ", ".join(problems))
            else:
                tally.add(dt)


WORKLOADS = {
    "laws-syntax": laws_syntax,
    "laws-nf": laws_nf,
    "church-cli": Church,
    "generic-subst": GenericSubst,
}
