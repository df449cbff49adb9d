"""Span tracing of modlam's public entry points, installed from outside.

Nothing under src/ is edited.  Each probe replaces a public function by a
wrapper wherever a modlam module (or a descriptor built at import time,
such as ``lam.LC`` whose ``bind`` is the original ``lam.subst``) holds a
reference to it.  A wrapper records a span (id, parent, root, name,
start, end) around the outermost call only: while a span of a name is
open, further calls of that name pass straight through, and for the
duration of the outermost call the function's own module global points
back at the original, so a recursive function recurses at full speed.

A layer's self time is its span's duration minus the time its child
spans cover.  Aggregates are kept for every span; the spans themselves
are kept up to a cap and written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import time
from collections import defaultdict

SPAN_CAP = 50_000


class _AllOpen:
    def __getitem__(self, name: str) -> int:
        return 1


_ALL_OPEN = _AllOpen()


class Tracer:
    """Open-span stack plus per-name aggregates and named counters."""

    def __init__(self):
        self.now = time.perf_counter
        self.stack: list[list] = []  # [id, name, start, child_seconds, root]
        self.open: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.next_id = 0

    def enter(self, name: str) -> None:
        self.open[name] += 1
        self.next_id += 1
        root = self.stack[0][0] if self.stack else self.next_id
        self.stack.append([self.next_id, name, self.now(), 0.0, root])

    def exit(self) -> float:
        end = self.now()
        sid, name, start, child, root = self.stack.pop()
        self.open[name] -= 1
        d = end - start
        self.calls[name] += 1
        self.busy[name] += d
        self.self_time[name] += d - child
        parent = None
        if self.stack:
            self.stack[-1][3] += d
            parent = self.stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, root, name, start, end))
        return d

    @contextlib.contextmanager
    def paused(self):
        """Every probe passes straight through while paused."""
        saved, self.open = self.open, _ALL_OPEN
        try:
            yield
        finally:
            self.open = saved

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["id", "parent", "root", "name", "start", "end"],
                    "cap": SPAN_CAP,
                    "spans": self.spans,
                },
                f,
            )


def _spanning(tracer: Tracer, name: str, fn, home: dict | None, attr: str | None):
    def wrapper(*args, **kwargs):
        if tracer.open[name]:
            return fn(*args, **kwargs)
        if home is not None:
            home[attr] = fn
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
            if home is not None:
                home[attr] = wrapper

    return wrapper


class Instrumentation:
    """Installs the probes for every traced layer and undoes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple] = []
        self.replaced: dict[int, object] = {}  # id(original) -> wrapper
        self.modules = [m for n, m in sorted(sys.modules.items()) if n == "modlam" or n.startswith("modlam.")]

    # ---------- patching ----------

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self.undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self.undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        self.replaced[id(original)] = wrapper
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def function(self, name: str, module, attr: str, make=None) -> None:
        """Trace a module-level function under the span `name`."""
        fn = getattr(module, attr)
        home = fn.__globals__ if fn.__globals__.get(attr) is fn else None
        wrapper = (make or _spanning)(self.tracer, name, fn, home, attr)
        self._replace_everywhere(fn, wrapper)

    def method(self, name: str, cls, attr: str) -> None:
        fn = cls.__dict__[attr]
        self._set(cls, attr, _spanning(self.tracer, name, fn, None, None))

    def closure(self, name: str, fn) -> None:
        """Trace a function object reachable only through descriptors."""
        self.replaced[id(fn)] = _spanning(self.tracer, name, fn, None, None)

    def rebuild_descriptors(self) -> None:
        """Descriptors built at import captured the original functions;
        rebuild them with the wrappers and rebind every reference."""
        from modlam.harness import ModuleInstance, MonadInstance

        rebuilt: dict[int, object] = {}
        for mod in self.modules:
            for value in list(vars(mod).values()):
                if isinstance(value, (MonadInstance, ModuleInstance)) and id(value) not in rebuilt:
                    changes = {
                        f.name: self.replaced[id(getattr(value, f.name))]
                        for f in dataclasses.fields(value)
                        if id(getattr(value, f.name)) in self.replaced
                    }
                    if changes:
                        rebuilt[id(value)] = dataclasses.replace(value, **changes)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in rebuilt:
                    self._set(mod, attr, rebuilt[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in rebuilt:
                            self._set(value, k, rebuilt[id(v)])

    def uninstall(self) -> None:
        while self.undo:
            owner, attr, old = self.undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)


# ---------- probes with counters ----------


def _normalizing(prefix: str):
    """Wrapper factory for a normalizer taking (term, fuel): passes a Fuel
    object in, so steps are the fuel it spent, and splits exhaustion by
    the exception's message."""
    from modlam.fuel import DEFAULT_FUEL, Fuel, FuelExhausted

    def make(tracer: Tracer, name: str, fn, home, attr):
        counts = tracer.counts

        def wrapper(t, fuel=DEFAULT_FUEL):
            if tracer.open[name]:
                return fn(t, fuel)
            budget = Fuel.coerce(fuel)
            before = budget.remaining
            outcome = "ok"
            tracer.enter(name)
            try:
                return fn(t, budget)
            except FuelExhausted as e:
                outcome = "depth" if "recursion" in str(e) else "steps"
                raise
            except BaseException:
                outcome = "error"
                raise
            finally:
                d = tracer.exit()
                steps = before - budget.remaining
                counts[f"{prefix}.steps"] += steps
                if outcome == "ok":
                    counts[f"{prefix}.ok_busy"] += d
                    counts[f"{prefix}.ok_steps"] += steps
                elif outcome != "error":
                    counts[f"{prefix}.exhausted.{outcome}"] += 1
                    counts[f"{prefix}.exhausted_busy"] += d

        return wrapper

    return make


def _preorder(collector: list):
    def make(tracer: Tracer, name: str, fn, home, attr):
        def wrapper(t1, t2, depth=20):
            if tracer.open[name]:
                return fn(t1, t2, depth)
            collector.append([])
            tracer.enter(name)
            try:
                return fn(t1, t2, depth)
            finally:
                tracer.exit()
                seen = collector.pop()
                tracer.counts["lam.preorder.visited"] += len(set(seen) | {t1})

        return wrapper

    return make


def _collecting(collector: list):
    # Every term step_successors returns inside a preorder search is added
    # to that search's visited set, so their union is the visited count.
    def make(tracer: Tracer, name: str, fn, home, attr):
        def wrapper(t):
            if not collector:
                return fn(t)
            home[attr] = fn
            try:
                out = fn(t)
            finally:
                home[attr] = wrapper
            collector[-1].extend(out)
            return out

        return wrapper

    return make


def _suite(tracer: Tracer, name: str, fn, home, attr):
    inner = _spanning(tracer, name, fn, None, None)

    def wrapper(*args, **kwargs):
        report = inner(*args, **kwargs)
        for c in report.checks:
            tracer.counts["harness.samples"] += c.checked + c.skipped
            tracer.counts["harness.skipped"] += c.skipped
        return report

    return wrapper


def install(tracer: Tracer) -> Instrumentation:
    from modlam import catalog, cli, combinators, harness, lam, lists, terms, typed

    ins = Instrumentation(tracer)
    f = ins.function
    f("lam.normalize", lam, "normalize", _normalizing("lam"))
    f("lam.beta", lam, "beta_step")
    f("lam.eta", lam, "eta_step")
    ins.method("lam.nf_check", lam.NfTerm, "__post_init__")
    f("lam.parse", lam, "parse")
    f("lam.show", lam, "show")
    f("lam.fold", lam, "iota_fold")
    collector: list = []
    f("lam.preorder", lam, "preorder_leq", _preorder(collector))
    f("lam.successors", lam, "step_successors", _collecting(collector))
    f("lam.subst", lam, "subst")
    f("lam.gen", lam, "gen_term")
    f("lam.gen", lam, "gen_normal")

    f("typed.subst", typed, "stlc_subst")
    f("typed.typecheck", typed, "type_of")
    f("typed.typecheck", typed, "typecheck")
    f("typed.gen", typed, "gen_typed_term")
    f("typed.gen", typed, "gen_tlist")
    for attr in ("tlist_subst", "tlist_sort", "tlist_shift"):
        f("typed.tlist", typed, attr)
    f("typed.normalize", typed, "stlc_normalize", _normalizing("typed"))

    f("harness.run_suite", catalog, "run_suite", _suite)
    for attr in ("pt_bind", "double_and_swap", "gen_pt", "show_pt"):
        f("combinators", combinators, attr)
    # The list monad's bind and generators are reachable only through LIST.
    ins.closure("lists", lists.LIST.bind)
    for attr in ("join", "concat", "_gen_value", "_gen_subst"):
        f("lists", lists, attr)
    ins.method("lists", harness.MonoidAlgebra, "action")

    f("terms.substitute", terms, "substitute")
    f("terms.fold", terms, "fold")
    f("terms.parse", terms, "parse_sexpr")
    f("cli.run", cli, "run")

    ins.rebuild_descriptors()
    return ins


# ---------- per-layer metrics ----------

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("lam.normalize.calls", "count/round", "lower"),
    ("lam.normalize.busy_s", "s/round", "lower"),
    ("lam.steps", "count/round", "lower"),
    ("lam.step_us", "us", "lower"),
    ("lam.exhausted.steps", "count/round", "lower"),
    ("lam.exhausted.depth", "count/round", "lower"),
    ("lam.exhausted_busy_share", "share", "lower"),
    ("lam.beta.busy_s", "s/round", "lower"),
    ("lam.eta.busy_s", "s/round", "lower"),
    ("lam.nf_check.busy_s", "s/round", "lower"),
    ("lam.parse.busy_s", "s/round", "lower"),
    ("lam.show.busy_s", "s/round", "lower"),
    ("lam.fold.busy_s", "s/round", "lower"),
    ("lam.preorder.busy_s", "s/round", "lower"),
    ("lam.preorder.visited", "count/round", "lower"),
    ("lam.subst.busy_s", "s/round", "lower"),
    ("lam.gen.busy_s", "s/round", "lower"),
    ("typed.subst.busy_s", "s/round", "lower"),
    ("typed.typecheck.busy_s", "s/round", "lower"),
    ("typed.gen.busy_s", "s/round", "lower"),
    ("typed.tlist.busy_s", "s/round", "lower"),
    ("typed.normalize.busy_s", "s/round", "lower"),
    ("typed.steps", "count/round", "lower"),
    ("harness.samples", "count/round", "higher"),
    ("harness.skipped", "count/round", "lower"),
    ("harness.self_s", "s/round", "lower"),
    ("combinators.busy_s", "s/round", "lower"),
    ("lists.busy_s", "s/round", "lower"),
    ("terms.substitute.busy_s", "s/round", "lower"),
    ("terms.fold.busy_s", "s/round", "lower"),
    ("terms.parse.busy_s", "s/round", "lower"),
    ("cli.self_s", "s/round", "lower"),
    ("trace.overhead", "share", "lower"),
)


def layer_values(tracer: Tracer, rounds: int, overhead: float, slowdown: float) -> dict[str, float]:
    """Per-layer figures of a traced phase of `rounds` rounds.  Times and
    counts are per round, the ratios over the whole phase; times are
    divided by the host's slowdown over the phase."""
    busy, counts = tracer.busy, tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "lam.normalize.calls": tracer.calls["lam.normalize"],
        "lam.step_us": 1e6 * ratio(counts["lam.ok_busy"], counts["lam.ok_steps"]),
        "lam.exhausted_busy_share": ratio(counts["lam.exhausted_busy"], busy["lam.normalize"]),
        "harness.self_s": tracer.self_time["harness.run_suite"],
        "cli.self_s": tracer.self_time["cli.run"],
        "trace.overhead": overhead,
    }
    for key in ("lam.steps", "lam.exhausted.steps", "lam.exhausted.depth", "lam.preorder.visited",
                "typed.steps", "harness.samples", "harness.skipped"):
        out[key] = counts[key]
    for name, _, _ in LAYER_METRICS:
        if name.endswith(".busy_s"):
            out[name] = busy[name[: -len(".busy_s")]]
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    for name, unit in units.items():
        if unit.endswith("/round"):
            out[name] /= rounds
        if unit in ("s/round", "us"):
            out[name] /= slowdown
    return {name: out[name] for name in units}
