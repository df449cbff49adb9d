"""The source invariants that keep the law reports reproducible and the
code free of dead parts, checked on the syntax trees of src/modlam and
perfbench: every sample draw goes through harness._sample_rng, lam alone
writes the normal-form, loose-bound and height marks and typed alone the
type and sort slots, every term node class keeps its fields in
__slots__, no term's instance __dict__ is touched outside the __reduce__
helpers, only the harness and the catalog run a law, nothing is
imported, defined or exported that nothing loads, and the defs that call
themselves are exactly README.md's "What still recurses" list.  Each
test lists every `path:line: ...` that breaks its rule."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
INIT = pathlib.Path("src/modlam/__init__.py")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

# A law checker runs only where a suite asks for it.
CHECKERS = {
    "_sweep", "sampled_law", "check_monad_laws", "check_module_laws",
    "check_linearity", "check_monad_morphism", "algebra_check",
}
# The normal-form, loose-bound and height marks and the type and sort slots
# are sound only because lam alone writes the marks and typed alone the slots.
SLOTS = (
    ("_normal", "lam.py"), ("_dangling_below", "lam.py"), ("_height", "lam.py"),
    ("_type", "typed.py"), ("_sort", "typed.py"),
)
# The defs that may touch an instance __dict__: a node's fields live in
# slots, and a read of x.__dict__ or vars(x) creates the dict it reads.
DICT_USERS = {"__reduce__"}
# The term node classes, each keeping the fields it declares in __slots__.
# A dataclass with its own __init__ builds its fields as the nodes do, and
# a subclass of a node is a node, so either must be listed here.
NODES = {"terms.Op", "lam.App", "lam.Abs", "typed.TAbs"}
# The defs that call themselves, each named in README.md's "What still
# recurses" list by the part after its module.
RECURSIVE = {
    "combinators.double_and_swap", "combinators.show_pt.go", "combinators.gen_pt.go",
    "lam._contractions", "lam.gen_term.go", "lam.gen_normal.neutral", "lam.gen_normal.nf",
    "typed.tlist_sort", "typed.tlist_shift", "typed.show_tlist", "typed.tlist_subst.go",
    "typed.gen_typed_term.leaf", "typed.gen_typed_term.go", "typed.gen_tlist.go",
    "terms._replace",
}


def parse_all(pattern: str) -> dict:
    """Each file matching pattern, parsed, by its path from the repository root."""
    return {
        p.relative_to(ROOT): ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(ROOT.glob(pattern))
    }


@pytest.fixture(scope="module")
def src():
    return parse_all("src/modlam/*.py")


@pytest.fixture(scope="module")
def bench():
    return parse_all("perfbench/*.py")


def report(bad: list) -> None:
    assert not bad, "\n".join(bad)


def test_no_line_over_100_characters():
    report([
        f"{path.relative_to(ROOT)}:{i}: {len(line)} characters"
        for path in sorted(ROOT.glob("src/modlam/*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1)
        if len(line) > 100
    ])


def test_no_unused_import(src):
    bad = []
    for path, tree in src.items():
        if path.name == "__init__.py":
            continue
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                    bad += [
                        f"{path}:{node.lineno}: unused import {b}" for b in bound if b not in names
                    ]
    report(bad)


def test_every_private_def_and_class_is_referenced(src):
    used = {getattr(n, "id", getattr(n, "attr", None)) for t in src.values() for n in ast.walk(t)}
    report([
        f"{path}:{node.lineno}: unreferenced private {node.name}"
        for path, tree in src.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and not node.name.startswith("__") and node.name not in used
    ])


def test_every_nested_def_is_loaded(src):
    # A def nested in a function is dead unless that function loads its name.
    bad = []
    for path, tree in src.items():
        for outer in (n for n in ast.walk(tree) if isinstance(n, DEFS)):
            loads = {
                n.id for n in ast.walk(outer)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            bad += [
                f"{path}:{d.lineno}: nested def {d.name} never loaded by {outer.name}"
                for d in ast.walk(outer)
                if d is not outer and isinstance(d, DEFS) and d.name not in loads
            ]
    report(bad)


def calls_outside_sample_rng(path, tree):
    """Every call in tree, except those in harness._sample_rng."""
    exempt = {
        id(n) for f in tree.body if path.name == "harness.py"
        and isinstance(f, ast.FunctionDef) and f.name == "_sample_rng" for n in ast.walk(f)
    }
    return (n for n in ast.walk(tree) if isinstance(n, ast.Call) and id(n) not in exempt)


def test_random_is_built_only_in_sample_rng(src):
    # Every sample draw goes through the draw-identical generator of harness._sample_rng.
    report([
        f"{path}:{call.lineno}: random.Random(...) outside harness._sample_rng"
        for path, tree in src.items()
        for call in calls_outside_sample_rng(path, tree)
        for f in [call.func]
        if (isinstance(f, ast.Name) and f.id == "Random") or (
            isinstance(f, ast.Attribute) and f.attr == "Random"
            and getattr(f.value, "id", None) == "random"
        )
    ])


def test_every_draw_is_a_randrange(src):
    # The sample generator overrides only randrange, so every draw in src/ goes through it.
    report([
        f"{path}:{call.lineno}: .{call.func.attr}(...) call; draw with randrange"
        for path, tree in src.items()
        for call in calls_outside_sample_rng(path, tree)
        if isinstance(call.func, ast.Attribute) and call.func.attr in ("randint", "choice")
    ])


def test_law_checkers_run_only_in_harness_and_catalog(src):
    # A law runs only when a suite asks for it: outside the harness and the
    # catalog, no def calls a law checker.
    report([
        f"{path}:{call.lineno}: {d.name} calls {name} outside harness.py and catalog.py"
        for path, tree in src.items() if path.name not in ("harness.py", "catalog.py")
        for d in ast.walk(tree) if isinstance(d, DEFS)
        for call in ast.walk(d) if isinstance(call, ast.Call)
        for name in [getattr(call.func, "id", getattr(call.func, "attr", None))]
        if name in CHECKERS
    ])


def test_marks_and_slots_have_one_writer(src):
    report([
        f"{path}:{n.lineno}: {slot} outside {home}"
        for path, tree in src.items()
        for slot, home in SLOTS if path.name != home
        for n in ast.walk(tree)
        if slot in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None))
        or (isinstance(n, ast.Constant) and n.value == slot)
    ])


def enclosing_defs(tree, prefix=""):
    """(dotted name of the innermost def or class around node, node) for
    every node under tree."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (*DEFS, ast.ClassDef)):
            yield from enclosing_defs(child, prefix + child.name + ".")
        else:
            yield prefix[:-1], child
            yield from enclosing_defs(child, prefix)


def test_instance_dicts_only_in_reduce(src):
    # A node whose __dict__ is created, even empty, loses the interpreter's
    # fast path for its field reads, so no walk may read or write it.
    report([
        f"{path}:{n.lineno}: instance __dict__ touched in {owner or 'module scope'}"
        for path, tree in src.items()
        for owner, n in enclosing_defs(tree)
        if (isinstance(n, ast.Attribute) and n.attr == "__dict__")
        or (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "vars")
        if not any(owner == d or owner.endswith("." + d) for d in DICT_USERS)
    ])


def is_dataclass(cls):
    return any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in cls.decorator_list
    )


def test_node_fields_are_slots(src):
    # A node whose fields are not slots builds an instance __dict__ for
    # them, with the cost test_instance_dicts_only_in_reduce names.
    node_names = {name.split(".")[1] for name in NODES}
    found, bad = set(), []
    for path, tree in src.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and is_dataclass(cls)):
                continue
            name = f"{path.stem}.{cls.name}"
            if name not in NODES:
                own_init = any(isinstance(n, DEFS) and n.name == "__init__" for n in cls.body)
                if own_init or node_names & {getattr(b, "id", None) for b in cls.bases}:
                    bad.append(f"{path}:{cls.lineno}: {name} builds its fields or extends a node,"
                               " and is not in NODES")
                continue
            found.add(name)
            slots = [
                e.value for n in cls.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "__slots__" for t in n.targets)
                for e in n.value.elts
            ]
            fields = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
            bad += [
                f"{path}:{cls.lineno}: field {field} of node {name} is not in __slots__"
                for field in fields if field not in slots
            ]
            if not fields:
                bad.append(f"{path}:{cls.lineno}: node {name} declares no fields")
    bad += [f"src/modlam: node class {name} not found" for name in sorted(NODES - found)]
    report(bad)


def loaded_names(src, bench):
    """Every (module, name) of src/modlam that something loads: its own
    module outside the name's own def, `from .module import name` (or `from
    modlam.module import name`) or `module.name` through a module alias,
    anywhere in src/modlam or perfbench/; or modlam.__all__ exports it."""
    loaded = set()
    for path, tree in [*src.items(), *bench.items()]:
        aliases = {}  # local name -> the modlam module it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and path != INIT and (
                node.level or node.module.split(".")[0] == "modlam"
            ):
                module = (node.module or "").removeprefix("modlam").lstrip(".")
                if module:
                    loaded |= {(module, a.name) for a in node.names}
                else:
                    aliases.update({a.asname or a.name: a.name for a in node.names})
        loaded |= {
            (aliases[n.value.id], n.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and isinstance(n.value, ast.Name) and n.value.id in aliases
        }
        if path in src:
            scopes = (*DEFS, ast.ClassDef)
            own = {id(n): d.name for d in tree.body if isinstance(d, scopes) for n in ast.walk(d)}
            loaded |= {
                (path.stem, n.id) for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                and own.get(id(n)) != n.id
            }
    exported = {
        e.value for node in src[INIT].body if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets) for e in node.value.elts
    }
    return loaded | {
        (node.module, a.name) for node in src[INIT].body if isinstance(node, ast.ImportFrom)
        for a in node.names if (a.asname or a.name) in exported
    }


def top_level_names(node):
    if isinstance(node, (*DEFS, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def test_every_public_name_is_loaded(src, bench):
    # A public top-level name of a module is dead unless something loads it
    # (loaded_names), or perfbench/ names it in a string (the tracer's probe
    # targets).
    loaded = loaded_names(src, bench)
    strings = {
        n.value for t in bench.values() for n in ast.walk(t)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    report([
        f"{path}:{node.lineno}: public {path.stem}.{name} is loaded nowhere in src/modlam"
        " or perfbench/ and is not in modlam.__all__"
        for path, tree in src.items() if path != INIT
        for node in tree.body
        for name in top_level_names(node)
        if not name.startswith("_") and (path.stem, name) not in loaded and name not in strings
    ])


def self_calling(node, prefix):
    """The dotted name of every def under node that calls its own name (or
    self./cls. its own name)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from self_calling(child, prefix + child.name + ".")
        elif isinstance(child, DEFS):
            if any(
                isinstance(n, ast.Call) and (
                    getattr(n.func, "id", None) == child.name
                    or getattr(n.func, "attr", None) == child.name
                    and getattr(n.func.value, "id", None) in ("self", "cls")
                )
                for n in ast.walk(child)
            ):
                yield prefix + child.name
            yield from self_calling(child, prefix + child.name + ".")
        else:
            yield from self_calling(child, prefix)


def test_the_recursive_walks_are_readmes_list(src):
    # Every def that calls itself is a recursive walk, and the recursive
    # walks are exactly README.md's "What still recurses" list.
    found = {name for path, tree in src.items() for name in self_calling(tree, path.stem + ".")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    report([
        *(f"src/modlam: {name} calls itself and is not in the list of recursive walks"
          for name in found - RECURSIVE),
        *(f"src/modlam: {name} is listed as a recursive walk but does not call itself"
          for name in RECURSIVE - found),
        *(f"README.md: recursive walk {name} not named"
          for name in RECURSIVE if f"`{name.split('.', 1)[1]}`" not in readme),
    ])
