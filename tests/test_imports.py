"""Every name a qlayout module imports is used in that module, and every
function, class, method, property and module-level constant it defines has
a reader in qlayout or is exported."""

import ast
from pathlib import Path

import pytest

import qlayout

MODULES = sorted(p for p in Path(qlayout.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 2)"]


def _module_constants(tree):
    """(name, line) of each name a module-level assignment binds."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno


def unreferenced_definitions(sources: dict, exported) -> list[str]:
    """The functions, classes, methods, properties and module-level
    constants defined in `sources` (module name -> text) that no source
    reads by name and `exported` does not list. Dunder names are exempt."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    out = []
    for module, tree in trees.items():
        defined = [(node.name, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for name, line in defined + [*_module_constants(tree)]:
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in used and name not in exported:
                out.append(f"{module}: {name} (line {line})")
    return out


def test_every_definition_has_a_caller_or_is_exported():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unreferenced_definitions(sources, qlayout.__all__) == []


def test_unreferenced_definition_is_caught():
    source = (
        "def used():\n    return 1\n"
        "def unused():\n    return used()\n"
        "def exported():\n    pass\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = 0\n"
        "    @property\n    def size(self):\n        return self.n\n"
        "    def read(self):\n        return 2\n"
        "print(Box().read())\n"
        "LIMIT = 3\n"  # line 16, read below
        "_column, _row = 1, 2\n"  # line 17; only _row is read
        "ORPHAN: int = 4\n"  # line 18
        "__all__ = []\n"
        "print(LIMIT + _row)\n"
    )
    assert unreferenced_definitions({"m": source}, ["exported"]) == [
        "m: unused (line 3)", "m: size (line 11)", "m: _column (line 17)",
        "m: ORPHAN (line 18)"]


def _is_deadline_sum(node) -> bool:
    """Whether node is time.monotonic() + timeout, the budget read by name
    or as an attribute, in either order."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    sides = (node.left, node.right)
    return (any(isinstance(s, ast.Call) and ast.unparse(s.func) == "time.monotonic"
                for s in sides)
            and any(getattr(s, "id", getattr(s, "attr", None)) == "timeout" for s in sides))


def timeout_sites(sources: dict) -> tuple[set, set]:
    """("module.function" of each function with a parameter named timeout,
    "module.function" of each function that adds time.monotonic() and a
    timeout) over `sources` (module name -> text)."""
    params, sums = set(), set()
    for module, text in sources.items():
        for func in ast.walk(ast.parse(text)):
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args
            if any(a.arg == "timeout" for a in args.posonlyargs + args.args + args.kwonlyargs):
                params.add(f"{module}.{func.name}")
            if any(_is_deadline_sum(node) for node in ast.walk(func)):
                sums.add(f"{module}.{func.name}")
    return params, sums


def test_one_place_turns_a_timeout_into_a_deadline():
    # a flow's timeout is the budget of the whole call: the flows take it,
    # exact._deadline turns it into the one deadline, and every layer below
    # takes that deadline
    sources = {p.stem: p.read_text() for p in MODULES}
    assert timeout_sites(sources) == (
        {"exact._deadline", "transition.synthesize_tb", "qaoa.synthesize_qaoa",
         "cli._run_synth"},
        {"exact._deadline"})


def test_timeout_sites_are_caught():
    source = (
        "import time\n"
        "def flow(c, timeout=None):\n    return solve(c, time.monotonic() + timeout)\n"
        "def solve(c, deadline, *, timeout=0):\n    return deadline\n"
        "def late(config):\n    return config.timeout + time.monotonic()\n"
        "def fine(deadline):\n    return time.monotonic() + deadline\n"
    )
    assert timeout_sites({"m": source}) == ({"m.flow", "m.solve"}, {"m.flow", "m.late"})


def callers(sources: dict, names) -> dict:
    """name -> {"module.function"} of each top-level function, or
    "module.Class.method", in `sources` (module name -> text) whose body,
    nested functions included, calls `name` by name or as an attribute."""
    out = {name: set() for name in names}
    for module, text in sources.items():
        tree = ast.parse(text)
        funcs = [(f"{module}.{node.name}", node) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
        funcs += [(f"{module}.{cls.name}.{node.name}", node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body
                  if isinstance(node, ast.FunctionDef)]
        for where, func in funcs:
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if called in out:
                        out[called].add(where)
    return out


def test_one_path_from_a_plan_to_a_result():
    # asap_schedule is the one path from a plan to a result, re-timing the
    # blocks of a commuting circuit itself; the polish scores its splits
    # with the same scheduler
    sources = {p.stem: p.read_text() for p in MODULES}
    assert callers(sources, ("_schedule_core", "_retime_block")) == {
        "_schedule_core": {"transition.asap_schedule", "transition._polish_plan"},
        "_retime_block": {"transition.asap_schedule"}}


def test_the_horizon_loop_is_the_one_exit_of_a_flow_call():
    # exact.solve_horizons alone solves a model and records how the call
    # ended; the exact flow hands it its model-free answers, so no
    # certificate function of its own is left
    sources = {p.stem: p.read_text() for p in MODULES}
    assert callers(sources, ("SynthesisDetails", "solve", "_one_swap_certificate")) == {
        "SynthesisDetails": {"exact.solve_horizons"},
        "solve": {"exact.solve_horizons"},
        "_one_swap_certificate": set()}
    assert "exact._one_swap_certificate" not in parameters(sources)


def test_callers_are_caught():
    source = (
        "def f():\n    def inner():\n        return g()\n    return inner()\n"
        "class C:\n    def m(self):\n        return mod.g(1)\n"
        "def h():\n    return g\n"
        "g()\n"
    )
    assert callers({"m": source}, ("g", "inner")) == {"g": {"m.f", "m.C.m"},
                                                     "inner": {"m.f"}}


def parameters(sources: dict) -> dict:
    """"module.function" -> the parameter names of each top-level function
    in `sources` (module name -> text), positional and keyword-only."""
    out = {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                out[f"{module}.{node.name}"] = [
                    a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return out


def test_one_function_decides_the_swap_bound():
    # exact._pins_and_swap_bound alone runs the one-SWAP cover check, over
    # the automorphisms it finds for the symmetry pins too; the coarse flow
    # takes the bound, not an embedding verdict
    sources = {p.stem: p.read_text() for p in MODULES}
    assert callers(sources, ("_one_swap_cover", "enumerate_automorphisms")) == {
        "_one_swap_cover": {"exact._pins_and_swap_bound"},
        "enumerate_automorphisms": {"exact._pins_and_swap_bound"}}
    coarse = parameters(sources)["transition._solve_coarse"]
    assert "min_swaps" in coarse and "embeds" not in coarse


def test_parameters_are_caught():
    source = (
        "def f(a, /, b, *args, c=1, **kwargs):\n    def inner(d):\n        return d\n"
        "class C:\n    def m(self, e):\n        return e\n"
    )
    assert parameters({"m": source}) == {"m.f": ["a", "b", "c"]}
