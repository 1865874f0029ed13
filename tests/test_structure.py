"""Structure guards: the package's import graph and the benchmark's bindings.

Every import in ``src/coxbasis`` sits at module level and the modules import
each other without a cycle, so each module reads after the ones it imports.
The benchmark's tracer wraps module and class attributes by name (its
``TARGETS`` in ``perfbench/tracer.py``); each of them must still be bound, or
a traced benchmark run fails while the rest of the suite passes.  The tracer
file is only parsed, never imported.

A cold request pays for every module the package imports, so the standard
library modules it imports are an explicit allow-list, and a fresh
interpreter that imports ``coxbasis.cli`` must not have loaded
``dataclasses`` or ``inspect`` (which between them pull in ``ast``, ``dis``
and ``tokenize``), nor ``tempfile`` or ``shutil``.

The package keeps no state on disk: ``invariants`` opens, reads and writes
no file, and every JSON file the command line reads goes through one
helper, ``cli._read_json``, which turns any decode failure into a
ValueError.

Every memo in the package has a finite size, since public functions reach
them with caller input; a zero-argument ``functools.cache`` holds one value.

Every module-level function and class of the package, and every method
that is not a dunder, is referred to outside its own body: by the
package's code, by a tracer target, or, for an override, by the library
class it overrides.  A merge that leaves the old routine behind fails
here.  A re-export in ``__init__`` keeps nothing alive, and neither does a
test's reference: code that only tests call lives in ``tests/conftest.py``,
as the reference the tests compare against.  Every name of
``coxbasis.__all__`` resolves and is one that the package's code or the
tracer reaches.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

STDLIB_IMPORTS = {
    "__future__", "argparse", "bisect", "fractions", "functools", "hashlib", "heapq",
    "itertools", "json", "math", "operator", "random", "re", "sys", "time", "typing",
}
# names whose call or import means file I/O
FILE_IO = {"open", "io", "os", "pathlib", "shutil", "tempfile", "read_text", "write_text",
           "read_bytes", "write_bytes", "mkdir", "unlink"}
JSON_READER = ("cli", "_read_json")


def package_modules(root: Path = ROOT) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted((root / "src" / "coxbasis").glob("*.py"))}


def nested_imports(tree: ast.Module) -> list[int]:
    """Line numbers of the imports that are not statements of the module body."""
    top = {id(node) for node in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def package_imports(tree: ast.Module, modules: set[str]) -> set[str]:
    """The package modules one module imports; ``__init__`` stands for the package."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name if a.name in modules else "__init__" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coxbasis"):
            parts = node.module.split(".")
            out.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "coxbasis":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def external_imports(tree: ast.Module) -> set[str]:
    """The modules outside the package that one module imports, as written."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names if a.name.split(".")[0] != "coxbasis")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] != "coxbasis"):
            out.add(node.module)
    return out


def unbounded_caches(tree: ast.Module) -> list[str]:
    """Functions memoized without a size limit: an ``lru_cache`` given a
    ``maxsize`` that is not a positive int literal, or a ``cache`` on a function
    that takes arguments.  A long-running process grows those without end."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            target = call.func if call else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "lru_cache" and call:
                sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                # no maxsize at all is the default of 128
                if sizes and not (isinstance(sizes[0], ast.Constant)
                                  and isinstance(sizes[0].value, int) and sizes[0].value > 0):
                    out.append(node.name)
            elif name == "cache" and (node.args.args or node.args.posonlyargs
                                      or node.args.kwonlyargs or node.args.vararg
                                      or node.args.kwarg):
                out.append(node.name)
    return out


def file_io(tree: ast.Module) -> list[int]:
    """Line numbers of the imports of file modules and the calls of file
    functions or methods (``FILE_IO``) in one module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]] if node.level == 0 else []
        elif isinstance(node, ast.Call):
            f = node.func
            names = [f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")]
        else:
            continue
        if FILE_IO.intersection(names):
            out.append(node.lineno)
    return out


def json_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing top-level function, line) of each ``json.load``/``json.loads``
    call, or of a ``load``/``loads`` imported from ``json``."""
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"
                for a in node.names if a.name in ("load", "loads")}
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if ((isinstance(f, ast.Attribute) and f.attr in ("load", "loads")
                 and isinstance(f.value, ast.Name) and f.value.id == "json")
                    or (isinstance(f, ast.Name) and f.id in imported)):
                out.append((getattr(top, "name", ""), node.lineno))
    return out


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of a directed graph as a closed path of nodes, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return None


def definitions(tree: ast.Module) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each module-level function and class
    of one module, and of each method of those classes that is not a dunder."""
    nodes = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            nodes.append(node)
        if isinstance(node, ast.ClassDef):
            nodes += [m for m in node.body if isinstance(m, ast.FunctionDef)
                      and not (m.name.startswith("__") and m.name.endswith("__"))]
    return [(node.name, node.lineno, node.end_lineno) for node in nodes]


def references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each name, attribute and imported name one module uses."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(a.name, node.lineno) for a in node.names]
    return out


def unreferenced(package: dict[str, ast.Module], names: set[str]) -> list[str]:
    """``module.name`` of each definition of the package (``definitions``)
    that nothing refers to outside its own body: no other module of the
    package, none of ``names``, and no line of its own module outside the
    definition."""
    lines: dict[str, dict[str, list[int]]] = {}
    for module, tree in package.items():
        for name, line in references(tree):
            lines.setdefault(name, {}).setdefault(module, []).append(line)
    out = []
    for module, tree in package.items():
        for name, first, last in definitions(tree):
            where = lines.get(name, {})
            if (name not in names and where.keys() <= {module}
                    and all(first <= line <= last for line in where.get(module, ()))):
                out.append("%s.%s" % (module, name))
    return out


def tracer_targets() -> tuple[tuple[str, str, str], ...]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "TARGETS"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_no_function_level_imports():
    found = {name: lines for name, tree in package_modules().items()
             if (lines := nested_imports(tree))}
    assert found == {}


def test_package_import_graph_is_acyclic():
    modules = package_modules()
    graph = {name: package_imports(tree, set(modules)) for name, tree in modules.items()}
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))
    # the layers the connection and the checks sit on stay below them
    assert "connection" not in graph["certify"] | graph["invariants"]


def test_stdlib_imports_are_the_allowed_ones():
    found = set().union(*(external_imports(tree) for tree in package_modules().values()))
    assert found == STDLIB_IMPORTS


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S keeps the site hooks of the interpreter's environment out of the count
    code = ("import sys; sys.path.insert(0, %r); import coxbasis.cli; "
            "print(sorted({'dataclasses', 'inspect', 'tempfile', 'shutil'} & set(sys.modules)))"
            % str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_invariants_do_no_file_io():
    assert file_io(package_modules()["invariants"]) == []


def test_every_json_read_goes_through_the_helper():
    module, helper = JSON_READER
    found = {name: reads for name, tree in package_modules().items()
             if (reads := json_reads(tree))}
    assert {name: [f for f, _ in reads] for name, reads in found.items()} == {module: [helper]}


def test_every_memo_is_bounded():
    found = {name: funcs for name, tree in package_modules().items()
             if (funcs := unbounded_caches(tree))}
    assert found == {}
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@functools.lru_cache(maxsize=None)\ndef a(x): pass\n"
                     "@lru_cache(None)\ndef b(x): pass\n"
                     "@functools.lru_cache(maxsize=n)\ndef c(x): pass\n"
                     "@cache\ndef d(x): pass\n"
                     "@functools.lru_cache()\ndef h(x): pass\n"
                     "@functools.lru_cache(maxsize=16)\ndef e(x): pass\n"
                     "@functools.lru_cache\ndef f(x): pass\n"
                     "@functools.cache\ndef g(): pass\n")
    assert unbounded_caches(tree) == ["a", "b", "c", "d"]


def test_guards_detect_what_they_guard(tmp_path):
    tree = ast.parse("import os\n\ndef f():\n    from .poly import Poly\n    import math\n")
    assert nested_imports(tree) == [4, 5]
    tree = ast.parse("from . import verify, main\nfrom .poly import Poly\nimport coxbasis.cli\n")
    assert package_imports(tree, {"verify", "poly", "cli"}) == {"verify", "__init__", "poly", "cli"}
    assert external_imports(tree) == set()
    tree = ast.parse("import os.path, coxbasis\nfrom dataclasses import dataclass\nfrom . import x\n")
    assert external_imports(tree) == {"os.path", "dataclasses"}
    tree = ast.parse("import os.path\nfrom pathlib import Path\nx = 1\n"
                     "def f(p):\n    with open(p) as fh:\n        p.write_text(fh.read())\n"
                     "import json\n")
    assert file_io(tree) == [1, 2, 5, 6]
    tree = ast.parse("import json\nfrom json import loads as parse\n"
                     "def f(t):\n    return json.loads(t)\n"
                     "class C:\n    def g(self, fh):\n        return parse(fh)\n"
                     "x = json.load(open('a'))\ny = json.dumps(x)\n")
    assert json_reads(tree) == [("f", 4), ("C", 7), ("", 8)]
    package = {"a": ast.parse("def used():\n    return 1\n\n"
                              "def unused(n):\n    return unused(n - 1) if n else used()\n\n"
                              "class C:\n    def m(self):\n        return self.m\n"
                              "    def __eq__(self, other):\n        return True\n"),
               "b": ast.parse("from .a import C\n")}
    assert unreferenced(package, set()) == ["a.unused", "a.m"]
    assert unreferenced(package, {"unused", "m"}) == []
    # a definition that only a test calls is reported
    (tmp_path / "src" / "coxbasis").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "coxbasis" / "a.py").write_text(
        "def used():\n    return 1\n\ndef tested():\n    return used()\n")
    (tmp_path / "tests" / "test_a.py").write_text(
        "from coxbasis.a import tested\n\ndef test_tested():\n    assert tested() == 1\n")
    assert unreferenced(package_modules(tmp_path), set()) == ["a.tested"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def library_overrides(modules: list[str]) -> set[str]:
    """Names of the package's methods that override a method of a class
    outside the package; that class is what calls them."""
    out = set()
    for name in modules:
        module = importlib.import_module("coxbasis" if name == "__init__" else "coxbasis." + name)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                out.update(attr for attr in vars(cls) for base in cls.__mro__[1:]
                           if not base.__module__.startswith("coxbasis") and hasattr(base, attr))
    return out


def test_every_definition_is_referenced():
    package = package_modules()
    names = {attr for _, _, attr in tracer_targets()} | library_overrides(list(package))
    # a re-export keeps nothing alive
    del package["__init__"]
    assert unreferenced(package, names) == []


def test_every_exported_name_resolves_and_is_reached():
    package = importlib.import_module("coxbasis")
    exported = package.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(package, name)] == []
    reached = {attr for _, _, attr in tracer_targets()}
    for name, tree in package_modules().items():
        if name != "__init__":
            reached.update(ref for ref, _ in references(tree))
    assert [name for name in exported if name not in reached] == []


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert targets
    for _, path, attr in targets:
        try:
            owner = importlib.import_module(path)
        except ModuleNotFoundError:
            module, _, cls = path.rpartition(".")
            owner = getattr(importlib.import_module(module), cls)
        # the tracer reads the binding from the owner itself, not from a base class
        assert callable(vars(owner).get(attr)), "%s.%s is not bound" % (path, attr)
