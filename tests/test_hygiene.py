import ast
from pathlib import Path

import shufflecheck

PACKAGE = Path(shufflecheck.__file__).parent


def _unused_imports(source: str) -> list:
    """Names bound by an import that nothing else in the module reads."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string that parses as an expression, such as the quoted
            # annotation "PetriNet", reads the names in it
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    # __init__.py imports only to re-export
    found = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_unused_import_check_sees_through_aliases_and_annotations():
    source = "\n".join([
        "from __future__ import annotations",
        "import os.path",
        "import xml.etree.ElementTree as ET",
        "from typing import Any, Optional",
        "from .engine import CounterVector",
        "def f(x: Optional[int]) -> 'CounterVector':",
        "    return ET",
    ])
    assert _unused_imports(source) == [(2, "os"), (4, "Any")]


ROOT = PACKAGE.parent.parent


def _sources(*tops) -> dict:
    """Path relative to the repository -> text, for every Python file
    under the given top-level directories."""
    return {
        str(path.relative_to(ROOT)): path.read_text()
        for top in tops
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def _unreferenced_definitions(sources: dict, checked) -> list:
    """Module-level functions and classes of the checked files that no node
    of sources reads outside their own definition.  A read is a loaded
    name, a name in an import, an attribute of a checked module's name
    (`petri.karp_miller`, `sc.decision.decide_sp`) or a string that is the
    bare name, as the benchmark's tracer gives the names it wraps.  A method
    call or a comment that shares the name reads nothing.  sources maps a
    file name to its text."""
    modules = {Path(path).stem for path in checked}
    reads: dict = {}  # name or (module, name) -> [(file, line)]
    for other, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                key = node.id
            elif isinstance(node, ast.alias):
                key = node.name
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                base = node.value
                module = getattr(base, "id", None) or getattr(base, "attr", None)
                if module not in modules:
                    continue
                key = (module, node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if not node.value.isidentifier():
                    continue
                key = node.value
            else:
                continue
            reads.setdefault(key, []).append((other, node.lineno))
    found = []
    for path in checked:
        module = Path(path).stem
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(
                other == path and line in own
                for key in (node.name, (module, node.name))
                for other, line in reads.get(key, ())
            ):
                found.append(f"{Path(path).name}:{node.name}")
    return found


def _package_files(*skip) -> list:
    return [
        str(path.relative_to(ROOT))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in skip
    ]


def test_every_definition_is_referenced():
    sources = _sources("src", "tests", "perfbench")
    assert _unreferenced_definitions(sources, _package_files()) == []


def test_no_definition_is_read_only_by_tests():
    # code that only tests read belongs with them
    sources = _sources("src", "perfbench")
    checked = _package_files()
    assert _unreferenced_definitions(sources, checked) == []


def test_unreferenced_definition_check_sees_other_lines_only():
    sources = {
        "pkg.py": "\n".join([
            "def used():",
            "    return helper()",
            "def helper():",
            "    return 1",
            "def recursive():",
            "    return recursive()",
            "class Lonely:",
            "    pass",
        ]),
        "bench.py": "from pkg import used  # times used()",
        "test_pkg.py": "from pkg import Lonely",
    }
    assert _unreferenced_definitions(sources, ["pkg.py"]) == ["pkg.py:recursive"]
    del sources["test_pkg.py"]
    assert _unreferenced_definitions(sources, ["pkg.py"]) == [
        "pkg.py:recursive", "pkg.py:Lonely",
    ]
    del sources["bench.py"]
    assert _unreferenced_definitions(sources, ["pkg.py"]) == [
        "pkg.py:used", "pkg.py:recursive", "pkg.py:Lonely",
    ]
    # only a name, an import, an attribute of the module or a bare-name
    # string reads a definition; a method call or a comment does not
    sources = {
        "pkg.py": "\n".join([
            "def moves():",
            "    return 1",
            "def noted():",
            "    return 2",
            "def loaded():",
            "    return 3",
            "def wrapped():",
            "    return 4",
            "def aliased():",
            "    return 5",
        ]),
        "use.py": "\n".join([
            "import pkg",
            "from pkg import aliased as other",
            "system.moves(0)",
            "# noted() in a comment",
            "text = 'noted() in a string'",
            "n = pkg.loaded()",
            "WRAPPED = (('pkg', 'wrapped'),)",
        ]),
    }
    assert _unreferenced_definitions(sources, ["pkg.py"]) == [
        "pkg.py:moves", "pkg.py:noted",
    ]


def _unread_methods(sources: dict, checked) -> list:
    """Methods of the classes in the checked files, dunders aside, that no
    node of sources reads as an attribute outside the method's own body.
    A bare name that shares a method's name, such as a local variable,
    reads nothing.  sources maps a file name to its text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads: dict = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((name, node.lineno))
    found = []
    for name in checked:
        for cls in ast.walk(trees[name]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                own = range(fn.lineno, fn.end_lineno + 1)
                if all(
                    other == name and line in own
                    for other, line in reads.get(fn.name, ())
                ):
                    found.append(f"{name}:{cls.name}.{fn.name}")
    return sorted(found)


def test_every_method_is_read():
    sources = _sources("src", "tests", "perfbench")
    assert _unread_methods(sources, _package_files()) == []


def test_unread_method_check_sees_only_reads():
    sources = {
        "pkg.py": "\n".join([
            "class A:",
            "    def used(self):",
            "        return self.helper()",
            "    def helper(self):",
            "        return 1",
            "    def recursive(self):",
            "        return self.recursive()",
            "    def documented(self):",
            '        """Call self.documented() to document."""',
            "    def assigned(self):",
            "        pass",
            "    def __repr__(self):",
            "        return 'A'",
            "    @property",
            "    def size(self):",
            "        return 0",
            "    def step(self):",
            "        return 1",
        ]),
        "use.py": "\n".join([
            "# A().documented()",
            "A().used()",
            "a.assigned = None",
            "n = a.size",
            "def walk(step):",
            "    return step(0)",
        ]),
    }
    assert _unread_methods(sources, ["pkg.py"]) == [
        "pkg.py:A.assigned", "pkg.py:A.documented", "pkg.py:A.recursive",
        "pkg.py:A.step",
    ]


def _is_dataclass(decorator) -> bool:
    """Is the decorator `dataclass`, `dataclasses.dataclass`, or a call of
    either?"""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = getattr(decorator, "id", None) or getattr(decorator, "attr", None)
    return name == "dataclass"


def _unread_attributes(sources: dict, checked) -> list:
    """Attributes that the checked files set and that no node of sources
    reads: every `self.<name> = ...` in a method, and every annotated
    field `<name>: ...` of a `@dataclass` class, needs an attribute load
    of `<name>` somewhere, on any object.  A store, such as the assignment
    itself or a keyword argument of the constructor, reads nothing.
    sources maps a file name to its text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = set()
    for name in checked:
        for node in ast.walk(trees[name]):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr not in reads
            ):
                found.add(f"{name}:{node.attr}")
            if isinstance(node, ast.ClassDef) and any(
                map(_is_dataclass, node.decorator_list)
            ):
                found.update(
                    f"{name}:{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in reads
                )
    return sorted(found)


def test_every_attribute_is_read():
    sources = _sources("src", "tests", "perfbench")
    assert _unread_attributes(sources, _package_files()) == []


def test_unread_attribute_check_sees_only_loads():
    sources = {
        "pkg.py": "\n".join([
            "class A:",
            "    def __init__(self, n):",
            "        self.size = n",
            "        self.cache = {}",
            "        self.left = self.right = None",
            "        self.pair, self.spare = n, n",
            "        self.total: int = 0",
            "        self.total += n",
            "        other.stray = n",
            "    def get(self, k):",
            "        self.cache[k] = self.size",
            "        return self.pair",
        ]),
        "use.py": "\n".join([
            "# a.left in a comment",
            "text = 'a.spare in a string'",
            "n = A(1).right",
        ]),
    }
    assert _unread_attributes(sources, ["pkg.py"]) == [
        "pkg.py:left", "pkg.py:spare", "pkg.py:total",
    ]
    sources["use.py"] += "\nprint(a.total, a.left)"
    assert _unread_attributes(sources, ["pkg.py"]) == ["pkg.py:spare"]


def test_unread_attribute_check_sees_dataclass_fields():
    sources = {
        "pkg.py": "\n".join([
            "import dataclasses",
            "from dataclasses import dataclass",
            "@dataclass(frozen=True)",
            "class A:",
            "    used: int",
            "    size: int = 0",
            "    spare: dict = None",
            "    def total(self):",
            "        return self.used",
            "@dataclasses.dataclass",
            "class B:",
            "    stray: int",
            "class C:",
            "    plain: int = 0",
        ]),
        "use.py": "\n".join([
            "# a.spare in a comment",
            "text = 'b.stray'",
            "a = A(1, spare={})",
            "n = a.size",
        ]),
    }
    assert _unread_attributes(sources, ["pkg.py"]) == ["pkg.py:spare", "pkg.py:stray"]


def _local_relative_imports(source: str) -> list:
    """Lines of the relative imports made inside a function; lazy imports
    from outside the package stay allowed."""
    return sorted({
        inner.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, ast.ImportFrom) and inner.level
    })


def test_no_function_local_relative_imports():
    found = {
        path.name: _local_relative_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_local_import_check_allows_lazy_stdlib_imports():
    source = "\n".join([
        "from .engine import ZERO",
        "def f():",
        "    import xml.etree.ElementTree as ET",
        "    from collections import deque",
        "    from .automata import grave",
        "    def g():",
        "        from . import petri",
    ])
    assert _local_relative_imports(source) == [5, 7]


STEP_KINDS = {"START", "INNER", "END", "START_END"}


def _step_kind_imports(source: str) -> list:
    """The step kinds that a module imports by name."""
    return sorted({
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in STEP_KINDS
    })


def test_only_the_engine_makes_steps():
    # the engine turns P's edges into steps; the other modules read the
    # steps' vectors
    found = {
        path.name: _step_kind_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "engine.py"
    }
    assert {name: kinds for name, kinds in found.items() if kinds} == {}


def test_step_kind_check_sees_imports():
    source = "\n".join([
        "from .engine import CounterVector, END, START",
        "from shufflecheck.engine import INNER as inner",
        "KIND = 'start_end'",
    ])
    assert _step_kind_imports(source) == ["END", "INNER", "START"]


def _direct_successors_calls(source: str) -> list:
    """Lines that call a `successors` method directly."""
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "successors"
    })


def test_walks_build_steps_through_the_step_table():
    # a walk over the vector x V-state product asks for a vector's steps
    # once per V-state; the engine's step table builds them once per walk,
    # so no other module calls successors directly
    found = {
        path.name: _direct_successors_calls(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "engine.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_successors_check_sees_calls_only():
    source = "\n".join([
        "steps = eng.step_table()",
        "for t in eng.successors(f, a):",
        "    pass",
        "ok = t in engine_for(P).successors(t.source, t.letter)",
        "method = eng.successors",
        "# eng.successors(f, a) in a comment",
        "out = successors(P, f, a)",
        "out = steps(f, a)",
    ])
    assert _direct_successors_calls(source) == [2, 4]


def _object_new_uses(sources: dict) -> list:
    """(file name, innermost function or None) of each read of
    `object.__new__`, which makes an object without its constructor.  A
    comment, a string or `super().__new__` reads nothing.  sources maps
    a file name to its text."""
    found = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "__new__"
                and isinstance(child.value, ast.Name)
                and child.value.id == "object"
            ):
                found.append((Path(path).name, function))
            visit(child, path, function)

    for path, text in sources.items():
        visit(ast.parse(text), path, None)
    return found


def test_only_intern_makes_objects_without_their_constructor():
    # interned values are made once, by automata.intern; every other
    # object, a column for one, goes through its constructor's checks
    assert _object_new_uses(_sources("src")) == [("automata.py", "intern")]


def test_object_new_check_sees_every_read():
    sources = {
        "pkg.py": "\n".join([
            "def intern(cls):",
            "    return object.__new__(cls)",
            "class A:",
            "    def make(cls):",
            "        new = object.__new__",
            "        return new(cls)",
            "    def __new__(cls):",
            "        return super().__new__(cls)",
            "B = object.__new__(A)",
            "# object.__new__(A) in a comment",
            "text = 'object.__new__(A)'",
        ]),
    }
    assert _object_new_uses(sources) == [
        ("pkg.py", "intern"), ("pkg.py", "make"), ("pkg.py", None),
    ]


def _stray_exceptions(module, base) -> list:
    """Exception classes that module defines and that do not derive from
    base; classes it imports are its source module's business."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
        and not issubclass(obj, base)
    )


def test_every_package_exception_derives_from_the_base():
    # the CLI reports a ShufflecheckError as one error line and any other
    # exception as a bug, with its traceback
    import importlib

    found = {
        path.stem: _stray_exceptions(
            importlib.import_module(f"shufflecheck.{path.stem}"),
            shufflecheck.ShufflecheckError,
        )
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: stray for name, stray in found.items() if stray} == {}


def test_exception_base_check_sees_classes_defined_in_the_module():
    import types

    module = types.ModuleType("synthetic")
    exec("\n".join([
        "from json import JSONDecodeError",
        "class Base(Exception): pass",
        "class Derived(Base): pass",
        "class Both(Base, ValueError): pass",
        "class Stray(ValueError): pass",
        "class Plain: pass",
    ]), vars(module))
    assert _stray_exceptions(module, module.Base) == ["Stray"]
    assert _stray_exceptions(module, Exception) == []


def test_benchmark_wrapped_names_resolve():
    # a traced benchmark run wraps these names on the imported package; a
    # rename or removal would break it, so shufflecheck.oracle, for one,
    # stays importable from the package
    import importlib.util

    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _count in tracing.WRAPPED]
    names += [tuple(label.split(".")) for label in tracing.ROOTS]
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(getattr(shufflecheck, module, None), attr)
    ]
    assert missing == []
    assert callable(shufflecheck.engine.ShuffleEngine.successors)


# Wrapped by the benchmark's tracer although neither decide nor replay
# calls them (ROADMAP's B9); the list goes once the tracer stops wrapping
# them.  engine.successors joined when the fragment walks moved onto
# packed vectors: no stage makes a step object on a walk.
# petri.build_np_v_full joined when Karp–Miller moved onto the deletion
# moves: the net route builds no net, which only the `petri` command and
# the tests still do.
UNCALLED_WRAPPED = {
    "engine.successors",
    "oracle.iterated_shuffle_upto",
    "oracle.one_factor_removals",
    "petri.build_np_v_full",
    "petri.reachable_markings",
    "representation.build_w_delta",
}


def test_benchmark_wrapped_names_are_called(tmp_path):
    # a wrapped name that the pipeline stopped calling, or that it calls
    # through another module's global than the wrapped one, reads 0 on
    # every workload; a traced pass of each workload must call it
    import json
    import subprocess
    import sys

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        argv = [
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", workload, "--seed", "1", "--count", "2000",
            "--trace-dir", str(tmp_path / workload),
        ]
        out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
        for labels in json.loads(out)["layers"].values():
            for label, stats in labels.items():
                calls[label] = calls.get(label, 0) + stats["calls"]
    assert {label for label, n in calls.items() if n == 0} == UNCALLED_WRAPPED
