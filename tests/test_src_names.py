"""Every top-level function and class in src/backsolve is used there, and
so is every method and property of its classes, every module-level import
and every local a function assigns.

Another module of src/backsolve (outside __init__), or another statement
of its own module, must name a definition; some module must read a member
as an attribute. Names perfbench's tracer resolves are exempt. What only
the tests call lives in tests/reference.py.
"""

import ast
from pathlib import Path

from test_trace_targets import TARGETS

SRC = Path(__file__).resolve().parents[1] / "src" / "backsolve"


def _names_in(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unused_definitions(sources, exempt):
    """(module, name) of each top-level def or class no other code names.

    sources maps a module name to its source text. An import is not a use.
    """
    statements = [
        (module, node, _names_in(node))
        for module, text in sources.items()
        for node in ast.parse(text).body
    ]
    unused = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        others = (names for _, other, names in statements if other is not node)
        if node.name not in exempt and not any(node.name in names for names in others):
            unused.append((module, node.name))
    return unused


def unused_members(sources, exempt):
    """(module, "Class.member") of each non-dunder method or property of a
    top-level class that no module reads as an attribute.

    Dataclass fields are not members here; exempt holds "Class.member" names.
    """
    read = {
        node.attr
        for text in sources.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unused = []
    for module, text in sources.items():
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                name = f"{cls.name}.{node.name}"
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in read and name not in exempt:
                    unused.append((module, name))
    return unused


def unused_imports(sources, exempt):
    """(module, name) of each name a module-level import binds that no other
    statement of that module reads.

    exempt holds (module, name) pairs; __future__ imports bind no name.
    """
    unused = []
    for module, text in sources.items():
        body = ast.parse(text).body
        imports = [s for s in body if isinstance(s, (ast.Import, ast.ImportFrom))]
        read = {
            node.id
            for statement in body
            if statement not in imports
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for statement in imports:
            if getattr(statement, "module", None) == "__future__":
                continue
            for alias in statement.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and (module, name) not in exempt:
                    unused.append((module, name))
    return unused


def dead_locals(sources):
    """(module, function, name) of each name a function assigns and never
    reads.

    A function's nested functions and comprehensions are part of it, so a
    closure's read of an outer local counts. An augmented assignment reads
    its target; _ is exempt.
    """
    dead = []
    for module, text in sources.items():
        for func in ast.walk(ast.parse(text)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, read = {}, {"_"}
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, None)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.AugAssign):
                    read.add(getattr(node.target, "id", None))
            dead += [(module, func.name, name) for name in stored if name not in read]
    return dead


def _src_sources():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert sources
    return sources


# a tracer target names a function or a class, then maybe its method
QUALNAMES = {target.partition(":")[2] for target in TARGETS}


def test_every_src_definition_is_used():
    exempt = {qualname.partition(".")[0] for qualname in QUALNAMES}
    assert unused_definitions(_src_sources(), exempt) == []


def test_every_src_class_member_is_read():
    assert unused_members(_src_sources(), QUALNAMES) == []


def test_every_src_import_is_read():
    # a tracer target may be imported only for the tracer to wrap it there
    exempt = {
        (module.rpartition(".")[2], qualname.partition(".")[0])
        for module, _, qualname in (target.partition(":") for target in TARGETS)
    }
    assert unused_imports(_src_sources(), exempt) == []


def test_no_src_function_has_a_dead_local():
    assert dead_locals(_src_sources()) == []


def test_check_flags_an_unused_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef dead():\n    used()\n",
        "b": "from .a import used\n\nclass Kept:\n    pass\n\nx = Kept()\n",
    }
    assert unused_definitions(sources, set()) == [("a", "dead")]
    assert unused_definitions(sources, {"dead"}) == []


_MEMBER_CASE = """
from dataclasses import dataclass


@dataclass
class Mesh:
    points: list

    def __post_init__(self):
        self.size = len(self.points)

    @property
    def first(self):
        return self.points[0]

    @property
    def last(self):
        return self.points[-1]

    def scaled(self, c):
        return [c * p for p in self.points]
"""


def test_check_flags_an_unread_member():
    sources = {"a": _MEMBER_CASE, "b": "def start(mesh):\n    return mesh.first\n"}
    # points is a field and size is only stored: neither is a member here
    assert unused_members(sources, set()) == [("a", "Mesh.last"), ("a", "Mesh.scaled")]
    assert unused_members(sources, {"Mesh.last", "Mesh.scaled"}) == []


def test_check_flags_an_unread_import():
    sources = {
        "a": (
            "from __future__ import annotations\n\nimport os\nimport numpy as np\n"
            "import scipy.sparse\nfrom .b import used, stale\n\n"
            "def f(n: int):\n    return np.zeros(used(n)), scipy.sparse\n"
        ),
        "b": "def used(n):\n    return n\n\nos = None\nstale = os\n",
    }
    # a read in another module (b's os and stale) does not count
    assert unused_imports(sources, set()) == [("a", "os"), ("a", "stale")]
    assert unused_imports(sources, {("a", "os"), ("a", "stale")}) == []


def test_check_flags_a_dead_local():
    source = (
        "def f(space, rows):\n"
        "    mass, stale = space[0], space[4]\n"
        "    def shift(row):\n"
        "        row -= mass\n"
        "    for _, row in rows:\n"
        "        shift(row)\n"
    )
    # row is read by its augmented assignment, mass by the closure
    assert dead_locals({"a": source}) == [("a", "f", "stale")]
    assert dead_locals({"a": source.replace("stale", "_")}) == []
