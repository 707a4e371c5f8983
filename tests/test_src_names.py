"""Every top-level function and class in src/backsolve is used there.

Another module of src/backsolve (outside __init__), or another statement
of its own module, must name it; names perfbench's tracer resolves are
exempt. What only the tests call lives in tests/reference.py.
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


def test_every_src_definition_is_used():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    # a tracer target names a function or a class, then maybe its method
    exempt = {target.partition(":")[2].partition(".")[0] for target in TARGETS}
    assert sources
    assert unused_definitions(sources, exempt) == []


def test_check_flags_an_unused_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef dead():\n    used()\n",
        "b": "from .a import used\n\nclass Kept:\n    pass\n\nx = Kept()\n",
    }
    assert unused_definitions(sources, set()) == [("a", "dead")]
    assert unused_definitions(sources, {"dead"}) == []
