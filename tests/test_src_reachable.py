"""Every function and class in the package has a use outside its definition.

A name defined in ``src/cadlagconvex`` must be referenced in the code of
``src/``, ``demos/`` or ``bench/``: where a command, demo or bench workload
reaches it.  A reference is a name, an attribute, an imported name, or a
string constant that is one identifier, since ``bench/layertrace.py`` names
its targets as ``(owner, "attr")``.  A mention in a docstring or a comment
is not a reference.  A method is matched by its name only, so it counts as
used when another class's method of that name is.  Code that only the tests
call belongs in the tests or nowhere.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cadlagconvex"


def _defined_names():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.name, node.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_definition_is_used_outside_the_tests():
    counts = Counter()
    for top in ("src", "demos", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            counts.update(_references(ast.parse(path.read_text(), str(path))))
    unused = sorted(f"{module}: {name}" for module, name in _defined_names()
                    if not counts[name])
    assert unused == []


def test_a_docstring_mention_is_not_a_reference():
    tree = ast.parse('def f():\n    """Calls g(x) and h."""\n    return k.attr, "name"\n'
                     'from m import a as b\n')
    assert sorted(_references(tree)) == ["a", "attr", "k", "name"]
