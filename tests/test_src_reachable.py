"""Every function and class in the package has a use outside its definition.

A name defined in ``src/cadlagconvex`` must occur at least twice in the
Python text of ``src/``, ``demos/`` and ``bench/``: once where it is defined
and at least once where a command, demo or bench workload reaches it.  Code
that only the tests call belongs in the tests or nowhere.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cadlagconvex"

# slow references the tests compare the fast code against, and the random
# set-map generator several test modules share
TEST_ONLY = {"member_v", "pointed_direct", "rand_setmap"}


def _defined_names():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.name, node.name


def test_every_definition_is_used_outside_the_tests():
    counts = Counter()
    for top in ("src", "demos", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            counts.update(re.findall(r"\w+", path.read_text()))
    unused = sorted(f"{module}: {name}" for module, name in _defined_names()
                    if name not in TEST_ONLY and counts[name] < 2)
    assert unused == []
