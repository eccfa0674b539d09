"""Every function in the package runs, under a command or a demo.

One fresh interpreter installs a ``sys.setprofile`` hook, then imports
``cadlagconvex``, so import-time code (decorators, class bodies) counts, and
no memo from an earlier test can stand in for work.  It runs the program's
commands in process through ``cli.main``: ``model`` and ``refine --factor 2``
of every preset, every theorem on every preset with both ``--side`` and both
``--form`` variants, one ``report-diff``, one ``--budget 1`` op and one
argument the parser refuses.  On a copy of ``basic.json`` without the
sections the loader fills in by default (``DEFAULTED``) it runs four
theorems and ``refine --factor 2``.  Then it runs the six demos.  A
function counts as run when the hook sees a call of its code: the code
object's ``co_firstlineno`` names it, which is the line of its first
decorator, or of its ``def`` when it has none.  A class counts as run when
one of its methods, dunders included, runs.  Dunders are not listed
themselves.

The hook cannot see a class without a method of its own: a ``NamedTuple``,
a plain dataclass or an exception is built by generated or C code.  Such a
class must be called, to build or to raise it, somewhere in ``src/``,
``demos/`` or ``bench/``.

The demos are listed apart because they are the program's documentation,
not its interface: a function that only a demo runs is one that no command
offers.  ``DEMO_ONLY`` and ``NEVER_RUN`` state why each such function stays.
A function added to ``src/`` that nothing runs fails the test until it has a
caller or a reason.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cadlagconvex"
DEMOS = ROOT / "demos"

DEMO_ONLY = {
    "finmodels.CurrencyModel.sample_selection":
        "demo 06 draws a selection; the reference of max_sampled_pairing, which bench wraps",
    "finmodels.ScalarProcess.constant_cells": "demo 06 builds its bid, ask and bound from cells",
    "finmodels.VectorPath": "sample_selection's selections, which demo 06 pairs with a dual",
    "finmodels.VectorPath.left_values": "vector_pairing's left limits, for demo 06's selections",
    "finmodels._band_support": "the closed form that obstacle_support and bidask_support share",
    "finmodels._band_support.rows": "one scenario's rows of that closed form",
    "finmodels._model_instance": "the hard-constraint instance of the obstacle and band models",
    "finmodels.bidask_model": "demo 06 shows the paper's bid-ask band; bidask.json holds its data",
    "finmodels.bidask_support": "demo 06 shows the paper's bid-ask closed form",
    "finmodels.left_usc_reg": "the left regularization both market models check against",
    "finmodels.obstacle_model": "demo 06 shows the paper's obstacle; obstacle.json holds its data",
    "finmodels.obstacle_support": "demo 06 shows the paper's obstacle closed form",
    "finmodels.right_lsc_slots": "bidask_model's regularity condition on the ask",
    "finmodels.right_usc_slots": "both market models' regularity condition on the bound",
    "finmodels.vector_pairing": "demo 06 pairs selections with a dual; the currency reference",
    "generators._finite_dual_atom": "one atom of rand_finite_dual",
    "generators._per_cell": "one cell-constant draw of rand_passing_instance",
    "generators.rand_finite_dual": "demo 05 draws a dual; bench set-up draws oracle duals with it",
    "generators.rand_grid": "the grid of rand_passing_instance",
    "generators.rand_passing_instance":
        "demo 05 draws an instance; bench set-up draws its instances with it",
    "generators.rand_tree": "the tree of rand_passing_instance",
    "plconvex.abs_fn": "a package export; demos 01, 02, 04 and 05 build |x| with it",
    "plconvex.restrict": "a package export; demo 05 restricts |x| to an interval with it",
    "polycone.ConeMap.constant": "demo 06 builds a constant solvency cone map",
    "polycone.PolyCone.from_generators": "demo 06 builds cones by generators, files by half-spaces",
    "polycone.PolyCone.halfspaces": "the half-spaces of a cone given by generators, as in demo 06",
    "polycone.PolyCone.orthant": "demo 06 takes the polar of an orthant",
    "polycone.PolyCone.zero": "demo 06's zero cone at the start",
    "scenario.ScenarioTree.deterministic": "demo 06's one-scenario tree",
    "scenario.paste": "demo 04 shows the paper's pasting construction; bench wraps it",
    "scenario.predictable_atoms": "demo 04 finds the atom slots that paste splices before",
    "setmaps.SetMap.constant": "demo 03 builds a constant set map",
    "timegrid.LebesgueSplit": "lebesgue_decompose's result, a package export for demo 02",
    "timegrid.LebesgueSplit.recombine": "demo 02 shows that the Lebesgue split is exact",
    "timegrid.lebesgue_decompose": "a package export; demo 02 shows the paper's Lebesgue split",
}

NEVER_RUN = {
    "generators.rand_feasible_path": "bench set-up draws calculus paths with it",
}


FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _first_line(node) -> int:
    return (node.decorator_list or [node])[0].lineno


def definitions(path: Path) -> dict:
    """``{qualified name: first lines}`` of each function defined in the
    file, nested ones and methods included, dunders left out, and of each
    class with a method: its lines are those of its methods, dunders
    included, so it counts as run when one of them runs."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTION, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.ClassDef):
                    lines = {_first_line(c) for c in child.body if isinstance(c, FUNCTION)}
                    if lines:
                        found[name] = lines
                elif not (child.name.startswith("__") and child.name.endswith("__")):
                    found[name] = {_first_line(child)}
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def profiled(run) -> set:
    """``run()`` under a profile hook: the ``(file, first line)`` of every
    Python function it called."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def run_names(paths, seen) -> set:
    """The qualified names, as ``module.name``, of the functions and classes
    in ``paths`` that ``seen`` holds a line of."""
    real = {(os.path.realpath(file), line) for file, line in seen}
    return {f"{path.stem}.{name}" for path in paths
            for name, lines in definitions(path).items()
            if any((os.path.realpath(path), line) in real for line in lines)}


def all_names(paths) -> set:
    return {f"{path.stem}.{name}" for path in paths for name in definitions(path)}


def unbuilt_classes(paths, callers) -> set:
    """The classes in ``paths``, as ``module.name``, that have no method and
    whose name no call in the files ``callers`` makes."""
    called = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return {f"{path.stem}.{node.name}" for path in paths
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ClassDef) and node.name not in called
            and not any(isinstance(c, FUNCTION) for c in node.body)}


DEFAULTED = ("mutilde", "integrand_htilde", "setmap_S", "setmap_Stilde")


def _without_defaulted(source, target):
    """Write ``source`` without the sections in ``DEFAULTED`` to ``target``."""
    with open(source, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in doc.items() if k not in DEFAULTED}, fh)


def _commands():
    from cadlagconvex.cli import THEOREMS
    from cadlagconvex.presets import PRESET_NAMES
    variants = {"interchange-det": (("--side", "cadlag"), ("--side", "caglad")),
                "interchange-stoch": (("--form", "F"), ("--form", "Fhat"))}
    for name in PRESET_NAMES:
        yield "model", name, "-o", f"{name}.json"
        yield "refine", f"{name}.json", "--factor", "2", "-o", f"{name}-x2.json"
    for name in PRESET_NAMES:
        for theorem in THEOREMS:
            for variant in variants.get(theorem, ((),)):
                yield ("verify", f"{name}.json", "--theorem", theorem, *variant,
                       "--report", f"{name}-{theorem}.json")
    yield "report-diff", "basic-conjugate.json", "basic-support-ds.json"
    _without_defaulted("basic.json", "defaulted.json")  # written by the first commands
    for theorem in ("conjugate", "support-ds", "subdiff", "interchange-stoch"):
        yield "verify", "defaulted.json", "--theorem", theorem
    yield "refine", "defaulted.json", "--factor", "2", "-o", "defaulted-x2.json"
    yield "verify", "basic.json", "--theorem", "conjugate", "--budget", "1"
    yield "verify", "basic.json", "--theorem", "no-such-theorem"


def _run_commands():
    from cadlagconvex import cli
    for argv in _commands():
        try:
            cli.main(list(argv))
        except ValueError as exc:  # as the preset-cli golden records
            if str(exc) != "deterministic interchange needs a single scenario":
                raise


def _run_demos():
    for demo in sorted(DEMOS.glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def main():
    """Print the functions only demos run, and those nothing runs, as JSON."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        by_commands = profiled(_run_commands)
        by_demos = profiled(_run_demos)
    paths = sorted(PACKAGE.glob("*.py"))
    commands, demos = run_names(paths, by_commands), run_names(paths, by_demos)
    print(json.dumps({"demo_only": sorted(demos - commands),
                      "never_run": sorted(all_names(paths) - commands - demos)}))


def test_what_runs_only_in_demos_or_never_is_listed_with_a_reason(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, __file__], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["demo_only"] == sorted(DEMO_ONLY)
    assert found["never_run"] == sorted(NEVER_RUN)
    for reason in (*DEMO_ONLY.values(), *NEVER_RUN.values()):
        assert reason.strip() and "\n" not in reason


def test_every_class_without_a_method_is_built_or_raised():
    callers = [path for top in ("src", "demos", "bench") for path in (ROOT / top).rglob("*.py")]
    assert unbuilt_classes(sorted(PACKAGE.glob("*.py")), callers) == set()


SYNTHETIC = '''\
import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@deco
@deco
def decorated_run():
    return 1


@deco
def decorated_idle():
    return 2


class Box:
    @functools.cached_property
    def lazy_run(self):
        return 1

    @functools.cached_property
    def lazy_idle(self):
        return 2

    def __len__(self):
        return 0


def outer():
    def nested_run():
        return 1

    def nested_idle():
        return 2

    return nested_run()


def gen_run():
    yield 1


def gen_idle():
    yield 2


class Held:
    def __init__(self):
        self.value = 1


class Idle:
    def __init__(self):
        self.value = 2


class Raised(Exception):
    pass


class Unraised(Exception):
    pass


def raise_it():
    raise Raised()
'''


def test_the_collector_counts_decorated_cached_nested_and_generator_functions_and_classes(
        tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)

    def run():
        ns = runpy.run_path(str(path))
        ns["decorated_run"]()
        ns["Box"]().lazy_run
        ns["outer"]()
        list(ns["gen_run"]())
        ns["Held"]()

    seen = profiled(run)
    assert run_names([path], seen) == {
        "synthetic.deco", "synthetic.deco.wrapper", "synthetic.decorated_run",
        "synthetic.Box", "synthetic.Box.lazy_run", "synthetic.outer",
        "synthetic.outer.nested_run", "synthetic.gen_run", "synthetic.Held"}
    assert all_names([path]) - run_names([path], seen) == {
        "synthetic.decorated_idle", "synthetic.Box.lazy_idle",
        "synthetic.outer.nested_idle", "synthetic.gen_idle", "synthetic.Idle",
        "synthetic.raise_it"}
    assert unbuilt_classes([path], [path]) == {"synthetic.Unraised"}


if __name__ == "__main__":
    main()
