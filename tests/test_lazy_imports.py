"""The CLI imports the market, cone and generator modules only where it runs them.

``import cadlagconvex.cli`` and the core checks leave ``finmodels``,
``polycone`` and ``generators`` unloaded; the checks that need them import
them inside the function, so ``bench/layertrace.py``, which wraps module
attributes, still sees their calls.
"""

import json
import os
import subprocess
import sys

import pytest

from cadlagconvex import cli
from cadlagconvex.presets import bundled_instance_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAZY = ("cadlagconvex.finmodels", "cadlagconvex.polycone", "cadlagconvex.generators")


def loaded_after(code: str) -> list:
    """The lazily imported modules that a fresh interpreter holds after ``code``."""
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps(sorted(m for m in {LAZY!r} if m in sys.modules)))")
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def verify(preset: str, theorem: str, *extra: str) -> str:
    return (f"from cadlagconvex import cli\n"
            f"code = cli.main(['verify', {bundled_instance_path(preset)!r}, "
            f"'--theorem', {theorem!r}, *{list(extra)!r}])\n"
            f"assert code == 0, code")


def test_importing_the_cli_loads_none_of_them():
    assert loaded_after("import cadlagconvex.cli") == []


@pytest.mark.parametrize("preset,theorem", [
    ("basic", "conjugate"), ("basic", "subdiff"), ("basic", "support-ds"),
    ("basic", "interchange-stoch"), ("deterministic", "interchange-det")])
def test_a_core_check_loads_none_of_them(preset, theorem):
    assert loaded_after(verify(preset, theorem)) == []


@pytest.mark.parametrize("preset,theorem,extra,want", [
    ("currency", "currency", (), ["cadlagconvex.finmodels", "cadlagconvex.polycone"]),
    ("cs", "cs-regularity", (), ["cadlagconvex.polycone"]),
    ("basic", "involution", ("--count", "5"), ["cadlagconvex.generators"]),
])
def test_a_check_that_needs_one_loads_it(preset, theorem, extra, want):
    assert loaded_after(verify(preset, theorem, *extra)) == want


def test_tracing_reaches_the_lazily_imported_layers(capsys):
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        from layertrace import Tracer, install_layers
    finally:
        sys.path.remove(os.path.join(ROOT, "bench"))
    tracer = Tracer()
    install_layers(tracer)
    try:
        assert cli.main(["verify", bundled_instance_path("currency"),
                         "--theorem", "currency"]) == cli.EXIT_PASS
        assert cli.main(["verify", bundled_instance_path("cs"),
                         "--theorem", "cs-regularity"]) == cli.EXIT_PASS
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.stats["finmodels.currency_model"]["calls"] == 1
    assert tracer.stats["polycone.cs_regularity_check"]["calls"] == 1
