"""Bundled sample instances: generic duality problems and market presets.

The JSON files in ``instances/`` are the only copy of the presets; edit a
preset in its file; ``serialize.load_instance`` reads and validates it.
Every preset lives on the grid ``(0, 1, 2)``; "two-scenario" is the tree
``up``/``dn`` with probability 1/2 each, told apart from slot 1 on, and
"deterministic" is the one-scenario tree ``w``.  A cone map is written
``(point cones | cell cones)``.

* ``basic``: two-scenario; ``h`` is ``|x|`` on ``[-2, 2]`` with a shifted
  kink per scenario in slot 1, ``mu``/``mutilde`` atoms, a predictable
  ``htilde``, two duals and two paths.
* ``deterministic``: ``h`` is ``|x|`` on ``[1, 2]`` in every slot, ``mu``
  atoms ``(1, 1, 1)``, one dual and one path.
* ``michael-violation``: deterministic; ``h`` is ``-x`` on ``[0, 2]``, and
  ``S`` has point values ``[0, 2]`` but cell values ``([0, 2], [0, 1])``, so
  the point value at ``t = 1`` escapes the following cell value.
* ``obstacle``: two-scenario; ``finmodels.obstacle_model(b, ycheck)`` with the
  optional bound ``b`` (points ``up (1, 3, 2)``, ``dn (1, 0, 0)``, cells
  ``up (1, 3)``, ``dn (1, 0)``) and ``ycheck = 4``; the model section holds
  ``b`` and ``ycheck``.
* ``bidask``: two-scenario; ``finmodels.bidask_model(b, a, ybar)`` with bid
  points ``up (0, 1, 1)``, ``dn (0, 1/2, 0)``, cells ``up (0, 1)``,
  ``dn (0, 1/2)``, ask points ``up (2, 3, 3)``, ``dn (2, 5/2, 3)``, cells
  ``up (2, 3)``, ``dn (2, 5/2)``, and ``ybar = (1, 2, 2)``.
* ``currency``: deterministic, free ``h`` and zero ``mu``; the solvency cone
  map for ``finmodels.currency_model`` is ``(W, T, T | W, T)`` with ``W`` the
  polar of ``cone{(1, 0), (0, 1)}`` and ``T`` the polar of
  ``cone{(2, -1), (-1, 2)}``, plus three dual pairs.
* ``cs``: deterministic, free ``h`` and zero ``mu``; ``G = (K0, K1, K1 | K0,
  K1)`` and ``Gtilde = (0, K0, K1 | K0, K1)`` with ``K0 = cone{(1, 1/2),
  (1/2, 1)}`` and ``K1 = cone{(1, 1/4), (1/4, 1)}``.
"""

from __future__ import annotations

import os

PRESET_NAMES = ("basic", "deterministic", "michael-violation", "obstacle",
                "bidask", "currency", "cs")


def bundled_instance_path(name: str) -> str:
    """Filesystem path of a bundled instance file shipped with the package."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return os.path.join(os.path.dirname(__file__), "instances", f"{name}.json")
