"""Per-layer tracing of cadlagconvex from the outside.

The tracer replaces public functions and methods of the package's modules
with timing wrappers, and puts the originals back on ``uninstall``.  Nothing
inside ``src/`` knows about it.

* Each wrapped call is a span.  A span's self time is its duration minus the
  durations of the wrapped calls made directly inside it, so the self times
  of one op add up to the op's wall time.
* Spans of entry-point layers are kept in memory with their parent span and
  the op id; hot leaves such as ``PLConvex.eval`` are only aggregated into
  calls and time.
* ``distinct`` counts distinct receiver objects (the first argument) by
  ``id()`` within one op, holding a reference so an id cannot be reused;
  ``distinct / calls`` is the share of calls a cache keyed on the receiver
  could not save.
* Bookkeeping that calls back into the package (the lattice-size probe of
  ``conj_bruteforce``) and byte counting run with tracing paused and their
  time removed from every open span.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._excluded = 0.0
        self._paused = False
        self._stack: List[list] = []  # [start, child_time, id of nearest kept span]
        self._seen: Dict[str, dict] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._next_span = 0
        self.op_id: Optional[int] = None
        self.stats: Dict[str, Dict[str, float]] = {}
        # (span_id, parent_id, op_id, name, start, end)
        self.spans: List[Tuple[int, Optional[int], Optional[int], str, float, float]] = []

    # -- time ------------------------------------------------------------------

    def now(self) -> float:
        """Clock reading with all untimed bookkeeping subtracted."""
        return self._clock() - self._excluded

    def untimed(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` with tracing paused; its time counts in no span."""
        was_paused, self._paused = self._paused, True
        t0 = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._excluded += self._clock() - t0
            self._paused = was_paused

    # -- scoping ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        """Release the objects held for ``distinct``; ids are per op."""
        self.op_id = None
        self._seen.clear()

    def reset(self) -> None:
        self.stats.clear()
        self.spans.clear()
        self._seen.clear()

    def add(self, name: str, key: str, value: float) -> None:
        st = self.stats.setdefault(name, {})
        st[key] = st.get(key, 0) + value

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, *, span: bool = True,
             distinct: bool = False,
             probe: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Timing wrapper around ``fn`` that accounts to ``name``.

        ``probe(tracer, fn, args, kwargs)`` runs before the call and
        ``after(tracer, args, kwargs, result)`` after it, both untimed.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if probe is not None:
                tracer.untimed(probe, tracer, fn, args, kwargs)
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
            else:  # children of a leaf hang under the nearest kept span
                span_id = tracer._stack[-1][2] if tracer._stack else None
            frame = [tracer.now(), 0.0, span_id]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.now()
                tracer._stack.pop()
                dur = end - frame[0]
                st = tracer.stats.setdefault(name, {})
                st["calls"] = st.get("calls", 0) + 1
                st["self_s"] = st.get("self_s", 0.0) + dur - frame[1]
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[1] += dur
                if span:
                    tracer.spans.append((span_id, parent[2] if parent else None,
                                         tracer.op_id, name, frame[0], end))
                if distinct and args:
                    seen = tracer._seen.setdefault(name, {})
                    if id(args[0]) not in seen:
                        seen[id(args[0])] = args[0]
                        st["distinct"] = st.get("distinct", 0) + 1
            if after is not None:
                tracer.untimed(after, tracer, args, kwargs, result)
            return result

        return traced

    def install(self, owner: object, attr: str, name: str, **opts) -> None:
        """Wrap ``owner.attr`` and every alias of it in the package.

        Aliases are names bound to the same function object: ``from .x import
        f`` copies in other modules and class-level aliases such as
        ``__call__ = eval``.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = self.wrap(name, orig, **opts)
        homes = [owner] + [m for n, m in list(sys.modules.items())
                           if m is not None and n.split(".")[0] == "cadlagconvex"]
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is orig:
                    self._patches.append((home, key, orig))
                    setattr(home, key, wrapped)

    def uninstall(self) -> None:
        for home, key, orig in reversed(self._patches):
            setattr(home, key, orig)
        self._patches.clear()


# -- the package's layers ------------------------------------------------------

def _lattice_probe(tracer: Tracer, fn, args, kwargs) -> None:
    """Lattice points the search will visit, read from a zero-budget call."""
    from cadlagconvex.duality import BudgetExceededError
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.arguments["budget"] = 0
    try:
        fn(*bound.args, **bound.kwargs)
        needed = 0
    except BudgetExceededError as exc:
        needed = exc.needed
    tracer.add("duality.conj_bruteforce", "lattice_points", needed)


def _bytes_read(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("serialize.load_instance", "bytes_read", os.path.getsize(args[0]))


def _report_bytes(tracer: Tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path:
        tracer.add("serialize.dump_report", "bytes_written", len(result.encode("utf-8")))


def _instance_bytes(tracer: Tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("serialize.dump_instance", "bytes_written", os.path.getsize(path))


def layer_targets():
    """(owner, attribute, metric name, options) for every traced call."""
    from cadlagconvex import (cli, duality, finmodels, generators, plconvex,
                              polycone, scenario, serialize, setmaps, timegrid)
    leaf = {"span": False}
    targets = [
        (duality, "conj_bruteforce", "duality.conj_bruteforce", {"probe": _lattice_probe}),
        (duality.Instance, "refine", "duality.Instance.refine", {"distinct": True}),
        (plconvex.PLConvex, "eval", "plconvex.PLConvex.eval", leaf),
        (plconvex.PLConvex, "conjugate", "plconvex.PLConvex.conjugate",
         {"span": False, "distinct": True}),
        (plconvex.PLConvex, "inf_over", "plconvex.PLConvex.inf_over", leaf),
        (timegrid, "eval_I", "timegrid.eval_I", leaf),
        (timegrid, "eval_J", "timegrid.eval_J", leaf),
        (setmaps.SetMap, "refine", "setmaps.SetMap.refine", leaf),
        (polycone.PolyCone, "polar", "polycone.PolyCone.polar", leaf),
        (finmodels.CurrencyModel, "sample_selection",
         "finmodels.CurrencyModel.sample_selection", leaf),
        (finmodels.CurrencyModel, "is_member", "finmodels.CurrencyModel.is_member", leaf),
        (serialize, "load_instance", "serialize.load_instance", {"after": _bytes_read}),
        (serialize, "dump_report", "serialize.dump_report", {"after": _report_bytes}),
        (serialize, "dump_instance", "serialize.dump_instance", {"after": _instance_bytes}),
        (cli, "main", "cli.main", {}),
    ]
    for fn in ("assumption_report", "conj_pointwise", "support_DS",
               "subdiff_check", "interchange_stoch", "interchange_det"):
        targets.append((duality, fn, f"duality.{fn}", {}))
    for cls in (timegrid.TimeGrid, timegrid.StepPath, timegrid.GridMeasure):
        targets.append((cls, "refine", "timegrid.refine", leaf))
    for cls in (scenario.ScenarioTree, scenario.RandomPath, scenario.RandomMeasure,
                scenario.RandomSetMap, scenario.RandomIntegrand):
        targets.append((cls, "refine", "scenario.refine", leaf))
    for fn in ("minorant_certificate", "paste", "jensen_check"):
        targets.append((scenario, fn, f"scenario.{fn}", {}))
    for fn in ("michael_check", "projection_selection"):
        targets.append((setmaps, fn, f"setmaps.{fn}", {}))
    targets.append((polycone, "cs_regularity_check", "polycone.cs_regularity_check", {}))
    targets.append((finmodels, "currency_model", "finmodels.currency_model", {}))
    for fn in ("rand_passing_instance", "rand_finite_dual", "rand_feasible_path"):
        targets.append((generators, fn, f"generators.{fn}", {}))
    return targets


def install_layers(tracer: Tracer) -> None:
    for owner, attr, name, opts in layer_targets():
        tracer.install(owner, attr, name, **opts)


# Reported per-layer metrics: (metric, stat name, stat key, unit).
LAYER_METRICS = [
    ("duality.conj_bruteforce.calls", "duality.conj_bruteforce", "calls", "count"),
    ("duality.conj_bruteforce.self_s", "duality.conj_bruteforce", "self_s", "s"),
    ("duality.conj_bruteforce.lattice_points", "duality.conj_bruteforce", "lattice_points", "count"),
    ("duality.Instance.refine.calls", "duality.Instance.refine", "calls", "count"),
    ("duality.Instance.refine.distinct", "duality.Instance.refine", "distinct", "count"),
    ("duality.Instance.refine.self_s", "duality.Instance.refine", "self_s", "s"),
    ("duality.assumption_report.calls", "duality.assumption_report", "calls", "count"),
    ("duality.assumption_report.self_s", "duality.assumption_report", "self_s", "s"),
    ("duality.conj_pointwise.self_s", "duality.conj_pointwise", "self_s", "s"),
    ("duality.support_DS.self_s", "duality.support_DS", "self_s", "s"),
    ("duality.subdiff_check.self_s", "duality.subdiff_check", "self_s", "s"),
    ("duality.interchange_stoch.self_s", "duality.interchange_stoch", "self_s", "s"),
    ("duality.interchange_det.self_s", "duality.interchange_det", "self_s", "s"),
    ("plconvex.PLConvex.eval.calls", "plconvex.PLConvex.eval", "calls", "count"),
    ("plconvex.PLConvex.eval.self_s", "plconvex.PLConvex.eval", "self_s", "s"),
    ("plconvex.PLConvex.conjugate.calls", "plconvex.PLConvex.conjugate", "calls", "count"),
    ("plconvex.PLConvex.conjugate.distinct", "plconvex.PLConvex.conjugate", "distinct", "count"),
    ("plconvex.PLConvex.conjugate.self_s", "plconvex.PLConvex.conjugate", "self_s", "s"),
    ("plconvex.PLConvex.inf_over.calls", "plconvex.PLConvex.inf_over", "calls", "count"),
    ("plconvex.PLConvex.inf_over.self_s", "plconvex.PLConvex.inf_over", "self_s", "s"),
    ("timegrid.refine.self_s", "timegrid.refine", "self_s", "s"),
    ("timegrid.eval_I.self_s", "timegrid.eval_I", "self_s", "s"),
    ("timegrid.eval_J.self_s", "timegrid.eval_J", "self_s", "s"),
    ("scenario.refine.self_s", "scenario.refine", "self_s", "s"),
    ("scenario.minorant_certificate.self_s", "scenario.minorant_certificate", "self_s", "s"),
    ("scenario.paste.self_s", "scenario.paste", "self_s", "s"),
    ("scenario.jensen_check.self_s", "scenario.jensen_check", "self_s", "s"),
    ("setmaps.SetMap.refine.self_s", "setmaps.SetMap.refine", "self_s", "s"),
    ("setmaps.michael_check.self_s", "setmaps.michael_check", "self_s", "s"),
    ("setmaps.projection_selection.self_s", "setmaps.projection_selection", "self_s", "s"),
    ("polycone.cs_regularity_check.self_s", "polycone.cs_regularity_check", "self_s", "s"),
    ("polycone.PolyCone.polar.calls", "polycone.PolyCone.polar", "calls", "count"),
    ("polycone.PolyCone.polar.self_s", "polycone.PolyCone.polar", "self_s", "s"),
    ("finmodels.currency_model.self_s", "finmodels.currency_model", "self_s", "s"),
    ("finmodels.CurrencyModel.sample_selection.calls",
     "finmodels.CurrencyModel.sample_selection", "calls", "count"),
    ("finmodels.CurrencyModel.sample_selection.self_s",
     "finmodels.CurrencyModel.sample_selection", "self_s", "s"),
    ("finmodels.CurrencyModel.is_member.calls", "finmodels.CurrencyModel.is_member", "calls", "count"),
    ("finmodels.CurrencyModel.is_member.self_s", "finmodels.CurrencyModel.is_member", "self_s", "s"),
    ("serialize.load_instance.calls", "serialize.load_instance", "calls", "count"),
    ("serialize.load_instance.self_s", "serialize.load_instance", "self_s", "s"),
    ("serialize.load_instance.bytes_read", "serialize.load_instance", "bytes_read", "B"),
    ("serialize.dump_report.self_s", "serialize.dump_report", "self_s", "s"),
    ("serialize.dump_report.bytes_written", "serialize.dump_report", "bytes_written", "B"),
    ("serialize.dump_instance.self_s", "serialize.dump_instance", "self_s", "s"),
    ("serialize.dump_instance.bytes_written", "serialize.dump_instance", "bytes_written", "B"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]

# Measured during set-up, not during ops.
SETUP_METRICS = [
    ("generators.rand_passing_instance.self_s", "generators.rand_passing_instance", "self_s", "s"),
    ("generators.rand_finite_dual.self_s", "generators.rand_finite_dual", "self_s", "s"),
    ("generators.rand_feasible_path.self_s", "generators.rand_feasible_path", "self_s", "s"),
]


def read_metrics(stats: Dict[str, Dict[str, float]], table) -> Dict[str, float]:
    return {metric: stats.get(name, {}).get(key, 0.0 if unit == "s" else 0)
            for metric, name, key, unit in table}
