"""JSON instance files and verification reports.

All numerics are rational strings ('p/q', with 'inf'/'-inf' sentinels), so a
file round-trips exactly.  Malformed documents raise :class:`SchemaError`.
Where the schema has a list (a grid, atoms, breakpoints, an interval's two
ends, a set map's intervals, a scenario's functions, a cone map's cones, a
cone row), the document must hold a JSON array: a string or an object there
is refused, not read by its characters or keys.  Where it has an object, the
document must hold one, and a section keyed by scenario id must name every
scenario of the tree.  A JSON boolean is no rational, and an ``obstacle`` or
``bidask`` model section must describe the file's ``setmap_S``
(:func:`finmodels.band_setmap`).

Every instance file and report is written as ASCII only, indented by 2
spaces, with sorted keys and a trailing newline: exactly
``json.dumps(value, indent=2, sort_keys=True) + "\\n"``.  The text comes
from :func:`_indented`, which writes those bytes on every Python version:
before 3.13 ``json`` indents through a pure-Python encoder, and on 3.11
``_indented`` takes less than half its time.

The model-section readers import ``finmodels`` and ``polycone`` themselves,
so a file without a model section loads neither: an ``obstacle``, ``bidask``
or ``currency`` section loads ``finmodels`` (which imports ``polycone``), a
``cs`` section ``polycone`` alone.  The writers only read attributes of the
objects they are given and import nothing.

A document repeats few distinct strings many times (the same knots, slopes,
probabilities and interval ends), so :func:`instance_doc_from_json` parses
each distinct string once: it opens a memo from string to ``Fraction`` that
``_rat``, the one reader of document rationals, consults, and drops it when
it returns or raises.  The memo lives in a context variable, so it belongs to
that one call and its thread; a reader called on its own parses every string
afresh.  A bad string raises on first sight, exactly as without the memo, and
is never stored.

The same memo maps each distinct function, interval or cone document, keyed
by the ``repr`` of its parts, to one ``PLConvex``, ``RInterval`` or
``PolyCone``, so the scenarios of a cell share one function object and the
conjugate it builds once, and the slots of a set-valued or cone map share
their repeated values.  Parts that differ in JSON type alone (``1`` and
``"1"``) give two equal objects; one that fails raises at each sight, unstored.

Python code that loads one file several times in one process, as by calling
``cli.main(["verify", path, ...])`` once per theorem, parses it once:
:func:`load_instance` keeps one slot, a ``functools.lru_cache(maxsize=1)``
keyed by the text of the last file that parsed completely and holding its
:class:`InstanceDoc`.  A file whose text equals it, at any path, gets that
same document back without being parsed; any other text is parsed and
replaces the slot.  The key is the text, not the path or its
modification time, so an edited file is always parsed again.  The shared
document is read-only by convention (:class:`InstanceDoc`), and it keeps the
memos its objects built (conjugates, refinements), so later checks on the
file reuse them.  Each ``cadlag-convex`` command is a new process whose slot
starts empty, so it gains nothing.  A file that fails to read or parse raises
as before and leaves the slot as it was.
"""

from __future__ import annotations

import json
import os
import stat
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence

from .duality import DualPair, Instance, make_instance
from .plconvex import PLConvex, RInterval, pl
from .rationals import MAX_EXPONENT, Ext, ext, fmt, is_finite, rat
from .scenario import (RandomIntegrand, RandomMeasure, RandomPath,
                       RandomSetMap, ScenarioTree)
from .setmaps import SetMap
from .timegrid import GridMeasure, StepPath, TimeGrid

if TYPE_CHECKING:  # for the annotations only; the readers import these themselves
    from .finmodels import ScalarProcess, VectorMeasure
    from .polycone import ConeMap, PolyCone


class SchemaError(ValueError):
    """The document does not match the instance file schema."""


def _need(doc: dict, key: str):
    if not isinstance(doc, dict):
        raise TypeError(f"expected an object, not {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    return doc[key]


def _list(doc, what: str) -> list:
    if type(doc) is not list:
        raise SchemaError(f"{what} must be a list")
    return doc


def _wrap(what: str):
    def deco(fn):
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except SchemaError:
                raise
            except (ValueError, TypeError, KeyError, AttributeError,
                    ZeroDivisionError) as exc:
                raise SchemaError(f"bad {what}: {exc}") from exc
        return inner
    return deco


# -- scalars and intervals ----------------------------------------------------

# string -> Fraction, (class, repr of the parts) -> RInterval, PLConvex or PolyCone;
# set only while instance_doc_from_json runs
_PARSED: ContextVar[Optional[Dict[object, object]]] = ContextVar("_PARSED", default=None)


def _rat(value, conv=None) -> Ext:
    """``conv(value)``, ``conv`` being :func:`rat` (the default, looked up at
    each call) or :func:`ext`, through the memo of the document being read, if
    any.  A JSON boolean is refused (``rat(True)`` is 1); only a finite value
    is stored, so ``"inf"`` read by :func:`ext` stays an error for :func:`rat`."""
    parsed = _PARSED.get()
    if parsed is None or type(value) is not str:
        if type(value) is bool:
            raise TypeError(f"not a rational: {value}")
        return (conv or rat)(value)
    q = parsed.get(value)
    if q is None:
        q = (conv or rat)(value)
        if is_finite(q):
            parsed[value] = q
    return q


def _array(doc):
    """``doc``, where the document must hold a list.

    A string or an object there would be read by its characters or keys
    (``"012"`` as the grid 0, 1, 2), so any iterable but a list raises.
    A value that cannot be iterated at all is returned, to fail where it is
    used with the message it always gave."""
    if type(doc) is not list and hasattr(doc, "__iter__"):
        raise TypeError(f"expected a list, not {type(doc).__name__}")
    return doc


def _per_scenario(doc, tree: ScenarioTree) -> Iterator[tuple]:
    """``(s, doc[s])`` for each scenario ``s`` of ``tree``, in order, where
    ``doc`` must be an object that holds every scenario id."""
    if not isinstance(doc, dict):
        raise TypeError(f"expected an object keyed by scenario id, not {type(doc).__name__}")
    for s in tree.scenarios:
        if s not in doc:
            raise ValueError(f"scenario {s!r} missing")
        yield s, doc[s]


def _rats(values) -> List[Fraction]:
    """``[_rat(v) for v in values]`` for a list ``values`` (see :func:`_array`)."""
    return [_rat(v) for v in _array(values)]


def interval_to_json(iv: RInterval) -> List[str]:
    return [fmt(iv.lo), fmt(iv.hi)]


@_wrap("interval")
def interval_from_json(doc) -> RInterval:
    lo, hi = _array(doc)
    return _shared(RInterval, [lo, hi], lambda: RInterval(_rat(lo, ext), _rat(hi, ext)))


# -- piecewise-linear functions ------------------------------------------------

def plconvex_to_json(fn: PLConvex) -> dict:
    return {
        "dom": [fmt(fn.dom_lo), fmt(fn.dom_hi)],
        "breakpoints": [fmt(b) for b in fn.breakpoints],
        "slopes": [fmt(s) for s in fn.slopes],
        "anchor": [fmt(fn.anchor_x), fmt(fn.anchor_val)],
    }


@_wrap("piecewise-linear function")
def plconvex_from_json(doc: dict) -> PLConvex:
    lo, hi = _array(_need(doc, "dom"))
    ax, av = _array(_need(doc, "anchor"))
    return _shared(PLConvex, [lo, hi, ax, av, doc.get("breakpoints"), doc.get("slopes")],
                   lambda: pl(_rat(lo, ext), _rat(hi, ext), _rats(_need(doc, "breakpoints")),
                              _rats(_need(doc, "slopes")), _rat(ax), _rat(av)))


def _shared(kind: type, parts: list, build):
    """build(), made once per ``kind`` and ``repr(parts)`` in the document
    being read, and afresh when there is no memo.  The ``repr`` of JSON data
    tells ``"1"``, ``1``, ``1.0`` and ``true`` apart, so only parts equal in
    value and JSON type share an object; a build that raises stores nothing."""
    parsed = _PARSED.get()
    if parsed is None:
        return build()
    key = (kind, repr(parts))
    obj = parsed.get(key)
    if obj is None:
        obj = parsed[key] = build()
    return obj


# -- grid-level objects ---------------------------------------------------------

def grid_to_json(grid: TimeGrid) -> List[str]:
    return [fmt(t) for t in grid.times]


@_wrap("grid")
def grid_from_json(doc) -> TimeGrid:
    return TimeGrid(tuple(_rats(doc)))


def tree_to_json(tree: ScenarioTree) -> dict:
    return {
        "scenarios": list(tree.scenarios),
        "probs": {s: fmt(p) for s, p in zip(tree.scenarios, tree.probs)},
        "partitions": [[list(cell) for cell in part] for part in tree.partitions],
    }


@_wrap("tree")
def tree_from_json(doc: dict) -> ScenarioTree:
    probs_doc = _need(doc, "probs")
    if type(probs_doc) is not dict:
        raise ValueError("probs must be an object keyed by scenario id")
    scenarios = tuple(_array(doc.get("scenarios")) or sorted(probs_doc))
    if not all(isinstance(s, str) for s in scenarios):  # before they key probs
        raise ValueError("scenario ids must be strings")
    for s in scenarios:
        if s not in probs_doc:
            raise ValueError(f"scenario {s!r} has no probability")
    probs = tuple(_rat(probs_doc[s]) for s in scenarios)
    partitions = tuple(tuple(tuple(_array(cell)) for cell in _array(part))
                       for part in _array(_need(doc, "partitions")))
    return ScenarioTree(scenarios, probs, partitions)


def measure_to_json(rm: RandomMeasure) -> dict:
    return {s: [fmt(a) for a in rm.measures[s].atoms] for s in rm.tree.scenarios}


@_wrap("measure")
def measure_from_json(doc: dict, tree: ScenarioTree, grid: TimeGrid) -> RandomMeasure:
    return RandomMeasure(tree, grid, {
        s: GridMeasure(grid, tuple(_rats(atoms))) for s, atoms in _per_scenario(doc, tree)})


def path_to_json(rp: RandomPath) -> dict:
    return {s: [fmt(v) for v in rp.paths[s].values] for s in rp.tree.scenarios}


@_wrap("path")
def path_from_json(doc: dict, tree: ScenarioTree, grid: TimeGrid) -> RandomPath:
    return RandomPath(tree, grid, {
        s: StepPath(grid, tuple(_rats(values))) for s, values in _per_scenario(doc, tree)})


@_wrap("dual pair")
def dual_from_json(doc: dict, tree: ScenarioTree, grid: TimeGrid) -> DualPair:
    return DualPair(measure_from_json(_need(doc, "u"), tree, grid),
                    measure_from_json(_need(doc, "ut"), tree, grid))


def setmap_to_json(rsm: RandomSetMap) -> dict:
    return {
        s: {
            "point_vals": [interval_to_json(p) for p in sm.point_vals],
            "open_vals": [interval_to_json(c) for c in sm.open_vals],
        }
        for s, sm in rsm.maps.items()
    }


@_wrap("set-valued map")
def setmap_from_json(doc: dict, tree: ScenarioTree, grid: TimeGrid) -> RandomSetMap:
    maps = {}
    for s, entry in _per_scenario(doc, tree):
        maps[s] = SetMap(
            grid,
            tuple(interval_from_json(p) for p in _array(_need(entry, "point_vals"))),
            tuple(interval_from_json(c) for c in _array(_need(entry, "open_vals"))))
    return RandomSetMap(tree, grid, maps)


def integrand_to_json(ri: RandomIntegrand) -> dict:
    return {
        "flag": ri.flag,
        "functions": {
            s: [plconvex_to_json(fn) for fn in ri.functions[s]]
            for s in ri.tree.scenarios
        },
    }


@_wrap("integrand")
def integrand_from_json(doc: dict, tree: ScenarioTree, grid: TimeGrid) -> RandomIntegrand:
    fns = {
        s: tuple(plconvex_from_json(f) for f in _array(fs))
        for s, fs in _per_scenario(_need(doc, "functions"), tree)
    }
    return RandomIntegrand(tree, grid, fns, _need(doc, "flag"))


# -- cones ---------------------------------------------------------------------

def cone_to_json(k: PolyCone) -> dict:
    return {
        "dim": k.dim,
        "generators": [[fmt(x) for x in g] for g in k.generators],
        "halfspaces": [[fmt(x) for x in a] for a in k.halfspaces],
    }


@_wrap("cone")
def cone_from_json(doc: dict) -> PolyCone:
    from .polycone import MAX_DIM, PolyCone
    dim = _need(doc, "dim")
    if type(dim) is float and dim.is_integer():
        dim = int(dim)
    if type(dim) is not int or not 1 <= dim <= MAX_DIM:
        raise SchemaError(f"cone dim must be an integer from 1 to {MAX_DIM}, not {dim!r}")
    gens = doc.get("generators")
    hs = doc.get("halfspaces")
    if gens is None and hs is None:
        raise SchemaError("cone needs generators or halfspaces")
    if gens is not None and not hs:
        hs = None  # beside generators an empty list means "not given": computed lazily
    return _shared(PolyCone, [dim, gens, hs], lambda: PolyCone(
        dim, generators=None if gens is None else [_rats(g) for g in _array(gens)],
        halfspaces=None if hs is None else [_rats(a) for a in _array(hs)]))


def conemap_to_json(cm: ConeMap) -> dict:
    return {
        "point_cones": [cone_to_json(k) for k in cm.point_cones],
        "cell_cones": [cone_to_json(k) for k in cm.cell_cones],
    }


@_wrap("cone map")
def conemap_from_json(doc: dict, grid: TimeGrid) -> ConeMap:
    from .polycone import ConeMap
    return ConeMap(grid,
                   tuple(cone_from_json(k) for k in _array(_need(doc, "point_cones"))),
                   tuple(cone_from_json(k) for k in _array(_need(doc, "cell_cones"))))


def scalar_process_to_json(sp: ScalarProcess) -> dict:
    return {
        "flag": sp.flag,
        "points": {s: [fmt(v) for v in sp.points[s]] for s in sp.tree.scenarios},
        "cells": {s: [fmt(v) for v in sp.cells[s]] for s in sp.tree.scenarios},
    }


@_wrap("scalar process")
def scalar_process_from_json(doc: dict, tree: ScenarioTree, grid: TimeGrid) -> ScalarProcess:
    from .finmodels import ScalarProcess
    return ScalarProcess(
        tree, grid,
        {s: tuple(_rats(v)) for s, v in _per_scenario(_need(doc, "points"), tree)},
        {s: tuple(_rats(v)) for s, v in _per_scenario(_need(doc, "cells"), tree)},
        _need(doc, "flag"))


def vector_measure_to_json(vm: VectorMeasure) -> List[List[str]]:
    return [[fmt(x) for x in a] for a in vm.atoms]


@_wrap("vector measure")
def vector_measure_from_json(doc, grid: TimeGrid) -> VectorMeasure:
    from .finmodels import VectorMeasure
    return VectorMeasure(grid, tuple(tuple(_rats(a)) for a in _array(doc)))


# -- model sections ----------------------------------------------------------------

@_wrap("currency duals")
def _duals_from_json(doc, tree: ScenarioTree, grid: TimeGrid) -> tuple:
    return tuple((vector_measure_from_json(_need(dd, "u"), grid),
                  vector_measure_from_json(_need(dd, "ut"), grid))
                 for dd in _list(doc, "currency duals"))


_SCALAR = (scalar_process_from_json, scalar_process_to_json)
_PATH = (path_from_json, path_to_json)
_CONES = (lambda doc, tree, grid: conemap_from_json(doc, grid), conemap_to_json)
_DUALS = (_duals_from_json, lambda duals: [
    {"u": vector_measure_to_json(u), "ut": vector_measure_to_json(ut)} for u, ut in duals])

# model type -> key -> (reader(doc, tree, grid), writer(part)); every key is
# required and no other is allowed
MODEL_KEYS = {
    "obstacle": {"b": _SCALAR, "ycheck": _PATH},
    "bidask": {"b": _SCALAR, "a": _SCALAR, "ybar": _PATH},
    "cs": {"G": _CONES, "Gtilde": _CONES},
    "currency": {"solvency": _CONES, "duals": _DUALS},
}


def _refined(part, factor: int):
    """``part.refine(factor)``, taken through tuples (the currency duals)."""
    if type(part) is tuple:
        return tuple(_refined(p, factor) for p in part)
    return part.refine(factor)


class Model:
    """A parsed model section: its type, one object per key of that type, and
    the section as loaded, which is written back as it is so a loaded file
    keeps its bytes (``PolyCone`` sorts its rows).  A refined model has no
    such section and is written through the writers of :data:`MODEL_KEYS`."""

    def __init__(self, kind: str, parts: Dict[str, object], doc: Optional[dict] = None):
        self.kind, self.parts, self.doc = kind, parts, doc

    def refine(self, factor: int) -> "Model":
        return Model(self.kind, {k: _refined(v, factor) for k, v in self.parts.items()})

    def to_json(self) -> dict:
        writers = MODEL_KEYS[self.kind]
        return self.doc or {"type": self.kind,
                            **{k: writers[k][1](v) for k, v in self.parts.items()}}


def model_from_json(doc, tree: ScenarioTree, grid: TimeGrid) -> Optional[Model]:
    """None for an absent or null section; else an object whose keys are
    exactly ``type`` and that type's keys in :data:`MODEL_KEYS`, whose cone
    maps and currency dual atoms have one dimension."""
    if doc is None:
        return None
    if type(doc) is not dict:
        raise SchemaError("model must be an object or null")
    kind = _need(doc, "type")
    if type(kind) is not str or kind not in MODEL_KEYS:
        raise SchemaError(f"unknown model type {kind!r}")
    keys = MODEL_KEYS[kind]
    extra = sorted(set(doc) - {"type", *keys})
    if extra:
        raise SchemaError(f"unexpected key {extra[0]!r} in a {kind} model")
    parts = {k: read(_need(doc, k), tree, grid) for k, (read, _) in keys.items()}
    from .polycone import ConeMap
    dims = {p.dim for p in parts.values() if isinstance(p, ConeMap)} | {
        len(a) for pair in parts.get("duals", ()) for vm in pair for a in vm.atoms}
    if len(dims) > 1:
        raise SchemaError(f"{kind} model mixes dimensions {', '.join(map(str, sorted(dims)))}")
    return Model(kind, parts, doc)


# -- whole documents -------------------------------------------------------------

class InstanceDoc:
    """A parsed instance file: the instance plus its duals, paths and model.

    :func:`load_instance` hands one document to every load of the same text,
    so nothing may change one after it is built.  ``duals`` and ``paths`` are
    stored as tuples; the instance and its parts are frozen dataclasses; and
    no caller writes to ``model.parts`` or ``model.doc``, which stay a dict
    and the JSON section as loaded."""

    def __init__(self, instance: Instance, duals: Sequence[DualPair],
                 paths: Sequence[RandomPath], model: Optional[Model]):
        self.instance = instance
        self.duals = tuple(duals)
        self.paths = tuple(paths)
        self.model = model

    def refine(self, factor: int) -> "InstanceDoc":
        """The same document on the factor-refined grid, model data included."""
        return InstanceDoc(self.instance.refine(factor),
                           [d.refine(factor) for d in self.duals],
                           [p.refine(factor) for p in self.paths],
                           None if self.model is None else self.model.refine(factor))


def instance_doc_from_json(doc: dict) -> InstanceDoc:
    token = _PARSED.set({})
    try:
        return _instance_doc_from_json(doc)
    finally:
        _PARSED.reset(token)


def _instance_doc_from_json(doc: dict) -> InstanceDoc:
    if not isinstance(doc, dict):
        raise SchemaError("instance file must be a JSON object")
    grid = grid_from_json(_need(doc, "grid"))
    tree = tree_from_json(_need(doc, "tree"))
    try:
        h = integrand_from_json(_need(doc, "integrand_h"), tree, grid)
        mu = measure_from_json(_need(doc, "mu"), tree, grid)
        mutilde = (measure_from_json(doc["mutilde"], tree, grid)
                   if doc.get("mutilde") else None)
        htilde = (integrand_from_json(doc["integrand_htilde"], tree, grid)
                  if doc.get("integrand_htilde") else None)
        smap = (setmap_from_json(doc["setmap_S"], tree, grid)
                if doc.get("setmap_S") else None)
        stmap = (setmap_from_json(doc["setmap_Stilde"], tree, grid)
                 if doc.get("setmap_Stilde") else None)
        inst = make_instance(tree, grid, h, mu, mutilde, htilde, smap, stmap)
        duals = [dual_from_json(d, tree, grid) for d in _list(doc.get("duals", []), "duals")]
        paths = [path_from_json(p, tree, grid) for p in _list(doc.get("paths", []), "paths")]
        model = model_from_json(doc.get("model"), tree, grid)
        if model is not None and model.kind in ("obstacle", "bidask"):
            from .finmodels import band_setmap
            if band_setmap(model.parts["b"], model.parts.get("a")) != inst.S:
                raise SchemaError(f"the {model.kind} model's band differs from setmap_S")
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return InstanceDoc(inst, duals, paths, model)


def instance_doc_to_json(idoc: InstanceDoc) -> dict:
    inst = idoc.instance
    return {
        "grid": grid_to_json(inst.grid),
        "tree": tree_to_json(inst.tree),
        "integrand_h": integrand_to_json(inst.h),
        "integrand_htilde": integrand_to_json(inst.htilde),
        "mu": measure_to_json(inst.mu),
        "mutilde": measure_to_json(inst.mutilde),
        "setmap_S": setmap_to_json(inst.S),
        "setmap_Stilde": setmap_to_json(inst.Stilde),
        "duals": [{"u": measure_to_json(d.u), "ut": measure_to_json(d.ut)}
                  for d in idoc.duals],
        "paths": [path_to_json(p) for p in idoc.paths],
        "model": None if idoc.model is None else idoc.model.to_json(),
    }


@lru_cache(maxsize=1)
def _parsed(text: str) -> InstanceDoc:
    """The document in ``text``, kept for the last text that parsed completely."""
    return instance_doc_from_json(json.loads(text))


def load_instance(path: str) -> InstanceDoc:
    """The document in the file at ``path``; raises :class:`SchemaError`.

    The file is read whole every time.  When its text equals that of the
    last file that parsed completely, whatever its path, the document parsed
    then is returned, the same object: callers share it and must not change
    it.  Other text is parsed and takes the one slot; a file that cannot be
    read, decoded or parsed raises with the message it always gave and is
    never stored.  A document nested too deep to decode or parse within the
    recursion limit cannot be read either."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return _parsed(text)
    except SchemaError:
        raise
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSON and UTF-8 decoding
        raise SchemaError(f"cannot read instance file: {exc}") from exc


_quoted = json.encoder.encode_basestring_ascii  # the C function json.dumps uses


def _indented(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, written without
    ``json``'s indenting encoder, which is pure Python before 3.13.

    ``indent`` is a newline and the indent of ``value``'s own line.  Strings,
    ``None``, booleans, ints, dicts, lists and tuples are written here, a
    subclass of the last three as its base type, and any other value (a
    float, a subclass of str or int, an unknown type) by ``json.dumps(value)``,
    so it is written or refused exactly as there.  Keys are sorted as they
    are; a key that is not a ``str`` is refused with ``TypeError``."""
    kind = type(value)
    if kind is str:
        return _quoted(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key in sorted(value):
            item = value[key]
            items.append(_quoted(key) + ": " + (
                _quoted(item) if type(item) is str else _indented(item, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([
            _quoted(item) if type(item) is str else _indented(item, inner)
            for item in value]) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if isinstance(value, dict):
        return _indented(dict(value), indent)
    if isinstance(value, (list, tuple)):
        return _indented(list(value), indent)
    return json.dumps(value)


def _text(to_json: Callable[[object], object], value: object) -> str:
    """The file text of ``to_json(value)``, built before a file is opened so
    that a value too long to write leaves none."""
    try:
        return _indented(to_json(value)) + "\n"
    except ValueError as exc:  # str() of a Fraction with too many digits
        raise SchemaError(f"cannot write a value of more than {MAX_EXPONENT} digits") from exc


def dump_instance(idoc: InstanceDoc, path: str) -> None:
    _write_text(path, _text(instance_doc_to_json, idoc))


def _write_text(path: str, text: str) -> None:
    """Write ``text`` over the file at ``path`` in place, creating it if absent.

    The file is opened without ``O_TRUNC`` and cut at the end of the new text
    once it is written, so an existing file keeps its inode, mode and hard
    links, and a symlink is followed; a new file gets ``0o666 & ~umask``.  On
    ext4, truncating a file to zero makes its close flush the new data
    (``auto_da_alloc``), some twenty times the cost of the write itself.  A
    file that is not a regular one (a pipe, a terminal, ``/dev/null``) is
    written and not cut.  Nothing is atomic: a failed write leaves the
    content unspecified.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        fh = open(fd, "w", encoding="utf-8")
    except BaseException:
        os.close(fd)
        raise
    with fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


# -- reports ---------------------------------------------------------------------

def jsonable(value):
    """Recursively convert report values to JSON-friendly data."""
    # the cheap cases first: isinstance of Fraction consults the numbers ABCs
    if value is None or isinstance(value, (str, int)):  # bool is an int
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (Fraction, float)):
        return fmt(value)
    return repr(value)


def dump_report(report: dict, path: Optional[str]) -> str:
    text = _text(jsonable, report)
    if path:
        _write_text(path, text)
    return text


def reports_equal(a: dict, b: dict) -> bool:
    """Equal as JSON apart from the top-level ``timestamp`` key.

    The decoded reports are compared as the JSON they are, so a number and
    its string spelling (``1.5`` and ``"1.5"``, ``NaN`` and ``"nan"``) differ."""
    def text(d):
        return json.dumps({k: v for k, v in d.items() if k != "timestamp"}, sort_keys=True)
    return text(a) == text(b)
