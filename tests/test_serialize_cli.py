"""Instance files, report determinism and the command-line front-end."""

import dataclasses
import hashlib
import json
import os
import random
import sys
import time
from collections import OrderedDict
from fractions import Fraction as F
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plconvex_st, preset

from cadlagconvex import cli, presets, serialize
from cadlagconvex.duality import Instance
from cadlagconvex.finmodels import (ScalarProcess, band_setmap, bidask_model,
                                    obstacle_model)
from cadlagconvex.generators import rand_passing_instance
from cadlagconvex.presets import PRESET_NAMES, bundled_instance_path
from cadlagconvex.serialize import (InstanceDoc, Model, SchemaError, cone_from_json,
                                    cone_to_json, dump_instance,
                                    instance_doc_from_json,
                                    instance_doc_to_json, load_instance,
                                    path_from_json, plconvex_from_json,
                                    plconvex_to_json, reports_equal)
from cadlagconvex.plconvex import RInterval, pl
from cadlagconvex.rationals import INF, NEG_INF, fmt
from cadlagconvex.scenario import RandomIntegrand, RandomPath, ScenarioTree
from cadlagconvex.timegrid import StepPath, TimeGrid

INSTANCE_DIR = os.path.join(os.path.dirname(__file__), "..",
                            "src", "cadlagconvex", "instances")
GOLDEN_PRESET_CLI = os.path.join(os.path.dirname(__file__), "..",
                                 "bench", "golden", "preset-cli.json")


def bundled(name: str) -> str:
    return os.path.join(INSTANCE_DIR, f"{name}.json")


def assert_one_error_line(capsys, prefix: str) -> None:
    """A rejected command prints nothing on stdout and one line on stderr."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(prefix)
    assert "Traceback" not in captured.err


def basic_doc() -> dict:
    with open(bundled("basic"), encoding="utf-8") as fh:
        return json.load(fh)


BASIC_UP_0 = {"anchor": ["0", "0"], "breakpoints": ["0"], "dom": ["-2", "2"],
              "slopes": ["-1", "1"]}  # integrand_h up[0] of basic.json

# malformed function documents and the messages they gave before equal
# function documents shared one object; they must stay the same
BAD_FUNCTIONS = [
    ({**BASIC_UP_0, "slopes": ["-1", "1x"]},
     "bad piecewise-linear function: Invalid literal for Fraction: '1x'"),
    ({**BASIC_UP_0, "slopes": ["-1", 1.0]},
     "bad piecewise-linear function: not a rational: 1.0"),
    ({k: v for k, v in BASIC_UP_0.items() if k != "breakpoints"},
     "missing key 'breakpoints'"),
    ({k: v for k, v in BASIC_UP_0.items() if k != "slopes"}, "missing key 'slopes'"),
    ({**BASIC_UP_0, "breakpoints": 5},
     "bad piecewise-linear function: 'int' object is not iterable"),
    ({**BASIC_UP_0, "dom": ["x", "2"], "breakpoints": 5},
     "bad piecewise-linear function: Invalid literal for Fraction: 'x'"),
    ({**BASIC_UP_0, "slopes": ["1", "-1"]},
     "bad piecewise-linear function: slopes must be nondecreasing (convexity)"),
    ({**BASIC_UP_0, "anchor": ["3", "0"]},
     "bad piecewise-linear function: anchor outside the domain"),
    ({**BASIC_UP_0, "dom": ["2", "-2"]},
     "bad piecewise-linear function: empty or inverted domain"),
    ({**BASIC_UP_0, "dom": [["-2"], "2"]},
     "bad piecewise-linear function: not a rational: ['-2']"),
    ({**BASIC_UP_0, "dom": ["-2"]},
     "bad piecewise-linear function: not enough values to unpack (expected 2, got 1)"),
    ({**BASIC_UP_0, "anchor": ["0", "1e-9999"]},
     "bad piecewise-linear function: exponent beyond 4300 in '1e-9999'"),
    ({**BASIC_UP_0, "breakpoints": ["0", None]},
     "bad piecewise-linear function: not a rational: None"),
    ({**BASIC_UP_0, "breakpoints": []},
     "bad piecewise-linear function: need exactly one slope per segment"),
    (["-2", "2"], "missing key 'dom'"),
    ("dom", "bad piecewise-linear function: string indices must be integers, not 'str'"),
]


# (document, generators held, half-spaces held); None is a form left to be
# computed on first use
CONE_FORMS = [
    ({"dim": 2, "generators": [["1", "0"], ["0", "2"]],
      "halfspaces": [["-1", "0"], ["0", "-1"]]},
     ((0, 1), (1, 0)), ((-1, 0), (0, -1))),
    ({"dim": 2, "generators": [["1", "0"], ["0", "2"]], "halfspaces": []},
     ((0, 1), (1, 0)), None),
    ({"dim": 2, "generators": [["1", "0"], ["0", "2"]]}, ((0, 1), (1, 0)), None),
    # the zero cone, written with the rows that cut it out
    ({"dim": 2, "generators": [], "halfspaces": [["1", "0"], ["-1", "0"]]},
     (), ((-1, 0), (1, 0))),
    ({"dim": 2, "halfspaces": [["-1", "0"]]}, None, ((-1, 0),)),
    ({"dim": 2, "halfspaces": []}, None, ()),
]


def outcome(fn, arg):
    """fn(arg), or the type of the exception it raised."""
    try:
        return fn(arg)
    except Exception as exc:  # the exception type is what is compared
        return type(exc)


def old_jsonable(value):
    """Reference copy of serialize.jsonable before it tested the cheap cases first."""
    if isinstance(value, (F, float)):
        return fmt(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): old_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [old_jsonable(v) for v in value]
    return repr(value)


# what a list of rationals in a document may hold: canonical and other
# strings, repeated ones, bad ones, and values that are not strings
RAT_ITEMS = st.one_of(
    st.sampled_from(["0", "1/2", "-3", "-3", " 7 ", "1e2", "0.25", "x", "1/0", "1e-9999",
                     "", "inf"]),
    st.integers(-3, 3), st.fractions(max_denominator=4),
    st.sampled_from([1.0, None, True, ["1"], {}]))


class Label(str):
    """A str subclass, as a report value."""


def _containers(inner):
    return st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                     st.dictionaries(st.text(max_size=3), inner, max_size=4),
                     st.dictionaries(st.one_of(st.integers(-3, 3), st.text(max_size=2)),
                                     inner, max_size=3))


# strings json.dumps escapes: non-ASCII, control characters and lone surrogates
JSON_STRINGS = st.one_of(
    st.text(max_size=4),
    st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()),
            max_size=4),
    st.sampled_from(["", "\x00\x1f\x7f", "é\u2028ü", "\ud800", "x\udfffy", "\U0001f600",
                     '"\\/\b\f\n\r\t']))

json_trees = st.recursive(st.one_of(
    st.none(), st.booleans(), JSON_STRINGS,
    st.integers(), st.sampled_from([2 ** 64, -(10 ** 100), 10 ** 4000]),
    st.floats(), st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 2.0])),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(JSON_STRINGS, inner, max_size=4)),
    max_leaves=30)


# what a report may hold
report_values = st.recursive(st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.fractions(max_denominator=5), st.sampled_from([INF, NEG_INF]),
    st.text(max_size=3).map(Label), st.just(RInterval(F(0), F(1)))), _containers,
    max_leaves=25)


class TestSerialization:
    def test_plconvex_round_trip(self):
        fn = pl(NEG_INF, F(2), (F(0), F(1)), (F(-1), F(1, 3), F(5, 2)), F(0), F(7, 3))
        assert plconvex_from_json(plconvex_to_json(fn)) == fn

    @settings(max_examples=150, deadline=None)
    @given(plconvex_st())
    def test_plconvex_round_trip_property(self, fn):
        assert plconvex_from_json(plconvex_to_json(fn)) == fn

    def test_instance_round_trip(self):
        for name in PRESET_NAMES:
            idoc = preset(name)
            doc = instance_doc_to_json(idoc)
            again = instance_doc_to_json(instance_doc_from_json(doc))
            assert doc == again

    def test_bad_document_raises_schema_error(self):
        with pytest.raises(SchemaError):
            instance_doc_from_json({"grid": ["0", "1"]})
        with pytest.raises(SchemaError):
            instance_doc_from_json([1, 2, 3])

    @pytest.mark.parametrize("doc, gens, rows", CONE_FORMS)
    def test_cone_from_json_keeps_the_forms_given(self, doc, gens, rows):
        cone = cone_from_json(doc)
        assert vars(cone).get("generators") == gens
        assert vars(cone).get("halfspaces") == rows
        assert cone_from_json(cone_to_json(cone)) == cone

    def test_shared_cones_keep_each_document_s_forms(self):
        # dim 2.0 and integer rows are keyed too, the dimension is part of the
        # key (no rows: the whole space), and a float row has a key of its own,
        # so it raises at each sight and is never stored
        docs = [doc for doc, _, _ in CONE_FORMS] + [
            {"dim": 3, "halfspaces": []},
            {"dim": 2.0, "generators": [["1", "0"], ["0", "2"]]},
            {"dim": 2, "generators": [[1, 0], [0, 2]], "halfspaces": [[-1, 0], [0, -1]]}]
        float_row = {"dim": 2, "generators": [[1.0, 0], [0, 2]], "halfspaces": [[-1, 0], [0, -1]]}
        token = serialize._PARSED.set({})
        try:
            shared = [cone_from_json(doc) for doc in docs * 2]
            for _ in range(2):
                with pytest.raises(SchemaError, match="not a rational: 1.0"):
                    cone_from_json(float_row)
        finally:
            serialize._PARSED.reset(token)
        for doc, cone in zip(docs * 2, shared):
            fresh = cone_from_json(doc)
            assert (cone.dim, vars(cone).get("generators"), vars(cone).get("halfspaces")) == \
                (fresh.dim, vars(fresh).get("generators"), vars(fresh).get("halfspaces"))
        assert all(a is b for a, b in zip(shared[:len(docs)], shared[len(docs):]))

    def test_cone_without_either_form_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="cone needs generators or halfspaces"):
            cone_from_json({"dim": 2, "generators": None})

    @pytest.mark.parametrize("bad, message", [
        ("1/0", "bad path: Fraction(1, 0)"),
        ("x", "bad path: Invalid literal for Fraction: 'x'"),
    ])
    def test_each_distinct_string_is_parsed_once_per_document(self, bad, message,
                                                               monkeypatch):
        with open(bundled("basic"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["paths"] = [{s: ["1/3", "-1/3", "1/3"] for s in ("up", "dn")}
                        for _ in range(40)]
        parses = []
        rat = serialize.rat

        def counted(value):
            parses.append(value)
            return rat(value)
        monkeypatch.setattr(serialize, "rat", counted)
        idoc = instance_doc_from_json(doc)
        assert [p.paths["dn"].values for p in idoc.paths] == [(F(1, 3), F(-1, 3), F(1, 3))] * 40
        assert len(parses) == len(set(parses))
        assert serialize._PARSED.get() is None

        # a bad string after many good ones raises as it does without the memo
        doc["paths"][-1]["dn"][2] = bad
        with pytest.raises(SchemaError) as err:
            instance_doc_from_json(doc)
        assert str(err.value) == message
        assert serialize._PARSED.get() is None
        # no parse state survives: a reader on its own parses every string
        del parses[:]
        path_from_json(doc["paths"][0], idoc.instance.tree, idoc.instance.grid)
        assert parses == ["1/3", "-1/3", "1/3"] * 2

    # -- one PLConvex per distinct function document ------------------------------

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_equal_functions_of_a_file_are_one_object(self, name):
        inst = load_instance(bundled(name)).instance
        fns = [fn for ri in (inst.h, inst.htilde) for fs in ri.functions.values() for fn in fs]
        assert all((f == g) == (f is g) for f in fns for g in fns)

    def test_the_scenarios_of_a_cell_share_their_functions(self):
        inst = load_instance(bundled("basic")).instance
        assert inst.tree.cells(0) == (("dn", "up"),)
        assert inst.h.functions["dn"][0] is inst.h.functions["up"][0]
        assert inst.h.functions["dn"][0].conjugate() is inst.h.functions["up"][0].conjugate()

    @pytest.mark.parametrize("name, keys, distinct", [
        ("cs", ("G", "Gtilde"), 3), ("currency", ("solvency",), 2)])
    def test_equal_cones_of_a_file_are_one_object(self, name, keys, distinct):
        with open(bundled(name), encoding="utf-8") as fh:
            section = json.load(fh)["model"]
        parts = load_instance(bundled(name)).model.parts
        docs = [k for key in keys for side in ("point_cones", "cell_cones")
                for k in section[key][side]]
        cones = [k for key in keys for k in parts[key].point_cones + parts[key].cell_cones]
        assert len(docs) == len(cones) > distinct == len({id(k) for k in cones})
        assert all((a == b) == (x is y) for a, x in zip(docs, cones)
                   for b, y in zip(docs, cones))

    @staticmethod
    def read_function_by_function(doc):
        """The document's instance with every function read outside the memo."""
        inst = instance_doc_from_json(doc).instance
        fams = [RandomIntegrand(inst.tree, inst.grid, {
            s: tuple(plconvex_from_json(f) for f in doc[key]["functions"][s])
            for s in inst.tree.scenarios}, doc[key]["flag"])
            for key in ("integrand_h", "integrand_htilde")]
        return dataclasses.replace(inst, h=fams[0], htilde=fams[1])

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_sharing_functions_changes_no_preset(self, name):
        with open(bundled(name), encoding="utf-8") as fh:
            doc = json.load(fh)
        assert load_instance(bundled(name)).instance == self.read_function_by_function(doc)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_sharing_functions_changes_no_generated_instance(self, seed):
        rng = random.Random(seed)
        inst = rand_passing_instance(rng, with_htilde=seed % 2 == 0)
        doc = json.loads(json.dumps(instance_doc_to_json(InstanceDoc(inst, [], [], None))))
        loaded = instance_doc_from_json(doc).instance
        assert loaded == self.read_function_by_function(doc) == inst

    @pytest.mark.parametrize("bad, message", BAD_FUNCTIONS)
    def test_a_malformed_function_raises_as_before_sharing(self, bad, message):
        for scenarios in (("dn",), ("up", "dn")):  # seen once, then twice
            doc = basic_doc()
            for s in scenarios:
                doc["integrand_h"]["functions"][s][0] = bad
            with pytest.raises(SchemaError) as err:
                instance_doc_from_json(doc)
            assert str(err.value) == message
        with pytest.raises(SchemaError) as err:  # a reader on its own
            plconvex_from_json(bad)
        assert str(err.value) == message

    # -- one RInterval per distinct interval document ----------------------------

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_equal_intervals_of_a_file_are_one_object(self, name):
        inst = load_instance(bundled(name)).instance
        ivs = [iv for rsm in (inst.S, inst.Stilde) for sm in rsm.maps.values()
               for iv in sm.point_vals + sm.open_vals]
        assert all((a == b) == (a is b) for a in ivs for b in ivs)

    @pytest.mark.parametrize("bad, message", [
        (["2", "1"], "bad interval: empty interval bounds [2, 1]"),
        (["inf", "1"], "bad interval: empty interval bounds [inf, 1]"),
        (["1", "-inf"], "bad interval: empty interval bounds [1, -inf]"),
        (["x", "1"], "bad interval: Invalid literal for Fraction: 'x'"),
        ([1.5, "2"], "bad interval: not a rational: 1.5"),
        ([None, "1"], "bad interval: not a rational: None"),
        (["1"], "bad interval: not enough values to unpack (expected 2, got 1)"),
    ])
    def test_a_malformed_interval_raises_as_before_sharing(self, bad, message):
        for scenarios in (("dn",), ("up", "dn")):  # seen once, then twice
            doc = basic_doc()
            for s in scenarios:
                doc["setmap_S"][s]["point_vals"][0] = bad
            with pytest.raises(SchemaError) as err:
                instance_doc_from_json(doc)
            assert str(err.value) == message
        with pytest.raises(SchemaError) as err:  # a reader on its own
            serialize.interval_from_json(bad)
        assert str(err.value) == message

    def test_a_failed_function_is_never_stored(self):
        token = serialize._PARSED.set({})
        try:
            for _ in range(2):
                with pytest.raises(SchemaError, match="anchor outside the domain"):
                    plconvex_from_json({**BASIC_UP_0, "anchor": ["3", "0"]})
            assert not any(isinstance(k, tuple) for k in serialize._PARSED.get())
        finally:
            serialize._PARSED.reset(token)

    def test_a_function_differing_in_json_type_alone_is_another_object(self):
        doc = basic_doc()
        doc["integrand_h"]["functions"]["dn"][0] = {**BASIC_UP_0, "slopes": [-1, 1]}
        h = instance_doc_from_json(doc).instance.h
        assert h.functions["dn"][0] == h.functions["up"][0]
        assert h.functions["dn"][0] is not h.functions["up"][0]
        # equal to a stored key by value, but 1.0 is no rational: it still raises
        doc["integrand_h"]["functions"]["dn"][0] = {**BASIC_UP_0, "slopes": ["-1", 1.0]}
        with pytest.raises(SchemaError, match="not a rational: 1.0"):
            instance_doc_from_json(doc)

    def test_intervals_differing_in_json_type_alone_are_two_equal_objects(self):
        doc = basic_doc()
        doc["setmap_S"]["up"]["point_vals"][0] = [1, 2]
        doc["setmap_S"]["dn"]["point_vals"][0] = ["1", "2"]
        S = instance_doc_from_json(doc).instance.S
        up, dn = S.maps["up"].point_vals[0], S.maps["dn"].point_vals[0]
        assert up == dn == RInterval(F(1), F(2))
        assert up is not dn

    def test_a_bool_after_an_equal_int_still_raises(self):
        # True == 1 and hash(True) == hash(1): a key that compared the parts by
        # value would hand the later part the object built for the earlier one
        doc = basic_doc()
        doc["setmap_S"]["up"]["point_vals"][:2] = [[1, "2"], [True, "2"]]
        with pytest.raises(SchemaError) as err:
            instance_doc_from_json(doc)
        assert str(err.value) == "bad interval: not a rational: True"
        with open(bundled("cs"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["model"]["G"]["point_cones"][:2] = [{"dim": 2, "halfspaces": [[1, 0]]},
                                                {"dim": 2, "halfspaces": [[True, 0]]}]
        with pytest.raises(SchemaError) as err:
            instance_doc_from_json(doc)
        assert str(err.value) == "bad cone: not a rational: True"

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.lists(RAT_ITEMS, max_size=6), st.integers(), st.none()), st.booleans())
    def test_rats_equals_rat_on_each_element(self, values, memo):
        """A list reads what ``_rat`` reads on each element: the same values
        and types, the same objects shared, the same exception."""
        def read(parse):
            token = serialize._PARSED.set({}) if memo else None
            try:
                got = parse(values)
            except Exception as exc:  # the exception type and message are compared
                return type(exc), str(exc)
            finally:
                if token is not None:
                    serialize._PARSED.reset(token)
            return [(type(q), q) for q in got], [[a is b for b in got] for a in got]
        assert read(serialize._rats) == read(lambda vs: [serialize._rat(v) for v in vs])

    @pytest.mark.parametrize("values, kind", [("012", "str"), ({"0": "1"}, "dict")])
    def test_rats_refuses_a_string_or_an_object(self, values, kind):
        with pytest.raises(TypeError, match=f"^expected a list, not {kind}$"):
            serialize._rats(values)

    def test_reports_equal_ignores_timestamp(self):
        a = {"theorem": "x", "pass": True, "timestamp": 1.0}
        b = {"theorem": "x", "pass": True, "timestamp": 2.0}
        assert reports_equal(a, b)
        assert not reports_equal(a, {**b, "pass": False})

    @pytest.mark.parametrize("number, spelling", [(1.5, "1.5"), (float("nan"), "nan")])
    def test_reports_equal_tells_a_number_from_its_spelling(self, number, spelling):
        a = {"theorem": "x", "lhs": number}
        assert reports_equal(a, dict(a))
        assert not reports_equal(a, {"theorem": "x", "lhs": spelling})

    def test_report_diff_tells_a_number_from_its_spelling(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('{"theorem": "x", "lhs": NaN}')
        b.write_text('{"theorem": "x", "lhs": "nan"}')
        assert cli.main(["report-diff", str(a), str(b)]) == 1
        assert capsys.readouterr().out == "reports differ\n"

    # -- the indented writer is json.dumps ------------------------------------------

    @settings(max_examples=400, deadline=None)
    @given(json_trees)
    def test_indented_equals_json_dumps(self, value):
        assert serialize._indented(value) == json.dumps(value, indent=2, sort_keys=True)

    @settings(max_examples=300, deadline=None)
    @given(report_values)
    def test_indented_equals_json_dumps_on_reports(self, value):
        value = serialize.jsonable(value)
        assert serialize._indented(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_indented_writes_subclasses_and_refuses_as_json_does(self):
        class Row(list):
            pass
        value = {Label("k"): [Label("v"), True], "d": OrderedDict(b=Row([1, ()]), a={}),
                 "n": (F(1),)}
        with pytest.raises(TypeError, match="^Object of type Fraction is not JSON serializable$"):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError, match="^Object of type Fraction is not JSON serializable$"):
            serialize._indented(value)
        del value["n"]
        assert serialize._indented(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [{None: 0}, {True: 0, 2: 1, 1.5: 2}, {(1,): 0},
                                       {1: 0, "1": 1}, {-0.0: 0, float("nan"): 1},
                                       {"a": {2: 0}}])
    def test_indented_refuses_a_key_that_is_not_a_str(self, value):
        """Every key written is a str: jsonable turns report keys into strings,
        and a scenario id, which keys a file's probabilities, must be one."""
        with pytest.raises(TypeError):
            serialize._indented(value)

    def test_a_loaded_float_dim_is_written_back_unquoted(self, tmp_path):
        with open(bundled("cs"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["model"]["G"]["point_cones"][0]["dim"] = 2.0
        src, out = tmp_path / "cs.json", tmp_path / "again.json"
        src.write_text(json.dumps(doc))
        dump_instance(load_instance(str(src)), str(out))
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert '"dim": 2.0,' in text

    # -- jsonable is unchanged -------------------------------------------------------

    @settings(max_examples=300, deadline=None)
    @given(report_values)
    def test_jsonable_is_unchanged(self, value):
        assert repr(serialize.jsonable(value)) == repr(old_jsonable(value))


class TestBundledPresets:
    """The shipped JSON files are the only copy of the presets."""

    @staticmethod
    def shipped_bytes(name: str) -> bytes:
        with open(bundled_instance_path(name), "rb") as fh:
            return fh.read()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_load_then_dump_gives_back_the_file(self, name, tmp_path):
        out = tmp_path / "again.json"
        dump_instance(load_instance(bundled_instance_path(name)), str(out))
        assert out.read_bytes() == self.shipped_bytes(name)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_model_writes_the_shipped_bytes(self, name, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert cli.main(["model", name, "-o", str(out)]) == 0
        assert out.read_bytes() == self.shipped_bytes(name)

    @staticmethod
    def instance_json(inst) -> dict:
        return instance_doc_to_json(InstanceDoc(inst, [], [], None))

    def test_obstacle_model_section_rebuilds_the_instance(self):
        idoc = preset("obstacle")
        parts = idoc.model.parts
        rebuilt = obstacle_model(parts["b"], parts["ycheck"])
        assert self.instance_json(rebuilt.instance) == self.instance_json(idoc.instance)

    def test_bidask_model_section_rebuilds_the_instance(self):
        idoc = preset("bidask")
        parts = idoc.model.parts
        rebuilt = bidask_model(parts["b"], parts["a"], parts["ybar"])
        assert self.instance_json(rebuilt.instance) == self.instance_json(idoc.instance)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_refinement_of_a_preset_loads(self, name, tmp_path, capsys):
        for factor in ("2", "3", "4", "10"):
            out = tmp_path / f"x{factor}.json"
            assert cli.main(["refine", bundled_instance_path(name), "--factor", factor,
                             "-o", str(out)]) == 0
            idoc = load_instance(str(out))
            if name in ("obstacle", "bidask"):
                parts = idoc.model.parts
                assert band_setmap(parts["b"], parts.get("a")) == idoc.instance.S

    def test_a_refined_obstacle_keeps_its_band_but_not_the_model_h(self, tmp_path, capsys):
        # an inserted slot copies h from slot i but takes the cell value for S,
        # so the loader compares S, not the instance the model would build
        tree, grid = ScenarioTree.deterministic(3), TimeGrid((0, 1, 2))
        b = ScalarProcess(tree, grid, {"w": (2, 3, 2)}, {"w": (1, 3)}, "optional")
        ycheck = RandomPath(tree, grid, {"w": StepPath(grid, (3, 3, 3))})
        coarse = tmp_path / "obstacle.json"
        dump_instance(InstanceDoc(obstacle_model(b, ycheck).instance, [], [],
                                  Model("obstacle", {"b": b, "ycheck": ycheck})), str(coarse))
        fine = tmp_path / "fine.json"
        assert cli.main(["refine", str(coarse), "--factor", "2", "-o", str(fine)]) == 0
        idoc = load_instance(str(fine))
        parts = idoc.model.parts
        rebuilt = obstacle_model(parts["b"], parts["ycheck"]).instance
        assert [f.name for f in dataclasses.fields(Instance)
                if getattr(rebuilt, f.name) != getattr(idoc.instance, f.name)] == ["h"]

    @pytest.mark.parametrize("name", ["nosuch", "../basic", "basic.json", ""])
    def test_a_name_outside_the_list_never_reaches_the_filesystem(
            self, name, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert cli.main(["model", name, "-o", str(out)]) == 2
        assert_one_error_line(capsys, "unknown preset")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="unknown preset"):
            bundled_instance_path(name)

    def test_a_broken_shipped_file_is_a_schema_error(self, tmp_path, monkeypatch,
                                                     capsys):
        broken = tmp_path / "basic.json"
        broken.write_text('{"grid": ["0"]}')
        monkeypatch.setattr(presets, "bundled_instance_path", lambda name: str(broken))
        out = tmp_path / "out.json"
        assert cli.main(["model", "basic", "-o", str(out)]) == 2
        assert_one_error_line(capsys, "schema error: bad grid: ")
        assert not out.exists()

    def test_instances_directory_holds_one_file_per_preset(self):
        shipped = resources.files("cadlagconvex").joinpath("instances")
        assert sorted(f.name for f in shipped.iterdir() if f.is_file()) == sorted(
            f"{name}.json" for name in PRESET_NAMES)



# sha256 of the files ``model NAME -o`` and ``refine --factor 2|3|4 -o`` write,
# in that order: a change to refining or loading must keep these bytes.
WRITTEN_SHA256 = {
    "basic": (
        "337590e11b44844c0476fc566d267515866083848b0fe202ed887056f60bd81b",
        "25a5b30425b3f56dc76d13fcda06229976d06565b28433df0b91d24debb7dc8e",
        "af4832718c54bb3b6d70f7e24b996731726ea57a69c7b73d65a508fd6a153e7f",
        "3b408b2acd6f2677a5957a74c499c13aea46f61e02c53e87a38cda53b201cdc3",
    ),
    "deterministic": (
        "13483fd929b0a4b5fe55be7d7049e6fa2c8a0a89d16a891f71769ca6d3cf6d1d",
        "6806cb775e58a0fea7f8aaf2446893db2499621ffb2993b5a4c997a7e76316a2",
        "684b0fe2a95b855fcc6e2d84f3ce4f04a3b6f78b87626c83e63c126d62d5dfb5",
        "1572166c3ee531940671b1e207d7ee00587e33781e5bd5f8b74ad6491268215b",
    ),
    "michael-violation": (
        "ba183de1fe894a45c0e97d395f6459cf833df6455f866af947fae498a190899c",
        "8d3228d4442966e4a681254d5de3a7f02495d3d02361ee8cab39d68398b2df18",
        "d6c5e8405f1b6c085d711dca279fa405e650b5bb3df2927fc410ddd2bbd0e441",
        "2ff4efd92f193fe6a8d49ecc52ba78d8c4b2f6ad82ce02665920a28a9bb4c859",
    ),
    "obstacle": (
        "f1ee2eaae3147f630ac251ebf818fb707aa136ab15678459048010c5012ba4a6",
        "f24023a48a25f28d18a311aa4ede7285e0f41d0cee2f4994290a6605f942aa4c",
        "c05967778a813c82768ed68a47a16f1224fe62f31050373c0be24c34ebc67237",
        "4bf220ebc56aac04f89628152af5a104011c9a1b93ccc63fe93bd2c28bd9b188",
    ),
    "bidask": (
        "e3b9072774aad187d254f57b04e90fcf966ad2b6d663ae6155507a193dd22093",
        "5f7c601234e20946b1179c1e4a26432ed0f1e4df57e1b0ba096aea2db8356b3d",
        "d2e82f92bce2ee4aa98e5b6f979462497a2245c75892463ae07dc7c57d24d03e",
        "93615e1d4f4e0896da4b90e37db455f7a49dc7f0daa80f19e4bb1e95c9ca6ccb",
    ),
    "currency": (
        "51a73bebbdcbfd2c3574d1447afdc01f6eb26d75c787901c20c325736eb2a653",
        "b0c92a8f96af27d6ee46b32ba8a231fe52c4d69d2f60ed82c4e5da4a3f79d932",
        "d46e257ea77b9d1681d84358a35cbb97bcb2aea2923d935d0ef0c1474867f6af",
        "6737a6b6bb7652f63a76f52eb7c1988fd2e51bf4db5e5efd576a8ff022cc26ce",
    ),
    "cs": (
        "05bd1a1eb52a7121da989e062c963964aa6086e47f57e52db6094b8ffea717d5",
        "441de3d8884f72225456ddec3425d09bc3f7cf1ebbbbf0d24127cad2f06e8942",
        "7123102ba027b9454830655bed098d4b63a3b9cf31ec9092e4b7d768d7a8952f",
        "52ba3efa4d2df170c7f97e768e8a29d01189013a5ddbc43ba0ca4b5a5c4a8a50",
    ),
}


class TestWrittenBytes:
    @staticmethod
    def sha256(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_every_preset_is_pinned(self):
        assert sorted(WRITTEN_SHA256) == sorted(PRESET_NAMES)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_model_and_refine_write_the_pinned_bytes(self, name, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert cli.main(["model", name, "-o", str(model)]) == 0
        got = [self.sha256(model)]
        for k in (2, 3, 4):
            out = tmp_path / f"refine{k}.json"
            assert cli.main(["refine", str(model), "--factor", str(k), "-o", str(out)]) == 0
            got.append(self.sha256(out))
        assert got == list(WRITTEN_SHA256[name])


DROP = object()  # a model edit that deletes the key

CONE_3D = {"dim": 3, "generators": [["1", "0", "0"]], "halfspaces": []}

# (preset, path to the edited value, new value or DROP, error message start);
# the model section, then the top-level dual and path lists
MODEL_EDITS = [
    ("cs", ("model", "G"), DROP, "missing key 'G'"),
    ("cs", ("model", "Gtilde"), DROP, "missing key 'Gtilde'"),
    ("currency", ("model", "solvency"), DROP, "missing key 'solvency'"),
    ("currency", ("model", "duals", 0, "u"), DROP, "missing key 'u'"),
    ("currency", ("model", "duals", 0, "ut"), DROP, "missing key 'ut'"),
    ("currency", ("model", "duals", 2, "ut"), DROP, "missing key 'ut'"),
    ("currency", ("model", "duals"), DROP, "missing key 'duals'"),
    ("obstacle", ("model", "b"), DROP, "missing key 'b'"),
    ("obstacle", ("model", "ycheck"), DROP, "missing key 'ycheck'"),
    ("bidask", ("model", "b"), DROP, "missing key 'b'"),
    ("bidask", ("model", "a"), DROP, "missing key 'a'"),
    ("bidask", ("model", "ybar"), DROP, "missing key 'ybar'"),
    ("cs", ("model", "type"), DROP, "missing key 'type'"),
    ("cs", ("model", "extra"), {}, "unexpected key 'extra' in a cs model"),
    ("obstacle", ("model", "type"), "nosuch", "unknown model type 'nosuch'"),
    ("cs", ("model",), 5, "model must be an object or null"),
    ("cs", ("model",), {}, "missing key 'type'"),
    ("currency", ("model", "duals"), [5], "bad currency duals: "),
    ("currency", ("model", "duals"), 5, "currency duals must be a list"),
    ("currency", ("model", "duals"), None, "currency duals must be a list"),
    ("currency", ("duals",), 5, "duals must be a list"),
    ("currency", ("duals",), [5], "bad dual pair: "),
    ("currency", ("duals",), {"u": {}, "ut": {}}, "duals must be a list"),
    ("currency", ("paths",), 5, "paths must be a list"),
    # one dimension across the cone maps and the dual atoms of a section
    ("currency", ("model", "duals", 0, "u", 0), ["1", "2", "3"],
     "currency model mixes dimensions 2, 3"),
    ("currency", ("model", "duals", 1, "ut", 2), ["1"], "currency model mixes dimensions 1, 2"),
    ("currency", ("model", "duals", 2, "u", 1), [], "currency model mixes dimensions 0, 2"),
    ("cs", ("model", "Gtilde"), {"point_cones": [CONE_3D] * 3, "cell_cones": [CONE_3D] * 2},
     "cs model mixes dimensions 2, 3"),
    # a cone's dim is an integer from 1 to 4
    ("cs", ("model", "G", "point_cones", 0, "dim"), 2.7,
     "cone dim must be an integer from 1 to 4, not 2.7"),
    ("cs", ("model", "G", "point_cones", 0, "dim"), "2",
     "cone dim must be an integer from 1 to 4, not '2'"),
    ("cs", ("model", "G", "point_cones", 0, "dim"), True,
     "cone dim must be an integer from 1 to 4, not True"),
    ("cs", ("model", "G", "point_cones", 0, "dim"), 0,
     "cone dim must be an integer from 1 to 4, not 0"),
    ("currency", ("model", "solvency", "cell_cones", 1, "dim"), 5,
     "cone dim must be an integer from 1 to 4, not 5"),
    ("cs", ("model", "Gtilde", "point_cones", 0), {"dim": 200, "generators": [], "halfspaces": []},
     "cone dim must be an integer from 1 to 4, not 200"),
    # a string where a list belongs, once read by its characters
    ("basic", ("grid",), "012", "bad grid: expected a list, not str"),
    ("basic", ("mu",), {"up": "111", "dn": "111"}, "bad measure: expected a list, not str"),
    ("basic", ("integrand_h", "functions", "up", 0, "breakpoints"), "0",
     "bad piecewise-linear function: expected a list, not str"),
    ("basic", ("integrand_h", "functions", "up", 0, "anchor"), "00",
     "bad piecewise-linear function: expected a list, not str"),
    ("basic", ("setmap_S", "up", "point_vals", 2), "02", "bad interval: expected a list, not str"),
    ("basic", ("setmap_S", "up", "point_vals", 2), {"0": 0, "2": 0},
     "bad interval: expected a list, not dict"),
    ("basic", ("tree", "partitions", 0, 0), "dnup", "bad tree: expected a list, not str"),
    ("cs", ("model", "G", "point_cones", 0, "generators", 0), "12",
     "bad cone: expected a list, not str"),
    ("obstacle", ("model", "b", "points", "up"), "132",
     "bad scalar process: expected a list, not str"),
    ("currency", ("model", "duals", 1, "u", 0), "00", "bad vector measure: expected a list, not str"),
    # a band model must describe the constraint map of its instance
    ("obstacle", ("model", "b", "points", "up", 2), "1",
     "the obstacle model's band differs from setmap_S"),
    ("bidask", ("model", "a", "points", "up", 2), "4",
     "the bidask model's band differs from setmap_S"),
    ("bidask", ("model", "b", "cells", "dn", 1), "0",
     "the bidask model's band differs from setmap_S"),
    # a JSON boolean is no rational, although rat(True) is 1
    ("basic", ("mu", "up", 0), True, "bad measure: not a rational: True"),
    ("basic", ("grid", 1), True, "bad grid: not a rational: True"),
    ("basic", ("setmap_S", "up", "point_vals", 2, 0), False, "bad interval: not a rational: False"),
    ("basic", ("tree", "probs", "up"), True, "bad tree: not a rational: True"),
    ("obstacle", ("model", "b", "cells", "up", 1), True,
     "bad scalar process: not a rational: True"),
    # scenario ids key the probabilities, so a non-string is named before the lookup
    ("basic", ("tree", "scenarios"), [1, 2], "bad tree: scenario ids must be strings"),
    ("basic", ("tree", "scenarios"), [["up"], "dn"], "bad tree: scenario ids must be strings"),
]

OWN_THEOREM = {"basic": "interchange-stoch", "obstacle": "support-ds", "bidask": "support-ds",
               "cs": "cs-regularity", "currency": "currency"}


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_verify_conjugate_on_golden_file(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = self.run("verify", bundled("basic"), "--theorem", "conjugate",
                        "--report", str(report))
        assert code == 0
        out = json.loads(report.read_text())
        assert out["pass"] is True
        assert out["theorem"] == "conjugate"
        capsys.readouterr()

    def test_reports_of_one_check_have_one_length(self, tmp_path, capsys, monkeypatch):
        # clock readings whose shortest reprs have 18 and 12 characters
        clock = iter([1792357393.6216547, 1792357393.5])
        monkeypatch.setattr(cli.time, "time", lambda: next(clock))
        texts = []
        for k in range(2):
            report = tmp_path / f"r{k}.json"
            assert self.run("verify", bundled("basic"), "--theorem", "interchange-stoch",
                            "--report", str(report)) == 0
            texts.append(report.read_text())
        capsys.readouterr()
        assert len(texts[0]) == len(texts[1])
        assert [json.loads(t)["timestamp"] for t in texts] == \
            ["1792357393.621655", "1792357393.500000"]

    def test_verify_involution_random_seeds(self, capsys):
        assert self.run("verify", bundled("basic"), "--theorem", "involution",
                        "--count", "100") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gap"] == 0

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nope\": 1}")
        report = tmp_path / "r.json"
        assert self.run("verify", str(bad), "--theorem", "conjugate",
                        "--report", str(report)) == 2
        assert_one_error_line(capsys, "schema error: missing key 'grid'")
        assert not report.exists()

    def test_budget_exceeded_exits_3(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert self.run("verify", bundled("basic"), "--theorem", "conjugate",
                        "--budget", "5", "--report", str(report)) == 3
        assert_one_error_line(capsys, "budget exceeded: ")
        assert not report.exists()

    def test_assumption_failure_strict_exits_4(self, capsys):
        assert self.run("verify", bundled("michael-violation"), "--theorem",
                        "interchange-det", "--strict") == 4
        capsys.readouterr()

    def test_gap_instance_fails_without_strict(self, capsys):
        assert self.run("verify", bundled("michael-violation"), "--theorem",
                        "interchange-det") == 1
        out = json.loads(capsys.readouterr().out)
        assert out["gap"] == "1"
        assert out["details"]["michael_failing_slots"] == [1]

    def test_every_theorem_has_a_passing_bundled_instance(self, capsys):
        cases = [
            ("basic", "involution"), ("basic", "recession-support"),
            ("basic", "conjugate"), ("basic", "subdiff"),
            ("basic", "interchange-stoch"), ("basic", "jensen"),
            ("basic", "michael"), ("basic", "projection"),
            ("deterministic", "interchange-det"),
            ("obstacle", "support-ds"), ("bidask", "support-ds"),
            ("currency", "currency"), ("cs", "cs-regularity"),
        ]
        for name, theorem in cases:
            assert self.run("verify", bundled(name), "--theorem", theorem) == 0, \
                (name, theorem)
            capsys.readouterr()

    def test_report_determinism_and_diff(self, tmp_path, capsys):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        for r in (r1, r2):
            assert self.run("verify", bundled("deterministic"), "--theorem",
                            "interchange-det", "--report", str(r)) == 0
            capsys.readouterr()
        assert self.run("report-diff", str(r1), str(r2)) == 0
        capsys.readouterr()
        other = tmp_path / "c.json"
        assert self.run("verify", bundled("deterministic"), "--theorem",
                        "support-ds", "--report", str(other)) == 0
        capsys.readouterr()
        assert self.run("report-diff", str(r1), str(other)) == 1
        capsys.readouterr()

    def test_model_subcommand_round_trips(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert self.run("model", "bidask", "-o", str(out)) == 0
        capsys.readouterr()
        idoc = load_instance(str(out))
        assert idoc.model.kind == "bidask"

    def test_refine_preserves_verification(self, tmp_path, capsys):
        fine = tmp_path / "fine.json"
        assert self.run("refine", bundled("basic"), "--factor", "2",
                        "-o", str(fine)) == 0
        capsys.readouterr()
        assert self.run("verify", str(fine), "--theorem", "conjugate") == 0
        capsys.readouterr()

    def test_env_var_budget(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.duality.BUDGET_ENV_VAR, "5")
        assert self.run("verify", bundled("basic"), "--theorem", "conjugate") == 3
        assert_one_error_line(capsys, "budget exceeded: ")

    def test_dual_atom_with_zero_denominator_exits_2(self, tmp_path, capsys):
        with open(bundled("basic"), encoding="utf-8") as fh:
            doc = json.load(fh)
        atoms = next(iter(doc["duals"][0]["u"].values()))
        atoms[0] = "1/0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert self.run("verify", str(bad), "--theorem", "conjugate") == 2
        assert_one_error_line(capsys, "schema error: bad measure: ")

    def test_huge_exponent_exits_2_at_once(self, tmp_path, capsys):
        with open(bundled("basic"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["integrand_h"]["functions"]["up"][0]["anchor"][1] = "1e-1000000000"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert self.run("verify", str(bad), "--theorem", "conjugate") == 2
        assert time.perf_counter() - start < 1
        assert_one_error_line(capsys, "schema error: bad piecewise-linear function: "
                                      "exponent beyond 4300")

    @staticmethod
    def basic_with_path_value(tmp_path, value, scenarios=("up",)):
        with open(bundled("basic"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for s in scenarios:
            doc["paths"][0][s][0] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("value", ["1e4300", "1e-4300"])
    def test_a_value_fmt_cannot_write_exits_2(self, value, tmp_path, capsys):
        edited = self.basic_with_path_value(tmp_path, value, ("up", "dn"))
        out = tmp_path / "fine.json"
        assert self.run("refine", edited, "--factor", "2", "-o", str(out)) == 2
        assert_one_error_line(capsys, f"schema error: bad path: more than 4300 digits "
                                      f"in '{value}'")
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_refined_value_fmt_cannot_write_exits_2(self, existing, tmp_path, capsys):
        # the grid loads; refining it by 10 makes the time 1e-4300, which
        # has one digit too many to be written
        doc = basic_doc()
        doc["grid"] = ["0", "1e-4299", "2"]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        out = tmp_path / "fine.json"
        if existing:
            out.write_text("kept\n")
        assert self.run("refine", str(edited), "--factor", "10", "-o", str(out)) == 2
        assert_one_error_line(capsys, "schema error: cannot write a value of more than "
                                      "4300 digits")
        assert out.read_text() == "kept\n" if existing else not out.exists()
        assert self.run("refine", str(edited), "--factor", "2", "-o", str(out)) == 0

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("theorem", ["jensen", "subdiff"])
    def test_a_report_value_fmt_cannot_write_exits_2(self, theorem, existing, tmp_path, capsys):
        # each atom loads (2,710 and 2,672 digits); the reports of these two
        # checks hold a value with more than 4300
        doc = basic_doc()
        for atoms in doc["mu"].values():
            atoms[0], atoms[2] = "1/" + str(2 ** 9000), "1/" + str(3 ** 5600)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        if existing:
            report.write_text("kept\n")
        assert self.run("verify", str(edited), "--theorem", theorem,
                        "--report", str(report)) == 2
        assert_one_error_line(capsys, "schema error: cannot write a value of more than "
                                      "4300 digits")
        assert report.read_text() == "kept\n" if existing else not report.exists()

    @pytest.mark.parametrize("preset, path, value, message", [
        pytest.param(*case, id=f"{case[0]}-{OWN_THEOREM[case[0]]}-path{i}")
        for i, case in enumerate(MODEL_EDITS)])
    def test_a_missing_model_key_exits_2(self, preset, path, value, message,
                                         tmp_path, capsys):
        """Every malformed model section, not only a missing key, every
        dual or path list that is not a list of objects, and every string or
        object where a list belongs is refused at load: a
        check that ignores the model, the model's own check and refine all
        exit 2 with one line and write nothing."""
        with open(bundled(preset), encoding="utf-8") as fh:
            doc = json.load(fh)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        for argv in (("verify", str(edited), "--theorem", "michael", "--report", str(out)),
                     ("verify", str(edited), "--theorem", OWN_THEOREM[preset],
                      "--report", str(out)),
                     ("refine", str(edited), "--factor", "2", "-o", str(out))):
            assert self.run(*argv) == 2, argv
            assert_one_error_line(capsys, f"schema error: {message}")
            assert not out.exists()

    @pytest.mark.parametrize("value", ["1e4299", "1e-4299"])
    def test_values_of_4300_digits_load_and_refine(self, value, tmp_path, capsys):
        edited = self.basic_with_path_value(tmp_path, value, ("up", "dn"))
        out = tmp_path / "fine.json"
        assert self.run("refine", edited, "--factor", "2", "-o", str(out)) == 0
        capsys.readouterr()
        fine = load_instance(str(out)).paths[0]
        assert fine.slot_values(0) == fine.slot_values(1) == \
            {"up": F(value), "dn": F(value)}

    def test_subdiff_rejects_a_path_that_is_not_adapted(self, tmp_path, capsys):
        edited = self.basic_with_path_value(tmp_path, "5")
        assert self.run("verify", edited, "--theorem", "subdiff") == 2
        assert_one_error_line(capsys, "schema error: path 0 is not adapted")
        # jensen projects the path and takes it as it is
        assert self.run("verify", edited, "--theorem", "jensen") == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("--theorem", "conjugate", "--B", "0"),
        ("--theorem", "conjugate", "--B", "-3"),
        ("--theorem", "conjugate", "--delta", "0"),
        ("--theorem", "conjugate", "--delta", "abc"),
        ("--theorem", "support-ds", "--delta", "1/0"),
        ("--theorem", "projection", "--x", "abc"),
        ("--theorem", "conjugate", "--budget", "-1"),
        # checked for every theorem, also one that never reads the value
        ("--theorem", "involution", "--B", "0"),
        ("--theorem", "involution", "--count", "-1"),
        ("--theorem", "recession-support", "--count", "-1"),
        ("--theorem", "currency", "--count", "-1"),
        ("--theorem", "currency", "--count", "0"),
    ])
    def test_bad_numeric_argument_exits_2(self, argv, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert self.run("verify", bundled("basic"), *argv, "--report", str(report)) == 2
        assert_one_error_line(capsys, "bad argument: --")
        assert not report.exists()

    @pytest.mark.parametrize("factor", ["1", "0", "-1"])
    def test_refine_factor_below_two_exits_2(self, factor, tmp_path, capsys):
        fine = tmp_path / "fine.json"
        assert self.run("refine", bundled("basic"), "--factor", factor,
                        "-o", str(fine)) == 2
        assert_one_error_line(capsys, "refinement factor must be >= 2")
        assert not fine.exists()

    def test_interchange_det_on_several_scenarios_raises(self, capsys):
        # the input is rejected by a ValueError that no exit code maps yet
        with pytest.raises(ValueError, match="single scenario"):
            self.run("verify", bundled("basic"), "--theorem", "interchange-det")
        assert capsys.readouterr().out == ""

    def test_involution_with_no_random_cases_passes(self, capsys):
        assert self.run("verify", bundled("basic"), "--theorem", "involution",
                        "--count", "0") == 0
        assert json.loads(capsys.readouterr().out)["pass"]

    @pytest.mark.parametrize("value", ["abc", "-3", "2.5"])
    def test_bad_env_var_budget_exits_2(self, value, monkeypatch, capsys):
        monkeypatch.setenv(cli.duality.BUDGET_ENV_VAR, value)
        assert self.run("verify", bundled("basic"), "--theorem", "conjugate") == 2
        assert_one_error_line(capsys, f"bad argument: {cli.duality.BUDGET_ENV_VAR}")

    def test_a_file_nested_100000_deep_exits_2(self, tmp_path, capsys):
        # json gives up with a RecursionError, which is no ValueError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert self.run("verify", str(deep), "--theorem", "conjugate") == 2
        assert_one_error_line(capsys, "schema error: cannot read instance file: ")
        assert self.run("report-diff", str(deep), str(deep)) == 2
        assert_one_error_line(capsys, "cannot read reports: ")

    def test_breakpoints_nested_to_the_recursion_limit_exit_2(self, tmp_path, capsys):
        # decoding, loading or comparing gives out first, by Python version;
        # each is one line and exit 2
        depth = sys.getrecursionlimit()
        doc = basic_doc()
        doc["integrand_h"]["functions"]["up"][0]["breakpoints"] = "NEST"
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps(doc).replace('"NEST"', "[" * depth + '"0"' + "]" * depth))
        assert self.run("verify", str(deep), "--theorem", "conjugate") == 2
        assert_one_error_line(capsys, "schema error: ")
        assert self.run("report-diff", str(deep), str(deep)) == 2
        assert_one_error_line(capsys, "cannot read reports: ")

    @pytest.mark.parametrize("module, name, argv, prefix", [
        (serialize, "pl", ("verify", bundled("basic"), "--theorem", "conjugate"),
         "schema error: cannot read instance file: "),
        (cli, "reports_equal", ("report-diff", bundled("basic"), bundled("basic")),
         "cannot read reports: "),
    ])
    def test_a_recursion_error_after_decoding_exits_2(self, module, name, argv, prefix,
                                                      monkeypatch, capsys):
        # where it arises past the decoder depends on the Python version and
        # the stack depth, so it is raised here by hand, while loading or comparing
        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(module, name, too_deep)
        assert self.run(*argv) == 2
        assert_one_error_line(capsys, prefix + "maximum recursion depth exceeded\n")

    @pytest.mark.parametrize("edit, prefix", [
        (lambda doc: doc["integrand_h"]["functions"]["up"][0].update(
            breakpoints=[["0"] * 100_000]), "schema error: bad piecewise-linear function: "),
        (lambda doc: doc.update(grid=["x" * 100_000] + doc["grid"][1:]),
         "schema error: bad grid: "),
    ], ids=["breakpoints", "grid"])
    def test_a_stderr_line_quoting_a_huge_value_is_cut(self, edit, prefix, tmp_path, capsys):
        # the message quotes the whole value; main cuts the line it prints
        doc = basic_doc()
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert self.run("verify", str(bad), "--theorem", "conjugate") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        assert len(captured.err) == 1001 and captured.err.endswith("...\n")

    def test_support_ds_without_0_in_stilde_at_0_verifies_minus_inf(self, tmp_path, capsys):
        # the left limit at t_0 is pinned to 0, so no path is a selection and
        # the support of the empty set is -inf, as the lattice search finds
        doc = basic_doc()
        for s in ("up", "dn"):
            doc["setmap_Stilde"][s]["point_vals"][0] = ["1", "2"]
        pinned = tmp_path / "pinned.json"
        pinned.write_text(json.dumps(doc))
        assert self.run("verify", str(pinned), "--theorem", "support-ds") == 0
        duals = json.loads(capsys.readouterr().out)["details"]["duals"]
        assert [(e["formula"], e["bruteforce"], e["verified"]) for e in duals] == \
            [("-inf", "-inf", True)] * 2

    def test_conjugate_without_0_in_stilde_at_0_verifies_minus_inf(self, tmp_path, capsys):
        # no path is feasible, so Fhat is +inf everywhere and its conjugate
        # is -inf, as the lattice search finds
        doc = basic_doc()
        for s in ("up", "dn"):
            doc["setmap_Stilde"][s]["point_vals"][0] = ["1", "2"]
        pinned = tmp_path / "pinned.json"
        pinned.write_text(json.dumps(doc))
        assert self.run("verify", str(pinned), "--theorem", "conjugate") == 0
        duals = json.loads(capsys.readouterr().out)["details"]["duals"]
        assert [(e["pointwise"], e["bruteforce"], e["verified"]) for e in duals] == \
            [("-inf", "-inf", True)] * 2

    def test_subdiff_with_every_path_skipped_fails(self, tmp_path, capsys):
        # a check that verified no (path, dual) pair has not passed
        doc = basic_doc()
        doc["paths"] = [{s: ["9"] * len(v) for s, v in p.items()} for p in doc["paths"]]
        skipped = tmp_path / "skipped.json"
        skipped.write_text(json.dumps(doc))
        assert self.run("verify", str(skipped), "--theorem", "subdiff") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["details"]["pairs"] == [
            {"path": k, "skipped": "infinite primal value"} for k in range(len(doc["paths"]))]

    def test_report_diff_on_a_non_object_exits_2(self, tmp_path, capsys):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        report = tmp_path / "r.json"
        assert self.run("verify", bundled("deterministic"), "--theorem",
                        "interchange-det", "--report", str(report)) == 0
        capsys.readouterr()
        for a, b in ((listed, report), (report, listed)):
            assert self.run("report-diff", str(a), str(b)) == 2
            assert_one_error_line(capsys, "cannot read reports:")

    @pytest.mark.parametrize("argv", [
        ("refine", bundled("basic"), "--factor", "2", "-o", "{missing}/fine.json"),
        ("model", "basic", "-o", "{missing}/basic.json"),
        ("verify", bundled("basic"), "--theorem", "michael",
         "--report", "{missing}/report.json"),
    ])
    def test_output_into_a_missing_directory_exits_2(self, argv, tmp_path, capsys):
        missing = tmp_path / "no" / "such"
        assert self.run(*(a.format(missing=missing) for a in argv)) == 2
        assert_one_error_line(capsys, "cannot write output:")
        assert not missing.exists()

    # refined instances built per verify call, whatever the number of dual
    # pairs: the assumption report, support_DS, the interchange infima and
    # the Fhat witness's price read the fine coordinates from the coarse
    # instance and build none; the oracle (conjugate, support-ds) builds one
    @pytest.mark.parametrize("theorem, check_builds, report_builds", [
        ("subdiff", 0, 0), ("interchange-stoch", 0, 0), ("interchange-stoch --form F", 0, 0),
        ("conjugate", 1, 0), ("support-ds", 1, 0),
    ])
    def test_verify_refines_once_per_entry_point(self, theorem, check_builds,
                                                 report_builds, monkeypatch, capsys):
        assert len(load_instance(bundled("basic")).duals) > 1
        builds = []
        build = Instance._refine

        def counting(inst, factor):
            builds.append(factor)
            return build(inst, factor)

        monkeypatch.setattr(Instance, "_refine", counting)
        assert self.run("verify", bundled("basic"), "--theorem", *theorem.split()) == 0
        capsys.readouterr()
        assert builds == [2] * (check_builds + report_builds)

    @pytest.mark.parametrize("argv", [
        ("verify", "{bad}", "--theorem", "conjugate"),
        ("refine", "{bad}", "--factor", "2", "-o", "{out}"),
    ])
    def test_non_utf8_instance_file_exits_2(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff")
        out = tmp_path / "fine.json"
        assert self.run(*(a.format(bad=bad, out=out) for a in argv)) == 2
        assert_one_error_line(capsys, "schema error: cannot read instance file:")
        assert not out.exists()

    def test_parser_is_built_once(self, monkeypatch, capsys):
        cli._parser.cache_clear()
        builds = []
        build = cli.build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        for _ in range(3):
            assert self.run("verify", bundled("basic"), "--theorem", "michael") == 0
        capsys.readouterr()
        assert len(builds) == 1

    def test_no_argument_state_carries_over_between_calls(self, capsys):
        gap = ("verify", bundled("michael-violation"), "--theorem", "interchange-det")
        assert self.run(*gap, "--strict") == 4
        assert self.run(*gap) == 1
        involution = ("verify", bundled("basic"), "--theorem", "involution")
        assert self.run(*involution, "--count", "3") == 0
        capsys.readouterr()
        assert self.run(*involution) == 0
        inst = load_instance(bundled("basic")).instance
        own = sum(len(fns) for fam in (inst.h, inst.htilde) for fns in fam.functions.values())
        assert json.loads(capsys.readouterr().out)["lhs"] == own + 100
        with pytest.raises(SystemExit) as exc:
            self.run("verify", bundled("basic"), "--theorem", "no-such-theorem")
        assert exc.value.code == 2
        capsys.readouterr()
        assert self.run("verify", bundled("basic"), "--theorem", "michael") == 0
        assert json.loads(capsys.readouterr().out)["theorem"] == "michael"


# the commands that write a file, each with the path as its last argument
WRITERS = {
    "report": ("verify", bundled("basic"), "--theorem", "michael", "--report"),
    "model": ("model", "basic", "-o"),
    "refine": ("refine", bundled("basic"), "--factor", "2", "-o"),
}


class TestOverwriteInPlace:
    """--report and -o overwrite a file in place: no truncation to zero
    first, the text is cut to length at the end, and the file keeps its
    inode, mode and hard links; a symlink is followed."""

    def write(self, kind, path, tmp_path, capsys) -> bytes:
        """Run the command writing ``path``; the bytes it must leave there."""
        assert cli.main([*WRITERS[kind], str(path)]) == 0
        out = capsys.readouterr().out
        if kind == "report":  # the same text goes to stdout, timestamp included
            return out.encode("utf-8")
        fresh = tmp_path / "fresh-reference.json"
        assert cli.main([*WRITERS[kind], str(fresh)]) == 0
        capsys.readouterr()
        return fresh.read_bytes()

    @pytest.mark.parametrize("kind", WRITERS)
    def test_a_shorter_text_leaves_only_the_new_bytes(self, kind, tmp_path, capsys):
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 100_000)
        inode = path.stat().st_ino
        want = self.write(kind, path, tmp_path, capsys)
        assert path.read_bytes() == want
        assert path.stat().st_ino == inode
        assert self.write(kind, path, tmp_path, capsys) == path.read_bytes()

    @pytest.mark.parametrize("kind", WRITERS)
    def test_no_open_truncates(self, kind, tmp_path, monkeypatch, capsys):
        opened = []
        real_open = serialize.os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)
        monkeypatch.setattr(serialize.os, "open", recording_open)
        path = tmp_path / "out.json"
        for _ in range(2):  # a new file, then an existing one
            self.write(kind, path, tmp_path, capsys)
        assert [p for p, _ in opened].count(str(path)) == 2
        assert not any(flags & os.O_TRUNC for _, flags in opened)

    @pytest.mark.parametrize("kind", WRITERS)
    def test_a_symlink_is_followed(self, kind, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_bytes(b"x" * 100_000)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        want = self.write(kind, link, tmp_path, capsys)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == want

    @pytest.mark.parametrize("kind", WRITERS)
    def test_a_hard_link_shows_the_new_bytes(self, kind, tmp_path, capsys):
        path, other = tmp_path / "out.json", tmp_path / "other.json"
        path.write_bytes(b"x" * 100_000)
        os.link(path, other)
        want = self.write(kind, path, tmp_path, capsys)
        assert other.read_bytes() == want
        assert path.stat().st_ino == other.stat().st_ino
        assert path.stat().st_nlink == 2

    @pytest.mark.parametrize("kind", WRITERS)
    def test_an_existing_file_keeps_its_mode(self, kind, tmp_path, capsys):
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 100_000)
        path.chmod(0o604)
        self.write(kind, path, tmp_path, capsys)
        assert path.stat().st_mode & 0o7777 == 0o604

    @pytest.mark.parametrize("kind", WRITERS)
    def test_a_new_file_gets_0o666_less_the_umask(self, kind, tmp_path, capsys):
        path = tmp_path / "out.json"
        old = os.umask(0o027)
        try:
            self.write(kind, path, tmp_path, capsys)
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o7777 == 0o640

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    @pytest.mark.parametrize("kind", WRITERS)
    def test_a_device_is_written_without_cutting_it(self, kind, capsys):
        """A file that is not a regular one cannot be truncated; it is only written."""
        assert cli.main([*WRITERS[kind], os.devnull]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind", WRITERS)
    def test_a_directory_exits_2(self, kind, tmp_path, capsys):
        assert cli.main([*WRITERS[kind], str(tmp_path)]) == 2
        assert_one_error_line(capsys, "cannot write output:")
        assert tmp_path.is_dir()

    def test_an_unwritable_refined_value_leaves_the_file_untouched(self, tmp_path, capsys):
        # refining this grid by 10 makes the time 1e-4300: one digit too many
        doc = basic_doc()
        doc["grid"] = ["0", "1e-4299", "2"]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        out = tmp_path / "fine.json"
        with open(bundled("basic"), "rb") as fh:
            kept = fh.read()
        out.write_bytes(kept)
        before = out.stat()
        assert cli.main(["refine", str(edited), "--factor", "10", "-o", str(out)]) == 2
        assert_one_error_line(capsys, "schema error: cannot write a value of more than "
                                      "4300 digits")
        assert out.read_bytes() == kept
        after = out.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == \
            (before.st_ino, before.st_size, before.st_mtime_ns)


def _golden_preset_cli():
    with open(GOLDEN_PRESET_CLI, encoding="utf-8") as fh:
        return json.load(fh)


def _golden_argv(label: str, work) -> tuple:
    """Command line of a golden op label, and the file it writes, if any."""
    kind, name, *tag = label.split()
    base = str(work / f"{name}.json")
    if kind == "model":
        return ["model", name, "-o", base], base
    if kind == "refine":
        fine = str(work / f"{name}-x2.json")
        return ["refine", base, "--factor", "2", "-o", fine], fine
    theorem, *variant = tag[0].split(".")
    argv = ["verify", base, "--theorem", theorem]
    if variant:
        flag = {"interchange-det": "--side", "interchange-stoch": "--form"}[theorem]
        argv += [flag, variant[0]]
    return argv, None


class TestGoldenPresetCli:
    """Replay the recorded preset sweep: written files and verify reports.

    Ops recorded as raising (interchange-det on multi-scenario presets) are
    not replayed; the sweep records them as a known defect.
    """

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_outcomes_match_golden(self, preset, tmp_path, capsys):
        golden = _golden_preset_cli()
        labels = [k for k in golden if k.split()[1] == preset
                  and "raise" not in golden[k]]
        # model writes the file every later op of the preset reads
        labels.sort(key=lambda k: ("model", "refine", "verify").index(k.split()[0]))
        for label in labels:
            want = golden[label]
            argv, written = _golden_argv(label, tmp_path)
            code = cli.main(argv)
            text = capsys.readouterr().out
            assert code == want["exit"], label
            if written is not None:
                with open(written, "rb") as fh:
                    assert hashlib.sha256(fh.read()).hexdigest() == want["file_sha256"], label
            elif code in (cli.EXIT_PASS, cli.EXIT_FAIL):
                report = json.loads(text)
                del report["timestamp"]
                assert report == want["report"], label

    def test_only_interchange_det_ops_are_skipped(self):
        golden = _golden_preset_cli()
        raising = [k for k, v in golden.items() if "raise" in v]
        assert all(k.split()[2].startswith("interchange-det.") for k in raising)
