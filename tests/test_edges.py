"""Edge cases across modules: infinite arguments, minimal schemas, convergence."""

import json
from fractions import Fraction as F

import pytest

from cadlagconvex import cli
from cadlagconvex.duality import conj_bruteforce, conj_pointwise
from cadlagconvex.plconvex import (EMPTY_INTERVAL, RInterval, abs_fn, indicator, pl,
                                   restrict)
from cadlagconvex.presets import bundled_instance_path
from cadlagconvex.rationals import INF, NEG_INF, ext, fmt, rat, xmul, xneg, xsum
from cadlagconvex.serialize import tree_from_json
from cadlagconvex.timegrid import TimeGrid

from conftest import affine
from test_duality import det_dual, det_instance


@pytest.mark.parametrize("fn", [indicator(RInterval(F(0), F(2))), abs_fn(),
                                affine(F(-2), F(5)), pl(F(1), INF, (), (F(0),), F(1), F(7))],
                         ids=["bounded", "kinked", "falling", "flat-tailed"])
@pytest.mark.parametrize("x", [INF, NEG_INF, 2])
def test_eval_refuses_an_infinite_argument(fn, x):
    """Every caller evaluates at a finite Fraction; an infinite point is an
    error, not a limit, whatever the tails of the function, and so is an int."""
    with pytest.raises(ValueError, match=f"^eval needs a finite Fraction, got {x!r}$"):
        fn.eval(x)


class TestRestrict:
    def test_disjoint_interval_rejected(self):
        with pytest.raises(ValueError):
            restrict(indicator(RInterval(F(0), F(1))), RInterval(F(5), F(6)))

    def test_restriction_reindexes_anchor(self):
        fn = restrict(abs_fn(), RInterval(F(2), F(4)))
        assert fn(F(3)) == 3 and fn(F(1)) == INF


class TestExtendedArithmetic:
    def test_parse_and_format_round_trip(self):
        for text in ("3/4", "-7", "inf", "-inf"):
            assert fmt(ext(text)) == text

    def test_zero_times_infinity_is_zero(self):
        assert xmul(F(0), INF) == 0
        assert xmul(NEG_INF, F(0)) == 0

    def test_plus_infinity_dominates_in_cost_sums(self):
        assert xsum([F(1), NEG_INF, INF]) == INF
        assert xsum([F(1), NEG_INF]) == NEG_INF

    def test_rat_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)


A = F(-3, 2)  # the finite entry of the sentinel tables
SENTINEL_PAIRS = {
    # (x, y): (xmul, xsum([x, y]))
    (A, A): (F(9, 4), F(-3)),
    (A, INF): (NEG_INF, INF),
    (A, NEG_INF): (INF, NEG_INF),
    (INF, A): (NEG_INF, INF),
    (INF, INF): (INF, INF),
    (INF, NEG_INF): (NEG_INF, INF),
    (NEG_INF, A): (INF, NEG_INF),
    (NEG_INF, INF): (NEG_INF, INF),
    (NEG_INF, NEG_INF): (INF, NEG_INF),
}


def assert_same(got, want):
    assert type(got) is type(want) and got == want, (got, want)


class TestSentinelTables:
    @pytest.mark.parametrize("x, text, negated", [
        (A, "-3/2", F(3, 2)), (INF, "inf", NEG_INF), (NEG_INF, "-inf", INF)])
    def test_fmt_and_xneg(self, x, text, negated):
        assert fmt(x) == text
        assert_same(xneg(x), negated)

    @pytest.mark.parametrize("x, y", list(SENTINEL_PAIRS))
    def test_xadd_xmul_xsum(self, x, y):
        mul, total = SENTINEL_PAIRS[(x, y)]
        assert_same(xmul(x, y), mul)
        assert_same(xsum([x, y]), total)

    def test_int_terms_still_add(self):
        assert_same(xsum([1, F(1, 2)]), F(3, 2))

    @pytest.mark.parametrize("lo, hi, message", [
        (INF, INF, "interval endpoint has the wrong infinity"),
        (NEG_INF, NEG_INF, "interval endpoint has the wrong infinity"),
        (1, 0, "empty interval bounds [1, 0]"),
        (0.5, 1, "interval endpoints must be rational or infinite"),
        (F(1), NEG_INF, "empty interval bounds [1, -inf]"),
        (INF, F(0), "empty interval bounds [inf, 0]"),
        (float("nan"), F(0), "interval endpoints must be rational or infinite"),
    ])
    def test_bad_intervals_keep_their_messages(self, lo, hi, message):
        with pytest.raises(ValueError) as exc:
            RInterval(lo, hi)
        assert str(exc.value) == message

    def test_only_the_empty_sentinel_is_empty(self):
        fresh_empty = RInterval(float("inf"), float("-inf"))
        assert fresh_empty.is_empty and EMPTY_INTERVAL.is_empty
        for iv in (RInterval.whole_line(), RInterval(F(0), INF), RInterval(NEG_INF, F(0)),
                   RInterval.singleton(F(2)), RInterval(F(-1), F(1))):
            assert not iv.is_empty


def test_tree_document_without_scenarios_key():
    tree = tree_from_json({
        "probs": {"a": "1/2", "b": "1/2"},
        "partitions": [[["a", "b"]], [["a"], ["b"]]],
    })
    assert tree.scenarios == ("a", "b")
    assert tree.prob("a") == F(1, 2)


def test_bruteforce_converges_with_finer_lattice():
    clipped = restrict(abs_fn(), RInterval(F(0), F(1)))
    inst = det_instance([abs_fn(), clipped], (1, 0), grid=TimeGrid((0, 1)))
    d = det_dual(inst, (F(1, 3), 3))
    target = conj_pointwise(inst, d)
    previous = NEG_INF
    for delta in (F(1, 2), F(1, 4), F(1, 8), F(1, 24)):
        val = conj_bruteforce(inst, d, B=4, delta=delta)
        assert val <= target
        assert previous == NEG_INF or val >= previous - F(0)  # never moves away
        previous = val
    # denominators dividing the data lattice reach the target exactly
    assert conj_bruteforce(inst, d, B=4, delta=F(1, 24)) == target


class TestCliVariants:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_interchange_det_caglad_side(self, capsys):
        assert self.run("verify", bundled_instance_path("deterministic"),
                        "--theorem", "interchange-det", "--side", "caglad") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True

    def test_interchange_stoch_plain_form(self, capsys):
        assert self.run("verify", bundled_instance_path("basic"),
                        "--theorem", "interchange-stoch", "--form", "F") == 0
        capsys.readouterr()

    def test_projection_custom_anchor(self, capsys):
        assert self.run("verify", bundled_instance_path("basic"),
                        "--theorem", "projection", "--x", "3/2") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["details"]["x"] == "3/2"
