"""The lattice oracle's candidate search against an every-point reference.

``conj_bruteforce`` scores only the ends of each coordinate's lattice
range and the lattice neighbours of the charged integrands' knots, in
integers, and each (slot, cell) only once, on the cell's first scenario,
weighted by the cell's mass.  The reference below is the search it replaced:
it intersects the set of every scenario of the cell and sums the
per-scenario objectives over every lattice point of every coordinate, in
Fractions.  They must agree exactly, in value and type, and in the
lattice-point count the budget is checked against.  The lattice radius
``Instance.magnitude_bound`` keeps its Fraction reference here too.
"""

import hashlib
import json
import math
import random
from fractions import Fraction as F
from typing import List, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import _fixed_value_sets, _zero_start_cost, _zero_start_ok, preset, rand_setmap

from cadlagconvex import cli, duality
from cadlagconvex.duality import (FINE, BudgetExceededError, conj_bruteforce,
                                  make_instance, resolve_budget)
from cadlagconvex.generators import rand_finite_dual, rand_passing_instance
from cadlagconvex.plconvex import PLConvex
from cadlagconvex.presets import bundled_instance_path
from cadlagconvex.rationals import INF, NEG_INF, is_finite, rat, xmul, xneg, xsum
from cadlagconvex.scenario import RandomSetMap
from cadlagconvex.serialize import dump_report


def reference_conj_bruteforce(inst, d, B, delta, budget: Optional[int] = None):
    """Every-point lattice search: each coordinate's feasible lattice in full."""
    B, delta = rat(B), rat(delta)
    if B <= 0 or delta <= 0:
        raise ValueError("B and delta must be positive")
    budget = resolve_budget(budget)
    r = inst.refine(FINE)
    rd = d.refine(FINE)
    tree, n = r.tree, r.grid.n_slots
    steps = int((2 * B) / delta)
    lattice = [-B + k * delta for k in range(steps + 1)]
    needed = 0
    coords = []
    sets = _fixed_value_sets(r)
    for i in range(n):
        for cell in tree.cells(i):
            # every scenario's set, not only the first one's
            pts: List[F] = [v for v in lattice if all(sets[s][i].contains(v) for s in cell)]
            needed += len(pts)
            coords.append((i, cell, pts))
    if needed > budget:
        raise BudgetExceededError(needed, budget)

    if not all(_zero_start_ok(r, s) for s in tree.scenarios):
        return NEG_INF
    total = xneg(_zero_start_cost(r))
    if total == NEG_INF:
        return NEG_INF

    for i, cell, pts in coords:
        best = NEG_INF
        data = []
        for s in cell:
            p = tree.prob(s)
            coeff = rd.u.measures[s].atoms[i]
            if i + 1 < n:
                coeff = coeff + rd.ut.measures[s].atoms[i + 1]
            mu_i = r.mu.measures[s].atoms[i]
            mut_next = r.mutilde.measures[s].atoms[i + 1] if i + 1 < n else F(0)
            data.append((p, coeff, mu_i, r.h.functions[s][i],
                         mut_next, r.htilde.functions[s][i + 1] if i + 1 < n else None))
        for v in pts:
            val = F(0)
            for p, coeff, mu_i, hfn, mut_next, htfn in data:
                cost = F(0)
                if mu_i > 0:
                    cost = xmul(mu_i, hfn.eval(v))
                if mut_next > 0 and cost != INF:
                    cost = xsum([cost, xmul(mut_next, htfn.eval(v))])
                if cost == INF:
                    val = NEG_INF
                    break
                val += p * (coeff * v - cost)
            if val != NEG_INF and (best == NEG_INF or val > best):
                best = val
        if best == NEG_INF:
            return NEG_INF
        total = xsum([total, best])
    return total


def outcome(search, inst, d, B, delta, budget=None):
    """("value", v) or ("needed", n) when the budget is exceeded."""
    try:
        return ("value", search(inst, d, B, delta, budget=budget))
    except BudgetExceededError as exc:
        return ("needed", exc.needed)


def with_shared_constraints(inst, smap):
    """The instance with every scenario constrained by ``smap`` (so adapted)."""
    S = RandomSetMap(inst.tree, inst.grid, {s: smap for s in inst.tree.scenarios})
    return make_instance(inst.tree, inst.grid, inst.h, inst.mu, inst.mutilde,
                         inst.htilde, S, S.vec_map())


@st.composite
def oracle_cases(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    inst = rand_passing_instance(rng, max_scenarios=3, max_cells=3,
                                 with_htilde=draw(st.booleans()))
    kind = draw(st.sampled_from(["passing", "constraint_indicator", "constrained"]))
    if kind == "constraint_indicator":
        inst = cli._constraint_indicator(inst)
    elif kind == "constrained":
        # random intervals include singletons (pinched sets) and point values
        # escaping their cells (no feasible path, the -inf sentinel)
        inst = with_shared_constraints(inst, rand_setmap(rng, inst.grid))
    d = rand_finite_dual(rng, inst)
    # B from below the knots (which reach 3) to past them; delta coarse or
    # fine, with 2B/delta often not an integer
    B = draw(st.fractions(min_value=F(1, 4), max_value=7, max_denominator=4))
    delta = F(draw(st.integers(1, 5)), draw(st.integers(1, 12)))
    assume(B / delta <= 60)
    return inst, d, B, delta


class TestCandidateSearch:
    @settings(max_examples=200, deadline=None)
    @given(oracle_cases())
    def test_equals_every_point_search(self, case):
        inst, d, B, delta = case
        fast = outcome(conj_bruteforce, inst, d, B, delta)
        slow = outcome(reference_conj_bruteforce, inst, d, B, delta)
        assert fast == slow
        assert type(fast[1]) is type(slow[1])
        assert outcome(conj_bruteforce, inst, d, B, delta, budget=0) == \
            outcome(reference_conj_bruteforce, inst, d, B, delta, budget=0)

    @settings(max_examples=100, deadline=None)
    @given(oracle_cases())
    def test_cells_with_unequal_probabilities(self, case):
        # the oracle weights one scenario's objective by the cell's mass; the
        # reference sums each scenario's objective with its own probability
        inst, d, B, delta = case
        tree = inst.tree
        assume(any(len({tree.prob(s) for s in cell}) > 1
                   for i in range(tree.n_slots) for cell in tree.cells(i)))
        for budget in (None, 0):
            fast = outcome(conj_bruteforce, inst, d, B, delta, budget=budget)
            slow = outcome(reference_conj_bruteforce, inst, d, B, delta, budget=budget)
            assert fast == slow
            assert type(fast[1]) is type(slow[1])

    def test_cases_cover_sentinel_and_htilde(self):
        # the strategy's draws reach the cases the candidate rule must get right
        rng = random.Random(5)
        seen = set()
        for k in range(60):
            inst = rand_passing_instance(rng, max_scenarios=3, max_cells=3,
                                         with_htilde=True)
            if any(a > 0 for m in inst.mutilde.measures.values() for a in m.atoms):
                seen.add("mutilde")
            inst = with_shared_constraints(inst, rand_setmap(rng, inst.grid))
            d = rand_finite_dual(rng, inst)
            value = conj_bruteforce(inst, d, 2, F(1, 3))
            assert value == reference_conj_bruteforce(inst, d, 2, F(1, 3))
            seen.add("neg_inf" if value == NEG_INF else "finite")
        assert seen == {"mutilde", "neg_inf", "finite"}


def eval_bound(inst) -> int:
    """Most integrand evaluations one conj_bruteforce call can make on ``inst``.

    Per (slot, cell): each charged integrand of each scenario is read at
    most once per scored candidate, and there are at most two candidates
    per knot of a charged integrand plus the two range ends.  The forced
    left start adds one evaluation per scenario charged at time 0.
    """
    r = inst.refine(FINE)
    tree, n = r.tree, r.grid.n_slots
    total = sum(1 for s in tree.scenarios if r.mutilde.measures[s].atoms[0] > 0)
    for i in range(n):
        for cell in tree.cells(i):
            charged = []
            for s in cell:
                if r.mu.measures[s].atoms[i] > 0:
                    charged.append(r.h.functions[s][i])
                if i + 1 < n and r.mutilde.measures[s].atoms[i + 1] > 0:
                    charged.append(r.htilde.functions[s][i + 1])
            candidates = 2 + sum(2 * len(fn.knots()) for fn in charged)
            total += len(charged) * candidates
    return total


class TestEvalCount:
    @pytest.mark.parametrize("delta", [F(1, 100), F(1, 100000)])
    def test_evaluations_do_not_grow_as_delta_shrinks(self, delta, monkeypatch):
        """The pinned start calls PLConvex.eval; every other coordinate scores
        its candidates in _best_numerator, each against every charge."""
        idoc = preset("basic")
        inst = idoc.instance
        B = 2 * inst.magnitude_bound()
        bound = eval_bound(inst)
        # the lattice grows with 1/delta; the bound on evaluations does not
        assert bound < math.floor(2 * B / delta)
        r = inst.refine(FINE)
        coordinates = sum(len(r.tree.cells(i)) for i in range(r.grid.n_slots))
        original_eval, original_score = PLConvex.eval, duality._best_numerator
        for d in idoc.duals:
            calls = scored = 0

            def count(k):
                nonlocal calls
                calls += k
                # stops an every-point search long before it ends
                assert calls <= bound, f"more than {bound} evaluations"

            def counting_eval(fn, x):
                count(1)
                return original_eval(fn, x)

            def counting_score(ks, p0, p1, charges):
                nonlocal scored
                scored += 1
                count(len(ks) * len(charges))
                return original_score(ks, p0, p1, charges)

            monkeypatch.setattr(PLConvex, "eval", counting_eval)
            monkeypatch.setattr(duality, "_best_numerator", counting_score)
            value = conj_bruteforce(inst, d, B, delta, budget=10 ** 12)
            monkeypatch.undo()
            assert value != NEG_INF
            assert scored == coordinates and calls > 0


# Bundled `basic` on a lattice whose 2B/delta = 182/3 is no integer: each of
# its knots -2, ..., 2 falls strictly between two lattice points, so every
# knot's floor and ceil index differ.  The reports were recorded before the
# oracle scored its candidates in integers.
NON_DYADIC = ("--B", "13/3", "--delta", "1/7")
NON_DYADIC_REPORTS = {
    "conjugate": (1, "c0d1ddda629ae6e64ca725b7ecbc476f1f6076b1aeaf538cd0986855e7f4560b", {
        "assumptions_ok": True, "bound": "3/7", "gap": "2/7", "lhs": "3", "pass": False,
        "rhs": "19/7", "theorem": "conjugate",
        "details": {"B": "13/3", "delta": "1/7", "duals": [
            {"bound": "3/7", "bruteforce": "19/7", "dual": 0, "gap": "2/7",
             "pointwise": "3", "verified": True},
            {"bound": "1/7", "bruteforce": "53/42", "dual": 1, "gap": "5/21",
             "pointwise": "3/2", "verified": False}]}}),
    "support-ds": (0, "bb8c99ad664c2512ab60c1a0c074c11750d2f664c800810bebdc90e028b3f797", {
        "assumptions_ok": True, "bound": "3/7", "gap": "4/21", "lhs": "6", "pass": True,
        "rhs": "122/21", "theorem": "support-ds",
        "details": {"duals": [
            {"bound": "3/7", "bruteforce": "122/21", "dual": 0, "formula": "6",
             "gap": "4/21", "verified": True},
            {"bound": "1/7", "bruteforce": "41/21", "dual": 1, "formula": "2",
             "gap": "1/21", "verified": True}]}}),
}


@pytest.mark.parametrize("theorem", sorted(NON_DYADIC_REPORTS))
def test_a_non_dyadic_lattice_keeps_its_reports(theorem, capsys):
    assert 2 * F(13, 3) / F(1, 7) == F(182, 3)
    code = cli.main(["verify", str(bundled_instance_path("basic")), "--theorem", theorem,
                     *NON_DYADIC])
    report = json.loads(capsys.readouterr().out)
    del report["timestamp"]
    want_code, want_sha256, want = NON_DYADIC_REPORTS[theorem]
    assert {k: v for k, v in report.items() if k != "assumptions"} == want
    assert all(a["ok"] for a in report["assumptions"])
    assert code == want_code
    text = dump_report(report, None)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want_sha256


def reference_magnitude_bound(inst):
    """Instance._magnitude_bound as it was in Fractions: max of |v| over the
    knots of each distinct integrand and the finite constraint ends."""
    best = F(1)
    distinct = {id(fn): fn for fam in (inst.h, inst.htilde)
                for fns in fam.functions.values() for fn in fns}
    for fn in distinct.values():
        for b in fn.knots():
            best = max(best, abs(b))
    for rsm in (inst.S, inst.Stilde):
        for sm in rsm.maps.values():
            for iv in sm.point_vals + sm.open_vals:
                for side in (iv.lo, iv.hi):
                    if is_finite(side):
                        best = max(best, abs(side))
    return best


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_magnitude_bound_equals_its_fraction_reference(seed, with_htilde, constrained):
    rng = random.Random(seed)
    inst = rand_passing_instance(rng, max_scenarios=3, max_cells=3, with_htilde=with_htilde)
    if constrained:
        inst = with_shared_constraints(inst, rand_setmap(rng, inst.grid))
    for case in (inst, cli._constraint_indicator(inst)):
        got, want = case._magnitude_bound(), reference_magnitude_bound(case)
        assert got == want and type(got) is F


def test_the_support_oracle_holds_one_function_per_distinct_interval():
    """The constraint-indicator instance of support-ds gives every slot whose
    constraint is the same interval the same function object, in h and in
    the default htilde alike."""
    repeats = 0
    for seed in range(6):
        inst = rand_passing_instance(random.Random(seed), max_scenarios=3, max_cells=3)
        oracle = cli._constraint_indicator(inst)
        for fam, rsm in ((oracle.h, oracle.S), (oracle.htilde, oracle.Stilde)):
            by_interval = {}
            for s in oracle.tree.scenarios:
                for iv, fn in zip(rsm.maps[s].point_vals, fam.functions[s]):
                    repeats += iv in by_interval
                    assert by_interval.setdefault(iv, fn) is fn, seed
            fns = [fn for fns in fam.functions.values() for fn in fns]
            assert len({id(fn) for fn in fns}) == len(by_interval), seed
    assert repeats > 0  # the draws do repeat intervals
