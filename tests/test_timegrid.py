"""Step paths, atomic measures, the pairing and the I/J functionals."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadlagconvex.plconvex import RInterval, abs_fn, indicator, restrict
from cadlagconvex.rationals import INF
from cadlagconvex.timegrid import (GridMeasure, StepPath, TimeGrid, eval_I,
                                   eval_J, lebesgue_decompose, pairing)

G2 = TimeGrid((0, 1))
G3 = TimeGrid((0, 1, 2))


class TestLeftVersion:
    def test_left_limit_at_zero_is_zero(self):
        assert StepPath(G2, (5, 7)).left_values() == (F(0), F(5))

    def test_constant_path(self):
        assert StepPath(G3, (4, 4, 4)).left_values() == (F(0), F(4), F(4))

    def test_shift(self):
        assert StepPath(G3, (1, 3, 2)).left_values() == (F(0), F(1), F(3))


class TestPairing:
    def test_left_limit_kills_initial_atom(self):
        y = StepPath(G2, (1, 1))
        u = GridMeasure(G2, (0, 2))
        ut = GridMeasure(G2, (3, 0))
        assert pairing(y, u, ut) == 2

    def test_predictable_atom_sees_left_value(self):
        y = StepPath(G2, (1, 1))
        assert pairing(y, GridMeasure.zero(G2), GridMeasure(G2, (0, 3))) == 3

    def test_direct_sum(self):
        y = StepPath(G2, (1, 3))
        u = GridMeasure(G2, (1, 1))
        ut = GridMeasure(G2, (0, 2))
        assert pairing(y, u, ut) == 1 * 1 + 3 * 1 + 1 * 2 == 6

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            pairing(StepPath(G2, (0, 0)), GridMeasure.zero(G3), GridMeasure.zero(G3))

    def test_bilinearity_on_random_data(self):
        rng = random.Random(5)

        def rnd(n):
            return tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n))

        for _ in range(50):
            y1, y2 = StepPath(G3, rnd(3)), StepPath(G3, rnd(3))
            u1, u2 = GridMeasure(G3, rnd(3)), GridMeasure(G3, rnd(3))
            ut1, ut2 = GridMeasure(G3, rnd(3)), GridMeasure(G3, rnd(3))
            lam = F(rng.randint(-3, 3), 2)
            mix = StepPath(G3, tuple(lam * a + b for a, b in zip(y1.values, y2.values)))
            assert pairing(mix, u1, ut1) == \
                lam * pairing(y1, u1, ut1) + pairing(y2, u1, ut1)
            mixed_u = GridMeasure(G3, tuple(lam * a + b for a, b in zip(u1.atoms, u2.atoms)))
            mixed_ut = GridMeasure(G3, tuple(lam * a + b for a, b in zip(ut1.atoms, ut2.atoms)))
            assert pairing(y1, mixed_u, mixed_ut) == \
                lam * pairing(y1, u1, ut1) + pairing(y1, u2, ut2)


class TestLebesgue:
    def test_slotwise_split(self):
        theta = GridMeasure(G3, (2, 0, 3))
        mu = GridMeasure(G3, (1, 1, 0))
        split = lebesgue_decompose(theta, mu)
        assert split.density == (F(2), F(0), None)
        assert split.singular == (None, None, F(3))
        assert split.recombine(mu) == theta

    def test_identity_density(self):
        mu = GridMeasure(G3, (1, 2, 0))
        split = lebesgue_decompose(mu, mu)
        assert split.density[:2] == (F(1), F(1))
        assert split.singular[2] == 0

    def test_zero_measure(self):
        z = GridMeasure.zero(G3)
        split = lebesgue_decompose(z, GridMeasure(G3, (1, 0, 1)))
        assert split.recombine(GridMeasure(G3, (1, 0, 1))) == z

    def test_negative_reference_rejected(self):
        with pytest.raises(ValueError):
            lebesgue_decompose(GridMeasure.zero(G3), GridMeasure(G3, (1, -1, 0)))

    def test_recombination_on_random_data(self):
        rng = random.Random(9)
        for _ in range(50):
            theta = GridMeasure(G3, tuple(F(rng.randint(-5, 5), 2) for _ in range(3)))
            mu = GridMeasure(G3, tuple(F(rng.randint(0, 3)) for _ in range(3)))
            assert lebesgue_decompose(theta, mu).recombine(mu) == theta


class TestEvalI:
    def test_direct_sum(self):
        y = StepPath(G2, (2, -1))
        mu = GridMeasure(G2, (1, 3))
        assert eval_I([abs_fn()] * 2, y, mu) == 5

    def test_zero_measure(self):
        assert eval_I([abs_fn()] * 2, StepPath(G2, (7, 7)), GridMeasure.zero(G2)) == 0

    def test_constraint_violation_dominates(self):
        h = [indicator(RInterval(F(0), F(1)))] * 2
        assert eval_I(h, StepPath(G2, (2, 0)), GridMeasure(G2, (1, 1))) == INF


class TestEvalJ:
    def test_density_plus_singular(self):
        theta = GridMeasure(G3, (2, 0, 3))
        mu = GridMeasure(G3, (1, 1, 0))
        # recession of |.| is |.|, so the singular atom pays its variation
        assert eval_J([abs_fn()] * 3, theta, mu) == 5

    def test_zero_theta_charges_value_at_zero(self):
        mu = GridMeasure(G3, (1, 2, 1))
        h = restrict(abs_fn(), RInterval(F(-1), F(4)))
        assert eval_J([h] * 3, GridMeasure.zero(G3), mu) == 0

    def test_singular_atom_against_bounded_domain(self):
        # recession of the indicator of [-1, 1] is the indicator of {0}
        h = [indicator(RInterval(F(-1), F(1)))] * 2
        theta = GridMeasure(G2, (0, 3))
        assert eval_J(h, theta, GridMeasure.zero(G2)) == INF

    def test_convexity_along_measure_segments(self):
        rng = random.Random(13)
        h = [abs_fn(), restrict(abs_fn(), RInterval(F(-2), F(2))), abs_fn()]
        for _ in range(40):
            mu = GridMeasure(G3, tuple(F(rng.randint(0, 2)) for _ in range(3)))
            t1 = GridMeasure(G3, tuple(F(rng.randint(-3, 3), 2) for _ in range(3)))
            t2 = GridMeasure(G3, tuple(F(rng.randint(-3, 3), 2) for _ in range(3)))
            j1, j2 = eval_J(h, t1, mu), eval_J(h, t2, mu)
            for lam in (F(1, 4), F(1, 2), F(3, 4)):
                mix = GridMeasure(G3, tuple(lam * a + (1 - lam) * b
                                            for a, b in zip(t1.atoms, t2.atoms)))
                jmix = eval_J(h, mix, mu)
                if j1 == INF or j2 == INF:
                    continue
                assert jmix <= lam * j1 + (1 - lam) * j2

    def test_I_equals_J_for_absolutely_continuous_part(self):
        rng = random.Random(17)
        for _ in range(40):
            mu = GridMeasure(G3, tuple(F(rng.randint(1, 3)) for _ in range(3)))
            y = StepPath(G3, tuple(F(rng.randint(-4, 4), 2) for _ in range(3)))
            theta = GridMeasure(G3, tuple(v * m for v, m in zip(y.values, mu.atoms)))
            h = [abs_fn()] * 3
            assert eval_I(h, y, mu) == eval_J(h, theta, mu)


class TestRefinement:
    def test_grid_refine(self):
        assert TimeGrid((0, 2)).refine(2).times == (F(0), F(1), F(2))

    def test_pairing_invariant(self):
        y = StepPath(G3, (1, 3, 2))
        u = GridMeasure(G3, (1, -1, 2))
        ut = GridMeasure(G3, (0, 2, -1))
        for k in (2, 3):
            assert pairing(y.refine(k), u.refine(k), ut.refine(k)) == pairing(y, u, ut)

    def test_refine_twice_equals_squared_factor(self):
        y = StepPath(G3, (1, 3, 2))
        assert y.refine(2).refine(2).values == y.refine(4).values

    def test_I_and_J_invariant(self):
        h = [abs_fn()] * 3
        y = StepPath(G3, (1, -2, 3))
        mu = GridMeasure(G3, (1, 2, 0))
        theta = GridMeasure(G3, (1, 1, 4))
        for k in (2, 3):
            hk = [abs_fn()] * G3.refine(k).n_slots
            assert eval_I(hk, y.refine(k), mu.refine(k)) == eval_I(h, y, mu)
            assert eval_J(hk, theta.refine(k), mu.refine(k)) == eval_J(h, theta, mu)


class Sub(F):
    """A Fraction subclass, as an atom."""


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.fractions(), st.integers(-2, 2), st.fractions().map(Sub)),
                min_size=3, max_size=3))
def test_is_nonnegative_equals_its_old_expression(atoms):
    """The numerator's sign stands in for a Fraction comparison with 0."""
    m = GridMeasure(G3, atoms)
    assert m.is_nonnegative is all(a >= 0 for a in m.atoms)
