import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from reeskit import blowup as blowup_module
from reeskit.blowup import (blowup_of, is_smooth_away_from_irrelevant,
                            singular_locus_ideal, strict_transform,
                            total_transform)
from reeskit.decompose import minimal_primes
from reeskit.gb import (Ideal, _lift, _saturates_to_unit,
                        dimension_and_degree, normal_form,
                        radical_membership, saturate, saturation_exponent)
from reeskit.polyring import make_ring


@pytest.fixture
def tacnode_setup():
    R = make_ring(32003, ["x", "y"])
    x, y = R.gens()
    tacnode = Ideal(R, (x ** 2 - y ** 4,))
    center = Ideal(R, (x, y ** 2))
    return R, tacnode, center, blowup_of(center)


def gens_multiset(comps):
    return sorted(sorted(str(g) for g in c.prime.display_gens())
                  for c in comps)


class TestChart:
    def test_rees_relation(self, tacnode_setup):
        _, _, _, chart = tacnode_setup
        assert [str(g) for g in chart.ring.quotient] == ["y^2*w_0 - x*w_1"]

    def test_maximal_ideal_center(self, A2):
        x, y = A2.gens()
        chart = blowup_of(Ideal(A2, (x, y)))
        assert [str(g) for g in chart.ring.quotient] == ["y*w_0 - x*w_1"]

    def test_principal_center_is_trivial(self, A2):
        x, _ = A2.gens()
        chart = blowup_of(Ideal(A2, (x ** 2,)))
        assert not chart.ring.quotient

    def test_unit_and_zero_rejected(self, A2):
        with pytest.raises(ValueError):
            blowup_of(Ideal(A2, (A2.one(),)))
        with pytest.raises(ValueError):
            blowup_of(Ideal(A2, ()))

    def test_projection_section(self, tacnode_setup):
        R, _, _, chart = tacnode_setup
        for n in R.names:
            img = chart.projection(R.var(n))
            assert str(img) == n

    def test_irrelevant_is_w_block(self, tacnode_setup):
        _, _, _, chart = tacnode_setup
        assert sorted(str(g) for g in chart.irrelevant.gens) == ["w_0", "w_1"]


class TestTransforms:
    def test_total_transform_value(self, tacnode_setup):
        R, tacnode, _, chart = tacnode_setup
        tt = total_transform(chart, tacnode)
        B = chart.ring
        lifted = B.var("x") ** 2 - B.var("y") ** 4
        assert normal_form(lifted, tt).is_zero()
        assert tt.gens == (lifted,)

    def test_total_transform_components(self, tacnode_setup):
        _, tacnode, _, chart = tacnode_setup
        comps = minimal_primes(total_transform(chart, tacnode))
        assert gens_multiset(comps) == [
            ["w_0 + w_1", "y^2 + x"],
            ["w_0 - w_1", "y^2 - x"],
            ["x", "y"],
        ]

    def test_strict_transform_components(self, tacnode_setup):
        _, tacnode, _, chart = tacnode_setup
        comps = minimal_primes(strict_transform(chart, tacnode))
        assert gens_multiset(comps) == [
            ["w_0 + w_1", "y^2 + x"],
            ["w_0 - w_1", "y^2 - x"],
        ]

    def test_zero_ideal_transforms_to_zero(self, tacnode_setup):
        R, _, _, chart = tacnode_setup
        assert not total_transform(chart, Ideal(R, ())).display_gens()

    def test_transform_missing_center_unchanged(self, A2):
        # V(x - 1) misses the origin; saturation changes nothing
        x, y = A2.gens()
        chart = blowup_of(Ideal(A2, (x, y)))
        tt = total_transform(chart, Ideal(A2, (x - 1,)))
        assert strict_transform(chart, Ideal(A2, (x - 1,))) == tt

    def test_smooth_curve_through_center(self, A2):
        x, y = A2.gens()
        chart = blowup_of(Ideal(A2, (x, y)))
        st = strict_transform(chart, Ideal(A2, (y,)))
        # the exceptional fiber component is gone from the strict transform
        B = chart.ring
        assert normal_form(B.var("w_1"), st).is_zero()

    def test_strict_transform_is_saturation_fixed_point(self, tacnode_setup):
        _, tacnode, _, chart = tacnode_setup
        st = strict_transform(chart, tacnode)
        assert saturate(st, chart.exceptional) == st

    def test_strict_components_among_total_components(self, tacnode_setup):
        _, tacnode, _, chart = tacnode_setup
        total = gens_multiset(minimal_primes(total_transform(chart, tacnode)))
        strict = gens_multiset(minimal_primes(strict_transform(chart, tacnode)))
        for comp in strict:
            assert comp in total


class TestSingularLocus:
    def test_tacnode_singular_at_origin(self, A2):
        # oracle: 2x = -4y^3 = 0 on the curve forces x = y = 0
        x, y = A2.gens()
        sing = singular_locus_ideal(Ideal(A2, (x ** 2 - y ** 4,)))
        assert dimension_and_degree(sing)[0] == 0
        assert radical_membership(x, sing)
        assert radical_membership(y, sing)

    def test_smooth_conic(self, A2):
        x, y = A2.gens()
        sing = singular_locus_ideal(Ideal(A2, (x ** 2 - y,)))
        assert sing.is_unit()

    def test_affine_space_smooth(self, A2):
        assert singular_locus_ideal(Ideal(A2, ())).is_unit()

    def test_printed_ideals(self, A2, tacnode_setup):
        # singularLocusIdeal prints these; the smoothness test shares the
        # generators but keeps them in the ambient ring.  The cusp's locus
        # lists x*w_1 once: two basis elements, x*w_1 and y*w_0, have the
        # same normal form modulo the Rees relation, and the second is
        # left out
        x, y = A2.gens()
        assert str(singular_locus_ideal(Ideal(A2, (x ** 2 - y ** 4,)))) \
            == "ideal[ x, y^3 ]"
        assert str(singular_locus_ideal(Ideal(A2, (x ** 2 - y,)))) \
            == "ideal[ 1 ]"
        R, tacnode, _, chart = tacnode_setup
        x, y = R.gens()
        origin = blowup_of(Ideal(R, (x, y)))
        cusp = strict_transform(origin, Ideal(R, (y ** 2 - x ** 3,)))
        assert str(singular_locus_ideal(cusp)) == (
            "ideal[ w_1^2, w_0*w_1, y*w_1, x*w_1, y^2, x*y, w_0^3, "
            "x*w_0^2, x^2*w_0, x^3 ]")
        assert str(singular_locus_ideal(total_transform(chart, tacnode))) \
            == ("ideal[ x^2, x*y^2, y^3*w_1 - x*y*w_0, "
                "x*y*w_0^2 - x*y*w_1^2, y^4 ]")
        st = strict_transform(chart, tacnode)
        assert str(singular_locus_ideal(st, expected_codim=3)) \
            == "ideal[ w_0^2 - w_1^2, y^2*w_1 - x*w_0, y^4 - x^2 ]"


class TestSmoothness:
    def test_tacnode_resolved_in_one_blowup(self, tacnode_setup):
        _, tacnode, _, chart = tacnode_setup
        st = strict_transform(chart, tacnode)
        assert is_smooth_away_from_irrelevant(chart, st)

    def test_total_transform_stays_singular(self, tacnode_setup):
        _, tacnode, _, chart = tacnode_setup
        tt = total_transform(chart, tacnode)
        assert not is_smooth_away_from_irrelevant(chart, tt)

    def test_smooth_input_stays_smooth(self, A2):
        x, y = A2.gens()
        chart = blowup_of(Ideal(A2, (x, y)))
        st = strict_transform(chart, Ideal(A2, (y,)))
        assert is_smooth_away_from_irrelevant(chart, st)


def _agrees_with_saturation(chart, X):
    """is_smooth_away_from_irrelevant against the saturation it replaces:
    S : J^oo = (1) for S the singular locus and J the irrelevant ideal."""
    got = is_smooth_away_from_irrelevant(chart, X)
    sing = singular_locus_ideal(X)
    assert got == saturate(sing, chart.irrelevant).is_unit()
    assert got == saturation_exponent(sing, chart.irrelevant)[1].is_unit()
    return got


def _curves():
    """(p, c) for the double-point curves: c = 0, 3 and three seeded draws
    from 0..100 over both primes, as the benchmark's blowup ops draw c."""
    rng = random.Random(11)
    others = [c for c in range(101) if c not in (0, 3)]
    return [(p, c) for p in (32003, 101)
            for c in [0, 3] + rng.sample(others, 3)]


CURVES = _curves()


class TestSmoothnessAgreement:
    # a GF(32003) case is named by c alone
    @pytest.mark.parametrize("p, c", CURVES, ids=[
        str(c) if p == 32003 else f"{c}-{p}" for p, c in CURVES])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_double_point_curves(self, p, c, n):
        # (y + c x)^2 = x^n: one blowup of the origin resolves the node
        # (n = 2) and the cusp (n = 3), not the tacnode or the higher cusp
        R = make_ring(p, ["x", "y"])
        x, y = R.gens()
        chart = blowup_of(Ideal(R, (x, y)))
        st = strict_transform(chart, Ideal(R, ((y + c * x) ** 2 - x ** n,)))
        assert _agrees_with_saturation(chart, st) == (n <= 3)

    def test_tacnode(self, tacnode_setup):
        _, tacnode, _, chart = tacnode_setup
        assert _agrees_with_saturation(chart, strict_transform(chart, tacnode))
        assert not _agrees_with_saturation(
            chart, total_transform(chart, tacnode))

    def test_square_of_the_maximal_ideal_as_center(self, A2):
        x, y = A2.gens()
        chart = blowup_of(Ideal(A2, (x ** 2, x * y, y ** 2)))
        for f, smooth in ((y, True), (y ** 2 - x ** 3, True),
                          (y ** 2 - x ** 4, False)):
            st = strict_transform(chart, Ideal(A2, (f,)))
            assert _agrees_with_saturation(chart, st) == smooth, f

    def test_input_not_w_homogeneous(self, tacnode_setup):
        _, _, _, chart = tacnode_setup
        B = chart.ring
        x, y, w0, w1 = (B.var(n) for n in ("x", "y", "w_0", "w_1"))
        # the chart ring is singular along x = y = w_1 = 0, which w_0 = 1
        # meets and w_1 = 1 - x misses
        for X, smooth in ((Ideal(B, (w1 + x - 1,)), True),
                          (Ideal(B, (w0 - x - 1,)), False),
                          (Ideal(B, (w0 - 1, y ** 2 - x)), False)):
            assert _agrees_with_saturation(chart, X) == smooth, X.gens


CENTERS = {"(x, y)": lambda x, y: (x, y),
           "(x, y^2)": lambda x, y: (x, y ** 2),
           "(x^2, y)": lambda x, y: (x ** 2, y)}


def _w_degrees(f):
    """The w-degrees of the terms of f, a polynomial of a chart ring."""
    ws = [f.ring.var_index(n) for n in ("w_0", "w_1")]
    return {sum(e[k] for k in ws) for e, _ in f.terms}


class TestSmoothnessByCharts:
    """The chart-by-chart test against the one Rabinowitsch basis that
    every input which is not w-homogeneous keeps."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 101, 32003]), st.sampled_from(sorted(CENTERS)),
           st.integers(0, 10 ** 6))
    def test_charts_match_the_rabinowitsch_basis(self, p, center, seed):
        # random plane curves of degree <= 4, often through the origin and
        # singular there, so that their strict transforms go both ways
        rng = random.Random(seed)
        R = make_ring(p, ["x", "y"])
        x, y = R.gens()
        low = rng.choice([0, 1, 2, 2])
        f = R.poly({(a, b): rng.randrange(p) for a in range(5)
                    for b in range(5 - a)
                    if a + b >= low and rng.random() < 0.4})
        assume(not f.is_zero())
        chart = blowup_of(Ideal(R, CENTERS[center](x, y)))
        st_ = strict_transform(chart, Ideal(R, (f,)))
        # a strict transform is w-homogeneous, so the charts decide it
        assert all(len(_w_degrees(g)) == 1 for g in _lift(st_)
                   if not g.is_zero())
        amb = st_.ring.ambient
        want = _saturates_to_unit(
            Ideal(amb, blowup_module._singular_locus_gens(st_)),
            [amb.var("w_0"), amb.var("w_1")])
        assert is_smooth_away_from_irrelevant(chart, st_) == want

    def test_input_not_w_homogeneous_takes_the_rabinowitsch_basis(
            self, tacnode_setup, monkeypatch):
        _, tacnode, _, chart = tacnode_setup
        calls = []
        basis = blowup_module._saturates_to_unit
        monkeypatch.setattr(blowup_module, "_saturates_to_unit",
                            lambda *a: calls.append(a) or basis(*a))
        B = chart.ring
        x, w1 = B.var("x"), B.var("w_1")
        # w_1 + x - 1 mixes w-degrees 1 and 0
        assert is_smooth_away_from_irrelevant(chart, Ideal(B, (w1 + x - 1,)))
        assert len(calls) == 1
        assert is_smooth_away_from_irrelevant(
            chart, strict_transform(chart, tacnode))
        assert len(calls) == 1
