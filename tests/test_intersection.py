import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from reeskit.gb import (Ideal, dimension_and_degree, normal_form,
                        vector_space_dimension)
from reeskit.intersection import (WeightedComponent, _doubled_projection,
                                  _meets_properly, _target_cone_kernel,
                                  _two_cone_kernel, distinguished,
                                  intersect_in_p)
from reeskit.polyring import RingMap, make_ring
from reeskit.verify import _two_cone_components


def as_multiset(components):
    return sorted((w.multiplicity,
                   tuple(sorted(str(g) for g in w.prime.display_gens())))
                  for w in components)


@pytest.fixture
def P(A2):
    return A2


class TestReferenceIntersections:
    def test_conic_tangent_line(self, P):
        x, y = P.gens()
        got = intersect_in_p(Ideal(P, (x ** 2 - y,)), Ideal(P, (y,)))
        assert as_multiset(got) == [(2, ("x", "y"))]

    def test_quartic_meets_line_irrationally(self, P):
        x, y = P.gens()
        got = intersect_in_p(Ideal(P, (x ** 4 + y ** 3 + 1,)), Ideal(P, (y,)))
        assert as_multiset(got) == [(1, ("x^2 + 10", "y")),
                                    (1, ("x^2 - 10", "y"))]

    def test_improper_intersection(self, P):
        x, y = P.gens()
        got = intersect_in_p(Ideal(P, (x ** 2 * y,)), Ideal(P, (x * y ** 2,)))
        assert as_multiset(got) == [(2, ("x",)), (2, ("y",)),
                                    (5, ("x", "y"))]

    def test_self_intersection(self, P):
        x, y = P.gens()
        I = Ideal(P, (x ** 2 * y,))
        got = intersect_in_p(I, I)
        assert as_multiset(got) == [(1, ("y",)), (4, ("x",)),
                                    (4, ("x", "y"))]


class TestDerivedCases:
    def test_transverse_lines(self, P):
        # oracle: dim_k k[x,y]/(x,y) = 1, so multiplicity one at the origin
        x, y = P.gens()
        got = intersect_in_p(Ideal(P, (x,)), Ideal(P, (y,)))
        assert as_multiset(got) == [(1, ("x", "y"))]

    def test_distinguished_via_explicit_map(self, P):
        # projection to the subvariety V(y): same data as the tangency case
        x, y = P.gens()
        R = make_ring(101, ["x", "y"],
                      quotient=[P.var("y")])
        f = RingMap(P, R, [R.var("x"), R.var("y")])
        got = distinguished(f, Ideal(P, (x ** 2 - y,)))
        assert all(isinstance(w, WeightedComponent) for w in got)
        for w in got:
            for g in (x ** 2 - y,):
                assert normal_form(g, w.prime).is_zero()


class TestInvariants:
    def test_components_contain_both_ideals(self, P):
        x, y = P.gens()
        I = Ideal(P, (x ** 2 * y,))
        J = Ideal(P, (x * y ** 2,))
        for w in intersect_in_p(I, J):
            for g in I.gens + J.gens:
                assert normal_form(g, w.prime).is_zero()

    def test_bezout_on_proper_plane_intersection(self, P):
        # conic against tangent line: sum of m_i * deg(p_i) = 2 * 1
        x, y = P.gens()
        f, g = x ** 2 - y, y
        got = intersect_in_p(Ideal(P, (f,)), Ideal(P, (g,)))
        assert all(dimension_and_degree(w.prime)[0] == 0 for w in got)
        total = sum(w.multiplicity * dimension_and_degree(w.prime)[1]
                    for w in got)
        assert total == f.total_degree() * g.total_degree()

    def test_seed_independence(self, P):
        x, y = P.gens()
        I = Ideal(P, (x ** 2 * y,))
        J = Ideal(P, (x * y ** 2,))
        base = as_multiset(intersect_in_p(I, J, seed=0))
        for seed in (1, 7):
            assert as_multiset(intersect_in_p(I, J, seed=seed)) == base

    def test_all_components_certified_on_regressions(self, P):
        x, y = P.gens()
        for I, J in (((x ** 2 - y,), (y,)),
                     ((x ** 2 * y,), (x * y ** 2,))):
            got = intersect_in_p(Ideal(P, I), Ideal(P, J))
            assert all(w.certified for w in got)


PRIMES = [2, 3, 5, 101, 32003]


def _random_poly(R, rng, degree):
    """A random polynomial of exact total degree ``degree``."""
    p = R.p
    terms = {(a, b): rng.randrange(p) for a in range(degree + 1)
             for b in range(degree + 1 - a) if rng.random() < 0.6}
    terms[(degree, 0) if rng.random() < 0.5 else (0, degree)] = \
        rng.randrange(1, p)
    return R.poly(terms)


def _random_pair(p, df, dg, shared, seed):
    """Two random plane curves of degrees df and dg, times a common line
    when ``shared``."""
    rng = random.Random(seed)
    R = make_ring(p, ["x", "y"])
    f, g = _random_poly(R, rng, df), _random_poly(R, rng, dg)
    if shared:
        h = _random_poly(R, rng, 1)
        f, g = f * h, g * h
    return R, Ideal(R, (f,)), Ideal(R, (g,))


def _weights(components):
    return Counter((c.multiplicity, c.prime) for c in components)


class TestProperHypersurfaces:
    """Two hypersurfaces meeting properly are decomposed in the base ring,
    by Serre's formula; the multiplicities are lengths."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 10 ** 6))
    def test_agrees_with_both_cones_and_the_colength(self, p, df, dg, seed):
        R, I, J = _random_pair(p, df, dg, False, seed)
        both = I + J
        assume(_meets_properly(I, J, both))
        got = intersect_in_p(I, J)
        assert all(c.certified for c in got)
        assert all(c.prime.contains(g) for c in got for g in both.gens)
        assert sum(c.multiplicity * vector_space_dimension(c.prime)
                   for c in got) == vector_space_dimension(both)
        try:
            alt = _two_cone_components(I, J, 0)
        except RuntimeError:
            return      # the two-cone path refused: nothing to compare
        if all(c.certified for c in alt):
            assert _weights(alt) == _weights(got)

    def test_cusp_pair(self):
        # (y^2 - x^3) . (y^3 - x^2) = 9: 4 at the origin, and the points
        # x^5 = 1, y = x^4, one of them rational over GF(32003)
        R = make_ring(32003, ["x", "y"])
        x, y = R.gens()
        got = intersect_in_p(Ideal(R, (y ** 2 - x ** 3,)),
                             Ideal(R, (y ** 3 - x ** 2,)))
        assert [(c.multiplicity, vector_space_dimension(c.prime))
                for c in got] == [(4, 1), (1, 1), (1, 4)]
        assert all(c.certified for c in got)
        assert [str(c) for c in got[:2]] == ["(4, ideal[ y, x ])",
                                             "(1, ideal[ y - 1, x - 1 ])"]

    def test_cusp_pair_over_gf101(self):
        # all five points x^5 = 1 are rational over GF(101)
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        got = intersect_in_p(Ideal(R, (y ** 2 - x ** 3,)),
                             Ideal(R, (y ** 3 - x ** 2,)))
        assert [(c.multiplicity, vector_space_dimension(c.prime))
                for c in got] == [(4, 1)] + [(1, 1)] * 5
        assert all(c.certified for c in got)

    def test_cusp_pair_times_a_plane(self):
        # the cylinders over the cusp pair in k[x, y, u, v]: the same 4 + 5
        # points, each times the (u, v) plane, decomposed in k[x, y]
        R = make_ring(101, ["x", "y", "u", "v"])
        x, y, _, _ = R.gens()
        got = intersect_in_p(Ideal(R, (y ** 2 - x ** 3,)),
                             Ideal(R, (y ** 3 - x ** 2,)))
        assert [(c.multiplicity, dimension_and_degree(c.prime))
                for c in got] == [(4, (2, 1))] + [(1, (2, 1))] * 5
        assert all(c.certified for c in got)
        assert str(got[0]) == "(4, ideal[ y, x ])"

    def test_double_line_against_a_cubic(self):
        # (y - x)^2 (y + x) . (y - x + x^3) over GF(32003): 7 at the
        # origin and the conjugate pair x + y = 0, y^2 = 2
        R = make_ring(32003, ["x", "y"])
        x, y = R.gens()
        got = intersect_in_p(Ideal(R, ((y - x) ** 2 * (y + x),)),
                             Ideal(R, (y - x + x ** 3,)))
        assert [str(c) for c in got] == ["(7, ideal[ y, x ])",
                                         "(1, ideal[ x + y, y^2 - 2 ])"]
        assert all(c.certified for c in got)

    def test_surfaces_in_three_space_agree_with_both_cones(self, A3):
        x, y, z = A3.gens()
        for f, g in ((z - x * y, z), (x ** 2 + y ** 2 - z ** 2, z - 1),
                     (z ** 2 - x ** 3, z - y ** 2)):
            I, J = Ideal(A3, (f,)), Ideal(A3, (g,))
            assert _meets_properly(I, J, I + J)
            assert _weights(intersect_in_p(I, J)) == \
                _weights(_two_cone_components(I, J, 0))

    def test_runs_only_on_its_hypotheses(self, P, monkeypatch):
        # which path ran is seen by which kernel was read
        import reeskit.intersection as mod
        x, y = P.gens()
        calls = []
        real = mod._target_cone_kernel
        monkeypatch.setattr(mod, "_target_cone_kernel",
                            lambda f, d: calls.append(1) or real(f, d))
        intersect_in_p(Ideal(P, (x ** 2 - y,)), Ideal(P, (y,)))
        assert calls == []
        lex = make_ring(101, ["x", "y"], order="lex")
        lx, ly = lex.gens()
        for I, J in (((x ** 2 * y,), (x * y ** 2,)),     # shared factor
                     ((x ** 2 * y,), (x ** 2 * y,)),     # equal
                     ((x ** 2, y), (x, y)),              # not principal
                     ((x,), (x + 1,))):                  # no point at all
            I, J = Ideal(P, I), Ideal(P, J)
            assert not _meets_properly(I, J, I + J)
        I, J = Ideal(lex, (lx,)), Ideal(lex, (ly,))
        assert not _meets_properly(I, J, I + J)
        intersect_in_p(Ideal(P, (x ** 2 * y,)), Ideal(P, (x * y ** 2,)))
        assert calls == [1]
        # on a line, two points that miss each other have dim V = -1 = n - 2
        line = make_ring(101, ["x"])
        t = line.var("x")
        I, J = Ideal(line, (t,)), Ideal(line, (t + 1,))
        assert not _meets_properly(I, J, I + J)
        with pytest.raises(ValueError, match="normal cone of the unit ideal"):
            intersect_in_p(I, J)


class TestDoubledRing:
    """Every other input keeps the doubled ring, its kernel read off the
    target cone."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(1, 3), st.integers(1, 3),
           st.booleans(), st.integers(0, 10 ** 6))
    def test_target_cone_is_the_two_cone_kernel(self, p, df, dg, shared,
                                                seed):
        R, I, J = _random_pair(p, df, dg, shared, seed)
        assume(not (I + J).is_unit())
        diag, f = _doubled_projection(I, J)
        K, wnames = _target_cone_kernel(f, diag)
        K2, wnames2 = _two_cone_kernel(f, diag)
        assert K.ring == K2.ring and wnames == wnames2
        assert K._basis_terms() == K2._basis_terms()
        # and the basis K was born with is its reduced basis
        assert K._basis_terms() == \
            Ideal(K.ring, K.gens)._basis_terms()

    def test_shared_factor_keeps_its_output(self, P):
        x, y = P.gens()
        got = intersect_in_p(Ideal(P, (x * (x - y),)), Ideal(P, (x * y,)))
        assert as_multiset(got) == [(1, ("x",)), (3, ("x", "y"))]
        assert all(c.certified for c in got)

    def test_lex_ring_gives_the_grevlex_answer(self):
        # a lex ring takes the doubled ring, whose components are sorted
        # by dimension, which a lex ring reads in its grevlex copy
        out = []
        for order in ("lex", "grevlex"):
            R = make_ring(2, ["x", "y"], order=order)
            x, y = R.gens()
            out.append([str(c) for c in intersect_in_p(
                Ideal(R, (x + y + 1,)), Ideal(R, (y + 1,)))])
        assert out[0] == out[1] == ["(1, ideal[ y + 1, x ])"]

    def test_doubled_projection_of_the_cusp_pair(self):
        # distinguished of R = S / (y^2 - x^3, v^3 - u^2) against the
        # diagonal (x - u, y - v): the cusp pair's 4 + 5 points
        S = make_ring(101, ["x", "y", "u", "v"])
        x, y, u, v = S.gens()
        R = S.with_quotient([y ** 2 - x ** 3, v ** 3 - u ** 2])
        f = RingMap(S, R, list(R.gens()))
        got = distinguished(f, Ideal(S, (x - u, y - v)))
        assert [(c.multiplicity, dimension_and_degree(c.prime))
                for c in got] == [(4, (0, 1))] + [(1, (0, 1))] * 5
        assert all(c.certified for c in got)
        assert str(got[0]) == "(4, ideal[ v, u, y, x ])"

    def test_empty_intersection_keeps_its_error(self, P):
        x, y = P.gens()
        with pytest.raises(ValueError, match="normal cone of the unit ideal"):
            intersect_in_p(Ideal(P, (x ** 2 * y,)),
                           Ideal(P, (x * y ** 2 + 1,)))
