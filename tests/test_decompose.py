import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from reeskit import decompose
from reeskit.coeff import factor_multivariate, uv_monic
from reeskit.decompose import _Decomposer, _min_poly, minimal_primes
from reeskit.gb import (Ideal, _adjoin, dimension_and_degree,
                        kernel_of_ring_map, normal_form, radical_membership,
                        vector_space_dimension)
from reeskit.intersection import distinguished, intersect_in_p
from reeskit.polyring import RingMap, make_ring, transport


def gens_set(report):
    return sorted(sorted(str(g) for g in c.prime.display_gens())
                  for c in report)


def small_poly(R, rng, terms=3):
    """A few squarefree monomials with random nonzero coefficients."""
    f = R.zero()
    for _ in range(terms):
        m = R.const(rng.randrange(1, R.p))
        for v in R.gens():
            m = m * v ** rng.randrange(2)
        f = f + m
    return f


def zero_dimensional_ideal(rng):
    """A proper zero-dimensional ideal in 2-3 variables over a small field:
    a product of powers of low-degree factors in each variable, so that
    eliminants split and repeat, plus one mixed generator."""
    while True:
        p = rng.choice((2, 3, 7, 101))
        R = make_ring(p, ["x", "y", "z"][:rng.choice((2, 3))])
        gens = []
        for v in R.gens():
            u = R.one()
            for _ in range(rng.randint(1, 2)):
                q = v + rng.randrange(p)
                if rng.randrange(2):
                    q = q * v + rng.randrange(p)
                u = u * q ** rng.randint(1, 2)
            gens.append(u)
        J = Ideal(R, tuple(gens) + (small_poly(R, rng, 2),))
        if not J.is_unit():
            return J


# minimal_primes of zero_dimensional_ideal(random.Random(seed)) for seeds
# 0..19, as a pipeline that radicalizes first, then splits, printed them;
# seed 6's last prime is certified since x's eliminant has full degree
PINNED = {
    0: [
        'ideal[ z + 1, y + 1, x + 1 ] certified',
    ],
    1: [
        'ideal[ z - 3, y - 3, x - 1 ] certified',
        'ideal[ z - 3, x - 1, y^2 + y + 3 ] certified',
    ],
    2: [
        'ideal[ y, x ] certified',
        'ideal[ y, x - 1 ] certified',
    ],
    3: [
        'ideal[ y - 1, x - 1 ] certified',
        'ideal[ x - 1, y^2 - y - 1 ] certified',
    ],
    4: [
        'ideal[ z, y, x + 1 ] certified',
    ],
    5: [
        'ideal[ z, y, x ] certified',
        'ideal[ z + 1, y, x ] certified',
    ],
    6: [
        'ideal[ z, y, x ] certified',
        'ideal[ z, y + 1, x ] certified',
        'ideal[ z, y + 1, x^2 + x + 1 ] certified',
        'ideal[ z + 1, y, x ] certified',
        'ideal[ z + 1, y + 1, x ] certified',
        'ideal[ z + 1, y + 1, x^2 + x + 1 ] certified',
    ],
    7: [
        'ideal[ y - 3, x - 2 ] certified',
    ],
    8: [
        'ideal[ z + 1, y - 1, x - 1 ] certified',
    ],
    9: [
        'ideal[ y + 1, x ] certified',
    ],
    10: [
        'ideal[ z + 1, y, x + 1 ] certified',
        'ideal[ z + 1, y, x^2 - x - 1 ] certified',
        'ideal[ z - 1, y, x + 1 ] certified',
        'ideal[ z - 1, y, x^2 - x - 1 ] certified',
        'ideal[ z - 1, y - 1, x + 1 ] certified',
        'ideal[ z - 1, y - 1, x^2 - x - 1 ] certified',
    ],
    11: [
        'ideal[ y + 1, x - 1 ] certified',
    ],
    12: [
        'ideal[ x + 2*y, y^2 - y + 3 ] certified',
        'ideal[ x - 2*y + 2, y^2 - y + 3 ] certified',
    ],
    13: [
        'ideal[ z + 1, y + 1, x + 1 ] certified',
    ],
    14: [
        'ideal[ y + 1, x + 1 ] certified',
    ],
    15: [
        'ideal[ y + 1, x + 1 ] certified',
    ],
    16: [
        'ideal[ y, x - 1 ] certified',
        'ideal[ y, x^2 + 1 ] certified',
    ],
    17: [
        'ideal[ z + 27, y - 50, x + 8 ] certified',
        'ideal[ z + 27, y - 50, x + 47 ] certified',
    ],
    18: [
        'ideal[ y + 1, x ] certified',
        'ideal[ y + 1, x + 1 ] certified',
    ],
    19: [
        'ideal[ y + 1, x^2 + x + 1 ] certified',
    ],
}


class TestZeroDimensional:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_min_poly_generates_the_kernel(self, seed):
        # independent route: the kernel of k[t] -> R/J, t -> f, is generated
        # by the minimal polynomial of f; D is the colength of J
        rng = random.Random(seed)
        J = zero_dimensional_ideal(rng)
        R = J.ring
        f = small_poly(R, rng)
        D = dimension_and_degree(J)[1]
        assert D == vector_space_dimension(J)
        Q = R.with_quotient(J.gens)
        line = make_ring(R.p, ["t"])
        (g,) = kernel_of_ring_map(
            RingMap(line, Q, [transport(f, Q)])).display_gens()
        want = [0] * (g.total_degree() + 1)
        for (k,), c in g.terms:
            want[k] = c
        assert _min_poly(f, J, D) == uv_monic(want, R.p)

    @pytest.mark.parametrize("case", ["reducible", "power", "conjugate"])
    def test_one_case_per_branch(self, case):
        # Groebner basis elements irreducible, so only the variable pass
        # sees the structure: the eliminant of x splits, is the square of
        # x^2 + 1, or both eliminants are irreducible and only the
        # primitive element splits the pair of conjugate points
        R = make_ring(7, ["x", "y"])
        x, y = R.gens()
        gens, want = {
            "reducible": ((x ** 2 + 3 * x * y + 2, y ** 2 + 1),
                          ["ideal[ x - 2*y + 1, y^2 + 1 ]",
                           "ideal[ x - 2*y - 1, y^2 + 1 ]"]),
            "power": ((x ** 2 - 3 * x * y - 1, y ** 2 + 2),
                      ["ideal[ x + 2*y, y^2 + 2 ]"]),
            "conjugate": ((x ** 2 + 1, y ** 2 + 1),
                          ["ideal[ x + y, y^2 + 1 ]",
                           "ideal[ x - y, y^2 + 1 ]"]),
        }[case]
        comps = minimal_primes(Ideal(R, gens))
        assert [str(c.prime) for c in comps] == want
        assert all(c.certified for c in comps)

    def test_pass_alone_radicalizes(self):
        # with no primitive-element draws the candidate is the one the pass
        # leaves: x^2 + 1 adjoined, so radical; then y's eliminant y^2 + 2
        # has degree D = 2, so y is a primitive element and J is certified
        R = make_ring(7, ["x", "y"])
        x, y = R.gens()
        I = Ideal(R, (x ** 2 - 3 * x * y - 1, y ** 2 + 2))
        (comp,) = minimal_primes(I, shape_retries=0)
        assert str(comp) == "ideal[ x + 2*y, y^2 + 2 ] certified"

    def test_no_primitive_variable_needs_a_draw(self):
        # the same radicalization with a cubic in z: D = 6, while y and z
        # have eliminants of degree 2 and 3, so no variable is primitive
        # and without draws the prime stays unverified
        R = make_ring(7, ["x", "y", "z"])
        x, y, z = R.gens()
        I = Ideal(R, (x ** 2 - 3 * x * y - 1, y ** 2 + 2, z ** 3 + z + 1))
        want = "ideal[ x + 2*y, y^2 + 2, z^3 + z + 1 ]"
        (comp,) = minimal_primes(I, shape_retries=0)
        assert str(comp) == want + " unverified"
        (comp,) = minimal_primes(I)
        assert str(comp) == want + " certified"

    def test_every_form_is_tried_over_a_small_field(self):
        # over GF(2) the points of (x^2 + x + 1, y^2 + y + 1) lie over GF(4),
        # and of the 3 nonzero forms only x + y separates the two orbits;
        # five draws with zeros and repeats can miss it, distinct forms not
        R = make_ring(2, ["x", "y"])
        x, y = R.gens()
        I = Ideal(R, (x ** 2 + x + 1, y ** 2 + y + 1))
        for seed in range(60):
            assert [str(c) for c in minimal_primes(I, seed=seed)] == [
                "ideal[ x + y, y^2 + y + 1 ] certified",
                "ideal[ x + y + 1, y^2 + y + 1 ] certified"]

    @pytest.mark.parametrize("seed", range(20))
    def test_pinned_outputs(self, seed):
        J = zero_dimensional_ideal(random.Random(seed))
        assert [str(c) for c in minimal_primes(J)] == PINNED[seed]


class TestKnownDecompositions:
    def test_tacnode_polynomial_splits(self):
        R = make_ring(32003, ["x", "y"])
        x, y = R.gens()
        comps = minimal_primes(Ideal(R, (x ** 2 - y ** 4,)))
        assert gens_set(comps) == [["y^2 + x"], ["y^2 - x"]]
        assert all(c.certified for c in comps)

    def test_line_meets_quartic(self):
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        comps = minimal_primes(Ideal(R, (y, x ** 4 + 1)))
        assert gens_set(comps) == [["x^2 + 10", "y"], ["x^2 - 10", "y"]]
        assert all(c.certified for c in comps)

    def test_radical_of_primary_monomial(self):
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        comps = minimal_primes(Ideal(R, (x ** 2, x * y)))
        assert gens_set(comps) == [["x"]]


    def test_cylinders_decompose_in_the_ring_of_their_basis(self):
        # the basis of I uses x and y only: its primes are those of the
        # cusp pair's five points in k[x, y], each times the (u, v) plane
        R = make_ring(101, ["x", "y", "u", "v"])
        x, y, _, _ = R.gens()
        comps = minimal_primes(Ideal(R, (y ** 2 - x ** 3, y ** 3 - x ** 2)))
        assert [dimension_and_degree(c.prime) for c in comps] == [(2, 1)] * 6
        assert gens_set(comps) == [
            ["x", "y"], ["x + 14", "y - 36"], ["x + 17", "y + 6"],
            ["x + 6", "y + 17"], ["x - 1", "y - 1"], ["x - 36", "y + 14"]]
        assert all(c.certified for c in comps)

    def test_a_candidate_in_every_variable_stays_put(self):
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        J = Ideal(R, (y ** 2 - x ** 3,))
        dec = _Decomposer(R, 0, 5)
        assert dec.in_subring(J, J.groebner().ambient_elements, 1) == \
            [(J, False, 1)]


class TestInvariants:
    @pytest.fixture
    def sample(self):
        R = make_ring(101, ["x", "y", "z"])
        x, y, z = R.gens()
        I = Ideal(R, (x * z, y * z, (x - y) * (x + z) * z))
        return I, minimal_primes(I)

    def test_candidates_contain_input(self, sample):
        I, comps = sample
        for c in comps:
            for g in I.gens:
                assert normal_form(g, c.prime).is_zero()

    def test_pairwise_incomparable(self, sample):
        _, comps = sample
        for i, a in enumerate(comps):
            for j, b in enumerate(comps):
                if i == j:
                    continue
                inside = all(normal_form(g, b.prime).is_zero()
                             for g in a.prime.display_gens())
                assert not inside

    def test_radical_witnesses(self, sample):
        I, comps = sample
        R = I.ring
        x, y, z = R.gens()
        # x*z is in the radical, so it lies in every candidate
        for c in comps:
            assert normal_form(x * z, c.prime).is_zero()
        # a polynomial outside all candidates is outside the radical
        probe = x + y + z + 1
        outside_all = all(not normal_form(probe, c.prime).is_zero()
                          for c in comps)
        if outside_all:
            assert not radical_membership(probe, I)

    def test_deterministic(self, sample):
        I, comps = sample
        again = minimal_primes(I)
        assert gens_set(comps) == gens_set(again)


class TestOverQuotientRing:
    def test_total_transform_components(self):
        B0 = make_ring(32003, [["x", "y"], ["w_0", "w_1"]])
        xb, yb, w0, w1 = B0.gens()
        B = make_ring(32003, [["x", "y"], ["w_0", "w_1"]],
                      quotient=[yb ** 2 * w0 - xb * w1])
        xb, yb, w0, w1 = B.gens()
        comps = minimal_primes(Ideal(B, (xb ** 2 - yb ** 4,)))
        assert gens_set(comps) == [
            ["w_0 + w_1", "y^2 + x"],
            ["w_0 - w_1", "y^2 - x"],
            ["x", "y"],
        ]
        assert all(c.certified for c in comps)


class TestCornerCases:
    def test_unit_ideal_rejected(self):
        R = make_ring(101, ["x"])
        with pytest.raises(ValueError):
            minimal_primes(Ideal(R, (R.one(),)))

    def test_conjugate_point_splitting(self):
        # V(x^2+1, y^2+1) over GF(103) is two Galois orbits; splitting
        # needs a separating linear form, not just variable eliminants
        R = make_ring(103, ["x", "y"])
        x, y = R.gens()
        comps = minimal_primes(Ideal(R, (x ** 2 + 1, y ** 2 + 1)))
        assert len(comps) == 2
        assert all(c.certified for c in comps)

    def test_mixed_dimensions(self):
        R = make_ring(101, ["x", "y", "z"])
        x, y, z = R.gens()
        comps = minimal_primes(Ideal(R, (x * z, y * z)))
        assert gens_set(comps) == [["x", "y"], ["z"]]
        # deterministic order: dimension descending
        dims = [len(c.prime.display_gens()) for c in comps]
        assert dims == sorted(dims)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 7, 101, 32003)), st.integers(1, 3),
       st.integers(0, 10 ** 6))
def test_a_linear_polynomial_is_its_own_factor(p, n, seed):
    # the decomposer does not factor elements of total degree 1; the full
    # factorization of one is its lead coefficient times its monic form
    rng = random.Random(seed)
    R = make_ring(p, ["x", "y", "z"][:n])
    coeffs = [rng.randrange(p) for _ in range(n)]
    if not any(coeffs):
        coeffs[rng.randrange(n)] = 1 + rng.randrange(p - 1)
    f = R.sum([R.const(rng.randrange(p))]
              + [v * c for v, c in zip(R.gens(), coeffs)])
    assert factor_multivariate(f) == (f.lead_coeff(), [(f.monic(), 1)])
    assert _Decomposer(R, 0, 1).factors_of(f) == [(f.monic(), 1)]


ORDERS = ("grevlex", "lex", "block")


def ring_in(p, n, order):
    """GF(p) in n variables, the block order splitting off the first."""
    spec = ("block", (1, n - 1)) if order == "block" else order
    return make_ring(p, ["x", "y", "z"][:n], order=spec)


def low_degree_poly(R, rng, degree):
    """A random polynomial of total degree at most ``degree``, nonzero."""
    while True:
        f = R.zero()
        for _ in range(rng.randint(1, 4)):
            e = [0] * R.nvars
            for _ in range(rng.randint(0, degree)):
                e[rng.randrange(R.nvars)] += 1
            f = f + R.monomial(tuple(e), rng.randrange(1, R.p))
        if not f.is_zero():
            return f


def through(f, point):
    """f minus its value at ``point``, so that it vanishes there."""
    R = f.ring
    return f - RingMap(R, R, [R.const(c) for c in point])(f)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((2, 101, 32003)),
       st.integers(2, 3), st.sampled_from(ORDERS), st.booleans())
def test_a_padded_child_has_the_recomputed_basis(seed, p, n, order,
                                                 zero_dim):
    # J + (q) from a run padded with J's reduced basis, q its one input,
    # against the same ideal from its generators.  J vanishes at a point,
    # so it is proper, and is zero-dimensional when it holds a univariate
    # polynomial in every variable
    rng = random.Random(seed)
    R = ring_in(p, n, order)
    point = [rng.randrange(p) for _ in range(n)]
    gens = [through(low_degree_poly(R, rng, 2), point)
            for _ in range(rng.randint(1, 2))]
    if zero_dim:
        gens += [(v - a) * (v ** rng.randint(1, 2) + rng.randrange(p))
                 for v, a in zip(R.gens(), point)]
    J = Ideal(R, tuple(g for g in gens if not g.is_zero()))
    # q vanishes at the point or is 1 there
    q = through(low_degree_poly(R, rng, 2), point) + rng.randrange(2)
    child = _adjoin(J, q)
    assert child.gens == J.gens + (q,)
    assert child._basis_terms() == Ideal(R, child.gens)._basis_terms()


class _ParentRoute(_Decomposer):
    """The route the decomposer took before: every basis element factored
    before the dimension is asked for, children rebuilt from their
    generators, every eliminant a ``_min_poly``."""

    def run(self, start):
        stack = [start]
        while stack:
            J = stack.pop()
            if J.is_unit():
                continue
            key = J._basis_terms()
            if key in self.seen:
                continue
            self.seen.add(key)
            basis = J.groebner().ambient_elements
            parts = None
            for g in basis:
                fs = self.factors_of(g)
                if len(fs) == 1 and fs[0][1] == 1:
                    continue
                qs = [q for q, _ in fs]
                if all(not normal_form(q, J).is_zero() for q in qs):
                    parts = qs
                    break
            if parts is not None:
                stack.extend(Ideal(self.amb, J.gens + (q,))
                             for q in reversed(parts))
                continue
            dim, D = dimension_and_degree(J)
            if dim == 0:
                self.zero_dimensional(J, D, stack)
            elif self.tower_certified(basis):
                self.found.append((J, True, dim))
            else:
                self.found.extend(self.in_subring(J, basis, dim))

    def eliminant(self, J, i, D):
        return _min_poly(self.amb.gens()[i], J, D)


class _CheckedEliminants(_Decomposer):
    """The decomposer, checking each eliminant against ``_min_poly``."""
    read_off = 0

    def eliminant(self, J, i, D):
        got = super().eliminant(J, i, D)
        assert got == _min_poly(self.amb.gens()[i], J, D)
        _CheckedEliminants.read_off += any(
            g.support_vars() == [i] for g in J.groebner().ambient_elements)
        return got


def prime_shape_ideal(rng):
    """The workload's ``minimal_primes`` kind: (f*g, h[, l]) in 2 or 3
    variables, f and l linear and h of degree 1 or 2, all but g through
    one point, g of degree 1 or 2."""
    p = rng.choice((101, 32003))
    nv, dg, dh = rng.choice(((2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1),
                             (2, 2, 2), (3, 1, 2), (3, 2, 1), (3, 2, 2)))
    R = make_ring(p, ["x", "y", "z"][:nv])
    point = [rng.randrange(p) for _ in range(nv)]

    def dense(d):
        while True:
            f = R.sum(R.monomial(e, rng.randrange(p))
                      for e in _exponents(nv, d))
            if f.total_degree() == d:
                return f
    gens = [through(dense(1), point) * dense(dg), through(dense(dh), point)]
    if nv == 3:
        gens.append(through(dense(1), point))
    return Ideal(R, tuple(gens))


def _exponents(nv, d):
    if nv == 1:
        return [(k,) for k in range(d + 1)]
    return [(k,) + e for k in range(d + 1) for e in _exponents(nv - 1, d - k)]


def cylinders():
    R = make_ring(101, ["x", "y", "u", "v"])
    x, y, _, _ = R.gens()
    return [minimal_primes(Ideal(R, (y ** 2 - x ** 3, y ** 3 - x ** 2))),
            intersect_in_p(Ideal(R, (y ** 2 - x ** 3,)),
                           Ideal(R, (y ** 3 - x ** 2,)))]


def doubled_projection_cusp():
    S = make_ring(101, ["x", "y", "u", "v"])
    x, y, u, v = S.gens()
    R = S.with_quotient([y ** 2 - x ** 3, v ** 3 - u ** 2])
    return distinguished(RingMap(S, R, list(R.gens())),
                         Ideal(S, (x - u, y - v)))


@contextlib.contextmanager
def route(cls):
    """``minimal_primes`` and its callers decompose with ``cls``."""
    saved = decompose._Decomposer
    decompose._Decomposer = cls
    try:
        yield
    finally:
        decompose._Decomposer = saved


class TestRoutes:
    """The route by dimension, with padded children and eliminants read
    off the basis, gives the parent route's reports, primes and flags."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_random_inputs(self, seed, zero_dim):
        rng = random.Random(seed)
        I = (zero_dimensional_ideal(rng) if zero_dim
             else prime_shape_ideal(rng))
        got = minimal_primes(I)
        with route(_ParentRoute):
            want = minimal_primes(I)
        # the minimal primes are unique, and so are the reports once every
        # prime is certified.  Only the primitive-element draws are random,
        # and the routes reach them with different draws: over GF(2) a
        # candidate that five distinct forms leave unverified on one route
        # may be split on the other
        if not zero_dim or all(c.certified for c in got + want):
            assert got == want
            assert [str(c) for c in got] == [str(c) for c in want]
        with route(_CheckedEliminants):
            assert minimal_primes(I) == got

    @pytest.mark.parametrize("case", [cylinders, doubled_projection_cusp])
    def test_pinned_cases(self, case):
        got = case()
        with route(_ParentRoute):
            want = case()
        assert [str(c) for c in got] == [str(c) for c in want]
        assert got == want

    def test_eliminants_are_read_off(self):
        # the pinned zero-dimensional draws read some eliminants off the
        # basis, and each equals _min_poly's
        _CheckedEliminants.read_off = 0
        with route(_CheckedEliminants):
            for seed in range(20):
                J = zero_dimensional_ideal(random.Random(seed))
                assert [str(c) for c in minimal_primes(J)] == PINNED[seed]
        assert _CheckedEliminants.read_off > 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((2, 101, 32003)),
       st.integers(1, 3), st.sampled_from(ORDERS))
def test_evaluation_by_horner_matches_the_ring_map(seed, p, n, order):
    rng = random.Random(seed)
    R = ring_in(p, n, "grevlex" if n == 1 else order)
    line = make_ring(p, ["t"])
    coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1]
    q = line.poly({(k,): c for k, c in enumerate(coeffs)})
    dec = _Decomposer(R, 0, 1)
    f = low_degree_poly(R, rng, 2)
    assert dec.at(coeffs, f) == RingMap(line, R, [f])(q)
    i = rng.randrange(n)
    v = R.gens()[i]
    assert dec.at_variable(coeffs, i) == RingMap(line, R, [v])(q)
    assert dec.at_variable(coeffs, i) == dec.at(coeffs, v)


def _all_pairs(cands):
    """The minimality filter that tests every ordered pair of candidates."""
    return [(J, cert, dim) for i, (J, cert, dim) in enumerate(cands)
            if not any(k != i and decompose._contains_ideal(K, J)
                       for k, (K, _, _) in enumerate(cands))]


class TestMinimalityFilter:
    """The filter by dimension keeps the candidates that the all-pairs
    filter keeps."""

    @staticmethod
    def both_filters(case):
        """``case()`` with the filter by dimension and with the all-pairs
        filter, once both are found to keep the same entries of every
        candidate list the run filtered."""
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose, "_minimal",
                       lambda cands: seen.append(cands) or _all_pairs(cands))
            want = case()
        got = case()
        for cands in seen:
            assert decompose._minimal(cands) == _all_pairs(cands)
        return got, want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_inputs(self, seed):
        I = prime_shape_ideal(random.Random(seed))
        got, want = self.both_filters(lambda: minimal_primes(I))
        assert [str(c) for c in got] == [str(c) for c in want]

    def test_cylinders(self):
        got, want = self.both_filters(cylinders)
        assert [[str(c) for c in r] for r in got] \
            == [[str(c) for c in r] for r in want]

    def test_unverified_candidates_are_tested_in_every_dimension(self):
        # the cusp pair's lump is not prime, and lies inside the origin and
        # (1, 1), of its own dimension: so the pairs are tested when the
        # lump is flagged unverified, and when the points are
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        lump = Ideal(R, (y ** 2 - x ** 3, y ** 3 - x ** 2))
        origin, one = Ideal(R, (x, y)), Ideal(R, (x - 1, y - 1))
        line = Ideal(R, (x + y - 5,))
        for flags in ((False, True, True), (True, False, False)):
            cands = [(K, cert, dim) for K, cert, dim in zip(
                (lump, origin, one, line), flags + (True,), (0, 0, 0, 1))]
            kept = decompose._minimal(cands)
            assert kept == _all_pairs(cands)
            assert [K for K, _, _ in kept] == [lump, line]
