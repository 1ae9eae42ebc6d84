import random
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from reeskit import gb as gb_module
from reeskit.gb import Ideal
from reeskit.polyring import (
    FreeModuleMap, RingMap, RingMismatchError, _Overflow, _Packing, _Reducer,
    elimination_spec, homogenize_ideal, make_key_function, make_ring,
    parse_poly, random_poly, transport,
)
from reeskit.rees import PresentedModule

exps3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


class TestMakeRing:
    def test_simple_ring(self, A2):
        assert A2.names == ("x", "y")
        assert A2.p == 101

    def test_nonprime_characteristic(self):
        with pytest.raises(ValueError):
            make_ring(4, ["x"])

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            make_ring(101, ["x", "x"])

    def test_quotient_from_other_ring_rejected(self, A2):
        other = make_ring(7, ["x", "y"])
        with pytest.raises(ValueError):
            make_ring(101, ["x", "y"], quotient=[other.var("x")])

    def test_artinian5_quotient_is_reduced_gb(self, artinian5):
        x, y, z = artinian5.gens()
        assert (x ** 5).is_zero()
        assert (z ** 6).is_zero()
        assert not (z ** 5).is_zero()
        # reduced: no lead term divides another
        leads = [g.lead_exps() for g in artinian5.quotient]
        for i, a in enumerate(leads):
            for j, b in enumerate(leads):
                if i != j:
                    assert not all(u <= v for u, v in zip(a, b))

    def test_blowup_ambient_with_elimination_order(self):
        ring = make_ring(32003, [["x", "y"], ["w_0", "w_1"]],
                         order=("block", (2, 2)))
        f = ring.var("x") + ring.var("w_0") ** 3
        # elimination order: anything with x beats any pure-w monomial
        assert f.lead_exps() == (1, 0, 0, 0)


class TestArithmetic:
    def test_difference_of_squares(self, A2):
        x, y = A2.gens()
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_quotient_normalization(self, artinian5):
        x, y, z = artinian5.gens()
        assert (z * x ** 4 * x).is_zero()

    def test_additive_inverse(self, A2):
        x, y = A2.gens()
        f = 3 * x ** 2 * y - y + 1
        assert (f + (-f)).is_zero()

    def test_equal_values_hash_equal(self, A2):
        # ints are not polynomials: 3 and 104 differ, so neither may equal
        # the constant 3 of GF(101)[x,y]
        three = A2.const(3)
        assert three == A2.const(104) and hash(three) == hash(A2.const(104))
        assert three != 3 and three != 104 and 3 != three
        for v in (three, A2.const(104), A2.const(4), 3, 104):
            assert (v in {three}) == (v == three)

    def test_ring_mismatch(self, A2, A3):
        with pytest.raises(RingMismatchError):
            A2.var("x") + A3.var("x")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_sum_equals_iterated_addition(self, seed):
        # one merge and one normalisation give the value of the running
        # total, also in a quotient ring, where the sum is reduced once
        rng = random.Random(seed)
        R0 = make_ring(7, ["x", "y", "z"])
        x, y, z = R0.gens()
        Q = make_ring(7, ["x", "y", "z"], quotient=[x * z - y ** 2, x ** 3])
        for ring in (R0, Q):
            polys = [random_poly(ring, rng.randrange(4), rng)
                     for _ in range(rng.randrange(6))]
            acc = ring.zero()
            for f in polys:
                acc = acc + f
            assert ring.sum(polys) == acc
            assert ring.sum(iter(polys)) == acc

    def test_sum_of_nothing_and_across_rings(self, A2, A3):
        assert A2.sum([]) == A2.zero()
        x, y = A2.gens()
        assert A2.sum([x, -x, y]) == y
        with pytest.raises(RingMismatchError):
            A2.sum([A2.var("x"), A3.var("x")])

    def test_exponent_overflow_guard(self, A2):
        x, _ = A2.gens()
        f = x ** 30000
        with pytest.raises(ValueError):
            f * f


class TestOrders:
    @settings(max_examples=60, deadline=None)
    @given(exps3, exps3, exps3)
    def test_grevlex_axioms(self, a, b, c):
        key = make_key_function(("grevlex",), 3)
        # totality with compatibility under multiplication
        if key(a) < key(b):
            ac = tuple(u + v for u, v in zip(a, c))
            bc = tuple(u + v for u, v in zip(b, c))
            assert key(ac) < key(bc)
        # 1 is minimal
        assert key((0, 0, 0)) <= key(a)

    @settings(max_examples=60, deadline=None)
    @given(exps3, exps3, exps3)
    def test_block_order_axioms(self, a, b, c):
        key = make_key_function(elimination_spec([0], 3), 3)
        if key(a) < key(b):
            ac = tuple(u + v for u, v in zip(a, c))
            bc = tuple(u + v for u, v in zip(b, c))
            assert key(ac) < key(bc)
        assert key((0, 0, 0)) <= key(a)

    def test_block_order_eliminates(self):
        # lead monomial avoiding the first block forces the whole
        # polynomial out of it
        ring = make_ring(101, [["t"], ["x", "y"]], order=("block", (1, 2)))
        t, x, y = ring.gens()
        f = x ** 3 + y ** 5 + x * y
        assert all(e[0] == 0 for e, _ in f.terms)
        g = f + t
        assert g.lead_exps()[0] == 1


ORDERS4 = [("grevlex",), ("lex",), elimination_spec([1, 3], 4),
           ("block", ((2,), (0, 3), (1,))), ("block", ((3, 0, 2, 1),))]
exps4 = st.tuples(*[st.integers(0, 6)] * 4)
terms4 = st.tuples(st.integers(0, 3), exps4)


class TestPacking:
    """Terms packed as ints by ``_Packing``, over grevlex, lex and block
    orders in four variables; a width from ``width(48)`` holds the sum of
    two terms of degree at most 24."""

    @staticmethod
    def packing(spec, extra=0):
        return _Packing(spec, 4, _Packing.width(48) + extra)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ORDERS4), st.integers(0, 3), terms4, terms4)
    def test_int_order_is_position_over_term(self, spec, extra, s, t):
        pk = self.packing(spec, extra)
        key = make_key_function(spec, 4)
        want = (-s[0], key(s[1])) > (-t[0], key(t[1]))
        assert (pk.pack(*s) > pk.pack(*t)) == want
        assert (pk.pack(*s) == pk.pack(*t)) == (s == t)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ORDERS4), terms4, exps4)
    def test_monomial_multiplication_adds(self, spec, s, e):
        pk = self.packing(spec)
        shifted = tuple(a + b for a, b in zip(s[1], e))
        assert pk.pack(*s) + pk.pack(0, e) == pk.pack(s[0], shifted)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ORDERS4), st.integers(0, 3), terms4)
    def test_plain_and_unpack_round_trip(self, spec, extra, s):
        pk = self.packing(spec, extra)
        v = pk.pack(*s)
        assert pk.unpack(v) == s
        # plain: one exponent per slot, the component kept above the slots
        plain = sum(a << k for a, k in zip(s[1], pk.shifts))
        assert pk.plain(v) == plain - (s[0] << pk.cshift)
        assert pk.order(plain) == v + (s[0] << pk.cshift)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ORDERS4), st.integers(0, 3), exps4, exps4)
    def test_a_proper_divisor_is_a_smaller_plain_int(self, spec, extra, a, c):
        # criterion M sorts the plain lcms as ints, so every proper
        # divisor of an lcm must come before it
        assume(any(c))
        pk = self.packing(spec, extra)
        b = tuple(map(add, a, c))
        assert (pk.plain(pk.pack(0, a)) & pk.tmask
                < pk.plain(pk.pack(0, b)) & pk.tmask)

    def test_term_above_the_guard_overflows(self):
        pk = _Packing(("grevlex",), 2, _Packing.width(3))
        pk.pack(0, (pk.slot, 0))
        with pytest.raises(_Overflow):
            pk.pack(0, (pk.slot, 1))

    def test_engine_restarts_wider_and_matches_sympy(self, monkeypatch):
        # the input has degree 3, so the first width holds slots up to 7,
        # but the lex basis has y^9: the engine restarts wider
        sympy = pytest.importorskip("sympy")
        widths = []
        run = gb_module._buchberger

        def spy(vectors, pk, *args):
            widths.append(pk.w)
            return run(vectors, pk, *args)

        monkeypatch.setattr(gb_module, "_buchberger", spy)
        R = make_ring(101, ["x", "y"], order="lex")
        x, y = R.gens()
        got = Ideal(R, (x - y ** 3, x ** 3 - y)).groebner().ambient_elements
        assert len(widths) == 2 and widths[0] < widths[1]
        X, Y = sympy.symbols("x y")
        want = sympy.groebner([X - Y ** 3, X ** 3 - Y], X, Y, order="lex",
                              modulus=101)
        assert ({frozenset(g.terms) for g in got}
                == {frozenset((e, int(c) % 101) for e, c in g.terms())
                    for g in want.polys})

    def test_normal_form_and_quotient_outgrow_the_basis_width(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2 - y,))
        assert gb_module.normal_form(x ** 101, I) == x * y ** 50
        Q = make_ring(101, ["x", "y"], quotient=[x ** 2 - y])
        assert str(Q.var("x") ** 101) == "x*y^50"


class TestReducer:
    """``_Reducer.append`` against a new ``_Reducer`` of the same list,
    over grevlex, lex and block orders in four variables."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ORDERS4), st.integers(0, 10 ** 6))
    def test_append_reduces_as_a_new_reducer(self, spec, seed):
        rng = random.Random(seed)
        p = 7

        def vector(degree):
            # a few terms in components 0..2, of degree at most ``degree``
            out = {}
            for _ in range(rng.randint(1, 4)):
                e = [0] * 4
                for _ in range(rng.randint(0, degree)):
                    e[rng.randrange(4)] += 1
                out[(rng.randrange(3), tuple(e))] = rng.randrange(1, p)
            return out

        listed = [vector(3) for _ in range(rng.randint(0, 3))]
        grown = _Reducer(listed, spec, 4, p)
        probes = [vector(6) for _ in range(5)]

        def append(v):
            grown.append(v)
            listed.append(v)

        def check():
            fresh = _Reducer(listed, spec, 4, p)
            for probe in probes:
                assert grown.reduce(probe) == fresh.reduce(probe)

        # the first reduce packs: before it an append only lists a vector
        if rng.random() < 0.5:
            append(vector(3))
        check()
        for _ in range(rng.randint(1, 3)):
            append(vector(3))
            check()
        # a vector with a term past the slots makes the reducer widen
        pk = grown.packing
        big = vector(3)
        big[(0, (pk.slot + 1, 0, 0, 0))] = 1
        append(big)
        assert grown.packing.w > pk.w
        probes += [{(0, (pk.slot + 3, 1, 0, 0)): 2, (1, (0, 0, 0, 1)): 1},
                   {(c, e): 3 for c, e in big}]
        check()


class TestHomogenize:
    def test_single_generator(self, A2):
        x, y = A2.gens()
        H = homogenize_ideal(Ideal(A2, (x ** 2 - y,)), "h")
        (g,) = H.gens
        assert str(g) == "x^2 - y*h"

    def test_two_points_closure(self, A2):
        x, y = A2.gens()
        H = homogenize_ideal(Ideal(A2, (x - 1, y - 1)), "h")
        got = sorted(str(g) for g in H.gens)
        assert got == ["x - h", "y - h"]

    def test_zero_ideal(self, A2):
        H = homogenize_ideal(Ideal(A2, ()), "h")
        assert not H.gens

    def test_collision_rejected(self, A2):
        with pytest.raises(ValueError):
            homogenize_ideal(Ideal(A2, (A2.var("x"),)), "y")


class TestRingMap:
    def test_tacnode_projection_image(self):
        R = make_ring(32003, ["x", "y"])
        x, y = R.gens()
        B = make_ring(32003, [["x", "y"], ["w_0", "w_1"]])
        proj = RingMap(R, B, [B.var("x"), B.var("y")])
        img = proj(Ideal(R, (x ** 2 - y ** 4,)))
        assert img.gens == (B.var("x") ** 2 - B.var("y") ** 4,)

    def test_identity(self, A2):
        x, y = A2.gens()
        ident = RingMap(A2, A2, [x, y])
        f = 3 * x * y - y ** 2
        assert ident(f) == f

    def test_monomial_curve_relation_dies(self):
        W = make_ring(101, ["w_0", "w_1"])
        T = make_ring(101, ["t"])
        t = T.var("t")
        phi = RingMap(W, T, [t ** 2, t ** 3])
        assert phi(W.var("w_0") ** 3 - W.var("w_1") ** 2).is_zero()

    def test_applies_to_polynomials_and_ideals_only(self, A2):
        x, y = A2.gens()
        swap = RingMap(A2, A2, [y, x])
        assert swap(Ideal(A2, (x, x + y ** 2))).gens == (y, y + x ** 2)
        module = PresentedModule.from_ideal(Ideal(A2, (x, y)))
        for value in (module, FreeModuleMap(A2, [[x, y]]), 3):
            with pytest.raises(TypeError):
                swap(value)

    def test_quotient_compat_checked(self):
        R = make_ring(101, ["x"], quotient=[make_ring(101, ["x"]).var("x") ** 2])
        T = make_ring(101, ["y"])
        with pytest.raises(ValueError):
            RingMap(R, T, [T.var("y")])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_ring_homomorphism_on_samples(self, seed):
        rng = random.Random(seed)
        S = make_ring(101, ["x", "y"])
        T = make_ring(101, ["u"])
        u = T.var("u")
        phi = RingMap(S, T, [u ** 2 + 1, 3 * u])
        f = random_poly(S, rng.randrange(4), rng)
        g = random_poly(S, rng.randrange(4), rng)
        assert phi(f + g) == phi(f) + phi(g)
        assert phi(f * g) == phi(f) * phi(g)


class TestRandomPoly:
    # every seeded randomPoly (morey_ulrich.rk draws some) depends on the
    # order in which the monomials get their coefficients
    @pytest.mark.parametrize("p, names, degree, seed, homogeneous, want", [
        (7, ["x", "y"], 3, 0, False,
         "-3*x^3 + 3*x^2*y + 3*x*y^2 - y^3 + 3*x^2 + 2*y^2 + 3*x - y - 1"),
        (101, ["x", "y", "z"], 2, 5, True,
         "-22*x^2 + 32*x*y + 45*y^2 - 7*x*z - 13*y*z - 7*z^2"),
        (32003, ["a", "b"], 4, 11, True,
         "14823*a^4 - 3635*a^3*b - 13661*a^2*b^2 - 3926*a*b^3 - 1719*b^4"),
        (5, ["x"], 2, 3, False, "-x^2 - x + 1"),
        (101, ["x", "y", "z", "w"], 1, 7, False,
         "19*x + 50*y - 18*z + 6*w + 41"),
    ])
    def test_draws_pinned(self, p, names, degree, seed, homogeneous, want):
        ring = make_ring(p, names)
        assert str(random_poly(ring, degree, seed, homogeneous)) == want

    def test_degree_zero_nonzero(self, A2):
        f = random_poly(A2, 0, 5)
        assert f.is_constant() and not f.is_zero()

    def test_same_seed_same_output(self, A2):
        assert random_poly(A2, 3, 42) == random_poly(A2, 3, 42)

    def test_quadric_support(self, A2):
        # dense in degree: all C(2+2, 2) = 6 monomial slots are drawn
        f = random_poly(A2, 2, 7)
        assert f.total_degree() <= 2
        assert len(f.terms) <= 6

    def test_homogeneous_flag(self, A2):
        f = random_poly(A2, 2, 7, homogeneous=True)
        assert f.is_homogeneous((1, 1))
        assert f.total_degree() == 2


class TestTextForm:
    def test_canonical_string(self, A2):
        x, y = A2.gens()
        f = 3 * x ** 2 * y - A2.var("x") + 1
        assert str(f) == "3*x^2*y - x + 1"

    def test_balanced_coefficients(self, A2):
        x, _ = A2.gens()
        assert str(x ** 2 - 10) == "x^2 - 10"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_parse_round_trip(self, seed):
        rng = random.Random(seed)
        ring = make_ring(101, ["x", "y", "w_0"])
        f = random_poly(ring, rng.randrange(5), rng)
        assert parse_poly(ring, str(f)) == f

    def test_parse_variables_named_like_script_words(self):
        ring = make_ring(101, ["true", "matrix", "infinity", "ideal"])
        for v in ring.gens():
            f = -v ** 2 * ring.var("true") + 1
            assert parse_poly(ring, str(f)) == f

    def test_sign_binds_looser_than_power(self, A2):
        x, y = A2.gens()
        assert parse_poly(A2, "x*-y^2") == -(x * y ** 2)
        assert parse_poly(A2, "-2^2") == A2.const(-4)
        assert parse_poly(A2, "(-x)^2") == x ** 2

    @pytest.mark.parametrize("text", [
        "x # + y", "3x", "x^2^3", "x +", "ideal(x)", "z", "",
        "f(x", "gfInv(101,", "[x", "matrix[[x", "(x"])
    def test_parse_rejects(self, A2, text):
        with pytest.raises(ValueError):
            parse_poly(A2, text)

    def test_normal_form_storage_idempotent(self, artinian5):
        x, y, z = artinian5.gens()
        f = (x + y + z) ** 5
        again = artinian5.poly(dict(f.terms))
        assert again == f


class TestTransport:
    def test_name_matching(self, A2, A3):
        f = A2.var("x") ** 2 + A2.var("y")
        g = transport(f, A3)
        assert str(g) == str(f)

    def test_missing_name_rejected(self, A2):
        B = make_ring(101, ["u", "v"])
        with pytest.raises(ValueError):
            transport(A2.var("x"), B)


class TestFreeModuleMap:
    def test_ragged_rejected(self, A2):
        x, y = A2.gens()
        with pytest.raises(ValueError):
            FreeModuleMap(A2, [[x], [x, y]])

    def test_transpose(self, A2):
        x, y = A2.gens()
        m = FreeModuleMap(A2, [[x, y]])
        assert m.transpose().entries == ((x,), (y,))
