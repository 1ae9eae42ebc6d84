import itertools
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from reeskit import gb as gb_module, rees as rees_module
from reeskit.cli import Config, emit, execute_script, parse_script
from reeskit.gb import (Ideal, codimension, dimension_and_degree,
                        graded_piece_dim, kernel_of_ring_map, minors_ideal,
                        normal_form, ring_dimension, vector_space_dimension)
from reeskit.polyring import (FreeModuleMap, RingMap, RingMismatchError,
                              make_ring, random_poly, row_times_matrix,
                              transport)
from reeskit.rees import (
    PresentedModule, _normal_cone_series, analytic_spread,
    expected_rees_ideal, is_linear_type, is_reduction, jacobian_dual,
    minimal_reduction, multiplicity, normal_cone, reduction_number,
    rees_ideal, rees_presentation, special_fiber_ideal,
    symmetric_algebra_ideal, symmetric_kernel, universal_embedding, which_gm,
)


SRC = Path(__file__).resolve().parent.parent / "src"

# mixed degrees; x*y^3 and x^3*y^2 + x^3*z are redundant
SIX_GENERATORS = (
    "ring P = zmod 101 [x,y,z];\n"
    "ideal I = ideal(x*y^3 + x^3, x*y*z^2 + z^3, x^3*y^2 + x^3*z,"
    " y^2*z^2 + x*z^3, x*y^3, y^3);\n")


def run_within(tmp_path, text, flags=(), seconds=10):
    """stdout of ``python -m reeskit [flags] run`` on the script ``text``;
    a run longer than ``seconds`` is killed and fails the test."""
    script = tmp_path / "s.rk"
    script.write_text(text)
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "reeskit", *flags, "run", str(script)],
        capture_output=True, text=True, timeout=seconds,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def brute_colength(I):
    """Independent oracle: count standard monomials by plain enumeration."""
    basis = I.groebner().ambient_elements
    lt = [g.lead_exps() for g in basis]
    n = I.ring.ambient.nvars
    bound = max(max(e) for e in lt) + 1
    count = 0
    for e in itertools.product(range(bound), repeat=n):
        if not any(all(a >= b for a, b in zip(e, m)) for m in lt):
            count += 1
    return count


def rees_oracle_for_ideal(I):
    """Independent route: eliminate t from the graph of w_i -> g_i * t."""
    ring = I.ring
    names = list(ring.names)
    n = len(I.gens)
    wnames = [f"w_{i}" for i in range(n)]
    big = make_ring(ring.p, [names, wnames, ["t"]])
    t = big.var("t")
    gens = [big.var(w) - transport(g, big) * t
            for w, g in zip(wnames, I.gens)]
    from reeskit.gb import eliminate
    E = eliminate(Ideal(big, tuple(gens)), ["t"])
    W = rees_ideal(I).ring
    return Ideal(W, tuple(transport(g, W) for g in E.display_gens()))


class TestUniversalEmbedding:
    def test_small_module_embeds_by_x_y_z(self, artinian5):
        z = artinian5.var("z")
        M = PresentedModule.from_ideal(Ideal(artinian5, (z,)))
        phi = universal_embedding(M)
        assert phi.cols == 1 and phi.rows == 3
        entries = sorted(str(phi.entries[i][0]) for i in range(3))
        assert entries == ["x", "y", "z"]

    def test_free_rank_one(self, A2):
        M = PresentedModule.from_ideal(Ideal(A2, (A2.one(),)))
        phi = universal_embedding(M)
        assert phi.rows == 1 and phi.cols == 1
        assert phi.entries[0][0] == A2.one()

    def test_ideal_x_y_gives_inclusion(self, A2):
        x, y = A2.gens()
        M = PresentedModule.from_ideal(Ideal(A2, (x, y)))
        phi = universal_embedding(M)
        assert phi.rows == 1 and phi.cols == 2
        assert set(phi.entries[0]) == {x, y}


class TestSymmetricKernel:
    def test_inclusion_of_maximal_ideal(self, A2):
        x, y = A2.gens()
        K = symmetric_kernel(FreeModuleMap(A2, [[x, y]]))
        assert [str(g) for g in K.display_gens()] == ["y*w_0 - x*w_1"]

    def test_identity_map(self, A2):
        K = symmetric_kernel(FreeModuleMap(A2, [[A2.one()]]))
        assert not K.display_gens()

    def test_ideal_embedding_matches_versal(self, artinian5):
        x, y, z = artinian5.gens()
        M = PresentedModule.from_ideal(Ideal(artinian5, (z,)))
        Iiota = symmetric_kernel(FreeModuleMap(artinian5, [[z]]))
        Iphi = symmetric_kernel(universal_embedding(M))
        assert Iiota == Iphi


class TestSymmetricAlgebraIdeal:
    def test_koszul(self, A2):
        x, y = A2.gens()
        I0 = symmetric_algebra_ideal(Ideal(A2, (x, y)))
        assert I0 == Ideal(I0.ring, (I0.ring.var("y") * I0.ring.var("w_0")
                                     - I0.ring.var("x") * I0.ring.var("w_1"),))

    def test_free_module(self, A2):
        M = PresentedModule.from_matrix(
            FreeModuleMap(A2, (), rows=1, cols=0))
        assert not symmetric_algebra_ideal(M).display_gens()

    def test_veronese_linear_relations(self, A2):
        x, y = A2.gens()
        I0 = symmetric_algebra_ideal(Ideal(A2, (x ** 2, x * y, y ** 2)))
        W = I0.ring
        w0, w1, w2 = (W.var(f"w_{i}") for i in range(3))
        xx, yy = W.var("x"), W.var("y")
        expected = Ideal(W, (yy * w0 - xx * w1, yy * w1 - xx * w2))
        assert I0 == expected


class TestReesIdeal:
    def test_complete_intersection(self, A2):
        x, y = A2.gens()
        RI = rees_ideal(Ideal(A2, (x, y)))
        assert [str(g) for g in RI.display_gens()] == ["y*w_0 - x*w_1"]

    def test_veronese_and_elimination_oracle(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        RI = rees_ideal(I)
        assert RI == rees_oracle_for_ideal(I)
        W = RI.ring
        w0, w1, w2 = (W.var(f"w_{i}") for i in range(3))
        assert normal_form(w1 ** 2 - w0 * w2, RI).is_zero()

    def test_partial_embedding_differs(self, artinian5):
        x, y, z = artinian5.gens()
        M = PresentedModule.from_ideal(Ideal(artinian5, (z,)))
        Ipsi = symmetric_kernel(FreeModuleMap(artinian5, [[x], [y]]))
        Iphi = symmetric_kernel(universal_embedding(M))
        assert Ipsi != Iphi
        # the embeddings disagree exactly in degree p = 5
        assert graded_piece_dim(5, Ipsi, "wblock") != \
            graded_piece_dim(5, Iphi, "wblock")

    def test_saturation_strategy_agrees(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        assert rees_ideal(I, f=x ** 2) == rees_ideal(I)

    def test_saturation_strategy_zero_rejected(self, A2):
        with pytest.raises(ValueError):
            rees_ideal(Ideal(A2, (A2.var("x"),)), f=A2.zero())

    @pytest.mark.parametrize("quotient", [False, True],
                             ids=["polynomial", "quotient"])
    def test_torsion_module_has_the_zero_embedding(self, quotient):
        # coker [x y] = R/(x, y) maps to no free module but by 0, so its
        # Rees algebra is R and the Rees ideal is (w_0), in base[w_0]
        R0 = make_ring(101, ["x", "y"])
        R = (make_ring(101, ["x", "y"], quotient=[R0.var("x") ** 2])
             if quotient else R0)
        x, y = R.gens()
        M = PresentedModule.from_matrix(FreeModuleMap(R, [[x, y]]))
        assert universal_embedding(M).rows == 0
        RI = rees_ideal(M)
        assert str(RI.ring) == ("zmod 101 [x,y | w_0] / (x^2)" if quotient
                                else "zmod 101 [x,y | w_0]")
        assert [str(g) for g in RI.gens] == ["w_0"]
        assert RI == Ideal(RI.ring, (RI.ring.var("w_0"),))


class TestLinearType:
    def test_complete_intersection_is_linear_type(self, A2):
        x, y = A2.gens()
        assert is_linear_type(Ideal(A2, (x, y)))

    def test_veronese_is_not(self, A2):
        x, y = A2.gens()
        assert not is_linear_type(Ideal(A2, (x ** 2, x * y, y ** 2)))

    def test_principal_is_linear_type(self, A2):
        x, y = A2.gens()
        assert is_linear_type(Ideal(A2, (x ** 3 - y,)))


class TestNormalCone:
    def test_principal(self, A2):
        nc = normal_cone(Ideal(A2, (A2.var("x"),)))
        assert [str(g) for g in nc.quotient] == ["x"]

    def test_maximal_ideal(self, A2):
        x, y = A2.gens()
        nc = normal_cone(Ideal(A2, (x, y)))
        assert sorted(str(g) for g in nc.quotient) == ["x", "y"]
        assert ring_dimension(nc) == 2  # gr is a polynomial ring in w

    def test_unit_rejected(self, A2):
        with pytest.raises(ValueError):
            normal_cone(Ideal(A2, (A2.one(),)))


class TestMultiplicity:
    def test_redundant_mixed_degree_generators(self, tmp_path):
        # the normal cone is taken on the four generators the trim keeps;
        # --verify checks e against the colengths of the powers of I
        out = run_within(tmp_path, SIX_GENERATORS + "print multiplicity(I);",
                         ["--verify"])
        assert out == "27\n"

    def test_regular_parameters(self, A2):
        x, y = A2.gens()
        assert multiplicity(Ideal(A2, (x, y))) == 1

    def test_x2_y(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, y))
        assert multiplicity(I) == 2
        # oracle: direct colength count of a few powers
        assert brute_colength(I) == 2
        assert brute_colength(I * I) == 6  # dim k[x,y]/(x^2,y)^2

    def test_squares_of_maximal_ideal(self, A2, A3):
        x, y = A2.gens()
        d_values = {}
        for d in range(1, 7):
            I = Ideal(A2, (x, y)) ** d
            d_values[d] = multiplicity(I)
        assert d_values == {d: d * d for d in range(1, 7)}
        assert multiplicity(Ideal(A3, A3.gens()) ** 2) == 8
        # not monomial: a complete intersection of two quadrics
        assert multiplicity(Ideal(A2, (x ** 2 + y ** 2, x * y))) == 4

    @pytest.mark.parametrize("quotient, make", [
        (None, lambda x, y: (x ** 2, y)),
        (None, lambda x, y: (x ** 2 + y ** 2, x * y)),
        (None, lambda x, y: (x ** 3, x * y, y ** 4)),
        (None, lambda x, y: (x - y ** 2, y ** 3 + x * y)),
        # the double line of test_over_quotient_base
        (lambda x, y: [x ** 2], lambda x, y: (y,)),
    ], ids=["x2_y", "x2+y2_xy", "x3_xy_y4", "inhomogeneous", "quotient_base"])
    def test_normal_cone_degree_cross_check(self, A2, quotient, make):
        # the w-graded pieces of the normal cone are I^n/I^(n+1); their
        # dimensions are the first differences of the power colengths
        R = (A2 if quotient is None
             else make_ring(101, ["x", "y"], quotient=quotient(*A2.gens())))
        I = Ideal(R, make(*R.gens()))
        nc = normal_cone(I)
        unit = Ideal(nc, (nc.one(),))
        pieces = [graded_piece_dim(n, unit, "wblock") for n in range(6)]
        lengths = [brute_colength(I ** (n + 1)) for n in range(6)]
        diffs = [lengths[0]] + [b - a for a, b in zip(lengths, lengths[1:])]
        assert pieces == diffs

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 101, 32003]), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 10 ** 6))
    def test_monomial_ideals_match_newton_polygon(self, p, a, b, seed):
        # Teissier: e(I) of an m-primary monomial ideal of k[x,y] is twice
        # the area under its Newton polygon
        rng = random.Random(seed)
        pts = {(0, b), (a, 0)}
        if a > 1 and b > 1:
            pts |= {(rng.randrange(1, a), rng.randrange(1, b))
                    for _ in range(rng.randint(0, 3))}
        hull = []
        for q in sorted(pts):
            while len(hull) >= 2 and (
                    (hull[-1][0] - hull[-2][0]) * (q[1] - hull[-2][1])
                    - (hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])) <= 0:
                hull.pop()
            hull.append(q)
        twice_area = sum((u2 - u1) * (v1 + v2)
                         for (u1, v1), (u2, v2) in zip(hull, hull[1:]))
        R = make_ring(p, ["x", "y"])
        assert multiplicity(Ideal(R, tuple(R.monomial(e) for e in pts))) \
            == twice_area

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=2, max_size=2)
           | st.lists(st.integers(1, 2), min_size=3, max_size=3),
           st.integers(0, 10 ** 6))
    def test_systems_of_parameters_multiply_degrees(self, degrees, seed):
        # n forms of degrees a, b(, c) that cut out the origin of k^n: the
        # multiplicity is the product of the degrees (Bezout)
        rng = random.Random(seed)
        n = len(degrees)
        R = make_ring(101, ["x", "y", "z"][:n])
        forms = tuple(
            R.poly({e: rng.randrange(101)
                    for e in itertools.product(range(a + 1), repeat=n)
                    if sum(e) == a})
            for a in degrees)
        I = Ideal(R, forms)
        assume(dimension_and_degree(I)[0] == 0)
        assert multiplicity(I) == math.prod(degrees)

    def test_series_expands_to_the_pieces(self, A2, A3):
        # h(t)/(1 - t)^d counts I^n/I^(n+1), the first differences of the
        # power colengths; --verify takes its stopping point from deg h
        x, y = A2.gens()
        a, b, c = A3.gens()
        for I in (Ideal(A2, (x ** 3, x * y, y ** 4)),
                  Ideal(A2, (x ** 2 * y ** 2 + x ** 5, y ** 3, x ** 4 * y)),
                  Ideal(A3, (a ** 2, b ** 3, c ** 2, a * b * c))):
            h, d = _normal_cone_series(I)
            series = [h.get(k, 0) for k in range(6)]
            for _ in range(d):
                series = list(itertools.accumulate(series))
            lengths = [0] + [brute_colength(I ** (n + 1)) for n in range(6)]
            assert series == [q - p for p, q in zip(lengths, lengths[1:])]

    def test_not_zero_dimensional_rejected(self, A2):
        with pytest.raises(ValueError):
            multiplicity(Ideal(A2, (A2.var("x"),)))

    def test_over_quotient_base(self):
        # double line: colength of (y)^(n+1) grows like 2(n+1)
        R0 = make_ring(101, ["x", "y"])
        R = make_ring(101, ["x", "y"], quotient=[R0.var("x") ** 2])
        assert multiplicity(Ideal(R, (R.var("y"),))) == 2


class TestSpecialFiber:
    def test_veronese_fiber(self, A2):
        x, y = A2.gens()
        F = special_fiber_ideal(Ideal(A2, (x ** 2, x * y, y ** 2)))
        assert [str(g) for g in F.display_gens()] == ["w_1^2 - w_0*w_2"]

    def test_linear_fiber_is_free(self, A2):
        x, y = A2.gens()
        assert not special_fiber_ideal(Ideal(A2, (x, y))).display_gens()

    def test_principal_fiber(self, A2):
        x, _ = A2.gens()
        F = special_fiber_ideal(Ideal(A2, (x,)))
        assert not F.display_gens()
        assert F.ring.names == ("w_0",)

    def test_not_contained_rejected(self, A2):
        x, y = A2.gens()
        with pytest.raises(ValueError):
            special_fiber_ideal(Ideal(A2, (x + 1,)))

    def test_nilpotent_fiber(self, artinian5):
        # classes of z^d survive up to d = 5, so the fiber is k[w]/(w^6)
        z = artinian5.var("z")
        F = special_fiber_ideal(Ideal(artinian5, (z,)))
        assert [str(g) for g in F.display_gens()] == ["w_0^6"]
        assert analytic_spread(Ideal(artinian5, (z,))) == 0


class TestAnalyticSpread:
    def test_redundant_mixed_degree_generators(self, tmp_path):
        # the fiber is taken on the four generators the trim keeps
        out = run_within(tmp_path,
                         SIX_GENERATORS + "print analyticSpread(I);")
        assert out == "3\n"

    def test_maximal_ideal(self, A2):
        x, y = A2.gens()
        assert analytic_spread(Ideal(A2, (x, y))) == 2

    def test_veronese(self, A2):
        x, y = A2.gens()
        assert analytic_spread(Ideal(A2, (x ** 2, x * y, y ** 2))) == 2

    def test_sandwich_property(self, A2):
        x, y = A2.gens()
        for I in (Ideal(A2, (x, y)), Ideal(A2, (x ** 2, x * y, y ** 2)),
                  Ideal(A2, (x ** 2, y ** 3))):
            ell = analytic_spread(I)
            height = codimension(I)
            assert height <= ell <= ring_dimension(A2)


class TestReductions:
    def test_reduction_of_itself(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        cert = is_reduction(I, I)
        assert cert.accepted and cert.witness == 0

    def test_veronese_diagonal_reduction(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        J = Ideal(A2, (x ** 2, y ** 2))
        cert = is_reduction(I, J)
        assert cert.accepted and cert.witness == 1
        # independent oracle: J*I and I^2 agree as monomial sets in degree 4
        mono = lambda K: {g.lead_exps() for g in (K).groebner().elements}
        assert mono(J * I) == mono(I * I)

    def test_refutation_within_cap(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        cert = is_reduction(I, Ideal(A2, (x ** 2,)), cap=5)
        assert not cert.accepted

    def test_not_contained_rejected(self, A2):
        x, y = A2.gens()
        with pytest.raises(ValueError):
            is_reduction(Ideal(A2, (x ** 2,)), Ideal(A2, (y,)))

    def test_minimal_reduction_accepted_for_seeds(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        for seed in (0, 1, 2):
            J = minimal_reduction(I, seed=seed)
            assert len(J.gens) == 2
            assert is_reduction(I, J).accepted

    def test_linear_case_reduction_number_zero(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x, y))
        J = minimal_reduction(I, seed=0)
        assert reduction_number(I, J) == 0

    def test_redundant_generator_trimmed(self, A2):
        # x*y^2 lies in (y^2); kept, it skews the degree windows and no
        # draw passed the reduction test
        x, y = A2.gens()
        for gens in ((x ** 6, x * y ** 2, y ** 2), (y ** 2, x * y ** 2, x ** 6)):
            I = Ideal(A2, gens)
            J = minimal_reduction(I, seed=0)
            assert len(J.gens) == 2
            assert reduction_number(I, J) == 0

    def test_redundant_generators_take_one_fiber(self, A2, A3, monkeypatch):
        # in A^3 the ideal is not m-primary, so the trimmed ideal's special
        # fiber serves both the analytic spread and the Northcott-Rees
        # test: one elimination, not one per object.  In A^2 it is
        # m-primary: Rees's criterion takes the place of the fiber, and
        # nothing is eliminated
        calls = [0]
        eliminate = rees_module.eliminate

        def spy(*args, **kwargs):
            calls[0] += 1
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(rees_module, "eliminate", spy)
        for R, want in ((A3, 1), (A2, 0)):
            calls[0] = 0
            x, y = R.gens()[:2]
            I = Ideal(R, (x ** 2, x * y, y ** 2, x ** 3, x * y ** 2))
            J = minimal_reduction(I, seed=0)
            assert str(J) == "ideal[ x*y - 10*y^2, x^2 + 44*y^2, y^3 ]"
            assert calls[0] == want

    @pytest.mark.parametrize("redundant", [False, True])
    def test_generators_are_trimmed_once(self, A2, monkeypatch, redundant):
        # trim_homogeneous leaves its trim in the cache, so the analytic
        # spread's trim of the same generators is a hit, whether the trim
        # drops generators or keeps them all
        calls = [0]
        trim = gb_module._trim

        def spy(*args):
            calls[0] += 1
            return trim(*args)

        monkeypatch.setattr(gb_module, "_trim", spy)
        x, y = A2.gens()
        gens = (x ** 2, x * y, y ** 2) + ((x ** 3, x * y ** 2) if redundant
                                          else ())
        J = minimal_reduction(Ideal(A2, gens), seed=0)
        if redundant:
            assert str(J) == "ideal[ x*y - 10*y^2, x^2 + 44*y^2, y^3 ]"
        assert calls[0] == 1

    def test_principal_returns_itself(self, A2):
        x, _ = A2.gens()
        I = Ideal(A2, (x ** 2,))
        assert minimal_reduction(I, seed=0) == I

    def test_reduction_number_examples(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        assert reduction_number(I, Ideal(A2, (x ** 2, y ** 2))) == 1
        assert reduction_number(I, I) == 0
        with pytest.raises(ValueError):
            reduction_number(I, Ideal(A2, (x ** 2,)))


def _graded_ring(p, kind):
    """A standard graded ring: a polynomial ring, the quadric cone, or two
    planes of 4-space meeting in a point, which is not Cohen-Macaulay."""
    names = {"plane": "xy", "space": "xyz", "cone": "xyz", "planes": "xyzw"}
    R0 = make_ring(p, list(names[kind]))
    v = R0.gens()
    quotient = {"cone": lambda: [v[0] * v[1] - v[2] ** 2],
                "planes": lambda: [v[0] * v[2], v[0] * v[3], v[1] * v[2],
                                   v[1] * v[3]]}.get(kind)
    return R0 if quotient is None else make_ring(p, list(names[kind]),
                                                 quotient=quotient())


def _random_forms(R, delta, count, rng):
    """``count`` random forms of degree ``delta`` of R, zeros dropped."""
    exps = [e for e in itertools.product(range(delta + 1), repeat=R.nvars)
            if sum(e) == delta]
    forms = [R.poly({e: rng.randrange(R.p) for e in exps})
             for _ in range(count)]
    return [f for f in forms if not f.is_zero()]


def _m_primary_forms(R, delta, rng):
    """Random forms of degree ``delta`` that generate an m-primary ideal:
    when the draw does not, the pure powers of the variables join it."""
    gens = _random_forms(R, delta, rng.randint(1, R.nvars + 1), rng)
    I = Ideal(R, tuple(gens))
    if not gens or dimension_and_degree(I)[0] != 0:
        I = Ideal(R, tuple(gens) + tuple(v ** delta for v in R.gens()))
    return I


RING_KINDS = ["plane", "space", "cone", "planes"]
PRIMES_TESTED = [2, 5, 101, 32003]


class TestInvariantsByTheorem:
    """Each theorem-backed value against the computed path it replaces."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(PRIMES_TESTED), st.sampled_from(RING_KINDS),
           st.integers(1, 3), st.integers(0, 10 ** 6))
    def test_multiplicity_matches_the_normal_cone(self, p, kind, delta, seed):
        R = _graded_ring(p, kind)
        # cubics in 4 variables make normal cones too large for a test
        delta = min(delta, 2) if kind == "planes" else delta
        I = _m_primary_forms(R, delta, random.Random(seed))
        h, _ = _normal_cone_series(I)
        assert multiplicity(I) == sum(h.values())

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(PRIMES_TESTED), st.sampled_from(RING_KINDS),
           st.integers(1, 3), st.integers(0, 10 ** 6))
    def test_spread_matches_the_fiber(self, p, kind, delta, seed):
        R = _graded_ring(p, kind)
        delta = min(delta, 2) if kind == "planes" else delta
        I = _m_primary_forms(R, delta, random.Random(seed))
        assert analytic_spread(I) == rees_module._fiber_dimension(I) \
            == ring_dimension(R)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PRIMES_TESTED), st.sampled_from(RING_KINDS),
           st.integers(1, 2), st.integers(1, 3), st.integers(0, 10 ** 6))
    def test_reduction_by_rank_matches_the_ideals(self, p, kind, delta, cap,
                                                  seed):
        # J: random combinations of I's generators, often too few to be a
        # reduction within the cap
        rng = random.Random(seed)
        R = _graded_ring(p, kind)
        gens = _random_forms(R, delta, rng.randint(1, R.nvars + 1), rng)
        if rng.random() < 0.5:
            gens += [v ** delta for v in R.gens()]
        assume(gens)
        I = Ideal(R, tuple(gens))
        combos = [R.sum(g * rng.randrange(p) for g in gens)
                  for _ in range(rng.randint(1, R.nvars))]
        J = Ideal(R, tuple(combos))
        by_rank = rees_module._reduction_by_rank(I, J, cap)
        assert by_rank == rees_module._reduction_by_ideals(I, J, cap)
        assert is_reduction(I, J, cap) == by_rank

    @pytest.mark.parametrize("n, k, e, ell", [(4, 3, 81, 4), (3, 5, 125, 3)])
    def test_powers_of_the_maximal_ideal(self, n, k, e, ell):
        R = make_ring(101, ["x", "y", "z", "w"][:n])
        I = Ideal(R, tuple(R.gens())) ** k
        assert multiplicity(I) == e
        assert analytic_spread(I) == ell

    def test_mixed_degrees_keep_the_computed_paths(self, A2, monkeypatch):
        # (x^2, x*y^2, y^3) meets no theorem's hypothesis: mixed degrees,
        # and three generators in two variables; (x, y)^2 has one degree,
        # and (x^2, y^3) is a complete intersection: neither forms a
        # normal cone
        calls = []
        series = rees_module._normal_cone_series
        monkeypatch.setattr(rees_module, "_normal_cone_series",
                            lambda I: calls.append(I) or series(I))
        x, y = A2.gens()
        assert multiplicity(Ideal(A2, (x ** 2, x * y ** 2, y ** 3))) == 6
        assert len(calls) == 1
        assert multiplicity(Ideal(A2, (x ** 2, x * y, y ** 2))) == 4
        assert multiplicity(Ideal(A2, (x ** 2, y ** 3))) == 6
        assert len(calls) == 1

    def test_spread_outside_the_theorem_takes_the_fiber(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x,))  # not m-primary
        assert analytic_spread(I) == rees_module._fiber_dimension(I) == 1
        # not forms: the fiber refuses an ideal off the origin, as before
        with pytest.raises(ValueError, match="not contained"):
            analytic_spread(Ideal(A2, (x - 1, y)))


def _m_primary_ideal(R, delta, mixed, rng):
    """From n to n + 2 random forms of degree ``delta``, n = dim R, and
    more of degree ``delta`` + 1 when ``mixed``, that generate an m-primary
    ideal: when the draw does not, the pure powers of the variables join
    it, in one of the two degrees."""
    gens = _random_forms(R, delta, rng.randint(R.nvars, R.nvars + 2), rng)
    if mixed:
        gens += _random_forms(R, delta + 1, rng.randint(1, R.nvars), rng)
    if not gens or dimension_and_degree(Ideal(R, tuple(gens)))[0] != 0:
        top = delta + (mixed and rng.random() < 0.5)
        gens += [v ** top for v in R.gens()]
    return Ideal(R, tuple(gens))


def _minimal_reduction_and_number(I, seed, cap):
    """(J's generators, its reduction number) from a fresh copy of I, or
    the message of the error ``minimal_reduction`` raises."""
    I = Ideal(I.ring, I.gens)
    try:
        J = minimal_reduction(I, seed=seed, cap=cap)
    except RuntimeError as exc:
        return str(exc)
    return J.gens, reduction_number(I, J, cap)


def _spy(mp, name):
    """The calls of the ``rees`` function ``name`` from now on."""
    calls = []
    fn = getattr(rees_module, name)
    mp.setattr(rees_module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


class TestReesCriterion:
    """Rees's criterion in ``minimal_reduction`` against the fiber cut it
    replaces on m-primary ideals of standard graded rings, and the
    saturation screen of the pools that are not of one degree."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 101, 32003]), st.sampled_from(RING_KINDS),
           st.integers(1, 2), st.booleans(), st.integers(0, 3),
           st.integers(0, 10 ** 6))
    def test_the_fiber_cut_returns_the_same_reduction(self, p, kind, delta,
                                                      mixed, seed, draw):
        # R/J of finite length makes R finite over k[J], so J is a
        # reduction of m^delta, which contains I: the criterion holds over
        # the quotients too, Cohen-Macaulay (the cone) or not (the planes)
        R = _graded_ring(p, kind)
        I = _m_primary_ideal(R, delta, mixed, random.Random(draw))
        assert rees_module._rees_criterion_holds(I)
        with pytest.MonkeyPatch.context() as mp:
            fibers = _spy(mp, "special_fiber_ideal")
            # a mixed-degree pool can run the ideal comparison up to the
            # cap on every draw, so the cap stays small
            got = _minimal_reduction_and_number(I, seed, 3)
            assert not fibers
            mp.setattr(rees_module, "_rees_criterion_holds", lambda I: False)
            want = _minimal_reduction_and_number(I, seed, 3)
        assert got == want

    @pytest.mark.parametrize("kind, primary", [
        ("cone", True), ("planes", True), ("space", False), ("space", True)])
    def test_quotient_rings_and_other_ideals_keep_the_fiber(self, kind,
                                                            primary):
        # an m-primary ideal skips the special fiber over a quotient ring
        # too; one that is not m-primary takes it for its spread and for
        # its draws of one degree
        R = _graded_ring(101, kind)
        x, y = R.gens()[:2]
        gens = (x ** 2, x * y, y ** 2)
        if primary:
            gens += tuple(v ** 2 for v in R.gens()[2:])
        I = Ideal(R, gens)
        held = []
        holds = rees_module._rees_criterion_holds
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rees_module, "_rees_criterion_holds",
                       lambda I: held.append(holds(I)) or held[-1])
            fibers = _spy(mp, "special_fiber_ideal")
            J = minimal_reduction(I, seed=0)
        # analytic_spread asks first, then minimal_reduction
        assert held == [primary, primary]
        assert bool(fibers) != primary
        assert is_reduction(I, J).accepted

    def test_a_mixed_pool_without_a_reduction_ends_at_the_default_cap(self):
        # three quadrics whose draws are never m-primary, and two cubics:
        # each draw from all five vanishes off the origin, and the ideal
        # comparison of one such draw ran past 30 s at cap 20
        R = make_ring(3, ["x", "y", "z"])
        I = _m_primary_ideal(R, 2, True, random.Random(8))

        def stop(signum, frame):
            raise TimeoutError("minimal_reduction did not end in 5 s")

        saved = signal.signal(signal.SIGALRM, stop)
        signal.alarm(5)
        try:
            with pytest.raises(RuntimeError,
                               match="no minimal reduction found"):
                minimal_reduction(I, seed=0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, saved)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 101]), st.integers(2, 3),
           st.booleans(), st.booleans(), st.integers(0, 10 ** 6))
    def test_the_saturation_screen_passes_every_reduction(
            self, p, n, primary, whole, seed):
        # J: combinations of I's generators, sometimes with all of them,
        # so that some are reductions; I m-primary or a cone over a curve
        rng = random.Random(seed)
        R = make_ring(p, ["x", "y", "z"][:n])
        I = _m_primary_ideal(R, 1, True, rng)
        if not primary:
            I = Ideal(R, tuple(g * R.gens()[0] for g in I.gens))
        gens = [g for g in I.gens if not g.is_zero()]
        combos = [R.sum(g * rng.randrange(p) for g in gens)
                  for _ in range(rng.randint(1, n))]
        J = Ideal(R, tuple(combos) + (tuple(gens) if whole else ()))
        if is_reduction(I, J, 2).accepted:
            assert gb_module._saturates_to_unit(J, gens)


class TestCarriedCertificate:
    """The witness that ``is_reduction`` carries on J, read back instead
    of a second search."""

    def test_the_number_of_a_minimal_reduction_runs_one_rank_loop(
            self, A3, monkeypatch):
        rank = _spy(monkeypatch, "_reduction_by_rank")
        ideals = _spy(monkeypatch, "_reduction_by_ideals")
        x, y, z = A3.gens()
        I = Ideal(A3, (x, y, z)) ** 2
        J = minimal_reduction(I, seed=0)
        assert reduction_number(I, J) == 1
        assert str(is_reduction(I, J, 4)) == "reduction[ r = 1 ]"
        # an equal ideal with other generators reads the same witness
        other = Ideal(A3, I.gens + (x * y + z ** 2,))
        assert reduction_number(other, J) == 1
        assert len(rank) == 1 and not ideals

    def test_a_cap_below_the_witness_refutes_as_recomputing_does(self, A3):
        x, y, z = A3.gens()
        I = Ideal(A3, (x, y, z)) ** 3
        J = minimal_reduction(I, seed=0)
        assert reduction_number(I, J) == 2
        for cap in range(4):
            fresh = is_reduction(Ideal(A3, I.gens), Ideal(A3, J.gens), cap)
            assert is_reduction(I, J, cap) == fresh
        assert str(is_reduction(I, J, 1)) == "not-a-reduction[ cap = 1 ]"
        with pytest.raises(ValueError, match="within cap 1"):
            reduction_number(I, J, 1)

    def test_a_witness_is_read_for_its_own_ideal_only(self, A2, monkeypatch):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        J = Ideal(A2, (x ** 2, y ** 2))
        assert reduction_number(I, J) == 1
        rank = _spy(monkeypatch, "_reduction_by_rank")
        assert reduction_number(Ideal(A2, J.gens), J) == 0
        assert len(rank) == 1
        # the ring check comes first: the same generators over GF(2) have
        # the same reduced basis terms, the key of I's witness, and are
        # refused; an I that misses J is refused and leaves no witness
        B = make_ring(2, ["x", "y"])
        u, v = B.gens()
        other = Ideal(B, (u ** 2, u * v, v ** 2))
        assert other._basis_terms() == I._basis_terms()
        with pytest.raises(RingMismatchError):
            is_reduction(other, J)
        small = Ideal(A2, (x ** 2, x * y))
        with pytest.raises(ValueError, match="not contained"):
            is_reduction(small, J)
        assert ("reduction_number", small._basis_terms()) not in J._cache

    def test_the_oracles_recompute_and_refute_a_forged_witness(
            self, A2, monkeypatch):
        from reeskit import verify
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        J = Ideal(A2, (x ** 2, y ** 2))
        cert = is_reduction(I, J)
        ideals = _spy(monkeypatch, "_reduction_by_ideals")
        verify.is_reduction(I, J, 20, cert)
        verify.reduction_number(I, J, 20, reduction_number(I, J))
        assert len(ideals) == 2
        J._cache[("reduction_number", I._basis_terms())] = 3
        forged = is_reduction(I, J)
        assert forged.witness == 3
        with pytest.raises(verify.CrossCheckError):
            verify.is_reduction(I, J, 20, forged)
        with pytest.raises(verify.CrossCheckError):
            verify.reduction_number(I, J, 20, reduction_number(I, J))


def _random_polys(R, count, rng, homogeneous=False):
    """``count`` random polynomials of degree 1 to 3 (2 in three or more
    variables), forms when ``homogeneous``, none zero."""
    top = 3 if R.nvars == 2 else 2
    out = []
    while len(out) < count:
        d = rng.randint(1, top)
        exps = [e for e in itertools.product(range(d + 1), repeat=R.nvars)
                if sum(e) <= d and (sum(e) == d or not homogeneous)]
        f = R.poly({e: rng.randrange(R.p) for e in exps
                    if rng.random() < 0.6})
        if not f.is_zero():
            out.append(f)
    return out


class TestCompleteIntersectionsByTheorem:
    """The Koszul Rees ideal and the colength multiplicity against the
    computed paths they replace."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PRIMES_TESTED), st.integers(2, 3),
           st.integers(1, 3), st.integers(0, 10 ** 6))
    def test_koszul_rees_ideal_matches_the_kernel(self, p, n, r, seed):
        # a shared factor, or a zero generator, spoils a complete
        # intersection half the time
        rng = random.Random(seed)
        R = make_ring(p, ["x", "y", "z"][:n])
        gens = _random_polys(R, r, rng, homogeneous=rng.random() < 0.5)
        if rng.random() < 0.3:
            common = _random_polys(R, 1, rng)[0]
            gens = [g * common for g in gens]
        if rng.random() < 0.2:
            gens.insert(rng.randrange(len(gens) + 1), R.zero())
        I = Ideal(R, tuple(gens))
        M = PresentedModule.from_ideal(I)
        want = symmetric_kernel(M.generator_row())
        got = rees_module._koszul_rees_ideal(I)
        if got is None:
            assert gb_module._complete_intersection(I) is None
            got = rees_ideal(I)
        assert [g.terms for g in got.gens] == [g.terms for g in want.gens]
        assert got._basis_terms() == want._basis_terms()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PRIMES_TESTED), st.integers(2, 3), st.booleans(),
           st.integers(0, 10 ** 6))
    def test_colength_matches_the_normal_cone(self, p, n, homogeneous, seed):
        rng = random.Random(seed)
        R = make_ring(p, ["x", "y", "z"][:n])
        I = Ideal(R, tuple(_random_polys(R, n, rng, homogeneous)))
        assume(gb_module._complete_intersection(I) == n)
        h, _ = _normal_cone_series(I)
        assert multiplicity(I) == dimension_and_degree(I)[1] \
            == sum(h.values())

    def test_too_many_generators_cost_no_groebner_basis(self, A3,
                                                       monkeypatch):
        calls = []
        engine = gb_module._gb_core
        monkeypatch.setattr(gb_module, "_gb_core",
                            lambda *a, **k: calls.append(a) or engine(*a, **k))
        x, y, z = A3.gens()
        I = Ideal(A3, (x, y, z)) ** 2
        assert gb_module._complete_intersection(I) is None
        assert rees_module._koszul_rees_ideal(I) is None
        assert not calls
        assert gb_module._complete_intersection(Ideal(A3, (x, y ** 2))) == 2

    def test_the_kernel_stays_for_quotients_and_lex(self):
        lex = make_ring(101, ["x", "y"], order="lex")
        x, y = lex.gens()
        assert rees_module._koszul_rees_ideal(Ideal(lex, (x, y ** 2))) is None
        S = make_ring(101, ["x", "y", "z"])
        cone = make_ring(101, ["x", "y", "z"],
                         quotient=[S.var("x") * S.var("y") - S.var("z") ** 2])
        x, y, z = cone.gens()
        assert rees_module._koszul_rees_ideal(Ideal(cone, (x, z))) is None
        # three generators in three variables, but the cone has dimension
        # 2: the colength 2 is not e, which the normal cone gives
        I = Ideal(cone, (x ** 2, y, z))
        assert vector_space_dimension(I) == 2
        assert multiplicity(I) == 3


class TestWhichGm:
    def test_maximal_ideal_infinite(self, A2):
        import math
        x, y = A2.gens()
        assert which_gm(Ideal(A2, (x, y))) == math.inf

    def test_veronese(self, A2):
        x, y = A2.gens()
        gm = which_gm(Ideal(A2, (x ** 2, x * y, y ** 2)))
        assert gm >= 2


class TestJacobianDual:
    def test_coefficient_extraction(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y))
        psi = jacobian_dual(I)
        W = psi.ring
        # exact identity T*phi = X*psi
        M = PresentedModule.from_ideal(I)
        pres = M.presentation
        lifted = FreeModuleMap(
            W, [[transport(e, W) for e in row] for row in pres.entries],
            rows=pres.rows, cols=pres.cols)
        T = [W.var("w_0"), W.var("w_1")]
        X = [W.var("x"), W.var("y")]
        left = row_times_matrix(T, lifted)
        right = row_times_matrix(X, psi)
        assert left == right

    def test_zero_matrix(self, A2):
        x, y = A2.gens()
        W = rees_ideal(Ideal(A2, (x, y))).ring
        zero = FreeModuleMap(W, [[W.zero()], [W.zero()]])
        psi = jacobian_dual(zero, [W.var("x"), W.var("y")],
                            [W.var("w_0"), W.var("w_1")])
        assert psi.is_zero()

    def test_membership_failure_reported(self, A2):
        x, y = A2.gens()
        W = rees_ideal(Ideal(A2, (x, y))).ring
        bad = FreeModuleMap(W, [[W.one()], [W.zero()]])
        with pytest.raises(ValueError):
            jacobian_dual(bad, [W.var("x"), W.var("y")],
                          [W.var("w_0"), W.var("w_1")])


    def test_x_from_another_ring_rejected(self, A2):
        W = rees_ideal(Ideal(A2, (A2.var("x"), A2.var("y")))).ring
        zero = FreeModuleMap(W, [[W.zero()], [W.zero()]])
        with pytest.raises(RingMismatchError):
            jacobian_dual(zero, [A2.var("x"), A2.var("y")],
                          [W.var("w_0"), W.var("w_1")])

    def test_empty_x_keeps_the_column_count(self, A2):
        # no rows, but still one column per column of phi
        W = rees_ideal(Ideal(A2, (A2.var("x"), A2.var("y")))).ring
        zero = FreeModuleMap(W, [[W.zero()] * 3, [W.zero()] * 3])
        psi = jacobian_dual(zero, [], [W.var("w_0"), W.var("w_1")])
        assert (psi.rows, psi.cols) == (0, 3)
        psi = jacobian_dual(FreeModuleMap(W, (), rows=2, cols=0),
                            [W.var("x")], [W.var("w_0"), W.var("w_1")])
        assert (psi.rows, psi.cols) == (1, 0)

    @pytest.mark.parametrize("ring, ideal, want", [
        ("zmod 101 [x,y]", "ideal(x^2, x*y)", "matrix[ [-w_1], [w_0] ]"),
        ("zmod 101 [x,y]", "ideal(x^3, x*y^2, y^3)",
         "matrix[ [-w_2, -x*w_1], [w_1, y*w_0] ]"),
        ("zmod 101 [x,y,z] / (x*z - y^2)", "ideal(x^2, y*z, z^2)",
         "matrix[ [0, -w_2, -x*w_2, -x*w_1], [-w_2, w_1, 0, 0], "
         "[w_1, 0, z*w_0, y*w_0] ]"),
    ])
    def test_script_output_pinned(self, ring, ideal, want):
        src = f"ring P = {ring};\nprint jacobianDual({ideal});\n"
        doc = execute_script(parse_script(src), Config())
        assert emit(doc) == (want + "\n").encode()


class TestExpectedReesIdeal:
    def test_x2_xy(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y))
        assert expected_rees_ideal(I) == rees_ideal(I)

    def test_complete_intersection(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x, y))
        E = expected_rees_ideal(I)
        assert E == rees_ideal(I) == symmetric_algebra_ideal(I)

    def test_veronese_determinant_closes_the_gap(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        E = expected_rees_ideal(I)
        assert E == rees_ideal(I)
        psi = jacobian_dual(I)
        dets = minors_ideal(2, psi)
        W = dets.ring
        w0, w1, w2 = (W.var(f"w_{i}") for i in range(3))
        # the determinant recovers the Plucker-type quadric
        assert normal_form(w1 ** 2 - w0 * w2, dets).is_zero()


class TestStructuralInvariants:
    def test_containment_chain(self, A2):
        x, y = A2.gens()
        for gens in ((x, y), (x ** 2, x * y, y ** 2), (x ** 3, y ** 2)):
            I = Ideal(A2, gens)
            I0 = symmetric_algebra_ideal(I)
            RI = rees_ideal(I)
            for g in I0.gens:
                assert normal_form(g, RI).is_zero()
            assert (I0 == RI) == is_linear_type(I)

    def test_linear_part_characterization(self, A2):
        # w-degree-1 part of the Rees ideal equals the symmetric algebra part
        x, y = A2.gens()
        for gens in ((x ** 2, x * y, y ** 2), (x ** 2, y ** 2), (x, y)):
            I = Ideal(A2, gens)
            I0 = symmetric_algebra_ideal(I)
            RI = rees_ideal(I)
            wnames = set(RI.ring.blocks[RI.ring.rees_block])
            widx = [RI.ring.var_index(n) for n in wnames]
            for g in RI.groebner().elements:
                wdeg = max(sum(e[i] for i in widx) for e, _ in g.terms)
                if wdeg == 1:
                    assert normal_form(g, I0).is_zero()

    def test_maximal_minors_of_dual_in_rees_ideal(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 2))
        psi = jacobian_dual(I)
        RI = rees_ideal(I)
        for g in minors_ideal(psi.rows, psi).gens:
            assert normal_form(g, RI).is_zero()

    def test_rees_presentation_fields(self, A2):
        x, y = A2.gens()
        rp = rees_presentation(Ideal(A2, (x, y)))
        assert rp.generators == (x, y)
        assert rp.ideal.ring == rp.ring
        # degree-one w-part belongs to the symmetric algebra ideal
        assert rp.ring.rees_block is not None
