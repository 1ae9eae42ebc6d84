"""The ``--verify`` oracles, called directly: each accepts the right output
of its operation and rejects a wrong one with CrossCheckError."""

import functools
import inspect

import pytest

from reeskit import blowup, coeff, decompose, gb, intersection, rees, verify
from reeskit.gb import Ideal
from reeskit.polyring import make_ring, matrix_from_columns


@functools.cache
def _cases():
    """name -> (oracle, inputs, right output, wrong output)."""
    P = make_ring(101, ["x", "y"])
    x, y = P.gens()
    I = Ideal(P, (x ** 2 * y, x * y ** 2))
    m = Ideal(P, (x, y))
    M = rees.as_module(Ideal(P, (x ** 2, x * y, y ** 2)))
    chart = blowup.blowup_of(Ideal(P, (x, y ** 2)))
    tacnode = Ideal(P, (x ** 2 - y ** 4,))
    strict = blowup.strict_transform(chart, tacnode)
    f = (x ** 2 + y) * (x * y - 3)
    veronese = Ideal(P, (x ** 2, x * y, y ** 2))
    diagonal = Ideal(P, (x ** 2, y ** 2))
    conic, tangent = Ideal(P, (x ** 2 - y,)), Ideal(P, (y,))
    quartic = x ** 4 + 1    # two quadratics over GF(101), 101 = 5 mod 8
    Q = make_ring(101, ["x", "y"], quotient=[x ** 2])
    row = matrix_from_columns(Q, [(Q.var("x"),), (Q.var("y"),)])
    kernel = gb.kernel_of_matrix(row)
    return {
        # I : (x, y) = (xy) is larger than I
        "colon": (verify.colon, (I, m), gb.colon(I, m), I),
        "saturate": (verify.saturate, (I, x), Ideal(P, (y,)), I),
        "radical_membership": (verify.radical_membership,
                               (x * y, Ideal(P, (x ** 2, y ** 3))),
                               True, False),
        # (x^2, xy, y^2) is not of linear type
        "rees_ideal": (verify.rees_ideal, (M, None), rees.rees_ideal(M),
                       rees.symmetric_algebra_ideal(M)),
        "multiplicity": (verify.multiplicity,
                         (Ideal(P, (x ** 3, x * y, y ** 4)),), 7, 6),
        # (x^2, y^2) is m-primary, so the theorem gives dim R = 2
        "analytic_spread": (verify.analytic_spread, (diagonal,), 2, 1),
        # (x^2, y^2) * (x, y)^2 = (x, y)^4, but (x^2, y^2) is not (x, y)^2
        "is_reduction": (verify.is_reduction, (veronese, diagonal, 5),
                         rees.is_reduction(veronese, diagonal, 5),
                         rees.ReductionCertificate(True, 0, 5)),
        "reduction_number": (verify.reduction_number,
                             (veronese, diagonal, 5), 1, 0),
        # (x^2, xy) is no reduction: it vanishes on all of x = 0
        "minimal_reduction": (verify.minimal_reduction, (veronese, 0, 5),
                              rees.minimal_reduction(veronese),
                              Ideal(P, (x ** 2, x * y))),
        # (x) alone misses the component y = 0 of V(xy)
        "minimal_primes": (verify.minimal_primes, (Ideal(P, (x * y,)), 0),
                           decompose.minimal_primes(Ideal(P, (x * y,))),
                           [decompose.ComponentReport(Ideal(P, (x,)),
                                                      True)]),
        "strict_transform": (verify.strict_transform, (chart, tacnode),
                             strict, blowup.total_transform(chart, tacnode)),
        "is_smooth_away_from_irrelevant": (
            verify.is_smooth_away_from_irrelevant, (chart, strict),
            True, False),
        # x^4 + 1 multiplies back to itself but is not irreducible
        "factor_univariate": (verify.factor_univariate, (quartic, 0),
                              coeff.factor_univariate(quartic),
                              (1, [(quartic, 1)])),
        "factorization": (verify.factorization, (f, 0),
                          coeff.factor_multivariate(f, seed=0),
                          (1, [(f, 1)])),
        # x * x = 0 in P / (x^2), so (x, 0) lies in the kernel of (x, y)
        # beside (y, -x); without it the span misses a syzygy
        "kernel_of_matrix": (verify.kernel_of_matrix, (row,), kernel,
                             matrix_from_columns(Q, kernel.columns()[:1],
                                                 rows=2)),
        # a tangency counted once
        "intersect_in_p": (verify.intersect_in_p, (conic, tangent, 0),
                           intersection.intersect_in_p(conic, tangent),
                           [intersection.WeightedComponent(1, m)]),
    }


NAMES = ["colon", "kernel_of_matrix", "saturate", "radical_membership",
         "rees_ideal", "multiplicity", "analytic_spread", "is_reduction",
         "reduction_number", "minimal_reduction", "minimal_primes",
         "strict_transform",
         "is_smooth_away_from_irrelevant", "factor_univariate",
         "factorization", "intersect_in_p"]


def test_every_oracle_has_a_case():
    oracles = {name for name, v in vars(verify).items()
               if inspect.isfunction(v) and v.__module__ == verify.__name__
               and not name.startswith("_")}
    assert oracles == set(NAMES) == set(_cases())


@pytest.mark.parametrize("name", NAMES)
def test_oracle_accepts_the_right_output(name):
    oracle, inputs, right, _ = _cases()[name]
    assert oracle(*inputs, right) is None


@pytest.mark.parametrize("name", NAMES)
def test_oracle_rejects_a_wrong_output(name):
    oracle, inputs, right, wrong = _cases()[name]
    assert wrong != right
    with pytest.raises(verify.CrossCheckError, match="cross-check failed$"):
        oracle(*inputs, wrong)


def test_multiplicity_oracle_checks_the_theorem():
    # (x, y)^2 takes the theorem, e = 2^2 * e(R) = 4; both the normal cone
    # and the colengths of the powers refuse 5
    P = make_ring(101, ["x", "y"])
    x, y = P.gens()
    I = Ideal(P, (x ** 2, x * y, y ** 2))
    assert rees.multiplicity(I) == 4
    assert verify.multiplicity(I, 4) is None
    with pytest.raises(verify.CrossCheckError, match="cross-check failed$"):
        verify.multiplicity(I, 5)


def test_factor_univariate_oracle_multiplies_back():
    # irreducible monic factors that miss f: a wrong unit, a lost
    # multiplicity; a constant has no factors
    P = make_ring(101, ["x", "y"])
    x, y = P.gens()
    f = 3 * (y - 2) ** 2 * (y ** 2 + 2)
    unit, factors = coeff.factor_univariate(f)
    assert (unit, [m for _, m in factors]) == (3, [2, 1])
    assert verify.factor_univariate(f, 0, (unit, factors)) is None
    assert verify.factor_univariate(P.poly({(0, 0): 5}), 0, (5, [])) is None
    for wrong in ((1, factors), (unit, [(g, 1) for g, _ in factors])):
        with pytest.raises(verify.CrossCheckError,
                           match="cross-check failed$"):
            verify.factor_univariate(f, 0, wrong)


def test_factorization_oracle_runs_kronecker_through_the_one_body(
        monkeypatch):
    # the reference takes the same monomial-content split, sort and draws
    # as factor_multivariate, with _kronecker_factors for the Hensel lift
    P = make_ring(101, ["x", "y"])
    x, y = P.gens()
    f = x * (x ** 2 + y) * (x * y - 3)
    routes = []
    body = coeff._factorization
    monkeypatch.setattr(coeff, "_factorization",
                        lambda *args: routes.append(args[3]) or body(*args))
    out = coeff.factor_multivariate(f)
    assert verify.factorization(f, 0, out) is None
    assert routes == [coeff._hensel_factors, coeff._kronecker_factors]
    with pytest.raises(verify.CrossCheckError, match="cross-check failed$"):
        verify.factorization(f, 0, (out[0], out[1][1:]))


def test_intersect_in_p_oracle_beyond_the_colength():
    # an improper intersection, where the colength check does not apply:
    # the two-cone kernel path certifies every component and refuses a
    # multiplicity that is off by one
    P = make_ring(101, ["x", "y"])
    x, y = P.gens()
    I, J = Ideal(P, (x ** 2 * y,)), Ideal(P, (x * y ** 2,))
    out = intersection.intersect_in_p(I, J)
    assert [c.multiplicity for c in out] == [2, 2, 5]
    assert verify.intersect_in_p(I, J, 0, out) is None
    wrong = out[:2] + [intersection.WeightedComponent(4, out[2].prime)]
    with pytest.raises(verify.CrossCheckError, match="cross-check failed$"):
        verify.intersect_in_p(I, J, 0, wrong)


def test_intersect_in_p_oracle_skips_the_colength_in_excess():
    # a double point against a reduced one: the distinguished multiplicity
    # is 2, not the colength 1 of I + J, and the colength check stays out,
    # as the codimensions of I and J add up to 4, not 2
    P = make_ring(101, ["x", "y"])
    x, y = P.gens()
    I, J = Ideal(P, (x ** 2, y)), Ideal(P, (x, y))
    out = intersection.intersect_in_p(I, J)
    assert [(c.multiplicity, gb.vector_space_dimension(c.prime))
            for c in out] == [(2, 1)]
    assert gb.vector_space_dimension(I + J) == 1
    assert verify.intersect_in_p(I, J, 0, out) is None


def test_rees_ideal_oracle_checks_the_saturation_element():
    # I = (x^2, xy, y^2): I[1/x] is the unit ideal, so x is a legal
    # saturation element; I[1/z] is not of linear type, and saturating by z
    # misses w_1^2 - w_0*w_2
    P = make_ring(101, ["x", "y", "z"])
    x, y, z = P.gens()
    M = rees.as_module(Ideal(P, (x ** 2, x * y, y ** 2)))
    right = rees.rees_ideal(M, f=x)
    assert right == rees.rees_ideal(M)
    assert verify.rees_ideal(M, x, right) is None
    wrong = rees.rees_ideal(M, f=z)
    assert wrong != right
    with pytest.raises(verify.CrossCheckError,
                       match="^reesIdeal strategy cross-check failed$"):
        verify.rees_ideal(M, z, wrong)


def test_minimal_reduction_oracle_rejects_each_defect():
    # (x, y)^2 has spread 2: (x^2, xy) is no reduction, (x^2, xy, y^2) has
    # one generator too many, and (x^3, y^2) is no reduction either, as x^2
    # is not integral over it; a generator outside I is refused too
    P = make_ring(101, ["x", "y"])
    x, y = P.gens()
    I = Ideal(P, (x ** 2, x * y, y ** 2))
    assert verify.minimal_reduction(I, 0, 5, Ideal(P, (x ** 2, y ** 2))) \
        is None
    for gens in ((x ** 2, x * y), (x ** 2, y ** 2, x * y), (x ** 3, y ** 2),
                 (x, y ** 2)):
        with pytest.raises(verify.CrossCheckError,
                           match="cross-check failed$"):
            verify.minimal_reduction(I, 0, 5, Ideal(P, gens))


def test_minimal_primes_oracle_rejects_each_defect():
    # the minimal primes of (xy) are (x) and (y): a prime that does not
    # contain xy, one that contains another, and a list that misses y = 0
    P = make_ring(101, ["x", "y"])
    x, y = P.gens()
    I = Ideal(P, (x * y,))

    def primes(*gens):
        return [decompose.ComponentReport(Ideal(P, g), True) for g in gens]
    assert verify.minimal_primes(I, 0, primes((y,), (x,))) is None
    for wrong in (primes((x,), (y - 1,)), primes((x,), (y,), (x, y)),
                  primes((x, y)), []):
        with pytest.raises(verify.CrossCheckError,
                           match="cross-check failed$"):
            verify.minimal_primes(I, 0, wrong)
