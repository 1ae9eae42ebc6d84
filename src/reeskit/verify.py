"""The ``--verify`` oracles.  Each takes an operation's inputs and its
output ``out``, recomputes the result by an independent strategy, and
raises CrossCheckError, whose message ends in ``cross-check failed``, when
the two disagree.  Under ``--verify``, ``cli._plain`` calls each with the
values of its op's table row; tests call them directly.
"""

import functools
from collections import Counter

from . import blowup, coeff, decompose, gb, intersection, rees
from .gb import Ideal
from .polyring import FreeModuleMap, row_times_matrix, transport


class CrossCheckError(Exception):
    """An output disagrees with its independent recomputation."""


def _check(agree, what):
    if not agree:
        raise CrossCheckError(f"{what} cross-check failed")


def factorization(f, seed, out):
    """A bivariate ``factor_multivariate`` (Hensel lifting) against
    Kronecker substitution, run by the same factorization body, where the
    latter does not refuse."""
    if len(f.support_vars()) != 2:
        return
    try:
        alt = coeff._factorization(f, seed, coeff.KRONECKER_DEGREE_BOUND,
                                   coeff._kronecker_factors)
    except coeff.KroneckerBoundError:
        return
    _check(alt == out, "factorization")


def factor_univariate(f, seed, out):
    """The unit times the product of the factors, to their multiplicities,
    multiplies back to f by ``uv_mul``, which packs all but the smallest
    operands; each factor is monic and passes Rabin's irreducibility test,
    which uses neither the root split nor Cantor-Zassenhaus.  Neither
    draws, so the seed goes unused."""
    unit, factors = out
    used = f.support_vars()
    i = used[0] if used else 0
    p = f.ring.p
    prod = [unit % p]
    for q, m in factors:
        g = coeff._poly_to_uv(q, i)
        _check(q.support_vars() == used and g[-1] == 1
               and coeff.is_irreducible_univariate(g, p), "factorUnivariate")
        for _ in range(m):
            prod = coeff.uv_mul(prod, g, p)
    _check(prod == coeff._poly_to_uv(f, i), "factorUnivariate")


def colon(I, by, out):
    """The t-trick elimination gives I meet (g) = g * (I : g), and I : J is
    the meet of the I : g."""
    meet = None
    for g in gb._colon_elements(I.ring, by):
        piece = gb.colon(I, g)
        g_ideal = Ideal(I.ring, (g,))
        _check(gb.intersect_ideals(I, g_ideal) == g_ideal * piece, "colon")
        meet = piece if meet is None else gb.intersect_ideals(meet, piece)
    _check(meet == out, "colon")


def kernel_of_matrix(A, out):
    """Every column of ``out`` maps to 0 in R, and every syzygy of A found
    without padding (``_syzygies_without_padding``) lies in the span of
    those columns and of Q in every row, taken without padding too."""
    s, rows = A.cols, A.transpose()
    _check(out.rows == s and all(
        f.is_zero() for col in out.columns()
        for f in row_times_matrix(col, rows)), "kernelOfMatrix")
    span = gb.groebner_basis(_with_quotient(A.ring, out.columns(), s))
    _check(all(gb.module_contains(span, col)
               for col in _syzygies_without_padding(A)), "kernelOfMatrix")


def _with_quotient(ring, columns, rows):
    """``columns`` of ``ring``, followed by q * e_i for every q in Q and row
    i, as a matrix of the ambient ring, which has no quotient to pad with:
    its columns span the preimage of theirs in the ambient module."""
    amb = ring.ambient
    zero = amb.zero()
    cols = [tuple(transport(f, amb) for f in c) for c in columns]
    cols += [tuple(q if k == i else zero for k in range(rows))
             for q in ring.quotient for i in range(rows)]
    return FreeModuleMap(amb, [[c[i] for c in cols] for i in range(rows)],
                         rows=rows, cols=len(cols))


def _syzygies_without_padding(A):
    """Lifts of generators of ker(A), from the graph construction of A's
    columns and of q * e_i, for every q in Q and row i, as plain inputs:
    the engine pairs them all, the q * e_i among themselves too.  The
    q * e_i carry no unit vector, as their coefficients would be
    projected away, and go in first: put after the columns, they are
    reduced by them into elements with unit vectors, and one 4-row draw
    ran for minutes."""
    amb, m = A.ring.ambient, A.rows
    unit = (0,) * amb.nvars
    vecs = [gb._poly_to_vec(q, comp=i)
            for q in A.ring.quotient for i in range(m)]
    for j, col in enumerate(A.columns()):
        v = gb._module_vec(col, amb)
        v[(m + j, unit)] = 1
        vecs.append(v)
    return [gb._vec_to_polys({(c - m, e): co for (c, e), co in g.items()},
                             amb, A.cols)
            for lead, g in gb._engine_basis(vecs, amb) if lead[0] >= m]


def saturate(I, by, out):
    """Saturation by iterated colon."""
    _check(gb.saturation_exponent(I, by)[1] == out, "saturation")


def radical_membership(f, I, out):
    """f in rad(I) iff the iterated colon I : f^inf is the unit ideal."""
    if not f.is_zero():
        _check(gb.saturation_exponent(I, f)[1].is_unit() == out,
               "radical membership")


def rees_ideal(M, f, out):
    """The saturation strategy by f against the default strategy: f is
    legal only when M[1/f] is of linear type, which nothing else checks.
    Without f, for an ideal of a polynomial ring, the default strategy
    against the saturation strategy by its first nonzero generator."""
    if f is not None:
        _check(rees.rees_ideal(M) == out, "reesIdeal strategy")
        return
    if not M.is_ideal or M.ring.quotient:
        return
    nz = next((g for g in M.gens if not g.is_zero()), None)
    if nz is not None:
        _check(rees.rees_ideal(M, f=nz) == out, "reesIdeal strategy")


def multiplicity(I, out):
    """The normal cone's h(1), where the theorem gave the output, and
    without the normal cone: len(R/I^(n+1)) is a polynomial in n from
    n = deg h - d on, and its d-th difference is e."""
    h, d = rees._normal_cone_series(I)
    _check(sum(h.values()) == out, "multiplicity")
    top = max(max(h, default=0), d)
    powers = [I]
    while len(powers) <= top:
        powers.append(Ideal(I.ring, powers[-1].display_gens()) * I)
    diffs = [gb.vector_space_dimension(P) for P in powers[top - d:]]
    for _ in range(d):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    _check(diffs == [out], "multiplicity")


def analytic_spread(I, out):
    """The dimension of the special fiber, where the theorem gave the
    output for an m-primary ideal."""
    _check(rees._fiber_dimension(I) == out, "analytic spread")


def is_reduction(I, J, cap, out):
    """The ideals J * I^r and I^(r+1) compared, where the ranks of their
    graded pieces gave the output for forms of one degree."""
    _check(rees._reduction_by_ideals(I, J, cap) == out, "reduction")


def minimal_reduction(I, seed, cap, out):
    """out lies in I, has at most ell(I) nonzero generators, and out * I^r
    = I^(r+1) for some r up to the cap, by comparing the ideals, where the
    op may have compared ranks of graded pieces.  The seed goes unused."""
    gens = [g for g in out.gens if not g.is_zero()]
    _check(all(I.contains(g) for g in gens)
           and len(gens) <= rees.analytic_spread(I)
           and rees._reduction_by_ideals(I, out, cap).accepted,
           "minimalReduction")


def reduction_number(I, J, cap, out):
    """The least r with J * I^r = I^(r+1), by comparing the ideals."""
    cert = rees._reduction_by_ideals(I, J, cap)
    _check(cert.accepted and cert.witness == out, "reduction number")


def strict_transform(chart, X, out):
    """Saturation of the total transform by iterated colon."""
    alt = gb.saturation_exponent(blowup.total_transform(chart, X),
                                 chart.exceptional)[1]
    _check(alt == out, "strict transform")


def is_smooth_away_from_irrelevant(chart, X, out):
    """The singular locus saturates to (1) under iterated colon."""
    alt = gb.saturation_exponent(blowup.singular_locus_ideal(X),
                                 chart.irrelevant)[1]
    _check(alt.is_unit() == out, "smoothness")


def minimal_primes(I, seed, out):
    """Each prime contains I, none contains another, and every generator
    of their intersection lies in rad(I) (``radical_membership``): the
    primes cut out V(I), each of them needed.  The seed goes unused."""
    primes = [c.prime for c in out]
    inside = decompose._contains_ideal
    _check(primes and all(inside(I, P) for P in primes)
           and not any(i != j and inside(P, Q) for i, P in enumerate(primes)
                       for j, Q in enumerate(primes)), "minimalPrimes")
    meet = functools.reduce(gb.intersect_ideals, primes)
    _check(all(gb.radical_membership(g, I) for g in meet.gens),
           "minimalPrimes")


def intersect_in_p(I, J, seed, out):
    """(i) Where I and J are complete intersections of codimensions adding
    up to n that meet in finitely many points, Tor vanishes and each
    multiplicity is the length of R/(I + J) at its point: every prime
    contains I + J, and the sum of multiplicity * colength(P) is
    colength(I + J).  (ii) ``distinguished`` on the doubled projection, the
    kernel between both normal cones, where it certifies every component:
    an uncertified or refused result of that path cannot refute ``out``."""
    both = I + J
    if gb.dimension_and_degree(both)[0] == 0:
        cI, cJ = gb._complete_intersection(I), gb._complete_intersection(J)
        if cI is not None and cJ is not None and cI + cJ == I.ring.nvars:
            _check(all(c.prime.contains(g) for c in out for g in both.gens)
                   and sum(c.multiplicity * gb.vector_space_dimension(c.prime)
                           for c in out) == gb.vector_space_dimension(both),
                   "intersectInP colength")
    try:
        alt = _two_cone_components(I, J, seed)
    except RuntimeError:
        return
    if all(c.certified for c in alt):
        _check(Counter((c.multiplicity, c.prime) for c in alt)
               == Counter((c.multiplicity, c.prime) for c in out),
               "intersectInP")


def _two_cone_components(I, J, seed):
    """``distinguished`` on the doubled projection, with the kernel between
    both normal cones, retracted to I's ring."""
    diag, f = intersection._doubled_projection(I, J)
    to_ring = intersection._retraction(I.ring, f.source)
    return [intersection.WeightedComponent(c.multiplicity, to_ring(c.prime),
                                           c.certified)
            for c in intersection.distinguished(f, diag, seed=seed)]
