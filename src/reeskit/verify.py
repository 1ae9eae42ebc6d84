"""The ``--verify`` oracles.  Each takes an operation's inputs and its
output ``out``, recomputes the result by an independent strategy, and
raises CrossCheckError, whose message ends in ``cross-check failed``, when
the two disagree.  ``cli`` calls them under ``--verify``; tests call them
directly.
"""

from . import blowup, coeff, gb, rees
from .gb import Ideal


class CrossCheckError(Exception):
    """An output disagrees with its independent recomputation."""


def _check(agree, what):
    if not agree:
        raise CrossCheckError(f"{what} cross-check failed")


def factorization(f, seed, out):
    """A bivariate ``factor_multivariate`` (Hensel lifting) against
    Kronecker substitution, where the latter does not refuse."""
    if len(f.support_vars()) != 2:
        return
    try:
        alt = coeff.factor_multivariate(f, seed=seed, method="kronecker")
    except coeff.KroneckerBoundError:
        return
    _check(alt == out, "factorization")


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


def saturate(I, by, out):
    """Saturation by iterated colon."""
    _check(gb.saturation_exponent(I, by)[1] == out, "saturation")


def radical_membership(f, I, out):
    """f in rad(I) iff the iterated colon I : f^inf is the unit ideal."""
    if not f.is_zero():
        _check(gb.saturation_exponent(I, f)[1].is_unit() == out,
               "radical membership")


def rees_ideal(M, out):
    """For an ideal of a polynomial ring, the default strategy against the
    saturation strategy by its first nonzero generator."""
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
