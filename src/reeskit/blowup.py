"""Blowup as Proj of the Rees algebra: transforms and smoothness checks.

A chart is global: one flattened Rees ring with the Rees ideal installed as
its quotient.  The strict transform is the total transform saturated by the
exceptional ideal, by ``gb.saturate``: one elimination of fresh z_i from
X + Q + (1 - sum z_i * g_i) over the generators g_i of the exceptional
ideal.  A transform is smooth away from the irrelevant ideal J (the
w-block), i.e. on Proj instead of the affine cone, when its Jacobian-minor
locus S has S : J^oo = (1), that is V(S) lies in V(J).  Its generators stay
in the ambient ring: those of X + Q, which hold Q, and the Jacobian minors
taken there.  Only ``singular_locus_ideal``, which returns S, descends them
into the chart.

When every generator of X + Q is homogeneous in the w-grading (x weight
0, w weight 1), as a strict transform's are, Proj is read chart by chart.
Each minor is then w-homogeneous too, so V(S) is stable under scaling the
w-variables, and V(S) lies in V(J) iff it misses every affine chart
w_i = 1.  On that chart take the equations with w_i = 1 and their size-c
Jacobian minors over the other n - 1 variables: by Euler's identity
sum_k w_k * df/dw_k = deg_w(f) * f, at a point of V(X) with w_i = 1 the
df/dw_i column is a combination of the others, so the chart Jacobian has
the full one's rank and the chart ideal cuts out V(S) there.  A chart is
empty iff its reduced basis is a constant.  Every other X keeps one
reduced basis of S + Q + (1 - sum z_i * w_i), tested for a constant, as
the Rabinowitsch identity gives; ``verify.is_smooth_away_from_irrelevant``
saturates S by iterated colon.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gb import (Ideal, _descend, _lift, _saturates_to_unit, _subring_without,
                 dimension_and_degree, minors_ideal, reduced_groebner_raw,
                 saturate)
from .polyring import FreeModuleMap, RingDescriptor, RingMap, transport
from .rees import rees_presentation, rees_variable_names


@dataclass(frozen=True)
class BlowupChart:
    """Global chart of the blowup along a center."""
    ring: RingDescriptor          # Rees ring modulo the Rees ideal
    projection: RingMap           # base ring -> chart ring
    irrelevant: Ideal             # (w-block) in the chart ring
    exceptional: Ideal            # image of the center

    def __str__(self):
        return f"blowup[ {self.ring!r} ]"


def blowup_of(center: Ideal) -> BlowupChart:
    if center.is_unit():
        raise ValueError("cannot blow up the unit ideal")
    if center.is_zero():
        raise ValueError("cannot blow up the zero ideal")
    base = center.ring
    rp = rees_presentation(center)
    # the Rees ring carries the base quotient, so the Rees ideal's reduced
    # ambient basis is that of the Rees ideal plus it
    B = rp.ring._modulo(rp.ideal.groebner().ambient_elements)
    proj = RingMap(base, B, [B.var(n) for n in base.ambient.names])
    irrelevant = Ideal(B, tuple(B.var(n) for n in rees_variable_names(B)))
    exceptional = Ideal(B, tuple(transport(g, B) for g in center.gens))
    return BlowupChart(B, proj, irrelevant, exceptional)


def total_transform(chart: BlowupChart, X: Ideal) -> Ideal:
    return chart.projection(X)


def strict_transform(chart: BlowupChart, X: Ideal) -> Ideal:
    return saturate(total_transform(chart, X), chart.exceptional)


def _equations_and_codim(X: Ideal, expected_codim=None):
    """The nonzero generators of X + Q in the ambient ring and the
    codimension c; no generators when X + Q is zero."""
    amb = X.ring.ambient
    full = [g for g in _lift(X) if not g.is_zero()]
    if not full or expected_codim is not None:
        return full, expected_codim
    # X's reduced ambient basis is that of X + Q in the ambient ring
    return full, amb.nvars - dimension_and_degree(X)[0]


def _jacobian_minors(ring, eqs, c):
    """The size-c minors of the Jacobian matrix of ``eqs`` over the
    variables of ``ring``."""
    jac = FreeModuleMap(
        ring, [[g.derivative(n) for n in ring.names] for g in eqs])
    return list(minors_ideal(c, jac).gens)


def _singular_locus_gens(X: Ideal, expected_codim=None):
    """The generators of X + Q in the ambient ring followed by the size-c
    Jacobian minors, c the codimension; [1] where that locus is empty."""
    amb = X.ring.ambient
    full, c = _equations_and_codim(X, expected_codim)
    if not full or c <= 0:
        return [amb.one()]
    return full + _jacobian_minors(amb, full, c)


def singular_locus_ideal(X: Ideal, expected_codim=None) -> Ideal:
    """(X + Q) plus the size-c Jacobian minors, c the codimension."""
    return _descend(X.ring, _singular_locus_gens(X, expected_codim))


def _chart_is_empty(full, c, i, amb):
    """V(full + size-c Jacobian minors) misses the chart w_i = 1, for
    ``full`` homogeneous in the w-grading (see the module docstring).

    The rank of a Jacobian at the points of V does not depend on the
    generators of V's ideal, so the minors are taken of the chart
    equations' reduced basis, which then pads their run."""
    chart = _subring_without(amb, [amb.names[i]])
    eqs = reduced_groebner_raw(
        [chart.poly({e[:i] + e[i + 1:]: a for e, a in g.terms})
         for g in full], chart)
    if not eqs[0].is_constant():
        eqs = reduced_groebner_raw(_jacobian_minors(chart, eqs, c), chart,
                                   eqs)
    return eqs[0].is_constant()


def is_smooth_away_from_irrelevant(chart: BlowupChart, X: Ideal) -> bool:
    """S : J^oo = (1) for S the singular locus of X and J the irrelevant
    ideal: chart by chart when X + Q is homogeneous in the w's, else by
    one Rabinowitsch basis (see the module docstring)."""
    amb = X.ring.ambient
    full, c = _equations_and_codim(X)
    if not full or c <= 0:
        return True
    ws = [amb.var_index(n) for n in rees_variable_names(chart.ring)]
    if all(len({sum(e[k] for k in ws) for e, _ in g.terms}) == 1
           for g in full):
        return all(_chart_is_empty(full, c, i, amb) for i in ws)
    return _saturates_to_unit(
        Ideal(amb, full + _jacobian_minors(amb, full, c)),
        [amb.var(amb.names[i]) for i in ws])
