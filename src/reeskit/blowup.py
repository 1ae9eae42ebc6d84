"""Blowup as Proj of the Rees algebra: transforms and smoothness checks.

A chart is global: one flattened Rees ring with the Rees ideal installed as
its quotient.  The strict transform is the total transform saturated by the
exceptional ideal, by ``gb.saturate``: one elimination of fresh z_i from
X + Q + (1 - sum z_i * g_i) over the generators g_i of the exceptional
ideal.  A transform is smooth away from the irrelevant ideal J (the
w-block), i.e. on Proj instead of the affine cone, when its Jacobian-minor
locus S has S : J^oo = (1).  By the same identity that holds iff 1 lies in
S + Q + (1 - sum z_i * w_i), so one reduced basis of that ideal, tested
for a constant, decides it.  Its generators stay in the ambient ring:
those of X + Q, which hold Q, and the Jacobian minors taken there.  Only
``singular_locus_ideal``, which returns S, descends them into the chart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gb import (Ideal, _descend, _lift, _saturates_to_unit,
                 dimension_and_degree, minors_ideal, saturate)
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


def _singular_locus_gens(X: Ideal, expected_codim=None):
    """The generators of X + Q in the ambient ring followed by the size-c
    Jacobian minors, c the codimension; [1] where that locus is empty."""
    amb = X.ring.ambient
    full = [g for g in _lift(X) if not g.is_zero()]
    if not full:
        return [amb.one()]
    if expected_codim is None:
        # X's reduced ambient basis is that of X + Q in the ambient ring
        c = amb.nvars - dimension_and_degree(X)[0]
    else:
        c = expected_codim
    if c <= 0:
        return [amb.one()]
    jac = FreeModuleMap(
        amb, [[g.derivative(n) for n in amb.names] for g in full])
    return full + list(minors_ideal(c, jac).gens)


def singular_locus_ideal(X: Ideal, expected_codim=None) -> Ideal:
    """(X + Q) plus the size-c Jacobian minors, c the codimension."""
    return _descend(X.ring, _singular_locus_gens(X, expected_codim))


def is_smooth_away_from_irrelevant(chart: BlowupChart, X: Ideal) -> bool:
    amb = X.ring.ambient
    return _saturates_to_unit(
        Ideal(amb, _singular_locus_gens(X)),
        [transport(w, amb) for w in chart.irrelevant.gens])
