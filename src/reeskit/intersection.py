"""Distinguished subvarieties and multiplicities of an intersection.

Given a map f: S -> R and an ideal I of S, the kernel K of the induced map
between the associated graded rings of I and f(I) is decomposed into
minimal primes; each component P gets the multiplicity with which it
appears in K, computed through the associativity formula
deg(T/sat(K, h)) / deg(T/P) after saturating the other components away.

intersectInP intersects two subschemes of affine space by pulling the
diagonal ideal back to the doubled ring, which is the Fulton-MacPherson
construction specialized to subvarieties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decompose import minimal_primes
from .gb import (Ideal, _ambient_ideal, _descend, dimension_and_degree,
                 eliminate, kernel_of_ring_map, normal_form, saturate)
from .polyring import RingDescriptor, RingMap, transport
from .rees import normal_cone, base_variable_names, rees_variable_names


@dataclass(frozen=True)
class WeightedComponent:
    """(multiplicity, distinguished prime in the base ring) pair."""
    multiplicity: int
    prime: Ideal
    certified: bool = True

    def __str__(self):
        s = f"({self.multiplicity}, {self.prime})"
        if not self.certified:
            s += " unverified"
        return s


def _component_key(wc):
    """Sort key of a component: larger dimension first, then its basis."""
    return (-dimension_and_degree(wc.prime)[0],
            tuple(g.terms for g in wc.prime.display_gens()))


def _avoidance_element(parts, i, rng, p):
    """Element of every P_j (j != i) outside P_i; deterministic first, then
    seeded random combinations of products."""
    target = parts[i].prime
    others = [parts[j].prime for j in range(len(parts)) if j != i]
    if not others:
        return target.ring.one()
    ring = target.ring
    pick = ring.one()
    ok = True
    for P in others:
        cand = None
        for g in P.display_gens():
            if not normal_form(g, target).is_zero():
                cand = g
                break
        if cand is None:
            ok = False
            break
        pick = pick * cand
    if ok and not normal_form(pick, target).is_zero():
        return pick
    for _ in range(40):
        pick = ring.one()
        for P in others:
            pick = pick * ring.sum(g * rng.randrange(p)
                                   for g in P.display_gens())
        if not pick.is_zero() and not normal_form(pick, target).is_zero():
            return pick
    raise RuntimeError("prime avoidance failed; components may be entangled")


def distinguished(f: RingMap, I: Ideal, seed=0):
    """Weighted distinguished components of the intersection datum (f, I)."""
    S = f.source
    if I.ring != S:
        raise ValueError("ideal must live in the source of the map")
    ncS = normal_cone(I)
    images = [f(g) for g in I.gens]
    ncR = normal_cone(Ideal(f.target, tuple(images)))
    wS = rees_variable_names(ncS)
    wR = rees_variable_names(ncR)
    # the graded map sends base variables through f and w_i to w_i
    imgs = []
    for n in base_variable_names(ncS):
        imgs.append(transport(f(S.var(n)), ncR))
    for a, b in zip(wS, wR):
        imgs.append(ncR.var(b))
    K = kernel_of_ring_map(RingMap(ncS, ncR, imgs))
    amb = ncS.ambient
    K_full = _ambient_ideal(K)
    parts = minimal_primes(K_full, seed=seed)
    rng = random.Random(seed)
    out = []
    for i, part in enumerate(parts):
        P = part.prime
        h = _avoidance_element(parts, i, rng, amb.p)
        sat = saturate(K_full, h)
        dim_s, deg_s = dimension_and_degree(sat)
        dim_p, deg_p = dimension_and_degree(P)
        if dim_s != dim_p:
            raise RuntimeError(
                "saturation changed the component dimension; "
                "decomposition needs re-examination")
        if deg_s % deg_p:
            raise RuntimeError(
                f"non-integer multiplicity {deg_s}/{deg_p}; "
                "decomposition needs re-examination")
        mult = deg_s // deg_p
        E = eliminate(P, wS)
        prime_S = _descend(S, E.display_gens(), E.ring.order_spec)
        out.append(WeightedComponent(mult, prime_S, part.certified))
    # identical (multiplicity, prime) duplicates collapse; distinct
    # components with equal contraction are kept
    seen = {}
    for wc in out:
        key = (wc.multiplicity, wc.prime)
        if key not in seen:
            seen[key] = wc
    return sorted(seen.values(), key=_component_key)


def intersect_in_p(I: Ideal, J: Ideal, seed=0):
    """Distinguished components of V(I) . V(J) inside affine space.

    Works in the doubled ring against the diagonal and retracts the
    resulting primes back to the original coordinates.
    """
    if I.ring != J.ring:
        raise ValueError("both ideals must live in the same ring")
    ring = I.ring
    if ring.quotient:
        raise ValueError("intersectInP expects an affine polynomial ring")
    names = list(ring.names)
    twin = [f"{n}#2" for n in names]
    S2 = RingDescriptor(ring.p, (tuple(names), tuple(twin)), ("grevlex",))
    diag = Ideal(S2, tuple(S2.var(a) - S2.var(b)
                           for a, b in zip(names, twin)))
    lift_I = [transport(g, S2) for g in I.gens]
    lift_J = [transport(g, S2, dict(zip(names, twin))) for g in J.gens]
    R2 = S2.with_quotient(lift_I + lift_J)
    f = RingMap(S2, R2, [R2.var(n) for n in S2.names], check=False)
    comps = distinguished(f, diag, seed=seed)
    retract = RingMap(S2, ring,
                      [ring.var(n) for n in names] +
                      [ring.var(n) for n in names], check=False)
    out = []
    for wc in comps:
        gens = tuple(retract(g) for g in wc.prime.display_gens())
        prime = Ideal(ring, tuple(g for g in gens if not g.is_zero()))
        out.append(WeightedComponent(wc.multiplicity, prime, wc.certified))
    return sorted(out, key=_component_key)
