"""Distinguished subvarieties and multiplicities of an intersection.

Given a map f: S -> R and an ideal I of S, the kernel K of the induced map
between the associated graded rings of I and f(I) is decomposed into
minimal primes; each component P gets the multiplicity with which it
appears in K, computed through the associativity formula
deg(T/sat(K, h)) / deg(T/P) after saturating the other components away
(``_weighted_components``, the one loop every path shares).

intersectInP intersects V(I) and V(J) in affine space, the
Fulton-MacPherson construction specialized to subvarieties, in one of two
ways.

Two hypersurfaces meeting properly (I = (f) and J = (g), f and g
nonconstant, in a polynomial ring with a degree-compatible order, and
dim V(f, g) = n - 2) are decomposed in the base ring.  f and g share no
factor, since a common factor would leave a component of dimension n - 1,
so they form a regular sequence and Tor_i(R/f, R/g) = 0 for i >= 1:
Serre's intersection multiplicity at a component P of V(f, g) is the
length of (R/(f, g))_P (Serre, *Algebre locale, multiplicites*, 1965).
For a proper intersection the distinguished varieties are the components
of V(f) meet V(g), and i(P) is that length when both are Cohen-Macaulay
(Fulton, *Intersection Theory*, Prop. 7.1), as hypersurfaces are.  (f, g)
is unmixed, so K = (f, g) saturated by an element of every other
component is its P-primary part, and the associativity formula reads the
length off deg K : h^inf / deg P.

Every other input pulls the diagonal ideal D back to the doubled ring
S2 = k[x, x'] and takes the distinguished components of the projection
S2 -> R2 = S2/(I + J').  The map is the identity on the variables, so
both normal cones are quotients of one ambient ring A[w], and
Rees_S2(D) + D lies in Rees_R2(D R2) + D R2: the kernel between the
cones, lifted to A[w], is the target cone's quotient ideal itself, whose
reduced basis the target cone already holds.  The source cone and the
kernel are never computed.  ``distinguished`` of an arbitrary map keeps
both cones and the kernel; on the doubled projection it is the
``--verify`` oracle of both ways (``verify.intersect_in_p``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decompose import minimal_primes
from .gb import (GroebnerBasis, Ideal, _ambient_ideal, _descend, _with_basis,
                 dimension_and_degree, eliminate, kernel_of_ring_map,
                 normal_form, saturate)
from .polyring import (RingDescriptor, RingMap, is_degree_compatible,
                       transport)
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


def _weighted_components(K: Ideal, seed, contract=None):
    """The minimal primes P of K, each with the multiplicity
    deg(K : h^inf) / deg(P) for an h in every other minimal prime and
    outside P, and mapped by ``contract`` (when given) into the ring of the
    result.  Identical (multiplicity, prime) pairs collapse; distinct
    components with equal contraction are kept.  Unsorted."""
    parts = minimal_primes(K, seed=seed)
    rng = random.Random(seed)
    seen = {}
    for i, part in enumerate(parts):
        P = part.prime
        h = _avoidance_element(parts, i, rng, K.ring.p)
        dim_s, deg_s = dimension_and_degree(saturate(K, h))
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
        prime = P if contract is None else contract(P)
        seen.setdefault((mult, prime),
                        WeightedComponent(mult, prime, part.certified))
    return list(seen.values())


def _contraction(S: RingDescriptor, wnames):
    """P in the ambient ring of a normal cone -> P meet S, by eliminating
    the w variables."""
    def contract(P):
        E = eliminate(P, wnames)
        return _descend(S, E.display_gens(), E.ring.order_spec)
    return contract


def _two_cone_kernel(f: RingMap, I: Ideal):
    """The kernel of gr_I(S) -> gr_f(I)(R) lifted to the ambient ring of
    the source cone, and the cone's w variables."""
    S = f.source
    ncS = normal_cone(I)
    ncR = normal_cone(Ideal(f.target, tuple(f(g) for g in I.gens)))
    wS = rees_variable_names(ncS)
    # the graded map sends base variables through f and w_i to w_i
    imgs = [transport(f(S.var(n)), ncR) for n in base_variable_names(ncS)]
    imgs += [ncR.var(b) for _, b in zip(wS, rees_variable_names(ncR))]
    K = kernel_of_ring_map(RingMap(ncS, ncR, imgs))
    return _ambient_ideal(K), wS


def distinguished(f: RingMap, I: Ideal, seed=0):
    """Weighted distinguished components of the intersection datum (f, I)."""
    if I.ring != f.source:
        raise ValueError("ideal must live in the source of the map")
    K, wS = _two_cone_kernel(f, I)
    return sorted(_weighted_components(K, seed, _contraction(f.source, wS)),
                  key=_component_key)


def _doubled_projection(I: Ideal, J: Ideal):
    """The diagonal D of S2 = k[x, x'] and the projection
    S2 -> S2/(I + J'), J' being J in the primed variables."""
    ring = I.ring
    names = list(ring.names)
    twin = [f"{n}#2" for n in names]
    S2 = RingDescriptor(ring.p, (tuple(names), tuple(twin)), ("grevlex",))
    diag = Ideal(S2, tuple(S2.var(a) - S2.var(b)
                           for a, b in zip(names, twin)))
    lift_I = [transport(g, S2) for g in I.gens]
    lift_J = [transport(g, S2, dict(zip(names, twin))) for g in J.gens]
    R2 = S2.with_quotient(lift_I + lift_J)
    f = RingMap(S2, R2, [R2.var(n) for n in S2.names], check=False)
    return diag, f


def _target_cone_kernel(f: RingMap, diag: Ideal):
    """``_two_cone_kernel(f, diag)`` for a projection f, read off the
    target cone (module docstring)."""
    nc = normal_cone(Ideal(f.target, tuple(f(g) for g in diag.gens)))
    amb, q = nc.ambient, nc.quotient
    return (_with_basis(amb, q, GroebnerBasis(amb, 0, q, q)),
            rees_variable_names(nc))


def _retraction(ring, S2):
    """S2 = k[x, x'] -> ring, x and x' both to x: injective on the primes
    that contain the diagonal, as every distinguished prime does."""
    retract = RingMap(S2, ring, [ring.var(n) for n in ring.names] * 2,
                      check=False)

    def to_ring(P):
        gens = (retract(g) for g in P.display_gens())
        return Ideal(ring, tuple(g for g in gens if not g.is_zero()))
    return to_ring


def _meets_properly(I: Ideal, J: Ideal, K: Ideal) -> bool:
    """I = (f) and J = (g), f and g nonconstant, whose sum K has
    dim V(K) = n - 2 >= 0, in a ring whose order computes dimensions."""
    if not is_degree_compatible(I.ring.order_spec):
        return False
    for A in (I, J):
        basis = A.groebner().ambient_elements
        if len(basis) != 1 or basis[0].is_constant():
            return False
    return dimension_and_degree(K)[0] == I.ring.nvars - 2 >= 0


def intersect_in_p(I: Ideal, J: Ideal, seed=0):
    """Distinguished components of V(I) . V(J) inside affine space.

    Two hypersurfaces meeting properly are decomposed in the base ring;
    every other pair goes through the doubled ring against the diagonal,
    with the resulting primes retracted to the original coordinates
    (module docstring).
    """
    if I.ring != J.ring:
        raise ValueError("both ideals must live in the same ring")
    ring = I.ring
    if ring.quotient:
        raise ValueError("intersectInP expects an affine polynomial ring")
    K = I + J
    if _meets_properly(I, J, K):
        comps = _weighted_components(K, seed)
    else:
        diag, f = _doubled_projection(I, J)
        K_full, wnames = _target_cone_kernel(f, diag)
        contract = _contraction(f.source, wnames)
        to_ring = _retraction(ring, f.source)
        comps = _weighted_components(K_full, seed,
                                     lambda P: to_ring(contract(P)))
    return sorted(comps, key=_component_key)
