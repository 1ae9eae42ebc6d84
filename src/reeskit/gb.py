"""Groebner engine (Buchberger, ideals and submodules) and the ideal calculus.

Everything runs over the ambient polynomial ring: for a ring with quotient
ideal Q the generators of Q are adjoined to every computation and results
are reduced back.  ``_lift`` and ``_descend`` are the only way in and out:
``_lift(I)`` gives I's generators in the ambient ring followed by Q, and
``_descend(ring, polys, spec)`` the ideal of the nonzero images of
``polys``, so no result carries a generator that is zero in the ring.  A
Groebner basis descends once, into ``GroebnerBasis.elements``, and that is
what ``Ideal.display_gens`` returns.

A Groebner basis is also computed once.  In ``eliminate``,
``kernel_of_ring_map``, ``saturate``, ``intersect_ideals`` and ``colon``
the engine's output is already the result's reduced basis, monic and
ascending, in grevlex on the remaining variables after an elimination and
in the ambient order after a colon; ``spec`` tells ``_descend`` that
order.  When it is the result ring's ambient order and every generator of
Q reduces to 0 by the basis (a kernel of an unchecked ``RingMap`` need not
contain Q), the result is born with it (``_with_basis``) and its first
``groebner()`` runs no Buchberger.  Ideals rebuilt from a basis already
at hand share it the same way: ``_ambient_ideal(I)``, and an ideal
regenerated from its own ``display_gens``.

Module elements are dicts mapping (component, exponents) to coefficients;
ideals are rank-one modules with component 0.  The module order is
position-over-term on top of the ring order, which gives submodule
Groebner bases and, by the usual graph construction (``_graph_basis``),
both syzygies and lifts: the coefficients of members of an ideal on its
generators (``_coefficients``, behind ``rees.jacobian_dual``).

Padding.  An input that is already a reduced basis, Q in every row or an
ideal's carried basis, is passed as padding (``_padded``): the engine
inserts it first and forms no pair inside it, as standard-basis engines
treat the generators of a quotient ring (Greuel and Pfister, "A Singular
Introduction to Commutative Algebra").

Every normal form, here and in quotient rings, is computed by the one term
reducer ``polyring._reduce_vec``, which returns the remainder and nothing
else; no division records its quotients.  Normal forms and membership
tests against a finished basis use the ``polyring._Reducer`` that
``GroebnerBasis._reducers`` builds once per basis.  Every smaller
generating set comes from ``_trim``: one Buchberger run per degree.

Packed terms.  Inside the reducer and the engine ``_gb_core`` every term
is one int (``polyring._Packing``): guarded bit slots of prefix sums per
order block, with the component above them, so that the integer order is
the module order.  The next term of a reduction is a plain ``max`` over
ints, multiplying by a monomial is one addition, and the pair criteria get
lcms and divisibility from a few integer operations on the leads.  The
slot width comes from the input degrees; a term that outgrows it restarts
the computation wider.  The engine returns its basis as term dicts that
carry their lead under a sentinel key; ``_engine_basis`` is the one
function that calls it and reads that layout, and hands every caller
(lead, term dict) pairs.  Pairs of two monomials are never reduced: their
S-vector is zero.  Pairs are taken lowest sugar first (Giovini, Mora,
Niesi, Robbiano and Traverso, "One sugar cube, please", ISSAC 1991), then
smallest lcm: under the block orders of elimination, where the lcm order
is not degree-compatible, this takes low-degree pairs first.  Under a
one-block order every sugar is 0 and the lcm alone decides.  The engine's
final interreduction is a single pass: its minimal basis is already a
Groebner basis, so one reduction of each tail gives the unique reduced
basis.
"""

from __future__ import annotations

import heapq
import itertools
import math
from operator import itemgetter, lshift

from .polyring import (
    FreeModuleMap, Polynomial, RingDescriptor, RingMap, RingMismatchError,
    _Overflow, _Packing, _Reducer, _reduce_vec, elimination_spec,
    extend_ring, is_degree_compatible, matrix_from_columns, transport,
)

INFINITY = math.inf


# ---------------------------------------------------------------------------
# engine primitives
# ---------------------------------------------------------------------------

def _poly_to_vec(f: Polynomial, comp=0):
    return {(comp, e): c for e, c in f.terms}


def _vec_to_polys(vec, amb, rank):
    buckets = [dict() for _ in range(rank)]
    for (c, e), v in vec.items():
        buckets[c][e] = v
    return tuple(amb.poly(b) for b in buckets)


def _gb_core(vectors, amb, spec=None, padding=None):
    """Reduced Groebner basis of the module generated by ``vectors``.

    ``vectors`` are term dicts {(component, exponents): coeff} of ``amb``,
    and ``spec`` the order spec, ``amb``'s own by default, under position
    over term.  ``padding`` flags the vectors of a reduced basis, ascending
    in each component (``_padded``): they go in first and make no pairs
    among themselves.  Returns ``(basis,)``: a list of monic term dicts
    sorted by ascending lead, each dict carrying its lead under the key
    ``"_lead"``.
    The one-element tuple and the key are the shape that the basis-term
    counter of ``perfbench/tracer.py`` reads; inside reeskit only
    ``_engine_basis`` reads it.

    The work happens on packed terms (``polyring._Packing``, see
    ``_buchberger``).  The width comes from the input degrees; when a term
    outgrows it the computation restarts wider, so exponents of any size
    stay exact.
    """
    p = amb.p
    spec = spec or amb.order_spec
    if padding is None:
        padding = [False] * len(vectors)
    w = _Packing.width(max((sum(m[1]) for vec in vectors for m in vec),
                           default=0))
    while True:
        pk = _Packing(spec, amb.nvars, w)
        try:
            found = _buchberger(
                [{pk.pack(*m): c % p for m, c in vec.items() if c % p}
                 for vec in vectors], pk, p, padding)
            break
        except _Overflow:
            w += 2
    unpack = pk.unpack
    basis = []
    for lead, g in found:
        d = {unpack(m): c for m, c in g.items()}
        d["_lead"] = unpack(lead)
        basis.append(d)
    return (basis,)


def _engine_basis(vectors, amb, spec=None, padding=None):
    """``_gb_core``'s reduced basis as (lead, term dict) pairs, ascending.

    The one reader of the engine's output layout: every caller of the
    engine goes through here, so the ``"_lead"`` key appears nowhere else.
    """
    basis, = _gb_core(vectors, amb, spec, padding)
    return [(g.pop("_lead"), g) for g in basis]


def _buchberger(vectors, pk, p, padding):
    """``_gb_core`` on packed term dicts of the packing ``pk``; returns
    (lead, element) per basis element, ascending, or raises
    ``_Overflow`` when a term outgrows ``pk``.

    Every reduction is ``polyring._reduce_vec``, searching the leads
    ``bycomp`` of the elements so far and using the monic ``tails`` that
    ``add`` appends to.

    Padding.  The vectors flagged in ``padding`` are inserted first, as
    they are, without ``update``: they are a reduced Groebner basis, so
    every S-vector of two of them reduces to zero by them alone and no
    pair inside them is formed.  They take part in the pairs of every
    later element like any other.  The one check of that contract is an
    assertion: no earlier padding reduces a padding vector, and each lead
    exceeds the one before it in its component, so no padding lead divides
    another.  Then the other inputs are inserted, reduced by the padding
    first.

    Packed terms.  A term is one int whose integer order is the module
    order (``_Packing``): the next term of a reduction is a plain ``max``,
    a shifted term is one addition, and pairs are queued by their packed
    lcm.  Each lead is also kept in the plain layout, one exponent per
    w-bit slot under a guard bit, where for leads a and b, and ``guard``
    the int of all guard bits:

    * b divides a iff ``((a | guard) - b) & guard == guard``;
    * that difference ``t``, masked by ``guard``, marks the slots where
      a >= b, ``t - (t >> (w - 1))`` fills them, and the lcm (slot-wise
      max) is ``b ^ ((a ^ b) & filled)``;
    * the leads are coprime iff ``a + b`` equals their lcm;
    * a proper divisor is slot-wise no larger, so a smaller plain int,
      and criterion M sorts the plain lcms as they are;
    * ``pk.order`` turns a queued lcm back into a term, whose prefix sums
      stay below twice the guard, so lcms compare exactly as terms.

    The reductions search the plain leads for a divisor of each term the
    same way.  A queued lcm, and every shifted term, must stay below the
    guard bits, or ``_Overflow`` is raised.

    Pairs are pruned when an element is added, by the Gebauer-Moeller
    installation of Buchberger's criteria: criterion B drops pending pairs,
    criteria M and F thin out the new pairs, and an element whose lead is
    divisible by the new lead makes no further pairs.  B, M and F hold for
    every element.  A new pair known to reduce to zero serves as a witness
    in M and F and is then dropped.  There are two kinds:

    * coprime leads (the product criterion), sound only when both
      elements live in a single component;
    * two monomials (both tails empty): the S-vector of two monic terms
      is exactly 0.

    Each has a standard representation, which is all that F and M ask of a
    witness; so have the unformed pairs inside the padding, on which M and
    F may rest as well.

    Pairs are popped by the heap key (sugar, packed lcm, i, j), the sugar
    strategy of Giovini, Mora, Niesi, Robbiano and Traverso ("One sugar
    cube, please", ISSAC 1991).  The sugar of an input is its largest
    total degree; an element made from a pair takes the pair's sugar, or
    its lead degree if that is larger.  A pair's sugar is deg lcm +
    max(sugar_i - deg lead_i, sugar_j - deg lead_j): the degree its
    S-vector would have, were every input homogenized.  The total degree
    of a packed term is the sum of the top slots of its blocks
    (``pk.tops``).  A one-block packing (``grevlex``) orders terms by
    degree first, so smallest lcm first is already Buchberger's normal
    strategy there: every sugar is kept 0 and the lcm alone orders the
    pairs.  Under the block orders of elimination the lcm order is not
    degree-compatible, and sugar takes the low-degree pairs before the
    high-degree ones, most of which would reduce to zero.

    Each new element is reduced by all earlier ones, so its lead is
    divisible by no earlier lead; the elements that no later lead divides
    (``Gpairs`` still set) are therefore a minimal basis.  Reducing each of
    their tails once against that Groebner basis gives the unique normal
    form, so one pass yields the reduced basis.
    """
    g, w1, cshift, tmask = pk.guard, pk.w - 1, pk.cshift, pk.tmask
    plain, order, slot = pk.plain, pk.order, pk.slot
    # one block is a degree-compatible order: every sugar stays 0
    tops = pk.tops if len(pk.tops) > 1 else ()

    Glead, tails = [], []
    Goff = []     # sugar minus lead degree
    Gpack = []    # lead exponents in the plain layout, without component
    Gsingle = []  # element lives in a single component (coprime criterion OK)
    Gpairs = []   # no later lead divides this lead: it still makes new pairs
    active = {}   # component -> elements there with Gpairs set, ascending
    bycomp = {}   # component -> [(plain lead, (lead, element))]
    pending = {}  # pair (i, j) -> (component, plain lcm, packed lcm)
    heap = []

    def lcm_packed(a, b):
        t = ((b | g) - a) & g
        return a ^ ((a ^ b) & (t - (t >> w1)))

    search = pk.search(bycomp)

    def update(gi):
        comp = Glead[gi] >> cshift
        a = Gpack[gi]
        # criterion B: the new lead divides lcm(i, j) and differs from
        # lcm(i, gi) and lcm(j, gi), so (i, j) follows from those two pairs
        for pair, (pc, lp, _) in list(pending.items()):
            if pc != comp or ((lp | g) - a) & g != g:
                continue
            i, j = pair
            if (lcm_packed(a, Gpack[i]) != lp
                    and lcm_packed(a, Gpack[j]) != lp):
                del pending[pair]
        # criterion F: one new pair per lcm, a zero witness preferred
        groups = {}
        mono, single, off = not tails[gi], Gsingle[gi], Goff[gi]
        still = []
        for gj in active.get(comp, ()):
            b = Gpack[gj]
            t = ((b | g) - a) & g  # guard of slot k set iff b_k >= a_k
            lcm = a ^ ((a ^ b) & (t - (t >> w1)))
            zero = ((mono and not tails[gj])
                    or (single and Gsingle[gj] and a + b == lcm))
            got = groups.get(lcm)
            if got is None or (zero and not got[1]):
                groups[lcm] = (gj, zero)
            if t == g:
                Gpairs[gj] = False  # the new lead divides this one
            else:
                still.append(gj)
        still.append(gi)
        active[comp] = still
        # criterion M: drop an lcm properly divisible by another new lcm;
        # a proper divisor is slot-wise no larger, so a smaller plain int,
        # and ascending ints only need the minimal lcms kept so far
        kept = []
        for lcm in sorted(groups):
            xg = lcm | g
            for m in kept:
                if (xg - m) & g == g:
                    break
            else:
                kept.append(lcm)
                gj, zero = groups[lcm]
                if not zero:
                    term = order(lcm)
                    if term & g:
                        raise _Overflow
                    sugar = Goff[gj] if Goff[gj] > off else off
                    for t in tops:
                        sugar += (term >> t) & slot
                    term += comp << cshift
                    pending[(gj, gi)] = (comp, lcm, term)
                    heapq.heappush(heap, (sugar, term, gj, gi))

    def degree(m):
        d = 0
        for t in tops:
            d += (m >> t) & slot
        return d

    def add(vec, sugar):
        lead = max(vec)
        inv = pow(vec[lead], -1, p)
        gi = len(tails)
        Glead.append(lead)
        Gpack.append(plain(lead) & tmask)
        tails.append(tuple((m, c * inv % p) for m, c in vec.items()
                           if m != lead))
        Goff.append(max(sugar - degree(lead), 0))
        Gsingle.append(len({m >> cshift for m in vec}) == 1)
        Gpairs.append(True)
        bycomp.setdefault(lead >> cshift, []).append((Gpack[gi], (lead, gi)))
        return gi

    # the padding first: a reduced basis, so no pair inside it is formed
    for vec, pad in zip(vectors, padding):
        if pad and vec:
            lead = max(vec)
            earlier = active.setdefault(lead >> cshift, [])
            assert ((not earlier or Glead[earlier[-1]] < lead)
                    and _reduce_vec(vec, search, tails, p, g) == vec), \
                "padding is not a reduced basis, ascending"
            earlier.append(add(vec, max(map(degree, vec))))
    for vec, pad in zip(vectors, padding):
        if not pad and vec:
            red = _reduce_vec(vec, search, tails, p, g)
            if red:
                update(add(red, max(map(degree, vec))))

    while heap:
        sugar, lcm, i, j = heapq.heappop(heap)
        if pending.pop((i, j), None) is None:
            continue  # dropped by criterion B after it was queued
        # the monic leads cancel, so the S-vector is built from the tails
        s = {}
        for src, sign in ((i, 1), (j, -1)):
            q = lcm - Glead[src]
            for t, tco in tails[src]:
                nm = t + q
                if nm & g:
                    raise _Overflow
                s[nm] = (s.get(nm, 0) + sign * tco) % p
        red = _reduce_vec({m: c for m, c in s.items() if c}, search, tails,
                          p, g)
        if red:
            update(add(red, sugar))

    # one pass over the tails of the minimal basis
    alive = sorted((k for k in range(len(Glead)) if Gpairs[k]),
                   key=Glead.__getitem__)
    final = pk.search({c: [e for e in cands if Gpairs[e[1][1]]]
                       for c, cands in bycomp.items()})
    out = []
    for k in alive:
        d = {Glead[k]: 1}
        d.update(_reduce_vec(tails[k], final, tails, p, g))
        out.append((Glead[k], d))
    return out


def reduced_groebner_raw(polys, amb, basis=()):
    """Reduced GB of an ideal given by polynomials of an ambient ring, plus
    ``basis``, a reduced basis there that pads them (``_padded``)."""
    vecs, padding = _padded(
        [_poly_to_vec(f) for f in polys if not f.is_zero()], basis)
    return [_vec_to_polys(g, amb, 1)[0]
            for _, g in _engine_basis(vecs, amb, padding=padding)]


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

class Ideal:
    """Finitely generated ideal.

    The constructor keeps its generator list verbatim.  Products (and so
    powers) keep each nonzero pairwise product once, in the order of first
    occurrence; they do not interreduce.
    """

    __slots__ = ("ring", "gens", "_cache")

    def __init__(self, ring, gens=()):
        out = []
        for g in gens:
            if isinstance(g, int):
                g = ring.const(g)
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be polynomials")
            if g.ring != ring:
                raise RingMismatchError("generators from different rings")
            out.append(g)
        self.ring = ring
        self.gens = tuple(out)
        self._cache = {}

    def groebner(self) -> "GroebnerBasis":
        got = self._cache.get("gb")
        if got is None:
            got = self._cache["gb"] = groebner_basis(self)
        return got

    def display_gens(self):
        return list(self.groebner().elements)

    def contains(self, f) -> bool:
        return normal_form(f, self).is_zero()

    def is_zero(self):
        return not self.groebner().elements

    def is_unit(self):
        b = self.groebner().ambient_elements
        return len(b) == 1 and b[0].is_constant() and not b[0].is_zero()

    def _basis_terms(self):
        return tuple(g.terms for g in self.groebner().ambient_elements)

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return False
        return self._basis_terms() == other._basis_terms()

    def __hash__(self):
        # equal ideals share their reduced basis, so hash that, not the gens
        return hash((self.ring, self._basis_terms()))

    def __add__(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise RingMismatchError("ideals from different rings")
            return Ideal(self.ring, self.gens + other.gens)
        raise TypeError("can only add ideals")

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            other = Ideal(self.ring, (other,))
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise RingMismatchError("ideal product needs matching rings")
        gens = dict.fromkeys(a * b for a in self.gens for b in other.gens)
        return Ideal(self.ring, tuple(g for g in gens if not g.is_zero()))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative ideal power")
        if n == 0:
            return Ideal(self.ring, (self.ring.one(),))
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __str__(self):
        gens = self.display_gens()
        if not gens:
            return "ideal[ 0 ]"
        return "ideal[ " + ", ".join(str(g) for g in gens) + " ]"

    __repr__ = __str__


class GroebnerBasis:
    """Reduced basis of an ideal or of a submodule of a free module."""

    __slots__ = ("ring", "rank", "ambient_elements", "elements", "_prep")

    def __init__(self, ring, rank, ambient_elements, elements):
        self.ring = ring
        self.rank = rank          # 0 for ideals, free-module rank otherwise
        self.ambient_elements = tuple(ambient_elements)
        self.elements = tuple(elements)
        self._prep = None

    def _reducers(self):
        """The basis as a ``_Reducer``, built once."""
        if self._prep is None:
            amb = self.ring.ambient
            self._prep = _Reducer(
                [_module_vec(v if self.rank else (v,), amb)
                 for v in self.ambient_elements],
                amb.order_spec, amb.nvars, amb.p)
        return self._prep

    def __str__(self):
        if self.rank == 0:
            return "gb[ " + ", ".join(str(g) for g in self.elements) + " ]"
        cols = ", ".join(
            "(" + ", ".join(str(f) for f in v) + ")" for v in self.elements)
        return f"gb[ rank {self.rank}: {cols} ]"

    __repr__ = __str__


def ideal(ring, *gens) -> Ideal:
    return Ideal(ring, gens)


def _lift(I: Ideal):
    """I's generators in the ambient ring, followed by the quotient basis."""
    amb = I.ring.ambient
    return [transport(g, amb) for g in I.gens] + list(I.ring.quotient)


def _with_basis(ring, gens, basis: GroebnerBasis) -> Ideal:
    """``Ideal(ring, gens)`` born knowing ``basis``, its reduced basis.

    The one way an ideal skips its own Buchberger run: the caller vouches
    that ``basis`` is the reduced ambient basis of gens + Q.
    """
    I = Ideal(ring, gens)
    I._cache["gb"] = basis
    return I


def _descend(ring, polys, spec=None) -> Ideal:
    """The ideal of ``ring`` generated by the nonzero images of ``polys``.

    ``spec``, when given, is an order on ``ring``'s variables in which
    ``polys`` are a reduced Groebner basis, ascending.  If it is the
    ambient order and every generator of Q reduces to 0 by ``polys``, then
    (polys) = (polys) + Q and ``polys`` is that ideal's reduced ambient
    basis, so the result is born with it (``_with_basis``).
    """
    amb = ring.ambient
    carry = spec == amb.order_spec
    if carry:
        polys = [transport(g, amb) for g in polys]
    gens = tuple(h for h in (transport(g, ring) for g in polys)
                 if not h.is_zero())
    if carry:
        basis = GroebnerBasis(ring, 0, polys, gens)
        if not any(basis._reducers().reduce(_poly_to_vec(q))
                   for q in ring.quotient):
            return _with_basis(ring, gens, basis)
    return Ideal(ring, gens)


def _ambient_ideal(I: Ideal) -> Ideal:
    """I + Q as the ideal of the ambient ring generated by ``_lift(I)``,
    sharing I's reduced ambient basis."""
    amb = I.ring.ambient
    basis = I.groebner().ambient_elements
    return _with_basis(amb, _lift(I),
                       GroebnerBasis(amb, 0, basis, basis))


def _module_vec(polys, amb):
    """Term dict of a vector of polynomials, entry i in component i."""
    vec = {}
    for i, f in enumerate(polys):
        vec.update(_poly_to_vec(transport(f, amb), comp=i))
    return vec


def _padded(vecs, basis, rank=1):
    """``vecs`` followed by ``basis`` in each of ``rank`` components, and the
    padding flags that mark it.  ``basis`` is a reduced Groebner basis in
    the ambient ring, ascending (a quotient basis Q, or an ideal's ambient
    basis, Q included): the engine inserts it first and forms no pair
    inside it, and asserts that no earlier padding reduces any of it."""
    pad = [_poly_to_vec(q, comp=i) for q in basis for i in range(rank)]
    return vecs + pad, [False] * len(vecs) + [True] * len(pad)


def _graph_basis(columns, rows, basis, amb):
    """Reduced basis of the graph module of ``columns`` modulo ``basis``.

    ``columns`` are vectors of ``rows`` polynomials.  Column j goes over the
    unit vector e_(rows + j) and every row component is padded with
    ``basis`` (see ``_padded``); the position-over-term order puts the rows
    first.  Each element (v; r) of the result has v = sum_j r_j * column_j
    modulo ``basis`` in every row.  Those with a lead in a component >=
    ``rows`` have v = 0 (``_syzygies``); those with a lead in a row form a
    Groebner basis of the column span plus ``basis`` and keep the
    coefficients in their other components (``_coefficients``).
    """
    unit = (0,) * amb.nvars
    vecs = []
    for j, col in enumerate(columns):
        v = _module_vec(col, amb)
        v[(rows + j, unit)] = 1
        vecs.append(v)
    vecs, padding = _padded(vecs, basis, rows)
    return _engine_basis(vecs, amb, padding=padding)


def _syzygies(columns, rows, basis, amb):
    """Lifts of the syzygies of ``columns`` modulo ``basis`` in every row.

    The elements of ``_graph_basis`` with a lead in a component >= ``rows``
    generate the r with sum_j r_j * column_j in basis * R^rows.  Returns
    them as tuples of ambient polynomials, one entry per column.
    """
    return [_vec_to_polys({(c - rows, e): co for (c, e), co in g.items()},
                          amb, len(columns))
            for lead, g in _graph_basis(columns, rows, basis, amb)
            if lead[0] >= rows]


def _coefficients(ring, polys, gens):
    """For each f of ``polys``, coefficients a_i in ``ring`` with f =
    sum(a_i * gens_i); raises ValueError when an f is not in (gens).

    A lift by the graph construction (Greuel and Pfister, "A Singular
    Introduction to Commutative Algebra", 2.8, ``lift``): the elements of
    ``_graph_basis`` of the one-row columns (g_i) over Q with a lead in
    component 0 reduce (f; 0) to (r; -a_1, ..., -a_k), where r is the
    normal form of f modulo (gens) + Q and f - r = sum(a_i * g_i) modulo Q.
    One basis serves every f.
    """
    amb = ring.ambient
    found = _graph_basis([(g,) for g in gens], 1, ring.quotient, amb)
    reducer = _Reducer([g for lead, g in found if lead[0] == 0],
                       amb.order_spec, amb.nvars, amb.p)
    out = []
    for f in polys:
        rem = reducer.reduce(_poly_to_vec(transport(f, amb)))
        if rem and rem[0][0][0] == 0:  # descending, so component 0 first
            raise ValueError("not in the ideal of the generators")
        a = _vec_to_polys({(comp - 1, e): -c for (comp, e), c in rem},
                          amb, len(gens))
        out.append([transport(h, ring) for h in a])
    return out


def groebner_basis(target) -> GroebnerBasis:
    """Reduced basis of an ideal, or of the column span of a matrix; an
    ideal is the rank-one module of its one-entry columns."""
    if isinstance(target, Ideal):
        rank, columns = 0, [(g,) for g in target.gens]
    elif isinstance(target, FreeModuleMap):
        rank, columns = target.rows, target.columns()
    else:
        raise TypeError("groebner_basis wants an Ideal or a FreeModuleMap")
    ring = target.ring
    amb = ring.ambient
    vecs, padding = _padded(
        [v for v in (_module_vec(col, amb) for col in columns) if v],
        ring.quotient, max(rank, 1))
    vectors = [_vec_to_polys(g, amb, max(rank, 1))
               for _, g in _engine_basis(vecs, amb, padding=padding)]
    if rank:
        return GroebnerBasis(ring, rank, vectors, vectors)
    ambient_elements = [f for (f,) in vectors]
    return GroebnerBasis(ring, 0, ambient_elements,
                         _descend(ring, ambient_elements).gens)


def normal_form(f: Polynomial, basis):
    """Remainder of f modulo a Groebner basis (or ideal)."""
    if isinstance(basis, Ideal):
        basis = basis.groebner()
    ring = basis.ring
    if f.ring != ring:
        raise RingMismatchError("polynomial not in the basis ring")
    if basis.rank != 0:
        raise ValueError("normal form of a polynomial needs an ideal basis")
    amb = ring.ambient
    rem = basis._reducers().reduce(_poly_to_vec(transport(f, amb)))
    return transport(Polynomial(amb, tuple((e, c) for (_, e), c in rem)),
                     ring)


# ---------------------------------------------------------------------------
# elimination, kernels, colon / saturation / intersection
# ---------------------------------------------------------------------------

def _fresh_name(taken, stem):
    if stem not in taken:
        return stem
    k = 0
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"


def _subring_without(amb, names):
    gone = set(names)
    blocks, degrees = [], []
    rees_block = None
    new_i = 0
    for bi, block in enumerate(amb.blocks):
        keep = [n for n in block if n not in gone]
        if keep:
            blocks.append(tuple(keep))
            degrees.extend(amb.degrees[amb.var_index(n)] for n in keep)
            if amb.rees_block == bi:
                rees_block = new_i
            new_i += 1
    return RingDescriptor(amb.p, blocks, ("grevlex",), degrees, (), rees_block)


def _eliminate_raw(polys, amb, names):
    idxs = [amb.var_index(n) for n in names]
    vecs = [_poly_to_vec(f) for f in polys if not f.is_zero()]
    basis = _engine_basis(vecs, amb, elimination_spec(idxs, amb.nvars))
    sub = _subring_without(amb, names)
    kept = [transport(_vec_to_polys(g, amb, 1)[0], sub) for lead, g in basis
            if not any(lead[1][i] for i in idxs)]
    return sub, kept


def eliminate(I: Ideal, names) -> Ideal:
    """I intersected with the subring on the remaining variables."""
    names = list(names)
    if not names:
        return I
    amb = I.ring.ambient
    for n in names:
        amb.var_index(n)
    sub, kept = _eliminate_raw(_lift(I), amb, names)
    return _descend(sub, kept, sub.order_spec)


def kernel_of_ring_map(phi: RingMap) -> Ideal:
    """Kernel via the graph construction; source variables whose image is a
    plain target variable are identified instead of eliminated."""
    S, T = phi.source, phi.target
    if S.p != T.p:
        raise RingMismatchError("kernel needs equal characteristics")
    Samb, Tamb = S.ambient, T.ambient
    taken = set(Samb.names)
    joint_name = {}         # target var index -> joint name
    identified = {}         # target var index -> source var index
    for i, img in enumerate(phi.images):
        if len(img.terms) == 1:
            e, c = img.terms[0]
            if c == 1 and sum(e) == 1:
                j = e.index(1)
                if j not in identified:
                    identified[j] = i
                    joint_name[j] = Samb.names[i]
    fresh = []
    for j, tn in enumerate(Tamb.names):
        if j not in joint_name:
            name = _fresh_name(taken, f"#k{j}")
            taken.add(name)
            joint_name[j] = name
            fresh.append(name)
    blocks = ((tuple(fresh),) if fresh else ()) + Samb.blocks
    nv = len(fresh) + Samb.nvars
    order = elimination_spec(range(len(fresh)), nv) if fresh else ("grevlex",)
    joint = RingDescriptor(S.p, blocks, order, None, ())
    rename_t = {Tamb.names[j]: joint_name[j] for j in range(Tamb.nvars)}
    gens = [transport(q, joint, rename_t) for q in T.quotient]
    identified_sources = set(identified.values())
    for i, img in enumerate(phi.images):
        if i in identified_sources:
            continue
        gens.append(joint.var(Samb.names[i]) - transport(img, joint, rename_t))
    if fresh:
        sub, kept = _eliminate_raw(gens, joint, fresh)
    else:
        sub, kept = joint, reduced_groebner_raw(gens, joint)
    # an unchecked map need not kill S's quotient: _descend tests that
    return _descend(S, kept, sub.order_spec)


def intersect_ideals(I: Ideal, J: Ideal) -> Ideal:
    """I meet J by the t-trick: (t * (I + Q) + (1 - t) * (J + Q)) meet k[x]."""
    if I.ring != J.ring:
        raise RingMismatchError("intersection needs matching rings")
    amb = I.ring.ambient
    t_name = _fresh_name(set(amb.names), "#t")
    ext = extend_ring(amb, [t_name])
    t = ext.var(t_name)
    one = ext.one()
    gens = [t * transport(g, ext) for g in _lift(I) if not g.is_zero()]
    gens += [(one - t) * transport(g, ext) for g in _lift(J)
             if not g.is_zero()]
    sub, kept = _eliminate_raw(gens, ext, [t_name])
    return _descend(I.ring, kept, sub.order_spec)


def _colon_elements(ring, by):
    """The nonzero elements of ``by``, an element or an ideal of ``ring``
    to take a colon or a saturation by."""
    if not isinstance(by, (Polynomial, Ideal)):
        raise TypeError("colon by a polynomial or an ideal")
    if by.ring != ring:
        raise RingMismatchError("colon needs matching rings")
    if isinstance(by, Polynomial):
        if by.is_zero():
            raise ValueError("colon by zero")
        return [by]
    elements = [g for g in by.gens if not g.is_zero()]
    if not elements:
        raise ValueError("colon by the empty (zero) ideal")
    return elements


def colon(I: Ideal, by) -> Ideal:
    """Ideal quotient I : f, or I : J for an ideal J.

    One syzygy computation (``_syzygies``): the column (g_1, ..., g_k) of
    the nonzero generators of J (or of f alone), each row padded with I's
    reduced ambient basis, Q included.  That basis is Groebner in every
    row, so the padding is valid and the syzygy parts are the lifts of the
    r with r * g_i in I + Q for every i, that is of I : J.  A constant g
    needs no special case: r * g in I gives I itself.
    """
    ring = I.ring
    gens = _colon_elements(ring, by)
    amb = ring.ambient
    syz = _syzygies([gens], len(gens), I.groebner().ambient_elements, amb)
    return _descend(ring, [r for (r,) in syz], amb.order_spec)


def _rabinowitsch_input(I: Ideal, elements):
    """Generators of I + Q + (1 - z_1*g_1 - ... - z_k*g_k) for the elements
    g_i, in the ambient ring extended by fresh variables z_1..z_k; returns
    (extended ring, names of the z_i, generators)."""
    amb = I.ring.ambient
    taken = set(amb.names)
    z_names = []
    for _ in elements:
        z_names.append(_fresh_name(taken, "#z"))
        taken.add(z_names[-1])
    ext = extend_ring(amb, z_names)
    gens = [transport(g, ext) for g in _lift(I)]
    gens.append(ext.sum([ext.one()] + [
        -(transport(g, ext) * ext.var(z_name))
        for g, z_name in zip(elements, z_names)]))
    return ext, z_names, gens


def saturate(I: Ideal, by):
    """I : by^infinity for an element or an ideal ``by``.

    Default: one elimination.  For the distinct nonzero generators
    g_1..g_k of ``by`` (or ``by`` itself) and fresh z_1..z_k,

        I : J^inf = (I + Q + (1 - z_1*g_1 - ... - z_k*g_k)) meet k[x],

    the Rabinowitsch trick in k variables; k = 1 is the classical one.
    Write A = R/I and s = z_1*g_1 + ... + z_k*g_k.  If f in A lies in
    (1 - s)A[z], say f = b*(1 - s), then comparing z-degrees gives
    b_d = s^d * f and s^(D+1) * f = 0 for D = deg b; the coefficient of
    z_i^(D+1) in that product is g_i^(D+1) * f, so f lies in every
    I : g_i^inf, whose intersection is I : J^inf.  Conversely, if
    g_i^N * f = 0 in A for every i, then s^M * f = 0 for M = k(N - 1) + 1,
    since each monomial of s^M holds some g_i^N, and
    f = f * (1 - s^M) lies in (1 - s).  A constant generator makes
    J = (1), and I : (1)^inf = I needs no elimination.

    ``saturation_exponent(I, by)[1]``, which iterates ``colon(I, by)``
    until it is stable, is kept as the reference.  A zero element, or an
    ideal with no nonzero generator, raises ValueError on either path.
    """
    ring = I.ring
    elements = list(dict.fromkeys(_colon_elements(ring, by)))
    if any(g.is_constant() for g in elements):
        return _descend(ring, _lift(I))
    ext, z_names, gens = _rabinowitsch_input(I, elements)
    sub, kept = _eliminate_raw(gens, ext, z_names)
    return _descend(ring, kept, sub.order_spec)


def saturation_exponent(I: Ideal, by, cap=64):
    """Smallest n with I : by^n stable, plus the saturation itself."""
    current = I
    n = 0
    while n < cap:
        nxt = colon(current, by)
        if nxt == current:
            return n, current
        current = nxt
        n += 1
    raise RuntimeError("saturation did not stabilize")


def radical_membership(f: Polynomial, I: Ideal) -> bool:
    """f in rad(I) iff I : f^inf = (1) iff 1 lies in I + Q + (1 - f*z):
    ``saturate``'s Rabinowitsch ideal for the one element f, tested for a
    constant reduced basis instead of eliminated."""
    if f.ring != I.ring:
        raise RingMismatchError("radical membership needs matching rings")
    if f.is_zero():
        return True
    return _saturates_to_unit(I, [f])


def _saturates_to_unit(I: Ideal, elements) -> bool:
    """I : (elements)^inf = (1): 1 lies in ``saturate``'s Rabinowitsch
    ideal, so its reduced basis is a constant; nothing is eliminated."""
    ext, _, gens = _rabinowitsch_input(I, elements)
    basis = reduced_groebner_raw(gens, ext)
    return len(basis) == 1 and basis[0].is_constant()


# ---------------------------------------------------------------------------
# dimension, degree, Hilbert series
# ---------------------------------------------------------------------------

def _minimal_monomials(exps_list):
    out = []
    for e in sorted(set(exps_list), key=lambda t: (sum(t), t)):
        if not any(all(a >= b for a, b in zip(e, m)) for m in out):
            out.append(e)
    return out


def _hilbert_numerator(lt, weights):
    """Numerator of the Hilbert series of S/(lt) over prod(1 - T^w_i).

    ``lt`` are taken as the minimal generators of (lt), which the leads of
    a reduced basis are, and not minimised again; a redundant generator
    would cost time, not correctness.  The recursion minimises each colon
    it forms itself.
    """
    memo = {}

    def add_into(dst, src, shift, sign):
        for d, c in src.items():
            dst[d + shift] = dst.get(d + shift, 0) + sign * c

    def rec(gens):
        if not gens:
            return {0: 1}
        key = gens
        got = memo.get(key)
        if got is not None:
            return got
        g = gens[-1]
        rest = gens[:-1]
        n1 = rec(rest)
        col = _minimal_monomials(
            [tuple(max(a - b, 0) for a, b in zip(h, g)) for h in rest])
        n2 = rec(tuple(sorted(col)))
        deg = sum(a * w for a, w in zip(g, weights))
        out = dict(n1)
        add_into(out, n2, deg, -1)
        out = {d: c for d, c in out.items() if c}
        memo[key] = out
        return out

    return rec(tuple(sorted(lt, key=lambda t: (sum(t), t))))


def _poly_div_1mt(coeffs, d):
    """Divide an integer polynomial (dict deg->coeff) by 1 - T^d.

    Returns the quotient dict, or None when the division is not exact:
    q_k = c_k + q_(k-d) must vanish above the top degree minus d.
    """
    out = {}
    if coeffs:
        top = max(coeffs)
        for k in range(min(coeffs), top + 1):
            c = coeffs.get(k, 0) + out.get(k - d, 0)
            if c:
                if k > top - d:
                    return None
                out[k] = c
    return out


class HilbertSeries:
    """Rational function numerator / prod(1 - T^d) in lowest such terms."""

    __slots__ = ("numerator", "denominator_degrees")

    def __init__(self, numerator, denominator_degrees):
        self.numerator = dict(numerator)
        self.denominator_degrees = tuple(sorted(denominator_degrees))

    def __eq__(self, other):
        return (isinstance(other, HilbertSeries)
                and self.numerator == other.numerator
                and self.denominator_degrees == other.denominator_degrees)

    def equivalent(self, other) -> bool:
        """Equality as rational functions (cross multiplication)."""
        def mul_in(num, d):
            out = dict(num)
            for k, c in num.items():
                out[k + d] = out.get(k + d, 0) - c
            return {k: c for k, c in out.items() if c}

        a = dict(self.numerator)
        for d in other.denominator_degrees:
            a = mul_in(a, d)
        b = dict(other.numerator)
        for d in self.denominator_degrees:
            b = mul_in(b, d)
        return a == b

    def coefficients(self, upto):
        """First coefficients of the power-series expansion."""
        out = [0] * (upto + 1)
        for d, c in self.numerator.items():
            if d <= upto:
                out[d] += c
        for d in self.denominator_degrees:
            # multiply by 1/(1 - T^d)
            for k in range(d, upto + 1):
                out[k] += out[k - d]
        return out

    def _num_str(self):
        if not self.numerator:
            return "0"
        parts = []
        for d in sorted(self.numerator):
            c = self.numerator[d]
            body = "1" if d == 0 else ("T" if d == 1 else f"T^{d}")
            if d == 0:
                body = str(abs(c))
            elif abs(c) != 1:
                body = f"{abs(c)}*{body}"
            parts.append(("-" if c < 0 else "+", body))
        s0, b0 = parts[0]
        s = ("-" if s0 == "-" else "") + b0
        for sg, b in parts[1:]:
            s += f" {sg} {b}"
        return s

    def __str__(self):
        num = self._num_str()
        if not self.denominator_degrees:
            return num
        den = "*".join(
            "(1 - T)" if d == 1 else f"(1 - T^{d})"
            for d in self.denominator_degrees)
        return f"({num}) / ({den})"

    __repr__ = __str__


def _require_homogeneous(I: Ideal, weights, message):
    """Raise ValueError(message) unless I and the quotient are homogeneous."""
    for g in I.gens + I.ring.quotient:
        if not g.is_homogeneous(weights):
            raise ValueError(message)


def hilbert_series(I: Ideal) -> HilbertSeries:
    """Hilbert series of ring/I for homogeneous I (weighted by variable degrees)."""
    ring = I.ring
    weights = ring.degrees
    _require_homogeneous(I, weights, "hilbertSeries needs a homogeneous ideal")
    if I.is_unit():
        return HilbertSeries({}, ())
    lt = [g.terms[0][0] for g in I.groebner().ambient_elements]
    num = _hilbert_numerator(lt, weights)
    dens = list(weights)
    dens.sort()
    out_d = []
    for d in dens:
        q = _poly_div_1mt(num, d)
        if q is not None:
            num = q
        else:
            out_d.append(d)
    return HilbertSeries(num, out_d)


def _cancel_one_minus_t(num, most):
    """Divide num by (1 - T) while it vanishes at T = 1, at most ``most``
    times; returns (quotient, divisions), so a series num/(1 - T)^n has
    pole order n - divisions at T = 1 when most >= n."""
    times = 0
    while times < most and num and not sum(num.values()):
        num, times = _poly_div_1mt(num, 1), times + 1
    return num, times


def dimension_and_degree(I: Ideal):
    """Krull dimension of ring/I and degree of the projective closure:
    the pole order at T = 1 of the lead-term ideal's Hilbert series
    N(T)/(1 - T)^n, and N/(1 - T)^(n - dim) at T = 1."""
    ring = I.ring
    if not is_degree_compatible(ring.order_spec):
        raise ValueError("dimension needs a degree-compatible order")
    if I.is_unit():
        return (-1, 0)
    n = ring.ambient.nvars
    lt = [g.terms[0][0] for g in I.groebner().ambient_elements]
    num = _hilbert_numerator(lt, (1,) * n)
    num, times = _cancel_one_minus_t(num, n)
    return (n - times, sum(num.values()))


def ring_dimension(ring) -> int:
    return dimension_and_degree(Ideal(ring, ()))[0]


def codimension(I: Ideal):
    d = dimension_and_degree(I)[0]
    if d < 0:
        return INFINITY
    return ring_dimension(I.ring) - d


# ---------------------------------------------------------------------------
# standard monomials and graded pieces
# ---------------------------------------------------------------------------

def _standard_exponents(lt, n, weights=None, degree=None):
    """Exponents outside the monomial ideal (lt), in enumeration order.

    ``lt`` are taken as the minimal generators of (lt), which the leads of
    a reduced basis are; a redundant one would cost time, not correctness.
    Without ``weights`` all of them (the quotient must be finite
    dimensional); with ``weights`` only those of weighted degree ``degree``.
    The walk stops at the staircase: once the exponents of variables 0..i-1
    lie above the prefix of a lead whose last nonzero variable is i, the
    exponent of variable i stays below that lead's, since from there on
    every point and every extension lies in (lt).  Pure powers are the
    leads with an all-zero prefix, so they bound the walk in their variable.
    Prefixes are ints in ``_Packing``'s plain layout, wide enough for the
    lead exponents and ``degree``, which bound the walk; the walk carries
    its own as one int, and the first lead by ascending last exponent whose
    prefix divides it gives the least bound.
    """
    if any(not any(e) for e in lt):
        return []  # unit ideal: no standard monomials at all
    top = max([degree or 0] + [a for m in lt for a in m])
    pk = _Packing(("lex",), n, top.bit_length() + 1)
    g, shifts = pk.guard, pk.shifts
    # leads by their last nonzero variable i: (packed prefix, exponent of i)
    ends = [[] for _ in range(n)]
    for m in lt:
        last = max(i for i, a in enumerate(m) if a)
        ends[last].append((m[last], sum(map(lshift, m[:last], shifts))))
    for i in range(n):
        if ((weights is None or weights[i] == 0)
                and not any(not pre for _, pre in ends[i])):
            raise ValueError("quotient is not finite dimensional"
                             if weights is None
                             else "infinite-dimensional graded piece")
        ends[i].sort()
    out = []
    expo = [0] * n

    def rec(i, rem, x):
        if i == n:
            if not rem:
                out.append(tuple(expo))
            return
        xg, stop = x | g, None
        for t, pre in ends[i]:
            if (xg - pre) & g == g:
                stop = t
                break
        w = weights[i] if weights is not None else 0
        if w > 0:
            stop = rem // w + 1 if stop is None else min(stop, rem // w + 1)
        one = 1 << shifts[i]
        for a in range(stop):
            expo[i] = a
            rec(i + 1, rem - a * w, x + a * one)
        expo[i] = 0

    rec(0, degree if weights is not None else 0, 0)
    return out


def vector_space_dimension(I: Ideal) -> int:
    """dim_k of ring/I for a zero-dimensional ideal."""
    return len(standard_monomials(I))


def standard_monomials(I: Ideal):
    """Monomial basis of ring/I for zero-dimensional I (exponent tuples)."""
    amb = I.ring.ambient
    lt = [g.terms[0][0] for g in I.groebner().ambient_elements]
    out = _standard_exponents(lt, amb.nvars)
    out.sort(key=amb.key)
    return out


def _grading_weights(ring, grading):
    if grading in ("total", None):
        return ring.degrees
    if grading in ("wblock", "w-block", "w"):
        if ring.rees_block is None:
            raise ValueError("ring has no tagged w-block")
        wnames = set(ring.blocks[ring.rees_block])
        return tuple(1 if n in wnames else 0 for n in ring.names)
    raise ValueError(f"unknown grading {grading!r}")


def graded_piece_dim(degree, I: Ideal, grading="total") -> int:
    """k-dimension of the degree-d graded piece of the ideal I."""
    ring = I.ring
    weights = _grading_weights(ring, grading)
    _require_homogeneous(I, weights,
                         "ideal is not homogeneous for this grading")
    # both bases are reduced, so their leads are minimal
    lt_full = [g.terms[0][0] for g in I.groebner().ambient_elements]
    lt_q = [q.terms[0][0] for q in ring.quotient]
    n = ring.nvars
    return (len(_standard_exponents(lt_q, n, weights, degree))
            - len(_standard_exponents(lt_full, n, weights, degree)))


# ---------------------------------------------------------------------------
# syzygies, minors, trim
# ---------------------------------------------------------------------------

def kernel_of_matrix(A: FreeModuleMap) -> FreeModuleMap:
    """Columns generating ker(A) for A : R^s -> R^m.

    The syzygies of A's columns with every row padded with the quotient
    basis Q (``_syzygies``), which is a Groebner basis in each row, so the
    padding is valid; the lifts are reduced into the ring and zero columns
    dropped.  A one-column A takes the same path: its kernel is the
    annihilator of the column's entries.
    """
    ring = A.ring
    if A.cols == 0:
        return FreeModuleMap(ring, (), rows=0, cols=0)
    cols = []
    for lift in _syzygies(A.columns(), A.rows, ring.quotient, ring.ambient):
        col = tuple(transport(f, ring) for f in lift)
        if any(not f.is_zero() for f in col):
            cols.append(col)
    return matrix_from_columns(ring, cols, rows=A.cols)


def module_contains(gb: GroebnerBasis, vector) -> bool:
    """Membership of a vector of polynomials in a submodule GB."""
    return not gb._reducers().reduce(_module_vec(vector, gb.ring.ambient))


def minors_ideal(k: int, A: FreeModuleMap) -> Ideal:
    """Ideal of all k x k minors (Laplace expansion with memoization)."""
    ring = A.ring
    if k < 0:
        raise ValueError("minor size must be >= 0")
    if k == 0:
        return Ideal(ring, (ring.one(),))
    if k > min(A.rows, A.cols):
        return Ideal(ring, ())
    memo = {}

    def det(rows, cols):
        key = (rows, cols)
        got = memo.get(key)
        if got is not None:
            return got
        if len(rows) == 1:
            out = A.entries[rows[0]][cols[0]]
        else:
            r0, rest = rows[0], rows[1:]
            terms = [A.entries[r0][c] * det(rest, cols[:t] + cols[t + 1:])
                     for t, c in enumerate(cols)]
            out = ring.sum(f if t % 2 == 0 else -f
                           for t, f in enumerate(terms))
        memo[key] = out
        return out

    gens = []
    for rows in itertools.combinations(range(A.rows), k):
        for cols in itertools.combinations(range(A.cols), k):
            gens.append(det(rows, cols))
    return Ideal(ring, tuple(gens))


def _trim(ring, columns, rows, shifts):
    """The columns one pass by ascending degree keeps, in walk order.

    A column's degree is its largest deg f_i + shifts[i] under
    ``ring.degrees`` (a stable sort).  Each new degree starts one reducer
    from one Groebner basis of the kept columns, Q in every row; a column
    is kept, and appended to it, iff its normal form by it is not zero.
    As they lie in the kept span, dropping is sound; for homogeneous columns
    the kept set is minimal (graded Nakayama), the first of dependents kept.
    """
    amb = ring.ambient
    walk = sorted(((max(f.total_degree(ring.degrees) + s
                        for f, s in zip(col, shifts) if not f.is_zero()), col)
                   for col in columns if any(not f.is_zero() for f in col)),
                  key=itemgetter(0))
    kept = []
    for _, same_degree in itertools.groupby(walk, key=itemgetter(0)):
        reducers, padding = _padded([_module_vec(c, amb) for c in kept],
                                    ring.quotient, rows)
        if kept:  # Q alone is already a reduced basis
            reducers = [g for _, g in _engine_basis(reducers, amb,
                                                    padding=padding)]
        reducer = _Reducer(reducers, amb.order_spec, amb.nvars, amb.p)
        for _, col in same_degree:
            rem = reducer.reduce(_module_vec(col, amb))
            if rem:
                kept.append(col)
                reducer.append(dict(rem))
    return kept


def trim_homogeneous(I: Ideal) -> Ideal:
    """Minimal homogeneous generating set, degree by degree (``_trim``)."""
    ring = I.ring
    weights = ring.degrees
    gens = [g for g in I.gens if not g.is_zero()]
    for g in gens:
        if not g.is_homogeneous(weights):
            raise ValueError("trim needs a homogeneous ideal")
    gens.sort(key=lambda g: (g.total_degree(weights),
                             ring.key(g.terms[0][0])))
    out = _trimmed(Ideal(ring, tuple(gens)))
    if (len(out.gens) == len(I.gens)
            and all(q.is_homogeneous(weights) for q in ring.quotient)):
        # over a graded ring every walk order keeps the same number of
        # generators, so I is its own trim too
        I._cache["trimmed"] = I
    return out


def _trimmed(I: Ideal) -> Ideal:
    """I, or the ideal of the generators ``_trim`` keeps when it drops one;
    cached on I and on the result, which a second walk keeps whole."""
    got = I._cache.get("trimmed")
    if got is None:
        kept = tuple(g for g, in _trim(I.ring, [(g,) for g in I.gens], 1,
                                       (0,)))
        got = I if len(kept) == len(I.gens) else Ideal(I.ring, kept)
        I._cache["trimmed"] = got._cache["trimmed"] = got
    return got
