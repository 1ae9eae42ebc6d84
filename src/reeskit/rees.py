"""Rees algebras of ideals and modules, and the invariants built on them.

The Rees ring of a module with m chosen generators is the flattened tower
base[w_0..w_{m-1}]; the Rees ideal is the kernel of the symmetric-algebra
map induced by an embedding into a free module.  For an ideal the inclusion
into the base ring itself is such an embedding and the kernel becomes the
classical elimination computation; for general modules the versal map is
computed first from the presentation.  The reduction test of forms of one
degree eliminates no variable: it compares ranks in ``gb._Echelon``, and
a minimal reduction of an m-primary ideal of a polynomial ring takes no
special fiber (Rees's criterion, ``minimal_reduction``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gb import (
    Ideal, _Echelon, _cancel_one_minus_t, _coefficients,
    _complete_intersection, _descend, _hilbert_numerator, _saturates_to_unit,
    _trim, _trimmed, _with_basis, codimension, dimension_and_degree,
    eliminate, kernel_of_matrix, kernel_of_ring_map, minors_ideal,
    normal_form, reduced_groebner_raw, ring_dimension, saturate,
    trim_homogeneous, INFINITY,
)
from .polyring import (
    FreeModuleMap, Polynomial, RingDescriptor, RingMap, RingMismatchError,
    matrix_from_columns, row_times_matrix, transport,
)

DEFAULT_REDUCTION_CAP = 20
# the draws of ``minimal_reduction``, split over its pools of generators
_REDUCTION_TRIES = 10


# ---------------------------------------------------------------------------
# presented modules
# ---------------------------------------------------------------------------

class PresentedModule:
    """Module given by generators and a presentation matrix R^s -> R^m."""

    def __init__(self, ring, presentation=None, gens=None, ideal=None):
        self.ring = ring
        self._presentation = presentation
        self.gens = tuple(gens) if gens is not None else None
        self.ideal = ideal        # the Ideal this module is, if it is one
        self._cache = {}

    @classmethod
    def from_ideal(cls, I: Ideal) -> "PresentedModule":
        got = I._cache.get("module")
        if got is None:
            got = cls(I.ring, gens=I.gens, ideal=I)
            I._cache["module"] = got
        return got

    @property
    def is_ideal(self):
        return self.ideal is not None

    @classmethod
    def from_matrix(cls, phi: FreeModuleMap) -> "PresentedModule":
        return cls(phi.ring, presentation=phi)

    @property
    def generator_count(self):
        if self.gens is not None:
            return len(self.gens)
        return self._presentation.rows

    @property
    def presentation(self) -> FreeModuleMap:
        if self._presentation is None:
            syz = kernel_of_matrix(self.generator_row()).columns()
            # walked last-first, the trim keeps the columns that a greedy
            # drop of each column in the span of all the others would keep
            syz.sort(key=_column_key, reverse=True)
            shifts = [g.total_degree(self.ring.degrees) for g in self.gens]
            kept = _trim(self.ring, syz, len(shifts), shifts)
            self._presentation = matrix_from_columns(
                self.ring, sorted(kept, key=_column_key), rows=len(shifts))
        return self._presentation

    def generator_row(self) -> FreeModuleMap:
        if self.gens is None:
            raise ValueError("module has no distinguished generators")
        return FreeModuleMap(self.ring, [list(self.gens)])

    def is_zero(self):
        return self.gens is not None and all(g.is_zero() for g in self.gens)

    def __repr__(self):
        if self.gens is not None:
            return "module[ " + ", ".join(str(g) for g in self.gens) + " ]"
        return f"module[ coker {self._presentation.rows} x {self._presentation.cols} ]"


def as_module(x) -> PresentedModule:
    if isinstance(x, PresentedModule):
        return x
    if isinstance(x, Ideal):
        return PresentedModule.from_ideal(x)
    if isinstance(x, FreeModuleMap):
        return PresentedModule.from_matrix(x)
    raise TypeError(f"cannot view {type(x).__name__} as a module")


def _column_key(col):
    return max(f.total_degree() for f in col), tuple(f.terms for f in col)


# ---------------------------------------------------------------------------
# Rees rings and the two Rees ideal strategies
# ---------------------------------------------------------------------------

def _fresh_block_names(base, count, stem="w"):
    taken = set(base.ambient.names)
    for candidate in (stem, stem * 2, stem * 3, f"{stem}r"):
        names = [f"{candidate}_{i}" for i in range(count)]
        if not any(n in taken for n in names):
            return names
    raise ValueError("could not find fresh Rees variable names")


def rees_ring(base: RingDescriptor, count, stem="w") -> RingDescriptor:
    """base with an appended w-block; the base quotient is carried along."""
    amb = base.ambient
    names = _fresh_block_names(base, count, stem)
    blocks = amb.blocks + (tuple(names),)
    degrees = amb.degrees + (1,) * count
    big_amb = RingDescriptor(base.p, blocks, ("grevlex",), degrees, (),
                             len(amb.blocks))
    if not base.quotient:
        return big_amb
    # appending variables keeps grevlex comparisons of old monomials, so the
    # reduced quotient basis stays reduced and can be installed directly
    return big_amb._modulo([transport(q, big_amb) for q in base.quotient])


def rees_variable_names(ring: RingDescriptor):
    if ring.rees_block is None:
        raise ValueError("ring has no tagged w-block")
    return list(ring.blocks[ring.rees_block])


def base_variable_names(ring: RingDescriptor):
    if ring.rees_block is None:
        raise ValueError("ring has no tagged w-block")
    out = []
    for bi, block in enumerate(ring.blocks):
        if bi != ring.rees_block:
            out.extend(block)
    return out


def symmetric_kernel(f: FreeModuleMap) -> Ideal:
    """Kernel of Sym(base[w..]) -> Sym(base[u..]) for the map with matrix f.

    Columns of f are the images of the module generators inside the free
    module; the result is the Rees ideal for that embedding.
    """
    base = f.ring
    g, m = f.rows, f.cols
    W = rees_ring(base, m)
    U = rees_ring(base, g, stem="#u")
    uvars = [U.var(n) for n in rees_variable_names(U)]
    images = [U.var(n) for n in base.ambient.names]
    images += [U.sum(transport(f.entries[j][i], U) * uvars[j]
                     for j in range(g))
               for i in range(m)]
    return kernel_of_ring_map(RingMap(W, U, images, check=False))


def symmetric_algebra_ideal(M) -> Ideal:
    """The linear ideal (w-row times presentation) defining Sym(M)."""
    M = as_module(M)
    pres = M.presentation
    W = rees_ring(M.ring, M.generator_count)
    wrow = [W.var(n) for n in rees_variable_names(W)]
    lifted = FreeModuleMap(
        W, [[transport(e, W) for e in row] for row in pres.entries],
        rows=pres.rows, cols=pres.cols)
    entries = row_times_matrix(wrow, lifted)
    return Ideal(W, tuple(e for e in entries if not e.is_zero()))


def universal_embedding(M) -> FreeModuleMap:
    """Versal map M -> R^r through which every map to a free module factors."""
    M = as_module(M)
    pres = M.presentation
    ker = kernel_of_matrix(pres.transpose())
    return ker.transpose()


def rees_ideal(M, f: Polynomial | None = None) -> Ideal:
    """Rees ideal of a module or ideal, in base[w_0..w_{m-1}].

    Default: symmetric kernel of an embedding into a free module.  For an
    ideal the inclusion into the base ring is used (the Rees algebra of an
    ideal does not depend on the embedding); general modules go through the
    universal embedding.  An ideal of a polynomial ring whose generators
    form a complete intersection skips the kernel: its Rees ideal is
    the Koszul relations' (``_koszul_rees_ideal``), which
    ``verify.rees_ideal`` checks against the saturation strategy.  With
    ``f``: the saturation strategy I0 : f^infinity, legal when f is a
    non-zerodivisor with M[1/f] of linear type.
    """
    M = as_module(M)
    if f is not None:
        if f.is_zero():
            raise ValueError("saturation strategy needs a nonzero element")
        I0 = symmetric_algebra_ideal(M)
        return saturate(I0, transport(f, I0.ring))
    got = M._cache.get("rees_ideal")
    if got is not None:
        return got
    out = _koszul_rees_ideal(M.ideal) if M.is_ideal else None
    if out is None:
        emb = M.generator_row() if M.is_ideal else universal_embedding(M)
        out = symmetric_kernel(emb)
    M._cache["rees_ideal"] = out
    return out


def _koszul_rees_ideal(I: Ideal):
    """The Rees ideal of I from its generators alone, when I is an ideal
    of a polynomial ring whose r nonzero generators g_i cut out dimension
    n - r (``gb._complete_intersection``); None otherwise.

    They then form a regular sequence at every point of V(I), so I is of
    linear type (Micali; Huneke, *J. Algebra* 62, 1980), and grade I = r,
    so the Koszul syzygies generate all of them: the Rees ideal is
    (w_i * g_j - w_j * g_i), plus w_j for a zero g_j.  Its reduced basis is
    unique, so the result, born with it, is the kernel path's ideal with
    the same generators.
    """
    ring = I.ring
    if ring.quotient or _complete_intersection(I) is None:
        return None
    W = rees_ring(ring, len(I.gens))
    w = [W.var(n) for n in rees_variable_names(W)]
    g = [transport(f, W) for f in I.gens]
    rels = [w[i] * g[j] - w[j] * g[i]
            for j in range(len(g)) for i in range(j)]
    rels += [wj for wj, gj in zip(w, g) if gj.is_zero()]
    return _descend(W, reduced_groebner_raw(rels, W), W.order_spec)


def is_linear_type(M) -> bool:
    return rees_ideal(M) == symmetric_algebra_ideal(M)


@dataclass(frozen=True)
class ReesAlgebraPresentation:
    """Rees ring, Rees ideal, and the structural images of the w-variables."""
    ring: RingDescriptor
    ideal: Ideal
    generators: tuple

    def __str__(self):
        return f"rees[ {self.ring!r} ; {self.ideal} ]"


def rees_presentation(I) -> ReesAlgebraPresentation:
    M = as_module(I)
    RI = rees_ideal(M)
    gens = M.gens if M.gens is not None else ()
    return ReesAlgebraPresentation(RI.ring, RI, tuple(gens))


def normal_cone(I: Ideal) -> RingDescriptor:
    """Rees ring modulo (Rees ideal + I); alias: associated graded ring."""
    if I.is_unit():
        raise ValueError("normal cone of the unit ideal")
    got = I._cache.get("normal_cone")
    if got is not None:
        return got
    rp = rees_presentation(I)
    # the Rees ideal's reduced ambient basis, W's quotient included, pads
    # I's generators; the ambient ring keeps the w-block tag
    amb = rp.ring.ambient
    nc = amb._modulo(reduced_groebner_raw(
        [transport(g, amb) for g in I.gens], amb,
        rp.ideal.groebner().ambient_elements))
    I._cache["normal_cone"] = nc
    return nc


# ---------------------------------------------------------------------------
# multiplicity, special fiber, analytic spread
# ---------------------------------------------------------------------------

def _normal_cone_series(I: Ideal):
    """(h, d): h(t)/(1 - t)^d is the w-graded Hilbert series of gr_I(R),
    d = dim R, for zero-dimensional I (Bruns-Herzog, *Cohen-Macaulay
    Rings*, 4.6), read off the lead terms of one normal-cone basis.

    Base variables weigh 1 (s), w variables B (t), B above the s-degree of
    every lead lcm, so T^(a + B b) decodes as s^a t^b.  Each I^k/I^(k+1)
    is finite, so (1 - s) divides exactly once per base variable, in any
    term order; then s = 1 and (1 - t) cancels down to the pole order d.
    """
    d = ring_dimension(I.ring)
    # the cone depends on I alone; each generator adds a w variable to
    # the Rees ideal's elimination, so drop the redundant ones
    nc = normal_cone(_trimmed(I))
    wnames = set(rees_variable_names(nc))
    is_w = [name in wnames for name in nc.names]
    lt = [q.terms[0][0] for q in nc.quotient]
    B = 1 + sum(max(e[i] for e in lt) for i, w in enumerate(is_w) if not w)
    num = _hilbert_numerator(lt, tuple(B if w else 1 for w in is_w))
    num, times = _cancel_one_minus_t(num, is_w.count(False))
    if times != is_w.count(False):
        raise AssertionError("normal cone has an infinite graded piece")
    series = {}
    for k, c in num.items():
        series[k // B] = series.get(k // B, 0) + c
    h, _ = _cancel_one_minus_t({b: c for b, c in series.items() if c},
                               len(wnames) - d)
    return h, d


def _standard_graded(ring) -> bool:
    """Every variable of degree 1, and Q homogeneous."""
    return (all(d == 1 for d in ring.degrees)
            and all(q.is_homogeneous() for q in ring.quotient))


def _form_degrees(I: Ideal):
    """The degrees of I's nonzero generators, or None when one of them is
    not a form."""
    gens = [g for g in I.gens if not g.is_zero()]
    if not all(g.is_homogeneous() for g in gens):
        return None
    return {g.total_degree() for g in gens}


def multiplicity(I: Ideal) -> int:
    """Hilbert-Samuel multiplicity e(I) of a zero-dimensional I in a
    standard graded ring R with homogeneous Q.

    When I's nonzero generators are forms of one degree delta, I is
    m-primary and e(I) = delta^d * e(R), d = dim R, with e(R) the degree
    of the zero ideal.  After an extension of the field, which does not
    change e, d general forms of degree delta in I are a homogeneous
    system of parameters J; every form of degree delta is integral over
    J, so J is a reduction of I and e(I) = e(J) (Northcott-Rees, *Proc.
    Cambridge Philos. Soc.* 50, 1954), and e(J) = delta^d * e(R)
    (Bruns-Herzog, *Cohen-Macaulay Rings*, 4.7).

    When R is a polynomial ring and I has exactly n = dim R nonzero
    generators, forms or not, they are a parameter ideal of each local
    ring R_P at a point P of V(I), which is Cohen-Macaulay, so
    e(I_P) = len(R_P/I_P) (Bruns-Herzog 4.7) and e(I), their sum, is the
    colength dim_k R/I: the degree of the zero-dimensional I.

    Otherwise e(I) = h(1), as len(R/I^(n+1)) has generating function
    h(t)/(1 - t)^(d+1), h from the normal cone (``_normal_cone_series``),
    which ``verify.multiplicity`` also checks both theorems against.
    """
    ring = I.ring
    if any(d != 1 for d in ring.degrees):
        raise ValueError("multiplicity needs a standard graded ring")
    for q in ring.quotient:
        if not q.is_homogeneous():
            raise ValueError("multiplicity needs a graded base ring")
    dim, colength = dimension_and_degree(I)
    if dim != 0:
        raise ValueError("multiplicity needs a zero-dimensional ideal")
    degrees = _form_degrees(I)
    if degrees is not None and len(degrees) == 1:
        d, e = dimension_and_degree(Ideal(ring, ()))
        return degrees.pop() ** d * e
    if not ring.quotient and _complete_intersection(I) == ring.nvars:
        return colength
    h, _ = _normal_cone_series(I)
    return sum(h.values())


def special_fiber_ideal(I: Ideal, mm: Ideal | None = None) -> Ideal:
    """Defining ideal of ReesAlgebra/I modulo the (ir)relevant maximal ideal,
    returned over the pure w-ring."""
    ring = I.ring
    if mm is None:
        got = I._cache.get("special_fiber")
        if got is not None:
            return got
        mm = Ideal(ring, tuple(ring.var(n) for n in ring.names))
        default_mm = True
    else:
        default_mm = False
    for g in I.gens:
        if not normal_form(g, mm).is_zero():
            raise ValueError("ideal is not contained in the chosen maximal ideal")
    rp = rees_presentation(I)
    W = rp.ring
    big = Ideal(W, rp.ideal.gens + tuple(transport(g, W) for g in mm.gens))
    out = eliminate(big, base_variable_names(W))
    if default_mm:
        I._cache["special_fiber"] = out
    return out


def analytic_spread(I: Ideal) -> int:
    """Analytic spread: the dimension of the special fiber of I.

    An m-primary I of a local or standard graded ring R has spread dim R
    (Swanson-Huneke, *Integral Closure of Ideals, Rings, and Modules*,
    2006, ch. 8).  So when I is m-primary and generated by forms
    (``_rees_criterion_holds``), the spread is read off the ring, in any
    order.  Every other I, the zero ideal too, takes the fiber
    (``_fiber_dimension``), which ``verify.analytic_spread`` also checks.
    """
    if _rees_criterion_holds(I):
        return ring_dimension(I.ring)
    return _fiber_dimension(I)


def _fiber_dimension(I: Ideal) -> int:
    """Dimension of the special fiber of I's trimmed generators; the fiber
    depends on I alone (see ``_normal_cone_series``)."""
    return dimension_and_degree(special_fiber_ideal(_trimmed(I)))[0]


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionCertificate:
    accepted: bool
    witness: int | None
    cap: int

    def __str__(self):
        if self.accepted:
            return f"reduction[ r = {self.witness} ]"
        return f"not-a-reduction[ cap = {self.cap} ]"


def is_reduction(I: Ideal, J: Ideal, cap=DEFAULT_REDUCTION_CAP):
    """Search the smallest r <= cap with J * I^r = I^(r+1): J is then a
    reduction of I with reduction number r (Northcott-Rees, *Proc.
    Cambridge Philos. Soc.* 50, 1954).

    When the nonzero generators of I and J are forms of one degree delta
    in a standard graded ring, J * I^r lies in I^(r+1) and both are
    generated in degree D = (r + 1) * delta, so they are equal iff their
    degree-D pieces have the same dimension: ranks of products of forms
    (``_reduction_by_rank``), with no Groebner basis.  Every other input
    compares the ideals (``_reduction_by_ideals``), which
    ``verify.is_reduction`` also checks the ranks against.

    The least r depends on the ideals alone, not on their generators or
    the cap.  So once a test accepts, its witness is carried on J, keyed
    by I's reduced basis, and a later test of J against an equal I reads
    it: accepted iff r <= its own cap.  It is stored only after J was
    found inside I, and J's generators do not change, so the read needs
    only the ring check.  ``reduction_number`` of the pair that
    ``minimal_reduction`` returns runs no second search; the
    ``verify`` oracles recompute it.
    """
    if I.ring != J.ring:
        raise RingMismatchError("reduction test needs matching rings")
    key = ("reduction_number", I._basis_terms())
    r = J._cache.get(key)
    if r is not None:
        return (ReductionCertificate(True, r, cap) if r <= cap
                else ReductionCertificate(False, None, cap))
    for g in J.gens:
        if not normal_form(g, I).is_zero():
            raise ValueError("J is not contained in I")
    degrees = (_form_degrees(I), _form_degrees(J))
    if (None not in degrees and len(degrees[0] | degrees[1]) == 1
            and _standard_graded(I.ring)):
        cert = _reduction_by_rank(I, J, cap)
    else:
        cert = _reduction_by_ideals(I, J, cap)
    if cert.accepted:
        J._cache[key] = cert.witness
    return cert


def _reduction_by_ideals(I: Ideal, J: Ideal, cap) -> ReductionCertificate:
    """The reduction test by comparing the ideals J * I^r and I^(r+1)."""
    Ir = I ** 0
    for r in range(cap + 1):
        Inext = Ir * I
        if J * Ir == Inext:
            return ReductionCertificate(True, r, cap)
        # regenerate from the Groebner basis to keep products small
        Ir = _with_basis(I.ring, Inext.display_gens(), Inext.groebner())
    return ReductionCertificate(False, None, cap)


def _reduction_by_rank(I: Ideal, J: Ideal, cap) -> ReductionCertificate:
    """The reduction test in one degree per step, for I and J generated by
    forms of one degree: a basis of (I^r)_(r delta), carried from step to
    step, times the generators of I spans (I^(r+1))_D, and times those of
    J spans (J * I^r)_D; each side keeps the products outside the span of
    those before them in an ``_Echelon``.  In a quotient ring they are
    already normal forms, unique, so their ranks are the dimensions in R."""
    p, basis = I.ring.p, [I.ring.one()]
    for r in range(cap + 1):
        spans = []
        for gens in (I.gens, J.gens):
            echelon, kept, column = _Echelon(p), [], {}
            for f in (b * g for b in basis for g in gens):
                rest = echelon.reduce({column.setdefault(e, len(column)): c
                                       for e, c in f.terms})
                if rest:
                    echelon.keep(rest)
                    kept.append(f)
            spans.append(kept)
        if len(spans[1]) == len(spans[0]):
            return ReductionCertificate(True, r, cap)
        basis = spans[0]
    return ReductionCertificate(False, None, cap)


def reduction_number(I: Ideal, J: Ideal, cap=DEFAULT_REDUCTION_CAP) -> int:
    cert = is_reduction(I, J, cap)
    if not cert.accepted:
        raise ValueError(f"not a reduction within cap {cap}")
    return cert.witness


def _rees_criterion_holds(I: Ideal) -> bool:
    """Whether I is a nonzero m-primary ideal of a standard graded ring,
    generated by forms: then ``analytic_spread`` reads dim R off the ring
    and ``minimal_reduction`` screens its draws by Rees's criterion.  The
    first call leaves I's basis in its cache for the second."""
    return (bool(_form_degrees(I)) and _standard_graded(I.ring)
            and dimension_and_degree(I)[0] == 0)


def minimal_reduction(I: Ideal, seed=0, cap=DEFAULT_REDUCTION_CAP) -> Ideal:
    """ell(I) random scalar combinations of the generators, redrawn until
    they pass the reduction test within ``cap``; deterministic per seed.
    ``_REDUCTION_TRIES`` draws are split evenly over the pools below, at
    least one each.

    When the generators are homogeneous of mixed degrees, scalar
    combinations of all of them generically vanish outside V(I) and the
    global identity J*I^r = I^(r+1) cannot hold; in that case combinations
    of the lowest-degree generators (then widening the degree window) are
    attempted as well.  A homogeneous generating set with a redundant
    generator is trimmed first, so that it does not skew those windows.

    Every draw is screened before the reduction test.  When R is
    standard graded of dimension d and I is m-primary and generated by
    forms of least degree delta, a draw from a pool of forms of one degree
    is screened by Rees's criterion: J, d forms of degree delta, is a
    reduction of I iff J is m-primary.  If it is, R/J has finite length,
    so R is finite over k[J's generators] (graded Nakayama) and m^delta
    is integral over J; and J inside I inside m^delta makes J a reduction
    of I.  A reduction of an m-primary ideal has the same radical, m
    (Swanson-Huneke, *Integral Closure of Ideals, Rings, and Modules*,
    2006, Cor. 1.2.5 and ch. 8).  Every other pool of forms of one degree
    is screened by the Northcott-Rees fiber cut: J is a reduction iff the
    linear forms it adds cut I's special fiber down to dimension 0.  Both
    screens are exact, so they pass the same draws.  No exact screen
    covers a pool that is not of one degree, but a reduction has I's
    radical, so a draw with J : I^inf != (1), which vanishes somewhere
    off V(I), is refused (``gb._saturates_to_unit``) before the ideal
    comparison forms I^r up to the cap.  The reduction test
    still runs on a passed draw, because it enforces ``cap``: a J whose
    reduction number exceeds it is redrawn.  Its witness stays on J
    (``is_reduction``), so ``reduction_number(I, J)`` costs no second
    search.  ``verify.minimal_reduction`` checks the answer.
    """
    ring = I.ring
    gens = [g for g in I.gens if not g.is_zero()]
    all_homog = all(g.is_homogeneous() for g in gens)
    if all_homog:
        # trimmed before its spread, so that one object caches the fiber
        trimmed = trim_homogeneous(I)
        if len(trimmed.gens) < len(gens):
            I, gens = trimmed, list(trimmed.gens)
    ell = analytic_spread(I)
    rng = random.Random(seed)
    if ell >= len(gens):
        return Ideal(ring, tuple(gens))
    by_rees = _rees_criterion_holds(I)
    pools = [list(enumerate(I.gens))]
    if all_homog:
        degs = sorted({g.total_degree() for g in gens})
        windows = []
        for k in range(1, len(degs)):
            allowed = set(degs[:k])
            pool = [(i, g) for i, g in enumerate(I.gens)
                    if not g.is_zero() and g.total_degree() in allowed]
            if len(pool) >= ell:
                windows.append(pool)
        # mixed degrees: scalar combinations across all generators pick up
        # zeros outside V(I), so prefer the low-degree windows
        pools = windows + pools
    fiber = None
    for pool in pools:
        equigenerated = all_homog and len(
            {g.total_degree() for _, g in pool}) == 1
        for _ in range(max(1, _REDUCTION_TRIES // len(pools))):
            coeffs = [[rng.randrange(ring.p) for _ in pool]
                      for _ in range(ell)]
            combos = [ring.sum(g * c for c, (_, g) in zip(row, pool))
                      for row in coeffs]
            if any(g.is_zero() for g in combos):
                continue
            J = Ideal(ring, tuple(combos))
            if by_rees and equigenerated:
                # Rees's criterion: J is a reduction iff it is m-primary
                if dimension_and_degree(J)[0] != 0:
                    continue
            elif equigenerated:
                # Northcott-Rees: homogeneous J is a reduction iff its image
                # cuts the special fiber down to dimension 0
                if fiber is None:
                    fiber = special_fiber_ideal(I)
                fring = fiber.ring
                wnames = list(fring.names)
                lins = [fring.sum(fring.var(wnames[i]) * c
                                  for c, (i, _) in zip(row, pool))
                        for row in coeffs]
                cut = Ideal(fring, tuple(fiber.gens) + tuple(lins))
                if dimension_and_degree(cut)[0] != 0:
                    continue
            elif not _saturates_to_unit(J, gens):
                # V(J) leaves V(I): J lacks I's radical
                continue
            if is_reduction(I, J, cap).accepted:
                return J
    raise RuntimeError(
        f"no minimal reduction found in {_REDUCTION_TRIES} tries; "
        "try another seed")


# ---------------------------------------------------------------------------
# Jacobian dual, G_m, expected Rees ideal
# ---------------------------------------------------------------------------

def which_gm(I: Ideal):
    """Largest m with codim I_{n-p}(phi) > p for all 1 <= p < m (INF if all)."""
    M = as_module(I)
    phi = M.presentation
    n = M.generator_count
    for p_ in range(1, n):
        mi = minors_ideal(n - p_, phi)
        cd = codimension(mi)
        if not cd > p_:
            return p_
    return INFINITY


def jacobian_dual(phi_or_ideal, X=None, T=None) -> FreeModuleMap:
    """Matrix psi over the Rees ring with T*phi = X*psi, entry by entry.

    Defaults: phi the presentation of an ideal, X the base variables, T the
    w-block row.  Entries of T*phi must lie in (X); each column of psi is
    their lift through the graph module of X (``gb._coefficients``).
    """
    if isinstance(phi_or_ideal, Ideal):
        I = phi_or_ideal
        M = as_module(I)
        pres = M.presentation
        W = rees_ring(I.ring, M.generator_count)
        phi = FreeModuleMap(
            W, [[transport(e, W) for e in row] for row in pres.entries],
            rows=pres.rows, cols=pres.cols)
        if X is None:
            X = [W.var(n) for n in base_variable_names(W)]
        if T is None:
            T = [W.var(n) for n in rees_variable_names(W)]
    else:
        phi = phi_or_ideal
        if X is None or T is None:
            raise ValueError("explicit X and T rows required for a raw matrix")
    ring = phi.ring
    if len(T) != phi.rows:
        raise ValueError("T row length must match the matrix rows")
    tphi = row_times_matrix(list(T), phi)
    X = Ideal(ring, tuple(X)).gens  # polynomials of ring, ints as constants
    try:
        cols = _coefficients(ring, tphi, X)
    except ValueError:
        raise ValueError(
            "entries of T*phi do not lie in the ideal of X") from None
    rows = [[col[i] for col in cols] for i in range(len(X))]
    return FreeModuleMap(ring, rows, rows=len(X), cols=phi.cols)


def expected_rees_ideal(I: Ideal) -> Ideal:
    """Symmetric algebra ideal plus the maximal minors of the Jacobian dual."""
    I0 = symmetric_algebra_ideal(I)
    psi = jacobian_dual(I)
    J1 = minors_ideal(psi.rows, psi)
    return _trimmed(Ideal(I0.ring, I0.gens + J1.gens))
