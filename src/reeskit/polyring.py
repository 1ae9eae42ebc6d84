"""Sparse multivariate polynomials over GF(p), monomial orders, ring descriptors.

A ring is described by a characteristic, named variable blocks, a monomial
order and an optional quotient ideal (stored as a reduced Groebner basis of
the ambient polynomial ring).  Towers like R[w_0..w_n] are always flattened
into one descriptor with several blocks.
"""

from __future__ import annotations

import random
import re
from operator import ge, lshift

MAX_EXPONENT = 1 << 15
MAX_MODULUS = 1 << 31


class RingMismatchError(ValueError):
    """Raised when operands belong to different rings or fields."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for n < 3,317,044,064,679,887,385,961,981
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# monomial orders
#
# An order spec is a hashable tuple:
#   ("grevlex",)
#   ("lex",)
#   ("block", (idx_tuple, idx_tuple, ...))   -- elimination/block order,
#       graded reverse lex inside each block, earlier blocks dominate.
# Keys compare so that bigger key == bigger monomial.
# ---------------------------------------------------------------------------

def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def make_key_function(order_spec, nvars):
    kind = order_spec[0]
    if kind == "grevlex":
        return _grevlex_key
    if kind == "lex":
        return lambda e: e
    if kind == "block":
        blocks = order_spec[1]
        seen = sorted(i for b in blocks for i in b)
        if seen != list(range(nvars)):
            raise ValueError("block order must partition the variables")

        def key(e):
            return tuple(
                (sum(e[i] for i in b), tuple(-e[i] for i in reversed(b)))
                for b in blocks
            )

        return key
    raise ValueError(f"unknown order spec {order_spec!r}")


def elimination_spec(elim_indices, nvars):
    """Block order putting `elim_indices` in front of the remaining variables."""
    first = tuple(sorted(elim_indices))
    rest = tuple(i for i in range(nvars) if i not in set(first))
    blocks = tuple(b for b in (first, rest) if b)
    return ("block", blocks)


def is_degree_compatible(order_spec) -> bool:
    return order_spec[0] == "grevlex"


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*\Z")


class RingDescriptor:
    """Polynomial ring over GF(p), possibly modulo a quotient ideal."""

    __slots__ = (
        "p", "blocks", "names", "degrees", "order_spec", "quotient",
        "rees_block", "_index", "_keyf", "_key_cache", "_sig", "_hash",
        "_ambient", "_qprep",
    )

    def __init__(self, p, blocks, order_spec=("grevlex",), degrees=None,
                 quotient=(), rees_block=None):
        self.p = p
        self.blocks = tuple(tuple(b) for b in blocks)
        self.names = tuple(n for b in self.blocks for n in b)
        self.degrees = tuple(degrees) if degrees else (1,) * len(self.names)
        self.order_spec = order_spec
        self.quotient = tuple(quotient)
        self.rees_block = rees_block
        self._index = {n: i for i, n in enumerate(self.names)}
        self._keyf = make_key_function(order_spec, len(self.names))
        self._key_cache = {}
        qsig = tuple(g.terms for g in self.quotient)
        self._sig = (p, self.blocks, self.degrees, order_spec, qsig)
        self._hash = hash(self._sig)
        self._ambient = None
        self._qprep = None

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, RingDescriptor) and self._sig == other._sig

    def __hash__(self):
        return self._hash

    def __repr__(self):
        s = f"zmod {self.p} [" + " | ".join(",".join(b) for b in self.blocks) + "]"
        if self.quotient:
            s += " / (" + ", ".join(str(g) for g in self.quotient) + ")"
        return s

    # -- basic queries -------------------------------------------------------
    @property
    def nvars(self):
        return len(self.names)

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def key(self, exps):
        cache = self._key_cache
        k = cache.get(exps)
        if k is None:
            k = cache[exps] = self._keyf(exps)
        return k

    @property
    def ambient(self):
        """The same ring without its quotient ideal."""
        if not self.quotient:
            return self
        if self._ambient is None:
            self._ambient = RingDescriptor(
                self.p, self.blocks, self.order_spec, self.degrees,
                (), self.rees_block)
        return self._ambient

    def with_quotient(self, gens):
        """Descriptor with quotient replaced by the reduced GB of `gens`."""
        from . import gb  # deferred: gb builds on this module
        amb = self.ambient
        lifted = [transport(g, amb) for g in gens if not g.is_zero()]
        if not lifted:
            return amb
        return self._modulo(gb.reduced_groebner_raw(lifted, amb))

    def _modulo(self, basis):
        """The ambient ring modulo the ideal whose reduced basis, ascending
        in this order, is ``basis``: installed as the quotient as it is."""
        amb = self.ambient
        if not basis:
            return amb
        if list(basis) == [amb.one()]:
            raise ValueError("quotient ideal is the unit ideal")
        r = RingDescriptor(self.p, self.blocks, self.order_spec, self.degrees,
                           tuple(basis), self.rees_block)
        r._ambient = amb
        return r

    # -- element constructors ------------------------------------------------
    def poly(self, termdict):
        """Normalized polynomial from {exponent tuple: coefficient}."""
        p = self.p
        terms = {e: c % p for e, c in termdict.items() if c % p}
        if self.quotient:
            reducer, leads = self._quotient_reducer()
            # most inputs are already normal: no quotient lead divides them
            if any(all(map(ge, e, le)) for e in terms for le in leads):
                return Polynomial(self, tuple(
                    (e, c) for (_, e), c in
                    reducer.reduce({(0, e): c for e, c in terms.items()})))
        items = sorted(terms.items(), key=lambda t: self.key(t[0]), reverse=True)
        return Polynomial(self, tuple(items))

    def sum(self, polys):
        """Sum of polynomials of this ring, normalised once: their terms
        are merged into one dict, which one ``poly`` sorts and reduces."""
        d = {}
        for f in polys:
            if f.ring != self:
                raise RingMismatchError("polynomials from different rings")
            for e, c in f.terms:
                d[e] = d.get(e, 0) + c
        return self.poly(d)

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return self.const(1)

    def const(self, c):
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, name):
        i = self.var_index(name)
        e = [0] * self.nvars
        e[i] = 1
        return self.poly({tuple(e): 1})

    def gens(self):
        return [self.var(n) for n in self.names]

    def monomial(self, exps, coeff=1):
        return self.poly({tuple(exps): coeff})

    def _quotient_reducer(self):
        """Cached ``_Reducer`` of the quotient basis, and its leads."""
        if self._qprep is None:
            self._qprep = (
                _Reducer([{(0, e): c for e, c in g.terms}
                          for g in self.quotient],
                         self.order_spec, self.nvars, self.p),
                [g.terms[0][0] for g in self.quotient])
        return self._qprep


def make_ring(p, blocks, order="grevlex", quotient=None, degrees=None,
              rees_block=None) -> RingDescriptor:
    """Build a ring descriptor, replacing quotient generators by their reduced GB."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"characteristic {p!r} is not prime")
    if p >= MAX_MODULUS:
        raise ValueError("characteristic must be below 2^31")
    if blocks and isinstance(blocks[0], str):
        blocks = [blocks]
    names = [n for b in blocks for n in b]
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    for n in names:
        if not _NAME_RE.match(n):
            raise ValueError(f"bad variable name {n!r}")
    if isinstance(order, str):
        order_spec = (order,)
    else:
        order_spec = order
    if order_spec[0] == "block" and order_spec[1] and isinstance(order_spec[1][0], int):
        # sizes form: ("block", (n1, n2, ...)) -> index partition
        sizes = order_spec[1]
        if sum(sizes) != len(names):
            raise ValueError("block sizes must cover all variables")
        idx, parts = 0, []
        for s in sizes:
            parts.append(tuple(range(idx, idx + s)))
            idx += s
        order_spec = ("block", tuple(parts))
    ring = RingDescriptor(p, blocks, order_spec, degrees, (), rees_block)
    if quotient:
        for g in quotient:
            if not isinstance(g, Polynomial) or g.ring.ambient != ring:
                raise ValueError("quotient generators from another ring")
        ring = ring.with_quotient(quotient)
    return ring


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class _Overflow(Exception):
    """A packed term reached a guard bit: its packing is too narrow."""


class _Packing:
    """Terms (component, exponents) as ints whose integer order is the
    module order: position over term on top of ``order_spec``.

    Every variable gets a w-bit slot whose top bit is a guard (Bachmann
    and Schoenemann, ISSAC 1998; Monagan and Pearce, CASC 2007).  A block
    v_0..v_(k-1) of the order gets k adjacent slots holding the prefix sums
    e_0, e_0 + e_1, ..., with the block degree in the top slot, and earlier
    blocks sit above later ones: ``lex`` is n blocks of one variable and
    ``grevlex`` one block.  Comparing the top slots compares the block
    degrees; below them a larger prefix sum means a smaller exponent of a
    later variable, which is reverse lex inside the block.  The component c
    sits above all slots as -c, so a smaller component is a larger term.

    With every slot below its guard no slot carries into the next, so:

    * multiplying by a monomial adds its (component-free) packing, and an
      add that sets a guard bit has outgrown the width (``_Overflow``);
    * ``plain`` turns the prefix sums back into exponents, one per slot,
      as ``v - ((v << w) & strip)``, where ``strip`` drops the bottom slot
      of every block; on that layout b divides a iff
      ``((a | guard) - b) & guard == guard``;
    * ``order`` turns a plain layout back into prefix sums with one
      multiply per block of more than one variable.

    ``tops`` holds the bit offset of each block's top slot, so the total
    degree of a term is the sum of those slots.

    ``width(d)`` is the least width whose guard lies above 2*d, so the
    lcm of two terms of degree d still fits.
    """

    __slots__ = ("w", "slot", "guard", "tmask", "cshift", "shifts", "strip",
                 "tops", "order")

    def __init__(self, order_spec, nvars, w):
        kind = order_spec[0]
        if kind == "grevlex":
            blocks = (tuple(range(nvars)),)
        elif kind == "lex":
            blocks = tuple((i,) for i in range(nvars))
        elif kind == "block":
            blocks = order_spec[1]
            if sorted(i for b in blocks for i in b) != list(range(nvars)):
                raise ValueError("block order must partition the variables")
        else:
            raise ValueError(f"unknown order spec {order_spec!r}")
        self.w = w
        self.slot = (1 << (w - 1)) - 1
        unit = sum(1 << (w * k) for k in range(nvars))
        self.guard = unit << (w - 1)
        self.tmask = (1 << (w * nvars)) - 1
        self.cshift = w * nvars
        shifts = [0] * nvars
        lifts, single, bottoms, tops = [], 0, 0, []
        top = nvars
        for b in blocks:
            top -= len(b)
            tops.append(w * (top + len(b) - 1))
            for k, v in enumerate(b):
                shifts[v] = w * (top + k)
            bits = ((1 << (w * len(b))) - 1) << (w * top)
            bottoms |= ((1 << w) - 1) << (w * top)
            if len(b) == 1:
                single |= bits
            else:
                lifts.append((bits, sum(1 << (w * k) for k in range(len(b)))))
        self.shifts = tuple(shifts)
        self.tops = tuple(tops)
        self.strip = self.tmask & ~bottoms
        tmask = self.tmask
        if not lifts:  # one slot per block: prefix sums are the exponents
            self.order = int
        elif not single and len(lifts) == 1:
            self.order = lambda x: (x * unit) & tmask
        else:
            def order(x):
                v = x & single
                for bits, ones in lifts:
                    v |= ((x & bits) * ones) & bits
                return v
            self.order = order

    @staticmethod
    def width(degree):
        return (2 * degree).bit_length() + 1

    def pack(self, comp, exps):
        # the total degree bounds every prefix sum
        if sum(exps) > self.slot:
            raise _Overflow
        return (self.order(sum(map(lshift, exps, self.shifts)))
                - (comp << self.cshift))

    def plain(self, v):
        return v - ((v << self.w) & self.strip)

    def unpack(self, v):
        x = self.plain(v & self.tmask)
        m = (1 << self.w) - 1
        return -(v >> self.cshift), tuple((x >> s) & m for s in self.shifts)

    def search(self, index):
        """For ``_reduce_vec``: the function from a packed term m to the
        first (lead, position) listed in ``index`` (keyed by ``m >> cshift``,
        with plain component-free leads) whose lead divides m, or None."""
        cshift, w, strip, guard = self.cshift, self.w, self.strip, self.guard
        get = index.get

        def find(m):
            cands = get(m >> cshift)
            if cands:
                x = (m - ((m << w) & strip)) | guard
                for lead, hit in cands:
                    if (x - lead) & guard == guard:
                        return hit
            return None

        return find


def _reduce_vec(vec, search, tails, p, guard):
    """Full normal form of a packed term dict against monic reducers.

    This is the one term reducer: the Groebner engine, normal forms, module
    membership and quotient-ring normalisation all call it.  Terms are ints
    of one ``_Packing``, so the next term is the largest int and a reducer
    is shifted by adding the packed quotient monomial; a shifted term that
    reaches a bit of ``guard`` raises ``_Overflow``.  ``search`` maps a term
    to the (packed lead, position) of the reducer to use, or None when no
    lead divides it (``_Packing.search``); ``tails[position]`` is the monic
    reducer without its lead.
    """
    work = dict(vec)
    rem = {}
    while work:
        m = max(work)
        c = work.pop(m)
        hit = search(m)
        if hit is None:
            rem[m] = c
            continue
        lead, gi = hit
        q = m - lead
        for t, tc in tails[gi]:
            nm = t + q
            if nm & guard:
                raise _Overflow
            nv = (work.get(nm, 0) - c * tc) % p
            if nv:
                work[nm] = nv
            else:
                work.pop(nm, None)
    return rem


class _Reducer:
    """Monic reducers from (component, exponents) term dicts in one order,
    packed with one ``_Packing`` at the first ``reduce`` and repacked wider
    when an input or a reduction outgrows it; ``append`` adds one to the
    packing at hand, and reduces as a new ``_Reducer`` of the longer list."""

    __slots__ = ("vectors", "order_spec", "nvars", "p", "packing", "index",
                 "search", "tails")

    def __init__(self, vectors, order_spec, nvars, p):
        self.vectors = list(vectors)
        self.order_spec = order_spec
        self.nvars = nvars
        self.p = p
        self.packing = None

    def _build(self, w, vec=()):
        # at least w wide, and wide enough for every reducer and vec
        w = max(w, _Packing.width(max(
            (sum(m[1]) for v in (*self.vectors, vec) for m in v), default=0)))
        self.packing = _Packing(self.order_spec, self.nvars, w)
        self.index, self.tails = {}, []
        for v in self.vectors:
            self._pack(v)
        self.search = self.packing.search(self.index)

    def _pack(self, v):
        # reducer k: its lead listed under its component in input order,
        # and tails[k], the rest divided by the lead coefficient
        pk, p = self.packing, self.p
        vec = {pk.pack(*m): c for m, c in v.items()}
        lead = max(vec)
        inv = pow(vec[lead], -1, p)
        self.index.setdefault(lead >> pk.cshift, []).append(
            (pk.plain(lead) & pk.tmask, (lead, len(self.tails))))
        self.tails.append(tuple((m, c * inv % p) for m, c in vec.items()
                                if m != lead))

    def append(self, v):
        """Add the term dict ``v`` as the last reducer."""
        self.vectors.append(v)
        pk = self.packing
        if pk is not None:
            try:
                self._pack(v)
            except _Overflow:
                self._build(pk.w + 2)

    def reduce(self, vec):
        """Normal form of the term dict ``vec``, as a list of (term,
        coefficient) in descending order."""
        if self.packing is None:
            self._build(0, vec)
        while True:
            pk = self.packing
            try:
                rem = _reduce_vec({pk.pack(*m): c for m, c in vec.items()},
                                  self.search, self.tails, self.p, pk.guard)
                break
            except _Overflow:
                self._build(pk.w + 2, vec)
        unpack = pk.unpack
        return [(unpack(m), rem[m]) for m in sorted(rem, reverse=True)]


class Polynomial:
    """Immutable sparse polynomial; terms sorted descending in the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- queries -------------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or not any(self.terms[0][0])

    def lead_exps(self):
        return self.terms[0][0]

    def lead_coeff(self):
        return self.terms[0][1]

    def constant_value(self):
        if self.is_zero():
            return 0
        return self.terms[0][1]

    def total_degree(self, weights=None):
        if not self.terms:
            return -1
        if weights is None:
            return max(sum(e) for e, _ in self.terms)
        return max(sum(a * w for a, w in zip(e, weights)) for e, _ in self.terms)

    def degree_in(self, name):
        i = self.ring.var_index(name)
        return max((e[i] for e, _ in self.terms), default=-1)

    def is_homogeneous(self, weights=None):
        if not self.terms:
            return True
        if weights is None:
            weights = self.ring.degrees
        degs = {sum(a * w for a, w in zip(e, weights)) for e, _ in self.terms}
        return len(degs) == 1

    def support_vars(self):
        used = set()
        for e, _ in self.terms:
            for i, a in enumerate(e):
                if a:
                    used.add(i)
        return sorted(used)

    def monic(self):
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == 1:
            return self
        return self * pow(lc, -1, self.ring.p)

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return self.ring.poly(d)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, tuple((e, p - c) for e, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if c == 0:
                return self.ring.zero()
            p = self.ring.p
            return Polynomial(self.ring,
                              tuple((e, d * c % p) for e, d in self.terms))
        self._check(other)
        p = self.ring.p
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(e1, e2))
                d[m] = (d.get(m, 0) + c1 * c2) % p
        if d and max(max(e) for e in d) > MAX_EXPONENT:
            raise ValueError("exponent overflow beyond 2^15")
        return self.ring.poly(d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base2 = base * base if n > 1 else base
            base, n = base2, n >> 1
        return result

    def __eq__(self, other):
        # only polynomials compare: an int congruence would make equality
        # intransitive (3 == const(3) == 104 over GF(101)) and break the hash
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring._hash, self.terms))

    # -- calculus ------------------------------------------------------------
    def derivative(self, name):
        i = self.ring.var_index(name)
        p = self.ring.p
        d = {}
        for e, c in self.terms:
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                cc = c * e[i] % p
                if cc:
                    d[tuple(ne)] = cc
        return self.ring.poly(d)

    def __str__(self):
        return format_terms(self.terms, self.ring)

    __repr__ = __str__


def format_terms(terms, ring):
    if not terms:
        return "0"
    p = ring.p
    parts = []
    for e, c in terms:
        if 2 * c > p:
            sign, c = "-", p - c
        else:
            sign = "+"
        mono = "*".join(
            n if k == 1 else f"{n}^{k}"
            for n, k in zip(ring.names, e) if k
        )
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        else:
            body = f"{c}*{mono}"
        parts.append((sign, body))
    s0, b0 = parts[0]
    out = ("-" if s0 == "-" else "") + b0
    for s, b in parts[1:]:
        out += f" {s} {b}"
    return out


def transport(f: Polynomial, target: RingDescriptor, rename=None) -> Polynomial:
    """Move a polynomial into another ring by matching variable names.

    Only variables actually occurring in f need to exist in the target.
    """
    if f.ring == target:
        return f
    rename = rename or {}
    src_names = f.ring.names
    idx = {}
    nv = target.nvars
    d = {}
    for e, c in f.terms:
        ne = [0] * nv
        for i, a in enumerate(e):
            if a:
                j = idx.get(i)
                if j is None:
                    n = src_names[i]
                    j = idx[i] = target.var_index(rename.get(n, n))
                ne[j] += a
        m = tuple(ne)
        d[m] = (d.get(m, 0) + c) % target.p
    return target.poly(d)


# ---------------------------------------------------------------------------
# ring maps and module maps
# ---------------------------------------------------------------------------

class RingMap:
    """Map between rings given by the image of every source variable."""

    __slots__ = ("source", "target", "images", "_powcache")

    def __init__(self, source, target, images, check=True):
        if len(images) != source.nvars:
            raise ValueError("one image per source variable required")
        for f in images:
            if not isinstance(f, Polynomial) or f.ring != target:
                raise RingMismatchError("images must live in the target ring")
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._powcache = {}
        if check:
            for q in source.quotient:
                if not self.apply_ambient(q).is_zero():
                    raise ValueError(
                        "map does not kill the source quotient ideal")

    def apply_ambient(self, f):
        """Apply to a polynomial given by ambient term data of the source."""
        tgt = self.target
        cache = self._powcache
        pieces = []
        for e, c in f.terms:
            piece = None
            for i, a in enumerate(e):
                if a:
                    key = (i, a)
                    pw = cache.get(key)
                    if pw is None:
                        pw = cache[key] = self.images[i] ** a
                    piece = pw if piece is None else piece * pw
            pieces.append(tgt.const(c) if piece is None else piece * c)
        return tgt.sum(pieces)

    def __call__(self, x):
        """The image of a polynomial, or the ideal generated by the images
        of an ideal's generators."""
        from .gb import Ideal  # deferred: gb builds on this module
        if not isinstance(x, (Polynomial, Ideal)):
            raise TypeError(f"cannot apply ring map to {type(x).__name__}")
        if x.ring != self.source:
            raise RingMismatchError("argument not in the source ring")
        if isinstance(x, Polynomial):
            return self.apply_ambient(x)
        return Ideal(self.target, tuple(self.apply_ambient(g) for g in x.gens))

    def __repr__(self):
        ims = ", ".join(f"{n} -> {f}" for n, f in zip(self.source.names, self.images))
        return f"ringmap[ {ims} ]"


class FreeModuleMap:
    """Matrix of polynomials presenting a map R^s -> R^m (columns = images)."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, entries, rows=None, cols=None):
        entries = tuple(tuple(row) for row in entries)
        if entries:
            rows = len(entries)
            cols = len(entries[0])
            for row in entries:
                if len(row) != cols:
                    raise ValueError("ragged matrix")
                for f in row:
                    if f.ring != ring:
                        raise RingMismatchError("matrix entries from different rings")
        else:
            rows = rows or 0
            cols = cols or 0
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        ent = tuple(tuple(self.entries[i][j] for i in range(self.rows))
                    for j in range(self.cols))
        return FreeModuleMap(self.ring, ent, rows=self.cols, cols=self.rows)

    def is_zero(self):
        return all(f.is_zero() for row in self.entries for f in row)

    def __eq__(self, other):
        return (isinstance(other, FreeModuleMap) and self.ring == other.ring
                and self.entries == other.entries
                and (self.rows, self.cols) == (other.rows, other.cols))

    def __hash__(self):
        return hash((self.ring._hash, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(f) for f in row) + "]"
                         for row in self.entries)
        return f"matrix[ {body} ]" if body else f"matrix[ {self.rows} x {self.cols} ]"


def matrix_from_columns(ring, columns, rows=None):
    if not columns:
        return FreeModuleMap(ring, (), rows=rows or 0, cols=0)
    m = len(columns[0])
    ent = [[columns[j][i] for j in range(len(columns))] for i in range(m)]
    return FreeModuleMap(ring, ent)


def row_times_matrix(row, mat: FreeModuleMap):
    """(1 x m) row of polynomials times an m x s matrix -> list of s entries."""
    if len(row) != mat.rows:
        raise ValueError("row length must match matrix rows")
    return [mat.ring.sum(row[i] * mat.entries[i][j] for i in range(mat.rows))
            for j in range(mat.cols)]


# ---------------------------------------------------------------------------
# homogenization, random elements, text parsing
# ---------------------------------------------------------------------------

def extend_ring(ring, new_names):
    """Append a fresh block of variables of degree 1 to a ring (ambient, no
    quotient)."""
    amb = ring.ambient
    for n in new_names:
        if n in amb._index:
            raise ValueError(f"variable {n!r} already exists")
    blocks = amb.blocks + (tuple(new_names),)
    degs = amb.degrees + (1,) * len(new_names)
    return RingDescriptor(amb.p, blocks, ("grevlex",), degs, (), amb.rees_block)


def homogenize_ideal(I, new_name):
    """Homogenize a Groebner basis of I with a fresh variable (projective closure)."""
    from . import gb
    ring = I.ring
    if not is_degree_compatible(ring.order_spec):
        raise ValueError("homogenization needs a degree-compatible order")
    if new_name in ring.ambient._index:
        raise ValueError(f"variable {new_name!r} already exists")
    ext = extend_ring(ring, [new_name])
    out = []
    for g in I.groebner().ambient_elements:
        d = g.total_degree()
        terms = {}
        for e, c in g.terms:
            terms[e + (d - sum(e),)] = c
        out.append(ext.poly(terms))
    return gb.Ideal(ext, tuple(out))


def random_poly(ring, degree, seed_or_rng=0, homogeneous=False):
    """Dense polynomial with seeded uniform coefficients; deterministic.

    By default every monomial of degree up to ``degree`` gets a coefficient;
    with ``homogeneous`` only the top degree is used (a random form, the way
    generic forms enter the constructions here).
    """
    from .gb import _standard_exponents  # deferred: gb builds on this module
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) \
        else random.Random(seed_or_rng)
    degrees = [degree] if homogeneous else range(degree + 1)
    while True:
        d = {}
        for dd in degrees:
            # exponents of degree dd, lexicographically descending
            for e in reversed(_standard_exponents(
                    (), ring.nvars, (1,) * ring.nvars, dd)):
                d[e] = rng.randrange(ring.p)
        f = ring.poly(d)
        if not f.is_zero():
            return f


def parse_poly(ring, text: str) -> Polynomial:
    """Read a polynomial of ``ring`` written in the script expression
    syntax, e.g. ``3*x^2*y - w_0 + 1``; ``str`` gives back such text.
    Raises ValueError on malformed text and on any ``#``, which the script
    tokenizer would read as the start of a comment."""
    from . import cli  # deferred: cli builds on every module
    if "#" in text:
        raise ValueError("'#' is not allowed in a polynomial")
    try:
        return cli.eval_polynomial(ring, text)
    except cli.ScriptError as exc:
        raise ValueError(str(exc)) from exc
