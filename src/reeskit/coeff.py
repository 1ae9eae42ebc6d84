"""Exact arithmetic in GF(p) and polynomial factorization over prime fields.

Univariate polynomials are ascending coefficient lists with entries in
[0, p).  Products are Kronecker-packed: each list becomes one Python int,
one big-int multiplication does the convolution, and the slots are read
back; a product modulo a polynomial of small degree is one fused
multiply-reduce instead.  Univariate factorization is distinct-degree
decomposition followed by Cantor-Zassenhaus equal-degree splitting (trace
splitting for p = 2); both, and Rabin's irreducibility test, step
h -> h^p mod f as a linear combination of the Frobenius rows x^(ip) mod f.
One modulus f serves a squarefree part's whole distinct-degree split, and
the equal-degree split of each of its factors inherits x^p mod f.  Roots
over odd p are split by GF(p) arithmetic: a quadratic's by the quadratic
formula, more by powers of x + c.
Bivariate factorization makes a random affine change of coordinates
x, y -> b + a t + c s such that f becomes monic in t, factors one line
restriction F(t, 0) of degree d, lifts its factors s-adically to precision
s^(d+1) by linear multifactor Hensel lifting, and recombines them, smallest
subsets first (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15).
A subset is accepted when its product, truncated, has total degree at
most its degree in t, which makes it a factor of F.  An irreducible
restriction certifies f irreducible at once.
With three or more variables, or when no line gives a squarefree
restriction of full degree (repeated factors, tiny fields), factorization
first tries to certify irreducibility on a few random lines, and stops
drawing lines once their factor-degree patterns settle.  Otherwise it
reduces to one variable through Kronecker substitution, factors the image
once and peels the input's factors off it the same way: a subset is
accepted when it and the product of the others decode to polynomials whose
degrees add up to at most those of the input, which makes their product
the input.  A subset whose lead exponent, read off the base-D digits of its
degree, exceeds the input's is rejected before any product is formed.
"""

from __future__ import annotations

import random
import sys
from array import array

from .polyring import MAX_MODULUS, Polynomial, RingMap, is_prime

KRONECKER_DEGREE_BOUND = 10 ** 6


class KroneckerBoundError(ValueError):
    """Kronecker substitution degree exceeds the configured bound."""


class GFElement:
    """Residue in GF(p); mixing moduli is a hard error."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        if not is_prime(modulus) or modulus >= MAX_MODULUS:
            raise ValueError(f"modulus {modulus} is not a prime below 2^31")
        self.value = value % modulus
        self.modulus = modulus

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.modulus != self.modulus:
                raise ValueError("modulus mismatch")
            return other
        if isinstance(other, int):
            return GFElement(other, self.modulus)
        raise TypeError(f"cannot coerce {other!r} into GF({self.modulus})")

    def __add__(self, other):
        o = self._coerce(other)
        return GFElement(self.value + o.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return GFElement(self.value - o.value, self.modulus)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return GFElement(self.value * o.value, self.modulus)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return GFElement(pow(self.value, -1, self.modulus), self.modulus)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return GFElement(pow(self.value, n, self.modulus), self.modulus)

    def __neg__(self):
        return GFElement(-self.value, self.modulus)

    def __eq__(self, other):
        # only residues compare: an int congruence would make equality
        # intransitive (3 == [3] == 10) and break the hash
        if not isinstance(other, GFElement):
            return NotImplemented
        return self.modulus == other.modulus and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"GF({self.modulus})[{self.value}]"


# ---------------------------------------------------------------------------
# univariate polynomials as coefficient lists (ascending), over GF(p)
# ---------------------------------------------------------------------------

def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _deg(f):
    return len(f) - 1


# Kronecker packing: a coefficient list becomes one int whose i-th slot of
# `size` bytes holds coefficient i.  Slots are byte-aligned so that packing
# and unpacking run through array/bytes conversions in C; widths 1, 2, 4 and
# 8 have an array typecode, wider slots (p near 2^31) go through bytes.
_SLOT_CODES = sorted((array(c).itemsize, c) for c in "BHIQ")
_BIG_ENDIAN = sys.byteorder == "big"

# uv_mul multiplies schoolbook when one factor is a constant or when
# len(f) * len(g) is at most this: there the fixed cost of packing two ints
# and unpacking one exceeds the double loop.  Measured on CPython 3.11,
# p = 101, schoolbook against packed: 3 x 3 1.5 against 2.4 us, 4 x 6 2.7
# against 2.7 us, 4 x 8 3.5 against 2.8 us, 1 x 64 5.1 against 6.1 us.
_SCHOOLBOOK_TERMS = 24

# _Modulus multiplies by the fused _mulmod below this modulus degree, and
# packed from it on.  Measured on CPython 3.11 (2 vCPU), one product of two
# residues at p = 7, 101 and 32003, fused against packed: degree 3 took
# 2.5-4.2 against 3.7-6.3 us, degree 4 3.5-8.9 against 4.0-8.3 us (each
# faster at some p), degree 5 3.8-12.8 against 4.2-9.0 us and degree 6
# 5.8-16.2 against 4.6-9.1 us.  The distinct-degree split of a degree-4
# modulus took 19-47 us fused against 24-57 us packed at p = 7, but
# 97-170 against 81-174 us at p = 32003.
_PACKED_MODULUS_DEGREE = 4


def _slot(bound):
    """(bytes per slot, array typecode or None) for slot values <= bound."""
    need = (bound.bit_length() + 7) // 8
    for size, code in _SLOT_CODES:
        if size >= need:
            return size, code
    return need, None


def _pack(f, size, code):
    if code is None:
        return int.from_bytes(
            b"".join([c.to_bytes(size, "little") for c in f]), "little")
    a = array(code, f)
    if _BIG_ENDIAN:
        a.byteswap()
    return int.from_bytes(a, "little")


def _unpack(x, n, size, code, p):
    """The n slots of x (x < 2^(8 n size)), each reduced mod p."""
    b = x.to_bytes(n * size, "little")
    if code is None:
        return [int.from_bytes(b[i:i + size], "little") % p
                for i in range(0, n * size, size)]
    a = array(code, b)
    if _BIG_ENDIAN:
        a.byteswap()
    return [c % p for c in a]


def uv_mul(f, g, p):
    if not f or not g:
        return []
    if min(len(f), len(g)) == 1 or len(f) * len(g) <= _SCHOOLBOOK_TERMS:
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] = (out[i + j] + a * b) % p
        return _trim(out)
    # a slot sums at most min(len f, len g) products of residues
    size, code = _slot(min(len(f), len(g)) * (p - 1) ** 2)
    r = _pack(f, size, code) * _pack(g, size, code)
    return _trim(_unpack(r, len(f) + len(g) - 1, size, code, p))


def uv_sub(f, g, p):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] = (out[i] - b) % p
    return _trim(out)


def uv_divmod(f, g, p):
    """(quotient, remainder) by the pop loop of uv_gcd: each top coefficient
    of f, scaled by 1/lc(g), is the next quotient coefficient."""
    if not g or not g[-1]:
        g = _trim(list(g))
        if not g:
            raise ZeroDivisionError("univariate division by zero")
    f = list(f)
    n = len(g) - 1
    low = g[:-1]
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - n, 0)
    while len(f) > n:
        c = f.pop()
        if c:
            k = len(f) - n
            q[k] = c = c * inv % p
            for i, b in enumerate(low, k):
                f[i] = (f[i] - c * b) % p
    return _trim(q), _trim(f)


def uv_mod(f, g, p):
    return uv_divmod(f, g, p)[1]


def uv_gcd(f, g, p):
    """Monic gcd by Euclid; each divisor is made monic, so a remainder step
    subtracts top * x^k * g without a multiplication by an inverse."""
    f, g = _trim(list(f)), _trim(list(g))
    while g:
        if g[-1] != 1:
            inv = pow(g[-1], -1, p)
            g = [c * inv % p for c in g]
        n = len(g) - 1
        low = g[:-1]
        while len(f) > n:
            c = f.pop()
            if c:
                for i, b in enumerate(low, len(f) - n):
                    f[i] = (f[i] - c * b) % p
        _trim(f)
        f, g = g, f
    if f and f[-1] != 1:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def uv_monic(f, p):
    if not f or f[-1] == 1:
        return list(f)
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _uv_inverse(a, m, p):
    """a^(-1) mod m by the extended Euclidean algorithm; a must be coprime
    to m, deg m >= 1.  Each step keeps u a = r mod m."""
    r0, r1 = _trim(list(m)), uv_mod(a, m, p)
    u0, u1 = [], [1]
    while len(r1) > 1:
        q, r = uv_divmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, uv_sub(u0, uv_mul(q, u1, p), p)
    if not r1:
        raise ZeroDivisionError("polynomial not invertible modulo m")
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in u1]


def _mulmod(a, b, neg, p):
    """a * b mod m for m monic of degree n = len(neg), given its negated
    tail neg = (-m_0, ..., -m_(n-1)) mod p; a and b may be longer than m.
    The schoolbook product is accumulated unreduced; each coefficient above
    x^(n-1), from the top down, is reduced mod p and folded in as that
    multiple of x^n = neg, and the rest is reduced mod p once, at the end."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    n = len(neg)
    while len(out) > n:
        c = out.pop() % p
        if c:
            for i, t in enumerate(neg, len(out) - n):
                out[i] += c * t
    return _trim([c % p for c in out])


class _Modulus:
    """Arithmetic modulo a fixed polynomial m of degree n >= 1 over GF(p).

    Residues are trimmed coefficient lists of length at most n.  Below
    _PACKED_MODULUS_DEGREE a product is one fused multiply-reduce
    (`_mulmod`) by m's negated monic tail, computed once.  From there on a
    product of two residues is reduced through the packed rows
    x^(n+k) mod m, k < n - 1, built on the first product that needs them:
    the product's high coefficients, reduced mod p, scale those rows and
    are added to its packed low part.  Row k comes from row k-1 by one
    shift and one multiple of row 0, so its slots are left unreduced below
    (p-1) + k (p-1)^2; the slot width covers the sum this gives.

    The Frobenius rows x^(ip) mod m, i < n, are built once, on first use;
    h^p mod m is then the linear combination sum h_i x^(ip), since
    h_i^p = h_i in GF(p).  x^p is computed on first use, or passed in
    modulo a multiple of m and reduced mod m then.
    """

    def __init__(self, m, p, xp=None):
        self.m, self.p, self.n = m, p, len(m) - 1
        n = self.n
        inv = pow(m[-1], -1, p)
        self.neg = [-c * inv % p for c in m[:-1]]   # x^n mod m
        self.size, self.code = _slot((2 * n - 1) * (p - 1) ** 2
                                     + (n - 1) * (n - 2) * (p - 1) ** 3 // 2)
        self.low_bits = 8 * self.size * n
        self.rows = None
        self.xp = xp            # x^p mod m, once known
        self.frob = None        # coefficient lists x^(ip) mod m, once built
        self.packed_frob = None

    def _build_rows(self):
        p, n = self.p, self.n
        row = _pack(self.neg, self.size, self.code)
        top = 8 * self.size * (n - 1)
        low = (1 << top) - 1
        rows = [row]
        for _ in range(n - 2):
            rows.append(((rows[-1] & low) << 8 * self.size)
                        + (rows[-1] >> top) % p * row)
        self.rows = rows

    def mul(self, a, b):
        if not a or not b:
            return []
        if self.n < _PACKED_MODULUS_DEGREE:
            return _mulmod(a, b, self.neg, self.p)
        size, code, p = self.size, self.code, self.p
        pa = _pack(a, size, code)
        c = pa * (pa if a is b else _pack(b, size, code))
        high = len(a) + len(b) - 1 - self.n
        if high <= 0:
            return _trim(_unpack(c, len(a) + len(b) - 1, size, code, p))
        if self.rows is None:
            self._build_rows()
        acc = c & ((1 << self.low_bits) - 1)
        for t, row in zip(_unpack(c >> self.low_bits, high, size, code, p),
                          self.rows):
            if t:
                acc += t * row
        return _trim(_unpack(acc, self.n, size, code, p))

    def pow(self, a, e):
        """a^e mod m for a residue a (left-to-right binary powering)."""
        if not e:
            return [1]
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def pow_linear(self, c, e):
        """(x + c)^e mod m by left-to-right binary powering, where a step by
        x + c is no general product: r (x + c) is r shifted up plus c r,
        and its one coefficient at x^n is folded back in by m's tail."""
        p, n, neg = self.p, self.n, self.neg
        r = [1]
        for bit in bin(e)[2:]:
            r = self.mul(r, r)
            if bit == "1":
                out = [0] + r
                if c:
                    for i, a in enumerate(r):
                        out[i] += c * a
                if len(out) > n:
                    t = out.pop() % p
                    if t:
                        for i, b in enumerate(neg):
                            out[i] += t * b
                r = _trim([v % p for v in out])
        return r

    def frobenius(self, h):
        """h^p mod m for a residue h."""
        if self.xp is None:
            self.xp = self.pow_linear(0, self.p)
        elif len(self.xp) > self.n:
            self.xp = uv_mod(self.xp, self.m, self.p)
        if h == [0, 1]:
            return self.xp
        if self.packed_frob is None:
            frob = [[1], self.xp]
            while len(frob) < self.n:
                frob.append(self.mul(frob[-1], self.xp))
            self.frob = frob
            self.packed_frob = [_pack(r, self.size, self.code) for r in frob]
        acc = 0
        for c, row in zip(h, self.packed_frob):
            if c:
                acc += c * row
        return _trim(_unpack(acc, self.n, self.size, self.code, self.p))


def uv_pow_mod(f, n, mod, p):
    """f^n mod `mod`; every class is 0 modulo a unit."""
    mod = _trim(list(mod))
    base = uv_mod(f, mod, p)
    if len(mod) == 1:
        return []
    return _Modulus(mod, p).pow(base, n)


def uv_deriv(f, p):
    return _trim([(i * c) % p for i, c in enumerate(f)][1:])


def _pth_root(f, p):
    # in GF(p)[x] a polynomial with zero derivative is g(x^p); a^(1/p) = a
    out = [0] * ((len(f) - 1) // p + 1)
    for i, c in enumerate(f):
        if c:
            out[i // p] = c
    return out


def uv_squarefree_decomposition(f, p):
    """[(g, multiplicity)] with f monic = prod g^mult, g squarefree, pairwise coprime."""
    out = []
    e = 1
    f = uv_monic(f, p)
    while _deg(f) > 0:
        df = uv_deriv(f, p)
        if not df:
            f = _pth_root(f, p)
            e *= p
            continue
        g = uv_gcd(f, df, p)
        w = uv_divmod(f, g, p)[0]
        i = 1
        while _deg(w) > 0:
            w1 = uv_gcd(w, g, p)
            h = uv_divmod(w, w1, p)[0]
            if _deg(h) > 0:
                out.append((h, i * e))
            w = w1
            g = uv_divmod(g, w1, p)[0]
            i += 1
        f = g
    return out


def _distinct_degree(f, p):
    """[(product of irreducibles of degree d, d, x^p mod f or None)] for
    monic squarefree f.

    One modulus serves the whole split: h = x^(p^d) mod f comes from
    x^(p^(d-1)) by one Frobenius step through f's rows, built once.  h
    stays reduced mod the input f when factors split off, since it is then
    x^(p^d) modulo each of them too; uv_gcd reduces it mod the cofactor."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    mod = _Modulus(f, p)
    while _deg(f) > 0:
        d += 1
        if 2 * d > _deg(f):
            out.append((f, _deg(f), mod.xp))
            break
        h = mod.frobenius(h)
        g = uv_gcd(uv_sub(h, x, p), f, p)
        if _deg(g) > 0:
            out.append((g, d, mod.xp))
            f = uv_divmod(f, g, p)[0]
    return out


def _sqrt_mod(a, p):
    """A square root of the square a in GF(p), p odd, by Tonelli-Shanks
    (von zur Gathen & Gerhard, Modern Computer Algebra, 14.5); one power
    when p = 3 mod 4.  With p - 1 = q 2^s, t = a^q lies in the 2-Sylow
    subgroup, and each step multiplies it by an even power of the
    generator c = z^q, z a non-square, so that its order drops."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t > 1:            # t = 0 only for a = 0, whose root r is 0
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _equal_degree_split(f, d, p, rng, xp=None):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles.

    For odd p, a^((p^d - 1)/2) is computed as
    (a a^p ... a^(p^(d-1)))^((p-1)/2), the product taking d - 1 Frobenius
    steps; for p = 2 the trace a + a^2 + ... + a^(2^(d-1)) splits, summed
    by uv_sub, since a + b = a - b over GF(2).  xp,
    when given, is x^p modulo a multiple of f; the Frobenius steps reduce it
    mod f, and both halves of a split inherit it.

    Roots (d = 1, odd p) are split by GF(p) arithmetic: the two of a
    quadratic come from the quadratic formula, and more are split by
    a = x + c (Rabin, SIAM J. Comput. 9, 1980): a root r of f is one of
    (x + c)^((p-1)/2) - 1 iff r + c is a nonzero square."""
    n = _deg(f)
    if n == d:
        return [f]
    if d == 1 and p != 2 and n == 2:
        s = _sqrt_mod((f[1] * f[1] - 4 * f[0]) % p, p)
        half = (p + 1) // 2
        return [[(f[1] - s) * half % p, 1], [(f[1] + s) * half % p, 1]]
    mod = _Modulus(f, p, xp)
    while True:
        if d == 1 and p != 2:
            b = uv_sub(mod.pow_linear(rng.randrange(p), (p - 1) // 2), [1], p)
        else:
            a = _trim([rng.randrange(p) for _ in range(n)])
            if _deg(a) < 1:
                continue
            b = t = a
            if p == 2:
                for _ in range(d - 1):
                    t = mod.mul(t, t)
                    b = uv_sub(b, t, p)
            else:
                for _ in range(d - 1):
                    t = mod.frobenius(t)
                    b = mod.mul(b, t)
                b = uv_sub(mod.pow(b, (p - 1) // 2), [1], p)
        g = uv_gcd(b, f, p)
        if 0 < _deg(g) < n:
            xp = mod.xp
            left = _equal_degree_split(g, d, p, rng, xp)
            right = _equal_degree_split(uv_divmod(f, g, p)[0], d, p, rng, xp)
            return left + right


def factor_univariate_list(f, p, rng=None):
    """(unit, [(factor coeff list, multiplicity)]) for a nonzero f over GF(p)."""
    rng = rng or random.Random(0)
    f = _trim([c % p for c in f])
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    unit = f[-1]
    f = uv_monic(f, p)
    factors = {}
    for g, mult in uv_squarefree_decomposition(f, p):
        for h, d, xp in _distinct_degree(g, p):
            for q in _equal_degree_split(h, d, p, rng, xp):
                key = tuple(q)
                factors[key] = factors.get(key, 0) + mult
    ordered = sorted(factors.items(), key=lambda t: (len(t[0]), t[0]))
    return unit, [(list(q), m) for q, m in ordered]


def _prime_divisors(n):
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible_univariate(f, p) -> bool:
    """Rabin's test: f of degree d >= 1 is irreducible over GF(p) iff f
    divides x^(p^d) - x and gcd(x^(p^(d/q)) - x, f) = 1 for every prime q
    dividing d.  Each x^(p^e) mod f is one Frobenius step from the last."""
    f = uv_monic(_trim([c % p for c in f]), p)
    d = _deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    checks = {d // q for q in _prime_divisors(d)}
    mod = _Modulus(f, p)
    x = [0, 1]
    h = x
    for e in range(1, d + 1):
        h = mod.frobenius(h)
        if e in checks and _deg(uv_gcd(uv_sub(h, x, p), f, p)) > 0:
            return False
    return h == x


# ---------------------------------------------------------------------------
# field operation helpers on plain integers
# ---------------------------------------------------------------------------

def gf_add(p, a, b):
    return (GFElement(a, p) + GFElement(b, p)).value


def gf_sub(p, a, b):
    return (GFElement(a, p) - GFElement(b, p)).value


def gf_mul(p, a, b):
    return (GFElement(a, p) * GFElement(b, p)).value


def gf_div(p, a, b):
    return (GFElement(a, p) / GFElement(b, p)).value


def gf_inv(p, a):
    return GFElement(a, p).inverse().value


def gf_pow(p, a, n):
    return (GFElement(a, p) ** n).value


# ---------------------------------------------------------------------------
# polynomial-level factorization
# ---------------------------------------------------------------------------

def _poly_to_uv(f: Polynomial, var_index):
    out = [0] * (f.degree_in(f.ring.names[var_index]) + 1)
    for e, c in f.terms:
        out[e[var_index]] = c
    return out


def _uv_to_poly(coeffs, ring, var_index):
    d = {}
    nv = ring.nvars
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * nv
            e[var_index] = i
            d[tuple(e)] = c
    return ring.poly(d)


def factor_univariate(f: Polynomial, seed=0):
    """(unit, [(irreducible monic factor, multiplicity)]) of a polynomial in
    one variable, of any ring; deterministic per seed."""
    if len(f.support_vars()) > 1:
        raise ValueError("factorUnivariate needs a univariate input")
    return _factorization(f, seed, KRONECKER_DEGREE_BOUND, _hensel_factors)


def factor_multivariate(f: Polynomial, seed=0, bound=KRONECKER_DEGREE_BOUND):
    """Factor into irreducibles over GF(p).

    Returns (unit, [(factor, multiplicity)]).  Factors are monic with respect
    to the ring order and sorted deterministically.  An input in two
    variables is factored by Hensel lifting from one line restriction,
    which falls back to Kronecker substitution when no line gives a
    squarefree restriction of full degree; three or more variables go
    through Kronecker substitution.  `bound` limits Kronecker image degrees
    only.  KroneckerBoundError is raised when an image would exceed it, or
    when recombination refuses the image of f and of a few random
    translates of f.
    """
    if f.ring.quotient:
        raise ValueError("factorization works over polynomial rings only")
    return _factorization(f, seed, bound, _hensel_factors)


def _factorization(f: Polynomial, seed, bound, bivariate):
    """(unit, [(monic factor, multiplicity)]), sorted: the monomial content
    splits off, the rest is factored in one variable as a list, in two by
    ``bivariate`` (``verify.factorization`` passes _kronecker_factors) and
    in more by _kronecker_factors, all drawing from one Random(seed)."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    ring, p = f.ring, f.ring.p
    rng = random.Random(seed)
    factors, unit = {}, 1

    # monomial content: each variable power splits off
    min_exps = [min(e[i] for e, _ in f.terms) for i in range(ring.nvars)]
    if any(min_exps):
        d = {tuple(a - b for a, b in zip(e, min_exps)): c for e, c in f.terms}
        f = ring.poly(d)
        for i, m in enumerate(min_exps):
            if m:
                factors[ring.var(ring.names[i]).terms] = m

    used = f.support_vars()
    if not used:
        unit = f.constant_value()
    elif len(used) == 1:
        unit, parts = factor_univariate_list(_poly_to_uv(f, used[0]), p, rng)
        for q, m in parts:
            key = _uv_to_poly(q, ring, used[0]).terms
            factors[key] = factors.get(key, 0) + m
    else:
        route = bivariate if len(used) == 2 else _kronecker_factors
        for g in route(f, used, p, rng, bound):
            unit = unit * g.lead_coeff() % p
            key = g.monic().terms
            factors[key] = factors.get(key, 0) + 1

    out = [(Polynomial(ring, key), m) for key, m in factors.items()]
    out.sort(key=lambda t: (t[0].total_degree(), t[0].terms))
    return unit, out


def _affine_map(terms, forms, p, size):
    """The sum of c * prod_i forms[i]^e_i over the terms (e, c), as a
    coefficient list; size must exceed its degree.  forms maps variable
    indices to coefficient lists, and exponents at other indices are
    ignored.

    This serves a line restriction (forms b_i + a_i t), the change of
    coordinates x_i = b_i + a_i t + c_i s and its inverse, with a second
    variable packed as z^w for w above every degree in the first, so that
    packed products are bivariate products.  The sum is evaluated on
    packed ints, by Horner's rule in all variables but the first, whose
    terms are multiples of the powers of its form; multiplying by a form
    is one shifted multiple per nonzero coefficient.  Nothing is
    reduced until the one read-back: every slot is a sum of nonnegative
    terms, at most len(terms) (p-1) S^d with S the largest coefficient sum
    of a form and d the largest degree of a term.
    """
    terms = list(terms)
    if not terms:
        return []
    order = list(forms)
    d = max(sum(e) for e, _ in terms)      # at least the largest degree
    s = max([sum(form) for form in forms.values()] + [1])
    width, code = _slot(len(terms) * (p - 1) * s ** d)
    shifts = {i: [(c, 8 * width * j) for j, c in enumerate(form) if c]
              for i, form in forms.items()}

    def times(x, i):
        out = 0
        for c, shift in shifts[i]:
            out += c * x << shift
        return out

    powers = [1]        # packed powers of the first form

    def horner(terms, k):
        # the packed sum over terms, in the variables order[:k], k >= 1
        if k == 1:
            acc = 0
            for e, c in terms:
                m = e[order[0]]
                while len(powers) <= m:
                    powers.append(times(powers[-1], order[0]))
                acc += c * powers[m]
            return acc
        i = order[k - 1]
        groups = {}
        for t in terms:
            groups.setdefault(t[0][i], []).append(t)
        acc = 0
        for m in range(max(groups), -1, -1):
            acc = times(acc, i)
            if m in groups:
                acc += horner(groups[m], k - 1)
        return acc

    acc = horner(terms, len(order)) if order else sum(c for _, c in terms)
    return _trim(_unpack(acc, size, width, code, p))


_LINE_DRAWS = 12    # lines drawn by a certification or a Hensel lift


def _restrict_to_line(f: Polynomial, used, p, rng):
    """(line, restriction): a random affine line, {i: (a_i, b_i)} for the
    variables i in `used`, drawn in order, and f evaluated along
    x_i = b_i + a_i t, as a univariate coefficient list."""
    line = {i: (rng.randrange(p), rng.randrange(p)) for i in used}
    return line, _affine_map(
        f.terms, {i: [b, a] for i, (a, b) in line.items()}, p,
        f.total_degree() + 1)


def _line_certifies_irreducible(f: Polynomial, used, p, rng, give_up=False):
    """Sound one-sided test: if a full-degree line restriction is
    irreducible then so is f (factors would restrict to factors).

    A factor g of f restricts to a factor of every full-degree restriction,
    of full degree deg g, so deg g is a sum of degrees of that
    restriction's irreducible factors.  With give_up, each squarefree
    full-degree restriction is split by degree, and the set of such subset
    sums, a bitmask, is intersected over the draws; the test returns False
    once two draws in a row leave that set unchanged, as further draws
    would most likely not certify either.  Giving up early changes no
    output, because the recombination that follows a False is exhaustive;
    without give_up all _LINE_DRAWS draws are tried.
    """
    d = f.total_degree()
    if d == 1:
        return True
    sums = None         # bit k set: k is a subset sum in every draw so far
    still = 0
    for _ in range(_LINE_DRAWS):
        _, g = _restrict_to_line(f, used, p, rng)
        if not give_up:
            if len(g) - 1 == d and is_irreducible_univariate(g, p):
                return True
            continue
        seen = sums
        if len(g) - 1 == d:
            g = uv_monic(g, p)
            if _deg(uv_gcd(g, uv_deriv(g, p), p)) == 0:
                parts = _distinct_degree(g, p)
                if parts[0][1] == d:
                    return True
                mask = 1
                for h, k, _ in parts:
                    for _ in range(_deg(h) // k):
                        mask |= mask << k
                seen = mask if sums is None else sums & mask
        if seen == sums:
            still += 1
            if still == 2:
                return False
        else:
            sums, still = seen, 0
    return False


_RECOMBINE_BUDGET = 200_000     # subsets one recombination may try


def _piece_subsets(pieces, sizes, size):
    """(indices, summed sizes) of each sub-multiset of `size` pieces, in
    lexicographic order; equal pieces must be adjacent, and an equal piece
    is skipped at a depth where it would repeat a selection."""
    n = len(pieces)
    acc = []

    def rec(start, need, k):
        if not need:
            yield tuple(acc), k
            return
        prev = None
        for i in range(start, n - need + 1):
            if pieces[i] == prev:
                continue
            prev = pieces[i]
            acc.append(i)
            yield from rec(i + 1, need - 1, k + sizes[i])
            acc.pop()

    yield from rec(0, size, 0)


def _peel(pieces, sizes, lc, mul, split, fits=None):
    """The factors peeled off lc * prod(pieces), smallest subsets of pieces
    first, and the cofactor of the last one (None when none is found).

    split(prod, complement, k) gets the product of a subset whose piece
    sizes sum to k and a thunk for lc times the product of the other
    pieces; it returns the pair (factor, cofactor) when the subset gives
    a factor, else None.  fits(k, total), when given, rejects a subset
    before any product is formed, total being the size of all pieces left.
    Equal pieces must be adjacent.

    A factor found at size s is irreducible, since a proper factor of it
    would have been found with fewer pieces.  The cofactor replaces the
    product and the search goes on at size s: a factor of the cofactor is
    one of the product, so no smaller subset can be one.  Once 2s exceeds
    the pieces left, a factor would leave s or fewer of them on one side,
    so what is left is irreducible.  Products of the leading pieces of a
    subset are kept for the next subset that shares them.  Trying more
    than _RECOMBINE_BUDGET subsets raises KroneckerBoundError.
    """
    found, rest = [], None
    budget = _RECOMBINE_BUDGET
    size = 1
    while 2 * size <= len(pieces):
        total = sum(sizes)
        hit = None
        built, prods = (), []   # prods[j]: product of pieces built[:j + 1]
        for combo, k in _piece_subsets(pieces, sizes, size):
            budget -= 1
            if budget < 0:
                raise KroneckerBoundError("recombination budget exceeded")
            if fits is not None and not fits(k, total):
                continue
            j = 0
            while j < len(prods) and built[j] == combo[j]:
                j += 1
            del prods[j:]
            for i in combo[j:]:
                prods.append(mul(prods[-1], pieces[i]) if prods
                             else pieces[i])
            built = combo

            def complement():
                acc = lc
                for i, q in enumerate(pieces):
                    if i not in combo:
                        acc = mul(acc, q)
                return acc

            hit = split(prods[-1], complement, k)
            if hit is not None:
                break
        if hit is None:
            size += 1
            continue
        found.append(hit[0])
        rest = hit[1]
        keep = [i for i in range(len(pieces)) if i not in combo]
        pieces = [pieces[i] for i in keep]
        sizes = [sizes[i] for i in keep]
    return found, rest


def _hensel_lift(F, lc, pieces, w, p):
    """Monic G_i = g_i mod s with F = lc prod G_i mod s^w, for F packed with
    t -> z, s -> z^w, w = deg_t F + 1, and F(t, 0) = lc prod g_i with the
    monic g_i pairwise coprime; each G_i is packed the same way.

    Linear lifting: with the G_i right mod s^j, the coefficient e of s^j in
    F - lc prod G_i has degree < w - 1 in t, and the partial fractions
    e / (lc prod g_i) = sum delta_i / g_i, with
    delta_i = (e / lc) (prod_{l != i} g_l)^(-1) mod g_i, are the s^j terms
    of the G_i.  Each G_i is kept as one Kronecker-packed int, and the
    product of all r of them is formed by int multiplies, unreduced; the
    slots of its s^j coefficient alone are read back.  A term t^i s^j of
    G_i has i < deg g_i for j > 0, so every term of the product has
    t-degree <= deg_t F < w and stays in its own slot, and a slot sums at
    most (w^2)^(r-1) products of r residues.
    """
    inv_lc = pow(lc, -1, p)
    whole = [c * inv_lc % p for c in F[:w]]     # prod g_i
    invs = [[c * inv_lc % p
             for c in _uv_inverse(uv_divmod(whole, g, p)[0], g, p)]
            for g in pieces]
    negs = [[-c % p for c in g[:-1]] for g in pieces]
    size, code = _slot((w * w) ** (len(pieces) - 1) * (p - 1) ** len(pieces))
    bits = 8 * size
    mask = (1 << bits * w) - 1                  # w slots
    lifted = [_pack(g, size, code) for g in pieces]
    for j in range(1, w):
        low = j * w
        prod = lifted[0]
        for G in lifted[1:]:
            prod *= G
        have = _unpack(prod >> bits * low & mask, w, size, code, p)
        want = F[low:low + w]
        want += [0] * (w - len(want))
        e = _trim([(a - lc * b) % p for a, b in zip(want, have)])
        if not e:
            continue
        for k, (neg, inv) in enumerate(zip(negs, invs)):
            delta = _mulmod(e, inv, neg, p)
            if delta:
                lifted[k] += _pack(delta, size, code) << bits * low
    return [_unpack(G, (G.bit_length() + bits - 1) // bits, size, code, p)
            for G in lifted]


def _hensel_factors(f: Polynomial, used, p, rng, bound):
    """The irreducible factors of f in the two variables `used`, whose
    product is f, by Hensel lifting from one line.

    A draw picks a line b + a t and keeps it when the restriction
    f(b + a t) has full degree d and is squarefree.  Then every factor of
    f restricts to full degree, so f is squarefree and each of its factors
    restricts to a product of a subset of the restriction's factors g_i;
    one irreducible restriction certifies f irreducible.  Otherwise a
    second direction c with det(a, c) != 0 gives
    F(t, s) = f(b + a t + c s), packed with s -> z^(d+1).  Its coefficient
    of t^d is the constant lc of the restriction F(t, 0), so every factor
    of F is a constant times a polynomial monic in t.  The g_i are lifted
    to F = lc prod G_i mod s^(d+1) (`_hensel_lift`) and peeled off
    (`_peel`): a subset product H of degree m in t, truncated, is accepted
    when its terms t^i s^j all have i + j <= m.  Then H divides F.  H is
    monic in t, so dividing F by H keeps every total degree at most d,
    and the remainder, of total degree at most d, is 0 mod s^(d+1), since
    H divides F modulo s^(d+1): it is 0.  So the cofactor
    K = lc prod(other G_i) mod s^(d+1) is the exact quotient, and needs no
    test of its own.  A factor of F monic in t is the product of its G_i,
    by uniqueness of Hensel lifting, and has total degree equal to its
    degree in t, so it passes.  The factors are mapped back through the
    inverse change of coordinates.

    After _LINE_DRAWS draws with no usable line, _kronecker_factors runs;
    `bound` applies there only.
    """
    d = f.total_degree()
    if d == 1:
        return [f]
    x, y = used
    w = d + 1
    n = w * w           # packed F mod s^(d+1)
    pad = [0] * (w - 2)

    def mul(a, b):
        return _trim(uv_mul(a, b, p)[:n])

    def split(prod, complement, m):
        # every term t^i s^j of prod has i + j <= m
        if len(prod) > m * w + 1 or any(c and k % w + k // w > m
                                        for k, c in enumerate(prod)):
            return None
        return prod, complement()

    for _ in range(_LINE_DRAWS):
        line, g = _restrict_to_line(f, used, p, rng)
        if len(g) != w:
            continue
        lc = g[-1]
        g = uv_monic(g, p)
        if _deg(uv_gcd(g, uv_deriv(g, p), p)):
            continue
        parts = _distinct_degree(g, p)
        if parts[0][1] == d:
            return [f]
        pieces = [q for h, k, xp in parts
                  for q in _equal_degree_split(h, k, p, rng, xp)]
        (ax, bx), (ay, by) = line[x], line[y]
        det = 0
        while not det:
            cx, cy = rng.randrange(p), rng.randrange(p)
            det = (ax * cy - ay * cx) % p
        F = _affine_map(f.terms, {x: [bx, ax] + pad + [cx],
                                  y: [by, ay] + pad + [cy]}, p, n)
        lifted = _hensel_lift(F, lc, pieces, w, p)
        found, rest = _peel(lifted, [len(q) - 1 for q in pieces], [lc], mul,
                            split)
        if not found:
            return [f]
        # (t, s) = A^(-1) (x - bx, y - by), A the matrix with columns a, c
        inv = pow(det, -1, p)
        tx, ty, sx, sy = cy * inv, -cx * inv, -ay * inv, ax * inv
        back = {0: [-(tx * bx + ty * by), tx] + pad + [ty],
                1: [-(sx * bx + sy * by), sx] + pad + [sy]}
        back = {i: [c % p for c in form] for i, form in back.items()}
        out = []
        for P in found + [rest]:
            h = _affine_map([((k % w, k // w), c)
                             for k, c in enumerate(P) if c], back, p, n)
            terms = {}
            for k, c in enumerate(h):
                if c:
                    e = [0] * f.ring.nvars
                    e[x], e[y] = k % w, k // w
                    terms[tuple(e)] = c
            out.append(f.ring.poly(terms))
        return out
    return _kronecker_factors(f, used, p, rng, bound)


def _digit_table(n, D, order, nv):
    """The exponent tuples in nv variables of the Kronecker image indices
    k < n <= D^len(order); order lists the variables from the low base-D
    digit up.  Built by counting in base D, one carry chain per index."""
    table = []
    e = [0] * nv
    for _ in range(n):
        table.append(tuple(e))
        for i in order:
            e[i] += 1
            if e[i] < D:
                break
            e[i] = 0
    return table


def _decode(coeffs, table, box):
    """(term dict, degree in each variable of box) of the polynomial whose
    Kronecker image is coeffs, reading exponents off the digit table, or
    None when it is not in the degree box."""
    d = {}
    top = dict.fromkeys(box, 0)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        e = table[k]
        for i, b in box.items():
            if e[i] > b:
                return None
            if e[i] > top[i]:
                top[i] = e[i]
        d[e] = c
    return d, top


def _lead_digits_fit(k, lead, D):
    """Whether every base-D digit of k, least significant first, is at most
    the matching entry of lead; k < D^len(lead)."""
    for top in lead:
        if k % D > top:
            return False
        k //= D
    return True


def _kronecker_factors(f: Polynomial, used, p, rng, bound):
    """The irreducible factors of f (nonconstant, truly multivariate), one
    per multiplicity, whose product is f.

    Variable i is sent to t^(D^k) with D - 1 the largest degree of f in one
    variable, k a digit position; this image map is a ring homomorphism,
    injective on polynomials of degree < D in each variable.  The image of
    f is factored once, and factors of f are peeled off it as products of
    its pieces (`_peel`): a candidate and the decoded image of
    lc * (the other pieces) multiply to a polynomial with the image of f;
    when their degrees add up to at most those of f, that product lies in
    the box, so it is f: the pair is an exact factorization, no division
    needed.  Conversely a true factor always passes this test.  After a
    peel, the box is the quotient's.

    Before a product is formed, a subset is rejected unless the base-D
    digits of its summed piece degrees are, digit by digit, at most those
    of the current image degree.  The weights order monomials, the image
    degree of a polynomial in the box is its leading monomial read as
    base-D digits, and lead(g) + lead(f / g) = lead(f) with no digit
    carrying (each is below D), so a true factor always passes.

    Weights above `bound` raise KroneckerBoundError, after line
    certification has had all its draws.  An image with too many pieces
    to recombine is retried, up to _KRONECKER_SHIFTS times, as the image
    of f(x + c) for a random c: a translate has the same degree in every
    variable, so the same weights and box, and its factors are those of f
    translated, while its image, no longer sparse, mostly splits into far
    fewer pieces.  The last refusal is raised when every image refuses.
    """
    ring = f.ring
    degs = {i: f.degree_in(ring.names[i]) for i in used}
    D = max(degs.values()) + 1
    # higher-degree variables get the low Kronecker digits: smaller image
    order = sorted(used, key=lambda i: (-degs[i], i))
    weight = {}
    w = 1
    for i in order:
        weight[i] = w
        w *= D
        if w > bound:
            break
    if _line_certifies_irreducible(f, used, p, rng, give_up=w <= bound):
        return [f]
    if w > bound:
        raise KroneckerBoundError(
            f"Kronecker substitution degree {w} exceeds bound {bound}")
    shift = [0] * ring.nvars
    for attempt in range(1 + _KRONECKER_SHIFTS):
        if attempt:
            shift = [rng.randrange(p) if i in used else 0
                     for i in range(ring.nvars)]
        try:
            found = _kronecker_peel(_translate(f, shift), used, degs, weight,
                                    order, D, p, rng)
        except KroneckerBoundError as exc:
            refusal = exc
            continue
        return [_translate(g, [-c for c in shift]) for g in found]
    raise refusal


_KRONECKER_SHIFTS = 3   # translated images tried after a refused image


def _translate(f: Polynomial, shift):
    """f(x_0 + shift_0, ..., x_n + shift_n); f itself for a zero shift."""
    if not any(shift):
        return f
    ring = f.ring
    return RingMap(ring, ring, [ring.var(n) + c for n, c
                                in zip(ring.names, shift)])(f)


def _kronecker_peel(f: Polynomial, used, degs, weight, order, D, p, rng):
    """The factors of f peeled off its Kronecker image under ``weight``
    (`_kronecker_factors`); KroneckerBoundError when the image has too many
    pieces or recombination exhausts its budget."""
    ring = f.ring
    image = [0] * (sum(degs[i] * weight[i] for i in used) + 1)
    for e, c in f.terms:
        k = sum(e[i] * weight[i] for i in used)
        image[k] = (image[k] + c) % p
    _trim(image)
    lc, parts = factor_univariate_list(image, p, rng)
    pieces = sorted(tuple(q) for q, m in parts for _ in range(m))
    if len(pieces) > 26:
        raise KroneckerBoundError(
            f"too many Kronecker pieces ({len(pieces)}) to recombine")

    table = _digit_table(len(image), D, order, ring.nvars)
    box = dict(degs)
    leads = {}

    def fits(k, total):
        lead = leads.get(total)
        if lead is None:
            lead = leads[total] = [total // D ** j % D
                                   for j in range(len(order))]
        return _lead_digits_fit(k, lead, D)

    def split(prod, complement, k):
        cand = _decode(prod, table, box)
        if cand is None:
            return None
        quo = _decode(complement(), table, box)
        if quo is None or any(cand[1][i] + quo[1][i] > box[i] for i in used):
            return None
        box.update(quo[1])
        return ring.poly(cand[0]), ring.poly(quo[0])

    found, rest = _peel(pieces, [len(q) - 1 for q in pieces], [lc],
                        lambda a, b: uv_mul(a, b, p), split, fits)
    return found + [f if rest is None else rest]
