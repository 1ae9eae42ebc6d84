"""Independent arithmetic for the benchmark's correctness checks.

The checks avoid the code under test wherever a cheap alternative exists:
polynomials are plain ``{exponent tuple: coefficient}`` dicts over GF(p)
multiplied here, and monomial ideals are lists of exponent tuples whose
colengths are counted here.
"""

from __future__ import annotations

import itertools


def terms_of(f):
    """A reeskit Polynomial as an exponent -> coefficient dict."""
    return {e: c for e, c in f.terms}


def pmul(f, g, p):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            m = tuple(a + b for a, b in zip(e1, e2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def ppow(f, k, p, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = pmul(out, f, p)
    return out


def padd_into(acc, f, p):
    for m, c in f.items():
        v = (acc.get(m, 0) + c) % p
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def product_matches(f, unit, factors, p):
    """unit * prod(g^m) == f, all as term dicts over GF(p)."""
    nv = len(next(iter(f)))
    acc = {(0,) * nv: unit % p}
    for g, m in factors:
        acc = pmul(acc, ppow(g, m, p, nv), p)
    return acc == {e: c % p for e, c in f.items() if c % p}


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimalize(mons):
    mons = sorted(set(mons), key=lambda e: (sum(e), e))
    out = []
    for m in mons:
        if not any(divides(g, m) for g in out):
            out.append(m)
    return out


def monomial_power(gens, k):
    """Minimal generators of the k-th power of a monomial ideal."""
    nv = len(gens[0])
    out = [(0,) * nv]
    for _ in range(k):
        out = minimalize(tuple(a + b for a, b in zip(u, v))
                         for u in out for v in gens)
    return out


def monomial_colength(gens):
    """dim_k of k[x]/I for an m-primary monomial ideal I (pure powers present)."""
    nv = len(gens[0])
    bounds = []
    for i in range(nv):
        pure = [g[i] for g in gens
                if g[i] and all(g[j] == 0 for j in range(nv) if j != i)]
        if not pure:
            raise ValueError("monomial ideal is not m-primary")
        bounds.append(min(pure))
    return sum(1 for e in itertools.product(*(range(b) for b in bounds))
               if not any(divides(g, e) for g in gens))


def in_monomial_ideal(f, gens):
    """Every term of f is divisible by a generator (membership test for
    monomial ideals)."""
    return all(any(divides(g, e) for g in gens) for e in f)


def rees_relation_vanishes(G, nbase, ideal_gens, p):
    """G(x, w) vanishes under w_i -> t * g_i.

    ``G`` is a term dict whose exponents list the ``nbase`` base variables
    first and then w_0, w_1, ...; ``ideal_gens`` are term dicts over the base
    variables.  Each w-degree k contributes t^k, so the image vanishes iff it
    vanishes degree by degree.
    """
    by_degree = {}
    powers = {}
    for e, c in G.items():
        xe, we = e[:nbase], e[nbase:]
        img = {xe: c}
        for i, k in enumerate(we):
            if k:
                key = (i, k)
                if key not in powers:
                    powers[key] = ppow(ideal_gens[i], k, p, nbase)
                img = pmul(img, powers[key], p)
        padd_into(by_degree.setdefault(sum(we), {}), img, p)
    return all(not acc for acc in by_degree.values())
