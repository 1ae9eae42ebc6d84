"""Minimal primes of an ideal, complete at desk scale.

The dimension of each candidate J decides its route.  When the leads of
J leave finitely many standard monomials, in any monomial order, J is
zero-dimensional, of colength D their number, and goes straight to one
pass over the variables (Seidenberg), which splits and radicalizes it on
its own.  Each variable's eliminant, the monic generator of J meet k[v],
is read off J's reduced basis when an element of it lies in k[v]
(``_Decomposer.eliminant``), and is otherwise v's minimal polynomial
modulo J, the first dependency among its powers in one ``gb._Echelon``
(``_min_poly``).  It is factored: two or more irreducible factors split
J; a power q^m of one irreducible adjoins q(v) to J and the pass goes
on.  The eliminants met earlier stay irreducible, since q(v) is
nilpotent modulo J, hence not a unit, and so cannot cut them down to a
proper factor.  After the pass every eliminant is squarefree, so J is
radical.  A positive-dimensional J splits along the factors of its
Groebner basis elements first.  Every child J + (q) is born with its
reduced basis, from a run that J's basis pads (``gb._adjoin``), so no
child recomputes its parent's basis.  Primality is certified by a
primitive-element check in dimension zero or by a triangular-tower
argument in positive dimension.  A positive-dimensional candidate that
the tower does not certify is decomposed again in the ring of the
variables its basis uses, which is exact (``_Decomposer.in_subring``).
Candidates that still resist certification are returned flagged
``unverified`` rather than silently guessed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .coeff import factor_multivariate, factor_univariate_list
from .gb import (Ideal, _Echelon, _adjoin, _ambient_ideal, _descend,
                 dimension_and_degree, normal_form, vector_space_dimension)
from .polyring import Polynomial, RingDescriptor, RingMap, transport


@dataclass(frozen=True)
class ComponentReport:
    """A minimal-prime candidate with its certification status."""
    prime: Ideal
    certified: bool

    def __str__(self):
        tag = "certified" if self.certified else "unverified"
        return f"{self.prime} {tag}"


def _contains_ideal(A: Ideal, B: Ideal) -> bool:
    """A subseteq B, by normal forms of the generators."""
    return all(B.contains(g) for g in A.display_gens())


def _min_poly(f: Polynomial, J: Ideal, D: int):
    """Monic minimal polynomial of f modulo the zero-dimensional ideal J,
    whose quotient has dimension D over GF(p).

    Returns the ascending coefficient list.  The row of f^k is its normal
    form, on monomial columns numbered from 0, and 1 in the column -1 - k,
    which cannot be a pivot while a monomial column is left: the first row
    that the ``_Echelon`` reduces to negative columns is the dependency.
    The decomposer asks for it only when J's reduced basis does not hold
    the eliminant already (``_Decomposer.eliminant``)."""
    echelon, column, g = _Echelon(J.ring.p), {}, J.ring.one()
    for k in range(D + 1):
        rest = echelon.reduce({column.setdefault(e, len(column)): c
                               for e, c in g.terms} | {-1 - k: 1})
        if max(rest) < 0:
            return [rest.get(-1 - i, 0) for i in range(k + 1)]
        echelon.keep(rest)
        g = normal_form(g * f, J)
    raise RuntimeError("minimal polynomial search exceeded dimension")


class _Decomposer:
    def __init__(self, amb, seed, shape_retries):
        self.amb = amb
        self.seed = seed
        self.rng = random.Random(seed)
        self.retries = shape_retries
        self.factor_cache = {}
        self.found = []            # (Ideal over amb, certified, dim)
        self.seen = set()

    def factors_of(self, g: Polynomial):
        if g.total_degree() == 1:  # a linear polynomial is irreducible
            return [(g.monic(), 1)]
        key = g.terms
        got = self.factor_cache.get(key)
        if got is None:
            got = factor_multivariate(g)[1]
            self.factor_cache[key] = got
        return got

    def run(self, start: Ideal):
        stack = [start]
        while stack:
            J = stack.pop()
            if J.is_unit():
                continue
            key = J._basis_terms()
            if key in self.seen:
                continue
            self.seen.add(key)
            try:
                D = vector_space_dimension(J)
            except ValueError:  # infinitely many standard monomials
                pass
            else:
                # the variable pass splits and radicalizes on its own
                self.zero_dimensional(J, D, stack)
                continue
            basis = J.groebner().ambient_elements
            if self.split(J, basis, stack):
                continue
            dim = dimension_and_degree(J)[0]
            if self.tower_certified(basis):
                self.found.append((J, True, dim))
            else:
                self.found.extend(self.in_subring(J, basis, dim))

    def split(self, J: Ideal, basis, stack) -> bool:
        """Push J + (q) for the irreducible factors q of the first element
        of ``basis`` that is not irreducible and has none of them in J;
        whether there was one."""
        for g in basis:
            fs = self.factors_of(g)
            if len(fs) == 1 and fs[0][1] == 1:
                continue
            parts = [q for q, _ in fs]
            if all(not normal_form(q, J).is_zero() for q in parts):
                stack.extend(_adjoin(J, q) for q in reversed(parts))
                return True
        return False

    def at(self, coeffs, f: Polynomial) -> Polynomial:
        """q(f) for the q of k[t] with ascending ``coeffs``, by Horner's
        rule: one product by f per coefficient."""
        out = self.amb.const(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            out = out * f + c
        return out

    def at_variable(self, coeffs, i) -> Polynomial:
        """q(x_i) for the q of k[t] with ascending ``coeffs``, built from
        its terms, with no product."""
        unit = (0,) * self.amb.nvars
        return self.amb.poly({unit[:i] + (k,) + unit[i + 1:]: c
                              for k, c in enumerate(coeffs)})

    def eliminant(self, J: Ideal, i, D):
        """The monic generator of J meet k[x_i], ascending, for J of
        colength D: an element of J's reduced basis when one lies in k[x_i]
        alone, else x_i's minimal polynomial modulo J (``_min_poly``).

        Such an element g is that generator e.  As g lies in J, e divides
        g, so deg e <= deg g.  As e lies in J, its lead, a power of x_i, is
        divisible by the lead of a basis element h, a power x_i^c with c <=
        deg e.  A reduced basis is minimal, so lead(h) divides lead(g) only
        for h = g; hence c = deg g, so deg e = deg g and e = g, both
        monic."""
        for g in J.groebner().ambient_elements:
            if g.support_vars() == [i]:
                out = [0] * (g.terms[0][0][i] + 1)
                for e, c in g.terms:
                    out[e[i]] = c
                return out
        return _min_poly(self.amb.gens()[i], J, D)

    # -- dimension zero ------------------------------------------------------
    def zero_dimensional(self, J: Ideal, D: int, stack):
        """J has colength D; split it along its variable eliminants, or
        radicalize it in the same pass, then certify it (module docstring)."""
        amb = self.amb
        p = amb.p
        for i in range(amb.nvars):
            _, parts = factor_univariate_list(self.eliminant(J, i, D), p,
                                              random.Random(0))
            if len(parts) > 1:
                stack.extend(_adjoin(J, self.at_variable(q, i))
                             for q, _ in reversed(parts))
                return
            q, m = parts[0]
            if m == 1 and len(q) - 1 == D:
                # 1, v, ..., v^(D-1) span R/J: v is a primitive element
                self.found.append((J, True, 0))
                return
            if m > 1:
                J = _adjoin(J, self.at_variable(q, i))
                D = vector_space_dimension(J)
        # primitive element certificate: distinct nonzero linear forms, all
        # of them when there are fewer than retries
        tried = set()
        while len(tried) < min(self.retries, p ** amb.nvars - 1):
            row = tuple(self.rng.randrange(p) for _ in amb.names)
            if not any(row) or row in tried:
                continue
            tried.add(row)
            lam = amb.sum(amb.var(name) * c
                          for name, c in zip(amb.names, row))
            e = _min_poly(lam, J, D)
            _, parts = factor_univariate_list(e, p, random.Random(0))
            if len(parts) > 1 or parts[0][1] > 1:
                stack.extend(_adjoin(J, self.at(q, lam))
                             for q, _ in reversed(parts))
                return
            if len(e) - 1 == D:
                self.found.append((J, True, 0))
                return
        self.found.append((J, False, 0))

    # -- positive dimension ---------------------------------------------------
    def in_subring(self, J: Ideal, basis, dim):
        """The candidates of J decomposed in k[V], V the variables its
        ``basis`` uses, as (prime, certified, dim) entries of ``found``.

        With U the other variables, P is prime in k[V] iff P k[V, U] is,
        of dimension larger by |U|, so the minimal primes of J are those
        of J meet k[V] extended.  J itself comes back, unverified, when
        its basis uses every variable."""
        amb = self.amb
        used = sorted(set().union(*(g.support_vars() for g in basis)))
        if len(used) == amb.nvars:
            return [(J, False, dim)]
        sub = RingDescriptor(amb.p, (tuple(amb.names[i] for i in used),))
        dec = type(self)(sub, self.seed, self.retries)
        dec.run(Ideal(sub, tuple(transport(g, sub) for g in basis)))
        free = amb.nvars - len(used)
        return [(Ideal(amb, tuple(transport(g, amb)
                                  for g in P.groebner().ambient_elements)),
                 cert, d + free) for P, cert, d in dec.found]

    def tower_certified(self, basis) -> bool:
        """Prime certificate: peel variables that appear linearly with a
        constant coefficient, then ask for one irreducible generator."""
        gens = [g for g in basis]
        while True:
            sub_done = False
            for g in gens:
                hit = None
                for i in g.support_vars():
                    coeff_terms = [(e, c) for e, c in g.terms if e[i]]
                    if (len(coeff_terms) == 1 and coeff_terms[0][0][i] == 1
                            and sum(coeff_terms[0][0]) == 1):
                        hit = (i, coeff_terms[0][1])
                        break
                if hit is None:
                    continue
                i, c = hit
                rest = self.amb.poly(
                    {e: cc for e, cc in g.terms if not e[i]})
                images = self.amb.gens()
                images[i] = rest * (-pow(c, -1, self.amb.p))
                peel = RingMap(self.amb, self.amb, images)
                gens = [peel(h) for h in gens if h is not g]
                gens = [h for h in gens if not h.is_zero()]
                sub_done = True
                break
            if not sub_done:
                break
        if not gens:
            return True
        if len(gens) == 1:
            fs = self.factors_of(gens[0])
            return len(fs) == 1 and fs[0][1] == 1
        return False


def _minimal(cands):
    """The (J, certified, dim) entries of ``cands`` that contain no other
    candidate K.  Their reduced bases are distinct, so K inside J means K
    strictly inside J.  For primes of R = k[x_1..x_n], dim R/K = dim R/J +
    ht(J/K), so primes of one dimension that contain one another are
    equal, and a prime never contains one of lower dimension: K inside J
    needs dim K > dim J.  An ``unverified`` candidate may not be prime, so
    a pair with one is tested whatever the dimensions."""
    return [(J, cert, dim) for i, (J, cert, dim) in enumerate(cands)
            if not any(k != i and (dK > dim or not (cert and cK))
                       and _contains_ideal(K, J)
                       for k, (K, cK, dK) in enumerate(cands))]


def minimal_primes(I: Ideal, seed=0, shape_retries=5):
    """Minimal primes over I, as a deterministic list of ComponentReports."""
    amb = I.ring.ambient
    start = _ambient_ideal(I)
    if start.is_unit():
        raise ValueError("minimal primes of the unit ideal")
    dec = _Decomposer(amb, seed, shape_retries)
    dec.run(start)

    # dedupe and drop non-minimal candidates
    by_key = {}
    for J, cert, dim in dec.found:
        key = J._basis_terms()
        old = by_key.get(key)
        if old is None or (cert and not old[1]):
            by_key[key] = (J, cert, dim)
    keep = _minimal(list(by_key.values()))
    keep.sort(key=lambda t: (-t[2], t[0]._basis_terms()))
    return [ComponentReport(_descend(I.ring, J.groebner().ambient_elements,
                                     amb.order_spec), cert)
            for J, cert, _ in keep]
