"""The benchmark's three workloads: ``versal``, ``invariants`` and ``factor``.

``build(name, seed, root)`` returns the list of ops of one pass.  The seed
drives only the generators here; every library call keeps its default
``seed=`` argument and every regression script runs with seed 0, because the
expected bytes assume it.  Inputs are plain data (primes, variable names,
exponent/coefficient dicts); each ``Op.run`` builds fresh rings, ideals and
polynomials from that data, so the per-object caches of reeskit start cold
in every pass.

Library functions are always reached through their module
(``coeff.factor_multivariate``), never bound to a local name, so that the
tracer's rebinding of module attributes sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reeskit import blowup, cli, coeff, decompose, gb, intersection, polyring, rees

import checks

PRIMES = (101, 32003)
FACTOR_PRIMES = (7, 101, 32003)

# The invariants families follow fixed schedules of shapes (exponents,
# degrees, primes); the seed picks coefficients, points and the order of the
# variables.  Inputs of one shape cost about the same, so the pass cost and
# its latency percentiles do not depend on the seed.
MULT_PAIRS = [(1, 2), (2, 2), (1, 4), (2, 3), (3, 3), (2, 4), (1, 5), (3, 4),
              (2, 5), (4, 4)]                       # multiplicity(x^a, y^b)
MULT_TRIPLES = [(1, 2, 2), (2, 1, 2)]              # multiplicity(x^a, y^b, z^c)
MONOMIAL_SHAPES = [                                 # m-primary monomial ideals
    [(2, 0), (0, 3)], [(3, 0), (1, 1), (0, 2)], [(4, 0), (2, 1), (0, 3)],
    [(1, 0), (0, 4)], [(3, 0), (1, 2), (0, 3)], [(4, 0), (1, 2), (0, 4)],
    [(2, 0), (1, 1), (0, 2)], [(3, 0), (2, 1), (1, 2), (0, 3)],
    [(4, 0), (3, 1), (0, 2)], [(2, 0), (0, 2)], [(4, 0), (2, 2), (0, 4)],
    [(3, 0), (1, 1), (0, 4)],
    [(2, 0, 0), (0, 2, 0), (0, 0, 2)], [(1, 0, 0), (0, 2, 0), (0, 0, 2)],
    [(2, 0, 0), (0, 1, 0), (0, 0, 2)], [(2, 0, 0), (0, 2, 0), (0, 0, 1)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 2)],
    [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
]
DENSE_REES = [(2, (1, 1)), (2, (1, 2)), (2, (2, 2)), (3, (1, 1)),
              (2, (1, 1, 2)), (3, (1, 2)), (2, (2, 2, 1)), (3, (1, 1, 1)),
              (2, (2, 1))]                          # (variables, gen degrees)
EQUIGENERATED = [[(2, 0), (0, 2)], [(2, 0), (1, 1), (0, 2)],
                 [(3, 0), (0, 3)], [(3, 0), (2, 1), (0, 3)],
                 [(3, 0), (1, 2), (0, 3)], [(3, 0), (2, 1), (1, 2), (0, 3)],
                 [(2, 0), (1, 1), (0, 2)], [(3, 0), (2, 1), (1, 2), (0, 3)]]
# mixed degrees with a redundant generator: (x^6, x*y^2, y^2) has the
# reduction (y^2, x^6) with r = 0, but minimal_reduction raises instead
MIXED_REDUCTION = [(6, 0), (1, 2), (0, 2)]
# (variables, degree of g, degree of h): minimal_primes(f*g, h[, l])
PRIME_SHAPES = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1), (2, 2, 2),
                (3, 1, 2), (2, 1, 1), (2, 2, 2), (3, 2, 1), (2, 1, 2),
                (2, 2, 1), (3, 1, 1), (2, 2, 2), (2, 1, 1), (3, 2, 2)]
CURVE_PAIRS = [(1, 2), (2, 2), (2, 1), (2, 2), (1, 1)]    # dense curves
BINOMIAL_PAIRS = [(2, 3, 3, 2), (2, 2, 3, 3), (3, 2, 2, 3), (2, 3, 2, 2),
                  (3, 3, 2, 3)]     # (y^a - s x^b, y^c - t x^d) exponents
BLOWUPS = 20                        # (y + c x)^2 = x^n, n = 2..5 in turn

# family (a): factor-degree shapes, each run over every prime in every
# round with fresh seeded coefficients.  The schedule is fixed so that the
# pass cost does not depend on the seed.  Other products of total degree 6
# and more are left out: one of them costs 0.1 s or 2.9 s depending on its
# coefficients.
FACTOR_SHAPES = [(1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1), (2, 3), (1, 4),
                 (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 5)]
FACTOR_ROUNDS = 10
TRINOMIAL_SUMS = [(35, 43)]                       # family (b): a+b per draw
DENSE_DRAWS = [(6, 101)] * 4 + [(9, 101)]         # family (c): degree, p


@dataclass
class Verdict:
    ok: bool
    components: int = 0
    unverified: int = 0
    note: str = ""


@dataclass
class Op:
    family: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    # exception types that are a documented, correct outcome
    ok_errors: tuple = ()
    # message prefixes of errors that are known defects: counted as failed
    known_errors: tuple = ()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _names(n):
    return ["x", "y", "z"][:n]


def _unit_vec(n, i, k):
    e = [0] * n
    e[i] = k
    return tuple(e)


def _dense(rng, nv, deg, p):
    """Random term dict of total degree exactly ``deg`` in ``nv`` variables."""
    while True:
        d = {}
        for e in _exponents_upto(nv, deg):
            c = rng.randrange(p)
            if c:
                d[e] = c
        if d and max(sum(e) for e in d) == deg:
            return d


def _through(f, point, p):
    """f shifted by a constant so that it vanishes at ``point``; ideals built
    from such generators are proper and their curves meet."""
    value = sum(c * _eval_monomial(e, point, p) for e, c in f.items()) % p
    g = dict(f)
    zero = (0,) * len(point)
    g[zero] = (g.get(zero, 0) - value) % p
    if not g[zero]:
        del g[zero]
    return g


def _eval_monomial(e, point, p):
    out = 1
    for a, x in zip(e, point):
        out = out * pow(x, a, p) % p
    return out


def _exponents_upto(nv, deg):
    out = []
    for total in range(deg + 1):
        out.extend(_exponents_of_degree(nv, total))
    return out


def _exponents_of_degree(nv, deg):
    if nv == 1:
        return [(deg,)]
    return [(a,) + rest for a in range(deg, -1, -1)
            for rest in _exponents_of_degree(nv - 1, deg - a)]


def _ring(p, nv):
    return polyring.make_ring(p, _names(nv))


def _ideal(R, term_dicts):
    return gb.Ideal(R, tuple(R.poly(d) for d in term_dicts))


def _mon(e):
    return {tuple(e): 1}


def render(v) -> str:
    """Canonical text of a result, for comparing passes."""
    if isinstance(v, (bytes, bytearray)):
        return bytes(v).decode("utf-8", "replace")
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(render(x) for x in v) + "]"
    return str(v)


def _ok(cond, note=""):
    return Verdict(bool(cond), note="" if cond else note)


def _components(parts):
    return len(parts), sum(1 for c in parts if not c.certified)


def _prime_keys(parts):
    return sorted(str(c.prime) for c in parts)


# ---------------------------------------------------------------------------
# regression scripts
# ---------------------------------------------------------------------------

def _script_op(family, path: Path):
    text = path.read_text(encoding="utf-8")
    expected = path.with_suffix(".expected.txt").read_bytes()

    def run():
        doc = cli.execute_script(cli.parse_script(text), cli.Config(seed=0))
        return cli.emit(doc)

    return Op(family, path.stem, run,
              lambda out: _ok(out == expected, "output bytes differ"))


def _versal(root: Path):
    return [_script_op("versal", root / "regressions" / "versal_embedding.rk")]


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _shuffled(rng, gens):
    """The same exponent vectors under a seeded order of the variables."""
    perm = list(range(len(gens[0])))
    rng.shuffle(perm)
    return [tuple(e[j] for j in perm) for e in gens]


def _multiplicity_ops(rng):
    ops = []
    for k in (1, 2, 3):
        def run(k=k):
            R = _ring(101, 2)
            return rees.multiplicity(gb.Ideal(R, tuple(R.gens())) ** k)
        ops.append(Op("multiplicity", f"(x,y)^{k} p=101", run,
                      lambda v, k=k: _ok(v == k * k, f"want {k * k}")))
    shapes = [list(ab) for ab in MULT_PAIRS] + [list(t) for t in MULT_TRIPLES]
    for i, exps in enumerate(shapes):
        gens = _shuffled(rng, [_unit_vec(len(exps), j, a)
                               for j, a in enumerate(exps)])
        want = 1
        for a in exps:
            want *= a
        ops.append(_mult_pure_op(PRIMES[i % 2], gens, want))
    return ops


def _mult_pure_op(p, gens, want):
    def run():
        R = _ring(p, len(gens[0]))
        return rees.multiplicity(_ideal(R, [_mon(e) for e in gens]))
    return Op("multiplicity", f"{gens} p={p}", run,
              lambda v: _ok(v == want, f"want {want}"))


def _spread_ops(rng):
    ops = []
    for i, shape in enumerate(MONOMIAL_SHAPES):
        p, nv = PRIMES[i % 2], len(shape[0])
        gens = _shuffled(rng, shape)

        def run(p=p, nv=nv, gens=gens):
            R = _ring(p, nv)
            return rees.analytic_spread(_ideal(R, [_mon(e) for e in gens]))
        # the analytic spread of an m-primary ideal is the dimension
        ops.append(Op("analytic_spread", f"{gens} p={p}", run,
                      lambda v, nv=nv: _ok(v == nv, f"want {nv}")))
    return ops


def _rees_op(p, nv, gens):
    def run():
        R = _ring(p, nv)
        return rees.rees_ideal(_ideal(R, gens))

    def check(K):
        if K.ring.nvars != nv + len(gens):
            return Verdict(False, note="wrong number of w-variables")
        bad = [g for g in K.gens if not checks.rees_relation_vanishes(
            checks.terms_of(g), nv, gens, p)]
        return _ok(K.gens and not bad, "a generator does not vanish")
    return Op("rees_ideal", f"{gens} p={p}", run, check)


def _rees_ops(rng):
    ops = []
    for i, (nv, degs) in enumerate(DENSE_REES):
        p = PRIMES[i % 2]
        ops.append(_rees_op(p, nv, [_dense(rng, nv, d, p) for d in degs]))
    for i, shape in enumerate(MONOMIAL_SHAPES[::2]):
        p = PRIMES[i % 2]
        gens = [_mon(e) for e in _shuffled(rng, shape)]
        ops.append(_rees_op(p, len(shape[0]), gens))
    return ops


def _reduction_op(family, p, gens, known_errors=()):
    def run():
        R = _ring(p, 2)
        I = _ideal(R, [_mon(e) for e in gens])
        J = rees.minimal_reduction(I)
        return J, rees.reduction_number(I, J)

    def check(v):
        J, r = v
        if len(J.gens) != 2:
            return Verdict(False, note="reduction needs analytic-spread gens")
        if not all(checks.in_monomial_ideal(checks.terms_of(g), gens)
                   for g in J.gens):
            return Verdict(False, note="J is not inside I")
        # J I^r lies inside I^(r+1), so equal colengths decide equality; the
        # colength of the monomial ideal I^(r+1) is counted here
        R = J.ring
        Ir = [R.poly(_mon(e)) for e in checks.monomial_power(gens, r)]
        JIr = gb.Ideal(R, tuple(a * b for a in J.gens for b in Ir))
        want = checks.monomial_colength(checks.monomial_power(gens, r + 1))
        return _ok(gb.vector_space_dimension(JIr) == want,
                   "J*I^r differs from I^(r+1)")
    return Op(family, f"{gens} p={p}", run, check, known_errors=known_errors)


def _reduction_ops(rng):
    ops = [_reduction_op("minimal_reduction", PRIMES[i // 2 % 2],
                         _shuffled(rng, shape))
           for i, shape in enumerate(EQUIGENERATED)]
    ops.append(_reduction_op("minimal_reduction_mixed", PRIMES[0],
                             _shuffled(rng, MIXED_REDUCTION),
                             known_errors=("no minimal reduction found",)))
    return ops


def _contains_all(P, gens):
    return all(gb.normal_form(g, P).is_zero() for g in gens)


def _minimal_primes_ops(rng):
    ops = []
    for i, (nv, dg, dh) in enumerate(PRIME_SHAPES):
        p = PRIMES[i % 2]
        point = [rng.randrange(p) for _ in range(nv)]
        f = _through(_dense(rng, nv, 1, p), point, p)
        gens = [checks.pmul(f, _dense(rng, nv, dg, p), p),
                _through(_dense(rng, nv, dh, p), point, p)]
        if nv == 3:
            gens.append(_through(_dense(rng, nv, 1, p), point, p))

        def run(p=p, nv=nv, gens=gens):
            return decompose.minimal_primes(_ideal(_ring(p, nv), gens))

        def check(parts, p=p, nv=nv, gens=gens):
            n, unv = _components(parts)
            R = _ring(p, nv)
            polys = [R.poly(d) for d in gens]
            ok = n > 0 and all(_contains_all(c.prime, polys) for c in parts)
            return Verdict(ok, n, unv, "" if ok else "a prime misses the input")
        ops.append(Op("minimal_primes", f"{gens} p={p}", run, check))
    return ops


# errors that intersection.distinguished raises when it cannot certify its
# own result: refusals, counted as failed like an `unverified` flag
DISTINGUISHED_REFUSALS = ("non-integer multiplicity",
                          "saturation changed the component dimension",
                          "prime avoidance failed")


def _intersection_op(p, f, g):
    def run():
        R = _ring(p, 2)
        return intersection.intersect_in_p(_ideal(R, [f]), _ideal(R, [g]))

    def check(comps):
        n, unv = _components(comps)
        R = _ring(p, 2)
        both = _ideal(R, [f, g])
        dim, _ = gb.dimension_and_degree(both)
        if dim != 0:
            return Verdict(n > 0, n, unv, "" if n else "no components")
        # a proper intersection of plane curves: its components are the
        # minimal primes of I + J (found by decompose, not intersection),
        # and the multiplicities add up to the colength of I + J
        primes = _prime_keys(decompose.minimal_primes(both))
        total = sum(c.multiplicity * gb.vector_space_dimension(c.prime)
                    for c in comps)
        if _prime_keys(comps) != primes:
            return Verdict(False, n, unv, "components differ from the primes")
        return Verdict(total == gb.vector_space_dimension(both), n, unv,
                       "multiplicities do not add up")
    return Op("intersect_in_p", f"{f} . {g} p={p}", run, check,
              known_errors=DISTINGUISHED_REFUSALS)


def _intersection_ops(rng):
    ops = [_intersection_op(101, {(0, 2): 1, (3, 0): -1},
                            {(0, 3): 1, (2, 0): -1})]
    for i, (df, dg) in enumerate(CURVE_PAIRS):
        p = PRIMES[i % 2]
        point = [rng.randrange(p) for _ in range(2)]
        ops.append(_intersection_op(
            p, _through(_dense(rng, 2, df, p), point, p),
            _through(_dense(rng, 2, dg, p), point, p)))
    for i, (a, b, c, d) in enumerate(BINOMIAL_PAIRS):
        p = PRIMES[i % 2]
        f = {(0, a): 1, (b, 0): rng.randrange(1, p)}
        g = {(0, c): 1, (d, 0): rng.randrange(1, p)}
        ops.append(_intersection_op(p, f, g))
    return ops


def _blowup_ops(rng):
    ops = []
    for i in range(BLOWUPS):
        p, n, c = PRIMES[i // 4 % 2], 2 + i % 4, rng.randrange(101)

        def run(p=p, n=n, c=c):
            R = _ring(p, 2)
            x, y = R.gens()
            chart = blowup.blowup_of(gb.Ideal(R, (x, y)))
            st = blowup.strict_transform(chart, gb.Ideal(R, ((y + c * x) ** 2
                                                             - x ** n,)))
            return blowup.is_smooth_away_from_irrelevant(chart, st)
        # (y + c x)^2 = x^n: one blowup at the origin leaves y'^2 = x^(n-2),
        # smooth exactly when n <= 3
        ops.append(Op("blowup", f"n={n} c={c} p={p}", run,
                      lambda v, n=n: _ok(v is (n <= 3), f"want {n <= 3}")))
    return ops


def _invariants(root: Path, rng):
    scripts = sorted((root / "regressions").glob("*.rk"))
    ops = [_script_op("scripts", s) for s in scripts
           if s.stem != "versal_embedding"]
    for make in (_multiplicity_ops, _spread_ops, _rees_ops, _reduction_ops,
                 _minimal_primes_ops, _intersection_ops, _blowup_ops):
        ops.extend(make(rng))
    return ops


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------

def _factor_op(family, p, nv, f, bound=None):
    kwargs = {} if bound is None else {"bound": bound}

    def run():
        R = _ring(p, nv)
        return coeff.factor_multivariate(R.poly(f), **kwargs)

    def check(v):
        unit, factors = v
        parts = [(checks.terms_of(g), m) for g, m in factors]
        if any(max(sum(e) for e in g) < 1 for g, _ in parts):
            return Verdict(False, note="constant factor")
        return _ok(checks.product_matches(f, unit, parts, p),
                   "factors do not multiply back")
    ok_errors = (coeff.KroneckerBoundError,) if bound is not None else ()
    return Op(family, f"{family} p={p} deg={max(sum(e) for e in f)}", run,
              check, ok_errors=ok_errors)


def _product(rng, degs, p):
    f = {(0, 0): 1}
    for d in degs:
        f = checks.pmul(f, _dense(rng, 2, d, p), p)
    return f


def _factor(root: Path, rng):
    ops = []
    for _ in range(FACTOR_ROUNDS):
        for degs in FACTOR_SHAPES:
            for p in FACTOR_PRIMES:
                ops.append(_factor_op("a", p, 2, _product(rng, degs, p)))
    for lo, hi in TRINOMIAL_SUMS:
        s = rng.randint(lo, hi)
        a, c = rng.randint(1, s - 1), rng.randint(1, s)
        f = {(a, s - a, 0): 1, (0, 0, c): 1, (0, 0, 0): 1}
        ops.append(_factor_op("b", 101, 3, f, bound=10 ** 3))
    for deg, p in DENSE_DRAWS:
        ops.append(_factor_op("c", p, 2, _dense(rng, 2, deg, p)))
    return ops


WORKLOADS = {
    "versal": lambda root, rng: _versal(root),
    "invariants": _invariants,
    "factor": _factor,
}


def build(name, seed, root: Path):
    return WORKLOADS[name](root, random.Random(seed))
