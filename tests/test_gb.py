import itertools
import random
from pathlib import Path

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from reeskit import gb as gb_module, rees as rees_module
from reeskit import verify as verify_module
from reeskit.blowup import blowup_of
from reeskit.cli import Config, emit, execute_script, parse_script
from reeskit.gb import (
    GroebnerBasis, HilbertSeries, Ideal, codimension, dimension_and_degree,
    eliminate, graded_piece_dim, groebner_basis, hilbert_series,
    intersect_ideals, kernel_of_matrix, kernel_of_ring_map, minors_ideal,
    module_contains, normal_form, radical_membership, ring_dimension,
    saturate, saturation_exponent, standard_monomials, trim_homogeneous,
    vector_space_dimension, colon, _coefficients, _standard_exponents,
    _trim,
)
from reeskit.polyring import (FreeModuleMap, RingMap, _Packing, make_ring,
                              matrix_from_columns, random_poly, transport)
from reeskit.rees import PresentedModule, normal_cone, rees_presentation


def spoly(f, g):
    lf, lg = f.lead_exps(), g.lead_exps()
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    p = f.ring.p
    mf = f.ring.monomial(tuple(m - a for a, m in zip(lf, lcm)),
                         pow(f.lead_coeff(), -1, p))
    mg = g.ring.monomial(tuple(m - a for a, m in zip(lg, lcm)),
                         pow(g.lead_coeff(), -1, p))
    return mf * f - mg * g


def brute_monomial_count(lt_gens, nvars, degree):
    """Oracle: count degree-d standard monomials by full enumeration."""
    count = 0
    for e in itertools.product(range(degree + 1), repeat=nvars):
        if sum(e) != degree:
            continue
        if not any(all(a >= b for a, b in zip(e, m)) for m in lt_gens):
            count += 1
    return count


def _combination(ring, coefs, gens):
    """sum(a_i * g_i) in ``ring``."""
    back = ring.zero()
    for a, g in zip(coefs, gens):
        back = back + a * g
    return back


def sparse_poly(ring, rng, terms=range(3), degrees=range(3)):
    """A few random monomials with random coefficients (possibly zero)."""
    d = {}
    for _ in range(rng.choice(terms)):
        e = [0] * ring.nvars
        for _ in range(rng.choice(degrees)):
            e[rng.randrange(ring.nvars)] += 1
        d[tuple(e)] = rng.randrange(ring.p)
    return ring.poly(d)


def _brute_lead(v, key):
    return max(v, key=lambda m: (-m[0], key(m[1])))


def _brute_divides(a, b):
    return a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))


def brute_reduce(v, G, key, p):
    """Oracle: remainder of the term dict v on division by the vectors G,
    each step by the first element of G whose lead divides the top term."""
    work, out = dict(v), {}
    while work:
        m = _brute_lead(work, key)
        c = work.pop(m)
        g = next((g for g in G if _brute_divides(_brute_lead(g, key), m)),
                 None)
        if g is None:
            out[m] = c
            continue
        lg = _brute_lead(g, key)
        f = c * pow(g[lg], -1, p) % p
        q = tuple(b - a for a, b in zip(lg[1], m[1]))
        for gm, gc in g.items():
            if gm == lg:
                continue
            nm = (gm[0], tuple(a + b for a, b in zip(gm[1], q)))
            nv = (work.get(nm, 0) - f * gc) % p
            if nv:
                work[nm] = nv
            else:
                work.pop(nm, None)
    return out


def brute_reduced_basis(vectors, key, p):
    """Oracle: reduced basis of a submodule by Buchberger's algorithm with
    every same-component pair reduced and no criterion at all.

    Vectors are dicts {(component, exps): coeff}; the module order is
    position over term (lower component first), then ``key`` on exps.
    """
    def mk(m):
        return (-m[0], key(m[1]))

    def lead(v):
        return _brute_lead(v, key)

    divides = _brute_divides

    def reduce(v, G):
        return brute_reduce(v, G, key, p)

    def spair(f, g):
        lf, lg = lead(f), lead(g)
        lcm = tuple(max(a, b) for a, b in zip(lf[1], lg[1]))
        s = {}
        for h, lh, sign in ((f, lf, 1), (g, lg, -1)):
            c = sign * pow(h[lh], -1, p)
            q = tuple(m - a for a, m in zip(lh[1], lcm))
            for hm, hc in h.items():
                nm = (hm[0], tuple(a + b for a, b in zip(hm[1], q)))
                s[nm] = (s.get(nm, 0) + c * hc) % p
        return {m: c for m, c in s.items() if c}

    G = [dict(v) for v in vectors if v]
    pairs = list(itertools.combinations(range(len(G)), 2))
    while pairs:
        i, j = pairs.pop()
        if lead(G[i])[0] != lead(G[j])[0]:
            continue
        r = reduce(spair(G[i], G[j]), G)
        if r:
            pairs.extend((k, len(G)) for k in range(len(G)))
            G.append(r)
    minimal = []
    for g in sorted(G, key=lambda g: mk(lead(g))):
        if not any(divides(lead(h), lead(g)) for h in minimal):
            minimal.append(g)
    out = []
    for g in minimal:
        r = reduce(g, [h for h in minimal if h is not g])
        inv = pow(r[lead(r)], -1, p)
        out.append({m: c * inv % p for m, c in r.items()})
    return out


def vec_of(polys):
    return {(i, e): c for i, f in enumerate(polys) for e, c in f.terms}


def spair_vector(u, v, amb):
    """S-vector of two ambient vectors (tuples of polynomials), and whether
    their leads share a component (only then is the S-vector a syzygy test)."""
    def mk(m):
        return (-m[0], amb.key(m[1]))

    du, dv = vec_of(u), vec_of(v)
    lu, lv = max(du, key=mk), max(dv, key=mk)
    lcm = tuple(max(a, b) for a, b in zip(lu[1], lv[1]))
    p = amb.p
    mu = amb.monomial(tuple(m - a for a, m in zip(lu[1], lcm)),
                      pow(du[lu], -1, p))
    mv = amb.monomial(tuple(m - a for a, m in zip(lv[1], lcm)),
                      pow(dv[lv], -1, p))
    return tuple(mu * f - mv * g for f, g in zip(u, v)), lu[0] == lv[0]


class TestGroebnerBasis:
    def test_hand_buchberger_step(self, A2):
        # S(x^2 - y, y) reduces to x^2; reduced basis is {y, x^2}
        x, y = A2.gens()
        basis = Ideal(A2, (x ** 2 - y, y)).groebner().elements
        assert [str(g) for g in basis] == ["y", "x^2"]

    def test_single_generator(self, A2):
        basis = Ideal(A2, (A2.var("x"),)).groebner().elements
        assert [str(g) for g in basis] == ["x"]

    def test_module_span_membership(self, A2):
        x, y = A2.gens()
        M = FreeModuleMap(A2, [[x, y], [-y, x]])
        gb = groebner_basis(M)
        assert module_contains(gb, (x, -y))
        assert module_contains(gb, (y, x))
        assert not module_contains(gb, (A2.one(), A2.zero()))

    def test_generators_reduce_to_zero(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 3 - y ** 2, x * y - 1, x + y ** 5))
        for g in I.gens:
            assert normal_form(g, I).is_zero()

    def test_representation_coefficients(self, A2):
        # each basis element as a combination of the original generators,
        # lifted through the graph module
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2 - y, x * y - 1))
        basis = I.groebner().elements
        for elt, coefs in zip(basis, _coefficients(A2, basis, I.gens)):
            assert _combination(A2, coefs, I.gens) == elt

    def test_representation_coefficients_over_quotient(self):
        # each basis element is rebuilt from the generators modulo Q
        R0 = make_ring(101, ["x", "y"])
        x0, y0 = R0.gens()
        R = make_ring(101, ["x", "y"],
                      quotient=[x0 ** 3 - y0 ** 2, x0 * y0 ** 2])
        x, y = R.gens()
        I = Ideal(R, (x ** 2 - y, x * y + y ** 2))
        basis = [transport(g, R) for g in I.groebner().ambient_elements]
        for elt, coefs in zip(basis, _coefficients(R, basis, I.gens)):
            assert _combination(R, coefs, I.gens) == elt

    def test_equal_ideals_hash_equal(self, A2):
        x, y = A2.gens()
        I, J = Ideal(A2, (x, y)), Ideal(A2, (y, x, x + y))
        assert I == J
        assert hash(I) == hash(J)
        assert len({I, J}) == 1
        assert len({I, Ideal(A2, (x,))}) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_module_engine_matches_brute_force(self, seed):
        # submodules of R^2 over a quotient R of GF(7)[x,y] or GF(7)[x,y,z]:
        # multi-component columns and the quotient padding, where pair
        # criteria are easiest to get wrong
        rng = random.Random(seed)
        p = 7
        names = ["x", "y", "z"][:2 + rng.randrange(2)]
        R0 = make_ring(p, names)
        qdeg = (3, 4) if len(names) == 2 else (2, 3)
        q = [sparse_poly(R0, rng, terms=[2], degrees=[d]) for d in qdeg]
        R = make_ring(p, names, quotient=[f for f in q if not f.is_zero()])
        amb = R.ambient
        rows = 2
        cols = [tuple(sparse_poly(R, rng, degrees=range(1, 4))
                      for _ in range(rows))
                for _ in range(3)]
        M = matrix_from_columns(R, cols, rows=rows)
        gb = groebner_basis(M)
        inputs = [vec_of(tuple(transport(f, amb) for f in c)) for c in cols]
        inputs += [{(i, e): c for e, c in g.terms}
                   for g in R.quotient for i in range(rows)]
        want = brute_reduced_basis(inputs, amb.key, p)
        got = [vec_of(v) for v in gb.ambient_elements]
        assert sorted(sorted(g.items()) for g in got) == \
            sorted(sorted(g.items()) for g in want)
        for u, v in itertools.combinations(gb.ambient_elements, 2):
            s, same = spair_vector(u, v, amb)
            if same:
                assert module_contains(gb, s)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_all_spairs_reduce_to_zero(self, seed):
        rng = random.Random(seed)
        ring = make_ring(13, ["x", "y", "z"])
        gens = tuple(random_poly(ring, 1 + rng.randrange(3), rng)
                     for _ in range(3))
        I = Ideal(ring, gens)
        basis = I.groebner().elements
        for f, g in itertools.combinations(basis, 2):
            assert normal_form(spoly(f, g), I).is_zero()


def same_vectors(got, want):
    return (sorted(sorted(g.items()) for g in got)
            == sorted(sorted(g.items()) for g in want))


class TestPackedLeads:
    """The engine keeps its leads packed into one int each; these inputs
    check that the packing is exact and the pair criteria stay sound."""

    @pytest.mark.parametrize("big", [32767, 32768, 40000, 2 ** 20])
    def test_exponents_of_any_size(self, big):
        # ring.monomial takes exponents past 2^15, so the packed width has
        # no fixed cap; the first input fixes a small width, the second
        # widens it while a pair is pending
        p = 7
        R = make_ring(p, ["x", "y", "z"])
        x, y, z = R.gens()
        mon = R.monomial
        gens = [y ** 2 - x * z, mon((big, 1, 0)) - z]
        I = Ideal(R, gens)
        want = brute_reduced_basis([vec_of((g,)) for g in gens], R.key, p)
        assert max(g.total_degree() for g in I.groebner().elements) > big
        assert same_vectors([vec_of((g,)) for g in I.groebner().elements],
                            want)
        for f in (mon((big + 3, 3, 0)) + mon((0, 0, big), 2),
                  mon((big, 2, big)) - mon((1, 0, 2 ** 20)),
                  mon((2 * big, 1, 1), 3) + z):
            assert vec_of((normal_form(f, I),)) == \
                brute_reduce(vec_of((f,)), want, R.key, p)

        cols = [(mon((big, 1, 0)), z), (y ** 2, mon((1, 0, big))), (x, y)]
        gb = groebner_basis(matrix_from_columns(R, cols, rows=2))
        want = brute_reduced_basis([vec_of(c) for c in cols], R.key, p)
        assert same_vectors([vec_of(v) for v in gb.ambient_elements], want)
        members = []
        for v in ((mon((big, 2, 0)) + y, mon((1, 1, big)) + z),
                  (mon((big, 0, 0)), R.zero()),
                  (mon((big + 1, 1, 0)), x * z)):
            members.append(not brute_reduce(vec_of(v), want, R.key, p))
            assert module_contains(gb, v) == members[-1]
        assert set(members) == {True, False}

        Q = make_ring(p, ["x", "y", "z"], quotient=gens)
        qwant = brute_reduced_basis([vec_of((g,)) for g in gens], R.key, p)
        assert same_vectors([vec_of((g,)) for g in Q.quotient], qwant)
        for t in ({(big + 3, 3, 0): 1, (0, 0, big): 2},
                  {(big, 1, big): 4, (0, 5, 0): 1}):
            got = vec_of((Q.poly(t),))
            assert got == brute_reduce({(0, e): c for e, c in t.items()},
                                       qwant, R.key, p)

    def test_width_grows_while_pairs_are_pending(self):
        # lex leads of degree 2, 4 and 7, then S-vectors up to degree 23:
        # the packed width grows three times, twice with pairs still
        # pending, whose packed lcms must be repacked with it
        p = 7
        R = make_ring(p, ["x", "y", "z"], order="lex")
        x, y, z = R.gens()
        gens = [x ** 2 + 6,
                6 * x ** 2 * y ** 2 + 4 * x * y * z + z ** 2,
                3 * y ** 3 * z ** 4 + 2 * y ** 2]
        want = brute_reduced_basis([vec_of((g,)) for g in gens], R.key, p)
        got = Ideal(R, gens).groebner().elements
        assert max(g.total_degree() for g in got) > 8
        assert same_vectors([vec_of((g,)) for g in got], want)

    @pytest.mark.parametrize("first", ["y*z^2", "x^2*y", "block"])
    def test_chain_criterion_keeps_the_least_lcm(self, monkeypatch, first):
        # the last lead's pair with the first has an lcm (x*y*z^2, or
        # x^2*y*z) that is a proper multiple of x*y*z, the lcm of its pair
        # with the second, so criterion M must drop it although it was
        # formed first; no pair here is a zero witness.  The first two
        # cases put the extra factor in the last and in the first variable,
        # so a degree read from any partial sum of the slots ties and fails.
        # Under the block order (x, y | z) the last lead x*z also has the
        # lcm x^3*z with x^3: a larger term than x*y*z but a smaller plain
        # int, as y's slot lies above x's, so criterion M meets the lcms in
        # another order than the terms' and must still keep the least
        order = ("block", (2, 1)) if first == "block" else "grevlex"
        R = make_ring(7, ["x", "y", "z"], order=order)
        x, y, z = R.gens()
        if first == "y*z^2":
            gens = [y * z ** 2 - 1, x * y - 1, x * z - 1]
        elif first == "x^2*y":
            gens = [x ** 2 * y - 1, y * z - 1, x * z - 1]
        else:
            gens = [y * z ** 2 - 1, x * y - 1, x ** 3 - 1, x * z - 1]
            pk = _Packing(R.order_spec, 3, _Packing.width(5))
            least, other = pk.pack(0, (1, 1, 1)), pk.pack(0, (3, 0, 1))
            assert other > least and pk.plain(other) < pk.plain(least)
        last = len(gens) - 1
        queued = []
        push = gb_module.heapq.heappush

        def spy(heap, item):
            queued.append(item[-2:])  # the pair (i, j) ends the heap key
            push(heap, item)

        monkeypatch.setattr(gb_module.heapq, "heappush", spy)
        basis = Ideal(R, gens).groebner().elements
        monkeypatch.undo()
        assert (1, last) in queued
        assert (0, last) not in queued
        assert first != "block" or (2, last) in queued
        want = brute_reduced_basis([vec_of((g,)) for g in gens], R.key, 7)
        assert same_vectors([vec_of((g,)) for g in basis], want)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_monomial_heavy_modules_match_brute_force(self, seed):
        # columns that are mostly one term, so most pairs are two monomials
        # (zero witnesses); a few binomial columns and the quotient padding
        # make pairs that need reducing, where a witness that is not one
        # would drop a basis element
        rng = random.Random(seed)
        p = 7
        names = ["x", "y", "z"][:2 + rng.randrange(2)]
        n = len(names)
        rank = rng.choice([1, 2, 3])

        def exps(lo, hi):
            e = [0] * n
            for _ in range(rng.randrange(lo, hi + 1)):
                e[rng.randrange(n)] += 1
            return tuple(e)

        R0 = make_ring(p, names)
        quotient = []
        if rng.random() < 0.5:
            quotient = [R0.monomial(exps(3, 3)) - R0.monomial(exps(3, 3)),
                        R0.monomial(exps(4, 4))]
        R = make_ring(p, names, quotient=quotient)
        amb = R.ambient
        cols = []
        for _ in range(rng.randrange(2, 6)):
            col = [R.zero()] * rank
            col[rng.randrange(rank)] = R.monomial(exps(0, 3),
                                                  rng.randrange(1, p))
            if rng.random() < 0.25:
                k = rng.randrange(rank)
                col[k] = col[k] + R.monomial(exps(0, 3), rng.randrange(1, p))
            cols.append(tuple(col))
        padding = [{(i, e): c for e, c in q.terms}
                   for q in R.quotient for i in range(rank)]

        if rank == 1:
            I = Ideal(R, [c[0] for c in cols])
            gbr = I.groebner()
            want = brute_reduced_basis(
                [vec_of((transport(g, amb),)) for g in I.gens] + padding,
                amb.key, p)
            assert same_vectors(
                [vec_of((g,)) for g in gbr.ambient_elements], want)
            basis = [transport(g, R) for g in gbr.ambient_elements]
            for elt, coefs in zip(basis, _coefficients(R, basis, I.gens)):
                assert _combination(R, coefs, I.gens) == elt
        else:
            M = matrix_from_columns(R, cols, rows=rank)
            gb = groebner_basis(M)
            inputs = [vec_of(tuple(transport(f, amb) for f in c))
                      for c in cols]
            want = brute_reduced_basis(inputs + padding, amb.key, p)
            assert same_vectors([vec_of(v) for v in gb.ambient_elements],
                                want)


ORDERS = {"grevlex": "grevlex", "lex": "lex", "block": ("block", (1, 2))}

REGRESSIONS = Path(__file__).resolve().parent.parent / "regressions"


def fresh_cone_quotient(I):
    """The normal cone's quotient basis without padding: the reduced basis
    of the Rees ideal, I and Q, from their generators."""
    rp = rees_presentation(I)
    W = rp.ring
    cone = Ideal(W, rp.ideal.gens + tuple(transport(g, W) for g in I.gens))
    return W.ambient.with_quotient(gb_module._lift(cone)).quotient


def assert_cone_is_fresh(I):
    got = normal_cone(I)
    want = fresh_cone_quotient(I)
    assert [g.terms for g in got.quotient] == [g.terms for g in want]
    assert got.rees_block is not None


class TestPadding:
    """A padding is a reduced basis, ascending, given once with a row
    count: the engine copies it into every row, inserts it first, forms no
    pair inside it, and asserts once per polynomial that no earlier
    padding reduces it."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(sorted(ORDERS)),
           st.integers(1, 3), st.booleans())
    def test_flags_change_nothing(self, seed, order, rank, quotient):
        # the padding is Q in every row, or without a quotient the reduced
        # basis of a random ideal, as colon pads with I's basis
        rng = random.Random(seed)
        p = rng.choice([7, 101])
        names = ["x", "y", "z"]
        R = make_ring(p, names, order=ORDERS[order])
        amb = R
        extra = [g for g in (sparse_poly(R, rng, range(1, 3), range(1, 4))
                             for _ in range(2)) if not g.is_zero()]
        if quotient and extra and not Ideal(R, extra).is_unit():
            R = make_ring(p, names, order=ORDERS[order], quotient=extra)
            basis = R.quotient
        else:
            basis = Ideal(R, extra).groebner().ambient_elements
            if any(g.is_constant() for g in basis):
                basis = ()
        cols = [vec_of(tuple(transport(sparse_poly(R, rng, range(1, 4),
                                                   range(4)), amb)
                             for _ in range(rank)))
                for _ in range(rng.randint(1, 4))]
        # the same basis as plain inputs, one copy per row
        vecs = [v for v in cols if v]
        copies = [{(i, e): c for e, c in q.terms}
                  for q in basis for i in range(rank)]
        assert (gb_module._engine_basis(vecs, amb, padding=basis, rows=rank)
                == gb_module._engine_basis(vecs + copies, amb))

    @pytest.mark.parametrize("pad, rows", [
        pytest.param(pad, rows, id=f"pad{k}" + ("" if rows == 1 else "-3rows"))
        for rows in (1, 3)
        for k, pad in enumerate([["x^2", "x^3"], ["x^2", "x"],
                                 ["x*y", "x^2 + x*y"]])])
    def test_padding_that_is_not_reduced_ascending_raises(self, A2, pad,
                                                          rows):
        # x^3 is a multiple of x^2, x^2 of the later x, and x^2 + x*y has
        # a tail that x*y reduces; checked once, in the first row, for
        # every row count
        x, y = A2.gens()
        polys = {"x^2": x ** 2, "x^3": x ** 3, "x": x, "x*y": x * y,
                 "x^2 + x*y": x ** 2 + x * y}
        with pytest.raises(AssertionError):
            gb_module._engine_basis([vec_of((y ** 2 - x,))], A2,
                                    padding=[polys[k] for k in pad],
                                    rows=rows)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 4))
    def test_kernel_matches_the_route_without_padding(self, seed, rows):
        # grevlex over a random quotient ring: the kernel, whose syzygies
        # the engine finds with Q given once for all rows, spans the same
        # module modulo Q as the syzygies that the --verify oracle finds
        # with Q in every row as plain inputs.  Q and the entries have
        # terms of degree 1 and 2: with cubics in Q one draw in a few
        # hundred runs for seconds in either route
        rng = random.Random(seed)
        p = rng.choice([7, 101])
        names = ["x", "y", "z"]
        R0 = make_ring(p, names)
        qs = [q for q in (sparse_poly(R0, rng, range(1, 3), range(1, 3))
                          for _ in range(3)) if not q.is_zero()]
        assume(qs)
        R = make_ring(p, names, quotient=qs)
        A = matrix_from_columns(R, [
            tuple(sparse_poly(R, rng, range(1, 3), range(1, 3))
                  for _ in range(rows))
            for _ in range(rng.randint(1, 3))])

        def span(columns):
            return groebner_basis(verify_module._with_quotient(
                R, columns, A.cols)).ambient_elements

        assert (span(kernel_of_matrix(A).columns())
                == span(verify_module._syzygies_without_padding(A)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_normal_cone_is_the_fresh_basis(self, seed, quotient):
        rng = random.Random(seed)
        p = rng.choice([7, 101])
        R = make_ring(p, ["x", "y", "z"])
        if quotient:
            q = sparse_poly(R, rng, [2], [2, 3])
            if not q.is_zero() and not q.is_constant():
                R = make_ring(p, ["x", "y", "z"], quotient=[q])
        gens = tuple(sparse_poly(R, rng, range(1, 3), range(1, 3))
                     for _ in range(rng.randint(1, 3)))
        I = Ideal(R, gens)
        assume(not I.is_unit())
        assert_cone_is_fresh(I)

    def test_normal_cones_of_the_corpus_ideals(self, monkeypatch):
        # every ideal whose Rees algebra a regression script takes
        seen = []
        as_module = rees_module.as_module

        def spy(x):
            if isinstance(x, Ideal):
                seen.append(x)
            return as_module(x)

        monkeypatch.setattr(rees_module, "as_module", spy)
        for path in sorted(REGRESSIONS.glob("*.rk")):
            execute_script(parse_script(path.read_text()), Config(seed=0))
        monkeypatch.undo()
        ideals = {(I.ring, I.gens): I for I in seen if not I.is_unit()}
        assert len(ideals) >= 5
        for I in ideals.values():
            assert_cone_is_fresh(I)


class TestSugarSelection:
    """Pairs are queued by (sugar, packed lcm, i, j); these pin the order
    under an elimination order and the unchanged order under grevlex."""

    @staticmethod
    def _spy_pairs(monkeypatch):
        """Record the sugar of every pair queued and popped, as one
        {"queued": [...], "popped": [...]} per run of ``_buchberger``, so
        that a restart at a wider packing starts lists of its own."""
        runs = []
        run_engine = gb_module._buchberger
        pop, push = gb_module.heapq.heappop, gb_module.heapq.heappush

        def engine(*args):
            runs.append({"queued": [], "popped": []})
            return run_engine(*args)

        def spy_pop(heap):
            item = pop(heap)
            runs[-1]["popped"].append(item[0])
            return item

        def spy_push(heap, item):
            runs[-1]["queued"].append(item[0])
            push(heap, item)

        monkeypatch.setattr(gb_module, "_buchberger", engine)
        monkeypatch.setattr(gb_module.heapq, "heappop", spy_pop)
        monkeypatch.setattr(gb_module.heapq, "heappush", spy_push)
        return runs

    def test_rees_ideal_reduction_counts(self, monkeypatch):
        # exact and deterministic; smallest-lcm-first selection made 973
        # reductions, 793 of them to zero
        from reeskit.rees import rees_ideal
        R = make_ring(101, ["x", "y", "z"])
        x, y, z = R.gens()
        I = Ideal(R, (x, y, z)) ** 3
        calls = [0, 0]
        reduce_vec = gb_module._reduce_vec

        def spy(*args):
            red = reduce_vec(*args)
            calls[0] += 1
            calls[1] += not red
            return red

        monkeypatch.setattr(gb_module, "_reduce_vec", spy)
        rees_ideal(I)
        assert calls == [619, 485]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2))
    def test_popped_sugar_never_decreases_under_elimination(self, seed, k):
        # a pair made with a new element has at least that element's
        # sugar, which is at least the sugar of the pair that made it
        rng = random.Random(seed)
        ring = make_ring(rng.choice([7, 101]), ["x", "y", "z"])
        gens = [g for g in (sparse_poly(ring, rng, range(2, 5), range(4))
                            for _ in range(2 + rng.randrange(2)))
                if not g.is_zero()]
        with pytest.MonkeyPatch.context() as mp:
            runs = self._spy_pairs(mp)
            eliminate(Ideal(ring, tuple(gens)), ring.names[:k])
        for run in runs:
            assert run["popped"] == sorted(run["popped"])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_grevlex_sugar_is_zero(self, seed):
        # one block is degree-compatible, so the lcm alone orders the
        # pairs there, inhomogeneous inputs included
        rng = random.Random(seed)
        ring = make_ring(rng.choice([7, 101]), ["x", "y", "z"])
        gens = [g for g in (sparse_poly(ring, rng, range(2, 5), range(4))
                            for _ in range(2 + rng.randrange(2)))
                if not g.is_zero()]
        with pytest.MonkeyPatch.context() as mp:
            runs = self._spy_pairs(mp)
            Ideal(ring, tuple(gens)).groebner()
        assert all(sugar == 0 for run in runs for sugar in run["queued"])


def _sorted_pairs(a, mono, single, act, Gpack, tails, Gsingle, g, w1):
    """Criteria F and M by grouping and sorting the lcms, for every new
    element: the reference for ``gb._select_pairs``."""
    groups = {}
    for j in act:
        b = Gpack[j]
        t = ((b | g) - a) & g
        lcm = a ^ ((a ^ b) & (t - (t >> w1)))
        zero = ((mono and not tails[j])
                or (single and Gsingle[j] and a + b == lcm))
        got = groups.get(lcm)
        if got is None or (zero and not got[1]):
            groups[lcm] = (j, zero)
    kept, out = [], []
    for lcm in sorted(groups):
        xg = lcm | g
        if all((xg - m) & g != g for m in kept):
            kept.append(lcm)
            j, zero = groups[lcm]
            if not zero:
                out.append((j, lcm))
    return out


def _queued_pairs(select, compute):
    """The set of pairs (i, j) queued in each run of ``_buchberger`` while
    ``compute()`` runs with ``select`` as the pair selection, and what
    ``compute`` returned."""
    runs = []
    run_engine = gb_module._buchberger
    push = gb_module.heapq.heappush

    def engine(*args):
        runs.append(set())
        return run_engine(*args)

    def spy(heap, item):
        runs[-1].add(item[-2:])  # the pair (i, j) ends the heap key
        push(heap, item)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(gb_module, "_buchberger", engine)
        m.setattr(gb_module.heapq, "heappush", spy)
        m.setattr(gb_module, "_select_pairs", select)
        out = compute()
    return runs, out


class TestMonomialPairRule:
    """A new monomial tests each pair it can make against the active
    leads; it must queue exactly the pairs that criteria F and M keep."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 3),
           st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=3,
                                       max_size=3),
                              st.booleans(), st.booleans(), st.booleans()),
                    max_size=9),
           st.lists(st.integers(0, 3), min_size=3, max_size=3),
           st.booleans(), st.booleans())
    # the ties of F with a = x: the later y, a coprime witness or a
    # monomial, makes the group of lcm xy a witness, so xy queues nothing;
    # with y first, y is the group's pair and xy is dropped
    @example(2, 2, [([1, 1, 0], False, True, True),
                    ([0, 1, 0], False, True, True)], [1, 0, 0], True, True)
    @example(2, 2, [([1, 1, 0], False, False, True),
                    ([0, 1, 0], True, False, True)], [1, 0, 0], True, False)
    @example(2, 2, [([0, 1, 0], False, False, True),
                    ([1, 1, 0], False, False, True)], [1, 0, 0], True, False)
    def test_matches_the_sort(self, n, d, elements, exps, mono, single):
        # exponents up to 3 in at most 3 variables give coprime leads,
        # repeated lcms and leads that divide each other; each element is
        # a monomial or not, single-component or not, active or not
        pk = _Packing(("grevlex",), n, _Packing.width(3 * d + 3))

        def lead(e):
            return pk.plain(pk.pack(0, tuple(min(x, d) for x in e[:n])))

        Gpack = [lead(e) for e, _, _, _ in elements]
        tails = [() if m else ((0, 1),) for _, m, _, _ in elements]
        Gsingle = [s for _, _, s, _ in elements]
        act = [j for j, (_, _, _, on) in enumerate(elements) if on]
        args = (lead(exps), mono, single, act, Gpack, tails, Gsingle,
                pk.guard, pk.w - 1)
        got = gb_module._select_pairs(*args)
        assert sorted(got) == sorted(_sorted_pairs(*args))
        assert len({j for j, _ in got}) == len(got)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(sorted(ORDERS)),
           st.booleans())
    def test_engine_queues_the_same_pairs(self, seed, order, quotient):
        # mostly monomial columns, as in the versal kernels, over a
        # quotient Q given as padding rows; lex and block draws stay
        # small, as larger ones can run for seconds in the engine
        rng = random.Random(seed)
        p = rng.choice([7, 101])
        names = ["x", "y", "z"][:3 if order == "block" else
                                2 + rng.randrange(2)]
        n = len(names)
        small = order != "grevlex"
        rank = rng.randint(1, 2 if small else 3)

        def exps(lo, hi):
            e = [0] * n
            for _ in range(rng.randrange(lo, hi + 1)):
                e[rng.randrange(n)] += 1
            return tuple(e)

        def term(lo, hi):
            return exps(lo, hi), rng.randrange(1, p)

        qterms = ([[term(2, 3), term(2, 3)], [term(3, 4)]]
                  if quotient else [])
        top = 2 if small else 4
        cols = []
        for _ in range(rng.randrange(2, 5 if small else 8)):
            col = [[] for _ in range(rank)]
            col[rng.randrange(rank)].append(term(0, top))
            for _ in range(rng.randrange(4) if rng.random() < 0.4 else 0):
                col[rng.randrange(rank)].append(term(0, top))
            cols.append(col)

        def compute():
            R0 = make_ring(p, names, order=ORDERS[order])
            qs = [R0.poly(dict(t)) for t in qterms]
            qs = [q for q in qs if not q.is_zero()]
            R = (make_ring(p, names, order=ORDERS[order], quotient=qs)
                 if qs and not Ideal(R0, qs).is_unit() else R0)
            entries = [tuple(R.poly(dict(t)) for t in col) for col in cols]
            if rank == 1:
                return Ideal(R, [c[0] for c in entries]).groebner()\
                    .ambient_elements
            return groebner_basis(matrix_from_columns(
                R, entries, rows=rank)).ambient_elements

        got = _queued_pairs(gb_module._select_pairs, compute)
        assert got == _queued_pairs(_sorted_pairs, compute)

    def test_corpus_queues_the_same_pairs(self):
        # every engine run of the regression scripts, versal among them,
        # where almost every new element is a monomial
        news = []
        select = gb_module._select_pairs

        def counted(a, mono, *rest):
            news.append(mono)
            return select(a, mono, *rest)

        for path in sorted(REGRESSIONS.glob("*.rk")):
            def compute():
                return emit(execute_script(parse_script(path.read_text()),
                                           Config(seed=0)))
            assert (_queued_pairs(counted, compute)
                    == _queued_pairs(_sorted_pairs, compute))
        assert 0 < news.count(False) < news.count(True)


class TestSympyOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_reduced_basis_matches_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        p = rng.choice([7, 101, 32003])
        names = ["x", "y", "z"][:2 + rng.randrange(2)]
        ring = make_ring(p, names)
        gens = [sparse_poly(ring, rng, range(2, 5), range(1, 5))
                for _ in range(2 + rng.randrange(2))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return
        syms = sympy.symbols(names)

        def to_sympy(f):
            return sum(c * sympy.prod(s ** a for s, a in zip(syms, e))
                       for e, c in f.terms)

        oracle = sympy.groebner([to_sympy(g) for g in gens], *syms,
                                modulus=p, order="grevlex")
        want = {frozenset((e, int(c) % p) for e, c in g.terms())
                for g in oracle.polys}
        got = {frozenset(g.terms) for g in Ideal(ring, tuple(gens))
               .groebner().ambient_elements}
        assert got == want

    @staticmethod
    def _random_ideal(seed, order):
        """A ring in two or three variables with ``order``, the sympy
        symbols of its variables, and a few random generators."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        p = rng.choice([7, 101, 32003])
        names = ["x", "y", "z"][:2 + rng.randrange(2)]
        ring = make_ring(p, names, order=order)
        gens = [g for g in (sparse_poly(ring, rng, range(2, 4), range(1, 4))
                            for _ in range(2 + rng.randrange(2)))
                if not g.is_zero()]
        return ring, sympy.symbols(names), gens

    @staticmethod
    def _sympy_basis(polys, syms, p, order):
        """sympy's reduced basis of the ideal of ``polys`` (sympy
        expressions), as a set of frozensets of (exps, coeff) terms."""
        sympy = pytest.importorskip("sympy")
        if not polys:
            return set()
        basis = sympy.groebner(polys, *syms, modulus=p, order=order)
        return {frozenset((e, int(c) % p) for e, c in g.terms())
                for g in basis.polys}

    @staticmethod
    def _as_sympy(terms, syms):
        sympy = pytest.importorskip("sympy")
        return sum((c * sympy.prod(s ** a for s, a in zip(syms, e))
                    for e, c in terms), sympy.Integer(0))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_lex_basis_matches_sympy(self, seed):
        # lex packs every variable as a block of its own
        ring, syms, gens = self._random_ideal(seed, "lex")
        if not gens:
            return
        want = self._sympy_basis([self._as_sympy(g.terms, syms)
                                  for g in gens], syms, ring.p, "lex")
        got = {frozenset(g.terms) for g in Ideal(ring, tuple(gens))
               .groebner().ambient_elements}
        assert got == want

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2))
    def test_eliminate_matches_sympy_lex_elimination(self, seed, k):
        # eliminate runs the engine in a two-block order; sympy's lex basis
        # meets the remaining variables in a basis of the same ideal
        ring, syms, gens = self._random_ideal(seed, "grevlex")
        k = min(k, ring.nvars - 1)
        if not gens:
            return
        lex = self._sympy_basis([self._as_sympy(g.terms, syms)
                                 for g in gens], syms, ring.p, "lex")
        kept = [self._as_sympy(g, syms) for g in lex
                if not any(any(e[:k]) for e, _ in g)]
        want = self._sympy_basis(kept, syms[k:], ring.p, "grevlex")
        E = eliminate(Ideal(ring, tuple(gens)), ring.names[:k])
        assert E.ring.names == ring.names[k:]
        got = {frozenset(g.terms) for g in E.groebner().ambient_elements}
        assert got == want

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_kernel_of_ring_map_matches_sympy_lex_elimination(self, seed):
        # the graph ideal (w_i - phi(w_i)) is not homogeneous, and the
        # engine eliminates the target variables in a two-block order;
        # sympy's lex basis of the graph ideal, with the target variables
        # first, meets k[w] in a basis of the kernel
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        p = rng.choice([7, 101, 32003])
        source = make_ring(p, ["w_0", "w_1", "w_2"][:2 + rng.randrange(2)])
        target = make_ring(p, ["x", "y", "z"][:1 + rng.randrange(2)])
        images = [sparse_poly(target, rng, range(1, 4), range(3))
                  for _ in range(source.nvars)]
        K = kernel_of_ring_map(RingMap(source, target, images))
        tsyms = sympy.symbols(target.names)
        wsyms = sympy.symbols(source.names)
        graph = [w - self._as_sympy(f.terms, tsyms)
                 for w, f in zip(wsyms, images)]
        lex = sympy.groebner(graph, *tsyms, *wsyms, modulus=p, order="lex")
        n = target.nvars
        kept = [self._as_sympy([(e[n:], c) for e, c in g.terms()], wsyms)
                for g in lex.polys if not any(any(e[:n]) for e, _ in
                                              g.terms())]
        want = self._sympy_basis(kept, wsyms, p, "grevlex")
        got = {frozenset(g.terms) for g in K.groebner().ambient_elements}
        assert got == want

    @staticmethod
    def _random_reduction(seed):
        """A random ideal, its sympy basis, a random f and sympy's remainder
        of f (as a set of (exps, coeff) terms)."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        p = rng.choice([7, 101, 32003])
        names = ["x", "y", "z"][:2 + rng.randrange(2)]
        ring = make_ring(p, names)
        gens = [g for g in (sparse_poly(ring, rng, range(2, 5), range(1, 5))
                            for _ in range(2 + rng.randrange(2)))
                if not g.is_zero()]
        f = sparse_poly(ring, rng, range(1, 7), range(6))
        syms = sympy.symbols(names)

        def to_sympy(h):
            return sum((c * sympy.prod(s ** a for s, a in zip(syms, e))
                        for e, c in h.terms), sympy.Integer(0))

        opts = dict(modulus=p, order="grevlex")
        G = sympy.groebner([to_sympy(g) for g in gens], *syms, **opts)
        _, r = sympy.reduced(to_sympy(f), G.exprs, *syms, **opts)
        want = {(e, int(c) % p) for e, c in
                sympy.Poly(r, *syms, modulus=p).terms() if int(c) % p}
        return ring, gens, f, want

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_normal_form_matches_sympy(self, seed):
        ring, gens, f, want = self._random_reduction(seed)
        if not gens:
            return
        assert set(normal_form(f, Ideal(ring, tuple(gens))).terms) == want

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_quotient_ring_normalisation_matches_sympy(self, seed):
        ring, gens, f, want = self._random_reduction(seed)
        try:
            Q = ring.with_quotient(gens)
        except ValueError:  # the unit ideal is not a quotient
            assert not want
            return
        assert set(transport(f, Q).terms) == want


class TestNormalForm:
    def test_single_division_step(self, A2):
        x, y = A2.gens()
        assert normal_form(x ** 2, Ideal(A2, (x ** 2 - y,))) == y

    def test_basis_member(self, A2):
        x, y = A2.gens()
        assert normal_form(y, Ideal(A2, (y, x ** 2))).is_zero()

    def test_zero(self, A2):
        assert normal_form(A2.zero(), Ideal(A2, (A2.var("x"),))).is_zero()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_exact_division_identity(self, seed):
        # f minus its normal form lies in I and is rebuilt from I's
        # generators; an f outside I has no coefficients
        rng = random.Random(seed)
        plain = make_ring(101, ["x", "y"])
        x, y = plain.gens()
        quotient = make_ring(101, ["x", "y"],
                             quotient=[x ** 3 - y ** 2, x * y ** 2])
        for ring in (plain, quotient):
            I = Ideal(ring, tuple(random_poly(ring, 1 + rng.randrange(2), rng)
                                  for _ in range(2)))
            f = random_poly(ring, 3, rng)
            member = f - normal_form(f, I)
            (coefs,) = _coefficients(ring, [member], I.gens)
            assert _combination(ring, coefs, I.gens) == member
            if not I.contains(f):
                with pytest.raises(ValueError):
                    _coefficients(ring, [member, f], I.gens)


class TestCoefficients:
    """``_coefficients`` lifts members of (gens) to coefficients on the
    generators through the graph module."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_lift_rebuilds_every_member(self, seed, over_quotient):
        rng = random.Random(seed)
        p = rng.choice([7, 101, 32003])
        R0 = make_ring(p, ["x", "y", "z"])
        x, y, z = R0.gens()
        ring = (make_ring(p, ["x", "y", "z"], quotient=[x * z - y ** 2])
                if over_quotient else R0)
        # zero and repeated generators are allowed
        gens = [sparse_poly(ring, rng, range(3), range(1, 4))
                for _ in range(1 + rng.randrange(3))]
        gens.append(gens[0])
        members = [ring.zero()]
        for _ in range(3):
            f = ring.zero()
            for g in gens:
                f = f + sparse_poly(ring, rng) * g
            members.append(f)
        lifts = _coefficients(ring, members, gens)
        assert len(lifts) == len(members)
        for f, coefs in zip(members, lifts):
            assert len(coefs) == len(gens)
            assert all(a.ring == ring for a in coefs)
            assert _combination(ring, coefs, gens) == f

    def test_outside_the_ideal_raises(self, A2):
        x, y = A2.gens()
        with pytest.raises(ValueError):
            _coefficients(A2, [x * y, x + 1], [x, y ** 2])
        with pytest.raises(ValueError):
            _coefficients(A2, [x], [])
        assert _coefficients(A2, [A2.zero()], []) == [[]]


class TestEliminate:
    def test_cuspidal_cubic(self):
        R = make_ring(101, ["t", "x", "y"])
        t, x, y = R.gens()
        E = eliminate(Ideal(R, (x - t ** 2, y - t ** 3)), ["t"])
        # oracle: substitute the parametrization back in
        T = make_ring(101, ["t"])
        phi = RingMap(E.ring, T, [T.var("t") ** 2, T.var("t") ** 3])
        for g in E.gens:
            assert phi(g).is_zero()
        assert [str(g) for g in E.display_gens()] == ["x^3 - y^2"]

    def test_empty_block(self, A2):
        I = Ideal(A2, (A2.var("x"),))
        assert eliminate(I, []) is I

    def test_graph_ideal_contracts_to_zero(self):
        R = make_ring(101, ["t", "x"])
        t, x = R.gens()
        E = eliminate(Ideal(R, (t - x ** 2,)), ["t"])
        assert not E.display_gens()

    def test_unknown_variable(self, A2):
        with pytest.raises(ValueError):
            eliminate(Ideal(A2, (A2.var("x"),)), ["zz"])

    def test_generators_free_of_block_and_members(self):
        R = make_ring(101, ["t", "x", "y"])
        t, x, y = R.gens()
        I = Ideal(R, (x - t ** 2, y - t ** 3, t * x - y))
        E = eliminate(I, ["t"])
        for g in E.gens:
            assert "t" not in str(g)
            assert normal_form(transport(g, R), I).is_zero()


class TestKernelOfRingMap:
    def test_monomial_curve(self):
        W = make_ring(101, ["w_0", "w_1"])
        S = make_ring(101, ["s"])
        s = S.var("s")
        K = kernel_of_ring_map(RingMap(W, S, [s ** 2, s ** 3]))
        assert [str(g) for g in K.display_gens()] == ["w_0^3 - w_1^2"]
        # oracle: inclusion (images vanish) and dimension one
        assert dimension_and_degree(K)[0] == 1

    def test_identity_map(self, A2):
        K = kernel_of_ring_map(RingMap(A2, A2, list(A2.gens())))
        assert not K.display_gens()

    def test_map_onto_quotient(self):
        W = make_ring(101, ["w"])
        X0 = make_ring(101, ["x"])
        X = make_ring(101, ["x"], quotient=[X0.var("x")])
        K = kernel_of_ring_map(RingMap(W, X, [X.var("x")]))
        assert [str(g) for g in K.display_gens()] == ["w"]


class TestColonSaturate:
    def test_remove_x_component(self, A2):
        x, y = A2.gens()
        assert [str(g) for g in
                saturate(Ideal(A2, (x ** 2 * y,)), x).display_gens()] == ["y"]

    def test_hand_colon(self, A2):
        x, y = A2.gens()
        got = colon(Ideal(A2, (x * y, y ** 2)), y)
        assert got == Ideal(A2, (x, y))

    def test_colon_by_unit(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, y))
        assert colon(I, A2.one()) == I

    def test_colon_by_ideal(self, A2):
        x, y = A2.gens()
        got = colon(Ideal(A2, (x * y,)), Ideal(A2, (x, y)))
        # oracle by hand: (xy) : (x,y) = (xy):x meet (xy):y = (y) meet (x)
        assert got == Ideal(A2, (x * y,))

    def test_colon_by_zero_ideal_rejected(self, A2):
        with pytest.raises(ValueError):
            colon(Ideal(A2, (A2.var("x"),)), Ideal(A2, ()))

    @pytest.mark.parametrize(
        "sat", [saturate, lambda I, by: saturation_exponent(I, by)[1]],
        ids=["rabinowitsch", "colon"])
    def test_saturate_by_zero_rejected(self, A2, sat):
        I = Ideal(A2, (A2.var("x"),))
        with pytest.raises(ValueError, match="colon by zero"):
            sat(I, A2.zero())
        with pytest.raises(ValueError, match="zero"):
            sat(I, Ideal(A2, (A2.zero(),)))

    def test_saturation_stability_properties(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 3 * y ** 2, x * y ** 4))
        n, sat = saturation_exponent(I, x)
        assert colon(sat, x) == sat
        for g in I.gens:
            assert normal_form(g, sat).is_zero()
        # f^N * sat inside I
        for g in sat.gens:
            assert normal_form(x ** n * g, I).is_zero()

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_rabinowitsch_agrees_with_iterated_colon(self, seed):
        rng = random.Random(seed)
        ring = make_ring(13, ["x", "y"])
        gens = tuple(random_poly(ring, 1 + rng.randrange(3), rng)
                     for _ in range(2))
        f = random_poly(ring, 1 + rng.randrange(2), rng)
        I = Ideal(ring, gens)
        assert saturate(I, f) == saturation_exponent(I, f)[1]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["polynomial", "chart", "quotient"]),
           st.integers(0, 10 ** 6))
    def test_saturate_by_ideal_agrees_with_iterated_colon(self, kind, seed):
        """One elimination with a z_i per distinct generator gives I : J^inf,
        also when J repeats a generator or holds a constant."""
        rng = random.Random(seed)
        if kind == "polynomial":
            ring = make_ring(13, ["x", "y", "z"])
        elif kind == "chart":
            A = make_ring(13, ["x", "y"])
            ring = blowup_of(Ideal(A, A.gens())).ring
        else:
            R0 = make_ring(13, ["x", "y", "z"])
            x, y, z = R0.gens()
            ring = make_ring(13, ["x", "y", "z"],
                             quotient=[x * y - z ** 2, x ** 3])
        gens = [sparse_poly(ring, rng, range(1, 3), range(1, 3))
                for _ in range(1 + rng.randrange(4))]
        extra = rng.randrange(4)
        if extra == 1 and len(gens) > 1:
            gens[-1] = rng.choice(gens[:-1])
        elif extra == 2:
            gens[rng.randrange(len(gens))] = ring.one() * rng.randrange(1, 13)
        J = Ideal(ring, tuple(gens))
        assume(any(not g.is_zero() for g in J.gens))
        # multiples of powers of J's generators, so that I : J^inf is
        # mostly neither I nor the unit ideal
        I = Ideal(ring, tuple(
            sparse_poly(ring, rng, range(1, 3), range(3))
            * rng.choice(J.gens) ** rng.randrange(1, 3)
            for _ in range(1 + rng.randrange(2))))
        assert saturate(I, J) == saturation_exponent(I, J)[1]

    def test_saturate_skips_units_and_repeated_generators(self, monkeypatch):
        """A constant generator costs no elimination, and a repeated one no
        extra z variable."""
        ring = make_ring(13, ["x", "y", "z"])
        x, y, z = ring.gens()
        I = Ideal(ring, (x ** 2 * y, x * y ** 2 * z, y ** 3 * (z + 1)))
        real = gb_module._eliminate_raw
        calls = []

        def spy(polys, amb, names):
            calls.append(len(names))
            return real(polys, amb, names)

        monkeypatch.setattr(gb_module, "_eliminate_raw", spy)
        for gens, eliminated in (((x, ring.one() * 3, y), []),
                                 ((x, y, x, y), [2]),
                                 ((y * z, y * z), [1]),
                                 ((x, y, z), [3])):
            J = Ideal(ring, gens)
            calls.clear()
            got = saturate(I, J)
            assert calls == eliminated, gens
            assert got == saturation_exponent(I, J)[1], gens

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["polynomial", "artinian5"]),
           st.integers(0, 10 ** 6))
    def test_colon_agrees_with_elimination(self, artinian5, kind, seed):
        """One syzygy basis against the t-trick: I meet (g) = g * (I : g),
        which determines I : g in a domain, and I : J is the meet of the
        I : g over J's generators."""
        rng = random.Random(seed)
        ring = (make_ring(13, ["x", "y", "z"]) if kind == "polynomial"
                else artinian5)
        J = Ideal(ring, tuple(sparse_poly(ring, rng, range(1, 3), range(1, 3))
                              for _ in range(1 + rng.randrange(3))))
        gens = [g for g in J.gens if not g.is_zero()]
        assume(gens)
        I = Ideal(ring, tuple(
            sparse_poly(ring, rng, range(1, 3), range(3))
            * rng.choice(gens) ** rng.randrange(1, 3)
            for _ in range(1 + rng.randrange(2))))
        meet = None
        for g in gens:
            piece = colon(I, g)
            g_ideal = Ideal(ring, (g,))
            assert g_ideal * piece == intersect_ideals(I, g_ideal)
            if ring.quotient:
                ann = colon(Ideal(ring, ()), g)
                assert all(piece.contains(a) for a in ann.gens)
            meet = piece if meet is None else intersect_ideals(meet, piece)
        assert colon(I, J) == meet


class TestIntersect:
    def test_two_axes(self, A2):
        x, y = A2.gens()
        got = intersect_ideals(Ideal(A2, (x,)), Ideal(A2, (y,)))
        assert got == Ideal(A2, (x * y,))

    def test_self_intersection(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2 - y, y ** 3))
        assert intersect_ideals(I, I) == I

    def test_containment(self, A2):
        x, _ = A2.gens()
        got = intersect_ideals(Ideal(A2, (x ** 2,)), Ideal(A2, (x,)))
        assert got == Ideal(A2, (x ** 2,))

    def test_zero_meet_over_quotient_has_no_zero_generator(self):
        # in GF(101)[x,y]/(xy) the axes meet in xy = 0
        S = make_ring(101, ["x", "y"])
        R = make_ring(101, ["x", "y"], quotient=[S.var("x") * S.var("y")])
        x, y = R.gens()
        got = intersect_ideals(Ideal(R, (x,)), Ideal(R, (y,)))
        assert not any(g.is_zero() for g in got.gens)
        assert got.is_zero()


class TestDimensionDegree:
    def test_line(self, A2):
        assert dimension_and_degree(Ideal(A2, (A2.var("x"),))) == (1, 1)

    def test_smooth_conic(self, A2):
        x, y = A2.gens()
        assert dimension_and_degree(Ideal(A2, (x ** 2 - y,))) == (1, 2)

    def test_point(self, A2):
        x, y = A2.gens()
        assert dimension_and_degree(Ideal(A2, (x, y))) == (0, 1)

    def test_unit_ideal_convention(self, A2):
        assert dimension_and_degree(Ideal(A2, (A2.one(),))) == (-1, 0)

    def test_ring_dimension_with_quotient(self, artinian5):
        assert ring_dimension(artinian5) == 0

    def test_degree_of_squarefree_hypersurface(self, A2):
        # sanity: degree of (f) equals the total degree for squarefree f
        x, y = A2.gens()
        for f in (x * y - 1, x ** 3 + y ** 2 * x + y, (x + y) * (x - y) + 1):
            assert dimension_and_degree(Ideal(A2, (f,)))[1] == f.total_degree()

    def test_codim_unit(self, A2):
        import math
        assert codimension(Ideal(A2, (A2.one(),))) == math.inf

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10 ** 6))
    def test_monomial_ideals_match_vertex_covers(self, n, seed):
        # V(I) of a monomial ideal is the union of the coordinate planes
        # x_C = 0 over the covers C that meet every generator's support, so
        # dim = n - (smallest cover); for a squarefree I each smallest cover
        # is a reduced component of top dimension, and the degree counts them
        rng = random.Random(seed)
        R = make_ring(101, [f"x{i}" for i in range(n)])
        exps = [tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        exps = [e for e in exps if any(e)]
        assume(exps)
        supports = [{i for i, a in enumerate(e) if a} for e in exps]
        for size in range(n + 1):
            covers = [c for c in itertools.combinations(range(n), size)
                      if all(s & set(c) for s in supports)]
            if covers:
                break
        dim, degree = dimension_and_degree(
            Ideal(R, tuple(R.monomial(e) for e in exps)))
        assert dim == n - size
        if all(a <= 1 for e in exps for a in e):
            assert degree == len(covers)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["lex", ("block", (1, 2)), ("block", (2, 1))]),
           st.booleans(), st.integers(0, 10 ** 6))
    def test_any_order_matches_the_grevlex_copy(self, order, quotient, seed):
        # the same ideal, over the same quotient, in grevlex: a
        # degree-compatible order fixes the affine Hilbert function
        rng = random.Random(seed)
        p = rng.choice([2, 7, 101])
        names = ["x", "y", "z"]
        R, G = make_ring(p, names, order=order), make_ring(p, names)
        gens = [sparse_poly(R, rng, range(1, 4), range(4))
                for _ in range(rng.randint(0, 3))]
        extra = [g for g in (sparse_poly(R, rng, range(1, 3), range(1, 3))
                             for _ in range(2)) if not g.is_zero()]
        if quotient and extra and not Ideal(G, tuple(
                transport(g, G) for g in extra)).is_unit():
            R = make_ring(p, names, order=order, quotient=extra)
            G = make_ring(p, names, quotient=[transport(g, G) for g in extra])
        I = Ideal(R, tuple(transport(g, R) for g in gens))
        assert dimension_and_degree(I) == dimension_and_degree(
            Ideal(G, tuple(transport(g, G) for g in I.gens)))
        assert ring_dimension(R) == ring_dimension(G)


def dense_rank(rows, p):
    """Oracle: the rank over GF(p) of {column: coefficient} rows, by dense
    Gauss-Jordan elimination over the columns that occur."""
    cols = sorted({j for r in rows for j in r})
    m = [[r.get(j, 0) % p for j in cols] for r in rows]
    rank = 0
    for c in range(len(cols)):
        i = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[rank], m[i] = m[i], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [a * inv % p for a in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _combine(rows, coeffs, p):
    """sum(coeffs[i] * rows[i]) as a row, zero coefficients dropped."""
    out = {}
    for a, r in zip(coeffs, rows):
        for j, c in r.items():
            out[j] = (out.get(j, 0) + a * c) % p
    return {j: c for j, c in out.items() if c}


ECHELON_PRIMES = [2, 3, 101, 32003, 2 ** 31 - 1]


class TestEchelon:
    """``gb._Echelon`` against a dense elimination kept in this file."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(ECHELON_PRIMES), st.integers(0, 10 ** 6))
    def test_matches_dense_elimination(self, p, seed):
        # rows inside and outside the span, empty rows, and negative
        # columns such as the combination columns of decompose._min_poly
        rng = random.Random(seed)
        cols = list(range(-3, rng.randint(1, 8)))
        echelon, seen = gb_module._Echelon(p), []
        for _ in range(rng.randint(1, 14)):
            draw = rng.random()
            if draw < 0.15:
                row = {}
            elif draw < 0.45 and seen:
                row = _combine(seen, [rng.randrange(p) for _ in seen], p)
            else:
                row = {j: rng.randrange(1, p)
                       for j in rng.sample(cols, rng.randint(1, len(cols)))}
            rest = echelon.reduce(dict(row))
            assert bool(rest) == (dense_rank(seen + [row], p)
                                  > dense_rank(seen, p))
            assert all(0 < c < p for c in rest.values())
            # what was cleared is a combination of the rows before
            cleared = {j: (row.get(j, 0) - rest.get(j, 0)) % p
                       for j in set(row) | set(rest)}
            assert dense_rank(seen + [cleared], p) == dense_rank(seen, p)
            if rest:
                j = max(rest)
                assert j not in echelon.pivots
                echelon.keep(rest)
                pivot = echelon.pivots[j]
                assert pivot[j] == 1 and max(pivot) == j
            seen.append(row)
        assert len(echelon.pivots) == dense_rank(seen, p)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(ECHELON_PRIMES), st.integers(0, 10 ** 6))
    def test_first_rest_on_negative_columns_is_the_first_dependency(
            self, p, seed):
        # as in decompose._min_poly: the k-th vector's row carries 1 in
        # the column -1 - k, and m + 1 vectors in m columns are dependent
        rng = random.Random(seed)
        m = rng.randint(1, 6)
        echelon, vecs = gb_module._Echelon(p), []
        for k in range(m + 1):
            if vecs and rng.random() < 0.3:
                v = _combine(vecs, [rng.randrange(p) for _ in vecs], p)
            else:
                v = {j: rng.randrange(1, p)
                     for j in rng.sample(range(m), rng.randint(0, m))}
            vecs.append(v)
            rest = echelon.reduce({**v, -1 - k: 1})
            if max(rest) < 0:
                coeffs = [rest.get(-1 - i, 0) for i in range(k + 1)]
                assert coeffs[k] == 1
                assert not _combine(vecs, coeffs, p)
                assert dense_rank(vecs[:k], p) == k
                return
            echelon.keep(rest)
            assert dense_rank(vecs, p) == k + 1
        raise AssertionError("m + 1 vectors in m columns are dependent")


class TestHilbertSeries:
    def test_principal_quadric(self, A2):
        hs = hilbert_series(Ideal(A2, (A2.var("x") ** 2,)))
        # (1 - T^2)/(1 - T)^2 as a rational function
        assert hs.equivalent(HilbertSeries({0: 1, 2: -1}, (1, 1)))

    def test_zero_ideal(self, A2):
        hs = hilbert_series(Ideal(A2, ()))
        assert hs == HilbertSeries({0: 1}, (1, 1))

    def test_irrelevant_ideal_is_one(self, A2):
        hs = hilbert_series(Ideal(A2, tuple(A2.gens())))
        assert hs == HilbertSeries({0: 1}, ())

    def test_inhomogeneous_rejected(self, A2):
        x, y = A2.gens()
        with pytest.raises(ValueError):
            hilbert_series(Ideal(A2, (x ** 2 - y,)))

    def test_weighted_variable_degrees(self):
        W = make_ring(101, ["x", "y"], degrees=(1, 2))
        assert hilbert_series(Ideal(W, ())) == HilbertSeries({0: 1}, (1, 2))
        hs = hilbert_series(Ideal(W, (W.var("y"),)))
        # k[x] with deg x = 1
        assert hs.equivalent(HilbertSeries({0: 1}, (1,)))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_series_against_brute_count(self, seed):
        rng = random.Random(seed)
        ring = make_ring(13, ["x", "y", "z"])
        gens = []
        for _ in range(2):
            d = 1 + rng.randrange(3)
            f = random_poly(ring, d, rng, homogeneous=True)
            if not f.is_zero():
                gens.append(f)
        I = Ideal(ring, tuple(gens))
        hs = hilbert_series(I)
        coeffs = hs.coefficients(6)
        lt = [g.lead_exps() for g in I.groebner().ambient_elements]
        for d in range(7):
            assert coeffs[d] == brute_monomial_count(lt, 3, d)


class TestKernelOfMatrix:
    def test_koszul_syzygy(self, A2):
        x, y = A2.gens()
        ker = kernel_of_matrix(FreeModuleMap(A2, [[x, y]]))
        assert ker.cols == 1
        assert ker.column(0) in ((y, -x), (-y, x))

    def test_identity_has_zero_kernel(self, A2):
        one, zero = A2.one(), A2.zero()
        ker = kernel_of_matrix(FreeModuleMap(A2, [[one, zero], [zero, one]]))
        assert ker.cols == 0

    def test_common_factor_row(self, A2):
        x, y = A2.gens()
        ker = kernel_of_matrix(FreeModuleMap(A2, [[x ** 2, x * y]]))
        assert ker.cols == 1
        assert ker.column(0) in ((y, -x), (-y, x))

    def test_kernel_columns_annihilated(self, A3):
        x, y, z = A3.gens()
        A = FreeModuleMap(A3, [[x, y, z], [y, z, x]])
        ker = kernel_of_matrix(A)
        for j in range(ker.cols):
            col = ker.column(j)
            for i in range(A.rows):
                acc = A3.zero()
                for k in range(A.cols):
                    acc = acc + A.entries[i][k] * col[k]
                assert acc.is_zero()

    def test_annihilator_over_quotient(self, artinian5):
        # ann(z) = (x,y,z)^5 in the Artinian quotient ring, as a one-column kernel
        z = artinian5.var("z")
        ker = kernel_of_matrix(FreeModuleMap(artinian5, [[z]]))
        assert ker.rows == 1
        degs = sorted({f.total_degree() for (f,) in ker.columns()})
        assert degs == [5]
        assert ker.cols == 19  # 21 degree-5 monomials minus x^5, y^5

    def test_one_column_several_rows_over_quotient(self):
        # in GF(101)[x,y]/(x^2, xy): ann(x) meet ann(y) = (x, y) meet (x)
        S = make_ring(101, ["x", "y"])
        R = make_ring(101, ["x", "y"], quotient=[S.var("x") ** 2,
                                                 S.var("x") * S.var("y")])
        x, y = R.gens()
        ker = kernel_of_matrix(FreeModuleMap(R, [[x], [y]]))
        assert ker.rows == 1
        assert Ideal(R, tuple(f for (f,) in ker.columns())) == Ideal(R, (x,))


def _laplace_minors(k, A):
    """Reference: the Laplace expansion over ``Polynomial`` products and
    ``ring.sum``, every product and sum normalised (modulo Q too)."""
    ring = A.ring
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

    return Ideal(ring, tuple(
        det(rows, cols)
        for rows in itertools.combinations(range(A.rows), k)
        for cols in itertools.combinations(range(A.cols), k)))


class TestMinors:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 5, 101, 32003]),
           st.booleans(), st.integers(1, 4), st.integers(1, 4))
    def test_matches_the_polynomial_expansion(self, seed, p, quotient,
                                              rows, cols):
        rng = random.Random(seed)
        names = ["x", "y", "z"]
        R = make_ring(p, names)
        if quotient:
            q = [g for g in (sparse_poly(R, rng, [1, 2], [2, 3])
                             for _ in range(rng.randint(1, 2)))
                 if not g.is_zero()]
            assume(q and not Ideal(R, q).is_unit())
            R = make_ring(p, names, quotient=q)
        A = FreeModuleMap(R, [[sparse_poly(R, rng, range(4), range(4))
                               for _ in range(cols)] for _ in range(rows)])
        for k in range(min(rows, cols) + 2):
            got, want = minors_ideal(k, A).gens, _laplace_minors(k, A).gens
            assert got == want
            assert [g.terms for g in got] == [g.terms for g in want]

    def test_exponent_overflow_raises(self, A2):
        x, y = A2.gens()
        big = x ** (2 ** 14 + 1)
        A = FreeModuleMap(A2, [[big, y], [y, big]])
        with pytest.raises(ValueError, match="exponent overflow"):
            minors_ideal(2, A)

    def test_generic_2x3(self, A3):
        x, y, z = A3.gens()
        A = FreeModuleMap(A3, [[x, y, z], [y, z, x]])
        M = minors_ideal(2, A)
        assert len(M.gens) == 3
        assert all(g.total_degree() == 2 for g in M.gens)

    def test_conventions(self, A2):
        x, y = A2.gens()
        A = FreeModuleMap(A2, [[x, y], [y, x]])
        assert minors_ideal(0, A).is_unit()
        assert minors_ideal(3, A).is_zero()


class TestTrim:
    def test_drops_redundant(self, A2):
        x, y = A2.gens()
        got = trim_homogeneous(Ideal(A2, (x, x ** 2, y)))
        assert sorted(str(g) for g in got.gens) == ["x", "y"]

    def test_keeps_independent_quadrics(self, A2):
        x, y = A2.gens()
        got = trim_homogeneous(Ideal(A2, (x ** 2 + y ** 2, y ** 2)))
        assert len(got.gens) == 2

    def test_zero(self, A2):
        assert not trim_homogeneous(Ideal(A2, ())).gens

    def test_inhomogeneous_reported(self, A2):
        x, y = A2.gens()
        with pytest.raises(ValueError):
            trim_homogeneous(Ideal(A2, (x ** 2 - y,)))


def trim_reference(I):
    """The per-generator loop of ``trim_homogeneous`` before ``_trim``:
    keep each generator, by (degree, lead), not in the ideal of those kept."""
    ring = I.ring
    weights = ring.degrees
    gens = [g for g in I.gens if not g.is_zero()]
    gens.sort(key=lambda g: (g.total_degree(weights),
                             ring.key(g.terms[0][0])))
    kept = []
    for g in gens:
        if not kept or not Ideal(ring, tuple(kept)).contains(g):
            kept.append(g)
    return Ideal(ring, tuple(kept))


def minimal_columns_reference(mat):
    """The greedy column trim of presentations before ``_trim``: drop each
    column, smallest first, that lies in the span of all the others."""
    ring = mat.ring
    cols = [c for c in mat.columns() if any(not f.is_zero() for f in c)]
    if len(cols) <= 1:
        return matrix_from_columns(ring, cols, rows=mat.rows)
    cols.sort(key=lambda c: (max(f.total_degree() for f in c),
                             tuple(f.terms for f in c)))
    kept = []
    for i, col in enumerate(cols):
        others = kept + cols[i + 1:]
        if others:
            span = groebner_basis(
                matrix_from_columns(ring, others, rows=mat.rows))
            if module_contains(span, col):
                continue
        kept.append(col)
    return matrix_from_columns(ring, kept, rows=mat.rows)


def graded_form(ring, rng, degree, terms=3):
    """A few monomials of weighted degree ``degree`` (zero if there are
    none, or for a negative degree)."""
    exps = (_standard_exponents((), ring.nvars, ring.degrees, degree)
            if degree >= 0 else ())
    if not exps:
        return ring.zero()
    return ring.poly({rng.choice(exps): rng.randrange(1, ring.p)
                      for _ in range(terms)})


def trim_ring(p, nvars, kind, rng):
    """GF(p)[x,y(,z)]: plain, modulo a random quadric, or with a variable
    of degree 2."""
    names = ["x", "y", "z"][:nvars]
    if kind == "weighted":
        degrees = [1] * nvars
        degrees[rng.randrange(nvars)] = 2
        return make_ring(p, names, degrees=degrees)
    ring = make_ring(p, names)
    if kind == "quotient":
        q = graded_form(ring, rng, 2)
        return make_ring(p, names, quotient=[q]) if not q.is_zero() else ring
    return ring


def graded_gens(ring, rng):
    """Homogeneous generators: a few forms, then redundant combinations of
    them, shuffled in."""
    def deg(f):
        return f.total_degree(ring.degrees)

    base = [graded_form(ring, rng, rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))]
    base = [g for g in base if not g.is_zero()]
    gens = list(base)
    for _ in range(rng.randint(0, 3) if base else 0):
        a, b = rng.choice(base), rng.choice(base)
        top = max(deg(a), deg(b)) + rng.randint(0, 1)
        gens.append(a * graded_form(ring, rng, top - deg(a), 1)
                    + b * graded_form(ring, rng, top - deg(b), 1))
    rng.shuffle(gens)
    return [g for g in gens if not g.is_zero()]


def graded_columns(ring, rng, rows, shifts):
    """Homogeneous columns under ``shifts``, some of them combinations of
    earlier ones."""
    cols = []
    for _ in range(rng.randint(1, 5)):
        top = max(shifts) + rng.randint(0, 2)
        if cols and rng.random() < 0.4:
            a, b = rng.choice(cols), rng.choice(cols)
            da, db = (max(f.total_degree(ring.degrees) + s
                          for f, s in zip(c, shifts) if not f.is_zero())
                      for c in (a, b))
            top = max(top, da, db)
            fa = graded_form(ring, rng, top - da, 1)
            fb = graded_form(ring, rng, top - db, 1)
            col = tuple(x * fa + y * fb for x, y in zip(a, b))
        else:
            col = tuple(graded_form(ring, rng, top - s) for s in shifts)
        if any(not f.is_zero() for f in col):
            cols.append(col)
    return cols


def spans(ring, cols, rows):
    return groebner_basis(matrix_from_columns(ring, cols, rows=rows))


class TestTrimPass:
    """``_trim`` against the trims it replaced, on p in {7, 101, 32003},
    two or three variables, plain, quotient and weighted rings."""

    draws = (st.sampled_from((7, 101, 32003)), st.integers(2, 3),
             st.sampled_from(("plain", "quotient", "weighted")),
             st.integers(0, 10 ** 6))

    @settings(max_examples=40, deadline=None)
    @given(*draws)
    def test_trim_homogeneous_matches_reference(self, p, nvars, kind, seed):
        rng = random.Random(seed)
        ring = trim_ring(p, nvars, kind, rng)
        I = Ideal(ring, tuple(graded_gens(ring, rng)))
        got = [g.terms for g in trim_homogeneous(I).gens]
        assert got == [g.terms for g in trim_reference(I).gens]

    @settings(max_examples=30, deadline=None)
    @given(*draws)
    def test_presentation_matches_greedy_reference(self, p, nvars, kind,
                                                   seed):
        rng = random.Random(seed)
        ring = trim_ring(p, nvars, kind, rng)
        gens = graded_gens(ring, rng)
        assume(gens)
        M = PresentedModule.from_ideal(Ideal(ring, tuple(gens)))
        want = minimal_columns_reference(
            kernel_of_matrix(M.generator_row()))
        assert M.presentation.entries == want.entries

    @settings(max_examples=30, deadline=None)
    @given(*draws)
    def test_graded_kept_columns_are_minimal(self, p, nvars, kind, seed):
        rng = random.Random(seed)
        ring = trim_ring(p, nvars, kind, rng)
        rows = rng.randint(1, 2)
        shifts = [rng.randint(0, 2) for _ in range(rows)]
        cols = graded_columns(ring, rng, rows, shifts)
        kept = _trim(ring, cols, rows, shifts)
        everything = spans(ring, kept, rows)
        assert all(module_contains(everything, c) for c in cols)
        for i, col in enumerate(kept):
            assert not module_contains(
                spans(ring, kept[:i] + kept[i + 1:], rows), col)

    @settings(max_examples=30, deadline=None)
    @given(*draws)
    def test_inhomogeneous_kept_columns_span_the_input(self, p, nvars,
                                                       kind, seed):
        rng = random.Random(seed)
        ring = trim_ring(p, nvars, kind, rng)
        rows = rng.randint(1, 2)
        cols = [tuple(sparse_poly(ring, rng, terms=range(1, 4),
                                  degrees=range(4)) for _ in range(rows))
                for _ in range(rng.randint(1, 5))]
        cols += [tuple(x * sparse_poly(ring, rng) + y for x, y in
                       zip(rng.choice(cols), rng.choice(cols)))]
        kept = _trim(ring, cols, rows, [0] * rows)
        given, trimmed = spans(ring, cols, rows), spans(ring, kept, rows)
        assert all(module_contains(given, c) for c in kept)
        assert all(module_contains(trimmed, c) for c in cols)
        # presentations of inhomogeneous ideals: the same syzygy module
        gens = tuple(sparse_poly(ring, rng, terms=range(1, 4),
                                 degrees=range(4))
                     for _ in range(rng.randint(2, 4)))
        M = PresentedModule.from_ideal(Ideal(ring, gens))
        syz, pres = kernel_of_matrix(M.generator_row()), M.presentation
        syz_span, pres_span = groebner_basis(syz), groebner_basis(pres)
        assert all(module_contains(syz_span, c) for c in pres.columns())
        assert all(module_contains(pres_span, c) for c in syz.columns())


class TestGradedPieces:
    def test_linear_piece(self, A2):
        I = Ideal(A2, tuple(A2.gens()))
        assert graded_piece_dim(1, I) == 2

    def test_quadratic_piece(self, A2):
        I = Ideal(A2, tuple(A2.gens()))
        assert graded_piece_dim(2, I) == 3

    def test_zero_ideal(self, A2):
        assert graded_piece_dim(3, Ideal(A2, ())) == 0

    def test_positive_dimensional_quotient_rejected(self, A2):
        I = Ideal(A2, (A2.var("x"),))
        with pytest.raises(ValueError, match="not finite dimensional"):
            vector_space_dimension(I)
        with pytest.raises(ValueError, match="not finite dimensional"):
            standard_monomials(I)

    def test_standard_monomials_count(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 2, x * y, y ** 3))
        assert standard_monomials(I) == [(0, 0), (0, 1), (1, 0), (0, 2)]
        assert vector_space_dimension(I) == 4
        assert vector_space_dimension(Ideal(A2, (A2.one(),))) == 0

    def test_infinite_piece_reported(self):
        ring = make_ring(101, [["x"], ["w"]], rees_block=1)
        I = Ideal(ring, (ring.var("w"),))
        with pytest.raises(ValueError):
            graded_piece_dim(1, I, "wblock")


class TestIdealProducts:
    def test_power_keeps_distinct_products(self, A2):
        x, y = A2.gens()
        m = Ideal(A2, (x, y))
        cube = m ** 3
        assert cube.gens == (x ** 3, x ** 2 * y, x * y ** 2, y ** 3)
        verbatim = Ideal(A2, tuple(a * b * c for a in m.gens
                                   for b in m.gens for c in m.gens))
        assert len(verbatim.gens) == 8
        assert cube == verbatim

    def test_zero_products_dropped(self):
        R0 = make_ring(101, ["x", "y"])
        R = make_ring(101, ["x", "y"], quotient=[R0.var("x") ** 2])
        x, y = R.gens()
        got = Ideal(R, (x, y)) * Ideal(R, (x,))
        assert got.gens == (x * y,)
        assert (Ideal(R, (x,)) * Ideal(R, (x,))).gens == ()


def brute_standard_exponents(lt, n, weights=None, degree=None):
    """Oracle: filter a box that holds every candidate, in the same
    (variable 0 outermost) order."""
    side = max([degree or 0] + [a for m in lt for a in m]) + 1
    out = []
    for e in itertools.product(range(side), repeat=n):
        if weights is not None and sum(
                a * w for a, w in zip(e, weights)) != degree:
            continue
        if not any(all(a >= b for a, b in zip(e, m)) for m in lt):
            out.append(e)
    return out


class TestStandardExponents:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_box_filter(self, seed):
        # the walk packs its prefixes into slots as wide as the largest
        # lead exponent or degree, so both sides of that edge are drawn:
        # lead exponents up to 4 or 10, requested degrees up to 12
        rng = random.Random(seed)
        n = rng.choice((2, 3, 4))
        top = rng.choice((4, 10))
        # a pure power of every variable keeps the ungraded walk finite;
        # these and any extra pure power are the leads whose prefix is 0
        powers = [tuple(rng.randint(1, top) if j == i else 0
                        for j in range(n)) for i in range(n)]
        lt = [tuple(rng.randint(0, 4) for _ in range(n))
              for _ in range(rng.randint(0, 4))]
        lt += [tuple(rng.randint(1, top) if j == i else 0 for j in range(n))
               for i in rng.sample(range(n), rng.randint(0, 1))]
        lt = [m for m in lt if any(m)]
        everything = powers + lt
        rng.shuffle(everything)
        assert (_standard_exponents(everything, n)
                == brute_standard_exponents(everything, n))
        if rng.random() < 0.5:
            weights = tuple(rng.randint(0, 2) for _ in range(n))
        else:  # "wblock"-shaped: 0 on the leading variables only
            k = rng.randrange(n)
            weights = (0,) * k + tuple(rng.randint(1, 2)
                                       for _ in range(n - k))
        # a graded piece is finite once the weight-0 variables have powers
        lt += [m for i, m in enumerate(powers)
               if weights[i] == 0 or rng.random() < 0.5]
        rng.shuffle(lt)
        degree = rng.randint(0, 12)
        assert (_standard_exponents(lt, n, weights, degree)
                == brute_standard_exponents(lt, n, weights, degree))

    def test_walk_exponents_above_every_lead(self):
        # x reaches the requested degree 8, past every lead exponent, so
        # the prefix slots are sized by the degree too: at x^8 the lead
        # x*y still bounds y below 1
        lt = [(1, 1), (0, 3)]
        assert _standard_exponents(lt, 2, (1, 0), 8) == [(8, 0)]
        lt = [(1, 1, 0), (0, 3, 0), (0, 1, 1)]
        assert (_standard_exponents(lt, 3, (1, 0, 2), 9)
                == brute_standard_exponents(lt, 3, (1, 0, 2), 9))


class TestRadicalMembership:
    def test_power_detected(self, A2):
        x, y = A2.gens()
        I = Ideal(A2, (x ** 3, y ** 2 * x))
        assert radical_membership(x, I)
        assert not radical_membership(y, I)
