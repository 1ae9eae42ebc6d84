"""Ideals born knowing their reduced basis.

``eliminate``, ``kernel_of_ring_map``, ``saturate``, ``intersect_ideals``
and ``colon`` return ideals that carry the engine's reduced basis instead
of recomputing it on the first ``groebner()`` call.  Every carried basis
must be the one a fresh computation from the generators gives.
"""

import random
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from reeskit import gb as gb_module
from reeskit.cli import Config, emit, execute_script, parse_script
from reeskit.gb import (Ideal, _coefficients, _eliminate_raw, _syzygies,
                        colon, eliminate, groebner_basis, intersect_ideals,
                        kernel_of_ring_map, saturate)
from reeskit.polyring import FreeModuleMap, RingMap, make_ring, transport

REGRESSIONS = Path(__file__).resolve().parent.parent / "regressions"

ORDERS = {"grevlex": "grevlex", "lex": "lex", "block": ("block", (1, 2))}


def carried(I):
    """The basis I was born with, or None."""
    return I._cache.get("gb")


def assert_carried_is_recomputed(I):
    got = carried(I)
    want = groebner_basis(Ideal(I.ring, I.gens))
    assert got.ring == want.ring and got.rank == want.rank == 0
    assert ([g.terms for g in got.ambient_elements]
            == [g.terms for g in want.ambient_elements])
    assert [g.terms for g in got.elements] == [g.terms for g in want.elements]


def small_poly(ring, rng, terms=3, degree=3):
    names = ring.names
    out = ring.zero()
    for _ in range(1 + rng.randrange(terms)):
        e = [0] * len(names)
        for _ in range(rng.randrange(degree + 1)):
            e[rng.randrange(len(names))] += 1
        out = out + ring.monomial(tuple(e), 1 + rng.randrange(ring.p - 1))
    return out


def test_kernel_of_an_unchecked_map_keeps_the_quotient():
    # a -> x does not kill a^2, so the engine output () misses the
    # quotient, and the kernel's basis is the quotient basis (a^2)
    S0 = make_ring(101, ["a"])
    S = make_ring(101, ["a"], quotient=[S0.var("a") ** 2])
    T = make_ring(101, ["x"])
    K = kernel_of_ring_map(RingMap(S, T, [T.var("x")], check=False))
    assert carried(K) is None
    assert [str(g) for g in K.groebner().ambient_elements] == ["a^2"]


def test_lex_ring_results_carry_nothing():
    # the engine's basis is grevlex on the remaining block, not lex
    R = make_ring(101, ["x", "y", "z"], order="lex")
    x, y, z = R.gens()
    I = Ideal(R, (x ** 2 - y * z, y ** 3 - x))
    J = Ideal(R, (x * y - z, z ** 2))
    T = make_ring(101, ["s", "t"])
    s, t = T.gens()
    results = [
        kernel_of_ring_map(RingMap(R, T, [s ** 2, s * t, t ** 2])),
        saturate(I, z),
        intersect_ideals(I, J),
    ]
    for K in results:
        assert K.gens and carried(K) is None


def test_ambient_order_results_carry_their_basis():
    R = make_ring(101, ["x", "y", "z"], order="lex")
    x, y, z = R.gens()
    I = Ideal(R, (x ** 2 * y - z ** 3, x * y * z))
    # colon works in the ring's own order, and elimination returns a
    # grevlex subring, so both carry even over lex
    for K in (colon(I, z), eliminate(I, ["x"])):
        assert carried(K) is not None
        assert_carried_is_recomputed(K)


OPS = ("eliminate", "kernel", "saturate", "intersect", "colon")


def run_op(op, R, rng):
    """The result of ``op`` on random inputs, and whether the engine ran:
    a saturation by a unit is I itself and runs none."""
    gens = tuple(g for g in (small_poly(R, rng) for _ in range(2))
                 if not g.is_zero())
    I = Ideal(R, gens)
    if op == "eliminate":
        return eliminate(I, R.names[:1 + rng.randrange(2)]), True
    if op == "saturate":
        by = small_poly(R, rng, 2, 2)
        if rng.randrange(2):
            by = Ideal(R, (by, small_poly(R, rng, 2, 2)))
        elements = by.gens if isinstance(by, Ideal) else (by,)
        return saturate(I, by), not any(g.is_constant() and not g.is_zero()
                                        for g in elements)
    if op == "intersect":
        return intersect_ideals(I, Ideal(R, (small_poly(R, rng),))), True
    if op == "colon":
        return colon(I, small_poly(R, rng, 2, 2)), True
    # a map S -> T = GF(p)[s,t] / (images of S's quotient), which kills
    # S's quotient, so the kernel may carry over a quotient ring too; or,
    # unchecked, the same images in GF(p)[s,t], which need not kill it
    T0 = make_ring(R.p, ["s", "t"])
    images = [small_poly(T0, rng, 2, 2) for _ in R.names]
    if rng.randrange(2):
        return kernel_of_ring_map(RingMap(R, T0, images, check=False)), True
    lifted = RingMap(R.ambient, T0, images)
    T = T0.with_quotient([lifted(q) for q in R.quotient])
    return kernel_of_ring_map(
        RingMap(R, T, [T.poly(dict(f.terms)) for f in images])), True


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(OPS),
       st.sampled_from(sorted(ORDERS)), st.booleans())
def test_carried_basis_is_the_recomputed_basis(seed, op, order, quotient):
    rng = random.Random(seed)
    R = make_ring(101, ["x", "y", "z"], order=ORDERS[order])
    if quotient:
        q = small_poly(R, rng, 2, 3)
        if q.is_zero() or q.is_constant():
            q = R.var("x") ** 3
        R = make_ring(101, ["x", "y", "z"], order=ORDERS[order], quotient=[q])
    try:
        K, engine = run_op(op, R, rng)
    except ValueError:
        return  # a zero element to saturate by, a unit quotient, ...
    if carried(K) is not None:
        assert_carried_is_recomputed(K)
    if order == "lex" and op in ("kernel", "saturate", "intersect"):
        # the engine's basis is grevlex on the remaining block, not lex; a
        # saturation by a unit is born with I's own basis, in I's order
        assert (carried(K) is None) == engine


def random_ring(rng, order):
    """GF(p)[x,y,z] in ``order``, modulo up to three random polynomials."""
    p = rng.choice((2, 5, 101, 32003))
    R = make_ring(p, ["x", "y", "z"], order=ORDERS[order])
    qs = [q for q in (small_poly(R, rng) for _ in range(rng.randrange(4)))
          if not q.is_constant()]
    try:
        return make_ring(p, ["x", "y", "z"], order=ORDERS[order], quotient=qs)
    except ValueError:
        return R  # the unit ideal


def descending(f, ring):
    """f's terms are strictly descending in ``ring``'s order, with
    coefficients in 1..p-1."""
    keys = [ring.key(e) for e, _ in f.terms]
    return (all(a > b for a, b in zip(keys, keys[1:]))
            and all(0 < c < ring.p for _, c in f.terms))


def assert_read_off(basis):
    # the reference: each ambient element moved into the ring by transport,
    # which reduces it modulo Q from scratch, but for the images whose
    # monic form an earlier image already has
    ring = basis.ring
    want, monic = [], set()
    for h in (transport(g, ring) for g in basis.ambient_elements):
        if h.is_zero():
            continue
        inv = pow(h.lead_coeff(), -1, ring.p)
        m = tuple((e, c * inv % ring.p) for e, c in h.terms)
        if m not in monic:
            monic.add(m)
            want.append(h.terms)
    assert [g.terms for g in basis.elements] == want
    assert all(g.ring == ring and descending(g, ring)
               for g in basis.elements)
    assert all(descending(g, ring.ambient) for g in basis.ambient_elements)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(OPS),
       st.sampled_from(sorted(ORDERS)))
def test_normal_forms_modulo_q_are_read_off_the_basis(seed, op, order):
    # groebner_basis and the carried basis of every op build their
    # elements from the reduced ambient basis without reducing by Q
    rng = random.Random(seed)
    R = random_ring(rng, order)
    assert_read_off(groebner_basis(Ideal(R, tuple(
        small_poly(R, rng) for _ in range(1 + rng.randrange(3))))))
    try:
        K, _ = run_op(op, R, rng)
    except ValueError:
        return  # a zero element to saturate by, a unit quotient, ...
    if carried(K) is not None:
        assert_read_off(carried(K))
    assert_read_off(groebner_basis(Ideal(K.ring, K.gens)))


def test_a_basis_element_with_a_lead_of_q_loses_its_q():
    # over GF(101)[x,y] / (x^3 + y^2) the reduced ambient basis of (y^2) is
    # (y^2, x^3): x^3 has the lead of x^3 + y^2, and its normal form modulo
    # Q is x^3 - (x^3 + y^2) = -y^2, a unit multiple of y^2 that is left
    # out; beside y it stays
    R0 = make_ring(101, ["x", "y"])
    x, y = R0.gens()
    R = make_ring(101, ["x", "y"], quotient=[x ** 3 + y ** 2])
    X, Y = R.gens()
    I = Ideal(R, (Y ** 2,))
    for basis, first, elements in (
            (groebner_basis(I), "y^2", ["y^2"]),
            (carried(saturate(I, X + 1)), "y^2", ["y^2"]),
            (carried(colon(I, Y)), "y", ["y", "-y^2"])):
        assert_read_off(basis)
        assert [str(g) for g in basis.ambient_elements] == [first, "x^3"]
        assert [str(g) for g in basis.elements] == elements


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(ORDERS)))
def test_result_term_lists_are_descending(seed, order):
    # the engine's and the reducer's terms come out in descending order and
    # are taken as they are: no result polynomial is sorted again
    rng = random.Random(seed)
    R = random_ring(rng, order)
    amb = R.ambient
    gens = [g for g in (small_poly(R, rng) for _ in range(3))
            if not g.is_zero()]
    if not gens:
        return
    I = Ideal(R, tuple(gens))
    basis = groebner_basis(I)
    assert all(descending(g, R) for g in basis.elements)
    assert all(descending(g, amb) for g in basis.ambient_elements)
    lifted = [transport(g, amb) for g in gens] + list(R.quotient)
    for names in (["x"], ["y", "z"]):
        sub, kept = _eliminate_raw(lifted, amb, names)
        assert all(f.ring == sub and descending(f, sub) for f in kept)
    if order != "grevlex":
        # module bases of three random generators can take minutes in an
        # elimination order (one lift over GF(5)[x,y,z] / (x*z^2 + 1) in
        # lex did not finish in 100 s); the ideal bases above cover those
        return
    module = groebner_basis(FreeModuleMap(R, [gens, gens[::-1]]))
    assert all(descending(f, amb) for v in module.ambient_elements for f in v)
    for syz in _syzygies([gens], len(gens), R.quotient, amb):
        assert all(descending(f, amb) for f in syz)
    for lift in _coefficients(R, basis.elements, gens):
        assert all(descending(f, R) for f in lift)


CORPUS = sorted(p.stem for p in REGRESSIONS.glob("*.rk"))


def test_every_carried_basis_in_the_corpus_is_the_recomputed_one(
        monkeypatch):
    # a spy on the one way an ideal is born with its basis, in every
    # module that calls it; each carried basis is recomputed afterwards
    born = gb_module._with_basis
    seen = []

    def spy(ring, gens, basis):
        out = born(ring, gens, basis)
        seen.append(out)
        return out

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("reeskit")
                and getattr(mod, "_with_basis", None) is born):
            monkeypatch.setattr(mod, "_with_basis", spy)
    assert len(CORPUS) == 7
    counts = {}
    for name in CORPUS:
        del seen[:]
        src = (REGRESSIONS / f"{name}.rk").read_text()
        doc = execute_script(parse_script(src), Config(seed=0, verify=True))
        assert emit(doc) == (REGRESSIONS / f"{name}.expected.txt").read_bytes()
        for I in seen:
            assert_carried_is_recomputed(I)
        counts[name] = len(seen)
    assert all(counts.values()), counts


def test_versal_engine_calls(monkeypatch):
    # the three symmetric kernels carry their bases, so comparing them
    # and taking their graded pieces runs no further Buchberger, and the
    # presentations are trimmed with one basis per degree, not one per
    # column (25 calls with the greedy per-column trim)
    calls = [0]
    core = gb_module._gb_core

    def spy(*args, **kwargs):
        calls[0] += 1
        return core(*args, **kwargs)

    monkeypatch.setattr(gb_module, "_gb_core", spy)
    src = (REGRESSIONS / "versal_embedding.rk").read_text()
    doc = execute_script(parse_script(src), Config(seed=0))
    assert emit(doc) == (REGRESSIONS
                         / "versal_embedding.expected.txt").read_bytes()
    assert calls[0] == 6
