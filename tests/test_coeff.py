import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from reeskit import coeff
from reeskit.coeff import (
    _decode, _digit_table, _hensel_factors, _hensel_lift, _kronecker_factors,
    _line_certifies_irreducible, _Modulus, _mulmod, _PACKED_MODULUS_DEGREE,
    _restrict_to_line, _sqrt_mod, _uv_inverse,
    GFElement, factor_multivariate, factor_univariate, factor_univariate_list,
    gf_add, gf_div, gf_inv, gf_mul, gf_pow, gf_sub, is_irreducible_univariate,
    KRONECKER_DEGREE_BOUND, KroneckerBoundError, uv_divmod, uv_gcd, uv_mul,
    uv_pow_mod, uv_sub,
)
from reeskit.polyring import make_ring, parse_poly

# 2147483647 = 2^31 - 1 is the largest prime below MAX_MODULUS: its products
# need slots wider than 8 bytes, the other primes fit array slots
KERNEL_PRIMES = (2, 3, 7, 101, 32003, 2147483647)


class TestFieldOps:
    def test_additive_inverse_mod_101(self):
        assert gf_add(101, 50, 51) == 0

    def test_inverse_of_two_mod_101(self):
        # oracle: 2 * 51 = 102 = 1 mod 101
        assert 2 * 51 % 101 == 1
        assert gf_inv(101, 2) == 51

    def test_product_mod_5(self):
        assert gf_mul(5, 3, 4) == 2

    def test_div_sub_pow(self):
        assert gf_div(7, 3, 5) == 3 * gf_inv(7, 5) % 7
        assert gf_sub(7, 2, 5) == 4
        assert gf_pow(7, 3, 100) == pow(3, 100, 7)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(101, 0)
        with pytest.raises(ZeroDivisionError):
            gf_div(101, 4, 0)

    def test_modulus_mismatch_is_hard_error(self):
        a = GFElement(3, 5)
        b = GFElement(3, 7)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            GFElement(1, 4)

    def test_value_always_reduced(self):
        assert GFElement(103, 101).value == 2
        assert (-GFElement(1, 101)).value == 100

    def test_equal_elements_hash_equal(self):
        a, b = GFElement(3, 7), GFElement(10, 7)
        assert a == b and hash(a) == hash(b)
        assert GFElement(3, 7) != GFElement(3, 5)
        # ints are not residues: 3 and 10 differ, so neither may equal [3]
        assert GFElement(3, 7) != 3 and GFElement(3, 7) != 10
        for x in (a, b, GFElement(4, 7), 3, 10):
            assert (x in {a}) == (x == a)


class TestFactorUnivariate:
    def test_x4_plus_1_splits_over_101(self):
        # (x^2+10)(x^2-10) = x^4 - 100 = x^4 + 1 mod 101
        assert (-100) % 101 == 1
        R = make_ring(101, ["x"])
        x = R.var("x")
        unit, factors = factor_univariate(x ** 4 + 1)
        assert unit == 1
        assert [(str(f), m) for f, m in factors] == [
            ("x^2 + 10", 1), ("x^2 - 10", 1)]

    def test_x2_minus_10_irreducible_over_101(self):
        # oracle: 10 is a quadratic non-residue, Euler criterion
        assert pow(10, 50, 101) == 101 - 1
        R = make_ring(101, ["x"])
        x = R.var("x")
        unit, factors = factor_univariate(x ** 2 - 10)
        assert unit == 1 and len(factors) == 1 and factors[0][1] == 1

    def test_x_squared_over_gf5(self):
        R = make_ring(5, ["x"])
        x = R.var("x")
        unit, factors = factor_univariate(x ** 2)
        assert unit == 1
        assert factors == [(x, 2)]

    def test_zero_input_rejected(self):
        R = make_ring(5, ["x"])
        with pytest.raises(ValueError):
            factor_univariate(R.zero())

    def test_deterministic_per_seed(self):
        R = make_ring(101, ["x"])
        x = R.var("x")
        f = (x ** 3 + 5 * x + 1) * (x ** 2 + 3) * (x + 7) ** 2
        a = factor_univariate(f, seed=11)
        b = factor_univariate(f, seed=11)
        assert a == b

    def test_irreducibility_certificate_of_outputs(self):
        # each factor f of degree d divides x^(p^d) - x and no proper one
        R = make_ring(13, ["x"])
        x = R.var("x")
        f = (x ** 4 + x + 1) * (x ** 2 + 1) * x
        _, factors = factor_univariate(f)
        for g, _ in factors:
            coeffs = [0] * (g.total_degree() + 1)
            for e, c in g.terms:
                coeffs[e[0]] = c
            assert is_irreducible_univariate(coeffs, 13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    def test_reconstruction_fuzz(self, seed, nfac):
        p = 11
        R = make_ring(p, ["x"])
        x = R.var("x")
        rng = random.Random(seed)
        f = R.const(rng.randrange(1, p))
        for _ in range(nfac):
            d = rng.randrange(1, 4)
            g = x ** d
            for i in range(d):
                g = g + R.const(rng.randrange(p)) * x ** i
            f = f * g
        unit, factors = factor_univariate(f, seed=seed)
        back = R.const(unit)
        for g, m in factors:
            assert g.lead_coeff() == 1
            back = back * g ** m
        assert back == f

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 101]), st.integers(1, 3),
           st.integers(0, 10 ** 6))
    def test_matches_factor_multivariate(self, p, nv, seed):
        """One body serves both: a polynomial in one of nv variables, its
        monomial content and repeated factors included, factors alike
        either way."""
        rng = random.Random(seed)
        R = make_ring(p, ["x", "y", "z"][:nv])
        v = R.gens()[rng.randrange(nv)]
        f = R.const(rng.randrange(1, p)) * v ** rng.randrange(3)
        for _ in range(rng.randrange(1, 4)):
            f = f * R.sum(v ** i * rng.randrange(p)
                          for i in range(rng.randint(2, 4)))
        assume(not f.is_zero())
        assert factor_univariate(f, seed) == factor_multivariate(f, seed)

    def test_a_quotient_ring(self):
        # factorUnivariate takes any ring, factorMultivariate only
        # polynomial rings; x^2 is the monomial content
        R0 = make_ring(101, ["x"])
        R = make_ring(101, ["x"], quotient=[R0.var("x") ** 5])
        x = R.var("x")
        unit, factors = factor_univariate(x ** 3 + x ** 2)
        assert (unit, [(str(g), m) for g, m in factors]) == (
            1, [("x", 2), ("x + 1", 1)])
        with pytest.raises(ValueError, match="polynomial rings only"):
            factor_multivariate(x ** 3 + x ** 2)


class TestFactorMultivariate:
    def test_difference_of_square_and_fourth_power(self):
        R = make_ring(32003, ["x", "y"])
        x, y = R.gens()
        unit, factors = factor_multivariate(x ** 2 - y ** 4)
        strs = sorted(str(f) for f, _ in factors)
        assert strs == ["y^2 + x", "y^2 - x"]
        back = R.const(unit)
        for f, m in factors:
            back = back * f ** m
        assert back == x ** 2 - y ** 4

    def test_x2_minus_y_irreducible(self):
        # oracle: a factorization would need a unit coefficient polynomial
        # in y; gcd of the y-coefficients of x^2 - y is constant
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        assert uv_gcd([1], [0, 0, 1], 101) == [1]
        unit, factors = factor_multivariate(x ** 2 - y)
        assert len(factors) == 1 and factors[0][1] == 1

    def test_monomial_splits_into_variables(self):
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        unit, factors = factor_multivariate(x * y)
        assert unit == 1
        assert sorted(str(f) for f, _ in factors) == ["x", "y"]

    def test_multiplicities_and_unit(self):
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        f = 3 * (x + y) ** 2 * (x - y)
        unit, factors = factor_multivariate(f)
        back = R.const(unit)
        for g, m in factors:
            back = back * g ** m
        assert back == f
        assert sorted(m for _, m in factors) == [1, 2]

    def test_kronecker_bound_reported(self):
        R = make_ring(101, ["x", "y", "z"])
        x, y, z = R.gens()
        with pytest.raises(KroneckerBoundError):
            factor_multivariate(x ** 101 * y ** 90 + z ** 60 + 1, bound=10 ** 3)

    def test_zero_rejected(self):
        R = make_ring(101, ["x", "y"])
        with pytest.raises(ValueError):
            factor_multivariate(R.zero())

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_bivariate_reconstruction_fuzz(self, seed):
        p = 7
        R = make_ring(p, ["x", "y"])
        x, y = R.gens()
        rng = random.Random(seed)
        pieces = [x, y, x + y, x - y, x + 1, y + 2, x * y + 1, x + y ** 2]
        f = R.const(rng.randrange(1, p))
        for _ in range(rng.randrange(1, 4)):
            f = f * pieces[rng.randrange(len(pieces))]
        unit, factors = factor_multivariate(f, seed=seed)
        back = R.const(unit)
        for g, m in factors:
            back = back * g ** m
        assert back == f


class TestUnivariateHelpers:
    def test_pow_mod(self):
        p = 13
        f = [1, 0, 1]  # x^2 + 1
        got = uv_pow_mod([0, 1], p ** 2, f, p)
        # x^(p^2) = x mod any irreducible quadratic (Frobenius)
        assert uv_sub(got, [0, 1], p) == []

    def test_gcd_is_monic(self):
        p = 13
        f = uv_mul([1, 1], [2, 1], p)
        g = uv_mul([1, 1], [5, 7], p)
        assert uv_gcd(f, g, p) == [1, 1]

    def test_divmod_trims_the_divisor(self):
        assert uv_divmod([1, 2, 3], [1, 0], 7) == ([1, 2, 3], [])
        assert uv_divmod([1, 2, 3], [0, 1, 0, 0], 7) == ([2, 3], [1])
        for g in ([], [0], [0, 0]):
            with pytest.raises(ZeroDivisionError):
                uv_divmod([1, 2], g, 7)

    def test_pow_mod_by_a_unit_is_zero(self):
        # every class is 0 modulo a unit, x^0 included
        for n in range(4):
            assert uv_pow_mod([1, 2], n, [3], 7) == []
            assert uv_pow_mod([1, 2], n, [3, 0], 7) == []
        assert uv_pow_mod([1, 2], 0, [0, 1], 7) == [1]


# ---------------------------------------------------------------------------
# packed kernels against schoolbook references written here
# ---------------------------------------------------------------------------

def _strip(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _school_mul(f, g, p):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _strip(out)


def _school_divmod(f, m, p):
    f, m = _strip(f), _strip(m)
    inv = pow(m[-1], -1, p)
    q = [0] * max(len(f) - len(m) + 1, 0)
    while len(f) >= len(m):
        c = f[-1] * inv % p
        k = len(f) - len(m)
        q[k] = c
        for i, b in enumerate(m):
            f[k + i] = (f[k + i] - c * b) % p
        f = _strip(f)
    return _strip(q), f


def _school_mod(f, m, p):
    return _school_divmod(f, m, p)[1]


def _school_pow_mod(f, n, m, p):
    result, base = _school_mod([1], m, p), _school_mod(f, m, p)
    while n:
        if n & 1:
            result = _school_mod(_school_mul(result, base, p), m, p)
        base = _school_mod(_school_mul(base, base, p), m, p)
        n >>= 1
    return result


def _school_gcd(f, g, p):
    f, g = _strip(f), _strip(g)
    while g:
        f, g = g, _school_mod(f, g, p)
    return f


def _school_is_irreducible(f, p):
    """f of degree d divides x^(p^d) - x and shares no factor with
    x^(p^e) - x for any proper divisor e of d."""
    f = _strip(f)
    d = len(f) - 1
    if d < 1:
        return False
    x = _school_mod([0, 1], f, p)
    h = x
    for e in range(1, d):
        h = _school_pow_mod(h, p, f, p)
        diff = _strip([(a - b) % p for a, b in
                       zip(h + [0] * d, x + [0] * d)])
        if d % e == 0 and len(_school_gcd(diff, f, p)) > 1:
            return False
    return _school_pow_mod(h, p, f, p) == x


def _school_irreducibles(p, degrees, rng):
    """Distinct monic irreducibles of the given degrees, by trial."""
    out = []
    for d in degrees:
        while True:
            f = [rng.randrange(p) for _ in range(d)] + [1]
            if f not in out and _school_is_irreducible(f, p):
                out.append(f)
                break
    return out


def _school_prod(fs, p):
    out = [1]
    for f in fs:
        out = _school_mul(out, f, p)
    return out


def _shapes(n, p, rng):
    """Length-n inputs: all p-1 (the largest slot sums), random, and random
    with trailing zeros."""
    top = [p - 1] * n
    rand = [rng.randrange(p) for _ in range(n)]
    zeros = rand[:n - n // 3] + [0] * (n // 3)
    return top, rand, zeros


class TestPackedKernels:
    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_mul_matches_schoolbook(self, p):
        rng = random.Random(p)
        for n in range(81):
            for m in sorted({0, 1, 3, n, 80 - n}):
                fs, gs = _shapes(n, p, rng), _shapes(m, p, rng)
                for f, g in ((fs[0], gs[0]), (fs[1], gs[2]), (fs[2], gs[0])):
                    assert uv_mul(f, g, p) == _school_mul(f, g, p), (n, m)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_pow_mod_matches_schoolbook(self, p):
        rng = random.Random(p)
        for n in range(1, 81):
            m = _shapes(n, p, rng)[n % 2][:n - 1] + [rng.randrange(1, p)]
            f = rng.choice(_shapes(rng.randrange(2 * n + 2), p, rng))
            e = rng.choice([0, 1, 2, rng.randrange(3, 70)])
            assert uv_pow_mod(f, e, m, p) == _school_pow_mod(f, e, m, p), n

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_frobenius_rows_match_schoolbook(self, p):
        rng = random.Random(p)
        for n in (2, 3, 4, 5, 7, 12, 20, 33, 54, 79):
            top, rand, _ = _shapes(n, p, rng)
            for m in (top + [1], rand + [rng.randrange(1, p)]):
                mod = _Modulus(m, p)
                h = _strip(rng.choice(_shapes(n, p, rng)))
                got = mod.frobenius(h)
                assert mod.frobenius([1]) == [1]    # builds rows if h == x
                xp = _school_pow_mod([0, 1], p, m, p)
                rows = [[1], xp]
                while len(rows) < n:
                    rows.append(_school_mod(_school_mul(rows[-1], xp, p),
                                            m, p))
                assert mod.frob == rows, n
                want = [0] * n
                for c, row in zip(h, rows):
                    for i, a in enumerate(row):
                        want[i] = (want[i] + c * a) % p
                assert got == _strip(want), n
                if p <= 101:
                    assert got == _school_pow_mod(h, p, m, p), n

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_irreducibility_matches_schoolbook(self, p):
        rng = random.Random(p)
        top_len = 81 if p <= 3 else 25
        seen = set()
        for n in range(top_len):
            for f in _shapes(n, p, rng):
                got = is_irreducible_univariate(f, p)
                assert got == _school_is_irreducible(f, p), f
                seen.add(got)
        # an irreducible of degree 2 or 3 (no root), then its square
        while True:
            f = [rng.randrange(p) for _ in range(rng.choice([2, 3]))] + [1]
            if all(sum(c * pow(a, i, p) for i, c in enumerate(f)) % p
                   for a in range(min(p, 200))) and _school_is_irreducible(
                       f, p):
                break
        assert is_irreducible_univariate(f, p)
        assert not is_irreducible_univariate(_school_mul(f, f, p), p)
        assert seen == {False, True} or p > 3


class TestSplitKernels:
    @pytest.mark.parametrize("degrees", [(1, 9), (1, 2, 3, 3, 5, 7),
                                         (1, 1, 4, 4, 6)])
    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_distinct_degree_of_known_products(self, p, degrees):
        # the linear factor splits off at d = 1 and leaves a cofactor of
        # degree 9 or more, which later gcds must reduce modulo
        irr = _school_irreducibles(p, degrees, random.Random(p))
        f = _school_prod(irr, p)
        want = [(_school_prod([g for g, e in zip(irr, degrees) if e == d], p),
                 d) for d in sorted(set(degrees))]
        got = coeff._distinct_degree(f, p)
        assert [(g, d) for g, d, _ in got] == want
        xp = _school_pow_mod([0, 1], p, f, p)
        assert all(x == xp for _, _, x in got)

    @pytest.mark.parametrize("d", [1, 3, 4])
    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_equal_degree_split_with_inherited_x_to_the_p(self, p, d,
                                                           monkeypatch):
        # GF(2) has two monic irreducibles of degree 1 and of degree 3,
        # GF(3) three of degree 1
        rng = random.Random(p + d)
        irr = _school_irreducibles(p, [d] * (2 if p <= 3 else 4) + [d + 1],
                                   rng)
        h = _school_prod(irr[:-1], p)
        multiple = _school_mul(h, irr[-1], p)
        seed = rng.randrange(10 ** 6)
        r = random.Random(seed)
        want = coeff._equal_degree_split(h, d, p, r)
        assert sorted(want) == sorted(irr[:-1])
        split = coeff._equal_degree_split

        def spy(f, d, p, rng, xp=None):
            # a wrong x^p would make the split retry forever: fail instead
            assert xp is None or _school_mod(xp, f, p) == _school_pow_mod(
                [0, 1], p, f, p)
            return split(f, d, p, rng, xp)

        monkeypatch.setattr(coeff, "_equal_degree_split", spy)
        for m in (h, multiple):
            r2 = random.Random(seed)
            got = coeff._equal_degree_split(
                h, d, p, r2, _school_pow_mod([0, 1], p, m, p))
            assert got == want and r2.getstate() == r.getstate()

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_divmod_matches_schoolbook(self, p):
        # non-monic divisors, divisors with zero top coefficients,
        # deg f < deg g, and zero dividends (n = 0)
        rng = random.Random(p)
        for n in range(40):
            for m in sorted({1, 2, 5, n // 2 + 1, n, n + 3} - {0}):
                f = rng.choice(_shapes(n, p, rng))
                g = [rng.randrange(p) for _ in range(m - 1)]
                g.append(rng.randrange(1, p))
                want = _school_divmod(f, g, p)
                assert uv_divmod(f, g, p) == want, (n, m)
                assert uv_divmod(f, g + [0] * (n % 3 + 1), p) == want
        assert uv_divmod([], [3, 5], p) == ([], [])


class TestFusedKernels:
    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_mulmod_matches_schoolbook(self, p):
        # monic and non-monic moduli, residues and operands longer than
        # the modulus (the lift's e against a piece g_i)
        rng = random.Random(p)
        for n in range(1, _PACKED_MODULUS_DEGREE + 1):
            top, rand, _ = _shapes(n, p, rng)
            for m in (top + [1], rand + [1], rand + [rng.randrange(1, p)],
                      top + [rng.randrange(1, p)]):
                mod = _Modulus(m, p)
                for _ in range(12):
                    a, b = (rng.choice(_shapes(rng.randrange(n + 1), p, rng))
                            for _ in range(2))
                    want = _school_mod(_school_mul(a, b, p), m, p)
                    assert _mulmod(a, b, mod.neg, p) == want, (n, a, b)
                    a, b = _strip(a), _strip(b)
                    assert mod.mul(a, b) == want, (n, a, b)
                    a, b = (rng.choice(_shapes(rng.randrange(3 * n + 3), p,
                                              rng)) for _ in range(2))
                    assert _mulmod(a, b, mod.neg, p) == _school_mod(
                        _school_mul(a, b, p), m, p), (n, a, b)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_pow_linear_matches_schoolbook(self, p):
        rng = random.Random(p)
        for n in (1, 2, 3, 4, 5, 8, 13):
            top, rand, _ = _shapes(n, p, rng)
            for m in (top + [1], rand + [rng.randrange(1, p)]):
                mod = _Modulus(m, p)
                for c in {0, 1, p - 1, rng.randrange(p)}:
                    for e in (0, 1, 2, 3, rng.randrange(4, 300), p,
                              (p - 1) // 2):
                        assert mod.pow_linear(c, e) == _school_pow_mod(
                            [c, 1], e, m, p), (n, c, e)
            # (x + c)^e is 0 modulo (x + c)^n from e = n on
            c = rng.randrange(p)
            mod = _Modulus(_school_prod([[c, 1]] * n, p), p)
            assert mod.pow_linear(c, n - 1) != []
            assert mod.pow_linear(c, n) == mod.pow_linear(c, n + 2) == []

    @pytest.mark.parametrize("p", [3, 5, 13, 17, 101, 257, 7681, 65537])
    def test_sqrt_of_every_square(self, p):
        # 7681 = 15 * 2^9 + 1 and 65537 = 2^16 + 1 run the Tonelli-Shanks
        # loop many times; 101 = 25 * 2^2 + 1 barely enters it, 3 takes
        # the one power of p = 3 mod 4
        for x in range((p + 1) // 2):
            a = x * x % p
            assert _sqrt_mod(a, p) ** 2 % p == a, (p, a)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_quadratic_split_returns_both_roots(self, p):
        rng = random.Random(p)
        for _ in range(20 if p > 3 else 3):
            r1, r2 = rng.sample(range(p), 2)
            f = _school_mul([-r1 % p, 1], [-r2 % p, 1], p)
            state = rng.getstate()
            got = coeff._equal_degree_split(f, 1, p, rng)
            assert sorted(got) == sorted([[-r1 % p, 1], [-r2 % p, 1]])
            # only GF(2) draws: its one quadratic x^2 + x takes the trace
            assert (rng.getstate() == state) == (p != 2)


# ---------------------------------------------------------------------------
# factorization against an independent oracle, and Kronecker recombination
# ---------------------------------------------------------------------------

class TestSympyOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 7, 101, 32003]),
           st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=24),
           st.lists(st.integers(0, 10 ** 6), max_size=6),
           st.integers(0, 10 ** 6))
    def test_univariate_matches_sympy(self, p, raw, square, seed):
        """f = g * h^2, so repeated factors and their multiplicities show."""
        sympy = pytest.importorskip("sympy")
        h = [c % p for c in square] + [1]
        f = uv_mul([c % p for c in raw[:-1]] + [raw[-1] % (p - 1) + 1],
                   uv_mul(h, h, p), p)
        poly = sympy.Poly(f[::-1], sympy.Symbol("x"), modulus=p)
        lc, parts = poly.factor_list()
        want = sorted((tuple(int(c) % p for c in q.all_coeffs()[::-1]), m)
                      for q, m in parts)
        unit, factors = factor_univariate_list(f, p, random.Random(seed))
        assert unit == int(lc) % p
        assert sorted((tuple(q), m) for q, m in factors) == want
        assert is_irreducible_univariate(f, p) == (
            len(f) > 1 and poly.is_irreducible)


def _piece(R, rng, d):
    """Dense bivariate polynomial of total degree exactly d."""
    x, y = R.gens()
    p = R.p
    f = R.const(rng.randrange(1, p)) * x ** d
    for a in range(d + 1):
        for b in range(d + 1 - a):
            if (a, b) != (d, 0):
                f = f + R.const(rng.randrange(p)) * x ** a * y ** b
    return f


def _sparse_piece(R, rng, deg):
    """Nonconstant polynomial of total degree at most deg with at most four
    terms, the first of them of degree deg."""
    p = R.p
    n = R.nvars
    f = R.zero()
    while f.is_constant():
        e = [0] * n
        for _ in range(deg):
            e[rng.randrange(n)] += 1
        f = R.const(rng.randrange(1, p)) * R.monomial(e)
        for _ in range(rng.randrange(4)):
            e = [0] * n
            for _ in range(rng.randrange(deg + 1)):
                e[rng.randrange(n)] += 1
            f = f + R.const(rng.randrange(p)) * R.monomial(e)
    return f


def _as_factorization(f, found):
    """factor_multivariate's (unit, [(monic factor, multiplicity)]) from a
    list of factors whose product is f."""
    unit, factors = 1, {}
    for g in found:
        unit = unit * g.lead_coeff() % f.ring.p
        factors[g.monic()] = factors.get(g.monic(), 0) + 1
    return unit, sorted(factors.items(),
                        key=lambda t: (t[0].total_degree(), t[0].terms))


def _kronecker(f, bound=KRONECKER_DEGREE_BOUND):
    """factor_multivariate's output for f without monomial content, by
    Kronecker substitution alone."""
    return _as_factorization(f, _kronecker_factors(
        f, f.support_vars(), f.ring.p, random.Random(0), bound))


def _multiply_back(R, unit, factors):
    back = R.const(unit)
    for g, m in factors:
        back = back * g ** m
    return back


class TestKroneckerRecombination:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([7, 101, 32003]),
           st.lists(st.integers(1, 3), min_size=1, max_size=3),
           st.integers(0, 10 ** 6))
    def test_products_of_dense_pieces(self, p, degs, seed):
        rng = random.Random(seed)
        R = make_ring(p, ["x", "y"])
        f = R.const(rng.randrange(1, p))
        for d in degs:
            f = f * _piece(R, rng, d)
        unit, factors = factor_multivariate(f, seed=seed)
        assert all(not g.is_constant() for g, _ in factors)
        back = R.const(unit)
        for g, m in factors:
            back = back * g ** m
        assert back == f
        assert sum(m for _, m in factors) >= len(degs)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 7, 101]), st.integers(0, 10 ** 6))
    def test_line_restriction(self, p, seed):
        """The line, drawn as (a, b) per used variable in order, and f(b + a
        t) term by term; p = 2, 3 often draw a = 0 or b = 0."""
        rng = random.Random(seed)
        R = make_ring(p, ["x", "y", "z"])
        f = R.zero()
        while f.is_zero():
            for _ in range(rng.randrange(1, 6)):
                e = [rng.randrange(4) for _ in range(3)]
                f = f + R.const(rng.randrange(1, p)) * R.monomial(e)
        used = f.support_vars()
        draws = random.Random(seed + 1)
        line = {i: (draws.randrange(p), draws.randrange(p)) for i in used}
        want = []
        for e, c in f.terms:
            piece = [c]
            for i in used:
                a, b = line[i]
                for _ in range(e[i]):
                    piece = _school_mul(piece, [b, a], p)
            want = _strip([(u + v) % p for u, v in zip(
                want + [0] * len(piece), piece + [0] * len(want))])
        got = _restrict_to_line(f, used, p, random.Random(seed + 1))
        assert got == (line, want)

    @pytest.mark.parametrize("p, seed, text", [
        (101, 75, "-7*x^2 - 40*x*y + 27*y^2"),
        (3, 75, "x^4 - x^3*y + x^3 - x^2*y"),
        (101, 31, "-33*x^3*y + 27*x^2*y^2 + 26*x^3 + 43*x^2*y"),
    ])
    def test_degree_sum_check(self, p, seed, text):
        """Here a candidate and its cofactor both decode, but their degrees
        in some variable add up to more than f's: their product wraps around
        in the Kronecker image and is not f."""
        R = make_ring(p, ["x", "y"])
        f = parse_poly(R, text)
        unit, factors = factor_multivariate(f, seed=seed)
        back = R.const(unit)
        for g, m in factors:
            back = back * g ** m
        assert back == f

    @pytest.mark.parametrize("p, text, want", [
        # 23 image pieces: recombination exhausts its budget
        (32003, "(-10399*x*y - 10926*y*z - 787*z^2 - 6757)"
                "*(9962*z^2 - 9027*x - 12753)*(-5256*y*z - 14621*z^2)",
         ["z", "y + 4198*z", "z^2 - 13381*x - 13799",
          "x*y + 11077*y*z - 6475*z^2 - 14359"]),
        # 29 image pieces, more than recombination takes
        (2, "(y^2 + z^2 + y + 1)^2*(x*z + x + z + 1)",
         ["x + 1", "z + 1", "y^2 + z^2 + y + 1"]),
    ])
    def test_refused_image_is_retried_on_a_translate(self, p, text, want):
        """Both inputs were refused from their own Kronecker image; the
        image of a random translate splits into few enough pieces."""
        R = make_ring(p, ["x", "y", "z"])
        f = parse_poly(R, text)
        unit, factors = factor_multivariate(f)
        assert sorted(str(g) for g, _ in factors) == sorted(want)
        back = R.const(unit)
        for g, m in factors:
            back = back * g ** m
        assert back == f

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 7, 101, 32003]), st.integers(2, 3),
           st.integers(1, 3), st.booleans(), st.integers(0, 10 ** 6))
    def test_product_factors_are_the_pieces_factors(self, p, nv, count,
                                                    repeat, seed):
        """Factoring a product gives the union of its pieces' factors,
        whatever the image factorization and the order of the peels."""
        rng = random.Random(seed)
        R = make_ring(p, ["x", "y", "z"][:nv])
        pieces = [_sparse_piece(R, rng, 3 if nv == 2 else 2)
                  for _ in range(count)]
        if repeat:
            pieces.append(pieces[0])
        f = R.one()
        want, want_unit = {}, 1
        try:
            for g in pieces:
                f = f * g
                unit, factors = factor_multivariate(g, seed=seed)
                want_unit = want_unit * unit % p
                for h, m in factors:
                    want[h.terms] = want.get(h.terms, 0) + m
            unit, factors = factor_multivariate(f, seed=seed)
        except KroneckerBoundError as exc:
            # over GF(2) and GF(3) an image can split into more than 26
            # pieces; that refusal is typed, never a wrong factorization
            assert "pieces" in str(exc)
            return
        assert unit == want_unit
        assert {h.terms: m for h, m in factors} == want
        back = R.const(unit)
        for g, m in factors:
            back = back * g ** m
        assert back == f

    def test_lead_digit_test_rejects_and_factor_found(self, monkeypatch):
        """f = (y + x^3)(y^2 + x): x gets the low digit, D = 5, and the
        image t^15 + t^13 + t^6 + t^4 has degree 15, digits (0, 3).  Its
        piece t has digits (1, 0), above f's lead x^0 y^3, so every subset
        of pieces with a nonzero low digit is rejected unformed.  The image
        of y + x^3 is t^3 (t^2 + 1): a true factor whose pieces are so
        rejected one by one still passes as a whole."""
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        f = (y + x ** 3) * (y ** 2 + x)
        verdicts = []
        fit = coeff._lead_digits_fit

        def spy(k, lead, D):
            verdicts.append(fit(k, lead, D))
            return verdicts[-1]

        monkeypatch.setattr(coeff, "_lead_digits_fit", spy)
        unit, factors = _kronecker(f)
        assert unit == 1
        assert sorted(str(g) for g, _ in factors) == ["x^3 + y", "y^2 + x"]
        assert False in verdicts and True in verdicts

    def test_degree_box_shrinks_after_a_peel(self, monkeypatch):
        """x + y + 1 peels off first; the search for the rest of f decodes
        in the box of the quotient (x^2 + y)(x - y + 3), degrees (3, 2).
        The box of f itself, (4, 3), would give the same factors, since it
        stays below D = 5, but lets more candidates decode, each costing a
        complementary product, so only the boxes show the difference."""
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        f = (x ** 2 + y) * (x + y + 1) * (x - y + 3)
        boxes = []
        decode = coeff._decode

        def spy(coeffs, table, box):
            if not boxes or boxes[-1] != box:
                boxes.append(dict(box))
            return decode(coeffs, table, box)

        monkeypatch.setattr(coeff, "_decode", spy)
        unit, factors = _kronecker(f)
        assert [str(g) for g, _ in factors] == [
            "x + y + 1", "x - y + 3", "x^2 + y"]
        assert boxes == [{0: 4, 1: 3}, {0: 3, 1: 2}]

    def test_line_test_gives_up_within_the_bound(self, monkeypatch):
        """A reducible f never has an irreducible restriction: within the
        bound the draws stop once the subset-sum set settles, over it all
        twelve are made before KroneckerBoundError."""
        R = make_ring(101, ["x", "y"])
        x, y = R.gens()
        f = (x + 3 * y + 1) * (x ** 2 - y + 2)
        draws = []
        restrict = coeff._restrict_to_line

        def spy(*args):
            draws.append(1)
            return restrict(*args)

        monkeypatch.setattr(coeff, "_restrict_to_line", spy)
        assert not _line_certifies_irreducible(
            f, [0, 1], 101, random.Random(0), give_up=True)
        assert 2 <= len(draws) < 12
        draws.clear()
        unit, factors = _kronecker(f)
        assert 2 <= len(draws) < 12
        assert sorted(str(g) for g, _ in factors) == [
            "x + 3*y + 1", "x^2 - y + 2"]
        draws.clear()
        # degrees 3 in x and 2 in y: D = 4, weights 1 and 4, 4^2 > 8
        with pytest.raises(KroneckerBoundError):
            _kronecker(f, bound=8)
        assert len(draws) == 12
        # the bound limits Kronecker images only; Hensel lifting needs none
        unit, factors = factor_multivariate(f, bound=8)
        assert sorted(str(g) for g, _ in factors) == [
            "x + 3*y + 1", "x^2 - y + 2"]


def _division_decode(coeffs, D, order, box, nv):
    """The exponent-by-division decoding that _decode's digit table
    replaces: each exponent is rebuilt from its image index."""
    d = {}
    top = dict.fromkeys(box, 0)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        e = [0] * nv
        for i in order:
            e[i] = k % D
            k //= D
        if k:
            return None
        for i, b in box.items():
            if e[i] > b:
                return None
            if e[i] > top[i]:
                top[i] = e[i]
        d[tuple(e)] = c
    return d, top


class TestDigitTable:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_decode_matches_division(self, D, nv, seed):
        """Random images of length up to D^len(order) over random boxes
        on the image's variables, some of them too small to decode."""
        rng = random.Random(seed)
        order = rng.sample(range(nv), rng.randint(1, nv))
        n = rng.randint(1, D ** len(order))
        coeffs = [rng.choice([0, rng.randrange(1, 101)]) for _ in range(n)]
        box = {i: rng.randrange(D) for i in order}
        table = _digit_table(n, D, order, nv)
        assert len(table) == n
        assert (_decode(coeffs, table, box)
                == _division_decode(coeffs, D, order, box, nv))


def _list_hensel_lift(F, lc, pieces, w, p):
    """The linear lift on coefficient lists, as _hensel_lift ran before it
    packed its factors: every partial product has degree < w in t, so
    truncating a product mod s^(j+1) keeps its first (j+1) w slots."""
    inv_lc = pow(lc, -1, p)
    whole = [c * inv_lc % p for c in F[:w]]
    invs = [[c * inv_lc % p
             for c in _uv_inverse(uv_divmod(whole, g, p)[0], g, p)]
            for g in pieces]
    lifted = [list(g) for g in pieces]
    for j in range(1, w):
        low, top = j * w, (j + 1) * w
        prod = lifted[0]
        for G in lifted[1:]:
            prod = uv_mul(prod, G, p)[:top]
        e = uv_sub(F[low:top], [c * lc % p for c in prod[low:top]], p)
        if not e:
            continue
        for G, g, inv in zip(lifted, pieces, invs):
            delta = uv_divmod(uv_mul(e, inv, p), g, p)[1]
            if delta:
                G.extend([0] * (low - len(G)))
                G.extend(delta)
    return lifted


class TestHenselLifting:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_packed_lift_matches_lists(self, p, r):
        """Seeded F with F(t, 0) = lc prod g_i and s^j coefficients of
        t-degree < d; at p = 2^31 - 1 with five pieces the product's slots
        are over 20 bytes wide, past every array typecode."""
        rng = random.Random(p * 10 + r)
        for trial in range(6):
            pieces = []
            while len(pieces) < r:
                # over GF(2) a bad early draw can leave no coprime piece
                # of degree <= 3: start over
                for _ in range(50):
                    g = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
                    if all(len(_school_gcd(g + [1], h, p)) == 1
                           for h in pieces):
                        pieces.append(g + [1])
                        break
                else:
                    pieces = []
            lc = rng.randrange(1, p)
            d = sum(len(g) - 1 for g in pieces)
            w = d + 1
            F = [c * lc % p for c in _school_prod(pieces, p)]
            for j in range(1, w):
                row = ([p - 1] * d if trial == 0 else
                       [rng.randrange(p) for _ in range(d)])
                F += [0] * (j * w - len(F)) + row
            F = _strip(F[:w * w])
            got = _hensel_lift(F, lc, pieces, w, p)
            assert got == _list_hensel_lift(F, lc, pieces, w, p)
            # lc prod G_i = F mod s^w, and G_i = g_i mod s
            prod = [lc]
            for G in got:
                prod = _school_mul(prod, G, p)[:w * w]
            assert _strip(prod) == F
            assert all(G[:w] == g + [0] * (len(G[:w]) - len(g))
                       for G, g in zip(got, pieces))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 101, 32003]),
           st.lists(st.integers(1, 3), min_size=1, max_size=3),
           st.booleans(), st.integers(0, 10 ** 6))
    def test_matches_kronecker(self, p, degs, repeat, seed):
        """Hensel lifting finds the factors Kronecker substitution finds.
        With a repeated factor no restriction is squarefree, so it falls
        back to Kronecker substitution."""
        rng = random.Random(seed)
        R = make_ring(p, ["x", "y"])
        pieces = [_piece(R, rng, d) for d in degs]
        if repeat:
            pieces.append(pieces[0])
        f = R.const(rng.randrange(1, p))
        for g in pieces:
            f = f * g
        assume(len(f.support_vars()) == 2)
        assume(all(min(e[i] for e, _ in f.terms) == 0 for i in (0, 1)))
        fallbacks = []
        kronecker = coeff._kronecker_factors

        def spy(*args):
            fallbacks.append(1)
            return kronecker(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coeff, "_kronecker_factors", spy)
            try:
                got = _hensel_factors(f, [0, 1], p, random.Random(seed),
                                      KRONECKER_DEGREE_BOUND)
            except KroneckerBoundError as exc:
                # only the fallback can refuse here: over GF(2) and GF(3)
                # an image can split into more than 26 pieces
                assert fallbacks and "pieces" in str(exc)
                return
        if repeat:
            assert fallbacks
        got = _as_factorization(f, got)
        assert _multiply_back(R, *got) == f
        try:
            want = _kronecker(f)
        except KroneckerBoundError as exc:
            assert "pieces" in str(exc)
            return
        assert got == want

    def test_irreducible_with_a_split_restriction(self, monkeypatch):
        """y^3 - x^2 + x y is irreducible, but the first usable line of seed
        0 restricts it to three linear pieces: recombination runs, finds
        no factor, and f comes back whole."""
        R = make_ring(101, ["x", "y"])
        f = parse_poly(R, "y^3 - x^2 + x*y")
        peels = []
        peel = coeff._peel

        def spy(pieces, *args):
            out = peel(pieces, *args)
            peels.append((len(pieces), out))
            return out

        monkeypatch.setattr(coeff, "_peel", spy)
        unit, factors = factor_multivariate(f)
        assert (unit, factors) == (1, [(f, 1)])
        assert peels == [(3, ([], None))]
        assert _kronecker(f) == (unit, factors)

    def test_input_kronecker_refuses(self, monkeypatch):
        """The Kronecker image of this product of six factors over GF(101)
        splits into 30 pieces, more than Kronecker recombination takes; a
        line restriction has at most 10, its degree.  Kronecker gets there
        only through the image of a translate."""
        R = make_ring(101, ["x", "y"])
        texts = ["-15*x*y - 8", "-17*x^2 - 9*x + 10*y - 13",
                 "25*x*y - 15*x - 32*y + 3",
                 "7*x^2 + 34*x*y - 23*y^2 - 42*y - 25", "-15*x + 39*y",
                 "-47*x + 45*y"]
        f = R.one()
        want, want_unit = {}, 1
        for text in texts:
            g = parse_poly(R, text)
            f = f * g
            unit, factors = factor_multivariate(g)
            want_unit = want_unit * unit % 101
            for h, m in factors:
                want[h] = want.get(h, 0) + m
        with monkeypatch.context() as mp:
            mp.setattr(coeff, "_KRONECKER_SHIFTS", 0)
            with pytest.raises(KroneckerBoundError, match="pieces"):
                _kronecker(f)
        unit, factors = factor_multivariate(f)
        assert (unit, dict(factors)) == (want_unit, want)
        assert _multiply_back(R, unit, factors) == f
        assert _kronecker(f) == (unit, factors)

    def test_budget_exhausted(self, monkeypatch):
        R = make_ring(101, ["x", "y"])
        f = parse_poly(R, "y^3 - x^2 + x*y")
        monkeypatch.setattr(coeff, "_RECOMBINE_BUDGET", 2)
        with pytest.raises(KroneckerBoundError, match="budget"):
            factor_multivariate(f)

    def test_total_degree_one_needs_no_draw(self, monkeypatch):
        R = make_ring(7, ["x", "y"])
        f = parse_poly(R, "3*x + 2*y + 1")
        monkeypatch.setattr(coeff, "_affine_map", None)
        assert factor_multivariate(f) == (3, [(f * 5, 1)])

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_inverse_mod(self, p):
        rng = random.Random(p)
        for _ in range(20):
            m = [rng.randrange(p) for _ in range(rng.randint(1, 8))] + [
                rng.randrange(1, p)]
            a = _strip([rng.randrange(p) for _ in range(rng.randint(1, 12))])
            if not a or len(uv_gcd(a, m, p)) > 1:
                with pytest.raises(ZeroDivisionError):
                    _uv_inverse(a, m, p)
                continue
            inv = _uv_inverse(a, m, p)
            assert len(inv) < len(m)
            assert _school_divmod(_school_mul(a, inv, p), m, p)[1] == [1]
