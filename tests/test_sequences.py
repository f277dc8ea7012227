"""Stirling triangles, Bernoulli/Euler/tangent numbers, totient."""

from fractions import Fraction as F
from functools import lru_cache
from math import comb, factorial, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyseq import (
    IndexParity,
    bernoulli,
    euler_number,
    euler_polynomial,
    poly_bernoulli,
    stirling1,
    stirling2,
    tangent,
    totient,
)
from polyseq import sequences
from polyseq.sequences import is_prime, primes_upto
from polyseq.series import constant, cosh_series, exp_scaled, tanh_series, truncation_for

from series_reference import monomial


def _partitions_into_blocks(n, m):
    """Brute-force oracle: partitions of an n-set into exactly m nonempty blocks."""
    if n == 0:
        return 1 if m == 0 else 0

    def rec(items, blocks):
        if not items:
            return 1 if len(blocks) == m else 0
        if len(blocks) > m:
            return 0
        first, rest = items[0], items[1:]
        total = 0
        for i in range(len(blocks)):
            total += rec(rest, blocks[:i] + [blocks[i] + [first]] + blocks[i + 1 :])
        total += rec(rest, blocks + [[first]])
        return total

    return rec(list(range(n)), [])


def test_stirling2_boundary_and_partitions():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(0, 3) == 0
    assert stirling2(4, 2) == 7
    for n in range(7):
        for m in range(n + 2):
            assert stirling2(n, m) == _partitions_into_blocks(n, m)


def test_stirling2_matches_alternating_sum():
    for n in range(13):
        for m in range(n + 1):
            explicit = F((-1) ** m, factorial(m)) * sum(
                (-1) ** l * comb(m, l) * l**n for l in range(m + 1)
            )
            assert stirling2(n, m) == explicit


def test_stirling1_boundary_and_diagonal():
    assert stirling1(0, 0) == 1
    assert stirling1(6, 1) == 120
    for n in range(11):
        assert stirling1(n, n) == 1
    assert stirling1(3, 5) == 0


def test_stirling1_rising_factorial_identity():
    xs = [F(x) for x in (-3, -2, -1, 0, 1, 2, 3, 5, 7)]
    for n in range(11):
        for x in xs:
            rising = prod((x + i for i in range(n)), start=F(1))
            assert sum(stirling1(n, m) * x**m for m in range(n + 1)) == rising


def test_stirling1_vanishing_product_pins_convention():
    # sum_{j<=m} (-1)^{j+1} s(m+1,j+1) x^{j+1} is the rising factorial at -x,
    # i.e. (-x)(-x+1)...(-x+m); it vanishes for odd x = 3, 5, 7 once m >= x
    for x in (3, 5, 7):
        for m in range(7):
            lhs = sum(
                (-1) ** (j + 1) * stirling1(m + 1, j + 1) * x ** (j + 1)
                for j in range(m + 1)
            )
            rhs = prod(-x + r for r in range(m + 1))
            assert lhs == rhs
            if m >= x:
                assert lhs == 0


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(3) == 0
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)
    for n in range(3, 22, 2):
        assert bernoulli(n) == 0


def test_bernoulli_satisfies_binomial_recurrence():
    # sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1 under the B_1 = -1/2 convention
    for n in range(1, 21):
        assert sum(comb(n + 1, j) * bernoulli(j) for j in range(n + 1)) == 0


def test_euler_numbers():
    assert euler_number(0) == 1
    assert euler_number(1) == 0
    assert euler_number(2) == -1
    assert [euler_number(n) for n in (4, 6, 8)] == [5, -61, 1385]
    assert all(euler_number(n) == 0 for n in range(1, 13, 2))


def test_euler_polynomial_values():
    for x in (0, F(1, 3), -2):
        assert euler_polynomial(0, x) == 1
    assert euler_polynomial(1, 0) == F(-1, 2)


def test_euler_polynomial_takes_exact_x_only():
    # E_2(x) = x^2 - x
    assert euler_polynomial(2, F(1, 10)) == euler_polynomial(2, "1/10") == F(-9, 100)
    with pytest.raises(TypeError, match="float"):
        euler_polynomial(2, 0.1)


def test_euler_polynomial_functional_equation():
    # E_m(x) + E_m(x+1) = 2 x^m pins the whole polynomial family
    for m in range(9):
        for x in (F(0), F(1, 2), F(-2), F(3, 7)):
            assert euler_polynomial(m, x) + euler_polynomial(m, x + 1) == 2 * x**m


def _old_euler_polynomial(m, x):
    """E_m(x) as the series product 2 e^{xt} / (e^t + 1) it was read from before."""
    order = truncation_for(m)
    return ((exp_scaled(x, order) * 2) / (exp_scaled(1, order) + 1)).egf(m)


def test_euler_polynomial_equals_the_series_product():
    for x in (F(0), F(1), F(-3), F(1, 2), F(-5, 7), F(22, 3)):
        for m in range(41):
            assert euler_polynomial(m, x) == _old_euler_polynomial(m, x), (m, x)


def test_euler_polynomial_keeps_one_cache_entry_per_order():
    # a sweep over x keeps the weighted coefficients of 2 / (e^t + 1) once per order, not a series per x
    sequences._euler_at_zero.cache_clear()
    for i in range(300):
        euler_polynomial(6, F(i, 7))
    assert sequences._euler_at_zero.cache_info().currsize == 1
    euler_polynomial(30, 2)
    assert sequences._euler_at_zero.cache_info().currsize == 2


def test_euler_polynomial_links_to_euler_numbers():
    for m in range(9):
        assert euler_polynomial(m, F(1, 2)) * 2**m == euler_number(m)


def test_tangent_values():
    assert tangent("T", 1) == 1
    assert tangent("T", 3) == 2
    assert tangent("T", 5) == 16
    assert tangent("T", 7) == 272
    assert tangent("tilde", 0) == 1
    assert tangent("tilde", 6) == 272


# the series that `bernoulli`, `euler_number`, `tangent` and `_euler_at_zero` read before they became
# integer sums over one table of Euler-polynomial values, kept as references


@lru_cache(maxsize=None)
def _bernoulli_series(order):
    t = monomial(order + 1)
    return t / (exp_scaled(1, order + 1) - 1)


def _series_bernoulli(n):
    return _bernoulli_series(truncation_for(n)).egf(n)


@lru_cache(maxsize=None)
def _sech_series(order):
    return constant(1, order) / cosh_series(order)


def _series_euler_number(n):
    return _sech_series(truncation_for(n)).egf(n)


def _series_tangent(n):
    half = (n - 1) // 2
    return (-1) ** half * tanh_series(truncation_for(n)).egf(n)


@lru_cache(maxsize=None)
def _series_euler_at_zero(order):
    series = constant(2, order) / (exp_scaled(1, order) + 1)
    return tuple(series.egf(j) for j in range(order + 1))


def test_integer_sums_equal_the_series_they_replaced():
    for n in range(65):
        assert bernoulli(n) == _series_bernoulli(n), n
        assert euler_number(n) == _series_euler_number(n), n
        if n % 2:
            assert tangent("T", n) == _series_tangent(n), n
    # 2^j E_j(0) at every truncation an index n <= 64 reaches
    for order in sorted({truncation_for(n) for n in range(65)}):
        scaled = tuple(2**j * v for j, v in enumerate(_series_euler_at_zero(order)))
        assert sequences._euler_at_zero(order) == scaled, order


def test_bernoulli_is_the_poly_bernoulli_number_at_weight_one():
    # B_n^{(1)} = (-1)^n B_n, as Li_1(1 - e^{-t}) = t; the poly-Bernoulli number is a Stirling closed form
    for n in range(131):
        assert bernoulli(n) == (-1) ** n * poly_bernoulli("B", n, 1), n


def test_euler_and_tangent_numbers_are_ints():
    for n in range(0, 40):
        assert type(euler_number(n)) is int
    for n in range(1, 40, 2):
        assert type(tangent("T", n)) is int
    for n in range(0, 40, 2):
        assert type(tangent("tilde", n)) is int


def test_tangent_parity_errors():
    with pytest.raises(IndexParity):
        tangent("T", 4)
    with pytest.raises(IndexParity):
        tangent("tilde", 3)
    with pytest.raises(ValueError):
        tangent("cot", 3)


def test_tangent_bernoulli_identity():
    # T_{2n+1} = (-1)^n 2^{2n+2} (2^{2n+2} - 1) B_{2n+2} / (2n+2); the
    # sign-and-shift-free variant fails already at T_3, so this corrected
    # form is the one asserted
    for n in range(1, 7):
        lhs = tangent("T", 2 * n + 1)
        rhs = (
            (-1) ** n
            * F(2 ** (2 * n + 2) * (2 ** (2 * n + 2) - 1))
            * bernoulli(2 * n + 2)
            / (2 * n + 2)
        )
        assert lhs == rhs


def test_tilde_tangent_generates_one_plus_tanh_squared():
    order = 12
    th = tanh_series(order)
    f = th * th + 1
    for n in range(order + 1):
        want = tangent("tilde", n) if n % 2 == 0 else 0
        assert f.egf(n) == want


def test_totient():
    assert totient(9) == 6
    assert totient(1) == 1
    for p in (2, 3, 5, 7, 11, 13):
        assert totient(p) == p - 1
    assert totient(27) == 18
    assert totient(49) == 42
    with pytest.raises(ValueError):
        totient(0)


def test_primes():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(97)
    assert not is_prime(1)
    assert not is_prime(91)


def _trial_division(n):
    return n >= 2 and all(n % p for p in range(2, isqrt(n) + 1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-5, 1 << 17), st.integers(1 << 16, 1 << 34)))
def test_is_prime_agrees_with_trial_division(n):
    # one Miller-Rabin path: a small n is decided by the division by the bases, a larger one by the rounds
    assert is_prime(n) == _trial_division(n)


def test_is_prime_refuses_strong_pseudoprimes_and_decides_large_primes():
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7; 3825123056546413051 to every prime
    # base up to 23; 318665857834031151167461 to every prime base up to 37, so it takes the 13th base, 41
    for composite in (3215031751, 3825123056546413051, 318665857834031151167461, 3215031751 * 1000003):
        assert not is_prime(composite), composite
    for prime in (65537, 1000000007, 2**61 - 1, 2**64 - 59, 2**80 - 65, 10**24 + 7):
        assert is_prime(prime), prime
    assert sequences.PRIME_TEST_LIMIT > 10**24 + 7
    assert not is_prime(sequences.PRIME_TEST_LIMIT - 1)
    with pytest.raises(ValueError, match="decided exactly only below"):
        is_prime(sequences.PRIME_TEST_LIMIT)


def test_stirling2_mod_p_column_pattern():
    # S(n, ap-1) mod p is binomial(c-1, a-1) when n = a-1+c(p-1) with c >= a, else 0
    for p in (3, 5, 7):
        for a in (1, 2):
            for n in range(21):
                want = 0
                if (n - a + 1) % (p - 1) == 0:
                    c = (n - a + 1) // (p - 1)
                    if c >= a:
                        want = comb(c - 1, a - 1) % p
                assert stirling2(n, a * p - 1) % p == want


def test_scaled_stirling2_euler_congruence():
    # j! S(n,j) mod p^N depends on n only through n mod phi(p^N), once n >= N
    for p, N in ((3, 1), (3, 2), (5, 1), (5, 2)):
        mod = p**N
        phi = totient(mod)
        upper = N + 2 * phi
        for j in range(9):
            for n in range(N, upper + 1):
                for m in range(n + phi, upper + 1, phi):
                    assert (
                        factorial(j) * stirling2(n, j) % mod
                        == factorial(j) * stirling2(m, j) % mod
                    )
