"""Classical sequences: Stirling numbers, Bernoulli, Euler, tangent numbers, totient.

Stirling triangles are memoized as growing row tables; a lock keeps row
extension idempotent under concurrent use.  The weighted coefficients of
(e^t+1)^{1-n} are one second-kind Stirling sum, `_exp_plus_one_numerators`;
its n = 2 case, the Euler-polynomial values E_j(0), is cached per truncation
and gives the Bernoulli, Euler and tangent numbers as integer sums, with no
series.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import IndexParity
from .series import _exact, truncation_for

_lock = threading.Lock()

_STIRLING2_ROWS: list[list[int]] = [[1]]
_STIRLING1_ROWS: list[list[int]] = [[1]]


def _extend_triangle(rows: list[list[int]], n: int, weight) -> None:
    with _lock:
        while len(rows) <= n:
            i = len(rows)
            prev = rows[-1]
            row = [0] * (i + 1)
            for j in range(1, i + 1):
                row[j] = prev[j - 1] + (weight(i, j) * prev[j] if j < i else 0)
            rows.append(row)


def stirling2(n: int, m: int) -> int:
    """Set-partition count S(n, m): S(n,m) = S(n-1,m-1) + m*S(n-1,m), S(0,0) = 1."""
    if n < 0 or m < 0 or m > n:
        return 0
    if n >= len(_STIRLING2_ROWS):
        _extend_triangle(_STIRLING2_ROWS, n, lambda i, j: j)
    return _STIRLING2_ROWS[n][m]


def stirling1(n: int, m: int) -> int:
    """Unsigned first-kind Stirling number: coefficients of the rising factorial.

    x(x+1)...(x+n-1) = sum_m s(n,m) x^m, via s(n,m) = s(n-1,m-1) + (n-1)s(n-1,m).
    """
    if n < 0 or m < 0 or m > n:
        return 0
    if n >= len(_STIRLING1_ROWS):
        _extend_triangle(_STIRLING1_ROWS, n, lambda i, j: i - 1)
    return _STIRLING1_ROWS[n][m]


def _exp_plus_one_numerators(n: int, m: int) -> list[int]:
    """Integers N_0..N_m with N_i / 2^(n+i) the weighted coefficients of (e^t+1)^{1-n}.

    e^t + 1 = 2(1 + u) with u = (e^t-1)/2, so (e^t+1)^{1-n} = sum_r C(1-n,r)
    2^{1-n-r} (e^t-1)^r, and (e^t-1)^r has weighted coefficients r! S(i,r):
    N_i = sum_r r! C(1-n,r) S(i,r) 2^{i+1-r}, with the generalized binomial,
    so r! C(1-n,r) is the falling factorial (1-n)(-n)...(2-n-r).
    """
    falling = [1]
    for r in range(m):
        falling.append(falling[-1] * (1 - n - r))
    return [sum(falling[r] * stirling2(i, r) << (i + 1 - r) for r in range(i + 1)) for i in range(m + 1)]


@lru_cache(maxsize=None)
def _euler_at_zero(order: int) -> tuple[int, ...]:
    """2^j E_j(0) for j <= order, E_j(0) the weighted coefficients of 2 / (e^t + 1) = 2 (e^t+1)^{-1}."""
    return tuple(numerator >> 1 for numerator in _exp_plus_one_numerators(2, order))


def bernoulli(n: int) -> Fraction:
    """B_n, the weighted coefficient of t / (e^t - 1), as -n E_{n-1}(0) / (2 (2^n - 1)) for n >= 1; B_1 = -1/2."""
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n == 0:
        return Fraction(1)
    return Fraction(-n * _euler_at_zero(truncation_for(n))[n - 1], (1 << n) * ((1 << n) - 1))


def euler_number(n: int) -> int:
    """E_n, the weighted coefficient of 1 / cosh t, as 2^n E_n(1/2) = sum_j C(n,j) 2^j E_j(0); zero at odd n."""
    if n < 0:
        raise ValueError("Euler-number index must be non-negative")
    at_zero = _euler_at_zero(truncation_for(n))
    return sum(comb(n, j) * at_zero[j] for j in range(n + 1))


def euler_polynomial(m: int, x) -> Fraction:
    """E_m(x) = sum_j C(m,j) x^(m-j) E_j(0), from 2 e^{xt} / (e^t + 1), at rational x; a float x is refused."""
    if m < 0:
        raise ValueError("Euler-polynomial index must be non-negative")
    x = _exact(x, "x")
    at_zero = _euler_at_zero(truncation_for(m))
    return sum((comb(m, j) * x ** (m - j) * Fraction(at_zero[j], 1 << j) for j in range(m + 1)), Fraction(0))


def tangent(kind: str, n: int) -> int:
    """Tangent numbers: T at odd index 2n+1, tilde at even index.

    tanh t = 1 - 2 / (e^{2t} + 1) = sum (-1)^n T_{2n+1} t^{2n+1} / (2n+1)!, so
    T_{2n+1} = (-1)^{n+1} 2^{2n+1} E_{2n+1}(0).  The tilde variant is 1 at
    index 0 and (-1)^{n-1} T_{2n+1} at index 2n, which packages 1 + tanh^2 t.
    """
    if kind == "T":
        if n < 1 or n % 2 == 0:
            raise IndexParity("tangent numbers T live at odd index 2n+1")
        return (-1) ** ((n + 1) // 2) * _euler_at_zero(truncation_for(n))[n]
    if kind == "tilde":
        if n < 0 or n % 2 == 1:
            raise IndexParity("tilde tangent numbers live at even index 2n")
        if n == 0:
            return 1
        half = n // 2
        return (-1) ** (half - 1) * tangent("T", n + 1)
    raise ValueError(f"unknown tangent kind {kind!r}")


def totient(m: int) -> int:
    """Euler's totient by trial-division factorization."""
    if m < 1:
        raise ValueError("totient is defined for m >= 1")
    result = m
    x = m
    p = 2
    while p * p <= x:
        if x % p == 0:
            result -= result // p
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        result -= result // x
    return result


# Miller-Rabin to the first 13 prime bases is exact below this bound (Sorenson and Webster, 2015)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases `_BASES`, exact below `PRIME_TEST_LIMIT`."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"primality of {n} is decided exactly only below {PRIME_TEST_LIMIT}")
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n is a strong probable prime to base a when a^d = 1 or a^(d 2^r) = -1 mod n for some r < s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime(p)]
