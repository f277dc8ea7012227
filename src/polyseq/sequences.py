"""Classical sequences: Stirling numbers, Bernoulli, Euler, tangent numbers, totient.

Stirling triangles are memoized as growing row tables; a lock keeps row
extension idempotent under concurrent use.  Rational-valued sequences are
extracted from the series engine and cached.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache

from . import series as se
from .errors import IndexParity

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


def _integral(value: Fraction, name: str) -> int:
    """The integer `value`; a fraction here is an internal bug, so no PolyseqError."""
    if value.denominator != 1:
        raise AssertionError(f"{name} came out as the non-integer {value}")
    return value.numerator


@lru_cache(maxsize=None)
def _bernoulli_series(order: int) -> se.Series:
    t = se.monomial(order + 1)
    return t / (se.exp_scaled(1, order + 1) - 1)


def bernoulli(n: int) -> Fraction:
    """B_n as the weighted coefficient of t / (e^t - 1); B_1 = -1/2."""
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    return _bernoulli_series(se.truncation_for(n)).egf(n)


@lru_cache(maxsize=None)
def _sech_series(order: int) -> se.Series:
    return se.constant(1, order) / se.cosh_series(order)


def euler_number(n: int) -> int:
    """E_n from 1 / cosh t; integer valued, zero at odd n."""
    if n < 0:
        raise ValueError("Euler-number index must be non-negative")
    return _integral(_sech_series(se.truncation_for(n)).egf(n), f"E_{n}")


@lru_cache(maxsize=None)
def _euler_polynomial_series(x: Fraction, order: int) -> se.Series:
    return (se.exp_scaled(x, order) * 2) / (se.exp_scaled(1, order) + 1)


def euler_polynomial(m: int, x) -> Fraction:
    """E_m(x) from 2 e^{xt} / (e^t + 1), evaluated at rational x."""
    if m < 0:
        raise ValueError("Euler-polynomial index must be non-negative")
    return _euler_polynomial_series(Fraction(x), se.truncation_for(m)).egf(m)


def tangent(kind: str, n: int) -> int:
    """Tangent numbers: T at odd index 2n+1 from the tan series, tilde at even index.

    tanh t = sum (-1)^n T_{2n+1} t^{2n+1} / (2n+1)!, so T flips the sign of the
    tanh coefficient.  The tilde variant is 1 at index 0 and (-1)^{n-1} T_{2n+1}
    at index 2n, which packages 1 + tanh^2 t.
    """
    if kind == "T":
        if n < 1 or n % 2 == 0:
            raise IndexParity("tangent numbers T live at odd index 2n+1")
        half = (n - 1) // 2
        return _integral((-1) ** half * se.tanh_series(se.truncation_for(n)).egf(n), f"T_{n}")
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


def is_prime(n: int) -> bool:
    """Trial division; desk-scale inputs only."""
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def primes_upto(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime(p)]
