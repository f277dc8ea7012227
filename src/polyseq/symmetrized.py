"""Symmetrized poly-Bernoulli and polycosecant numbers.

Stirling-first-kind-weighted sums of polynomial (shifted) family values that
restore full duality between the order index and the weight at every
symmetrization level n.  Level 0 and level 1 collapse to the plain B- and
C-variants; the closed forms are manifestly symmetric, the definitional
routes are not, which is what makes the duality checks meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import series as se
from .errors import MethodDomain
from .families import poly_bernoulli_polynomial
from .sequences import stirling1, stirling2


@lru_cache(maxsize=None)
def _sym_bernoulli_bivariate(n: int, orders: tuple[int, int]) -> se.BiSeries:
    ex = se.biseries_exp(1, 0, orders)
    ey = se.biseries_exp(0, 1, orders)
    exy = se.biseries_exp(1, 1, orders)
    return (exy * factorial(n)) / (ex + ey - exy) ** (n + 1)


def sym_bernoulli_bivariate(n: int, orders: tuple[int, int] | int) -> se.BiSeries:
    """n! e^{x+y} / (e^x + e^y - e^{x+y})^{n+1}; weighted coefficients are the
    symmetrized poly-Bernoulli numbers."""
    if isinstance(orders, int):
        orders = (orders, orders)
    return _sym_bernoulli_bivariate(n, orders)


def sym_poly_bernoulli(m: int, l: int, n: int, method: str = "closed_form") -> Fraction:
    """Symmetrized poly-Bernoulli number at order m, weight -l, level n.

    definition: sum_{j<=n} s(n,j) B_m^{(-l-j)}(n) (the polynomial is evaluated
    at x = n exactly; first-kind Stirling numbers vanish past j = n).
    closed_form: sum_j n!(j!)^2 C(j+n,n) S(l+1,j+1) S(m+1,j+1).
    biseries: coefficient extraction from the two-variable function.
    """
    if min(m, l, n) < 0:
        raise ValueError("indices must be non-negative")
    if method == "definition":
        return sum(
            (
                stirling1(n, j) * poly_bernoulli_polynomial(m, -(l + j), n)
                for j in range(n + 1)
                if stirling1(n, j)
            ),
            Fraction(0),
        )
    if method == "closed_form":
        total = Fraction(0)
        for j in range(min(l, m) + 1):
            total += (
                factorial(n)
                * factorial(j) ** 2
                * comb(j + n, n)
                * stirling2(l + 1, j + 1)
                * stirling2(m + 1, j + 1)
            )
        return total
    if method == "biseries":
        size = ((max(l, m, 4) + 3) // 4) * 4
        return sym_bernoulli_bivariate(n, size).egf(l, m)
    raise MethodDomain(f"unknown symmetrized poly-Bernoulli method {method!r}")


@lru_cache(maxsize=None)
def _copoly_hat_series(l: int, n: int, order: int) -> se.Series:
    """Even part of (e^t+1)^{1-n} Li_{-l}(tanh(t/2)) / sinh t.

    The factor (e^t+1)^{1-n} multiplies for n = 0 and divides for n >= 2;
    the divisor's constant term 2^{n-1} is never zero.
    """
    level1 = se.polylog_apply(1, -l, se.tanh_half(order + 1))
    g = level1 / se.sinh_series(order + 1)
    if n == 0:
        g = g * (se.exp_scaled(1, order) + 1)
    elif n >= 2:
        g = g / (se.exp_scaled(1, order) + 1) ** (n - 1)
    return (g + g.mirror()) * Fraction(1, 2)


def copoly_hat(m: int, l: int, n: int) -> Fraction:
    """Hat-numbers: weighted coefficients of the symmetrized cosecant kernel."""
    if min(m, l, n) < 0:
        raise ValueError("indices must be non-negative")
    return _copoly_hat_series(l, n, se.truncation_for(m)).egf(m)


def sym_polycosecant(m: int, l: int, n: int, method: str = "closed_form") -> Fraction:
    """Symmetrized polycosecant number; zero at odd order index m.

    definition: sum_{j<=n} s(n,j) hat-number at weight -(l+j).
    closed_form: (n!/2^{n+1}) sum_j ((j!)^2/2^{j-1}) C(j+n,n) S(m+1,j+1) S(l+1,j+1).
    """
    if min(m, l, n) < 0:
        raise ValueError("indices must be non-negative")
    if m % 2 == 1:
        return Fraction(0)
    if method == "definition":
        return sum(
            (
                stirling1(n, j) * copoly_hat(m, l + j, n)
                for j in range(n + 1)
                if stirling1(n, j)
            ),
            Fraction(0),
        )
    if method == "closed_form":
        total = Fraction(0)
        for j in range(min(m, l) + 1):
            # (j!)^2 / 2^{j-1}, written with a non-negative power of two
            total += (
                Fraction(2 * factorial(j) ** 2, 2**j)
                * comb(j + n, n)
                * stirling2(m + 1, j + 1)
                * stirling2(l + 1, j + 1)
            )
        return total * Fraction(factorial(n), 2 ** (n + 1))
    raise MethodDomain(f"unknown symmetrized polycosecant method {method!r}")


@lru_cache(maxsize=None)
def sym_cosecant_halves(n: int, orders: tuple[int, int]) -> tuple[se.BiSeries, se.BiSeries]:
    """The two summands n! e^{+-t+y} / (1 + e^{+-t} + e^y - e^{+-t+y})^{n+1}."""
    one = se.biseries_constant(1, orders)
    ey = se.biseries_exp(0, 1, orders)
    halves = []
    for sign in (1, -1):
        et = se.biseries_exp(sign, 0, orders)
        ety = se.biseries_exp(sign, 1, orders)
        halves.append((ety * factorial(n)) / (one + et + ey - ety) ** (n + 1))
    return tuple(halves)


def sym_cosecant_bivariate(n: int, orders: tuple[int, int] | int) -> se.BiSeries:
    """Sum of the two halves.

    Its weighted coefficients are the level-n symmetrized polycosecant numbers
    (the hat-numbers already summed against first-kind Stirling weights), not
    the hat-numbers themselves: at level 1 the (t^2, y^0) coefficient is
    half of D_2^{(-1)} = 1/2 while the corresponding hat-number vanishes.
    """
    if isinstance(orders, int):
        orders = (orders, orders)
    first, second = sym_cosecant_halves(n, orders)
    return first + second
