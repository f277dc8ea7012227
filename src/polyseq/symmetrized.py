"""Symmetrized poly-Bernoulli and polycosecant numbers.

Stirling-first-kind-weighted sums of polynomial (shifted) family values that
restore full duality between the order index and the weight at every
symmetrization level n.  Level 0 and level 1 collapse to the plain B- and
C-variants; the closed forms are manifestly symmetric, the definitional
routes are not, which is what makes the duality checks meaningful.  Both
closed forms are integer power-basis rows read by `families._evaluate_row`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import families as fa
from . import series as se
from .errors import MethodDomain
from .sequences import stirling1, stirling2


def sym_bernoulli_bivariate(n: int, orders: tuple[int, int] | int) -> se.BiSeries:
    """n! e^{x+y} / (e^x + e^y - e^{x+y})^{n+1}; weighted coefficients are the
    symmetrized poly-Bernoulli numbers."""
    if isinstance(orders, int):
        orders = (orders, orders)
    return _sym_bernoulli_bivariate(n, orders)


@lru_cache(maxsize=None)
def _sym_bernoulli_bivariate(n: int, orders: tuple[int, int]) -> se.BiSeries:
    ex = se.biseries_exp(1, 0, orders)
    ey = se.biseries_exp(0, 1, orders)
    exy = se.biseries_exp(1, 1, orders)
    return (exy * factorial(n)) / (ex + ey - exy) ** (n + 1)


def _sym_row(m: int, n: int, dyadic: bool) -> fa.Row:
    """Both closed forms at order m, level n as one row in b^l: sym-D when dyadic.

    Each is sum_j (j+n)! S(m+1,j+1) j!S(l+1,j+1), sym-D's term j over 2^(n+j)
    (here over 2^(n+m)), and j!S(l+1,j+1) = sum_b (-1)^(j+1-b) C(j,b-1) b^l.
    """
    w = [factorial(j + n) * stirling2(m + 1, j + 1) * (2 ** (m - j) if dyadic else 1) for j in range(m + 1)]
    return fa._row(
        0,
        2 ** (n + m) if dyadic else 1,
        (
            (b, sum((-1) ** (j + 1 - b) * comb(j, b - 1) * w[j] for j in range(b - 1, m + 1)))
            for b in range(1, m + 2)
        ),
    )


def _first_kind_sum(n: int, l: int, value) -> Fraction:
    """sum_{j<=n} s(n,j) value(l+j); first-kind Stirling numbers vanish past j = n."""
    return sum(
        (stirling1(n, j) * value(l + j) for j in range(n + 1) if stirling1(n, j)),
        Fraction(0),
    )


def sym_poly_bernoulli(m: int, l: int, n: int, method: str = "closed_form") -> Fraction:
    """Symmetrized poly-Bernoulli number at order m, weight -l, level n.

    definition: sum_{j<=n} s(n,j) B_m^{(-l-j)}(n) (the polynomial is evaluated
    at x = n exactly).
    closed_form: sum_j n!(j!)^2 C(j+n,n) S(l+1,j+1) S(m+1,j+1).
    biseries: coefficient extraction from the two-variable function.
    """
    if min(m, l, n) < 0:
        raise ValueError("indices must be non-negative")
    if method == "definition":
        return _first_kind_sum(n, l, lambda w: fa.poly_bernoulli_polynomial(m, -w, n))
    if method == "closed_form":
        return fa._evaluate_row(_sym_row(m, n, False), (-l,))[0]
    if method == "biseries":
        size = ((max(l, m, 4) + 3) // 4) * 4
        return sym_bernoulli_bivariate(n, (size, size)).egf(l, m)
    raise MethodDomain(f"unknown symmetrized poly-Bernoulli method {method!r}")


@lru_cache(maxsize=None)
def _copoly_hat_series(l: int, n: int, order: int) -> se.Series:
    """Even part of (e^t+1)^{1-n} Li_{-l}(tanh(t/2)) / sinh t.

    The factor (e^t+1)^{1-n} multiplies for n = 0 and divides for n >= 2;
    the divisor's constant term 2^{n-1} is never zero.
    """
    g = fa._series(fa.Family.TILDE_D, -l, order)
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
    if method not in ("definition", "closed_form"):
        raise MethodDomain(f"unknown symmetrized polycosecant method {method!r}")
    if m % 2 == 1:
        return Fraction(0)
    if method == "definition":
        return _first_kind_sum(n, l, lambda w: copoly_hat(m, w, n))
    return fa._evaluate_row(_sym_row(m, n, True), (-l,))[0]


@lru_cache(maxsize=None)
def sym_cosecant_halves(n: int, orders: tuple[int, int]) -> tuple[se.BiSeries, se.BiSeries]:
    """The two summands n! e^{+-t+y} / (1 + e^{+-t} + e^y - e^{+-t+y})^{n+1}."""
    return tuple(
        (ety * factorial(n)) / denominator ** (n + 1) for _, ety, denominator in fa._bivariate_denominators(orders)
    )


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
