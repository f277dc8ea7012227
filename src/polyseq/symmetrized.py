"""Symmetrized poly-Bernoulli and polycosecant numbers.

Stirling-first-kind-weighted sums of polynomial (shifted) family values that
restore full duality between the order index and the weight at every
symmetrization level n.  Level 0 and level 1 collapse to the plain B- and
C-variants; the closed forms are manifestly symmetric, the definitional
routes are not, which is what makes the duality checks meaningful.  Both
closed forms are rows from `families._sym_row` read by `_evaluate_row`; the
level-one cosecant row, doubled, is D's row at weight one lower.
The hat-numbers at (m, n) are one row: TildeD's cached rows scaled by the
weighted coefficients of (e^t+1)^{1-n}, the second-kind Stirling sums of
`sequences._exp_plus_one_numerators`.  Each definition, a first-kind Stirling
sum over weights, is `families._rising` of that row or of the B-polynomial
row.  The closed-form and definition rows are read through the bounded row
cache of the plain families, `families._cached`, keyed by (m, n).  The hat
row keeps no cache: its readers are the cached definition row and
`copoly_hat`, and a duality sweep reads each (m, n) row once.  Both families
dispatch through one helper, `_symmetrized`, whose first parameters are the
per-family choices, as in `congruences.identity`.  The two-part function's
halves are one quotient and its reflection in t, `series._reflected`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, factorial

from . import families as fa
from . import series as se
from .errors import MethodDomain
from .sequences import _exp_plus_one_numerators


def sym_bernoulli_bivariate(n: int, orders: tuple[int, int] | int) -> se.BiSeries:
    """n! e^{x+y} / (e^x + e^y - e^{x+y})^{n+1}; weighted coefficients are the
    symmetrized poly-Bernoulli numbers."""
    if isinstance(orders, int):
        orders = (orders, orders)
    ex = se.biseries_exp(1, 0, orders)
    ey = se.biseries_exp(0, 1, orders)
    exy = se.biseries_exp(1, 1, orders)
    return (exy * factorial(n)) / (ex + ey - exy) ** (n + 1)


@fa._cached
def _definition_row(base, m: int, n: int) -> fa.Row:
    """`_rising` of the row base(m, n): its value at k is sum_{j<=n} s(n,j) (base's value at k - j)."""
    return fa._rising(base(m, n), n)


def _symmetrized(label: str, dyadic: bool, base, m: int, l: int, n: int, method: str) -> Fraction:
    """The number at order m, weight -l, level n by its closed form or definition, after the family's
    choices: its label in errors, `dyadic` for sym-D's closed form and zero at odd m, its base row."""
    if min(m, l, n) < 0:
        raise ValueError("indices must be non-negative")
    rows = {"closed_form": partial(fa._sym_row, dyadic=dyadic), "definition": partial(_definition_row, base)}
    if method not in rows:
        raise MethodDomain(f"unknown symmetrized {label} method {method!r}")
    if dyadic and m % 2 == 1:
        return Fraction(0)
    return fa._evaluate_row(rows[method](m, n), (-l,))[0]


def sym_poly_bernoulli(m: int, l: int, n: int, method: str = "closed_form") -> Fraction:
    """Symmetrized poly-Bernoulli number at order m, weight -l, level n.

    definition: sum_{j<=n} s(n,j) B_m^{(-l-j)}(n) (the polynomial is evaluated
    at x = n exactly), the `_rising` of the B-polynomial row at weight -l.
    closed_form: sum_j n!(j!)^2 C(j+n,n) S(l+1,j+1) S(m+1,j+1).
    """
    return _symmetrized("poly-Bernoulli", False, fa._bernoulli_polynomial_row, m, l, n, method)


def _hat_row(m: int, n: int) -> fa.Row:
    """Hat-numbers at even m: sum_j C(m,j) h_{m-j} TildeD_j, h the weighted coefficients of (e^t+1)^{1-n}."""
    factor = [Fraction(numerator, 1 << (n + i)) for i, numerator in enumerate(_exp_plus_one_numerators(n, m))]
    tilde = fa.Family.TILDE_D
    return fa._row_sum([(comb(m, j) * factor[m - j], fa._route_row(tilde, j, "explicit")) for j in range(m + 1)])


def copoly_hat(m: int, l: int, n: int) -> Fraction:
    """Hat-numbers: weighted coefficients of the symmetrized cosecant kernel.

    The kernel is the even part of (e^t+1)^{1-n} Li_{-l}(tanh(t/2)) / sinh t,
    so it vanishes at odd m and equals the product's coefficient at even m.
    """
    if min(m, l, n) < 0:
        raise ValueError("indices must be non-negative")
    if m % 2 == 1:
        return Fraction(0)
    return fa._evaluate_row(_hat_row(m, n), (-l,))[0]


def sym_polycosecant(m: int, l: int, n: int, method: str = "closed_form") -> Fraction:
    """Symmetrized polycosecant number; zero at odd order index m.

    definition: sum_{j<=n} s(n,j) hat-number at weight -(l+j), the `_rising`
    of the hat-number row at weight -l.
    closed_form: (n!/2^{n+1}) sum_j ((j!)^2/2^{j-1}) C(j+n,n) S(m+1,j+1) S(l+1,j+1).
    """
    return _symmetrized("polycosecant", True, _hat_row, m, l, n, method)


def sym_cosecant_halves(n: int, orders: tuple[int, int]) -> tuple[se.BiSeries, se.BiSeries]:
    """The two summands n! e^{+-t+y} / (1 + e^{+-t} + e^y - e^{+-t+y})^{n+1}: one quotient and its reflection in t."""
    _, ety, denominator = fa._bivariate_denominators(orders)
    first = (ety * factorial(n)) / denominator ** (n + 1)
    return first, se._reflected(first)


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
