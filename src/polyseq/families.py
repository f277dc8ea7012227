"""Poly-Bernoulli, polycosecant, polycotangent, and tilde-cosecant numbers.

Each family is computable by several independent routes: closed forms in
Stirling numbers (integer arithmetic for non-positive weights where one
exists), recurrences, and direct coefficient extraction from the defining
generating function.  The default route per regime avoids rational blow-up;
the series route stays available everywhere as the cross-check oracle.

The explicit closed forms of B, C, D and beta share one shape, value(n, k) =
sum_b c[b] b^-(k + shift) / denominator, with integer c that do not depend
on k.  A row builder per family returns (shift, denominator, ((b, c), ...))
and one evaluator, `_evaluate_row`, turns a row and a list of weights into
values.  Every route takes (n, weights), so `family_row(family, n, ks)` builds
a row once for all its weights, while `family_value` is the same call with
one weight.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, lcm

from . import series as se
from .errors import IndexParity, MethodDomain
from .sequences import euler_number, stirling2


class Family(str, Enum):
    POLY_B = "PolyB_B"
    POLY_C = "PolyB_C"
    COSECANT = "Cosecant"
    COTANGENT = "Cotangent"
    TILDE_D = "TildeD"


# ---------------------------------------------------------------- series route

@lru_cache(maxsize=None)
def _cosecant_series(k: int, order: int) -> se.Series:
    """A_k(tanh(t/2)) / sinh t, retained to the given order."""
    level2 = se.polylog_apply(2, k, se.tanh_half(order + 1))
    return level2 / se.sinh_series(order + 1)


@lru_cache(maxsize=None)
def _cotangent_series(k: int, order: int) -> se.Series:
    """A_k(tanh(t/2)) / tanh t."""
    level2 = se.polylog_apply(2, k, se.tanh_half(order + 1))
    return level2 / se.tanh_series(order + 1)


@lru_cache(maxsize=None)
def _poly_bernoulli_series(variant: str, k: int, order: int) -> se.Series:
    """Li_k(1 - e^{-t}) over 1 - e^{-t} (variant B) or e^t - 1 (variant C)."""
    inner = se.constant(1, order + 1) - se.exp_scaled(-1, order + 1)
    num = se.polylog_apply(1, k, inner)
    den = inner if variant == "B" else se.exp_scaled(1, order + 1) - 1
    return num / den


@lru_cache(maxsize=None)
def _poly_bernoulli_polynomial_series(k: int, x: Fraction, order: int) -> se.Series:
    return _poly_bernoulli_series("B", k, order) * se.exp_scaled(-x, order)


@lru_cache(maxsize=None)
def _tilde_cosecant_series(k: int, order: int) -> se.Series:
    """Li_k(tanh(t/2)) / sinh t; the level-one cousin of the cosecant function."""
    level1 = se.polylog_apply(1, k, se.tanh_half(order + 1))
    return level1 / se.sinh_series(order + 1)


# ---------------------------------------------------------------- power-basis rows

# (shift, denominator, ((base, numerator), ...)): the value at weight k is
# sum(numerator * base^-(k + shift)) / denominator.  No entry depends on k.
Row = tuple[int, int, tuple[tuple[int, int], ...]]


def _row(shift: int, denominator: int, terms) -> Row:
    # tuple() of a list, not of a generator: CPython sizes a generator's tuple
    # by a guess and resizes it, so each freed row would park on the free list
    # of its own size, where no later allocation takes it from
    return shift, denominator, tuple([(b, c) for b, c in terms if c])


def _cosecant_row(n: int) -> Row:
    """The explicit double Stirling sum of D_n^{(k)}: bases 2i+1, exponent k+1."""
    w = [(-1) ** (j + 1) * factorial(j) * 2 ** (n + 1 - j) * stirling2(n + 1, j) for j in range(n + 2)]
    return _row(
        1,
        2**n,
        ((2 * i + 1, sum(w[j] * comb(j - 1, 2 * i) for j in range(2 * i + 1, n + 2))) for i in range(n // 2 + 1)),
    )


def _cotangent_row(n: int) -> Row:
    """The explicit Stirling sum of beta_n^{(k)}: bases 2i+1; empty at odd n."""
    if n % 2 == 1:
        return _row(0, 2**n, ())
    w = [
        (-1) ** j
        * factorial(j)
        * 2 ** (n - j)
        * ((j + 1) * (j + 2) // 2 * stirling2(n, j + 2) + stirling2(n + 1, j + 1))
        for j in range(n + 1)
    ]
    return _row(
        0,
        2**n,
        ((2 * i + 1, sum(w[j] * comb(j + 1, 2 * i + 1) for j in range(2 * i, n + 1))) for i in range(n // 2 + 1)),
    )


def _poly_bernoulli_row(variant: str, n: int) -> Row:
    """Power form from expanding through powers of 1 - e^{-t}; valid for all k.

    B_n^{(k)} = sum_m a_m (m+1)^{-k} with a_m = (-1)^{n+m} m! S(n, m); C
    subtracts a_m m^{-k} for m >= 1, so its base b carries a_{b-1} - a_b.
    """
    a = [(-1) ** (n + m) * factorial(m) * stirling2(n, m) for m in range(n + 1)] + [0]
    if variant == "B":
        return _row(0, 1, ((m + 1, a[m]) for m in range(n + 1)))
    return _row(0, 1, ((b, a[b - 1] - a[b]) for b in range(1, n + 2)))


def _evaluate_row(row: Row, ks) -> list[Fraction]:
    """The row's value at each weight in `ks`: integer sums, then one Fraction each."""
    shift, denominator, terms = row
    values = []
    scaled = None
    for k in ks:
        e = k + shift
        if e <= 0:
            values.append(Fraction(sum(c * b**-e for b, c in terms), denominator))
            continue
        if scaled is None:
            # b^-e = (L/b)^e / L^e over the lcm L of the bases; a list again
            # (see _row), since lcm(*generator) builds a resized tuple
            lcm_all = lcm(*[b for b, _ in terms])
            scaled = [(lcm_all // b, c) for b, c in terms]
        values.append(Fraction(sum(c * q**e for q, c in scaled), lcm_all**e * denominator))
    return values


# ---------------------------------------------------------------- closed forms

def _cosecant_sasaki(n: int, k: int) -> Fraction:
    """Integer-only form for even n and weight -k <= 0.

    The sum is empty at (n, k) = (0, 0) although the true value there is 1,
    so that corner is excluded from this method's domain.
    """
    kk = -k
    total = Fraction(0)
    for i in range(1, min(n + 1, kk) + 1):
        total += Fraction(factorial(i) * factorial(i - 1), 2 ** (i - 1)) * stirling2(
            kk, i
        ) * stirling2(n + 1, i)
    return total


def _cotangent_stirling(n: int, k: int) -> Fraction:
    """Four-part integer form for even n and weight k <= -1."""
    kk = -k
    total = Fraction(0)
    for j in range(min(n, kk - 1) + 1):
        w = Fraction(factorial(j) * factorial(j + 1), 2 ** (j + 1)) * stirling2(kk, j + 1)
        total += w * (stirling2(n, j) + stirling2(n + 1, j + 1))
    for j in range(min(n - 1, kk - 1) + 1):
        w = Fraction(factorial(j + 1), 2 ** (j + 1)) * stirling2(kk, j + 1)
        total += w * factorial(j + 1) * stirling2(n, j + 1)
        total += w * factorial(j + 2) * stirling2(n, j + 2)
    return total


def _cotangent_from_cosecant(n: int, k: int) -> Fraction:
    """beta_n^{(k)} = sum_i C(n,2i) D_{2i}^{(k)}."""
    if n % 2 == 1:
        return Fraction(0)
    return sum(
        (comb(n, 2 * i) * polycosecant(2 * i, k) for i in range(n // 2 + 1)),
        Fraction(0),
    )


# A route maps (n, weights) to the values at those weights.

def _power_row(build):
    """Route that builds the k-independent row once per call and evaluates it."""
    return lambda n, ks: _evaluate_row(build(n), ks)


def _cells(compute):
    """Route computing one cell of (n, k) at a time."""
    return lambda n, ks: [compute(n, k) for k in ks]


def _by_series(expansion):
    """Route reading index n off the cached expansion of each weight k."""
    return lambda n, ks: [expansion(k, se.truncation_for(n)).egf(n) for k in ks]


# ------------------------------------------------------------------ route table

# A domain is (what a route needs, predicate on (n, k)).
_ANYWHERE = ("any (n, k)", lambda n, k: True)
_SASAKI = (
    "an even index and weight <= 0 except (0, 0), where its sum is empty but the value is 1",
    lambda n, k: n % 2 == 0 and k <= 0 and (n, k) != (0, 0),
)
_EVEN_NEGATIVE_WEIGHT = ("an even index and weight <= -1", lambda n, k: n % 2 == 0 and k <= -1)
_NONPOSITIVE_WEIGHT = ("weight <= 0", lambda n, k: k <= 0)

# Family -> {method: (kind, domain, route)}.  The default route at (n, k) is
# the first method whose domain holds there, in the order listed here.
ROUTES = {
    Family.POLY_B: {
        "stirling": ("closed", _ANYWHERE, _power_row(partial(_poly_bernoulli_row, "B"))),
        "series": ("oracle", _ANYWHERE, _by_series(partial(_poly_bernoulli_series, "B"))),
    },
    Family.POLY_C: {
        "stirling": ("closed", _ANYWHERE, _power_row(partial(_poly_bernoulli_row, "C"))),
        "series": ("oracle", _ANYWHERE, _by_series(partial(_poly_bernoulli_series, "C"))),
    },
    Family.COSECANT: {
        "sasaki": ("closed", _SASAKI, _cells(_cosecant_sasaki)),
        "explicit": ("closed", _ANYWHERE, _power_row(_cosecant_row)),
        "series": ("oracle", _ANYWHERE, _by_series(_cosecant_series)),
    },
    Family.COTANGENT: {
        "stirling_negk": ("closed", _EVEN_NEGATIVE_WEIGHT, _cells(_cotangent_stirling)),
        "explicit": ("closed", _ANYWHERE, _power_row(_cotangent_row)),
        "from_cosecant": ("closed", _ANYWHERE, _cells(_cotangent_from_cosecant)),
        "series": ("oracle", _ANYWHERE, _by_series(_cotangent_series)),
    },
    Family.TILDE_D: {
        "series": ("oracle", _NONPOSITIVE_WEIGHT, _by_series(_tilde_cosecant_series)),
    },
}

# the default route returns these families' odd-order zeros without computing
_ZERO_AT_ODD_ORDER = (Family.COSECANT, Family.COTANGENT)


def _method_at(family: Family, n: int, k: int, method: str | None) -> str:
    """The named method, or the default one at (n, k); the only place raising MethodDomain."""
    routes = ROUTES[family]
    if method is None:
        for name, (_, (_, holds), _) in routes.items():
            if holds(n, k):
                return name
        method = "series"  # no route holds only for TildeD at k > 0; its domain says why
    if method not in routes:
        raise MethodDomain(f"unknown {family.value} method {method!r}; known: {', '.join(routes)}")
    _, (needs, holds), _ = routes[method]
    if not holds(n, k):
        raise MethodDomain(f"{family.value} method {method!r} needs {needs}; got (n, k) = ({n}, {k})")
    return method


def _evaluate(family: Family, n: int, ks, method: str | None) -> list[Fraction]:
    """Values at (n, k) for each k in `ks`, each route called once with all its weights."""
    if n < 0:
        raise ValueError("order index must be non-negative")
    if method is None and n % 2 == 1 and family in _ZERO_AT_ODD_ORDER:
        return [Fraction(0)] * len(ks)
    by_method: dict[str, list[int]] = {}
    for k in ks:
        by_method.setdefault(_method_at(family, n, k, method), []).append(k)
    values = {}
    for name, weights in by_method.items():
        values.update(zip(weights, ROUTES[family][name][2](n, weights)))
    return [values[k] for k in ks]


def _value(family: Family, n: int, k: int, method: str | None) -> Fraction:
    return _evaluate(family, n, (k,), method)[0]


def applicable_methods(family: Family | str, n: int, k: int) -> dict[str, str]:
    """Methods defined at (n, k) for a family, keyed by name, valued by kind."""
    return {name: kind for name, (kind, (_, holds), _) in ROUTES[Family(family)].items() if holds(n, k)}


def family_value_by_method(family: Family | str, n: int, k: int, method: str) -> Fraction:
    return _value(Family(family), n, k, method)


def family_value(family: Family | str, n: int, k: int) -> Fraction:
    """Dispatch a (family, order, weight) address to its default route."""
    return _value(Family(family), n, k, None)


def family_row(family: Family | str, n: int, ks) -> list[Fraction]:
    """[family_value(family, n, k) for k in ks], building each route's row once."""
    return _evaluate(Family(family), n, tuple(ks), None)


# ------------------------------------------------------------------ families

_VARIANTS = {"B": Family.POLY_B, "C": Family.POLY_C}


def poly_bernoulli(variant: str, n: int, k: int, method: str | None = None) -> Fraction:
    """B_n^{(k)} or C_n^{(k)} by the Stirling power form or the series oracle."""
    if variant not in _VARIANTS:
        raise ValueError("variant must be 'B' or 'C'")
    return _value(_VARIANTS[variant], n, k, method)


def poly_bernoulli_polynomial(n: int, k: int, x) -> Fraction:
    """B_n^{(k)}(x) from e^{-xt} Li_k(1 - e^{-t}) / (1 - e^{-t}); B_n^{(k)}(0) = B_n^{(k)}."""
    if n < 0:
        raise ValueError("order index must be non-negative")
    return _poly_bernoulli_polynomial_series(k, Fraction(x), se.truncation_for(n)).egf(n)


def polycosecant(n: int, k: int, method: str | None = None) -> Fraction:
    """D_n^{(k)}; zero at odd n.  Methods: explicit, sasaki (weight <= 0), series."""
    return _value(Family.COSECANT, n, k, method)


def polycotangent(n: int, k: int, method: str | None = None) -> Fraction:
    """beta_n^{(k)}; zero at odd n.

    Methods: explicit, stirling_negk (even index, weight <= -1), from_cosecant,
    series.
    """
    return _value(Family.COTANGENT, n, k, method)


def cosecant_from_cotangent(n: int, k: int) -> Fraction:
    """D_n^{(k)} = sum_i C(n,2i) E_{n-2i} beta_{2i}^{(k)} for even n."""
    if n < 0 or n % 2 == 1:
        raise IndexParity("the cotangent-to-cosecant conversion addresses even indices")
    return sum(
        (
            comb(n, 2 * i) * euler_number(n - 2 * i) * polycotangent(2 * i, k)
            for i in range(n // 2 + 1)
        ),
        Fraction(0),
    )


def k_shift_recurrence(n: int, k: int) -> Fraction:
    """sum_m C(n+1, 2m+1) D_{n-2m}^{(k)}, which equals D_n^{(k-1)}."""
    if n < 0:
        raise ValueError("order index must be non-negative")
    return sum(
        (comb(n + 1, 2 * m + 1) * polycosecant(n - 2 * m, k) for m in range(n // 2 + 1)),
        Fraction(0),
    )


def tilde_cosecant(m: int, k: int) -> Fraction:
    """Coefficients of Li_k(tanh(t/2)) / sinh t for weight k <= 0 (series only)."""
    return _value(Family.TILDE_D, m, k, None)


@lru_cache(maxsize=None)
def _cosecant_bivariate(orders: tuple[int, int]) -> se.BiSeries:
    one = se.biseries_constant(1, orders)
    ey = se.biseries_exp(0, 1, orders)
    result = one
    for sign in (1, -1):
        et = se.biseries_exp(sign, 0, orders)
        ety = se.biseries_exp(sign, 1, orders)
        result = result + (et * (ey - 1)) / (one + et + ey - ety)
    return result


def cosecant_bivariate(orders: tuple[int, int] | int) -> se.BiSeries:
    """Two-variable function whose weighted coefficients are D_n^{(-k)}.

    1 + e^t(e^y - 1) / (1 + e^t + e^y - e^{t+y})
      + e^{-t}(e^y - 1) / (1 + e^{-t} + e^y - e^{-t+y})
    """
    if isinstance(orders, int):
        orders = (orders, orders)
    return _cosecant_bivariate(orders)
