"""Poly-Bernoulli, polycosecant, polycotangent, and tilde-cosecant numbers.

Each family is computable by several independent routes: closed forms in
Stirling numbers (integer arithmetic for non-positive weights where one
exists), recurrences, and direct coefficient extraction from the defining
generating function.  The default route per regime avoids rational blow-up;
the series route stays available everywhere as the cross-check oracle.  The
generating functions are one table, Family -> (level, inner, denominator).
Since division is linear, the expansion at weight k is sum_m scale m^-k
Q_m with quotients Q_m = inner^m / denominator that no k changes.  One cached
matrix per (family, order), `_series_rows`, holds n! scale Q_m[n] for every
n <= order as an integer power-basis row in the bases m; it costs one series
division, Q_1, and multiplications Q_{m+level} = Q_m inner^level.  The series
route evaluates those rows like the closed forms below.  The rows come from
series arithmetic on the generating function alone, never from Stirling
numbers, so the oracle stays independent of the closed forms.

The explicit closed forms of B, C, D and beta share one shape, value(n, k) =
sum_b c[b] b^-(k + shift) / denominator, with integer c that do not depend
on k.  A row builder per family returns (shift, denominator, ((b, c), ...))
and one evaluator, `_evaluate_row`, turns a row and a list of weights into
values.  Every route takes (n, weights), so `family_row(family, n, ks)` builds
a row once for all its weights, while `family_value` is the same call with
one weight.

A family's generating function times a fixed series (cosh t, sech t, sinh t,
e^{-xt}) gives the conversions, the k-shift recurrence and the poly-Bernoulli
polynomials.  Each is one `_binomial_sum`, index n of that product in
weighted coefficients, over family values at single weights.
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

def _one_minus_exp(order: int) -> se.Series:
    return se.constant(1, order) - se.exp_scaled(-1, order)


# Family -> (level, inner, denominator): the generating function at weight k is
# polylog_apply(level, k, inner(order)) / denominator(order, inner), where
# level 1 applies Li_k and level 2 A_k(z) = Li_k(z) - Li_k(-z).  The entries
# look the series functions up on `se` when called, so a wrapper later
# installed on those names (bench/tracer.py installs one) sees the calls.
_GENERATING_FUNCTIONS = {
    # Li_k(1 - e^{-t}) / (1 - e^{-t})
    Family.POLY_B: (1, _one_minus_exp, lambda order, inner: inner),
    # Li_k(1 - e^{-t}) / (e^t - 1)
    Family.POLY_C: (1, _one_minus_exp, lambda order, inner: se.exp_scaled(1, order) - 1),
    # A_k(tanh(t/2)) / sinh t
    Family.COSECANT: (2, lambda order: se.tanh_half(order), lambda order, inner: se.sinh_series(order)),
    # A_k(tanh(t/2)) / tanh t
    Family.COTANGENT: (2, lambda order: se.tanh_half(order), lambda order, inner: se.tanh_series(order)),
    # Li_k(tanh(t/2)) / sinh t, the level-one cousin of the cosecant function
    Family.TILDE_D: (1, lambda order: se.tanh_half(order), lambda order, inner: se.sinh_series(order)),
}


@lru_cache(maxsize=None)
def _series_rows(family: Family, order: int) -> tuple[Row, ...]:
    """Row n <= order, over the bases m, holds n! scale Q_m[n]: its value at k is index n at weight k.

    Q_m = inner^m / denominator for each m the level's polylogarithm sums,
    inner's retained order included, as `se.polylog_apply` does; scale is 2
    at level two, where A_k(z) = Li_k(z) - Li_k(-z) doubles the odd powers.
    """
    level, inner, denominator = _GENERATING_FUNCTIONS[family]
    z = inner(order + 1)
    step = z if level == 1 else z * z
    quotient = z / denominator(order + 1, z)
    bases = range(1, order + 2, level)
    columns = []
    for _ in bases:
        if columns:
            quotient = quotient * step
        columns.append(quotient.coeffs)
    rows = []
    for n in range(order + 1):
        weighted = [factorial(n) * level * q[n] for q in columns]
        d = lcm(*[w.denominator for w in weighted])
        rows.append(_row(0, d, ((m, w.numerator * (d // w.denominator)) for m, w in zip(bases, weighted))))
    return tuple(rows)


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


def _binomial_sum(n: int, a, value) -> Fraction:
    """sum_j C(n, j) a(n - j) value(j), skipping the j where a(n - j) = 0.

    With a and value read as weighted coefficients of A(t) and F(t), this is
    index n of A(t) F(t): a family's generating function times a fixed series.
    """
    return sum((comb(n, j) * c * value(j) for j in range(n + 1) if (c := a(n - j))), Fraction(0))


def _cotangent_from_cosecant(n: int, k: int) -> Fraction:
    """beta_n^{(k)} = sum_i C(n,2i) D_{2i}^{(k)}: the cosecant function times cosh t."""
    return _binomial_sum(n, lambda i: 1 - i % 2, lambda j: polycosecant(j, k))


# A route maps (n, weights) to the values at those weights.

def _power_row(build):
    """Route that builds the k-independent row once per call and evaluates it."""
    return lambda n, ks: _evaluate_row(build(n), ks)


def _cells(compute):
    """Route computing one cell of (n, k) at a time."""
    return lambda n, ks: [compute(n, k) for k in ks]


def _by_series(family: Family):
    """Route evaluating row n of the family's cached quotient matrix at every weight."""
    return lambda n, ks: _evaluate_row(_series_rows(family, se.truncation_for(n))[n], ks)


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
        "series": ("oracle", _ANYWHERE, _by_series(Family.POLY_B)),
    },
    Family.POLY_C: {
        "stirling": ("closed", _ANYWHERE, _power_row(partial(_poly_bernoulli_row, "C"))),
        "series": ("oracle", _ANYWHERE, _by_series(Family.POLY_C)),
    },
    Family.COSECANT: {
        "sasaki": ("closed", _SASAKI, _cells(_cosecant_sasaki)),
        "explicit": ("closed", _ANYWHERE, _power_row(_cosecant_row)),
        "series": ("oracle", _ANYWHERE, _by_series(Family.COSECANT)),
    },
    Family.COTANGENT: {
        "stirling_negk": ("closed", _EVEN_NEGATIVE_WEIGHT, _cells(_cotangent_stirling)),
        "explicit": ("closed", _ANYWHERE, _power_row(_cotangent_row)),
        "from_cosecant": ("closed", _ANYWHERE, _cells(_cotangent_from_cosecant)),
        "series": ("oracle", _ANYWHERE, _by_series(Family.COTANGENT)),
    },
    Family.TILDE_D: {
        "series": ("oracle", _NONPOSITIVE_WEIGHT, _by_series(Family.TILDE_D)),
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
    x = Fraction(x)
    return _binomial_sum(n, lambda i: (-x) ** i, lambda j: poly_bernoulli("B", j, k, method="series"))


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
    """D_n^{(k)} = sum_i C(n,2i) E_{n-2i} beta_{2i}^{(k)} for even n: sech t times beta's function."""
    if n < 0 or n % 2 == 1:
        raise IndexParity("the cotangent-to-cosecant conversion addresses even indices")
    return _binomial_sum(n, euler_number, lambda j: polycotangent(j, k))


def k_shift_recurrence(n: int, k: int) -> Fraction:
    """sum_m C(n+1, 2m+1) D_{n-2m}^{(k)} = D_n^{(k-1)}: index n+1 of sinh t times D's function."""
    if n < 0:
        raise ValueError("order index must be non-negative")
    return _binomial_sum(n + 1, lambda i: i % 2, lambda j: polycosecant(j, k))


def tilde_cosecant(m: int, k: int) -> Fraction:
    """Coefficients of Li_k(tanh(t/2)) / sinh t for weight k <= 0 (series only)."""
    return _value(Family.TILDE_D, m, k, None)


@lru_cache(maxsize=None)
def _bivariate_denominators(orders: tuple[int, int]) -> tuple[tuple[se.BiSeries, se.BiSeries, se.BiSeries], ...]:
    """(e^{st}, e^{st+y}, 1 + e^{st} + e^y - e^{st+y}) for s = 1, then s = -1."""
    ey = se.biseries_exp(0, 1, orders)
    parts = []
    for sign in (1, -1):
        et = se.biseries_exp(sign, 0, orders)
        ety = se.biseries_exp(sign, 1, orders)
        parts.append((et, ety, 1 + et + ey - ety))
    return tuple(parts)


def cosecant_bivariate(orders: tuple[int, int] | int) -> se.BiSeries:
    """Two-variable function whose weighted coefficients are D_n^{(-k)}.

    1 + e^t(e^y - 1) / (1 + e^t + e^y - e^{t+y})
      + e^{-t}(e^y - 1) / (1 + e^{-t} + e^y - e^{-t+y}),
    with each numerator e^{st}(e^y - 1) taken as e^{st+y} - e^{st}.
    """
    if isinstance(orders, int):
        orders = (orders, orders)
    return _cosecant_bivariate(orders)


@lru_cache(maxsize=None)
def _cosecant_bivariate(orders: tuple[int, int]) -> se.BiSeries:
    result = se.biseries_constant(1, orders)
    for et, ety, denominator in _bivariate_denominators(orders):
        result = result + (ety - et) / denominator
    return result
