"""Poly-Bernoulli, polycosecant, polycotangent, and tilde-cosecant numbers.

Each family is computable by several independent routes: closed forms in
Stirling numbers (integer arithmetic for non-positive weights where one
exists), recurrences, and direct coefficient extraction from the defining
generating function.  The default route per regime avoids rational blow-up;
the series route stays available everywhere as the cross-check oracle.  The
generating functions are one table, Family -> (level, inner, denominator).
Since division is linear, the expansion at weight k is sum_m scale m^-k
Q_m with quotients Q_m = inner^m / denominator that no k changes.  One cached
matrix per family, `_series_rows`, holds n! scale Q_m[n] for every n <= order
as an integer power-basis row in the bases m; it costs one series division,
Q_1, and multiplications Q_{m+level} = Q_m inner^level, and each row is read
from the columns' integer grids over their common denominator, with no
`Fraction`.  Only the largest matrix asked for is kept, and smaller orders
read their rows from it.  The series route evaluates those rows like the
closed forms below.  The rows come from series arithmetic on the generating
function alone, never from Stirling numbers, so the oracle stays independent
of the closed forms.

The explicit closed forms of B, C, D, beta and TildeD share one shape,
value(n, k) = sum_b c[b] b^-k / denominator, with integer c that do not depend
on k.  A row builder per family returns (denominator, bases, numerators), two
tuples of ints, and one evaluator, `_evaluate_row`, turns a row and a list of
weights into values.  Where the exponent moves by one from the previous
weight's, it steps the terms c b^-k by one `map` of `operator.mul` or
`floordiv` over the stored bases, in C; any other exponent is computed afresh.
No workload takes another step: one pass of `table` takes 12,348 steps of one
and 392 fresh starts, `verify` 24,971 and `oracle` 3,320 fresh starts.  It
hands each value's unreduced (numerator, denominator) to its `value` hook:
`Fraction` by default, `_cell`, the same value's string, for `polyseq table`.
Every route takes (n, weights), so `family_row(family, n, ks)` builds a row
once for all its weights, while `family_value` is the same call with one
weight.  The builders' double sums sum_j w_j C(j, m) c^(j-m), c = +-1, are
one Taylor shift, `_binomial_shift`.  `_sym_row` also builds both symmetrized
closed forms.  TildeD's `explicit` route at k <= 0 is `_tilde_row`, a
Stirling sum over the bases 1..n+1; Sasaki's formula for D at k <= 0, the
`sasaki` route, expands to the same sum over half the denominator.

Every row is in lowest terms (`_row`): bases ascending, no zero c_b and no
common factor of the denominator and the c_b.  Since the functions b^-k of
distinct bases are independent, two rows are equal tuples exactly when they
are the same function of k.  So `oracle_diff` reads the series row once per
order, through `_route_row`, and evaluates it at all that order's weights in
one `_evaluate_row` call.  It compares each closed form's row with that row
once per order and evaluates a method only where they differ.

Each method in `ROUTES` holds its row builder: a closed form's behind one
bounded LRU cache, the series route's reading the family's matrix, which is
its cache.  A call's default route is the first method whose domain holds at
every weight of the call.  For every family but beta that is one closed form
at every weight: D's `explicit` row comes before `sasaki`, whose row is the
same tuple at every even n up to the order cap.  A one-weight call
(`family_value`, and so `poly_bernoulli`, `polycosecant`, `polycotangent`)
and `_route_row` read the row through that cache; a call with several weights
(`family_row`) builds the row once and keeps nothing.  So a beta table row
crossing 0 reads its `explicit` row; only a range entirely below 0 takes
beta's rowless `stirling_negk`.
The odd-order zeros of D and beta are rows too: at odd n each route of
either family whose domain holds there gives the empty row, which
`_evaluate_row` reads as zeros at once, so `_evaluate` names no family.

A family's generating function times a fixed series (cosh t, sech t, sinh t,
e^{-xt}) gives the conversions, the k-shift recurrence and the poly-Bernoulli
polynomials B_n^{(k)}(x): index n of the product, sum_j C(n,j) a(n-j) F_j, is
one row, the cached rows F_j scaled by `_row_sum` (by rationals where x
enters) over a common denominator.  `_rising(row, n)` multiplies each c_b by
b(b+1)...(b+n-1), so its value at k is sum_j s(n,j) times the row's at k - j:
the k-shift sum at n = 1, and the symmetrized definitions.  Every closed form
and definition is thus a row, and `_series_rows` feeds only the `series` route.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import floordiv, mul

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
# P_k(inner(order)) / denominator(order, inner), where P_k is Li_k at level 1
# and A_k(z) = Li_k(z) - Li_k(-z) at level 2.  The entries
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


# Family -> the largest quotient matrix built so far.  Row n is the same at
# every order >= n: Q_m has valuation m - 1, so the columns m > n + 1 that a
# larger order adds are zero at index n, and `_row` drops zero terms.  So
# every smaller order reads its rows from that one matrix.
_SERIES_MATRICES: dict[Family, tuple[Row, ...]] = {}


def _series_rows(family: Family, order: int) -> tuple[Row, ...]:
    """Rows 0..order of the family's quotient matrix, built at this order only if none as large exists."""
    rows = _SERIES_MATRICES.get(family)
    if rows is None or len(rows) <= order:
        rows = _SERIES_MATRICES[family] = _build_series_rows(family, order)
    return rows[: order + 1]


def _series_row(family: Family, n: int) -> Row:
    """Row n of the family's matrix at the truncation covering n, which is the series route's cache."""
    return _series_rows(family, se.truncation_for(n))[n]


def _build_series_rows(family: Family, order: int) -> tuple[Row, ...]:
    """Row n <= order, over the bases m, holds n! scale Q_m[n]: its value at k is index n at weight k.

    Q_m = inner^m / denominator for each m the level's polylogarithm sums,
    inner's retained order included; scale is 2 at level two, where
    A_k(z) = Li_k(z) - Li_k(-z) doubles the odd powers.
    """
    level, inner, denominator = _GENERATING_FUNCTIONS[family]
    z = inner(order + 1)
    step = z if level == 1 else z * z
    bases = range(1, order + 2, level)
    columns = se._geometric(z / denominator(order + 1, z), step, len(bases))
    d = lcm(*[q._den for q in columns])
    # each column's integer numerators and the scale that takes them to the common denominator d
    columns = [(level * (d // q._den), q._grid[0]) for q in columns]
    weights = enumerate(map(factorial, range(order + 1)))
    return tuple([_row(d, zip(bases, [f * s * g[n] for s, g in columns])) for n, f in weights])


# ---------------------------------------------------------------- power-basis rows

# (denominator, bases, numerators): the value at weight k is
# sum(numerator * base^-k) / denominator.  No entry depends on k.
Row = tuple[int, tuple[int, ...], tuple[int, ...]]

# A closed form's bounded row cache, read by one-weight calls, `_route_row` and the symmetrized numbers.
_cached = lru_cache(maxsize=128)


def _row(denominator: int, terms) -> Row:
    """The row of (b, c_b) pairs in lowest terms: bases ascending, no zero c_b, the
    denominator and the c_b divided by their gcd.  It depends only on the function of k."""
    terms = sorted([(b, c) for b, c in terms if c])
    bases, numerators = zip(*terms) if terms else ((), ())
    common = gcd(denominator, *numerators)
    if common > 1:
        denominator //= common
        # tuple() of a list, not of a generator: CPython sizes a generator's tuple
        # by a guess and resizes it, so each freed row would park on the free list
        # of its own size, where no later allocation takes it from
        numerators = tuple([c // common for c in numerators])
    return denominator, bases, numerators


def _binomial_shift(w: list[int], c: int) -> list[int]:
    """[sum_j w_j C(j, m) c^(j-m) for m in range(len(w))] for c = 1 or -1: the coefficients of sum_j w_j (x + c)^j.

    Taylor shift by Horner's rule in n^2/2 additions, where the double sum
    takes n^2/2 binomials.  Each pass replaces every coefficient from the top
    down by the suffix sum above it, one `accumulate` over the coefficients
    listed from the top; c = -1 is c = 1 between two sign changes at odd m.
    """
    top = [x * c ** (j % 2) for j, x in enumerate(w)][::-1]
    for length in range(len(top), 1, -1):
        top[:length] = accumulate(top[:length])
    return [x * c ** (m % 2) for m, x in enumerate(reversed(top))]


def _cosecant_row(n: int) -> Row:
    """The explicit double Stirling sum of D_n^{(k)}: bases 2i+1 over 2^n; empty at odd n.

    Its term j at exponent k+1, C(j-1, 2i) / b^(k+1), is C(j, 2i+1) / (j b^k),
    so base b carries sum_j w_j C(j, b).
    """
    if n % 2 == 1:
        return _row(1, ())
    w = [0] + [(-1) ** (j + 1) * factorial(j - 1) * 2 ** (n + 1 - j) * stirling2(n + 1, j) for j in range(1, n + 2)]
    shifted = _binomial_shift(w, 1)
    return _row(2**n, ((b, shifted[b]) for b in range(1, n + 2, 2)))


def _cotangent_row(n: int) -> Row:
    """The explicit Stirling sum of beta_n^{(k)}: bases 2i+1, base b carrying sum_j w_j C(j+1, b); empty at odd n."""
    if n % 2 == 1:
        return _row(1, ())
    w = [
        (-1) ** j
        * factorial(j)
        * 2 ** (n - j)
        * ((j + 1) * (j + 2) // 2 * stirling2(n, j + 2) + stirling2(n + 1, j + 1))
        for j in range(n + 1)
    ]
    shifted = _binomial_shift([0] + w, 1)
    return _row(2**n, ((b, shifted[b]) for b in range(1, n + 2, 2)))


@_cached
def _sym_row(m: int, n: int, dyadic: bool) -> Row:
    """Both symmetrized closed forms at order m, level n as one row in b^l: sym-D when dyadic.

    Each is sum_j (j+n)! S(m+1,j+1) j!S(l+1,j+1), sym-D's term j over 2^(n+j)
    (here over 2^(n+m)), and j!S(l+1,j+1) = sum_b (-1)^(j+1-b) C(j,b-1) b^l.
    """
    w = [factorial(j + n) * stirling2(m + 1, j + 1) * (2 ** (m - j) if dyadic else 1) for j in range(m + 1)]
    shifted = _binomial_shift(w, -1)
    return _row(2 ** (n + m) if dyadic else 1, ((b, shifted[b - 1]) for b in range(1, m + 2)))


def _sasaki_row(n: int) -> Row:
    """Sasaki's D_n^{(-K)} = sum_i i!(i-1)!/2^(i-1) S(K,i) S(n+1,i): bases 1..n+1 over 2^n.

    With i!S(K,i) = sum_b (-1)^(i-b) C(i,b) b^K, base b carries sum_i (-1)^(i-b)
    C(i,b) (i-1)! 2^(n+1-i) S(n+1,i), which is `_tilde_row`'s sum: twice its row.
    """
    denominator, bases, numerators = _tilde_row(n)
    return _row(denominator, zip(bases, [2 * c for c in numerators]))


def _poly_bernoulli_row(variant: str, n: int) -> Row:
    """Power form from expanding through powers of 1 - e^{-t}; valid for all k.

    B_n^{(k)} = sum_m a_m (m+1)^{-k} with a_m = (-1)^{n+m} m! S(n, m); C
    subtracts a_m m^{-k} for m >= 1, so its base b carries a_{b-1} - a_b.
    """
    a = [(-1) ** (n + m) * factorial(m) * stirling2(n, m) for m in range(n + 1)] + [0]
    if variant == "B":
        return _row(1, ((m + 1, a[m]) for m in range(n + 1)))
    return _row(1, ((b, a[b - 1] - a[b]) for b in range(1, n + 2)))


def _tilde_row(n: int) -> Row:
    """TildeD_n^{(k)}: bases m = 1..n+1 over 2^(n+1).

    Li_k(tanh(t/2)) / sinh t = sum_m m^-k 2e^t (e^t-1)^(m-1) / (e^t+1)^(m+1);
    expanding 1/(e^t+1)^(m+1) in powers of (e^t-1)/2 and taking n![t^n]
    e^t (e^t-1)^r = r! S(n+1, r+1) gives base m the coefficient sum_j (-1)^j
    C(m+j, j) (m+j-1)! S(n+1, m+j) / 2^(m+j), here summed over r = m+j.
    """
    w = [0] + [factorial(r - 1) * stirling2(n + 1, r) * 2 ** (n + 1 - r) for r in range(1, n + 2)]
    shifted = _binomial_shift(w, -1)
    return _row(2 ** (n + 1), ((m, shifted[m]) for m in range(1, n + 2)))


def _row_sum(parts) -> Row:
    """The row of sum scale * row over (scale, row) pairs, over the lcm of d * scale.denominator."""
    denominator = lcm(*[d * scale.denominator for scale, (d, _, _) in parts])
    coefficients: dict[int, int] = {}
    for scale, (d, bases, numerators) in parts:
        factor = scale.numerator * (denominator // (d * scale.denominator))
        for b, c in zip(bases, numerators):
            coefficients[b] = coefficients.get(b, 0) + factor * c
    return _row(denominator, coefficients.items())


def _rising(row: Row, n: int) -> Row:
    """Each c_b times b(b+1)...(b+n-1) = sum_j s(n,j) b^j: the value at k is sum_j s(n,j) (row's value at k - j).

    At n = 1 that is the row's value at k - 1.
    """
    denominator, bases, numerators = row
    return _row(denominator, [(b, c * prod(range(b, b + n))) for b, c in zip(bases, numerators)])


def _powers(bases, numerators, last, x: int) -> tuple[int, list[int]]:
    """(x, [c * b^x for each base b and numerator c]), stepped from `last`, the same pair at an earlier exponent.

    A step of one multiplies or divides each term exactly by its base, one
    `map` in C; any other exponent, and the first, is computed afresh.
    """
    if last is not None and abs(x - last[0]) == 1:
        return x, list(map(mul if x > last[0] else floordiv, last[1], bases))
    return x, list(map(mul, numerators, map(pow, bases, repeat(x))))


def _evaluate_row(row: Row, ks, value=Fraction) -> list:
    """The row's value at each weight in `ks`: integer sums, then `value(numerator, denominator)` each.

    `value` is `Fraction` by default; the table passes `_cell`, which writes
    the same value's string without building a `Fraction`.  The terms of a
    weight are stepped from those of the previous weight on the same side of
    exponent zero (see `_powers`), so consecutive weights cost one product or
    exact quotient per term, mapped in C, instead of a full power.
    """
    denominator, bases, numerators = row
    if not bases:
        return [value(0, 1)] * len(ks)
    values = []
    low = high = None
    for k in ks:
        if k <= 0:
            low = _powers(bases, numerators, low, -k)
            values.append(value(sum(low[1]), denominator))
            continue
        if high is None:
            # b^-k = (L/b)^k / L^k over the lcm L of the bases
            lcm_all = lcm(*bases)
            scaled = [lcm_all // b for b in bases]
        high = _powers(scaled, numerators, high, k)
        values.append(value(sum(high[1]), lcm_all**k * denominator))
    return values


def _cell(numerator: int, denominator: int) -> str:
    """str(Fraction(numerator, denominator)) for a positive denominator, reduced by one gcd."""
    common = gcd(numerator, denominator)
    if common != 1:
        numerator //= common
        denominator //= common
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


# ---------------------------------------------------------------- closed forms

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


def _route_row(family: Family, n: int, method: str) -> Row | None:
    """The row whose value at every weight is the method's value at (n, k), or None for a cell route."""
    rows = ROUTES[family][method][2]
    return None if rows is None else rows(n)


def _from_cosecant_row(n: int) -> Row:
    """beta_n^{(k)} = sum_i C(n,2i) D_{2i}^{(k)}, the cosecant function times cosh t; empty at odd n."""
    if n % 2 == 1:
        return _row(1, ())
    return _row_sum([(comb(n, j), _route_row(Family.COSECANT, j, "explicit")) for j in range(0, n + 1, 2)])


def _cosecant_from_cotangent_row(n: int) -> Row:
    """sum_i C(n,2i) E_{n-2i} beta_{2i}^{(k)} for even n: sech t times beta's function."""
    return _row_sum(
        [(comb(n, j) * euler_number(n - j), _route_row(Family.COTANGENT, j, "explicit")) for j in range(0, n + 1, 2)]
    )


def _k_shift_row(n: int) -> Row:
    """sum_m C(n+1, 2m+1) D_{n-2m}^{(k)}: index n+1 of sinh t times D's function."""
    return _row_sum([(comb(n + 1, j), _route_row(Family.COSECANT, j, "explicit")) for j in range(n % 2, n + 1, 2)])


def _bernoulli_polynomial_row(n: int, x: Fraction) -> Row:
    """B_n^{(k)}(x) = sum_j C(n,j) (-x)^(n-j) B_j^{(k)}: e^{-xt} times B's function, over B's cached rows."""
    return _row_sum([(comb(n, j) * (-x) ** (n - j), _route_row(Family.POLY_B, j, "stirling")) for j in range(n + 1)])


# ------------------------------------------------------------------ route table

# A domain is (what a route needs, predicate on (n, k)).  Sasaki's row gives D_0^{(0)} = 1 too; (0, 0) stays
# outside its domain only so that `oracle_diff` on Cosecant compares no `sasaki` witness there (ROADMAP item 16).
_ANYWHERE = ("any (n, k)", lambda n, k: True)
_SASAKI = (
    "an even index and weight <= 0, except (0, 0)",
    lambda n, k: n % 2 == 0 and k <= 0 and (n, k) != (0, 0),
)
_EVEN_NEGATIVE_WEIGHT = ("an even index and weight <= -1", lambda n, k: n % 2 == 0 and k <= -1)
_NONPOSITIVE_WEIGHT = ("weight <= 0", lambda n, k: k <= 0)

# Family -> {method: (kind, domain, rows)}, where rows(n) is the method's row at
# order n: a closed form's builder behind its cache, the series row read from
# the family's matrix, or None for a route computed cell by cell.  The default
# route of a call is the first method, in this order, whose domain holds at
# every weight of the call.
ROUTES = {
    Family.POLY_B: {
        "stirling": ("closed", _ANYWHERE, _cached(partial(_poly_bernoulli_row, "B"))),
        "series": ("oracle", _ANYWHERE, partial(_series_row, Family.POLY_B)),
    },
    Family.POLY_C: {
        "stirling": ("closed", _ANYWHERE, _cached(partial(_poly_bernoulli_row, "C"))),
        "series": ("oracle", _ANYWHERE, partial(_series_row, Family.POLY_C)),
    },
    Family.COSECANT: {
        "explicit": ("closed", _ANYWHERE, _cached(_cosecant_row)),
        "sasaki": ("closed", _SASAKI, _cached(_sasaki_row)),
        "series": ("oracle", _ANYWHERE, partial(_series_row, Family.COSECANT)),
    },
    Family.COTANGENT: {
        "stirling_negk": ("closed", _EVEN_NEGATIVE_WEIGHT, None),
        "explicit": ("closed", _ANYWHERE, _cached(_cotangent_row)),
        "from_cosecant": ("closed", _ANYWHERE, _cached(_from_cosecant_row)),
        "series": ("oracle", _ANYWHERE, partial(_series_row, Family.COTANGENT)),
    },
    Family.TILDE_D: {
        "explicit": ("closed", _NONPOSITIVE_WEIGHT, _cached(_tilde_row)),
        "series": ("oracle", _NONPOSITIVE_WEIGHT, partial(_series_row, Family.TILDE_D)),
    },
}


def _method_at(family: Family, n: int, ks, method: str | None) -> str:
    """The named method, or the first method whose domain holds at every weight of the call; raises MethodDomain."""
    routes = ROUTES[family]
    if method is None:
        for name, (_, (_, holds), _) in routes.items():
            # a loop, not all() of a generator, so a one-weight lookup allocates nothing per route
            for k in ks:
                if not holds(n, k):
                    break
            else:
                return name
        # k is the first weight outside the domain of the last method, which holds wherever any method does
        needs = " or ".join(dict.fromkeys(needs for _, (needs, _), _ in routes.values()))
        raise MethodDomain(f"no {family.value} method covers (n, k) = ({n}, {k}); its methods need {needs}")
    if method not in routes:
        raise MethodDomain(f"unknown {family.value} method {method!r}; known: {', '.join(routes)}")
    _, (needs, holds), _ = routes[method]
    for k in ks:
        if not holds(n, k):
            raise MethodDomain(f"{family.value} method {method!r} needs {needs}; got (n, k) = ({n}, {k})")
    return method


def _evaluate(family: Family, n: int, ks, method: str | None, value=Fraction) -> list:
    """Values at (n, k) for each k in `ks`, all by one method: the named one or `_method_at`'s default.

    One weight reads the row through the method's cache, several build it
    without keeping it; `stirling_negk`, which has no row, goes cell by cell.
    Each value is `value(numerator, denominator)`, as in `_evaluate_row`.
    """
    if n < 0:
        raise ValueError("order index must be non-negative")
    if not ks:
        return []
    rows = ROUTES[family][_method_at(family, n, ks, method)][2]
    if rows is None:
        cells = [_cotangent_stirling(n, k) for k in ks]
        return cells if value is Fraction else [value(c.numerator, c.denominator) for c in cells]
    return _evaluate_row(rows(n) if len(ks) == 1 else getattr(rows, "__wrapped__", rows)(n), ks, value)


def _value(family: Family, n: int, k: int, method: str | None) -> Fraction:
    return _evaluate(family, n, (k,), method)[0]


def _family(family: Family | str) -> Family:
    """The member as it is, without the Enum call; `Family(family)`, and its ValueError, for anything else."""
    # an Enum with members has no subclasses; on a str, isinstance() is about five times slower
    return family if type(family) is Family else Family(family)


def applicable_methods(family: Family | str, n: int, k: int) -> dict[str, str]:
    """Methods defined at (n, k) for a family, keyed by name, valued by kind."""
    return {name: kind for name, (kind, (_, holds), _) in ROUTES[_family(family)].items() if holds(n, k)}


def family_value_by_method(family: Family | str, n: int, k: int, method: str) -> Fraction:
    return _value(_family(family), n, k, method)


def family_value(family: Family | str, n: int, k: int) -> Fraction:
    """Dispatch a (family, order, weight) address to its default route."""
    return _value(_family(family), n, k, None)


def family_row(family: Family | str, n: int, ks) -> list[Fraction]:
    """[family_value(family, n, k) for k in ks], building each route's row once."""
    return _evaluate(_family(family), n, tuple(ks), None)


# ------------------------------------------------------------------ families

_VARIANTS = {"B": Family.POLY_B, "C": Family.POLY_C}


def poly_bernoulli(variant: str, n: int, k: int, method: str | None = None) -> Fraction:
    """B_n^{(k)} or C_n^{(k)} by the Stirling power form or the series oracle."""
    if variant not in _VARIANTS:
        raise ValueError("variant must be 'B' or 'C'")
    return _value(_VARIANTS[variant], n, k, method)


def poly_bernoulli_polynomial(n: int, k: int, x) -> Fraction:
    """B_n^{(k)}(x) from e^{-xt} Li_k(1 - e^{-t}) / (1 - e^{-t}) at exact, not float, x; B_n^{(k)}(0) = B_n^{(k)}."""
    if n < 0:
        raise ValueError("order index must be non-negative")
    return _evaluate_row(_bernoulli_polynomial_row(n, se._exact(x, "x")), (k,))[0]


def polycosecant(n: int, k: int, method: str | None = None) -> Fraction:
    """D_n^{(k)}; zero at odd n.  Methods: explicit (the default), sasaki (weight <= 0), series."""
    return _value(Family.COSECANT, n, k, method)


def polycotangent(n: int, k: int, method: str | None = None) -> Fraction:
    """beta_n^{(k)}; zero at odd n.

    Methods: stirling_negk (even index, weight <= -1), explicit, from_cosecant,
    series.  The default is the first whose domain holds at every weight of a call.
    """
    return _value(Family.COTANGENT, n, k, method)


def cosecant_from_cotangent(n: int, k: int) -> Fraction:
    """D_n^{(k)} = sum_i C(n,2i) E_{n-2i} beta_{2i}^{(k)} for even n: sech t times beta's function."""
    if n < 0 or n % 2 == 1:
        raise IndexParity("the cotangent-to-cosecant conversion addresses even indices")
    return _evaluate_row(_cosecant_from_cotangent_row(n), (k,))[0]


def k_shift_recurrence(n: int, k: int) -> Fraction:
    """sum_m C(n+1, 2m+1) D_{n-2m}^{(k)} = D_n^{(k-1)}: index n+1 of sinh t times D's function."""
    if n < 0:
        raise ValueError("order index must be non-negative")
    return _evaluate_row(_k_shift_row(n), (k,))[0]


def tilde_cosecant(m: int, k: int) -> Fraction:
    """Coefficients of Li_k(tanh(t/2)) / sinh t for weight k <= 0, by the explicit Stirling row."""
    return _value(Family.TILDE_D, m, k, None)


@lru_cache(maxsize=128)
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
    result = se.biseries_constant(1, orders)
    for et, ety, denominator in _bivariate_denominators(orders):
        result = result + (ety - et) / denominator
    return result
