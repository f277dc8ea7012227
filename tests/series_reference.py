"""The one-Fraction-per-coefficient series kernel the tests check the integer-grid kernel against.

`Series` and `BiSeries` here keep one `Fraction` per coefficient, as the
library's did before it held one denominator and a grid of integer
numerators.  Products and quotients convert both operands to integer
numerators over the lcm of their denominators, run plain integer loops and
convert the result back, one `Fraction` per coefficient; sums and scalar
operations are one `Fraction` operation per coefficient.  `build_series_rows`
is the family matrix builder as it was, on these classes.
"""

from fractions import Fraction
from math import factorial, lcm

from polyseq import families as fa
from polyseq.errors import (
    ComposeNonzeroConstant,
    DivisionValuation,
    DivisionZeroConstant,
    IndexBeyondTruncation,
)

_ZERO = Fraction(0)


def _exact(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"not the float {value!r}")
    return value if type(value) is Fraction else Fraction(value)


def _numerators(rows) -> tuple[list[list[int]], int]:
    """Each row of Fractions as integer numerators over the lcm of all their denominators, and that lcm."""
    d = lcm(*[c.denominator for row in rows for c in row])
    return [[c.numerator * (d // c.denominator) for c in row] for row in rows], d


def _over(numerators, denominator: int) -> tuple[Fraction, ...]:
    return tuple([Fraction(x, denominator) if x else _ZERO for x in numerators])


def _product(a, b):
    nt, ny = len(a), len(a[0])
    out = [[0] * ny for _ in range(nt)]
    for m, arow in enumerate(a):
        for l, x in enumerate(arow):
            for i in range(nt - m):
                for j in range(ny - l):
                    out[m + i][l + j] += x * b[i][j]
    return out


def _quotient(a, b):
    """Numerators N with cell (m, l) of a / b equal to N_{m,l} / b0^(m+l+1), and the powers of b0."""
    nt, ny = len(a), len(a[0])
    powers = [b[0][0] ** e for e in range(nt + ny)]
    nums = [[0] * ny for _ in range(nt)]
    for m in range(nt):
        for l in range(ny):
            acc = a[m][l] * powers[m + l]
            for i in range(m + 1):
                for j in range(l + 1):
                    if i + j:
                        acc -= nums[m - i][l - j] * b[i][j] * powers[i + j - 1]
            nums[m][l] = acc
    return nums, powers


def _common(a, b):
    nt, ny = min(len(a), len(b)), min(len(a[0]), len(b[0]))
    return [row[:ny] for row in a[:nt]], [row[:ny] for row in b[:nt]]


def _grid_quotient(a_rows, b_rows):
    a, da = _numerators(a_rows)
    b, db = _numerators(b_rows)
    nums, powers = _quotient(a, b)
    return tuple(
        [
            tuple([Fraction(db * x, da * powers[m + l + 1]) if x else _ZERO for l, x in enumerate(row)])
            for m, row in enumerate(nums)
        ]
    )


class _Grid:
    """The operators both classes share, on the rows of Fractions `_rows` gives and `_from_rows` takes."""

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return self._from_rows(tuple([tuple([-c for c in row]) for row in self._rows()]))

    def __add__(self, other):
        rows = self._rows()
        if not isinstance(other, type(self)):
            first = rows[0]
            return self._from_rows(((first[0] + _exact(other),) + first[1:],) + rows[1:])
        return self._from_rows(tuple([tuple([x + y for x, y in zip(r, s)]) for r, s in zip(rows, other._rows())]))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, type(self)) else -_exact(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            f = _exact(other)
            return self._from_rows(tuple([tuple([c * f for c in row]) for row in self._rows()]))
        a_rows, b_rows = _common(self._rows(), other._rows())
        (a, da), (b, db) = _numerators(a_rows), _numerators(b_rows)
        return self._from_rows(tuple([_over(row, da * db) for row in _product(a, b)]))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        result = self._one()
        for _ in range(exponent):
            result = result * self
        return result


class Series(_Grid):
    def __init__(self, coeffs):
        self.coeffs = tuple([_exact(c) for c in coeffs])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if n > self.order:
            raise IndexBeyondTruncation(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def egf(self, n: int) -> Fraction:
        return factorial(n) * self.coefficient(n)

    def valuation(self):
        return next((i for i, c in enumerate(self.coeffs) if c != 0), None)

    def truncate(self, order: int) -> "Series":
        return self if order >= self.order else Series(self.coeffs[: order + 1])

    def _rows(self):
        return (self.coeffs,)

    @staticmethod
    def _from_rows(rows) -> "Series":
        return Series(rows[0])

    def _one(self):
        return constant(1, self.order)

    def __truediv__(self, other) -> "Series":
        if not isinstance(other, Series):
            return self * (1 / _exact(other))
        v = other.valuation()
        if v is None:
            raise DivisionValuation("divisor has no nonzero coefficient within its truncation")
        va = self.valuation()
        if va is not None and va < v:
            raise DivisionValuation(f"dividend valuation {va} is below divisor valuation {v}")
        n = min(len(self.coeffs), len(other.coeffs)) - v
        if n < 1:
            raise DivisionValuation("no coefficients survive the valuation shift at this truncation")
        (out,) = _grid_quotient([self.coeffs[v : v + n]], [other.coeffs[v : v + n]])
        return Series(out)

    def compose(self, inner: "Series") -> "Series":
        if inner.coeffs[0] != 0:
            raise ComposeNonzeroConstant("composition inner series has nonzero constant term")
        order = min(self.order, inner.order)
        g = inner.truncate(order)
        acc = constant(self.coeffs[order], order)
        for i in range(order - 1, -1, -1):
            acc = acc * g + self.coeffs[i]
        return acc


class BiSeries(_Grid):
    def __init__(self, coeffs):
        self.coeffs = tuple([tuple([_exact(c) for c in row]) for row in coeffs])

    @property
    def orders(self) -> tuple[int, int]:
        return (len(self.coeffs) - 1, len(self.coeffs[0]) - 1)

    def coefficient(self, m: int, l: int) -> Fraction:
        tt, ty = self.orders
        if m > tt or l > ty:
            raise IndexBeyondTruncation(f"coefficient ({m},{l}) beyond truncation {self.orders}")
        return self.coeffs[m][l]

    def egf(self, m: int, l: int) -> Fraction:
        return factorial(m) * factorial(l) * self.coefficient(m, l)

    def truncate(self, orders) -> "BiSeries":
        tt, ty = orders
        return BiSeries([row[: ty + 1] for row in self.coeffs[: tt + 1]])

    def _rows(self):
        return self.coeffs

    @staticmethod
    def _from_rows(rows) -> "BiSeries":
        return BiSeries(rows)

    def _one(self):
        return biseries_constant(1, self.orders)

    def __truediv__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            return self * (1 / _exact(other))
        if other.coeffs[0][0] == 0:
            raise DivisionZeroConstant("bivariate divisor has zero constant coefficient")
        return BiSeries(_grid_quotient(*_common(self.coeffs, other.coeffs)))

    def partial_y(self) -> "BiSeries":
        tt, ty = self.orders
        if ty == 0:
            raise IndexBeyondTruncation("cannot differentiate a series with y-order 0")
        return BiSeries([[(l + 1) * row[l + 1] for l in range(ty)] for row in self.coeffs])


def constant(value, order: int) -> Series:
    return Series((_exact(value),) + (_ZERO,) * order)


def exp_scaled(c, order: int) -> Series:
    c = _exact(c)
    return Series([c**n / factorial(n) for n in range(order + 1)])


def sinh_series(order: int) -> Series:
    return Series([Fraction(1, factorial(n)) if n % 2 else _ZERO for n in range(order + 1)])


def cosh_series(order: int) -> Series:
    return Series([_ZERO if n % 2 else Fraction(1, factorial(n)) for n in range(order + 1)])


def tanh_half(order: int) -> Series:
    e = exp_scaled(1, order)
    return (e - 1) / (e + 1)


def biseries_constant(value, orders) -> BiSeries:
    tt, ty = orders
    rows = [[_ZERO] * (ty + 1) for _ in range(tt + 1)]
    rows[0][0] = _exact(value)
    return BiSeries(rows)


def biseries_exp(a, b, orders) -> BiSeries:
    tt, ty = orders
    a, b = _exact(a), _exact(b)
    return BiSeries([[a**m * b**l / (factorial(m) * factorial(l)) for l in range(ty + 1)] for m in range(tt + 1)])


# Family -> (level, inner, denominator), as in `families._GENERATING_FUNCTIONS`, on these classes
GENERATING_FUNCTIONS = {
    fa.Family.POLY_B: (1, lambda order: constant(1, order) - exp_scaled(-1, order), lambda order, inner: inner),
    fa.Family.POLY_C: (
        1,
        lambda order: constant(1, order) - exp_scaled(-1, order),
        lambda order, inner: exp_scaled(1, order) - 1,
    ),
    fa.Family.COSECANT: (2, tanh_half, lambda order, inner: sinh_series(order)),
    fa.Family.COTANGENT: (2, tanh_half, lambda order, inner: sinh_series(order) / cosh_series(order)),
    fa.Family.TILDE_D: (1, tanh_half, lambda order, inner: sinh_series(order)),
}


def build_series_rows(family, order: int):
    """Row n <= order, over the bases m, holds n! scale Q_m[n], with Q_m = inner^m / denominator."""
    level, inner, denominator = GENERATING_FUNCTIONS[family]
    z = inner(order + 1)
    step = z if level == 1 else z * z
    bases = range(1, order + 2, level)
    columns = [z / denominator(order + 1, z)]
    for _ in range(len(bases) - 1):
        columns.append(columns[-1] * step)
    rows = []
    for n in range(order + 1):
        (numerators,), d = _numerators([[factorial(n) * level * q.coeffs[n] for q in columns]])
        rows.append(fa._row(d, zip(bases, numerators)))
    return tuple(rows)
