"""Exact truncated formal power series over rationals, in one and two variables.

A `Series` or `BiSeries` is one positive integer denominator and a grid of
integer numerators of the ordinary coefficients (a `Series` is the one-row
grid), in lowest terms: no integer above one divides the denominator and
every numerator.  So two series are equal, and hash alike, exactly when
their (denominator, grid) pairs are.  Values are immutable.  `Fraction`s are
made only where a caller reads values: `coeffs` builds its tuple on each
read and keeps nothing, `coefficient` builds one, and `egf`, the weighted
a_n = n! * c_n, scales that one.

Every operator runs on integers.  A sum rescales both grids to the lcm of
their denominators; a product is an integer convolution, `_product`, over
the product of the denominators; a quotient's numerators come from a
fraction-free recurrence in powers of the divisor's lead numerator (see
`_quotient` and `_divided`).  One gcd over the grid, in `_new`, brings each
result to lowest terms.  The constructors build grids from integers: e^{ct}
at c = p/q and order T is p^n q^(T-n) T!/n! over q^T T!; `_reflected` gives
f(-t, y) by negating f's odd t-rows, so f and its mirror cost one quotient.
The operators both classes share (negation, `+`, `-`, `*`, `==`, `hash` and
the integer tail of `/`) are written once and listed under their operator
names in each class, so a wrapper installed per class (bench/tracer.py
installs one) sees each class's calls.

One cache, `tanh_half(order)`, holds what three families' generating
functions share; it grows for the life of the process.  `families` reads
the integer grids of its quotient series into its matrices.

A float is refused through `_exact` by `Series` and `BiSeries` themselves, by
the public constructors `constant`, `exp_scaled`, `biseries_constant` and
`biseries_exp`, and by the scalar operands of `+`, `-`, `*` and `/`; the
residue primitives and the witness checker in `congruences` refuse it the
same way.  `_exact` returns a `Fraction` as it is and converts only ints and
strings, so passing a value through it again costs one type check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Iterable, Union

from .errors import DivisionValuation, DivisionZeroConstant, IndexBeyondTruncation

Scalar = Union[int, Fraction]

DEFAULT_TRUNCATION = 24


def truncation_for(n: int) -> int:
    """Series truncation covering index n, at least 24; rounded up so sweeps share cache entries."""
    need = max(n, DEFAULT_TRUNCATION)
    return ((need + 7) // 8) * 8


def _exact(value, name: str) -> Fraction:
    """`value` as a Fraction; a float is refused, as it holds only the nearest double to what was written.

    A Fraction is returned as it is, with no copy: `Fraction(x)` of a Fraction
    goes through the `numbers.Rational` ABC check, which costs more than ten
    times this whole call.  Ints and strings such as '1/10' are converted.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"{name} must be an int, a Fraction or a string such as '1/10', not the float {value!r}")
    return Fraction(value)


def _check_orders(*orders: int) -> None:
    """Refuse a negative truncation order, which would leave no constant coefficient."""
    if min(orders) < 0:
        raise ValueError("a series needs at least the constant coefficient")


_ZERO = Fraction(0)


def _new(cls, den: int, grid):
    """A `cls` over a positive denominator and a grid of integer numerators, both divided by their gcd."""
    common = gcd(den, *[x for row in grid for x in row])
    if common != 1:
        den //= common
        grid = [[x // common for x in row] for row in grid]
    out = object.__new__(cls)
    out._den = den
    out._grid = tuple([tuple(row) for row in grid])
    return out


def _set_fractions(self, rows) -> None:
    """Self from rows of Fractions: over the lcm of lowest-terms denominators no factor is common to all."""
    den = lcm(*[c.denominator for row in rows for c in row])
    self._den = den
    self._grid = tuple([tuple([c.numerator * (den // c.denominator) for c in row]) for row in rows])


def _product(a, b) -> list[list[int]]:
    """The product of two equal-shaped grids of integer numerators, truncated to that shape."""
    nt, ny = len(a), len(a[0])
    terms = [(i, [(j, y) for j, y in enumerate(row) if y]) for i, row in enumerate(b)]
    terms = [(i, row) for i, row in terms if row]
    out = [[0] * ny for _ in range(nt)]
    for m, arow in enumerate(a):
        for l, x in enumerate(arow):
            if not x:
                continue
            for i, brow in terms:
                if m + i >= nt:
                    break
                orow = out[m + i]
                for j, y in brow:
                    if l + j >= ny:
                        break
                    orow[l + j] += x * y
    return out


def _quotient(a, b) -> tuple[list[list[int]], list[int]]:
    """Numerators N of a / b on equal-shaped integer grids, and the powers b0^0 .. b0^(rows + columns - 1) of b0 = b[0][0].

    Cell (m, l) of a / b is N_{m,l} / b0^(m+l+1), where N_{m,l} =
    a_{m,l} b0^(m+l) - sum_{(i,j) != (0,0)} N_{m-i,l-j} b_{i,j} b0^(i+j-1):
    each step of the long division raises m + l by i + j >= 1.
    """
    nt, ny = len(a), len(a[0])
    powers = _geometric(1, b[0][0], nt + ny)
    terms = [(i, [(j, y * powers[i + j - 1]) for j, y in enumerate(row) if y and i + j]) for i, row in enumerate(b)]
    terms = [(i, row) for i, row in terms if row]
    nums = []
    for m, arow in enumerate(a):
        nrow = []
        nums.append(nrow)
        for l, x in enumerate(arow):
            acc = x * powers[m + l]
            for i, brow in terms:
                if i > m:
                    break
                prev = nums[m - i]
                for j, y in brow:
                    if j > l:
                        break
                    if prev[l - j]:
                        acc -= prev[l - j] * y
            nrow.append(acc)
    return nums, powers


def _common(a, b) -> tuple[list, list]:
    """Two grids cut to the rows and columns they both have."""
    nt, ny = min(len(a), len(b)), min(len(a[0]), len(b[0]))
    return [row[:ny] for row in a[:nt]], [row[:ny] for row in b[:nt]]


def _divided(cls, a_den: int, b_den: int, a, b):
    """(a / a_den) / (b / b_den) on equal-shaped grids whose divisor has a nonzero constant, by `_quotient`.

    Cell (m, l) is b_den N_{m,l} / (a_den b0^(m+l+1)).  Each N is put in
    lowest terms over its power first: scaling every cell to the top power
    and taking one gcd over the grid costs more than these small gcds.  A
    negative power keeps its sign there, and `den // q` carries it to N.
    """
    nums, powers = _quotient(a, b)
    cells = [[(x // (g := gcd(x, p)), p // g) for x, p in zip(row, powers[m + 1 :])] for m, row in enumerate(nums)]
    den = lcm(*[q for row in cells for _, q in row])
    return _new(cls, a_den * den, [[b_den * x * (den // q) if x else 0 for x, q in row] for row in cells])


# The operators `Series` and `BiSeries` share: each reads its operands'
# denominators and grids and builds its result through `_new`.


def _eq(self, other) -> bool:
    return isinstance(other, type(self)) and self._den == other._den and self._grid == other._grid


def _hash(self):
    return hash((self._den, self._grid))


def _neg(self):
    return _new(type(self), self._den, [[-x for x in row] for row in self._grid])


def _add(self, other):
    if not isinstance(other, type(self)):
        f = _exact(other, "a scalar operand")
        den = lcm(self._den, f.denominator)
        scale = den // self._den
        grid = [[x * scale for x in row] for row in self._grid]
        grid[0][0] += f.numerator * (den // f.denominator)
        return _new(type(self), den, grid)
    den = lcm(self._den, other._den)
    sa, sb = den // self._den, den // other._den
    return _new(type(self), den, [[x * sa + y * sb for x, y in zip(r, s)] for r, s in zip(self._grid, other._grid)])


def _sub(self, other):
    return self + (-other if isinstance(other, type(self)) else -_exact(other, "a scalar operand"))


def _rsub(self, other):
    return (-self) + other


def _mul(self, other):
    if not isinstance(other, type(self)):
        f = _exact(other, "a scalar operand")
        return _new(type(self), self._den * f.denominator, [[x * f.numerator for x in row] for row in self._grid])
    return _new(type(self), self._den * other._den, _product(*_common(self._grid, other._grid)))


class Series:
    """Truncated series sum_{n=0}^{order} c_n t^n: integer numerators over one denominator."""

    __slots__ = ("_den", "_grid")

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple([_exact(c, "a coefficient") for c in coeffs])
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        _set_fractions(self, (cs,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built from the integer grid on each read."""
        return tuple([Fraction(x, self._den) if x else _ZERO for x in self._grid[0]])

    @property
    def order(self) -> int:
        return len(self._grid[0]) - 1

    def _numerator(self, n: int) -> int:
        if n > self.order:
            raise IndexBeyondTruncation(f"coefficient {n} beyond truncation order {self.order}")
        return self._grid[0][n]

    def coefficient(self, n: int) -> Fraction:
        """Ordinary coefficient c_n."""
        return Fraction(self._numerator(n), self._den)

    def egf(self, n: int) -> Fraction:
        """Factorial-weighted coefficient a_n = n! * c_n, one Fraction of the scaled numerator."""
        return Fraction(self._numerator(n) * factorial(n), self._den)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all retained are zero."""
        return next((i for i, x in enumerate(self._grid[0]) if x), None)

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        _check_orders(order)
        return _new(Series, self._den, (self._grid[0][: order + 1],))

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series(order={self.order}, [{shown}{tail}])"

    __eq__ = _eq
    __hash__ = _hash
    __neg__ = _neg
    __add__ = __radd__ = _add
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul

    def __truediv__(self, other) -> "Series":
        if not isinstance(other, Series):
            return self * (1 / _exact(other, "a scalar divisor"))
        v = other.valuation()
        if v is None:
            raise DivisionValuation("divisor has no nonzero coefficient within its truncation")
        va = self.valuation()
        if va is not None and va < v:
            raise DivisionValuation(f"dividend valuation {va} is below divisor valuation {v}")
        # cancel t^v on both sides; the quotient keeps min(Ta, Tb) - v terms
        n = min(self.order, other.order) + 1 - v
        if n < 1:
            raise DivisionValuation("no coefficients survive the valuation shift at this truncation")
        return _divided(Series, self._den, other._den, [self._grid[0][v : v + n]], [other._grid[0][v : v + n]])

    def __pow__(self, exponent: int) -> "Series":
        return _power(self, exponent, constant(1, self.order))


def _power(base, exponent: int, one):
    """base**exponent from the highest bit down: bit_length - 1 squarings, popcount - 1 more products."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("series powers take non-negative integer exponents")
    result = base if exponent else one
    for bit in bin(exponent)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


def constant(value: Scalar, order: int) -> Series:
    _check_orders(order)
    f = _exact(value, "value")
    return _new(Series, f.denominator, ((f.numerator,) + (0,) * order,))


def _exp_row(c: Fraction, order: int) -> tuple[int, list[int]]:
    """(q^T T!, [p^n q^(T-n) T!/n! for n = 0..T]) at T = order and c = p/q: c^n / n! over one denominator."""
    _check_orders(order)
    p, q = c.numerator, c.denominator
    cofactors = [1]
    for n in range(order, 0, -1):
        cofactors.append(cofactors[-1] * q * n)
    row, power = [], 1
    for cofactor in reversed(cofactors):
        row.append(power * cofactor)
        power *= p
    return cofactors[-1], row


def exp_scaled(c: Scalar, order: int) -> Series:
    """e^{ct} truncated: coefficients c^n / n!."""
    den, row = _exp_row(_exact(c, "c"), order)
    return _new(Series, den, (row,))


def sinh_series(order: int) -> Series:
    den, row = _exp_row(Fraction(1), order)
    return _new(Series, den, ([x if n % 2 else 0 for n, x in enumerate(row)],))


def cosh_series(order: int) -> Series:
    den, row = _exp_row(Fraction(1), order)
    return _new(Series, den, ([0 if n % 2 else x for n, x in enumerate(row)],))


@lru_cache(maxsize=None)
def tanh_half(order: int) -> Series:
    """tanh(t/2) as (e^t - 1) / (e^t + 1), never via floating point."""
    e = exp_scaled(1, order)
    return (e - 1) / (e + 1)


def tanh_series(order: int) -> Series:
    return sinh_series(order) / cosh_series(order)


def _geometric(start, step, count: int) -> list:
    """start, start * step, start * step^2, ...: count terms, each one product from the last."""
    terms = [start][:count]
    for _ in range(count - 1):
        terms.append(terms[-1] * step)
    return terms


class BiSeries:
    """Truncated series sum c_{m,l} t^m y^l on a (T_t+1) x (T_y+1) grid of integer numerators over one denominator."""

    __slots__ = ("_den", "_grid")

    def __init__(self, coeffs: Iterable[Iterable[Scalar]]):
        rows = tuple([tuple([_exact(c, "a coefficient") for c in row]) for row in coeffs])
        if not rows or not rows[0]:
            raise ValueError("a bivariate series needs at least the constant coefficient")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged coefficient grid")
        _set_fractions(self, rows)

    @property
    def coeffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """The coefficient grid as Fractions, built from the integer grid on each read."""
        d = self._den
        return tuple([tuple([Fraction(x, d) if x else _ZERO for x in row]) for row in self._grid])

    @property
    def orders(self) -> tuple[int, int]:
        return (len(self._grid) - 1, len(self._grid[0]) - 1)

    def _numerator(self, m: int, l: int) -> int:
        tt, ty = self.orders
        if m > tt or l > ty:
            raise IndexBeyondTruncation(f"coefficient ({m},{l}) beyond truncation {self.orders}")
        return self._grid[m][l]

    def coefficient(self, m: int, l: int) -> Fraction:
        return Fraction(self._numerator(m, l), self._den)

    def egf(self, m: int, l: int) -> Fraction:
        """m! * l! times the ordinary coefficient, one Fraction of the scaled numerator."""
        return Fraction(self._numerator(m, l) * factorial(m) * factorial(l), self._den)

    def truncate(self, orders: tuple[int, int]) -> "BiSeries":
        tt, ty = orders
        _check_orders(tt, ty)
        return _new(BiSeries, self._den, [row[: ty + 1] for row in self._grid[: tt + 1]])

    def __repr__(self):
        return f"BiSeries(orders={self.orders})"

    __eq__ = _eq
    __hash__ = _hash
    __neg__ = _neg
    __add__ = __radd__ = _add
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul

    def __truediv__(self, other: "BiSeries") -> "BiSeries":
        if not isinstance(other, BiSeries):
            return self * (1 / _exact(other, "a scalar divisor"))
        if other._grid[0][0] == 0:
            raise DivisionZeroConstant("bivariate divisor has zero constant coefficient")
        return _divided(BiSeries, self._den, other._den, *_common(self._grid, other._grid))

    def __pow__(self, exponent: int) -> "BiSeries":
        return _power(self, exponent, biseries_constant(1, self.orders))


def _reflected(f: BiSeries) -> BiSeries:
    """f(-t, y): the same grid with its odd t-rows negated, so no quotient in t is taken twice."""
    return _new(BiSeries, f._den, [[-x for x in row] if m % 2 else row for m, row in enumerate(f._grid)])


def biseries_constant(value: Scalar, orders: tuple[int, int]) -> BiSeries:
    tt, ty = orders
    _check_orders(tt, ty)
    f = _exact(value, "value")
    zeros = (0,) * (ty + 1)
    return _new(BiSeries, f.denominator, ((f.numerator,) + zeros[1:],) + (zeros,) * tt)


def biseries_exp(a: Scalar, b: Scalar, orders: tuple[int, int] | int) -> BiSeries:
    """e^{at + by} truncated: coefficients a^m b^l / (m! l!)."""
    if isinstance(orders, int):
        orders = (orders, orders)
    tt, ty = orders
    a, b = _exact(a, "a"), _exact(b, "b")
    (t_den, t_row), (y_den, y_row) = _exp_row(a, tt), _exp_row(b, ty)
    return _new(BiSeries, t_den * y_den, [[x * y for y in y_row] for x in t_row])
