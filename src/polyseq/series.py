"""Exact truncated formal power series over rationals, in one and two variables.

Coefficients are stored as ordinary power-series coefficients, one `Fraction`
each; the factorial-weighted view a_n = n! * c_n is applied only on
extraction.  All values are immutable and all operations are pure functions.
The constructors build one `Fraction` per coefficient from integers: e^{ct}
at c = p/q has p^n / (q^n n!), and e^{at+by} at a = p/q, b = r/s has
p^m r^l / (q^m s^l m! l!); every zero coefficient is the shared `_ZERO`.

Products and quotients run on integers.  Each operand is written as integer
numerators over the lcm of its denominators, and one `_product` and one
`_quotient` on grids of those numerators serve both classes, a `Series`
being the one-row grid.  A product is an integer convolution over the
product of the two denominators; a quotient's numerators come from a
fraction-free recurrence in powers of the divisor's lead coefficient (see
`_quotient`).  Only the result becomes `Fraction`s, one per coefficient, so
no gcd is taken inside a convolution.

The operators both classes share (negation, `+`, `-`, `*`, `==`, `hash` and
the integer tail of `/`) are written once, on the grid of rows, and listed
under their operator names in each class, so a wrapper installed per class
(bench/tracer.py installs one) sees each class's calls.  Each class keeps its
construction, its queries, `__repr__`, the unit `**` starts from and the
checks before a division.

One cache holds work that no weight k changes: `tanh_half(order)`, which
three families' generating functions share; it grows for the life of the
process.  The family expansions in `families` build their matrices from
these series; a family's product with a fixed series is a sum of rows or a
binomial sum there, not a `Series`.

A float is refused through `_exact` by `Series` and `BiSeries` themselves, by
the public constructors `constant`, `exp_scaled`, `biseries_constant` and
`biseries_exp`, and by the scalar operands of `+`, `-`, `*` and `/`.
Arithmetic builds its results from the new `Fraction`s through `_series` and
`_biseries`, without converting them again, and so do the constructors,
`truncate` and `partial_y`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterable, Union

from .errors import (
    ComposeNonzeroConstant,
    DivisionValuation,
    DivisionZeroConstant,
    IndexBeyondTruncation,
)

Scalar = Union[int, Fraction]

DEFAULT_TRUNCATION = 24


def truncation_for(n: int) -> int:
    """Series truncation covering index n, at least 24; rounded up so sweeps share cache entries."""
    need = max(n, DEFAULT_TRUNCATION)
    return ((need + 7) // 8) * 8


def _exact(value, name: str) -> Fraction:
    """`value` as a Fraction; a float is refused, as it holds only the nearest double to what was written."""
    if isinstance(value, float):
        raise TypeError(f"{name} must be an int, a Fraction or a string such as '1/10', not the float {value!r}")
    return Fraction(value)


def _check_orders(*orders: int) -> None:
    """Refuse a negative truncation order, which would leave no constant coefficient."""
    if min(orders) < 0:
        raise ValueError("a series needs at least the constant coefficient")


_ZERO = Fraction(0)


def _numerators(rows) -> tuple[list[list[int]], int]:
    """Each row of Fractions as integer numerators over the lcm of all their denominators, and that lcm."""
    d = lcm(*[c.denominator for row in rows for c in row])
    return [[c.numerator * (d // c.denominator) for c in row] for row in rows], d


def _over(numerators, denominator: int) -> tuple[Fraction, ...]:
    """One Fraction per integer numerator over the common denominator."""
    return tuple([Fraction(x, denominator) if x else _ZERO for x in numerators])


def _lead_powers(lead: int, count: int) -> list[int]:
    """lead^0 .. lead^count."""
    powers = [1]
    for _ in range(count):
        powers.append(powers[-1] * lead)
    return powers


def _product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
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


def _quotient(a: list[list[int]], b: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Numerators N of a / b on equal-shaped integer grids, and the powers b0^0 .. b0^(rows + columns - 1) of b0 = b[0][0].

    Cell (m, l) of a / b is N_{m,l} / b0^(m+l+1), where N_{m,l} =
    a_{m,l} b0^(m+l) - sum_{(i,j) != (0,0)} N_{m-i,l-j} b_{i,j} b0^(i+j-1):
    each step of the long division raises m + l by i + j >= 1.  With a over
    d_a and b over d_b, the cell is d_b N_{m,l} / (d_a b0^(m+l+1)).
    """
    nt, ny = len(a), len(a[0])
    powers = _lead_powers(b[0][0], nt + ny - 1)
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


def _grid_quotient(a_rows, b_rows) -> tuple[tuple[Fraction, ...], ...]:
    """a / b on equal-shaped grids of Fractions whose divisor has a nonzero constant, by `_quotient`."""
    a, da = _numerators(a_rows)
    b, db = _numerators(b_rows)
    nums, powers = _quotient(a, b)
    return tuple(
        [
            tuple([Fraction(db * x, da * powers[m + l + 1]) if x else _ZERO for l, x in enumerate(row)])
            for m, row in enumerate(nums)
        ]
    )


# The operators `Series` and `BiSeries` share: each reads its operands as grids
# through `_rows` and builds its result through `_from_rows`.


def _eq(self, other) -> bool:
    return isinstance(other, type(self)) and self.coeffs == other.coeffs


def _hash(self):
    return hash(self.coeffs)


def _neg(self):
    return self._from_rows(tuple([tuple([-c for c in row]) for row in self._rows()]))


def _add(self, other):
    rows = self._rows()
    if not isinstance(other, type(self)):
        first = rows[0]
        return self._from_rows(((first[0] + _exact(other, "a scalar operand"),) + first[1:],) + rows[1:])
    return self._from_rows(tuple([tuple([x + y for x, y in zip(r, s)]) for r, s in zip(rows, other._rows())]))


def _sub(self, other):
    return self + (-other if isinstance(other, type(self)) else -_exact(other, "a scalar operand"))


def _rsub(self, other):
    return (-self) + other


def _mul(self, other):
    if not isinstance(other, type(self)):
        f = _exact(other, "a scalar operand")
        return self._from_rows(tuple([tuple([c * f for c in row]) for row in self._rows()]))
    a_rows, b_rows = _common(self._rows(), other._rows())
    a, da = _numerators(a_rows)
    b, db = _numerators(b_rows)
    return self._from_rows(tuple([_over(row, da * db) for row in _product(a, b)]))


class Series:
    """Truncated series sum_{n=0}^{order} c_n t^n with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple([_exact(c, "a coefficient") for c in coeffs])
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        """Ordinary coefficient c_n."""
        if n > self.order:
            raise IndexBeyondTruncation(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def egf(self, n: int) -> Fraction:
        """Factorial-weighted coefficient a_n = n! * c_n."""
        return factorial(n) * self.coefficient(n)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all retained are zero."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        _check_orders(order)
        return _series(self.coeffs[: order + 1])

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series(order={self.order}, [{shown}{tail}])"

    def _rows(self) -> tuple[tuple[Fraction, ...]]:
        return (self.coeffs,)

    @staticmethod
    def _from_rows(rows) -> "Series":
        return _series(rows[0])

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
        n = min(len(self.coeffs), len(other.coeffs)) - v
        if n < 1:
            raise DivisionValuation("no coefficients survive the valuation shift at this truncation")
        (out,) = _grid_quotient([self.coeffs[v : v + n]], [other.coeffs[v : v + n]])
        return _series(out)

    def __pow__(self, exponent: int) -> "Series":
        return _power(self, exponent, constant(1, self.order))

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)); inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ComposeNonzeroConstant("composition inner series has nonzero constant term")
        order = min(self.order, inner.order)
        g = inner.truncate(order)
        acc = constant(self.coeffs[order], order)
        for i in range(order - 1, -1, -1):
            acc = acc * g + self.coeffs[i]
        return acc


def _series(coeffs: tuple[Fraction, ...]) -> Series:
    """A Series over coefficients that are already Fractions, without converting them again."""
    out = object.__new__(Series)
    out.coeffs = coeffs
    return out


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
    return _series((_exact(value, "value"),) + (_ZERO,) * order)


def monomial(order: int) -> Series:
    """The series t, truncated at the given order."""
    _check_orders(order)
    return _series(tuple([Fraction(1) if n == 1 else _ZERO for n in range(order + 1)]))


def _exp_terms(c: Fraction, order: int) -> list[tuple[int, int]]:
    """(p^n, q^n n!) for n = 0..order, where c = p/q: the numerator and denominator of c^n / n!."""
    _check_orders(order)
    p, q = c.numerator, c.denominator
    terms = [(1, 1)]
    for n in range(1, order + 1):
        num, den = terms[-1]
        terms.append((num * p, den * q * n))
    return terms


def exp_scaled(c: Scalar, order: int) -> Series:
    """e^{ct} truncated: coefficients c^n / n!."""
    terms = _exp_terms(_exact(c, "c"), order)
    return _series(tuple([Fraction(num, den) if num else _ZERO for num, den in terms]))


def sinh_series(order: int) -> Series:
    _check_orders(order)
    return _series(tuple([Fraction(1, factorial(n)) if n % 2 else _ZERO for n in range(order + 1)]))


def cosh_series(order: int) -> Series:
    _check_orders(order)
    return _series(tuple([_ZERO if n % 2 else Fraction(1, factorial(n)) for n in range(order + 1)]))


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
    """Truncated series sum c_{m,l} t^m y^l on a (T_t+1) x (T_y+1) grid."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Iterable[Scalar]]):
        rows = tuple([tuple([_exact(c, "a coefficient") for c in row]) for row in coeffs])
        if not rows or not rows[0]:
            raise ValueError("a bivariate series needs at least the constant coefficient")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged coefficient grid")
        self.coeffs = rows

    @property
    def orders(self) -> tuple[int, int]:
        return (len(self.coeffs) - 1, len(self.coeffs[0]) - 1)

    def coefficient(self, m: int, l: int) -> Fraction:
        tt, ty = self.orders
        if m > tt or l > ty:
            raise IndexBeyondTruncation(f"coefficient ({m},{l}) beyond truncation {self.orders}")
        return self.coeffs[m][l]

    def egf(self, m: int, l: int) -> Fraction:
        """m! * l! times the ordinary coefficient."""
        return factorial(m) * factorial(l) * self.coefficient(m, l)

    def truncate(self, orders: tuple[int, int]) -> "BiSeries":
        tt, ty = orders
        _check_orders(tt, ty)
        return _biseries(tuple([row[: ty + 1] for row in self.coeffs[: tt + 1]]))

    def __repr__(self):
        return f"BiSeries(orders={self.orders})"

    def _rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.coeffs

    @staticmethod
    def _from_rows(rows) -> "BiSeries":
        return _biseries(rows)

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
        if other.coeffs[0][0] == 0:
            raise DivisionZeroConstant("bivariate divisor has zero constant coefficient")
        return _biseries(_grid_quotient(*_common(self.coeffs, other.coeffs)))

    def __pow__(self, exponent: int) -> "BiSeries":
        return _power(self, exponent, biseries_constant(1, self.orders))

    def partial_y(self) -> "BiSeries":
        """d/dy: shifts the y-grid down and scales; y-order drops by one."""
        tt, ty = self.orders
        if ty == 0:
            raise IndexBeyondTruncation("cannot differentiate a series with y-order 0")
        return _biseries(tuple([tuple([(l + 1) * row[l + 1] for l in range(ty)]) for row in self.coeffs]))


def _biseries(rows: tuple[tuple[Fraction, ...], ...]) -> BiSeries:
    """A BiSeries over a grid of Fractions of equal width, without converting them again."""
    out = object.__new__(BiSeries)
    out.coeffs = rows
    return out


def biseries_constant(value: Scalar, orders: tuple[int, int]) -> BiSeries:
    tt, ty = orders
    _check_orders(tt, ty)
    zeros = (_ZERO,) * (ty + 1)
    return _biseries(((_exact(value, "value"),) + zeros[1:],) + (zeros,) * tt)


def biseries_exp(a: Scalar, b: Scalar, orders: tuple[int, int] | int) -> BiSeries:
    """e^{at + by} truncated: coefficients a^m b^l / (m! l!)."""
    if isinstance(orders, int):
        orders = (orders, orders)
    tt, ty = orders
    a, b = _exact(a, "a"), _exact(b, "b")
    t_terms, y_terms = _exp_terms(a, tt), _exp_terms(b, ty)
    return _biseries(
        tuple([tuple([Fraction(p * r, q * s) if p and r else _ZERO for r, s in y_terms]) for p, q in t_terms])
    )
