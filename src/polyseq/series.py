"""Exact truncated formal power series over rationals, in one and two variables.

Coefficients are stored as ordinary power-series coefficients; the
factorial-weighted view a_n = n! * c_n is applied only on extraction, so
convolutions stay denominator-light.  All values are immutable and all
operations are pure functions.

Three caches hold work that no weight k changes: `tanh_half(order)`,
`tanh_series(order)`, and the powers inner^m that `polylog_apply` sums, kept
per (level, inner) series.  All three grow for the life of the process.
`polylog_apply` is the public per-weight reference: the family expansions in
`families` no longer call it, and the tests check them against it.  A
family's product with a fixed series is a binomial sum there, not a `Series`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
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


class Series:
    """Truncated series sum_{n=0}^{order} c_n t^n with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(Fraction(c) for c in coeffs)
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
        return Series(self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series(order={self.order}, [{shown}{tail}])"

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Series":
        if isinstance(other, Series):
            n = min(len(self.coeffs), len(other.coeffs))
            return Series(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n)))
        return Series((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __sub__(self, other) -> "Series":
        return self + (-other if isinstance(other, Series) else -Fraction(other))

    def __rsub__(self, other) -> "Series":
        return (-self) + other

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            f = Fraction(other)
            return Series(tuple(c * f for c in self.coeffs))
        n = min(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i in range(n):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return Series(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Series":
        if not isinstance(other, Series):
            return self * (Fraction(1) / Fraction(other))
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
        a = self.coeffs[v : v + n]
        b = other.coeffs[v : v + n]
        lead = b[0]
        out = [Fraction(0)] * n
        for i in range(n):
            acc = a[i]
            for j in range(i):
                if out[j] != 0 and b[i - j] != 0:
                    acc -= out[j] * b[i - j]
            out[i] = acc / lead
        return Series(out)

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


def _power(base, exponent: int, one):
    """base**exponent by repeated squaring, starting from the unit `one`."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("series powers take non-negative integer exponents")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base
        exponent >>= 1
    return result


def constant(value: Scalar, order: int) -> Series:
    return Series((Fraction(value),) + (Fraction(0),) * order)


def monomial(order: int) -> Series:
    """The series t, truncated at the given order."""
    return Series(tuple(Fraction(1) if n == 1 else Fraction(0) for n in range(order + 1)))


def exp_scaled(c: Scalar, order: int) -> Series:
    """e^{ct} truncated: coefficients c^n / n!."""
    c = Fraction(c)
    return Series(tuple(c**n / factorial(n) for n in range(order + 1)))


def sinh_series(order: int) -> Series:
    return Series(tuple(Fraction(1, factorial(n)) if n % 2 else Fraction(0) for n in range(order + 1)))


def cosh_series(order: int) -> Series:
    return Series(tuple(Fraction(0) if n % 2 else Fraction(1, factorial(n)) for n in range(order + 1)))


@lru_cache(maxsize=None)
def tanh_half(order: int) -> Series:
    """tanh(t/2) as sinh(t/2) / cosh(t/2), never via floating point."""
    half = Fraction(1, 2)
    sinh_h = (exp_scaled(half, order) - exp_scaled(-half, order)) * half
    cosh_h = (exp_scaled(half, order) + exp_scaled(-half, order)) * half
    return sinh_h / cosh_h


@lru_cache(maxsize=None)
def tanh_series(order: int) -> Series:
    return sinh_series(order) / cosh_series(order)


def _reciprocal_power(base: int, k: int) -> Fraction:
    """base^{-k} as an exact rational; integer for k <= 0."""
    return Fraction(1, base**k) if k >= 0 else Fraction(base ** (-k))


def polylog_apply(level: int, k: int, inner: Series) -> Series:
    """Substitute `inner` into the weight-k polylogarithm of the given level.

    Level one is sum_{m>=1} z^m / m^k; level two is 2 sum_{n>=0}
    z^{2n+1} / (2n+1)^k.  Only the formal series is used: negative k just
    makes the multipliers integer powers.  `inner` must have valuation >= 1,
    so finitely many powers contribute below the truncation order.
    """
    if level not in (1, 2):
        raise ValueError("polylogarithm level must be 1 or 2")
    if inner.coeffs[0] != 0:
        raise ComposeNonzeroConstant("polylogarithm inner series has nonzero constant term")
    scale = 1 if level == 1 else 2
    out = [Fraction(0)] * (inner.order + 1)
    for m, coeffs in _polylog_powers(level, inner):
        w = scale * _reciprocal_power(m, k)
        for i, c in enumerate(coeffs):
            if c != 0:
                out[i] += w * c
    return Series(out)


@lru_cache(maxsize=None)
def _polylog_powers(level: int, inner: Series) -> tuple[tuple[int, tuple[Fraction, ...]], ...]:
    """(m, coefficients of inner^m) for each m the level's sum takes, up to inner's order."""
    step = inner if level == 1 else inner * inner
    power = inner
    rows = []
    for m in range(1, inner.order + 1, level):
        if rows:
            power = power * step
        rows.append((m, power.coeffs))
    return tuple(rows)


class BiSeries:
    """Truncated series sum c_{m,l} t^m y^l on a (T_t+1) x (T_y+1) grid."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Iterable[Scalar]]):
        rows = tuple(tuple(Fraction(c) for c in row) for row in coeffs)
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
        return BiSeries(tuple(row[: ty + 1] for row in self.coeffs[: tt + 1]))

    def __eq__(self, other) -> bool:
        return isinstance(other, BiSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"BiSeries(orders={self.orders})"

    def __neg__(self):
        return BiSeries(tuple(tuple(-c for c in row) for row in self.coeffs))

    def _common(self, other: "BiSeries") -> tuple[int, int]:
        return (
            min(len(self.coeffs), len(other.coeffs)),
            min(len(self.coeffs[0]), len(other.coeffs[0])),
        )

    def __add__(self, other):
        if not isinstance(other, BiSeries):
            rows = [list(r) for r in self.coeffs]
            rows[0][0] += Fraction(other)
            return BiSeries(rows)
        nt, ny = self._common(other)
        return BiSeries(
            tuple(
                tuple(self.coeffs[m][l] + other.coeffs[m][l] for l in range(ny))
                for m in range(nt)
            )
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, BiSeries) else -Fraction(other))

    def __mul__(self, other):
        if not isinstance(other, BiSeries):
            f = Fraction(other)
            return BiSeries(tuple(tuple(c * f for c in row) for row in self.coeffs))
        nt, ny = self._common(other)
        out = [[Fraction(0)] * ny for _ in range(nt)]
        for m in range(nt):
            for l in range(ny):
                a = self.coeffs[m][l]
                if a == 0:
                    continue
                for i in range(nt - m):
                    row = other.coeffs[i]
                    for j in range(ny - l):
                        b = row[j]
                        if b != 0:
                            out[m + i][l + j] += a * b
        return BiSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other: "BiSeries") -> "BiSeries":
        if not isinstance(other, BiSeries):
            return self * (Fraction(1) / Fraction(other))
        lead = other.coeffs[0][0]
        if lead == 0:
            raise DivisionZeroConstant("bivariate divisor has zero constant coefficient")
        nt, ny = self._common(other)
        out = [[Fraction(0)] * ny for _ in range(nt)]
        for m in range(nt):
            for l in range(ny):
                acc = self.coeffs[m][l]
                for i in range(m + 1):
                    brow = other.coeffs
                    for j in range(l + 1):
                        if (i, j) != (0, 0):
                            q = out[m - i][l - j]
                            if q != 0 and brow[i][j] != 0:
                                acc -= q * brow[i][j]
                out[m][l] = acc / lead
        return BiSeries(out)

    def __pow__(self, exponent: int) -> "BiSeries":
        return _power(self, exponent, biseries_constant(1, self.orders))

    def partial_y(self) -> "BiSeries":
        """d/dy: shifts the y-grid down and scales; y-order drops by one."""
        tt, ty = self.orders
        if ty == 0:
            raise IndexBeyondTruncation("cannot differentiate a series with y-order 0")
        return BiSeries(
            tuple(tuple((l + 1) * row[l + 1] for l in range(ty)) for row in self.coeffs)
        )


def biseries_constant(value: Scalar, orders: tuple[int, int]) -> BiSeries:
    tt, ty = orders
    rows = [[Fraction(0)] * (ty + 1) for _ in range(tt + 1)]
    rows[0][0] = Fraction(value)
    return BiSeries(rows)


def biseries_exp(a: Scalar, b: Scalar, orders: tuple[int, int] | int) -> BiSeries:
    """e^{at + by} truncated: coefficients a^m b^l / (m! l!)."""
    if isinstance(orders, int):
        orders = (orders, orders)
    tt, ty = orders
    a = Fraction(a)
    b = Fraction(b)
    return BiSeries(
        tuple(
            tuple(a**m * b**l / (factorial(m) * factorial(l)) for l in range(ty + 1))
            for m in range(tt + 1)
        )
    )
