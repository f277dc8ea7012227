"""The per-weight polylogarithm reference the tests check the family expansions against.

`polylog_apply(level, k, inner)` substitutes a series into the weight-k
polylogarithm, one weight at a time, by summing the powers inner^m.  The
library builds each family's k-independent quotient matrix instead; this
module keeps the direct expansion as an independent check of it.
"""

from fractions import Fraction
from functools import lru_cache

from polyseq.errors import ComposeNonzeroConstant
from polyseq.series import Series, _geometric


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
    ms = range(1, inner.order + 1, level)
    return tuple([(m, power.coeffs) for m, power in zip(ms, _geometric(inner, step, len(ms)))])
