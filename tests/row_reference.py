"""The row builders as they were before one Stirling kernel and one fixed-series helper built them.

Each Stirling builder took its own Taylor shift and picked its own bases; each
conversion scaled the rows it read, by `Fraction`s where x or the hat-numbers'
coefficients enter, and summed them with `_row_sum`.  They are kept verbatim,
`_row_sum` included and docstrings aside, so that the tests and CI can compare
every builder in `polyseq.families` and `polyseq.symmetrized` with them as
tuples.
"""

from fractions import Fraction
from math import comb, factorial, lcm

from polyseq.families import Family, Row, _binomial_shift, _route_row, _row
from polyseq.sequences import _exp_plus_one_numerators, euler_number, stirling2


def _cosecant_row(n: int) -> Row:
    if n % 2 == 1:
        return _row(1, ())
    w = [0] + [(-1) ** (j + 1) * factorial(j - 1) * 2 ** (n + 1 - j) * stirling2(n + 1, j) for j in range(1, n + 2)]
    shifted = _binomial_shift(w, 1)
    return _row(2**n, ((b, shifted[b]) for b in range(1, n + 2, 2)))


def _cotangent_row(n: int) -> Row:
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


def _sym_row(m: int, n: int, dyadic: bool) -> Row:
    w = [factorial(j + n) * stirling2(m + 1, j + 1) * (2 ** (m - j) if dyadic else 1) for j in range(m + 1)]
    shifted = _binomial_shift(w, -1)
    return _row(2 ** (n + m) if dyadic else 1, ((b, shifted[b - 1]) for b in range(1, m + 2)))


def _sasaki_row(n: int) -> Row:
    denominator, bases, numerators = _tilde_row(n)
    return _row(denominator, zip(bases, [2 * c for c in numerators]))


def _tilde_row(n: int) -> Row:
    w = [0] + [factorial(r - 1) * stirling2(n + 1, r) * 2 ** (n + 1 - r) for r in range(1, n + 2)]
    shifted = _binomial_shift(w, -1)
    return _row(2 ** (n + 1), ((m, shifted[m]) for m in range(1, n + 2)))


def _row_sum(parts) -> Row:
    denominator = lcm(*[d * scale.denominator for scale, (d, _, _) in parts])
    coefficients: dict[int, int] = {}
    for scale, (d, bases, numerators) in parts:
        factor = scale.numerator * (denominator // (d * scale.denominator))
        for b, c in zip(bases, numerators):
            coefficients[b] = coefficients.get(b, 0) + factor * c
    return _row(denominator, coefficients.items())


def _from_cosecant_row(n: int) -> Row:
    if n % 2 == 1:
        return _row(1, ())
    return _row_sum([(comb(n, j), _route_row(Family.COSECANT, j, "explicit")) for j in range(0, n + 1, 2)])


def _cosecant_from_cotangent_row(n: int) -> Row:
    return _row_sum(
        [(comb(n, j) * euler_number(n - j), _route_row(Family.COTANGENT, j, "explicit")) for j in range(0, n + 1, 2)]
    )


def _k_shift_row(n: int) -> Row:
    return _row_sum([(comb(n + 1, j), _route_row(Family.COSECANT, j, "explicit")) for j in range(n % 2, n + 1, 2)])


def _bernoulli_polynomial_row(n: int, x: Fraction) -> Row:
    return _row_sum([(comb(n, j) * (-x) ** (n - j), _route_row(Family.POLY_B, j, "stirling")) for j in range(n + 1)])


def _hat_row(m: int, n: int) -> Row:
    factor = [Fraction(numerator, 1 << (n + i)) for i, numerator in enumerate(_exp_plus_one_numerators(n, m))]
    tilde = Family.TILDE_D
    return _row_sum([(comb(m, j) * factor[m - j], _route_row(tilde, j, "explicit")) for j in range(m + 1)])
