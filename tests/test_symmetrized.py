"""Symmetrized poly-Bernoulli and polycosecant numbers and their dualities."""

from fractions import Fraction as F
from functools import lru_cache
from math import comb, factorial

import pytest

from polyseq import (
    MethodDomain,
    copoly_hat,
    euler_polynomial,
    poly_bernoulli,
    polycosecant,
    polycotangent,
    stirling1,
    sym_bernoulli_bivariate,
    sym_cosecant_bivariate,
    sym_poly_bernoulli,
    sym_polycosecant,
    tilde_cosecant,
)
from polyseq import families as fa
from polyseq import symmetrized as sy
from polyseq.series import (
    Series,
    biseries_constant,
    biseries_exp,
    constant,
    exp_scaled,
    sinh_series,
    tanh_half,
    truncation_for,
)
from polyseq.congruences import verify
from polyseq.families import _sym_row
from polyseq.sequences import _exp_plus_one_numerators
from polyseq.symmetrized import _hat_row, sym_cosecant_halves

from polylog_reference import polylog_apply
from series_reference import partial_y


def test_sym_bernoulli_three_routes_agree():
    # the third route, extraction from the two-variable function, is built once per level
    for n in range(4):
        f = sym_bernoulli_bivariate(n, 5)
        for m in range(6):
            for l in range(6):
                closed = sym_poly_bernoulli(m, l, n)
                assert closed == sym_poly_bernoulli(m, l, n, method="definition")
                assert closed == f.egf(l, m)


def test_sym_bernoulli_levels_zero_and_one_are_plain_variants():
    for m in range(6):
        for l in range(6):
            assert sym_poly_bernoulli(m, l, 0) == poly_bernoulli("B", m, -l)
            assert sym_poly_bernoulli(m, l, 1) == poly_bernoulli("C", m, -(l + 1))


def test_sym_bernoulli_zero_indices_factorial():
    for n in range(7):
        assert sym_poly_bernoulli(0, 0, n) == factorial(n)


def test_sym_bernoulli_positive_integers():
    for n in range(5):
        for m in range(6):
            for l in range(6):
                value = sym_poly_bernoulli(m, l, n)
                assert value.denominator == 1
                assert value >= 1


def test_sym_bernoulli_duality():
    for n in range(5):
        for m in range(7):
            for l in range(m):
                assert sym_poly_bernoulli(m, l, n, method="definition") == sym_poly_bernoulli(
                    l, m, n, method="definition"
                )


def test_sym_bernoulli_unknown_method():
    with pytest.raises(MethodDomain) as info:
        sym_poly_bernoulli(1, 1, 1, method="magic")
    assert str(info.value) == "unknown symmetrized poly-Bernoulli method 'magic'"
    # the method name is checked before the odd-order zero of sym-D
    for m in (2, 3):
        with pytest.raises(MethodDomain) as info:
            sym_polycosecant(m, 1, 1, method="magic")
        assert str(info.value) == "unknown symmetrized polycosecant method 'magic'"
    # and a negative index before the method name, sym-B's biseries included
    for method in ("magic", "biseries", "definition"):
        with pytest.raises(ValueError, match="indices must be non-negative"):
            sym_poly_bernoulli(1, -1, 1, method=method)
        with pytest.raises(ValueError, match="indices must be non-negative"):
            sym_polycosecant(3, 1, -1, method=method)


def test_a_duality_sweep_builds_each_definition_row_once(monkeypatch):
    # one cache miss, and one `_rising`, per distinct (m, n) of the sweep, not one per value
    built = []
    rising = fa._rising
    monkeypatch.setattr(fa, "_rising", lambda row, n: built.append(n) or rising(row, n))
    for identity in ("DUALITY_SYM_B", "DUALITY_SYM_COSE"):
        sy._definition_row.cache_clear()
        built.clear()
        assert verify(identity, lmax=24, nmax=12).passed
        assert len(built) == sy._definition_row.cache_info().misses == 25 * 13, identity


def test_sym_rows_collapse_to_plain_rows():
    # the rows hold for every weight l at once, so levels 0 and 1 are proved
    # for all l at these orders.  C_m^{(-(l+1))} has exponent l+1, one more
    # than sym-B's, and so does D_m^{(-(l+1))}; half of it is sym-D, still in
    # lowest terms over twice D's denominator
    for m in range(30):
        assert _sym_row(m, 0, False) == fa._poly_bernoulli_row("B", m)
        _, c_bases, c_numerators = fa._poly_bernoulli_row("C", m)
        assert _sym_row(m, 1, False) == (1, c_bases, tuple(c * b for b, c in zip(c_bases, c_numerators)))
        if m % 2 == 0:
            denominator, d_bases, d_numerators = fa._cosecant_row(m)
            lifted = tuple(c * b for b, c in zip(d_bases, d_numerators))
            assert _sym_row(m, 1, True) == (2 * denominator, d_bases, lifted)


def test_hat_numbers_vanish_at_odd_order():
    for n in range(4):
        for l in range(5):
            for m in (1, 3, 5):
                assert copoly_hat(m, l, n) == 0


@lru_cache(maxsize=None)
def _exp_plus_one_power(e, order):
    return (exp_scaled(1, order) + 1) ** e


@lru_cache(maxsize=None)
def _old_copoly_hat_series(l, n, order):
    """The hat-numbers' series as it was built before `families._binomial_sum`.

    Even part of (e^t+1)^{1-n} Li_{-l}(tanh(t/2)) / sinh t, with the TildeD
    series taken from polylog_apply and the even part as (g(t) + g(-t)) / 2.
    """
    g = polylog_apply(1, -l, tanh_half(order + 1)) / sinh_series(order + 1)
    if n == 0:
        g = g * (exp_scaled(1, order) + 1)
    elif n >= 2:
        g = g / _exp_plus_one_power(n - 1, order)
    mirror = Series(tuple(-c if i % 2 else c for i, c in enumerate(g.coeffs)))
    return (g + mirror) * F(1, 2)


def _series_hat_factor(n, order):
    """Weighted coefficients of (e^t+1)^{1-n} as the hat-numbers built them from series."""
    base = exp_scaled(1, order) + 1
    factor = base if n == 0 else constant(1, order) / base ** (n - 1)
    return tuple(factorial(i) * c for i, c in enumerate(factor.coeffs))


def _hat_factor(n, m):
    """h_0..h_m as the hat-numbers read them, N_i / 2^(n+i) from the Stirling numerators N_i."""
    return [F(numerator, 2 ** (n + i)) for i, numerator in enumerate(_exp_plus_one_numerators(n, m))]


def test_hat_factor_stirling_sum_equals_the_series():
    for n in range(9):
        want = _series_hat_factor(n, 40)
        for m in range(41):
            assert _hat_factor(n, m) == list(want[: m + 1]), (n, m)
    # levels past any series truncation the sweeps use
    assert _hat_factor(60, 3) == list(_series_hat_factor(60, 3))


def test_hat_numbers_equal_the_series_they_replaced():
    # m crosses the series truncations 24, 32 and 40
    for n in range(6):
        for l in range(11):
            for m in range(41):
                want = _old_copoly_hat_series(l, n, truncation_for(m)).egf(m)
                assert copoly_hat(m, l, n) == want, (m, l, n)


def test_definition_rows_are_the_closed_form_rows_at_every_weight():
    # equal rows in lowest terms prove definition = closed form at every l,
    # so both symmetrized dualities hold at these (m, n) for every weight
    for n in range(7):
        for m in range(25):
            assert fa._rising(fa._bernoulli_polynomial_row(m, n), n) == _sym_row(m, n, False), (m, n)
            if m % 2 == 0:
                assert fa._rising(_hat_row(m, n), n) == _sym_row(m, n, True), (m, n)


def _old_first_kind_sum(n, l, value):
    """sum_{j<=n} s(n,j) value(l+j), one weight at a time, as both definitions were summed before their rows."""
    return sum((stirling1(n, j) * value(l + j) for j in range(n + 1) if stirling1(n, j)), F(0))


def test_definitions_equal_the_per_weight_sums_they_replaced():
    for n in range(6):
        for m in range(13):
            for l in range(9):
                want = _old_first_kind_sum(n, l, lambda w: fa.poly_bernoulli_polynomial(m, -w, n))
                assert sym_poly_bernoulli(m, l, n, method="definition") == want, (m, l, n)
                want = _old_first_kind_sum(n, l, lambda w: copoly_hat(m, w, n))
                assert sym_polycosecant(m, l, n, method="definition") == want, (m, l, n)


def test_hat_numbers_level_one_weight_shift():
    # at level 1 the prefactor disappears and s(1,1) = 1 is the only weight,
    # so the symmetrized value is the hat-number one weight deeper, which in
    # turn is half a polycosecant number
    for m in range(0, 8, 2):
        for l in range(5):
            assert sym_polycosecant(m, l, 1) == polycosecant(m, -(l + 1)) / 2
            assert sym_polycosecant(m, l, 1) == copoly_hat(m, l + 1, 1)


def test_sym_cosecant_routes_agree():
    for n in range(4):
        for m in range(0, 7):
            for l in range(6):
                assert sym_polycosecant(m, l, n) == sym_polycosecant(
                    m, l, n, method="definition"
                )


def test_sym_cosecant_zero_point():
    assert sym_polycosecant(0, 0, 0) == 1


def test_sym_cosecant_odd_order_zero():
    for n in range(4):
        for l in range(5):
            assert sym_polycosecant(3, l, n) == 0
            assert sym_polycosecant(5, l, n, method="definition") == 0


def test_sym_cosecant_scaled_integrality():
    for n in range(5):
        for m in range(0, 9, 2):
            for l in range(7):
                scaled = sym_polycosecant(m, l, n) * F(2 ** (n + 1), factorial(n))
                assert scaled.denominator == 1
                assert scaled >= 0


def test_sym_cosecant_duality():
    for n in range(5):
        for m in range(5):
            for l in range(m):
                assert sym_polycosecant(2 * m, 2 * l, n, method="definition") == sym_polycosecant(
                    2 * l, 2 * m, n, method="definition"
                )


def test_duality_level_one_restates_cosecant_duality():
    # level 1 turns the symmetrized duality into D_{2m}^{(-2l-1)} = D_{2l}^{(-2m-1)}
    for m in range(5):
        for l in range(5):
            lhs = sym_polycosecant(2 * m, 2 * l, 1)
            assert lhs == polycosecant(2 * m, -(2 * l + 1)) / 2
            assert lhs == sym_polycosecant(2 * l, 2 * m, 1)


def test_level_zero_five_term_identity():
    # 1 + the four sign variants of e^{t+y}/(1+e^t+e^y-e^{t+y}) expand with
    # weighted coefficients beta_{2m}^{(-2l)} + D_{2m}^{(-2l)} + D_{2l}^{(-2m)}
    orders = (10, 10)
    one = biseries_constant(1, orders)
    total = one
    for st in (1, -1):
        for sy in (1, -1):
            et = biseries_exp(st, 0, orders)
            ey = biseries_exp(0, sy, orders)
            ety = biseries_exp(st, sy, orders)
            total = total + ety / (one + et + ey - ety)
    for m in range(5):
        for l in range(5):
            want = (
                polycotangent(2 * m, -2 * l)
                + polycosecant(2 * m, -2 * l)
                + polycosecant(2 * l, -2 * m)
            )
            assert total.egf(2 * m, 2 * l) == want
    for m in range(10):
        for l in range(10):
            if m % 2 or l % 2:
                assert total.egf(m, l) == 0


def test_level_two_euler_weighted_identity():
    # sum_j C(2m,j) E_j(0) (tilde_{2m-j}^{(-2l-1)} + tilde_{2m-j}^{(-2l-2)})
    # is symmetric under swapping m and l
    def side(m, l):
        return sum(
            comb(2 * m, j)
            * euler_polynomial(j, 0)
            * (
                tilde_cosecant(2 * m - j, -(2 * l + 1))
                + tilde_cosecant(2 * m - j, -(2 * l + 2))
            )
            for j in range(2 * m + 1)
        )

    for m in range(4):
        for l in range(4):
            assert side(m, l) == side(l, m)


def test_bivariate_function_generates_symmetrized_numbers():
    # the summed two-part function carries the symmetrized numbers, not the
    # hat-numbers: at level 1 its (2,0) weighted coefficient is 1/2 while the
    # corresponding hat-number vanishes
    f = sym_cosecant_bivariate(1, (4, 4))
    assert f.egf(2, 0) == F(1, 2) == polycosecant(2, -1) / 2
    assert copoly_hat(2, 0, 1) == 0
    for n in range(4):
        f = sym_cosecant_bivariate(n, (6, 6))
        for m in range(7):
            for l in range(7):
                assert f.egf(m, l) == sym_polycosecant(m, l, n, method="definition")


def test_first_kind_derivative_lemma():
    # f_{1,n} = (e^t+1)^{-n} sum_j s(n,j) d^j/dy^j f_{1,0}, and the mirrored
    # statement for f_{2,n}; checked as grids at truncation 8
    top = 8
    for n in range(4):
        target = (8, top - n)
        f10, f20 = sym_cosecant_halves(0, (8, top))
        f1n, f2n = sym_cosecant_halves(n, (8, top))
        plus = biseries_exp(1, 0, (8, top)) + 1
        minus = biseries_exp(-1, 0, (8, top)) + 1
        acc1 = biseries_constant(0, target)
        acc2 = biseries_constant(0, target)
        d1, d2 = f10, f20
        for j in range(n + 1):
            weight = stirling1(n, j)
            if weight:
                acc1 = acc1 + d1.truncate(target) * weight
                acc2 = acc2 + d2.truncate(target) * weight
            if j < n:
                d1 = partial_y(d1)
                d2 = partial_y(d2)
        assert acc1 / (plus**n).truncate(target) == f1n.truncate(target)
        assert acc2 / (minus**n).truncate(target) == f2n.truncate(target)


def test_a_generating_function_sweep_builds_each_closed_form_row_once():
    # sym-B's closed form reads `_sym_row` through the row cache: one miss per order m, not one build per value
    fa._sym_row.cache_clear()
    assert verify("GF_SYM_B", n=2, lmax=6).passed
    info = fa._sym_row.cache_info()
    assert (info.misses, info.hits) == (7, 7 * 7 - 7)
