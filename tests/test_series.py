"""Series engine: elementary constructors, arithmetic, polylogarithms, grids."""

from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyseq import (
    BiSeries,
    ComposeNonzeroConstant,
    DivisionValuation,
    DivisionZeroConstant,
    IndexBeyondTruncation,
    Series,
    biseries_exp,
    polylog_apply,
    stirling2,
)
from polyseq import series as series_module
from polyseq.series import (
    biseries_constant,
    constant,
    cosh_series,
    exp_scaled,
    monomial,
    sinh_series,
    tanh_half,
    tanh_series,
)


def test_exp_scaled_small():
    s = exp_scaled(1, 2)
    assert s.coeffs == (F(1), F(1), F(1, 2))


def test_sinh_small():
    s = sinh_series(3)
    assert s.coeffs == (F(0), F(1), F(0), F(1, 6))


def test_cosh_small():
    assert cosh_series(4).coeffs == (F(1), F(0), F(1, 2), F(0), F(1, 24))


def test_tanh_half_by_long_division():
    # long division of sinh(t/2) by cosh(t/2) by hand: t/2 - t^3/24 + ...
    s = tanh_half(3)
    assert s.coeffs == (F(0), F(1, 2), F(0), F(-1, 24))


def test_self_division_is_one():
    s = sinh_series(5)
    q = s / s
    assert q.coeffs[0] == 1
    assert all(c == 0 for c in q.coeffs[1:])


def test_division_shifts_valuation():
    sinh = sinh_series(5)
    q = sinh / monomial(5)
    # t + t^3/6 + t^5/120 over t: 1 + t^2/6 + t^4/120, truncation drops by 1
    assert q.order == 4
    assert q.coeffs == (F(1), F(0), F(1, 6), F(0), F(1, 120))


def test_division_valuation_mismatch_raises():
    with pytest.raises(DivisionValuation):
        constant(1, 4) / monomial(4)
    with pytest.raises(DivisionValuation):
        monomial(4) / constant(0, 4)


def test_compose_log_exp_cancellation():
    # Li_1(z) = sum z^m / m composed with 1 - e^{-t} collapses to t exactly
    t = 4
    li1 = Series([F(0)] + [F(1, m) for m in range(1, t + 1)])
    inner = constant(1, t) - exp_scaled(-1, t)
    out = li1.compose(inner)
    assert out.coeffs == (F(0), F(1), F(0), F(0), F(0))


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ComposeNonzeroConstant):
        sinh_series(4).compose(constant(1, 4))


def test_arithmetic_truncates_to_minimum():
    a = exp_scaled(1, 8)
    b = exp_scaled(1, 5)
    assert (a + b).order == 5
    assert (a * b).order == 5
    assert a.truncate(3).order == 3


def test_polylog_level_two_identity_series():
    out = polylog_apply(2, 1, monomial(5))
    assert out.coeffs == (F(0), F(2), F(0), F(2, 3), F(0), F(2, 5))


def test_polylog_level_one_weight_zero():
    # Li_0(1 - e^{-t}) = e^t - 1
    inner = constant(1, 3) - exp_scaled(-1, 3)
    out = polylog_apply(1, 0, inner)
    assert out.coeffs == (F(0), F(1), F(1, 2), F(1, 6))


def test_polylog_negative_weight_cosecant_values():
    inner = tanh_half(3)
    out = polylog_apply(2, -1, inner) / sinh_series(3)
    assert out.egf(0) == 1
    assert out.egf(2) == 1
    # independent closed form for the same value: 1!0!/2^0 * S(1,1) * S(3,1)
    assert factorial(1) * factorial(0) * stirling2(1, 1) * stirling2(3, 1) == 1


def test_polylog_rejects_unit_constant():
    with pytest.raises(ComposeNonzeroConstant):
        polylog_apply(1, 2, constant(1, 4))


def test_egf_coefficient_examples():
    sech = constant(1, 6) / cosh_series(6)
    assert sech.egf(0) == 1
    level2 = polylog_apply(2, 1, tanh_half(6))
    cose = level2 / sinh_series(6)
    assert cose.egf(4) == F(7, 15)
    cota = level2 / tanh_series(6)
    assert cota.egf(4) == F(-8, 15)


def test_egf_beyond_truncation_raises():
    with pytest.raises(IndexBeyondTruncation):
        sinh_series(3).egf(4)


@st.composite
def rational_series(draw, min_order=4, max_order=9):
    order = draw(st.integers(min_order, max_order))
    nums = draw(st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1))
    dens = draw(st.lists(st.integers(1, 9), min_size=order + 1, max_size=order + 1))
    return Series([F(n, d) for n, d in zip(nums, dens)])


def _polylog_by_power_loop(level, k, inner):
    """polylog_apply as an uncached loop that rebuilds every power on each call."""
    out = [F(0)] * (inner.order + 1)
    step = inner if level == 1 else inner * inner
    power = inner
    for m in range(1, inner.order + 1, level):
        w = F(1, m**k) if k >= 0 else F(m**-k)
        for i, c in enumerate(power.coeffs):
            out[i] += w * c
        power = power * step
    result = Series(out)
    return result * 2 if level == 2 else result


@settings(max_examples=100, deadline=None)
@given(rational_series(), rational_series(), st.sampled_from([1, 2]), st.integers(-6, 6))
def test_polylog_apply_matches_uncached_power_loop(a, b, level, k):
    series_module._polylog_powers.cache_clear()
    for s in (a, b):  # b right after a: a cache keyed too coarsely would hand b a's powers
        inner = Series((0,) + s.coeffs[1:])
        want = _polylog_by_power_loop(level, k, inner)
        first = polylog_apply(level, k, inner)
        assert first == want
        twin = Series(inner.coeffs)  # equal to inner, but a distinct object
        assert twin is not inner
        assert polylog_apply(level, k, twin) == want
        assert polylog_apply(level, k, inner) == first


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 16))
def test_cached_tanh_matches_a_fresh_division(order):
    # tanh(t/2) = (e^t - 1)/(e^t + 1) and tanh t = (e^{2t} - 1)/(e^{2t} + 1)
    assert tanh_half(order) == (exp_scaled(1, order) - 1) / (exp_scaled(1, order) + 1)
    assert tanh_series(order) == (exp_scaled(2, order) - 1) / (exp_scaled(2, order) + 1)
    assert tanh_series(order) == sinh_series(order) / cosh_series(order)


@settings(max_examples=200, deadline=None)
@given(rational_series(), rational_series())
def test_div_mul_roundtrip(a, b):
    v = b.valuation()
    if v is None:
        return
    # force valuation(a) >= valuation(b)
    a = Series((F(0),) * v + a.coeffs[v:])
    q = a / b
    back = q * b
    for i in range(back.order + 1):
        assert back.coeffs[i] == a.coeffs[i]


@settings(max_examples=60, deadline=None)
@given(rational_series(), rational_series(), st.integers(0, 4))
def test_egf_is_additive(a, b, n):
    n = min(n, min(a.order, b.order))
    assert (a + b).egf(n) == a.egf(n) + b.egf(n)


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 2])
def test_level_two_functions_are_even(k):
    order = 12
    level2 = polylog_apply(2, k, tanh_half(order + 1))
    cose = level2 / sinh_series(order + 1)
    cota = level2 / tanh_series(order + 1)
    for n in range(1, order + 1, 2):
        assert cose.egf(n) == 0
        assert cota.egf(n) == 0


def test_powers_of_exp_minus_one_give_stirling2():
    # (e^t - 1)^m / m! carries the second-kind Stirling triangle
    order = 10
    base = exp_scaled(1, order) - 1
    for m in range(0, order + 1):
        s = base**m * F(1, factorial(m))
        for n in range(order + 1):
            assert s.egf(n) == stirling2(n, m)


def test_tanh_half_powers_match_stirling_expansion():
    order = 10
    th = tanh_half(order)
    assert (th**0).coeffs[0] == 1
    for m in range(1, order + 1):
        s = th**m
        for n in range(m, order + 1):
            want = (-1) ** m * sum(
                (-1) ** j * F(factorial(j), 2**j) * comb(j - 1, m - 1) * stirling2(n, j)
                for j in range(m, n + 1)
            )
            assert s.egf(n) == want


# ------------------------------------------------------------- bivariate grid


def test_biseries_exp_constant_term():
    assert biseries_exp(1, 1, (4, 4)).egf(0, 0) == 1


def test_biseries_cosecant_function_value():
    from polyseq import cosecant_bivariate

    f = cosecant_bivariate((4, 3))
    assert f.egf(4, 3) == 121


def test_biseries_symmetrized_weight_zero_level():
    # n = 0 two-variable function at (2, 2) equals sum_j (j!)^2 S(3, j+1)^2
    from polyseq import sym_bernoulli_bivariate

    f = sym_bernoulli_bivariate(0, (4, 4))
    want = sum(factorial(j) ** 2 * stirling2(3, j + 1) ** 2 for j in range(3))
    assert want == 14
    assert f.egf(2, 2) == want


def test_bivariate_functions_cache_an_int_order_under_its_tuple():
    from polyseq import families, symmetrized

    families._cosecant_bivariate.cache_clear()
    symmetrized._sym_bernoulli_bivariate.cache_clear()
    assert families.cosecant_bivariate(4) is families.cosecant_bivariate((4, 4))
    assert symmetrized.sym_bernoulli_bivariate(1, 4) is symmetrized.sym_bernoulli_bivariate(1, (4, 4))
    assert families._cosecant_bivariate.cache_info().currsize == 1
    assert symmetrized._sym_bernoulli_bivariate.cache_info().currsize == 1


@pytest.mark.parametrize(
    "base",
    [exp_scaled(F(1, 3), 8) - monomial(8), biseries_exp(1, -2, (4, 3)) + biseries_exp(F(1, 2), 0, (4, 3))],
    ids=["Series", "BiSeries"],
)
def test_power_takes_the_fewest_products(base, monkeypatch):
    kind = type(base)
    one = constant(1, base.order) if kind is Series else biseries_constant(1, base.orders)
    want = one
    for exponent in range(10):
        products = []
        real = kind.__mul__
        monkeypatch.setattr(kind, "__mul__", lambda a, b: products.append(1) or real(a, b))
        got = base**exponent
        monkeypatch.undo()
        assert got == want, exponent
        # bit_length - 1 squarings and popcount - 1 further products
        assert len(products) == (exponent.bit_length() + bin(exponent).count("1") - 2 if exponent else 0)
        want = want * base


def test_biseries_arith_and_errors():
    a = biseries_exp(1, 1, (3, 3))
    b = biseries_exp(1, 0, (3, 3))
    total = a + b
    assert total.coefficient(0, 0) == 2
    prod = a * b
    assert prod.egf(1, 0) == 2  # e^{2t + y} has weighted (1,0) coefficient 2
    with pytest.raises(DivisionZeroConstant):
        a / (a - 1)
    with pytest.raises(IndexBeyondTruncation):
        a.coefficient(4, 0)


def test_biseries_div_roundtrip():
    a = biseries_exp(1, 2, (4, 4))
    b = biseries_exp(1, 1, (4, 4)) + 1
    assert (a / b) * b == a


def test_biseries_partial_y():
    # d/dy of e^{2t+3y} is 3 e^{2t+3y}
    f = biseries_exp(2, 3, (3, 3))
    df = f.partial_y()
    assert df.orders == (3, 2)
    for m in range(4):
        for l in range(3):
            assert df.egf(m, l) == 3 * f.egf(m, l)


def test_biseries_constant_and_truncate():
    c = biseries_constant(5, (2, 3))
    assert c.orders == (2, 3)
    assert c.egf(0, 0) == 5
    assert c.truncate((1, 1)).orders == (1, 1)


def test_public_constructors_take_exact_rationals_only():
    # 0.1 is the double 3602879701896397/2^55, not 1/10
    for q in (F(1, 10), "1/10"):
        assert biseries_exp(q, 0, (1, 1)).coefficient(1, 0) == F(1, 10)
        assert exp_scaled(q, 1).coefficient(1) == F(1, 10)
        assert constant(q, 1).coefficient(0) == F(1, 10)
        assert biseries_constant(q, (1, 1)).coefficient(0, 0) == F(1, 10)
    calls = (
        lambda: biseries_exp(0.1, 0, (1, 1)),
        lambda: biseries_exp(0, 0.5, 2),
        lambda: exp_scaled(0.1, 3),
        lambda: constant(1.0, 3),
        lambda: biseries_constant(0.25, (1, 1)),
    )
    for call in calls:
        with pytest.raises(TypeError, match="float"):
            call()
