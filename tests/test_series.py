"""Series engine: elementary constructors, arithmetic, polylogarithms, grids."""

import inspect
import operator
from fractions import Fraction as F
from math import comb, factorial, gcd

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
    stirling2,
)
from polyseq.series import (
    _exact,
    biseries_constant,
    constant,
    cosh_series,
    exp_scaled,
    monomial,
    sinh_series,
    tanh_half,
    tanh_series,
)

import polylog_reference
import series_reference
from polylog_reference import polylog_apply


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
    polylog_reference._polylog_powers.cache_clear()
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
    # tanh(t/2) = sinh(t/2)/cosh(t/2) and tanh t = (e^{2t} - 1)/(e^{2t} + 1); each is built once per order
    assert tanh_half(order) == _sinh_cosh_tanh_half(order)
    assert tanh_half(order) is tanh_half(order)
    assert tanh_series(order) == (exp_scaled(2, order) - 1) / (exp_scaled(2, order) + 1)
    assert tanh_series(order) == sinh_series(order) / cosh_series(order)


def _sinh_cosh_tanh_half(order):
    # tanh(t/2) as it was built before it became one quotient of e^t - 1 by e^t + 1
    half = F(1, 2)
    sinh_h = (exp_scaled(half, order) - exp_scaled(-half, order)) * half
    cosh_h = (exp_scaled(half, order) + exp_scaled(-half, order)) * half
    return sinh_h / cosh_h


def test_tanh_half_equals_the_sinh_cosh_quotient():
    for order in range(65):
        assert tanh_half(order).coeffs == _sinh_cosh_tanh_half(order).coeffs, order


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

    assert families.cosecant_bivariate(4) == families.cosecant_bivariate((4, 4))
    assert symmetrized.sym_bernoulli_bivariate(1, 4) == symmetrized.sym_bernoulli_bivariate(1, (4, 4))


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


def test_exact_returns_a_fraction_as_it_is_and_converts_ints_and_strings():
    f = F(1, 10)
    assert _exact(f, "f") is f
    for value, want in ((3, F(3)), (-7, F(-7)), ("1/10", F(1, 10)), ("-2/4", F(-1, 2))):
        got = _exact(value, "value")
        assert type(got) is F and got == want
    with pytest.raises(TypeError, match="^value must be an int, a Fraction or a string such as '1/10', not the float 0.1$"):
        _exact(0.1, "value")


# ------------------------------------------------------------- constructors
# The constructors, truncations and partial_y as they were before they built
# each coefficient from integers: Fraction powers and quotients, converted
# again by Series and BiSeries.  Kept verbatim, with Fraction written F, as
# the reference for the integer constructors.


def _fraction_constant(value, order):
    return Series((_exact(value, "value"),) + (F(0),) * order)


def _fraction_monomial(order):
    return Series(tuple(F(1) if n == 1 else F(0) for n in range(order + 1)))


def _fraction_exp_scaled(c, order):
    c = _exact(c, "c")
    return Series(tuple(c**n / factorial(n) for n in range(order + 1)))


def _fraction_sinh_series(order):
    return Series(tuple(F(1, factorial(n)) if n % 2 else F(0) for n in range(order + 1)))


def _fraction_cosh_series(order):
    return Series(tuple(F(0) if n % 2 else F(1, factorial(n)) for n in range(order + 1)))


def _fraction_biseries_constant(value, orders):
    tt, ty = orders
    rows = [[F(0)] * (ty + 1) for _ in range(tt + 1)]
    rows[0][0] = _exact(value, "value")
    return BiSeries(rows)


def _fraction_biseries_exp(a, b, orders):
    if isinstance(orders, int):
        orders = (orders, orders)
    tt, ty = orders
    a = _exact(a, "a")
    b = _exact(b, "b")
    return BiSeries(
        tuple(
            tuple(a**m * b**l / (factorial(m) * factorial(l)) for l in range(ty + 1))
            for m in range(tt + 1)
        )
    )


def _fraction_series_truncate(self, order):
    if order >= self.order:
        return self
    return Series(self.coeffs[: order + 1])


def _fraction_biseries_truncate(self, orders):
    tt, ty = orders
    return BiSeries(tuple(row[: ty + 1] for row in self.coeffs[: tt + 1]))


def _fraction_partial_y(self):
    tt, ty = self.orders
    return BiSeries(
        tuple(tuple((l + 1) * row[l + 1] for l in range(ty)) for row in self.coeffs)
    )


# ints and Fractions, zero, negative and non-dyadic values often
_scalars = st.one_of(
    st.sampled_from([0, -1, F(0), F(-2, 3), F(5, 7)]),
    st.integers(-7, 7),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
)


@settings(max_examples=200, deadline=None)
@given(_scalars, _scalars, st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_constructors_equal_the_fraction_constructors(a, b, tt, ty, cut):
    series, grid = exp_scaled(a, tt), biseries_exp(a, b, (tt, ty))
    pairs = [
        (series, _fraction_exp_scaled(a, tt)),
        (grid, _fraction_biseries_exp(a, b, (tt, ty))),
        (biseries_exp(a, b, tt), _fraction_biseries_exp(a, b, tt)),
        (sinh_series(tt), _fraction_sinh_series(tt)),
        (cosh_series(tt), _fraction_cosh_series(tt)),
        (constant(a, tt), _fraction_constant(a, tt)),
        (monomial(tt), _fraction_monomial(tt)),
        (biseries_constant(a, (tt, ty)), _fraction_biseries_constant(a, (tt, ty))),
        (series.truncate(cut), _fraction_series_truncate(series, cut)),
        (grid.truncate((cut, cut)), _fraction_biseries_truncate(grid, (cut, cut))),
    ]
    if ty:
        pairs.append((grid.partial_y(), _fraction_partial_y(grid)))
    for got, want in pairs:
        assert got.coeffs == want.coeffs
        rows = got.coeffs if isinstance(got, BiSeries) else (got.coeffs,)
        assert all(type(c) is F for row in rows for c in row)
        _assert_lowest_terms(got)


def test_constructors_refuse_negative_orders():
    calls = (
        lambda: constant(1, -1),
        lambda: exp_scaled(F(-2, 3), -1),
        lambda: sinh_series(-1),
        lambda: cosh_series(-1),
        lambda: monomial(-1),
        lambda: biseries_exp(1, 1, (-1, 2)),
        lambda: biseries_exp(1, 1, (2, -1)),
        lambda: biseries_constant(1, (0, -1)),
        lambda: exp_scaled(1, 3).truncate(-1),
        lambda: biseries_exp(1, 1, 3).truncate((1, -2)),
    )
    for call in calls:
        with pytest.raises(ValueError, match="at least the constant coefficient"):
            call()


# ------------------------------------------------------------- integer kernels
# The four products and quotients as they were before they ran on integers:
# one Fraction operation, with its gcd, per term of the convolution.  Kept
# verbatim, scalar branches aside, as the reference for the integer kernels.


def _fraction_series_mul(self, other):
    n = min(len(self.coeffs), len(other.coeffs))
    out = [F(0)] * n
    for i in range(n):
        a = self.coeffs[i]
        if a == 0:
            continue
        for j in range(n - i):
            b = other.coeffs[j]
            if b != 0:
                out[i + j] += a * b
    return Series(out)


def _fraction_series_div(self, other):
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
    out = [F(0)] * n
    for i in range(n):
        acc = a[i]
        for j in range(i):
            if out[j] != 0 and b[i - j] != 0:
                acc -= out[j] * b[i - j]
        out[i] = acc / lead
    return Series(out)


def _common(self, other):
    return (
        min(len(self.coeffs), len(other.coeffs)),
        min(len(self.coeffs[0]), len(other.coeffs[0])),
    )


def _fraction_biseries_mul(self, other):
    nt, ny = _common(self, other)
    out = [[F(0)] * ny for _ in range(nt)]
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


def _fraction_biseries_div(self, other):
    lead = other.coeffs[0][0]
    if lead == 0:
        raise DivisionZeroConstant("bivariate divisor has zero constant coefficient")
    nt, ny = _common(self, other)
    out = [[F(0)] * ny for _ in range(nt)]
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


def _outcome(op, a, b):
    """op(a, b), or the type and message of the division error it raised."""
    try:
        result = op(a, b)
    except (DivisionValuation, DivisionZeroConstant) as error:
        return type(error), str(error)
    rows = result.coeffs if isinstance(result, BiSeries) else (result.coeffs,)
    assert all(type(c) is F for row in rows for c in row)
    return result


# non-dyadic and negative coefficients, zeros often
_coefficients = st.one_of(st.just(F(0)), st.builds(F, st.integers(-40, 40), st.integers(1, 45)))


@st.composite
def kernel_series(draw, max_order=11):
    """A Series of any order 0..max_order, with a run of zeros and a few leading zeros."""
    order = draw(st.integers(0, max_order))
    coeffs = draw(st.lists(_coefficients, min_size=order + 1, max_size=order + 1))
    start = draw(st.integers(0, order))
    run = draw(st.integers(0, order + 1 - start))
    coeffs[start : start + run] = [F(0)] * run
    leading = draw(st.integers(0, 3))
    return Series(([F(0)] * leading + coeffs)[: order + 1])


@st.composite
def kernel_grids(draw):
    """A BiSeries of independent t- and y-orders, with a zeroed block of rows or columns."""
    tt, ty = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [draw(st.lists(_coefficients, min_size=ty + 1, max_size=ty + 1)) for _ in range(tt + 1)]
    if draw(st.booleans()):
        first, count = draw(st.integers(0, tt)), draw(st.integers(0, tt + 1))
        for m in range(first, min(first + count, tt + 1)):
            rows[m] = [F(0)] * (ty + 1)
    else:
        first, count = draw(st.integers(0, ty)), draw(st.integers(0, ty + 1))
        for row in rows:
            row[first : first + count] = [F(0)] * len(row[first : first + count])
    return BiSeries(rows)


@settings(max_examples=150, deadline=None)
@given(kernel_series(), kernel_series())
def test_series_kernels_equal_the_fraction_loops(a, b):
    assert _outcome(operator.mul, a, b) == _fraction_series_mul(a, b)
    assert _outcome(operator.truediv, a, b) == _outcome(_fraction_series_div, a, b)


@settings(max_examples=150, deadline=None)
@given(kernel_series(), kernel_series(), st.integers(0, 4))
def test_series_quotient_shifts_the_valuation_as_the_fraction_loop(a, b, v):
    # a dividend whose valuation is at least the divisor's, so most quotients exist
    vb = b.valuation()
    a = Series([F(0)] * (v + (vb or 0)) + list(a.coeffs))
    assert _outcome(operator.truediv, a, b) == _outcome(_fraction_series_div, a, b)


@settings(max_examples=150, deadline=None)
@given(kernel_grids(), kernel_grids())
def test_biseries_kernels_equal_the_fraction_loops(a, b):
    assert _outcome(operator.mul, a, b) == _fraction_biseries_mul(a, b)
    assert _outcome(operator.truediv, a, b) == _outcome(_fraction_biseries_div, a, b)
    if b.coeffs[0][0] == 0:  # a divisor with a constant term, as most quotients need
        b = b + F(-7, 3)
        assert _outcome(operator.truediv, a, b) == _fraction_biseries_div(a, b)


def test_division_errors_keep_their_messages():
    with pytest.raises(DivisionValuation, match="^divisor has no nonzero coefficient within its truncation$"):
        monomial(3) / constant(0, 3)
    with pytest.raises(DivisionValuation, match="^dividend valuation 0 is below divisor valuation 1$"):
        constant(1, 3) / monomial(3)
    with pytest.raises(DivisionValuation, match="^no coefficients survive the valuation shift at this truncation$"):
        Series([0]) / Series([0, 0, 1])
    with pytest.raises(DivisionZeroConstant, match="^bivariate divisor has zero constant coefficient$"):
        biseries_exp(1, 1, (2, 3)) / (biseries_exp(1, 1, (2, 3)) - 1)


def test_generating_function_quotients_equal_the_fraction_loops():
    # the divisions and powers the oracle's matrices and sweeps take, at their sizes
    order = 25
    z = tanh_half(order)
    assert z / sinh_series(order) == _fraction_series_div(z, sinh_series(order))
    assert z / tanh_series(order) == _fraction_series_div(z, tanh_series(order))
    assert (z * z) * z == _fraction_series_mul(_fraction_series_mul(z, z), z)
    orders = (8, 6)
    et, ey, ety = biseries_exp(1, 0, orders), biseries_exp(0, 1, orders), biseries_exp(1, 1, orders)
    denominator = 1 + et + ey - ety
    assert (ety - et) / denominator == _fraction_biseries_div(ety - et, denominator)
    cube = _fraction_biseries_mul(_fraction_biseries_mul(denominator, denominator), denominator)
    assert denominator**3 == cube
    assert (ety * 6) / denominator**3 == _fraction_biseries_div(ety * 6, cube)


_SCALAR_OPERATORS = {
    "+": operator.add,
    "radd": lambda x, q: q + x,
    "-": operator.sub,
    "rsub": lambda x, q: q - x,
    "*": operator.mul,
    "rmul": lambda x, q: q * x,
    "/": operator.truediv,
}


@pytest.mark.parametrize("kind,name", [(kind, name) for kind in ("Series", "BiSeries") for name in _SCALAR_OPERATORS])
def test_scalar_operands_refuse_floats(kind, name):
    op = _SCALAR_OPERATORS[name]
    x = exp_scaled(F(2, 3), 4) if kind == "Series" else biseries_exp(F(2, 3), -1, (2, 3))
    # 0.1 is the double 3602879701896397/2^55, not 1/10
    with pytest.raises(TypeError, match="float 0.1"):
        op(x, 0.1)
    for q in (3, F(-2, 5), F("1/10")):
        got = op(x, q)
        grid = got.coeffs if kind == "BiSeries" else (got.coeffs,)
        cells = x.coeffs if kind == "BiSeries" else (x.coeffs,)
        assert all(type(c) is F for row in grid for c in row)
        want = [[op(c, q) if name in ("*", "rmul", "/") else c for c in row] for row in cells]
        if name not in ("*", "rmul", "/"):
            want[0][0] = op(cells[0][0], q)
        if name == "rsub":
            want = [[-c for c in row] for row in want]
            want[0][0] = q - cells[0][0]
        assert [list(row) for row in grid] == want, q


def test_series_and_biseries_refuse_float_coefficients():
    # 0.1 is the double 3602879701896397/2^55, not 1/10
    with pytest.raises(TypeError, match="float 0.1"):
        Series([0.1, 1])
    with pytest.raises(TypeError, match="float 0.5"):
        BiSeries([[1, 2], [3, 0.5]])
    assert Series([1, F(1, 10), "1/10"]).coeffs == (1, F(1, 10), F(1, 10))
    assert BiSeries([[1, "1/2"], [F(2, 3), 0]]).coeffs == ((1, F(1, 2)), (F(2, 3), 0))
    assert all(type(c) is F for c in Series([3, "2/5"]).coeffs + BiSeries([[4, 0]]).coeffs[0])


# The operators and queries a wrapper installed on a class's own namespace
# sees, as bench/tracer.py installs one: functions that are dunders or public,
# apart from the plumbing it leaves unwrapped.
_TRACER_SKIPS = {"__init__", "__eq__", "__hash__", "__repr__"}
_BOTH = {"__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__pow__"}
_BOTH |= {"coefficient", "egf", "truncate"}
_SHARED = {"__eq__", "__hash__", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"}


def _wrapped_names(cls):
    return {
        name
        for name, fn in vars(cls).items()
        if inspect.isfunction(fn) and name not in _TRACER_SKIPS and (name.startswith("__") or not name.startswith("_"))
    }


def test_each_class_lists_every_operator_and_shares_one_function_for_each_shared_one():
    assert _wrapped_names(Series) == _BOTH | {"valuation", "compose"}
    assert _wrapped_names(BiSeries) == _BOTH | {"partial_y"}
    for name in _SHARED:
        assert inspect.isfunction(vars(Series)[name]), name
        assert vars(Series)[name] is vars(BiSeries)[name], name


@pytest.mark.parametrize("cls", [Series, BiSeries])
def test_a_wrapper_on_one_class_counts_that_class_calls_only(monkeypatch, cls):
    calls = []
    for name in _SHARED | _BOTH:
        fn = vars(cls)[name]
        monkeypatch.setattr(cls, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
    s, b = exp_scaled(1, 3), biseries_exp(1, 1, 3)
    other = b if cls is Series else s
    mine = s if cls is Series else b
    assert (other - other) / 2 == other * 0 and calls == []
    assert mine - mine == mine * 0
    assert calls == ["__sub__", "__neg__", "__add__", "__mul__", "__eq__"]
    calls.clear()
    assert (mine / 2) == mine * F(1, 2)
    assert calls == ["__truediv__", "__mul__", "__mul__", "__eq__"]


# ------------------------------------------------------------- integer grids
# Drawn expressions evaluated side by side on the integer-grid classes and on
# the one-Fraction-per-coefficient kernel they replaced, `series_reference`.

_GRID_ERRORS = (
    ComposeNonzeroConstant,
    DivisionValuation,
    DivisionZeroConstant,
    IndexBeyondTruncation,
    ZeroDivisionError,
)

# name -> step(x, y, q, n) on two operands of one kernel, a scalar q and a small int n
_STEPS = {
    "+": lambda x, y, q, n: x + y,
    "-": lambda x, y, q, n: x - y,
    "neg": lambda x, y, q, n: -x,
    "+q": lambda x, y, q, n: x + q,
    "q+": lambda x, y, q, n: q + x,
    "-q": lambda x, y, q, n: x - q,
    "q-": lambda x, y, q, n: q - x,
    "*q": lambda x, y, q, n: x * q,
    "q*": lambda x, y, q, n: q * x,
    "/q": lambda x, y, q, n: x / q,
    "*": lambda x, y, q, n: x * y,
    "/": lambda x, y, q, n: x / y,
    "**": lambda x, y, q, n: x ** (n % 4),
}
_SERIES_STEPS = {
    **_STEPS,
    "truncate": lambda x, y, q, n: x.truncate(n),
    "compose": lambda x, y, q, n: x.compose(y - y.coeffs[0]),
}
_BISERIES_STEPS = {
    **_STEPS,
    "truncate": lambda x, y, q, n: x.truncate((n, n // 2)),
    "partial_y": lambda x, y, q, n: x.partial_y(),
}


def _programs(steps):
    """Up to seven steps, each (name, operand index, operand index, scalar, small int) into the growing pool."""
    index = st.integers(0, 20)
    step = st.tuples(st.sampled_from(sorted(steps)), index, index, _scalars, st.integers(0, 12))
    return st.lists(step, max_size=7)


def _outcome_of(step, x, y, q, n):
    try:
        return step(x, y, q, n)
    except _GRID_ERRORS as error:
        return type(error)


def _run_both(steps, leaves, program):
    """The pools of results of the program on the integer-grid leaves and on their reference twins."""
    reference = series_reference.Series if isinstance(leaves[0], Series) else series_reference.BiSeries
    new, old = list(leaves), [reference(leaf.coeffs) for leaf in leaves]
    for name, i, j, q, n in program:
        i, j = i % len(new), j % len(new)
        got = _outcome_of(steps[name], new[i], new[j], q, n)
        want = _outcome_of(steps[name], old[i], old[j], q, n)
        if isinstance(got, type) or isinstance(want, type):
            assert got is want, name
            continue
        new.append(got)
        old.append(want)
    return new, old


def _assert_lowest_terms(got):
    # one positive denominator, in lowest terms with the grid: the pair the constructor gives too
    assert got._den > 0 and gcd(got._den, *[x for row in got._grid for x in row]) == 1
    assert type(got)(got.coeffs) == got


def _assert_grids_match(new, old):
    for got, want in zip(new, old):
        assert got.coeffs == want.coeffs
        rows = got.coeffs if isinstance(got, BiSeries) else (got.coeffs,)
        assert all(type(c) is F for row in rows for c in row)
        _assert_lowest_terms(got)
    for a in new:
        for b in new:
            assert (a == b) == (a.coeffs == b.coeffs)
            if a == b:
                assert hash(a) == hash(b)


@settings(max_examples=150, deadline=None)
@given(st.lists(kernel_series(max_order=7), min_size=1, max_size=3), _programs(_SERIES_STEPS))
def test_series_expressions_equal_the_fraction_kernel(leaves, program):
    _assert_grids_match(*_run_both(_SERIES_STEPS, leaves, program))


@settings(max_examples=150, deadline=None)
@given(st.lists(kernel_grids(), min_size=1, max_size=3), _programs(_BISERIES_STEPS))
def test_biseries_expressions_equal_the_fraction_kernel(leaves, program):
    _assert_grids_match(*_run_both(_BISERIES_STEPS, leaves, program))

