"""Poly-Bernoulli, polycosecant and polycotangent numbers: golden values,
method agreement, dualities, conversions, vanishing sums."""

from fractions import Fraction as F
from functools import lru_cache, partial
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyseq import (
    Family,
    IndexParity,
    MethodDomain,
    bernoulli,
    cosecant_bivariate,
    cosecant_from_cotangent,
    euler_number,
    family_row,
    family_value,
    k_shift_recurrence,
    oracle_diff,
    poly_bernoulli,
    poly_bernoulli_polynomial,
    polycosecant,
    polycotangent,
    stirling1,
    stirling2,
    tilde_cosecant,
)
from polyseq import families as fa
from polyseq.cli import build_table
from polyseq.families import ROUTES, applicable_methods, family_value_by_method
from polyseq.series import _reciprocal_power, constant, exp_scaled, polylog_apply, truncation_for

GOLDEN_D4 = {2: F(176, 225), 1: F(7, 15), 0: 0, -1: 1, -2: 16, -3: 121}
GOLDEN_B4 = {2: F(-199, 225), 1: F(-8, 15), 0: 1, -1: 8, -2: 41, -3: 200}
GOLDEN_D6 = {-3: 1093, -4: 12160, -5: 111721, -6: 927424, -7: 7256173, -8: 54726400}
GOLDEN_B6 = {-3: 3104, -4: 23801, -5: 174752, -6: 1257125, -7: 8948384, -8: 63318641}


@pytest.mark.parametrize("k,value", GOLDEN_D4.items())
def test_cosecant_order_four_golden(k, value):
    for method in applicable_methods(Family.COSECANT, 4, k):
        assert polycosecant(4, k, method=method) == value


@pytest.mark.parametrize("k,value", GOLDEN_B4.items())
def test_cotangent_order_four_golden(k, value):
    for method in applicable_methods(Family.COTANGENT, 4, k):
        assert polycotangent(4, k, method=method) == value


def test_order_six_and_ten_golden():
    assert polycosecant(10, -3) == 88573
    assert polycotangent(10, -3) == 786944
    for k, value in GOLDEN_D6.items():
        assert polycosecant(6, k) == value
    for k, value in GOLDEN_B6.items():
        assert polycotangent(6, k) == value


def test_cosecant_order_zero_is_one():
    for k in range(-6, 7):
        assert polycosecant(0, k) == 1
        assert polycotangent(0, k) == 1


def test_cosecant_weight_minus_two_powers_of_four():
    for n in range(7):
        assert polycosecant(2 * n, -2) == 4**n


def test_odd_orders_vanish():
    for n in (1, 3, 5, 7):
        for k in (-3, 0, 2):
            assert polycosecant(n, k) == 0
            assert polycotangent(n, k) == 0
            assert polycosecant(n, k, method="explicit") == 0
            assert polycosecant(n, k, method="series") == 0
            assert polycotangent(n, k, method="series") == 0


def test_method_agreement_sweep():
    for n in range(0, 13, 2):
        for k in range(-6, 5):
            for family, fn in ((Family.COSECANT, polycosecant), (Family.COTANGENT, polycotangent)):
                values = {
                    m: fn(n, k, method=m) for m in applicable_methods(family, n, k)
                }
                assert len(set(values.values())) == 1, (family, n, k, values)


def test_sasaki_method_domain():
    with pytest.raises(MethodDomain):
        polycosecant(4, 1, method="sasaki")
    with pytest.raises(MethodDomain):
        polycosecant(3, -1, method="sasaki")
    with pytest.raises(MethodDomain):
        polycosecant(0, 0, method="sasaki")  # empty sum; the true value is 1
    assert polycosecant(0, 0) == 1


def test_cotangent_method_domain():
    with pytest.raises(MethodDomain):
        polycotangent(4, 0, method="stirling_negk")
    with pytest.raises(MethodDomain):
        polycotangent(3, -2, method="stirling_negk")


def test_poly_bernoulli_weight_zero_and_classical():
    for n in range(11):
        assert poly_bernoulli("B", n, 0) == 1
        assert poly_bernoulli("C", n, 1) == (-1) ** n * poly_bernoulli("B", n, 1)
        assert poly_bernoulli("C", n, 1) == bernoulli(n)
    assert poly_bernoulli("C", 2, 1) == F(1, 6)


def test_poly_bernoulli_methods_agree():
    for n in range(13):
        for k in range(-6, 5):
            for variant in ("B", "C"):
                assert poly_bernoulli(variant, n, k) == poly_bernoulli(
                    variant, n, k, method="series"
                )


def test_poly_bernoulli_duality_instance():
    assert poly_bernoulli("B", 3, -2) == poly_bernoulli("B", 2, -3) == 46


def test_poly_bernoulli_polynomial_at_zero_and_one():
    for n in range(9):
        for k in range(-4, 5):
            assert poly_bernoulli_polynomial(n, k, 0) == poly_bernoulli("B", n, k)
            assert poly_bernoulli_polynomial(n, k, 1) == poly_bernoulli("C", n, k)


def test_poly_bernoulli_polynomial_constant_term():
    for k in (-3, 0, 2):
        for x in (F(0), F(2, 3), F(-1)):
            assert poly_bernoulli_polynomial(0, k, x) == 1


def test_dualities():
    for l in range(7):
        for m in range(7):
            assert poly_bernoulli("B", m, -l) == poly_bernoulli("B", l, -m)
            assert poly_bernoulli("C", m, -(l + 1)) == poly_bernoulli("C", l, -(m + 1))
            assert polycosecant(2 * m, -(2 * l + 1)) == polycosecant(2 * l, -(2 * m + 1))
            assert polycotangent(2 * m, -2 * l) == polycotangent(2 * l, -2 * m)


def test_negative_weights_give_nonnegative_integers():
    for n in range(9):
        for k in range(9):
            for value in (polycosecant(2 * n, -k), polycotangent(2 * n, -k)):
                assert value.denominator == 1
                assert value >= 0


def test_weight_one_reduces_to_bernoulli():
    for n in range(1, 9):
        assert polycosecant(2 * n, 1) == (2 - 2 ** (2 * n)) * bernoulli(2 * n)
        assert polycotangent(2 * n, 1) == 2 ** (2 * n) * bernoulli(2 * n)


def test_bivariate_function_reproduces_cosecant():
    f = cosecant_bivariate((8, 8))
    for n in range(9):
        for k in range(9):
            assert f.egf(n, k) == polycosecant(n, -k)


def test_cosecant_from_cotangent():
    assert cosecant_from_cotangent(4, -3) == 121
    assert cosecant_from_cotangent(6, -3) == 1093
    for k in range(-4, 4):
        assert cosecant_from_cotangent(0, k) == 1
    for n in range(0, 10, 2):
        for k in range(-5, 4):
            assert cosecant_from_cotangent(n, k) == polycosecant(n, k)
    with pytest.raises(IndexParity):
        cosecant_from_cotangent(3, -1)


def test_k_shift_recurrence():
    assert k_shift_recurrence(4, 0) == polycosecant(4, -1) == 1
    assert k_shift_recurrence(6, -2) == polycosecant(6, -3) == 1093
    for k in range(-3, 4):
        assert k_shift_recurrence(0, k) == 1
    for n in range(11):
        for k in range(-5, 4):
            assert k_shift_recurrence(n, k) == polycosecant(n, k - 1)


def test_tilde_cosecant_values():
    assert tilde_cosecant(0, 0) == F(1, 2)
    assert tilde_cosecant(1, 0) == F(1, 4)
    with pytest.raises(MethodDomain):
        tilde_cosecant(2, 1)


def test_tilde_cosecant_level_split():
    # the level-two function is the odd-in-z part of the level-one one, so
    # D_m^{(-k)} = 2 tilde-D_m^{(-k)} at even m (and both vanish at odd m
    # only on the cosecant side)
    for k in range(5):
        for m in range(0, 7, 2):
            assert polycosecant(m, -k) == 2 * tilde_cosecant(m, -k)


def test_vanishing_alternating_sums():
    # cosecant/cotangent: need m >= 2n+1; at m = 2n the sum is nonzero
    for k in range(-2, 3):
        for n in (1, 2):
            for m in range(2 * n + 1, 2 * n + 4):
                for fn in (polycosecant, polycotangent):
                    total = sum(
                        (-1) ** j * stirling1(m + 1, j + 1) * fn(2 * n, -(k + j))
                        for j in range(m + 1)
                    )
                    assert total == 0, (fn.__name__, k, n, m)
            witness = sum(
                (-1) ** j * stirling1(2 * n + 1, j + 1) * polycosecant(2 * n, -(k + j))
                for j in range(2 * n + 1)
            )
            assert witness != 0, (k, n)


def test_vanishing_alternating_sums_poly_bernoulli():
    # B-variant: 0 <= n < m (fails at n = m); C-variant holds for n <= m with
    # the shifted order index
    for k in range(-2, 3):
        for m in range(1, 5):
            for n in range(m):
                total = sum(
                    (-1) ** j * stirling1(m + 1, j + 1) * poly_bernoulli("B", n, -(k + j))
                    for j in range(m + 1)
                )
                assert total == 0, ("B", k, n, m)
            assert (
                sum(
                    (-1) ** j * stirling1(m + 1, j + 1) * poly_bernoulli("B", m, -(k + j))
                    for j in range(m + 1)
                )
                != 0
            )
            for n in range(1, m + 1):
                total = sum(
                    (-1) ** j
                    * stirling1(m + 1, j + 1)
                    * poly_bernoulli("C", n - 1, -(k + j))
                    for j in range(m + 1)
                )
                assert total == 0, ("C", k, n, m)


def test_worked_vanishing_example():
    terms = [
        (-1) ** j * stirling1(6, j + 1) * polycosecant(4, 2 - j) for j in range(6)
    ]
    assert terms == [F(1408, 15), F(-1918, 15), 0, -85, 240, -121]
    assert sum(terms) == 0
    beta_terms = [
        (-1) ** j * stirling1(6, j + 1) * polycotangent(4, 2 - j) for j in range(6)
    ]
    assert beta_terms == [F(-1592, 15), F(2192, 15), 225, -680, 615, -200]
    assert sum(beta_terms) == 0


def test_family_dispatch():
    assert family_value("Cosecant", 4, -3) == 121
    assert family_value(Family.TILDE_D, 0, 0) == F(1, 2)
    assert family_value_by_method("PolyB_B", 3, -2, "series") == 46
    assert applicable_methods("TildeD", 3, -1) == {"series": "oracle"}
    assert "sasaki" not in applicable_methods("Cosecant", 0, 0)
    assert "sasaki" in applicable_methods("Cosecant", 2, 0)
    with pytest.raises(MethodDomain):
        family_value_by_method("TildeD", 2, -1, "explicit")  # TildeD has only a series route
    # every listed route agrees with the default; every other name is refused
    names = {name for routes in ROUTES.values() for name in routes} | {"no_such_method"}
    for family in Family:
        for n in range(9):
            for k in range(-4, 5):
                listed = applicable_methods(family, n, k)
                values = {family_value_by_method(family, n, k, name) for name in listed}
                assert values == ({family_value(family, n, k)} if listed else set())
                for name in names - set(listed):
                    with pytest.raises(MethodDomain):
                        family_value_by_method(family, n, k, name)


def test_closed_forms_match_series_at_large_weights():
    # far outside the CLI's weight range; the series costs one weighted sum per weight
    compared = 0
    for family in (Family.POLY_B, Family.POLY_C, Family.COSECANT, Family.COTANGENT):
        for k in (-300, -129, -64, 64, 129, 300):
            for n in range(17):
                want = family_value_by_method(family, n, k, "series")
                for name, kind in applicable_methods(family, n, k).items():
                    if kind == "closed":
                        assert family_value_by_method(family, n, k, name) == want, (family, n, k, name)
                        compared += 1
    assert compared == 564


# The per-cell closed forms that the power-basis rows replaced, kept verbatim
# as independent references: Fraction double sums redone for every weight.

def _cosecant_explicit(n, k):
    total = F(0)
    for i in range(n // 2 + 1):
        inner = F(0)
        for j in range(2 * i + 1, n + 2):
            inner += F(
                (-1) ** (j + 1) * factorial(j) * comb(j - 1, 2 * i), 2 ** (j - 1)
            ) * stirling2(n + 1, j)
        if inner:
            total += _reciprocal_power(2 * i + 1, k + 1) * inner
    return total


def _cotangent_explicit(n, k):
    if n % 2 == 1:
        return F(0)
    total = F(0)
    for j in range(n + 1):
        bracket = F((j + 1) * (j + 2), 2) * stirling2(n, j + 2) + stirling2(n + 1, j + 1)
        if bracket == 0:
            continue
        base = F((-1) ** j * factorial(j), 2**j) * bracket
        for i in range(j // 2 + 1):
            total += base * comb(j + 1, 2 * i + 1) * _reciprocal_power(2 * i + 1, k)
    return total


def _poly_bernoulli_stirling(variant, n, k):
    total = F(0)
    for m in range(n + 1):
        s = stirling2(n, m)
        if s == 0:
            continue
        c = _reciprocal_power(m + 1, k)
        if variant == "C" and m >= 1:
            c -= _reciprocal_power(m, k)
        total += (-1) ** (n + m) * factorial(m) * s * c
    return total


_ROW_REFERENCES = {
    Family.COSECANT: ("explicit", fa._cosecant_row, _cosecant_explicit),
    Family.COTANGENT: ("explicit", fa._cotangent_row, _cotangent_explicit),
    Family.POLY_B: ("stirling", partial(fa._poly_bernoulli_row, "B"), partial(_poly_bernoulli_stirling, "B")),
    Family.POLY_C: ("stirling", partial(fa._poly_bernoulli_row, "C"), partial(_poly_bernoulli_stirling, "C")),
}


@settings(deadline=None)
@given(
    n=st.integers(0, 40),
    ks=st.lists(st.integers(-40, 40), min_size=1, max_size=6),
)
@example(n=0, ks=[0])  # D_0^{(0)} = 1, where the sasaki sum is empty
@example(n=7, ks=[-3, 0, 5])  # odd orders: D and beta vanish
@example(n=40, ks=[40, -40, 1, -1, 0])
def test_power_rows_match_the_per_cell_closed_forms(n, ks):
    for family, (method, build, reference) in _ROW_REFERENCES.items():
        want = [reference(n, k) for k in ks]
        # one row, every weight at once, positive and non-positive exponents mixed
        assert fa._evaluate_row(build(n), ks) == want, (family, n, ks)
        # the route a single cell takes
        assert family_value_by_method(family, n, ks[0], method) == want[0], (family, n, ks[0])


def test_power_rows_have_integer_entries_and_drop_zeros():
    for n in range(13):
        for family, (_, build, _) in _ROW_REFERENCES.items():
            shift, denominator, terms = build(n)
            assert isinstance(denominator, int) and denominator > 0
            assert all(isinstance(c, int) and c != 0 for _, c in terms)
        assert fa._cosecant_row(n)[:2] == (1, 2**n)
        if n % 2:
            assert fa._cosecant_row(n)[2] == () and fa._cotangent_row(n)[2] == ()


def test_family_row_equals_family_value_per_weight():
    for family in Family:
        ks = range(-8, 1 if family is Family.TILDE_D else 9)
        for n in range(13):
            assert family_row(family, n, ks) == [family_value(family, n, k) for k in ks], (family, n)
    # any iterable of weights, in any order, repeats allowed
    assert family_row("Cosecant", 4, iter([3, -3, 3, 0])) == [family_value("Cosecant", 4, k) for k in (3, -3, 3, 0)]
    assert family_row("Cotangent", 5, []) == []
    with pytest.raises(MethodDomain):
        family_row("TildeD", 2, [-1, 1])
    with pytest.raises(ValueError):
        family_row("PolyB_B", -1, [0])


def test_table_rows_equal_per_cell_values_at_the_largest_order():
    for family in Family:
        k_range = (-32, 0 if family is Family.TILDE_D else 32)
        table = build_table(family, (64, 64), k_range)
        cells = [str(family_value(family, 64, k)) for k in range(k_range[0], k_range[1] + 1)]
        assert table.rows == [(64, cells)], family


def _as_powers(row):
    """A row as {base b: the rational coefficient of b^-k}."""
    shift, denominator, terms = row
    return {b: F(c, b**shift * denominator) for b, c in terms}


def test_series_rows_equal_the_closed_form_rows_at_every_weight():
    # equal coefficients of b^-k prove closed form = series for every integer k
    compared = 0
    for family, (_, build, _) in _ROW_REFERENCES.items():
        for n in range(33):
            series_row = fa._series_rows(family, truncation_for(n))[n]
            assert series_row[0] == 0 and all(isinstance(c, int) and c != 0 for _, c in series_row[2])
            assert _as_powers(series_row) == _as_powers(build(n)), (family, n)
            compared += 1
    assert compared == 132


@settings(deadline=None)
@given(
    family=st.sampled_from(list(Family)),
    k=st.integers(-40, 40),
    order=st.sampled_from([24, 32, 40]),
)
def test_series_rows_match_the_per_weight_expansion(family, k, order):
    level, inner, denominator = fa._GENERATING_FUNCTIONS[family]
    z = inner(order + 1)
    want = polylog_apply(level, k, z) / denominator(order + 1, z)
    rows = fa._series_rows(family, order)
    assert [fa._evaluate_row(row, (k,))[0] for row in rows] == [want.egf(n) for n in range(order + 1)]


def test_oracle_diff_catches_a_changed_series_row(monkeypatch):
    rows = fa._series_rows(Family.COSECANT, 24)
    shift, denominator, ((b, c), *rest) = rows[4]
    changed = rows[:4] + ((shift, denominator, ((b, c + 1), *rest)),) + rows[5:]
    real = fa._series_rows

    def perturbed(family, order):
        return changed if (family, order) == (Family.COSECANT, 24) else real(family, order)

    with monkeypatch.context() as patch:
        patch.setattr(fa, "_series_rows", perturbed)
        report = oracle_diff("Cosecant", 6, -2, -2)
    fa._series_rows.cache_clear()
    assert report.verdict == "fail"
    assert [w.instance for w in report.mismatches()] == [
        "Cosecant(n=4, k=-2) explicit vs series",
        "Cosecant(n=4, k=-2) sasaki vs series",
    ]
    assert oracle_diff("Cosecant", 6, -2, -2).verdict == "pass"


# The sums that `families._binomial_sum` replaced, kept as they were: one
# index-juggling sum per conversion and the B-polynomials as a product of
# series, the B series taken from polylog_apply.

def _old_cotangent_from_cosecant(n, k):
    if n % 2 == 1:
        return F(0)
    return sum(
        (comb(n, 2 * i) * polycosecant(2 * i, k) for i in range(n // 2 + 1)),
        F(0),
    )


def _old_cosecant_from_cotangent(n, k):
    return sum(
        (
            comb(n, 2 * i) * euler_number(n - 2 * i) * polycotangent(2 * i, k)
            for i in range(n // 2 + 1)
        ),
        F(0),
    )


def _old_k_shift_recurrence(n, k):
    return sum(
        (comb(n + 1, 2 * m + 1) * polycosecant(n - 2 * m, k) for m in range(n // 2 + 1)),
        F(0),
    )


@lru_cache(maxsize=None)
def _old_poly_bernoulli_series(k, order):
    z = constant(1, order + 1) - exp_scaled(-1, order + 1)
    return polylog_apply(1, k, z) / z


@lru_cache(maxsize=None)
def _old_poly_bernoulli_polynomial_series(k, x, order):
    return _old_poly_bernoulli_series(k, order) * exp_scaled(-x, order)


def test_conversions_and_k_shift_equal_the_sums_they_replaced():
    for n in range(25):
        for k in range(-6, 7):
            assert polycotangent(n, k, method="from_cosecant") == _old_cotangent_from_cosecant(n, k), (n, k)
            assert k_shift_recurrence(n, k) == _old_k_shift_recurrence(n, k), (n, k)
            if n % 2 == 0:
                assert cosecant_from_cotangent(n, k) == _old_cosecant_from_cotangent(n, k), (n, k)


@pytest.mark.parametrize("x", [F(0), F(1), F(3), F(-2), F(1, 3), F(-5, 7)])
def test_poly_bernoulli_polynomial_equals_the_series_product(x):
    for k in range(-12, 13):
        for n in range(41):
            want = _old_poly_bernoulli_polynomial_series(k, x, truncation_for(n)).egf(n)
            assert poly_bernoulli_polynomial(n, k, x) == want, (n, k, x)
