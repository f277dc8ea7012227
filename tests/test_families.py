"""Poly-Bernoulli, polycosecant and polycotangent numbers: golden values,
method agreement, dualities, conversions, vanishing sums."""

import re
import sys
from fractions import Fraction as F
from functools import lru_cache, partial
from math import comb, factorial, gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyseq import (
    Family,
    IndexParity,
    MethodDomain,
    bernoulli,
    copoly_hat,
    cosecant_bivariate,
    cosecant_from_cotangent,
    euler_number,
    euler_polynomial,
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
    sym_polycosecant,
    tilde_cosecant,
)
from polyseq import families as fa
from polyseq import symmetrized as sy
from polyseq.cli import OutputTable, build_table
from polyseq.congruences import Report, _Checker
from polyseq.errors import UsageError
from polyseq.families import ROUTES, applicable_methods, family_value_by_method
from polyseq.series import BiSeries, biseries_constant, biseries_exp, constant, exp_scaled, truncation_for

import row_reference
import series_reference
from polylog_reference import _reciprocal_power, polylog_apply

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
    ks = range(-32, 33)
    for n in range(1, 65, 2):
        for family, fn in ((Family.COSECANT, polycosecant), (Family.COTANGENT, polycotangent)):
            assert family_row(family, n, ks) == [0] * len(ks), (family, n)
            for k in ks:
                assert fn(n, k) == 0, (family, n, k)
                for method in applicable_methods(family, n, k):
                    assert fn(n, k, method=method) == 0, (family, n, k, method)


def test_odd_order_cosecant_rows_are_empty_without_a_stirling_sum(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a Stirling sum was built for an odd-order row")

    monkeypatch.setattr(fa, "stirling2", unbuilt)
    for n in range(1, 64, 2):
        assert fa._cosecant_row(n) == fa._cotangent_row(n) == (1, (), ()), n


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
        polycosecant(0, 0, method="sasaki")  # excluded, although Sasaki's row gives the true value 1 there
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


def test_poly_bernoulli_polynomial_takes_exact_x_only():
    # B_n^{(1)}(x) = B_n(1 - x) with B_2(y) = y^2 - y + 1/6
    assert poly_bernoulli_polynomial(2, 1, F(1, 10)) == F(23, 300)
    assert poly_bernoulli_polynomial(2, 1, "1/10") == F(23, 300)
    assert poly_bernoulli_polynomial(2, 1, 3) == F(37, 6)
    with pytest.raises(TypeError, match="float"):
        poly_bernoulli_polynomial(2, 1, 0.1)
    with pytest.raises(TypeError, match="float"):
        poly_bernoulli_polynomial(2, 1, 3.0)


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


def _reference_cosecant_bivariate(orders):
    """The two-variable cosecant function as two quotients, the e^{-t} one divided on its own:
    1 + sum over s = 1, -1 of (e^{st+y} - e^{st}) / (1 + e^{st} + e^y - e^{st+y})."""
    ey = biseries_exp(0, 1, orders)
    result = biseries_constant(1, orders)
    for sign in (1, -1):
        et, ety = biseries_exp(sign, 0, orders), biseries_exp(sign, 1, orders)
        result = result + (ety - et) / (1 + et + ey - ety)
    return result


def test_the_bivariate_function_is_its_two_quotient_sum_at_every_pair_of_orders():
    for a in range(13):
        for b in range(13):
            assert cosecant_bivariate((a, b)) == _reference_cosecant_bivariate((a, b)), (a, b)


def test_the_bivariate_function_divides_once(monkeypatch):
    # F(-t, y) is F's grid reflected in t; the e^{-t} quotient, divided on its own, made a second division
    divisions = []
    divide = BiSeries.__truediv__

    def counting(self, other):
        divisions.append(other.orders)
        return divide(self, other)

    monkeypatch.setattr(BiSeries, "__truediv__", counting)
    for orders in ((6, 5), (6, 5), (0, 0)):
        divisions.clear()
        cosecant_bivariate(orders)
        assert divisions == [orders]


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
    # no default route holds, and the error names none of the methods
    for call in (tilde_cosecant, partial(family_value, "TildeD"), lambda n, k: family_row("TildeD", n, [0, k])):
        with pytest.raises(MethodDomain) as error:
            call(3, 2)
        assert str(error.value) == "no TildeD method covers (n, k) = (3, 2); its methods need weight <= 0"


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
    assert applicable_methods("TildeD", 3, -1) == {"explicit": "closed", "series": "oracle"}
    assert applicable_methods("TildeD", 3, 1) == {}
    assert "sasaki" not in applicable_methods("Cosecant", 0, 0)
    assert "sasaki" in applicable_methods("Cosecant", 2, 0)
    with pytest.raises(MethodDomain):
        family_value_by_method("TildeD", 2, 1, "explicit")  # TildeD's routes need weight <= 0
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


def _cosecant_sasaki(n, k):
    """Integer-only form for even n and weight -k <= 0.

    The sum is empty at (n, k) = (0, 0) although the true value there is 1,
    so that corner is excluded from this method's domain.
    """
    kk = -k
    total = F(0)
    for i in range(1, min(n + 1, kk) + 1):
        total += F(factorial(i) * factorial(i - 1), 2 ** (i - 1)) * stirling2(
            kk, i
        ) * stirling2(n + 1, i)
    return total


def test_sasaki_row_is_the_explicit_row():
    # a power-basis row is unique, so equal rows prove Sasaki's row equal to the
    # explicit one at every weight of these orders, (0, 0) included, where the
    # row reads 1; D's default route is its explicit row, and rests on this.
    # CI checks the even orders above 256 up to the order cap, 512
    for n in range(0, 257, 2):
        assert fa._sasaki_row(n) == fa._cosecant_row(n), n


# D's explicit row and Sasaki's row as they were written at exponent k + 1,
# with the row builder that folded that shift into the coefficients where
# every one divided by b, kept as references for the rows written at exponent k.

def _shifted_row(shift, denominator, terms):
    terms = sorted([(b, c) for b, c in terms if c])
    common = gcd(denominator, *[c for _, c in terms])
    if common > 1:
        denominator //= common
        terms = [(b, c // common) for b, c in terms]
    if shift > 0 and all(c % b**shift == 0 for b, c in terms):
        terms = [(b, c // b**shift) for b, c in terms]
        shift = 0
    return shift, denominator, tuple(b for b, _ in terms), tuple(c for _, c in terms)


def _shifted_cosecant_row(n):
    w = [(-1) ** (j + 1) * factorial(j) * 2 ** (n + 1 - j) * stirling2(n + 1, j) for j in range(n + 2)]
    return _shifted_row(
        1,
        2**n,
        ((2 * i + 1, sum(w[j] * comb(j - 1, 2 * i) for j in range(2 * i + 1, n + 2))) for i in range(n // 2 + 1)),
    )


def _shifted_sasaki_row(n):
    denominator, bases, numerators = fa._sym_row(n, 1, True)
    return _shifted_row(1, denominator, [(b, 2 * c) for b, c in zip(bases, numerators)])


def test_rows_at_exponent_k_equal_the_folded_rows_at_exponent_k_plus_one():
    for n in range(121):
        assert _shifted_cosecant_row(n) == (0, *fa._cosecant_row(n)), n
        if n % 2 == 0:
            assert _shifted_sasaki_row(n) == (0, *fa._sasaki_row(n)), n


def test_sasaki_route_matches_its_per_cell_sum():
    for n in range(0, 41, 2):
        ks = [k for k in range(-60, 1) if (n, k) != (0, 0)]
        assert fa._evaluate(Family.COSECANT, n, ks, "sasaki") == [_cosecant_sasaki(n, k) for k in ks], n


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
            denominator, bases, numerators = build(n)
            assert isinstance(denominator, int) and denominator > 0
            assert all(isinstance(b, int) for b in bases) and len(bases) == len(numerators)
            assert all(isinstance(c, int) and c != 0 for c in numerators)
        # in lowest terms D's denominator 2^n reduces to 2 to the number of binary ones of n
        assert fa._cosecant_row(n)[0] == (1 if n % 2 else 2 ** bin(n).count("1"))
        if n % 2:
            assert fa._cosecant_row(n) == fa._cotangent_row(n) == (1, (), ())


def _reference_evaluate_row(row, ks, shift=0):
    """`families._evaluate_row` as it was before it stepped powers between weights, at exponent k + shift."""
    denominator, bases, numerators = row
    terms = list(zip(bases, numerators))
    values = []
    scaled = None
    for k in ks:
        e = k + shift
        if e <= 0:
            values.append(F(sum(c * b**-e for b, c in terms), denominator))
            continue
        if scaled is None:
            lcm_all = lcm(*[b for b, _ in terms])
            scaled = [(lcm_all // b, c) for b, c in terms]
        values.append(F(sum(c * q**e for q, c in scaled), lcm_all**e * denominator))
    return values


_WEIGHT_LISTS = {
    "ascending": range(-32, 33),
    "descending": range(32, -33, -1),
    "duplicates": [4, 4, 5, 2, 9],
    "gaps": [-30, -17, -16, -3, 0, 7, 8, 20, 32, 3],
    "alternating signs": [-5, 5, -4, 4, -6, 6, -5, 5],
    "single": [7],
    "empty": [],
    # the exponent changes side between k = 0 and 1 (between -1 and 0 when D's rows had a shift)
    "across D's shift": [-3, -2, -1, 0, 1, 0, -1, -2, 1, -1],
    "large |k|": [-300, -299, 299, 300, 150],
}


def _reference_powers(bases, numerators, last, x):
    """`families._powers` as it was before its steps of one ran in C: one product or quotient per term in Python,
    and a rise of more than one multiplied by b^(x - y)."""
    if last is not None:
        y, powered = last
        if x >= y:
            step = x - y
            return x, [p * b**step for p, b in zip(powered, bases)]
        if x == y - 1:
            return x, [p // b for p, b in zip(powered, bases)]
    return x, [c * b**x for b, c in zip(bases, numerators)]


def _reference_stepped_evaluate_row(row, ks):
    """`families._evaluate_row` as it was before the `value` hook, stepping with `_reference_powers`."""
    denominator, bases, numerators = row
    if not bases:
        return [F(0)] * len(ks)
    values = []
    low = high = None
    for k in ks:
        if k <= 0:
            low = _reference_powers(bases, numerators, low, -k)
            values.append(F(sum(low[1]), denominator))
            continue
        if high is None:
            lcm_all = lcm(*bases)
            scaled = [lcm_all // b for b in bases]
        high = _reference_powers(scaled, numerators, high, k)
        values.append(F(sum(high[1]), lcm_all**k * denominator))
    return values


@pytest.mark.parametrize("name", _WEIGHT_LISTS)
def test_evaluate_row_equals_the_unstepped_evaluator(name):
    ks = list(_WEIGHT_LISTS[name])
    rows = [build(n) for n in range(65) for _, build, _ in _ROW_REFERENCES.values()]
    rows += [row for family in Family for row in fa._series_rows(family, 24)]
    for row in rows:
        values = fa._evaluate_row(row, ks)
        assert values == _reference_evaluate_row(row, ks), (row[0], ks)
        assert values == _reference_stepped_evaluate_row(row, ks), (row[0], ks)


def _every_route_row(n_max):
    """Every distinct row of every route with rows, n = 0..n_max."""
    routes = [rows for family in Family for _, _, rows in ROUTES[family].values() if rows is not None]
    return list(dict.fromkeys(rows(n) for rows in routes for n in range(n_max + 1)))


@pytest.mark.parametrize("name", _WEIGHT_LISTS)
def test_cells_are_the_fraction_strings_on_every_route_row(name):
    ks = list(_WEIGHT_LISTS[name])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the values at |k| = 300 have more digits than the default limit
    try:
        for row in _every_route_row(64):
            assert fa._evaluate_row(row, ks, fa._cell) == [str(v) for v in fa._evaluate_row(row, ks)], (row[0], ks)
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_cell_past_the_digit_limit_raises_as_its_fraction_string_does():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for numerator, denominator in ((10**4300, 3), (-3, 10**4300), (2 * 10**4300, 2)):
            with pytest.raises(ValueError, match="Exceeds the limit"):
                str(F(numerator, denominator))
            with pytest.raises(ValueError, match="Exceeds the limit"):
                fa._cell(numerator, denominator)
    finally:
        sys.set_int_max_str_digits(limit)


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


# The per-weight dispatch that one method per call replaced, kept verbatim as
# references: a default route chosen at each weight, and the weights grouped
# by the route they took.


def _reference_method_at(family, n, k, method):
    """The named method, or the default one at (n, k); the only place raising MethodDomain."""
    routes = ROUTES[family]
    if method is None:
        for name, (_, (_, holds), _) in routes.items():
            if holds(n, k):
                return name
        needs = " or ".join(dict.fromkeys(needs for _, (needs, _), _ in routes.values()))
        raise MethodDomain(f"no {family.value} method covers (n, k) = ({n}, {k}); its methods need {needs}")
    if method not in routes:
        raise MethodDomain(f"unknown {family.value} method {method!r}; known: {', '.join(routes)}")
    _, (needs, holds), _ = routes[method]
    if not holds(n, k):
        raise MethodDomain(f"{family.value} method {method!r} needs {needs}; got (n, k) = ({n}, {k})")
    return method


def _reference_evaluate(family, n, ks, method):
    """Values at (n, k) for each k in `ks`, each method's row read once for all its weights.

    One weight reads the row through the method's cache; several build it
    without keeping it.  The method with no row, `stirling_negk`, goes cell by cell.
    """
    if n < 0:
        raise ValueError("order index must be non-negative")
    # the default route returned these families' odd-order zeros without building a row
    if method is None and n % 2 == 1 and family in (Family.COSECANT, Family.COTANGENT):
        return [F(0)] * len(ks)
    by_method = {}
    for k in ks:
        by_method.setdefault(_reference_method_at(family, n, k, method), []).append(k)
    values = {}
    for name, weights in by_method.items():
        rows = ROUTES[family][name][2]
        if rows is None:
            values.update((k, fa._cotangent_stirling(n, k)) for k in weights)
        else:
            row = rows(n) if len(weights) == 1 else getattr(rows, "__wrapped__", rows)(n)
            values.update(zip(weights, fa._evaluate_row(row, weights)))
    return [values[k] for k in ks]


def test_single_weight_default_method_is_the_per_weight_default():
    for family in Family:
        last = list(ROUTES[family])[-1]
        for n in range(65):
            for k in range(-32, 1 if family is Family.TILDE_D else 33):
                assert fa._method_at(family, n, (k,), None) == _reference_method_at(family, n, k, None), (family, n, k)
                # the last method, the oracle, holds wherever any method does, so a call
                # that no one method covers has a weight that no method covers
                assert last in applicable_methods(family, n, k), (family, n, k)


def test_cotangent_rows_across_zero_take_no_stirling_negk_cell(monkeypatch):
    ks = range(-32, 33)
    want = {n: _reference_evaluate(Family.COTANGENT, n, ks, None) for n in range(0, 65, 2)}

    def refused(n, k):
        raise AssertionError(f"stirling_negk cell at ({n}, {k})")

    monkeypatch.setattr(fa, "_cotangent_stirling", refused)
    for n, values in want.items():
        assert family_row("Cotangent", n, ks) == values, n
    # a range entirely below 0 still takes the cells
    with pytest.raises(AssertionError, match="stirling_negk cell"):
        family_row("Cotangent", 4, range(-3, 0))


@settings(deadline=None)
@given(
    family=st.sampled_from(list(Family)),
    n=st.integers(0, 40),
    ks=st.lists(st.integers(-40, 40), max_size=8),
)
@example(family=Family.COTANGENT, n=6, ks=[-2, -2, 0, -5])  # stirling_negk at one weight, explicit across 0
@example(family=Family.COSECANT, n=0, ks=[0, -1, 1])  # sasaki is undefined at (0, 0)
def test_family_row_equals_family_value_on_drawn_weight_lists(family, n, ks):
    if family is Family.TILDE_D:
        ks = [-abs(k) for k in ks]
    values = family_row(family, n, ks)
    assert values == [family_value(family, n, k) for k in ks]
    assert values == _reference_evaluate(family, n, ks, None)


def test_an_empty_weight_list_builds_no_row(monkeypatch):
    def refused(n, *args):
        raise AssertionError(f"built a row at n = {n}")

    for family in (Family.COTANGENT, Family.TILDE_D):
        for method, (kind, domain, _) in ROUTES[family].items():
            monkeypatch.setitem(ROUTES[family], method, (kind, domain, refused))
    monkeypatch.setattr(fa, "_cotangent_stirling", refused)
    assert family_row("Cotangent", 4, []) == []
    assert family_row("TildeD", 3, []) == []


def test_a_method_over_a_range_fails_at_its_first_bad_weight():
    with pytest.raises(MethodDomain) as info:
        fa._evaluate(Family.COTANGENT, 4, (-2, 0), "stirling_negk")
    assert str(info.value) == (
        "Cotangent method 'stirling_negk' needs an even index and weight <= -1; got (n, k) = (4, 0)"
    )
    with pytest.raises(MethodDomain) as info:
        fa._evaluate(Family.COSECANT, 2, (-1, 3, 0, 5), "sasaki")
    assert str(info.value).endswith("got (n, k) = (2, 3)")
    with pytest.raises(MethodDomain) as info:
        family_row("TildeD", 3, [0, 2])
    assert str(info.value) == "no TildeD method covers (n, k) = (3, 2); its methods need weight <= 0"


def test_table_rows_equal_per_cell_values_at_the_largest_order():
    for family in Family:
        k_range = (-32, 0 if family is Family.TILDE_D else 32)
        table = build_table(family, (64, 64), k_range)
        cells = [str(family_value(family, 64, k)) for k in range(k_range[0], k_range[1] + 1)]
        assert table.rows == [(64, cells)], family


def test_series_rows_equal_the_closed_form_rows_at_every_weight():
    # equal rows in lowest terms prove closed form = series for every integer k
    compared = 0
    for family, (_, build, _) in _ROW_REFERENCES.items():
        for n in range(33):
            series_row = fa._series_rows(family, truncation_for(n))[n]
            assert all(isinstance(c, int) and c != 0 for c in series_row[2])
            assert series_row == build(n), (family, n)
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


@pytest.mark.parametrize("order", [24, 40, 64])
def test_series_matrices_equal_the_fraction_kernel_rows(order):
    for family in Family:
        assert fa._build_series_rows(family, order) == series_reference.build_series_rows(family, order), family


def test_a_series_sweep_keeps_one_matrix_per_family():
    fa._SERIES_MATRICES.clear()
    for family in (Family.COSECANT, Family.POLY_C):
        values = [family_value_by_method(family, n, -3, "series") for n in range(41)]
        assert [values[n] for n in (4, 40)] == [family_value(family, n, -3) for n in (4, 40)]
    # orders 24, 32 and 40 were asked for; only the order-40 matrix is kept
    assert {family: len(rows) for family, rows in fa._SERIES_MATRICES.items()} == {
        Family.COSECANT: 41,
        Family.POLY_C: 41,
    }
    for family in (Family.COSECANT, Family.POLY_C):
        for order in (24, 32, 40):
            assert fa._series_rows(family, order) == fa._build_series_rows(family, order), (family, order)
    assert len(fa._SERIES_MATRICES) == 2
    # a larger order replaces the family's matrix; a smaller one reads it
    rows = fa._series_rows(Family.COSECANT, 48)
    assert fa._SERIES_MATRICES[Family.COSECANT] is rows
    assert fa._series_rows(Family.COSECANT, 24) == rows[:25]
    assert fa._SERIES_MATRICES[Family.COSECANT] is rows


def test_oracle_diff_catches_a_changed_series_row(monkeypatch):
    rows = fa._series_rows(Family.COSECANT, 24)
    denominator, bases, (c, *rest) = rows[4]
    changed = rows[:4] + ((denominator, bases, (c + 1, *rest)),) + rows[5:]
    real = fa._series_rows

    def perturbed(family, order):
        return changed if (family, order) == (Family.COSECANT, 24) else real(family, order)

    with monkeypatch.context() as patch:
        patch.setattr(fa, "_series_rows", perturbed)
        report = oracle_diff("Cosecant", 6, -2, -2)
    fa._SERIES_MATRICES.clear()
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


def test_b_polynomials_hat_numbers_and_definitions_build_no_series_matrix():
    for call in (
        lambda: poly_bernoulli_polynomial(40, 3, 2),
        lambda: copoly_hat(40, 2, 2),
        lambda: sym_polycosecant(12, 3, 2, method="definition"),
    ):
        fa._SERIES_MATRICES.clear()
        call()
        assert fa._SERIES_MATRICES == {}


@pytest.mark.parametrize("x", [F(0), F(1), F(3), F(-2), F(1, 3), F(-5, 7)])
def test_poly_bernoulli_polynomial_equals_the_series_product(x):
    for k in range(-12, 13):
        for n in range(41):
            want = _old_poly_bernoulli_polynomial_series(k, x, truncation_for(n)).egf(n)
            assert poly_bernoulli_polynomial(n, k, x) == want, (n, k, x)


def test_tilde_row_is_the_series_row_at_every_weight():
    # equal rows in lowest terms prove TildeD's closed form = its series at every integer k
    for order in (24, 32, 40):
        rows = fa._series_rows(Family.TILDE_D, order)
        for n in range(order + 1):
            assert fa._tilde_row(n) == rows[n], (order, n)
    for n in range(13):
        denominator, _, numerators = fa._tilde_row(n)
        # in lowest terms the denominator 2^(n+1) reduces to 2^(1 + the number of binary ones of n)
        assert denominator == 2 ** (1 + bin(n).count("1"))
        assert all(isinstance(c, int) and c != 0 for c in numerators)


def test_conversion_rows_prove_the_identities_at_every_weight():
    for n in range(65):
        # CONV_EQ5: beta_n = sum_i C(n,2i) D_{2i}, at every k
        assert fa._from_cosecant_row(n) == fa._cotangent_row(n), n
        # KSHIFT: sum_m C(n+1,2m+1) D_{n-2m}^{(k)} = D_n^{(k-1)}, at every k
        assert fa._k_shift_row(n) == fa._rising(fa._cosecant_row(n), 1), n
        if n % 2 == 0:
            # CONV_EQ6: D_n = sum_i C(n,2i) E_{n-2i} beta_{2i}, at every k
            assert fa._cosecant_from_cotangent_row(n) == fa._cosecant_row(n), n
    ks = range(-6, 7)
    for row in (fa._cosecant_row(6), fa._cotangent_row(8), fa._tilde_row(5)):
        assert fa._evaluate_row(fa._rising(row, 1), ks) == fa._evaluate_row(row, [k - 1 for k in ks])


def test_row_sum_scales_and_takes_the_common_denominator():
    parts = [(3, (4, (1, 3), (2, 5))), (-2, (8, (3, 5), (1, 7))), (1, (2, (1,), (-1,)))]
    # over 8 the row is (8, 28, -14); in lowest terms the common factor 2 goes
    assert fa._row_sum(parts) == (4, (1, 3, 5), (4, 14, -7))
    # terms that cancel are dropped
    assert fa._row_sum([(1, (2, (1, 2), (1, 3))), (1, (2, (2,), (-3,)))]) == (2, (1,), (1,))
    ks = range(-4, 5)
    want = [3 * a - 2 * b + c for a, b, c in zip(*(fa._evaluate_row(row, ks) for _, row in parts))]
    assert fa._evaluate_row(fa._row_sum(parts), ks) == want
    # a Fraction scale's denominator joins the common one: lcm(4*3, 8*2, 2*1) = 48
    parts = [(F(1, 3), (4, (1, 3), (2, 5))), (F(-5, 2), (8, (3, 5), (1, 7))), (1, (2, (1,), (-1,)))]
    assert fa._row_sum(parts) == (48, (1, 3, 5), (-16, 5, -105))
    want = [a / 3 - F(5, 2) * b + c for a, b, c in zip(*(fa._evaluate_row(row, ks) for _, row in parts))]
    assert fa._evaluate_row(fa._row_sum(parts), ks) == want


def test_rising_sums_the_row_against_first_kind_stirling_weights():
    ks = range(-6, 7)
    for row in (fa._cosecant_row(6), fa._cotangent_row(8), fa._tilde_row(5), fa._poly_bernoulli_row("C", 7)):
        assert fa._rising(row, 0) == row
        for n in range(1, 5):
            values = fa._evaluate_row(fa._rising(row, n), ks)
            want = [sum(stirling1(n, j) * fa._evaluate_row(row, (k - j,))[0] for j in range(n + 1)) for k in ks]
            assert values == want, (row[0], n)


def test_single_weight_lookups_read_one_cached_row():
    rows = ROUTES[Family.POLY_B]["stirling"][2]
    rows.cache_clear()
    poly_bernoulli("B", 10, -3)
    first = rows.cache_info()
    assert (first.hits, first.misses, first.currsize) == (0, 1, 1)
    for k in range(-5, 6):
        poly_bernoulli("B", 10, k)
    repeated = rows.cache_info()
    assert (repeated.hits, repeated.misses, repeated.currsize) == (11, 1, 1)
    # a table row builds its own row and keeps nothing, even where one is cached
    for n in (10, 11, 40):
        family_row("PolyB_B", n, range(-5, 6))
    assert rows.cache_info() == repeated
    # every closed form's row cache is bounded, the series rows are read from
    # the family's matrix with no cache of their own, and the one cell route
    # has no row
    entries = {(family, method): rows for family, routes in ROUTES.items() for method, (_, _, rows) in routes.items()}
    assert [key for key, rows in entries.items() if rows is None] == [(Family.COTANGENT, "stirling_negk")]
    series = [rows for (_, method), rows in entries.items() if method == "series"]
    assert len(series) == len(Family)
    assert not any(hasattr(rows, "cache_info") for rows in series)
    cached = [rows for (_, method), rows in entries.items() if rows is not None and method != "series"]
    assert len(cached) == 7
    assert {rows.cache_info().maxsize for rows in cached} == {128}


def test_tilde_lookups_build_no_series_matrix():
    fa._SERIES_MATRICES.clear()
    values = [tilde_cosecant(n, k) for k in (-24, -1, 0) for n in range(41)]
    assert fa._SERIES_MATRICES == {}
    rows = fa._series_rows(Family.TILDE_D, 40)
    assert values == [fa._evaluate_row(rows[n], (k,))[0] for k in (-24, -1, 0) for n in range(41)]


def test_oracle_diff_catches_a_changed_tilde_row(monkeypatch):
    kind, domain, _ = ROUTES[Family.TILDE_D]["explicit"]

    def perturbed(n):
        denominator, bases, (c, *rest) = fa._tilde_row(n)
        return (denominator, bases, (c + 1 if n == 4 else c, *rest))

    with monkeypatch.context() as patch:
        # a plain builder, with no cache, so the planted row is kept nowhere
        patch.setitem(ROUTES[Family.TILDE_D], "explicit", (kind, domain, perturbed))
        report = oracle_diff("TildeD", 6, -2, -2)
    assert report.verdict == "fail"
    assert [w.instance for w in report.mismatches()] == ["TildeD(n=4, k=-2) explicit vs series"]
    assert oracle_diff("TildeD", 6, -2, -2).verdict == "pass"


def test_oracle_diff_catches_a_changed_closed_form_row(monkeypatch):
    kind, domain, _ = ROUTES[Family.COSECANT]["explicit"]

    def perturbed(n):
        row = fa._cosecant_row(n)
        if n == 4:
            denominator, bases, (c, *rest) = row
            row = (denominator, bases, (c + 1, *rest))
        return row

    with monkeypatch.context() as patch:
        # a plain builder, with no cache, so the planted row is kept nowhere
        patch.setitem(ROUTES[Family.COSECANT], "explicit", (kind, domain, perturbed))
        report = oracle_diff("Cosecant", 6, -2, -2)
    assert report.verdict == "fail"
    assert [w.instance for w in report.mismatches()] == ["Cosecant(n=4, k=-2) explicit vs series"]
    assert oracle_diff("Cosecant", 6, -2, -2).verdict == "pass"


def test_every_row_route_is_the_series_row_at_every_weight():
    # rows in lowest terms are equal tuples, so each closed form equals the
    # series at every integer weight of these orders, not only at sampled ones
    compared = 0
    for family, routes in ROUTES.items():
        for method, (_, _, rows) in routes.items():
            if rows is None or method == "series":
                continue
            for n in range(0, 65, 2 if method == "sasaki" else 1):
                assert fa._route_row(family, n, method) == fa._route_row(family, n, "series"), (family, method, n)
                compared += 1
    assert compared == 6 * 65 + 33
    # the one cell route has no row, so oracle_diff evaluates it at every cell
    assert fa._route_row(Family.COTANGENT, 4, "stirling_negk") is None


def test_stirling_negk_cells_are_the_explicit_row_on_the_whole_cli_grid():
    # every cell `polyseq table` can take by stirling_negk: even n <= 64 at k -32..-1, 1,056 cells
    ks = range(-32, 0)
    cells = 0
    for n in range(0, 65, 2):
        assert fa._evaluate(Family.COTANGENT, n, ks, "stirling_negk") == fa._evaluate_row(fa._cotangent_row(n), ks), n
        cells += len(ks)
    assert cells == 1056


def test_route_rows_are_the_series_rows_past_the_cli_cap():
    # the CLI stops at n = 64; rows in lowest terms are equal tuples past it too
    compared = 0
    for family, routes in ROUTES.items():
        for method, (_, _, rows) in routes.items():
            if rows is None or method == "series":
                continue
            for n in range(66 if method == "sasaki" else 65, 73, 2 if method == "sasaki" else 1):
                assert fa._route_row(family, n, method) == fa._route_row(family, n, "series"), (family, method, n)
                compared += 1
    assert compared == 6 * 8 + 4


def test_every_closed_form_domain_lies_inside_the_series_domain():
    # oracle_diff compares a cell where the series domain and some other method's domain hold; this
    # is the cell rule "two or more methods apply" only while no closed form reaches past the series
    for family, routes in ROUTES.items():
        series_holds = routes["series"][1][1]
        for method, (kind, (_, holds), _) in routes.items():
            if method == "series":
                continue
            assert kind == "closed", (family, method)
            outside = [(n, k) for n in range(65) for k in range(-32, 33) if holds(n, k) and not series_holds(n, k)]
            assert not outside, (family, method, outside[:5])


def _reference_oracle_diff(family, n_max, k_min, k_max):
    """`congruences.oracle_diff` as it was before it compared rows: every method evaluated at every cell."""
    family = Family(family)
    if n_max < 0 or k_min > k_max:
        raise UsageError(f"empty oracle sweep: n up to {n_max}, k in {k_min}..{k_max}")
    checker = _Checker()
    single_method = True
    for n in range(n_max + 1):
        for k in range(k_min, k_max + 1):
            methods = applicable_methods(family, n, k)
            if len(methods) < 2:
                continue
            single_method = False
            reference = family_value_by_method(family, n, k, "series")
            for name in sorted(m for m in methods if m != "series"):
                value = family_value_by_method(family, n, k, name)
                checker.eq(f"{family.value}(n={n}, k={k}) {name} vs series", value, reference)
    params = {"family": family.value, "n_max": n_max, "k_min": k_min, "k_max": k_max}
    if single_method:
        params["note"] = "single method"
    return Report("ORACLE_DIFF", params, "pass" if checker.ok else "fail", checker.witnesses)


def test_oracle_diff_equals_the_cell_by_cell_reference_on_the_ci_grid():
    for family in Family:
        k_max = 0 if family is Family.TILDE_D else 12
        want = _reference_oracle_diff(family, 24, -12, k_max).to_json()
        assert oracle_diff(family, 24, -12, k_max).to_json() == want, family


def test_oracle_diff_equals_the_cell_by_cell_reference_on_single_weight_sweeps():
    # the oracle benchmark's sweeps: one weight each, n up to 24
    for family in (Family.POLY_B, Family.POLY_C, Family.COSECANT, Family.COTANGENT):
        for k in range(-12, 13):
            want = _reference_oracle_diff(family, 24, k, k).to_json()
            assert oracle_diff(family, 24, k, k).to_json() == want, (family, k)


def test_a_warm_oracle_diff_builds_no_fraction_where_every_method_has_a_row(monkeypatch):
    # every compared method's row is the series row here, so each cell's text comes from an integer pair
    sweeps = [(family, 24, -12, 12) for family in (Family.POLY_B, Family.POLY_C, Family.COSECANT)]
    sweeps += [(Family.TILDE_D, 24, -12, 0), (Family.COTANGENT, 24, 0, 12)]  # beta's k >= 0 avoids stirling_negk
    real = F.__new__
    built = []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    for sweep in sweeps:
        assert oracle_diff(*sweep).passed  # fills the row caches and the series matrix
        with monkeypatch.context() as patch:
            patch.setattr(F, "__new__", staticmethod(counted))
            report = oracle_diff(*sweep)
        assert report.passed and report.witnesses, sweep
        assert built == [], sweep


def test_oracle_diff_shows_a_fault_planted_in_the_rowless_route_as_text(monkeypatch):
    real = fa._cotangent_stirling
    monkeypatch.setattr(fa, "_cotangent_stirling", lambda n, k: real(n, k) + 1)
    report = oracle_diff("Cotangent", 6, -2, -2)
    assert report.verdict == "fail"
    assert [w.instance for w in report.mismatches()] == [
        f"Cotangent(n={n}, k=-2) stirling_negk vs series" for n in (0, 2, 4, 6)
    ]
    assert report.to_json() == _reference_oracle_diff("Cotangent", 6, -2, -2).to_json()


@st.composite
def _oracle_sweeps(draw):
    """(family, n_max, k_min, k_max) with n_max <= 12 and weights in -12..12, TildeD's at most 0."""
    family = draw(st.sampled_from(list(Family)))
    top = 0 if family is Family.TILDE_D else 12
    k_min = draw(st.integers(-12, top))
    return family, draw(st.integers(0, 12)), k_min, draw(st.integers(k_min, top))


@settings(deadline=None, max_examples=60)
@given(sweep=_oracle_sweeps())
def test_oracle_diff_equals_the_cell_by_cell_reference_on_drawn_sweeps(sweep):
    assert oracle_diff(*sweep).to_json() == _reference_oracle_diff(*sweep).to_json()


@settings(deadline=None, max_examples=40)
@given(
    family=st.sampled_from(list(Family)),
    n_max=st.integers(0, 16),
    k_min=st.integers(-16, 16),
    width=st.integers(0, 6),
)
def test_oracle_diff_equals_the_cell_by_cell_reference(family, n_max, k_min, width):
    want = _reference_oracle_diff(family, n_max, k_min, k_min + width).to_json()
    assert oracle_diff(family, n_max, k_min, k_min + width).to_json() == want


_TERMS = st.dictionaries(st.integers(1, 40), st.integers(-(10**6), 10**6), max_size=8).map(lambda d: list(d.items()))
_ROW_KS = range(-6, 7)


def _unreduced_row(denominator, terms):
    """(denominator, bases, numerators) of the (b, c_b) pairs as drawn: unsorted, zeros and common factors kept."""
    return denominator, tuple(b for b, _ in terms), tuple(c for _, c in terms)


@given(denominator=st.integers(1, 10**6), terms=_TERMS, factor=st.integers(1, 10**4))
def test_row_is_in_lowest_terms_and_ignores_a_common_factor(denominator, terms, factor):
    row = fa._row(denominator, terms)
    assert fa._row(factor * denominator, [(b, factor * c) for b, c in terms]) == row
    d, bases, numerators = row
    assert gcd(d, *numerators) == 1
    assert list(bases) == sorted(b for b, c in terms if c)
    assert fa._evaluate_row(row, _ROW_KS) == _reference_evaluate_row(_unreduced_row(denominator, terms), _ROW_KS)


@given(denominator=st.integers(1, 10**6), terms=_TERMS, factor=st.integers(1, 10**4))
@example(denominator=1, terms=[(2, 1)], factor=1)  # 2^-(k+1), which no row at exponent k+1 could fold
def test_one_function_written_two_ways_is_one_tuple(denominator, terms, factor):
    # sum c_b b^-(k+1) / d, at exponent k + 1, is sum c_b (L/b) b^-k / (d L) for
    # every common multiple L of the bases: the lcm, a multiple of it, their product
    common = lcm(*[b for b, _ in terms])
    row = fa._row(common * denominator, [(b, c * (common // b)) for b, c in terms])
    for multiple in (factor * common, prod(b for b, _ in terms)):
        assert fa._row(multiple * denominator, [(b, c * (multiple // b)) for b, c in terms]) == row
    want = _reference_evaluate_row(_unreduced_row(denominator, terms), _ROW_KS, shift=1)
    assert fa._evaluate_row(row, _ROW_KS) == want
    # where every c_b is b e_b, the lift is the row of the e_b written at exponent k
    lifted = [(b, c * b * (common // b)) for b, c in terms]
    assert fa._row(common * denominator, lifted) == fa._row(denominator, terms)


@st.composite
def _scaled_rows(draw):
    """A `_row_sum` of up to four drawn rows, each scaled by a drawn rational: empty, zero or negative cases included."""
    parts = draw(
        st.lists(st.tuples(st.fractions(-1000, 1000, max_denominator=999), st.integers(1, 10**6), _TERMS), max_size=4)
    )
    return fa._row_sum([(scale, fa._row(d, terms)) for scale, d, terms in parts])


@given(row=_scaled_rows(), ks=st.lists(st.integers(-40, 40), max_size=12))
@example(row=(1, (), ()), ks=[0, 3])  # the empty row
@example(row=fa._row(1, [(1, 2), (2, -2)]), ks=[0, 1, -1])  # zero at k = 0 only
@example(row=fa._row(3, [(1, -5), (7, 1)]), ks=[-2, 0, 2])  # negative values over a non-dyadic denominator
@example(row=fa._row(5, [(2, 3), (3, -1), (6, 7)]), ks=[-9, -9, -8, -10, -4, 3, 2, 2, 7, 6, -1, 1])  # gaps, repeats, falls
def test_cells_are_the_fraction_strings_on_drawn_rows(row, ks):
    # any step other than one starts afresh, so gaps, repeats and falls are checked against the unstepped sums
    values = fa._evaluate_row(row, ks)
    assert values == _reference_evaluate_row(row, ks)
    assert fa._evaluate_row(row, ks, fa._cell) == [str(v) for v in values]


@given(
    row=_scaled_rows(),
    numerators=st.lists(st.integers(-(10**6), 10**6), min_size=40, max_size=40),
    ks=st.lists(st.integers(1, 40), min_size=1, max_size=8),
)
def test_positive_weights_are_the_fraction_sums_on_drawn_rows(row, numerators, ks):
    # a second row on the same bases reads the scaled bases that the first one cached
    denominator, bases, _ = row
    for d, bases, numerators in (row, (denominator, bases, tuple(numerators[: len(bases)]))):
        want = [sum((F(c, b**k) for b, c in zip(bases, numerators)), F(0)) / d for k in ks]
        assert fa._evaluate_row((d, bases, numerators), ks) == want


def test_the_scaled_bases_cache_stays_within_its_bound_on_the_table_grid():
    fa._scaled_bases.cache_clear()
    for family in ("PolyB_B", "PolyB_C", "Cosecant", "Cotangent"):
        build_table(family, (0, 64), (-32, 32))
    info = fa._scaled_bases.cache_info()
    # the grid asks for more sets of bases than the cache keeps
    assert info.misses > info.maxsize >= info.currsize


def test_oracle_diff_catches_a_changed_row_at_a_positive_weight(monkeypatch):
    kind, domain, _ = ROUTES[Family.POLY_C]["stirling"]
    # the true rows' bases are scaled and cached first
    assert oracle_diff("PolyB_C", 6, 3, 3).passed

    def perturbed(n):
        # one more term, at a base no true row of order n has: bases cached for the order, not for
        # the bases themselves, would drop it
        denominator, bases, numerators = fa._poly_bernoulli_row("C", n)
        return fa._row(denominator, [*zip(bases, numerators), (n + 9, 1)] if n == 4 else zip(bases, numerators))

    with monkeypatch.context() as patch:
        patch.setitem(ROUTES[Family.POLY_C], "stirling", (kind, domain, perturbed))
        report = oracle_diff("PolyB_C", 6, 3, 3)
    assert report.verdict == "fail"
    assert [w.instance for w in report.mismatches()] == ["PolyB_C(n=4, k=3) stirling vs series"]
    assert oracle_diff("PolyB_C", 6, 3, 3).passed


# The four row builders as they were before `_binomial_shift`: one binomial per term of each double sum.


def _reference_cosecant_row(n):
    if n % 2 == 1:
        return fa._row(1, ())
    w = [0] + [(-1) ** (j + 1) * factorial(j - 1) * 2 ** (n + 1 - j) * stirling2(n + 1, j) for j in range(1, n + 2)]
    return fa._row(
        2**n,
        ((2 * i + 1, sum(w[j] * comb(j, 2 * i + 1) for j in range(2 * i + 1, n + 2))) for i in range(n // 2 + 1)),
    )


def _reference_cotangent_row(n):
    if n % 2 == 1:
        return fa._row(1, ())
    w = [
        (-1) ** j
        * factorial(j)
        * 2 ** (n - j)
        * ((j + 1) * (j + 2) // 2 * stirling2(n, j + 2) + stirling2(n + 1, j + 1))
        for j in range(n + 1)
    ]
    return fa._row(
        2**n,
        ((2 * i + 1, sum(w[j] * comb(j + 1, 2 * i + 1) for j in range(2 * i, n + 1))) for i in range(n // 2 + 1)),
    )


def _reference_sym_row(m, n, dyadic):
    w = [factorial(j + n) * stirling2(m + 1, j + 1) * (2 ** (m - j) if dyadic else 1) for j in range(m + 1)]
    return fa._row(
        2 ** (n + m) if dyadic else 1,
        (
            (b, sum((-1) ** (j + 1 - b) * comb(j, b - 1) * w[j] for j in range(b - 1, m + 1)))
            for b in range(1, m + 2)
        ),
    )


def _reference_tilde_row(n):
    w = [0] + [factorial(r - 1) * stirling2(n + 1, r) * 2 ** (n + 1 - r) for r in range(1, n + 2)]
    return fa._row(
        2 ** (n + 1),
        ((m, sum((-1) ** (r - m) * comb(r, m) * w[r] for r in range(m, n + 2))) for m in range(1, n + 2)),
    )


@pytest.mark.parametrize(
    "build, reference",
    [
        (fa._cosecant_row, _reference_cosecant_row),
        (fa._cotangent_row, _reference_cotangent_row),
        (fa._tilde_row, _reference_tilde_row),
    ],
    ids=["cosecant", "cotangent", "tilde"],
)
def test_shifted_rows_equal_the_binomial_double_sums(build, reference):
    for n in range(257):
        assert build(n) == reference(n), n


def test_shifted_sym_rows_equal_the_binomial_double_sums():
    for m in range(65):
        for n in range(4):
            for dyadic in (False, True):
                assert fa._sym_row.__wrapped__(m, n, dyadic) == _reference_sym_row(m, n, dyadic), (m, n, dyadic)


@pytest.mark.parametrize("name", ["_cosecant_row", "_cotangent_row", "_tilde_row", "_sasaki_row"])
def test_stirling_kernel_rows_equal_the_builders_they_replaced(name):
    # each builder is its weight list and one `_shifted_row` call; row_reference keeps the previous code
    build, reference = getattr(fa, name), getattr(row_reference, name)
    for n in range(65):
        assert build(n) == reference(n), n


def test_stirling_kernel_sym_rows_equal_the_builder_they_replaced():
    for m in range(41):
        for n in range(9):
            for dyadic in (False, True):
                assert fa._sym_row.__wrapped__(m, n, dyadic) == row_reference._sym_row(m, n, dyadic), (m, n, dyadic)


@pytest.mark.parametrize("name", ["_from_cosecant_row", "_cosecant_from_cotangent_row", "_k_shift_row"])
def test_fixed_series_rows_equal_the_builders_they_replaced(name):
    # each conversion is one `_times_series` call; at odd n sech t's product is the empty row on both sides
    build, reference = getattr(fa, name), getattr(row_reference, name)
    for n in range(65):
        assert build(n) == reference(n), n


def test_hat_rows_equal_the_builder_they_replaced():
    for m in range(41):
        for n in range(9):
            assert sy._hat_row(m, n) == row_reference._hat_row(m, n), (m, n)


@settings(deadline=None)
@given(n=st.integers(0, 64), x=st.fractions(min_value=-20, max_value=20, max_denominator=60))
@example(n=64, x=F(0))
@example(n=64, x=F(-3))  # a negative x
@example(n=64, x=F(-3, 7))  # a negative, non-dyadic x
@example(n=40, x=F(5, 3))  # a non-dyadic x
def test_b_polynomial_rows_equal_the_builder_they_replaced(n, x):
    assert fa._bernoulli_polynomial_row(n, x) == row_reference._bernoulli_polynomial_row(n, x)


@given(w=st.lists(st.integers(-(10**9), 10**9), max_size=12), c=st.sampled_from([1, -1]))
def test_binomial_shift_is_the_double_sum(w, c):
    want = [sum(w[j] * comb(j, m) * c ** (j - m) for j in range(m, len(w))) for m in range(len(w))]
    assert fa._binomial_shift(w, c) == want


def test_bivariate_denominators_keep_at_most_128_orders():
    # a sweep over many (nmax, kmax) used to keep every order's three series for the life of the process
    cache = fa._bivariate_denominators
    cache.cache_clear()
    for orders in [(nmax, kmax) for nmax in range(12) for kmax in range(12)]:
        cache(orders)
    info = cache.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (128, 128, 144)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: poly_bernoulli("D", 2, 1), ValueError, "variant must be 'B' or 'C'", id="variant"),
        pytest.param(
            lambda: poly_bernoulli_polynomial(-1, 0, 0), ValueError, "order index must be non-negative", id="polynomial"
        ),
        pytest.param(lambda: k_shift_recurrence(-1, 0), ValueError, "order index must be non-negative", id="k-shift"),
        pytest.param(lambda: bernoulli(-1), ValueError, "Bernoulli index must be non-negative", id="bernoulli"),
        pytest.param(lambda: euler_number(-1), ValueError, "Euler-number index must be non-negative", id="euler"),
        pytest.param(
            lambda: euler_polynomial(-1, 0), ValueError, "Euler-polynomial index must be non-negative", id="euler-poly"
        ),
        pytest.param(lambda: copoly_hat(-1, 0, 0), ValueError, "indices must be non-negative", id="hat"),
        pytest.param(
            lambda: constant(1, 4) ** -1, ValueError, "series powers take non-negative integer exponents", id="power"
        ),
        pytest.param(
            lambda: BiSeries([]), ValueError, "a bivariate series needs at least the constant coefficient", id="empty"
        ),
        pytest.param(lambda: BiSeries([[1, 2], [3]]), ValueError, "ragged coefficient grid", id="ragged"),
        pytest.param(
            lambda: OutputTable(Family.COSECANT, (0, 0), (0, 0), []).render("xml"),
            UsageError,
            "unknown format 'xml'",
            id="format",
        ),
    ],
)
def test_a_bad_argument_raises_its_error_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call()
    assert raised.type is error
