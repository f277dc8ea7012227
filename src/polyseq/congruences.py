"""Modular and p-adic verification of the congruence, duality, valuation and
generating-function identities, through a uniform registry.

Every verifier evaluates both sides exactly, reduces where the statement is a
congruence, and emits one witness per compared instance.  Violated hypotheses
raise HypothesisViolation instead of reporting a failure, so parameter sweeps
can enumerate lattice points and skip the invalid ones.  A perturbation hook
adds +1 to the left side of a chosen instance, for negative-control
self-tests of the whole pipeline.

A theorem stated for several families is one helper whose first parameters
are the per-family choices: the `Family`, and where the statements differ,
a weight shift or a right-hand side.  `identity(name, doc, *bound)` registers
`partial(helper, *bound)`, so stacked decorators register the one helper once
per family, and a caller cannot override a bound argument.  Witness labels
take each family's symbol from one table, `_FAMILIES`: Family -> symbol.
Every value of B, C, D and beta is read at the family's default route, through
`families.family_value`, or `family_row` where a duality sweep reads an
order's row once; only CONV_EQ5 and `oracle_diff` name a route, through
`family_value_by_method`.  The GF sweeps read one row per order, D's default
`explicit` row for GF_BIVARIATE, and compare integer pairs as text, `eq_pairs`.

Each helper declares its parameters once, by role, in a `signatures.Signature`,
which `verify()` checks before the body runs.  The records it returns,
`Report`, `Witness` and `ValuationReport`, live in `reports`, with the one
writer of a report's JSON: `%` templates built once per indent and filled
once per witness, with no dict of the report built on the way.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import partial
from math import comb, factorial, gcd
from typing import NamedTuple

from .errors import HypothesisViolation, NotPIntegral, UsageError, ZeroValuation
from .families import (
    ROUTES,
    Family,
    _bernoulli_polynomial_row,
    _cell,
    _evaluate_row,
    _route_row,
    _sym_row,
    cosecant_bivariate,
    cosecant_from_cotangent,
    family_row,
    family_value,
    family_value_by_method,
    k_shift_recurrence,
)
from .reports import Report, ValuationReport, Witness
from .sequences import bernoulli, primes_upto, stirling1, stirling2, tangent
from .series import _exact
from .signatures import EXPONENT, ODD_PRIME, PERIOD_PRIME, PRIME, SUM_EXPONENT, Role, Signature, _phi, order, weight
from .symmetrized import _definition_row, _hat_row, sym_bernoulli_bivariate, sym_cosecant_bivariate

# ------------------------------------------------------------------ primitives


def _check_base(p: int) -> None:
    # p = 1 or -1 divides every integer, so stripping factors of p would never end
    if p < 2:
        raise ValueError(f"p = {p} must be at least 2")


def ord_p(q, p: int) -> int:
    """p-adic valuation of a nonzero rational, for p >= 2; a float q is refused."""
    _check_base(p)
    q = _exact(q, "q")
    if q == 0:
        raise ZeroValuation("the zero rational has no finite p-adic order")
    order = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        order += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        order -= 1
    return order


class Residue(NamedTuple("Residue", [("value", int), ("modulus", int)])):
    """value mod modulus, with 0 <= value < modulus."""

    __slots__ = ()

    def __new__(cls, value: int, modulus: int):
        if not 0 <= value < modulus:
            raise ValueError("residue out of range")
        return super().__new__(cls, value, modulus)

    def __str__(self):
        return f"{self.value} (mod {self.modulus})"


def reduce_mod(q, p: int, N: int) -> Residue:
    """a * b^{-1} mod p^N for a rational a/b with b prime to p, p >= 2 and N >= 0; a float q is refused."""
    _check_base(p)
    if N < 0:
        raise ValueError(f"N = {N} must be >= 0")
    q = _exact(q, "q")
    modulus = p**N
    common = gcd(q.denominator, p)
    if common > 1:
        # for a prime p this is p itself
        raise NotPIntegral(f"{q} has a factor {common} in its denominator")
    value = q.numerator * pow(q.denominator, -1, modulus) % modulus
    return Residue(value, modulus)


def _digit_limit(where: str) -> UsageError:
    """The bad-usage error for a value at `where` that str() refuses for its number of digits."""
    limit = sys.get_int_max_str_digits()
    return UsageError(f"{where}: a value has more than {limit} digits, Python's limit for integer string conversion")


def _render(instance: str, value) -> str:
    """str(value) for a witness; a value past Python's digit limit is bad usage, not a counterexample."""
    try:
        return str(value)
    except ValueError:
        raise _digit_limit(instance) from None


class _Checker:
    """Collects compared instances; optionally perturbs one lhs by +1.

    Each side is taken through `_exact`, so a Fraction passes as it is and a
    float, which holds only the nearest double to what was meant, is refused.
    """

    def __init__(self, perturb_index: int | None = None):
        self.witnesses: list[Witness] = []
        self.ok = True
        self._count = 0
        self._perturb = perturb_index

    def _bump(self, lhs):
        if self._count == self._perturb:
            lhs = lhs + 1
        self._count += 1
        return lhs

    def eq(self, instance: str, lhs, rhs) -> None:
        lhs = self._bump(_exact(lhs, "a witness's lhs"))
        rhs = _exact(rhs, "a witness's rhs")
        self.witnesses.append(Witness(instance, _render(instance, lhs), _render(instance, rhs)))
        if lhs != rhs:
            self.ok = False

    def eq_pairs(self, instance: str, lhs: tuple[int, int], rhs: tuple[int, int]) -> None:
        """`eq` on (numerator, denominator) pairs, d > 0, compared as `_cell`'s lowest-terms text; +1 is (n + d, d)."""
        if self._count == self._perturb:
            lhs = (lhs[0] + lhs[1], lhs[1])
        self._count += 1
        try:
            self.witnesses.append(witness := Witness(instance, _cell(*lhs), _cell(*rhs)))
        except ValueError:
            raise _digit_limit(instance) from None
        self.ok = self.ok and witness.lhs == witness.rhs

    def eq_mod(self, instance: str, lhs, rhs, p: int, N: int) -> None:
        lhs = self._bump(_exact(lhs, "a witness's lhs"))
        _render(instance, p**N)  # each residue is below the modulus, and the report writes all three out
        lres = reduce_mod(lhs, p, N)
        rres = reduce_mod(rhs, p, N)
        self.witnesses.append(Witness(instance, str(lres.value), str(rres.value), p**N))
        if lres.value != rres.value:
            self.ok = False

    def p_integral(self, instance: str, value, p: int) -> bool:
        """Assert p-integrality as 'p-part of the denominator equals 1'."""
        value = _exact(value, "a p-integrality value")
        part = p ** max(0, -ord_p(value, p)) if value != 0 else 1
        self.eq(instance, part, 1)
        return part == 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise HypothesisViolation(message)


_REGISTRY: dict[str, tuple] = {}


def identity(name: str, doc: str, *bound):
    """Register `fn` under `name` as `partial(fn, *bound)`, with the `Signature` declared on it.

    Stacked decorators with different `bound` arguments register one helper
    for several families.  A bound argument is positional, so a caller's
    parameters cannot override it.
    """

    def wrap(fn):
        _REGISTRY[name] = (partial(fn, *bound), doc, fn.signature)
        return fn

    return wrap


def registry_ids() -> list[str]:
    return sorted(_REGISTRY)


def registry_doc(name: str) -> str:
    return _REGISTRY[name][1]


def verify(identity_id: str, params: dict | None = None, perturb_index: int | None = None, **kw) -> Report:
    """Run one registry identity, after checking its parameters by its `Signature`, and return its report.

    `perturb_index` adds +1 to the left side of the chosen compared instance
    before reduction; it exists for negative-control self-tests.  An index
    that is not an int, a bool included, raises UsageError before the identity
    runs.  So does one that names no instance: it plants no fault, and the
    report would be the unperturbed verdict.
    """
    if identity_id not in _REGISTRY:
        raise UsageError(f"unknown identity {identity_id!r}; known: {', '.join(registry_ids())}")
    if perturb_index is not None:
        if not isinstance(perturb_index, int) or isinstance(perturb_index, bool):
            raise UsageError(f"perturb index must be an int, not {perturb_index!r}")
        if perturb_index < 0:
            raise UsageError(f"perturb index {perturb_index} must be >= 0")
    merged = dict(params or {})
    merged.update(kw)
    run, _, signature = _REGISTRY[identity_id]
    signature.check(identity_id, merged)
    checker = _Checker(perturb_index)
    run(checker, **merged)
    if perturb_index is not None and perturb_index >= checker._count:
        count = checker._count
        raise UsageError(f"perturb index {perturb_index} plants no fault: {identity_id} compared {count} instance(s)")
    verdict = "pass" if checker.ok else "fail"
    report = Report(identity_id, merged, verdict, checker.witnesses)
    if verdict == "fail" and not report.mismatches():
        raise AssertionError("fail verdict must carry a mismatching witness")
    return report


# Family -> its symbol in witness labels
_FAMILIES = {Family.POLY_B: "B", Family.POLY_C: "C", Family.COSECANT: "D", Family.COTANGENT: "beta"}


# ------------------------------------------------------- classical congruences


@identity("KUMMER_BERNOULLI", "(1-p^{m-1})B_m/m = (1-p^{n-1})B_n/n mod p^N for m = n mod phi(p^N), (p-1) not | n")
@Signature("a Kummer congruence", p=ODD_PRIME, N=EXPONENT, m=order(1), n=order(1))
def _kummer_bernoulli(check, p: int, N: int, m: int, n: int):
    _require((m - n) % _phi(p, N) == 0, "m = n mod phi(p^N) required")
    _require(n % (p - 1) != 0, "(p-1) must not divide n")
    lhs = (1 - Fraction(p) ** (m - 1)) * bernoulli(m) / m
    rhs = (1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n
    check.eq_mod(f"(1-p^(m-1))B_{m}/{m} vs (1-p^(n-1))B_{n}/{n}", lhs, rhs, p, N)


def _residue_pair(family: Family, check, p: int, N: int, k: int, m: int, n: int):
    """One witness X_m^{(-k)} vs X_n^{(-k)} mod p^N."""
    x = _FAMILIES[family]
    check.eq_mod(f"{x}_{m}^(-{k}) vs {x}_{n}^(-{k})", family_value(family, m, -k), family_value(family, n, -k), p, N)


@identity("KUMMER_POLYB_B", "B_m^{(-k)} = B_n^{(-k)} mod p^N for m = n mod phi(p^N), m,n >= N", Family.POLY_B)
@identity("KUMMER_POLYB_C", "C_m^{(-k)} = C_n^{(-k)} mod p^N for m = n mod phi(p^N), m,n >= N", Family.POLY_C)
@Signature("a Kummer congruence", p=ODD_PRIME, N=EXPONENT, k=weight(0), m=order(1), n=order(1))
def _kummer_polyb(family: Family, check, p: int, N: int, k: int, m: int, n: int):
    _require((m - n) % _phi(p, N) == 0, "m = n mod phi(p^N) required")
    _require(min(m, n) >= N, "m, n >= N required")
    _residue_pair(family, check, p, N, k, m, n)


@identity("KUMMER_COSE", "D_{2m}^{(-k)} = D_{2n}^{(-k)} mod p^N for 2m = 2n mod phi(p^N), 2m,2n >= N", Family.COSECANT)
@identity(
    "KUMMER_COTA", "beta_{2m}^{(-k)} = beta_{2n}^{(-k)} mod p^N for 2m = 2n mod phi(p^N), 2m,2n >= N", Family.COTANGENT
)
@Signature("a Kummer congruence", p=ODD_PRIME, N=EXPONENT, k=weight(1), m=order(1, 2), n=order(1, 2))
def _kummer_level2(family: Family, check, p: int, N: int, k: int, m: int, n: int):
    """X_{2m}^{(-k)} = X_{2n}^{(-k)} mod p^N for 2m = 2n mod phi(p^N), 2m, 2n >= N."""
    _require((2 * m - 2 * n) % _phi(p, N) == 0, "2m = 2n mod phi(p^N) required")
    _require(min(2 * m, 2 * n) >= N, "2m, 2n >= N required")
    _residue_pair(family, check, p, N, k, 2 * m, 2 * n)


@identity("KUMMER_COSE_ODD", "D_{2m}^{(-2k+1)} = D_{2n}^{(-2k+1)} mod p^N for 2m = 2n mod phi(p^N), 2m,2n >= N")
@Signature("a Kummer congruence", p=PRIME, N=EXPONENT, k=weight(1), m=order(1, 2), n=order(1, 2))
def _kummer_cose_odd(check, p: int, N: int, k: int, m: int, n: int):
    # k >= 1 exactly when the weight 1 - 2k is at most -1
    _kummer_level2(Family.COSECANT, check, p, N, 2 * k - 1, m, n)


@identity("KUMMER_COSE_REMARK", "weighted Kummer congruence for D^{(1)} and beta^{(1)} via their Bernoulli expressions")
@Signature("a Kummer congruence", p=ODD_PRIME, N=EXPONENT, m=order(1, 2), n=order(1, 2))
def _kummer_cose_remark(check, p: int, N: int, m: int, n: int):
    _require((2 * n) % (p - 1) != 0, "(p-1) must not divide 2n")
    _require((2 * m - 2 * n) % _phi(p, N) == 0, "2m = 2n mod (p-1)p^{N-1} required")
    for family in (Family.COSECANT, Family.COTANGENT):
        x = _FAMILIES[family]
        lhs = (1 - Fraction(p) ** (2 * m - 1)) * family_value(family, 2 * m, 1) / (2 * m)
        rhs = (1 - Fraction(p) ** (2 * n - 1)) * family_value(family, 2 * n, 1) / (2 * n)
        check.eq_mod(f"(1-p^(2m-1)){x}_{2 * m}^(1)/2m vs 2n counterpart", lhs, rhs, p, N)


# --------------------------------------------------------------- sum formulas


def _phi_sum(family: Family, p: int, N: int, n: int, k: int) -> tuple[int, Fraction]:
    """phi(p^N) and sum_{i < phi(p^N)} X_n^{(-k-i)}."""
    phi = _phi(p, N)
    return phi, sum((family_value(family, n, -(k + i)) for i in range(phi)), Fraction(0))


@identity("SUM_POLYB", "sum_{i<phi(p^N)} B_n^{(-k-i)} = 0 mod p^N for n >= N, k >= N")
@Signature("a sum congruence", p=ODD_PRIME, N=SUM_EXPONENT, k=weight(), n=order(1))
def _sum_polyb(check, p: int, N: int, k: int, n: int):
    _require(n >= N, "n >= N required")
    # k >= N as in the companion sum congruences: at k < N the term from
    # block count p-1 survives (e.g. p=3, N=1, k=0, n=2 sums to 5, not 0 mod 3)
    _require(k >= N, "k >= N required")
    phi, total = _phi_sum(Family.POLY_B, p, N, n, k)
    check.eq_mod(f"sum_(i<{phi}) B_{n}^(-{k}-i)", total, 0, p, N)


@identity(
    "SUM_COSE",
    "2^{2n} sum_{i<phi(p^N)} D_{2n}^{(-k-i)} = (-1)^n T_{2n+1} phi(p^N) mod p^N, k >= N",
    Family.COSECANT,
    lambda n: (-1) ** n * tangent("T", 2 * n + 1),
)
@identity(
    "SUM_COTA",
    "2^{2n} sum_{i<phi(p^N)} beta_{2n}^{(-k-i)} = tilde-T_{2n} phi(p^N) mod p^N, k >= N",
    Family.COTANGENT,
    lambda n: tangent("tilde", 2 * n),
)
@Signature("a sum congruence", p=ODD_PRIME, N=SUM_EXPONENT, n=order(0, 2), k=weight(1))
def _sum_level2(family: Family, tangent_weight, check, p: int, N: int, n: int, k: int):
    _require(k >= N, "k >= N required")
    x = _FAMILIES[family]
    phi, total = _phi_sum(family, p, N, 2 * n, k)
    check.eq_mod(
        f"2^{2 * n} sum_(i<{phi}) {x}_{2 * n}^(-{k}-i) vs tangent weight * phi",
        Fraction(2 ** (2 * n)) * total,
        Fraction(tangent_weight(n) * phi),
        p,
        N,
    )
    if N >= 2:
        check.eq_mod(f"sum_(i<{phi}) {x}_{2 * n}^(-{k}-i) mod p^{N - 1}", total, 0, p, N - 1)


@identity("SUM_C", "sum_{i<phi(p^N)} C_n^{(-k-i)} = (-1)^n phi(p^N) mod p^N, k >= N")
@Signature("a sum congruence", p=ODD_PRIME, N=SUM_EXPONENT, n=order(0), k=weight(1))
def _sum_c(check, p: int, N: int, n: int, k: int):
    _require(k >= N, "k >= N required")
    phi, total = _phi_sum(Family.POLY_C, p, N, n, k)
    check.eq_mod(f"sum_(i<{phi}) C_{n}^(-{k}-i)", total, Fraction((-1) ** n * phi), p, N)


# --------------------------------------------------------------- 2-adic orders


@identity("TWO_ORDER_COSE", "D_{2n}^{(-2k)} = 0 mod 2^{2n} for n, k >= 1")
@Signature("a 2-adic congruence", n=order(1, 2), k=weight(1))
def _two_order_cose(check, n: int, k: int):
    check.eq_mod(f"D_{2 * n}^(-{2 * k}) mod 2^{2 * n}", family_value(Family.COSECANT, 2 * n, -2 * k), 0, 2, 2 * n)


@identity("TWO_ORDER_COTA", "beta_{2n}^{(-2k-1)} = 0 mod 2^{2n-1} for n >= 1, k >= 0")
@Signature("a 2-adic congruence", n=order(1, 2), k=weight(0))
def _two_order_cota(check, n: int, k: int):
    check.eq_mod(
        f"beta_{2 * n}^({-2 * k - 1}) mod 2^{2 * n - 1}",
        family_value(Family.COTANGENT, 2 * n, -2 * k - 1),
        0,
        2,
        2 * n - 1,
    )


# --------------------------------------------------------------- period props


# p - 1 is an order index, and the dual restatement's order is k, or 2k for D
@identity("PERIOD_B", "B_{p-1}^{(-k)} = 1 or 2 mod p (2 iff k != 0 and (p-1) | k), with the dual restatement")
@Signature("a period identity", p=PERIOD_PRIME, k=order(0))
def _period_b(check, p: int, k: int):
    want = 2 if (k != 0 and k % (p - 1) == 0) else 1
    check.eq_mod(f"B_{p - 1}^(-{k})", family_value(Family.POLY_B, p - 1, -k), want, p, 1)
    check.eq_mod(f"dual B_{k}^(-{p - 1})", family_value(Family.POLY_B, k, -(p - 1)), want, p, 1)


@identity("PERIOD_C", "C_{p-2}^{(-k-1)} = 0 or 1 mod p (1 iff (p-1) | k), with the dual restatement")
@_period_b.signature
def _period_c(check, p: int, k: int):
    want = 1 if k % (p - 1) == 0 else 0
    check.eq_mod(f"C_{p - 2}^(-{k + 1})", family_value(Family.POLY_C, p - 2, -(k + 1)), want, p, 1)
    check.eq_mod(f"dual C_{k}^(-{p - 1})", family_value(Family.POLY_C, k, -(p - 1)), want, p, 1)


@identity("PERIOD_CPK", "C_{p-1}^{(-k-1)} = 1 mod p, with the dual restatement C_k^{(-p)} = 1")
@_period_b.signature
def _period_cpk(check, p: int, k: int):
    check.eq_mod(f"C_{p - 1}^(-{k + 1})", family_value(Family.POLY_C, p - 1, -(k + 1)), 1, p, 1)
    check.eq_mod(f"dual C_{k}^(-{p})", family_value(Family.POLY_C, k, -p), 1, p, 1)


@identity("PERIOD_COSE_ODD", "D_{p-1}^{(-2k-1)} = 1 mod p, with the dual restatement D_{2k}^{(-p)} = 1")
@Signature("a period identity", p=PERIOD_PRIME, k=order(0, 2))
def _period_cose_odd(check, p: int, k: int):
    check.eq_mod(f"D_{p - 1}^({-2 * k - 1})", family_value(Family.COSECANT, p - 1, -2 * k - 1), 1, p, 1)
    check.eq_mod(f"dual D_{2 * k}^(-{p})", family_value(Family.COSECANT, 2 * k, -p), 1, p, 1)


@identity("PERIOD_COSE_P1", "D_{2n}^{(-p+1)} = 0 mod p unless (p-1) | 2n, then 1")
@Signature("a period identity", p=ODD_PRIME, n=order(0, 2))
def _period_cose_p1(check, p: int, n: int):
    want = 1 if (2 * n) % (p - 1) == 0 else 0
    check.eq_mod(f"D_{2 * n}^(-{p - 1})", family_value(Family.COSECANT, 2 * n, -(p - 1)), want, p, 1)


@identity("PERIOD_COTA_P1", "beta_{2n}^{(-p+1)} = 1 mod p, or 2 when 2n != 0 and (p-1) | 2n")
@_period_cose_p1.signature
def _period_cota_p1(check, p: int, n: int):
    want = 2 if (n != 0 and (2 * n) % (p - 1) == 0) else 1
    check.eq_mod(f"beta_{2 * n}^(-{p - 1})", family_value(Family.COTANGENT, 2 * n, -(p - 1)), want, p, 1)


# ---------------------------------------------------- denominators / valuation


@identity("CVS_BERNOULLI", "B_n + sum of 1/p over primes with (p-1) | n is an integer (n = 1 or even)")
@Signature("a von Staudt-type congruence", n=order(1))
def _cvs_bernoulli(check, n: int):
    _require(n == 1 or n % 2 == 0, "n must be 1 or an even positive integer")
    total = bernoulli(n) + sum(
        (Fraction(1, p) for p in primes_upto(n + 1) if n % (p - 1) == 0), Fraction(0)
    )
    check.eq(f"denominator of B_{n} + sum 1/p", total.denominator, 1)


def _cvs(family: Family, check, p: int, k: int, n: int, coprime_rhs):
    """p^k X_n^{(k)} = -1 mod p if (p-1) | n, else p^{k-1} X_n^{(k)} = coprime_rhs(p, n, k).

    The residue is compared only once the scaled value is shown p-integral.
    """
    x = _FAMILIES[family]
    divides = n % (p - 1) == 0
    e = k if divides else k - 1
    scaled = Fraction(p) ** e * family_value(family, n, k)
    ok = check.p_integral(f"p-part of denominator of p^{e} {x}_{n}^({k})", scaled, p)
    rhs = -1 if divides else coprime_rhs(p, n, k)
    if ok:
        check.eq_mod(f"p^{e} {x}_{n}^({k})", scaled, rhs, p, 1)


def _cvs_polyb_rhs(p: int, n: int, k: int) -> Fraction:
    if n % (p - 1) == 1:
        return Fraction(stirling2(n, p - 1), p) - Fraction(n, 2**k)
    return Fraction((-1) ** (n - 1) * stirling2(n, p - 1), p)


@identity("CVS_POLYB", "residues of p^k B_n^{(k)} or p^{k-1} B_n^{(k)} mod p, per the (p-1) | n split")
@Signature("a von Staudt-type congruence", p=PRIME, k=weight(2), n=order(1))
def _cvs_polyb(check, p: int, k: int, n: int):
    _require(k + 2 <= p <= n + 1, "k+2 <= p <= n+1 required")
    _cvs(Family.POLY_B, check, p, k, n, _cvs_polyb_rhs)


def _cvs_cose_rhs(p: int, n2: int, k: int) -> Fraction:
    """Right-hand side of the (p-1)-coprime branch for D, shared by beta."""
    alpha = n2 % (p - 1)
    rhs = -Fraction(stirling2(n2, p - 1), p)
    inner = sum(
        (
            Fraction((-1) ** j * factorial(j), 2 ** (j + 1)) * stirling2(alpha, j + 1)
            for j in range(alpha)
        ),
        Fraction(0),
    )
    l = p
    while l <= n2:
        rhs += comb(n2 + 1, l) * inner
        l += p - 1
    return rhs


def _cvs_cota_rhs(p: int, n2: int, k: int) -> Fraction:
    """D's right-hand side plus a correction specific to beta.

    The correction comes from the extra S(2n, j+2)-bearing half of the
    explicit cotangent formula: terms with 2i+1 = p survive the p^{k-1}
    scaling, giving sum_{j >= p-1} (-1)^j (j+2)!/(p 2^{j+1}) S(2n, j+2)
    C(j+1, p); factorials with j+2 >= 2p contribute 0 mod p, so the sum stops
    at min(2n-2, 2p-3).
    """
    rhs = _cvs_cose_rhs(p, n2, k)
    for j in range(p - 1, min(n2 - 2, 2 * p - 3) + 1):
        rhs += (
            Fraction((-1) ** j, 2 ** (j + 1))
            * Fraction(factorial(j + 2), p)
            * stirling2(n2, j + 2)
            * comb(j + 1, p)
        )
    return rhs


@identity(
    "CVS_COSE",
    "residues of p^k D_{2n}^{(k)} or p^{k-1} D_{2n}^{(k)} mod p, per the (p-1) | 2n split",
    Family.COSECANT,
    _cvs_cose_rhs,
)
@identity(
    "CVS_COTA",
    "residues of p^k beta_{2n}^{(k)} or p^{k-1} beta_{2n}^{(k)} mod p, per the (p-1) | 2n split",
    Family.COTANGENT,
    _cvs_cota_rhs,
)
@Signature("a von Staudt-type congruence", p=ODD_PRIME, k=weight(2), n=order(1, 2))
def _cvs_level2(family: Family, coprime_rhs, check, p: int, k: int, n: int):
    _require(k + 2 <= p <= 2 * n + 1, "k+2 <= p <= 2n+1 required")
    _cvs(family, check, p, k, 2 * n, coprime_rhs)


@identity("DENOM_ORDER", "the denominators of B_{2n}, D_{2n}^{(1)}, beta_{2n}^{(1)} share their p-adic order")
@Signature("a denominator order", p=ODD_PRIME, n=order(1, 2))
def _denom_order(check, p: int, n: int):
    rep = valuation_report(p, n)
    check.eq(f"ord_{p}(d({rep.index})) vs ord_{p}(b({rep.index}))", rep.ord_d, rep.ord_b)
    check.eq(f"ord_{p}(beta_hat({rep.index})) vs ord_{p}(b({rep.index}))", rep.ord_beta_hat, rep.ord_b)


def valuation_report(p: int, n: int) -> ValuationReport:
    """Denominator orders and branch data for the even index 2n at odd prime p, checked as DENOM_ORDER's are."""
    _denom_order.signature.check("valuation_report", {"p": p, "n": n})
    n2 = 2 * n
    b = bernoulli(n2).denominator
    d = family_value(Family.COSECANT, n2, 1).denominator
    bh = family_value(Family.COTANGENT, n2, 1).denominator
    branch = "(p-1) | 2n" if n2 % (p - 1) == 0 else "(p-1) does not divide 2n"
    return ValuationReport(
        p=p,
        index=n2,
        b=b,
        d=d,
        beta_hat=bh,
        ord_b=ord_p(b, p),
        ord_d=ord_p(d, p),
        ord_beta_hat=ord_p(bh, p),
        alpha=n2 % (p - 1),
        gamma=min(n2, 2 * p - 3),
        branch=branch,
    )


# ------------------------------------------------------------------- dualities


def _swaps(check, lmax: int, label, values) -> None:
    """One witness values[m][l] vs values[l][m] for each l < m <= lmax, values[m] listing order m at l = 0..lmax."""
    for m in range(lmax + 1):
        for l in range(m):
            check.eq(label(m, l), values[m][l], values[l][m])


@identity("DUALITY_B", "B_m^{(-l)} = B_l^{(-m)} for all l < m <= lmax", Family.POLY_B, 1, 0)
@identity("DUALITY_C", "C_m^{(-l-1)} = C_l^{(-m-1)} for all l < m <= lmax", Family.POLY_C, 1, 1)
@identity("DUALITY_COSE", "D_{2m}^{(-2l-1)} = D_{2l}^{(-2m-1)} for all l < m <= lmax", Family.COSECANT, 2, 1)
@identity("DUALITY_COTA", "beta_{2m}^{(-2l)} = beta_{2l}^{(-2m)} for all l < m <= lmax", Family.COTANGENT, 2, 0)
@Signature("a duality sweep", lmax=Role("duality", 0))
def _duality(family: Family, s: int, shift: int, check, lmax: int):
    """X_{sm}^{(-(sl + shift))} = X_{sl}^{(-(sm + shift))} for l < m <= lmax, each order's row read once.

    The row is read at every weight 0..-(s lmax + shift), in steps of one, and
    sliced [shift::s] to the sweep's weights.  They start at 0, so the default
    route of D and beta is the `explicit` row: `stirling_negk` needs weight <= -1.
    """
    x = _FAMILIES[family]
    weights = range(0, -(s * lmax + shift) - 1, -1)
    values = [family_row(family, s * m, weights)[shift::s] for m in range(lmax + 1)]
    # B and C write the weight as -(l + shift), "-0" included; D and beta write it signed
    text = (lambda l: f"-{l + shift}") if s == 1 else (lambda l: str(-(s * l + shift)))
    _swaps(check, lmax, lambda m, l: f"{x}_{s * m}^({text(l)}) vs {x}_{s * l}^({text(m)})", values)


@identity(
    "DUALITY_SYM_B",
    "symmetrized poly-Bernoulli duality at every level n <= nmax (definition route)",
    lambda m, l, n: f"sym-B(m={m}, l={l}, n={n})",
    _bernoulli_polynomial_row,
    1,
)
@identity(
    "DUALITY_SYM_COSE",
    "symmetrized polycosecant duality at every level n <= nmax (definition route)",
    lambda m, l, n: f"sym-D(2m={2 * m}, 2l={2 * l}, n={n})",
    _hat_row,
    2,
)
@Signature("a duality sweep", lmax=Role("sym duality", 0), nmax=Role("sym duality", 0))
def _duality_sym(label, base, s: int, check, lmax: int, nmax: int):
    """Each (sm, n) `_definition_row` of `base` read once, at weights 0..-s lmax sliced [::s], as in `_duality`."""
    weights = range(0, -s * lmax - 1, -1)
    for n in range(nmax + 1):
        values = [_evaluate_row(_definition_row(base, s * m, n), weights)[::s] for m in range(lmax + 1)]
        _swaps(check, lmax, lambda m, l: f"{label(m, l, n)} vs swapped", values)


# ------------------------------------------------- first-kind-Stirling sweeps


def _vanishing_sum(family: Family, check, k: int, n: int, m: int):
    """sum_j (-1)^j s(m+1, j+1) X_n^{(-k-j)} = 0, with every term in the witness."""
    x = _FAMILIES[family]
    terms = [(-1) ** j * stirling1(m + 1, j + 1) * family_value(family, n, -(k + j)) for j in range(m + 1)]
    label = f"sum_j (-1)^j s({m + 1},j+1) {x}_{n}^(-k-j) at k={k}"
    rendered = ", ".join(_render(label, t) for t in terms)
    check.eq(f"{label}; terms: {rendered}", sum(terms, Fraction(0)), 0)


@identity("VANISH_S1_B", "sum_j (-1)^j s(m+1,j+1) B_n^{(-k-j)} = 0 for 0 <= n < m")
@Signature("a vanishing sum", k=weight(), n=order(0), m=order(1))
def _vanish_b(check, k: int, n: int, m: int):
    _require(n < m, "0 <= n <= m-1 required (the sum does not vanish at n = m)")
    _vanishing_sum(Family.POLY_B, check, k, n, m)


@identity("VANISH_S1_COSE", "sum_j (-1)^j s(m+1,j+1) D_{2n}^{(-k-j)} = 0 for m >= 2n+1", Family.COSECANT)
@identity("VANISH_S1_COTA", "sum_j (-1)^j s(m+1,j+1) beta_{2n}^{(-k-j)} = 0 for m >= 2n+1", Family.COTANGENT)
@Signature("a vanishing sum", k=weight(), n=order(1, 2), m=order(None))
def _vanish_level2(family: Family, check, k: int, n: int, m: int):
    _require(m >= 2 * n + 1, "m >= 2n+1 required (the sum does not vanish at m = 2n)")
    _vanishing_sum(family, check, k, 2 * n, m)


# ------------------------------------------------------ conversions and shifts


# each conversion sum builds every row up to its order, 2n or n
@identity("CONV_EQ5", "beta_{2n}^{(k)} = sum_i C(2n,2i) D_{2i}^{(k)}")
@Signature("a conversion", n=Role("conversion", 0, 2), k=weight())
def _conv_eq5(check, n: int, k: int):
    check.eq(
        f"beta_{2 * n}^({k}) vs binomial sum over D",
        family_value(Family.COTANGENT, 2 * n, k),
        family_value_by_method(Family.COTANGENT, 2 * n, k, "from_cosecant"),
    )


@identity("CONV_EQ6", "D_{2n}^{(k)} = sum_i C(2n,2i) E_{2n-2i} beta_{2i}^{(k)}")
@_conv_eq5.signature
def _conv_eq6(check, n: int, k: int):
    check.eq(
        f"D_{2 * n}^({k}) vs Euler-weighted sum over beta",
        family_value(Family.COSECANT, 2 * n, k),
        cosecant_from_cotangent(2 * n, k),
    )


@identity("KSHIFT", "D_n^{(k-1)} = sum_m C(n+1,2m+1) D_{n-2m}^{(k)}")
@Signature("a conversion", n=Role("conversion", 0), k=weight())
def _kshift(check, n: int, k: int):
    check.eq(
        f"D_{n}^({k - 1}) vs weight-shift sum at weight {k}",
        family_value(Family.COSECANT, n, k - 1),
        k_shift_recurrence(n, k),
    )


# ------------------------------------------------- generating-function sweeps


def _pairs(row, count: int) -> list[tuple[int, int]]:
    """The row's values at the weights 0, -1, ..., -count, as unreduced (numerator, denominator) pairs."""
    return _evaluate_row(row, range(0, -count - 1, -1), lambda *pair: pair)


def _coefficients(check, f, label, values) -> None:
    """One witness per cell: f's weighted coefficient, its numerator times i! j!, vs the pair values[i][j]."""
    columns = [factorial(j) for j in range(len(f._grid[0]))]
    for i, (row, pairs) in enumerate(zip(f._grid, values)):
        scale = factorial(i)
        for j, (x, pair) in enumerate(zip(row, pairs)):
            check.eq_pairs(label(i, j), (x * scale * columns[j], f._den), pair)


@identity("GF_BIVARIATE", "the two-variable cosecant function reproduces D_n^{(-k)} for n <= nmax, k <= kmax")
@Signature("a generating-function sweep", nmax=Role("gf order", 0), kmax=Role("gf order", 0))
def _gf_bivariate(check, nmax: int, kmax: int):
    # each order's row is read once, by D's default route: its `explicit` row
    values = [_pairs(_route_row(Family.COSECANT, n, "explicit"), kmax) for n in range(nmax + 1)]
    gf = cosecant_bivariate((nmax, kmax))
    _coefficients(check, gf, lambda n, k: f"[t^{n} y^{k}] weighted vs D_{n}^(-{k})", values)


@identity(
    "GF_SYM_B",
    "the two-variable symmetrized function reproduces the closed form for l, m <= lmax",
    lambda n, orders: sym_bernoulli_bivariate(n, orders),
    lambda l, m, n: f"[x^{l} y^{m}] weighted vs sym-B(m={m}, l={l}, n={n})",
    # witness (l, m) is the closed form at order m and weight -l: one row per m, transposed
    lambda n, lmax: list(zip(*[_pairs(_sym_row(m, n, dyadic=False), lmax) for m in range(lmax + 1)])),
)
@identity(
    "GF_SYM_COSE",
    "the two-part bivariate function reproduces the symmetrized polycosecant numbers for m, l <= lmax",
    lambda n, orders: sym_cosecant_bivariate(n, orders),
    lambda m, l, n: f"[t^{m} y^{l}] weighted vs sym-D(m={m}, l={l}, n={n})",
    # one definition row per even m; sym-D is zero at odd m, the empty row's value
    lambda n, lmax: [
        _pairs(_definition_row(_hat_row, m, n) if m % 2 == 0 else (1, (), ()), lmax) for m in range(lmax + 1)
    ],
)
@Signature("a generating-function sweep", n=Role("gf level", 0), lmax=Role("gf order", 0))
def _gf_sym(bivariate, label, values, check, n: int, lmax: int):
    _coefficients(check, bivariate(n, (lmax, lmax)), lambda i, j: label(i, j, n), values(n, lmax))


# ------------------------------------------------------------ Stirling lemmas


@identity("STIRLING_MOD_P", "S(n, ap-1) mod p is C(c-1,a-1) when n = a-1+c(p-1), c >= a, else 0")
@Signature("a Stirling lemma", p=PRIME, a=Role(minimum=1), nmax=order(0))
def _stirling_mod_p(check, p: int, a: int, nmax: int):
    for n in range(nmax + 1):
        want = 0
        if (n - a + 1) % (p - 1) == 0:
            c = (n - a + 1) // (p - 1)
            if c >= a:
                want = comb(c - 1, a - 1)
        check.eq_mod(f"S({n}, {a * p - 1})", stirling2(n, a * p - 1), want, p, 1)


@identity("STIRLING_CONG", "j! S(n,j) = j! S(m,j) mod p^N for n = m mod phi(p^N), n, m >= N")
@Signature("a Stirling lemma", p=PRIME, N=EXPONENT, jmax=Role("stirling", 0), nmax=Role("stirling", 0))
def _stirling_cong(check, p: int, N: int, jmax: int, nmax: int):
    phi = _phi(p, N)
    for n in range(N, nmax + 1):
        for m in range(n + phi, nmax + 1, phi):
            for j in range(jmax + 1):
                check.eq_mod(
                    f"{j}! S({n},{j}) vs {j}! S({m},{j})",
                    factorial(j) * stirling2(n, j),
                    factorial(j) * stirling2(m, j),
                    p,
                    N,
                )


# -------------------------------------------------------- oracle-diff utility


def oracle_diff(family: Family | str, n_max: int, k_min: int, k_max: int) -> Report:
    """Compare every applicable closed-form method against series extraction.

    A cell (n, k) is compared where the series domain holds and at least one
    other method's domain holds; those methods' domains are read from
    `ROUTES` once per call and taken in order of name.  The series row of
    each order is read once, through `_route_row`, and evaluated at every
    compared weight of that order as integer pairs, each written once as
    text by `_cell`, with no `Fraction`.  A method whose row at n is that
    row, as a tuple in lowest terms, agrees with the series at every weight,
    so its witness writes that text on both sides.  Any other method, and
    the rowless cell route, is read through `family_value_by_method` and
    compared by text: exact, as both sides are in lowest terms.

    Witnesses are built here, not through `_Checker`: nothing is perturbed,
    and every value compared comes from the evaluator, so there is no float
    or other inexact type to refuse.
    """
    family = Family(family)
    for name, bound in (("n_max", n_max), ("k_min", k_min), ("k_max", k_max)):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise UsageError(f"bad oracle sweep: {name} must be an int, not {bound!r}")
    if n_max < 0 or k_min > k_max:
        raise UsageError(f"empty oracle sweep: n up to {n_max}, k in {k_min}..{k_max}")
    routes = ROUTES[family]
    series_holds = routes["series"][1][1]
    others = sorted((name, holds) for name, (_, (_, holds), _) in routes.items() if name != "series")
    label = family.value
    witnesses: list[Witness] = []
    ok = True
    for n in range(n_max + 1):
        ks, cells = [], []
        for k in range(k_min, k_max + 1):
            if series_holds(n, k):
                methods = [name for name, holds in others if holds(n, k)]
                if methods:
                    ks.append(k)
                    cells.append(methods)
        if not cells:
            continue
        series_row = _route_row(family, n, "series")
        pairs = _evaluate_row(series_row, ks, lambda *pair: pair)
        same_row: dict[str, bool] = {}
        for k, methods, pair in zip(ks, cells, pairs):
            cell = f"{label}(n={n}, k={k})"
            try:
                text = _cell(*pair)
            except ValueError:
                raise _digit_limit(f"{cell} {methods[0]} vs series") from None
            for name in methods:
                instance = f"{cell} {name} vs series"
                if name not in same_row:
                    same_row[name] = _route_row(family, n, name) == series_row
                if same_row[name]:
                    witnesses.append(Witness(instance, text, text))
                    continue
                value = _render(instance, family_value_by_method(family, n, k, name))
                witnesses.append(Witness(instance, value, text))
                ok = ok and value == text
    params = {"family": label, "n_max": n_max, "k_min": k_min, "k_max": k_max}
    if not witnesses:
        params["note"] = "single method"
    return Report("ORACLE_DIFF", params, "pass" if ok else "fail", witnesses)
