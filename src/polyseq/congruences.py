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
and values come from one table, `_FAMILIES`: Family -> (symbol, value).
"""

from __future__ import annotations

import inspect
import json
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, gcd

from .errors import HypothesisViolation, NotPIntegral, UsageError, ZeroValuation
from .families import (
    Family,
    _evaluate_row,
    _route_row,
    applicable_methods,
    cosecant_bivariate,
    cosecant_from_cotangent,
    family_value_by_method,
    k_shift_recurrence,
    poly_bernoulli,
    polycosecant,
    polycotangent,
)
from .sequences import bernoulli, is_prime, primes_upto, stirling1, stirling2, tangent, totient
from .series import _exact
from .symmetrized import (
    sym_bernoulli_bivariate,
    sym_cosecant_bivariate,
    sym_poly_bernoulli,
    sym_polycosecant,
)

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


@dataclass(frozen=True)
class Residue:
    value: int
    modulus: int

    def __post_init__(self):
        if not 0 <= self.value < self.modulus:
            raise ValueError("residue out of range")

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


# ------------------------------------------------------------------- reporting


@dataclass(frozen=True)
class Witness:
    instance: str
    lhs: str
    rhs: str
    modulus: int | None = None

    def to_dict(self) -> dict:
        d = {"instance": self.instance, "lhs": self.lhs, "rhs": self.rhs}
        if self.modulus is not None:
            d["modulus"] = self.modulus
        return d


@dataclass
class Report:
    identity: str
    params: dict
    verdict: str
    witnesses: list[Witness] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def mismatches(self) -> list[Witness]:
        return [w for w in self.witnesses if w.lhs != w.rhs]

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "verdict": self.verdict,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


@dataclass(frozen=True)
class ValuationReport:
    """Denominator data of B_{2n}, D_{2n}^{(1)}, beta_{2n}^{(1)} at one odd prime."""

    p: int
    index: int  # the even order 2n
    b: int
    d: int
    beta_hat: int
    ord_b: int
    ord_d: int
    ord_beta_hat: int
    alpha: int  # 2n mod (p-1)
    gamma: int  # min(2n, 2p-3)
    branch: str

    def to_dict(self) -> dict:
        return {**asdict(self), "b": str(self.b), "d": str(self.d), "beta_hat": str(self.beta_hat)}


def _render(instance: str, value) -> str:
    """str(value) for a witness; a value past Python's digit limit is bad usage, not a counterexample."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise UsageError(
            f"{instance}: a value has more than {limit} digits, Python's limit for integer string conversion"
        ) from None


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

    def eq_mod(self, instance: str, lhs, rhs, p: int, N: int) -> None:
        lhs = self._bump(_exact(lhs, "a witness's lhs"))
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


def _odd_prime(p: int) -> None:
    _require(is_prime(p) and p % 2 == 1, f"p = {p} must be an odd prime")


_REGISTRY: dict[str, tuple] = {}
_signature = lru_cache(maxsize=None)(inspect.signature)


def identity(name: str, doc: str, *bound):
    """Register `fn` under `name` as `partial(fn, *bound)`.

    Stacked decorators with different `bound` arguments register one helper
    for several families.  A bound argument is positional, so a caller's
    parameters cannot override it.
    """

    def wrap(fn):
        _REGISTRY[name] = (partial(fn, *bound), doc)
        return fn

    return wrap


def registry_ids() -> list[str]:
    return sorted(_REGISTRY)


def registry_doc(name: str) -> str:
    return _REGISTRY[name][1]


def verify(identity_id: str, params: dict | None = None, perturb_index: int | None = None, **kw) -> Report:
    """Run one registry identity and return its report.

    `perturb_index` adds +1 to the left side of the chosen compared instance
    before reduction; it exists for negative-control self-tests.  An index
    that names no instance plants no fault, so it raises UsageError instead
    of reporting the unperturbed verdict.
    """
    if identity_id not in _REGISTRY:
        raise UsageError(f"unknown identity {identity_id!r}; known: {', '.join(registry_ids())}")
    if perturb_index is not None and perturb_index < 0:
        raise UsageError(f"perturb index {perturb_index} must be >= 0")
    merged = dict(params or {})
    merged.update(kw)
    checker = _Checker(perturb_index)
    fn = _REGISTRY[identity_id][0]
    try:
        _signature(fn).bind(checker, **merged)
    except TypeError as exc:
        raise UsageError(f"bad parameters for {identity_id}: {exc}") from exc
    for name, value in merged.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError(f"bad parameters for {identity_id}: {name} must be an int, not {value!r}")
    fn(checker, **merged)
    if perturb_index is not None and perturb_index >= checker._count:
        count = checker._count
        raise UsageError(f"perturb index {perturb_index} plants no fault: {identity_id} compared {count} instance(s)")
    verdict = "pass" if checker.ok else "fail"
    report = Report(identity_id, merged, verdict, checker.witnesses)
    if verdict == "fail" and not report.mismatches():
        raise AssertionError("fail verdict must carry a mismatching witness")
    return report


# Family -> (symbol in witness labels, value at (n, k)).  A value looks its
# family function up by name when called, so a wrapper later installed on
# that name (bench/tracer.py installs one) sees the call.
_FAMILIES = {
    Family.POLY_B: ("B", lambda n, k, **kw: poly_bernoulli("B", n, k, **kw)),
    Family.POLY_C: ("C", lambda n, k, **kw: poly_bernoulli("C", n, k, **kw)),
    Family.COSECANT: ("D", lambda n, k, **kw: polycosecant(n, k, **kw)),
    Family.COTANGENT: ("beta", lambda n, k, **kw: polycotangent(n, k, **kw)),
}


# ------------------------------------------------------- classical congruences


@identity("KUMMER_BERNOULLI", "(1-p^{m-1})B_m/m = (1-p^{n-1})B_n/n mod p^N for m = n mod phi(p^N), (p-1) not | n")
def _kummer_bernoulli(check, p: int, N: int, m: int, n: int):
    _odd_prime(p)
    _require(min(m, n, N) >= 1, "m, n, N must be >= 1")
    _require((m - n) % totient(p**N) == 0, "m = n mod phi(p^N) required")
    _require(n % (p - 1) != 0, "(p-1) must not divide n")
    lhs = (1 - Fraction(p) ** (m - 1)) * bernoulli(m) / m
    rhs = (1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n
    check.eq_mod(f"(1-p^(m-1))B_{m}/{m} vs (1-p^(n-1))B_{n}/{n}", lhs, rhs, p, N)


def _residue_pair(family: Family, check, p: int, N: int, k: int, m: int, n: int):
    """One witness X_m^{(-k)} vs X_n^{(-k)} mod p^N."""
    x, value = _FAMILIES[family]
    check.eq_mod(f"{x}_{m}^(-{k}) vs {x}_{n}^(-{k})", value(m, -k), value(n, -k), p, N)


@identity("KUMMER_POLYB_B", "B_m^{(-k)} = B_n^{(-k)} mod p^N for m = n mod phi(p^N), m,n >= N", Family.POLY_B)
@identity("KUMMER_POLYB_C", "C_m^{(-k)} = C_n^{(-k)} mod p^N for m = n mod phi(p^N), m,n >= N", Family.POLY_C)
def _kummer_polyb(family: Family, check, p: int, N: int, k: int, m: int, n: int):
    _odd_prime(p)
    _require(k >= 0, "weight parameter k must be >= 0")
    _require(min(m, n, N) >= 1, "m, n, N must be >= 1")
    _require((m - n) % totient(p**N) == 0, "m = n mod phi(p^N) required")
    _require(min(m, n) >= N, "m, n >= N required")
    _residue_pair(family, check, p, N, k, m, n)


def _kummer_even_orders(family: Family, check, p: int, N: int, k: int, m: int, n: int):
    """X_{2m}^{(-k)} = X_{2n}^{(-k)} mod p^N for 2m = 2n mod phi(p^N), 2m, 2n >= N."""
    _require(min(k, m, n, N) >= 1, "k, m, n, N must be >= 1")
    _require((2 * m - 2 * n) % totient(p**N) == 0, "2m = 2n mod phi(p^N) required")
    _require(min(2 * m, 2 * n) >= N, "2m, 2n >= N required")
    _residue_pair(family, check, p, N, k, 2 * m, 2 * n)


@identity("KUMMER_COSE_ODD", "D_{2m}^{(-2k+1)} = D_{2n}^{(-2k+1)} mod p^N for 2m = 2n mod phi(p^N), 2m,2n >= N")
def _kummer_cose_odd(check, p: int, N: int, k: int, m: int, n: int):
    _require(is_prime(p), f"p = {p} must be prime")
    # k >= 1 exactly when the weight 1 - 2k is at most -1
    _kummer_even_orders(Family.COSECANT, check, p, N, 2 * k - 1, m, n)


@identity("KUMMER_COSE", "D_{2m}^{(-k)} = D_{2n}^{(-k)} mod p^N for 2m = 2n mod phi(p^N), 2m,2n >= N", Family.COSECANT)
@identity(
    "KUMMER_COTA", "beta_{2m}^{(-k)} = beta_{2n}^{(-k)} mod p^N for 2m = 2n mod phi(p^N), 2m,2n >= N", Family.COTANGENT
)
def _kummer_level2(family: Family, check, p: int, N: int, k: int, m: int, n: int):
    _odd_prime(p)
    _kummer_even_orders(family, check, p, N, k, m, n)


@identity("KUMMER_COSE_REMARK", "weighted Kummer congruence for D^{(1)} and beta^{(1)} via their Bernoulli expressions")
def _kummer_cose_remark(check, p: int, N: int, m: int, n: int):
    _odd_prime(p)
    _require(min(m, n) >= 1 and N >= 1, "m, n, N must be >= 1")
    _require((2 * n) % (p - 1) != 0, "(p-1) must not divide 2n")
    _require((2 * m - 2 * n) % ((p - 1) * p ** (N - 1)) == 0, "2m = 2n mod (p-1)p^{N-1} required")
    for family in (Family.COSECANT, Family.COTANGENT):
        x, value = _FAMILIES[family]
        lhs = (1 - Fraction(p) ** (2 * m - 1)) * value(2 * m, 1) / (2 * m)
        rhs = (1 - Fraction(p) ** (2 * n - 1)) * value(2 * n, 1) / (2 * n)
        check.eq_mod(f"(1-p^(2m-1)){x}_{2 * m}^(1)/2m vs 2n counterpart", lhs, rhs, p, N)


# --------------------------------------------------------------- sum formulas


def _phi_sum(family: Family, p: int, N: int, n: int, k: int) -> tuple[int, Fraction]:
    """phi(p^N) and sum_{i < phi(p^N)} X_n^{(-k-i)}."""
    phi = totient(p**N)
    value = _FAMILIES[family][1]
    return phi, sum((value(n, -(k + i)) for i in range(phi)), Fraction(0))


def _sum_hypotheses(p: int, N: int, n: int, k: int) -> None:
    _odd_prime(p)
    _require(n >= 0, "n must be >= 0")
    _require(k >= 1 and N >= 1, "k, N must be >= 1")
    _require(k >= N, "k >= N required")


@identity("SUM_POLYB", "sum_{i<phi(p^N)} B_n^{(-k-i)} = 0 mod p^N for n >= N, k >= N")
def _sum_polyb(check, p: int, N: int, k: int, n: int):
    _odd_prime(p)
    _require(n >= 1 and N >= 1, "n, N must be >= 1")
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
def _sum_level2(family: Family, tangent_weight, check, p: int, N: int, n: int, k: int):
    _sum_hypotheses(p, N, n, k)
    x = _FAMILIES[family][0]
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
def _sum_c(check, p: int, N: int, n: int, k: int):
    _sum_hypotheses(p, N, n, k)
    phi, total = _phi_sum(Family.POLY_C, p, N, n, k)
    check.eq_mod(f"sum_(i<{phi}) C_{n}^(-{k}-i)", total, Fraction((-1) ** n * phi), p, N)


# --------------------------------------------------------------- 2-adic orders


@identity("TWO_ORDER_COSE", "D_{2n}^{(-2k)} = 0 mod 2^{2n} for n, k >= 1")
def _two_order_cose(check, n: int, k: int):
    _require(n >= 1 and k >= 1, "n, k must be >= 1")
    check.eq_mod(f"D_{2 * n}^(-{2 * k}) mod 2^{2 * n}", polycosecant(2 * n, -2 * k), 0, 2, 2 * n)


@identity("TWO_ORDER_COTA", "beta_{2n}^{(-2k-1)} = 0 mod 2^{2n-1} for n >= 1, k >= 0")
def _two_order_cota(check, n: int, k: int):
    _require(n >= 1 and k >= 0, "n must be >= 1, k >= 0")
    check.eq_mod(
        f"beta_{2 * n}^({-2 * k - 1}) mod 2^{2 * n - 1}",
        polycotangent(2 * n, -2 * k - 1),
        0,
        2,
        2 * n - 1,
    )


# --------------------------------------------------------------- period props


@identity("PERIOD_B", "B_{p-1}^{(-k)} = 1 or 2 mod p (2 iff k != 0 and (p-1) | k), with the dual restatement")
def _period_b(check, p: int, k: int):
    _odd_prime(p)
    _require(k >= 0, "weight parameter k must be >= 0")
    want = 2 if (k != 0 and k % (p - 1) == 0) else 1
    check.eq_mod(f"B_{p - 1}^(-{k})", poly_bernoulli("B", p - 1, -k), want, p, 1)
    check.eq_mod(f"dual B_{k}^(-{p - 1})", poly_bernoulli("B", k, -(p - 1)), want, p, 1)


@identity("PERIOD_C", "C_{p-2}^{(-k-1)} = 0 or 1 mod p (1 iff (p-1) | k), with the dual restatement")
def _period_c(check, p: int, k: int):
    _odd_prime(p)
    _require(k >= 0, "weight parameter k must be >= 0")
    want = 1 if k % (p - 1) == 0 else 0
    check.eq_mod(f"C_{p - 2}^(-{k + 1})", poly_bernoulli("C", p - 2, -(k + 1)), want, p, 1)
    check.eq_mod(f"dual C_{k}^(-{p - 1})", poly_bernoulli("C", k, -(p - 1)), want, p, 1)


@identity("PERIOD_CPK", "C_{p-1}^{(-k-1)} = 1 mod p, with the dual restatement C_k^{(-p)} = 1")
def _period_cpk(check, p: int, k: int):
    _odd_prime(p)
    _require(k >= 0, "weight parameter k must be >= 0")
    check.eq_mod(f"C_{p - 1}^(-{k + 1})", poly_bernoulli("C", p - 1, -(k + 1)), 1, p, 1)
    check.eq_mod(f"dual C_{k}^(-{p})", poly_bernoulli("C", k, -p), 1, p, 1)


@identity("PERIOD_COSE_ODD", "D_{p-1}^{(-2k-1)} = 1 mod p, with the dual restatement D_{2k}^{(-p)} = 1")
def _period_cose_odd(check, p: int, k: int):
    _odd_prime(p)
    _require(k >= 0, "weight parameter k must be >= 0")
    check.eq_mod(f"D_{p - 1}^({-2 * k - 1})", polycosecant(p - 1, -2 * k - 1), 1, p, 1)
    check.eq_mod(f"dual D_{2 * k}^(-{p})", polycosecant(2 * k, -p), 1, p, 1)


@identity("PERIOD_COSE_P1", "D_{2n}^{(-p+1)} = 0 mod p unless (p-1) | 2n, then 1")
def _period_cose_p1(check, p: int, n: int):
    _odd_prime(p)
    _require(n >= 0, "n must be >= 0")
    want = 1 if (2 * n) % (p - 1) == 0 else 0
    check.eq_mod(f"D_{2 * n}^(-{p - 1})", polycosecant(2 * n, -(p - 1)), want, p, 1)


@identity("PERIOD_COTA_P1", "beta_{2n}^{(-p+1)} = 1 mod p, or 2 when 2n != 0 and (p-1) | 2n")
def _period_cota_p1(check, p: int, n: int):
    _odd_prime(p)
    _require(n >= 0, "n must be >= 0")
    want = 2 if (n != 0 and (2 * n) % (p - 1) == 0) else 1
    check.eq_mod(f"beta_{2 * n}^(-{p - 1})", polycotangent(2 * n, -(p - 1)), want, p, 1)


# ---------------------------------------------------- denominators / valuation


@identity("CVS_BERNOULLI", "B_n + sum of 1/p over primes with (p-1) | n is an integer (n = 1 or even)")
def _cvs_bernoulli(check, n: int):
    _require(n == 1 or (n >= 2 and n % 2 == 0), "n must be 1 or an even positive integer")
    total = bernoulli(n) + sum(
        (Fraction(1, p) for p in primes_upto(n + 1) if n % (p - 1) == 0), Fraction(0)
    )
    check.eq(f"denominator of B_{n} + sum 1/p", total.denominator, 1)


def _cvs(family: Family, check, p: int, k: int, n: int, coprime_rhs):
    """p^k X_n^{(k)} = -1 mod p if (p-1) | n, else p^{k-1} X_n^{(k)} = coprime_rhs(p, n, k).

    The residue is compared only once the scaled value is shown p-integral.
    """
    x, value = _FAMILIES[family]
    divides = n % (p - 1) == 0
    e = k if divides else k - 1
    scaled = Fraction(p) ** e * value(n, k)
    ok = check.p_integral(f"p-part of denominator of p^{e} {x}_{n}^({k})", scaled, p)
    rhs = -1 if divides else coprime_rhs(p, n, k)
    if ok:
        check.eq_mod(f"p^{e} {x}_{n}^({k})", scaled, rhs, p, 1)


def _cvs_polyb_rhs(p: int, n: int, k: int) -> Fraction:
    if n % (p - 1) == 1:
        return Fraction(stirling2(n, p - 1), p) - Fraction(n, 2**k)
    return Fraction((-1) ** (n - 1) * stirling2(n, p - 1), p)


@identity("CVS_POLYB", "residues of p^k B_n^{(k)} or p^{k-1} B_n^{(k)} mod p, per the (p-1) | n split")
def _cvs_polyb(check, p: int, k: int, n: int):
    _require(is_prime(p), f"p = {p} must be prime")
    _require(k >= 2, "k must be >= 2")
    _require(n >= 1, "n must be >= 1")
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
def _cvs_level2(family: Family, coprime_rhs, check, p: int, k: int, n: int):
    _odd_prime(p)
    _require(k >= 2, "k must be >= 2")
    _require(n >= 1, "n must be >= 1")
    _require(k + 2 <= p <= 2 * n + 1, "k+2 <= p <= 2n+1 required")
    _cvs(family, check, p, k, 2 * n, coprime_rhs)


@identity("DENOM_ORDER", "the denominators of B_{2n}, D_{2n}^{(1)}, beta_{2n}^{(1)} share their p-adic order")
def _denom_order(check, p: int, n: int):
    _odd_prime(p)
    _require(n >= 1, "n must be >= 1")
    rep = valuation_report(p, n)
    check.eq(f"ord_{p}(d({rep.index})) vs ord_{p}(b({rep.index}))", rep.ord_d, rep.ord_b)
    check.eq(f"ord_{p}(beta_hat({rep.index})) vs ord_{p}(b({rep.index}))", rep.ord_beta_hat, rep.ord_b)


def valuation_report(p: int, n: int) -> ValuationReport:
    """Denominator orders and branch data for the even index 2n at odd prime p."""
    _odd_prime(p)
    _require(n >= 1, "n must be >= 1")
    n2 = 2 * n
    b = bernoulli(n2).denominator
    d = polycosecant(n2, 1).denominator
    bh = polycotangent(n2, 1).denominator
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


def _swaps(check, lmax: int, label, value) -> None:
    """One witness value(m, l) vs value(l, m) for each l < m <= lmax."""
    for m in range(lmax + 1):
        for l in range(m):
            check.eq(label(m, l), value(m, l), value(l, m))


@identity("DUALITY_B", "B_m^{(-l)} = B_l^{(-m)} for all l < m <= lmax", Family.POLY_B, 0)
@identity("DUALITY_C", "C_m^{(-l-1)} = C_l^{(-m-1)} for all l < m <= lmax", Family.POLY_C, 1)
def _duality_polyb(family: Family, shift: int, check, lmax: int):
    _require(lmax >= 0, "lmax must be >= 0")
    x, value = _FAMILIES[family]
    _swaps(
        check,
        lmax,
        lambda m, l: f"{x}_{m}^(-{l + shift}) vs {x}_{l}^(-{m + shift})",
        lambda m, l: value(m, -(l + shift)),
    )


@identity("DUALITY_COSE", "D_{2m}^{(-2l-1)} = D_{2l}^{(-2m-1)} for all l < m <= lmax", Family.COSECANT, 1)
@identity("DUALITY_COTA", "beta_{2m}^{(-2l)} = beta_{2l}^{(-2m)} for all l < m <= lmax", Family.COTANGENT, 0)
def _duality_level2(family: Family, shift: int, check, lmax: int):
    _require(lmax >= 0, "lmax must be >= 0")
    x, value = _FAMILIES[family]
    _swaps(
        check,
        lmax,
        lambda m, l: f"{x}_{2 * m}^({-2 * l - shift}) vs {x}_{2 * l}^({-2 * m - shift})",
        lambda m, l: value(2 * m, -2 * l - shift, method="explicit"),
    )


@identity(
    "DUALITY_SYM_B",
    "symmetrized poly-Bernoulli duality at every level n <= nmax (definition route)",
    lambda m, l, n: f"sym-B(m={m}, l={l}, n={n})",
    lambda m, l, n: sym_poly_bernoulli(m, l, n, method="definition"),
)
@identity(
    "DUALITY_SYM_COSE",
    "symmetrized polycosecant duality at every level n <= nmax (definition route)",
    lambda m, l, n: f"sym-D(2m={2 * m}, 2l={2 * l}, n={n})",
    lambda m, l, n: sym_polycosecant(2 * m, 2 * l, n, method="definition"),
)
def _duality_sym(label, value, check, lmax: int, nmax: int):
    _require(lmax >= 0 and nmax >= 0, "lmax, nmax must be >= 0")
    for n in range(nmax + 1):
        _swaps(check, lmax, lambda m, l: f"{label(m, l, n)} vs swapped", lambda m, l: value(m, l, n))


# ------------------------------------------------- first-kind-Stirling sweeps


def _vanishing_sum(family: Family, check, k: int, n: int, m: int):
    """sum_j (-1)^j s(m+1, j+1) X_n^{(-k-j)} = 0, with every term in the witness."""
    x, value = _FAMILIES[family]
    terms = [(-1) ** j * stirling1(m + 1, j + 1) * value(n, -(k + j)) for j in range(m + 1)]
    label = f"sum_j (-1)^j s({m + 1},j+1) {x}_{n}^(-k-j) at k={k}"
    rendered = ", ".join(_render(label, t) for t in terms)
    check.eq(f"{label}; terms: {rendered}", sum(terms, Fraction(0)), 0)


@identity("VANISH_S1_B", "sum_j (-1)^j s(m+1,j+1) B_n^{(-k-j)} = 0 for 0 <= n < m")
def _vanish_b(check, k: int, n: int, m: int):
    _require(m >= 1, "m must be >= 1")
    _require(0 <= n < m, "0 <= n <= m-1 required (the sum does not vanish at n = m)")
    _vanishing_sum(Family.POLY_B, check, k, n, m)


@identity("VANISH_S1_COSE", "sum_j (-1)^j s(m+1,j+1) D_{2n}^{(-k-j)} = 0 for m >= 2n+1", Family.COSECANT)
@identity("VANISH_S1_COTA", "sum_j (-1)^j s(m+1,j+1) beta_{2n}^{(-k-j)} = 0 for m >= 2n+1", Family.COTANGENT)
def _vanish_level2(family: Family, check, k: int, n: int, m: int):
    _require(n >= 1, "n must be >= 1")
    _require(m >= 2 * n + 1, "m >= 2n+1 required (the sum does not vanish at m = 2n)")
    _vanishing_sum(family, check, k, 2 * n, m)


# ------------------------------------------------------ conversions and shifts


@identity("CONV_EQ5", "beta_{2n}^{(k)} = sum_i C(2n,2i) D_{2i}^{(k)}")
def _conv_eq5(check, n: int, k: int):
    _require(n >= 0, "n must be >= 0")
    check.eq(
        f"beta_{2 * n}^({k}) vs binomial sum over D",
        polycotangent(2 * n, k),
        polycotangent(2 * n, k, method="from_cosecant"),
    )


@identity("CONV_EQ6", "D_{2n}^{(k)} = sum_i C(2n,2i) E_{2n-2i} beta_{2i}^{(k)}")
def _conv_eq6(check, n: int, k: int):
    _require(n >= 0, "n must be >= 0")
    check.eq(
        f"D_{2 * n}^({k}) vs Euler-weighted sum over beta", polycosecant(2 * n, k), cosecant_from_cotangent(2 * n, k)
    )


@identity("KSHIFT", "D_n^{(k-1)} = sum_m C(n+1,2m+1) D_{n-2m}^{(k)}")
def _kshift(check, n: int, k: int):
    _require(n >= 0, "n must be >= 0")
    check.eq(
        f"D_{n}^({k - 1}) vs weight-shift sum at weight {k}",
        polycosecant(n, k - 1),
        k_shift_recurrence(n, k),
    )


# ------------------------------------------------- generating-function sweeps

# The largest order (nmax, kmax, lmax) and level n of a generating-function sweep.  Its
# quotients grow with the powers of the divisor's lead numerator: on a 2-core Xeon, sweeps
# at order 32 take 6-18 s, and GF_BIVARIATE at 48 x 48 runs past two minutes.
GF_MAX_ORDER, GF_MAX_LEVEL = 32, 64


def _gf_cap(cap: int, **bounds: int) -> None:
    """Refuse a sweep bound past its cap as bad usage, before any series is built."""
    for name, value in bounds.items():
        if value > cap:
            raise UsageError(f"{name} must stay within 0..{cap} in a generating-function sweep, not {value}")


def _coefficients(check, f, rows: int, cols: int, label, value) -> None:
    """One witness f.egf(i, j) vs value(i, j) for each i <= rows, j <= cols."""
    for i in range(rows + 1):
        for j in range(cols + 1):
            check.eq(label(i, j), f.egf(i, j), value(i, j))


@identity("GF_BIVARIATE", "the two-variable cosecant function reproduces D_n^{(-k)} for n <= nmax, k <= kmax")
def _gf_bivariate(check, nmax: int, kmax: int):
    _require(nmax >= 0 and kmax >= 0, "nmax, kmax must be >= 0")
    _gf_cap(GF_MAX_ORDER, nmax=nmax, kmax=kmax)
    _coefficients(
        check,
        cosecant_bivariate((nmax, kmax)),
        nmax,
        kmax,
        lambda n, k: f"[t^{n} y^{k}] weighted vs D_{n}^(-{k})",
        lambda n, k: polycosecant(n, -k),
    )


@identity(
    "GF_SYM_B",
    "the two-variable symmetrized function reproduces the closed form for l, m <= lmax",
    lambda n, orders: sym_bernoulli_bivariate(n, orders),
    lambda l, m, n: f"[x^{l} y^{m}] weighted vs sym-B(m={m}, l={l}, n={n})",
    lambda l, m, n: sym_poly_bernoulli(m, l, n, method="closed_form"),
)
@identity(
    "GF_SYM_COSE",
    "the two-part bivariate function reproduces the symmetrized polycosecant numbers for m, l <= lmax",
    lambda n, orders: sym_cosecant_bivariate(n, orders),
    lambda m, l, n: f"[t^{m} y^{l}] weighted vs sym-D(m={m}, l={l}, n={n})",
    lambda m, l, n: sym_polycosecant(m, l, n, method="definition"),
)
def _gf_sym(bivariate, label, value, check, n: int, lmax: int):
    _require(n >= 0 and lmax >= 0, "n, lmax must be >= 0")
    _gf_cap(GF_MAX_LEVEL, n=n)
    _gf_cap(GF_MAX_ORDER, lmax=lmax)
    f = bivariate(n, (lmax, lmax))
    _coefficients(check, f, lmax, lmax, lambda i, j: label(i, j, n), lambda i, j: value(i, j, n))


# ------------------------------------------------------------ Stirling lemmas


@identity("STIRLING_MOD_P", "S(n, ap-1) mod p is C(c-1,a-1) when n = a-1+c(p-1), c >= a, else 0")
def _stirling_mod_p(check, p: int, a: int, nmax: int):
    _require(is_prime(p), f"p = {p} must be prime")
    _require(a >= 1, "a must be >= 1")
    _require(nmax >= 0, "nmax must be >= 0")
    for n in range(nmax + 1):
        want = 0
        if (n - a + 1) % (p - 1) == 0:
            c = (n - a + 1) // (p - 1)
            if c >= a:
                want = comb(c - 1, a - 1)
        check.eq_mod(f"S({n}, {a * p - 1})", stirling2(n, a * p - 1), want, p, 1)


@identity("STIRLING_CONG", "j! S(n,j) = j! S(m,j) mod p^N for n = m mod phi(p^N), n, m >= N")
def _stirling_cong(check, p: int, N: int, jmax: int, nmax: int):
    _require(is_prime(p), f"p = {p} must be prime")
    _require(N >= 1 and jmax >= 0 and nmax >= 0, "N >= 1 and jmax, nmax >= 0 required")
    phi = totient(p**N)
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

    The series row of each order is read once, through `_route_row`, and
    evaluated at every weight of that order where at least two methods
    apply.  A method whose row at n is that row, as a tuple in lowest terms,
    agrees with the series at every weight, so the series value is its value
    too; any other method, and a cell route, which has no row, is evaluated.
    """
    family = Family(family)
    for name, bound in (("n_max", n_max), ("k_min", k_min), ("k_max", k_max)):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise UsageError(f"bad oracle sweep: {name} must be an int, not {bound!r}")
    if n_max < 0 or k_min > k_max:
        raise UsageError(f"empty oracle sweep: n up to {n_max}, k in {k_min}..{k_max}")
    checker = _Checker()
    single_method = True
    for n in range(n_max + 1):
        cells = [(k, methods) for k in range(k_min, k_max + 1) if len(methods := applicable_methods(family, n, k)) > 1]
        if not cells:
            continue
        single_method = False
        series_row = _route_row(family, n, "series")
        references = _evaluate_row(series_row, [k for k, _ in cells])
        same_row: dict[str, bool] = {}
        for (k, methods), reference in zip(cells, references):
            for name in sorted(m for m in methods if m != "series"):
                if name not in same_row:
                    same_row[name] = _route_row(family, n, name) == series_row
                value = reference if same_row[name] else family_value_by_method(family, n, k, name)
                checker.eq(f"{family.value}(n={n}, k={k}) {name} vs series", value, reference)
    params = {"family": family.value, "n_max": n_max, "k_min": k_min, "k_max": k_max}
    if single_method:
        params["note"] = "single method"
    return Report("ORACLE_DIFF", params, "pass" if checker.ok else "fail", checker.witnesses)
