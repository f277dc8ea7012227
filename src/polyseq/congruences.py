"""Modular and p-adic verification of the congruence, duality, valuation and
generating-function identities, through a uniform registry.

Every verifier evaluates both sides exactly, reduces where the statement is a
congruence, and emits one witness per compared instance.  Violated hypotheses
raise HypothesisViolation instead of reporting a failure, so parameter sweeps
can enumerate lattice points and skip the invalid ones.  A perturbation hook
adds +1 to the left side of a chosen instance, for negative-control
self-tests of the whole pipeline.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import HypothesisViolation, NotPIntegral, UsageError, ZeroValuation
from .families import (
    Family,
    applicable_methods,
    cosecant_bivariate,
    family_value_by_method,
    k_shift_recurrence,
    poly_bernoulli,
    polycosecant,
    polycotangent,
)
from .sequences import bernoulli, euler_number, is_prime, primes_upto, stirling1, stirling2, tangent, totient
from .symmetrized import (
    sym_bernoulli_bivariate,
    sym_cosecant_bivariate,
    sym_poly_bernoulli,
    sym_polycosecant,
)

# ------------------------------------------------------------------ primitives


def ord_p(q, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = Fraction(q)
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
    """a * b^{-1} mod p^N for a p-integral rational a/b."""
    q = Fraction(q)
    modulus = p**N
    if q != 0 and ord_p(q, p) < 0:
        raise NotPIntegral(f"{q} has a factor {p} in its denominator")
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
        return {
            "p": self.p,
            "index": self.index,
            "b": str(self.b),
            "d": str(self.d),
            "beta_hat": str(self.beta_hat),
            "ord_b": self.ord_b,
            "ord_d": self.ord_d,
            "ord_beta_hat": self.ord_beta_hat,
            "alpha": self.alpha,
            "gamma": self.gamma,
            "branch": self.branch,
        }


class _Checker:
    """Collects compared instances; optionally perturbs one lhs by +1."""

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
        lhs = self._bump(Fraction(lhs))
        rhs = Fraction(rhs)
        self.witnesses.append(Witness(instance, str(lhs), str(rhs)))
        if lhs != rhs:
            self.ok = False

    def eq_mod(self, instance: str, lhs, rhs, p: int, N: int) -> None:
        lhs = self._bump(Fraction(lhs))
        lres = reduce_mod(lhs, p, N)
        rres = reduce_mod(rhs, p, N)
        self.witnesses.append(Witness(instance, str(lres.value), str(rres.value), p**N))
        if lres.value != rres.value:
            self.ok = False

    def p_integral(self, instance: str, value, p: int) -> bool:
        """Assert p-integrality as 'p-part of the denominator equals 1'."""
        value = Fraction(value)
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


def identity(name: str, doc: str):
    def wrap(fn):
        _REGISTRY[name] = (fn, doc)
        return fn

    return wrap


def registry_ids() -> list[str]:
    return sorted(_REGISTRY)


def registry_doc(name: str) -> str:
    return _REGISTRY[name][1]


def verify(identity_id: str, params: dict | None = None, perturb_index: int | None = None, **kw) -> Report:
    """Run one registry identity and return its report.

    `perturb_index` adds +1 to the left side of the chosen compared instance
    before reduction; it exists for negative-control self-tests.
    """
    if identity_id not in _REGISTRY:
        raise UsageError(f"unknown identity {identity_id!r}; known: {', '.join(registry_ids())}")
    merged = dict(params or {})
    merged.update(kw)
    checker = _Checker(perturb_index)
    fn = _REGISTRY[identity_id][0]
    try:
        _signature(fn).bind(checker, **merged)
    except TypeError as exc:
        raise UsageError(f"bad parameters for {identity_id}: {exc}") from exc
    fn(checker, **merged)
    verdict = "pass" if checker.ok else "fail"
    report = Report(identity_id, merged, verdict, checker.witnesses)
    if verdict == "fail" and not report.mismatches():
        raise AssertionError("fail verdict must carry a mismatching witness")
    return report


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


def _kummer_polyb(check, variant: str, p: int, N: int, k: int, m: int, n: int):
    _odd_prime(p)
    _require(k >= 0, "weight parameter k must be >= 0")
    _require(min(m, n, N) >= 1, "m, n, N must be >= 1")
    _require((m - n) % totient(p**N) == 0, "m = n mod phi(p^N) required")
    _require(min(m, n) >= N, "m, n >= N required")
    lhs = poly_bernoulli(variant, m, -k)
    rhs = poly_bernoulli(variant, n, -k)
    check.eq_mod(f"{variant}_{m}^(-{k}) vs {variant}_{n}^(-{k})", lhs, rhs, p, N)


@identity("KUMMER_POLYB_B", "B_m^{(-k)} = B_n^{(-k)} mod p^N for m = n mod phi(p^N), m,n >= N")
def _kummer_polyb_b(check, p: int, N: int, k: int, m: int, n: int):
    _kummer_polyb(check, "B", p, N, k, m, n)


@identity("KUMMER_POLYB_C", "C_m^{(-k)} = C_n^{(-k)} mod p^N for m = n mod phi(p^N), m,n >= N")
def _kummer_polyb_c(check, p: int, N: int, k: int, m: int, n: int):
    _kummer_polyb(check, "C", p, N, k, m, n)


@identity("SUM_POLYB", "sum_{i<phi(p^N)} B_n^{(-k-i)} = 0 mod p^N for n >= N, k >= N")
def _sum_polyb(check, p: int, N: int, k: int, n: int):
    _odd_prime(p)
    _require(n >= 1 and N >= 1, "n, N must be >= 1")
    _require(n >= N, "n >= N required")
    # k >= N as in the companion sum congruences: at k < N the term from
    # block count p-1 survives (e.g. p=3, N=1, k=0, n=2 sums to 5, not 0 mod 3)
    _require(k >= N, "k >= N required")
    phi = totient(p**N)
    total = sum((poly_bernoulli("B", n, -(k + i)) for i in range(phi)), Fraction(0))
    check.eq_mod(f"sum_(i<{phi}) B_{n}^(-{k}-i)", total, 0, p, N)


@identity("KUMMER_COSE_ODD", "D_{2m}^{(-2k+1)} = D_{2n}^{(-2k+1)} mod p^N for 2m = 2n mod phi(p^N), 2m,2n >= N")
def _kummer_cose_odd(check, p: int, N: int, k: int, m: int, n: int):
    _require(is_prime(p), f"p = {p} must be prime")
    _require(min(k, m, n, N) >= 1, "k, m, n, N must be >= 1")
    _require((2 * m - 2 * n) % totient(p**N) == 0, "2m = 2n mod phi(p^N) required")
    _require(min(2 * m, 2 * n) >= N, "2m, 2n >= N required")
    w = -2 * k + 1
    check.eq_mod(
        f"D_{2 * m}^({w}) vs D_{2 * n}^({w})",
        polycosecant(2 * m, w),
        polycosecant(2 * n, w),
        p,
        N,
    )


def _kummer_level2(check, which: str, p: int, N: int, k: int, m: int, n: int):
    _odd_prime(p)
    _require(min(k, m, n, N) >= 1, "k, m, n, N must be >= 1")
    _require((2 * m - 2 * n) % totient(p**N) == 0, "2m = 2n mod phi(p^N) required")
    _require(min(2 * m, 2 * n) >= N, "2m, 2n >= N required")
    fn = polycosecant if which == "D" else polycotangent
    check.eq_mod(
        f"{which}_{2 * m}^(-{k}) vs {which}_{2 * n}^(-{k})",
        fn(2 * m, -k),
        fn(2 * n, -k),
        p,
        N,
    )


@identity("KUMMER_COSE", "D_{2m}^{(-k)} = D_{2n}^{(-k)} mod p^N for 2m = 2n mod phi(p^N), 2m,2n >= N")
def _kummer_cose(check, p: int, N: int, k: int, m: int, n: int):
    _kummer_level2(check, "D", p, N, k, m, n)


@identity("KUMMER_COTA", "beta_{2m}^{(-k)} = beta_{2n}^{(-k)} mod p^N for 2m = 2n mod phi(p^N), 2m,2n >= N")
def _kummer_cota(check, p: int, N: int, k: int, m: int, n: int):
    _kummer_level2(check, "beta", p, N, k, m, n)


@identity("KUMMER_COSE_REMARK", "weighted Kummer congruence for D^{(1)} and beta^{(1)} via their Bernoulli expressions")
def _kummer_cose_remark(check, p: int, N: int, m: int, n: int):
    _odd_prime(p)
    _require(min(m, n) >= 1 and N >= 1, "m, n, N must be >= 1")
    _require((2 * n) % (p - 1) != 0, "(p-1) must not divide 2n")
    _require((2 * m - 2 * n) % ((p - 1) * p ** (N - 1)) == 0, "2m = 2n mod (p-1)p^{N-1} required")
    for name, fn in (("D", polycosecant), ("beta", polycotangent)):
        lhs = (1 - Fraction(p) ** (2 * m - 1)) * fn(2 * m, 1) / (2 * m)
        rhs = (1 - Fraction(p) ** (2 * n - 1)) * fn(2 * n, 1) / (2 * n)
        check.eq_mod(f"(1-p^(2m-1)){name}_{2 * m}^(1)/2m vs 2n counterpart", lhs, rhs, p, N)


# --------------------------------------------------------------- sum formulas


def _sum_level2(check, which: str, p: int, N: int, n: int, k: int):
    _odd_prime(p)
    _require(n >= 0, "n must be >= 0")
    _require(k >= 1 and N >= 1, "k, N must be >= 1")
    _require(k >= N, "k >= N required")
    phi = totient(p**N)
    fn = polycosecant if which == "D" else polycotangent
    total = sum((fn(2 * n, -(k + i)) for i in range(phi)), Fraction(0))
    if which == "D":
        weight = (-1) ** n * tangent("T", 2 * n + 1)
    else:
        weight = tangent("tilde", 2 * n)
    check.eq_mod(
        f"2^{2 * n} sum_(i<{phi}) {which}_{2 * n}^(-{k}-i) vs tangent weight * phi",
        Fraction(2 ** (2 * n)) * total,
        Fraction(weight * phi),
        p,
        N,
    )
    if N >= 2:
        check.eq_mod(f"sum_(i<{phi}) {which}_{2 * n}^(-{k}-i) mod p^{N - 1}", total, 0, p, N - 1)


@identity("SUM_COSE", "2^{2n} sum_{i<phi(p^N)} D_{2n}^{(-k-i)} = (-1)^n T_{2n+1} phi(p^N) mod p^N, k >= N")
def _sum_cose(check, p: int, N: int, n: int, k: int):
    _sum_level2(check, "D", p, N, n, k)


@identity("SUM_COTA", "2^{2n} sum_{i<phi(p^N)} beta_{2n}^{(-k-i)} = tilde-T_{2n} phi(p^N) mod p^N, k >= N")
def _sum_cota(check, p: int, N: int, n: int, k: int):
    _sum_level2(check, "beta", p, N, n, k)


@identity("SUM_C", "sum_{i<phi(p^N)} C_n^{(-k-i)} = (-1)^n phi(p^N) mod p^N, k >= N")
def _sum_c(check, p: int, N: int, n: int, k: int):
    _odd_prime(p)
    _require(n >= 0, "n must be >= 0")
    _require(k >= 1 and N >= 1, "k, N must be >= 1")
    _require(k >= N, "k >= N required")
    phi = totient(p**N)
    total = sum((poly_bernoulli("C", n, -(k + i)) for i in range(phi)), Fraction(0))
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


@identity("CVS_POLYB", "residues of p^k B_n^{(k)} or p^{k-1} B_n^{(k)} mod p, per the (p-1) | n split")
def _cvs_polyb(check, p: int, k: int, n: int):
    _require(is_prime(p), f"p = {p} must be prime")
    _require(k >= 2, "k must be >= 2")
    _require(n >= 1, "n must be >= 1")
    _require(k + 2 <= p <= n + 1, "k+2 <= p <= n+1 required")
    value = poly_bernoulli("B", n, k)
    if n % (p - 1) == 0:
        scaled = Fraction(p) ** k * value
        ok = check.p_integral(f"p-part of denominator of p^{k} B_{n}^({k})", scaled, p)
        if ok:
            check.eq_mod(f"p^{k} B_{n}^({k})", scaled, -1, p, 1)
    else:
        scaled = Fraction(p) ** (k - 1) * value
        ok = check.p_integral(f"p-part of denominator of p^{k - 1} B_{n}^({k})", scaled, p)
        if n % (p - 1) == 1:
            rhs = Fraction(stirling2(n, p - 1), p) - Fraction(n, 2**k)
        else:
            rhs = Fraction((-1) ** (n - 1) * stirling2(n, p - 1), p)
        if ok:
            check.eq_mod(f"p^{k - 1} B_{n}^({k})", scaled, rhs, p, 1)


def _cvs_level2_rhs(p: int, n2: int) -> Fraction:
    """Shared right-hand side of the (p-1)-coprime branch for D and beta."""
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


def _cvs_cota_extra(p: int, n2: int) -> Fraction:
    """Correction specific to beta in the (p-1)-coprime branch.

    Derived from the extra S(2n, j+2)-bearing half of the explicit cotangent
    formula: terms with 2i+1 = p survive the p^{k-1} scaling, giving
    sum_{j >= p-1} (-1)^j (j+2)!/(p 2^{j+1}) S(2n, j+2) C(j+1, p); factorials
    with j+2 >= 2p contribute 0 mod p, so the sum stops at min(2n-2, 2p-3).
    """
    total = Fraction(0)
    for j in range(p - 1, min(n2 - 2, 2 * p - 3) + 1):
        total += (
            Fraction((-1) ** j, 2 ** (j + 1))
            * Fraction(factorial(j + 2), p)
            * stirling2(n2, j + 2)
            * comb(j + 1, p)
        )
    return total


def _cvs_level2(check, which: str, p: int, k: int, n: int):
    _odd_prime(p)
    _require(k >= 2, "k must be >= 2")
    _require(n >= 1, "n must be >= 1")
    n2 = 2 * n
    _require(k + 2 <= p <= n2 + 1, "k+2 <= p <= 2n+1 required")
    fn = polycosecant if which == "D" else polycotangent
    value = fn(n2, k)
    if n2 % (p - 1) == 0:
        scaled = Fraction(p) ** k * value
        ok = check.p_integral(f"p-part of denominator of p^{k} {which}_{n2}^({k})", scaled, p)
        if ok:
            check.eq_mod(f"p^{k} {which}_{n2}^({k})", scaled, -1, p, 1)
    else:
        scaled = Fraction(p) ** (k - 1) * value
        ok = check.p_integral(f"p-part of denominator of p^{k - 1} {which}_{n2}^({k})", scaled, p)
        rhs = _cvs_level2_rhs(p, n2)
        if which == "beta":
            rhs += _cvs_cota_extra(p, n2)
        if ok:
            check.eq_mod(f"p^{k - 1} {which}_{n2}^({k})", scaled, rhs, p, 1)


@identity("CVS_COSE", "residues of p^k D_{2n}^{(k)} or p^{k-1} D_{2n}^{(k)} mod p, per the (p-1) | 2n split")
def _cvs_cose(check, p: int, k: int, n: int):
    _cvs_level2(check, "D", p, k, n)


@identity("CVS_COTA", "residues of p^k beta_{2n}^{(k)} or p^{k-1} beta_{2n}^{(k)} mod p, per the (p-1) | 2n split")
def _cvs_cota(check, p: int, k: int, n: int):
    _cvs_level2(check, "beta", p, k, n)


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


@identity("DUALITY_B", "B_m^{(-l)} = B_l^{(-m)} for all l < m <= lmax")
def _duality_b(check, lmax: int):
    _require(lmax >= 0, "lmax must be >= 0")
    for m in range(lmax + 1):
        for l in range(m):
            check.eq(
                f"B_{m}^(-{l}) vs B_{l}^(-{m})",
                poly_bernoulli("B", m, -l),
                poly_bernoulli("B", l, -m),
            )


@identity("DUALITY_C", "C_m^{(-l-1)} = C_l^{(-m-1)} for all l < m <= lmax")
def _duality_c(check, lmax: int):
    _require(lmax >= 0, "lmax must be >= 0")
    for m in range(lmax + 1):
        for l in range(m):
            check.eq(
                f"C_{m}^(-{l + 1}) vs C_{l}^(-{m + 1})",
                poly_bernoulli("C", m, -(l + 1)),
                poly_bernoulli("C", l, -(m + 1)),
            )


@identity("DUALITY_COSE", "D_{2m}^{(-2l-1)} = D_{2l}^{(-2m-1)} for all l < m <= lmax")
def _duality_cose(check, lmax: int):
    _require(lmax >= 0, "lmax must be >= 0")
    for m in range(lmax + 1):
        for l in range(m):
            check.eq(
                f"D_{2 * m}^({-2 * l - 1}) vs D_{2 * l}^({-2 * m - 1})",
                polycosecant(2 * m, -2 * l - 1, method="explicit"),
                polycosecant(2 * l, -2 * m - 1, method="explicit"),
            )


@identity("DUALITY_COTA", "beta_{2m}^{(-2l)} = beta_{2l}^{(-2m)} for all l < m <= lmax")
def _duality_cota(check, lmax: int):
    _require(lmax >= 0, "lmax must be >= 0")
    for m in range(lmax + 1):
        for l in range(m):
            check.eq(
                f"beta_{2 * m}^({-2 * l}) vs beta_{2 * l}^({-2 * m})",
                polycotangent(2 * m, -2 * l, method="explicit"),
                polycotangent(2 * l, -2 * m, method="explicit"),
            )


@identity("DUALITY_SYM_B", "symmetrized poly-Bernoulli duality at every level n <= nmax (definition route)")
def _duality_sym_b(check, lmax: int, nmax: int):
    _require(lmax >= 0 and nmax >= 0, "lmax, nmax must be >= 0")
    for n in range(nmax + 1):
        for m in range(lmax + 1):
            for l in range(m):
                check.eq(
                    f"sym-B(m={m}, l={l}, n={n}) vs swapped",
                    sym_poly_bernoulli(m, l, n, method="definition"),
                    sym_poly_bernoulli(l, m, n, method="definition"),
                )


@identity("DUALITY_SYM_COSE", "symmetrized polycosecant duality at every level n <= nmax (definition route)")
def _duality_sym_cose(check, lmax: int, nmax: int):
    _require(lmax >= 0 and nmax >= 0, "lmax, nmax must be >= 0")
    for n in range(nmax + 1):
        for m in range(lmax + 1):
            for l in range(m):
                check.eq(
                    f"sym-D(2m={2 * m}, 2l={2 * l}, n={n}) vs swapped",
                    sym_polycosecant(2 * m, 2 * l, n, method="definition"),
                    sym_polycosecant(2 * l, 2 * m, n, method="definition"),
                )


# ------------------------------------------------- first-kind-Stirling sweeps


def _vanish_terms(check, label: str, terms: list[Fraction]):
    rendered = ", ".join(str(t) for t in terms)
    check.eq(f"{label}; terms: {rendered}", sum(terms, Fraction(0)), 0)


@identity("VANISH_S1_B", "sum_j (-1)^j s(m+1,j+1) B_n^{(-k-j)} = 0 for 0 <= n < m")
def _vanish_b(check, k: int, n: int, m: int):
    _require(m >= 1, "m must be >= 1")
    _require(0 <= n < m, "0 <= n <= m-1 required (the sum does not vanish at n = m)")
    terms = [
        (-1) ** j * stirling1(m + 1, j + 1) * poly_bernoulli("B", n, -(k + j))
        for j in range(m + 1)
    ]
    _vanish_terms(check, f"sum_j (-1)^j s({m + 1},j+1) B_{n}^(-k-j) at k={k}", terms)


def _vanish_level2(check, which: str, k: int, n: int, m: int):
    _require(n >= 1, "n must be >= 1")
    _require(m >= 2 * n + 1, "m >= 2n+1 required (the sum does not vanish at m = 2n)")
    fn = polycosecant if which == "D" else polycotangent
    terms = [
        (-1) ** j * stirling1(m + 1, j + 1) * fn(2 * n, -(k + j)) for j in range(m + 1)
    ]
    _vanish_terms(check, f"sum_j (-1)^j s({m + 1},j+1) {which}_{2 * n}^(-k-j) at k={k}", terms)


@identity("VANISH_S1_COSE", "sum_j (-1)^j s(m+1,j+1) D_{2n}^{(-k-j)} = 0 for m >= 2n+1")
def _vanish_cose(check, k: int, n: int, m: int):
    _vanish_level2(check, "D", k, n, m)


@identity("VANISH_S1_COTA", "sum_j (-1)^j s(m+1,j+1) beta_{2n}^{(-k-j)} = 0 for m >= 2n+1")
def _vanish_cota(check, k: int, n: int, m: int):
    _vanish_level2(check, "beta", k, n, m)


# ------------------------------------------------------ conversions and shifts


@identity("CONV_EQ5", "beta_{2n}^{(k)} = sum_i C(2n,2i) D_{2i}^{(k)}")
def _conv_eq5(check, n: int, k: int):
    _require(n >= 0, "n must be >= 0")
    rhs = sum(
        (comb(2 * n, 2 * i) * polycosecant(2 * i, k) for i in range(n + 1)), Fraction(0)
    )
    check.eq(f"beta_{2 * n}^({k}) vs binomial sum over D", polycotangent(2 * n, k), rhs)


@identity("CONV_EQ6", "D_{2n}^{(k)} = sum_i C(2n,2i) E_{2n-2i} beta_{2i}^{(k)}")
def _conv_eq6(check, n: int, k: int):
    _require(n >= 0, "n must be >= 0")
    rhs = sum(
        (
            comb(2 * n, 2 * i) * euler_number(2 * n - 2 * i) * polycotangent(2 * i, k)
            for i in range(n + 1)
        ),
        Fraction(0),
    )
    check.eq(f"D_{2 * n}^({k}) vs Euler-weighted sum over beta", polycosecant(2 * n, k), rhs)


@identity("KSHIFT", "D_n^{(k-1)} = sum_m C(n+1,2m+1) D_{n-2m}^{(k)}")
def _kshift(check, n: int, k: int):
    _require(n >= 0, "n must be >= 0")
    check.eq(
        f"D_{n}^({k - 1}) vs weight-shift sum at weight {k}",
        polycosecant(n, k - 1),
        k_shift_recurrence(n, k),
    )


# ------------------------------------------------- generating-function sweeps


@identity("GF_BIVARIATE", "the two-variable cosecant function reproduces D_n^{(-k)} for n <= nmax, k <= kmax")
def _gf_bivariate(check, nmax: int, kmax: int):
    _require(nmax >= 0 and kmax >= 0, "nmax, kmax must be >= 0")
    f = cosecant_bivariate((nmax, kmax))
    for n in range(nmax + 1):
        for k in range(kmax + 1):
            check.eq(f"[t^{n} y^{k}] weighted vs D_{n}^(-{k})", f.egf(n, k), polycosecant(n, -k))


@identity("GF_SYM_B", "the two-variable symmetrized function reproduces the closed form for l, m <= lmax")
def _gf_sym_b(check, n: int, lmax: int):
    _require(n >= 0 and lmax >= 0, "n, lmax must be >= 0")
    f = sym_bernoulli_bivariate(n, (lmax, lmax))
    for l in range(lmax + 1):
        for m in range(lmax + 1):
            check.eq(
                f"[x^{l} y^{m}] weighted vs sym-B(m={m}, l={l}, n={n})",
                f.egf(l, m),
                sym_poly_bernoulli(m, l, n, method="closed_form"),
            )


@identity("GF_SYM_COSE", "the two-part bivariate function reproduces the symmetrized polycosecant numbers for m, l <= lmax")
def _gf_sym_cose(check, n: int, lmax: int):
    _require(n >= 0 and lmax >= 0, "n, lmax must be >= 0")
    f = sym_cosecant_bivariate(n, (lmax, lmax))
    for m in range(lmax + 1):
        for l in range(lmax + 1):
            check.eq(
                f"[t^{m} y^{l}] weighted vs sym-D(m={m}, l={l}, n={n})",
                f.egf(m, l),
                sym_polycosecant(m, l, n, method="definition"),
            )


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
    """Compare every applicable closed-form method against series extraction."""
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
