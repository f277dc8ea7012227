"""Declared parameter roles of the registry identities, and the one table of work caps.

Each identity helper declares its parameters once, by role, in a `Signature`:
the prime p, the exponent N, an order index, a weight or a sweep bound.
`Signature.check` runs before the body: the type of every value, then every
cap on an index the identity builds (bad usage, `UsageError`), then every
least value the theorem allows and primality (violated hypotheses,
`HypothesisViolation`).  Every cap, the CLI's included, is an entry of `CAPS`.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import HypothesisViolation, UsageError
from .sequences import PRIME_TEST_LIMIT, is_prime

# Every work cap, each on an index that is built.  Worst case at the largest value each admits, then past it:
# one fresh process each, wall time and VmHWM, on a 2-core Xeon under Python 3.11.
CAPS = {
    "prime": PRIME_TEST_LIMIT - 1,  # is_prime is exact below PRIME_TEST_LIMIT: < 0.01 s, 17 MB
    "exponent": 512,  # N of the modulus p^N: < 0.01 s, 17 MB; a modulus past Python's digit limit exits 2
    "order": 512,  # every order index: VANISH_S1_B at m = 512, n = 511, 3.7 s and 76 MB; KUMMER_POLYB_B 231 MB at 1024
    "phi terms": 256,  # the (p-1)p^(N-1) terms of a SUM_* sum: SUM_COTA at 2n = 512, 2.4 s, 43 MB; 13.5 s at 486 terms
    "conversion": 256,  # CONV_EQ5/6's 2n, KSHIFT's n, building every row below: CONV_EQ6 0.6 s and 23 MB; 8.6 s at 512
    "duality": 128,  # lmax of DUALITY_B, _C, _COSE, _COTA: 0.9 s and 33 MB; DUALITY_COTA 12.4 s and 150 MB at 256
    "sym duality": 32,  # lmax and nmax of DUALITY_SYM_*: 0.75 s and 26 MB; 42.8 s at 64 x 64
    "stirling": 64,  # jmax and nmax of STIRLING_CONG: 1.0 s and 58 MB; 6.3 s and 156 MB at 96
    "gf order": 32,  # nmax, kmax, lmax of a GF sweep: GF_SYM_COSE at level 64, 6.4 s and 19 MB; minutes at 48
    "gf level": 64,  # the level n of GF_SYM_*, at its cap in the case above
    "table order": 64,  # the orders of `polyseq table`, `oracle-diff` and `valuation`
    "table weight": 32,  # the weights of `polyseq table` and `oracle-diff`, either sign
}


class Role(NamedTuple):
    """A parameter's declaration: the CAPS entry `cap` bounds the index `scale * value + offset` it builds,
    `minimum` is the theorem's least value, `prime` what a modulus p must be ("prime" or "an odd prime"),
    and `phi` caps the phi(p^N) terms of a sum as well, the parameter being N."""

    cap: str | None = None
    minimum: int | None = None
    scale: int = 1
    offset: int = 0
    prime: str = ""
    phi: bool = False


PRIME, ODD_PRIME = Role("prime", prime="prime"), Role("prime", prime="an odd prime")
EXPONENT, SUM_EXPONENT = Role("exponent", 1), Role("exponent", 1, phi=True)
PERIOD_PRIME = Role("order", offset=-1, prime="an odd prime")  # p - 1 is an order index


def order(minimum: int | None, scale: int = 1) -> Role:
    return Role("order", minimum, scale)


def weight(minimum: int | None = None) -> Role:
    return Role(None, minimum)


def _phi(p: int, N: int) -> int:
    """phi(p^N) for a prime p."""
    return (p - 1) * p ** (N - 1)


class Signature:
    """The roles of an identity's parameters, in the order of its signature; as a decorator it
    records itself as `fn.signature`.  `context` names the kind of identity in a cap's message."""

    def __init__(self, context: str, **roles: Role):
        self.context, self.roles = context, roles

    def __call__(self, fn):
        fn.signature = self
        return fn

    def check(self, who: str, params: dict) -> None:
        """Check `params`: names and types, then every cap, every minimum, and primality."""
        if params.keys() != self.roles.keys():
            given = ", ".join(params) or "none"
            raise UsageError(f"bad parameters for {who}: takes {', '.join(self.roles)}, not {given}")
        for name, value in params.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise UsageError(f"bad parameters for {who}: {name} must be an int, not {value!r}")
        for name, r in self.roles.items():
            if r.cap:
                label = f"{r.scale}{name}" if r.scale != 1 else f"{name} - {-r.offset}" if r.offset else name
                low = None if r.minimum is None else r.scale * r.minimum + r.offset
                self._cap(r.cap, label, r.scale * params[name] + r.offset, low)
            if r.phi and params["p"] >= 2:
                self._cap("phi terms", "(p-1)p^(N-1) terms", _phi(params["p"], max(params[name], 1)), 1)
        for name, r in self.roles.items():
            if r.minimum is not None and params[name] < r.minimum:
                raise HypothesisViolation(f"{name} must be >= {r.minimum}")
        for name, r in self.roles.items():
            if r.prime and not (is_prime(params[name]) and (r.prime == "prime" or params[name] % 2)):
                raise HypothesisViolation(f"{name} = {params[name]} must be {r.prime}")

    def _cap(self, cap: str, label: str, index: int, low: int | None) -> None:
        if index > CAPS[cap]:
            bound = CAPS[cap] if low is None else f"{low}..{CAPS[cap]}"
            raise UsageError(f"{label} must stay within {bound} in {self.context}, not {index}")
