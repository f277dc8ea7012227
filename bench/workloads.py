"""The benchmark's workloads: a canonical op list for each, and how to run one op.

An op is a plain tuple whose first element names its kind. The canonical list
fixes the set of ops; a run's seed only shuffles the order in which they run.
Each op returns its output as text, so that it can be digested and compared
with the stored reference, or raises `HypothesisViolation` for a sweep point
outside a theorem's hypotheses (a skip).
"""

from __future__ import annotations

import contextlib
import io
import random
from math import gcd

TABLE_FAMILIES = ("PolyB_B", "PolyB_C", "Cosecant", "Cotangent")
TABLE_N_MAX = 64
TABLE_K = "--k=-32..32"

ORACLE_N_MAX = 24
TILDE_N_MAX = 40


def table_ops() -> list[tuple]:
    """One `polyseq table` row per (family, n): 4 x 65 ops of 65 cells each."""
    return [("table", family, n) for family in TABLE_FAMILIES for n in range(TABLE_N_MAX + 1)]


def _totient(m: int) -> int:
    return sum(1 for i in range(1, m + 1) if gcd(i, m) == 1)


def verify_ops() -> list[tuple]:
    """The verify() sweeps of acceptance criteria 3, 4, 5, 7 and 8.

    The worked examples come first, so the first op is never a skip.
    """
    ops = [
        ("verify", "KUMMER_COSE", dict(p=3, N=2, k=3, m=2, n=5)),
        ("verify", "KUMMER_COTA", dict(p=3, N=2, k=3, m=2, n=5)),
        ("verify", "SUM_COSE", dict(p=3, N=2, n=3, k=3)),
        ("verify", "SUM_COTA", dict(p=3, N=2, n=3, k=3)),
    ]
    # criterion 3: Kummer congruences
    kummer = []
    for p in (3, 5, 7):
        for N in (1, 2):
            phi = _totient(p**N)
            orders = [i for i in range(2, 17, 2) if i >= N]
            for i2m in orders:
                for i2n in orders:
                    if i2m < i2n and (i2n - i2m) % phi == 0:
                        for k in range(1, 9):
                            kummer.append(dict(p=p, N=N, k=k, m=i2m // 2, n=i2n // 2))
    ops += [("verify", name, g) for name in ("KUMMER_COSE", "KUMMER_COTA") for g in kummer]
    # criterion 4: sum congruences
    level2, polyb = [], []
    for p in (3, 5, 7):
        for N in (1, 2):
            for k in range(1, 9):
                level2 += [dict(p=p, N=N, n=n, k=k) for n in range(0, 9)]
                polyb += [dict(p=p, N=N, n=n, k=k) for n in range(1, 17)]
    for name, grid in (("SUM_COSE", level2), ("SUM_COTA", level2), ("SUM_C", polyb), ("SUM_POLYB", polyb)):
        ops += [("verify", name, g) for g in grid]
    # criterion 5: duality suites
    ops += [("verify", name, dict(lmax=6)) for name in ("DUALITY_B", "DUALITY_C", "DUALITY_COSE", "DUALITY_COTA")]
    ops += [("verify", name, dict(lmax=6, nmax=4)) for name in ("DUALITY_SYM_B", "DUALITY_SYM_COSE")]
    # criterion 7: 2-adic orders, von Staudt residues, denominator orders
    for n in range(1, 7):
        ops += [("verify", "TWO_ORDER_COSE", dict(n=n, k=k)) for k in range(1, 7)]
        ops += [("verify", "TWO_ORDER_COTA", dict(n=n, k=k)) for k in range(0, 7)]
    ops += [("verify", "CVS_BERNOULLI", dict(n=n)) for n in [1] + list(range(2, 13, 2))]
    for p in (5, 7, 11):
        for k in range(2, p - 1):
            ops += [("verify", "CVS_POLYB", dict(p=p, k=k, n=n)) for n in range(1, 13)]
            for n in range(1, 7):
                ops += [("verify", name, dict(p=p, k=k, n=n)) for name in ("CVS_COSE", "CVS_COTA")]
    ops += [("verify", "DENOM_ORDER", dict(p=p, n=n)) for p in (3, 5, 7, 11) for n in range(1, 7)]
    # criterion 8: period propositions
    for p in (3, 5, 7):
        for k in range(0, 11):
            ops += [("verify", name, dict(p=p, k=k)) for name in ("PERIOD_B", "PERIOD_C", "PERIOD_CPK", "PERIOD_COSE_ODD")]
        for n in range(0, 11):
            ops += [("verify", name, dict(p=p, n=n)) for name in ("PERIOD_COSE_P1", "PERIOD_COTA_P1")]
    return ops


def oracle_ops() -> list[tuple]:
    """Closed forms against the series oracle, TildeD by series, and the bivariate sweeps."""
    ops = [("oracle_diff", family, k) for family in TABLE_FAMILIES for k in range(-12, 13)]
    ops += [("tilde", k) for k in range(-24, 1)]
    ops += [("verify", "GF_BIVARIATE", dict(nmax=m, kmax=m)) for m in (6, 8, 10)]
    ops += [("verify", "GF_SYM_B", dict(n=n, lmax=6)) for n in range(4)]
    ops += [("verify", "GF_SYM_COSE", dict(n=n, lmax=4)) for n in range(4)]
    return ops


WORKLOADS = {"table": table_ops, "verify": verify_ops, "oracle": oracle_ops}


def shuffled_indices(count: int, seed: int) -> list[int]:
    """The run order of a workload's ops: a seeded permutation of 0..count-1."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def run_op(polyseq, op: tuple, perturb: bool = False) -> str:
    """Run one op against the imported package and return its output text.

    `perturb` plants a fault through `verify`'s negative-control hook, which
    adds +1 to the left side of the first compared instance.
    """
    kind = op[0]
    if kind == "table":
        _, family, n = op
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = polyseq.cli.main(["table", "--family", family, "--n", str(n), TABLE_K, "--format", "csv"])
        if code != 0:
            raise RuntimeError(f"polyseq table exited with code {code}")
        return out.getvalue()
    if kind == "verify":
        _, name, params = op
        report = polyseq.verify(name, params, perturb_index=0 if perturb else None)
        return _report_text(report)
    if kind == "oracle_diff":
        _, family, k = op
        return _report_text(polyseq.oracle_diff(family, ORACLE_N_MAX, k, k))
    if kind == "tilde":
        _, k = op
        return "\n".join(str(polyseq.family_value("TildeD", n, k)) for n in range(TILDE_N_MAX + 1))
    raise ValueError(f"unknown op kind {kind!r}")


def _report_text(report) -> str:
    if not report.passed:
        raise RuntimeError(f"{report.identity} verdict {report.verdict}: {report.mismatches()[0]}")
    return report.to_json()
