"""Identity registry, residue arithmetic, reports, valuation data."""

import json
import random
from fractions import Fraction as F

import pytest

from polyseq import (
    HypothesisViolation,
    NotPIntegral,
    UsageError,
    ZeroValuation,
    oracle_diff,
    ord_p,
    reduce_mod,
    registry_ids,
    valuation_report,
    verify,
)
from polyseq.congruences import registry_doc


def test_ord_p_examples():
    assert ord_p(F(1, 6), 3) == -1
    assert ord_p(F(176, 225), 5) == -2
    assert ord_p(121, 11) == 2
    assert ord_p(F(9, 2), 3) == 2
    with pytest.raises(ZeroValuation):
        ord_p(0, 5)


def test_reduce_mod_examples():
    assert reduce_mod(88573, 3, 2).value == 4
    assert reduce_mod(786944, 3, 2).value == 2
    assert reduce_mod(F(1, 2), 3, 1).value == 2
    assert reduce_mod(F(-1, 3), 5, 2).modulus == 25
    with pytest.raises(NotPIntegral):
        reduce_mod(F(1, 3), 3, 1)


def test_registry_lists_every_documented_identity():
    expected = {
        "KUMMER_BERNOULLI", "KUMMER_POLYB_B", "KUMMER_POLYB_C", "SUM_POLYB",
        "KUMMER_COSE_ODD", "KUMMER_COSE", "KUMMER_COTA", "TWO_ORDER_COSE",
        "TWO_ORDER_COTA", "PERIOD_B", "PERIOD_C", "PERIOD_CPK",
        "PERIOD_COSE_ODD", "PERIOD_COSE_P1", "PERIOD_COTA_P1", "SUM_COSE",
        "SUM_COTA", "SUM_C", "CVS_BERNOULLI", "CVS_POLYB", "CVS_COSE",
        "CVS_COTA", "DENOM_ORDER", "KUMMER_COSE_REMARK", "DUALITY_B",
        "DUALITY_C", "DUALITY_COSE", "DUALITY_COTA", "DUALITY_SYM_B",
        "DUALITY_SYM_COSE", "VANISH_S1_B", "VANISH_S1_COSE", "VANISH_S1_COTA",
        "CONV_EQ5", "CONV_EQ6", "KSHIFT", "GF_BIVARIATE", "GF_SYM_B",
        "GF_SYM_COSE", "STIRLING_MOD_P", "STIRLING_CONG",
    }
    assert expected <= set(registry_ids())
    for name in expected:
        assert registry_doc(name)


def test_unknown_identity_and_bad_params():
    with pytest.raises(UsageError):
        verify("NO_SUCH_IDENTITY", {})
    with pytest.raises(UsageError):
        verify("KUMMER_COSE", p=3)  # missing parameters


def test_kummer_cose_worked_example():
    report = verify("KUMMER_COSE", p=3, N=2, k=3, m=2, n=5)
    assert report.passed
    (w,) = report.witnesses
    assert (w.lhs, w.rhs, w.modulus) == ("4", "4", 9)
    report = verify("KUMMER_COTA", p=3, N=2, k=3, m=2, n=5)
    assert report.witnesses[0].lhs == "2"


def test_kummer_bernoulli_hypothesis_gate():
    with pytest.raises(HypothesisViolation):
        verify("KUMMER_BERNOULLI", p=3, N=1, m=2, n=4)  # (p-1) divides n
    assert verify("KUMMER_BERNOULLI", p=5, N=1, m=2, n=6).passed
    assert verify("KUMMER_BERNOULLI", p=7, N=2, m=4, n=46).passed


def test_sum_cose_worked_example():
    report = verify("SUM_COSE", p=3, N=2, n=3, k=3)
    assert report.passed
    assert report.witnesses[0].lhs == "6"
    assert report.witnesses[1].rhs == "0"  # the mod p^{N-1} corollary
    report = verify("SUM_COTA", p=3, N=2, n=3, k=3)
    assert report.witnesses[0].lhs == "3"


def test_sum_hypothesis_gate():
    with pytest.raises(HypothesisViolation):
        verify("SUM_COSE", p=3, N=2, n=3, k=1)  # k < N
    with pytest.raises(HypothesisViolation):
        verify("SUM_POLYB", p=3, N=1, n=2, k=0)  # k < N: the sum is 5, not 0 mod 3


def test_kummer_odd_weights_allow_p_two():
    # the odd-weight congruence is stated for every prime, including 2
    assert verify("KUMMER_COSE_ODD", p=2, N=2, k=2, m=2, n=5).passed
    with pytest.raises(HypothesisViolation):
        verify("KUMMER_COSE", p=2, N=2, k=2, m=2, n=5)  # general form needs p odd


def test_vanish_worked_example():
    report = verify("VANISH_S1_COSE", k=-2, n=2, m=5)
    assert report.passed
    assert "1408/15, -1918/15, 0, -85, 240, -121" in report.witnesses[0].instance
    with pytest.raises(HypothesisViolation):
        verify("VANISH_S1_COSE", k=-2, n=2, m=4)  # m = 2n corner is excluded
    with pytest.raises(HypothesisViolation):
        verify("VANISH_S1_B", k=0, n=3, m=3)  # n = m corner is excluded


def test_cvs_cose_branch_one_example():
    report = verify("CVS_COSE", p=5, k=2, n=4)
    assert report.passed
    assert report.witnesses[1].rhs == "4"  # -1 mod 5
    with pytest.raises(HypothesisViolation):
        verify("CVS_COSE", p=5, k=4, n=4)  # k+2 > p
    with pytest.raises(HypothesisViolation):
        verify("CVS_COSE", p=11, k=2, n=4)  # p > 2n+1


def test_period_branch_examples():
    report = verify("PERIOD_COSE_P1", p=5, n=2)
    assert report.passed  # (p-1) | 2n branch: D_4^{(-4)} = 1 mod 5
    report = verify("PERIOD_COSE_P1", p=5, n=1)
    assert report.passed  # other branch: 0 mod 5
    report = verify("PERIOD_COTA_P1", p=5, n=0)
    assert report.passed


def test_two_order():
    assert verify("TWO_ORDER_COSE", n=6, k=6).passed
    assert verify("TWO_ORDER_COTA", n=6, k=0).passed
    with pytest.raises(HypothesisViolation):
        verify("TWO_ORDER_COSE", n=0, k=1)


def test_conversions_and_shift():
    assert verify("CONV_EQ5", n=3, k=-2).passed
    assert verify("CONV_EQ6", n=3, k=2).passed
    assert verify("KSHIFT", n=6, k=-2).passed


def test_duality_reports():
    for name in ("DUALITY_B", "DUALITY_C", "DUALITY_COSE", "DUALITY_COTA"):
        report = verify(name, lmax=6)
        assert report.passed
        assert len(report.witnesses) == 21
    assert verify("DUALITY_SYM_B", lmax=4, nmax=3).passed
    assert verify("DUALITY_SYM_COSE", lmax=4, nmax=3).passed


def test_stirling_identities():
    assert verify("STIRLING_MOD_P", p=5, a=2, nmax=20).passed
    assert verify("STIRLING_CONG", p=3, N=2, jmax=6, nmax=16).passed


def test_report_serialization_shape_and_stability():
    report = verify("KUMMER_COSE", p=3, N=2, k=3, m=2, n=5)
    payload = json.loads(report.to_json())
    assert set(payload) == {"identity", "params", "verdict", "witnesses"}
    assert payload["identity"] == "KUMMER_COSE"
    assert payload["verdict"] == "pass"
    assert payload["witnesses"][0]["modulus"] == 9
    assert set(payload["witnesses"][0]) == {"instance", "lhs", "rhs", "modulus"}
    again = verify("KUMMER_COSE", p=3, N=2, k=3, m=2, n=5)
    assert report.to_json() == again.to_json()


def test_equality_witnesses_have_no_modulus():
    report = verify("DUALITY_B", lmax=3)
    payload = json.loads(report.to_json())
    assert all("modulus" not in w for w in payload["witnesses"])


def test_perturbation_flips_verdict():
    cases = [
        ("KUMMER_COSE", dict(p=3, N=2, k=3, m=2, n=5)),
        ("DUALITY_COTA", dict(lmax=4)),
        ("CVS_COSE", dict(p=5, k=2, n=4)),
        ("SUM_C", dict(p=5, N=1, n=3, k=2)),
        ("GF_BIVARIATE", dict(nmax=4, kmax=4)),
    ]
    rng = random.Random(7)
    for name, params in cases:
        clean = verify(name, params)
        assert clean.passed
        index = rng.randrange(len(clean.witnesses))
        broken = verify(name, params, perturb_index=index)
        assert not broken.passed
        assert broken.mismatches()


def test_registry_sweeps_over_documented_grids():
    # every congruence identity across p in {3,5,7}, N in {1,2}, small orders
    # and weights; hypothesis violations mark invalid lattice points
    ran = 0
    for p in (3, 5, 7):
        for N in (1, 2):
            for m in range(1, 9):
                for n in range(1, 9):
                    for k in range(0, 9):
                        for name in (
                            "KUMMER_POLYB_B",
                            "KUMMER_POLYB_C",
                            "KUMMER_COSE",
                            "KUMMER_COTA",
                            "KUMMER_COSE_ODD",
                        ):
                            try:
                                report = verify(name, p=p, N=N, k=k, m=m, n=n)
                            except HypothesisViolation:
                                continue
                            assert report.passed, (name, p, N, k, m, n)
                            ran += 1
    assert ran > 300


def test_sum_and_period_sweeps():
    for p in (3, 5, 7):
        for N in (1, 2):
            for n in range(0, 7):
                for k in range(1, 7):
                    for name in ("SUM_COSE", "SUM_COTA", "SUM_C", "SUM_POLYB"):
                        try:
                            report = verify(name, p=p, N=N, n=n, k=k)
                        except HypothesisViolation:
                            continue
                        assert report.passed, (name, p, N, n, k)
        for k in range(0, 11):
            for name in ("PERIOD_B", "PERIOD_C", "PERIOD_CPK", "PERIOD_COSE_ODD"):
                assert verify(name, p=p, k=k).passed, (name, p, k)
        for n in range(0, 11):
            assert verify("PERIOD_COSE_P1", p=p, n=n).passed
            assert verify("PERIOD_COTA_P1", p=p, n=n).passed


def test_cvs_and_remark_sweeps():
    for n in [1] + list(range(2, 13, 2)):
        assert verify("CVS_BERNOULLI", n=n).passed
    for p in (5, 7, 11):
        for k in range(2, p - 1):
            for n in range(1, 13):
                try:
                    report = verify("CVS_POLYB", p=p, k=k, n=n)
                except HypothesisViolation:
                    continue
                assert report.passed, ("CVS_POLYB", p, k, n)
    for p in (3, 5, 7):
        for N in (1, 2):
            step = (p - 1) * p ** (N - 1)
            for n in range(1, 7):
                try:
                    report = verify("KUMMER_COSE_REMARK", p=p, N=N, m=n + step // 2, n=n)
                except HypothesisViolation:
                    continue
                assert report.passed


def test_valuation_report():
    rep = valuation_report(5, 2)
    assert rep.index == 4
    assert rep.b == 30 and rep.d == 15 and rep.beta_hat == 15
    assert rep.ord_b == rep.ord_d == rep.ord_beta_hat == 1
    assert rep.branch == "(p-1) | 2n"
    rep = valuation_report(7, 2)
    assert rep.ord_b == rep.ord_d == rep.ord_beta_hat == 0
    assert rep.alpha == 4
    payload = rep.to_dict()
    assert payload["index"] == 4 and payload["p"] == 7
    for p in (3, 5, 7, 11):
        for n in range(1, 9):
            assert verify("DENOM_ORDER", p=p, n=n).passed


def test_oracle_diff():
    report = oracle_diff("Cosecant", 8, -4, 3)
    assert report.passed
    report = oracle_diff("TildeD", 6, -3, 0)
    assert report.passed
    assert report.params.get("note") == "single method"
    # one-point sweeps are not empty
    report = oracle_diff("Cotangent", 0, 3, 3)
    assert report.passed and report.witnesses and "note" not in report.params
    assert oracle_diff("TildeD", 0, 1, 1).params.get("note") == "single method"


@pytest.mark.parametrize("n_max,k_min,k_max", [(-1, 2, -2), (3, 2, -2), (-1, 0, 0)])
def test_oracle_diff_refuses_an_empty_sweep(n_max, k_min, k_max):
    # an empty sweep would otherwise pass with no witnesses
    with pytest.raises(UsageError):
        oracle_diff("Cosecant", n_max, k_min, k_max)
