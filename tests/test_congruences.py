"""Identity registry, residue arithmetic, reports, valuation data."""

import hashlib
import json
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyseq import (
    HypothesisViolation,
    cosecant_bivariate,
    sym_bernoulli_bivariate,
    sym_cosecant_bivariate,
    sym_poly_bernoulli,
    sym_polycosecant,
    NotPIntegral,
    Report,
    Residue,
    UsageError,
    ValuationReport,
    Witness,
    ZeroValuation,
    oracle_diff,
    ord_p,
    reduce_mod,
    registry_ids,
    valuation_report,
    verify,
)
from polyseq import families as fa
from polyseq.cli import OutputTable
from polyseq.congruences import _Checker, registry_doc
from polyseq.families import Family, family_value, family_value_by_method
from polyseq.signatures import CAPS, Role


def test_ord_p_examples():
    assert ord_p(F(1, 6), 3) == -1
    assert ord_p(F(176, 225), 5) == -2
    assert ord_p(121, 11) == 2
    assert ord_p(F(9, 2), 3) == 2
    with pytest.raises(ZeroValuation):
        ord_p(0, 5)


@pytest.mark.parametrize(
    "fn,args",
    [(ord_p, (5, 1)), (ord_p, (5, -1)), (ord_p, (5, 0)), (reduce_mod, (5, 1, 2)), (reduce_mod, (5, 3, -1))],
    ids=["ord_p-p1", "ord_p-p-1", "ord_p-p0", "reduce_mod-p1", "reduce_mod-N-1"],
)
def test_residue_primitives_reject_a_bad_base_or_exponent(fn, args):
    # p = 1 or -1 divides every integer, so stripping factors of p never ends
    with pytest.raises(ValueError):
        fn(*args)


def test_reduce_mod_examples():
    assert reduce_mod(88573, 3, 2).value == 4
    assert reduce_mod(786944, 3, 2).value == 2
    assert reduce_mod(F(1, 2), 3, 1).value == 2
    assert reduce_mod(F(-1, 3), 5, 2).modulus == 25
    with pytest.raises(NotPIntegral, match="^1/3 has a factor 3 in its denominator$"):
        reduce_mod(F(1, 3), 3, 1)
    # a composite p: 2 is not invertible mod 4 although ord_4(1/2) = 0
    with pytest.raises(NotPIntegral, match="^1/2 has a factor 2 in its denominator$"):
        reduce_mod(F(1, 2), 4, 1)
    with pytest.raises(NotPIntegral, match="^1/3 has a factor 3 in its denominator$"):
        reduce_mod(F(1, 3), 6, 1)
    assert reduce_mod(F(1, 5), 6, 2).value == 29  # 5 * 29 = 145 = 1 mod 36


def test_residue_primitives_take_exact_rationals_only():
    # 0.1 is the double 3602879701896397/2^55, which has no factor 5 and is 2 mod 9
    for q in (F(1, 10), "1/10"):
        assert ord_p(q, 5) == -1
        assert reduce_mod(q, 3, 2).value == 1  # 1/10 = 1 mod 9
    for call in (lambda: ord_p(0.1, 5), lambda: reduce_mod(0.1, 3, 2), lambda: ord_p(4.0, 2)):
        with pytest.raises(TypeError, match="float"):
            call()


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
    with pytest.raises(UsageError):
        # the family is fixed when the identity is registered
        verify("KUMMER_COSE", p=3, N=2, k=3, m=2, n=5, family="Cotangent")


@pytest.mark.parametrize("k", ["1", 1.0, True], ids=["str", "float", "bool"])
def test_verify_refuses_a_parameter_that_is_not_an_int(k):
    with pytest.raises(UsageError, match=f"^bad parameters for SUM_COSE: k must be an int, not {k!r}$"):
        verify("SUM_COSE", dict(p=3, N=1, n=1, k=k))
    assert verify("SUM_COSE", dict(p=3, N=1, n=1, k=1)).passed


# sha256 of verify(name, params).to_json(), recorded before the identities of a
# family pair shared one helper; every registry id appears at least once
GOLDEN_REPORTS = [
    ("CONV_EQ5", dict(n=3, k=-2), "8392ab6ba3622d1757714350be6e004c9889488adc11cd7f288053bb9f7ce9b6"),
    ("CONV_EQ6", dict(n=3, k=2), "8a1aa688f0959dae2ccb200f985abf830ab03c2f9b5485e505e794ff3678b427"),
    ("CVS_BERNOULLI", dict(n=12), "5dd6fb98beaa039c863d395b28bc4473029220f75d9546942f4515fb573ac85e"),
    ("CVS_COSE", dict(p=5, k=2, n=4), "4be29f75b2df3b93366228309904cf2db181837191858b644f561805c6ba58d8"),
    ("CVS_COSE", dict(p=7, k=2, n=4), "3893ee00ebc470c717b505ff615e979fd7c6addbe787a3a5df5d57e863e1fc0a"),
    ("CVS_COTA", dict(p=5, k=3, n=4), "fef1444bf053d0b709ce11c012947176dbf32edb62b667e539d2e1567737aae1"),
    ("CVS_COTA", dict(p=7, k=3, n=5), "51e380e8da2d3667d4c41c2e43a5b7d72640644936a7f3c86716226ff5718458"),
    ("CVS_POLYB", dict(p=5, k=2, n=8), "50ea87078840597220a7b919a048e3373458d9dd4354ca6e840b8104bd55a135"),
    ("CVS_POLYB", dict(p=5, k=2, n=9), "80776aab506bb2bcb55a23463f65407337532c2aa31337148f57815810180923"),
    ("CVS_POLYB", dict(p=5, k=3, n=6), "a1054d1a72e42c6e2618bd40ee9a70d312c08bf75d14d0307df7f2d99db8ce92"),
    ("DENOM_ORDER", dict(p=5, n=2), "76470608ab75598845131045a65691d05a03617d19d86d554764d4481dc168c3"),
    ("DUALITY_B", dict(lmax=4), "fb362645978a9a21a1952e3ffb823c2ced3774cd25418dd6df0e6c9bfa12f06e"),
    ("DUALITY_C", dict(lmax=4), "0a2788293c9c1492acd8a471d1cf00a2dd582b2c29a72968f9e4b1a3b3d9e1d6"),
    ("DUALITY_COSE", dict(lmax=4), "c5e208d90e789d1a15a768795c465241f9183588a6d68499d8b7d124e5c7377e"),
    ("DUALITY_COTA", dict(lmax=4), "d55a6df17220abe52c38d6826a3a0e4585e88ae588c4efb32e2b39b04e8296d2"),
    ("DUALITY_SYM_B", dict(lmax=3, nmax=2), "f2804767e0519e59ee987fd0af0186a1763b8dfcb1c0027d9cad8f94e864687d"),
    ("DUALITY_SYM_COSE", dict(lmax=3, nmax=2), "c33733391d517634e046a58051402038292fea356af47d5ed018e728bc2912e8"),
    ("GF_BIVARIATE", dict(nmax=4, kmax=4), "73290be88907e62f372e874f923ed1720245d91ba329511b7967f520c47d0572"),
    ("GF_SYM_B", dict(n=1, lmax=3), "381296c47ee9ff5064240b734178109a3b2b6cc9b3f0c0bd9570194f309bf576"),
    ("GF_SYM_COSE", dict(n=1, lmax=3), "f6920de6279058f6c192ff7b9795f9dde8c0f3fdf98ab6a84b2a469b0ef6b5c4"),
    ("KSHIFT", dict(n=6, k=-2), "d55fc30d514386aac924518aa980b72f944e56e7ad2ad354e8ad362ac64c3b1b"),
    ("KUMMER_BERNOULLI", dict(p=5, N=1, m=2, n=6), "ca5a0c4caa83ebfdab0b47331aad83aace1449a521d9b0f3748af3b8dc9a811b"),
    ("KUMMER_COSE", dict(p=3, N=2, k=3, m=2, n=5), "bdf30a1bdc1537c87de2ec6a658bd764294d0199de51023d9c3f687172679934"),
    ("KUMMER_COSE_ODD", dict(p=2, N=2, k=2, m=2, n=5), "d1a06bc307d8b0c72330f510184c2811e129e0918edabfa7ef769ac5fa305c91"),
    ("KUMMER_COSE_REMARK", dict(p=5, N=1, m=3, n=1), "7917aed9c09412f071bd259b3ab58675be6269c9a2b52a49c43923f952839718"),
    ("KUMMER_COTA", dict(p=3, N=2, k=3, m=2, n=5), "f10464baa482e9e15e0bcfb34faad246d79c6772d1558129b783d28488897655"),
    ("KUMMER_POLYB_B", dict(p=3, N=1, k=0, m=2, n=4), "cfef88d5385ab696624ed3e31ecca1213214bd45d2cc83a29d7fc1526c9c54f4"),
    ("KUMMER_POLYB_C", dict(p=5, N=1, k=3, m=2, n=6), "f5343f5ab9b2b7436dee0e9974160a5d0a0c9f1f635176034ac5ad2beea7943c"),
    ("PERIOD_B", dict(p=5, k=4), "bee4cfecb4293d702a87471eb128a682f13294f84c11da31f358ad29c8ba896b"),
    ("PERIOD_C", dict(p=5, k=4), "61d28452102d38db2dc28700c596330a17f50151d1a39763db81ae4c9f86ce21"),
    ("PERIOD_COSE_ODD", dict(p=5, k=2), "0b205d6ce63c23100641d3885996fd380f26b06495c5510e1cd1a8009bcbe867"),
    ("PERIOD_COSE_P1", dict(p=5, n=2), "0b8b4e578045a875d4cd07910e3ef7fbeeef25b896a4d2cefe5bb6fc880c914f"),
    ("PERIOD_COTA_P1", dict(p=5, n=2), "13dfea30ebc23c70118b614d0c877fd9fadea64ecee72b65cac811c3f9125d73"),
    ("PERIOD_CPK", dict(p=5, k=3), "0bc01c6dae8da77392f98fb100a6be373bbe6172fa676374658c506608636b9e"),
    ("STIRLING_CONG", dict(p=3, N=2, jmax=4, nmax=12), "2fd6a27f30115cb07faf980734b519e3e7d41ebb9dda95ad4695d0750a2956e7"),
    ("STIRLING_MOD_P", dict(p=5, a=2, nmax=12), "c1f86983574463668e4ac84571a9b2a7ae83b5ab1c71e37af79494765f992f20"),
    ("SUM_C", dict(p=5, N=1, n=3, k=2), "03d6cfc8459dfa2cb0298f839a30153e797f7b3541a4733e8877849ab7d9075d"),
    ("SUM_COSE", dict(p=3, N=2, n=3, k=3), "0a5a47483832d98236c5eca574fcac8ed03ced0a9519d0ed9019cab1f9a362c7"),
    ("SUM_COTA", dict(p=3, N=2, n=3, k=3), "3ac6c85beac75f148bdc7e08af84bd5ea6f4fdad35b4d54e156951e0eec903ac"),
    ("SUM_POLYB", dict(p=3, N=2, n=3, k=2), "08e9130869d8ab38eeb8b408c6caa7655c91d95683d6142881a881a20439bae6"),
    ("TWO_ORDER_COSE", dict(n=3, k=2), "1e56539496f166327198205f8178f66cbc0abd4a3f770296045348dfc36be3be"),
    ("TWO_ORDER_COTA", dict(n=3, k=1), "f9ba31299409e787368686eae37d571f1f199558d44edc22d212b1bb91e267e3"),
    ("VANISH_S1_B", dict(k=1, n=1, m=3), "bdfd68ae2bf86bc6699f93f6a63788857ce703587838a3bb103abb60fef6325e"),
    ("VANISH_S1_COSE", dict(k=-2, n=2, m=5), "714216284c495981ff2b15a079fffbd0f1b5666d76695f3326e0dbe82ade9cd3"),
    ("VANISH_S1_COTA", dict(k=1, n=1, m=4), "ecbca28c9010d1dbb33dadadfbd38cc234a9a547138da1533d064c1ed55e505f"),
]


def test_reports_match_their_recorded_digests():
    assert {name for name, _, _ in GOLDEN_REPORTS} == set(registry_ids())
    changed = [
        (name, params)
        for name, params, digest in GOLDEN_REPORTS
        if hashlib.sha256(verify(name, params).to_json().encode()).hexdigest() != digest
    ]
    assert not changed


def test_the_cli_writes_each_golden_report_byte_for_byte(capsys):
    from polyseq.cli import main

    for name, params, _ in GOLDEN_REPORTS:
        assert main(["verify", name, *(f"--{key}={value}" for key, value in params.items())]) == 0, name
        assert capsys.readouterr().out == verify(name, params).to_json(indent=2) + "\n", name


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


# identity -> (family, its symbol, scale s, shift): X_{sm}^{(-(sl + shift))} vs X_{sl}^{(-(sm + shift))}
_PLAIN_DUALITIES = {
    "DUALITY_B": (Family.POLY_B, "B", 1, 0),
    "DUALITY_C": (Family.POLY_C, "C", 1, 1),
    "DUALITY_COSE": (Family.COSECANT, "D", 2, 1),
    "DUALITY_COTA": (Family.COTANGENT, "beta", 2, 0),
}


def _reference_duality(name, lmax):
    """A plain duality sweep as it was before it read rows: both values of every witness read cell by cell,
    B and C at their default route and D and beta by their explicit route, under the same labels."""
    family, x, s, shift = _PLAIN_DUALITIES[name]
    checker = _Checker()
    for m in range(lmax + 1):
        for l in range(m):
            if s == 1:
                label = f"{x}_{m}^(-{l + shift}) vs {x}_{l}^(-{m + shift})"
                lhs, rhs = family_value(family, m, -(l + shift)), family_value(family, l, -(m + shift))
            else:
                label = f"{x}_{2 * m}^({-2 * l - shift}) vs {x}_{2 * l}^({-2 * m - shift})"
                lhs = family_value_by_method(family, 2 * m, -2 * l - shift, "explicit")
                rhs = family_value_by_method(family, 2 * l, -2 * m - shift, "explicit")
            checker.eq(label, lhs, rhs)
    return Report(name, {"lmax": lmax}, "pass" if checker.ok else "fail", checker.witnesses)


@pytest.mark.parametrize("name", _PLAIN_DUALITIES)
def test_plain_duality_sweeps_equal_the_cell_by_cell_reference(name):
    assert verify(name, lmax=24).to_json() == _reference_duality(name, 24).to_json()


# identity -> (witness label, per-cell definition value), both at (m, l, n)
_SYM_DUALITIES = {
    "DUALITY_SYM_B": (
        lambda m, l, n: f"sym-B(m={m}, l={l}, n={n})",
        lambda m, l, n: sym_poly_bernoulli(m, l, n, method="definition"),
    ),
    "DUALITY_SYM_COSE": (
        lambda m, l, n: f"sym-D(2m={2 * m}, 2l={2 * l}, n={n})",
        lambda m, l, n: sym_polycosecant(2 * m, 2 * l, n, method="definition"),
    ),
}


def _reference_duality_sym(name, lmax, nmax):
    """A symmetrized duality sweep as it was before it read rows: every value of each level's table read cell by cell."""
    label, value = _SYM_DUALITIES[name]
    checker = _Checker()
    for n in range(nmax + 1):
        values = [[value(m, l, n) for l in range(lmax + 1)] for m in range(lmax + 1)]
        for m in range(lmax + 1):
            for l in range(m):
                checker.eq(f"{label(m, l, n)} vs swapped", values[m][l], values[l][m])
    return Report(name, {"lmax": lmax, "nmax": nmax}, "pass" if checker.ok else "fail", checker.witnesses)


@pytest.mark.parametrize("name", _SYM_DUALITIES)
def test_symmetrized_duality_sweeps_equal_the_cell_by_cell_reference(name):
    for lmax in range(7):
        for nmax in range(4):
            assert verify(name, lmax=lmax, nmax=nmax).to_json() == _reference_duality_sym(name, lmax, nmax).to_json()


def _reference_gf(name, params, perturb_index=None):
    """A generating-function sweep as it was before it read rows: f.egf(i, j) against one value lookup per cell,
    both compared as Fractions by `check.eq`, under the same labels."""
    if name == "GF_BIVARIATE":
        rows, cols = params["nmax"], params["kmax"]
        f = cosecant_bivariate((rows, cols))
        label = lambda n, k: f"[t^{n} y^{k}] weighted vs D_{n}^(-{k})"
        value = lambda n, k: family_value(Family.COSECANT, n, -k)
    elif name == "GF_SYM_B":
        n, rows = params["n"], params["lmax"]
        f, cols = sym_bernoulli_bivariate(n, (rows, rows)), rows
        label = lambda l, m: f"[x^{l} y^{m}] weighted vs sym-B(m={m}, l={l}, n={n})"
        value = lambda l, m: sym_poly_bernoulli(m, l, n, method="closed_form")
    else:
        n, rows = params["n"], params["lmax"]
        f, cols = sym_cosecant_bivariate(n, (rows, rows)), rows
        label = lambda m, l: f"[t^{m} y^{l}] weighted vs sym-D(m={m}, l={l}, n={n})"
        value = lambda m, l: sym_polycosecant(m, l, n, method="definition")
    checker = _Checker(perturb_index)
    for i in range(rows + 1):
        for j in range(cols + 1):
            checker.eq(label(i, j), f.egf(i, j), value(i, j))
    return Report(name, dict(params), "pass" if checker.ok else "fail", checker.witnesses)


@pytest.mark.parametrize(
    "name, grid",
    [("GF_BIVARIATE", [dict(nmax=a, kmax=b) for a, b in ((0, 0), (4, 3), (3, 4), (10, 10))])]
    + [(name, [dict(n=n, lmax=lmax) for n in range(4) for lmax in range(7)]) for name in ("GF_SYM_B", "GF_SYM_COSE")],
    ids=["GF_BIVARIATE", "GF_SYM_B", "GF_SYM_COSE"],
)
def test_generating_function_sweeps_equal_the_per_cell_reference(name, grid):
    # compared as text, each witness must write the parent's bytes, unperturbed and perturbed at the
    # first, a middle and the last instance
    for params in grid:
        count = len(_reference_gf(name, params).witnesses)
        for index in (None, 0, count // 2, count - 1):
            report = verify(name, params, perturb_index=index)
            assert report.to_json() == _reference_gf(name, params, index).to_json(), (params, index)
            assert report.passed == (index is None)


def test_a_pair_past_the_digit_limit_is_bad_usage():
    limit = sys.get_int_max_str_digits()
    for lhs, rhs in (((10**limit, 3), (1, 1)), ((1, 1), (1, 10**limit + 1))):
        with pytest.raises(UsageError, match=rf"^cell \(1, 2\): a value has more than {limit} digits"):
            _Checker().eq_pairs("cell (1, 2)", lhs, rhs)


def test_a_duality_sweep_at_its_cap_builds_each_orders_row_once(monkeypatch):
    # read cell by cell, the 129 rows would pass twice through the 128-row LRU and be built 256 times
    built = []

    def counting(n):
        built.append(n)
        return fa._poly_bernoulli_row("B", n)

    kind, domain, _ = fa.ROUTES[Family.POLY_B]["stirling"]
    monkeypatch.setitem(fa.ROUTES[Family.POLY_B], "stirling", (kind, domain, fa._cached(counting)))
    assert verify("DUALITY_B", lmax=CAPS["duality"]).passed
    assert sorted(built) == list(range(CAPS["duality"] + 1))


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


# quotes, backslashes, control characters, DEL, non-ASCII, astral and line-separator characters, or any text
_TEXT = st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f aZ09-%{}é☃\u2028\U0001f600')) | st.text()
_PARAMS = st.dictionaries(
    _TEXT, st.none() | st.booleans() | st.integers() | _TEXT | st.lists(st.integers(), max_size=3), max_size=4
)
_WITNESSES = st.lists(
    st.builds(Witness, _TEXT, _TEXT, _TEXT, st.none() | st.just(0) | st.integers(0, 10**60)), max_size=4
)
_INDENTS = (None, 0, 2, 4)


@given(report=st.builds(Report, _TEXT, _PARAMS, _TEXT, _WITNESSES))
@example(report=Report("X", {}, "pass"))  # no params, no witnesses
@example(report=Report('"é\\', {"b": [1], "a": {}}, "fail", [Witness("\x00", "1", "1", 0), Witness("", "-1/2", "☃")]))
def test_report_text_is_the_json_modules_at_every_indent(report):
    # the template writer against the json module's text of `to_dict`, the reference layout
    for indent in _INDENTS:
        want = json.dumps(report.to_dict(), sort_keys=True, indent=indent)
        assert report.to_json(indent) == "".join(report.json_chunks(indent)) == want, indent


def test_report_chunks_are_one_per_witness_between_a_head_and_a_tail():
    report = verify("KUMMER_COSE", p=3, N=2, k=3, m=2, n=5)
    for indent in _INDENTS:
        chunks = list(report.json_chunks(indent))
        assert len(chunks) == len(report.witnesses) + 2
        assert json.loads("".join(chunks)) == report.to_dict()


_VALUATION_FIELDS = ("p", "index", "b", "d", "beta_hat", "ord_b", "ord_d", "ord_beta_hat", "alpha", "gamma", "branch")

# record -> (its fields in order, its defaults, an instance)
_RECORDS = {
    "Residue": (("value", "modulus"), {}, Residue(1, 5)),
    "Witness": (("instance", "lhs", "rhs", "modulus"), {"modulus": None}, Witness("x", "1", "1")),
    "Report": (("identity", "params", "verdict", "witnesses"), {"witnesses": ()}, Report("X", {}, "pass")),
    "ValuationReport": (_VALUATION_FIELDS, {}, ValuationReport(3, 2, 6, 3, 3, 1, 1, 1, 0, 2, "(p-1) | 2n")),
    "Role": (
        ("cap", "minimum", "scale", "offset", "prime", "phi"),
        {"cap": None, "minimum": None, "scale": 1, "offset": 0, "prime": "", "phi": False},
        Role(),
    ),
    "OutputTable": (("family", "n_range", "k_range", "rows"), {}, OutputTable(Family.COSECANT, (0, 0), (0, 0), [])),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_records_keep_their_fields_and_defaults_and_refuse_assignment(name):
    fields, defaults, record = _RECORDS[name]
    assert type(record)._fields == fields
    assert type(record)._field_defaults == defaults
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_a_residue_outside_its_range_is_refused():
    for value in (5, -1):
        with pytest.raises(ValueError, match="^residue out of range$"):
            Residue(value, 5)
    assert str(Residue(4, 5)) == "4 (mod 5)"


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


def test_perturbing_the_first_and_last_instance_fails_every_golden_report():
    # a negative control for each of the 45 parameter sets, which cover every identity
    unflipped = []
    for name, params, _ in GOLDEN_REPORTS:
        last = len(verify(name, params).witnesses) - 1
        for index in (0, last):
            broken = verify(name, params, perturb_index=index)
            if broken.passed or not broken.mismatches():
                unflipped.append((name, params, index))
    assert not unflipped


@pytest.mark.parametrize("index", [False, True, 1.0, "0"], ids=["False", "True", "float", "str"])
def test_verify_refuses_a_perturb_index_that_is_not_an_int(index):
    # False once planted the fault at instance 0, True and 1.0 at instance 1, and "0" raised a bare TypeError
    with pytest.raises(UsageError, match=f"^perturb index must be an int, not {index!r}$"):
        verify("SUM_POLYB", dict(p=3, N=1, k=1, n=1), perturb_index=index)
    assert verify("SUM_POLYB", dict(p=3, N=1, k=1, n=1), perturb_index=0).verdict == "fail"


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


def _listed_valuation_dict(rep):
    # ValuationReport.to_dict as it was written out field by field
    return {
        "p": rep.p,
        "index": rep.index,
        "b": str(rep.b),
        "d": str(rep.d),
        "beta_hat": str(rep.beta_hat),
        "ord_b": rep.ord_b,
        "ord_d": rep.ord_d,
        "ord_beta_hat": rep.ord_beta_hat,
        "alpha": rep.alpha,
        "gamma": rep.gamma,
        "branch": rep.branch,
    }


def test_valuation_dict_equals_the_listed_fields():
    # same keys in the same order, so `polyseq valuation` prints the same bytes
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 65):
            rep = valuation_report(p, n)
            assert list(rep.to_dict().items()) == list(_listed_valuation_dict(rep).items())


def test_oracle_diff():
    report = oracle_diff("Cosecant", 8, -4, 3)
    assert report.passed
    report = oracle_diff("TildeD", 6, -3, 0)
    assert report.passed and "note" not in report.params
    assert len(report.witnesses) == 7 * 4
    assert report.witnesses[0].instance == "TildeD(n=0, k=-3) explicit vs series"
    # one-point sweeps are not empty
    report = oracle_diff("Cotangent", 0, 3, 3)
    assert report.passed and report.witnesses and "note" not in report.params
    assert oracle_diff("TildeD", 0, 1, 1).params.get("note") == "single method"


@pytest.mark.parametrize("family,method", [("PolyB_B", "stirling"), ("Cosecant", "explicit")])
def test_oracle_diff_past_the_digit_limit_names_the_first_method(family, method):
    # the first cell whose value has more digits than Python writes out is bad usage, not a counterexample
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit Python accepts
    try:
        with pytest.raises(UsageError) as caught:
            oracle_diff(family, 64, 32, 32)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(caught.value) == (
        f"{family}(n=48, k=32) {method} vs series: a value has more than 640 digits, "
        "Python's limit for integer string conversion"
    )


@pytest.mark.parametrize("n_max,k_min,k_max", [(-1, 2, -2), (3, 2, -2), (-1, 0, 0)])
def test_oracle_diff_refuses_an_empty_sweep(n_max, k_min, k_max):
    # an empty sweep would otherwise pass with no witnesses
    with pytest.raises(UsageError):
        oracle_diff("Cosecant", n_max, k_min, k_max)


@pytest.mark.parametrize(
    "bounds,name,value",
    [
        ((True, 0, 0), "n_max", True),
        (("3", 0, 0), "n_max", "3"),
        ((3, 0.5, 1), "k_min", 0.5),
        ((3, False, 1), "k_min", False),
        ((3, 0, 1.0), "k_max", 1.0),
        ((3, 0, None), "k_max", None),
    ],
    ids=["n_max-bool", "n_max-str", "k_min-float", "k_min-bool", "k_max-float", "k_max-none"],
)
def test_oracle_diff_refuses_a_bound_that_is_not_an_int(bounds, name, value):
    # a bool would pass into the report's params; a string or a float would fail inside the sweep
    with pytest.raises(UsageError, match=f"^bad oracle sweep: {name} must be an int, not {value!r}$"):
        oracle_diff("PolyB_B", *bounds)


def test_the_checker_refuses_a_float_on_either_side():
    # 0.1 is the double 3602879701896397/2^55, which would be reported as a counterexample to 1/10
    checker = _Checker()
    calls = (
        lambda: checker.eq("x", 0.1, F(1, 10)),
        lambda: checker.eq("x", F(1, 10), 0.1),
        lambda: checker.eq_mod("y", 0.5, 2, 3, 1),
        lambda: checker.eq_mod("y", 2, 0.5, 3, 1),
        lambda: checker.p_integral("z", 0.5, 3),
    )
    for call in calls:
        with pytest.raises(TypeError, match="not the float"):
            call()
    assert checker.witnesses == [] and checker.ok
    # exact values of every accepted type still compare as before
    checker.eq("x", "1/10", F(1, 10))
    checker.eq_mod("y", F(1, 2), 2, 3, 1)
    assert checker.p_integral("z", F(1, 2), 3)
    assert [w.to_dict() for w in checker.witnesses] == [
        {"instance": "x", "lhs": "1/10", "rhs": "1/10"},
        {"instance": "y", "lhs": "2", "rhs": "2", "modulus": 3},
        {"instance": "z", "lhs": "1", "rhs": "1"},
    ]
    assert checker.ok


def test_generating_function_sweeps_refuse_bounds_past_their_caps_before_building(monkeypatch):
    from polyseq import congruences as cg
    from polyseq.signatures import CAPS

    def unbuilt(*args):
        raise AssertionError("a series was built for a sweep past its cap")

    for name in ("cosecant_bivariate", "sym_bernoulli_bivariate", "sym_cosecant_bivariate"):
        monkeypatch.setattr(cg, name, unbuilt)
    past = [
        ("GF_BIVARIATE", dict(nmax=CAPS["gf order"] + 1, kmax=0), "nmax must stay within 0..32"),
        ("GF_BIVARIATE", dict(nmax=0, kmax=CAPS["gf order"] + 1), "kmax must stay within 0..32"),
        ("GF_SYM_B", dict(n=CAPS["gf level"] + 1, lmax=0), "n must stay within 0..64"),
        ("GF_SYM_B", dict(n=0, lmax=CAPS["gf order"] + 1), "lmax must stay within 0..32"),
        ("GF_SYM_COSE", dict(n=CAPS["gf level"] + 1, lmax=0), "n must stay within 0..64"),
        ("GF_SYM_COSE", dict(n=0, lmax=CAPS["gf order"] + 1), "lmax must stay within 0..32"),
    ]
    for identity, params, message in past:
        with pytest.raises(UsageError, match=message):
            verify(identity, params)


def test_generating_function_sweeps_run_at_their_caps():
    from polyseq.signatures import CAPS

    assert verify("GF_BIVARIATE", dict(nmax=CAPS["gf order"], kmax=1)).passed
    assert verify("GF_BIVARIATE", dict(nmax=1, kmax=CAPS["gf order"])).passed
    assert verify("GF_SYM_B", dict(n=CAPS["gf level"], lmax=2)).passed
    assert verify("GF_SYM_COSE", dict(n=CAPS["gf level"], lmax=2)).passed


_PERIODS = ("PERIOD_B", "PERIOD_C", "PERIOD_CPK", "PERIOD_COSE_ODD")


def test_period_identities_refuse_an_order_index_past_the_cap_before_building(monkeypatch):
    from polyseq import families as fa

    def unbuilt(*args):
        raise AssertionError("a Stirling row was built for an order index past the cap")

    monkeypatch.setattr(fa, "stirling2", unbuilt)
    for name in _PERIODS:
        with pytest.raises(UsageError, match="p - 1 must stay within 512 in a period identity, not 10006"):
            verify(name, p=10007, k=0)
        # the cap comes before the hypotheses, so an oversized p is refused without a primality test
        with pytest.raises(UsageError, match="not 10007"):
            verify(name, p=10008, k=-1)


def test_sum_polyb_holds_below_its_hypothesis_n_at_least_N(monkeypatch):
    # a finding, pinned: the paper states n >= N, yet with only that hypothesis lifted every case
    # 1 <= n < N, p in {3, 5, 7}, N <= 4, N <= k <= N + 3 that the phi-terms cap admits passes
    from polyseq import congruences as cg

    cases = [(p, N, k, n) for p in (3, 5, 7) for N in range(1, 5) for n in range(1, N) for k in range(N, N + 4)]
    capped = {(5, 4), (7, 3), (7, 4)}  # (p-1)p^(N-1) > 256 terms
    for p, N, k, n in cases:
        if (p, N) not in capped:
            with pytest.raises(HypothesisViolation, match="^n >= N required$"):
                verify("SUM_POLYB", dict(p=p, N=N, k=k, n=n))
    required = cg._require
    monkeypatch.setattr(cg, "_require", lambda condition, message: message == "n >= N required" or required(condition, message))
    passed = 0
    for p, N, k, n in cases:
        if (p, N) in capped:
            with pytest.raises(UsageError, match=r"^\(p-1\)p\^\(N-1\) terms must stay within 1\.\.256 "):
                verify("SUM_POLYB", dict(p=p, N=N, k=k, n=n))
        else:
            assert verify("SUM_POLYB", dict(p=p, N=N, k=k, n=n)).passed, (p, N, k, n)
            passed += 1
    assert (passed, len(cases)) == (40, 72)


# (identity, the one hypothesis's message, parameters inside every other hypothesis, what the body
# gives with that message lifted): a refactor that drops or widens the hypothesis turns the exit-2
# refusal into this counterexample.  "2m" and "2n" are the orders 2 * m and 2 * n of the level-two
# identities, so KUMMER_COSE's 2m = 56 is m = 28.
_SHARP_HYPOTHESES = [
    ("KUMMER_BERNOULLI", "m = n mod phi(p^N) required", dict(p=3, N=1, m=2, n=1), NotPIntegral),
    ("KUMMER_BERNOULLI", "(p-1) must not divide n", dict(p=3, N=1, m=4, n=2), NotPIntegral),
    ("KUMMER_POLYB_B", "m = n mod phi(p^N) required", dict(p=3, N=1, k=1, m=2, n=1), "fail"),
    ("KUMMER_POLYB_B", "m, n >= N required", dict(p=3, N=2, k=2, m=7, n=1), "fail"),
    ("KUMMER_POLYB_C", "m = n mod phi(p^N) required", dict(p=3, N=1, k=2, m=2, n=1), "fail"),
    ("KUMMER_POLYB_C", "m, n >= N required", dict(p=3, N=3, k=3, m=19, n=1), "fail"),
    ("KUMMER_COSE", "2m = 2n mod phi(p^N) required", dict(p=3, N=2, k=2, m=2, n=1), "fail"),
    ("KUMMER_COSE", "2m, 2n >= N required", dict(p=3, N=4, k=3, m=28, n=1), "fail"),
    ("KUMMER_COTA", "2m = 2n mod phi(p^N) required", dict(p=3, N=2, k=1, m=2, n=1), "fail"),
    ("KUMMER_COTA", "2m, 2n >= N required", dict(p=3, N=3, k=2, m=10, n=1), "fail"),
    ("KUMMER_COSE_REMARK", "(p-1) must not divide 2n", dict(p=3, N=1, m=2, n=1), NotPIntegral),
    ("KUMMER_COSE_REMARK", "2m = 2n mod (p-1)p^{N-1} required", dict(p=5, N=1, m=2, n=1), NotPIntegral),
    ("SUM_POLYB", "k >= N required", dict(p=3, N=1, k=0, n=2), "fail"),
    ("SUM_COSE", "k >= N required", dict(p=3, N=2, k=1, n=1), "fail"),
    ("SUM_COTA", "k >= N required", dict(p=3, N=2, k=1, n=1), "fail"),
    ("SUM_C", "k >= N required", dict(p=3, N=2, k=1, n=2), "fail"),
    ("CVS_BERNOULLI", "n must be 1 or an even positive integer", dict(n=3), "fail"),
    ("CVS_POLYB", "k+2 <= p <= n+1 required", dict(p=2, k=2, n=3), "fail"),
    ("CVS_COSE", "k+2 <= p <= 2n+1 required", dict(p=3, k=2, n=4), "fail"),
    ("CVS_COTA", "k+2 <= p <= 2n+1 required", dict(p=3, k=2, n=4), "fail"),
    ("VANISH_S1_B", "0 <= n <= m-1 required (the sum does not vanish at n = m)", dict(k=0, n=1, m=1), "fail"),
    ("VANISH_S1_COSE", "m >= 2n+1 required (the sum does not vanish at m = 2n)", dict(k=0, n=1, m=1), "fail"),
    ("VANISH_S1_COTA", "m >= 2n+1 required (the sum does not vanish at m = 2n)", dict(k=0, n=1, m=0), "fail"),
]


# each message as the id's short hypothesis, without spaces
_HYPOTHESIS_IDS = {
    "m = n mod phi(p^N) required": "m=n_mod_phi",
    "(p-1) must not divide n": "p-1_not_dividing_n",
    "m, n >= N required": "m,n>=N",
    "2m = 2n mod phi(p^N) required": "2m=2n_mod_phi",
    "2m, 2n >= N required": "2m,2n>=N",
    "(p-1) must not divide 2n": "p-1_not_dividing_2n",
    "2m = 2n mod (p-1)p^{N-1} required": "2m=2n_mod_phi",
    "k >= N required": "k>=N",
    "n must be 1 or an even positive integer": "n=1_or_even",
    "k+2 <= p <= n+1 required": "k+2<=p<=n+1",
    "k+2 <= p <= 2n+1 required": "k+2<=p<=2n+1",
    "0 <= n <= m-1 required (the sum does not vanish at n = m)": "n<m",
    "m >= 2n+1 required (the sum does not vanish at m = 2n)": "m>=2n+1",
}


@pytest.mark.parametrize(
    "name,message,params,lifted",
    _SHARP_HYPOTHESES,
    ids=[f"{name}-{_HYPOTHESIS_IDS[message]}" for name, message, _, _ in _SHARP_HYPOTHESES],
)
def test_each_hypothesis_has_a_counterexample_just_outside_it(monkeypatch, name, message, params, lifted):
    from polyseq import congruences as cg

    with pytest.raises(HypothesisViolation, match=f"^{re.escape(message)}$"):
        verify(name, params)
    required = cg._require
    monkeypatch.setattr(cg, "_require", lambda condition, text: text == message or required(condition, text))
    if lifted == "fail":
        assert verify(name, params).verdict == "fail"
    else:
        with pytest.raises(lifted):
            verify(name, params)


def _is_theorem_minimum(role: Role) -> bool:
    """An order index's least value 1 (or N's, or a's), or any weight's least value: a theorem's hypothesis.
    A least value 0 of an index with a cap only keeps the index non-negative."""
    return role.minimum is not None and (role.minimum >= 1 or role.cap is None)


_DIVIDES = (HypothesisViolation, "(p-1) must not divide n")
_ORDERS = (HypothesisViolation, "m, n >= N required")
_ORDERS2 = (HypothesisViolation, "2m, 2n >= N required")
_K_AT_LEAST_N = (HypothesisViolation, "k >= N required")
_PHI_NOT_INT = (TypeError, "'float' object cannot be interpreted as an integer")  # phi(p^0) = (p-1)/p

# (identity, parameter, parameters with that one just below its `Signature` minimum and all else inside the
# theorem, what verify gives with only that minimum lifted): "fail" or NotPIntegral is a counterexample;
# "pass" means none exists (see the sweep below); a body hypothesis that still refuses shows the minimum is
# implied by it; TypeError and ValueError show the body is not defined there.  At N = 0 the modulus is
# p^0 = 1, so a Kummer congruence cannot fail, and a sum over phi(p^0) terms is no sum.
_SHARP_MINIMUMS = [
    ("KUMMER_BERNOULLI", "N", dict(p=3, N=0, m=1, n=1), "pass"),
    ("KUMMER_BERNOULLI", "m", dict(p=3, N=1, m=0, n=2), _DIVIDES),
    ("KUMMER_BERNOULLI", "n", dict(p=3, N=1, m=2, n=0), _DIVIDES),
    ("KUMMER_POLYB_B", "N", dict(p=3, N=0, k=0, m=1, n=1), "pass"),
    ("KUMMER_POLYB_B", "k", dict(p=3, N=1, k=-1, m=1, n=3), "fail"),
    ("KUMMER_POLYB_B", "m", dict(p=3, N=1, k=0, m=0, n=2), _ORDERS),
    ("KUMMER_POLYB_B", "n", dict(p=3, N=1, k=0, m=2, n=0), _ORDERS),
    ("KUMMER_POLYB_C", "N", dict(p=3, N=0, k=0, m=1, n=1), "pass"),
    ("KUMMER_POLYB_C", "k", dict(p=3, N=1, k=-1, m=1, n=3), "fail"),
    ("KUMMER_POLYB_C", "m", dict(p=3, N=1, k=0, m=0, n=2), _ORDERS),
    ("KUMMER_POLYB_C", "n", dict(p=3, N=1, k=0, m=2, n=0), _ORDERS),
    ("KUMMER_COSE", "N", dict(p=3, N=0, k=1, m=1, n=1), "pass"),
    ("KUMMER_COSE", "k", dict(p=3, N=1, k=0, m=1, n=2), "pass"),  # D_{2n}^{(0)} = 0 for n >= 1
    ("KUMMER_COSE", "m", dict(p=3, N=1, k=1, m=0, n=1), _ORDERS2),
    ("KUMMER_COSE", "n", dict(p=3, N=1, k=1, m=1, n=0), _ORDERS2),
    ("KUMMER_COTA", "N", dict(p=3, N=0, k=1, m=1, n=1), "pass"),
    ("KUMMER_COTA", "k", dict(p=3, N=1, k=0, m=1, n=2), "pass"),  # beta_{2n}^{(0)} = 1
    ("KUMMER_COTA", "m", dict(p=3, N=1, k=1, m=0, n=1), _ORDERS2),
    ("KUMMER_COTA", "n", dict(p=3, N=1, k=1, m=1, n=0), _ORDERS2),
    ("KUMMER_COSE_ODD", "N", dict(p=3, N=0, k=1, m=1, n=1), "pass"),
    ("KUMMER_COSE_ODD", "k", dict(p=5, N=1, k=0, m=1, n=3), "fail"),
    ("KUMMER_COSE_ODD", "m", dict(p=3, N=1, k=1, m=0, n=1), _ORDERS2),
    ("KUMMER_COSE_ODD", "n", dict(p=3, N=1, k=1, m=1, n=0), _ORDERS2),
    ("KUMMER_COSE_REMARK", "N", dict(p=5, N=0, m=1, n=1), "pass"),
    # 2m = 0 = 2n mod phi(p^N) would make (p-1) divide 2n, which the body checks first
    ("KUMMER_COSE_REMARK", "m", dict(p=3, N=1, m=0, n=1), (HypothesisViolation, "(p-1) must not divide 2n")),
    ("KUMMER_COSE_REMARK", "n", dict(p=5, N=1, m=1, n=0), (HypothesisViolation, "(p-1) must not divide 2n")),
    ("SUM_POLYB", "N", dict(p=3, N=0, k=1, n=1), _PHI_NOT_INT),
    ("SUM_POLYB", "n", dict(p=3, N=1, k=1, n=0), (HypothesisViolation, "n >= N required")),
    ("SUM_COSE", "N", dict(p=3, N=0, n=1, k=1), _PHI_NOT_INT),
    ("SUM_COSE", "k", dict(p=3, N=1, n=1, k=0), _K_AT_LEAST_N),
    ("SUM_COTA", "N", dict(p=3, N=0, n=1, k=1), _PHI_NOT_INT),
    ("SUM_COTA", "k", dict(p=3, N=1, n=1, k=0), _K_AT_LEAST_N),
    ("SUM_C", "N", dict(p=3, N=0, n=1, k=1), _PHI_NOT_INT),
    ("SUM_C", "k", dict(p=3, N=1, n=1, k=0), _K_AT_LEAST_N),
    ("TWO_ORDER_COSE", "n", dict(n=0, k=1), "pass"),  # modulo 2^0 = 1
    ("TWO_ORDER_COSE", "k", dict(n=1, k=0), "pass"),  # D_{2n}^{(0)} = 0 for n >= 1
    ("TWO_ORDER_COTA", "n", dict(n=0, k=0), (ValueError, "N = -1 must be >= 0")),  # modulo 2^(2n-1) = 1/2
    ("TWO_ORDER_COTA", "k", dict(n=1, k=-1), "pass"),  # weight +1: no counterexample at n <= 64
    ("CVS_BERNOULLI", "n", dict(n=0), "pass"),  # B_0 = 1
    ("CVS_POLYB", "k", dict(p=3, k=1, n=3), "fail"),
    ("CVS_POLYB", "n", dict(p=5, k=2, n=0), (HypothesisViolation, "k+2 <= p <= n+1 required")),
    ("CVS_COSE", "k", dict(p=5, k=1, n=3), "fail"),
    ("CVS_COSE", "n", dict(p=5, k=2, n=0), (HypothesisViolation, "k+2 <= p <= 2n+1 required")),
    ("CVS_COTA", "k", dict(p=5, k=1, n=3), "fail"),
    ("CVS_COTA", "n", dict(p=5, k=2, n=0), (HypothesisViolation, "k+2 <= p <= 2n+1 required")),
    ("DENOM_ORDER", "n", dict(p=3, n=0), "pass"),  # B_0 = D_0^{(1)} = beta_0^{(1)} = 1
    ("VANISH_S1_B", "m", dict(k=0, n=0, m=0), (HypothesisViolation, "0 <= n <= m-1 required (the sum does not vanish at n = m)")),
    ("VANISH_S1_COSE", "n", dict(k=0, n=0, m=1), "pass"),  # D_0^{(k)} = 1 at every k
    ("VANISH_S1_COTA", "n", dict(k=0, n=0, m=1), "pass"),  # beta_0^{(k)} = 1 at every k
    ("STIRLING_MOD_P", "a", dict(p=3, a=0, nmax=4), (ValueError, "k must be a non-negative integer")),  # C(c-1, -1)
    ("STIRLING_CONG", "N", dict(p=3, N=0, jmax=3, nmax=4), _PHI_NOT_INT),
]


def _lift_minimum(monkeypatch, name: str, param: str) -> int:
    """Drop the `Signature` minimum of one parameter of one identity, and return it."""
    from polyseq import congruences as cg

    roles = cg._REGISTRY[name][2].roles
    minimum = roles[param].minimum
    monkeypatch.setitem(roles, param, roles[param]._replace(minimum=None))
    return minimum


@pytest.mark.parametrize(
    "name,param,params,lifted",
    _SHARP_MINIMUMS,
    ids=[f"{name}-{param}>={params[param] + 1}" for name, param, params, _ in _SHARP_MINIMUMS],
)
def test_each_signature_minimum_refuses_just_below_it(monkeypatch, name, param, params, lifted):
    with pytest.raises(HypothesisViolation, match=f"^{param} must be >= {params[param] + 1}$"):
        verify(name, params)
    assert _lift_minimum(monkeypatch, name, param) == params[param] + 1
    if isinstance(lifted, str):
        assert verify(name, params).verdict == lifted
    else:
        error, message = lifted
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            verify(name, params)


def test_every_theorem_minimum_has_one_sharpness_case():
    from polyseq import congruences as cg

    declared = sorted(
        (name, param)
        for name in registry_ids()
        for param, role in cg._REGISTRY[name][2].roles.items()
        if _is_theorem_minimum(role)
    )
    assert sorted((name, param) for name, param, _, _ in _SHARP_MINIMUMS) == declared
    assert len(declared) == 51


def test_signature_minimums_without_a_counterexample_hold_below_them(monkeypatch):
    # a finding, pinned: with only that minimum lifted, every case of these sweeps passes.  Most are identities
    # of the values (D_{2n}^{(0)} = 0 and beta_{2n}^{(0)} = 1 for n >= 1, D_0^{(k)} = beta_0^{(k)} = 1), but
    # TWO_ORDER_COTA at k = -1, beta_{2n}^{(1)} = 0 mod 2^(2n-1), is a statement at a positive weight
    kummer = [dict(p=p, N=N, k=0, m=m, n=n) for p in (3, 5) for N in (1, 2) for m in range(1, 9) for n in range(1, 9)]
    sweeps = [
        ("KUMMER_COSE", "k", kummer),
        ("KUMMER_COTA", "k", kummer),
        ("TWO_ORDER_COSE", "k", [dict(n=n, k=0) for n in range(1, 33)]),
        ("TWO_ORDER_COSE", "n", [dict(n=0, k=k) for k in range(1, 33)]),
        ("TWO_ORDER_COTA", "k", [dict(n=n, k=-1) for n in range(1, 33)]),
        ("VANISH_S1_COSE", "n", [dict(k=k, n=0, m=m) for k in range(-3, 6) for m in range(1, 9)]),
        ("VANISH_S1_COTA", "n", [dict(k=k, n=0, m=m) for k in range(-3, 6) for m in range(1, 9)]),
        ("DENOM_ORDER", "n", [dict(p=p, n=0) for p in (3, 5, 7, 11, 13)]),
    ]
    ran = passed = 0
    for name, param, cases in sweeps:
        _lift_minimum(monkeypatch, name, param)
        for params in cases:
            try:
                report = verify(name, params)
            except HypothesisViolation:
                continue  # a body hypothesis, here the congruence of the orders
            ran += 1
            passed += report.passed
    assert (passed, ran) == (497, 497)


def test_period_identities_run_at_the_largest_prime_within_the_cap():
    from polyseq.signatures import CAPS

    assert CAPS["order"] == 512  # 509 is the largest prime p with p - 1 <= 512
    for name in _PERIODS:
        assert verify(name, p=509, k=1).passed, name


def test_every_identity_declares_each_of_its_parameters_once():
    import inspect

    from polyseq import congruences as cg
    from polyseq.signatures import CAPS

    for name in registry_ids():
        run, _, signature = cg._REGISTRY[name]
        # the parameters after the checker, in order, bound per-family arguments aside
        assert list(inspect.signature(run).parameters)[1:] == list(signature.roles), name
        assert all(role.cap is None or role.cap in CAPS for role in signature.roles.values()), name


def test_the_signature_checks_type_then_cap_then_minimum_then_primality():
    # p = 4 is no prime, k = 0 is below its minimum, m = 300 builds the order 600 past the cap, n is a float
    params = dict(p=4, N=1, k=0, m=300, n=1)
    with pytest.raises(UsageError, match="^bad parameters for KUMMER_COSE: n must be an int, not 1.0$"):
        verify("KUMMER_COSE", {**params, "n": 1.0})
    with pytest.raises(UsageError, match="^2m must stay within 2..512 in a Kummer congruence, not 600$"):
        verify("KUMMER_COSE", params)
    with pytest.raises(HypothesisViolation, match="^k must be >= 1$"):
        verify("KUMMER_COSE", {**params, "m": 1})
    with pytest.raises(HypothesisViolation, match="^p = 4 must be an odd prime$"):
        verify("KUMMER_COSE", {**params, "m": 1, "k": 1})
    with pytest.raises(HypothesisViolation, match="^p = 2 must be an odd prime$"):
        verify("KUMMER_COSE", {**params, "p": 2, "m": 1, "k": 1})
    with pytest.raises(UsageError, match="^bad parameters for KUMMER_COSE: takes p, N, k, m, n, not p, N$"):
        verify("KUMMER_COSE", p=3, N=1)


def test_valuation_report_checks_its_parameters_as_denom_order_does():
    with pytest.raises(HypothesisViolation, match="^p = 9 must be an odd prime$"):
        valuation_report(9, 1)
    with pytest.raises(HypothesisViolation, match="^n must be >= 1$"):
        valuation_report(5, 0)
    with pytest.raises(UsageError, match="^2n must stay within 2..512 in a denominator order, not 514$"):
        valuation_report(5, 257)
    with pytest.raises(UsageError, match="^bad parameters for valuation_report: p must be an int, not 5.0$"):
        valuation_report(5.0, 1)


def test_congruences_at_large_primes_take_phi_and_primality_without_trial_division():
    # phi(p^N) = (p - 1) p^(N - 1) once p is known prime; p = 2^61 - 1 is decided by Miller-Rabin
    assert verify("KUMMER_POLYB_B", p=1000000007, N=2, k=2, m=2, n=2).passed
    assert verify("KUMMER_COSE", p=2**61 - 1, N=1, k=1, m=1, n=1).passed
    assert verify("STIRLING_CONG", p=1000000007, N=3, jmax=2, nmax=4).passed
    with pytest.raises(HypothesisViolation, match="must be an odd prime"):
        verify("KUMMER_COSE", p=2**61 + 1, N=1, k=1, m=1, n=1)


def test_sweeps_run_at_their_caps():
    from polyseq.signatures import CAPS

    assert verify("SUM_C", p=257, N=1, n=2, k=1).passed  # 256 terms, the cap
    assert verify("STIRLING_CONG", p=3, N=1, jmax=CAPS["stirling"], nmax=CAPS["stirling"]).passed
    assert verify("DUALITY_SYM_B", lmax=CAPS["sym duality"], nmax=1).passed
    assert verify("KSHIFT", n=CAPS["conversion"], k=0).passed
    assert verify("PERIOD_COTA_P1", p=509, n=CAPS["order"] // 2).passed


def test_period_p1_identities_take_p_minus_1_as_a_weight_without_a_cap():
    # D_{2n}^{(-p+1)} and beta_{2n}^{(-p+1)}: p - 1 is a weight here, so only 2n is capped as an order
    assert verify("PERIOD_COSE_P1", p=1031, n=1).passed
    assert verify("PERIOD_COTA_P1", p=1031, n=1).passed
    with pytest.raises(UsageError, match="^2n must stay within 0..512 in a period identity, not 514$"):
        verify("PERIOD_COSE_P1", p=3, n=257)
