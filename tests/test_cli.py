"""Command-line interface: tables, formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyseq import congruences as cg
from polyseq.cli import build_table, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_cosecant_golden_row(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "Cosecant", "--n", "0..4", "--k", "-3..2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "-3", "-2", "-1", "0", "1", "2"]
    assert rows[5] == ["4", "121", "16", "1", "0", "7/15", "176/225"]
    assert rows[2] == ["1", "0", "0", "0", "0", "0", "0"]  # odd index row


def test_table_cotangent_golden_row(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "Cotangent", "--n", "4", "--k=-3..2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["4", "200", "41", "8", "1", "-8/15", "-199/225"]


def _parse_latex_cells(text):
    body = [line for line in text.splitlines() if line.startswith("$") and "backslash" not in line]
    rows = []
    for line in body:
        line = line.rstrip().removesuffix("\\\\").rstrip()
        cells = [c.strip().strip("$") for c in line.split("&")]
        parsed = []
        for cell in cells[1:]:
            m = re.fullmatch(r"(-?)\\frac\{(\d+)\}\{(\d+)\}", cell)
            if m:
                sign = -1 if m.group(1) == "-" else 1
                parsed.append(F(sign * int(m.group(2)), int(m.group(3))))
            else:
                parsed.append(F(cell))
        rows.append((int(cells[0]), parsed))
    return rows


def test_formats_parse_back_to_identical_values(capsys):
    args = ["table", "--family", "Cotangent", "--n", "0..4", "--k=-2..2"]
    _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    _, latex_out, _ = run_cli(capsys, *args, "--format", "latex")

    csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
    from_csv = [(int(r[0]), [F(c) for c in r[1:]]) for r in csv_rows]
    payload = json.loads(json_out)
    from_json = [(row["n"], [F(c) for c in row["cells"]]) for row in payload["rows"]]
    from_latex = _parse_latex_cells(latex_out)
    assert from_csv == from_json == from_latex


def test_table_usage_errors(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "Nope", "--n", "0..2", "--k", "0..1")
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(capsys, "table", "--family", "Cosecant", "--n", "5..2", "--k", "0..1")
    assert code == 2 and "empty range" in err
    code, _, err = run_cli(capsys, "table", "--family", "Cosecant", "--n", "0..100", "--k", "0..1")
    assert code == 2
    code, _, err = run_cli(capsys, "table", "--family", "Cosecant", "--n", "0..2", "--k", "0..40")
    assert code == 2
    code, _, err = run_cli(capsys, "table", "--family", "TildeD", "--n", "0..2", "--k", "0..1")
    assert code == 2 and "weights <= 0" in err


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "KUMMER_COSE", "--p", "3", "--N", "2", "--k", "3", "--m", "2", "--n", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["witnesses"][0]["lhs"] == "4"

    code, _, _ = run_cli(capsys, "verify", "DUALITY_COTA", "--lmax", "6")
    assert code == 0

    # hypothesis violation: (p-1) | n
    code, _, err = run_cli(
        capsys, "verify", "KUMMER_BERNOULLI", "--p", "3", "--N", "1", "--m", "2", "--n", "4"
    )
    assert code == 2 and "must not divide" in err

    code, _, err = run_cli(capsys, "verify", "NOT_AN_IDENTITY")
    assert code == 2

    # perturbed run must fail with a witness (exit 1)
    code, out, _ = run_cli(
        capsys, "verify", "DUALITY_COSE", "--lmax", "3", "--perturb", "0"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert any(w["lhs"] != w["rhs"] for w in payload["witnesses"])


def test_oracle_diff_cli(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-diff", "--family", "Cosecant", "--nmax", "8", "--kmin", "-4", "--kmax", "3"
    )
    assert code == 0 and "all methods agree" in out
    code, out, _ = run_cli(
        capsys, "oracle-diff", "--family", "TildeD", "--nmax", "6", "--kmin", "-3", "--kmax", "0"
    )
    assert code == 0 and "single method" in out


def test_valuation_cli(capsys):
    code, out, _ = run_cli(capsys, "valuation", "--p", "5", "--n", "1..3")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [row["index"] for row in lines] == [2, 4, 6]
    row4 = lines[1]
    assert row4["ord_b"] == row4["ord_d"] == row4["ord_beta_hat"] == 1
    assert row4["branch"] == "(p-1) | 2n"
    code, _, err = run_cli(capsys, "valuation", "--p", "4", "--n", "1..2")
    assert code == 2


def test_output_is_byte_stable(capsys):
    first = run_cli(capsys, "table", "--family", "PolyB_B", "--n", "0..6", "--k=-4..2", "--format", "json")
    second = run_cli(capsys, "table", "--family", "PolyB_B", "--n", "0..6", "--k=-4..2", "--format", "json")
    assert first == second
    v1 = run_cli(capsys, "verify", "SUM_COSE", "--p", "3", "--N", "2", "--n", "3", "--k", "3")
    v2 = run_cli(capsys, "verify", "SUM_COSE", "--p", "3", "--N", "2", "--n", "3", "--k", "3")
    assert v1 == v2


def test_build_table_defaults_to_exact_strings():
    table = build_table("Cosecant", (4, 4), (-3, 2))
    assert table.rows[0][1] == ["121", "16", "1", "0", "7/15", "176/225"]


@pytest.mark.parametrize("module", ["polyseq", "polyseq.cli"])
def test_module_entry_point_matches_direct_call(capsys, module):
    args = ["table", "--family", "Cosecant", "--n", "0..3", "--k=-2..1", "--format", "csv"]
    _, direct, _ = run_cli(capsys, *args)
    proc = subprocess.run(
        [sys.executable, "-m", module, *args], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == direct


def test_tilde_cosecant_table_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "TildeD", "--n", "0..2", "--k=-1..0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["0", "1/2", "1/2"]


_TILDE_WEIGHTS = "the tilde-cosecant family is defined for weights <= 0"


def _oracle_diff_argv(nmax, kmin, kmax):
    return ["oracle-diff", "--family", "Cosecant", "--nmax", nmax, "--kmin", kmin, "--kmax", kmax]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["table", "--family", "Cosecant", "--n", "x..2", "--k", "0..1"], "bad range"),
        (_oracle_diff_argv("-1", "0", "1"), "--nmax must stay within 0..64"),
        (_oracle_diff_argv("200", "0", "1"), "--nmax must stay within 0..64"),
        (_oracle_diff_argv("4", "2", "-2"), "empty weight range 2..-2"),
        (_oracle_diff_argv("4", "-33", "0"), "weights must stay within -32..32"),
        (_oracle_diff_argv("4", "0", "33"), "weights must stay within -32..32"),
        (["table", "--family", "TildeD", "--n", "0..3", "--k", "1..2"], _TILDE_WEIGHTS),
        (["table", "--family", "TildeD", "--n", "0..3", "--k=-2..1"], _TILDE_WEIGHTS),
        (["oracle-diff", "--family", "TildeD", "--nmax", "3", "--kmin", "1", "--kmax", "2"], _TILDE_WEIGHTS),
        (["oracle-diff", "--family", "TildeD", "--nmax", "3", "--kmin=-2", "--kmax", "1"], _TILDE_WEIGHTS),
    ],
    ids=[
        "unparsable-range",
        "oracle-diff-negative-nmax",
        "oracle-diff-nmax-above-max-order",
        "oracle-diff-reversed-weights",
        "oracle-diff-kmin-below-max-weight",
        "oracle-diff-kmax-above-max-weight",
        "table-tilde-positive-weights",
        "table-tilde-weights-reaching-one",
        "oracle-diff-tilde-positive-weights",
        "oracle-diff-tilde-weights-reaching-one",
    ],
)
def test_bad_input_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert err.count("\n") == 1 and not out


def test_internal_bug_is_not_reported_as_bad_parameters(capsys, monkeypatch):
    def broken(check, k: int):
        raise TypeError("internal bug")

    monkeypatch.setitem(cg._REGISTRY, "BROKEN", (broken, "raises an internal TypeError"))
    with pytest.raises(TypeError, match="internal bug"):
        main(["verify", "BROKEN", "--k", "1"])
    code, _, err = run_cli(capsys, "verify", "BROKEN", "--p", "3")
    assert code == 2 and "bad parameters" in err


# Valid values stay within n <= 6 and |k| <= 3 so every example is fast; the
# others are negative, out of bounds, unparsable or (as ranges) reversed.
_FAMILIES = st.sampled_from(["PolyB_B", "polyb_c", "Cosecant", "Cotangent", "TildeD", "Bogus"])
_N = st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["65", "x"]))
_K = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["-33", "65", "x"]))


def _ranges(ends):
    return st.one_of(ends, st.tuples(ends, ends).map("..".join), st.sampled_from(["2..", ""]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["table", "oracle-diff", "valuation", "verify", "bogus"]))
    if command == "table":
        fmt = draw(st.sampled_from(["csv", "json", "latex", "xml"]))
        family, n, k = draw(_FAMILIES), draw(_ranges(_N)), draw(_ranges(_K))
        return [command, "--family", family, "--n", n, f"--k={k}", "--format", fmt]
    if command == "oracle-diff":
        family, nmax, kmin, kmax = draw(_FAMILIES), draw(_N), draw(_K), draw(_K)
        return [command, "--family", family, "--nmax", nmax, f"--kmin={kmin}", f"--kmax={kmax}"]
    if command == "valuation":
        return [command, "--p", draw(st.sampled_from(["-1", "0", "2", "3", "4", "5"])), "--n", draw(_ranges(_N))]
    if command == "verify":
        identity = draw(st.sampled_from(cg.registry_ids() + ["NO_SUCH_ID"]))
        flags = draw(st.lists(st.sampled_from(["p", "N", "k", "m", "n", "lmax", "nmax", "kmax"]), unique=True, max_size=4))
        return [command, identity] + [arg for f in flags for arg in (f"--{f}", str(draw(st.integers(-1, 4))))]
    return [command]


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_any_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
