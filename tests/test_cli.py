"""Command-line interface: tables, formats, exit codes, determinism."""

import contextlib
import csv
import functools
import hashlib
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
from polyseq.cli import MAX_ORDER, MAX_WEIGHT, OutputTable, build_parser, build_table, main
from polyseq.families import Family


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


# The renderers that `OutputTable` used before it joined the cell strings
# itself, kept verbatim as references: `csv.writer` quoting as needed, and each
# LaTeX cell parsed back into a Fraction.


def _csv_writer_to_csv(self) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n"] + [str(k) for k in range(self.k_range[0], self.k_range[1] + 1)])
    for n, cells in self.rows:
        writer.writerow([str(n)] + cells)
    return buf.getvalue()


def _fraction_latex_cell(cell: str) -> str:
    q = F(cell)
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _fraction_to_latex(self) -> str:
    ks = range(self.k_range[0], self.k_range[1] + 1)
    lines = [
        "\\begin{tabular}{r|" + "r" * len(list(ks)) + "}",
        "$n \\backslash k$ & "
        + " & ".join(f"${k}$" for k in range(self.k_range[0], self.k_range[1] + 1))
        + " \\\\",
        "\\hline",
    ]
    for n, cells in self.rows:
        lines.append(f"${n}$ & " + " & ".join(f"${_fraction_latex_cell(c)}$" for c in cells) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


_TABLE_FAMILIES = ("PolyB_B", "PolyB_C", "Cosecant", "Cotangent", "TildeD")
_CELL = re.compile(r"-?\d+(/\d+)?")


def _k_max(family):
    return 0 if family == "TildeD" else MAX_WEIGHT


@functools.cache
def _full_grid(family):
    """The largest table the CLI accepts for a family."""
    return build_table(family, (0, MAX_ORDER), (-MAX_WEIGHT, _k_max(family)))


def _assert_renders_like_the_references(table):
    assert table.render("csv") == _csv_writer_to_csv(table)
    assert table.render("latex") == _fraction_to_latex(table)


@pytest.mark.parametrize("family", _TABLE_FAMILIES)
def test_full_grid_renders_byte_identical_to_the_references(family):
    table = _full_grid(family)
    assert len(table.rows) == MAX_ORDER + 1
    # every field is an integer or a signed fraction, which QUOTE_MINIMAL never quotes
    assert all(_CELL.fullmatch(cell) for _, cells in table.rows for cell in cells)
    _assert_renders_like_the_references(table)


@st.composite
def _sub_table(draw):
    family = draw(st.sampled_from(_TABLE_FAMILIES))
    n_lo, n_hi = sorted(draw(st.lists(st.integers(0, MAX_ORDER), min_size=2, max_size=2)))
    k_lo, k_hi = sorted(draw(st.lists(st.integers(-MAX_WEIGHT, _k_max(family)), min_size=2, max_size=2)))
    grid = _full_grid(family)
    cols = slice(k_lo + MAX_WEIGHT, k_hi + MAX_WEIGHT + 1)
    rows = [(n, cells[cols]) for n, cells in grid.rows[n_lo : n_hi + 1]]
    return OutputTable(grid.family, (n_lo, n_hi), (k_lo, k_hi), rows)


@settings(max_examples=60, deadline=None)
@given(_sub_table())
def test_drawn_ranges_render_byte_identical_to_the_references(table):
    _assert_renders_like_the_references(table)
    rebuilt = build_table(table.family, (table.n_range[1], table.n_range[1]), table.k_range)
    assert rebuilt.rows == table.rows[-1:]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.fractions().map(str), min_size=3, max_size=3), min_size=1, max_size=4))
def test_drawn_fraction_cells_render_byte_identical_to_the_references(rows):
    table = OutputTable(Family.COSECANT, (0, len(rows) - 1), (-1, 1), list(enumerate(rows)))
    assert all(_CELL.fullmatch(cell) for row in rows for cell in row)
    _assert_renders_like_the_references(table)


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
    # TildeD's explicit row is compared with its series route
    assert code == 0 and out == "all methods agree for TildeD up to n=6, k in -3..0\n"


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


# sha256 of the stdout of `polyseq valuation --p P --n 1..64`, the whole half-index range
_VALUATION_DIGESTS = {
    3: "c2ac055008c7ca6356768c2e5395a363913428e5bf421df3827a6b2a459f1dcf",
    5: "ef9f76ff59ba5fb5f1e1c1a4977fae9c573f328d26fc222f5711c6bf630b1cf4",
    7: "3a8ce5db968a6fa0dc573bac3ff561db3f8381fee3b317a12e550ed91c01f60d",
}


@pytest.mark.parametrize("p", sorted(_VALUATION_DIGESTS))
def test_valuation_range_is_byte_identical_to_the_golden_digest(capsys, p):
    code, out, _ = run_cli(capsys, "valuation", "--p", str(p), "--n", f"1..{MAX_ORDER}")
    assert code == 0
    assert len(out.splitlines()) == MAX_ORDER
    assert hashlib.sha256(out.encode()).hexdigest() == _VALUATION_DIGESTS[p]


def test_output_is_byte_stable(capsys):
    first = run_cli(capsys, "table", "--family", "PolyB_B", "--n", "0..6", "--k=-4..2", "--format", "json")
    second = run_cli(capsys, "table", "--family", "PolyB_B", "--n", "0..6", "--k=-4..2", "--format", "json")
    assert first == second
    v1 = run_cli(capsys, "verify", "SUM_COSE", "--p", "3", "--N", "2", "--n", "3", "--k", "3")
    v2 = run_cli(capsys, "verify", "SUM_COSE", "--p", "3", "--N", "2", "--n", "3", "--k", "3")
    assert v1 == v2


def _main_captured(argv):
    """(exit code, stdout, stderr) of one call of main, SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call():
    assert build_parser() is build_parser()
    table = ["table", "--family", "Cotangent", "--n", "0..6", "--k=-3..3", "--format", "latex"]
    first = _main_captured(table)
    assert first[0] == 0 and first[1] and not first[2]
    code, out, err = _main_captured(["table", "--family", "Cosecant", "--n", "0..2", "--k", "0", "--bogus"])
    assert code == 2 and not out and "unrecognized arguments: --bogus" in err
    assert _main_captured(table) == first
    code, out, err = _main_captured(["verify", "--help"])
    # help goes to the stdout in force at the call, and lists the registry
    assert code == 0 and out.startswith("usage: polyseq verify") and not err
    assert "identities: " + ", ".join(cg.registry_ids()) in " ".join(out.split())
    assert _main_captured(table) == first
    assert build_parser() is build_parser()


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


_SUM_POLYB_ONE_INSTANCE = ["verify", "SUM_POLYB", "--p", "3", "--N", "1", "--k", "1", "--n", "1"]


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
        # a negative control must plant its fault: one compared instance, index 5 or -1
        (_SUM_POLYB_ONE_INSTANCE + ["--perturb", "5"], "plants no fault: SUM_POLYB compared 1 instance(s)"),
        (_SUM_POLYB_ONE_INSTANCE + ["--perturb=-1"], "perturb index -1 must be >= 0"),
        # a witness value past Python's digit limit cannot be written out; that is no counterexample
        (
            ["verify", "CONV_EQ5", "--n", "1", "--k", "99999"],
            "beta_2^(99999) vs binomial sum over D: a value has more than 4300 digits",
        ),
        (
            ["verify", "VANISH_S1_B", "--k", "8000", "--n", "3", "--m", "4"],
            "sum_j (-1)^j s(5,j+1) B_3^(-k-j) at k=8000: a value has more than 4300 digits",
        ),
        # a generating-function sweep past its cap is refused before any series is built
        (["verify", "GF_SYM_B", "--n", "2", "--lmax", "99999999"], "lmax must stay within 0..32"),
        (["verify", "GF_SYM_B", "--n", "100000000", "--lmax", "2"], "n must stay within 0..64"),
        (["verify", "GF_SYM_COSE", "--n", "100000000", "--lmax", "2"], "n must stay within 0..64"),
        (["verify", "GF_SYM_COSE", "--n", "3", "--lmax", "33"], "lmax must stay within 0..32"),
        (["verify", "GF_BIVARIATE", "--nmax", "999999", "--kmax", "0"], "nmax must stay within 0..32"),
        (["verify", "GF_BIVARIATE", "--nmax", "0", "--kmax", "33"], "kmax must stay within 0..32"),
        (["verify", "GF_BIVARIATE", "--nmax", "48", "--kmax", "48"], "nmax must stay within 0..32"),
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
        "verify-perturb-past-the-last-instance",
        "verify-perturb-negative",
        "verify-witness-past-the-digit-limit",
        "verify-vanishing-term-past-the-digit-limit",
        "verify-gf-sym-b-lmax-past-the-cap",
        "verify-gf-sym-b-level-past-the-cap",
        "verify-gf-sym-cose-level-past-the-cap",
        "verify-gf-sym-cose-lmax-past-the-cap",
        "verify-gf-bivariate-nmax-past-the-cap",
        "verify-gf-bivariate-kmax-past-the-cap",
        "verify-gf-bivariate-both-past-the-cap",
    ],
)
def test_bad_input_exits_two(capsys, argv, message):
    # Python's default digit limit, whatever PYTHONINTMAXSTRDIGITS set it to
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
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
    code, _, err = _main_captured(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
