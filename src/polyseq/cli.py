"""Command-line front door.

Subcommands: `table` emits exact value tables for any family, `verify` runs a
registry identity, `oracle-diff` compares closed forms against the series
oracle, and `valuation` reports denominator p-adic orders.  All cell values
are exact rational strings; no floating point anywhere.  Exit codes: 0 pass,
1 verification failure, 2 usage or hypothesis error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache, partial
from itertools import chain
from typing import NamedTuple

from . import congruences as cg
from .errors import PolyseqError, UsageError
from .families import Family, _cell, _evaluate
from .signatures import CAPS

MAX_ORDER, MAX_WEIGHT = CAPS["table order"], CAPS["table weight"]

_FAMILY_ALIASES = {f.value.lower(): f for f in Family}
_FORMATS = ("csv", "json", "latex")  # each is OutputTable's to_<format>


class OutputTable(NamedTuple):
    family: Family
    n_range: tuple[int, int]
    k_range: tuple[int, int]
    rows: list[tuple[int, list[str]]]  # (n, cells in increasing k)

    def _ks(self) -> range:
        return range(self.k_range[0], self.k_range[1] + 1)

    def to_csv(self) -> str:
        # a cell is str(Fraction) and a header an int, so no field ever needs quoting
        lines = [",".join(["n", *map(str, self._ks())])]
        lines += [",".join([str(n), *cells]) for n, cells in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "family": self.family.value,
            "n_range": list(self.n_range),
            "k_range": list(self.k_range),
            "rows": [{"n": n, "cells": cells} for n, cells in self.rows],
        }
        return json.dumps(payload, sort_keys=True) + "\n"

    def to_latex(self) -> str:
        ks = self._ks()
        lines = [
            "\\begin{tabular}{r|" + "r" * len(ks) + "}",
            "$n \\backslash k$ & " + " & ".join(f"${k}$" for k in ks) + " \\\\",
            "\\hline",
        ]
        for n, cells in self.rows:
            lines.append(f"${n}$ & " + " & ".join(f"${_latex_cell(c)}$" for c in cells) + " \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt not in _FORMATS:
            raise UsageError(f"unknown format {fmt!r}")
        return getattr(self, f"to_{fmt}")()


def _latex_cell(cell: str) -> str:
    """A `str(Fraction)` cell in LaTeX, read off the string: "-a/b" -> -\\frac{a}{b}."""
    numerator, slash, denominator = cell.partition("/")
    if not slash:
        return cell
    sign, digits = ("-", numerator[1:]) if numerator.startswith("-") else ("", numerator)
    return f"{sign}\\frac{{{digits}}}{{{denominator}}}"


def _parse_family(raw: str) -> Family:
    try:
        return _FAMILY_ALIASES[raw.lower()]
    except KeyError:
        known = ", ".join(f.value for f in Family)
        raise UsageError(f"unknown family {raw!r}; known: {known}") from None


def _parse_range(raw: str) -> tuple[int, int]:
    """'a..b' or a single integer."""
    lo, sep, hi = raw.strip().partition("..")
    try:
        a, b = int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(f"bad range {raw!r}; expected a..b or a single integer") from None
    if a > b:
        raise UsageError(f"empty range {raw!r}")
    return a, b


def _check_weights(family: Family, k_lo: int, k_hi: int) -> None:
    if abs(k_lo) > MAX_WEIGHT or abs(k_hi) > MAX_WEIGHT:
        raise UsageError(f"weights must stay within -{MAX_WEIGHT}..{MAX_WEIGHT}")
    if family is Family.TILDE_D and k_hi > 0:
        raise UsageError("the tilde-cosecant family is defined for weights <= 0")


def build_table(family: Family | str, n_range: tuple[int, int], k_range: tuple[int, int]) -> OutputTable:
    family = Family(family)
    n_lo, n_hi = n_range
    k_lo, k_hi = k_range
    if n_lo < 0 or n_hi > MAX_ORDER:
        raise UsageError(f"order range must stay within 0..{MAX_ORDER}")
    _check_weights(family, k_lo, k_hi)
    # each cell is str(family_row(...)[i]), written without building the Fraction
    ks = range(k_lo, k_hi + 1)
    rows = []
    try:
        for n in range(n_lo, n_hi + 1):
            rows.append((n, _evaluate(family, n, ks, None, _cell)))
    except ValueError:
        # the row again as Fractions, which need no string: any other ValueError raises here too
        _evaluate(family, n, ks, None)
        raise cg._digit_limit(f"{family.value} at n = {n}") from None
    return OutputTable(family, n_range, k_range, rows)


def _cmd_table(args) -> int:
    table = build_table(_parse_family(args.family), _parse_range(args.n), _parse_range(args.k))
    sys.stdout.write(table.render(args.format))
    return 0


def _write_report(payload: dict) -> None:
    """Write the bytes of `report.to_json(indent=2) + "\n"`, where `payload` is `report.to_dict()`.

    The encoder's chunks are joined into writes of at most 64 KiB (one chunk
    longer than that is written alone), so a large sweep's text is never held
    whole, and stdout takes a few large writes, not one per chunk as with `json.dump`, which a
    line-buffered TTY also flushes at each newline: on a pty, `verify DUALITY_COTA --lmax 96` took a median
    0.80 s batched, 0.94 s by `json.dump` (8 runs each, 2-core Xeon, Python 3.11; same bytes, ~23 MB VmHWM).
    """
    batch, size = [], 0
    for chunk in chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload), ("\n",)):
        if size + len(chunk) > 1 << 16 and batch:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
        batch.append(chunk)
        size += len(chunk)
    sys.stdout.write("".join(batch))


def _cmd_verify(flags: tuple[str, ...], args) -> int:
    params = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    report = cg.verify(args.identity, params, perturb_index=args.perturb)
    _write_report(report.to_dict())
    return 0 if report.passed else 1


def _cmd_oracle_diff(args) -> int:
    family = _parse_family(args.family)
    if not 0 <= args.nmax <= MAX_ORDER:
        raise UsageError(f"--nmax must stay within 0..{MAX_ORDER}")
    if args.kmin > args.kmax:
        raise UsageError(f"empty weight range {args.kmin}..{args.kmax}")
    _check_weights(family, args.kmin, args.kmax)
    report = cg.oracle_diff(family, args.nmax, args.kmin, args.kmax)
    if report.passed:
        note = report.params.get("note")
        suffix = f" ({note})" if note else ""
        sys.stdout.write(
            f"all methods agree for {report.params['family']} up to n={args.nmax}, "
            f"k in {args.kmin}..{args.kmax}{suffix}\n"
        )
        return 0
    first = report.mismatches()[0]
    sys.stdout.write(f"mismatch: {first.instance}: {first.lhs} != {first.rhs}\n")
    return 1


def _cmd_valuation(args) -> int:
    lo, hi = _parse_range(args.n)
    if lo < 1 or hi > MAX_ORDER:
        raise UsageError(f"half-index range must stay within 1..{MAX_ORDER}")
    for n in range(lo, hi + 1):
        report = cg.valuation_report(args.p, n)
        sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return 0


def _allow_negative_ranges(parser: argparse.ArgumentParser) -> None:
    # let option values like "-3..2" pass as arguments ("--k=-3..2" always works)
    matcher = re.compile(r"^-\d+(\.\.-?\d+)?$")
    if hasattr(parser, "_negative_number_matcher"):
        parser._negative_number_matcher = matcher


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `polyseq` parser, built on the first call and shared by every later one.

    Parsing leaves the parser as it was, and help and errors go to the
    `sys.stdout` and `sys.stderr` in force when they are printed, so one
    parser serves every call of `main`.  The registry is fixed at import:
    the `verify` epilog lists it, and `verify`'s flags are the parameters
    its `Signature`s declare.
    """
    parser = argparse.ArgumentParser(
        prog="polyseq",
        description="Exact tables and identity verification for poly-Bernoulli, "
        "polycosecant and polycotangent numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a family table with exact rational cells")
    *families, last = (f.value for f in Family)
    table.add_argument("--family", required=True, help=f"{', '.join(families)} or {last}")
    table.add_argument("--n", required=True, help="order range a..b")
    table.add_argument("--k", required=True, help="weight range a..b (use --k=-3..2 for negatives)")
    table.add_argument("--format", default="csv", choices=_FORMATS)
    _allow_negative_ranges(table)
    table.set_defaults(func=_cmd_table)

    ver = sub.add_parser(
        "verify",
        help="verify a registry identity",
        epilog="identities: " + ", ".join(cg.registry_ids()),
    )
    ver.add_argument("identity", help="identity id, e.g. KUMMER_COSE")
    flags = tuple(dict.fromkeys(name for _, _, signature in cg._REGISTRY.values() for name in signature.roles))
    for flag in flags:
        ver.add_argument(f"--{flag}", type=int, default=None)
    # negative-control hook: adds +1 to the chosen instance's left side
    ver.add_argument("--perturb", type=int, default=None, help=argparse.SUPPRESS)
    ver.set_defaults(func=partial(_cmd_verify, flags))

    diff = sub.add_parser("oracle-diff", help="compare closed forms against the series oracle")
    diff.add_argument("--family", required=True)
    diff.add_argument("--nmax", type=int, required=True)
    diff.add_argument("--kmin", type=int, required=True)
    diff.add_argument("--kmax", type=int, required=True)
    diff.set_defaults(func=_cmd_oracle_diff)

    val = sub.add_parser("valuation", help="denominator p-adic orders of B, D^(1), beta^(1)")
    val.add_argument("--p", type=int, required=True, help="odd prime")
    val.add_argument("--n", required=True, help="half-index range a..b (reports index 2n)")
    val.set_defaults(func=_cmd_valuation)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PolyseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
