"""The records a verification returns, and the one writer of a report's JSON.

A `Report` holds an identity's name, its params, its verdict and one
`Witness` per compared instance; `ValuationReport` holds the denominator data
of one `polyseq valuation` line.  `to_dict` is each record's layout as a dict.
A report's JSON is `json.dumps(report.to_dict(), sort_keys=True,
indent=indent)` byte for byte, but it is written without that dict: the text
around the values is built once per indent, `_layout`, as `%` templates, one
for a witness without a modulus and one with, and `Report.json_chunks` fills
one template per witness.  `to_json` joins the chunks; `polyseq verify`
writes them in batches, so a large sweep's text is never held whole.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple


class Witness(NamedTuple):
    instance: str
    lhs: str
    rhs: str
    modulus: int | None = None

    def to_dict(self) -> dict:
        d = {"instance": self.instance, "lhs": self.lhs, "rhs": self.rhs}
        if self.modulus is not None:
            d["modulus"] = self.modulus
        return d


class Report(NamedTuple):
    identity: str
    params: dict
    verdict: str
    witnesses: Sequence[Witness] = ()

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

    def json_chunks(self, indent: int | None = None) -> Iterator[str]:
        """The text of `json.dumps(self.to_dict(), sort_keys=True, indent=indent)`, one chunk per witness.

        Each witness is one `%` of its layout's template, with a modulus or
        without, its strings quoted by the json module's `encode_basestring_ascii`.
        The params are `json.dumps` of their small dict, nested one level down.
        """
        head, (plain, modular), rest, close, empty, nest = _layout(indent)
        quote = _quote
        params = json.dumps(self.params, sort_keys=True, indent=indent).replace("\n", nest)
        yield head % (quote(self.identity), params, quote(self.verdict))
        for instance, lhs, rhs, modulus in self.witnesses:
            # `oracle_diff` writes one text on both sides wherever a route's row is the series row
            left = quote(lhs)
            right = left if rhs is lhs else quote(rhs)
            if modulus is None:
                yield plain % (quote(instance), left, right)
            else:
                yield modular % (quote(instance), left, modulus, right)
            plain, modular = rest
        yield close if self.witnesses else empty

    def to_json(self, indent: int | None = None) -> str:
        return "".join(self.json_chunks(indent))


@lru_cache(maxsize=8)
def _layout(indent: int | None) -> tuple:
    """The text that `json.dumps(..., sort_keys=True, indent=indent)` writes around a report's values.

    (head, first, rest, close, empty, nest): `head` takes (identity, params,
    verdict) and ends at the witnesses' key; `first` and `rest` are the
    (plain, with a modulus) witness templates, each led by what precedes it;
    `close` follows the last witness and `empty` stands for none; `nest`
    replaces each newline of the params' text, one level down.
    """
    comma, line = (", ", lambda depth: "") if indent is None else (",", lambda depth: "\n" + " " * (indent * depth))

    def fields(depth: int, *pairs: str) -> str:
        # an object `depth` levels down up to its last "key": value pair, keys in sorted order
        return "{" + line(depth + 1) + (comma + line(depth + 1)).join(pairs)

    witness = [fields(2, '"instance": %s', '"lhs": %s', *m, '"rhs": %s') + line(2) + "}" for m in ((), ('"modulus": %d',))]
    return (
        fields(0, '"identity": %s', '"params": %s', '"verdict": %s', '"witnesses": '),
        tuple("[" + line(2) + w for w in witness),
        tuple(comma + line(2) + w for w in witness),
        line(1) + "]" + line(0) + "}",
        "[]" + line(0) + "}",
        line(1),
    )


class ValuationReport(NamedTuple):
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
        return {**self._asdict(), "b": str(self.b), "d": str(self.d), "beta_hat": str(self.beta_hat)}
