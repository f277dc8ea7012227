"""Span tracing of polyseq's layers, installed from outside the package.

Each public function of each layer module, and each operator of `Series` and
`BiSeries`, is replaced by a wrapper that records one span: the function's
name, its start and end on `time.perf_counter`, and the span that was open
when it was called. The wrapper replaces the name in every polyseq module
that imported it (for example `cli.family_value` and `families.stirling2`), so
calls between layers are traced wherever they are made. Spans are kept in
flat arrays in memory and written out once, after the traced pass.

A layer's self time is the time its spans cover minus the time their direct
child spans cover. The harness's own time is the pass's wall time minus the
time covered by top-level spans, so the layer self times and the harness time
add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

LAYERS = ("families", "sequences", "series", "symmetrized", "congruences", "cli")

# plumbing of the series classes, left unwrapped: only operators and queries get spans
_SKIPPED_METHODS = {"__init__", "__eq__", "__hash__", "__repr__"}


class Tracer:
    """Wraps polyseq's layers and accumulates spans plus per-layer counters."""

    def __init__(self):
        self.names: list[str] = []  # span name id -> "layer:function"
        self._layer_of: list[str] = []  # span name id -> layer
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._family_keys: dict[int, tuple] = {}  # outermost families span -> call key
        self.max_value_bits = 0
        self.max_series_order = 0
        self.stirling_max_row = 0
        self.witnesses = 0

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "polyseq" or name.startswith("polyseq.")]
        for layer in LAYERS:
            module = sys.modules[f"polyseq.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not _defined_in(fn, module):
                    continue
                wrapper = self._wrap(fn, layer, attr, self._hook(layer, attr))
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, name, wrapper)
        series = sys.modules["polyseq.series"]
        for cls in (series.Series, series.BiSeries):
            for attr, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and attr not in _SKIPPED_METHODS and (attr.startswith("__") or not attr.startswith("_")):
                    setattr(cls, attr, self._wrap(fn, "series", f"{cls.__name__}.{attr}", self._series_result))

    def _wrap(self, fn, layer: str, name: str, hook):
        name_id = len(self.names)
        self.names.append(f"{layer}:{name}")
        self._layer_of.append(layer)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return traced

    def _hook(self, layer: str, name: str):
        if layer == "families":
            return functools.partial(self._family_result, name)
        if layer == "series":
            return self._series_result
        if name in ("stirling1", "stirling2"):
            return self._stirling_call
        if name in ("verify", "oracle_diff"):
            return self._report_result
        return None

    def _family_result(self, name, idx, args, kwargs, result) -> None:
        parent = self.span_parent[idx]
        if parent < 0 or self._layer_of[self.span_name[parent]] != "families":
            self._family_keys[idx] = (name, args, tuple(sorted(kwargs.items())))
        if isinstance(result, Fraction):
            bits = max(result.numerator.bit_length(), result.denominator.bit_length())
            if bits > self.max_value_bits:
                self.max_value_bits = bits

    def _series_result(self, idx, args, kwargs, result) -> None:
        coeffs = getattr(result, "coeffs", None)
        if coeffs is not None and len(coeffs) - 1 > self.max_series_order:
            self.max_series_order = len(coeffs) - 1

    def _report_result(self, idx, args, kwargs, result) -> None:
        self.witnesses += len(result.witnesses)

    def _stirling_call(self, idx, args, kwargs, result) -> None:
        n = args[0] if args else kwargs["n"]
        if n > self.stirling_max_row:
            self.stirling_max_row = n

    # ------------------------------------------------------------- reporting

    def layer_metrics(self, wall_s: float, skip_share: float, output_bytes: int) -> dict[str, float]:
        """Per-layer counts and self times of everything traced so far."""
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        layer_of = self._layer_of
        self_s = dict.fromkeys(LAYERS, 0.0)
        top_time = 0.0
        for i in range(len(starts)):
            d = ends[i] - starts[i]
            self_s[layer_of[names[i]]] += d
            p = parents[i]
            if p < 0:
                top_time += d
            else:
                self_s[layer_of[names[p]]] -= d
        per_name = Counter(names)

        def calls(test) -> int:
            return sum(n for name_id, n in per_name.items() if test(self.names[name_id]))

        # the outermost families call above each span, or -1
        keys = self._family_keys
        outer = array("i", [-1]) * len(starts)
        routed = set()
        for i in range(len(starts)):
            outer[i] = i if i in keys else (outer[parents[i]] if parents[i] >= 0 else -1)
            if outer[i] >= 0 and layer_of[names[i]] == "series":
                routed.add(outer[i])
        seen, repeats = set(), 0
        for i in sorted(keys):
            repeats += keys[i] in seen
            seen.add(keys[i])

        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls(lambda name: name.startswith(f"{layer}:"))
            metrics[f"{layer}.self_s"] = self_s[layer]
        metrics.update(
            {
                "families.repeat_share": repeats / len(keys) if keys else 0.0,
                "families.series_route_share": len(routed) / len(keys) if keys else 0.0,
                "families.max_value_bits": self.max_value_bits,
                "sequences.stirling_max_row": self.stirling_max_row,
                "series.polylog_calls": calls(lambda name: name == "series:polylog_apply"),
                "series.div_calls": calls(lambda name: name.endswith(".__truediv__")),
                "series.bi_calls": calls(lambda name: name.startswith(("series:BiSeries.", "series:biseries_"))),
                "series.max_order": self.max_series_order,
                "congruences.witnesses": self.witnesses,
                "congruences.skip_share": skip_share,
                "cli.output_bytes": output_bytes,
                "harness.self_s": wall_s - top_time,
            }
        )
        return metrics

    def write_spans(self, path: Path) -> None:
        """Write the span arrays to `path` and their layout to `path` + '.json'."""
        with open(path, "wb") as out:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(out)
        layout = {
            "count": len(self.span_start),
            "columns": [["name", self.span_name.typecode], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "names": self.names,
        }
        Path(f"{path}.json").write_text(json.dumps(layout) + "\n")


def _defined_in(obj, module) -> bool:
    """A function (possibly behind functools.lru_cache) written in `module`."""
    target = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(target) and target.__module__ == module.__name__
