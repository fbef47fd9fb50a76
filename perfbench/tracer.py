"""Per-layer spans recorded by wrapping module attributes of spinboson.

Nothing in the program is edited: ``Tracer`` replaces selected module
attributes with timing wrappers while it is active and puts the originals
back on exit.  Every wrapper records a span (layer, request id, start, end,
parent span); a layer's busy time is the sum of its spans' self time, that is
each span's duration minus the time covered by its child spans.  Counts are
taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, List, Optional, Tuple

#: (module, attribute) -> layer.  Attributes are wrapped where callers look
#: them up at call time, e.g. the CLI's own reference to parse_polynomial.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("spinboson.cli", "main", "cli"),
    ("spinboson.cli", "parse_polynomial", "parsing"),
    ("spinboson.parsing", "parse_polynomial", "parsing"),
    ("spinboson.spin_core", "_word_diag_poly", "spin_core.words"),
    ("spinboson.spin_core", "_sector_trace_poly", "spin_core.words"),
    ("spinboson.spin_core", "irrep_multiplicity", "spin_core.sectors"),
    ("spinboson.spin_core", "normalized_trace", "spin_core.sum"),
    ("spinboson.spin_core", "_normalized_trace_float", "spin_core.float"),
    ("spinboson.spin_core", "dense_oracle_trace", "spin_core.oracle"),
    ("spinboson.bridge", "verify_theorem", "bridge"),
    ("spinboson.bridge", "ordering_sensitivity", "bridge"),
    ("spinboson.bridge", "boson_image", "bridge"),
    ("spinboson.bridge", "position_sector", "bridge"),
    ("spinboson.bridge", "normal_order_symbol", "boson"),
    ("spinboson.thermal", "thermal_expect", "thermal"),
    ("spinboson.thermal", "thermal_expect_weighted", "thermal"),
    ("spinboson.thermal", "ground_position_expectation", "thermal"),
    ("spinboson.xy", "spin_thermal_expectation", "xy"),
    ("spinboson.xy", "validity_check", "xy"),
    ("spinboson.xy", "partition_function", "xy"),
    ("spinboson.xy", "effective_temperature", "xy"),
    ("spinboson.xy", "boson_thermal_expectation", "xy"),
)
#: counted, not timed: one Boltzmann weight per call made inside an xy span
BOLTZMANN = ("mpmath", "exp")
#: metrics that need one particular boundary, not just any of their layer
NEEDS = {"spin_core.words.distinct_ratio": ("spinboson.spin_core", "_word_diag_poly")}
#: metrics whose layer is not the prefix of their name
METRIC_LAYER = {"spin_core.trace.calls": "spin_core.sum"}
BUSY_LAYERS = ("cli", "parsing", "spin_core.words", "spin_core.sectors",
               "spin_core.sum", "spin_core.float", "spin_core.oracle",
               "bridge", "boson", "thermal", "xy")


def _freeze(poly):
    return None if poly is None else frozenset(poly.items())


def xy_cells(n: int) -> int:
    """Number of (j, m) cells for N sites: sum of 2j + 1 over the sectors."""
    return sum(tj + 1 for tj in range(n % 2, n + 1, 2))


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.installed: List[Tuple[object, str, object]] = []
        self.found: set = set()  # (module, attr) pairs the program has
        self.spans: List[tuple] = []  # (layer, request, start, end, parent, self_s)
        self.stack: List[list] = []  # [span index, layer, start, child_s]
        self.request = 0
        self.counts: Dict[str, float] = {}
        self.max_bits = 0
        self._distinct: set = set()

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, layer in self.boundaries:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is not None:
                    self._install(module, attr, self._wrap(original, layer, attr))
            module = importlib.import_module(BOLTZMANN[0])
            self._install(module, BOLTZMANN[1],
                          self._count_boltzmann(getattr(module, BOLTZMANN[1])))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, module, attr: str, wrapper) -> None:
        self.found.add((module.__name__, attr))
        self.installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self.installed:
            module, attr, original = self.installed.pop()
            setattr(module, attr, original)

    def absent_layers(self) -> set:
        layers = {layer for m, a, layer in self.boundaries if (m, a) in self.found}
        return {layer for _, _, layer in self.boundaries} - layers

    # -- recording ---------------------------------------------------------

    def begin_request(self) -> None:
        self.request += 1
        self._distinct = set()

    def _bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _wrap(self, fn, layer: str, attr: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [len(tracer.spans), layer, time.perf_counter(), 0.0]
            tracer.spans.append(None)  # reserve the index for children
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - frame[2]
                if tracer.stack:
                    tracer.stack[-1][3] += duration
                tracer.spans[frame[0]] = (layer, tracer.request, frame[2], end,
                                          parent, duration - frame[3])
            tracer._count(layer, attr, args, kwargs, result)
            return result

        return wrapper

    def _count(self, layer: str, attr: str, args, kwargs, result) -> None:
        self._bump(f"{layer}.calls")
        if layer == "parsing":
            self._bump("parsing.words_out", len(getattr(result, "terms", ())))
        elif attr == "_word_diag_poly":
            self._bump("words.processed")
            key = _freeze(result)
            if key is not None and key not in self._distinct:
                self._distinct.add(key)
                self._bump("words.distinct")
        elif layer == "spin_core.sectors":
            self.max_bits = max(self.max_bits, int(result).bit_length())
        elif attr == "normalized_trace":
            if any(f[1] == "bridge" for f in self.stack):
                self._bump("bridge.trace_calls")
        elif attr == "spin_thermal_expectation":
            self._bump("xy.cells", xy_cells(args[1] if len(args) > 1 else kwargs["N"]))

    def _count_boltzmann(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stack and tracer.stack[-1][1] == "xy":
                tracer._bump("xy.boltzmann_calls")
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def busy(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in BUSY_LAYERS}
        for span in self.spans:
            out[span[0]] += span[5]
        return out

    def metrics(self, requests: int, names) -> Dict[str, Optional[float]]:
        """Per-request values for the named metrics; None marks a metric
        whose boundary is gone from the program."""
        busy = self.busy()
        c = self.counts.get
        values = {f"{layer}.busy_s": busy[layer] / requests for layer in BUSY_LAYERS}
        values.update({
            "parsing.calls": c("parsing.calls", 0) / requests,
            "parsing.words_out": c("parsing.words_out", 0) / requests,
            "spin_core.words.calls": c("words.processed", 0) / requests,
            "spin_core.words.distinct_ratio":
                c("words.distinct", 0) / max(c("words.processed", 0), 1),
            "spin_core.sectors.calls": c("spin_core.sectors.calls", 0) / requests,
            "spin_core.sectors.max_bits": self.max_bits,
            "spin_core.trace.calls": c("spin_core.sum.calls", 0) / requests,
            "spin_core.float.calls": c("spin_core.float.calls", 0) / requests,
            "spin_core.oracle.calls": c("spin_core.oracle.calls", 0) / requests,
            "bridge.trace_calls": c("bridge.trace_calls", 0) / requests,
            "xy.boltzmann_calls": c("xy.boltzmann_calls", 0) / requests,
            "xy.cells": c("xy.cells", 0) / requests,
        })
        gone = self.absent_layers()
        out = {}
        for name in names:
            if name not in values:
                continue
            need = NEEDS.get(name)
            layer = METRIC_LAYER.get(name, name.rsplit(".", 1)[0])
            if (need and need not in self.found) or layer in gone:
                out[name] = None
            else:
                out[name] = values[name]
        return out
