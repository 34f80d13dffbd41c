"""Per-layer spans and counters for the traced benchmark run.

``Tracer.install()`` replaces public functions of the library with timing
wrappers, each patched under the name its caller looks up (``from .model
import max_over_types`` binds the name in every importing module, so each of
those modules is patched). ``uninstall()`` puts the originals back. Nothing
inside the library changes.

Spans nest: a layer's self time is its duration minus the time of the spans
it caused. The benchmark opens a root span around each timed section
(``bench.op``, ``bench.verify``); the roots' self time is the work no layer
claimed, so the self times of all spans add up to the traced time exactly.
Calls made while no root span is open (the benchmark's own checking) are
passed through unrecorded.

Counters: ``exactlp.pivots`` is ``bareiss_row`` calls divided by the rows of
the system being solved; ``exactlp.cells`` sums the tableau width over those
calls (rows x width per pivot); ``exactlp.pivot_bits_max`` is the bit length
of the largest pivot element.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPANS = ("bench.op", "bench.verify")

# span name -> the (module, attribute) pairs through which callers reach it.
SPANS = {
    "fileio.parse_instance": [("ruhull.fileio", "parse_instance")],
    "fileio.run_check": [("ruhull.fileio", "run_check")],
    "fileio.run_verify": [("ruhull.fileio", "run_verify")],
    "enumeration.types": [
        ("ruhull.fileio", "types_from_linear_orders"),
        ("ruhull.fileio", "correspondence_types_from_linear_orders"),
        ("ruhull.fileio", "correspondence_types_from_weak_orders"),
        ("ruhull.fileio", "types_from_explicit"),
    ],
    "lifting.lift": [
        ("ruhull.fileio", "lift_layout"),
        ("ruhull.fileio", "lift_set_valued_data"),
        ("ruhull.fileio", "singleton_choice_data"),
    ],
    "lifting.check_restricted_arsp": [("ruhull.fileio", "check_restricted_arsp")],
    "membership.test_membership": [("ruhull.certificate", "test_membership")],
    "certificate.make_certificate": [("ruhull.certificate", "make_certificate")],
    "exactlp.solve": [
        ("ruhull.membership", "solve_equality_feasibility"),
        ("ruhull.lifting", "solve_equality_feasibility"),
    ],
    "model.max_over_types": [
        ("ruhull.model", "max_over_types"),
        ("ruhull.membership", "max_over_types"),
        ("ruhull.certificate", "max_over_types"),
        ("ruhull.fileio", "max_over_types"),
    ],
    "facets.enumerate_facets": [("ruhull.facets", "enumerate_facets")],
    "facets.oracle": [("ruhull.facets", "facet_membership_oracle")],
    "facets.essential_sequences": [("ruhull.facets", "essential_sequences")],
}

# span name -> (counter, amount added per call from (args, result)).
COUNTERS = {
    "model.max_over_types": (
        "model.max_over_types.types_scanned", lambda args, out: len(args[1])
    ),
    "enumeration.types": ("enumeration.types.count", lambda args, out: len(out)),
    "certificate.make_certificate": (
        "certificate.trials.count", lambda args, out: len(out.trials)
    ),
    "facets.enumerate_facets": ("facets.facets.count", lambda args, out: len(out.facets)),
}

# Kernels are counted, not timed: their time stays in the calling layer.
KERNELS = ("bareiss_row", "best_support")


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.children = 0.0


class Tracer:
    """Span stack plus counters; one per traced run."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.pivot_bits_max = 0
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    @contextmanager
    def root(self, name: str):
        self._push(name)
        try:
            yield
        finally:
            self._pop()

    @contextmanager
    def span(self, name: str):
        """A layer span opened by the benchmark itself (e.g. serialization)."""
        if not self._stack:
            yield
            return
        self._push(name)
        try:
            yield
        finally:
            self._pop()

    def _push(self, name: str) -> None:
        self._stack.append(_Frame(name, time.perf_counter()))

    def _pop(self) -> None:
        frame = self._stack.pop()
        duration = time.perf_counter() - frame.start
        self.self_s[frame.name] += duration - frame.children
        self.calls[frame.name] += 1
        if self._stack:
            self._stack[-1].children += duration

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "exactlp.solve":

            def wrapper(rows, rhs, *args, **kwargs):
                if not tracer._stack:
                    return fn(rows, rhs, *args, **kwargs)
                before = tracer.counts["kernels.bareiss_row.calls"]
                tracer._push(name)
                try:
                    return fn(rows, rhs, *args, **kwargs)
                finally:
                    tracer._pop()
                    # One pivot eliminates every other row and the objective
                    # row: len(rows) bareiss_row calls.
                    done = tracer.counts["kernels.bareiss_row.calls"] - before
                    tracer.counts["exactlp.pivots"] += done // len(rows)

            return wrapper

        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            tracer._push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._pop()
            if counter is not None:
                key, measure = counter
                tracer.counts[key] += measure(args, out)
            return out

        return wrapper

    def _wrap_kernel(self, name: str, fn):
        tracer = self
        key = f"kernels.{name}.calls"

        if name == "bareiss_row":

            def kernel(row, pivot_row, coeff, pivot, divisor):
                if tracer._stack:
                    counts = tracer.counts
                    counts[key] += 1
                    counts["exactlp.cells"] += len(pivot_row)
                    bits = abs(pivot).bit_length()
                    if bits > tracer.pivot_bits_max:
                        tracer.pivot_bits_max = bits
                return fn(row, pivot_row, coeff, pivot, divisor)

            return kernel

        def kernel(*args):
            if tracer._stack:
                tracer.counts[key] += 1
            return fn(*args)

        return kernel

    def install(self) -> None:
        import importlib

        for name, sites in SPANS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        kernels = importlib.import_module("ruhull._kernels")
        for attr in KERNELS:
            original = getattr(kernels, attr)
            self._saved.append((kernels, attr, original))
            setattr(kernels, attr, self._wrap_kernel(attr, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
