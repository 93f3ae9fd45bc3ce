"""Spans around the benchmark's calls into jelogic's layers.

Every call the workloads make into a layer's public function goes through
``Caller.call``.  The untraced caller only forwards the call; the tracer also
records a span (name, operation id, start, end) and keeps counters recorded at
the same boundaries.  Spans stay in memory and are written out when the run
ends.  Nothing here reaches inside ``src/``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path


class Caller:
    tracing = False

    def call(self, name: str, fn, *args):
        return fn(*args)

    def begin_op(self, label: str) -> None:
        pass

    def count(self, key: str, n: int = 1) -> None:
        pass


class Tracer(Caller):
    tracing = True

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.ops: list[str] = []
        self.counts: Counter = Counter()

    def begin_op(self, label: str) -> None:
        self.ops.append(label)

    def call(self, name: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, len(self.ops) - 1, start, time.perf_counter()))

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def busy(self) -> Counter:
        """Total seconds per span name."""
        out: Counter = Counter()
        for name, _, start, end in self.spans:
            out[name] += end - start
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, op, start, end in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "label": self.ops[op], "start": start, "end": end}) + "\n")


# Per-layer metric -> (unit, span names whose time it sums, or None for a counter).
LAYER_METRICS = {
    "syntax.parse_s": ("s", ("syntax.parse_formula", "sequent.parse_sequent_line")),
    "syntax.print_s": ("s", ("syntax.print_formula",)),
    "sequent.search_s": ("s", ("sequent.prove_bounded",)),
    "sequent.proof_nodes": ("count", None),
    "sequent.check_s": ("s", ("sequent.check_sequent_proof",)),
    "sequent.families_s": ("s", ("sequent.compute_families",)),
    "sequent.families": ("count", None),
    "realization.realize_s": ("s", ("realization.realize",)),
    "realization.simplify_s": ("s", ("realization.simplify",)),
    "realization.simplify_fallbacks": ("count", None),
    "realization.verify_s": ("s", ("realization.verify_realization",)),
    "realization.internalizations": ("count", None),
    "realization.term_tree_nodes": ("count", None),
    "realization.term_distinct_nodes": ("count", None),
    "realization.formula_tree_nodes": ("count", None),
    "realization.formula_distinct_nodes": ("count", None),
    "hilbert.check_s": ("s", ("hilbert.check_derivation",)),
    "hilbert.steps_checked": ("count", None),
    "formats.write_s": ("s", ("formats.write_derivation",)),
    "formats.read_s": ("s", ("formats.parse_derivation", "formats.parse_sequent_proof")),
    "formats.bytes": ("bytes", None),
    "semantics.oracle_s": ("s", ("semantics.find_modal_countermodel", "semantics.describe")),
    "semantics.oracle_calls": ("count", None),
    "semantics.countermodels": ("count", None),
    "semantics.fuzz_s": ("s", ("semantics.soundness_fuzz",)),
    "semantics.fuzz_checked": ("count", None),
    "semantics.fuzz_rejected": ("count", None),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    busy = tracer.busy()
    out = {}
    for name, (unit, spans) in LAYER_METRICS.items():
        value = sum(busy[s] for s in spans) if spans else tracer.counts[name]
        out[name] = (value, unit)
    return out
