"""The three workloads: one round runs every operation of a workload once.

An operation is timed as a whole; the checks on its outputs and the counters
of a traced round run after it, outside the timed region.  Every call into a
jelogic layer goes through a ``Caller`` so that a traced round records a span
around it.  A run repeats rounds, and each operation counts with its fastest
time in the run (see ``round_times``).
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass, field

from jelogic import Dialect, check_sequent_proof, compute_families, prove_bounded
from jelogic.formats import parse_derivation, parse_sequent_proof, write_derivation
from jelogic.hilbert import check_derivation
from jelogic.realization import realize, simplify, verify_realization
from jelogic.semantics import find_modal_countermodel, soundness_fuzz
from jelogic.sequent import Sequent, parse_sequent_line
from jelogic.syntax import parse_formula, print_formula

from . import inputs as I
from .checks import (
    CheckFailed,
    check_countermodel,
    check_forgets_to,
    check_readback,
    node_counts,
    proof_nodes,
    require,
)
from .trace import Caller, Tracer, layer_metrics

# Nesting re-reads the derivations of the lowest levels only: the files grow
# about tenfold per level (8.8 MB at GE n = 4), and the realize workload
# already times the file format.
READBACK_MAX_LEVEL = 2


class CaseTimeout(BaseException):
    """An operation ran past its budget.  A BaseException, so that no
    ``except Exception`` inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout


@dataclass
class Round:
    seconds: dict = field(default_factory=dict)  # operation key -> seconds, failed ones included
    failed_keys: set = field(default_factory=set)
    derivation_steps: int = 0
    output_chars: int = 0
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    def timed(self, key, fn, budget_s: float | None = None):
        """Run and time one operation, under the budget if one is given.
        Returns its result, or None when it failed."""
        start = time.perf_counter()
        try:
            if budget_s is None:
                out = fn()
            else:
                signal.setitimer(signal.ITIMER_REAL, budget_s)
                try:
                    out = fn()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except CaseTimeout:
            out = None
        except Exception as e:  # a fault of the program: counted and reported
            out = None
            self.errors.append(f"{key}: operation failed: {type(e).__name__}: {e}")
        self.seconds[key] = time.perf_counter() - start
        if out is None:
            self.failed_keys.add(key)
        return out

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as e:
            self.errors.append(str(e))


# ---------------------------------------------------------------------------
# sweep: search and the semantic oracle over the criterion 6 fragment


def sweep_setup(seed: int):
    return I.sweep_inputs(seed)


def _sweep_op(f, calculus: str, logic: str, c: Caller):
    seq = Sequent((), (f,))
    proof = c.call("sequent.prove_bounded", prove_bounded, seq, calculus, I.SEARCH_DEPTH)
    root = None if proof is None else c.call("sequent.check_sequent_proof", check_sequent_proof, proof, calculus)
    cm = c.call("semantics.find_modal_countermodel", find_modal_countermodel, f, logic, 2)
    text = "" if cm is None else c.call("semantics.describe", cm.describe)
    return proof, root, cm, text


def sweep_round(inp: I.SweepInputs, c: Caller) -> Round:
    r = Round()
    proved = {calc: set() for calc in I.CALCULI}
    for i, f in enumerate(inp.formulas):
        for calc, (logic, _) in I.CALCULI.items():
            c.begin_op((calc, i))
            out = r.timed((calc, i), lambda: _sweep_op(f, calc, logic, c))
            if out is None:
                continue
            proof, root, cm, text = out
            r.check(require, not (proof and cm), f"{print_formula(f)} is both proved and refuted in {calc}")
            if proof is not None:
                proved[calc].add(i)
                r.check(require, root == Sequent((), (f,)), f"{calc} proof does not conclude its input")
                nodes = proof_nodes(proof)
                r.derivation_steps += nodes
                c.count("sequent.proof_nodes", nodes)
            if cm is not None:
                r.check(check_countermodel, f, cm, logic == "EM")
                c.count("semantics.countermodels")
            r.output_chars += len(text)
            c.count("semantics.oracle_calls")
    r.check(require, proved["GE"] <= proved["GM"], "a GE theorem is not GM-provable")
    for dialect in (Dialect.JE, Dialect.JEM):
        c.begin_op(("fuzz", dialect.name))
        report = r.timed(
            ("fuzz", dialect.name),
            lambda: c.call("semantics.soundness_fuzz", soundness_fuzz, dialect, I.FUZZ_TRIALS, inp.fuzz_seed)
        )
        if report is None:
            continue
        r.check(require, report.ok, f"{dialect.name} fuzzing found {len(report.failures)} unsound instances")
        r.check(
            require,
            report.checked + report.rejected == report.trials == I.FUZZ_TRIALS,
            f"{dialect.name} fuzz report does not add up",
        )
        c.count("semantics.fuzz_checked", report.checked)
        c.count("semantics.fuzz_rejected", report.rejected)
    return r


# ---------------------------------------------------------------------------
# realize: the CLI's `realize -o` then `check` path


def realize_setup(seed: int):
    return I.realize_inputs(seed), I.constant_specs()


def _realize_op(item: I.RealizeInput, cs, c: Caller):
    if item.is_proof_file:
        proof, calculus = c.call("formats.parse_sequent_proof", parse_sequent_proof, item.text)
        require(calculus == item.calculus, f"{item.label}: file declares {calculus}")
    else:
        seq = c.call("sequent.parse_sequent_line", parse_sequent_line, item.text)
        proof = c.call("sequent.prove_bounded", prove_bounded, seq, item.calculus, I.SEARCH_DEPTH)
        require(proof is not None, f"{item.label}: no {item.calculus} proof of {item.text}")
    strict = c.call("realization.realize", realize, proof, item.calculus, cs)
    final = c.call("realization.simplify", simplify, strict)
    c.call("realization.verify_realization", verify_realization, strict)
    c.call("realization.verify_realization", verify_realization, final)
    printed = c.call("syntax.print_formula", print_formula, final.realized)
    text = c.call("formats.write_derivation", write_derivation, final.derivation)
    back = c.call("formats.parse_derivation", parse_derivation, text)
    judgment = c.call("hilbert.check_derivation", check_derivation, back, cs)
    return proof, strict, final, printed, text, back, judgment


def _count_realization(c: Caller, proof, results) -> None:
    """Counters of a traced round; the family analysis is a probe call made
    outside the timed operation."""
    c.count("sequent.proof_nodes", proof_nodes(proof))
    analysis = c.call("sequent.compute_families", compute_families, proof)
    c.count("sequent.families", len(analysis.families))
    for res in results:
        c.count("realization.internalizations", len(res.log))
        for key, n in node_counts([res.realized]).items():
            c.count("realization." + key, n)


def realize_round(state, c: Caller) -> Round:
    items, specs = state
    r = Round()
    for item in items:
        cs = specs[item.calculus]
        c.begin_op(item.label)
        out = r.timed(item.label, lambda: _realize_op(item, cs, c))
        if out is None:
            continue
        proof, strict, final, printed, text, back, judgment = out
        for res in (strict, final):
            r.check(check_forgets_to, res.antecedent, res.succedent, proof.sequent)
        r.check(require, parse_formula(printed, final.dialect) == final.realized, f"{item.label}: print/parse mismatch")
        r.check(require, back == final.derivation, f"{item.label}: derivation changed through the file format")
        r.check(check_readback, judgment, final.antecedent, final.succedent)
        r.check(require, _not_larger(final, strict), f"{item.label}: simplify result is larger than the strict one")
        r.derivation_steps += len(strict.derivation) + len(final.derivation)
        r.output_chars += len(printed)
        if c.tracing:
            fell_back = final is strict
            _count_realization(c, proof, (strict,) if fell_back else (strict, final))
            c.count("realization.simplify_fallbacks", fell_back)
            c.count("hilbert.steps_checked", len(back))
            c.count("formats.bytes", len(text) + (len(item.text) if item.is_proof_file else 0))
    return r


def _not_larger(simplified, strict) -> bool:
    def nodes(res):
        counts = node_counts([res.realized])
        return counts["formula_tree_nodes"] + counts["term_tree_nodes"]

    return nodes(simplified) <= nodes(strict) and len(simplified.derivation) <= len(strict.derivation)


# ---------------------------------------------------------------------------
# nesting: scaling ladders of box nesting


def nesting_setup(seed: int):
    return I.nesting_inputs(seed), I.constant_specs()



def _nesting_op(item: I.NestingInput, cs, c: Caller):
    proof = c.call("sequent.prove_bounded", prove_bounded, item.sequent, item.calculus, I.SEARCH_DEPTH)
    require(proof is not None, f"{item.label}: no proof found")
    result = c.call("realization.realize", realize, proof, item.calculus, cs)
    c.call("realization.verify_realization", verify_realization, result)
    printed = c.call("syntax.print_formula", print_formula, result.realized)
    reparsed = c.call("syntax.parse_formula", parse_formula, printed, result.dialect)
    return proof, result, printed, reparsed


def nesting_round(state, c: Caller) -> Round:
    items, specs = state
    r = Round()
    signal.signal(signal.SIGALRM, _on_alarm)
    for item in items:
        cs = specs[item.calculus]
        c.begin_op(item.label)
        out = r.timed(item.label, lambda: _nesting_op(item, cs, c), item.budget_s)
        if out is None:
            continue
        proof, result, printed, reparsed = out
        r.check(check_forgets_to, result.antecedent, result.succedent, proof.sequent)
        r.check(require, reparsed == result.realized, f"{item.label}: print/parse mismatch")
        if item.level <= READBACK_MAX_LEVEL:
            back = parse_derivation(write_derivation(result.derivation))
            r.check(require, back == result.derivation, f"{item.label}: derivation changed through the file format")
            r.check(check_readback, check_derivation(back, cs), result.antecedent, result.succedent)
        r.derivation_steps += len(result.derivation)
        r.output_chars += len(printed)
        if c.tracing:
            _count_realization(c, proof, (result,))
    return r


WORKLOADS = {
    "sweep": (sweep_setup, sweep_round),
    "realize": (realize_setup, realize_round),
    "nesting": (nesting_setup, nesting_round),
}


# ---------------------------------------------------------------------------
# Metrics


TAIL_LEVELS = (0.75, 0.9, 0.99, 0.999)


def tail(times: list) -> float:
    """The highest of the 75th, 90th, 99th and 99.9th percentiles (nearest
    rank) with at least ten operations beyond it.  With fewer than forty
    operations there is no such tail, and the slowest one stands in for it."""
    s = sorted(times)
    n = len(s)
    if n < 40:
        return s[-1]
    ranks = [math.ceil(round(p * n, 9)) for p in TAIL_LEVELS]
    return s[max(r for r in ranks if n - r >= 10) - 1]


@dataclass
class Tally:
    """The rounds of a run, folded as they end: each operation's fastest time,
    and the counts.  Every round runs the same operations."""

    best: dict = field(default_factory=dict)  # operation key -> fastest seconds
    failed_keys: set = field(default_factory=set)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    derivation_steps: list = field(default_factory=list)
    output_chars: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def add(self, r: Round) -> None:
        for key, t in r.seconds.items():
            self.best[key] = min(t, self.best.get(key, t))
        self.failed_keys |= r.failed_keys
        self.rounds += 1
        self.attempted += r.attempted
        self.failed += r.failed
        self.derivation_steps.append(r.derivation_steps)
        self.output_chars.append(r.output_chars)
        self.errors += r.errors

    @property
    def wall_s(self) -> float:
        return sum(self.best.values())


def end_to_end(t: Tally) -> dict[str, tuple[float, str]]:
    """The sizes of a round's outputs; they do not depend on the machine."""
    med = statistics.median
    return {
        "derivation_steps": (med(t.derivation_steps), "steps"),
        "output_chars": (med(t.output_chars), "chars"),
    }


def round_times(t: Tally) -> dict[str, tuple[float, str]]:
    """A round's times with every operation at its fastest time in the run.

    On a shared 2-vCPU KVM guest the CPU switches between a fast and a slow
    phase (a fixed loop takes 1.35-1.7 times as long in the slow one) that
    lasts from seconds to minutes, so a median over one run's rounds follows
    the phase the run fell into.  The fastest of an operation's repetitions
    spread over the run follows it only where the slow phase covers the whole
    run."""
    done = [s for key, s in t.best.items() if key not in t.failed_keys]
    return {
        "round.wall_s": (t.wall_s, "s"),
        "round.op_p50_ms": (statistics.median(done) * 1e3, "ms"),
        "round.op_tail_ms": (tail(done) * 1e3, "ms"),
    }


def trace_metrics(plain: Tally, traced: Tally, tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the last traced round, the times of the
    untraced rounds, and the tracing overhead: ``round.wall_s`` of the traced
    rounds less that of the untraced ones."""
    metrics = layer_metrics(tracer)
    metrics.update(round_times(plain))
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return metrics
