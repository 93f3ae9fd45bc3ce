"""Fast tests of the benchmark harness: the independent checkers accept and
reject small hand-made cases, and each workload finishes a reduced round.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from jebench import inputs as I  # noqa: E402
from jebench import workloads as W  # noqa: E402
from jebench.checks import (  # noqa: E402
    CheckFailed,
    check_countermodel,
    check_forgets_to,
    check_readback,
    disjunction,
    forget,
    node_counts,
    superset_closed,
    truth_set,
)
from jelogic import Dialect, Sequent, parse_formula  # noqa: E402
from jelogic.hilbert import Judgment  # noqa: E402
from jelogic.semantics import ModalCountermodel  # noqa: E402
from jelogic.syntax import And, Atom, Box, Implies, Or  # noqa: E402
from jebench.trace import Caller, Tracer, layer_metrics  # noqa: E402

A, B = Atom("A"), Atom("B")


def modal(text):
    return parse_formula(text, Dialect.MODAL)


# ---------------------------------------------------------------------------
# Neighborhood evaluator


def test_truth_set_of_a_box_follows_the_neighborhoods():
    worlds = frozenset({0, 1})
    valuation = {"A": frozenset({0})}
    neighborhoods = {0: frozenset({frozenset({0})}), 1: frozenset()}
    assert truth_set(Box(A), worlds, valuation, neighborhoods) == {0}
    assert truth_set(Implies(Box(A), A), worlds, valuation, neighborhoods) == {0, 1}
    assert truth_set(Or(A, Box(A)), worlds, valuation, neighborhoods) == {0}


def test_countermodel_check_accepts_a_real_countermodel():
    # One world, A false, N(w0) = {{}}: []A is true ({} is in N) but [](A | B)
    # with B true is not ({w0} is not in N).
    cm = ModalCountermodel(1, (("A", 0), ("B", 1)), (0b01,), 0)
    check_countermodel(modal("[]A -> [](A | B)"), cm, monotone=False)


def test_countermodel_check_rejects_a_model_where_the_formula_holds():
    cm = ModalCountermodel(1, (("A", 0), ("B", 1)), (0b01,), 0)
    with pytest.raises(CheckFailed, match="does not falsify"):
        check_countermodel(modal("[]A -> []A"), cm, monotone=False)


def test_countermodel_check_rejects_non_monotone_neighborhoods_in_em():
    cm = ModalCountermodel(1, (("A", 0), ("B", 1)), (0b01,), 0)
    with pytest.raises(CheckFailed, match="superset-closed"):
        check_countermodel(modal("[]A -> [](A | B)"), cm, monotone=True)


def test_superset_closure():
    worlds = frozenset({0, 1})
    closed = frozenset({frozenset({0}), frozenset({0, 1})})
    assert superset_closed(worlds, {0: closed, 1: frozenset()})
    assert not superset_closed(worlds, {0: frozenset({frozenset({0})})})


# ---------------------------------------------------------------------------
# Realized formulas


def test_forget_erases_justifications():
    f = parse_formula("[e(c1)]A -> [e(p0 + p1)][e(c2)]B", Dialect.JE)
    assert forget(f) == modal("[]A -> [][]B")
    with pytest.raises(CheckFailed):
        forget(parse_formula("c1:A", Dialect.JE))


def test_forgets_to_compares_both_sides():
    ante = (parse_formula("[x0]A", Dialect.JEM),)
    succ = (parse_formula("[m(c1, x0)]A", Dialect.JEM),)
    check_forgets_to(ante, succ, Sequent((Box(A),), (Box(A),)))
    with pytest.raises(CheckFailed):
        check_forgets_to(ante, succ, Sequent((Box(A),), (Box(B),)))


def test_readback_check():
    ante, succ = (A,), (A, B)
    check_readback(Judgment(frozenset({A}), Or(A, B)), ante, succ)
    with pytest.raises(CheckFailed, match="wrong formula"):
        check_readback(Judgment(frozenset(), Or(B, A)), ante, succ)
    with pytest.raises(CheckFailed, match="hypotheses"):
        check_readback(Judgment(frozenset({B}), Or(A, B)), ante, succ)
    assert disjunction(()) == parse_formula("_|_", Dialect.MODAL)


def test_node_counts_see_sharing():
    shared = And(A, B)
    f = Implies(shared, shared)
    counts = node_counts([f])
    assert counts["formula_tree_nodes"] == 7
    assert counts["formula_distinct_nodes"] == 4
    assert counts["term_tree_nodes"] == counts["term_distinct_nodes"] == 0
    term_counts = node_counts([parse_formula("[e(c1 + c1)]A", Dialect.JE)])
    assert term_counts["term_tree_nodes"] == 4  # e(.), +, c1, c1
    assert term_counts["term_distinct_nodes"] == 3


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert W.tail(list(range(1, 8295))) == 8212  # p99: 82 beyond, p99.9: 8
    assert W.tail(list(range(1, 127))) == 114  # p90: 12 beyond
    assert W.tail(list(range(1, 41))) == 30  # p75: 10 beyond
    assert W.tail(list(range(1, 21))) == 20  # too few: the slowest


# ---------------------------------------------------------------------------
# Inputs


def test_inputs_follow_the_seed():
    assert I.sweep_inputs(3) == I.sweep_inputs(3)
    assert I.sweep_inputs(3).formulas != I.sweep_inputs(4).formulas
    assert len(I.sweep_inputs(3).formulas) == 4146
    small = I.realize_inputs(5, random_proofs=2, sample=1)
    assert small == I.realize_inputs(5, random_proofs=2, sample=1)
    assert len(small) == len(I.GOLDENS) + 2 * 2 + 2 * 1
    assert [i.label for i in I.nesting_inputs(0)] == [i.label for i in I.nesting_inputs(9)]
    assert I.nesting_inputs(0) != I.nesting_inputs(9)


def test_nesting_budgets_only_the_top_ge_level():
    items = I.nesting_inputs(0)
    assert len(items) == 4 + 5 + 4
    assert [i.label for i in items if i.budget_s == I.TOP_BUDGET_S] == ["boxes-GE-4"]
    assert not any(i.label == "boxes-GE-5" for i in items)


def test_round_keys_times_and_failures():
    r = W.Round()
    assert r.timed("ok", lambda: 1) == 1
    assert r.timed("bad", lambda: 1 // 0) is None
    assert (r.attempted, r.failed, r.failed_keys) == (2, 1, {"bad"})
    assert "ZeroDivisionError" in r.errors[0]


def test_round_times_take_each_operation_at_its_fastest():
    t = W.Tally()
    for times in ({"a": 3.0, "b": 1.0, "x": 5.0}, {"a": 2.0, "b": 4.0, "x": 6.0}):
        t.add(W.Round(seconds=times, failed_keys={"x"}, derivation_steps=7))
    assert (t.rounds, t.attempted, t.failed) == (2, 6, 2)
    m = W.round_times(t)
    assert m["round.wall_s"] == (2.0 + 1.0 + 5.0, "s")  # failed operations count in wall_s
    assert m["round.op_p50_ms"] == (1.5e3, "ms")  # completed ones only
    assert m["round.op_tail_ms"] == (2.0e3, "ms")
    assert W.end_to_end(t)["derivation_steps"] == (7, "steps")


# ---------------------------------------------------------------------------
# Reduced rounds


def test_sweep_round_smoke():
    full = I.sweep_inputs(2)
    inp = I.SweepInputs(full.formulas[:60], fuzz_seed=2)
    r = W.sweep_round(inp, Caller())
    assert r.errors == []
    assert r.attempted == 2 * 60 + 2 and r.failed == 0


def test_realize_round_smoke_traced():
    state = (I.realize_inputs(1, random_proofs=2, sample=1), I.constant_specs())
    tracer = Tracer()
    r = W.realize_round(state, tracer)
    assert r.errors == [] and r.failed == 0 and r.attempted == len(I.GOLDENS) + 2 * 2 + 2 * 1
    metrics = layer_metrics(tracer)
    assert metrics["realization.realize_s"][0] > 0
    assert metrics["formats.bytes"][0] > 0
    assert metrics["realization.term_distinct_nodes"][0] <= metrics["realization.term_tree_nodes"][0]


def test_nesting_round_smoke_and_budget():
    items = I.nesting_inputs(0, ge_top=2, gm_top=2, conj_top=2)
    items.append(I.NestingInput("tight", "GE", 3, Sequent((Box(Box(Box(A))),), (Box(Box(Box(A))),)), 1e-4))
    r = W.nesting_round((items, I.constant_specs()), Caller())
    assert r.errors == []
    assert r.attempted == 7 and r.failed_keys == {"tight"}
