import gc
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from jelogic import semantics
from jelogic.axioms import cs_total, instantiate
from jelogic.semantics import (
    BoundExhausted,
    FiniteBasicEvaluation,
    ModalCountermodel,
    NotBasicModel,
    QuasiModel,
    UnknownWorld,
    build_singleton_model,
    check_basic_model,
    check_fully_explanatory,
    check_modular,
    eval_basic,
    find_modal_countermodel,
    model_truth,
    monotone_closure,
    op_circle,
    op_dot,
    op_prefix,
    saturate,
    soundness_fuzz,
    truth_set,
)
from jelogic.syntax import (
    And,
    Apply,
    Atom,
    BOT,
    Bang,
    Bottom,
    Box,
    Dialect,
    DialectError,
    Evidence,
    Implies,
    JustOf,
    JustSum,
    JustVar,
    MApply,
    Not,
    Or,
    ProofConst,
    ProofOf,
    ProofVar,
    Sum,
    parse_formula,
    print_formula,
)

A, B, C = Atom("A"), Atom("B"), Atom("C")
P0, P1 = ProofVar(0), ProofVar(1)
X0, X1 = JustVar(0), JustVar(1)


def _je(atoms=None, table=None, bound=3):
    return FiniteBasicEvaluation(Dialect.JE, atoms or {}, table or {}, bound)


def _jem(atoms=None, table=None, bound=3):
    return FiniteBasicEvaluation(Dialect.JEM, atoms or {}, table or {}, bound)


class TestSetOps:
    def test_application_op(self):
        assert op_dot({Implies(A, B), C}, {A}) == {B}

    def test_application_op_empty_argument(self):
        assert op_dot({Implies(A, B)}, set()) == set()

    def test_equivalence_op(self):
        x = {Implies(A, B), Implies(B, A)}
        assert op_circle(x, {B}) == {A}

    def test_equivalence_op_needs_both_directions(self):
        assert op_circle({Implies(A, B)}, {B}) == set()

    def test_prefix_op(self):
        assert op_prefix(P0, {A, B}) == {ProofOf(P0, A), ProofOf(P0, B)}


class TestSaturate:
    def test_application_closure(self):
        eps = _je(table={P0: frozenset({Implies(A, B)}), P1: frozenset({A})})
        sat = saturate(eps)
        assert B in sat.entry(Apply(P0, P1))

    def test_introspection_closure(self):
        sat = saturate(_je(table={P0: frozenset({A})}))
        assert ProofOf(P0, A) in sat.entry(Bang(P0))

    def test_proof_sum_closure(self):
        eps = _je(table={P0: frozenset({A}), P1: frozenset({B})})
        sat = saturate(eps)
        assert sat.entry(Apply(P0, P1)) == frozenset()
        assert {A, B} <= sat.entry(parse_formula("(p0 + p1):A", Dialect.JE).term)

    def test_equivalence_closure(self):
        eps = _je(table={
            P0: frozenset({Implies(A, B), Implies(B, A)}),
            Evidence(P0): frozenset({A}),
        })
        sat = saturate(eps)
        assert B in sat.entry(Evidence(P0))

    def test_evidence_sum_closure(self):
        eps = _je(table={Evidence(P0): frozenset({A}), Evidence(P1): frozenset({B})})
        sat = saturate(eps)
        assert {A, B} <= sat.entry(Evidence(parse_formula("(p0 + p1):A", Dialect.JE).term))

    def test_pairing_closure(self):
        eps = _jem(table={P0: frozenset({Implies(A, B)}), X0: frozenset({A})})
        sat = saturate(eps)
        assert B in sat.entry(MApply(P0, X0))

    def test_just_sum_closure(self):
        eps = _jem(table={X0: frozenset({A}), X1: frozenset({B})})
        sat = saturate(eps)
        assert sat.entry(JustSum(X0, X1)) == frozenset({A, B})

    def test_empty_table_is_a_fixpoint(self):
        sat = saturate(_je())
        assert sat.table == {}

    def test_extensive_and_idempotent(self):
        eps = _je(table={P0: frozenset({Implies(A, B), A})})
        sat = saturate(eps)
        assert eps.entry(P0) <= sat.entry(P0)
        again = saturate(sat)
        assert again.table == sat.table

    def test_bound_exhausted_by_deep_key(self):
        deep = Apply(Apply(Apply(Apply(P0, P0), P0), P0), P0)
        with pytest.raises(BoundExhausted):
            saturate(_je(table={deep: frozenset({A})}, bound=1))

    def test_modal_dialect_rejected(self):
        with pytest.raises(DialectError):
            saturate(FiniteBasicEvaluation(Dialect.MODAL))

    def test_a_long_evidence_sum_returns(self):
        """The entry of ``e(s + t)`` is made from those of ``e(s)`` and
        ``e(t)`` in one pass, with no Python frame per summand."""
        summands = [ProofVar(i) for i in range(1500)]
        total = Evidence(reduce(Sum, summands))
        assert saturate(_je(bound=2000), (total,)).table == {}
        eps = _je(table={Evidence(summands[-1]): frozenset({A})}, bound=2000)
        assert saturate(eps, (total,)).entry(total) == frozenset({A})

    def test_leaves_no_cyclic_garbage(self):
        """Each entry is made in the loop, not by a closure that refers to
        itself, so nothing a call builds waits for the cyclic collector."""
        gc.collect()
        gc.disable()
        try:
            saturate(_je(table={P0: frozenset({Implies(A, B), A}), Evidence(P1): frozenset({B})}))
            soundness_fuzz(Dialect.JE, 50)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEvalBasic:
    def test_propositional_clauses(self):
        eps = _je(atoms={"A": True})
        assert eval_basic(eps, A)
        assert not eval_basic(eps, B)  # unlisted atoms default to false
        assert not eval_basic(eps, BOT)
        assert eval_basic(eps, Implies(B, A)) and eval_basic(eps, Implies(B, B))
        assert eval_basic(eps, Or(B, A)) and not eval_basic(eps, And(A, B))
        assert eval_basic(eps, Not(B))

    def test_term_assertions_hit_the_table(self):
        eps = _je(table={P0: frozenset({A}), Evidence(P0): frozenset({B})})
        assert eval_basic(eps, ProofOf(P0, A))
        assert not eval_basic(eps, ProofOf(P0, B))
        assert eval_basic(eps, JustOf(Evidence(P0), B))
        assert not eval_basic(eps, JustOf(Evidence(P1), B))

    def test_box_has_no_clause(self):
        with pytest.raises(DialectError):
            eval_basic(_je(), Box(A))

    def test_box_raises_behind_a_decided_operand(self):
        # ``_|_ -> []A`` is decided by its left operand, but every operand
        # is evaluated.
        with pytest.raises(DialectError):
            eval_basic(_je(), Implies(BOT, Box(A)))


class TestCheckBasicModel:
    def test_factivity_violation(self):
        eps = _je(table={P0: frozenset({Bottom()})})
        kinds = {v.kind for v in check_basic_model(eps)}
        assert "factivity" in kinds

    def test_missing_application_entry(self):
        eps = _je(atoms={"A": True, "B": True},
                  table={P0: frozenset({Implies(A, B)}), P1: frozenset({A})})
        violations = check_basic_model(eps)
        assert any(v.kind == "application-closure" and "B" in v.message for v in violations)

    def test_saturated_factive_evaluation_is_a_model(self):
        eps = saturate(_je(atoms={"A": True}, table={P0: frozenset({A})}))
        assert check_basic_model(eps) == []

    def test_specification_closure(self):
        # The requirement only bites for constants declared in the universe.
        cs = cs_total(Dialect.JE)
        instance = Implies(ProofOf(P1, A), A)  # factivity-scheme instance
        atoms = {"A": True, "B": True}
        poor = saturate(_je(atoms=atoms, table={
            P0: frozenset({instance}),
            ProofConst("c_jt"): frozenset({B}),
        }))
        poor.cs = cs  # saturated without it, so not closed under it
        violations = check_basic_model(poor)
        assert any(v.kind == "specification-closure" and "c_jt" in v.message for v in violations)
        rich = saturate(_je(atoms=atoms, table={
            P0: frozenset({instance}),
            ProofConst("c_jt"): frozenset({B, instance}),
        }))
        rich.cs = cs
        assert not any(v.kind == "specification-closure" for v in check_basic_model(rich))

    def test_violation_rendering(self):
        eps = _je(table={P0: frozenset({Bottom()})})
        v = next(v for v in check_basic_model(eps) if v.kind == "factivity")
        assert str(v).startswith("[factivity]")


def _two_world_model() -> QuasiModel:
    u = _je(atoms={"A": True}, table={Evidence(P0): frozenset({A})})
    v = _je(atoms={})
    return QuasiModel(
        worlds=("u", "v"),
        neighborhoods={"u": frozenset({frozenset({"u"})}), "v": frozenset()},
        evaluations={"u": u, "v": v},
    )


class TestQuasiModel:
    def test_model_truth_is_local(self):
        m = _two_world_model()
        assert model_truth(m, "u", A) and not model_truth(m, "v", A)
        assert model_truth(m, "u", JustOf(Evidence(P0), A))
        assert not model_truth(m, "v", JustOf(Evidence(P0), A))

    def test_unknown_world(self):
        with pytest.raises(UnknownWorld):
            model_truth(_two_world_model(), "nowhere", A)

    def test_truth_set(self):
        m = _two_world_model()
        assert truth_set(m, A) == frozenset({"u"})
        assert truth_set(m, BOT) == frozenset()
        assert truth_set(m, Implies(A, A)) == frozenset({"u", "v"})

    def test_check_modular_accepts_the_example(self):
        assert check_modular(_two_world_model()) == []

    def test_justification_must_yield_belief(self):
        m = _two_world_model()
        broken = QuasiModel(m.worlds, {"u": frozenset(), "v": frozenset()}, m.evaluations)
        violations = check_modular(broken)
        assert any(v.kind == "justification-yields-belief" for v in violations)

    def test_factivity_is_world_local(self):
        u = _je(atoms={}, table={P0: frozenset({A})})  # A false here
        m = QuasiModel(("u",), {"u": frozenset()}, {"u": u})
        assert any(v.kind == "factivity" for v in check_modular(m))

    def test_monotonicity_check(self):
        m = QuasiModel(
            ("u", "v"),
            {"u": frozenset({frozenset({"u"})}), "v": frozenset()},
            {"u": _jem(), "v": _jem()},
        )
        violations = check_modular(m)  # monotonic by the dialect
        assert any(v.kind == "monotonicity" for v in violations)


class TestFullyExplanatory:
    def test_empty_neighborhoods_are_vacuous(self):
        m = QuasiModel(("u",), {"u": frozenset()}, {"u": _je(atoms={"A": True})})
        assert check_fully_explanatory(m, [A, B]) == []

    def test_singleton_model_explains_its_beliefs(self):
        eps = saturate(_je(atoms={"A": True},
                           table={P0: frozenset({A}), Evidence(P0): frozenset({A})}))
        m = build_singleton_model(eps)
        assert check_fully_explanatory(m, [A]) == []

    def test_unexplained_neighborhood_reported(self):
        m = QuasiModel(
            ("u",),
            {"u": frozenset({frozenset()})},
            {"u": _je(atoms={})},
        )
        assert check_fully_explanatory(m, [B]) == [("u", B)]


class TestMonotoneClosure:
    def test_supersets_added(self):
        got = monotone_closure({"w": frozenset({frozenset({"1"})})}, ("1", "2"))
        assert got["w"] == frozenset({frozenset({"1"}), frozenset({"1", "2"})})

    def test_empty_family_stays_empty(self):
        assert monotone_closure({"w": frozenset()}, ("1", "2")) == {"w": frozenset()}

    def test_idempotent_and_extensive(self):
        base = {"w": frozenset({frozenset(), frozenset({"2"})})}
        once = monotone_closure(base, ("1", "2", "3"))
        assert base["w"] <= once["w"]
        assert monotone_closure(once, ("1", "2", "3")) == once

    def test_minimal(self):
        base = {"w": frozenset({frozenset({"1"})})}
        once = monotone_closure(base, ("1", "2"))
        for added in once["w"] - base["w"]:
            assert any(x <= added for x in base["w"])


class TestBuildSingleton:
    def test_no_justifications_no_neighborhoods(self):
        eps = saturate(_je(atoms={"A": True}, table={P0: frozenset({A})}))
        m = build_singleton_model(eps)
        assert m.worlds == ("w0",) and m.neighborhoods["w0"] == frozenset()

    def test_true_justified_formula_becomes_neighborhood(self):
        eps = saturate(_je(atoms={"A": True},
                           table={P0: frozenset({A}), Evidence(P0): frozenset({A})}))
        m = build_singleton_model(eps)
        assert m.neighborhoods["w0"] == frozenset({frozenset({"w0"})})
        assert check_modular(m) == []

    def test_false_justified_formula_gives_empty_neighborhood(self):
        eps = saturate(_je(table={Evidence(P0): frozenset({B})}))
        m = build_singleton_model(eps)
        assert frozenset() in m.neighborhoods["w0"]
        assert check_modular(m) == []

    def test_monotone_dialect_supplements(self):
        eps = saturate(_jem(table={X0: frozenset({B})}))
        m = build_singleton_model(eps)
        assert m.neighborhoods["w0"] == frozenset({frozenset(), frozenset({"w0"})})
        assert check_modular(m) == []

    def test_rejects_non_models(self):
        with pytest.raises(NotBasicModel):
            build_singleton_model(_je(table={P0: frozenset({B})}))


class TestSoundnessFuzz:
    def test_zero_trials(self):
        report = soundness_fuzz(Dialect.JE, 0)
        assert report.ok and report.checked == 0 and report.failures == []

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            soundness_fuzz(Dialect.JE, -5)

    def test_short_runs_pass(self):
        for dialect in (Dialect.JE, Dialect.JEM):
            report = soundness_fuzz(dialect, 40, seed=7)
            assert report.ok, report.failures
            assert report.checked > 0

    def test_modal_dialect_rejected(self):
        with pytest.raises(DialectError):
            soundness_fuzz(Dialect.MODAL, 1)

    def test_draws_do_not_depend_on_set_order(self, monkeypatch):
        # Nodes hash by identity, so a set of formulas iterates in an order
        # that changes from run to run; a seed must still draw the same
        # instances.  Reversing the iteration of the table's entry sets
        # stands in for another run's order.
        class Reversed(frozenset):
            def __iter__(self):
                return reversed(list(super().__iter__()))

        drawn = []

        def spy(pattern, binding):
            f = instantiate(pattern, binding)
            drawn.append(print_formula(f))
            return f

        monkeypatch.setattr(semantics, "instantiate", spy)
        soundness_fuzz(Dialect.JE, 60, seed=2)
        first, drawn[:] = drawn[:], []
        monkeypatch.setattr(semantics, "frozenset", Reversed, raising=False)
        soundness_fuzz(Dialect.JE, 60, seed=2)
        assert first and drawn == first


def _truth_mask(cm: ModalCountermodel, f) -> int:
    """Independent bitmask evaluator over a reported countermodel."""
    atoms = dict(cm.atom_masks)
    full = (1 << cm.world_count) - 1
    match f:
        case Atom(name):
            return atoms.get(name, 0)
        case Bottom():
            return 0
        case Implies(l, r):
            return (full ^ _truth_mask(cm, l)) | _truth_mask(cm, r)
        case And(l, r):
            return _truth_mask(cm, l) & _truth_mask(cm, r)
        case Or(l, r):
            return _truth_mask(cm, l) | _truth_mask(cm, r)
        case Not(inner):
            return full ^ _truth_mask(cm, inner)
        case Box(body):
            inner = _truth_mask(cm, body)
            return sum(
                1 << w for w in range(cm.world_count) if cm.neighborhoods[w] >> inner & 1
            )
    raise AssertionError(f"unexpected formula {f!r}")


def _modal(text: str):
    return parse_formula(text, Dialect.MODAL)


class TestModalCountermodel:
    def test_monotonicity_splits_the_logics(self):
        f = _modal("[]A -> [](A | B)")
        cm = find_modal_countermodel(f, "E")
        assert cm is not None
        assert not _truth_mask(cm, f) >> cm.world & 1
        assert find_modal_countermodel(f, "EM") is None

    def test_disjunction_of_boxes(self):
        f = _modal("([]A | []B) -> [](A | B)")
        assert find_modal_countermodel(f, "EM") is None
        cm = find_modal_countermodel(f, "E")
        assert cm is not None
        assert not _truth_mask(cm, f) >> cm.world & 1

    def test_tautology_has_no_countermodel(self):
        assert find_modal_countermodel(_modal("A -> A"), "E") is None

    def test_falsum_is_refuted_immediately(self):
        cm = find_modal_countermodel(_modal("_|_"), "E", max_worlds=1)
        assert cm is not None and cm.world_count == 1

    def test_describe_mentions_the_refutation_point(self):
        cm = find_modal_countermodel(_modal("[]A -> []B"), "EM")
        assert cm is not None
        text = cm.describe()
        assert "falsified at" in text and "worlds:" in text

    def test_unknown_logic(self):
        with pytest.raises(ValueError):
            find_modal_countermodel(A, "K")

    def test_modal_dialect_enforced(self):
        with pytest.raises(DialectError):
            find_modal_countermodel(parse_formula("[e(p0)]A", Dialect.JE), "E")


@given(st.integers(0, 10**9), st.sampled_from([Dialect.JE, Dialect.JEM]))
@settings(max_examples=60, deadline=None)
def test_saturation_is_a_closure_operator(seed, dialect):
    rng = random.Random(seed)
    props = [A, B, Implies(A, B), Implies(B, A), And(A, B), Or(A, B)]
    table = {}
    for leaf in (P0, P1):
        if rng.random() < 0.8:
            table[leaf] = frozenset(rng.sample(props, rng.randint(1, 3)))
    jkeys = [Evidence(P0), Evidence(P1)] if dialect is Dialect.JE else [X0, X1]
    for jk in jkeys:
        if rng.random() < 0.6:
            table[jk] = frozenset(rng.sample(props, rng.randint(1, 2)))
    eps = FiniteBasicEvaluation(dialect, {"A": rng.random() < 0.5, "B": rng.random() < 0.5}, table, 3)
    sat = saturate(eps)
    for key, fs in table.items():
        assert fs <= sat.entry(key)
    again = saturate(sat)
    assert again.table == sat.table
