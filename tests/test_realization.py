import dataclasses
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from jelogic.axioms import ConstantSpecification
from jelogic.generate import axp, random_sequent_theorem, re
from jelogic.hilbert import (
    Builder,
    NotAppropriate,
    check_derivation,
    prove_id,
    step_formulas,
    substitute_derivation,
)
from jelogic.realization import (
    DerivationFails,
    LogEntry,
    NotNormal,
    PROVISIONAL_BASE,
    ProvisionalLeak,
    RoundtripMismatch,
    UncheckedProof,
    realize,
    simplify,
    verify_realization,
)
from jelogic.sequent import Proof, Sequent
from jelogic.syntax import (
    Atom,
    Dialect,
    DialectError,
    Evidence,
    Implies,
    JustOf,
    JustSum,
    JustVar,
    MApply,
    Or,
    ProofOf,
    ProofVar,
    Substitution,
    Sum,
    apply_substitution,
    apply_to_term,
    forgetful,
    parse_formula,
)

from _helpers import CS_JE, CS_JEM, proof_of, realize_text

A, B, C = Atom("A"), Atom("B"), Atom("C")


def _sub_result(result, s: Substitution):
    """Apply a substitution coherently to every component of a result."""
    return dataclasses.replace(
        result,
        antecedent=tuple(apply_substitution(f, s) for f in result.antecedent),
        succedent=tuple(apply_substitution(f, s) for f in result.succedent),
        derivation=substitute_derivation(result.derivation, s),
        log=tuple(
            LogEntry(apply_to_term(e.term, s), apply_substitution(e.formula, s),
                     substitute_derivation(e.derivation, s))
            for e in result.log
        ),
    )


class TestRealize:
    def test_boxless_proof(self):
        r = realize(axp("A"), "GE", CS_JE)
        assert r.antecedent == (A,) and r.succedent == (A,)
        assert r.realized == Implies(A, A)
        assert r.log == () and r.mode == "strict"
        verify_realization(r)

    def test_identity_on_one_box(self):
        r = realize(re(axp("A"), axp("A")), "GE", CS_JE)
        (ante,), (succ,) = r.antecedent, r.succedent
        assert forgetful(ante) == forgetful(succ) == parse_formula("[]A", Dialect.MODAL)
        assert isinstance(ante, JustOf) and isinstance(ante.term, Evidence)
        verify_realization(r)

    def test_unchecked_proof_rejected(self):
        bogus = Proof(Sequent((A,), (B,)), "AxP", (("L", 0), ("R", 0)), ())
        with pytest.raises(UncheckedProof):
            realize(bogus, "GE", CS_JE)

    def test_specification_dialect_must_match_calculus(self):
        with pytest.raises(DialectError):
            realize(axp("A"), "GE", CS_JEM)

    def test_specification_must_be_appropriate(self):
        skimpy = ConstantSpecification(Dialect.JE, {"c0": frozenset({"jt"})})
        with pytest.raises(NotAppropriate):
            realize(axp("A"), "GE", skimpy)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            realize(axp("A"), "GE", CS_JE, mode="fast")

    def test_log_counts_internalized_premises(self):
        r1 = realize_text("=> []A -> ([]B -> []A)", "GE")
        assert len(r1.log) == 2  # both directions of the single congruence node
        r2 = realize_text("[]A | []B => [](A | B)", "GM")
        assert len(r2.log) == 2  # one per monotone node
        for r in (r1, r2):
            for entry in r.log:
                j = check_derivation(entry.derivation, r.cs)
                assert j.hypotheses == frozenset()
                assert j.conclusion == ProofOf(entry.term, entry.formula)

    def test_monotone_negative_boxes_get_distinct_variables(self):
        r = realize_text("[]A | []B => [](A | B)", "GM")
        (ante,), (succ,) = r.antecedent, r.succedent
        assert isinstance(ante, Or)
        x, y = ante.left.term, ante.right.term
        assert isinstance(x, JustVar) and isinstance(y, JustVar) and x != y
        assert isinstance(succ.term, JustSum)
        verify_realization(r)


class TestVerify:
    def test_roundtrip_mismatch(self):
        r = realize(axp("A"), "GE", CS_JE)
        tampered = dataclasses.replace(r, antecedent=(B,))
        with pytest.raises(RoundtripMismatch):
            verify_realization(tampered)

    def test_provisional_leak(self):
        r = realize(re(axp("A"), axp("A")), "GE", CS_JE)
        ghost = JustOf(Evidence(ProofVar(PROVISIONAL_BASE)), A)
        tampered = dataclasses.replace(r, succedent=(ghost,))
        with pytest.raises(ProvisionalLeak):
            verify_realization(tampered)

    def test_derivation_wrong_conclusion(self):
        r = realize(axp("A"), "GE", CS_JE)
        tampered = dataclasses.replace(r, derivation=prove_id(Dialect.JE, B))
        with pytest.raises(DerivationFails):
            verify_realization(tampered)

    def test_derivation_with_foreign_hypothesis(self):
        r = realize(axp("A"), "GE", CS_JE)
        b = Builder(Dialect.JE)
        b.hyp(C)
        conclusion = b.embed(r.derivation)
        tampered = dataclasses.replace(r, derivation=b.derivation(conclusion))
        with pytest.raises(DerivationFails):
            verify_realization(tampered)

    def test_corrupted_log(self):
        r = realize_text("=> []A -> ([]B -> []A)", "GE")
        first = r.log[0]
        forged = LogEntry(first.term, Implies(first.formula, first.formula), first.derivation)
        with pytest.raises(DerivationFails):
            verify_realization(dataclasses.replace(r, log=(forged,) + r.log[1:]))

    def test_merged_variables_break_normality(self):
        r = realize_text("[]A | []B => [](A | B)", "GM")
        (ante,), _ = r.antecedent, r.succedent
        x, y = ante.left.term, ante.right.term
        merged = _sub_result(r, Substitution(just_vars={y.index: x}))
        with pytest.raises(NotNormal):
            verify_realization(merged)

    def test_compound_term_breaks_normality(self):
        r = realize_text("[]A | []B => [](A | B)", "GM")
        (ante,) = r.antecedent
        x, y = ante.left.term, ante.right.term
        compound = _sub_result(r, Substitution(just_vars={y.index: MApply(ProofVar(0), x)}))
        with pytest.raises(NotNormal, match="non-variable"):
            verify_realization(compound)


class TestSimplify:
    def test_mirror_witnesses_collapse(self):
        strict = realize_text("=> [](A & B) -> [](B & A)", "GE")
        (f,) = strict.succedent
        assert isinstance(f.right.term.proof, Sum)
        slim = simplify(strict)
        assert slim.mode == "simplify"
        (g,) = slim.succedent
        assert not isinstance(g.right.term.proof, Sum)
        verify_realization(slim)
        assert forgetful(g) == forgetful(f)

    def test_distinct_witnesses_stay_summed(self):
        strict = realize_text("=> [](A & A) -> [](A | A)", "GE")
        slim = simplify(strict)
        assert slim.mode == "simplify"
        assert slim.succedent == strict.succedent
        assert slim.antecedent == strict.antecedent

    def test_monotone_mode_changes_nothing(self):
        strict = realize_text("[]A | []B => [](A | B)", "GM")
        slim = simplify(strict)
        assert slim.succedent == strict.succedent
        assert slim.antecedent == strict.antecedent

    def test_idempotent(self):
        slim = simplify(realize_text("=> [](A & B) -> [](B & A)", "GE"))
        assert simplify(slim) is slim


@given(st.integers(0, 10**9), st.sampled_from(["GE", "GM"]))
@settings(max_examples=30, deadline=None)
def test_random_realizations_verify(seed, calculus):
    p = random_sequent_theorem(random.Random(seed), calculus, depth=4)
    cs = CS_JE if calculus == "GE" else CS_JEM
    r = realize(p, calculus, cs)
    verify_realization(r)
    root = p.sequent
    assert tuple(forgetful(f) for f in r.antecedent) == root.ante
    assert tuple(forgetful(f) for f in r.succedent) == root.succ
    slim = simplify(r)
    verify_realization(slim)


# Acceptance goldens 1, 2, 4 and 5, then forward-built proofs of seeds 0..7.
_SOURCES = [
    ("=> []A -> ([]B -> []A)", "GE"),
    ("[][]A => [][]A", "GE"),
    ("=> [](A & B) -> ([]A & []B)", "GM"),
    ("=> ([]A | []B) -> [](A | B)", "GM"),
] + [(seed, calculus) for calculus in ("GE", "GM") for seed in range(8)]


@pytest.mark.parametrize("source, calculus", _SOURCES)
def test_each_formula_is_derived_once(source, calculus):
    if isinstance(source, str):
        proof = proof_of(source, calculus)
    else:
        proof = random_sequent_theorem(random.Random(source), calculus)
    r = realize(proof, calculus, CS_JE if calculus == "GE" else CS_JEM)
    for result in (r, simplify(r)):
        formulas = step_formulas(result.derivation)
        assert len(set(formulas)) == len(formulas)
        verify_realization(result)


def test_box_identity_realizes_as_its_hypothesis():
    r = realize_text("[][]A => [][]A", "GE")
    assert len(r.derivation) == 1
    assert r.derivation.steps[0].formula == r.antecedent[0] == r.succedent[0]


def test_four_nested_boxes_realize_in_seconds():
    proof = proof_of("[][][][]A => [][][][]A", "GE")
    t0 = time.perf_counter()
    verify_realization(realize(proof, "GE", CS_JE))
    assert time.perf_counter() - t0 < 10.0
