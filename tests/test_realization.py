import dataclasses
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from jelogic import realization
from jelogic.axioms import ConstantSpecification
from jelogic.generate import _equivalence_pair, axp, random_formula, random_sequent_theorem, re, rm, wl
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
    try_simplify,
    verify_realization,
)
from jelogic.semantics import find_modal_countermodel
from jelogic.sequent import Proof, Sequent, prove_bounded
from jelogic.syntax import (
    Atom,
    Bang,
    Dialect,
    DialectError,
    Evidence,
    Implies,
    JustOf,
    JustSum,
    JustVar,
    MApply,
    Or,
    ProofConst,
    ProofOf,
    ProofVar,
    Substitution,
    Sum,
    apply_substitution,
    forgetful,
    parse_formula,
    print_formula,
    subterms,
)

from _helpers import CS_JE, CS_JEM, fragment_formulas, proof_of, realize_text

A, B, C = Atom("A"), Atom("B"), Atom("C")


def _sub_result(result, s: Substitution):
    """Apply a substitution coherently to every component of a result."""
    return dataclasses.replace(
        result,
        antecedent=tuple(apply_substitution(f, s) for f in result.antecedent),
        succedent=tuple(apply_substitution(f, s) for f in result.succedent),
        derivation=substitute_derivation(result.derivation, s),
        log=tuple(
            LogEntry(apply_substitution(e.term, s), apply_substitution(e.formula, s),
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

    def test_merged_nested_variables_break_normality(self):
        """Golden 6's ``[x0]([x1]A & [x2]B)``: x1 and x2 are two negative
        boxes nested in one, and merging them breaks normality."""
        r = realize_text("=> []([]A & []B) -> ([][]A & [][]B)", "GM")
        (f,) = r.succedent
        x1, x2 = f.left.body.left.term, f.left.body.right.term
        assert isinstance(x1, JustVar) and isinstance(x2, JustVar) and x1 != x2
        verify_realization(r)
        merged = _sub_result(r, Substitution(just_vars={x2.index: x1}))
        with pytest.raises(NotNormal, match="share one variable"):
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


def test_ge_ladder_of_sixteen_proves_realizes_and_verifies_within_a_second():
    """The tree has 2^17 - 1 nodes, but 17 shapes: realization works per
    shape, and no step of it expands the tree."""
    n = 16
    t0 = time.perf_counter()
    proof = proof_of(f"{'[]' * n}A => {'[]' * n}A", "GE", n + 2)
    verify_realization(realize(proof, "GE", CS_JE))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("text, printed", [
    ("[]A => []A & []A",
     "[x0]A -> [m(c_pl_s * c_pl_k * c_pl_k, x0)]A & [m(c_pl_s * c_pl_k * c_pl_k, x0)]A"),
    ("[]A | []B => [](A | B) & [](A | B)",
     "[x0]A | [x1]B -> [m(c_pl_or_intro_l, x0) + m(c_pl_or_intro_r, x1)](A | B)"
     " & [m(c_pl_or_intro_l, x0) + m(c_pl_or_intro_r, x1)](A | B)"),
])
def test_shared_subproofs_under_two_families_realize_per_family(text, printed):
    """One subproof sits under both conjuncts, its boxes in different
    families there: it is realized once per family, in both modes."""
    for mode in ("strict", "simplify"):
        r = realize(proof_of(text, "GM"), "GM", CS_JEM, mode)
        verify_realization(r)
        assert print_formula(r.realized) == printed


def test_monotone_ladder_grows_by_a_constant_per_level():
    """Internalizing a proved ``t:F`` as ``!t`` keeps ``[]^n A => []^n A``
    in GM linear in n: each level adds the same steps."""
    sizes = []
    for n in range(1, 9):
        r = realize_text(f"{'[]' * n}A => {'[]' * n}A", "GM")
        verify_realization(r)
        sizes.append(len(r.derivation))
    assert len({b - a for a, b in zip(sizes, sizes[1:])}) == 1, sizes


@pytest.mark.parametrize(
    "text, calculus",
    [("[][](A & B) => [][](B & A)", "GE"), ("[][](A & B) => [][](B & A)", "GM"),
     ("[]([]A & []B) => [][]A", "GM")],
)
def test_nested_premises_internalize_proved_assertions_as_bang(text, calculus):
    """An outer modal rule's premise derivation proves the inner rule's
    assertion ``t:F`` by modus ponens; internalizing it gives ``!t`` with a
    compound ``t``, and the result verifies in both modes."""
    r = realize_text(text, calculus)
    assert any(
        isinstance(t, Bang) and not isinstance(t.inner, ProofConst)
        for e in r.log
        for t in subterms(e.term)
    )
    verify_realization(r)
    verify_realization(simplify(r))


@given(st.integers(0, 10**9), st.sampled_from(["GE", "GM"]))
@example(12299, "GM")  # the inner premise is one axiom: its term is a constant
@settings(max_examples=20, deadline=None)
def test_modal_rules_nested_twice_internalize_as_bang(seed, calculus):
    """The outer of two nested modal rules internalizes a premise derivation
    that proves the inner rule's ``t:F``, after the inner provisional was
    substituted into it: a later log entry's term has a ``!s`` whose ``s``
    contains the term the inner rule logged."""
    rng = random.Random(seed)
    if calculus == "GM":
        theorem = random_sequent_theorem(rng, "GM")
        p = rm(rm(wl(theorem, random_formula(rng, Dialect.MODAL, 2), 0)))
    else:
        fwd, back = _equivalence_pair(rng.choice("ABC"))
        p = re(re(fwd, back), re(back, fwd))
    cs = CS_JE if calculus == "GE" else CS_JEM
    for mode in ("strict", "simplify"):
        r = realize(p, calculus, cs, mode)
        assert any(
            isinstance(t, Bang) and inner.term in subterms(t.inner)
            for i, inner in enumerate(r.log)
            for later in r.log[i + 1:]
            for t in subterms(later.term)
        )
        verify_realization(r)


@pytest.mark.parametrize(
    "text, calculus",
    [("[]A | [](A & A) => []A", "GE"), ("[]A | []B => [](A | B)", "GM")],
)
def test_resolve_rewrites_part_of_what_it_holds(monkeypatch, text, calculus):
    """On these inputs resolving a provisional changes some but not all of
    the derivations and log entries built so far, and the result verifies."""
    resolve = realization._Engine._resolve
    totals = {"changed": 0, "held": 0}

    def watched_resolve(self, provisional, value):
        if isinstance(provisional, ProofVar):
            s = Substitution(proof_vars={provisional.index: value})
        else:
            s = Substitution(just_vars={provisional.index: value})
        changed = [d for d in self.derivs.values() if substitute_derivation(d, s) != d]
        for e in self.log:
            new = substitute_derivation(e.derivation, s)
            if (new, apply_substitution(e.term, s), apply_substitution(e.formula, s)) != (e.derivation, e.term, e.formula):
                changed.append(new)
        totals["changed"] += len(changed)
        totals["held"] += len(self.derivs) + len(self.log)
        resolve(self, provisional, value)

    monkeypatch.setattr(realization._Engine, "_resolve", watched_resolve)
    verify_realization(realize_text(text, calculus))
    assert 0 < totals["changed"] < totals["held"]


def test_ladder_resolves_without_rechecking(monkeypatch):
    """Each GE ladder class has one distinct instance, so resolving its
    provisional rewrites nothing built so far, and nothing is re-checked."""
    resolving = [False]
    rechecked = []
    resolves = []
    check = realization.check_derivation
    resolve = realization._Engine._resolve

    def counting_check(d, cs):
        if resolving[0]:
            rechecked.append(d)
        return check(d, cs)

    def watched_resolve(self, provisional, value):
        resolves.append(provisional)
        resolving[0] = True
        try:
            resolve(self, provisional, value)
        finally:
            resolving[0] = False

    monkeypatch.setattr(realization, "check_derivation", counting_check)
    monkeypatch.setattr(realization._Engine, "_resolve", watched_resolve)
    verify_realization(realize_text("[][][]A => [][][]A", "GE"))
    assert len(resolves) == 3 and rechecked == []


@pytest.mark.parametrize("mode", ["strict", "simplify"])
def test_ge_ladder_realizes_each_level_once(mode):
    """The GE ladder's proof is a complete binary tree with one distinct
    subproof per level: two internalizations per level, and the realized
    formula grows by the same number of characters at each level."""
    sizes = []
    for n in range(1, 9):
        r = realize(proof_of(f"{'[]' * n}A => {'[]' * n}A", "GE"), "GE", CS_JE, mode)
        verify_realization(r)
        assert len(r.log) == 2 * n
        sizes.append(len(print_formula(r.realized)))
    assert len({b - a for a, b in zip(sizes, sizes[1:])}) == 1, sizes


def test_equal_subproofs_in_different_classes_stay_apart():
    """Both conjuncts have the same subproof, but their boxes fall in two
    classes, each with its own provisional, so neither reuses the other."""
    for mode in ("strict", "simplify"):
        r = realize(proof_of("=> ([]A -> []A) & ([]A -> []A)", "GE"), "GE", CS_JE, mode)
        assert len(r.log) == 4
        verify_realization(r)


def test_try_simplify_reports_why_it_fell_back(monkeypatch):
    strict = realize_text("=> [](A & B) -> [](B & A)", "GE")
    slim, reason = try_simplify(strict)
    assert slim.mode == "simplify" and reason is None

    def unverifiable(result, proof=None, cs=None):
        raise DerivationFails("forced")

    monkeypatch.setattr(realization, "verify_realization", unverifiable)
    back, reason = try_simplify(strict)
    assert back is strict and reason == "DerivationFails: forced"
    assert simplify(strict) is strict


def _valid_fragment_sample(logic: str, size: int = 60) -> list:
    """A fixed-seed sample of the criterion-6 fragment formulas that have no
    countermodel of two worlds, which in this fragment are its theorems."""
    formulas = fragment_formulas()
    random.Random(6).shuffle(formulas)
    sample = []
    for f in formulas:
        if find_modal_countermodel(f, logic, max_worlds=2) is None:
            sample.append(f)
            if len(sample) == size:
                return sample
    raise AssertionError(f"fewer than {size} valid fragment formulas in {logic}")


@pytest.mark.parametrize("calculus, logic", [("GE", "E"), ("GM", "EM")])
def test_valid_fragment_formulas_prove_realize_and_verify(calculus, logic):
    cs = CS_JE if calculus == "GE" else CS_JEM
    for f in _valid_fragment_sample(logic):
        proof = prove_bounded(Sequent((), (f,)), calculus, 10)
        assert proof is not None, print_formula(f)
        strict = realize(proof, calculus, cs)
        verify_realization(strict)
        slim = simplify(strict)
        assert slim.mode == "simplify", print_formula(f)
        verify_realization(slim)
