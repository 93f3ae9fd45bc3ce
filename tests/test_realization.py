import dataclasses
import random
import time
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from jelogic import realization
from jelogic.axioms import ConstantSpecification
from jelogic.generate import _equivalence_pair, random_formula, random_sequent_theorem
from jelogic.hilbert import (
    ANStep,
    AxiomStep,
    Builder,
    Hyp,
    MPStep,
    NotAppropriate,
    check_derivation,
    prove_id,
    substitute_derivation,
)
from jelogic.realization import (
    DerivationFails,
    LogEntry,
    NotNormal,
    RoundtripMismatch,
    UncheckedProof,
    realize,
    simplify,
    verify_realization,
)
from jelogic.semantics import find_modal_countermodel
from jelogic.sequent import Proof, Sequent, compute_families, conclude, prove_bounded
from jelogic.syntax import (
    Atom,
    Bang,
    Box,
    Dialect,
    DialectError,
    Evidence,
    Formula,
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
    children,
    forgetful,
    parse_formula,
    postorder,
    print_formula,
    subterms,
    terms_in,
)

from _helpers import (
    CS_JE,
    CS_JEM,
    fragment_formulas,
    proof_of,
    realize_text,
    replaced_step,
    shape_labels,
    subformula_at,
)

A, B, C = Atom("A"), Atom("B"), Atom("C")
AXIOM = conclude("AxP", (), formula=A)  # A => A


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
        r = realize(AXIOM, "GE", CS_JE)
        assert r.antecedent == (A,) and r.succedent == (A,)
        assert r.realized == Implies(A, A)
        assert r.log == () and r.mode == "strict"
        verify_realization(r)

    def test_identity_on_one_box(self):
        r = realize(conclude("RE", (AXIOM, AXIOM)), "GE", CS_JE)
        (ante,), (succ,) = r.antecedent, r.succedent
        assert forgetful(ante) == forgetful(succ) == parse_formula("[]A", Dialect.MODAL)
        assert isinstance(ante, JustOf) and isinstance(ante.term, Evidence)
        verify_realization(r)

    def test_unchecked_proof_rejected(self):
        bogus = Proof(Sequent((A,), (B,)), "AxP", (("L", 0), ("R", 0)), ())
        with pytest.raises(UncheckedProof):
            realize(bogus, "GE", CS_JE)

    def test_proof_of_a_justified_sequent_rejected(self):
        """An RM proof of ``[x0]A => [x0]A`` holds a formula outside the
        modal dialect at its root: an unchecked proof, for ``realize`` and
        ``verify_realization`` alike."""
        boxed = JustOf(JustVar(0), A)
        bogus = Proof(Sequent((boxed,), (boxed,)), "RM", (("L", 0), ("R", 0)), (AXIOM,))
        with pytest.raises(UncheckedProof):
            realize(bogus, "GM", CS_JEM)
        r = realize_text("[]A => []A", "GM")
        with pytest.raises(UncheckedProof):
            verify_realization(r, bogus)

    def test_specification_dialect_must_match_calculus(self):
        with pytest.raises(DialectError):
            realize(AXIOM, "GE", CS_JEM)

    def test_specification_must_be_appropriate(self):
        skimpy = ConstantSpecification(Dialect.JE, {"c0": frozenset({"jt"})})
        with pytest.raises(NotAppropriate):
            realize(AXIOM, "GE", skimpy)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            realize(AXIOM, "GE", CS_JE, mode="fast")

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
        r = realize(AXIOM, "GE", CS_JE)
        tampered = dataclasses.replace(r, antecedent=(B,))
        with pytest.raises(RoundtripMismatch):
            verify_realization(tampered)

    def test_provisional_leak(self):
        """A succedent box realized by a variable the derivation never
        mentions forgets back to the source, but the derivation does not
        conclude it."""
        r = realize(conclude("RE", (AXIOM, AXIOM)), "GE", CS_JE)
        ghost = JustOf(Evidence(ProofVar(10**6)), A)
        tampered = dataclasses.replace(r, succedent=(ghost,))
        with pytest.raises(DerivationFails):
            verify_realization(tampered)

    def test_derivation_wrong_conclusion(self):
        r = realize(AXIOM, "GE", CS_JE)
        tampered = dataclasses.replace(r, derivation=prove_id(Dialect.JE, B))
        with pytest.raises(DerivationFails):
            verify_realization(tampered)

    def test_derivation_with_foreign_hypothesis(self):
        r = realize(AXIOM, "GE", CS_JE)
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


    # The root and the log share one memo of checked steps: a fault in one
    # log entry must still fail, though the root checks the steps around it.
    def _tampered_log(self, k, change):
        r = realize(_ladder(3, "GM"), "GM", CS_JEM)
        log = list(r.log)
        log[k] = LogEntry(log[k].term, log[k].formula, change(log[k].derivation))
        assert set(r.log[k].derivation.steps) <= set(r.derivation.steps)
        return dataclasses.replace(r, log=tuple(log))

    def test_relabelled_axiom_in_one_log_entry(self):
        def relabel(d):
            i = next(i for i, s in enumerate(d.steps) if isinstance(s, AxiomStep) and s.scheme != "pl_k")
            return replaced_step(d, i, AxiomStep(d.steps[i].formula, "pl_k"))

        with pytest.raises(DerivationFails, match="logged internalization: bad-axiom"):
            verify_realization(self._tampered_log(1, relabel))

    def test_necessitation_outside_the_specification_in_one_log_entry(self):
        def foreign(d):
            i = next(i for i, s in enumerate(d.steps) if isinstance(s, ANStep))
            return replaced_step(d, i, ANStep("c_zz", d.steps[i].axiom))

        with pytest.raises(DerivationFails, match="logged internalization: bad-an"):
            verify_realization(self._tampered_log(2, foreign))

    def test_log_entry_missing_a_premise(self):
        """A premise assumed, not derived: the entry's steps above it check,
        but its judgment has a hypothesis."""

        def assume(d):
            i = next(i for i, s in enumerate(d.steps) if isinstance(s, MPStep))
            return replaced_step(d, i, Hyp(d.steps[i].formula))

        with pytest.raises(DerivationFails, match="does not conclude its recorded judgment"):
            verify_realization(self._tampered_log(0, assume))

    def test_swapped_log_terms(self):
        r = realize(_ladder(3, "GM"), "GM", CS_JEM)
        first, second = r.log[:2]
        assert first.term != second.term
        log = (LogEntry(second.term, first.formula, first.derivation),
               LogEntry(first.term, second.formula, second.derivation)) + r.log[2:]
        with pytest.raises(DerivationFails, match="recorded judgment"):
            verify_realization(dataclasses.replace(r, log=log))

    def test_each_distinct_step_is_checked_once(self, monkeypatch):
        """At GM n = 8 the root's derivation holds every step of the log's:
        one ``verify_realization`` checks each distinct step once."""
        import jelogic.hilbert

        r = realize(_ladder(8, "GM"), "GM", CS_JEM)
        checked = []
        check_step = jelogic.hilbert._check_step

        def counting(step, *rest):
            checked.append(step)
            return check_step(step, *rest)

        monkeypatch.setattr(jelogic.hilbert, "_check_step", counting)
        verify_realization(r)
        steps = set(r.derivation.steps).union(*(e.derivation.steps for e in r.log))
        assert len(checked) == len(set(checked)) == len(steps) == len(r.derivation)
        assert set(checked) == steps

    def test_each_distinct_step_is_walked_once(self, monkeypatch):
        """At GM n = 64 the root and the 64 log entries list 13063 steps
        between them, 391 of them distinct: the shared memo stops each walk
        at the steps an earlier one checked."""
        import jelogic.hilbert

        r = realize(_ladder(64, "GM"), "GM", CS_JEM)
        steps = r.derivation.steps
        assert len(r.log) == 64 and len(steps) == 391
        walked = []
        postorder = jelogic.hilbert.postorder

        def recording(*args):
            out = postorder(*args)
            walked.extend(out)
            return out

        monkeypatch.setattr(jelogic.hilbert, "postorder", recording)
        verify_realization(r)
        assert len(walked) == len(set(walked)) == 391
        assert set(walked) == set(steps)


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
        formulas = [s.formula for s in result.derivation.steps]
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
    that proves the inner rule's ``t:F``, with t the inner group's finished
    candidate: a later log entry's term has a ``!s`` whose ``s`` contains
    the term the inner rule logged."""
    rng = random.Random(seed)
    if calculus == "GM":
        theorem = random_sequent_theorem(rng, "GM")
        weakened = conclude("WL", (theorem,), 0, random_formula(rng, Dialect.MODAL, 2))
        p = conclude("RM", (conclude("RM", (weakened,)),))
    else:
        fwd, back = _equivalence_pair(rng.choice("ABC"))
        p = conclude("RE", (conclude("RE", (fwd, back)), conclude("RE", (back, fwd))))
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


_SUMMED = {
    # The first RE's witnesses, both in strict mode and one in simplify mode,
    # then the second's.
    "strict": "e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k"
    " + (c_pl_and_elim_l + c_pl_s * c_pl_and_intro * (c_pl_s * c_pl_k * c_pl_k)))",
    "simplify": "e(c_pl_s * c_pl_k * c_pl_k"
    " + (c_pl_and_elim_l + c_pl_s * c_pl_and_intro * (c_pl_s * c_pl_k * c_pl_k)))",
}


@pytest.mark.parametrize(
    "text, calculus",
    [("[]A | [](A & A) => []A", "GE"), ("[]A | []B => [](A | B)", "GM")],
)
def test_resolve_rewrites_part_of_what_it_holds(text, calculus):
    """Two modal-rule instances of one group, each over a premise of its
    own: the group's sum holds the witnesses of both, in both modes, and
    each realization verifies."""
    if calculus == "GE":
        expected = {mode: f"[{t}]A | [{t}](A & A) -> [{t}]A" for mode, t in _SUMMED.items()}
    else:
        printed = "[x0]A | [x1]B -> [m(c_pl_or_intro_l, x0) + m(c_pl_or_intro_r, x1)](A | B)"
        expected = {"strict": printed, "simplify": printed}
    cs = CS_JE if calculus == "GE" else CS_JEM
    for mode, printed in expected.items():
        r = realize(proof_of(text, calculus), calculus, cs, mode)
        verify_realization(r)
        assert print_formula(r.realized) == printed


def test_realize_checks_no_derivation(monkeypatch):
    """Realizing the GE ladder at n = 3 checks no derivation, not even the
    premise derivations ``internalize`` lifts: the engine built them.
    ``verify_realization`` checks the root's derivation and each of the six
    logged ones, once each."""
    import jelogic.hilbert

    checked = []
    check = jelogic.hilbert._check

    def counting_check(d, cs, memo):
        checked.append(d)
        return check(d, cs, memo)

    monkeypatch.setattr(realization, "_check", counting_check)
    monkeypatch.setattr(jelogic.hilbert, "_check", counting_check)
    r = realize_text("[][][]A => [][][]A", "GE")
    assert checked == []
    verify_realization(r)
    assert len(checked) == 1 + len(r.log) == 7
    assert checked == [r.derivation] + [e.derivation for e in r.log]


def _ladder(n: int, calculus: str) -> Proof:
    boxed = "[]" * n + "A"
    return proof_of(f"{boxed} => {boxed}", calculus, n + 2)


# The shared-copy sequents of ``test_sequent``'s shape tests.
_SHARED = [
    ("[]A => []A & []A", "GM"),
    ("[]A | []B => [](A | B) & [](A | B)", "GM"),
    ("[]A, []A => []A & []A", "GE"),
    ("=> ([]A -> []A) & ([]A -> []A)", "GE"),
    ("=> []([]A & []B) -> ([][]A & [][]B)", "GM"),
    ("[][][][]A => [][][][]A", "GE"),
    ("[][][][]A => [][][][]A", "GM"),
]


def _assert_groups_are_deeper_below_their_rules(p: Proof):
    """The order the engine realizes in rests on this: the two boxes of a
    modal-rule shape have one modal depth d (``Box`` nodes above their root
    occurrence), for every family of a GE class, and every box in the
    rule's premises belongs to families deeper than d."""
    fa = compute_families(p)
    members = {cls.families[0]: cls.families for cls in fa.classes}

    def depths(label: int) -> set[int]:
        out = set()
        for fid in members.get(label, (label,)):
            side, i, path = fa.families[fid].occurrence
            f = (p.sequent.ante if side == "L" else p.sequent.succ)[i]
            out.add(sum(isinstance(subformula_at(f, path[:j]), Box) for j in range(len(path))))
        return out

    for shape in fa.shapes:
        if shape.proof.rule not in ("RE", "RM"):
            continue
        here = depths(shape.sequent.ante[0].term.index) | depths(shape.sequent.succ[0].term.index)
        assert len(here) == 1, (shape.proof.sequent, here)
        below, stack = set(), list(shape.children)
        while stack:
            k = stack.pop()
            if k not in below:
                below.add(k)
                stack.extend(fa.shapes[k].children)
        for k in below:
            for label in shape_labels(fa.shapes[k].sequent):
                assert min(depths(label)) > max(here), (shape.proof.sequent, fa.shapes[k].proof.sequent)


@given(st.integers(0, 10**9), st.sampled_from(["GE", "GM"]))
@settings(max_examples=60, deadline=None)
def test_random_modal_rules_sit_above_deeper_groups(seed, calculus):
    _assert_groups_are_deeper_below_their_rules(random_sequent_theorem(random.Random(seed), calculus, depth=5))


def test_ladder_and_shared_modal_rules_sit_above_deeper_groups():
    for calculus in ("GE", "GM"):
        for n in range(1, 7):
            _assert_groups_are_deeper_below_their_rules(_ladder(n, calculus))
    for text, calculus in _SHARED:
        _assert_groups_are_deeper_below_their_rules(proof_of(text, calculus))


_GOLDENS = [
    ("=> []A -> ([]B -> []A)", "GE"),
    ("[][]A => [][]A", "GE"),
    ("=> [](A -> A) -> [](B -> B)", "GE"),
    ("=> [](A & B) -> ([]A & []B)", "GM"),
    ("=> ([]A | []B) -> [](A | B)", "GM"),
    ("=> []([]A & []B) -> ([][]A & [][]B)", "GM"),
]


def test_realization_revises_no_term(monkeypatch):
    """Every group's term is final when first built: realizing substitutes
    into nothing but the family variables of annotated sequents, in either
    mode, and every result verifies."""
    import jelogic.syntax

    substitute = jelogic.syntax._Substituter.__call__

    def refuse_built_terms(self, x):
        built = [t for t in (terms_in(x) if isinstance(x, Formula) else [x]) if not isinstance(t, JustVar)]
        if built or self.s.atoms or self.s.proof_vars:
            raise AssertionError("a term was substituted into")
        return substitute(self, x)

    monkeypatch.setattr(jelogic.syntax._Substituter, "__call__", refuse_built_terms)
    proofs = [(proof_of(text, calculus), calculus) for text, calculus in _GOLDENS]
    proofs += [(random_sequent_theorem(random.Random(seed), calculus), calculus)
               for seed in range(20) for calculus in ("GE", "GM")]
    proofs += [(_ladder(n, calculus), calculus) for n in range(1, 7) for calculus in ("GE", "GM")]
    for p, calculus in proofs:
        cs = CS_JE if calculus == "GE" else CS_JEM
        for mode in ("strict", "simplify"):
            verify_realization(realize(p, calculus, cs, mode))


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
    classes, each with its own sum, so neither reuses the other."""
    for mode in ("strict", "simplify"):
        r = realize(proof_of("=> ([]A -> []A) & ([]A -> []A)", "GE"), "GE", CS_JE, mode)
        assert len(r.log) == 4
        verify_realization(r)


def test_sum_chain_of_a_long_class_sum():
    """A class sum nests one level per summand; the path down to a summand
    is found without a Python frame per level."""
    u = reduce(Sum, [ProofVar(i) for i in range(2000)])
    chain = realization._sum_chain(u, ProofVar(0), Sum)
    assert len(chain) == 1999 and chain[0][0] is u
    assert all(side == 0 and isinstance(s, Sum) for s, side in chain)
    assert realization._sum_chain(u, ProofVar(1999), Sum) == ((u, 1),)
    assert realization._sum_chain(u, ProofVar(2000), Sum) is None


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


def _tree_nodes(f) -> int:
    """The formula and term nodes of ``f``'s unfolded syntax tree."""
    size: dict = {}
    for node in postorder(f):
        size[node] = 1 + sum(size[k] for k in children(node))
    return size[f]


@pytest.mark.parametrize("calculus, logic", [("GE", "E"), ("GM", "EM")])
def test_simplify_verifies_and_is_no_larger_than_strict(calculus, logic):
    """Collapsing equal witness pairs is sound (``je`` takes one ``L`` for
    both directions), so the simplify-mode realization passes the gate
    wherever the strict one does, and is no larger: neither in the tree
    nodes of the realized formula nor in the derivation's steps."""
    cs = CS_JE if calculus == "GE" else CS_JEM
    proofs = [prove_bounded(Sequent((), (f,)), calculus, 10) for f in _valid_fragment_sample(logic)]
    proofs += [random_sequent_theorem(random.Random(seed), calculus, depth=6) for seed in range(100)]
    for proof in proofs:
        strict = realize(proof, calculus, cs)
        slim = realize(proof, calculus, cs, "simplify")
        verify_realization(strict)
        verify_realization(slim)
        assert _tree_nodes(slim.realized) <= _tree_nodes(strict.realized), str(proof.sequent)
        assert len(slim.derivation) <= len(strict.derivation), str(proof.sequent)


# At each golden (strict, then simplify) and each level n = 1..5 of the GE
# and GM ladders: the derivation's length, the log's, and the printed
# realized formula.  The benchmark's ``derivation_steps`` and
# ``output_chars`` add up such figures.
_PINNED = [
    ('=> []A -> ([]B -> []A)', 'GE', 'strict', 1, 2,
     '[e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A -> [e(p0)]B -> [e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A'),
    ('=> []A -> ([]B -> []A)', 'GE', 'simplify', 1, 2,
     '[e(c_pl_s * c_pl_k * c_pl_k)]A -> [e(p0)]B -> [e(c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[][]A => [][]A', 'GE', 'strict', 1, 4,
     '[e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[][]A => [][]A', 'GE', 'simplify', 1, 4,
     '[e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)]A'),
    ('=> [](A -> A) -> [](B -> B)', 'GE', 'strict', 39, 2,
     '[e(c_pl_k * (c_pl_s * c_pl_k * c_pl_k) + c_pl_k * (c_pl_s * c_pl_k * c_pl_k))](A -> A) -> [e(c_pl_k * (c_pl_s * c_pl_k * c_pl_k) + c_pl_k * (c_pl_s * c_pl_k * c_pl_k))](B -> B)'),
    ('=> [](A -> A) -> [](B -> B)', 'GE', 'simplify', 31, 2,
     '[e(c_pl_k * (c_pl_s * c_pl_k * c_pl_k))](A -> A) -> [e(c_pl_k * (c_pl_s * c_pl_k * c_pl_k))](B -> B)'),
    ('=> [](A & B) -> ([]A & []B)', 'GM', 'strict', 15, 2,
     '[x0](A & B) -> [m(c_pl_and_elim_l, x0)]A & [m(c_pl_and_elim_r, x0)]B'),
    ('=> [](A & B) -> ([]A & []B)', 'GM', 'simplify', 15, 2,
     '[x0](A & B) -> [m(c_pl_and_elim_l, x0)]A & [m(c_pl_and_elim_r, x0)]B'),
    ('=> ([]A | []B) -> [](A | B)', 'GM', 'strict', 32, 2,
     '[x0]A | [x1]B -> [m(c_pl_or_intro_l, x0) + m(c_pl_or_intro_r, x1)](A | B)'),
    ('=> ([]A | []B) -> [](A | B)', 'GM', 'simplify', 32, 2,
     '[x0]A | [x1]B -> [m(c_pl_or_intro_l, x0) + m(c_pl_or_intro_r, x1)](A | B)'),
    ('=> []([]A & []B) -> ([][]A & [][]B)', 'GM', 'strict', 67, 4,
     '[x0]([x1]A & [x2]B) -> [m(c_pl_s * (c_pl_k * (c_jm * !(c_pl_s * c_pl_k * c_pl_k))) * c_pl_and_elim_l, x0)][m(c_pl_s * c_pl_k * c_pl_k, x1)]A & [m(c_pl_s * (c_pl_k * (c_jm * !(c_pl_s * c_pl_k * c_pl_k))) * c_pl_and_elim_r, x0)][m(c_pl_s * c_pl_k * c_pl_k, x2)]B'),
    ('=> []([]A & []B) -> ([][]A & [][]B)', 'GM', 'simplify', 67, 4,
     '[x0]([x1]A & [x2]B) -> [m(c_pl_s * (c_pl_k * (c_jm * !(c_pl_s * c_pl_k * c_pl_k))) * c_pl_and_elim_l, x0)][m(c_pl_s * c_pl_k * c_pl_k, x1)]A & [m(c_pl_s * (c_pl_k * (c_jm * !(c_pl_s * c_pl_k * c_pl_k))) * c_pl_and_elim_r, x0)][m(c_pl_s * c_pl_k * c_pl_k, x2)]B'),
    ('[]A => []A', 'GE', 'strict', 1, 2,
     '[e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[]A => []A', 'GE', 'simplify', 1, 2,
     '[e(c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[][]A => [][]A', 'GE', 'strict', 1, 4,
     '[e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[][]A => [][]A', 'GE', 'simplify', 1, 4,
     '[e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[][][]A => [][][]A', 'GE', 'strict', 1, 6,
     '[e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[][][]A => [][][]A', 'GE', 'simplify', 1, 6,
     '[e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[][][][]A => [][][][]A', 'GE', 'strict', 1, 8,
     '[e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[][][][]A => [][][][]A', 'GE', 'simplify', 1, 8,
     '[e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[][][][][]A => [][][][][]A', 'GE', 'strict', 1, 10,
     '[e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k + c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[][][][][]A => [][][][][]A', 'GE', 'simplify', 1, 10,
     '[e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)]A -> [e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)][e(c_pl_s * c_pl_k * c_pl_k)]A'),
    ('[]A => []A', 'GM', 'strict', 13, 1,
     '[x0]A -> [m(c_pl_s * c_pl_k * c_pl_k, x0)]A'),
    ('[]A => []A', 'GM', 'simplify', 13, 1,
     '[x0]A -> [m(c_pl_s * c_pl_k * c_pl_k, x0)]A'),
    ('[][]A => [][]A', 'GM', 'strict', 19, 2,
     '[x0][x1]A -> [m(c_jm * !(c_pl_s * c_pl_k * c_pl_k), x0)][m(c_pl_s * c_pl_k * c_pl_k, x1)]A'),
    ('[][]A => [][]A', 'GM', 'simplify', 19, 2,
     '[x0][x1]A -> [m(c_jm * !(c_pl_s * c_pl_k * c_pl_k), x0)][m(c_pl_s * c_pl_k * c_pl_k, x1)]A'),
    ('[][][]A => [][][]A', 'GM', 'strict', 25, 3,
     '[x0][x1][x2]A -> [m(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k)), x0)][m(c_jm * !(c_pl_s * c_pl_k * c_pl_k), x1)][m(c_pl_s * c_pl_k * c_pl_k, x2)]A'),
    ('[][][]A => [][][]A', 'GM', 'simplify', 25, 3,
     '[x0][x1][x2]A -> [m(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k)), x0)][m(c_jm * !(c_pl_s * c_pl_k * c_pl_k), x1)][m(c_pl_s * c_pl_k * c_pl_k, x2)]A'),
    ('[][][][]A => [][][][]A', 'GM', 'strict', 31, 4,
     '[x0][x1][x2][x3]A -> [m(c_jm * !(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k))), x0)][m(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k)), x1)][m(c_jm * !(c_pl_s * c_pl_k * c_pl_k), x2)][m(c_pl_s * c_pl_k * c_pl_k, x3)]A'),
    ('[][][][]A => [][][][]A', 'GM', 'simplify', 31, 4,
     '[x0][x1][x2][x3]A -> [m(c_jm * !(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k))), x0)][m(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k)), x1)][m(c_jm * !(c_pl_s * c_pl_k * c_pl_k), x2)][m(c_pl_s * c_pl_k * c_pl_k, x3)]A'),
    ('[][][][][]A => [][][][][]A', 'GM', 'strict', 37, 5,
     '[x0][x1][x2][x3][x4]A -> [m(c_jm * !(c_jm * !(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k)))), x0)][m(c_jm * !(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k))), x1)][m(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k)), x2)][m(c_jm * !(c_pl_s * c_pl_k * c_pl_k), x3)][m(c_pl_s * c_pl_k * c_pl_k, x4)]A'),
    ('[][][][][]A => [][][][][]A', 'GM', 'simplify', 37, 5,
     '[x0][x1][x2][x3][x4]A -> [m(c_jm * !(c_jm * !(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k)))), x0)][m(c_jm * !(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k))), x1)][m(c_jm * !(c_jm * !(c_pl_s * c_pl_k * c_pl_k)), x2)][m(c_jm * !(c_pl_s * c_pl_k * c_pl_k), x3)][m(c_pl_s * c_pl_k * c_pl_k, x4)]A'),
]


@pytest.mark.parametrize("text, calculus, mode, steps, log, printed", _PINNED)
def test_sizes_and_realized_formulas_are_pinned(text, calculus, mode, steps, log, printed):
    boxes = text.split(" =>")[0].count("[]")
    ladder = text == f"{'[]' * boxes}A => {'[]' * boxes}A"
    r = realize_text(text, calculus, boxes + 2 if ladder else 10)
    if mode == "simplify":
        r = simplify(r)
    assert (len(r.derivation), len(r.log), print_formula(r.realized)) == (steps, log, printed)
    verify_realization(r)
