import random

import pytest
from hypothesis import given, settings, strategies as st

from jelogic.axioms import ConstantSpecification, cs_total
from jelogic.generate import random_theorem
from jelogic.hilbert import (
    ANStep,
    AxiomStep,
    Builder,
    Derivation,
    DerivationError,
    Hyp,
    Judgment,
    MPStep,
    NotAppropriate,
    by_contradiction,
    check_derivation,
    compose,
    deduction_transform,
    derive_axiom,
    efq_to,
    internalize,
    prove_id,
    prune,
    substitute_derivation,
)
from jelogic.syntax import (
    Apply,
    Atom,
    BOT,
    Bang,
    Bottom,
    Box,
    Dialect,
    DialectError,
    Implies,
    Not,
    ProofConst,
    ProofOf,
    ProofVar,
    Substitution,
    parse_formula,
)

A, B, C = Atom("A"), Atom("B"), Atom("C")
CS_JE = cs_total(Dialect.JE)
CS_JEM = cs_total(Dialect.JEM)


def _je(text: str):
    return parse_formula(text, Dialect.JE)


def _mp_example() -> Derivation:
    return Derivation(Dialect.JE, (Hyp(Implies(A, B)), Hyp(A), MPStep(0, 1)), 2)


class TestChecker:
    def test_modus_ponens_judgment(self):
        j = check_derivation(_mp_example(), CS_JE)
        assert j == Judgment(frozenset({Implies(A, B), A}), B)

    def test_necessitation_step(self):
        axiom = _je("p0:A -> A")
        d = Derivation(Dialect.JE, (ANStep("c_jt", axiom),), 0)
        j = check_derivation(d, CS_JE)
        assert j.hypotheses == frozenset()
        assert j.conclusion == ProofOf(ProofConst("c_jt"), axiom)

    def test_bad_modus_ponens(self):
        d = Derivation(Dialect.JE, (Hyp(Implies(A, B)), Hyp(B), MPStep(0, 1)), 2)
        with pytest.raises(DerivationError) as e:
            check_derivation(d, CS_JE)
        assert e.value.kind == "bad-mp"

    def test_forward_reference(self):
        d = Derivation(Dialect.JE, (MPStep(1, 0), Hyp(A)), 0)
        with pytest.raises(DerivationError) as e:
            check_derivation(d, CS_JE)
        assert e.value.kind == "index-order"

    def test_conclusion_out_of_range(self):
        with pytest.raises(DerivationError):
            check_derivation(Derivation(Dialect.JE, (Hyp(A),), 3), CS_JE)

    def test_axiom_step_must_be_instance(self):
        bogus = AxiomStep(Implies(A, B), "pl_k", {"F": A, "G": B})
        with pytest.raises(DerivationError) as e:
            check_derivation(Derivation(Dialect.JE, (bogus,), 0), CS_JE)
        assert e.value.kind == "bad-axiom"

    def test_necessitation_outside_specification(self):
        d = Derivation(Dialect.JE, (ANStep("c_jt", _je("A -> (B -> A)")),), 0)
        with pytest.raises(DerivationError) as e:
            check_derivation(d, CS_JE)
        assert e.value.kind == "bad-an"

    def test_dialect_enforced_on_hypotheses(self):
        alien = _je("[e(p0)]A")
        d = Derivation(Dialect.JEM, (Hyp(alien),), 0)
        with pytest.raises(DialectError):
            check_derivation(d, CS_JEM)

    def test_dialect_enforced_below_a_shared_node(self):
        # The checker validates each node once across steps; a node first
        # met inside a later step is still validated.
        shared = _je("[e(p0)]A")
        d = Derivation(Dialect.JE, (Hyp(shared), Hyp(Implies(shared, Box(A)))), 1)
        with pytest.raises(DialectError):
            check_derivation(d, CS_JE)


class TestBuilder:
    def test_step_deduplication(self):
        b = Builder(Dialect.JE)
        i1 = b.axiom("pl_k", {"F": A, "G": B})
        i2 = b.axiom("pl_k", {"F": A, "G": B})
        assert i1 == i2 and len(b.steps) == 1

    def test_mp_type_check(self):
        b = Builder(Dialect.JE)
        k = b.axiom("pl_k", {"F": A, "G": B})
        with pytest.raises(ValueError):
            b.mp(k, k)

    def test_embed_replays_whole_derivation(self):
        b = Builder(Dialect.JE)
        i = b.embed(_mp_example())
        d = b.derivation(i)
        assert check_derivation(d, CS_JE).conclusion == B

    def test_prune_drops_dead_steps_keeps_hypotheses(self):
        b = Builder(Dialect.JE)
        b.axiom("pl_dne", {"F": C})  # dead weight
        b.hyp(B)  # unused but part of the judgment
        target = b.axiom("pl_k", {"F": A, "G": B})
        slim = prune(b.derivation(target))
        assert len(slim) == 2
        assert check_derivation(slim, CS_JE) == Judgment(frozenset({B}), Implies(A, Implies(B, A)))


class TestDeduction:
    def test_discharges_lone_hypothesis(self):
        d = Derivation(Dialect.JE, (Hyp(A),), 0)
        out = deduction_transform(d, A)
        assert check_derivation(out, CS_JE) == Judgment(frozenset(), Implies(A, A))

    def test_discharges_one_of_two(self):
        out = deduction_transform(_mp_example(), A)
        j = check_derivation(out, CS_JE)
        assert j == Judgment(frozenset({Implies(A, B)}), Implies(A, B))

    def test_vacuous_discharge(self):
        d = Derivation(Dialect.JE, (Hyp(A),), 0)
        out = deduction_transform(d, C)
        assert check_derivation(out, CS_JE) == Judgment(frozenset({A}), Implies(C, A))

    def test_right_inverse_is_modus_ponens(self):
        imp = deduction_transform(_mp_example(), A)  # A -> B from A -> B
        b = Builder(Dialect.JE)
        i = b.embed(imp)
        h = b.hyp(A)
        back = b.derivation(b.mp(i, h))
        j = check_derivation(back, CS_JE)
        assert j == Judgment(frozenset({Implies(A, B), A}), B)

    def test_normalize_prunes(self):
        d = Derivation(Dialect.JE, (Hyp(A),), 0)
        out = deduction_transform(d, A, normalize=True)
        assert len(out) <= 5


class TestInternalize:
    def test_single_axiom(self):
        d = derive_axiom(Dialect.JE, "pl_k", {"F": A, "G": B})
        term, d2 = internalize(d, CS_JE)
        assert term == ProofConst("c_pl_k")
        j = check_derivation(d2, CS_JE)
        assert j.conclusion == ProofOf(term, _je("A -> (B -> A)"))

    def test_single_necessitation_uses_checker(self):
        axiom = _je("p0:A -> A")
        d = Derivation(Dialect.JE, (ANStep("c_jt", axiom),), 0)
        term, d2 = internalize(d, CS_JE)
        assert term == Bang(ProofConst("c_jt"))
        j = check_derivation(d2, CS_JE)
        assert j.conclusion == ProofOf(term, ProofOf(ProofConst("c_jt"), axiom))

    def test_modus_ponens_becomes_application(self):
        term, d2 = internalize(prove_id(Dialect.JE, A), CS_JE)
        s, k = ProofConst("c_pl_s"), ProofConst("c_pl_k")
        assert term == Apply(Apply(s, k), k)
        assert check_derivation(d2, CS_JE).conclusion == ProofOf(term, Implies(A, A))

    def test_rejects_hypotheses(self):
        with pytest.raises(DerivationError) as e:
            internalize(_mp_example(), CS_JE)
        assert e.value.kind == "has-hypotheses"

    def test_rejects_inappropriate_specification(self):
        skimpy = ConstantSpecification(Dialect.JE, {"c0": frozenset({"jt"})})
        with pytest.raises(NotAppropriate) as e:
            internalize(prove_id(Dialect.JE, A), skimpy)
        assert "pl_k" in e.value.missing

    def test_jem_dialect(self):
        d = derive_axiom(Dialect.JEM, "jm", {"L": ProofVar(0), "T": parse_formula("[x0]A", Dialect.JEM).term, "F": A, "G": B})
        term, d2 = internalize(d, CS_JEM)
        assert term == ProofConst("c_jm")
        check_derivation(d2, CS_JEM)


class TestSubstitution:
    def test_atoms_in_axioms(self):
        out = substitute_derivation(prove_id(Dialect.JE, A), Substitution(atoms={"A": C}))
        assert check_derivation(out, CS_JE).conclusion == Implies(C, C)

    def test_necessitation_survives(self):
        axiom = _je("p0:A -> A")
        d = Derivation(Dialect.JE, (ANStep("c_jt", axiom),), 0)
        s = Substitution(atoms={"A": B}, proof_vars={0: Apply(ProofConst("c1"), ProofConst("c2"))})
        out = substitute_derivation(d, s)
        j = check_derivation(out, CS_JE)
        assert j.conclusion == ProofOf(ProofConst("c_jt"), _je("(c1 * c2):B -> B"))

    def test_identity_is_noop(self):
        d = prove_id(Dialect.JE, A)
        assert substitute_derivation(d, Substitution()) == d


class TestClassicalHelpers:
    def test_compose(self):
        d1 = derive_axiom(Dialect.JE, "pl_and_elim_l", {"F": A, "G": B})
        d2 = derive_axiom(Dialect.JE, "pl_or_intro_l", {"F": A, "G": B})
        out = compose(d1, d2)
        j = check_derivation(out, CS_JE)
        assert j == Judgment(frozenset(), _je("(A & B) -> (A | B)"))

    def test_by_contradiction(self):
        b = Builder(Dialect.JE)
        na = b.hyp(Not(A))
        a = b.hyp(A)
        ax = b.axiom("pl_neg_elim", {"F": A})
        bot = b.mp(b.mp(ax, na), a)
        out = by_contradiction(b.derivation(bot), A)
        j = check_derivation(out, CS_JE)
        assert j == Judgment(frozenset({A}), A)

    def test_ex_falso(self):
        j = check_derivation(efq_to(Dialect.JE, B), CS_JE)
        assert j == Judgment(frozenset(), Implies(BOT, B))
        assert j.conclusion == Implies(Bottom(), B)

    def test_prove_id_shape(self):
        d = prove_id(Dialect.JEM, parse_formula("[x0]A", Dialect.JEM))
        j = check_derivation(d, CS_JEM)
        assert j.hypotheses == frozenset()
        assert j.conclusion == Implies(j.conclusion.left, j.conclusion.left)


@given(st.integers(0, 10**9), st.sampled_from([Dialect.JE, Dialect.JEM]))
@settings(max_examples=100, deadline=None)
def test_random_theorems_survive_the_pipeline(seed, dialect):
    rng = random.Random(seed)
    cs = cs_total(dialect)
    d = random_theorem(rng, dialect, steps=6)
    j = check_derivation(d, cs)
    assert j.hypotheses == frozenset()

    term, d2 = internalize(d, cs)
    j2 = check_derivation(d2, cs)
    assert j2 == Judgment(frozenset(), ProofOf(term, j.conclusion))

    renamed = substitute_derivation(d, Substitution(atoms={"A": Atom("E"), "B": Atom("F")}))
    check_derivation(renamed, cs)

    lifted = deduction_transform(d, C, normalize=True)
    assert check_derivation(lifted, cs).conclusion == Implies(C, j.conclusion)
