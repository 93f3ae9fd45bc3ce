import dataclasses
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from jelogic import hilbert, syntax
from jelogic.axioms import CATALOGUE, ConstantSpecification, cs_total, instantiate, match
from jelogic.formats import FormatError, parse_derivation, write_derivation
from jelogic.generate import (
    _random_binding,
    random_formula,
    random_just_term,
    random_proof_term,
    random_sequent_theorem,
    random_theorem,
)
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
    read_judgment,
    substitute_derivation,
    _check,
)
from jelogic.realization import CALCULUS_DIALECT, realize
from jelogic.syntax import (
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
    JustVar,
    Not,
    ProofConst,
    ProofOf,
    ProofVar,
    Substitution,
    apply_substitution,
    parse_formula,
    postorder,
)

from _helpers import replaced_step

A, B, C = Atom("A"), Atom("B"), Atom("C")
CS_JE = cs_total(Dialect.JE)
CS_JEM = cs_total(Dialect.JEM)


def _je(text: str):
    return parse_formula(text, Dialect.JE)


def _one_step(dialect: Dialect, step) -> Derivation:
    return Derivation(dialect, (step,))


def _mp_example() -> Derivation:
    return Derivation(Dialect.JE, (MPStep(Hyp(Implies(A, B)), Hyp(A)),))


class TestChecker:
    def test_modus_ponens_judgment(self):
        j = check_derivation(_mp_example(), CS_JE)
        assert j == Judgment(frozenset({Implies(A, B), A}), B)

    def test_necessitation_step(self):
        axiom = _je("p0:A -> A")
        d = _one_step(Dialect.JE, ANStep("c_jt", axiom))
        j = check_derivation(d, CS_JE)
        assert j.hypotheses == frozenset()
        assert j.conclusion == ProofOf(ProofConst("c_jt"), axiom)

    def test_bad_modus_ponens(self):
        d = Derivation(Dialect.JE, (MPStep(Hyp(Implies(A, B)), Hyp(B)),))
        with pytest.raises(DerivationError) as e:
            check_derivation(d, CS_JE)
        assert (e.value.kind, e.value.step) == ("bad-mp", 2)

    def test_a_shared_memo_still_reads_the_hypotheses(self, monkeypatch):
        """``_check`` stops at every step an earlier call on its memo passed,
        those with a hypothesis under them too, and reads the judgment off
        the roots, which carry their hypotheses: a second call walks no step
        and gives the same judgment."""
        memo: dict = {}
        d = _mp_example()
        first = _check(d, CS_JE, memo)
        walked = []
        check_step = hilbert._check_step
        monkeypatch.setattr(hilbert, "_check_step", lambda step, *rest: walked.append(step) or check_step(step, *rest))
        assert _check(d, CS_JE, memo) == first == Judgment(frozenset({Implies(A, B), A}), B)
        assert walked == []

    def test_axiom_step_must_be_instance(self):
        bogus = AxiomStep(Implies(A, B), "pl_k")
        with pytest.raises(DerivationError) as e:
            check_derivation(_one_step(Dialect.JE, bogus), CS_JE)
        assert e.value.kind == "bad-axiom"

    def test_axiom_step_is_its_formula_and_scheme(self):
        assert [f.name for f in dataclasses.fields(AxiomStep)] == ["formula", "scheme"]

    @pytest.mark.parametrize("dialect", [Dialect.JE, Dialect.JEM])
    def test_non_instances_are_bad_axioms(self, dialect):
        """Every scheme against an atom, against an instance of each other
        scheme and under an unknown id: ``bad-axiom``, never a ``KeyError``
        for a metavariable the formula does not bind."""
        rng = random.Random(0)
        cs = cs_total(dialect)
        schemes = CATALOGUE[dialect]
        instances = [instantiate(s.pattern, _random_binding(rng, dialect, s.pattern)) for s in schemes]
        for s in schemes:
            for f in [A] + [g for g in instances if match(s.pattern, g) is None]:
                with pytest.raises(DerivationError) as e:
                    check_derivation(_one_step(dialect, AxiomStep(f, s.id)), cs)
                assert (e.value.kind, e.value.step) == ("bad-axiom", 0)
        with pytest.raises(DerivationError) as e:
            check_derivation(_one_step(dialect, AxiomStep(instances[0], "zz")), cs)
        assert e.value.kind == "bad-axiom"

    def test_necessitation_outside_specification(self):
        d = _one_step(Dialect.JE, ANStep("c_jt", _je("A -> (B -> A)")))
        with pytest.raises(DerivationError) as e:
            check_derivation(d, CS_JE)
        assert e.value.kind == "bad-an"

    def test_dialect_enforced_on_hypotheses(self):
        alien = _je("[e(p0)]A")
        d = _one_step(Dialect.JEM, Hyp(alien))
        with pytest.raises(DialectError):
            check_derivation(d, CS_JEM)

    def test_sort_enforced_on_a_node_an_earlier_step_shares(self):
        # A is first checked as a formula, then stands where a proof term
        # must; checked alone, the second hypothesis is rejected too.
        bad = ProofOf(Apply(A, ProofVar(0)), B)
        for roots in ((Hyp(bad),), (Hyp(A), Hyp(bad))):
            with pytest.raises(DialectError, match="not a proof term: Atom"):
                check_derivation(Derivation(Dialect.JE, roots), CS_JE)

    def test_dialect_enforced_below_a_shared_node(self):
        # The checker validates each node once across steps; a node first
        # met inside a later step is still validated.
        shared = _je("[e(p0)]A")
        top = Hyp(Implies(shared, Box(A)))
        d = Derivation(Dialect.JE, (Hyp(shared), top))
        with pytest.raises(DialectError):
            check_derivation(d, CS_JE)


class TestBuilder:
    def test_step_deduplication(self):
        b = Builder(Dialect.JE)
        i1 = b.axiom("pl_k", {"F": A, "G": B})
        i2 = b.axiom("pl_k", {"F": A, "G": B})
        assert i1 == i2 and len(b._index) == 1

    # Each builds a step of one kind proving F = A -> (B -> A) and returns
    # its index.
    EARLIER = {
        "hyp": lambda b: b.hyp(Implies(A, Implies(B, A))),
        "axiom": lambda b: b.axiom("pl_k", {"F": A, "G": B}),
        "mp": lambda b: b.mp(b.hyp(Implies(C, Implies(A, Implies(B, A)))), b.hyp(C)),
    }

    @pytest.mark.parametrize("kind", ["hyp", "axiom", "mp"])
    def test_mp_returns_an_earlier_step_with_its_formula(self, kind):
        b = Builder(Dialect.JE)
        early = self.EARLIER[kind](b)
        imp = b.hyp(Implies(B, Implies(A, Implies(B, A))))
        minor = b.hyp(B)
        size = len(b._index)
        assert b.mp(imp, minor) == early and len(b._index) == size

    def test_mp_returns_an_earlier_necessitation(self):
        b = Builder(Dialect.JE)
        n = b.an("c_jt", _je("p0:A -> A"))
        imp = b.hyp(Implies(C, ProofOf(ProofConst("c_jt"), _je("p0:A -> A"))))
        assert b.mp(imp, b.hyp(C)) == n and len(b._index) == 3

    @pytest.mark.parametrize("kind", ["hyp", "mp"])
    def test_axiom_returns_an_earlier_step_with_its_formula(self, kind):
        b = Builder(Dialect.JE)
        early = self.EARLIER[kind](b)
        size = len(b._index)
        assert b.axiom("pl_k", {"F": A, "G": B}) == early and len(b._index) == size

    def test_hyp_answered_by_a_derived_step(self):
        b = Builder(Dialect.JE)
        k = b.axiom("pl_k", {"F": A, "G": B})
        assert b.hyp(Implies(A, Implies(B, A))) == k
        assert check_derivation(b.derivation(k), CS_JE).hypotheses == frozenset()

    def test_embed_skips_formulas_already_derived(self):
        b = Builder(Dialect.JE)
        h = b.hyp(Implies(A, Implies(B, A)))
        assert b.embed(derive_axiom(Dialect.JE, "pl_k", {"F": A, "G": B})) == h
        assert len(b._index) == 1

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

    def test_derivation_drops_dead_steps_keeps_hypotheses(self):
        b = Builder(Dialect.JE)
        b.axiom("pl_dne", {"F": C})  # dead weight
        hyp = b.hyp(B)  # unused but part of the judgment
        target = b.axiom("pl_k", {"F": A, "G": B})
        slim = b.derivation(target)
        assert slim.roots == (target, hyp) and slim.steps == (target, hyp)
        assert check_derivation(slim, CS_JE) == Judgment(frozenset({B}), Implies(A, Implies(B, A)))

    def test_judgment_and_derivation_walk_no_steps(self, monkeypatch):
        """What a builder that took hypotheses hands out, and the judgment
        read off it, come from the steps' ``hypotheses``: no walk."""
        b = Builder(Dialect.JE)
        conclusion = b.mp(b.hyp(Implies(A, B)), b.hyp(A))
        unused = b.hyp(C)
        walks = []
        monkeypatch.setattr(hilbert, "postorder", lambda *args, **kw: walks.append(args) or [])
        d = b.derivation(conclusion)
        j = read_judgment(d)
        assert walks == []
        assert d.roots == (conclusion, unused)
        assert j == Judgment(frozenset({Implies(A, B), A, C}), B)


class TestDeduction:
    def test_discharges_lone_hypothesis(self):
        d = _one_step(Dialect.JE, Hyp(A))
        out = deduction_transform(d, A)
        assert check_derivation(out, CS_JE) == Judgment(frozenset(), Implies(A, A))

    def test_discharges_one_of_two(self):
        out = deduction_transform(_mp_example(), A)
        j = check_derivation(out, CS_JE)
        assert j == Judgment(frozenset({Implies(A, B)}), Implies(A, B))

    def test_vacuous_discharge(self):
        d = _one_step(Dialect.JE, Hyp(A))
        out = deduction_transform(d, C)
        assert check_derivation(out, CS_JE) == Judgment(frozenset({A}), Implies(C, A))

    def test_normalize_prunes(self):
        # the output holds only the steps under its root: no separate pass
        d = _one_step(Dialect.JE, Hyp(A))
        out = deduction_transform(d, A)
        assert len(out) == 5  # the proof of A -> A alone

    def test_right_inverse_is_modus_ponens(self):
        imp = deduction_transform(_mp_example(), A)  # A -> B from A -> B
        b = Builder(Dialect.JE)
        i = b.embed(imp)
        h = b.hyp(A)
        back = b.derivation(b.mp(i, h))
        j = check_derivation(back, CS_JE)
        assert j == Judgment(frozenset({Implies(A, B), A}), B)


class TestInternalize:
    def test_single_axiom(self):
        d = derive_axiom(Dialect.JE, "pl_k", {"F": A, "G": B})
        term, d2 = internalize(d, CS_JE)
        assert term == ProofConst("c_pl_k")
        j = check_derivation(d2, CS_JE)
        assert j.conclusion == ProofOf(term, _je("A -> (B -> A)"))

    def test_single_necessitation_uses_checker(self):
        axiom = _je("p0:A -> A")
        d = _one_step(Dialect.JE, ANStep("c_jt", axiom))
        term, d2 = internalize(d, CS_JE)
        assert term == Bang(ProofConst("c_jt"))
        j = check_derivation(d2, CS_JE)
        assert j.conclusion == ProofOf(term, ProofOf(ProofConst("c_jt"), axiom))

    def test_modus_ponens_becomes_application(self):
        term, d2 = internalize(prove_id(Dialect.JE, A), CS_JE)
        s, k = ProofConst("c_pl_s"), ProofConst("c_pl_k")
        assert term == Apply(Apply(s, k), k)
        assert check_derivation(d2, CS_JE).conclusion == ProofOf(term, Implies(A, A))

    def test_proved_assertion_becomes_bang(self):
        # (c * c):(B -> P) by two modus ponens on a j instance.  Its lift is
        # !(c * c) through one j4 instance, not a lift of the steps below it.
        p = _je("A -> (A -> A)")
        c = ProofConst("c_pl_k")
        b = Builder(Dialect.JE)
        major = b.an("c_pl_k", Implies(p, Implies(B, p)))
        minor = b.an("c_pl_k", p)
        inst = b.axiom("j", {"L": c, "K": c, "F": p, "G": Implies(B, p)})
        d = b.derivation(b.mp(b.mp(inst, major), minor))
        term, d2 = internalize(d, CS_JE)
        assert term == Bang(Apply(c, c))
        j = check_derivation(d2, CS_JE)
        assert j.hypotheses == frozenset()
        assert j.conclusion == ProofOf(term, ProofOf(Apply(c, c), Implies(B, p)))
        assert len(d2) == len(d) + 2

    def test_rejects_hypotheses(self):
        with pytest.raises(DerivationError) as e:
            internalize(_mp_example(), CS_JE)
        assert e.value.kind == "has-hypotheses"

    @pytest.mark.parametrize("scheme", ["jm", "zz"])
    def test_axiom_outside_the_dialect(self, scheme):
        d = _one_step(Dialect.JE, AxiomStep(_je("A -> (B -> A)"), scheme))
        with pytest.raises(DerivationError) as e:
            internalize(d, CS_JE)
        assert (e.value.kind, e.value.step) == ("bad-axiom", 0)

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
        d = _one_step(Dialect.JE, ANStep("c_jt", axiom))
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

    lifted = deduction_transform(d, C)
    assert check_derivation(lifted, cs).conclusion == Implies(C, j.conclusion)


def _hypotheses_under(step) -> frozenset:
    return frozenset(s.formula for s in postorder(step) if isinstance(s, Hyp))


@given(st.integers(0, 10**9), st.sampled_from(["GE", "GM"]))
@settings(max_examples=40, deadline=None)
def test_every_step_carries_the_hypotheses_under_it(seed, calculus):
    """A step's ``hypotheses`` are the formulas of the ``Hyp`` steps under
    it, on random theorems, on a derivation with hypotheses and its
    deduction, on strict and simplify realizations with their logs, and on
    each of them read back from its file once the steps are gone."""
    # Steps built before this test, by other tests too, may be held
    # elsewhere; every step made here is freed when the test drops it.
    held = {n for n in list(syntax._NODES.values()) if isinstance(n, hilbert._Step)}
    rng = random.Random(seed)
    dialect = CALCULUS_DIALECT[calculus]
    cs = cs_total(dialect)
    proof = random_sequent_theorem(rng, calculus, depth=4)
    assumed = _with_hypotheses(dialect)
    ds = [random_theorem(rng, dialect, steps=6), assumed, deduction_transform(assumed, ProofOf(ProofVar(1), A))]
    for mode in ("strict", "simplify"):
        r = realize(proof, calculus, cs, mode)
        ds += [r.derivation, *(e.derivation for e in r.log)]
    texts = [write_derivation(d) for d in ds]
    for d in ds:
        for step in d.steps:
            assert step.hypotheses == _hypotheses_under(step)
    gone = [weakref.ref(step) for d in ds for step in d.steps if step not in held]
    del ds, assumed, r, d, step
    assert all(ref() is None for ref in gone)  # so the steps read back are new objects
    for text in texts:
        for step in parse_derivation(text).steps:
            assert step.hypotheses == _hypotheses_under(step)


def _with_hypotheses(dialect: Dialect) -> Derivation:
    """``p0:(A -> B), p1:A, J |- J & !(p0 * p1):(p0 * p1):B`` through the
    j, j4 and pl_and_intro axioms, where J is ``[e(p2)]A`` in JE and
    ``[x0]A`` in JEM."""
    l, k = ProofVar(0), ProofVar(1)
    just = Evidence(ProofVar(2)) if dialect is Dialect.JE else JustVar(0)
    b = Builder(dialect)
    j_inst = b.axiom("j", {"L": l, "K": k, "F": A, "G": B})
    lk = b.mp(b.mp(j_inst, b.hyp(ProofOf(l, Implies(A, B)))), b.hyp(ProofOf(k, A)))
    bang = b.mp(b.axiom("j4", {"L": Apply(l, k), "F": B}), lk)
    j = b.hyp(JustOf(just, A))
    pair = b.axiom("pl_and_intro", {"F": j.formula, "G": bang.formula})
    return b.derivation(b.mp(b.mp(pair, j), bang))


@given(st.integers(0, 10**9), st.sampled_from([Dialect.JE, Dialect.JEM]))
@settings(max_examples=100, deadline=None)
def test_substitution_lemma(seed, dialect):
    """A substitution instance of a derivation checks and derives the
    substitution instance of its judgment, which is what makes
    ``jelogic subst`` sound on every derivation that checks."""
    rng = random.Random(seed)
    cs = cs_total(dialect)
    s = Substitution(
        proof_vars={i: random_proof_term(rng, dialect, 3) for i in range(3) if rng.random() < 0.7},
        just_vars={i: random_just_term(rng, dialect, 3) for i in range(3) if rng.random() < 0.7},
    )
    theorem = random_theorem(rng, dialect, steps=6)
    _, lifted = internalize(theorem, cs)
    _, lifted_twice = internalize(lifted, cs)  # lifts the conclusion t:A by j4
    for d in (theorem, lifted, lifted_twice, _with_hypotheses(dialect)):
        j = check_derivation(d, cs)
        expected = Judgment(
            frozenset(apply_substitution(h, s) for h in j.hypotheses),
            apply_substitution(j.conclusion, s),
        )
        assert check_derivation(substitute_derivation(d, s), cs) == expected


def _verdicts(d: Derivation, cs) -> tuple:
    """What ``check_derivation`` says of ``d`` and of ``d`` read back from
    its file: the judgment, or None when it rejects (a file's reader
    rejects an axiom line that does not match its scheme)."""

    def verdict(d):
        try:
            return check_derivation(d, cs)
        except DerivationError:
            return None

    try:
        back = verdict(parse_derivation(write_derivation(d)))
    except FormatError:
        back = None
    return verdict(d), back


def _relabelled(rng: random.Random, d: Derivation) -> Derivation:
    """``d`` with one axiom step put under another scheme id."""
    axioms = [i for i, s in enumerate(d.steps) if isinstance(s, AxiomStep)]
    if not axioms:
        return d
    i = rng.choice(axioms)
    scheme = rng.choice(CATALOGUE[d.dialect]).id
    return replaced_step(d, i, AxiomStep(d.steps[i].formula, scheme))


@given(st.integers(0, 10**9), st.sampled_from(["GE", "GM"]))
@settings(max_examples=40, deadline=None)
def test_a_derivation_checks_as_its_file_does(seed, calculus):
    """A random theorem, a realization's derivations, and each with one axiom
    step relabelled: ``check_derivation`` gives one verdict on the
    derivation and on its file read back."""
    rng = random.Random(seed)
    dialect = CALCULUS_DIALECT[calculus]
    cs = cs_total(dialect)
    r = realize(random_sequent_theorem(rng, calculus, depth=4), calculus, cs)
    for d in [random_theorem(rng, dialect, steps=6), r.derivation] + [e.derivation for e in r.log]:
        for case in (d, _relabelled(rng, d)):
            api, file = _verdicts(case, cs)
            assert api == file
        assert _verdicts(d, cs)[0] is not None


def _mutant(rng: random.Random, d: Derivation) -> Derivation:
    """``d`` with the formula of one axiom or necessitation step replaced by
    the formula of another step or by a random formula."""
    i = rng.choice([i for i, s in enumerate(d.steps) if not isinstance(s, MPStep)])
    f = rng.choice([s.formula for s in d.steps] + [random_formula(rng, d.dialect, 2)])
    step = d.steps[i]
    step = AxiomStep(f, step.scheme) if isinstance(step, AxiomStep) else ANStep(step.constant, f)
    return replaced_step(d, i, step)


@given(st.integers(0, 10**9), st.sampled_from([Dialect.JE, Dialect.JEM]))
@settings(max_examples=300, deadline=None)
def test_internalize_carries_a_faulty_step_into_its_output(seed, dialect):
    """``internalize`` does not check its input: on a theorem or a lifted
    theorem with one step's formula replaced it raises ``DerivationError``
    or returns an output that does not check, unless the steps the
    conclusion uses still check."""
    rng = random.Random(seed)
    cs = cs_total(dialect)
    theorem = random_theorem(rng, dialect, steps=6)
    d = rng.choice([theorem, internalize(theorem, cs)[1]])
    mutant = _mutant(rng, d)
    try:
        check_derivation(Derivation(dialect, mutant.roots[:1]), cs)
        return
    except DerivationError:
        pass
    try:
        _, out = internalize(mutant, cs)
    except DerivationError:
        return
    with pytest.raises(DerivationError):
        check_derivation(out, cs)
