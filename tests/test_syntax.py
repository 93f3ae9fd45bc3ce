import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from jelogic.generate import random_formula
from jelogic.syntax import (
    And,
    Apply,
    Atom,
    BOT,
    Bang,
    Box,
    Dialect,
    DialectError,
    Evidence,
    Implies,
    JustOf,
    JustVar,
    MApply,
    Not,
    ParseError,
    ProofConst,
    ProofOf,
    ProofOfPresent,
    ProofVar,
    Reader,
    Substitution,
    Sum,
    apply_substitution,
    box_occurrences,
    forgetful,
    parse_formula,
    parse_just_term,
    parse_proof_term,
    parse_sequent,
    polarity_at,
    print_formula,
    print_sequent,
    print_term,
    subformula_at,
    _Parser,
)
from jelogic.sequent import parse_sequent_line

A, B, C = Atom("A"), Atom("B"), Atom("C")
DIALECTS = [Dialect.JE, Dialect.JEM, Dialect.MODAL]


class TestParse:
    def test_justified_nesting(self):
        f = parse_formula("[e(p0)]A -> ([e(p1)]B -> [e(p0)]A)", Dialect.JE)
        assert f == Implies(
            JustOf(Evidence(ProofVar(0)), A),
            Implies(JustOf(Evidence(ProofVar(1)), B), JustOf(Evidence(ProofVar(0)), A)),
        )

    def test_mapply_rejected_in_je(self):
        with pytest.raises(DialectError):
            parse_formula("[m(c0, x0 + x1)]A", Dialect.JE)

    def test_modal_distribution_shape(self):
        f = parse_formula("[](A & B) -> ([]A & []B)", Dialect.MODAL)
        assert f == Implies(Box(And(A, B)), And(Box(A), Box(B)))

    def test_box_rejected_in_justification_dialects(self):
        for d in (Dialect.JE, Dialect.JEM):
            with pytest.raises(DialectError):
                parse_formula("[]A", d)

    def test_proof_sum_rejected_in_jem(self):
        with pytest.raises(DialectError):
            parse_proof_term("p0 + p1", Dialect.JEM)

    def test_evidence_rejected_in_jem(self):
        with pytest.raises(DialectError):
            parse_just_term("e(p0)", Dialect.JEM)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse_formula("A -> )", Dialect.JE)
        assert e.value.position is not None

    def test_iff_is_sugar_for_two_implications(self):
        f = parse_formula("A <-> B", Dialect.MODAL)
        assert f == And(Implies(A, B), Implies(B, A))

    def test_sequent_both_sides(self):
        ante, succ = parse_sequent("A, B => A & B", Dialect.MODAL)
        assert ante == (A, B) and succ == (And(A, B),)

    def test_sequent_empty_sides(self):
        assert parse_sequent("=> A", Dialect.MODAL) == ((), (A,))
        assert parse_sequent("A =>", Dialect.MODAL) == ((A,), ())


class TestSharing:
    def test_equal_subtrees_are_one_object(self):
        f = parse_formula("[e(p0 * c1)]A -> ([e(p0 * c1)]A & ~A)", Dialect.JE)
        assert f.left is f.right.left
        assert f.left.body is f.right.right.inner

    def test_reader_shares_across_texts(self):
        r = Reader(Dialect.JEM)
        f, g = r.formula("[m(p0, x0)]A -> B"), r.formula("C | [m(p0, x0)]A")
        assert f.left is g.right
        ante, succ = r.sequent("[m(p0, x0)]A => B")
        assert ante[0] is f.left and succ[0] is f.right

    def test_no_sharing_between_calls(self):
        # The table lives for one call only, so nothing read stays alive in it.
        assert parse_formula("A", Dialect.MODAL) is not parse_formula("A", Dialect.MODAL)

    def test_unexpected_character_position(self):
        with pytest.raises(ParseError) as e:
            parse_formula("A -> 5", Dialect.MODAL)
        assert e.value.position == 5

    def test_error_position_after_backtracking(self):
        with pytest.raises(ParseError) as e:
            parse_formula("(A & B) -> (A &)", Dialect.JE)
        assert e.value.position == 15


LIMIT = _Parser.MAX_DEPTH

# Each shape at nesting n, for n >= 2.
NESTED = {
    "boxes": (lambda n: "[]" * n + "A", Dialect.MODAL),
    "negations": (lambda n: "~" * n + "A", Dialect.JE),
    "parentheses": (lambda n: "(" * n + "A" + ")" * n, Dialect.JE),
    "implications": (lambda n: " -> ".join(["A"] * (n + 1)), Dialect.MODAL),
    "conjunctions": (lambda n: " & ".join(["A"] * (n + 1)), Dialect.MODAL),
    "justifications": (lambda n: "[x0]" * n + "A", Dialect.JEM),
    "bangs": (lambda n: "!" * (n - 1) + "c0:A", Dialect.JE),
    "applications": (lambda n: "[e(" + " * ".join(["c0"] * (n - 1)) + ")]A", Dialect.JE),
    "term parentheses": (lambda n: "[e(" + "(" * (n - 2) + "c0" + ")" * (n - 2) + ")]A", Dialect.JE),
    "m terms": (lambda n: "[" + "m(p0, " * (n - 1) + "x0" + ")" * (n - 1) + "]A", Dialect.JEM),
}


class TestNestingLimit:
    @pytest.mark.parametrize("shape", NESTED)
    def test_at_the_limit(self, shape):
        make, dialect = NESTED[shape]
        f = parse_formula(make(LIMIT), dialect)
        assert parse_formula(print_formula(f), dialect) == f

    @pytest.mark.parametrize("shape", NESTED)
    def test_over_the_limit(self, shape):
        make, dialect = NESTED[shape]
        with pytest.raises(ParseError, match=f"nesting deeper than {LIMIT} levels") as e:
            parse_formula(make(LIMIT + 1), dialect)
        assert e.value.position is not None

    def test_thousand_boxes_in_a_sequent(self):
        with pytest.raises(ParseError):
            parse_sequent_line("=> " + "[]" * 1000 + "A")


class TestPrint:
    def test_bottom(self):
        assert print_formula(BOT) == "_|_"

    def test_evidence_of_sum(self):
        f = JustOf(Evidence(Sum(ProofVar(0), ProofVar(0))), A)
        assert print_formula(f) == "[e(p0 + p0)]A"

    def test_right_associated_implication_prints_flat(self):
        f = Implies(A, Implies(B, C))
        assert print_formula(f) == "A -> B -> C"
        assert parse_formula(print_formula(f), Dialect.MODAL) == f

    def test_left_associated_implication_keeps_parens(self):
        f = Implies(Implies(A, B), C)
        assert print_formula(f) == "(A -> B) -> C"

    def test_proof_of_non_atomic_body_parenthesized(self):
        f = ProofOf(ProofConst("c0"), Implies(A, B))
        assert print_formula(f) == "c0:(A -> B)"

    def test_term_precedence(self):
        t = parse_proof_term("c0 * (c1 + c2)", Dialect.JE)
        assert print_term(t) == "c0 * (c1 + c2)"
        t2 = parse_proof_term("!c0 * c1", Dialect.JE)
        assert t2 == Apply(Bang(ProofConst("c0")), ProofConst("c1"))
        assert print_term(t2) == "!c0 * c1"

    def test_sequent_printing(self):
        assert print_sequent((A, B), (C,)) == "A, B => C"
        assert print_sequent((), ()) == "=>"


class TestForgetful:
    def test_erases_justification_terms(self):
        f = parse_formula("[e(p0)]A", Dialect.JE)
        assert forgetful(f) == Box(A)

    def test_atoms_fixed(self):
        assert forgetful(A) == A

    def test_proof_assertion_rejected(self):
        with pytest.raises(ProofOfPresent):
            forgetful(parse_formula("p0:A", Dialect.JE))

    def test_commutes_with_connectives(self):
        f = parse_formula("[x0]A & ~[x1]B", Dialect.JEM)
        assert forgetful(f) == And(Box(A), Not(Box(B)))


class TestSubstitution:
    def test_atom_replacement(self):
        f = Implies(A, A)
        out = apply_substitution(f, Substitution(atoms={"A": C}))
        assert out == Implies(C, C)

    def test_just_var_replacement(self):
        f = parse_formula("[x0]A", Dialect.JEM)
        s = Substitution(just_vars={0: MApply(ProofConst("c0"), JustVar(1))})
        assert apply_substitution(f, s) == parse_formula("[m(c0, x1)]A", Dialect.JEM)

    def test_identity_substitution(self):
        f = parse_formula("[e(p0)]A -> B", Dialect.JE)
        assert apply_substitution(f, Substitution()) is f

    def test_composition_with_disjoint_domains(self):
        f = parse_formula("A -> (B -> A)", Dialect.MODAL)
        s1 = Substitution(atoms={"A": C})
        s2 = Substitution(atoms={"B": Atom("D")})
        merged = Substitution(atoms={"A": C, "B": Atom("D")})
        assert apply_substitution(apply_substitution(f, s1), s2) == apply_substitution(f, merged)


class TestOccurrences:
    def test_box_occurrences_nested(self):
        f = parse_formula("[][]A", Dialect.MODAL)
        assert box_occurrences(f) == ((), (0,))

    def test_box_occurrences_none(self):
        assert box_occurrences(Implies(A, B)) == ()

    def test_box_occurrences_distribution(self):
        f = parse_formula("[](A & B) -> ([]A & []B)", Dialect.MODAL)
        assert len(box_occurrences(f)) == 3

    def test_subformula_at(self):
        f = parse_formula("[]A -> []B", Dialect.MODAL)
        assert subformula_at(f, (0,)) == Box(A)
        assert subformula_at(f, (1, 0)) == B

    def test_polarity_antecedent_of_implication(self):
        f = parse_formula("[]A -> []B", Dialect.MODAL)
        assert polarity_at(f, (0,)) == "negative"
        assert polarity_at(f, (1,)) == "positive"

    def test_polarity_double_negation(self):
        f = parse_formula("~~[]A", Dialect.MODAL)
        assert polarity_at(f, (0, 0)) == "positive"


def _rand_formula(seed: int, dialect: Dialect):
    return random_formula(random.Random(seed), dialect, depth=4)


@given(st.integers(0, 10**9), st.sampled_from(DIALECTS))
@settings(max_examples=150, deadline=None)
def test_parse_print_roundtrip(seed, dialect):
    f = _rand_formula(seed, dialect)
    assert parse_formula(print_formula(f), dialect) == f


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_polarity_flips_under_negation(seed):
    f = _rand_formula(seed, Dialect.MODAL)
    for path in box_occurrences(f):
        direct = polarity_at(f, path)
        inverted = polarity_at(Not(f), (0,) + path)
        assert direct != inverted


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_forgetful_commutes_with_implication(seed):
    rng = random.Random(seed)
    a = random_formula(rng, Dialect.JEM, depth=3)
    b = random_formula(rng, Dialect.JEM, depth=3)
    try:
        fa, fb = forgetful(a), forgetful(b)
    except ProofOfPresent:
        assume(False)
        return
    assert forgetful(Implies(a, b)) == Implies(fa, fb)
