import gc
import random
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from jelogic import syntax
from jelogic.generate import random_formula, random_just_term, random_proof_term
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
    Formula,
    Implies,
    JustOf,
    JustSum,
    JustTerm,
    JustVar,
    MApply,
    Not,
    Or,
    ParseError,
    ProofConst,
    ProofOf,
    ProofOfPresent,
    ProofTerm,
    ProofVar,
    Substitution,
    Sum,
    Term,
    apply_substitution,
    check_dialect,
    forgetful,
    parse_formula,
    parse_just_term,
    parse_proof_term,
    occurrences,
    parse_sequent,
    print_formula,
    print_sequent,
    print_term,
    _Parser,
)
from jelogic.sequent import parse_sequent_line

from _helpers import reference_print

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

    @pytest.mark.parametrize("text", ["x0", "x0 + x1", "e(p0)"])
    def test_just_terms_rejected_in_modal(self, text):
        with pytest.raises(DialectError, match="modal dialect"):
            parse_just_term(text, Dialect.MODAL)

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
        f, g = parse_formula("[m(p0, x0)]A -> B", Dialect.JEM), parse_formula("C | [m(p0, x0)]A", Dialect.JEM)
        assert f.left is g.right
        ante, succ = parse_sequent("[m(p0, x0)]A => B", Dialect.JEM)
        assert ante[0] is f.left and succ[0] is f.right

    def test_parses_of_one_text_are_one_object(self):
        text = "[e(p0 * c1)]A -> ~(B | c1:A)"
        assert parse_formula(text, Dialect.JE) is parse_formula(text, Dialect.JE)

    def test_a_node_dies_with_its_last_reference(self):
        gc.collect()
        before = len(syntax._NODES)
        f = parse_formula("[e(c_probe * p917)]Probe -> Probe", Dialect.JE)
        # Probe, c_probe, p917, the application, e(.), [.]Probe and the arrow.
        assert len(syntax._NODES) == before + 7
        ref = weakref.ref(f)
        del f
        assert ref() is None
        assert len(syntax._NODES) == before

    def test_unexpected_character_position(self):
        with pytest.raises(ParseError) as e:
            parse_formula("A -> 5", Dialect.MODAL)
        assert e.value.position == 5

    def test_error_position_after_backtracking(self):
        with pytest.raises(ParseError) as e:
            parse_formula("(A & B) -> (A &)", Dialect.JE)
        assert e.value.position == 15


LIMIT = _Parser.MAX_DEPTH

# Each shape at nesting n, for n >= 2: n levels open at once in the descent.
NESTED = {
    "boxes": (lambda n: "[]" * n + "A", Dialect.MODAL),
    "negations": (lambda n: "~" * n + "A", Dialect.JE),
    "parentheses": (lambda n: "(" * n + "A" + ")" * n, Dialect.JE),
    "implications": (lambda n: " -> ".join(["A"] * (n + 1)), Dialect.MODAL),
    "justifications": (lambda n: "[x0]" * n + "A", Dialect.JEM),
    "bangs": (lambda n: "!" * n + "c0:A", Dialect.JE),
    "term parentheses": (lambda n: "[e(" + "(" * (n - 2) + "c0" + ")" * (n - 2) + ")]A", Dialect.JE),
    "m terms": (lambda n: "[" + "m(p0, " * (n - 1) + "x0" + ")" * (n - 1) + "]A", Dialect.JEM),
}

# Each left-associative chain of n operands, which opens one level at most.
FLAT = {
    "conjunctions": (lambda n: " & ".join(f"A{i}" for i in range(n)), Dialect.MODAL),
    "disjunctions": (lambda n: " | ".join(f"A{i}" for i in range(n)), Dialect.MODAL),
    "applications": (lambda n: "[e(" + " * ".join(f"p{i}" for i in range(n)) + ")]A", Dialect.JE),
    "proof sums": (lambda n: "[e(" + " + ".join(f"p{i}" for i in range(n)) + ")]A", Dialect.JE),
    "justification sums": (lambda n: "[" + " + ".join(f"x{i}" for i in range(n)) + "]A", Dialect.JEM),
}


def _frames() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


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

    def test_the_limit_fits_a_small_frame_budget(self):
        """At the limit, every shape parses and prints back within 700
        frames of the caller, far inside Python's default 1000."""
        budget = _frames() + 700
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(budget)
        try:
            for make, dialect in NESTED.values():
                f = parse_formula(make(LIMIT), dialect)
                assert parse_formula(print_formula(f), dialect) is f
        finally:
            sys.setrecursionlimit(old)

    @pytest.mark.parametrize("shape", FLAT)
    def test_flat_chains_have_no_limit(self, shape):
        make, dialect = FLAT[shape]
        text = make(5000)
        f = parse_formula(text, dialect)
        assert print_formula(f) == text
        ante, succ = parse_sequent(f"{text}, B => {text}", dialect)
        assert ante == (f, B) and succ == (f,)
        assert print_sequent(ante, succ) == f"{text}, B => {text}"

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

    def test_a_shared_node_is_parenthesised_per_place(self):
        # Each node's text is printed once per call; its parentheses depend
        # on where it stands.
        x = Implies(A, B)
        assert print_formula(Implies(x, x)) == "(A -> B) -> A -> B"
        assert print_formula(And(x, Or(x, x))) == "(A -> B) & ((A -> B) | (A -> B))"
        assert print_formula(Implies(ProofOf(ProofConst("c0"), x), x)) == "c0:(A -> B) -> A -> B"
        assert print_sequent((x, Not(x)), (Or(x, A),)) == "A -> B, ~(A -> B) => (A -> B) | A"
        s = Sum(ProofVar(0), ProofConst("c1"))
        assert print_term(Apply(s, Sum(s, s))) == "(p0 + c1) * (p0 + c1 + (p0 + c1))"

    def test_a_text_is_dropped_after_its_last_use(self):
        # Each level of the chain embeds the text below it: kept to the end,
        # the 5000 texts would take about 50 MB.  The sequent reads the
        # chain's text twice, so it is kept until its second use.
        n = 5000
        f = A
        for _ in range(n):
            f = JustOf(JustVar(0), f)
        tracemalloc.start()
        try:
            assert print_sequent((f, A), (f,)) == f"{'[x0]' * n}A, A => {'[x0]' * n}A"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_proof_of_body_is_parenthesised_unless_atomic(self):
        c0 = ProofConst("c0")
        assert print_formula(ProofOf(c0, A)) == "c0:A"
        assert print_formula(ProofOf(c0, BOT)) == "c0:_|_"
        assert print_formula(ProofOf(c0, Not(A))) == "c0:(~A)"
        assert print_formula(ProofOf(c0, ProofOf(c0, A))) == "c0:(c0:A)"
        assert print_formula(Not(ProofOf(c0, And(A, B)))) == "~c0:(A & B)"


P0, P1, X0, X1 = ProofVar(0), ProofVar(1), JustVar(0), JustVar(1)

# Each class some dialect lacks, checked alone in each dialect: None for
# accepted, else the message.  The modal dialect has no terms, and its
# messages for them are the parser's.  JustOf's term, e(p0), is JE's.
NO_MODAL_PROOF_TERMS = "proof terms are not available in the modal dialect"
NO_MODAL_JUST_TERMS = "justification terms are not available in the modal dialect"
RESTRICTED = [
    *[(t, ProofTerm, {"JE": None, "JEM": None, "MODAL": NO_MODAL_PROOF_TERMS})
      for t in (ProofConst("c0"), P0, Apply(P0, P1), Bang(P0))],
    (Sum(P0, P1), ProofTerm, {
        "JE": None, "JEM": "proof-term sum is not available in JEM", "MODAL": NO_MODAL_PROOF_TERMS}),
    (Evidence(P0), JustTerm, {
        "JE": None, "JEM": "e(.) terms belong to JE only", "MODAL": NO_MODAL_JUST_TERMS}),
    (X0, JustTerm, {
        "JE": "justification variables belong to JEM only", "JEM": None, "MODAL": NO_MODAL_JUST_TERMS}),
    (JustSum(X0, X1), JustTerm, {
        "JE": "justification-term sum belongs to JEM only", "JEM": None, "MODAL": NO_MODAL_JUST_TERMS}),
    (MApply(P0, X0), JustTerm, {
        "JE": "m(.,.) terms belong to JEM only", "JEM": None, "MODAL": NO_MODAL_JUST_TERMS}),
    (Box(A), Formula, {
        "JE": "[] belongs to the modal dialect only", "JEM": "[] belongs to the modal dialect only",
        "MODAL": None}),
    (ProofOf(P0, A), Formula, {
        "JE": None, "JEM": None, "MODAL": "proof assertions do not exist in the modal dialect"}),
    (JustOf(Evidence(P0), A), Formula, {
        "JE": None, "JEM": "e(.) terms belong to JE only",
        "MODAL": "justification assertions do not exist in the modal dialect"}),
]


class TestDialectCheck:
    @pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: d.name)
    @pytest.mark.parametrize("node, sort, verdicts", RESTRICTED, ids=[type(n).__name__ for n, _, _ in RESTRICTED])
    def test_restricted_classes(self, node, sort, verdicts, dialect):
        message = verdicts[dialect.name]
        if message is None:
            check_dialect(node, dialect, sort)
        else:
            with pytest.raises(DialectError) as e:
                check_dialect(node, dialect, sort)
            assert str(e.value) == message

    @pytest.mark.parametrize("node, sort, message", [
        (A, ProofTerm, "not a proof term: Atom(name='A')"),
        (P0, JustTerm, "not a justification term: ProofVar(index=0)"),
        (X0, Formula, "not a formula: JustVar(index=0)"),
        (A, Term, "not a term: Atom(name='A')"),
    ])
    def test_wrong_sort(self, node, sort, message):
        for dialect in DIALECTS:
            with pytest.raises(DialectError) as e:
                check_dialect(node, dialect, sort)
            assert str(e.value) == message

    def test_sort_is_checked_where_a_seen_node_recurs(self):
        # A is first met as a formula, then stands where a proof term must.
        with pytest.raises(DialectError, match="not a proof term: Atom"):
            check_dialect(And(A, ProofOf(Apply(A, P0), B)), Dialect.JE)
        seen: set = set()
        check_dialect(A, Dialect.JE, Formula, seen)
        with pytest.raises(DialectError, match="not a proof term: Atom"):
            check_dialect(ProofOf(Apply(A, P0), B), Dialect.JE, Formula, seen)

    def test_a_rejected_node_is_not_remembered(self):
        seen: set = set()
        f = Not(Box(A))
        for _ in range(2):
            with pytest.raises(DialectError, match=r"\[\] belongs"):
                check_dialect(f, Dialect.JE, Formula, seen)
        assert f not in seen and Box(A) not in seen


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


def _boxes(f) -> dict:
    """The polarity of each box occurrence of ``f``, by path, in preorder."""
    return {path: positive for path, node, positive in occurrences(f) if isinstance(node, (Box, JustOf))}


class TestOccurrences:
    def test_box_occurrences_nested(self):
        f = parse_formula("[][]A", Dialect.MODAL)
        assert list(_boxes(f)) == [(), (0,)]

    def test_box_occurrences_none(self):
        assert _boxes(Implies(A, B)) == {}

    def test_box_occurrences_distribution(self):
        f = parse_formula("[](A & B) -> ([]A & []B)", Dialect.MODAL)
        assert len(_boxes(f)) == 3

    def test_occurrences_in_preorder(self):
        f = parse_formula("[]A -> []B", Dialect.MODAL)
        assert [(path, node) for path, node, _ in occurrences(f)] == [
            ((), f), ((0,), Box(A)), ((0, 0), A), ((1,), Box(B)), ((1, 0), B),
        ]

    def test_polarity_antecedent_of_implication(self):
        f = parse_formula("[]A -> []B", Dialect.MODAL)
        assert _boxes(f) == {(0,): False, (1,): True}

    def test_polarity_double_negation(self):
        f = parse_formula("~~[]A", Dialect.MODAL)
        assert _boxes(f) == {(0, 0): True}

    def test_annotated_boxes_and_terms(self):
        """An annotated box is an occurrence like a box; its term is not a
        subformula, so the walk does not enter it."""
        f = Implies(JustOf(JustVar(0), A), JustOf(JustVar(1), B))
        assert [node for _, node, _ in occurrences(f)] == [f, f.left, A, f.right, B]
        assert _boxes(f) == {(0,): False, (1,): True}

    def test_no_recursion_over_depth(self):
        f = A
        for _ in range(5000):
            f = Not(Box(f))
        assert len(_boxes(f)) == 5000


def _rand_formula(seed: int, dialect: Dialect):
    return random_formula(random.Random(seed), dialect, depth=4)


@given(st.integers(0, 10**9), st.sampled_from(DIALECTS))
@settings(max_examples=150, deadline=None)
def test_parse_print_roundtrip(seed, dialect):
    f = _rand_formula(seed, dialect)
    assert parse_formula(print_formula(f), dialect) == f


@given(st.integers(0, 10**9), st.sampled_from(DIALECTS))
@settings(max_examples=150, deadline=None)
def test_printing_agrees_with_the_recursive_printer(seed, dialect):
    rng = random.Random(seed)
    f = random_formula(rng, dialect, depth=5)
    assert print_formula(f) == reference_print(f)
    if dialect is not Dialect.MODAL:
        for t in (random_proof_term(rng, dialect, 4), random_just_term(rng, dialect, 4)):
            assert print_term(t) == reference_print(t)


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_polarity_flips_under_negation(seed):
    f = _rand_formula(seed, Dialect.MODAL)
    direct, inverted = _boxes(f), _boxes(Not(f))
    assert list(inverted) == [(0,) + path for path in direct]
    assert all(inverted[(0,) + path] != positive for path, positive in direct.items())


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
