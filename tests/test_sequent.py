import gc
import random
import time
import weakref
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import jelogic.sequent
from jelogic.formats import parse_sequent_proof, write_sequent_proof
from jelogic.generate import random_sequent_theorem
from jelogic.sequent import (
    SEARCH_DEPTH_LIMIT,
    Proof,
    SearchLimitExceeded,
    Sequent,
    SequentProofError,
    check_sequent_proof,
    compute_families,
    conclude,
    parse_sequent_line,
    premises_of,
    proof_size,
    prove_bounded,
    _canonical,
    _search,
)
from jelogic.syntax import (
    And,
    Atom,
    BOT,
    Box,
    DialectError,
    Implies,
    JustOf,
    JustVar,
    Not,
    Or,
    ProofOf,
    ProofVar,
    Substitution,
    apply_substitution,
    forgetful,
    postorder,
)

from _helpers import (
    correspondences,
    fragment_formulas,
    sequent_boxes,
    shape_labels,
    subformula_at,
    tree_families,
)

A, B, C, D = Atom("A"), Atom("B"), Atom("C"), Atom("D")
AXIOM = conclude("AxP", (), formula=A)  # A => A


def _count(p: Proof, rule: str) -> int:
    return (p.rule == rule) + sum(_count(c, rule) for c in p.children)


def _weakening_proof() -> Proof:
    """A hand proof of => []A -> ([]B -> []A) with a single congruence step."""
    ren = conclude("RE", (AXIOM, AXIOM))   # []A => []A
    w = conclude("WL", (ren,), 0, Box(B))  # []B, []A => []A
    return conclude("ImpR", (conclude("ImpR", (w,), 0),), 0)  # => []A -> ([]B -> []A)


def _nested_boxes_proof() -> Proof:
    """A hand proof of [][]A => [][]A with one outer and two inner steps."""
    inner = conclude("RE", (AXIOM, AXIOM))  # []A => []A
    return conclude("RE", (inner, inner))   # [][]A => [][]A


class TestCheck:
    def test_atomic_axiom(self):
        assert check_sequent_proof(AXIOM, "GE") == Sequent((A,), (A,))
        assert check_sequent_proof(AXIOM, "GM") == Sequent((A,), (A,))

    def test_falsum_axiom(self):
        assert check_sequent_proof(conclude("AxBot", ()), "GE") == Sequent((BOT,), ())

    def test_atomic_axiom_requires_atom(self):
        bogus = Proof(Sequent((And(A, B),), (And(A, B),)), "AxP", (("L", 0), ("R", 0)), ())
        with pytest.raises(SequentProofError) as e:
            check_sequent_proof(bogus, "GE")
        assert e.value.kind == "bad-rule"

    def test_congruence_rule_belongs_to_ge(self):
        p = conclude("RE", (AXIOM, AXIOM))
        assert check_sequent_proof(p, "GE") == Sequent((Box(A),), (Box(A),))
        with pytest.raises(SequentProofError) as e:
            check_sequent_proof(p, "GM")
        assert e.value.kind == "wrong-calculus"

    def test_monotonicity_rule_belongs_to_gm(self):
        p = conclude("RM", (AXIOM,))
        assert check_sequent_proof(p, "GM") == Sequent((Box(A),), (Box(A),))
        with pytest.raises(SequentProofError) as e:
            check_sequent_proof(p, "GE")
        assert e.value.kind == "wrong-calculus"

    def test_unknown_calculus(self):
        with pytest.raises(SequentProofError):
            check_sequent_proof(AXIOM, "S4")

    def test_premise_mismatch(self):
        bogus = Proof(Sequent((B, A), (A,)), "WL", (("L", 0),), (conclude("AxP", (), formula=B),))
        with pytest.raises(SequentProofError) as e:
            check_sequent_proof(bogus, "GE")
        assert e.value.kind == "premise-mismatch"

    def test_modal_dialect_enforced(self):
        alien = ProofOf(ProofVar(0), A)
        bogus = Proof(Sequent((alien,), (alien,)), "AxP", (("L", 0), ("R", 0)), ())
        with pytest.raises(Exception):
            check_sequent_proof(bogus, "GE")

    def test_non_modal_formula_below_the_root_is_rejected(self):
        """Only the root's formulas are dialect-checked; a node below it must
        equal its parent's premise, so an alien formula cannot pass there."""
        alien = ProofOf(ProofVar(0), A)
        leaf = Proof(Sequent((alien,), (alien,)), "AxP", (("L", 0), ("R", 0)), ())
        root = Proof(Sequent((B, alien), (alien,)), "WL", (("L", 0),), (leaf,))
        with pytest.raises(Exception):
            check_sequent_proof(root, "GE")
        root = Proof(Sequent((B, A), (A,)), "WL", (("L", 0),), (leaf,))
        with pytest.raises(SequentProofError) as e:
            check_sequent_proof(root, "GE")
        assert e.value.kind == "premise-mismatch"

    def test_weakening_proof_checks(self):
        root = check_sequent_proof(_weakening_proof(), "GE")
        assert root == parse_sequent_line("=> []A -> ([]B -> []A)")

    def test_axioms_need_their_one_principal(self):
        for rule, s, principal in (
            ("AxP", Sequent((A,), (A,)), (("R", 5),)),
            ("AxP", Sequent((A,), (A,)), (("L", 0),)),
            ("AxP", Sequent((A,), (A,)), (("R", 0), ("L", 0))),
            ("AxBot", Sequent((BOT,), ()), (("R", 0),)),
            ("AxBot", Sequent((BOT,), ()), ()),
        ):
            with pytest.raises(SequentProofError) as e:
                check_sequent_proof(Proof(s, rule, principal, ()), "GE")
            assert e.value.kind == "bad-rule"

    def test_modal_rules_need_boxed_singletons(self):
        with pytest.raises(SequentProofError):
            premises_of("RE", (("L", 0), ("R", 0)), Sequent((A,), (Box(A),)))


class TestSearch:
    def test_boxed_weakening_theorem(self):
        s = parse_sequent_line("=> []A -> ([]B -> []A)")
        p = prove_bounded(s, "GE", 8)
        assert p is not None and p.sequent == s
        check_sequent_proof(p, "GE")
        assert _count(p, "RE") == 1

    def test_boxed_disjunction_in_gm(self):
        s = parse_sequent_line("[]A | []B => [](A | B)")
        p = prove_bounded(s, "GM", 8)
        assert p is not None and p.sequent == s
        check_sequent_proof(p, "GM")
        assert _count(p, "RM") == 2

    def test_monotonicity_escapes_congruence_search(self):
        s = parse_sequent_line("=> []A -> [](A | B)")
        assert prove_bounded(s, "GE", 12) is None

    def test_projection_escapes_congruence_search(self):
        s = parse_sequent_line("=> [](A & B) -> []A")
        assert prove_bounded(s, "GE", 10) is None
        p = prove_bounded(s, "GM", 10)
        assert p is not None
        check_sequent_proof(p, "GM")

    def test_congruence_theorem(self):
        s = parse_sequent_line("=> [](A & B) -> [](B & A)")
        p = prove_bounded(s, "GE", 10)
        assert p is not None
        check_sequent_proof(p, "GE")
        assert _count(p, "RE") == 1

    def test_strengthening_escapes_monotone_search(self):
        s = parse_sequent_line("=> [](A | B) -> []A")
        assert prove_bounded(s, "GM", 10) is None

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            prove_bounded(parse_sequent_line("=> A"), "GE", 0)

    def test_unknown_calculus(self):
        with pytest.raises(SequentProofError):
            prove_bounded(parse_sequent_line("A => A"), "K", 5)

    @pytest.mark.parametrize("text, calculus, nodes", [
        ("C & D => A -> A", "GE", 3),          # ImpR, WL, AxP: not AndL first
        ("C & D => A -> A", "GM", 3),
        ("=> A & A | (B -> B)", "GE", 4),      # OrR, ImpR, WR, AxP: not AndR
    ])
    def test_a_premise_an_axiom_closes_goes_first(self, text, calculus, nodes):
        p = prove_bounded(parse_sequent_line(text), calculus, 10)
        check_sequent_proof(p, calculus)
        assert proof_size(p) == (nodes, nodes)

    def test_without_a_closing_premise_the_first_formula_goes_first(self):
        # ImpR's premise C, A | B => B | A is no axiom, so OrL stays first.
        p = prove_bounded(parse_sequent_line("A | B => C -> B | A"), "GE", 10)
        assert (p.rule, p.principal) == ("OrL", (("L", 0),))

    def test_ge_ladder_is_one_subproof_per_level(self):
        n = 20
        s = parse_sequent_line(f"{'[]' * n}A => {'[]' * n}A")
        t0 = time.perf_counter()
        p = prove_bounded(s, "GE", n + 2)
        check_sequent_proof(p, "GE")
        assert time.perf_counter() - t0 < 1.0
        tree, distinct = proof_size(p)
        assert tree == 2 ** (n + 1) - 1
        assert distinct <= n + 2
        assert p.children[0] is p.children[1]

    def test_check_visits_a_shared_subproof_once(self, monkeypatch):
        def ladder(n):
            return prove_bounded(parse_sequent_line(f"{'[]' * n}A => {'[]' * n}A"), "GE", n + 2)

        # The v1 file is a tree, and the parser's proof shares its equal
        # subproofs as the search's does.  The searched proof is gone before
        # the parse, so the sharing comes from how the parser builds.
        searched = ladder(10)
        size, text = proof_size(searched), write_sequent_proof(searched, "GE")
        del searched
        gc.collect()
        parsed, _ = parse_sequent_proof(text)
        assert proof_size(parsed) == size == (2047, 11)
        for p in (ladder(20), parsed):
            calls = []
            monkeypatch.setattr("jelogic.sequent.premises_of", lambda *a: calls.append(a) or premises_of(*a))
            check_sequent_proof(p, "GE")
            assert len(calls) == proof_size(p)[1]

    def test_each_sequent_is_asked_about_axioms_once_per_call(self, monkeypatch):
        # The look-ahead asks about a one-premise rule's premise, which the
        # search of the chosen rule then meets again.
        asked = []
        leaf = jelogic.sequent._axiom_leaf
        monkeypatch.setattr("jelogic.sequent._axiom_leaf", lambda c: asked.append((c.ante, c.succ)) or leaf(c))
        calls = 0
        for calculus in ("GE", "GM"):
            for f in fragment_formulas()[:400]:
                asked.clear()
                prove_bounded(Sequent((), (f,)), calculus, 10)
                calls += len(asked)
                assert len(set(asked)) == len(asked)
        assert calls > 1000

    def test_memo_lives_for_one_call(self):
        s = parse_sequent_line("[][][]A => [][][]A")
        p = prove_bounded(s, "GE", 5)
        q = prove_bounded(s, "GE", 5)
        assert p is q  # hash-consed: the same proof is the same object
        ref = weakref.ref(p)
        del p, q
        gc.collect()
        assert ref() is None

    def test_search_nests_rules_up_to_its_limit(self):
        """``A => ~^2k A`` takes 2k nested rule applications: at the limit
        it proves, whatever depth is allowed; past it the search raises."""
        def chain(n):
            return reduce(lambda f, _: Not(f), range(n), A)

        at_limit = Sequent((A,), (chain(SEARCH_DEPTH_LIMIT),))
        p = prove_bounded(at_limit, "GE", 1000)
        assert p is not None and p is prove_bounded(at_limit, "GE", SEARCH_DEPTH_LIMIT)
        assert check_sequent_proof(p, "GE") == at_limit
        past = Sequent((A,), (chain(SEARCH_DEPTH_LIMIT + 2),))
        with pytest.raises(SearchLimitExceeded, match="SEARCH_DEPTH_LIMIT") as e:
            prove_bounded(past, "GM", 1000)
        assert isinstance(e.value, ValueError)
        assert prove_bounded(past, "GM", SEARCH_DEPTH_LIMIT) is None  # within depth: no proof, no error

    def test_memo_keeps_depths_apart(self):
        c = _canonical(parse_sequent_line("[][]A => [][]A"))  # needs depth 2
        memo = {}
        assert _search(c, "GE", 1, memo) is None
        p = _search(c, "GE", 2, memo)          # a failure at 1 says nothing at 2
        assert p is not None
        assert _search(c, "GE", 5, memo) is p  # a proof at 2 serves 5
        assert _search(c, "GE", 1, memo) is None
        assert _search(c, "GE", 2, memo) is p


def test_proof_size_counts_a_dag_as_its_tree():
    leaf = AXIOM
    inner = conclude("RE", (leaf, leaf))    # []A => []A, leaf shared
    outer = conclude("RE", (inner, inner))  # [][]A => [][]A, inner shared
    assert proof_size(leaf) == (1, 1)
    assert proof_size(inner) == (3, 2)
    assert proof_size(outer) == (7, 3)
    assert proof_size(outer) == (len(tree_families(outer)[0]), 3)


class TestFamilies:
    def test_weakening_proof_families(self):
        fa = compute_families(_weakening_proof())
        assert fa.modal_rule == "RE"
        assert len(fa.families) == 3
        assert sorted(f.essential for f in fa.families) == [False, True, True]
        spare = next(f for f in fa.families if not f.essential)
        assert spare.polarity == "negative" and spare.instances == ()
        assert len(fa.classes) == 1
        cls = fa.classes[0]
        assert len(cls.families) == 2 and len(cls.instances) == 1

    def test_nested_boxes_two_classes(self):
        fa = compute_families(_nested_boxes_proof())
        assert fa.modal_rule == "RE"
        assert len(fa.families) == 4
        assert all(f.essential for f in fa.families)
        # The inner class's two RE nodes are one subproof with one labelling:
        # one shape, one instance.
        assert sorted(len(c.instances) for c in fa.classes) == [1, 1]

    def test_propositional_proof_has_no_families(self):
        fa = compute_families(AXIOM)
        assert fa.families == () and fa.classes == () and fa.modal_rule is None

    def test_monotone_proof_polarities(self):
        widened = conclude("OrR", (conclude("WR", (AXIOM,), 1, B),), 0)  # A => A | B
        fa = compute_families(conclude("RM", (widened,)))                # []A => [](A | B)
        assert fa.modal_rule == "RM"
        assert fa.classes == ()
        essentials = [f for f in fa.families if f.essential]
        assert len(essentials) == 1 and essentials[0].polarity == "positive"
        assert {f.polarity for f in fa.families} == {"positive", "negative"}

    @pytest.mark.parametrize("text", [
        "=> []A -> ([]B -> []A)",           # golden 1
        f"{'[]' * 8}A => {'[]' * 8}A",      # the ladder at n = 8
        "=> [](A -> A) -> [](B -> B)",      # golden 3
    ])
    def test_premises_once_per_distinct_family_annotated_shape(self, monkeypatch, text):
        """The class-annotated shapes of GE are read off the family-annotated
        ones, so ``premises_of`` reads each of those once: once per distinct
        pair of a subproof and the families of its boxes in the tree."""
        p = prove_bounded(parse_sequent_line(text), "GE", 10)
        calls = []

        def counted(rule, principal, s):
            calls.append((rule, principal, s))
            return premises_of(rule, principal, s)

        monkeypatch.setattr("jelogic.sequent.premises_of", counted)
        assert compute_families(p).classes
        nodes, _, family = tree_families(p)
        shapes = {
            (q.rule, q.principal, q.sequent, tuple(family[(nid, *o)] for o in sequent_boxes(q.sequent)))
            for nid, (q, _) in enumerate(nodes)
        }
        read = [
            (rule, principal, Sequent(tuple(map(forgetful, s.ante)), tuple(map(forgetful, s.succ))), shape_labels(s))
            for rule, principal, s in calls
        ]
        assert len(read) == len(set(read)) == len(shapes) and set(read) == shapes

    def test_mixed_modal_rules_rejected(self):
        monotone = conclude("RM", (AXIOM,))
        mixed = conclude("RE", (monotone, monotone))
        with pytest.raises(SequentProofError) as e:
            compute_families(mixed)
        assert e.value.kind == "wrong-calculus"
        for calculus in ("GE", "GM"):
            with pytest.raises(SequentProofError):
                check_sequent_proof(mixed, calculus)


def _formula_at(s: Sequent, side: str, i: int):
    return (s.ante if side == "L" else s.succ)[i]


def _assert_maps_sound(p: Proof):
    """Every node's maps cover exactly the positions of its premises, and each
    points at a subformula of the conclusion equal to the premise formula."""
    for node in postorder(p, kids=lambda q: q.children):
        maps = correspondences(node.rule, node.principal, node.sequent)
        assert len(maps) == len(node.children)
        for cmap, child in zip(maps, node.children):
            q = child.sequent
            assert set(cmap) == {("L", i) for i in range(len(q.ante))} | {("R", i) for i in range(len(q.succ))}
            for (side, i), ((side2, j), path) in cmap.items():
                assert subformula_at(_formula_at(node.sequent, side2, j), path) == _formula_at(q, side, i)


def _over_searched_premises(rule: str, principal, s: Sequent, calculus: str) -> Proof:
    kids = tuple(prove_bounded(q, calculus, 8) for q in premises_of(rule, principal, s))
    assert None not in kids
    p = Proof(s, rule, principal, kids)
    check_sequent_proof(p, calculus)
    return p


def _renamed(p: Proof, sub: Substitution) -> Proof:
    s = Sequent(
        tuple(apply_substitution(f, sub) for f in p.sequent.ante),
        tuple(apply_substitution(f, sub) for f in p.sequent.succ),
    )
    return Proof(s, p.rule, p.principal, tuple(_renamed(c, sub) for c in p.children))


class TestCorrespondences:
    @pytest.mark.parametrize("calculus", ["GE", "GM"])
    def test_hand_built_nodes(self, calculus):
        imp = Implies(Box(A), B)
        conj = Box(And(A, B))
        disj = Or(Box(A), C)
        for rule, principal, s in (
            ("ImpL", (("L", 1),), Sequent((Box(A), imp, C), (B, C))),
            ("CL", (("L", 1),), Sequent((C, conj, A), (conj,))),
            ("CR", (("R", 1),), Sequent((Box(A),), (B, disj, C))),
        ):
            _assert_maps_sound(_over_searched_premises(rule, principal, s, calculus))

    @pytest.mark.parametrize("calculus", ["GE", "GM"])
    def test_fragment_search_proofs(self, calculus):
        proved = 0
        for f in fragment_formulas():
            p = prove_bounded(Sequent((), (f,)), calculus, 10)
            if p is not None:
                _assert_maps_sound(p)
                proved += 1
        assert proved > 0

    def test_atom_named_like_an_occurrence(self):
        s = Sequent((A,), (Atom("L0"), A))
        expected = ({("L", 0): (("L", 0), ()), ("R", 0): (("R", 1), ())},)
        assert correspondences("WR", (("R", 0),), s) == expected

    @pytest.mark.parametrize("calculus", ["GE", "GM"])
    def test_families_do_not_depend_on_atom_names(self, calculus):
        p = prove_bounded(parse_sequent_line("[](A & B), A, B => [](B & A), C, D"), calculus, 10)
        names = {"A": Atom("L0"), "B": Atom("L1"), "C": Atom("R0"), "D": Atom("R1")}
        q = _renamed(p, Substitution(atoms=names))
        check_sequent_proof(q, calculus)
        fp, fq = compute_families(p), compute_families(q)
        assert fp.families and fq.families == fp.families and fq.classes == fp.classes
        assert [shape_labels(s.sequent) for s in fq.shapes] == [shape_labels(s.sequent) for s in fp.shapes]


@given(st.integers(0, 10**9), st.sampled_from(["GE", "GM"]))
@settings(max_examples=100, deadline=None)
def test_forward_generated_proofs_check_and_analyze(seed, calculus):
    p = random_sequent_theorem(random.Random(seed), calculus, depth=5)
    check_sequent_proof(p, calculus)
    _assert_maps_sound(p)
    fa = compute_families(p)

    # A family per box occurrence of the root sequent, and every shape's
    # sequent its proof's, annotated.
    assert [f.occurrence for f in fa.families] == sequent_boxes(p.sequent)
    for shape in fa.shapes:
        forgotten = Sequent(tuple(map(forgetful, shape.sequent.ante)), tuple(map(forgetful, shape.sequent.succ)))
        assert forgotten == shape.proof.sequent

    for f in fa.families:
        assert f.essential == bool(f.instances)
        if fa.modal_rule == "RM":
            assert f.polarity in ("positive", "negative")

    if fa.modal_rule == "RE":
        covered = [i for c in fa.classes for i in c.families]
        assert sorted(covered) == [i for i, f in enumerate(fa.families) if f.essential]


def _assert_shapes_are_the_tree(p: Proof):
    """``compute_families`` against the tree-expanding reference: each tree
    family holds exactly one of the root's box occurrences; essential
    families and classes agree; and the shapes are the tree's pairs of a
    proof and the groups of its boxes, in the order a postorder walk first
    reaches them, with every tree node reached through the shapes' children
    having its shape's proof and groups, read off the annotated sequent."""
    fa = compute_families(p)
    nodes, families, family = tree_families(p)
    assert [[t[1:] for t in tokens if t[0] == 0] for tokens in families] == [[f.occurrence] for f in fa.families]

    introduced, joined = set(), []
    for nid, (q, _) in enumerate(nodes):
        if q.rule in ("RE", "RM"):
            left, right = family[nid, "L", 0, ()], family[nid, "R", 0, ()]
            introduced |= {left, right} if q.rule == "RE" else {right}
            joined += [(left, right)] if q.rule == "RE" else []
    assert [f.essential for f in fa.families] == [i in introduced for i in range(len(families))]
    classes = [{i} for i in sorted(introduced)] if joined else []
    for left, right in joined:
        a, b = (next(c for c in classes if i in c) for i in (left, right))
        if a is not b:
            classes.remove(b)
            a |= b
    assert [c.families for c in fa.classes] == sorted(tuple(sorted(c)) for c in classes)

    group = list(range(len(families)))
    for c in fa.classes:
        for i in c.families:
            group[i] = c.families[0]

    def key(nid):
        q = nodes[nid][0]
        return q, tuple(group[family[(nid, *occurrence)]] for occurrence in sequent_boxes(q.sequent))

    postorder = []

    def walk(nid):
        for c in nodes[nid][1]:
            walk(c)
        postorder.append(nid)

    walk(0)
    assert [(s.proof, shape_labels(s.sequent)) for s in fa.shapes] == list(dict.fromkeys(map(key, postorder)))
    stack = [(0, len(fa.shapes) - 1)]
    while stack:
        nid, k = stack.pop()
        assert (fa.shapes[k].proof, shape_labels(fa.shapes[k].sequent)) == key(nid)
        stack.extend(zip(nodes[nid][1], fa.shapes[k].children))


@given(st.integers(0, 10**9), st.sampled_from(["GE", "GM"]))
@settings(max_examples=60, deadline=None)
def test_shapes_of_random_proofs_are_the_tree(seed, calculus):
    _assert_shapes_are_the_tree(random_sequent_theorem(random.Random(seed), calculus, depth=5))


@pytest.mark.parametrize("text, calculus", [
    # One subproof under both conjuncts, its boxes in different families.
    ("[]A => []A & []A", "GM"),
    ("[]A | []B => [](A | B) & [](A | B)", "GM"),
    # ... and in GE in different families of one class: one shape.
    ("[]A, []A => []A & []A", "GE"),
    ("=> ([]A -> []A) & ([]A -> []A)", "GE"),
    ("=> []([]A & []B) -> ([][]A & [][]B)", "GM"),
    ("[][][][]A => [][][][]A", "GE"),
    ("[][][][]A => [][][][]A", "GM"),
])
def test_shapes_of_shared_subproofs_are_the_tree(text, calculus):
    s = parse_sequent_line(text)
    _assert_shapes_are_the_tree(prove_bounded(s, calculus, 10))


def test_shape_children_carry_the_annotated_premises():
    """``premises_of`` of a shape's annotated sequent is its children's
    annotated sequents, in GE after the classes merge as well."""
    proofs = [random_sequent_theorem(random.Random(seed), calculus) for seed in range(30) for calculus in ("GE", "GM")]
    proofs += [prove_bounded(parse_sequent_line(text), calculus, 10) for text, calculus in (
        ("[]A, []A => []A & []A", "GE"),
        ("=> ([]A -> []A) & ([]A -> []A)", "GE"),
        ("=> []([]A & []B) -> ([][]A & [][]B)", "GM"),
        (f"{'[]' * 6}A => {'[]' * 6}A", "GE"),
        (f"{'[]' * 6}A => {'[]' * 6}A", "GM"),
    )]
    for p in proofs:
        fa = compute_families(p)
        assert fa.shapes[-1].proof is p
        for shape in fa.shapes:
            given = premises_of(shape.proof.rule, shape.proof.principal, shape.sequent)
            assert given == tuple(fa.shapes[c].sequent for c in shape.children)


@pytest.mark.parametrize("rule, children", [("RE", (AXIOM, AXIOM)), ("RM", (AXIOM,))])
def test_annotated_principal_is_no_checked_proof(rule, children):
    """``premises_of`` takes an annotated box as the principal of RE and RM,
    so that it reads annotated sequents, but a checked proof holds only
    modal formulas: one whose root holds ``[x0]A`` is rejected."""
    boxed = JustOf(JustVar(0), A)
    assert premises_of(rule, (("L", 0), ("R", 0)), Sequent((boxed,), (boxed,))) == (AXIOM.sequent,) * len(children)
    p = Proof(Sequent((boxed,), (boxed,)), rule, (("L", 0), ("R", 0)), children)
    with pytest.raises(DialectError):
        check_sequent_proof(p, "GE" if rule == "RE" else "GM")


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_congruence_theorems_are_monotone_theorems(seed):
    from jelogic.generate import random_formula
    from jelogic.syntax import Dialect

    f = random_formula(random.Random(seed), Dialect.MODAL, depth=3)
    s = Sequent((), (f,))
    p = prove_bounded(s, "GE", 6)
    if p is not None:
        check_sequent_proof(p, "GE")
        q = prove_bounded(s, "GM", 7)
        assert q is not None
        check_sequent_proof(q, "GM")
