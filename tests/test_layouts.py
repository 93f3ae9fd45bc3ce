"""The premise layout table of the sequent rules: ``premises_of`` reads it
backwards, ``conclude`` forwards, and docs/formats.md prints it."""

import pathlib
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from jelogic.generate import random_formula, random_sequent_theorem
from jelogic.sequent import (
    LAYOUTS,
    Proof,
    Sequent,
    SequentProofError,
    _slots,
    conclude,
    premises_of,
    prove_bounded,
)
from jelogic.syntax import And, Atom, Dialect, Implies, Not, Or, postorder

from _helpers import fragment_formulas

A, B = Atom("A"), Atom("B")
AXIOM = conclude("AxP", (), formula=A)  # A => A
FORMATS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def _assert_conclude_rebuilds(p: Proof):
    """``conclude`` over each node's children, with its principal's index
    and the formula AxP, WL or WR introduces, gives back the node itself."""
    for node in postorder(p, kids=lambda q: q.children):
        side, k = node.principal[0]
        formula = None
        if node.rule in ("AxP", "WL", "WR"):
            formula = (node.sequent.ante if side == "L" else node.sequent.succ)[k]
        assert conclude(node.rule, node.children, k, formula) is node


@given(st.integers(0, 10**9), st.sampled_from(["GE", "GM"]))
@settings(max_examples=100, deadline=None)
def test_conclude_rebuilds_forward_generated_proofs(seed, calculus):
    _assert_conclude_rebuilds(random_sequent_theorem(random.Random(seed), calculus, depth=5))


@given(st.one_of(
    st.sampled_from(fragment_formulas()),
    st.integers(0, 10**9).map(lambda seed: random_formula(random.Random(seed), Dialect.MODAL, 4)),
))
@settings(max_examples=200, deadline=None)
def test_conclude_rebuilds_searched_proofs(f):
    for calculus in ("GE", "GM"):
        p = prove_bounded(Sequent((), (f,)), calculus, 10)
        if p is not None:
            _assert_conclude_rebuilds(p)


# Per rule of the table: a wrong connective (atoms at every position), a
# wrong side, and an index out of range.
MISPLACED = [
    ("ImpL", (("L", 0),), "bad-rule: ImpL principal is not an implication"),
    ("ImpL", (("R", 0),), "bad-rule: principal (('R', 0),) not a single L occurrence"),
    ("ImpL", (("L", 5),), "bad-rule: principal index 5 out of range"),
    ("ImpR", (("R", 0),), "bad-rule: ImpR principal is not an implication"),
    ("ImpR", (("L", 0),), "bad-rule: principal (('L', 0),) not a single R occurrence"),
    ("ImpR", (("R", 5),), "bad-rule: principal index 5 out of range"),
    ("AndL", (("L", 0),), "bad-rule: AndL principal is not a conjunction"),
    ("AndL", (("R", 0),), "bad-rule: principal (('R', 0),) not a single L occurrence"),
    ("AndL", (("L", 5),), "bad-rule: principal index 5 out of range"),
    ("AndR", (("R", 0),), "bad-rule: AndR principal is not a conjunction"),
    ("AndR", (("L", 0),), "bad-rule: principal (('L', 0),) not a single R occurrence"),
    ("AndR", (("R", 5),), "bad-rule: principal index 5 out of range"),
    ("OrL", (("L", 0),), "bad-rule: OrL principal is not a disjunction"),
    ("OrL", (("R", 0),), "bad-rule: principal (('R', 0),) not a single L occurrence"),
    ("OrL", (("L", 5),), "bad-rule: principal index 5 out of range"),
    ("OrR", (("R", 0),), "bad-rule: OrR principal is not a disjunction"),
    ("OrR", (("L", 0),), "bad-rule: principal (('L', 0),) not a single R occurrence"),
    ("OrR", (("R", 5),), "bad-rule: principal index 5 out of range"),
    ("NotL", (("L", 0),), "bad-rule: NotL principal is not a negation"),
    ("NotL", (("R", 0),), "bad-rule: principal (('R', 0),) not a single L occurrence"),
    ("NotL", (("L", 5),), "bad-rule: principal index 5 out of range"),
    ("NotR", (("R", 0),), "bad-rule: NotR principal is not a negation"),
    ("NotR", (("L", 0),), "bad-rule: principal (('L', 0),) not a single R occurrence"),
    ("NotR", (("R", 5),), "bad-rule: principal index 5 out of range"),
    ("WL", (("R", 0),), "bad-rule: principal (('R', 0),) not a single L occurrence"),
    ("WL", (("L", 5),), "bad-rule: principal index 5 out of range"),
    ("WR", (("L", 0),), "bad-rule: principal (('L', 0),) not a single R occurrence"),
    ("WR", (("R", 5),), "bad-rule: principal index 5 out of range"),
]


@pytest.mark.parametrize("rule, principal, message", MISPLACED)
def test_a_misplaced_principal_is_a_bad_rule(rule, principal, message):
    with pytest.raises(SequentProofError) as e:
        premises_of(rule, principal, Sequent((A, B), (A, B)))
    assert e.value.kind == "bad-rule" and str(e.value) == message


def test_every_rule_of_the_table_has_its_misplaced_principals():
    # A weakening's principal may be any formula: no wrong connective.
    expected = {rule: 3 if connective else 2 for rule, (_, connective, _) in LAYOUTS.items()}
    assert Counter(rule for rule, _, _ in MISPLACED) == expected


@pytest.mark.parametrize("rule, premises, k, formula, kind", [
    # AndR over premises whose contexts differ: A => A and B, A => A.
    ("AndR", (AXIOM, conclude("WL", (AXIOM,), 0, B)), 0, None, "premise-mismatch"),
    ("ImpL", (AXIOM, conclude("WR", (AXIOM,), 0, B)), 0, None, "premise-mismatch"),
    ("AndR", (AXIOM,), 0, None, "premise-mismatch"),          # one premise of two
    ("AndL", (AXIOM,), 0, None, "premise-mismatch"),          # no room for A, B in front
    ("OrR", (conclude("AxBot", ()),), 0, None, "premise-mismatch"),
    ("ImpR", (AXIOM,), 2, None, "premise-mismatch"),          # k past the succedent
    ("WL", (AXIOM,), -1, B, "premise-mismatch"),
    ("WL", (AXIOM,), 0, None, "premise-mismatch"),            # no formula to add
    # CL on unequal formulas: B, A => A.
    ("CL", (conclude("WL", (AXIOM,), 0, B),), 0, None, "premise-mismatch"),
    ("CR", (AXIOM,), 0, None, "premise-mismatch"),
    # RE over premises that are not converses: A => A and B => B.
    ("RE", (AXIOM, conclude("AxP", (), formula=B)), 0, None, "premise-mismatch"),
    ("RE", (AXIOM,), 0, None, "premise-mismatch"),
    ("RM", (conclude("WL", (AXIOM,), 0, B),), 0, None, "premise-mismatch"),
    ("AxP", (), 0, And(A, B), "bad-rule"),                    # not atomic
    ("AxP", (), 0, None, "premise-mismatch"),
    ("AxBot", (AXIOM,), 0, None, "premise-mismatch"),
    ("Cut", (AXIOM, AXIOM), 0, None, "bad-rule"),
])
def test_a_misfit_conclude_raises(rule, premises, k, formula, kind):
    with pytest.raises(SequentProofError) as e:
        conclude(rule, premises, k, formula)
    assert e.value.kind == kind


def test_the_documented_table_is_the_sequent_table():
    """docs/formats.md prints ``LAYOUTS`` row for row: the principal's side
    and connective, and the premises with the context names dropped."""
    connectives = {"A -> B": Implies, "A & B": And, "A \\| B": Or, "~A": Not}
    rows = {}
    for line in FORMATS.read_text().splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) < 3 or cells[0] not in LAYOUTS:
            continue
        rule, principal, premises = cells[0], cells[1].split("`"), cells[-1].split("`")
        layouts = []
        for premise in premises[1::2]:
            ante, succ = (
                ", ".join(x for x in side.replace(",", " ").split() if x[0] not in "ΓΔ")
                for side in premise.split("=>")
            )
            layouts.append(_slots(f"{ante} => {succ}"))
        side = principal[1][0]
        connective = connectives[principal[3]] if len(principal) > 3 else None
        rows[rule] = side, connective, tuple(layouts)
    assert rows == LAYOUTS
    assert list(rows) == list(LAYOUTS)
