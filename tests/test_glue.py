"""The propositional glue of each sequent rule, on hand-built proofs.

Every propositional rule is exercised over the boxed formulas ``X = []A``
and ``Y = []B`` (closed by RE in GE and RM in GM), once with a one-formula
succedent and once with a side formula next to it; ImpL and NotL also with
an empty succedent, where they need no fold.  Each proof must realize in both
modes and verify in both."""

import random

import pytest

from jelogic import realization
from jelogic.generate import random_sequent_theorem
from jelogic.realization import realize, verify_realization
from jelogic.sequent import Proof, Sequent, conclude, prove_bounded
from jelogic.syntax import And, Atom, Box, Implies, Or, print_formula

from _helpers import CS_JE, CS_JEM, proof_of

X, Y, Z = Box(Atom("A")), Box(Atom("B")), Box(Atom("C"))


def _box_id(calculus: str, atom: str) -> Proof:
    """``[]p => []p`` by the calculus's modal rule."""
    p = conclude("AxP", (), formula=Atom(atom))
    return conclude("RE", (p, p)) if calculus == "GE" else conclude("RM", (p,))


def _bot_left(rest) -> Proof:
    """``_|_, rest =>`` by AxBot and weakenings."""
    p = conclude("AxBot", ())
    for k, f in enumerate(rest, 1):
        p = conclude("WL", (p,), k, f)
    return p


# name -> (rule under test, its premises from the proofs x of X => X and y of
# Y => Y), the principal at position 0; Z = []C only ever enters by
# weakening, as a side formula.
CASES = {
    "AndL-one": ("AndL", lambda x, y: (conclude("WL", (x,), 1, Y),)),  # X & Y => X
    "AndL-side": ("AndL", lambda x, y: (conclude("WR", (conclude("WL", (x,), 1, Y),), 1, Z),)),  # X & Y => X, Z
    "AndR-one": ("AndR", lambda x, y: (x, x)),  # X => X & X
    "AndR-side": ("AndR", lambda x, y: (conclude("WR", (x,), 0, Z), conclude("WR", (x,), 0, Z))),  # X => X & X, Z
    "ImpL-empty": ("ImpL", lambda x, y: (x, _bot_left((X,)))),  # X -> _|_, X =>
    "ImpL-one": ("ImpL", lambda x, y: (conclude("WR", (x,), 0, Y), conclude("WL", (y,), 1, X))),  # X -> Y, X => Y
    "ImpL-side": (
        "ImpL",
        lambda x, y: (
            conclude("WR", (conclude("WR", (x,), 0, Y),), 1, Z),
            conclude("WR", (conclude("WL", (y,), 1, X),), 1, Z),
        ),
    ),  # X -> Y, X => Y, Z
    "ImpR-one": ("ImpR", lambda x, y: (x,)),  # => X -> X
    "ImpR-side": ("ImpR", lambda x, y: (conclude("WR", (x,), 0, Z),)),  # => X -> X, Z
    "NotL-empty": ("NotL", lambda x, y: (x,)),  # ~X, X =>
    "NotL-one": ("NotL", lambda x, y: (conclude("WR", (x,), 0, Z),)),  # ~X, X => Z
    "NotL-side": ("NotL", lambda x, y: (conclude("WR", (conclude("WR", (x,), 0, Z),), 1, Y),)),  # ~X, X => Z, Y
    "NotR-one": ("NotR", lambda x, y: (conclude("NotL", (x,)),)),  # X => ~~X
    "NotR-side": ("NotR", lambda x, y: (conclude("NotL", (conclude("WR", (x,), 0, Z),)),)),  # X => ~~X, Z
    "OrL-one": ("OrL", lambda x, y: (x, x)),  # X | X => X
    "OrL-side": ("OrL", lambda x, y: (conclude("WR", (x,), 1, Y), conclude("WR", (y,), 0, X))),  # X | Y => X, Y
    "OrR-one": ("OrR", lambda x, y: (conclude("WR", (x,), 1, Y),)),  # X => X | Y
    "OrR-side": ("OrR", lambda x, y: (conclude("WR", (conclude("WR", (x,), 0, Z),), 2, Y),)),  # X => X | Y, Z
}


def _case(name: str, calculus: str) -> Proof:
    rule, premises = CASES[name]
    return conclude(rule, premises(_box_id(calculus, "A"), _box_id(calculus, "B")))


@pytest.mark.parametrize("calculus", ["GE", "GM"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_rule_glue_realizes_in_both_modes(name, calculus):
    p = _case(name, calculus)
    if name.endswith("-one"):
        assert len(p.sequent.succ) == 1
    cs = CS_JE if calculus == "GE" else CS_JEM
    strict = realize(p, calculus, cs)
    verify_realization(strict)
    slim = realize(p, calculus, cs, "simplify")
    assert slim.mode == "simplify"
    verify_realization(slim)


@pytest.mark.parametrize("calculus", ["GE", "GM"])
@pytest.mark.parametrize("name", ["ImpR-one", "NotR-one", "AndR-one"])
def test_single_succedent_right_rules_build_no_classical_frame(monkeypatch, name, calculus):
    """A right rule whose succedent is its principal formula alone derives
    that formula directly: no proof by contradiction, no case split and no
    fold over the premise's succedent."""
    rule = CASES[name][0]
    inside = []

    def forbid(fn):
        def wrapped(*args, **kwargs):
            assert not inside, f"single-succedent {rule} called {fn.__name__}"
            return fn(*args, **kwargs)

        return wrapped

    for helper in ("by_contradiction", "_cases", "_fold"):
        monkeypatch.setattr(realization, helper, forbid(getattr(realization, helper)))
    original = realization._RULES[rule]
    calls = []

    def traced(engine, nid, node):
        inside.append(nid)
        try:
            return original(engine, nid, node)
        finally:
            inside.pop()
            calls.append(nid)

    monkeypatch.setitem(realization._RULES, rule, traced)
    cs = CS_JE if calculus == "GE" else CS_JEM
    verify_realization(realize(_case(name, calculus), calculus, cs))
    assert calls


@pytest.mark.parametrize("calculus", ["GE", "GM"])
@pytest.mark.parametrize("name", ["ImpR-side", "NotR-side"])
def test_side_formula_right_rules_split_cases_once(monkeypatch, name, calculus):
    """ImpR and NotR next to a side formula are one case split: one proof
    by contradiction per rule instance, and none outside it."""
    rule = CASES[name][0]
    counts = []
    original_bc = realization.by_contradiction

    def counted(*args, **kwargs):
        assert counts, "by_contradiction called outside " + rule
        counts[-1] += 1
        return original_bc(*args, **kwargs)

    monkeypatch.setattr(realization, "by_contradiction", counted)
    original = realization._RULES[rule]
    done = []

    def traced(engine, nid, node):
        counts.append(0)
        try:
            return original(engine, nid, node)
        finally:
            done.append(counts.pop())

    monkeypatch.setitem(realization._RULES, rule, traced)
    cs = CS_JE if calculus == "GE" else CS_JEM
    verify_realization(realize(_case(name, calculus), calculus, cs))
    assert done == [1]


@pytest.mark.parametrize("calculus", ["GE", "GM"])
def test_double_negation_root_stays_one_step(calculus):
    """``=> ~~A -> A`` (random proof 49) realizes as the one pl_dne
    instance: NotR's case split on ~A keeps pl_dne on the path the root's
    deduction transform lifts, so the builder finds the axiom."""
    p = random_sequent_theorem(random.Random(49), calculus, depth=5)
    assert str(p.sequent) == "=> ~~A -> A"
    cs = CS_JE if calculus == "GE" else CS_JEM
    r = realize(p, calculus, cs)
    verify_realization(r)
    assert len(r.derivation) == 1


def test_goldens_and_random_proofs_stay_within_their_step_total():
    """Strict steps summed over acceptance goldens 1-6 and random proofs
    0..49 in GE and GM stay at the 2094 that the case split and the fused
    routes give."""
    goldens = [
        ("=> []A -> ([]B -> []A)", "GE"),
        ("[][]A => [][]A", "GE"),
        ("=> [](A -> A) -> [](B -> B)", "GE"),
        ("=> [](A & B) -> ([]A & []B)", "GM"),
        ("=> ([]A | []B) -> [](A | B)", "GM"),
        ("=> []([]A & []B) -> ([][]A & [][]B)", "GM"),
    ]
    proofs = [(proof_of(text, calc), calc) for text, calc in goldens]
    for calc in ("GE", "GM"):
        proofs += [(random_sequent_theorem(random.Random(s), calc, depth=5), calc) for s in range(50)]
    total = sum(
        len(realize(p, calc, CS_JE if calc == "GE" else CS_JEM).derivation) for p, calc in proofs
    )
    assert total <= 2094, total


def test_left_rules_answer_premise_hypotheses_without_deduction_transform(monkeypatch):
    """AndL, and ImpL and NotL with an empty succedent, put the premise's
    hypotheses into the builder and embed the premise as it is."""
    calls = []
    original = realization.deduction_transform

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(realization, "deduction_transform", counted)
    for name in ("AndL-one", "AndL-side", "ImpL-empty", "NotL-empty"):
        for calculus, cs in (("GE", CS_JE), ("GM", CS_JEM)):
            # Only the modal rules at the leaves discharge: A or B.
            calls.clear()
            verify_realization(realize(_case(name, calculus), calculus, cs))
            assert all(f in (Atom("A"), Atom("B")) for f in calls), (name, calls)


def test_orr_on_the_last_position_is_the_premise_derivation():
    """``X => X | Y`` from ``X => X, Y``: d(X, Y) is X | Y, so the root's
    derivation is the premise's, which is pending until asked for."""
    p = _case("OrR-one", "GM")
    engine = realization._Engine(p, "GM", CS_JEM, "strict")
    engine.run()
    root = len(engine.shapes) - 1
    (child,) = engine.shapes[root].children
    assert child in engine.routes and child not in engine.derivs
    assert engine.derivs[root] == engine._derivation(child)


def test_conjunction_ladder_grows_by_a_constant_per_level():
    """``=> [](A1 & ... & An) -> []A1 & ... & []An`` in GM: AndR over a
    single succedent is one ``pl_and_intro``, so each level adds the same
    steps."""
    sizes = []
    for n in range(2, 7):
        atoms = [Atom(f"A{i}") for i in range(1, n + 1)]
        conj, boxes = atoms[0], Box(atoms[0])
        for a in atoms[1:]:
            conj, boxes = And(conj, a), And(boxes, Box(a))
        p = prove_bounded(Sequent((), (Implies(Box(conj), boxes),)), "GM", 4 * n)
        r = realize(p, "GM", CS_JEM)
        verify_realization(r)
        sizes.append(len(r.derivation))
    assert len({b - a for a, b in zip(sizes, sizes[1:])}) == 1, sizes


def _count_folds(monkeypatch) -> list:
    calls = []
    original = realization._fold

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(realization, "_fold", counted)
    return calls


@pytest.mark.parametrize("calculus", ["GE", "GM"])
def test_route_chain_under_impr_is_one_fold(monkeypatch, calculus):
    """``=> X -> X | Y, Z`` by ImpR over OrR over two WRs: the WRs and the
    OrR leave pending routes, and ImpR folds the chain once."""
    x = _box_id(calculus, "A")
    chain = conclude("WR", (conclude("WR", (x,), 0, Z),), 2, Y)
    p = conclude("ImpR", (conclude("OrR", (chain,), 1),))
    assert [p.rule, p.children[0].rule] == ["ImpR", "OrR"]
    assert str(p.sequent) == "=> []A -> []A | []B, []C"
    folds = _count_folds(monkeypatch)
    cs = CS_JE if calculus == "GE" else CS_JEM
    verify_realization(realize(p, calculus, cs))
    assert len(folds) == 1, folds


@pytest.mark.parametrize("calculus", ["GE", "GM"])
def test_materialized_chain_is_one_fold(monkeypatch, calculus):
    """A chain of WR, CR and OrR under the root is built once, as one fold
    from the modal leaf, and equals the chain routed at each step."""
    x = _box_id(calculus, "A")
    weakened = conclude("WR", (conclude("WR", (conclude("WR", (x,), 0, Y),), 0, Y),), 3, Z)  # X => Y, Y, X, Z
    p = conclude("OrR", (conclude("CR", (weakened,)),), 1)  # X => Y, X | Z
    assert [p.rule, p.children[0].rule] == ["OrR", "CR"]
    folds = _count_folds(monkeypatch)
    cs = CS_JE if calculus == "GE" else CS_JEM
    verify_realization(realize(p, calculus, cs))
    assert len(folds) == 1, folds


def _glue_sequent(k: int) -> Sequent:
    atoms = [Atom(f"A{i}") for i in range(1, k + 1)]
    left = right = None
    for a, b in zip(atoms, reversed(atoms)):
        left = a if left is None else Or(left, a)
        right = b if right is None else Or(right, b)
    return Sequent((), (Implies(left, right),))


def test_disjunction_permutation_glue_curve():
    """``=> (A1 | ... | Ak) -> (Ak | ... | A1)`` in GE: a chain of OrR and
    WR under each OrL leaf is one fold, so the derivation grows by a
    bounded number of steps per disjunct."""
    bounds = {5: 65, 7: 130, 9: 215}
    for k in range(3, 10):
        p = prove_bounded(_glue_sequent(k), "GE", 20)
        r = realize(p, "GE", CS_JE)
        verify_realization(r)
        assert len(r.derivation) <= bounds.get(k, len(r.derivation)), (k, len(r.derivation))


@pytest.mark.parametrize("mode", ["strict", "simplify"])
def test_pending_route_survives_a_later_resolution(mode):
    """AndR over two premises whose side formula ``[]A | C`` comes from OrR
    chains over two different RM instances of one family.  The family's
    sum, built before either chain, holds both instances' witnesses; both
    chains are folded with it, and the result verifies."""
    a, c, d, e = (Atom(n) for n in "ACDE")
    axiom = conclude("AxP", (), formula=a)
    x1 = conclude("WL", (conclude("RM", (axiom,)),), 1, Box(And(a, a)))  # []A, [](A & A) => []A
    x2 = conclude("WL", (conclude("RM", (conclude("AndL", (conclude("WL", (axiom,), 1, a),)),)),), 0, Box(a))  # likewise

    def side(q, last):
        return conclude("OrR", (conclude("WR", (conclude("WR", (q,), 0, last),), 2, c),))  # ... => []A | C, last

    p = conclude("AndR", (side(x1, d), side(x2, e)), 1)
    assert str(p.sequent) == "[]A, [](A & A) => []A | C, D & E"
    r = realize(p, "GM", CS_JEM, mode=mode)
    verify_realization(r)
    assert print_formula(r.realized) == (
        "[x0]A -> [x1](A & A) -> [m(c_pl_s * c_pl_k * c_pl_k, x0) + m(c_pl_and_elim_l, x1)]A | C | D & E"
    )
