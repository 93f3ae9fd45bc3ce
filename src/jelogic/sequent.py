"""Cut-free sequent calculi GE and GM over the modal dialect, plus the
families of box occurrences that realization needs.

Sequents are pairs of formula tuples; the stored order fixes occurrence
identity, while the logic itself treats both sides as multisets (explicit
weakening and contraction rules are part of the calculi).  Both calculi share
the axioms ``P => P`` (atomic) and ``_|_ =>``, the two-sided rules for
``->``, ``&``, ``|``, ``~`` and the four structural rules.  They differ in the
modal rule, which carries no side context:

* GE:  from ``A => B`` and ``B => A`` infer ``[]A => []B``;
* GM:  from ``A => B`` infer ``[]A => []B``.

Every rule has one fixed premise layout, so a rule instance is determined
by its conclusion and principal occurrence.  The ten rules with one
principal formula have theirs in one table, ``LAYOUTS`` (printed in
docs/formats.md): ``premises_of`` reads it backwards, from a conclusion to
its premises, and ``conclude`` forwards, building a node from its premises.
Every box occurrence of a premise is one of its conclusion's, moved where
the rule moves it, so each box occurrence of a proof, read as a tree,
corresponds to exactly one of the root sequent's, and
``compute_families`` takes those as the families.  It annotates the root
sequent once, each box with a variable naming its family, and reads the
annotated premises of every node off ``premises_of``.  So it reads the proof
as shapes, each distinct subproof with its annotated sequent, marks the
families the modal rules introduce, and (for GE) groups families introduced
by a shared rule instance into equivalence classes.
``prove_bounded`` is a deterministic backward search that decomposes
propositional structure eagerly (those rules are invertible), then tries
every antecedent/succedent box pair at the modal transition, inserting the
weakening steps explicitly, by ``conclude``, so its output always passes
``check_sequent_proof``.  Every rule it applies makes the sequent smaller,
so it decides within its nesting limit, and it searches a subgoal once.
Proofs are hash-consed like terms and formulas, so equal subproofs are one
object, whoever built them.
"""

from __future__ import annotations

from operator import attrgetter

from .syntax import (
    And,
    Atom,
    BOT,
    Bottom,
    Box,
    Dialect,
    Formula,
    Implies,
    Not,
    Or,
    _FrozenRecord,
    _HashConsed,
    _Record,
    JustOf,
    JustVar,
    Substitution,
    _Substituter,
    _set,
    check_dialect,
    formula_children,
    occurrences,
    parse_sequent as _parse_sides,
    postorder,
    print_sequent as _print_sides,
)


class SequentProofError(Exception):
    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


class Sequent(_FrozenRecord):
    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]

    # The search builds a sequent per premise and ``check_sequent_proof``
    # compares one.  Spelled out, the initializer costs half of the shared
    # one, and == and hash half of what the shared ones over ``_key`` do.
    def __init__(self, ante, succ):
        _set(self, "ante", ante)
        _set(self, "succ", succ)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ante, self.succ) == (other.ante, other.succ)
        return NotImplemented

    def __hash__(self):
        return hash((self.ante, self.succ))

    def __str__(self):
        return _print_sides(self.ante, self.succ)


def parse_sequent_line(text: str) -> Sequent:
    ante, succ = _parse_sides(text, Dialect.MODAL)
    return Sequent(ante, succ)


class Proof(_HashConsed):
    """One node of a sequent proof: the sequent it concludes, the rule, the
    principal occurrence(s) in the conclusion, and the premise subproofs.
    Proofs are hash-consed like terms and formulas: equal subproofs are one
    object, however they were built, so a proof is a DAG, and ``==`` and
    ``hash`` are by identity.  As a tree it repeats each shared subproof
    once per parent."""

    sequent: Sequent
    rule: str
    principal: tuple[tuple[str, int], ...]
    children: tuple["Proof", ...]


def proof_size(p: Proof) -> tuple[int, int]:
    """The number of nodes of ``p`` as a tree, and the number of distinct
    ``Proof`` objects in it, counted without expanding shared subproofs."""
    size: dict[Proof, int] = {}
    for q in postorder(p, kids=lambda q: q.children):
        size[q] = 1 + sum(size[c] for c in q.children)
    return size[p], len(size)


RULES = (
    "AxP", "AxBot",
    "ImpL", "ImpR", "AndL", "AndR", "OrL", "OrR", "NotL", "NotR",
    "WL", "WR", "CL", "CR",
    "RE", "RM",
)

_CALCULUS_RULES = {
    "GE": frozenset(RULES) - {"RM"},
    "GM": frozenset(RULES) - {"RE"},
}


def _slots(premise: str) -> tuple[slice, slice]:
    """The slices of the principal's children that a premise puts at the
    front and at the end: ``"A, B =>"`` is ``(slice(0, 2), slice(0, 0))``."""
    out = []
    for names in premise.split("=>"):
        names = names.replace(",", " ").split()
        start = "AB".index(names[0]) if names else 0
        out.append(slice(start, start + len(names)))
    return tuple(out)


# The rules with one principal formula, the table of docs/formats.md as data:
# the principal's side and connective (none for a weakening, whose principal
# may be any formula), and per premise, which of the principal's children A
# and B go to the front of the antecedent and which to the end of the
# succedent, once the principal has left its side.  Read premise by premise,
# front before end, the children come in order, A before B.  The axioms, CL,
# CR, RE and RM are cases of their own.
LAYOUTS = {
    rule: (side, connective, tuple(_slots(premise) for premise in premises))
    for rule, side, connective, *premises in (
        ("ImpL", "L", Implies, "=> A", "B =>"),
        ("ImpR", "R", Implies, "A => B"),
        ("AndL", "L", And, "A, B =>"),
        ("AndR", "R", And, "=> A", "=> B"),
        ("OrL", "L", Or, "A =>", "B =>"),
        ("OrR", "R", Or, "=> A, B"),
        ("NotL", "L", Not, "=> A"),
        ("NotR", "R", Not, "A =>"),
        ("WL", "L", None, "=>"),
        ("WR", "R", None, "=>"),
    )
}

_ARTICLED = {Implies: "an implication", And: "a conjunction", Or: "a disjunction", Not: "a negation"}


def _single(principal, side: str, s: Sequent):
    if len(principal) != 1 or principal[0][0] != side:
        raise SequentProofError("bad-rule", f"principal {principal} not a single {side} occurrence")
    k = principal[0][1]
    seq_side = s.ante if side == "L" else s.succ
    if not (0 <= k < len(seq_side)):
        raise SequentProofError("bad-rule", f"principal index {k} out of range")
    return k, seq_side[k]


# RE and RM take an annotated box ``[t]A`` as principal too, so that
# ``premises_of`` of an annotated sequent is its annotated premises (see
# ``compute_families``).  ``check_sequent_proof`` admits only modal formulas
# at the root, so no checked proof holds one.
_BOXES = (Box, JustOf)


def premises_of(rule: str, principal, s: Sequent) -> tuple[Sequent, ...]:
    """The premise sequents a rule instance must have, in fixed layout: for
    a rule of ``LAYOUTS``, read off the table."""
    ante, succ = s.ante, s.succ
    layout = LAYOUTS.get(rule)
    if layout is not None:
        side, connective, premises = layout
        k, f = _single(principal, side, s)
        if connective is None:
            kids = ()
        elif isinstance(f, connective):
            kids = f._children(f)
        else:
            raise SequentProofError("bad-rule", f"{rule} principal is not {_ARTICLED[connective]}")
        if side == "L":
            ante = ante[:k] + ante[k + 1:]
        else:
            succ = succ[:k] + succ[k + 1:]
        if len(premises) == 1:  # unrolled: this is the search's inner loop
            ((front, end),) = premises
            return (Sequent(kids[front] + ante, succ + kids[end]),)
        (front, end), (front2, end2) = premises
        return Sequent(kids[front] + ante, succ + kids[end]), Sequent(kids[front2] + ante, succ + kids[end2])
    match rule:
        case "AxP":
            if principal != (("L", 0), ("R", 0)):
                raise SequentProofError("bad-rule", "AxP principal must be L0 R0")
            if not (len(ante) == 1 and ante == succ and isinstance(ante[0], Atom)):
                raise SequentProofError("bad-rule", f"not an atomic axiom: {s}")
            return ()
        case "AxBot":
            if principal != (("L", 0),):
                raise SequentProofError("bad-rule", "AxBot principal must be L0")
            if not (ante == (BOT,) and succ == ()):
                raise SequentProofError("bad-rule", f"not a falsum axiom: {s}")
            return ()
        case "CL":
            k, f = _single(principal, "L", s)
            return (Sequent(ante[:k] + (f, f) + ante[k + 1:], succ),)
        case "CR":
            k, f = _single(principal, "R", s)
            return (Sequent(ante, succ[:k] + (f, f) + succ[k + 1:]),)
        case "RE" | "RM":
            if principal != (("L", 0), ("R", 0)):
                raise SequentProofError("bad-rule", f"{rule} principal must be both boxes")
            if len(ante) != 1 or len(succ) != 1 or not isinstance(ante[0], _BOXES) or not isinstance(succ[0], _BOXES):
                raise SequentProofError("bad-rule", f"{rule} needs exactly []A => []B, got {s}")
            a, b = ante[0].body, succ[0].body
            if rule == "RE":
                return (Sequent((a,), (b,)), Sequent((b,), (a,)))
            return (Sequent((a,), (b,)),)
    raise SequentProofError("bad-rule", f"unknown rule {rule!r}")


def _layout_conclusion(layout, given: tuple[Sequent, ...], k: int, formula):
    """The principal and conclusion read forwards off the premise sequents
    ``given``; None unless they hold the principal's children, share one
    context, and ``k`` is a position of the conclusion's side."""
    side, connective, premises = layout
    if len(given) != len(premises):
        return None
    kids: tuple = ()
    context = None
    for q, (front, end) in zip(given, premises):
        lead, cut = front.stop - front.start, len(q.succ) - end.stop + end.start
        if cut < 0 or len(q.ante) < lead:
            return None
        rest = q.ante[lead:], q.succ[:cut]
        if context not in (None, rest):
            return None
        context = ante, succ = rest
        kids += q.ante[:lead] + q.succ[cut:]
    f = formula if connective is None else connective(*kids)
    if f is None or not 0 <= k <= len(ante if side == "L" else succ):
        return None
    if side == "L":
        return (("L", k),), Sequent(ante[:k] + (f,) + ante[k:], succ)
    return (("R", k),), Sequent(ante, succ[:k] + (f,) + succ[k:])


def _case_conclusion(rule: str, given: tuple[Sequent, ...], k: int, formula):
    """As ``_layout_conclusion``, for the axioms, CL, CR, RE and RM; None
    unless ``premises_of`` of the conclusion gives ``given`` back."""
    q = given[0] if given else None
    if rule == "AxP" and formula is not None and not given:
        read = (("L", 0), ("R", 0)), Sequent((formula,), (formula,))
    elif rule == "AxBot" and not given:
        read = (("L", 0),), Sequent((BOT,), ())
    elif rule == "CL" and len(given) == 1:
        read = (("L", k),), Sequent(q.ante[:k + 1] + q.ante[k + 2:], q.succ)
    elif rule == "CR" and len(given) == 1:
        read = (("R", k),), Sequent(q.ante, q.succ[:k + 1] + q.succ[k + 2:])
    elif rule in ("RE", "RM") and q is not None and len(q.ante) == len(q.succ) == 1:
        read = (("L", 0), ("R", 0)), Sequent((Box(q.ante[0]),), (Box(q.succ[0]),))
    else:
        return None
    return read if premises_of(rule, *read) == given else None


_SEQUENT = attrgetter("sequent")


def conclude(rule: str, premises, k: int = 0, formula: Formula | None = None) -> Proof:
    """The node of ``rule`` over the proofs ``premises``, its conclusion
    built forwards from theirs: the inverse of ``premises_of``.  ``k`` is
    the principal's index on its side, and ``formula`` the atom of AxP or
    the formula WL and WR add.  Raises ``SequentProofError`` when the
    premises do not fit the rule."""
    premises = tuple(premises)
    given = tuple(map(_SEQUENT, premises))
    layout = LAYOUTS.get(rule)
    if layout is not None:
        read = _layout_conclusion(layout, given, k, formula)
    else:
        read = _case_conclusion(rule, given, k, formula)
    if read is None:
        shown = "; ".join(map(str, given)) or "no premises"
        raise SequentProofError(
            "premise-mismatch" if rule in RULES else "bad-rule",
            f"{rule} with k = {k} and formula {formula} does not conclude from {shown}",
        )
    return Proof(read[1], rule, read[0], premises)


def check_sequent_proof(p: Proof, calculus: str) -> Sequent:
    """Validate the whole proof against the stated calculus; returns the root
    sequent (the proved one).  A subproof shared by several parents is one
    object, and it is checked once.  Only the root's formulas are checked
    against the modal dialect: every other node's sequent must equal a
    premise that ``premises_of`` built from its parent's, so its formulas
    are subformulas of the root's."""
    if calculus not in _CALCULUS_RULES:
        raise SequentProofError("bad-rule", f"unknown calculus {calculus!r}")
    allowed = _CALCULUS_RULES[calculus]

    def checked_premises(node: Proof) -> tuple[Proof, ...]:
        if node.rule not in allowed:
            kind = "wrong-calculus" if node.rule in RULES else "bad-rule"
            raise SequentProofError(kind, f"rule {node.rule} not part of {calculus}")
        if node is p:
            dialect_seen: set = set()
            for f in node.sequent.ante + node.sequent.succ:
                check_dialect(f, Dialect.MODAL, Formula, dialect_seen)
        prems = premises_of(node.rule, node.principal, node.sequent)
        if len(prems) != len(node.children):
            raise SequentProofError("premise-mismatch", f"{node.rule} expects {len(prems)} premises")
        for child, expected in zip(node.children, prems):
            if child.sequent != expected:
                raise SequentProofError(
                    "premise-mismatch",
                    f"{node.rule} premise should be {expected}, found {child.sequent}",
                )
        return node.children

    postorder(p, kids=checked_premises)
    return p.sequent


# ---------------------------------------------------------------------------
# Backward search


def _dedup(fs: tuple[Formula, ...]) -> tuple[Formula, ...]:
    seen: list[Formula] = []
    for f in fs:
        if f not in seen:
            seen.append(f)
    return tuple(seen)


def _canonical(s: Sequent) -> Sequent:
    """``s`` with repeated formulas dropped, first occurrences kept in order;
    ``s`` itself when it repeats none, the usual case."""
    if len(set(s.ante)) == len(s.ante) and len(set(s.succ)) == len(s.succ):
        return s
    return Sequent(_dedup(s.ante), _dedup(s.succ))


def _inserts(src: tuple, dst: tuple) -> list[tuple[int, Formula]]:
    out = []
    j = 0
    for i, f in enumerate(dst):
        if j < len(src) and src[j] == f:
            j += 1
        else:
            out.append((i, f))
    if j != len(src):
        raise ValueError(f"{src} is not a subsequence of {dst}")
    return out


def _bridge(proof: Proof, target: Sequent) -> Proof:
    """Stack weakening nodes on top of ``proof`` until it concludes ``target``
    (whose sides must contain the proved sides as subsequences)."""
    if proof.sequent == target:  # the usual case: nothing to weaken
        return proof
    cur = proof
    for pos, f in _inserts(proof.sequent.ante, target.ante):
        cur = conclude("WL", (cur,), pos, f)
    for pos, f in _inserts(proof.sequent.succ, target.succ):
        cur = conclude("WR", (cur,), pos, f)
    return cur


# The search decomposes a formula by the rule of its side and connective, and
# looks one step ahead through the rules with one premise for a premise that
# an axiom closes.
_DECOMP = {
    side: {connective: rule for rule, (s, connective, _) in LAYOUTS.items() if s == side and connective}
    for side in "LR"
}
_SINGLE_PREMISE = frozenset(rule for rule, (_, connective, ps) in LAYOUTS.items() if connective and len(ps) == 1)


# The search recurses two Python frames per rule application (``_search``
# and ``_expand``): this many keeps it well inside Python's default 1000.
SEARCH_DEPTH_LIMIT = 400


class SearchLimitExceeded(ValueError):
    """The search would nest more rule applications than ``prove_bounded``'s
    ``depth`` or ``SEARCH_DEPTH_LIMIT``, whichever is less."""


def _axiom_leaf(c: Sequent) -> Proof | None:
    """The axiom that closes ``c`` under weakenings, if one does: ``_|_ =>``
    for a falsum in the antecedent, else ``P => P`` for the first
    antecedent atom that is also a succedent formula."""
    for f in c.ante:
        if isinstance(f, Bottom):
            return conclude("AxBot", ())
        if isinstance(f, Atom) and f in c.succ:
            return conclude("AxP", (), formula=f)
    return None


def _search(c: Sequent, calculus: str, limit: int, memo: dict, leaf=...) -> Proof | None:
    """A proof of the canonical sequent ``c``, or None when it has none;
    ``memo`` keeps each answer under the sequent's sides.  ``leaf`` is
    ``_axiom_leaf``'s answer for ``c`` when the caller asked it already.
    ``limit`` more rule applications may nest above ``c``: at 0, a ``c``
    that no axiom closes raises ``SearchLimitExceeded``."""
    key = c.ante, c.succ
    proof = memo.get(key, ...)
    if proof is not ...:
        return proof
    if leaf is ...:
        leaf = _axiom_leaf(c)
    if leaf is not None:
        proof = _bridge(leaf, c)
    elif limit <= 0:
        raise SearchLimitExceeded
    else:
        proof = _expand(c, calculus, limit - 1, memo)
    memo[key] = proof
    return proof


def _expand(c: Sequent, calculus: str, limit: int, memo: dict) -> Proof | None:
    """One rule application below ``c``, which no axiom closes, and the
    search of its premises under ``limit``."""
    chosen = None
    for side, formulas in (("L", c.ante), ("R", c.succ)):
        rules = _DECOMP[side]
        for k, f in enumerate(formulas):
            rule = rules.get(type(f))
            if rule is None or (chosen is not None and rule not in _SINGLE_PREMISE):
                continue
            principal = ((side, k),)
            premises = premises_of(rule, principal, c)
            if chosen is None:
                chosen = rule, principal, premises
            if rule in _SINGLE_PREMISE:
                (premise,) = premises
                leaf = _axiom_leaf(premise)
                if leaf is not None:
                    closed = _search(_canonical(premise), calculus, limit, memo, leaf)
                    return Proof(c, rule, principal, (_bridge(closed, premise),))
    if chosen is not None:
        rule, principal, premises = chosen
        leaf = None if rule in _SINGLE_PREMISE else ...  # the look-ahead asked about its premise
        children = []
        for premise in premises:
            sub = _search(_canonical(premise), calculus, limit, memo, leaf)
            if sub is None:
                return None  # propositional rules are invertible: no backtracking
            children.append(_bridge(sub, premise))
        return Proof(c, rule, principal, tuple(children))
    rule = "RE" if calculus == "GE" else "RM"
    for fa in c.ante:
        if not isinstance(fa, Box):
            continue
        for fb in c.succ:
            if not isinstance(fb, Box):
                continue
            children = []
            for premise in premises_of(rule, (("L", 0), ("R", 0)), Sequent((fa,), (fb,))):
                sub = _search(_canonical(premise), calculus, limit, memo)
                if sub is None:
                    break
                children.append(_bridge(sub, premise))
            else:
                return _bridge(conclude(rule, children), c)
    return None


def prove_bounded(s: Sequent, calculus: str, depth: int) -> Proof | None:
    """Deterministic backward proof search: a proof of ``s`` that passes
    ``check_sequent_proof``, or None when ``s`` has no proof in the
    calculus.  The search nests at most ``depth`` rule applications, or
    ``SEARCH_DEPTH_LIMIT`` if that is less (weakening and contraction
    bookkeeping is not counted); a branch that would nest more raises
    ``SearchLimitExceeded``, whose message names the limit in force.

    Each step closes the sequent by an axiom if one applies.  Otherwise it
    decomposes one propositional formula: a one-premise rule (ImpR, AndL,
    OrR, NotL, NotR) whose premise an axiom closes at once, else the first
    decomposable formula, antecedent before succedent, left to right.  The
    propositional rules are invertible, so the choice decides only the
    proof's size, and the search never backtracks over it.  A sequent with
    nothing to decompose tries the modal rule on each antecedent/succedent
    box pair in turn.  Every rule makes the canonical sequent (repeated
    formulas dropped) smaller, so the search ends, and None is a decided
    answer.  The proof found is not the smallest one.

    Within one call, a canonical subgoal is searched once: a repeated one
    reuses its first answer, and the memo is dropped when the call returns.
    Proofs are hash-consed, so the result is a DAG whose equal subproofs are
    one ``Proof`` object: the GE ladder ``[]^n A => []^n A`` has 2^(n+1) - 1
    tree nodes but n + 1 distinct ones."""
    if calculus not in _CALCULUS_RULES:
        raise SequentProofError("bad-rule", f"unknown calculus {calculus!r}")
    if depth <= 0:
        raise ValueError("depth must be positive")
    seen: set = set()
    for f in s.ante + s.succ:
        check_dialect(f, Dialect.MODAL, Formula, seen)
    try:
        sub = _search(_canonical(s), calculus, min(depth, SEARCH_DEPTH_LIMIT), {})
    except SearchLimitExceeded:
        named = f"depth = {depth}" if depth < SEARCH_DEPTH_LIMIT else f"SEARCH_DEPTH_LIMIT = {SEARCH_DEPTH_LIMIT}"
        raise SearchLimitExceeded(f"search deeper than {named} nested rule applications") from None
    return None if sub is None else _bridge(sub, s)


# ---------------------------------------------------------------------------
# Families of box occurrences
#
# No rule makes a box: each premise formula ``premises_of`` gives is a side
# formula of the conclusion, a child of its principal formula or (CL, CR)
# the principal itself.  So, read as a tree, a proof joins each box
# occurrence to exactly one box occurrence of the root sequent, and the
# families are the root's box occurrences.  ``compute_families`` annotates the
# root sequent once, each box ``[]B`` as ``[x_f]B`` with the variable of its
# family f, and ``premises_of`` of an annotated sequent is the annotated
# premises: each box carries the variable of the root box it corresponds to.
# A node seen again with the same annotated sequent is a subtree seen before,
# so the walk goes over each such pair once.


def _annotated(s: Sequent) -> tuple[Sequent, list[tuple[tuple, bool]]]:
    """``s`` with its f-th box occurrence ``[]B`` as ``[x_f]B``, counting the
    antecedent before the succedent and each formula's boxes in preorder,
    and each box occurrence ``(side, index, path)`` with whether it is
    positive in the sequent."""
    boxes: list[tuple[tuple, bool]] = []
    sides = []
    for side, formulas in (("L", s.ante), ("R", s.succ)):
        annotated = []
        for i, f in enumerate(formulas):
            walk = list(occurrences(f))
            boxes += [((side, i, path), positive == (side == "R")) for path, node, positive in walk if isinstance(node, Box)]
            # Reversed, the preorder walk reaches each node after its
            # children, the leftmost last, so they lie on top of ``built``.
            family, built = len(boxes), []
            for _, node, _ in reversed(walk):
                kids = [built.pop() for _ in formula_children(node)]
                if isinstance(node, Box):
                    family -= 1
                    node = JustOf(JustVar(family), *kids)
                elif kids:
                    node = type(node)(*kids)
                built.append(node)
            annotated += built
        sides.append(tuple(annotated))
    return Sequent(*sides), boxes


class Shape(_FrozenRecord):
    """A proof node read with its box occurrences annotated: the ``Proof``
    object and its sequent with each box ``[]B`` as ``[x_f]B``, f the box's
    family (in GE, the first family of its class).  Tree nodes with one
    shape have equally annotated subtrees."""

    proof: Proof
    sequent: Sequent
    children: tuple[int, ...]    # positions of the premises' shapes


def _shapes(p: Proof, annotated: Sequent) -> list[Shape]:
    """The shapes of ``p`` with ``annotated`` as its sequent, in the order a
    postorder walk of the tree first reaches them."""
    premises: dict[tuple, tuple] = {}  # each pair's annotated premises, built once

    def annotated_premises(key):
        node, s = key
        try:
            given = premises_of(node.rule, node.principal, s)
        except SequentProofError:
            given = None
        if given is None or len(given) != len(node.children):
            raise SequentProofError("unchecked", f"{node.rule} at {node.sequent} is not a valid instance")
        premises[key] = tuple(zip(node.children, given))
        return premises[key]

    position: dict[tuple, int] = {}
    shapes: list[Shape] = []
    for key in postorder((p, annotated), kids=annotated_premises):
        position[key] = len(shapes)
        shapes.append(Shape(*key, tuple(position[kid] for kid in premises[key])))
    return shapes


class Family(_FrozenRecord):
    occurrence: tuple[str, int, tuple[int, ...]]   # the root's box occurrence (side, index, path)
    essential: bool
    instances: tuple[int, ...]   # positions in FamilyAnalysis.shapes of the modal rules introducing into it
    polarity: str                # "positive" or "negative"


class EquivClass(_FrozenRecord):
    families: tuple[int, ...]    # indices into FamilyAnalysis.families
    instances: tuple[int, ...]   # positions in FamilyAnalysis.shapes of the RE rules of the class


class FamilyAnalysis(_Record):
    shapes: list[Shape]               # each after its premises; the root's is last
    families: tuple[Family, ...]
    classes: tuple[EquivClass, ...]   # nonempty only when RE occurs
    modal_rule: str | None            # "RE", "RM" or None


def compute_families(p: Proof) -> FamilyAnalysis:
    """The families of the proof's box occurrences, one per box occurrence
    of the root sequent, the antecedent before the succedent and each
    formula's boxes in preorder, classified for realization, and the
    proof's shapes.  A shape annotates each box with its family's variable;
    in GE, a family of an equivalence class takes the class's first
    family's instead, so that the instances of a class that prove one
    subproof are one shape.  The proof must be structurally valid (the same
    premise layouts ``check_sequent_proof`` enforces)."""
    annotated, boxes = _annotated(p.sequent)
    shapes = _shapes(p, annotated)
    rules_used = {s.proof.rule for s in shapes}
    if "RE" in rules_used and "RM" in rules_used:
        raise SequentProofError("wrong-calculus", "proof mixes RE and RM")
    modal_rule = "RE" if "RE" in rules_used else ("RM" if "RM" in rules_used else None)

    # The shapes of the modal rules introducing into each family: in GM
    # those of its right box, in GE those of either box.
    intro: list[list[int]] = [[] for _ in boxes]
    pairs = []   # the families of the two boxes of each RE shape
    for k, s in enumerate(shapes):
        if s.proof.rule in ("RE", "RM"):
            left, right = s.sequent.ante[0].term.index, s.sequent.succ[0].term.index
            intro[right].append(k)
            if s.proof.rule == "RE":
                intro[left].append(k)
                pairs.append((left, right))

    at = list(range(len(shapes)))   # each shape's position among the merged
    classes: list[list[int]] = []
    if modal_rule == "RE":
        # The classes: the families the pairs link, directly or not.
        linked: dict[int, list[int]] = {}
        for left, right in pairs:
            linked.setdefault(left, []).append(right)
            linked.setdefault(right, []).append(left)
        first: dict[int, JustVar] = {}
        for f in sorted(linked):
            if f not in first:  # not in a class yet, so the least of its own
                classes.append(sorted(postorder(f, kids=linked.__getitem__)))
                first.update((g, JustVar(f)) for g in classes[-1])
        # The shapes under class variables are the shapes above with each
        # family's variable replaced by its class's first, those that become
        # equal merged.  A postorder walk of the tree reaches a merged shape
        # first where it first reaches any of its members, so the order is
        # theirs.
        merge = _Substituter(Substitution(just_vars=first))
        position, merged = {}, []
        for k, s in enumerate(shapes):
            key = s.proof, Sequent(tuple(map(merge, s.sequent.ante)), tuple(map(merge, s.sequent.succ)))
            if key not in position:
                position[key] = len(merged)
                merged.append(Shape(*key, tuple(at[c] for c in s.children)))
            at[k] = position[key]
        shapes = merged

    families = tuple(
        Family(occurrence, bool(intro[f]), tuple(sorted({at[k] for k in intro[f]})), "positive" if positive else "negative")
        for f, (occurrence, positive) in enumerate(boxes)
    )
    return FamilyAnalysis(
        shapes,
        families,
        tuple(EquivClass(tuple(fams), tuple(sorted({k for f in fams for k in families[f].instances}))) for fams in classes),
        modal_rule,
    )
