"""Shared test utilities: proof search shortcuts, a tree-expanding family
analysis over occurrence paths to test ``compute_families`` against, a
recursive printer to test ``print_formula`` and ``print_term`` against, and
shape matching with named holes for internalized witness terms."""

from __future__ import annotations

from jelogic import (
    Dialect,
    Sequent,
    cs_total,
    parse_formula,
    parse_sequent_line,
    prove_bounded,
    realize,
)
from jelogic.hilbert import Derivation, MPStep
from jelogic.sequent import premises_of
from jelogic.syntax import (
    Apply,
    And,
    Atom,
    Bang,
    Bottom,
    Box,
    Evidence,
    Formula,
    Implies,
    JustOf,
    JustSum,
    JustVar,
    MApply,
    Not,
    Or,
    ProofConst,
    ProofOf,
    ProofVar,
    Sum,
    Term,
    formula_children,
    occurrences,
)

CS_JE = cs_total(Dialect.JE)
CS_JEM = cs_total(Dialect.JEM)


def fragment_formulas() -> list[Formula]:
    """The criterion-6 fragment: formulas over A and B built with ~, [] and
    the binary connectives, up to three levels of construction."""
    a, b = Atom("A"), Atom("B")
    levels = [[a, b]]
    for n in range(1, 4):
        new = [Not(f) for f in levels[n - 1]] + [Box(f) for f in levels[n - 1]]
        for i in range(n):
            for left in levels[i]:
                for right in levels[n - 1 - i]:
                    new += [Implies(left, right), And(left, right), Or(left, right)]
        levels.append(new)
    return [f for level in levels for f in level]


def proof_of(text: str, calculus: str, depth: int = 10):
    if "=>" in text:
        s = parse_sequent_line(text)
    else:
        s = Sequent((), (parse_formula(text, Dialect.MODAL),))
    p = prove_bounded(s, calculus, depth)
    assert p is not None, f"no {calculus} proof of {text}"
    return p


def realize_text(text: str, calculus: str, depth: int = 10):
    cs = CS_JE if calculus == "GE" else CS_JEM
    return realize(proof_of(text, calculus, depth), calculus, cs)


def replaced_step(d: Derivation, i: int, step) -> Derivation:
    """``d`` with step ``i`` replaced by ``step``, and every modus ponens
    above it rebuilt over the replacement."""
    steps = d.steps
    new = {steps[i]: step}
    for s in steps[i + 1:]:
        if isinstance(s, MPStep):
            new[s] = MPStep(new.get(s.major, s.major), new.get(s.minor, s.minor))
    return Derivation(d.dialect, tuple(new.get(s, s) for s in d.roots))


def deep_proof_text(levels: int = 1500) -> str:
    """A GE proof file of ``B, A => A`` nested ``levels`` + 2 deep: CL and WL
    alternate down to one WL over ``A => A``."""
    lines = ["# jelogic sequent-proof v1", "calculus GE"]
    for level in range(levels):
        lines.append("  " * level + ("CL L0 | B, A => A" if level % 2 == 0 else "WL L0 | B, B, A => A"))
    lines += ["  " * levels + "WL L0 | B, A => A", "  " * (levels + 1) + "AxP L0 R0 | A => A"]
    return "\n".join(lines) + "\n"


def subformula_at(f: Formula, path: tuple[int, ...]) -> Formula:
    """The subformula of ``f`` at ``path``, formula-child indices from ``f``."""
    for step in path:
        f = formula_children(f)[step]
    return f


def sequent_boxes(s: Sequent) -> list[tuple]:
    """The box occurrences ``(side, index, path)`` of ``s``: the antecedent
    before the succedent, each formula's boxes in preorder."""
    return [
        (side, i, path)
        for side, formulas in (("L", s.ante), ("R", s.succ))
        for i, f in enumerate(formulas)
        for path, node, _ in occurrences(f)
        if isinstance(node, Box)
    ]


def shape_labels(s: Sequent) -> tuple[int, ...]:
    """The family variables of an annotated sequent, one per box occurrence
    in ``sequent_boxes`` order."""
    return tuple(
        node.term.index
        for f in s.ante + s.succ
        for _, node, _ in occurrences(f)
        if isinstance(node, JustOf)
    )


def correspondences(rule: str, principal, s: Sequent) -> tuple[dict, ...]:
    """Per premise, a total map from premise occurrences ``(side, i)`` to
    ``((side, j), path)``: the conclusion occurrence the premise formula lives
    in and the path to it inside that formula.

    The maps are read off ``premises_of``, applied once to a labelled copy of
    ``s``.  In the copy, the formula at a non-principal occurrence ``(side, j)``
    is an atom naming that occurrence, and a principal formula keeps its
    connective over atoms naming its children (one without children stays as
    it is).  Every premise formula then comes out as one of these names, put
    where the rule puts the formula, and one lookup gives its ``((side, j),
    path)``.  This relies on ``premises_of`` looking only at the principal
    formulas and at the lengths of the two sides.  The names start with
    ``#``, which no parsed atom does, so no atom of ``s`` passes for one."""
    where = {}
    sides = []
    for side, formulas in (("L", s.ante), ("R", s.succ)):
        labelled = []
        for j, f in enumerate(formulas):
            if (side, j) in principal:
                kids = tuple(Atom(f"#{side}{j}.{c}") for c in range(len(formula_children(f))))
                where.update((kid, ((side, j), (c,))) for c, kid in enumerate(kids))
                f = type(f)(*kids) if kids else f
            else:
                f = Atom(f"#{side}{j}")
            where[f] = ((side, j), ())
            labelled.append(f)
        sides.append(tuple(labelled))
    return tuple(
        {(side, i): where[f] for side, fs in (("L", p.ante), ("R", p.succ)) for i, f in enumerate(fs)}
        for p in premises_of(rule, principal, Sequent(*sides))
    )


def tree_families(p) -> tuple[list, list, dict]:
    """The family analysis of ``p`` expanded into its tree, as a reference:
    a union-find over every box occurrence of every tree node, each joined to
    the conclusion occurrence it corresponds to.  Returns the tree's nodes in
    preorder, each ``(proof, preorder ids of its premises)``; the families,
    each the list of its tokens ``(node id, side, index, path)``, ordered by
    their least token; and the family of each token."""
    nodes: list = []

    def expand(q) -> int:
        nid = len(nodes)
        nodes.append(None)
        nodes[nid] = (q, tuple(expand(c) for c in q.children))
        return nid

    expand(p)
    parent: dict = {}

    def find(t):
        while parent.setdefault(t, t) != t:
            t = parent[t]
        return t

    for nid, (q, kids) in enumerate(nodes):
        for cmap, cid in zip(correspondences(q.rule, q.principal, q.sequent), kids):
            for side, i, path in sequent_boxes(nodes[cid][0].sequent):
                (side2, j), prefix = cmap[side, i]
                parent[find((cid, side, i, path))] = find((nid, side2, j, prefix + path))
    groups: dict = {}
    for nid, (q, _) in enumerate(nodes):
        for occurrence in sequent_boxes(q.sequent):
            token = (nid, *occurrence)
            groups.setdefault(find(token), []).append(token)
    families = sorted(groups.values(), key=min)
    return nodes, families, {t: f for f, tokens in enumerate(families) for t in tokens}


def reference_print(node, prec: int = 0) -> str:
    """The text of a term or formula, printed recursively down the tree: a
    shared node is printed again at every occurrence.  ``prec`` is how
    tightly the place of ``node`` needs it to bind."""
    match node:
        case Atom(name) | ProofConst(name):
            return name
        case Bottom():
            return "_|_"
        case ProofVar(i):
            return f"p{i}"
        case JustVar(i):
            return f"x{i}"
        case Implies(l, r):
            s = f"{reference_print(l, 2)} -> {reference_print(r, 1)}"
            return f"({s})" if prec > 1 else s
        case Or(l, r):
            s = f"{reference_print(l, 2)} | {reference_print(r, 3)}"
            return f"({s})" if prec > 2 else s
        case And(l, r):
            s = f"{reference_print(l, 3)} & {reference_print(r, 4)}"
            return f"({s})" if prec > 3 else s
        case Not(inner):
            return f"~{reference_print(inner, 4)}"
        case Box(body):
            return f"[]{reference_print(body, 4)}"
        case JustOf(t, body):
            return f"[{reference_print(t)}]{reference_print(body, 4)}"
        case ProofOf(t, body):
            if isinstance(body, (Atom, Bottom)):
                return f"{reference_print(t)}:{reference_print(body)}"
            return f"{reference_print(t)}:({reference_print(body)})"
        case Sum(l, r) | JustSum(l, r):
            s = f"{reference_print(l, 1)} + {reference_print(r, 2)}"
            return f"({s})" if prec > 1 else s
        case Apply(l, r):
            s = f"{reference_print(l, 2)} * {reference_print(r, 3)}"
            return f"({s})" if prec > 2 else s
        case Bang(inner):
            return f"!{reference_print(inner, 3)}"
        case Evidence(p):
            return f"e({reference_print(p)})"
        case MApply(p, j):
            return f"m({reference_print(p)}, {reference_print(j)})"
    raise TypeError(f"not a term or formula: {node!r}")


def _is_hole(t) -> bool:
    return isinstance(t, ProofConst) and t.name.startswith("c_H")


def _ground_proof_term(t: Term) -> bool:
    match t:
        case ProofConst():
            return True
        case Apply(l, r) | Sum(l, r):
            return _ground_proof_term(l) and _ground_proof_term(r)
        case Bang(inner):
            return _ground_proof_term(inner)
    return False


def holes_match(pattern: Formula, actual: Formula) -> dict:
    """Structural match where proof constants named ``c_H*`` in the pattern
    are holes binding ground proof terms (same hole, same term) and pattern
    justification variables map bijectively onto actual ones.  Returns the
    hole environment, or raises AssertionError with the mismatch."""
    env: dict[str, Term] = {}
    jmap: dict[int, int] = {}
    jused: set[int] = set()

    def terms(p, a) -> bool:
        if _is_hole(p):
            if not _ground_proof_term(a):
                return False
            if p.name in env:
                return env[p.name] == a
            env[p.name] = a
            return True
        match (p, a):
            case (ProofConst(n1), ProofConst(n2)):
                return n1 == n2
            case (ProofVar(i), ProofVar(j)):
                return i == j
            case (JustVar(i), JustVar(j)):
                if i in jmap:
                    return jmap[i] == j
                if j in jused:
                    return False
                jmap[i] = j
                jused.add(j)
                return True
            case (Apply(l1, r1), Apply(l2, r2)) | (Sum(l1, r1), Sum(l2, r2)) | (
                JustSum(l1, r1),
                JustSum(l2, r2),
            ):
                return terms(l1, l2) and terms(r1, r2)
            case (Bang(i1), Bang(i2)):
                return terms(i1, i2)
            case (Evidence(p1), Evidence(p2)):
                return terms(p1, p2)
            case (MApply(p1, j1), MApply(p2, j2)):
                return terms(p1, p2) and terms(j1, j2)
        return False

    def formulas(p, a) -> bool:
        match (p, a):
            case (Atom(n1), Atom(n2)):
                return n1 == n2
            case (Bottom(), Bottom()):
                return True
            case (Implies(l1, r1), Implies(l2, r2)) | (And(l1, r1), And(l2, r2)) | (
                Or(l1, r1),
                Or(l2, r2),
            ):
                return formulas(l1, l2) and formulas(r1, r2)
            case (Not(i1), Not(i2)):
                return formulas(i1, i2)
            case (Box(b1), Box(b2)):
                return formulas(b1, b2)
            case (ProofOf(t1, b1), ProofOf(t2, b2)) | (JustOf(t1, b1), JustOf(t2, b2)):
                return terms(t1, t2) and formulas(b1, b2)
        return False

    assert formulas(pattern, actual), (
        f"shape mismatch:\n  pattern: {pattern!r}\n  actual:  {actual!r}"
    )
    return env
