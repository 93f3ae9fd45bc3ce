"""Cut-free sequent calculi GE and GM over the modal dialect, plus the
occurrence-tracking that realization needs.

Sequents are pairs of formula tuples; the stored order fixes occurrence
identity, while the logic itself treats both sides as multisets (explicit
weakening and contraction rules are part of the calculi).  Both calculi share
the axioms ``P => P`` (atomic) and ``_|_ =>``, the two-sided rules for
``->``, ``&``, ``|``, ``~`` and the four structural rules.  They differ in the
modal rule, which carries no side context:

* GE:  from ``A => B`` and ``B => A`` infer ``[]A => []B``;
* GM:  from ``A => B`` infer ``[]A => []B``.

Every rule has one fixed premise layout (``premises_of``, tabled in
docs/formats.md), so a rule instance is determined by its conclusion and
principal occurrence, and ``correspondences`` reads the occurrence
correspondence between premises and conclusion off it.  ``compute_families``
unions corresponding box occurrences across the whole proof into families,
marks the families the modal rules introduce, and (for GE) groups families
introduced by a shared rule instance into equivalence classes.
``prove_bounded`` is a deterministic backward search that decomposes
propositional structure eagerly (those rules are invertible), then tries
every antecedent/succedent box pair at the modal transition, inserting the
weakening and contraction steps explicitly so its output always passes
``check_sequent_proof``.
"""

from __future__ import annotations

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
    _Record,
    _set,
    box_occurrences,
    check_formula,
    formula_children,
    parse_sequent as _parse_sides,
    polarity_at,
    print_sequent as _print_sides,
)


class SequentProofError(Exception):
    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


class Sequent(_FrozenRecord):
    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]

    def __init__(self, ante, succ):
        _set(self, "ante", ante)
        _set(self, "succ", succ)

    # ``check_sequent_proof`` compares a sequent per premise.  Spelled out,
    # == and hash cost half of what the shared ones over ``_key`` do.
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


class Proof(_FrozenRecord):
    """One node of a sequent proof: the sequent it concludes, the rule, the
    principal occurrence(s) in the conclusion, and the premise subproofs."""

    sequent: Sequent
    rule: str
    principal: tuple[tuple[str, int], ...]
    children: tuple["Proof", ...]

    def __init__(self, sequent, rule, principal, children):
        _set(self, "sequent", sequent)
        _set(self, "rule", rule)
        _set(self, "principal", principal)
        _set(self, "children", children)


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


def _single(principal, side: str, s: Sequent):
    if len(principal) != 1 or principal[0][0] != side:
        raise SequentProofError("bad-rule", f"principal {principal} not a single {side} occurrence")
    k = principal[0][1]
    seq_side = s.ante if side == "L" else s.succ
    if not (0 <= k < len(seq_side)):
        raise SequentProofError("bad-rule", f"principal index {k} out of range")
    return k, seq_side[k]


def premises_of(rule: str, principal, s: Sequent) -> tuple[Sequent, ...]:
    """The premise sequents a rule instance must have, in fixed layout."""
    ante, succ = s.ante, s.succ
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
        case "ImpL":
            k, f = _single(principal, "L", s)
            if not isinstance(f, Implies):
                raise SequentProofError("bad-rule", "ImpL principal is not an implication")
            rest = ante[:k] + ante[k + 1:]
            return (Sequent(rest, succ + (f.left,)), Sequent((f.right,) + rest, succ))
        case "ImpR":
            k, f = _single(principal, "R", s)
            if not isinstance(f, Implies):
                raise SequentProofError("bad-rule", "ImpR principal is not an implication")
            rest = succ[:k] + succ[k + 1:]
            return (Sequent((f.left,) + ante, rest + (f.right,)),)
        case "AndL":
            k, f = _single(principal, "L", s)
            if not isinstance(f, And):
                raise SequentProofError("bad-rule", "AndL principal is not a conjunction")
            rest = ante[:k] + ante[k + 1:]
            return (Sequent((f.left, f.right) + rest, succ),)
        case "AndR":
            k, f = _single(principal, "R", s)
            if not isinstance(f, And):
                raise SequentProofError("bad-rule", "AndR principal is not a conjunction")
            rest = succ[:k] + succ[k + 1:]
            return (Sequent(ante, rest + (f.left,)), Sequent(ante, rest + (f.right,)))
        case "OrL":
            k, f = _single(principal, "L", s)
            if not isinstance(f, Or):
                raise SequentProofError("bad-rule", "OrL principal is not a disjunction")
            rest = ante[:k] + ante[k + 1:]
            return (Sequent((f.left,) + rest, succ), Sequent((f.right,) + rest, succ))
        case "OrR":
            k, f = _single(principal, "R", s)
            if not isinstance(f, Or):
                raise SequentProofError("bad-rule", "OrR principal is not a disjunction")
            rest = succ[:k] + succ[k + 1:]
            return (Sequent(ante, rest + (f.left, f.right)),)
        case "NotL":
            k, f = _single(principal, "L", s)
            if not isinstance(f, Not):
                raise SequentProofError("bad-rule", "NotL principal is not a negation")
            return (Sequent(ante[:k] + ante[k + 1:], succ + (f.inner,)),)
        case "NotR":
            k, f = _single(principal, "R", s)
            if not isinstance(f, Not):
                raise SequentProofError("bad-rule", "NotR principal is not a negation")
            return (Sequent((f.inner,) + ante, succ[:k] + succ[k + 1:]),)
        case "WL":
            k, _ = _single(principal, "L", s)
            return (Sequent(ante[:k] + ante[k + 1:], succ),)
        case "WR":
            k, _ = _single(principal, "R", s)
            return (Sequent(ante, succ[:k] + succ[k + 1:]),)
        case "CL":
            k, f = _single(principal, "L", s)
            return (Sequent(ante[:k] + (f, f) + ante[k + 1:], succ),)
        case "CR":
            k, f = _single(principal, "R", s)
            return (Sequent(ante, succ[:k] + (f, f) + succ[k + 1:]),)
        case "RE" | "RM":
            if principal != (("L", 0), ("R", 0)):
                raise SequentProofError("bad-rule", f"{rule} principal must be both boxes")
            if len(ante) != 1 or len(succ) != 1 or not isinstance(ante[0], Box) or not isinstance(succ[0], Box):
                raise SequentProofError("bad-rule", f"{rule} needs exactly []A => []B, got {s}")
            a, b = ante[0].body, succ[0].body
            if rule == "RE":
                return (Sequent((a,), (b,)), Sequent((b,), (a,)))
            return (Sequent((a,), (b,)),)
    raise SequentProofError("bad-rule", f"unknown rule {rule!r}")


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


def check_sequent_proof(p: Proof, calculus: str) -> Sequent:
    """Validate the whole tree against the stated calculus; returns the root
    sequent (the proved one)."""
    if calculus not in _CALCULUS_RULES:
        raise SequentProofError("bad-rule", f"unknown calculus {calculus!r}")
    allowed = _CALCULUS_RULES[calculus]
    stack = [p]
    while stack:
        node = stack.pop()
        if node.rule not in allowed:
            kind = "wrong-calculus" if node.rule in RULES else "bad-rule"
            raise SequentProofError(kind, f"rule {node.rule} not part of {calculus}")
        for f in node.sequent.ante + node.sequent.succ:
            check_formula(f, Dialect.MODAL)
        prems = premises_of(node.rule, node.principal, node.sequent)
        if len(prems) != len(node.children):
            raise SequentProofError("premise-mismatch", f"{node.rule} expects {len(prems)} premises")
        for child, expected in zip(node.children, prems):
            if child.sequent != expected:
                raise SequentProofError(
                    "premise-mismatch",
                    f"{node.rule} premise should be {expected}, found {child.sequent}",
                )
        stack.extend(node.children)
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
    cur = proof
    for pos, f in _inserts(proof.sequent.ante, target.ante):
        s = Sequent(cur.sequent.ante[:pos] + (f,) + cur.sequent.ante[pos:], cur.sequent.succ)
        cur = Proof(s, "WL", (("L", pos),), (cur,))
    for pos, f in _inserts(proof.sequent.succ, target.succ):
        s = Sequent(cur.sequent.ante, cur.sequent.succ[:pos] + (f,) + cur.sequent.succ[pos:])
        cur = Proof(s, "WR", (("R", pos),), (cur,))
    return cur


_DECOMP = {
    ("L", Implies): "ImpL",
    ("L", And): "AndL",
    ("L", Or): "OrL",
    ("L", Not): "NotL",
    ("R", Implies): "ImpR",
    ("R", And): "AndR",
    ("R", Or): "OrR",
    ("R", Not): "NotR",
}


def _search(c: Sequent, calculus: str, depth: int) -> Proof | None:
    for f in c.ante:
        if isinstance(f, Bottom):
            return _bridge(Proof(Sequent((BOT,), ()), "AxBot", (("L", 0),), ()), c)
        if isinstance(f, Atom) and f in c.succ:
            leaf = Proof(Sequent((f,), (f,)), "AxP", (("L", 0), ("R", 0)), ())
            return _bridge(leaf, c)
    if depth <= 0:
        return None
    for side, formulas in (("L", c.ante), ("R", c.succ)):
        for k, f in enumerate(formulas):
            rule = _DECOMP.get((side, type(f)))
            if rule is None:
                continue
            principal = ((side, k),)
            children = []
            for premise in premises_of(rule, principal, c):
                sub = _search(_canonical(premise), calculus, depth - 1)
                if sub is None:
                    return None  # propositional rules are invertible: no backtracking
                children.append(_bridge(sub, premise))
            return Proof(c, rule, principal, tuple(children))
    for fa in c.ante:
        if not isinstance(fa, Box):
            continue
        for fb in c.succ:
            if not isinstance(fb, Box):
                continue
            first = _search(_canonical(Sequent((fa.body,), (fb.body,))), calculus, depth - 1)
            if first is None:
                continue
            concl = Sequent((fa,), (fb,))
            principal = (("L", 0), ("R", 0))
            if calculus == "GE":
                second = _search(_canonical(Sequent((fb.body,), (fa.body,))), calculus, depth - 1)
                if second is None:
                    continue
                p1, p2 = premises_of("RE", principal, concl)
                node = Proof(concl, "RE", principal, (_bridge(first, p1), _bridge(second, p2)))
            else:
                (p1,) = premises_of("RM", principal, concl)
                node = Proof(concl, "RM", principal, (_bridge(first, p1),))
            return _bridge(node, c)
    return None


def prove_bounded(s: Sequent, calculus: str, depth: int) -> Proof | None:
    """Deterministic backward proof search, exhaustive up to ``depth`` nested
    rule applications (weakening/contraction bookkeeping is not counted).
    Returns a proof that passes ``check_sequent_proof`` or None."""
    if calculus not in _CALCULUS_RULES:
        raise SequentProofError("bad-rule", f"unknown calculus {calculus!r}")
    if depth <= 0:
        raise ValueError("depth must be positive")
    for f in s.ante + s.succ:
        check_formula(f, Dialect.MODAL)
    c = _canonical(s)
    sub = _search(c, calculus, depth)
    if sub is None:
        return None
    return _bridge(sub, s)


# ---------------------------------------------------------------------------
# Families of box occurrences

Token = tuple[int, str, int, tuple[int, ...]]  # (preorder node id, side, formula index, box path)


class ProofIndex(_Record):
    nodes: list[Proof]                # by preorder id
    children: list[tuple[int, ...]]   # preorder ids of each node's premises
    postorder: dict[int, int]         # preorder id -> postorder position

    def __init__(self, nodes, children, postorder):
        self.nodes = nodes
        self.children = children
        self.postorder = postorder


def index_proof(p: Proof) -> ProofIndex:
    nodes: list[Proof] = []
    children: list[tuple[int, ...]] = []
    postorder: dict[int, int] = {}
    counter = [0]

    def walk(node: Proof) -> int:
        nid = len(nodes)
        nodes.append(node)
        children.append(())
        kids = []
        for child in node.children:
            kids.append(walk(child))
        children[nid] = tuple(kids)
        postorder[nid] = counter[0]
        counter[0] += 1
        return nid

    walk(p)
    return ProofIndex(nodes, children, postorder)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


class Family(_FrozenRecord):
    tokens: frozenset
    essential: bool
    instances: tuple[int, ...]   # preorder ids of modal rule nodes introducing into it, postorder-sorted
    polarity: str | None         # uniform polarity of the member boxes, None if mixed

    def __init__(self, tokens, essential, instances, polarity):
        _set(self, "tokens", tokens)
        _set(self, "essential", essential)
        _set(self, "instances", instances)
        _set(self, "polarity", polarity)


class EquivClass(_FrozenRecord):
    families: tuple[int, ...]    # indices into FamilyAnalysis.families
    instances: tuple[int, ...]   # preorder ids of the RE nodes of the class, postorder-sorted

    def __init__(self, families, instances):
        _set(self, "families", families)
        _set(self, "instances", instances)


class FamilyAnalysis(_Record):
    index: ProofIndex
    families: tuple[Family, ...]
    family_of: dict[Token, int]
    classes: tuple[EquivClass, ...]   # nonempty only when RE occurs
    modal_rule: str | None            # "RE", "RM" or None

    def __init__(self, index, families, family_of, classes, modal_rule):
        self.index = index
        self.families = families
        self.family_of = family_of
        self.classes = classes
        self.modal_rule = modal_rule


def _token_polarity(index: ProofIndex, t: Token) -> str:
    nid, side, idx, path = t
    seq = index.nodes[nid].sequent
    f = (seq.ante if side == "L" else seq.succ)[idx]
    pol = polarity_at(f, path)
    if side == "L":
        pol = "negative" if pol == "positive" else "positive"
    return pol


def compute_families(p: Proof) -> FamilyAnalysis:
    """Union corresponding box occurrences across the proof into families and
    classify them for realization.  The proof must be structurally valid (the
    same premise layouts ``check_sequent_proof`` enforces)."""
    index = index_proof(p)
    rules_used = {n.rule for n in index.nodes}
    if "RE" in rules_used and "RM" in rules_used:
        raise SequentProofError("wrong-calculus", "proof mixes RE and RM")
    modal_rule = "RE" if "RE" in rules_used else ("RM" if "RM" in rules_used else None)

    uf = _UnionFind()
    tokens: list[Token] = []
    for nid, node in enumerate(index.nodes):
        for side, formulas in (("L", node.sequent.ante), ("R", node.sequent.succ)):
            for idx, f in enumerate(formulas):
                for bp in box_occurrences(f):
                    t = (nid, side, idx, bp)
                    uf.add(t)
                    tokens.append(t)
    for nid, node in enumerate(index.nodes):
        try:
            corr = correspondences(node.rule, node.principal, node.sequent)
        except SequentProofError:
            raise SequentProofError("unchecked", f"node {nid} is not a valid {node.rule} instance")
        if len(corr) != len(node.children):
            raise SequentProofError("unchecked", f"node {nid} has the wrong premise count")
        for child_pos, cmap in enumerate(corr):
            cid = index.children[nid][child_pos]
            child_seq = index.nodes[cid].sequent
            for (side, idx), ((side2, idx2), prefix) in cmap.items():
                f = (child_seq.ante if side == "L" else child_seq.succ)[idx]
                for bp in box_occurrences(f):
                    uf.union((nid, side2, idx2, prefix + bp), (cid, side, idx, bp))

    groups: dict[Token, list[Token]] = {}
    for t in tokens:
        groups.setdefault(uf.find(t), []).append(t)

    # deterministic family order: by least member token
    ordered = sorted(groups.values(), key=lambda ts: min(ts))
    family_of: dict[Token, int] = {}
    for i, ts in enumerate(ordered):
        for t in ts:
            family_of[t] = i

    def post_sorted(nids):
        return tuple(sorted(set(nids), key=lambda n: index.postorder[n]))

    families: list[Family] = []
    intro_left: dict[int, list[int]] = {}
    intro_right: dict[int, list[int]] = {}
    for nid, node in enumerate(index.nodes):
        if node.rule in ("RE", "RM"):
            intro_left.setdefault(family_of[(nid, "L", 0, ())], []).append(nid)
            intro_right.setdefault(family_of[(nid, "R", 0, ())], []).append(nid)

    for i, ts in enumerate(ordered):
        pols = {_token_polarity(index, t) for t in ts}
        polarity = pols.pop() if len(pols) == 1 else None
        if modal_rule == "RM":
            instances = post_sorted(intro_right.get(i, []))
            essential = bool(instances)
        else:
            instances = post_sorted(intro_left.get(i, []) + intro_right.get(i, []))
            essential = bool(instances)
        families.append(Family(frozenset(ts), essential, instances, polarity))

    if modal_rule == "RM":
        for fam in families:
            if fam.polarity is None:
                raise SequentProofError("polarity-mixed", "a GM family mixes polarities")

    classes: tuple[EquivClass, ...] = ()
    if modal_rule == "RE":
        cls_uf = _UnionFind()
        for i, fam in enumerate(families):
            if fam.essential:
                cls_uf.add(i)
        for nid, node in enumerate(index.nodes):
            if node.rule == "RE":
                cls_uf.union(family_of[(nid, "L", 0, ())], family_of[(nid, "R", 0, ())])
        cgroups: dict[int, list[int]] = {}
        for i, fam in enumerate(families):
            if fam.essential:
                cgroups.setdefault(cls_uf.find(i), []).append(i)
        out = []
        for fams in sorted(cgroups.values(), key=min):
            inst = post_sorted([n for i in fams for n in families[i].instances])
            out.append(EquivClass(tuple(sorted(fams)), inst))
        classes = tuple(out)

    return FamilyAnalysis(index, tuple(families), family_of, classes, modal_rule)
