"""Constructive realization: sequent proofs into justified Hilbert derivations.

A checked modal sequent proof is walked bottom-up.  Box occurrences were
grouped into families beforehand; every family gets a candidate term, and each
node of the proof receives a Hilbert derivation of its realized reading --
some of the realized antecedent formulas as hypotheses, deriving the
right-nested disjunction of the realized succedent formulas.  The derivations
are built with ``hilbert.Builder``, which derives each formula once, so a
hypothesis whose formula the glue also derives drops out of the judgment.

The walk goes over shapes, not tree nodes.  Proofs are hash-consed, so
equal subproofs are one ``Proof`` object, and ``compute_families`` reads the
proof as shapes: a ``Proof`` object with its sequent annotated, each box
``[]B`` as ``[x_g]B`` with the variable of its group g (equivalence class in
GE, family otherwise).  Every box occurrence below a node corresponds to one
of its own, so tree nodes of one shape have equal candidates at every
corresponding occurrence of their subproofs, and each shape is realized
once.  A shape's realized sequent is its annotated one with each group's
variable replaced by the group's candidate, by one memoized substitution
shared by all shapes.

Families never introduced by a modal rule are realized by fresh variables.
A group introduced by modal rules is realized by the sum, in shape order, of
one value per introducing shape (an instance): ``l1 + l2`` for an RE
instance (``l1`` alone in simplify mode when the two are equal) and
``m(l, t)`` for an RM instance, from the terms that internalize the
instance's premise derivations.  So in strict mode every distinct modal-rule
instance contributes its full witness pair, and equal subproofs in one class
contribute one.

Shapes are realized deepest first, by the most modal rules above them, and
each group's term is built, already final, where that walk reaches the depth
of the group's instances, before any shape there.  Box depth makes that
order sound.  A modal rule's premises are the bodies of its two boxes, and
no other rule moves a formula into or out of a box, so every box occurrence
at a node lies under exactly the modal rules between that node and the
root.  Hence all instances of a group lie at one depth d: their two boxes,
and in GE every family of the class, lie d boxes deep.  Their premises lie
d + 1 deep, so they are realized already; and a shape d' deep mentions only
groups at least d' boxes deep, so no shape reads a group before its term
exists.  Nothing built is ever rewritten.

Weakening, contraction and disjunction on the right only move succedent
formulas.  Such a node records a pending route from the nearest premise that
has a derivation, and a chain of them is folded once, by the rule that first
routes it on or needs its derivation (see ``_Engine._through``).

The engine trusts its builder: at each shape it compares only the conclusion
and hypotheses read off the derivation's steps with the shape's realized
sequent, and ``internalize`` lifts a premise derivation without checking it
again, so ``realize`` checks no derivation.  ``verify_realization`` is the
full check, of the root's derivation and of every logged one, each distinct
step once; every caller in the package runs it, on strict and simplified
results alike: the CLI and the benchmark.
"""

from __future__ import annotations

from dataclasses import field
from functools import reduce

from .axioms import ConstantSpecification, check_axiomatically_appropriate
from .hilbert import (
    Builder,
    Derivation,
    DerivationError,
    Hyp,
    NotAppropriate,
    Step,
    compose,
    by_contradiction,
    deduction_transform,
    derive_axiom,
    efq_to,
    internalize,
    prove_id,
    _check,
    read_judgment,
)
from .sequent import (
    FamilyAnalysis,
    Proof,
    SequentProofError,
    check_sequent_proof,
    compute_families,
)
from .syntax import (
    BOT,
    Dialect,
    DialectError,
    Evidence,
    Formula,
    Implies,
    JustOf,
    JustSum,
    JustVar,
    MApply,
    Not,
    Or,
    ProofOf,
    ProofVar,
    Sum,
    Substitution,
    Term,
    _FrozenRecord,
    _Substituter,
    children,
    forgetful,
    occurrences,
    print_formula,
)

CALCULUS_DIALECT = {"GE": Dialect.JE, "GM": Dialect.JEM}


class UncheckedProof(Exception):
    """Realization was handed a sequent proof that does not check."""


class VerificationError(Exception):
    pass


class RoundtripMismatch(VerificationError):
    pass


class DerivationFails(VerificationError):
    pass


class NotNormal(VerificationError):
    pass


class LogEntry(_FrozenRecord):
    """One internalization performed along the way: ``derivation`` concludes
    ``term : formula`` from no hypotheses."""

    term: Term
    formula: Formula
    derivation: Derivation


class RealizationResult(_FrozenRecord):
    calculus: str
    dialect: Dialect
    antecedent: tuple[Formula, ...]
    succedent: tuple[Formula, ...]
    derivation: Derivation
    log: tuple[LogEntry, ...]
    mode: str
    source: Proof = field(repr=False)
    cs: ConstantSpecification = field(repr=False)

    # Frozen, but ``cs`` holds a dict: declared unhashable so that ``hash``
    # names this class rather than the dict.
    __hash__ = None

    @property
    def realized(self) -> Formula:
        """The realized sequent as one formula: antecedents curried onto the
        disjunction of the succedents."""
        out = _disj(self.succedent)
        for f in reversed(self.antecedent):
            out = Implies(f, out)
        return out


# ---------------------------------------------------------------------------
# Disjunction plumbing


def _disj(fs) -> Formula:
    fs = tuple(fs)
    if not fs:
        return BOT
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Or(f, out)
    return out


def _then(first: Derivation, then: Derivation) -> Derivation:
    """From ``|- F -> G`` and ``|- G -> H``, ``|- F -> H`` by pl_k and pl_s
    (hypotheses of either input are carried along).  Five steps over the
    inputs, where ``compose`` deduction-transforms a modus ponens chain."""
    fg, gh = first.conclusion.formula, then.conclusion.formula
    b = Builder(first.dialect)
    i1, i2 = b.embed(first), b.embed(then)
    lifted = b.mp(b.axiom("pl_k", {"F": gh, "G": fg.left}), i2)
    s = b.axiom("pl_s", {"F": fg.left, "G": fg.right, "H": gh.right})
    return b.derivation(b.mp(b.mp(s, lifted), i1))


def _chain(arrows) -> Derivation:
    """From ``|- F0 -> F1``, ..., ``|- Fn-1 -> Fn``, ``|- F0 -> Fn``, joined
    from the last arrow back, so chains that end alike share their tails."""
    return reduce(lambda rest, first: _then(first, rest), reversed(arrows[:-1]), arrows[-1])


def _fold(dialect: Dialect, fs: tuple, arrows: list[Derivation], target: Formula) -> Derivation:
    """From ``|- fs[j] -> target`` for each j, ``|- d(fs) -> target``."""
    if not fs:
        return efq_to(dialect, target)
    b = Builder(dialect)
    out = b.embed(arrows[-1])
    for j in reversed(range(len(fs) - 1)):
        oe = b.axiom("pl_or_elim", {"F": fs[j], "G": _disj(fs[j + 1:]), "H": target})
        out = b.mp(b.mp(oe, b.embed(arrows[j])), out)
    return b.derivation(out)


def _inject(dialect: Dialect, fs: tuple, j: int) -> Derivation:
    """``|- fs[j] -> d(fs)``: ``pl_or_intro_l`` into ``d(fs[j:])`` unless
    fs[j] is last, then ``pl_or_intro_r`` out to ``d(fs)``.  Steps are
    hash-consed, so a second call builds no new step."""
    if len(fs) == 1:
        return prove_id(dialect, fs[0])
    schemes = ["pl_or_intro_r"] * j + ["pl_or_intro_l"] * (j < len(fs) - 1)
    links = [derive_axiom(dialect, s, {"F": fs[i], "G": _disj(fs[i + 1:])}) for i, s in enumerate(schemes)]
    return _chain(links[::-1])


def _skip(k: int, n: int) -> list[int]:
    """The positions of an n-formula succedent with position k left out."""
    return [j for j in range(n) if j != k]


def _cases(dialect: Dialect, a: Formula, arm_a: Derivation, arm_na: Derivation, goal: Formula) -> Derivation:
    """``|- goal`` from a derivation of goal under the hypothesis a and one
    under ~a, other hypotheses carried.  Under ~goal the first gives
    a -> _|_, so ~a, which answers the second's hypothesis; its goal gives
    _|_, and ``by_contradiction`` discharges ~goal."""
    b = Builder(dialect)
    g_bot = b.mp(b.axiom("pl_neg_elim", {"F": goal}), b.hyp(Not(goal)))
    a_bot = deduction_transform(b.derivation(b.mp(g_bot, b.embed(arm_a))), a)
    b = Builder(dialect)
    b.mp(b.axiom("pl_neg_intro", {"F": a}), b.embed(a_bot))
    g_bot = b.mp(b.axiom("pl_neg_elim", {"F": goal}), b.hyp(Not(goal)))
    return by_contradiction(b.derivation(b.mp(g_bot, b.embed(arm_na))), goal)


# ---------------------------------------------------------------------------
# Sum lifting


def _sum_chain(u: Term, target: Term, node) -> tuple | None:
    """The ``node`` sums on the leftmost path from ``u`` down to ``target``,
    each with the side taken (0 left, 1 right); None if no path of sums
    reaches ``target``.  A depth-first walk over an explicit stack: the
    chain so far, each sum with the side being tried."""
    chain: list = []
    at = u
    while at != target:
        if isinstance(at, node):
            chain.append((at, 0))
        else:  # a dead end: go back to the nearest sum with a side left
            while chain and chain[-1][1]:
                chain.pop()
            if not chain:
                return None
            chain[-1] = chain[-1][0], 1
        at = children(chain[-1][0])[chain[-1][1]]
    return tuple(chain)


def _lift_sum(b: Builder, i: Step, chain, wrap, plus_scheme: str, keys) -> Step:
    """Weaken the step ``i`` here of ``w:F`` to one of ``u:F``; ``chain`` leads from ``u`` down to ``w``."""
    f = i.formula.body
    for parent, side in reversed(chain):
        left, right = children(parent)
        intro = "pl_or_intro_r" if side else "pl_or_intro_l"
        oi = b.axiom(intro, {"F": wrap(left, f), "G": wrap(right, f)})
        jp = b.axiom(plus_scheme, {keys[0]: left, keys[1]: right, "F": f})
        i = b.mp(jp, b.mp(oi, i))
    return i


# ---------------------------------------------------------------------------
# The realization engine


class _Engine:
    def __init__(self, proof: Proof, calculus: str, cs: ConstantSpecification, mode: str):
        self.calculus = calculus
        self.dialect = CALCULUS_DIALECT[calculus]
        self.cs = cs
        self.mode = mode
        self.analysis: FamilyAnalysis = compute_families(proof)
        self.shapes = self.analysis.shapes
        self.cands: dict[int, Term] = {}   # group candidates, by the variable their shapes carry
        self.annotation = _Substituter(Substitution(just_vars=self.cands))   # shared by all shapes
        self.groups: dict[int, tuple[int, ...]] = {}   # a group's instances, by its variable
        self.entries: dict[int, tuple[LogEntry, ...]] = {}   # by shape position, like derivs and routes
        self.derivs: dict[int, Derivation] = {}
        self.routes: dict[int, tuple] = {}   # pending routes
        self._assign_candidates()

    # -- candidate terms -------------------------------------------------

    def _assign_candidates(self):
        """Fresh variables for the families no modal rule introduces into,
        and the instances of each group under the variable its shapes carry:
        a class's shapes carry its first family's."""
        analysis = self.analysis
        for cls in analysis.classes:
            self.groups[cls.families[0]] = cls.instances
        fresh = 0
        for fid, fam in enumerate(analysis.families):
            if not fam.essential:
                self.cands[fid] = Evidence(ProofVar(fresh)) if self.calculus == "GE" else JustVar(fresh)
                fresh += 1
            elif self.calculus == "GM":
                self.groups[fid] = fam.instances

    def _group_term(self, group: int) -> Term:
        """The group's candidate: the sum of its instances' values, in shape
        order."""
        values = [self._value(k) for k in self.groups[group]]
        return Evidence(reduce(Sum, values)) if self.calculus == "GE" else reduce(JustSum, values)

    def _value(self, k: int) -> Term:
        """The summand of the modal-rule shape k.  Its premises' derivations
        are deduction-transformed and internalized, and logged; their terms
        make ``l1 + l2`` (RE; ``l1`` alone in simplify mode when the two
        are equal) or ``m(l, t)``, t the left box's candidate (RM)."""
        shape = self.shapes[k]
        ante1, succ1 = self._annotate(shape.children[0])
        a, b = ante1[0], succ1[0]
        entries = []
        # RE's premises are A => B and B => A; RM's is A => B.
        for c, (f, g) in zip(shape.children, ((a, b), (b, a))):
            lam, p = internalize(deduction_transform(self._derivation(c), f), self.cs)
            entries.append(LogEntry(lam, Implies(f, g), p))
        self.entries[k] = tuple(entries)
        if shape.proof.rule == "RM":
            return MApply(entries[0].term, self.cands[shape.sequent.ante[0].term.index])
        lam1, lam2 = (e.term for e in entries)
        return lam1 if self.mode == "simplify" and lam1 == lam2 else Sum(lam1, lam2)

    # -- annotation ------------------------------------------------------

    def _annotate(self, k: int):
        """The shape's sequent with each family variable replaced by its
        group's candidate."""
        s = self.shapes[k].sequent
        return tuple(map(self.annotation, s.ante)), tuple(map(self.annotation, s.succ))

    # -- routes over succedents ------------------------------------------
    #
    # WR, CR and OrR build no derivation.  Each leaves a pending route
    # ``(base, moves)``: ``base`` is the nearest premise with a derivation,
    # and ``moves[j] = (to, path)`` takes formula j of the base's realized
    # succedent along ``path``, a tuple of arrow derivations (the
    # or-introductions of OrR), to position ``to`` of the node's succedent.
    # A route through a pending premise continues that premise's moves, so a
    # chain of such rules costs one fold: where a rule routes the chain on,
    # or where ``_derivation`` builds it because a rule needs the derivation
    # itself.  A rule that routes may add arrows of its own to a path, or
    # give ``to`` as an arrow ``G -> d(dst)`` instead of a position.

    def _arrow(self, to, path: tuple, dst: tuple) -> Derivation:
        """``|- F -> d(dst)`` along one move from F: the links of ``path``,
        then the injection of position ``to``, or ``to`` itself when it is an
        arrow."""
        if isinstance(to, Derivation):
            return _chain(path + (to,))
        if path and len(dst) == 1:
            return _chain(path)  # the last link lands on d(dst) itself
        return _chain(path + (_inject(self.dialect, dst, to),))

    def _route(self, base: int, moves: tuple, dst: tuple) -> Derivation:
        """From the base's derivation of d(src), one of d(dst) by one
        ``pl_or_elim`` fold: src[j] goes along ``moves[j]``."""
        d = self.derivs[base]
        _, src = self._annotate(base)
        target = _disj(dst)
        if _disj(src) == target:
            return d
        arrows = [self._arrow(to, path, dst) for to, path in moves]
        b = Builder(self.dialect)
        i = b.embed(d)
        return b.derivation(b.mp(b.embed(_fold(self.dialect, src, arrows, target)), i))

    def _through(self, c: int, step) -> tuple:
        """The route that takes the premise c's succedent on by ``step``, a
        move per position of it: from c itself if it has a derivation, else
        from c's base, with c's pending moves continued by ``step``."""
        pending = self.routes.get(c)
        if pending is None:
            return c, tuple(step)
        base, moves = pending
        return base, tuple((step[p][0], path + step[p][1]) for p, path in moves)

    def _derivation(self, nid: int) -> Derivation:
        """The shape's derivation; a pending route is built on first use."""
        d = self.derivs.get(nid)
        if d is None:
            base, moves = self.routes[nid]
            _, dst = self._annotate(nid)
            d = self.derivs[nid] = self._route(base, moves, dst)
            self._require(nid)
        return d

    def _require(self, nid: int):
        """The shape's derivation states its annotated sequent (its steps are
        not checked)."""
        ante, succ = self._annotate(nid)
        j = read_judgment(self.derivs[nid])
        if j.conclusion != _disj(succ) or not j.hypotheses <= set(ante):
            raise DerivationError(
                "realization-unstable",
                detail=f"shape {nid} expected {print_formula(_disj(succ))}, "
                f"got {print_formula(j.conclusion)}",
            )

    # -- per-rule constructions ------------------------------------------

    def run(self) -> Derivation:
        """The root's derivation: the last shape's.  Shapes are realized
        deepest first, by the most modal rules above them, and in shape
        order within one depth, so each comes after its premises.  Each
        group's candidate is built where the walk reaches its instances'
        depth, before the first shape there."""
        depth = [0] * len(self.shapes)
        for k in reversed(range(len(self.shapes))):   # parents first
            below = depth[k] + (self.shapes[k].proof.rule in ("RE", "RM"))
            for c in self.shapes[k].children:
                depth[c] = max(depth[c], below)
        due: dict[int, list[int]] = {}   # the groups, by their instances' depth
        for group, instances in self.groups.items():
            due.setdefault(depth[instances[0]], []).append(group)
        for nid in sorted(range(len(self.shapes)), key=lambda k: (-depth[k], k)):
            for group in due.pop(depth[nid], ()):
                self.cands[group] = self._group_term(group)
            node = self.shapes[nid].proof
            out = _RULES[node.rule](self, nid, node)
            if isinstance(out, Derivation):
                self.derivs[nid] = out
                self._require(nid)
            else:
                self.routes[nid] = out
        return self._derivation(len(self.shapes) - 1)

    def _child_ids(self, nid: int):
        """The shapes of the premises."""
        return self.shapes[nid].children

    def _rule_ax_p(self, nid: int, node: Proof) -> Derivation:
        ante, _ = self._annotate(nid)
        return Derivation(self.dialect, (Hyp(ante[0]),))

    def _rule_ax_bot(self, nid: int, node: Proof) -> Derivation:
        return Derivation(self.dialect, (Hyp(BOT),))

    def _rule_structural(self, nid: int, node: Proof):
        """Weakening and contraction: on the left, the premise's derivation or
        pending route; on the right, a pending route."""
        (c,) = self._child_ids(nid)
        if node.rule in ("WL", "CL"):
            return self.routes.get(c) or self.derivs[c]
        k = node.principal[0][1]
        n = len(node.sequent.succ)
        where = _skip(k, n) if node.rule == "WR" else [*range(k + 1), *range(k, n)]
        return self._through(c, [(w, ()) for w in where])

    def _rule_impl(self, nid: int, node: Proof) -> Derivation:
        """The second premise's hypothesis B is answered in place by modus
        ponens on A -> B.  Without side formulas the first premise proves A
        outright; with them, A -> d(succ) is the route's arrow for A."""
        c1, c2 = self._child_ids(nid)
        k = node.principal[0][1]
        ante, succ = self._annotate(nid)
        a = ante[k].left
        b = Builder(self.dialect)
        himp = b.hyp(ante[k])
        if not succ:
            b.mp(himp, b.embed(self._derivation(c1)))
            return b.derivation(b.embed(self._derivation(c2)))
        b.mp(himp, b.hyp(a))
        arrow_a = deduction_transform(b.derivation(b.embed(self._derivation(c2))), a)
        step = [(p, ()) for p in range(len(succ))] + [(arrow_a, ())]
        return self._route(*self._through(c1, step), succ)

    def _rule_impr(self, nid: int, node: Proof) -> Derivation:
        """A -> B alone is the premise's deduction transform.  With side
        formulas, cases on A: under A the premise's B goes to A -> B by pl_k;
        under ~A, A -> B holds by pl_efq."""
        (c,) = self._child_ids(nid)
        k = node.principal[0][1]
        _, succ = self._annotate(nid)
        a, bb = succ[k].left, succ[k].right
        if len(succ) == 1:
            return deduction_transform(self._derivation(c), a)
        k_link = derive_axiom(self.dialect, "pl_k", {"F": bb, "G": a})
        step = [(w, ()) for w in _skip(k, len(succ))] + [(k, (k_link,))]
        routed = self._route(*self._through(c, step), succ)
        b = Builder(self.dialect)
        a_bot = b.mp(b.axiom("pl_neg_elim", {"F": a}), b.hyp(Not(a)))
        efq = compose(b.derivation(a_bot), efq_to(self.dialect, bb))
        b = Builder(self.dialect)
        arm_na = b.derivation(b.mp(b.embed(_inject(self.dialect, succ, k)), b.embed(efq)))
        return _cases(self.dialect, a, routed, arm_na, _disj(succ))

    def _rule_andl(self, nid: int, node: Proof) -> Derivation:
        (c,) = self._child_ids(nid)
        k = node.principal[0][1]
        ante, _ = self._annotate(nid)
        a, bb = ante[k].left, ante[k].right
        # The premise's hypotheses A and B are answered in place by the
        # eliminations, which the builder returns when the premise asks.
        b = Builder(self.dialect)
        h = b.hyp(ante[k])
        b.mp(b.axiom("pl_and_elim_l", {"F": a, "G": bb}), h)
        b.mp(b.axiom("pl_and_elim_r", {"F": a, "G": bb}), h)
        return b.derivation(b.embed(self._derivation(c)))

    def _rule_andr(self, nid: int, node: Proof) -> Derivation:
        """A & B alone is one pl_and_intro.  With side formulas the second
        premise's B goes to A & B under A, and the first premise's A through
        the deduction transform of that."""
        c1, c2 = self._child_ids(nid)
        k = node.principal[0][1]
        _, succ = self._annotate(nid)
        a, bb = succ[k].left, succ[k].right
        b = Builder(self.dialect)
        if len(succ) == 1:
            ia, ib = b.embed(self._derivation(c1)), b.embed(self._derivation(c2))
            return b.derivation(b.mp(b.mp(b.axiom("pl_and_intro", {"F": a, "G": bb}), ia), ib))
        sides = [(w, ()) for w in _skip(k, len(succ))]
        pair = b.derivation(b.mp(b.axiom("pl_and_intro", {"F": a, "G": bb}), b.hyp(a)))
        # An arrow, not a link: when A is B, compose discharges the pair's
        # hypothesis too, and the builder gets B -> B & B outright.
        arrow_b = compose(pair, _inject(self.dialect, succ, k))
        arrow_a = deduction_transform(self._route(*self._through(c2, sides + [(arrow_b, ())]), succ), a)
        return self._route(*self._through(c1, sides + [(arrow_a, ())]), succ)

    def _rule_orl(self, nid: int, node: Proof) -> Derivation:
        c1, c2 = self._child_ids(nid)
        k = node.principal[0][1]
        ante, succ = self._annotate(nid)
        a, bb = ante[k].left, ante[k].right
        target = _disj(succ)
        dd1 = deduction_transform(self._derivation(c1), a)
        dd2 = deduction_transform(self._derivation(c2), bb)
        b = Builder(self.dialect)
        oe = b.axiom("pl_or_elim", {"F": a, "G": bb, "H": target})
        h = b.hyp(ante[k])
        return b.derivation(b.mp(b.mp(b.mp(oe, b.embed(dd1)), b.embed(dd2)), h))

    def _rule_orr(self, nid: int, node: Proof):
        """A pending route: the premise's A and B go to A | B by
        ``pl_or_intro_l`` and ``pl_or_intro_r``."""
        (c,) = self._child_ids(nid)
        k = node.principal[0][1]
        _, succ = self._annotate(nid)
        a, bb = succ[k].left, succ[k].right
        links = [derive_axiom(self.dialect, s, {"F": a, "G": bb}) for s in ("pl_or_intro_l", "pl_or_intro_r")]
        return self._through(c, [(w, ()) for w in _skip(k, len(succ))] + [(k, (link,)) for link in links])

    def _rule_notl(self, nid: int, node: Proof) -> Derivation:
        (c,) = self._child_ids(nid)
        k = node.principal[0][1]
        ante, succ = self._annotate(nid)
        a = ante[k].inner
        b = Builder(self.dialect)
        a_bot = b.mp(b.axiom("pl_neg_elim", {"F": a}), b.hyp(ante[k]))
        if not succ:  # the premise proves A outright
            return b.derivation(b.mp(a_bot, b.embed(self._derivation(c))))
        arrow_a = compose(b.derivation(a_bot), efq_to(self.dialect, _disj(succ)))
        step = [(p, ()) for p in range(len(succ))] + [(arrow_a, ())]
        return self._route(*self._through(c, step), succ)

    def _rule_notr(self, nid: int, node: Proof) -> Derivation:
        """~A alone is pl_neg_intro over the premise's deduction transform.
        With side formulas, cases on ~A: under ~A the injection of ~A; under
        ~~A, A by pl_dne and then the routed premise."""
        (c,) = self._child_ids(nid)
        k = node.principal[0][1]
        _, succ = self._annotate(nid)
        a = succ[k].inner
        if len(succ) == 1:
            b = Builder(self.dialect)
            intro = b.axiom("pl_neg_intro", {"F": a})
            return b.derivation(b.mp(intro, b.embed(deduction_transform(self._derivation(c), a))))
        routed = self._route(*self._through(c, [(w, ()) for w in _skip(k, len(succ))]), succ)
        b = Builder(self.dialect)
        arm_na = b.derivation(b.mp(b.embed(_inject(self.dialect, succ, k)), b.hyp(Not(a))))
        b = Builder(self.dialect)
        b.mp(b.axiom("pl_dne", {"F": a}), b.hyp(Not(Not(a))))
        arm_nna = b.derivation(b.embed(routed))
        return _cases(self.dialect, Not(a), arm_na, arm_nna, _disj(succ))

    def _rule_re(self, nid: int, node: Proof) -> Derivation:
        """Both witnesses, lifted into the class's sum, by je."""
        ante, succ = self._annotate(nid)
        u = ante[0].term.proof
        ann_a, ann_b = ante[0].body, succ[0].body
        fwd = ProofOf(u, Implies(ann_a, ann_b))
        bwd = ProofOf(u, Implies(ann_b, ann_a))
        b = Builder(self.dialect)
        conj = b.axiom("pl_and_intro", {"F": fwd, "G": bwd})
        for e in self.entries[nid]:
            conj = b.mp(conj, _lift_sum(b, b.embed(e.derivation), _sum_chain(u, e.term, Sum), ProofOf, "jplus1", ("L", "K")))
        arrow = b.mp(b.axiom("je", {"L": u, "F": ann_a, "G": ann_b}), conj)
        h = b.hyp(ante[0])
        return b.derivation(b.mp(arrow, h))

    def _rule_rm(self, nid: int, node: Proof) -> Derivation:
        """The witness by jm, lifted into the family's sum."""
        ante, succ = self._annotate(nid)
        t_left, u = ante[0].term, succ[0].term
        ann_a, ann_b = ante[0].body, succ[0].body
        (entry,) = self.entries[nid]
        b = Builder(self.dialect)
        jm = b.axiom("jm", {"L": entry.term, "T": t_left, "F": ann_a, "G": ann_b})
        arr = b.mp(jm, b.embed(entry.derivation))
        chain = _sum_chain(u, MApply(entry.term, t_left), JustSum)
        return b.derivation(_lift_sum(b, b.mp(arr, b.hyp(ante[0])), chain, JustOf, "jplus2", ("T", "S")))


_RULES = {
    "AxP": _Engine._rule_ax_p,
    "AxBot": _Engine._rule_ax_bot,
    "WL": _Engine._rule_structural,
    "WR": _Engine._rule_structural,
    "CL": _Engine._rule_structural,
    "CR": _Engine._rule_structural,
    "ImpL": _Engine._rule_impl,
    "ImpR": _Engine._rule_impr,
    "AndL": _Engine._rule_andl,
    "AndR": _Engine._rule_andr,
    "OrL": _Engine._rule_orl,
    "OrR": _Engine._rule_orr,
    "NotL": _Engine._rule_notl,
    "NotR": _Engine._rule_notr,
    "RE": _Engine._rule_re,
    "RM": _Engine._rule_rm,
}


def realize(
    proof: Proof, calculus: str, cs: ConstantSpecification, mode: str = "strict"
) -> RealizationResult:
    """Realize a checked sequent proof into the matching justification dialect.

    ``mode`` is "strict" (every distinct modal-rule instance contributes its
    full witness pair) or "simplify" (syntactically equal witness pairs
    collapse to one).  Instances of one class (GE) or family (GM) that prove
    equal subproofs are one instance here: they share one summand.

    Only each node's conclusion and hypotheses are compared here, and no
    derivation is checked, the internalized ones included;
    ``verify_realization`` is the full check."""
    if mode not in ("strict", "simplify"):
        raise ValueError(f"unknown mode {mode!r}")
    try:
        check_sequent_proof(proof, calculus)
    except (SequentProofError, DialectError) as e:  # a rule broken, or a formula outside the modal dialect
        raise UncheckedProof(str(e)) from e
    dialect = CALCULUS_DIALECT[calculus]
    if cs.dialect is not dialect:
        raise DialectError(f"specification is for {cs.dialect.name}, calculus {calculus} needs {dialect.name}")
    missing = check_axiomatically_appropriate(cs)
    if missing:
        raise NotAppropriate(missing)
    engine = _Engine(proof, calculus, cs, mode)
    final = engine.run()
    ante, succ = engine._annotate(len(engine.shapes) - 1)
    return RealizationResult(
        calculus=calculus,
        dialect=dialect,
        antecedent=ante,
        succedent=succ,
        derivation=final,
        log=tuple(e for k in sorted(engine.entries) for e in engine.entries[k]),
        mode=mode,
        source=proof,
        cs=cs,
    )


def simplify(result: RealizationResult) -> RealizationResult:
    """The simplify-mode realization of the result's proof, under its
    calculus and specification; ``result`` itself when it is one already.
    Like ``realize``, it checks no derivation: ``verify_realization`` does."""
    if result.mode == "simplify":
        return result
    return realize(result.source, result.calculus, result.cs, "simplify")


def verify_realization(
    result: RealizationResult,
    proof: Proof | None = None,
    cs: ConstantSpecification | None = None,
) -> None:
    """Independently re-check a realization: the realized sequent forgets back
    to the source, the derivation and every logged internalization check,
    and (for the monotonic calculus) negative boxes are realized by pairwise
    distinct variables."""
    proof = result.source if proof is None else proof
    cs = result.cs if cs is None else cs
    try:
        root = check_sequent_proof(proof, result.calculus)
    except (SequentProofError, DialectError) as e:
        raise UncheckedProof(str(e)) from e
    if (
        tuple(forgetful(f) for f in result.antecedent) != root.ante
        or tuple(forgetful(f) for f in result.succedent) != root.succ
    ):
        raise RoundtripMismatch("realized sequent does not forget back to the source sequent")
    memo: dict = {}  # shared by the root and the log, which share cs
    try:
        j = _check(result.derivation, cs, memo)
    except DerivationError as e:
        raise DerivationFails(str(e)) from e
    if j.conclusion != _disj(result.succedent):
        raise DerivationFails(
            f"derivation concludes {print_formula(j.conclusion)}, "
            f"expected {print_formula(_disj(result.succedent))}"
        )
    if not j.hypotheses <= set(result.antecedent):
        extra = j.hypotheses - set(result.antecedent)
        raise DerivationFails(
            "derivation uses hypotheses outside the realized antecedent: "
            + ", ".join(sorted(print_formula(f) for f in extra))
        )
    for entry in result.log:
        try:
            je = _check(entry.derivation, cs, memo)
        except DerivationError as e:
            raise DerivationFails(f"logged internalization: {e}") from e
        if je.hypotheses or je.conclusion != ProofOf(entry.term, entry.formula):
            raise DerivationFails("logged internalization does not conclude its recorded judgment")
    if result.calculus == "GM":
        # Each negative box of the realized sequent, on its own, not by
        # family: ``realized`` puts the antecedent left of implications, so
        # polarities in it are those in the sequent.
        seen: set[Term] = set()
        for _, node, positive in occurrences(result.realized):
            if not isinstance(node, JustOf) or positive:
                continue
            if not isinstance(node.term, JustVar):
                raise NotNormal(f"negative box realized by a non-variable term {node.term!r}")
            if node.term in seen:
                raise NotNormal("two negative boxes share one variable")
            seen.add(node.term)
