"""Constructive realization: sequent proofs into justified Hilbert derivations.

A checked modal sequent proof is walked bottom-up.  Box occurrences were
grouped into families beforehand; every family gets a candidate term, and each
node of the proof receives a Hilbert derivation of its realized reading --
some of the realized antecedent formulas as hypotheses, deriving the
right-nested disjunction of the realized succedent formulas.  The derivations
are built with ``hilbert.Builder``, which derives each formula once, so a
hypothesis whose formula the glue also derives drops out of the judgment.

Families never introduced by a modal rule are realized by fresh variables.
Families introduced by a modal rule start out as sums of provisional
variables, one summand per introducing rule instance.  When the walk reaches
such an instance it internalizes the derivations built for the premises,
resolves that instance's provisional summand to the resulting ground terms,
and pushes the substitution through every derivation, candidate, and log
entry produced so far; the assembled justified implication is then weakened
into the full sum.  After the root is processed no provisional variables
remain and the root derivation witnesses the realized sequent outright.
"""

from __future__ import annotations

from dataclasses import field

from .axioms import ConstantSpecification, check_axiomatically_appropriate
from .hilbert import (
    Builder,
    Derivation,
    DerivationError,
    NotAppropriate,
    check_derivation,
    compose,
    by_contradiction,
    deduction_transform,
    derive_axiom,
    efq_to,
    internalize,
    prove_id,
    prune,
    step_formulas,
    _substitute_steps,
)
from .sequent import (
    FamilyAnalysis,
    Proof,
    SequentProofError,
    check_sequent_proof,
    compute_families,
)
from .syntax import (
    And,
    BOT,
    Box,
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
    Substitution,
    Sum,
    Term,
    _FrozenRecord,
    _Substituter,
    _set,
    forgetful,
    print_formula,
    subformula_at,
    subterms,
    terms_in,
)

PROVISIONAL_BASE = 10**6

CALCULUS_DIALECT = {"GE": Dialect.JE, "GM": Dialect.JEM}


class UncheckedProof(Exception):
    """Realization was handed a sequent proof that does not check."""


class VerificationError(Exception):
    pass


class RoundtripMismatch(VerificationError):
    pass


class DerivationFails(VerificationError):
    pass


class ProvisionalLeak(VerificationError):
    pass


class NotNormal(VerificationError):
    pass


class LogEntry(_FrozenRecord):
    """One internalization performed along the way: ``derivation`` concludes
    ``term : formula`` from no hypotheses."""

    term: Term
    formula: Formula
    derivation: Derivation

    def __init__(self, term, formula, derivation):
        _set(self, "term", term)
        _set(self, "formula", formula)
        _set(self, "derivation", derivation)


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

    def __init__(self, calculus, dialect, antecedent, succedent, derivation, log, mode, source, cs):
        _set(self, "calculus", calculus)
        _set(self, "dialect", dialect)
        _set(self, "antecedent", antecedent)
        _set(self, "succedent", succedent)
        _set(self, "derivation", derivation)
        _set(self, "log", log)
        _set(self, "mode", mode)
        _set(self, "source", source)
        _set(self, "cs", cs)

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


def _inject(dialect: Dialect, fs: tuple, j: int) -> Derivation:
    """``|- fs[j] -> d(fs)`` for the right-nested disjunction d."""
    if len(fs) == 1:
        return prove_id(dialect, fs[0])
    rest = _disj(fs[1:])
    if j == 0:
        b = Builder(dialect)
        return b.derivation(b.axiom("pl_or_intro_l", {"F": fs[0], "G": rest}))
    inner = _inject(dialect, fs[1:], j - 1)
    b = Builder(dialect)
    step = b.derivation(b.axiom("pl_or_intro_r", {"F": fs[0], "G": rest}))
    return compose(inner, step)


def _fold(dialect: Dialect, fs: tuple, arrows: list[Derivation], target: Formula) -> Derivation:
    """From ``|- fs[j] -> target`` for each j, ``|- d(fs) -> target``."""
    if not fs:
        return efq_to(dialect, target)
    if len(fs) == 1:
        return arrows[0]
    tail = _fold(dialect, fs[1:], arrows[1:], target)
    b = Builder(dialect)
    oe = b.axiom("pl_or_elim", {"F": fs[0], "G": _disj(fs[1:]), "H": target})
    out = b.mp(b.mp(oe, b.embed(arrows[0])), b.embed(tail))
    return b.derivation(out)


def _skip(k: int, n: int) -> list[int]:
    """The positions of an n-formula succedent with position k left out."""
    return [j for j in range(n) if j != k]


def _route(d: Derivation, src: tuple, dst: tuple, where, tail=()) -> Derivation:
    """From a derivation of d(src), one of d(dst).  Each leading src[j] goes
    to dst[where[j]] by its injection; the last ``len(tail)`` formulas of src
    go through the given arrows, derivations of ``src[j] -> d(dst)``."""
    target = _disj(dst)
    if _disj(src) == target:
        return d
    lead = where[: len(src) - len(tail)]
    arrows = [_inject(d.dialect, dst, w) for w in lead] + list(tail)
    b = Builder(d.dialect)
    i = b.embed(d)
    return b.derivation(b.mp(b.embed(_fold(d.dialect, src, arrows, target)), i))


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


def _sum_path(u: Term, target: Term, node):
    """Leftmost path to ``target`` descending only through ``node`` sums."""
    if u == target:
        return ()
    if isinstance(u, node):
        left = _sum_path(u.left, target, node)
        if left is not None:
            return (0,) + left
        right = _sum_path(u.right, target, node)
        if right is not None:
            return (1,) + right
    return None


def _term_at(u: Term, path) -> Term:
    for step in path:
        u = u.left if step == 0 else u.right
    return u


def _lift_sum(d: Derivation, u: Term, path, wrap, plus_scheme: str, keys) -> Derivation:
    """Weaken ``|- w:F`` (w at ``path`` inside the sum tree ``u``) to ``|- u:F``."""
    f = step_formulas(d)[d.conclusion].body
    b = Builder(d.dialect)
    i = b.embed(d)
    while path:
        parent = _term_at(u, path[:-1])
        pf, pg = wrap(parent.left, f), wrap(parent.right, f)
        if path[-1] == 0:
            oi = b.axiom("pl_or_intro_l", {"F": pf, "G": pg})
        else:
            oi = b.axiom("pl_or_intro_r", {"F": pf, "G": pg})
        jp = b.axiom(plus_scheme, {keys[0]: parent.left, keys[1]: parent.right, "F": f})
        i = b.mp(jp, b.mp(oi, i))
        path = path[:-1]
    return b.derivation(i)


def _lift_proof_sum(d: Derivation, u: Term, path) -> Derivation:
    return _lift_sum(d, u, path, ProofOf, "jplus1", ("L", "K"))


def _lift_just_sum(d: Derivation, u: Term, path) -> Derivation:
    return _lift_sum(d, u, path, JustOf, "jplus2", ("T", "S"))


# ---------------------------------------------------------------------------
# The realization engine


def _has_provisional(t: Term) -> bool:
    return any(
        isinstance(s, (ProofVar, JustVar)) and s.index >= PROVISIONAL_BASE for s in subterms(t)
    )


class _Engine:
    def __init__(self, proof: Proof, calculus: str, cs: ConstantSpecification, mode: str):
        self.calculus = calculus
        self.dialect = CALCULUS_DIALECT[calculus]
        self.cs = cs
        self.mode = mode
        self.analysis: FamilyAnalysis = compute_families(proof)
        self.index = self.analysis.index
        self.cands: dict[int, Term] = {}
        self.prov_of: dict[int, Term] = {}
        self.derivs: dict[int, Derivation] = {}
        self.log: list[LogEntry] = []
        self._assign_candidates()

    # -- candidate terms -------------------------------------------------

    def _assign_candidates(self):
        counter = 0
        fresh = 0
        analysis = self.analysis
        if self.calculus == "GE":
            for cls in analysis.classes:
                provs = []
                for nid in cls.instances:
                    v = ProofVar(PROVISIONAL_BASE + counter)
                    counter += 1
                    self.prov_of[nid] = v
                    provs.append(v)
                summed = provs[0]
                for v in provs[1:]:
                    summed = Sum(summed, v)
                cand = Evidence(summed)
                for fid in cls.families:
                    self.cands[fid] = cand
        else:
            for fid, fam in enumerate(analysis.families):
                if not fam.essential:
                    continue
                provs = []
                for nid in fam.instances:
                    v = JustVar(PROVISIONAL_BASE + counter)
                    counter += 1
                    self.prov_of[nid] = v
                    provs.append(v)
                summed = provs[0]
                for v in provs[1:]:
                    summed = JustSum(summed, v)
                self.cands[fid] = summed
        for fid, fam in enumerate(analysis.families):
            if fid in self.cands:
                continue
            self.cands[fid] = Evidence(ProofVar(fresh)) if self.calculus == "GE" else JustVar(fresh)
            fresh += 1

    # -- annotation ------------------------------------------------------

    def _annotate_formula(self, nid: int, side: str, fidx: int, f: Formula) -> Formula:
        def go(g: Formula, path):
            if isinstance(g, Box):
                fam = self.analysis.family_of[(nid, side, fidx, path)]
                return JustOf(self.cands[fam], go(g.body, path + (0,)))
            if isinstance(g, Implies):
                return Implies(go(g.left, path + (0,)), go(g.right, path + (1,)))
            if isinstance(g, And):
                return And(go(g.left, path + (0,)), go(g.right, path + (1,)))
            if isinstance(g, Or):
                return Or(go(g.left, path + (0,)), go(g.right, path + (1,)))
            if isinstance(g, Not):
                return Not(go(g.inner, path + (0,)))
            return g

        return go(f, ())

    def _annotate(self, nid: int):
        s = self.index.nodes[nid].sequent
        ante = tuple(self._annotate_formula(nid, "L", i, f) for i, f in enumerate(s.ante))
        succ = tuple(self._annotate_formula(nid, "R", i, f) for i, f in enumerate(s.succ))
        return ante, succ

    # -- substitution of resolved provisionals ---------------------------

    def _resolve(self, provisional: Term, value: Term):
        if isinstance(provisional, ProofVar):
            s = Substitution(proof_vars={provisional.index: value})
        else:
            s = Substitution(just_vars={provisional.index: value})
        # One memo for the whole call: candidates, derivations and log
        # entries share most of their nodes, so each is rewritten once.  Only
        # what the substitution changed is re-checked: a derivation none of
        # whose steps changed still proves its node's sequent, because the
        # realized sequent changes exactly as the derivation's formulas do.
        sub = _Substituter(s)
        self.cands = {fid: sub.term(t) for fid, t in self.cands.items()}
        for nid, d in self.derivs.items():
            new = _substitute_steps(d, sub)
            if new is not d:
                self.derivs[nid] = new
                self._require(new, *self._annotate(nid), nid)
        for k, e in enumerate(self.log):
            new = LogEntry(sub.term(e.term), sub.formula(e.formula), _substitute_steps(e.derivation, sub))
            if new.term is not e.term or new.formula is not e.formula or new.derivation is not e.derivation:
                self.log[k] = new
                self._require_entry(new)

    def _require_entry(self, e: LogEntry):
        j = check_derivation(e.derivation, self.cs)
        if j.hypotheses or j.conclusion != ProofOf(e.term, e.formula):
            raise DerivationError(
                "realization-lost-internalization", detail=print_formula(j.conclusion)
            )

    def _require(self, d: Derivation, ante, succ, nid: int):
        j = check_derivation(d, self.cs)
        if j.conclusion != _disj(succ) or not j.hypotheses <= set(ante):
            raise DerivationError(
                "realization-unstable",
                detail=f"node {nid} expected {print_formula(_disj(succ))}, "
                f"got {print_formula(j.conclusion)}",
            )

    # -- per-rule constructions ------------------------------------------

    def run(self) -> Derivation:
        order = sorted(range(len(self.index.nodes)), key=lambda n: self.analysis.index.postorder[n])
        for nid in order:
            node = self.index.nodes[nid]
            self.derivs[nid] = prune(_RULES[node.rule](self, nid, node))
            ante, succ = self._annotate(nid)
            self._require(self.derivs[nid], ante, succ, nid)
        return self.derivs[0]

    def _child_ids(self, nid: int):
        return self.index.children[nid]

    def _rule_ax_p(self, nid: int, node: Proof) -> Derivation:
        ante, _ = self._annotate(nid)
        b = Builder(self.dialect)
        return b.derivation(b.hyp(ante[0]))

    def _rule_ax_bot(self, nid: int, node: Proof) -> Derivation:
        b = Builder(self.dialect)
        return b.derivation(b.hyp(BOT))

    def _rule_structural(self, nid: int, node: Proof) -> Derivation:
        """Weakening and contraction: the premise's derivation, its succedent
        routed when the rule acts on the right."""
        (c,) = self._child_ids(nid)
        if node.rule in ("WL", "CL"):
            return self.derivs[c]
        k = node.principal[0][1]
        _, src = self._annotate(c)
        _, dst = self._annotate(nid)
        if node.rule == "WR":
            where = _skip(k, len(dst))
        else:
            where = [*range(k + 1), *range(k, len(dst))]
        return _route(self.derivs[c], src, dst, where)

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
            b.mp(himp, b.embed(self.derivs[c1]))
            return b.derivation(b.embed(self.derivs[c2]))
        b.mp(himp, b.hyp(a))
        arrow_a = deduction_transform(b.derivation(b.embed(self.derivs[c2])), a)
        _, src1 = self._annotate(c1)
        return _route(self.derivs[c1], src1, succ, range(len(succ)), (arrow_a,))

    def _rule_impr(self, nid: int, node: Proof) -> Derivation:
        """A -> B alone is the premise's deduction transform.  With side
        formulas, cases on A: under A the premise's B goes to A -> B by pl_k;
        under ~A, A -> B holds by pl_efq."""
        (c,) = self._child_ids(nid)
        k = node.principal[0][1]
        _, succ = self._annotate(nid)
        a, bb = succ[k].left, succ[k].right
        if len(succ) == 1:
            return deduction_transform(self.derivs[c], a)
        _, src = self._annotate(c)
        inj = _inject(self.dialect, succ, k)
        b = Builder(self.dialect)
        arrow_b = compose(b.derivation(b.axiom("pl_k", {"F": bb, "G": a})), inj)
        routed = _route(self.derivs[c], src, succ, _skip(k, len(succ)), (arrow_b,))
        b = Builder(self.dialect)
        a_bot = b.mp(b.axiom("pl_neg_elim", {"F": a}), b.hyp(Not(a)))
        efq = compose(b.derivation(a_bot), efq_to(self.dialect, bb))
        b = Builder(self.dialect)
        arm_na = b.derivation(b.mp(b.embed(inj), b.embed(efq)))
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
        return b.derivation(b.embed(self.derivs[c]))

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
            ia, ib = b.embed(self.derivs[c1]), b.embed(self.derivs[c2])
            return b.derivation(b.mp(b.mp(b.axiom("pl_and_intro", {"F": a, "G": bb}), ia), ib))
        where = _skip(k, len(succ))
        _, src1 = self._annotate(c1)
        _, src2 = self._annotate(c2)
        pair = b.mp(b.axiom("pl_and_intro", {"F": a, "G": bb}), b.hyp(a))
        arrow_b = compose(b.derivation(pair), _inject(self.dialect, succ, k))
        arrow_a = deduction_transform(_route(self.derivs[c2], src2, succ, where, (arrow_b,)), a)
        return _route(self.derivs[c1], src1, succ, where, (arrow_a,))

    def _rule_orl(self, nid: int, node: Proof) -> Derivation:
        c1, c2 = self._child_ids(nid)
        k = node.principal[0][1]
        ante, succ = self._annotate(nid)
        a, bb = ante[k].left, ante[k].right
        target = _disj(succ)
        dd1 = deduction_transform(self.derivs[c1], a)
        dd2 = deduction_transform(self.derivs[c2], bb)
        b = Builder(self.dialect)
        oe = b.axiom("pl_or_elim", {"F": a, "G": bb, "H": target})
        h = b.hyp(ante[k])
        return b.derivation(b.mp(b.mp(b.mp(oe, b.embed(dd1)), b.embed(dd2)), h))

    def _rule_orr(self, nid: int, node: Proof) -> Derivation:
        (c,) = self._child_ids(nid)
        k = node.principal[0][1]
        _, succ = self._annotate(nid)
        a, bb = succ[k].left, succ[k].right
        _, src = self._annotate(c)
        inj = _inject(self.dialect, succ, k)
        tail = tuple(
            compose(derive_axiom(self.dialect, side, {"F": a, "G": bb}), inj)
            for side in ("pl_or_intro_l", "pl_or_intro_r")
        )
        return _route(self.derivs[c], src, succ, _skip(k, len(succ)), tail)

    def _rule_notl(self, nid: int, node: Proof) -> Derivation:
        (c,) = self._child_ids(nid)
        k = node.principal[0][1]
        ante, succ = self._annotate(nid)
        a = ante[k].inner
        b = Builder(self.dialect)
        a_bot = b.mp(b.axiom("pl_neg_elim", {"F": a}), b.hyp(ante[k]))
        if not succ:  # the premise proves A outright
            return b.derivation(b.mp(a_bot, b.embed(self.derivs[c])))
        _, src = self._annotate(c)
        arrow_a = compose(b.derivation(a_bot), efq_to(self.dialect, _disj(succ)))
        return _route(self.derivs[c], src, succ, range(len(succ)), (arrow_a,))

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
            return b.derivation(b.mp(intro, b.embed(deduction_transform(self.derivs[c], a))))
        _, src = self._annotate(c)
        routed = _route(self.derivs[c], src, succ, _skip(k, len(succ)))
        b = Builder(self.dialect)
        arm_na = b.derivation(b.mp(b.embed(_inject(self.dialect, succ, k)), b.hyp(Not(a))))
        b = Builder(self.dialect)
        b.mp(b.axiom("pl_dne", {"F": a}), b.hyp(Not(Not(a))))
        arm_nna = b.derivation(b.embed(routed))
        return _cases(self.dialect, Not(a), arm_na, arm_nna, _disj(succ))

    def _rule_re(self, nid: int, node: Proof) -> Derivation:
        c1, c2 = self._child_ids(nid)
        ante1, succ1 = self._annotate(c1)
        ann_a, ann_b = ante1[0], succ1[0]
        dd1 = deduction_transform(self.derivs[c1], ann_a)
        dd2 = deduction_transform(self.derivs[c2], ann_b)
        lam1, p1 = internalize(dd1, self.cs)
        lam2, p2 = internalize(dd2, self.cs)
        self.log.append(LogEntry(lam1, Implies(ann_a, ann_b), p1))
        self.log.append(LogEntry(lam2, Implies(ann_b, ann_a), p2))
        if self.mode == "simplify" and lam1 == lam2:
            value = lam1
        else:
            value = Sum(lam1, lam2)
        self._resolve(self.prov_of[nid], value)
        ante, succ = self._annotate(nid)
        t = ante[0].term
        u = t.proof
        ann_a, ann_b = ante[0].body, succ[0].body
        entry1 = self.log[-2]
        entry2 = self.log[-1]
        l1 = _lift_proof_sum(entry1.derivation, u, _sum_path(u, entry1.term, Sum))
        l2 = _lift_proof_sum(entry2.derivation, u, _sum_path(u, entry2.term, Sum))
        fwd = ProofOf(u, Implies(ann_a, ann_b))
        bwd = ProofOf(u, Implies(ann_b, ann_a))
        b = Builder(self.dialect)
        conj = b.mp(b.mp(b.axiom("pl_and_intro", {"F": fwd, "G": bwd}), b.embed(l1)), b.embed(l2))
        arrow = b.mp(b.axiom("je", {"L": u, "F": ann_a, "G": ann_b}), conj)
        h = b.hyp(ante[0])
        return b.derivation(b.mp(arrow, h))

    def _rule_rm(self, nid: int, node: Proof) -> Derivation:
        (c,) = self._child_ids(nid)
        ante1, succ1 = self._annotate(c)
        ann_a, ann_b = ante1[0], succ1[0]
        dd = deduction_transform(self.derivs[c], ann_a)
        lam, p = internalize(dd, self.cs)
        self.log.append(LogEntry(lam, Implies(ann_a, ann_b), p))
        ante, _ = self._annotate(nid)
        t_left = ante[0].term
        self._resolve(self.prov_of[nid], MApply(lam, t_left))
        ante, succ = self._annotate(nid)
        t_left = ante[0].term
        u = succ[0].term
        ann_a, ann_b = ante[0].body, succ[0].body
        entry = self.log[-1]
        b = Builder(self.dialect)
        jm = b.axiom("jm", {"L": entry.term, "T": t_left, "F": ann_a, "G": ann_b})
        arr = b.mp(jm, b.embed(entry.derivation))
        h = b.hyp(ante[0])
        small = b.derivation(b.mp(arr, h))
        value = MApply(entry.term, t_left)
        return _lift_just_sum(small, u, _sum_path(u, value, JustSum))


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

    ``mode`` is "strict" (every modal-rule instance contributes the full sum
    of its two internalized witnesses) or "simplify" (syntactically equal
    witness pairs collapse to one)."""
    if mode not in ("strict", "simplify"):
        raise ValueError(f"unknown mode {mode!r}")
    try:
        check_sequent_proof(proof, calculus)
    except SequentProofError as e:
        raise UncheckedProof(str(e)) from e
    dialect = CALCULUS_DIALECT[calculus]
    if cs.dialect is not dialect:
        raise DialectError(f"specification is for {cs.dialect.name}, calculus {calculus} needs {dialect.name}")
    missing = check_axiomatically_appropriate(cs)
    if missing:
        raise NotAppropriate(missing)
    engine = _Engine(proof, calculus, cs, mode)
    final = prune(engine.run())
    ante, succ = engine._annotate(0)
    for f in ante + succ:
        for t in terms_in(f):
            if _has_provisional(t):
                raise DerivationError("realization-unresolved", detail=print_formula(f))
    return RealizationResult(
        calculus=calculus,
        dialect=dialect,
        antecedent=ante,
        succedent=succ,
        derivation=final,
        log=tuple(engine.log),
        mode=mode,
        source=proof,
        cs=cs,
    )


def simplify(result: RealizationResult) -> RealizationResult:
    """Re-run the realization collapsing syntactically equal witness pairs;
    falls back to the given result if the collapsed run fails to check."""
    return try_simplify(result)[0]


def try_simplify(result: RealizationResult) -> tuple[RealizationResult, str | None]:
    """``simplify`` together with the reason it fell back: the given result
    and ``"<error class>: <message>"`` when the collapsed run fails to check,
    else the collapsed result and None."""
    if result.mode == "simplify":
        return result, None
    try:
        out = realize(result.source, result.calculus, result.cs, mode="simplify")
        verify_realization(out)
        return out, None
    except (DerivationError, VerificationError) as e:
        return result, f"{type(e).__name__}: {e}"


def verify_realization(
    result: RealizationResult,
    proof: Proof | None = None,
    cs: ConstantSpecification | None = None,
) -> None:
    """Independently re-check a realization: the realized sequent forgets back
    to the source, the derivation and every logged internalization check, no
    provisional variable survived, and (for the monotonic calculus) negative
    boxes are realized by pairwise distinct variables."""
    if proof is None:
        proof = result.source
    if cs is None:
        cs = result.cs
    try:
        root = check_sequent_proof(proof, result.calculus)
    except SequentProofError as e:
        raise UncheckedProof(str(e)) from e
    if (
        tuple(forgetful(f) for f in result.antecedent) != root.ante
        or tuple(forgetful(f) for f in result.succedent) != root.succ
    ):
        raise RoundtripMismatch("realized sequent does not forget back to the source sequent")
    for f in result.antecedent + result.succedent:
        for t in terms_in(f):
            if _has_provisional(t):
                raise ProvisionalLeak(print_formula(f))
    try:
        j = check_derivation(result.derivation, cs)
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
            je = check_derivation(entry.derivation, cs)
        except DerivationError as e:
            raise DerivationFails(f"logged internalization: {e}") from e
        if je.hypotheses or je.conclusion != ProofOf(entry.term, entry.formula):
            raise DerivationFails("logged internalization does not conclude its recorded judgment")
    if result.calculus == "GM":
        analysis = compute_families(proof)
        fam_terms: dict[int, Term] = {}
        realized_root = {"L": result.antecedent, "R": result.succedent}
        for (nid, side, fidx, path), fid in analysis.family_of.items():
            if nid == 0 and analysis.families[fid].polarity == "negative":
                fam_terms[fid] = subformula_at(realized_root[side][fidx], path).term
        seen: set[Term] = set()
        for term in fam_terms.values():
            if not isinstance(term, JustVar):
                raise NotNormal(f"negative box realized by a non-variable term {term!r}")
            if term in seen:
                raise NotNormal("two negative box families share one variable")
            seen.add(term)
