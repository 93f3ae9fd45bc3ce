"""Hilbert-style derivations for JE/JEM: checking and the core transforms.

A derivation is built from steps, each one of

* ``Hyp(F)``               -- assume F;
* ``AxiomStep(F, id)``      -- F is an instance of scheme ``id``;
* ``ANStep(c, A)``          -- axiom necessitation: conclude ``c:A`` provided
  the constant specification assigns ``c`` a scheme that ``A`` instantiates;
* ``MPStep(major, minor)``  -- modus ponens from the step ``major``, which
  proves ``A -> B``, and the step ``minor``, which proves ``A``.

Steps are hash-consed like terms and formulas: equal steps are one object,
and an ``MPStep`` holds its premise steps, so the steps under a conclusion
form a DAG.  Every step carries the formula it proves as ``formula``: ``c:A``
for ``ANStep(c, A)`` and ``B`` for a modus ponens whose major proves
``A -> B``.  It also carries, as ``hypotheses``, the formulas of the ``Hyp``
steps under it, so the checker and the transforms read what a step depends
on off the step.  A ``Derivation`` is a dialect and the roots of its DAG:
the conclusion step, then each step it holds that no step uses, such as an
unused hypothesis.  Its ``steps`` are read off the roots, each after its
premises; step numbers belong to the file format (``formats``).  A
``Builder`` derives each formula once, which keeps the transforms from
blowing up on repeated subgoals.  A derivation pickles as one table of its
distinct steps and their formulas and terms; its ``repr`` is the dataclass
tree, which spells each root's premises out in full.

``check_derivation`` validates every step.  It runs where a derivation enters
from outside (each file the command line reads) and at the gates
(``verify_realization``, the command line's outputs); the transforms trust
their input, which inside the library is what a ``Builder`` made.

The three transforms implement the standard metatheory constructively:

* ``deduction_transform`` turns a derivation of ``Γ, A |- B`` into one of
  ``Γ |- A -> B`` using only the pl_k / pl_s schemes, so it works under any
  constant specification.
* ``internalize`` turns a hypothesis-free derivation of ``|- A`` into a proof
  term ``t`` and a derivation of ``|- t:A``.  Axiom steps become constants
  (the lexicographically least constant covering the scheme), steps proving
  a proof assertion ``t:F`` become ``!t`` through the positive introspection
  scheme, and any other modus ponens becomes term application through the
  ``j`` scheme.  Requires an axiomatically appropriate specification.
* ``substitute_derivation`` applies a substitution to every step; this is
  sound because axiom schemes and constant specifications are schematic.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Mapping

from .axioms import (
    ConstantSpecification,
    check_axiomatically_appropriate,
    cs_contains,
    instantiate,
    match,
    scheme_by_id,
)
from .syntax import (
    Apply,
    Bang,
    Bottom,
    Dialect,
    Formula,
    Implies,
    Not,
    ProofConst,
    ProofOf,
    ProofTerm,
    Substitution,
    _FrozenRecord,
    _HashConsed,
    _Substituter,
    _set,
    check_dialect,
    postorder,
    print_formula,
)


class DerivationError(Exception):
    def __init__(self, kind: str, step: int | None = None, detail: str = ""):
        msg = kind if step is None else f"{kind} at step {step}"
        super().__init__(f"{msg}: {detail}" if detail else msg)
        self.kind = kind
        self.step = step
        self.detail = detail


class NotAppropriate(Exception):
    """The constant specification leaves some axiom scheme uncovered."""

    def __init__(self, missing: frozenset[str]):
        super().__init__(f"no constant covers schemes {sorted(missing)}")
        self.missing = missing


class _Step(_HashConsed):
    """Base of the steps: ``hypotheses``, the formulas of the ``Hyp`` steps
    under a step, is not a field.  ``_conclude`` sets it when a node is
    first built, or the class holds it where it is always empty."""

    __slots__ = ("hypotheses",)


class Hyp(_Step):
    formula: Formula

    def _conclude(self):
        _set(self, "hypotheses", frozenset((self.formula,)))


class AxiomStep(_Step):
    formula: Formula
    scheme: str
    hypotheses = frozenset()


class _Concluding(_Step):
    """Base of the steps whose formula ``_conclude`` sets, not a field."""

    __slots__ = ("formula",)


class ANStep(_Concluding):
    constant: str
    axiom: Formula
    hypotheses = frozenset()

    def _conclude(self):
        _set(self, "formula", ProofOf(ProofConst(self.constant), self.axiom))


class MPStep(_Concluding):
    """Modus ponens; its formula is None when the major proves no
    implication, which ``check_derivation`` rejects."""

    major: Step
    minor: Step
    _children = attrgetter("major", "minor")  # the premises, for ``postorder``

    def _conclude(self):
        f = self.major.formula
        _set(self, "formula", f.right if isinstance(f, Implies) else None)
        h, k = self.major.hypotheses, self.minor.hypotheses
        _set(self, "hypotheses", h if k <= h else k if h <= k else h | k)


Step = Hyp | AxiomStep | ANStep | MPStep


class Derivation(_FrozenRecord):
    dialect: Dialect
    roots: tuple[Step, ...]

    @property
    def conclusion(self) -> Step:
        return self.roots[0]

    @property
    def steps(self) -> tuple[Step, ...]:
        """The distinct steps under the roots, each after its premises: the
        postorder of each root in turn."""
        out: dict = {}
        for root in self.roots:
            out.update(dict.fromkeys(postorder(root, out)))
        return tuple(out)

    def __len__(self):
        return len(self.steps)


def _rooted(dialect: Dialect, conclusion: Step, held) -> Derivation:
    """The derivation of ``conclusion`` that also holds the steps ``held``:
    its roots are the conclusion, then each held step no step uses."""
    steps = Derivation(dialect, (conclusion, *held)).steps
    used = {p for s in steps if isinstance(s, MPStep) for p in (s.major, s.minor)}
    return Derivation(dialect, (conclusion, *(s for s in dict.fromkeys(held) if s not in used and s is not conclusion)))


class Judgment(_FrozenRecord):
    hypotheses: frozenset[Formula]
    conclusion: Formula


def read_judgment(d: Derivation) -> Judgment:
    """The judgment a derivation's steps state: the hypotheses under its
    roots and the formula its conclusion step proves.  Checks nothing;
    ``check_derivation`` does."""
    return Judgment(frozenset().union(*(root.hypotheses for root in d.roots)), d.conclusion.formula)


def check_derivation(d: Derivation, cs: ConstantSpecification) -> Judgment:
    """Validate every step and return the judgment the derivation establishes."""
    return _check(d, cs, {})


def _check(d: Derivation, cs: ConstantSpecification, memo: dict) -> Judgment:
    """``check_derivation``, where ``memo`` maps a dialect to the steps that
    passed under it and ``cs``, at which a walk stops, and to the formula
    nodes ``check_dialect`` accepted.  Steps are numbered as walked: for a
    fresh memo, as in ``steps``.  The judgment is read off the roots."""
    closed, seen = memo.setdefault(d.dialect, (set(), set()))
    for i, step in enumerate(s for root in d.roots for s in postorder(root, closed)):
        _check_step(step, i, d.dialect, cs, seen)
        closed.add(step)
    return read_judgment(d)


def _check_step(step: Step, i: int, dialect: Dialect, cs: ConstantSpecification, seen: set) -> None:
    """Check step ``i`` on its own; its premises passed."""
    match step:
        case MPStep():
            _check_link(step, i)
        case Hyp(f):
            check_dialect(f, dialect, Formula, seen)
        case AxiomStep(f, scheme_id):
            try:
                pattern = scheme_by_id(scheme_id, dialect).pattern
            except KeyError:
                raise DerivationError("bad-axiom", i, f"unknown scheme {scheme_id}")
            if match(pattern, f) is None:
                raise DerivationError("bad-axiom", i, f"not an instance of {scheme_id}")
            check_dialect(f, dialect, Formula, seen)
        case ANStep(c, a):
            if not cs_contains(cs, c, a):
                raise DerivationError("bad-an", i, f"({c}, {print_formula(a)}) not in the specification")
            check_dialect(a, dialect, Formula, seen)
        case _:
            raise DerivationError("bad-step", i, repr(step))


def _check_link(step: MPStep, i: int) -> None:
    """Raise ``bad-mp`` unless the major proves an implication from the
    minor's formula."""
    f, a = step.major.formula, step.minor.formula
    if not isinstance(f, Implies) or f.left != a:
        raise DerivationError("bad-mp", i, f"{print_formula(f)} does not apply to {print_formula(a)}")


# ---------------------------------------------------------------------------
# Building


class Builder:
    """Append-only derivation builder that derives each formula once.

    Steps are indexed by the formula they prove, whatever their kind: a
    request for a formula some earlier step already proves returns that
    step, so glue that re-derives a known formula adds nothing, and a
    derivation made here leaves out what was built towards it.  In particular
    ``hyp(F)`` may return an earlier non-hypothesis step proving F, and a
    judgment can then list fewer hypotheses than were offered, which is
    still sound.  The methods return steps, which ``mp`` takes as premises."""

    def __init__(self, dialect: Dialect):
        self.dialect = dialect
        self._index: dict[Formula, Step] = {}

    def _add(self, step: Step) -> Step:
        known = self._index.get(step.formula)
        if known is None:
            known = self._index[step.formula] = step
        return known

    def hyp(self, f: Formula) -> Step:
        return self._add(Hyp(f))

    def axiom(self, scheme_id: str, binding: Mapping[str, object]) -> Step:
        return self._add(AxiomStep(instantiate(scheme_by_id(scheme_id, self.dialect).pattern, binding), scheme_id))

    def an(self, constant: str, axiom_formula: Formula) -> Step:
        return self._add(ANStep(constant, axiom_formula))

    def mp(self, major: Step, minor: Step) -> Step:
        maj = major.formula
        if not isinstance(maj, Implies) or maj.left != minor.formula:
            raise ValueError(
                f"mp mismatch: {print_formula(maj)} against {print_formula(minor.formula)}"
            )
        return self._add(MPStep(major, minor))

    def _take(self, step: Step) -> Step:
        """The step here for ``step``'s formula: an earlier one, or ``step``
        itself with its premises replaced by the steps here for their
        formulas, which must have been taken already."""
        index = self._index
        known = index.get(step.formula)
        if known is None:
            if isinstance(step, MPStep):
                premises = index[step.major.formula], index[step.minor.formula]
                step = step if premises == (step.major, step.minor) else MPStep(*premises)
            known = index[step.formula] = step
        return known

    def embed(self, d: Derivation) -> Step:
        """Take every step of a derivation, each after its premises; returns
        the step here for its conclusion's formula."""
        for step in d.steps:
            self._take(step)
        return self._index[d.conclusion.formula]

    def derivation(self, conclusion: Step) -> Derivation:
        """The derivation of ``conclusion`` that also holds every hypothesis
        taken here: the other steps the conclusion does not use are detours."""
        hyps = (s for s in self._index.values() if isinstance(s, Hyp) and s.formula not in conclusion.hypotheses)
        return Derivation(self.dialect, (conclusion, *hyps))


# ---------------------------------------------------------------------------
# Derived one-liners


def derive_axiom(dialect: Dialect, scheme_id: str, binding: Mapping[str, object]) -> Derivation:
    b = Builder(dialect)
    return b.derivation(b.axiom(scheme_id, binding))


def _emit_imp_id(b: Builder, a: Formula) -> Step:
    """Emit the classic five-step proof of ``A -> A``, or for ``_|_ -> _|_``
    the one ``pl_efq`` instance."""
    if isinstance(a, Bottom):
        return b.axiom("pl_efq", {"F": a})
    aa = Implies(a, a)
    s = b.axiom("pl_s", {"F": a, "G": aa, "H": a})
    k1 = b.axiom("pl_k", {"F": a, "G": aa})
    t = b.mp(s, k1)
    k2 = b.axiom("pl_k", {"F": a, "G": a})
    return b.mp(t, k2)


def prove_id(dialect: Dialect, a: Formula) -> Derivation:
    b = Builder(dialect)
    return b.derivation(_emit_imp_id(b, a))


# ---------------------------------------------------------------------------
# Deduction


def deduction_transform(d: Derivation, discharge: Formula) -> Derivation:
    """From ``Γ, A |- B`` build ``Γ |- A -> B`` (also valid when A never occurs
    as a hypothesis).

    Only steps that depend on the discharged hypothesis are rewritten; the
    rest are taken as they are and lifted with a single K step where a
    rewritten consumer needs them.  Realization nests this transform once
    per sequent rule, so the output must stay proportional to the dependent
    part: the steps with ``discharge`` among their ``hypotheses``."""
    hyp = Hyp(discharge)
    b = Builder(d.dialect)
    lifted: dict[Step, Step] = {}  # a dependent step -> the step proving  discharge -> its formula

    def lift_of(step: Step) -> Step:
        h = lifted.get(step)
        if h is None:  # a step taken as it is, used once on the dependent path
            k = b.axiom("pl_k", {"F": step.formula, "G": discharge})
            h = lifted[step] = b.mp(k, b._index[step.formula])
        return h

    for step in d.steps:  # each after its premises, so ``lifted`` holds them
        if step is hyp:
            lifted[step] = _emit_imp_id(b, discharge)
        elif discharge in step.hypotheses:  # a modus ponens
            s = b.axiom("pl_s", {"F": discharge, "G": step.minor.formula, "H": step.formula})
            lifted[step] = b.mp(b.mp(s, lift_of(step.major)), lift_of(step.minor))
        else:
            b._take(step)
    return b.derivation(lift_of(d.conclusion))


# ---------------------------------------------------------------------------
# Internalization


def internalize(d: Derivation, cs: ConstantSpecification) -> tuple[ProofTerm, Derivation]:
    """From a hypothesis-free derivation of ``|- A`` build a proof term ``t``
    and a derivation of ``|- t:A`` (the Lifting Lemma).

    Each step the conclusion needs is lifted to a term for its formula:

    * an axiom ``F`` becomes the least constant ``c`` covering its scheme,
      through the necessitation step ``c:F``;
    * a step that proves a proof assertion ``t:F`` -- a necessitation step
      ``c:A`` or a modus ponens conclusion -- becomes ``!t`` through one
      ``j4`` instance ``t:F -> !t:(t:F)`` applied to the step itself, so
      only the plain steps it needs are taken over and none of them is
      lifted;
    * any other modus ponens becomes ``l * k`` from the terms ``l`` and
      ``k`` of its major and minor, through one ``j`` instance.

    Which steps are lifted and which taken over is decided from the
    conclusion down, so no unused lift is emitted.  A term ``!t`` takes
    ``t`` from a formula of the input, so unlike constants and applications
    it can contain proof variables.  Requires an axiomatically appropriate
    specification.

    The input is not checked again: the output checks if the steps the
    conclusion uses do.  A faulty axiom or necessitation step is carried
    into the output, or raises ``DerivationError`` ("bad-axiom" when no
    constant covers its scheme), as hypotheses and broken links do."""
    missing = check_axiomatically_appropriate(cs)
    if missing:
        raise NotAppropriate(missing)
    hypotheses = read_judgment(d).hypotheses
    if hypotheses:
        raise DerivationError("has-hypotheses", detail=str(sorted(map(print_formula, hypotheses))))
    steps = d.steps
    lifted = {d.conclusion}  # need a derivation of term:formula
    taken: set[Step] = set()  # need the step itself
    for step in reversed(steps):
        bang = step in lifted and isinstance(step.formula, ProofOf)
        if bang:
            taken.add(step)
        if isinstance(step, MPStep):
            for k in (step.major, step.minor):
                if step in taken:
                    taken.add(k)
                if step in lifted and not bang:
                    lifted.add(k)
    b = Builder(d.dialect)
    res: dict[Step, tuple[ProofTerm, Step]] = {}
    for i, step in enumerate(steps):
        if step in taken:
            b._take(step)
        if step not in lifted:
            continue
        f = step.formula
        if isinstance(f, ProofOf):
            j4 = b.axiom("j4", {"L": f.term, "F": f.body})
            res[step] = (Bang(f.term), b.mp(j4, b._index[f]))
        elif isinstance(step, AxiomStep):
            const = next(iter(cs.constants_for(step.scheme)), None)
            if const is None:
                raise DerivationError("bad-axiom", i, f"no constant covers scheme {step.scheme}")
            res[step] = (ProofConst(const), b.an(const, f))
        else:
            _check_link(step, i)
            lj, pj = res[step.major]
            lk, pk = res[step.minor]
            inst = b.axiom("j", {"L": lj, "K": lk, "F": step.minor.formula, "G": f})
            res[step] = (Apply(lj, lk), b.mp(b.mp(inst, pj), pk))
    term, conclusion = res[d.conclusion]
    return term, b.derivation(conclusion)


# ---------------------------------------------------------------------------
# Substitution


def substitute_derivation(d: Derivation, s: Substitution) -> Derivation:
    """Apply a substitution to every step.  Axiom instances stay axiom
    instances and necessitation steps stay inside the (schematic)
    specification, so the result checks whenever the input does.  A step
    nothing changes is kept as it is, and so is a derivation none of whose
    steps changes."""
    sub = _Substituter(s)
    new: dict[Step, Step] = {}
    for old in d.steps:
        match old:
            case Hyp(f):
                new[old] = Hyp(sub(f))
            case AxiomStep(f, scheme_id):
                new[old] = AxiomStep(sub(f), scheme_id)
            case ANStep(c, a):
                new[old] = ANStep(c, sub(a))
            case MPStep(major, minor):
                new[old] = MPStep(new[major], new[minor])
    roots = tuple(new[old] for old in d.roots)
    return d if roots == d.roots else _rooted(d.dialect, roots[0], roots[1:])


# ---------------------------------------------------------------------------
# Classical helpers used by the realization glue


def compose(d1: Derivation, d2: Derivation) -> Derivation:
    """From ``|- A -> B`` and ``|- B -> C`` build ``|- A -> C`` (hypotheses of
    either input are carried along)."""
    f1 = d1.conclusion.formula
    if not isinstance(f1, Implies):
        raise ValueError("compose expects implications")
    b = Builder(d1.dialect)
    i1 = b.embed(d1)
    i2 = b.embed(d2)
    h = b.hyp(f1.left)
    mid = b.mp(i1, h)
    b_idx = b.mp(i2, mid)
    return deduction_transform(b.derivation(b_idx), f1.left)


def by_contradiction(d: Derivation, goal: Formula) -> Derivation:
    """From ``Γ, ~G |- _|_`` build ``Γ |- G`` (uses double negation elimination)."""
    neg = Not(goal)
    dd = deduction_transform(d, neg)
    b = Builder(d.dialect)
    i = b.embed(dd)
    ni = b.axiom("pl_neg_intro", {"F": neg})
    nn = b.mp(ni, i)
    dne = b.axiom("pl_dne", {"F": goal})
    return b.derivation(b.mp(dne, nn))


def efq_to(dialect: Dialect, target: Formula) -> Derivation:
    """``|- _|_ -> T``."""
    return derive_axiom(dialect, "pl_efq", {"F": target})
