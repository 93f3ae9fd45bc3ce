"""Hilbert-style derivations for JE/JEM: checking and the core transforms.

A derivation is a sequence of steps, each one of

* ``Hyp(F)``             -- assume F;
* ``AxiomStep(F, id, b)`` -- F is the instance of scheme ``id`` under binding ``b``;
* ``ANStep(c, A)``        -- axiom necessitation: conclude ``c:A`` provided the
  constant specification assigns ``c`` a scheme that ``A`` instantiates;
* ``MPStep(i, j)``        -- modus ponens from steps i (major) and j (minor).

Steps may be shared (the sequence is really a DAG through MP back references).
A ``Builder`` derives each formula once: any request for a formula it already
proves returns the earlier step, whatever kind of step that is.  This keeps
the transforms from blowing up on repeated subgoals and cuts every detour that
re-derives a known formula.  A ``hyp(F)`` request may therefore be answered by
an earlier derived step, so a judgment can list fewer hypotheses than were
offered.

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

from dataclasses import field
from typing import Mapping

from .axioms import (
    ConstantSpecification,
    check_axiomatically_appropriate,
    cs_contains,
    instantiate,
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
    Term,
    _FrozenRecord,
    _Substituter,
    _set,
    check_formula,
    print_formula,
)


class DerivationError(Exception):
    def __init__(self, kind: str, step: int | None = None, detail: str = ""):
        msg = kind if step is None else f"{kind} at step {step}"
        super().__init__(f"{msg}: {detail}" if detail else msg)
        self.kind = kind
        self.step = step


class NotAppropriate(Exception):
    """The constant specification leaves some axiom scheme uncovered."""

    def __init__(self, missing: frozenset[str]):
        super().__init__(f"no constant covers schemes {sorted(missing)}")
        self.missing = missing


class Hyp(_FrozenRecord):
    formula: Formula

    def __init__(self, formula):
        _set(self, "formula", formula)


class AxiomStep(_FrozenRecord):
    formula: Formula
    scheme: str
    binding: Mapping[str, object] = field(compare=False)

    def __init__(self, formula, scheme, binding):
        _set(self, "formula", formula)
        _set(self, "scheme", scheme)
        _set(self, "binding", binding)


class ANStep(_FrozenRecord):
    constant: str
    axiom: Formula

    def __init__(self, constant, axiom):
        _set(self, "constant", constant)
        _set(self, "axiom", axiom)


class MPStep(_FrozenRecord):
    major: int
    minor: int

    def __init__(self, major, minor):
        _set(self, "major", major)
        _set(self, "minor", minor)


Step = Hyp | AxiomStep | ANStep | MPStep


class Derivation(_FrozenRecord):
    dialect: Dialect
    steps: tuple[Step, ...]
    conclusion: int

    def __init__(self, dialect, steps, conclusion):
        _set(self, "dialect", dialect)
        _set(self, "steps", steps)
        _set(self, "conclusion", conclusion)

    def __len__(self):
        return len(self.steps)


class Judgment(_FrozenRecord):
    hypotheses: frozenset[Formula]
    conclusion: Formula

    def __init__(self, hypotheses, conclusion):
        _set(self, "hypotheses", hypotheses)
        _set(self, "conclusion", conclusion)


def step_formulas(d: Derivation) -> list[Formula]:
    """The formula proved at each step; raises on malformed MP references."""
    out: list[Formula] = []
    for i, step in enumerate(d.steps):
        match step:
            case Hyp(f):
                out.append(f)
            case AxiomStep(f, _, _):
                out.append(f)
            case ANStep(c, a):
                out.append(ProofOf(ProofConst(c), a))
            case MPStep(major, minor):
                if major >= i or minor >= i or major < 0 or minor < 0:
                    raise DerivationError("index-order", i)
                maj = out[major]
                if not isinstance(maj, Implies) or maj.left != out[minor]:
                    raise DerivationError(
                        "bad-mp", i, f"{print_formula(maj)} does not apply to {print_formula(out[minor])}"
                    )
                out.append(maj.right)
            case _:
                raise DerivationError("bad-step", i, repr(step))
    return out


def check_derivation(d: Derivation, cs: ConstantSpecification) -> Judgment:
    """Validate every step and return the judgment the derivation establishes."""
    if not d.steps or not (0 <= d.conclusion < len(d.steps)):
        raise DerivationError("index-order", d.conclusion, "conclusion out of range")
    formulas = step_formulas(d)
    hyps = set()
    # The nodes validated so far: steps share subformulas, so each distinct
    # node is checked against the dialect once per derivation.
    seen: set = set()
    for i, step in enumerate(d.steps):
        match step:
            case Hyp(f):
                check_formula(f, d.dialect, seen)
                hyps.add(f)
            case AxiomStep(f, scheme_id, binding):
                try:
                    pattern = scheme_by_id(scheme_id, d.dialect).pattern
                except KeyError:
                    raise DerivationError("bad-axiom", i, f"unknown scheme {scheme_id}")
                if instantiate(pattern, binding) != f:
                    raise DerivationError("bad-axiom", i, f"not an instance of {scheme_id}")
                check_formula(f, d.dialect, seen)
            case ANStep(c, a):
                if not cs_contains(cs, c, a):
                    raise DerivationError("bad-an", i, f"({c}, {print_formula(a)}) not in the specification")
                check_formula(a, d.dialect, seen)
    return Judgment(frozenset(hyps), formulas[d.conclusion])


# ---------------------------------------------------------------------------
# Building


class Builder:
    """Append-only derivation builder that derives each formula once.

    Steps are indexed by the formula they prove, whatever their kind: a
    request for a formula some earlier step already proves returns that
    step's index, so glue that re-derives a known formula adds nothing and
    ``prune`` drops whatever it built towards it.  In particular ``hyp(F)``
    may return an earlier non-hypothesis step proving F, and a judgment can
    then list fewer hypotheses than were offered, which is still sound."""

    def __init__(self, dialect: Dialect):
        self.dialect = dialect
        self.steps: list[Step] = []
        self.formulas: list[Formula] = []
        self._index: dict[Formula, int] = {}

    def _add(self, step: Step, formula: Formula) -> int:
        idx = self._index.get(formula)
        if idx is not None:
            return idx
        self.steps.append(step)
        self.formulas.append(formula)
        idx = len(self.steps) - 1
        self._index[formula] = idx
        return idx

    def hyp(self, f: Formula) -> int:
        return self._add(Hyp(f), f)

    def axiom(self, scheme_id: str, binding: Mapping[str, object]) -> int:
        f = instantiate(scheme_by_id(scheme_id, self.dialect).pattern, binding)
        return self._add(AxiomStep(f, scheme_id, dict(binding)), f)

    def an(self, constant: str, axiom_formula: Formula) -> int:
        f = ProofOf(ProofConst(constant), axiom_formula)
        return self._add(ANStep(constant, axiom_formula), f)

    def mp(self, major: int, minor: int) -> int:
        maj = self.formulas[major]
        if not isinstance(maj, Implies) or maj.left != self.formulas[minor]:
            raise ValueError(
                f"mp mismatch: {print_formula(maj)} against {print_formula(self.formulas[minor])}"
            )
        return self._add(MPStep(major, minor), maj.right)

    def _replay(self, step: Step, remap: Mapping[int, int]) -> int:
        """Add one step of another derivation, whose earlier steps ``remap``
        sends to indices here.  An axiom step is copied with its stored
        formula, not instantiated again: ``check_derivation`` vouches for it."""
        match step:
            case Hyp(f):
                return self.hyp(f)
            case AxiomStep(f, _, _):
                return self._add(step, f)
            case ANStep(c, a):
                return self.an(c, a)
            case MPStep(major, minor):
                return self.mp(remap[major], remap[minor])
        raise TypeError(f"not a step: {step!r}")

    def embed(self, d: Derivation) -> int:
        """Replay a whole derivation; returns the index of its conclusion."""
        remap: dict[int, int] = {}
        for i, step in enumerate(d.steps):
            remap[i] = self._replay(step, remap)
        return remap[d.conclusion]

    def derivation(self, conclusion: int) -> Derivation:
        return Derivation(self.dialect, tuple(self.steps), conclusion)


def prune(d: Derivation) -> Derivation:
    """Drop steps the conclusion never uses (hypothesis steps are kept: they
    are part of the judgment even when unused).  On a builder's output this
    removes the detours that ended at a formula the builder already had."""
    keep = set()
    stack = [d.conclusion]
    while stack:
        i = stack.pop()
        if i in keep:
            continue
        keep.add(i)
        step = d.steps[i]
        if isinstance(step, MPStep):
            stack.extend((step.major, step.minor))
    keep.update(i for i, s in enumerate(d.steps) if isinstance(s, Hyp))
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    steps = tuple(
        MPStep(remap[s.major], remap[s.minor]) if isinstance(s, MPStep) else s
        for s in (d.steps[i] for i in order)
    )
    return Derivation(d.dialect, steps, remap[d.conclusion])


# ---------------------------------------------------------------------------
# Derived one-liners


def derive_axiom(dialect: Dialect, scheme_id: str, binding: Mapping[str, object]) -> Derivation:
    b = Builder(dialect)
    return b.derivation(b.axiom(scheme_id, binding))


def _emit_imp_id(b: Builder, a: Formula) -> int:
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


def deduction_transform(d: Derivation, discharge: Formula, normalize: bool = False) -> Derivation:
    """From ``Γ, A |- B`` build ``Γ |- A -> B`` (also valid when A never occurs
    as a hypothesis).  Set ``normalize`` to prune unused detour steps.

    Only steps that depend on the discharged hypothesis are rewritten; the
    rest are copied verbatim and lifted with a single K step where a rewritten
    consumer needs them.  Realization nests this transform once per sequent
    rule, so the output must stay proportional to the dependent part."""
    d = prune(d)
    formulas = step_formulas(d)
    depends = [False] * len(d.steps)
    for i, step in enumerate(d.steps):
        match step:
            case Hyp(h) if h == discharge:
                depends[i] = True
            case MPStep(major, minor):
                depends[i] = depends[major] or depends[minor]
    b = Builder(d.dialect)
    plain: dict[int, int] = {}  # original step, copied as-is
    lifted: dict[int, int] = {}  # step proving  discharge -> formula

    def lift_of(i: int) -> int:
        h = lifted.get(i)
        if h is None:  # a copied step used once on the dependent path
            k = b.axiom("pl_k", {"F": formulas[i], "G": discharge})
            h = lifted[i] = b.mp(k, plain[i])
        return h

    for i, step in enumerate(d.steps):
        if not depends[i]:
            plain[i] = b._replay(step, plain)
            continue
        match step:
            case Hyp():
                lifted[i] = _emit_imp_id(b, discharge)
            case MPStep(major, minor):
                s_idx = b.axiom("pl_s", {"F": discharge, "G": formulas[minor], "H": formulas[i]})
                t = b.mp(s_idx, lift_of(major))
                lifted[i] = b.mp(t, lift_of(minor))
    out = b.derivation(lift_of(d.conclusion))
    return prune(out) if normalize else out


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
      only the plain steps it needs are replayed and none of them is lifted;
    * any other modus ponens becomes ``l * k`` from the terms ``l`` and
      ``k`` of its major and minor, through one ``j`` instance.

    Which steps are lifted and which replayed is decided from the conclusion
    down, so no unused lift is emitted.  A term ``!t`` takes ``t`` from a
    formula of the input, so unlike constants and applications it can
    contain proof variables.  Requires an axiomatically appropriate
    specification."""
    missing = check_axiomatically_appropriate(cs)
    if missing:
        raise NotAppropriate(missing)
    judgment = check_derivation(d, cs)
    if judgment.hypotheses:
        raise DerivationError("has-hypotheses", detail=str(sorted(map(print_formula, judgment.hypotheses))))
    formulas = step_formulas(d)
    lifted = [False] * len(d.steps)  # needs a derivation of term:formula
    replayed = [False] * len(d.steps)  # needs the step itself
    lifted[d.conclusion] = True
    for i in reversed(range(len(d.steps))):
        step = d.steps[i]
        bang = lifted[i] and isinstance(formulas[i], ProofOf)
        replayed[i] = replayed[i] or bang
        if isinstance(step, MPStep):
            for k in (step.major, step.minor):
                replayed[k] = replayed[k] or replayed[i]
                lifted[k] = lifted[k] or (lifted[i] and not bang)
    b = Builder(d.dialect)
    plain: dict[int, int] = {}
    res: dict[int, tuple[ProofTerm, int]] = {}
    for i, step in enumerate(d.steps):
        if replayed[i]:
            plain[i] = b._replay(step, plain)
        if not lifted[i]:
            continue
        f = formulas[i]
        if isinstance(f, ProofOf):
            j4 = b.axiom("j4", {"L": f.term, "F": f.body})
            res[i] = (Bang(f.term), b.mp(j4, plain[i]))
        elif isinstance(step, AxiomStep):
            const = cs.constants_for(step.scheme)[0]
            res[i] = (ProofConst(const), b.an(const, f))
        else:
            lj, pj = res[step.major]
            lk, pk = res[step.minor]
            inst = b.axiom("j", {"L": lj, "K": lk, "F": formulas[step.minor], "G": f})
            res[i] = (Apply(lj, lk), b.mp(b.mp(inst, pj), pk))
    term, idx = res[d.conclusion]
    return term, b.derivation(idx)


# ---------------------------------------------------------------------------
# Substitution


def substitute_derivation(d: Derivation, s: Substitution) -> Derivation:
    """Apply a substitution to every step.  Axiom instances stay axiom
    instances and necessitation steps stay inside the (schematic)
    specification, so the result checks whenever the input does."""
    return _substitute_steps(d, _Substituter(s))


def _substitute_steps(d: Derivation, sub: _Substituter) -> Derivation:
    """``substitute_derivation`` through a given substituter, so that several
    derivations sharing nodes are rewritten with one memo.  A step nothing
    changes is kept as it is, and so is a derivation none of whose steps
    changes."""
    steps: list[Step] = []
    changed = False
    for old in d.steps:
        step = old
        match step:
            case Hyp(f):
                nf = sub.formula(f)
                if nf is not f:
                    step = Hyp(nf)
            case AxiomStep(f, scheme_id, binding):
                nf = sub.formula(f)
                if nf is not f:
                    new_binding = {
                        k: sub.term(v) if isinstance(v, Term) else sub.formula(v)
                        for k, v in binding.items()
                    }
                    step = AxiomStep(nf, scheme_id, new_binding)
            case ANStep(c, a):
                na = sub.formula(a)
                if na is not a:
                    step = ANStep(c, na)
        steps.append(step)
        changed = changed or step is not old
    return Derivation(d.dialect, tuple(steps), d.conclusion) if changed else d


# ---------------------------------------------------------------------------
# Classical helpers used by the realization glue


def compose(d1: Derivation, d2: Derivation) -> Derivation:
    """From ``|- A -> B`` and ``|- B -> C`` build ``|- A -> C`` (hypotheses of
    either input are carried along)."""
    f1 = step_formulas(d1)[d1.conclusion]
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
