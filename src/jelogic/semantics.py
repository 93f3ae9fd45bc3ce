"""Finite-support semantics for the two justification dialects.

A basic evaluation assigns truth values to atoms and a set of formulas to
every term.  The real objects are infinitary; this module represents the
finitely many entries that matter (a table from terms to formula sets) and
closes them under the dialect's conditions up to a declared term-depth bound.
Every verdict produced here is therefore relative to that bound, which is part
of the evaluation value itself.

The closure conditions push content strictly upward, from subterms into
composites, so the least fixed point at a term is a function of the base
entries at its subterms.  ``saturate`` computes entries in one pass, each
after those it is made from, either for an explicit list of terms (cheap,
used by the fuzzer) or for every term up to the bound over the table's leaves.

On top of basic evaluations sit quasi-models (worlds, neighborhoods, one
evaluation per world), the justification-yields-belief check that turns them
into modular models, the fully-explanatory check, supplementation closure,
and the one-world model construction.  A separate, purely modal countermodel
search over small neighborhood models serves as the semantic oracle for the
sequent-calculus search.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from .axioms import CATALOGUE, ConstantSpecification, instantiate, match_axiom, metavariables
from .generate import random_just_term, random_proof_term
from .syntax import (
    And,
    Apply,
    Atom,
    BOT,
    Bang,
    Bottom,
    Box,
    Dialect,
    DialectError,
    Evidence,
    Formula,
    Implies,
    JustSum,
    JustVar,
    MApply,
    Not,
    Or,
    ProofConst,
    ProofOf,
    ProofVar,
    JustOf,
    JustTerm,
    ProofTerm,
    Sum,
    Term,
    _FrozenRecord,
    _Record,
    check_dialect,
    children,
    formula_children,
    postorder,
    print_formula,
    print_term,
    subterms,
    term_depth,
    terms_in,
)


class BoundExhausted(Exception):
    """The declared depth bound cannot accommodate a required table entry."""


class UnknownWorld(Exception):
    pass


class NotBasicModel(Exception):
    def __init__(self, violations):
        super().__init__(f"{len(violations)} closure/factivity violations")
        self.violations = violations


_EMPTY: frozenset = frozenset()


# ---------------------------------------------------------------------------
# Operations on formula sets


def op_dot(x: frozenset, y) -> set:
    """{F : G -> F is in x for some G in y}."""
    return {f.right for f in x if isinstance(f, Implies) and f.left in y}


def op_circle(x: frozenset, y) -> set:
    """{F : F -> G and G -> F are both in x, for some G in y}."""
    out = set()
    for f in x:
        if isinstance(f, Implies) and f.right in y and Implies(f.right, f.left) in x:
            out.add(f.left)
    return out


def op_prefix(lam, x) -> set:
    """{lam:F : F in x}."""
    return {ProofOf(lam, f) for f in x}


# ---------------------------------------------------------------------------
# Basic evaluations


class FiniteBasicEvaluation(_Record):
    """Finitely many atom values and term entries; everything else defaults
    to false / the empty set.  ``bound`` is the term-depth radius within which
    closure conditions are materialised and checked."""

    dialect: Dialect
    atoms: dict[str, bool]
    table: dict[Term, frozenset[Formula]]
    bound: int
    cs: ConstantSpecification | None

    def __init__(self, dialect, atoms=None, table=None, bound=3, cs=None):
        self.dialect = dialect
        self.atoms = {} if atoms is None else atoms
        self.table = {} if table is None else table
        self.bound = bound
        self.cs = cs

    def entry(self, t: Term) -> frozenset[Formula]:
        return self.table.get(t, _EMPTY)


def _pool(table: dict) -> set[Formula]:
    """All formulas in the entries, closed under subformulas."""
    out: set[Formula] = set()
    for f in set().union(*table.values()):
        out.update(postorder(f, out, formula_children))
    return out


def _all_terms_up_to(dialect: Dialect, leaves: set, bound: int) -> set[Term]:
    # Each term with its depth: a term d deep has children at most d - 1 deep.
    proofs = {l: 1 for l in leaves if isinstance(l, (ProofConst, ProofVar))}
    justs = {l: 1 for l in leaves if isinstance(l, JustVar)} if dialect is Dialect.JEM else {}
    for d in range(2, bound + 1):
        newp: dict = {}
        newj: dict = {}
        for a, da in proofs.items():
            for b, db in proofs.items():
                if max(da, db) == d - 1:
                    newp[Apply(a, b)] = d
                    if dialect is Dialect.JE:
                        newp[Sum(a, b)] = d
            if da == d - 1:
                newp[Bang(a)] = d
                if dialect is Dialect.JE:
                    newj[Evidence(a)] = d
            if dialect is Dialect.JEM:
                for u, du in justs.items():
                    if max(da, du) == d - 1:
                        newj[MApply(a, u)] = d
        if dialect is Dialect.JEM:
            for u, du in justs.items():
                for v, dv in justs.items():
                    if max(du, dv) == d - 1:
                        newj[JustSum(u, v)] = d
        proofs.update(newp)
        justs.update(newj)
    return set(proofs) | set(justs)


def _entry_operands(t: Term) -> tuple[Term, ...]:
    """The terms whose entries ``saturate`` makes a term's entry from, in
    order: its children, then for ``e(s + t)`` also ``e(s)`` and ``e(t)``."""
    if isinstance(t, Evidence) and isinstance(t.proof, Sum):
        return (t.proof, Evidence(t.proof.left), Evidence(t.proof.right))
    return children(t)


def saturate(eps: FiniteBasicEvaluation, terms: tuple[Term, ...] | None = None) -> FiniteBasicEvaluation:
    """Close the table under the dialect's conditions, up to the evaluation's
    bound and with its specification's seeds.

    With ``terms`` given, exactly those terms (and whatever their entries
    depend on) are materialised; otherwise every term of depth <= bound built
    from the table's constants and variables is.  Raises BoundExhausted when a
    requested or declared term does not fit under the bound.  The result is a
    least fixed point: saturating again is a no-op, and every input entry is
    contained in the corresponding output entry.
    """
    dialect = eps.dialect
    if dialect is Dialect.MODAL:
        raise DialectError("basic evaluations exist only for the justification dialects")
    bound, cs = eps.bound, eps.cs
    for t in eps.table:
        check_dialect(t, dialect, Term)
        if term_depth(t) > bound:
            raise BoundExhausted(f"declared entry for {print_term(t)} lies beyond depth {bound}")
    base = {t: frozenset(fs) for t, fs in eps.table.items()}
    pool = _pool(base)
    seeds_by_scheme: dict[str, set[Formula]] = {}
    if cs is not None:
        for f in pool:
            if isinstance(f, Implies):
                for sid, _ in match_axiom(f, dialect):
                    seeds_by_scheme.setdefault(sid, set()).add(f)

    if terms is not None:
        want = list(base)
        for t in terms:
            check_dialect(t, dialect, Term)
            if term_depth(t) > bound:
                raise BoundExhausted(f"requested term {print_term(t)} lies beyond depth {bound}")
            want.append(t)
    else:
        leaves = {l for k in base for l in subterms(k) if not children(l)}
        want = [*_all_terms_up_to(dialect, leaves, bound), *base]
    memo: dict[Term, frozenset] = {}
    for w in want:
        for t in postorder(w, memo, _entry_operands):  # each after its operands
            out = set(base.get(t, _EMPTY))
            if isinstance(t, ProofConst) and cs is not None:
                for sid in cs.schemes_of(t.name):
                    out |= seeds_by_scheme.get(sid, set())
            elif isinstance(t, (Apply, MApply)):  # the applied proof, then its argument
                out |= op_dot(*map(memo.__getitem__, children(t)))
            elif isinstance(t, (Sum, JustSum)):
                out |= memo[t.left] | memo[t.right]
            elif isinstance(t, Bang):
                out |= op_prefix(t.inner, memo[t.inner])
            elif isinstance(t, Evidence):
                if isinstance(t.proof, Sum):
                    out |= memo[Evidence(t.proof.left)] | memo[Evidence(t.proof.right)]
                lam = memo[t.proof]
                while True:
                    grown = op_circle(lam, out) - out
                    if not grown:
                        break
                    out |= grown
            memo[t] = frozenset(out)
    table = {t: fs for t, fs in memo.items() if fs}
    for t, fs in base.items():
        table.setdefault(t, fs)
    return FiniteBasicEvaluation(dialect, dict(eps.atoms), table, bound, cs)


def _operands(f: Formula) -> tuple[Formula, ...]:
    """The subformulas whose truth decides ``f``'s: a connective's operands;
    none for an atom, falsum or assertion, whose truth is looked up."""
    return f._children(f) if isinstance(f, (Implies, And, Or, Not)) else ()


def eval_basic(eps: FiniteBasicEvaluation, f: Formula) -> bool:
    """Truth under the evaluation; term lookups hit the table (default empty).
    Each distinct subformula is evaluated once, after its operands, without
    recursion; every operand is evaluated, so a formula with no truth clause
    anywhere outside an assertion raises ``DialectError``."""
    truth: dict[Formula, bool] = {}
    for g in postorder(f, kids=_operands):
        if isinstance(g, Atom):
            truth[g] = eps.atoms.get(g.name, False)
        elif isinstance(g, Implies):
            truth[g] = not truth[g.left] or truth[g.right]
        elif isinstance(g, Not):
            truth[g] = not truth[g.inner]
        elif isinstance(g, And):
            truth[g] = truth[g.left] and truth[g.right]
        elif isinstance(g, Or):
            truth[g] = truth[g.left] or truth[g.right]
        elif isinstance(g, (ProofOf, JustOf)):
            truth[g] = g.body in eps.entry(g.term)
        elif isinstance(g, Bottom):
            truth[g] = False
        else:
            raise DialectError(f"no truth clause for {print_formula(g)} under a basic evaluation")
    return truth[f]


class Violation(_FrozenRecord):
    kind: str
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.message}"


def check_basic_model(eps: FiniteBasicEvaluation) -> list[Violation]:
    """All closure conditions within the bound, plus factivity of every
    proof-term entry, and closure under the evaluation's specification if
    it has one.  Empty list means the evaluation is a basic model (relative
    to its declared universe and bound)."""
    cs = eps.cs
    dialect = eps.dialect
    bound = eps.bound
    out: list[Violation] = []

    def need(target: Term, required, kind: str):
        if not required or term_depth(target) > bound:
            return
        missing = required - eps.entry(target)
        for f in sorted(missing, key=print_formula):
            out.append(Violation(kind, f"{print_term(target)} lacks {print_formula(f)}"))

    # Terms in printed order, so that the report does not follow the table's.
    keys = sorted((t for t in eps.table if eps.table[t]), key=print_term)
    pkeys = [t for t in keys if isinstance(t, ProofTerm)]
    jkeys = [t for t in keys if isinstance(t, JustTerm)]

    for a in pkeys:
        for b in pkeys:
            need(Apply(a, b), op_dot(eps.entry(a), eps.entry(b)), "application-closure")
            if dialect is Dialect.JE:
                need(Sum(a, b), eps.entry(a) | eps.entry(b), "sum-closure")
        need(Bang(a), op_prefix(a, eps.entry(a)), "introspection-closure")
    if cs is not None:
        pool = _pool(eps.table)
        consts = {l for k in eps.table for l in subterms(k) if isinstance(l, ProofConst)}
        for c in sorted(consts, key=lambda c: c.name):
            schemes = cs.schemes_of(c.name)
            if not schemes:
                continue
            required = set()
            for f in pool:
                if isinstance(f, Implies) and any(s in schemes for s, _ in match_axiom(f, dialect)):
                    required.add(f)
            need(c, required, "specification-closure")
    if dialect is Dialect.JE:
        evs = [t for t in jkeys if isinstance(t, Evidence)]
        for t in evs:
            need(t, op_circle(eps.entry(t.proof), eps.entry(t)), "equivalence-closure")
        for t in evs:
            for s in evs:
                need(Evidence(Sum(t.proof, s.proof)), eps.entry(t) | eps.entry(s), "evidence-sum-closure")
    else:
        for a in pkeys:
            for u in jkeys:
                need(MApply(a, u), op_dot(eps.entry(a), eps.entry(u)), "pairing-closure")
        for u in jkeys:
            for v in jkeys:
                need(JustSum(u, v), eps.entry(u) | eps.entry(v), "sum-closure")
    for a in pkeys:
        for f in sorted(eps.table[a], key=print_formula):
            if not eval_basic(eps, f):
                out.append(
                    Violation(
                        "factivity",
                        f"{print_term(a)} justifies {print_formula(f)}, which is false",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Quasi-models and modular models


class QuasiModel(_Record):
    worlds: tuple[str, ...]
    neighborhoods: dict[str, frozenset[frozenset[str]]]
    evaluations: dict[str, FiniteBasicEvaluation]


def model_truth(m: QuasiModel, w: str, f: Formula) -> bool:
    """Truth at a world is truth under that world's basic evaluation."""
    if w not in m.worlds:
        raise UnknownWorld(w)
    return eval_basic(m.evaluations[w], f)


def truth_set(m: QuasiModel, f: Formula) -> frozenset[str]:
    return frozenset(w for w in m.worlds if model_truth(m, w, f))


def _supersets(x: frozenset, wset: frozenset):
    """The proper supersets of ``x`` within ``wset``: by the number of
    worlds added, and for each number in sorted order of the added ones."""
    rest = sorted(wset - x)
    for k in range(1, len(rest) + 1):
        for extra in combinations(rest, k):
            yield x | frozenset(extra)


def check_modular(m: QuasiModel) -> list[Violation]:
    """Factivity at every world, justification-yields-belief for every
    justification-term entry, and (when every world's evaluation is in the
    monotonic dialect) closure of the neighborhoods under supersets.
    Violations are listed in a fixed order: worlds as the model lists them,
    terms and formulas by their printed form, neighborhoods by their sorted
    members."""
    monotonic = {eps.dialect for eps in m.evaluations.values()} == {Dialect.JEM}
    out: list[Violation] = []
    wset = frozenset(m.worlds)
    for w in m.worlds:
        eps = m.evaluations[w]
        for t in sorted(eps.table, key=print_term):
            formulas = sorted(eps.table[t], key=print_formula)
            if isinstance(t, ProofTerm):
                for f in formulas:
                    if not model_truth(m, w, f):
                        out.append(
                            Violation(
                                "factivity",
                                f"at {w}: {print_term(t)} justifies the false {print_formula(f)}",
                            )
                        )
            else:
                for f in formulas:
                    if truth_set(m, f) not in m.neighborhoods.get(w, frozenset()):
                        out.append(
                            Violation(
                                "justification-yields-belief",
                                f"at {w}: truth set of {print_formula(f)} (via {print_term(t)}) "
                                "is not a neighborhood",
                            )
                        )
        if monotonic:
            fam = m.neighborhoods.get(w, frozenset())
            for x in sorted(fam, key=sorted):
                for y in _supersets(x, wset):
                    if y not in fam:
                        out.append(
                            Violation(
                                "monotonicity",
                                f"at {w}: {sorted(x)} is a neighborhood but {sorted(y)} is not",
                            )
                        )
    return out


def _justified(eps: FiniteBasicEvaluation) -> set[Formula]:
    """Every formula some justification term of ``eps`` justifies."""
    return set().union(*(fs for t, fs in eps.table.items() if isinstance(t, JustTerm)))


def check_fully_explanatory(m: QuasiModel, formula_universe) -> list[tuple[str, Formula]]:
    """Pairs (world, formula) whose truth set is a neighborhood but which no
    justification term in that world's table accounts for."""
    missing = []
    for w in m.worlds:
        justified = _justified(m.evaluations[w])
        for f in formula_universe:
            if truth_set(m, f) in m.neighborhoods.get(w, frozenset()) and f not in justified:
                missing.append((w, f))
    return missing


def monotone_closure(n: dict, worlds) -> dict:
    """Per world, the smallest superset-closed family containing the given one."""
    wset = frozenset(worlds)
    out = {}
    for w, fam in n.items():
        closed = set(fam)
        for x in fam:
            closed.update(_supersets(x, wset))
        out[w] = frozenset(closed)
    return out


def build_singleton_model(eps: FiniteBasicEvaluation) -> QuasiModel:
    """One-world quasi-model whose neighborhoods are exactly the truth sets of
    formulas justified by some justification term; modular by construction
    (supplemented first for the monotonic dialect)."""
    violations = check_basic_model(eps)
    if violations:
        raise NotBasicModel(violations)
    w = "w0"
    fam = frozenset(
        frozenset({w}) if eval_basic(eps, f) else frozenset() for f in _justified(eps)
    )
    n = {w: fam}
    if eps.dialect is Dialect.JEM:
        n = monotone_closure(n, (w,))
    return QuasiModel((w,), n, {w: eps})


# ---------------------------------------------------------------------------
# Soundness fuzzing


class FuzzFailure(_FrozenRecord):
    trial: int
    scheme: str
    formula: str
    model: str


class FuzzReport(_Record):
    dialect: Dialect
    trials: int
    checked: int
    rejected: int
    failures: list[FuzzFailure]

    def __init__(self, dialect, trials, checked=0, rejected=0, failures=None):
        self.dialect = dialect
        self.trials = trials
        self.checked = checked
        self.rejected = rejected
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


_FUZZ_ATOMS = ("A", "B", "C")


def _prop_candidates() -> list[Formula]:
    atoms = [Atom(a) for a in _FUZZ_ATOMS]
    out: list[Formula] = list(atoms) + [BOT]
    out += [Not(a) for a in atoms]
    out += [Implies(a, b) for a in atoms for b in atoms]
    out += [And(atoms[0], atoms[1]), Or(atoms[0], atoms[1]), Or(atoms[1], atoms[2])]
    return out


def soundness_fuzz(dialect: Dialect, trials: int, seed: int = 0) -> FuzzReport:
    """Random factive saturated evaluations versus random axiom-scheme
    instances: every instance must come out true.  Any failure recorded in
    the report is an implementation bug, not a property of the logic."""
    if trials < 0:
        raise ValueError("trials must be non-negative")
    report = FuzzReport(dialect, trials)
    if dialect is Dialect.MODAL:
        raise DialectError("fuzzing targets the justification dialects")
    schemes = CATALOGUE[dialect]
    candidates = _prop_candidates()
    proof_leaves = [ProofVar(0), ProofVar(1)]
    just_leaves = [JustVar(0), JustVar(1)]
    leaves = proof_leaves + just_leaves
    for i in range(trials):
        rng = random.Random(f"{seed}:{i}")
        for _attempt in range(60):
            val = {a: rng.random() < 0.5 for a in _FUZZ_ATOMS}
            eps = FiniteBasicEvaluation(dialect, val, bound=3)
            true_props = [f for f in candidates if eval_basic(eps, f)]
            table = eps.table
            for leaf in proof_leaves:
                if true_props and rng.random() < 0.9:
                    table[leaf] = frozenset(rng.sample(true_props, k=min(len(true_props), rng.randint(1, 3))))
            jkeys = (
                [Evidence(p) for p in proof_leaves]
                if dialect is Dialect.JE
                else list(just_leaves)
            )
            for jk in jkeys:
                if rng.random() < 0.8:
                    table[jk] = frozenset(rng.sample(candidates, k=rng.randint(1, 3)))

            # Cycle through the catalogue so every scheme gets exercised even
            # on short runs; the binding and the model stay random.
            scheme = schemes[i % len(schemes)]
            binding = {}
            # Entries are sets; draw from them in printed order, so a seed
            # picks the same formulas whatever the hashes of the nodes.
            fpool = candidates + [f for fs in table.values() for f in sorted(fs, key=print_formula)]
            for name, kind in sorted(metavariables(scheme.pattern).items()):
                if kind == "formula":
                    binding[name] = rng.choice(fpool)
                elif kind == "proof":
                    binding[name] = random_proof_term(rng, dialect, 2, leaves)
                else:
                    binding[name] = random_just_term(rng, dialect, 2, leaves)
            instance = instantiate(scheme.pattern, binding)
            try:
                sat = saturate(eps, terms=tuple(terms_in(instance)))
            except BoundExhausted:
                continue
            factive = all(
                eval_basic(sat, f)
                for t in sat.table
                if isinstance(t, ProofTerm)
                for f in sat.table[t]
            )
            if not factive:
                report.rejected += 1
                continue
            report.checked += 1
            if not eval_basic(sat, instance):
                summary = "; ".join(
                    f"{print_term(t)}: {{{', '.join(sorted(print_formula(g) for g in fs))}}}"
                    for t, fs in sorted(sat.table.items(), key=lambda kv: print_term(kv[0]))
                )
                report.failures.append(
                    FuzzFailure(i, scheme.id, print_formula(instance), summary)
                )
            break
    return report


# ---------------------------------------------------------------------------
# Neighborhood-model oracle for the modal logics


class ModalCountermodel(_FrozenRecord):
    """A pointed neighborhood model falsifying a formula.  Worlds are bit
    positions; truth sets and neighborhood members are bitmasks."""

    world_count: int
    atom_masks: tuple[tuple[str, int], ...]
    neighborhoods: tuple[int, ...]  # per world: membership bitmap over subset masks
    world: int

    def by_name(self) -> tuple[list[str], dict[str, list[str]], dict[str, list[list[str]]]]:
        """The worlds ``w0``, ``w1``, ..., each atom's truth set and each
        world's neighborhoods, with worlds by name: sets as lists of names
        in world order, neighborhoods in the order of their masks."""
        names = [f"w{i}" for i in range(self.world_count)]

        def set_of(mask):
            return [names[i] for i in range(self.world_count) if mask >> i & 1]

        atoms = {a: set_of(mask) for a, mask in self.atom_masks}
        neighborhoods = {
            names[w]: [set_of(m) for m in range(1 << self.world_count) if bits >> m & 1]
            for w, bits in enumerate(self.neighborhoods)
        }
        return names, atoms, neighborhoods

    def describe(self) -> str:
        names, atoms, neighborhoods = self.by_name()

        def shown(ws):
            return "{" + ", ".join(ws) + "}"

        lines = [f"worlds: {', '.join(names)}"]
        lines += [f"{a} true at {shown(ws)}" for a, ws in atoms.items()]
        lines += [f"N({w}) = {{{', '.join(map(shown, n))}}}" for w, n in neighborhoods.items()]
        lines.append(f"falsified at {names[self.world]}")
        return "\n".join(lines)


_MODAL_OPS = {Atom: "atom", Bottom: "bot", Implies: "imp", And: "and", Or: "or", Not: "not", Box: "box"}


def _compile_modal(f: Formula):
    """The distinct subformulas of ``f`` as instructions, each after the
    instructions of its operands, which it names by position; ``f``'s last."""
    instrs: list[tuple] = []
    index: dict[Formula, int] = {}
    for g in postorder(f):
        op = _MODAL_OPS.get(type(g))
        if op is None:
            raise DialectError(f"{print_formula(g)} is not a modal formula")
        operands = [index[kid] for kid in children(g)] + [None, None]
        index[g] = len(instrs)
        instrs.append((op, g.name if op == "atom" else operands[0], operands[1]))
    return instrs


def _monotone_families(subset_count: int) -> list[int]:
    out = []
    for fam in range(1 << subset_count):
        ok = True
        for m in range(subset_count):
            if fam >> m & 1:
                for m2 in range(subset_count):
                    if (m2 & m) == m and not fam >> m2 & 1:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(fam)
    return out


def find_modal_countermodel(
    f: Formula, logic: str = "E", max_worlds: int = 2
) -> ModalCountermodel | None:
    """Exhaustive search over neighborhood models with up to ``max_worlds``
    worlds; ``logic`` "E" allows arbitrary neighborhoods, "EM" only
    superset-closed ones.  None means no countermodel of that size exists."""
    if logic not in ("E", "EM"):
        raise ValueError(f"unknown modal logic {logic!r}")
    check_dialect(f, Dialect.MODAL)
    instrs = _compile_modal(f)
    atoms = sorted({op[1] for op in instrs if op[0] == "atom"})
    for nw in range(1, max_worlds + 1):
        full = (1 << nw) - 1
        subset_count = 1 << nw
        families = (
            _monotone_families(subset_count) if logic == "EM" else list(range(1 << subset_count))
        )
        for val in product(range(subset_count), repeat=len(atoms)):
            atom_masks = dict(zip(atoms, val))
            for ns in product(families, repeat=nw):
                vals: list[int] = []
                for op, a, b in instrs:
                    if op == "atom":
                        vals.append(atom_masks[a])
                    elif op == "bot":
                        vals.append(0)
                    elif op == "imp":
                        vals.append((~vals[a] | vals[b]) & full)
                    elif op == "and":
                        vals.append(vals[a] & vals[b])
                    elif op == "or":
                        vals.append(vals[a] | vals[b])
                    elif op == "not":
                        vals.append(~vals[a] & full)
                    else:
                        am = vals[a]
                        m = 0
                        for w in range(nw):
                            if ns[w] >> am & 1:
                                m |= 1 << w
                        vals.append(m)
                mask = vals[-1]
                if mask != full:
                    world = next(w for w in range(nw) if not mask >> w & 1)
                    return ModalCountermodel(
                        nw, tuple(sorted(atom_masks.items())), tuple(ns), world
                    )
    return None
