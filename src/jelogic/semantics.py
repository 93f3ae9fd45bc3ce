"""Finite-support semantics for the two justification dialects.

A basic evaluation assigns truth values to atoms and a set of formulas to
every term.  The real objects are infinitary; this module represents the
finitely many entries that matter (a table from terms to formula sets) and
closes them under the dialect's conditions up to a declared term-depth bound.
Every verdict produced here is therefore relative to that bound, which is part
of the evaluation value itself.

The closure conditions push content strictly upward, from subterms into
composites, so the least fixed point at a term is a function of the base
entries at its subterms.  ``saturate`` exploits that: entries are computed by
memoised structural recursion, either for an explicit list of terms (cheap,
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
    Sum,
    Term,
    _FrozenRecord,
    _Record,
    _set,
    check_formula,
    check_just_term,
    check_proof_term,
    formula_children,
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


_PROOF_NODES = (ProofConst, ProofVar, Apply, Sum, Bang)
_JUST_NODES = (Evidence, JustVar, JustSum, MApply)
_EMPTY: frozenset = frozenset()


def _check_term(t: Term, dialect: Dialect) -> None:
    if isinstance(t, _PROOF_NODES):
        check_proof_term(t, dialect)
    elif isinstance(t, _JUST_NODES):
        check_just_term(t, dialect)
    else:
        raise DialectError(f"not a term: {t!r}")


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

    def universe(self) -> tuple[Term, ...]:
        return tuple(self.table)


def _pool(table: dict) -> set[Formula]:
    """All formulas in the entries, closed under subformulas."""
    out: set[Formula] = set()
    stack = [f for fs in table.values() for f in fs]
    while stack:
        f = stack.pop()
        if f in out:
            continue
        out.add(f)
        stack.extend(formula_children(f))
    return out


def _leaf_terms(t: Term):
    for s in subterms(t):
        if isinstance(s, (ProofConst, ProofVar, JustVar)):
            yield s


def _all_terms_up_to(dialect: Dialect, leaves: set, bound: int) -> set[Term]:
    proof_by_depth: dict[int, set] = {1: {l for l in leaves if isinstance(l, (ProofConst, ProofVar))}}
    just_by_depth: dict[int, set] = {1: set()}
    if dialect is Dialect.JEM:
        just_by_depth[1] = {l for l in leaves if isinstance(l, JustVar)}
    for d in range(2, bound + 1):
        proof_below = [t for k in range(1, d) for t in proof_by_depth[k]]
        just_below = [t for k in range(1, d) for t in just_by_depth[k]]
        newp: set = set()
        newj: set = set()
        for a in proof_below:
            da = term_depth(a)
            for b in proof_below:
                if max(da, term_depth(b)) == d - 1:
                    newp.add(Apply(a, b))
                    if dialect is Dialect.JE:
                        newp.add(Sum(a, b))
            if da == d - 1:
                newp.add(Bang(a))
            if dialect is Dialect.JE and da == d - 1:
                newj.add(Evidence(a))
            if dialect is Dialect.JEM:
                for u in just_below:
                    if max(da, term_depth(u)) == d - 1:
                        newj.add(MApply(a, u))
        if dialect is Dialect.JEM:
            for u in just_below:
                du = term_depth(u)
                for v in just_below:
                    if max(du, term_depth(v)) == d - 1:
                        newj.add(JustSum(u, v))
        proof_by_depth[d] = newp
        just_by_depth[d] = newj
    out: set[Term] = set()
    for d in proof_by_depth:
        out |= proof_by_depth[d]
        out |= just_by_depth[d]
    return out


def saturate(
    eps: FiniteBasicEvaluation,
    bound: int | None = None,
    cs: ConstantSpecification | None = None,
    terms: tuple[Term, ...] | None = None,
) -> FiniteBasicEvaluation:
    """Close the table under the dialect's conditions.

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
    if bound is None:
        bound = eps.bound
    if cs is None:
        cs = eps.cs
    for t in eps.table:
        _check_term(t, dialect)
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

    memo: dict[Term, frozenset] = {}

    def star(t: Term) -> frozenset:
        got = memo.get(t)
        if got is not None:
            return got
        out = set(base.get(t, _EMPTY))
        if isinstance(t, ProofConst):
            if cs is not None:
                for sid in cs.schemes_of(t.name):
                    out |= seeds_by_scheme.get(sid, set())
        elif isinstance(t, Apply):
            out |= op_dot(star(t.left), star(t.right))
        elif isinstance(t, Sum):
            out |= star(t.left) | star(t.right)
        elif isinstance(t, Bang):
            out |= op_prefix(t.inner, star(t.inner))
        elif isinstance(t, Evidence):
            if isinstance(t.proof, Sum):
                out |= star(Evidence(t.proof.left)) | star(Evidence(t.proof.right))
            lam = star(t.proof)
            while True:
                grown = op_circle(lam, out) - out
                if not grown:
                    break
                out |= grown
        elif isinstance(t, MApply):
            out |= op_dot(star(t.proof), star(t.just))
        elif isinstance(t, JustSum):
            out |= star(t.left) | star(t.right)
        got = frozenset(out)
        memo[t] = got
        return got

    if terms is not None:
        want: set[Term] = set(base)
        for t in terms:
            _check_term(t, dialect)
            if term_depth(t) > bound:
                raise BoundExhausted(f"requested term {print_term(t)} lies beyond depth {bound}")
            want.update(subterms(t))
    else:
        leaves = {l for k in base for l in _leaf_terms(k)}
        want = _all_terms_up_to(dialect, leaves, bound) | set(base)
    for t in sorted(want, key=term_depth):
        star(t)
    table = {t: fs for t, fs in memo.items() if fs}
    for t, fs in base.items():
        table.setdefault(t, fs)
    return FiniteBasicEvaluation(dialect, dict(eps.atoms), table, bound, cs)


def eval_basic(eps: FiniteBasicEvaluation, f: Formula) -> bool:
    """Truth under the evaluation; term lookups hit the table (default empty)."""
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return eps.atoms.get(f.name, False)
    if isinstance(f, Implies):
        return (not eval_basic(eps, f.left)) or eval_basic(eps, f.right)
    if isinstance(f, And):
        return eval_basic(eps, f.left) and eval_basic(eps, f.right)
    if isinstance(f, Or):
        return eval_basic(eps, f.left) or eval_basic(eps, f.right)
    if isinstance(f, Not):
        return not eval_basic(eps, f.inner)
    if isinstance(f, ProofOf):
        return f.body in eps.entry(f.term)
    if isinstance(f, JustOf):
        return f.body in eps.entry(f.term)
    raise DialectError(f"no truth clause for {print_formula(f)} under a basic evaluation")


class Violation(_FrozenRecord):
    kind: str
    message: str

    def __init__(self, kind, message):
        _set(self, "kind", kind)
        _set(self, "message", message)

    def __str__(self):
        return f"[{self.kind}] {self.message}"


def check_basic_model(
    eps: FiniteBasicEvaluation, cs: ConstantSpecification | None = None
) -> list[Violation]:
    """All closure conditions within the bound, plus factivity of every
    proof-term entry.  Empty list means the evaluation is a basic model
    (relative to its declared universe and bound)."""
    if cs is None:
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

    pkeys = [t for t in eps.table if isinstance(t, _PROOF_NODES) and eps.table[t]]
    jkeys = [t for t in eps.table if isinstance(t, _JUST_NODES) and eps.table[t]]

    for a in pkeys:
        for b in pkeys:
            need(Apply(a, b), op_dot(eps.entry(a), eps.entry(b)), "application-closure")
            if dialect is Dialect.JE:
                need(Sum(a, b), eps.entry(a) | eps.entry(b), "sum-closure")
        need(Bang(a), op_prefix(a, eps.entry(a)), "introspection-closure")
    if cs is not None:
        pool = _pool(eps.table)
        consts = {t for t in eps.table if isinstance(t, ProofConst)}
        consts |= {l for k in eps.table for l in _leaf_terms(k) if isinstance(l, ProofConst)}
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
    for a in eps.table:
        if isinstance(a, _PROOF_NODES):
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

    def __init__(self, worlds, neighborhoods, evaluations):
        self.worlds = worlds
        self.neighborhoods = neighborhoods
        self.evaluations = evaluations


def model_truth(m: QuasiModel, w: str, f: Formula) -> bool:
    """Truth at a world is truth under that world's basic evaluation."""
    if w not in m.worlds:
        raise UnknownWorld(w)
    return eval_basic(m.evaluations[w], f)


def truth_set(m: QuasiModel, f: Formula) -> frozenset[str]:
    return frozenset(w for w in m.worlds if model_truth(m, w, f))


def check_modular(m: QuasiModel, monotonic: bool | None = None) -> list[Violation]:
    """Factivity at every world, justification-yields-belief for every
    justification-term entry, and (for the monotonic dialect) closure of the
    neighborhoods under supersets."""
    dialects = {eps.dialect for eps in m.evaluations.values()}
    if monotonic is None:
        monotonic = dialects == {Dialect.JEM}
    out: list[Violation] = []
    wset = frozenset(m.worlds)
    for w in m.worlds:
        eps = m.evaluations[w]
        for t in eps.table:
            if isinstance(t, _PROOF_NODES):
                for f in eps.table[t]:
                    if not model_truth(m, w, f):
                        out.append(
                            Violation(
                                "factivity",
                                f"at {w}: {print_term(t)} justifies the false {print_formula(f)}",
                            )
                        )
            else:
                for f in eps.table[t]:
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
            for x in fam:
                rest = wset - x
                for k in range(1, len(rest) + 1):
                    for extra in combinations(sorted(rest), k):
                        y = x | frozenset(extra)
                        if y not in fam:
                            out.append(
                                Violation(
                                    "monotonicity",
                                    f"at {w}: {sorted(x)} is a neighborhood but {sorted(y)} is not",
                                )
                            )
    return out


def check_fully_explanatory(m: QuasiModel, formula_universe) -> list[tuple[str, Formula]]:
    """Pairs (world, formula) whose truth set is a neighborhood but which no
    justification term in that world's table accounts for."""
    missing = []
    for w in m.worlds:
        eps = m.evaluations[w]
        justified = set()
        for t in eps.table:
            if isinstance(t, _JUST_NODES):
                justified |= eps.table[t]
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
            rest = sorted(wset - x)
            for k in range(1, len(rest) + 1):
                for extra in combinations(rest, k):
                    closed.add(x | frozenset(extra))
        out[w] = frozenset(closed)
    return out


def build_singleton_model(
    eps: FiniteBasicEvaluation, cs: ConstantSpecification | None = None
) -> QuasiModel:
    """One-world quasi-model whose neighborhoods are exactly the truth sets of
    formulas justified by some justification term; modular by construction
    (supplemented first for the monotonic dialect)."""
    violations = check_basic_model(eps, cs)
    if violations:
        raise NotBasicModel(violations)
    w = "w0"
    justified = set()
    for t in eps.table:
        if isinstance(t, _JUST_NODES):
            justified |= eps.table[t]
    fam = frozenset(
        frozenset({w}) if eval_basic(eps, f) else frozenset() for f in justified
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

    def __init__(self, trial, scheme, formula, model):
        _set(self, "trial", trial)
        _set(self, "scheme", scheme)
        _set(self, "formula", formula)
        _set(self, "model", model)


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


def _rand_proof_term(rng: random.Random, dialect: Dialect, leaves, depth: int):
    if depth <= 1 or rng.random() < 0.4:
        return rng.choice(leaves)
    kinds = ["apply", "bang"] + (["sum"] if dialect is Dialect.JE else [])
    k = rng.choice(kinds)
    if k == "bang":
        return Bang(_rand_proof_term(rng, dialect, leaves, depth - 1))
    a = _rand_proof_term(rng, dialect, leaves, depth - 1)
    b = _rand_proof_term(rng, dialect, leaves, depth - 1)
    return Apply(a, b) if k == "apply" else Sum(a, b)


def _rand_just_term(rng: random.Random, dialect: Dialect, leaves, jleaves, depth: int):
    if dialect is Dialect.JE:
        return Evidence(_rand_proof_term(rng, dialect, leaves, depth - 1))
    if depth <= 1 or rng.random() < 0.5:
        return rng.choice(jleaves)
    if rng.random() < 0.5:
        return MApply(rng.choice(leaves), _rand_just_term(rng, dialect, leaves, jleaves, depth - 1))
    return JustSum(
        _rand_just_term(rng, dialect, leaves, jleaves, depth - 1),
        _rand_just_term(rng, dialect, leaves, jleaves, depth - 1),
    )


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
                    binding[name] = _rand_proof_term(rng, dialect, proof_leaves, 2)
                else:
                    binding[name] = _rand_just_term(rng, dialect, proof_leaves, just_leaves, 2)
            instance = instantiate(scheme.pattern, binding)
            try:
                sat = saturate(eps, terms=tuple(terms_in(instance)))
            except BoundExhausted:
                continue
            factive = all(
                eval_basic(sat, f)
                for t in sat.table
                if isinstance(t, _PROOF_NODES)
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

    def __init__(self, world_count, atom_masks, neighborhoods, world):
        _set(self, "world_count", world_count)
        _set(self, "atom_masks", atom_masks)
        _set(self, "neighborhoods", neighborhoods)
        _set(self, "world", world)

    def describe(self) -> str:
        names = [f"w{i}" for i in range(self.world_count)]

        def set_of(mask):
            return "{" + ", ".join(names[i] for i in range(self.world_count) if mask >> i & 1) + "}"

        lines = [f"worlds: {', '.join(names)}"]
        for a, mask in self.atom_masks:
            lines.append(f"{a} true at {set_of(mask)}")
        for i, bits in enumerate(self.neighborhoods):
            members = [set_of(m) for m in range(1 << self.world_count) if bits >> m & 1]
            lines.append(f"N({names[i]}) = {{{', '.join(members)}}}")
        lines.append(f"falsified at {names[self.world]}")
        return "\n".join(lines)


def _compile_modal(f: Formula):
    instrs: list[tuple] = []
    index: dict[Formula, int] = {}

    def go(g: Formula) -> int:
        got = index.get(g)
        if got is not None:
            return got
        if isinstance(g, Atom):
            instrs.append(("atom", g.name, None))
        elif isinstance(g, Bottom):
            instrs.append(("bot", None, None))
        elif isinstance(g, Implies):
            instrs.append(("imp", go(g.left), go(g.right)))
        elif isinstance(g, And):
            instrs.append(("and", go(g.left), go(g.right)))
        elif isinstance(g, Or):
            instrs.append(("or", go(g.left), go(g.right)))
        elif isinstance(g, Not):
            instrs.append(("not", go(g.inner), None))
        elif isinstance(g, Box):
            instrs.append(("box", go(g.body), None))
        else:
            raise DialectError(f"{print_formula(g)} is not a modal formula")
        index[g] = len(instrs) - 1
        return index[g]

    go(f)
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
    check_formula(f, Dialect.MODAL)
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
