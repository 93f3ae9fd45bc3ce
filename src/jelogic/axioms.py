"""Axiom schemes for JE and JEM, pattern matching, and constant specifications.

Schemes are formula trees containing metavariable leaves: ``FormulaMeta`` in
formula positions, ``ProofMeta`` / ``JustMeta`` in term positions.  Matching a
concrete formula against a scheme produces a binding (metavariable name to
value) or fails; repeated metavariables must bind identically, which is what
separates e.g. ``p0:A -> A`` (an instance of the factivity scheme) from
``p0:A -> B`` (no instance at all).

Both dialects share one fixed propositional Hilbert basis over ``->``, ``_|_``,
``&``, ``|``, ``~`` (scheme ids ``pl_*``).  The basis is classical: it is the
standard intuitionistic list plus double negation elimination.  The list is
deliberately non-minimal (``pl_efq`` is derivable from the rest) because the
internalization transform is simpler with it present.  docs/axioms.md spells
out every scheme.

A constant specification assigns proof constants to *scheme ids*, never to
individual instances, so specifications are schematic by construction and
closed under substitution.  ``cs_total`` gives every scheme its own constant
``c_<scheme id>``.
"""

from __future__ import annotations

from typing import Mapping

from .syntax import (
    And,
    Apply,
    Atom,
    Bang,
    Bottom,
    Box,
    Dialect,
    Evidence,
    Formula,
    Implies,
    JustOf,
    JustSum,
    JustTerm,
    JustVar,
    MApply,
    Not,
    Or,
    ProofConst,
    ProofOf,
    ProofTerm,
    ProofVar,
    Sum,
    _FrozenRecord,
    _HashConsed,
    _set,
)


# Metavariables are the leaves of axiom patterns.  They are hash-consed like
# the term and formula nodes they sit among.


class FormulaMeta(_HashConsed):
    name: str


class ProofMeta(_HashConsed):
    name: str


class JustMeta(_HashConsed):
    name: str


class AxiomScheme(_FrozenRecord):
    id: str
    pattern: Formula

    def __init__(self, id, pattern):
        _set(self, "id", id)
        _set(self, "pattern", pattern)

    def __repr__(self):
        return f"AxiomScheme({self.id})"


Binding = Mapping[str, object]


def match(pattern, value, binding: dict | None = None) -> dict | None:
    """Match ``value`` against ``pattern``; return the (extended) binding or
    None.  Works uniformly on formulas and terms."""
    if binding is None:
        binding = {}
    match pattern:
        case FormulaMeta(name) | ProofMeta(name) | JustMeta(name):
            if name in binding:
                return binding if binding[name] == value else None
            binding = dict(binding)
            binding[name] = value
            return binding
        case Atom() | Bottom() | ProofConst() | ProofVar() | JustVar():
            return binding if pattern == value else None
        case Implies(pl, pr):
            if not isinstance(value, Implies):
                return None
        case And(pl, pr):
            if not isinstance(value, And):
                return None
        case Or(pl, pr):
            if not isinstance(value, Or):
                return None
        case Not(pi):
            if not isinstance(value, Not):
                return None
            return match(pi, value.inner, binding)
        case Box(pi):
            if not isinstance(value, Box):
                return None
            return match(pi, value.body, binding)
        case ProofOf(pt, pb):
            if not isinstance(value, ProofOf):
                return None
            b = match(pt, value.term, binding)
            return None if b is None else match(pb, value.body, b)
        case JustOf(pt, pb):
            if not isinstance(value, JustOf):
                return None
            b = match(pt, value.term, binding)
            return None if b is None else match(pb, value.body, b)
        case Apply(pl, pr):
            if not isinstance(value, Apply):
                return None
        case Sum(pl, pr):
            if not isinstance(value, Sum):
                return None
        case JustSum(pl, pr):
            if not isinstance(value, JustSum):
                return None
        case Bang(pi):
            if not isinstance(value, Bang):
                return None
            return match(pi, value.inner, binding)
        case Evidence(pi):
            if not isinstance(value, Evidence):
                return None
            return match(pi, value.proof, binding)
        case MApply(pl, pr):
            if not isinstance(value, MApply):
                return None
            b = match(pl, value.proof, binding)
            return None if b is None else match(pr, value.just, b)
        case _:
            raise TypeError(f"not a pattern: {pattern!r}")
    # shared two-child fall-through for Implies/And/Or/Apply/Sum/JustSum
    left_p, right_p = pattern.left, pattern.right
    b = match(left_p, value.left, binding)
    return None if b is None else match(right_p, value.right, b)


def instantiate(pattern, binding: Binding):
    """Replace every metavariable in ``pattern`` by its binding value."""
    match pattern:
        case FormulaMeta(name) | ProofMeta(name) | JustMeta(name):
            return binding[name]
        case Atom() | Bottom() | ProofConst() | ProofVar() | JustVar():
            return pattern
        case Implies(l, r):
            return Implies(instantiate(l, binding), instantiate(r, binding))
        case And(l, r):
            return And(instantiate(l, binding), instantiate(r, binding))
        case Or(l, r):
            return Or(instantiate(l, binding), instantiate(r, binding))
        case Not(i):
            return Not(instantiate(i, binding))
        case Box(i):
            return Box(instantiate(i, binding))
        case ProofOf(t, b):
            return ProofOf(instantiate(t, binding), instantiate(b, binding))
        case JustOf(t, b):
            return JustOf(instantiate(t, binding), instantiate(b, binding))
        case Apply(l, r):
            return Apply(instantiate(l, binding), instantiate(r, binding))
        case Sum(l, r):
            return Sum(instantiate(l, binding), instantiate(r, binding))
        case JustSum(l, r):
            return JustSum(instantiate(l, binding), instantiate(r, binding))
        case Bang(i):
            return Bang(instantiate(i, binding))
        case Evidence(i):
            return Evidence(instantiate(i, binding))
        case MApply(l, r):
            return MApply(instantiate(l, binding), instantiate(r, binding))
    raise TypeError(f"not a pattern: {pattern!r}")


_META_KINDS = {FormulaMeta: "formula", ProofMeta: "proof", JustMeta: "just"}


def metavariables(pattern) -> dict[str, str]:
    """Every metavariable of ``pattern``, name to kind: "formula", "proof"
    or "just"."""
    out: dict[str, str] = {}
    stack = [pattern]
    while stack:
        node = stack.pop()
        kind = _META_KINDS.get(type(node))
        if kind is not None:
            out[node.name] = kind
            continue
        for attr in ("left", "right", "inner", "proof", "just", "term", "body"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, str):
                stack.append(child)
    return out


# ---------------------------------------------------------------------------
# The catalogue

_F = FormulaMeta("F")
_G = FormulaMeta("G")
_H = FormulaMeta("H")
_L = ProofMeta("L")
_K = ProofMeta("K")
_T = JustMeta("T")
_S = JustMeta("S")


def _imp(*fs):
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Implies(f, out)
    return out


PROPOSITIONAL_SCHEMES = (
    AxiomScheme("pl_k", _imp(_F, _G, _F)),
    AxiomScheme("pl_s", Implies(_imp(_F, _G, _H), _imp(Implies(_F, _G), _F, _H))),
    AxiomScheme("pl_efq", Implies(Bottom(), _F)),
    AxiomScheme("pl_neg_elim", _imp(Not(_F), _F, Bottom())),
    AxiomScheme("pl_neg_intro", Implies(Implies(_F, Bottom()), Not(_F))),
    AxiomScheme("pl_dne", Implies(Not(Not(_F)), _F)),
    AxiomScheme("pl_and_intro", _imp(_F, _G, And(_F, _G))),
    AxiomScheme("pl_and_elim_l", Implies(And(_F, _G), _F)),
    AxiomScheme("pl_and_elim_r", Implies(And(_F, _G), _G)),
    AxiomScheme("pl_or_intro_l", Implies(_F, Or(_F, _G))),
    AxiomScheme("pl_or_intro_r", Implies(_G, Or(_F, _G))),
    AxiomScheme("pl_or_elim", _imp(Implies(_F, _H), Implies(_G, _H), Implies(Or(_F, _G), _H))),
)

_JE_ONLY = (
    AxiomScheme("j", _imp(ProofOf(_L, Implies(_F, _G)), ProofOf(_K, _F), ProofOf(Apply(_L, _K), _G))),
    AxiomScheme("jplus1", Implies(Or(ProofOf(_L, _F), ProofOf(_K, _F)), ProofOf(Sum(_L, _K), _F))),
    AxiomScheme("jt", Implies(ProofOf(_L, _F), _F)),
    AxiomScheme("j4", Implies(ProofOf(_L, _F), ProofOf(Bang(_L), ProofOf(_L, _F)))),
    AxiomScheme(
        "je",
        Implies(
            And(ProofOf(_L, Implies(_F, _G)), ProofOf(_L, Implies(_G, _F))),
            Implies(JustOf(Evidence(_L), _F), JustOf(Evidence(_L), _G)),
        ),
    ),
    AxiomScheme(
        "jeplus",
        Implies(
            Or(JustOf(Evidence(_L), _F), JustOf(Evidence(_K), _F)),
            JustOf(Evidence(Sum(_L, _K)), _F),
        ),
    ),
)

_JEM_ONLY = (
    AxiomScheme("j", _imp(ProofOf(_L, Implies(_F, _G)), ProofOf(_K, _F), ProofOf(Apply(_L, _K), _G))),
    AxiomScheme("jt", Implies(ProofOf(_L, _F), _F)),
    AxiomScheme("j4", Implies(ProofOf(_L, _F), ProofOf(Bang(_L), ProofOf(_L, _F)))),
    AxiomScheme(
        "jm",
        Implies(ProofOf(_L, Implies(_F, _G)), Implies(JustOf(_T, _F), JustOf(MApply(_L, _T), _G))),
    ),
    AxiomScheme("jplus2", Implies(Or(JustOf(_T, _F), JustOf(_S, _F)), JustOf(JustSum(_T, _S), _F))),
)

CATALOGUE: dict[Dialect, tuple[AxiomScheme, ...]] = {
    Dialect.JE: _JE_ONLY + PROPOSITIONAL_SCHEMES,
    Dialect.JEM: _JEM_ONLY + PROPOSITIONAL_SCHEMES,
}


def scheme_by_id(scheme_id: str, dialect: Dialect) -> AxiomScheme:
    for s in CATALOGUE[dialect]:
        if s.id == scheme_id:
            return s
    raise KeyError(f"no scheme {scheme_id!r} in {dialect.value}")


def match_axiom(f: Formula, dialect: Dialect) -> list[tuple[str, dict]]:
    """All (scheme id, binding) pairs under which ``f`` is an axiom instance,
    sorted by scheme id.  Empty list when ``f`` is no axiom."""
    out = []
    for scheme in CATALOGUE[dialect]:
        b = match(scheme.pattern, f)
        if b is not None:
            out.append((scheme.id, b))
    return sorted(out, key=lambda p: p[0])


# ---------------------------------------------------------------------------
# Constant specifications


class UnknownScheme(Exception):
    pass


class ConstantSpecification(_FrozenRecord):
    """Intensional map from proof constant names to sets of scheme ids."""

    dialect: Dialect
    assignment: Mapping[str, frozenset[str]]

    def __init__(self, dialect, assignment=None):
        _set(self, "dialect", dialect)
        _set(self, "assignment", {} if assignment is None else assignment)
        known = {s.id for s in CATALOGUE[dialect]}
        for const, ids in self.assignment.items():
            bad = set(ids) - known
            if bad:
                raise UnknownScheme(f"constant {const} assigned unknown schemes {sorted(bad)}")

    def schemes_of(self, constant: str) -> frozenset[str]:
        return self.assignment.get(constant, frozenset())

    def constants_for(self, scheme_id: str) -> list[str]:
        """Constants covering a scheme, lexicographically sorted."""
        return sorted(c for c, ids in self.assignment.items() if scheme_id in ids)


def cs_contains(cs: ConstantSpecification, constant: str, f: Formula) -> bool:
    """True when ``f`` instantiates some scheme assigned to ``constant``."""
    return any(
        match(scheme_by_id(sid, cs.dialect).pattern, f) is not None for sid in cs.schemes_of(constant)
    )


def check_axiomatically_appropriate(cs: ConstantSpecification) -> frozenset[str]:
    """Scheme ids of the dialect that no constant covers (empty means the
    specification is axiomatically appropriate)."""
    covered = frozenset().union(*cs.assignment.values()) if cs.assignment else frozenset()
    return frozenset(s.id for s in CATALOGUE[cs.dialect]) - covered


def cs_total(dialect: Dialect) -> ConstantSpecification:
    """One dedicated constant ``c_<scheme id>`` per scheme."""
    return ConstantSpecification(
        dialect,
        {f"c_{s.id}": frozenset({s.id}) for s in CATALOGUE[dialect]},
    )
