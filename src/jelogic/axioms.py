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
    Bang,
    Bottom,
    Dialect,
    Evidence,
    Formula,
    Implies,
    JustOf,
    JustSum,
    MApply,
    Not,
    Or,
    ProofOf,
    Sum,
    _FrozenRecord,
    _HashConsed,
    _set,
    children,
    postorder,
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

    def __repr__(self):
        return f"AxiomScheme({self.id})"


Binding = Mapping[str, object]


_META_KINDS = {FormulaMeta: "formula", ProofMeta: "proof", JustMeta: "just"}


def match(pattern, value, binding: dict | None = None) -> dict | None:
    """Match ``value`` against ``pattern``; return the (extended) binding or
    None.  Works uniformly on formulas and terms."""
    if binding is None:
        binding = {}
    if type(pattern) in _META_KINDS:
        name = pattern.name
        if name in binding:
            return binding if binding[name] == value else None
        binding = dict(binding)
        binding[name] = value
        return binding
    kids = children(pattern)
    if type(value) is not type(pattern):
        return None
    if not kids:
        return binding if pattern == value else None
    for kid, value_kid in zip(kids, children(value)):
        binding = match(kid, value_kid, binding)
        if binding is None:
            return None
    return binding


def instantiate(pattern, binding: Binding):
    """Replace every metavariable in ``pattern`` by its binding value."""
    if type(pattern) in _META_KINDS:
        return binding[pattern.name]
    kids = children(pattern)
    return type(pattern)(*(instantiate(kid, binding) for kid in kids)) if kids else pattern


def metavariables(pattern) -> dict[str, str]:
    """Every metavariable of ``pattern``, name to kind: "formula", "proof"
    or "just"."""
    return {node.name: _META_KINDS[type(node)] for node in postorder(pattern) if type(node) in _META_KINDS}


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

    # Frozen, but ``assignment`` is a dict: declared unhashable so that
    # ``hash`` names this class rather than the dict.
    __hash__ = None

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
