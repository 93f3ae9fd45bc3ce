"""Equal means identical: however a term or formula is built (parsed,
substituted, instantiated from a scheme, copied or rebuilt from its fields),
the result is the one live node with its class and fields."""

import copy
import pickle
import random
import re
from dataclasses import fields, is_dataclass, replace

import pytest

from jelogic.axioms import FormulaMeta, JustMeta, ProofMeta, instantiate, match, scheme_by_id
from jelogic.generate import random_theorem
from jelogic.hilbert import AxiomStep
from jelogic.semantics import FiniteBasicEvaluation, eval_basic
from jelogic.syntax import (
    Atom,
    Bang,
    Box,
    Dialect,
    DialectError,
    Implies,
    JustOf,
    JustVar,
    Not,
    ProofConst,
    ProofTerm,
    ProofVar,
    Substitution,
    _Node,
    apply_substitution,
    check_dialect,
    children,
    forgetful,
    parse_formula,
    print_formula,
    print_term,
    subterms,
    term_depth,
)

from _helpers import fragment_formulas

# Random hypothesis-free derivations (seeds 0..39) and the criterion-6 fragment.
SOURCES = {
    d: [random_theorem(random.Random(seed), d) for seed in range(40)]
    for d in (Dialect.JE, Dialect.JEM)
}
DIALECTS = [Dialect.JE, Dialect.JEM, Dialect.MODAL]


def _formulas(dialect):
    if dialect is Dialect.MODAL:
        return fragment_formulas()
    return [s.formula for d in SOURCES[dialect] for s in d.steps]


def _children(node):
    return [v for v in (getattr(node, f.name) for f in fields(node)) if isinstance(v, _Node)]


def _nodes(roots, kids=_children):
    """Every distinct node under ``roots``, walked through ``kids``."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(kids(node))
    return seen


@pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: d.value)
def test_reparsing_the_printed_formula_returns_it(dialect):
    for f in _formulas(dialect):
        assert parse_formula(print_formula(f), dialect) is f


@pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: d.value)
def test_the_empty_substitution_returns_the_formula(dialect):
    empty = Substitution()
    for f in _formulas(dialect):
        assert apply_substitution(f, empty) is f


@pytest.mark.parametrize("dialect", [Dialect.JE, Dialect.JEM], ids=lambda d: d.value)
def test_instantiating_an_axiom_step_returns_its_formula(dialect):
    steps = [s for d in SOURCES[dialect] for s in d.steps if isinstance(s, AxiomStep)]
    assert steps
    for step in steps:
        pattern = scheme_by_id(step.scheme, dialect).pattern
        assert instantiate(pattern, match(pattern, step.formula)) is step.formula


@pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: d.value)
def test_rebuilding_a_node_from_its_fields_returns_it(dialect):
    for node in _nodes(_formulas(dialect)):
        assert type(node)(*(getattr(node, f.name) for f in fields(node))) is node


def test_copies_are_the_node_itself():
    f = parse_formula("[e(!c0 * (p1 + p1))]A -> ~c0:(A & _|_)", Dialect.JE)
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def _chain(cls, leaf, levels, *before):
    """``levels`` nested ``cls`` nodes over ``leaf``, each with the fields
    ``before`` ahead of its child."""
    node = leaf
    for _ in range(levels):
        node = cls(*before, node)
    return node


def test_copies_of_a_node_deeper_than_the_recursion_limit():
    n = 5000
    a, x0 = Atom("A"), JustVar(0)
    nots = _chain(Not, a, n)
    bangs = _chain(Bang, ProofVar(0), n)
    justs = _chain(JustOf, a, n, x0)
    for node in (nots, bangs, justs):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert copy.deepcopy([node, (node,)])[1][0] is node
        assert pickle.loads(pickle.dumps(node)) is node
    assert repr(nots) == "Not(inner=" * n + "Atom(name='A')" + ")" * n
    assert repr(bangs) == "Bang(inner=" * n + "ProofVar(index=0)" + ")" * n
    assert repr(justs) == "JustOf(term=JustVar(index=0), body=" * n + "Atom(name='A')" + ")" * n
    assert print_formula(nots) == "~" * n + "A"
    assert print_term(bangs) == "!" * n + "p0"
    assert print_formula(justs) == "[x0]" * n + "A"
    assert forgetful(nots) is nots
    assert forgetful(justs) is _chain(Box, a, n)
    b = Atom("B")
    s = Substitution(atoms={"A": b}, proof_vars={0: ProofConst("c0")}, just_vars={0: JustVar(1)})
    assert apply_substitution(nots, s) is _chain(Not, b, n)
    assert apply_substitution(bangs, s) is _chain(Bang, ProofConst("c0"), n)
    assert apply_substitution(justs, s) is _chain(JustOf, b, n, JustVar(1))
    check_dialect(nots, Dialect.MODAL)
    check_dialect(bangs, Dialect.JE, ProofTerm)
    check_dialect(justs, Dialect.JEM)
    with pytest.raises(DialectError, match="justification variables belong to JEM only"):
        check_dialect(justs, Dialect.JE)
    assert term_depth(bangs) == n + 1
    eps = FiniteBasicEvaluation(Dialect.JE, {"A": True})
    assert eval_basic(eps, nots) is True
    assert eval_basic(eps, _chain(Implies, Not(a), n, a)) is False  # A -> ... -> A -> ~A
    assert subterms(bangs)[::n] == [ProofVar(0), bangs]


def test_equality_and_hash_are_identity():
    classes = _Node.__subclasses__()
    assert len(classes) == 18
    for cls in classes:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_fields_may_be_passed_by_keyword():
    a, b = Atom("A"), Atom("B")
    assert Atom(name="A") is a
    assert Implies(a, right=b) is Implies(right=b, left=a) is Implies(a, b)
    f = parse_formula("[e(c0 + p1)]~A -> _|_", Dialect.JE)
    assert replace(f, right=f.left.body) is parse_formula("[e(c0 + p1)]~A -> ~A", Dialect.JE)


@pytest.mark.parametrize(
    "positional, named, message",
    [
        (0, (), "Implies() takes the fields ('left', 'right'), got 0 values"),
        (3, (), "Implies() takes the fields ('left', 'right'), got 3 values"),
        (1, ("left",), "Implies() got multiple values for 'left'"),
        (1, ("rigth",), "Implies() got an unexpected keyword argument 'rigth'"),
        (0, ("right",), "Implies() missing field 'left'"),
    ],
    ids=["none", "too-many", "twice", "unknown", "missing"],
)
def test_a_missing_or_unknown_field_names_the_class(positional, named, message):
    a = Atom("A")
    with pytest.raises(TypeError, match=re.escape(message)):
        Implies(*[a] * positional, **dict.fromkeys(named, a))


def _node_classes():
    return [*_Node.__subclasses__(), FormulaMeta, ProofMeta, JustMeta]


def test_node_classes_are_dataclasses_whose_fields_match_their_patterns():
    for cls in _node_classes():
        assert is_dataclass(cls)
        assert tuple(f.name for f in fields(cls)) == cls.__match_args__


def test_children_are_the_fields_of_a_node_or_none():
    """The generic walks rest on this: every field of a class with children
    holds a node, no field of a leaf does, and a node rebuilt from its
    children is itself."""
    samples = [
        parse_formula(text, dialect)
        for text, dialect in [
            ("[e(!c0 * (p1 + p1))]A -> ~c0:(A & _|_)", Dialect.JE),
            ("[m(p0, x0 + x1)]A | B", Dialect.JEM),
            ("[]A", Dialect.MODAL),
        ]
    ] + [scheme_by_id("jm", Dialect.JEM).pattern, scheme_by_id("pl_k", Dialect.JE).pattern]
    by_class = {type(node): node for node in _nodes(samples, children)}
    assert set(by_class) == set(_node_classes())
    for cls, node in by_class.items():
        values = [getattr(node, f.name) for f in fields(node)]
        kids = children(node)
        if kids:
            assert kids == tuple(values) and type(node)(*kids) is node, cls
        else:
            assert not any(isinstance(v, (_Node, FormulaMeta, ProofMeta, JustMeta)) for v in values), cls
    with pytest.raises(TypeError, match="not a node"):
        children("A")


def test_nodes_are_immutable():
    f = parse_formula("A -> B", Dialect.MODAL)
    with pytest.raises(AttributeError):
        f.left = f.right
    with pytest.raises(AttributeError):
        del f.left
    with pytest.raises(AttributeError):
        f.extra = 1
    assert print_formula(f) == "A -> B"


def test_node_repr_is_the_dataclass_format():
    f = parse_formula("[e(c0 + p1)]~A -> _|_", Dialect.JE)
    assert repr(f) == (
        "Implies(left=JustOf(term=Evidence(proof=Sum(left=ProofConst(name='c0'), "
        "right=ProofVar(index=1))), body=Not(inner=Atom(name='A'))), right=Bottom())"
    )
    assert repr(FormulaMeta("F")) == "FormulaMeta(name='F')"


def test_metavariables_are_hash_consed():
    assert FormulaMeta("F") is FormulaMeta("F") is FormulaMeta(name="F")
    assert FormulaMeta("F") != ProofMeta("F")
    assert copy.deepcopy(FormulaMeta("F")) is FormulaMeta("F")
