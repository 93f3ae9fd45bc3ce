"""The node and record classes are plain slotted classes: importing the
package compiles no code, and the classes keep the contract they had as
dataclasses (fields, ``replace``, ``repr``, equality, hashing, immutability,
copying and pickling)."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import re
import types

import pytest

import jelogic
from jelogic import Dialect, Sequent, compute_families, cs_total
from jelogic.axioms import ConstantSpecification, UnknownScheme
from jelogic.hilbert import Hyp, MPStep
from jelogic.semantics import FiniteBasicEvaluation, FuzzReport, QuasiModel
from jelogic.syntax import Atom, Bottom, Implies, Substitution, _Record

from _helpers import proof_of, realize_text

A = Atom("A")


def _classes():
    """Every class defined in one of jelogic's modules."""
    for info in pkgutil.iter_modules(jelogic.__path__):
        module = importlib.import_module(f"jelogic.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def _functions(cls):
    for value in vars(cls).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        candidates = [value.fget, value.fset, value.fdel] if isinstance(value, property) else [value]
        for f in candidates:
            while isinstance(f, types.FunctionType):
                yield f
                f = getattr(f, "__wrapped__", None)


def test_no_class_carries_generated_code():
    classes = list(_classes())
    functions = [f for cls in classes for f in _functions(cls)]
    assert len(classes) > 40 and len(functions) > 40
    generated = [f.__qualname__ for f in functions if f.__code__.co_filename == "<string>"]
    assert generated == []


def test_frozen_records_are_immutable():
    s = Sequent((A,), (A,))
    for record in (s, MPStep(Hyp(Implies(A, Bottom())), Hyp(A)), realize_text("=> []A -> []A", "GE").derivation):
        name = dataclasses.fields(record)[0].name
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert s.ante == (A,)


def test_mutable_records_take_assignments_and_are_unhashable():
    report = FuzzReport(Dialect.JE, 10)
    report.checked += 1
    assert report == FuzzReport(Dialect.JE, 10, checked=1)
    p = proof_of("=> [](A & B) -> []A", "GM")
    eps = FiniteBasicEvaluation(Dialect.JE)
    records = [report, eps, QuasiModel(("w",), {}, {"w": eps}), compute_families(p)]
    for record in records:
        with pytest.raises(TypeError):
            hash(record)


def test_frozen_records_over_dicts_are_unhashable_by_name():
    r = realize_text("=> []A -> []A", "GE")
    subst = Substitution(proof_vars={0: r.log[0].term})
    for record in (r, subst, r.cs):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(record).__name__}'"):
            hash(record)
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record
    assert subst != Substitution() and r.cs != ConstantSpecification(Dialect.JE)


def test_record_reprs_are_the_dataclass_format():
    s = Sequent((A,), (Implies(A, Bottom()),))
    assert repr(s) == "Sequent(ante=(Atom(name='A'),), succ=(Implies(left=Atom(name='A'), right=Bottom()),))"
    assert repr(MPStep(Hyp(Implies(A, Bottom())), Hyp(A))) == (
        "MPStep(major=Hyp(formula=Implies(left=Atom(name='A'), right=Bottom())), minor=Hyp(formula=Atom(name='A')))"
    )
    r = realize_text("=> []A -> []A", "GE")
    assert repr(r).startswith("RealizationResult(calculus='GE', dialect=<Dialect.JE: 'JE'>, antecedent=(), ")
    assert repr(r).endswith(", mode='strict')")


def test_records_survive_pickle_and_copy():
    r = realize_text("=> [](A & B) -> []A", "GM")
    for record in (r.source.sequent, r.source, r.derivation, r):
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record
    assert hash(pickle.loads(pickle.dumps(r.source))) == hash(r.source)
    assert copy.deepcopy(r.source).sequent.succ[0] is r.source.sequent.succ[0]


def test_replace_builds_an_updated_record():
    s = Sequent((A,), (A,))
    assert dataclasses.replace(s, succ=()) == Sequent((A,), ())
    r = realize_text("=> []A -> []A", "GE")
    twin = dataclasses.replace(r, mode="simplified")
    assert twin.mode == "simplified" and twin.derivation is r.derivation and twin.source is r.source


def test_defaults_are_fresh_per_instance():
    assert Substitution().is_empty() and Substitution().atoms is not Substitution().atoms
    one, other = FiniteBasicEvaluation(Dialect.JE), FiniteBasicEvaluation(Dialect.JE)
    assert (one.atoms, one.table, one.bound, one.cs) == ({}, {}, 3, None) and one.table is not other.table
    assert FuzzReport(Dialect.JE, 1).failures is not FuzzReport(Dialect.JE, 1).failures
    assert ConstantSpecification(Dialect.JE).assignment == {}


def test_constant_specifications_validate_on_construction():
    with pytest.raises(UnknownScheme):
        ConstantSpecification(Dialect.JE, {"c0": frozenset({"nope"})})
    cs = cs_total(Dialect.JEM)
    assert dataclasses.replace(cs) == cs


def _shared_initializer_classes():
    """The record classes that take the shared initializer (the bases have
    no fields)."""
    return [
        cls for cls in _classes()
        if issubclass(cls, _Record) and cls.__init__ is _Record.__init__ and "__match_args__" in vars(cls)
    ]


def test_records_take_their_fields_by_position_or_by_keyword():
    classes = _shared_initializer_classes()
    assert len(classes) == 13
    for cls in classes:
        names = cls.__match_args__
        values = [object() for _ in names]
        record = cls(*values)
        assert [getattr(record, name) for name in names] == values
        assert cls(**dict(zip(names, values))) == record
        assert cls(values[0], **dict(zip(names[1:], values[1:]))) == record
        assert dataclasses.replace(record) == record
        new = object()
        assert getattr(dataclasses.replace(record, **{names[-1]: new}), names[-1]) is new
        twin = copy.copy(record)  # shallow: the same field values
        assert twin is not record and all(getattr(twin, name) is getattr(record, name) for name in names)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cls, values: cls(*values[:-1]), "{cls}() takes the fields {names}, got {short} values"),
        (lambda cls, values: cls(*values, None), "{cls}() takes the fields {names}, got {long} values"),
        (lambda cls, values: cls(*values[:-2], **{cls.__match_args__[-2]: None}), "{cls}() missing field {last!r}"),
        (lambda cls, values: cls(*values, rigth=None), "{cls}() got an unexpected keyword argument 'rigth'"),
        (lambda cls, values: cls(*values, **{cls.__match_args__[0]: None}), "{cls}() got multiple values for {first!r}"),
    ],
    ids=["missing", "extra", "missing-keyword", "unknown", "twice"],
)
def test_records_reject_their_fields_as_nodes_do(call, message):
    classes = [cls for cls in _shared_initializer_classes() if len(cls.__match_args__) > 1]
    for cls in [*classes, Implies, MPStep]:
        names = cls.__match_args__
        text = message.format(
            cls=cls.__name__, names=names, short=len(names) - 1, long=len(names) + 1, first=names[0], last=names[-1]
        )
        with pytest.raises(TypeError, match=re.escape(text)):
            call(cls, [Atom("A")] * len(names))


def test_a_realization_pickles_as_one_table_of_its_nodes():
    """Steps, formulas and terms shared between the steps of a derivation,
    and between the derivations of a realization, are written once."""
    for n in (16, 32):
        boxes = "[]" * n
        r = realize_text(f"{boxes}A => {boxes}A", "GM", depth=n + 2)
        conclusion = len(pickle.dumps(r.derivation.conclusion))
        data = pickle.dumps(r.derivation)
        assert len(data) <= 2 * conclusion
        back = pickle.loads(data)
        assert all(a is b for a, b in zip(back.steps, r.derivation.steps, strict=True))
        assert back.conclusion is r.derivation.conclusion
        # Beyond its conclusion, the realization holds its source proof and
        # a log of n derivations, each a few references into the one table,
        # though they list 864 (n = 16) and 3264 (n = 32) steps between them.
        data = pickle.dumps(r)
        assert len(data) <= 2 * conclusion
        back = pickle.loads(data)
        assert back == r and back.source is r.source
        assert all(a.derivation.conclusion is b.derivation.conclusion for a, b in zip(back.log, r.log, strict=True))
