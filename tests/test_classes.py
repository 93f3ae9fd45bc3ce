"""The node and record classes are plain slotted classes: importing the
package compiles no code, and the classes keep the contract they had as
dataclasses (fields, ``replace``, ``repr``, equality, hashing, immutability,
copying and pickling)."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import types

import pytest

import jelogic
from jelogic import Dialect, Sequent, compute_families, cs_total
from jelogic.axioms import ConstantSpecification, UnknownScheme
from jelogic.hilbert import AxiomStep, MPStep
from jelogic.semantics import FiniteBasicEvaluation, FuzzReport, QuasiModel
from jelogic.sequent import index_proof
from jelogic.syntax import Atom, Bottom, Implies, Substitution

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
    for record in (s, MPStep(0, 1), realize_text("=> []A -> []A", "GE").derivation):
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
    records = [report, eps, QuasiModel(("w",), {}, {"w": eps}), index_proof(p), compute_families(p)]
    for record in records:
        with pytest.raises(TypeError):
            hash(record)


def test_record_reprs_are_the_dataclass_format():
    s = Sequent((A,), (Implies(A, Bottom()),))
    assert repr(s) == "Sequent(ante=(Atom(name='A'),), succ=(Implies(left=Atom(name='A'), right=Bottom()),))"
    assert repr(MPStep(0, 1)) == "MPStep(major=0, minor=1)"
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


def test_axiom_step_bindings_stay_out_of_equality():
    f = Implies(A, Implies(A, A))
    one, other = AxiomStep(f, "pl_k", {"F": A, "G": A}), AxiomStep(f, "pl_k", {})
    assert one == other and hash(one) == hash(other)
    assert [fl.name for fl in dataclasses.fields(AxiomStep) if not fl.compare] == ["binding"]


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
