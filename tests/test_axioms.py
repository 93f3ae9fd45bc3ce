import random

import pytest
from hypothesis import given, settings, strategies as st

from jelogic.axioms import (
    CATALOGUE,
    ConstantSpecification,
    UnknownScheme,
    check_axiomatically_appropriate,
    cs_contains,
    cs_total,
    instantiate,
    match,
    match_axiom,
    scheme_by_id,
)
from jelogic.generate import _random_binding
from jelogic.syntax import Atom, Dialect, parse_formula

A, B = Atom("A"), Atom("B")


def _je(text: str):
    return parse_formula(text, Dialect.JE)


class TestMatchAxiom:
    def test_application_instance(self):
        f = _je("p0:(A -> B) -> (p1:A -> (p0 * p1):B)")
        hits = match_axiom(f, Dialect.JE)
        assert [sid for sid, _ in hits] == ["j"]
        binding = hits[0][1]
        assert binding["F"] == A and binding["G"] == B
        assert binding["L"] == _je("p0:A").term and binding["K"] == _je("p1:A").term

    def test_congruence_instance(self):
        f = _je("(p0:(A -> B) & p0:(B -> A)) -> ([e(p0)]A -> [e(p0)]B)")
        assert [sid for sid, _ in match_axiom(f, Dialect.JE)] == ["je"]

    def test_non_axiom(self):
        assert match_axiom(_je("A -> A"), Dialect.JE) == []

    def test_weakening_instance(self):
        hits = match_axiom(_je("A -> (B -> A)"), Dialect.JE)
        assert [sid for sid, _ in hits] == ["pl_k"]
        assert hits[0][1] == {"F": A, "G": B}

    def test_metavariable_consistency(self):
        # pl_k needs the outer antecedent to reappear, so this is no instance.
        assert match_axiom(_je("A -> (B -> B)"), Dialect.JE) == []

    def test_multiple_schemes_can_match(self):
        hits = match_axiom(_je("_|_ -> (_|_ | _|_)"), Dialect.JE)
        assert [sid for sid, _ in hits] == ["pl_efq", "pl_or_intro_l", "pl_or_intro_r"]

    def test_match_is_deterministic_on_repeated_metas(self):
        scheme = scheme_by_id("pl_and_intro", Dialect.JE)
        b = match(scheme.pattern, _je("A -> (B -> (A & B))"))
        assert b == {"F": A, "G": B}
        assert match(scheme.pattern, _je("A -> (B -> (B & A))")) is None


class TestCatalogue:
    def test_sizes(self):
        assert len(CATALOGUE[Dialect.JE]) == 18
        assert len(CATALOGUE[Dialect.JEM]) == 17

    def test_ids_unique_within_dialect(self):
        for dialect, schemes in CATALOGUE.items():
            ids = [s.id for s in schemes]
            assert len(ids) == len(set(ids)), dialect

    def test_dialect_specific_schemes(self):
        je_ids = {s.id for s in CATALOGUE[Dialect.JE]}
        jem_ids = {s.id for s in CATALOGUE[Dialect.JEM]}
        assert {"j", "jt", "j4"} <= je_ids & jem_ids
        assert {"jplus1", "je", "jeplus"} <= je_ids - jem_ids
        assert {"jm", "jplus2"} <= jem_ids - je_ids

    def test_scheme_by_id_unknown(self):
        with pytest.raises(KeyError):
            scheme_by_id("jm", Dialect.JE)


class TestConstantSpecification:
    def test_cs_contains_instance(self):
        cs = ConstantSpecification(Dialect.JE, {"c0": frozenset({"jt"})})
        assert cs_contains(cs, "c0", _je("p0:A -> A"))

    def test_cs_contains_wrong_shape(self):
        cs = ConstantSpecification(Dialect.JE, {"c0": frozenset({"jt"})})
        assert not cs_contains(cs, "c0", _je("p0:A -> p0:A"))

    def test_cs_contains_absent_constant(self):
        cs = ConstantSpecification(Dialect.JE, {"c0": frozenset({"jt"})})
        assert not cs_contains(cs, "c1", _je("p0:A -> A"))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(UnknownScheme):
            ConstantSpecification(Dialect.JE, {"c0": frozenset({"jm"})})

    def test_total_specification_is_appropriate(self):
        for dialect in (Dialect.JE, Dialect.JEM):
            cs = cs_total(dialect)
            assert check_axiomatically_appropriate(cs) == frozenset()
            assert len(cs.assignment) == len(CATALOGUE[dialect])

    def test_missing_scheme_reported(self):
        cs = cs_total(Dialect.JE)
        gutted = ConstantSpecification(
            Dialect.JE, {c: ids for c, ids in cs.assignment.items() if "je" not in ids}
        )
        assert check_axiomatically_appropriate(gutted) == frozenset({"je"})

    def test_empty_specification_misses_everything(self):
        cs = ConstantSpecification(Dialect.JEM, {})
        missing = check_axiomatically_appropriate(cs)
        assert missing == {s.id for s in CATALOGUE[Dialect.JEM]}

    def test_total_naming_and_order(self):
        cs = cs_total(Dialect.JE)
        assert cs.constants_for("jt") == ["c_jt"]
        assert cs.schemes_of("c_pl_k") == frozenset({"pl_k"})


@given(st.integers(0, 10**9), st.sampled_from([Dialect.JE, Dialect.JEM]))
@settings(max_examples=200, deadline=None)
def test_instantiate_then_match_recovers_scheme(seed, dialect):
    rng = random.Random(seed)
    scheme = rng.choice(CATALOGUE[dialect])
    binding = _random_binding(rng, dialect, scheme.pattern)
    f = instantiate(scheme.pattern, binding)
    hits = match_axiom(f, dialect)
    assert any(sid == scheme.id for sid, _ in hits)
    for sid, b in hits:
        assert instantiate(scheme_by_id(sid, dialect).pattern, b) == f


@given(st.integers(0, 10**9), st.sampled_from([Dialect.JE, Dialect.JEM]))
@settings(max_examples=200, deadline=None)
def test_cs_contains_means_a_matching_assigned_scheme(seed, dialect):
    """A constant covers a formula exactly when one of the schemes assigned
    to it is among those the formula instantiates."""
    rng = random.Random(seed)
    scheme = rng.choice(CATALOGUE[dialect])
    f = instantiate(scheme.pattern, _random_binding(rng, dialect, scheme.pattern))
    ids = sorted(s.id for s in CATALOGUE[dialect])
    cs = ConstantSpecification(dialect, {"c": frozenset(rng.sample(ids, rng.randint(1, 4)))})
    hits = {sid for sid, _ in match_axiom(f, dialect)}
    assert cs_contains(cs, "c", f) == bool(hits & cs.schemes_of("c"))
    assert not cs_contains(cs, "d", f)
