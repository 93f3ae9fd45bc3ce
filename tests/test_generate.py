import random

import pytest
from hypothesis import given, settings, strategies as st

from jelogic.axioms import cs_total
from jelogic.generate import (
    random_formula,
    random_just_term,
    random_proof_term,
    random_sequent_theorem,
    random_theorem,
)
from jelogic.hilbert import check_derivation
from jelogic.sequent import check_sequent_proof
from jelogic.syntax import (
    Dialect,
    JustOf,
    JustTerm,
    ProofOf,
    ProofTerm,
    check_dialect,
)

DIALECTS = [Dialect.JE, Dialect.JEM]


class TestDeterminism:
    def test_formulas(self):
        a = random_formula(random.Random(5), Dialect.JE, depth=4)
        b = random_formula(random.Random(5), Dialect.JE, depth=4)
        assert a == b

    def test_theorems(self):
        a = random_theorem(random.Random(5), Dialect.JEM, steps=6)
        b = random_theorem(random.Random(5), Dialect.JEM, steps=6)
        assert a == b

    def test_sequent_proofs(self):
        a = random_sequent_theorem(random.Random(5), "GE", depth=5)
        b = random_sequent_theorem(random.Random(5), "GE", depth=5)
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        outs = {random_formula(random.Random(s), Dialect.MODAL, depth=4) for s in range(20)}
        assert len(outs) > 1


class TestWellFormedness:
    @pytest.mark.parametrize("dialect", DIALECTS + [Dialect.MODAL])
    def test_formulas_fit_their_dialect(self, dialect):
        for seed in range(80):
            check_dialect(random_formula(random.Random(seed), dialect, depth=4), dialect)

    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_terms_fit_their_dialect(self, dialect):
        for seed in range(60):
            rng = random.Random(seed)
            check_dialect(random_proof_term(rng, dialect, 3), dialect, ProofTerm)
            check_dialect(random_just_term(rng, dialect, 3), dialect, JustTerm)

    def test_depth_one_is_flat(self):
        f = random_formula(random.Random(0), Dialect.JE, depth=1)
        assert not isinstance(f, (ProofOf, JustOf))


class TestRandomSequentTheorem:
    def test_unknown_calculus(self):
        with pytest.raises(ValueError):
            random_sequent_theorem(random.Random(0), "G3", depth=3)

    @pytest.mark.parametrize("calculus", ["GE", "GM"])
    def test_roots_are_theorem_sequents(self, calculus):
        for seed in range(30):
            p = random_sequent_theorem(random.Random(seed), calculus, depth=5)
            root = check_sequent_proof(p, calculus)
            assert root.ante == () and len(root.succ) == 1


@given(st.integers(0, 10**9), st.sampled_from(DIALECTS))
@settings(max_examples=60, deadline=None)
def test_random_theorems_check(seed, dialect):
    d = random_theorem(random.Random(seed), dialect, steps=8)
    j = check_derivation(d, cs_total(dialect))
    assert j.hypotheses == frozenset()
