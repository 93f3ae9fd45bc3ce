"""Nothing a call builds is left to the cyclic collector.

With the collector off, each operation below runs on inputs built before it,
and a collection afterwards finds no unreachable object: everything the call
built and dropped was freed by reference counting.  The inputs are
``random_sequent_theorem`` seeds 0..9 in GE and in GM."""

from __future__ import annotations

import gc
import random

import pytest

from _helpers import CS_JE, CS_JEM, fragment_formulas
from jelogic.formats import parse_derivation, parse_sequent_proof, write_derivation, write_sequent_proof
from jelogic.generate import random_sequent_theorem
from jelogic.hilbert import check_derivation
from jelogic.realization import realize, simplify, verify_realization
from jelogic.semantics import find_modal_countermodel
from jelogic.sequent import check_sequent_proof, compute_families, prove_bounded

THEOREMS = [
    (random_sequent_theorem(random.Random(seed), calculus), calculus)
    for seed in range(10)
    for calculus in ("GE", "GM")
]


def _cs(calculus: str):
    return CS_JE if calculus == "GE" else CS_JEM


def _realized(p, calculus: str, mode: str = "strict"):
    return realize(p, calculus, _cs(calculus), mode)


# Each operation: the arguments it is given, made from a theorem and its
# calculus, and the call.
OPERATIONS = {
    "realize-strict": (lambda p, c: (p, c, _cs(c)), realize),
    "realize-simplify": (lambda p, c: (p, c, _cs(c), "simplify"), realize),
    "simplify-strict": (lambda p, c: (_realized(p, c),), simplify),
    "simplify-simplify": (lambda p, c: (_realized(p, c, "simplify"),), simplify),
    "verify_realization-strict": (lambda p, c: (_realized(p, c),), verify_realization),
    "verify_realization-simplify": (lambda p, c: (_realized(p, c, "simplify"),), verify_realization),
    "prove_bounded": (lambda p, c: (p.sequent, c, 10), prove_bounded),
    "check_sequent_proof": (lambda p, c: (p, c), check_sequent_proof),
    "compute_families": (lambda p, c: (p,), compute_families),
    "check_derivation": (lambda p, c: (_realized(p, c).derivation, _cs(c)), check_derivation),
    "write_derivation": (lambda p, c: (_realized(p, c).derivation,), write_derivation),
    "parse_derivation": (lambda p, c: (write_derivation(_realized(p, c).derivation),), parse_derivation),
    "write_sequent_proof": (lambda p, c: (p, c), write_sequent_proof),
    "parse_sequent_proof": (lambda p, c: (write_sequent_proof(p, c),), parse_sequent_proof),
}


def _unreachable_after(calls) -> int:
    """The objects a collection finds unreachable after ``calls`` ran with
    the collector off."""
    gc.collect()
    gc.disable()
    try:
        for call, args in calls:
            call(*args)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", OPERATIONS)
def test_leaves_no_cyclic_garbage(name):
    given, call = OPERATIONS[name]
    calls = [(call, given(p, calculus)) for p, calculus in THEOREMS]
    assert _unreachable_after(calls) == 0


def test_the_countermodel_search_leaves_no_cyclic_garbage():
    """Over the first 200 criterion-6 fragment formulas, each searched in E
    and in EM, found or not."""
    calls = [(find_modal_countermodel, (f, logic)) for f in fragment_formulas()[:200] for logic in ("E", "EM")]
    assert _unreachable_after(calls) == 0
