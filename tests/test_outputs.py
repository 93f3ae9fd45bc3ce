"""One pinned digest over what realization writes.

The digest is a sha256 over, for each input and each mode (strict, then
simplify): the printed realized formula, ``write_derivation`` of the root
derivation, and for each log entry its printed term and ``write_derivation``
of its derivation.  The inputs are goldens 1-6, the GE and GM ladders
``[]^n A => []^n A`` for n = 1..8, and ``random_sequent_theorem`` seeds
0..49 in GE and in GM.

A change that is not meant to alter any output leaves the digest as it is.
A change meant to alter outputs updates ``DIGEST`` in the same diff and
records in CHANGES.md which outputs changed and why.
"""

from __future__ import annotations

import hashlib
import random

from _helpers import CS_JE, CS_JEM, proof_of
from jelogic.formats import write_derivation
from jelogic.generate import random_sequent_theorem
from jelogic.realization import realize
from jelogic.syntax import print_formula, print_term

DIGEST = "1e90349f99eef70f86f92ab9d5d92e8a3c457dfeca0591a57f27d2b1bdc47915"

GOLDENS = [
    ("=> []A -> ([]B -> []A)", "GE"),
    ("[][]A => [][]A", "GE"),
    ("=> [](A -> A) -> [](B -> B)", "GE"),
    ("=> [](A & B) -> ([]A & []B)", "GM"),
    ("=> ([]A | []B) -> [](A | B)", "GM"),
    ("=> []([]A & []B) -> ([][]A & [][]B)", "GM"),
]


def _proofs():
    for text, calculus in GOLDENS:
        yield proof_of(text, calculus), calculus
    for calculus in ("GE", "GM"):
        for n in range(1, 9):
            boxed = "[]" * n + "A"
            yield proof_of(f"{boxed} => {boxed}", calculus, n + 2), calculus
    for seed in range(50):
        for calculus in ("GE", "GM"):
            yield random_sequent_theorem(random.Random(seed), calculus), calculus


def test_realization_outputs_are_pinned():
    digest = hashlib.sha256()
    for p, calculus in _proofs():
        cs = CS_JE if calculus == "GE" else CS_JEM
        for mode in ("strict", "simplify"):
            r = realize(p, calculus, cs, mode)
            texts = [print_formula(r.realized), write_derivation(r.derivation)]
            for entry in r.log:
                texts += [print_term(entry.term), write_derivation(entry.derivation)]
            for text in texts:
                digest.update(text.encode())
                digest.update(b"\0")
    assert digest.hexdigest() == DIGEST
