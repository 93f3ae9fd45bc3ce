"""Seeded inputs for the three workloads.

The seed renames atoms (every name keeps its length, so printed sizes do not
depend on the seed), orders the inputs and picks the fuzzing seed.  The
forward-built random proofs keep the shapes of the acceptance suite (the first
generator seeds per calculus), and the search-found theorems are a fixed
sample of the fragment: drawing fresh shapes per seed moved the realize
workload's total time by 15-19 % between seeds, wider than any bound the
benchmark could keep.

A run repeats a round many times and times each operation by its fastest
repetition, so a round is kept to about three seconds: the realize and nesting
workloads leave out their slowest inputs.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass

from jelogic import Dialect, Sequent, cs_total, print_formula, prove_bounded
from jelogic.formats import write_sequent_proof
from jelogic.generate import random_sequent_theorem
from jelogic.sequent import Proof
from jelogic.syntax import And, Atom, Bottom, Box, Implies, Not, Or

SEARCH_DEPTH = 10  # the CLI's default --depth
RANDOM_PROOFS = 8  # per calculus: generator seeds 0..7
FRAGMENT_SAMPLE = 3  # per calculus
# The fragment sample is the same theorems for every seed, renamed: with a
# sample drawn by the seed, three theorems per calculus moved derivation_steps
# by 6 % between seeds.
FRAGMENT_DRAW_SEED = 0
FUZZ_TRIALS = 1000
GE_TOP = 4  # the GE box ladder stops at the level that fails its budget
GM_TOP = 5
CONJ_TOP = 4
GUARD_S = 60.0  # per-level limit; no level should come near it
TOP_BUDGET_S = 0.5  # GE n = 4 today takes 11-18 s; the target is well under a second

# Acceptance goldens 1, 2, 4 and 5, by their number.  Golden 3,
# `=> [](A -> A) -> [](B -> B)`, takes about 11 s in GE on its own (a 3.5 MB
# derivation), and golden 6, `=> []([]A & []B) -> ([][]A & [][]B)`, about 1 s:
# a round is kept to about three seconds.
GOLDENS = (
    (1, "=> []{a} -> ([]{b} -> []{a})", "GE"),
    (2, "[][]{a} => [][]{a}", "GE"),
    (4, "=> []({a} & {b}) -> ([]{a} & []{b})", "GM"),
    (5, "=> ([]{a} | []{b}) -> []({a} | {b})", "GM"),
)

CALCULI = {"GE": ("E", Dialect.JE), "GM": ("EM", Dialect.JEM)}


def letters(rng: random.Random, k: int) -> list[str]:
    return rng.sample(string.ascii_uppercase, k)


def rename(f, names: dict):
    """Rename the atoms of a modal formula."""
    if isinstance(f, Atom):
        return Atom(names[f.name])
    if isinstance(f, Bottom):
        return f
    if isinstance(f, Not):
        return Not(rename(f.inner, names))
    if isinstance(f, Box):
        return Box(rename(f.body, names))
    return type(f)(rename(f.left, names), rename(f.right, names))


def rename_proof(p: Proof, names: dict) -> Proof:
    s = Sequent(
        tuple(rename(f, names) for f in p.sequent.ante),
        tuple(rename(f, names) for f in p.sequent.succ),
    )
    return Proof(s, p.rule, p.principal, tuple(rename_proof(c, names) for c in p.children))


def fragment(a: str, b: str) -> list:
    """The 4146 formulas of acceptance criterion 6: two atoms closed under
    negation, box and the binary connectives, up to three constructors."""
    levels = [[Atom(a), Atom(b)]]
    for n in range(1, 4):
        new = [Not(f) for f in levels[n - 1]] + [Box(f) for f in levels[n - 1]]
        for i in range(n):
            for left in levels[i]:
                for right in levels[n - 1 - i]:
                    new += [Implies(left, right), And(left, right), Or(left, right)]
        levels.append(new)
    return list(itertools.chain.from_iterable(levels))


@dataclass(frozen=True)
class SweepInputs:
    formulas: tuple  # every fragment formula, in seeded order
    fuzz_seed: int


@dataclass(frozen=True)
class RealizeInput:
    label: str
    calculus: str
    text: str  # sequent text, or a sequent-proof file
    is_proof_file: bool


@dataclass(frozen=True)
class NestingInput:
    label: str
    calculus: str
    level: int
    sequent: Sequent
    budget_s: float


def sweep_inputs(seed: int) -> SweepInputs:
    rng = random.Random(seed)
    formulas = fragment(*letters(rng, 2))
    rng.shuffle(formulas)
    return SweepInputs(tuple(formulas), fuzz_seed=seed)


def realize_inputs(seed: int, random_proofs: int = RANDOM_PROOFS, sample: int = FRAGMENT_SAMPLE) -> list[RealizeInput]:
    rng = random.Random(seed)
    a, b, c = letters(rng, 3)
    out = [
        RealizeInput(f"golden{number}", calc, text.format(a=a, b=b), False)
        for number, text, calc in GOLDENS
    ]
    names = {"A": a, "B": b, "C": c}
    for calc in CALCULI:
        for i in range(random_proofs):
            proof = rename_proof(random_sequent_theorem(random.Random(i), calc, depth=5), names)
            out.append(RealizeInput(f"random-{calc}-{i}", calc, write_sequent_proof(proof, calc), True))
    candidates = fragment(a, b)
    draw = random.Random(FRAGMENT_DRAW_SEED)
    for calc in CALCULI:
        draw.shuffle(candidates)
        found = 0
        for f in candidates:
            if found == sample:
                break
            if prove_bounded(Sequent((), (f,)), calc, SEARCH_DEPTH) is not None:
                out.append(RealizeInput(f"fragment-{calc}-{found}", calc, "=> " + print_formula(f), False))
                found += 1
    rng.shuffle(out)
    return out


def box_power(n: int, f):
    for _ in range(n):
        f = Box(f)
    return f


def conjunction(fs):
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def nesting_inputs(seed: int, ge_top: int = GE_TOP, gm_top: int = GM_TOP, conj_top: int = CONJ_TOP) -> list[NestingInput]:
    """Three ladders, each in increasing n: ``[]^n A => []^n A`` in GE up
    to ``ge_top`` and in GM up to ``gm_top``, and
    ``=> [](A1 & ... & An) -> []A1 & ... & []An`` in GM up to ``conj_top``.
    The top GE level runs under TOP_BUDGET_S, every other level under
    GUARD_S."""
    a, b = letters(random.Random(seed), 2)
    out = []
    for calc, top in (("GE", ge_top), ("GM", gm_top)):
        for n in range(1, top + 1):
            f = box_power(n, Atom(a))
            budget = TOP_BUDGET_S if (calc, n) == ("GE", ge_top) else GUARD_S
            out.append(NestingInput(f"boxes-{calc}-{n}", calc, n, Sequent((f,), (f,)), budget))
    for n in range(1, conj_top + 1):
        atoms = [Atom(f"{b}{i}") for i in range(1, n + 1)]
        f = Implies(Box(conjunction(atoms)), conjunction([Box(x) for x in atoms]))
        out.append(NestingInput(f"conj-GM-{n}", "GM", n, Sequent((), (f,)), GUARD_S))
    return out


def constant_specs() -> dict:
    return {calc: cs_total(dialect) for calc, (_, dialect) in CALCULI.items()}
