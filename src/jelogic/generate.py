"""Seeded random generators for formulas, derivations and sequent proofs.

Everything here drives tests and the fuzzing entry points: printable formulas
for the parser roundtrip, forward-built Hilbert theorems for internalization,
and forward-built sequent proofs of theorems for the realization pipeline.
All generators take an explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random

from .axioms import CATALOGUE, metavariables
from .hilbert import Builder, Derivation
from .sequent import Proof, Sequent, premises_of
from .syntax import (
    And,
    Apply,
    Atom,
    BOT,
    Bang,
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
    box_occurrences,
)

_ATOMS = ("A", "B", "C")


# ---------------------------------------------------------------------------
# Random terms and formulas


def random_proof_term(rng: random.Random, dialect: Dialect, depth: int, leaves=None):
    """A proof term of ``dialect`` at most ``depth`` deep.  Its leaves are the
    proof terms of ``leaves`` if given, else p0..p2 and c0..c2."""
    if depth <= 1 or rng.random() < 0.35:
        if leaves is not None:
            return rng.choice([t for t in leaves if isinstance(t, ProofTerm)])
        if rng.random() < 0.5:
            return ProofVar(rng.randrange(3))
        return ProofConst(f"c{rng.randrange(3)}")
    kinds = ["apply", "bang"] + (["sum"] if dialect is Dialect.JE else [])
    kind = rng.choice(kinds)
    if kind == "bang":
        return Bang(random_proof_term(rng, dialect, depth - 1, leaves))
    left = random_proof_term(rng, dialect, depth - 1, leaves)
    right = random_proof_term(rng, dialect, depth - 1, leaves)
    return Apply(left, right) if kind == "apply" else Sum(left, right)


def random_just_term(rng: random.Random, dialect: Dialect, depth: int, leaves=None):
    """A justification term of ``dialect`` at most ``depth`` deep.  With
    ``leaves`` given, its leaves of both sorts are drawn from it; else a JEM
    leaf is one of x0..x2, and proof-term leaves are as in
    ``random_proof_term``."""
    if dialect is Dialect.JE:
        return Evidence(random_proof_term(rng, dialect, max(1, depth - 1), leaves))
    if depth <= 1 or rng.random() < 0.4:
        if leaves is not None:
            return rng.choice([t for t in leaves if isinstance(t, JustTerm)])
        return JustVar(rng.randrange(3))
    if rng.random() < 0.5:
        return MApply(
            random_proof_term(rng, dialect, depth - 1, leaves),
            random_just_term(rng, dialect, depth - 1, leaves),
        )
    return JustSum(
        random_just_term(rng, dialect, depth - 1, leaves),
        random_just_term(rng, dialect, depth - 1, leaves),
    )


def random_formula(rng: random.Random, dialect: Dialect, depth: int) -> Formula:
    if depth <= 1 or rng.random() < 0.3:
        if rng.random() < 0.12:
            return BOT
        return Atom(rng.choice(_ATOMS))
    kinds = ["imp", "and", "or", "not"]
    if dialect is Dialect.MODAL:
        kinds += ["box", "box"]
    else:
        kinds += ["proofof", "justof"]
    kind = rng.choice(kinds)
    if kind == "box":
        return Box(random_formula(rng, dialect, depth - 1))
    if kind == "proofof":
        return ProofOf(
            random_proof_term(rng, dialect, 2), random_formula(rng, dialect, depth - 1)
        )
    if kind == "justof":
        return JustOf(
            random_just_term(rng, dialect, 2), random_formula(rng, dialect, depth - 1)
        )
    if kind == "not":
        return Not(random_formula(rng, dialect, depth - 1))
    left = random_formula(rng, dialect, depth - 1)
    right = random_formula(rng, dialect, depth - 1)
    return {"imp": Implies, "and": And, "or": Or}[kind](left, right)


# ---------------------------------------------------------------------------
# Random Hilbert theorems (forward proof growth)


def _random_binding(rng: random.Random, dialect: Dialect, pattern) -> dict:
    binding: dict = {}
    for name, kind in sorted(metavariables(pattern).items()):
        if kind == "formula":
            binding[name] = random_formula(rng, dialect, rng.randint(1, 2))
        elif kind == "proof":
            binding[name] = random_proof_term(rng, dialect, 2)
        else:
            binding[name] = random_just_term(rng, dialect, 2)
    return binding


def random_theorem(rng: random.Random, dialect: Dialect, steps: int = 6) -> Derivation:
    """A hypothesis-free derivation grown by random axiom instances and
    opportunistic applications of modus ponens."""
    b = Builder(dialect)
    pool: list[int] = []  # step indices, one entry per draw, repeats kept
    schemes = CATALOGUE[dialect]

    def add_axiom():
        scheme = schemes[rng.randrange(len(schemes))]
        pool.append(b.axiom(scheme.id, _random_binding(rng, dialect, scheme.pattern)))

    add_axiom()
    for _ in range(steps):
        if pool and rng.random() < 0.55:
            majors = [
                i for i in pool if isinstance(b.formulas[i], Implies)
                and any(b.formulas[j] == b.formulas[i].left for j in pool)
            ]
            if majors:
                i = majors[rng.randrange(len(majors))]
                j = next(j for j in pool if b.formulas[j] == b.formulas[i].left)
                pool.append(b.mp(i, j))
                continue
        add_axiom()
    return b.derivation(pool[-1])


# ---------------------------------------------------------------------------
# Random sequent proofs of theorems (forward rule application)


def _node(rule: str, principal, sequent: Sequent, children: tuple[Proof, ...]) -> Proof:
    assert premises_of(rule, principal, sequent) == tuple(c.sequent for c in children)
    return Proof(sequent, rule, principal, children)


def axp(p: str) -> Proof:
    a = Atom(p)
    return _node("AxP", (("L", 0), ("R", 0)), Sequent((a,), (a,)), ())


def axbot() -> Proof:
    return _node("AxBot", (("L", 0),), Sequent((BOT,), ()), ())


def wl(p: Proof, f: Formula, k: int) -> Proof:
    ante = p.sequent.ante
    s = Sequent(ante[:k] + (f,) + ante[k:], p.sequent.succ)
    return _node("WL", (("L", k),), s, (p,))


def wr(p: Proof, f: Formula, k: int) -> Proof:
    succ = p.sequent.succ
    s = Sequent(p.sequent.ante, succ[:k] + (f,) + succ[k:])
    return _node("WR", (("R", k),), s, (p,))


def cl(p: Proof, k: int) -> Proof:
    ante = p.sequent.ante
    s = Sequent(ante[:k + 1] + ante[k + 2:], p.sequent.succ)
    return _node("CL", (("L", k),), s, (p,))


def cr(p: Proof, k: int) -> Proof:
    succ = p.sequent.succ
    s = Sequent(p.sequent.ante, succ[:k + 1] + succ[k + 2:])
    return _node("CR", (("R", k),), s, (p,))


def impr(p: Proof, k: int) -> Proof:
    a = p.sequent.ante[0]
    bb = p.sequent.succ[-1]
    rest = p.sequent.succ[:-1]
    s = Sequent(p.sequent.ante[1:], rest[:k] + (Implies(a, bb),) + rest[k:])
    return _node("ImpR", (("R", k),), s, (p,))


def andl(p: Proof) -> Proof:
    a, bb = p.sequent.ante[0], p.sequent.ante[1]
    s = Sequent((And(a, bb),) + p.sequent.ante[2:], p.sequent.succ)
    return _node("AndL", (("L", 0),), s, (p,))


def andr(p1: Proof, p2: Proof, k: int) -> Proof:
    a, bb = p1.sequent.succ[-1], p2.sequent.succ[-1]
    rest = p1.sequent.succ[:-1]
    s = Sequent(p1.sequent.ante, rest[:k] + (And(a, bb),) + rest[k:])
    return _node("AndR", (("R", k),), s, (p1, p2))


def orl(p1: Proof, p2: Proof, k: int) -> Proof:
    a, bb = p1.sequent.ante[0], p2.sequent.ante[0]
    rest = p1.sequent.ante[1:]
    s = Sequent(rest[:k] + (Or(a, bb),) + rest[k:], p1.sequent.succ)
    return _node("OrL", (("L", k),), s, (p1, p2))


def orr(p: Proof, k: int) -> Proof:
    a, bb = p.sequent.succ[-2], p.sequent.succ[-1]
    rest = p.sequent.succ[:-2]
    s = Sequent(p.sequent.ante, rest[:k] + (Or(a, bb),) + rest[k:])
    return _node("OrR", (("R", k),), s, (p,))


def notl(p: Proof, k: int) -> Proof:
    a = p.sequent.succ[-1]
    ante = p.sequent.ante
    s = Sequent(ante[:k] + (Not(a),) + ante[k:], p.sequent.succ[:-1])
    return _node("NotL", (("L", k),), s, (p,))


def notr(p: Proof, k: int) -> Proof:
    a = p.sequent.ante[0]
    succ = p.sequent.succ
    s = Sequent(p.sequent.ante[1:], succ[:k] + (Not(a),) + succ[k:])
    return _node("NotR", (("R", k),), s, (p,))


def re(p1: Proof, p2: Proof) -> Proof:
    a = p1.sequent.ante[0]
    bb = p1.sequent.succ[0]
    s = Sequent((Box(a),), (Box(bb),))
    return _node("RE", (("L", 0), ("R", 0)), s, (p1, p2))


def rm(p: Proof) -> Proof:
    a = p.sequent.ante[0]
    bb = p.sequent.succ[0]
    s = Sequent((Box(a),), (Box(bb),))
    return _node("RM", (("L", 0), ("R", 0)), s, (p,))


def _equivalence_pair(atom: str) -> tuple[Proof, Proof]:
    """Proofs of A => A & A and A & A => A, a seed for equivalence rules."""
    base = axp(atom)
    fwd = andr(base, base, 0)
    back = andl(wl(base, Atom(atom), 1))
    return fwd, back


def _boxfree(f: Formula) -> bool:
    return not box_occurrences(f)


def random_sequent_theorem(
    rng: random.Random, calculus: str, depth: int = 5
) -> Proof:
    """Grow a proof by forward rule application, then discharge everything
    into a single succedent formula, yielding a proof of a theorem sequent."""
    if calculus not in ("GE", "GM"):
        raise ValueError(f"unknown calculus {calculus!r}")
    pool: list[Proof] = [axp("A"), axp("B"), axbot()]
    fwd, back = _equivalence_pair("A")
    pool += [fwd, back]

    def rand_wff():
        return random_formula(rng, Dialect.MODAL, rng.randint(1, 2))

    for _ in range(depth):
        p = pool[rng.randrange(len(pool))]
        s = p.sequent
        moves = ["wl", "wr"]
        if s.ante and s.succ:
            moves += ["impr", "impr"]
        if len(s.ante) >= 2:
            moves.append("andl")
        if len(s.succ) >= 2:
            moves.append("orr")
        if s.succ:
            moves.append("notl")
        if s.ante:
            moves.append("notr")
        if s.ante and len(s.ante) >= 2 and s.ante[0] == s.ante[1] and _boxfree(s.ante[0]):
            moves.append("cl")
        if len(s.succ) >= 2 and s.succ[-2] == s.succ[-1] and _boxfree(s.succ[-1]):
            moves.append("cr")
        if s.ante:
            moves.append("orl_self")
        if s.succ:
            moves.append("andr_self")
        if len(s.ante) == 1 and len(s.succ) == 1:
            if calculus == "GM":
                moves += ["rm", "rm"]
            else:
                q = next(
                    (
                        q
                        for q in pool
                        if q.sequent.ante == s.succ and q.sequent.succ == s.ante
                        and len(q.sequent.ante) == 1 and len(q.sequent.succ) == 1
                    ),
                    None,
                )
                if q is not None:
                    moves += ["re", "re"]
        move = rng.choice(moves)
        try:
            if move == "wl":
                pool.append(wl(p, rand_wff(), rng.randint(0, len(s.ante))))
            elif move == "wr":
                pool.append(wr(p, rand_wff(), rng.randint(0, len(s.succ))))
            elif move == "impr":
                pool.append(impr(p, rng.randint(0, len(s.succ) - 1)))
            elif move == "andl":
                pool.append(andl(p))
            elif move == "orr":
                pool.append(orr(p, rng.randint(0, len(s.succ) - 2)))
            elif move == "notl":
                pool.append(notl(p, rng.randint(0, len(s.ante))))
            elif move == "notr":
                pool.append(notr(p, rng.randint(0, len(s.succ))))
            elif move == "cl":
                pool.append(cl(p, 0))
            elif move == "cr":
                pool.append(cr(p, len(s.succ) - 2))
            elif move == "orl_self":
                pool.append(orl(p, p, rng.randint(0, len(s.ante) - 1)))
            elif move == "andr_self":
                pool.append(andr(p, p, rng.randint(0, len(s.succ) - 1)))
            elif move == "rm":
                pool.append(rm(p))
            elif move == "re":
                pool.append(re(p, q))
        except (AssertionError, IndexError):
            continue

    p = pool[-1]
    while p.sequent.ante or len(p.sequent.succ) != 1:
        s = p.sequent
        if s.ante and s.succ:
            p = impr(p, len(s.succ) - 1)
        elif s.ante:
            p = notr(p, 0)
        elif len(s.succ) >= 2:
            p = orr(p, len(s.succ) - 2)
        else:
            p = wr(p, Atom("A"), 0)
    return p
