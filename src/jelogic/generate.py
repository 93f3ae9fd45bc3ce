"""Seeded random generators for formulas, derivations and sequent proofs.

Everything here drives tests and the fuzzing entry points: printable formulas
for the parser roundtrip, forward-built Hilbert theorems for internalization,
and forward-built sequent proofs of theorems for the realization pipeline.
Sequent proofs grow through ``sequent.conclude``.  All generators take an
explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random

from .axioms import CATALOGUE, metavariables
from .hilbert import Builder, Derivation, Step
from .sequent import Proof, conclude
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
    occurrences,
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
    pool: list[Step] = []  # one entry per draw, repeats kept
    schemes = CATALOGUE[dialect]

    def add_axiom():
        scheme = schemes[rng.randrange(len(schemes))]
        pool.append(b.axiom(scheme.id, _random_binding(rng, dialect, scheme.pattern)))

    add_axiom()
    for _ in range(steps):
        if pool and rng.random() < 0.55:
            majors = [
                m for m in pool if isinstance(m.formula, Implies)
                and any(a.formula == m.formula.left for a in pool)
            ]
            if majors:
                major = majors[rng.randrange(len(majors))]
                minor = next(a for a in pool if a.formula == major.formula.left)
                pool.append(b.mp(major, minor))
                continue
        add_axiom()
    return b.derivation(pool[-1])


# ---------------------------------------------------------------------------
# Random sequent proofs of theorems (forward rule application)


def _equivalence_pair(atom: str) -> tuple[Proof, Proof]:
    """Proofs of A => A & A and A & A => A, a seed for equivalence rules."""
    a = Atom(atom)
    base = conclude("AxP", (), formula=a)
    fwd = conclude("AndR", (base, base))
    back = conclude("AndL", (conclude("WL", (base,), 1, a),))
    return fwd, back


def _boxfree(f: Formula) -> bool:
    return not any(isinstance(node, Box) for _, node, _ in occurrences(f))


def random_sequent_theorem(
    rng: random.Random, calculus: str, depth: int = 5
) -> Proof:
    """Grow a proof by forward rule application, then discharge everything
    into a single succedent formula, yielding a proof of a theorem sequent."""
    if calculus not in ("GE", "GM"):
        raise ValueError(f"unknown calculus {calculus!r}")
    pool: list[Proof] = [conclude("AxP", (), formula=Atom(a)) for a in "AB"] + [conclude("AxBot", ())]
    fwd, back = _equivalence_pair("A")
    pool += [fwd, back]

    def rand_wff():
        return random_formula(rng, Dialect.MODAL, rng.randint(1, 2))

    for _ in range(depth):
        p = pool[rng.randrange(len(pool))]
        s = p.sequent
        moves = ["WL", "WR"]
        if s.ante and s.succ:
            moves += ["ImpR", "ImpR"]
        if len(s.ante) >= 2:
            moves.append("AndL")
        if len(s.succ) >= 2:
            moves.append("OrR")
        if s.succ:
            moves.append("NotL")
        if s.ante:
            moves.append("NotR")
        if s.ante and len(s.ante) >= 2 and s.ante[0] == s.ante[1] and _boxfree(s.ante[0]):
            moves.append("CL")
        if len(s.succ) >= 2 and s.succ[-2] == s.succ[-1] and _boxfree(s.succ[-1]):
            moves.append("CR")
        if s.ante:
            moves.append("OrL")  # over p twice
        if s.succ:
            moves.append("AndR")  # over p twice
        if len(s.ante) == 1 and len(s.succ) == 1:
            if calculus == "GM":
                moves += ["RM", "RM"]
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
                    moves += ["RE", "RE"]
        rule = rng.choice(moves)
        f = rand_wff() if rule in ("WL", "WR") else None
        # k is drawn from the positions of the principal's side.
        room = {
            "WL": len(s.ante), "WR": len(s.succ), "ImpR": len(s.succ) - 1, "AndR": len(s.succ) - 1,
            "OrR": len(s.succ) - 2, "NotL": len(s.ante), "NotR": len(s.succ), "OrL": len(s.ante) - 1,
        }.get(rule)
        k = len(s.succ) - 2 if rule == "CR" else 0 if room is None else rng.randint(0, room)
        premises = (p, q) if rule == "RE" else (p, p) if rule in ("OrL", "AndR") else (p,)
        pool.append(conclude(rule, premises, k, f))

    p = pool[-1]
    while p.sequent.ante or len(p.sequent.succ) != 1:
        s = p.sequent
        if s.ante and s.succ:
            p = conclude("ImpR", (p,), len(s.succ) - 1)
        elif s.ante:
            p = conclude("NotR", (p,))
        elif len(s.succ) >= 2:
            p = conclude("OrR", (p,), len(s.succ) - 2)
        else:
            p = conclude("WR", (p,), 0, Atom("A"))
    return p
