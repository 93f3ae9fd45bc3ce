"""Checks of the program's outputs that do not go through the layer under test.

Only the syntax node classes of jelogic are used here: countermodels are
re-evaluated by a neighborhood evaluator of our own (not
``jelogic.semantics``), realized formulas are mapped back by a forgetful map of
our own (not ``jelogic.syntax.forgetful``), and sizes are counted by walkers of
our own.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

from jelogic.syntax import And, Atom, Bottom, Box, Implies, JustOf, Not, Or, ProofOf

FORMULA_CLASSES = (Atom, Bottom, Implies, And, Or, Not, ProofOf, JustOf, Box)


class CheckFailed(Exception):
    """An output of the program violates a required property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Neighborhood semantics


def truth_set(f, worlds: frozenset, valuation: dict, neighborhoods: dict) -> frozenset:
    """Worlds of a neighborhood model where the modal formula ``f`` holds:
    ``[]B`` holds at ``w`` exactly when the truth set of ``B`` is in ``N(w)``."""
    if isinstance(f, Atom):
        return valuation[f.name]
    if isinstance(f, Bottom):
        return frozenset()
    if isinstance(f, Not):
        return worlds - truth_set(f.inner, worlds, valuation, neighborhoods)
    if isinstance(f, Box):
        body = truth_set(f.body, worlds, valuation, neighborhoods)
        return frozenset(w for w in worlds if body in neighborhoods[w])
    left = truth_set(f.left, worlds, valuation, neighborhoods)
    right = truth_set(f.right, worlds, valuation, neighborhoods)
    if isinstance(f, Implies):
        return (worlds - left) | right
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    raise CheckFailed(f"not a modal formula: {f!r}")


def decode_countermodel(cm) -> tuple[frozenset, dict, dict, int]:
    """Worlds, valuation, neighborhoods and the pointed world of a
    ``ModalCountermodel``, whose truth sets and neighborhoods are bitmasks."""
    worlds = frozenset(range(cm.world_count))

    def world_set(mask: int) -> frozenset:
        return frozenset(w for w in worlds if mask >> w & 1)

    valuation = {name: world_set(mask) for name, mask in cm.atom_masks}
    neighborhoods = {
        w: frozenset(world_set(m) for m in range(1 << cm.world_count) if bits >> m & 1)
        for w, bits in enumerate(cm.neighborhoods)
    }
    return worlds, valuation, neighborhoods, cm.world


def superset_closed(worlds: frozenset, neighborhoods: dict) -> bool:
    return all(
        all(y in n for y in _supersets(x, worlds))
        for n in neighborhoods.values()
        for x in n
    )


def _supersets(x: frozenset, worlds: frozenset):
    rest = sorted(worlds - x)
    for bits in range(1 << len(rest)):
        yield x | frozenset(w for i, w in enumerate(rest) if bits >> i & 1)


def check_countermodel(f, cm, monotone: bool) -> None:
    worlds, valuation, neighborhoods, world = decode_countermodel(cm)
    require(world in worlds, f"countermodel points at a missing world {world}")
    require(
        world not in truth_set(f, worlds, valuation, neighborhoods),
        "countermodel does not falsify the formula at its stated world",
    )
    if monotone:
        require(superset_closed(worlds, neighborhoods), "EM neighborhoods are not superset-closed")


# ---------------------------------------------------------------------------
# Realized formulas


def forget(f):
    """Replace every justification ``[t]B`` by ``[]B``; proof assertions have
    no modal reading."""
    if isinstance(f, (Atom, Bottom)):
        return f
    if isinstance(f, Not):
        return Not(forget(f.inner))
    if isinstance(f, JustOf):
        return Box(forget(f.body))
    if isinstance(f, (Implies, And, Or)):
        return type(f)(forget(f.left), forget(f.right))
    raise CheckFailed(f"no modal reading of {f!r}")


def disjunction(fs):
    """Right-nested disjunction; the empty one is falsum."""
    fs = tuple(fs)
    if not fs:
        return Bottom()
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Or(f, out)
    return out


def check_forgets_to(antecedent, succedent, sequent) -> None:
    require(
        tuple(forget(f) for f in antecedent) == tuple(sequent.ante)
        and tuple(forget(f) for f in succedent) == tuple(sequent.succ),
        "realized sequent does not forget back to its source",
    )


def check_readback(judgment, antecedent, succedent) -> None:
    """A read-back derivation concludes the realized succedent from realized
    antecedents only."""
    require(judgment.conclusion == disjunction(succedent), "read-back derivation concludes the wrong formula")
    require(
        judgment.hypotheses <= frozenset(antecedent),
        "read-back derivation uses hypotheses outside the realized antecedent",
    )


# ---------------------------------------------------------------------------
# Sizes


def _children(node):
    return [
        v for v in (getattr(node, fl.name) for fl in fields(node)) if is_dataclass(v)
    ]


def node_counts(roots) -> dict[str, int]:
    """Tree and distinct node counts of the formulas and terms under ``roots``.

    Tree nodes count every occurrence in the fully unfolded syntax tree;
    distinct nodes count structurally different subtrees.  Shared objects are
    visited once, so the count stays linear in the in-memory size."""
    size: dict[int, tuple[int, int]] = {}  # id -> (formula nodes, term nodes) in the unfolded tree
    distinct: set = set()
    stack = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if id(node) in size:
            continue
        kids = _children(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in size)
            continue
        is_formula = isinstance(node, FORMULA_CLASSES)
        fcount, tcount = (1, 0) if is_formula else (0, 1)
        for k in kids:
            kf, kt = size[id(k)]
            fcount += kf
            tcount += kt
        size[id(node)] = (fcount, tcount)
        distinct.add(node)
    formula_tree = sum(size[id(r)][0] for r in roots)
    term_tree = sum(size[id(r)][1] for r in roots)
    formula_distinct = sum(1 for n in distinct if isinstance(n, FORMULA_CLASSES))
    return {
        "formula_tree_nodes": formula_tree,
        "formula_distinct_nodes": formula_distinct,
        "term_tree_nodes": term_tree,
        "term_distinct_nodes": len(distinct) - formula_distinct,
    }


def proof_nodes(proof) -> int:
    count = 0
    stack = [proof]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count
