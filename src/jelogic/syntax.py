"""Object language shared by every other module: terms, formulas, parsing, printing.

The toolkit works with three dialects of one formula language:

* ``MODAL``   -- propositional logic plus an unlabelled box ``[]F``.
* ``JE``      -- proof terms (constants ``c0``/``c_name``, variables ``p0``,
  application ``*``, sum ``+``, positive introspection ``!``) assert formulas
  with ``:``, and justification terms are always of the shape ``e(proof term)``,
  written ``[e(t)]F``.
* ``JEM``     -- proof terms lose ``+``; justification terms are variables
  ``x0``, binary sums ``t + s`` and applications ``m(proof term, just term)``.

Formula trees are immutable slotted classes (``dataclasses.fields`` lists
their fields) and carry no dialect tag of their own; ``check_dialect``
validates a term or formula against a dialect, from one table of the classes
that not every dialect has.  Nodes are hash-consed: every constructor call
returns the one live node with its class and fields, so equal terms and
formulas are identical objects, ``==`` and ``hash`` are by identity, and a
term DAG costs memory per distinct node.  ``children`` gives a node's child
nodes in field order, over which ``type(node)(*kids)`` rebuilds it, and
``postorder`` is the one walk over terms, formulas and proofs: their
distinct nodes, each after its children, without recursion.  ``occurrences``
walks a formula as a tree instead, each subformula occurrence with its path
(formula-child indices) and polarity.

Concrete syntax notes (the full grammar lives in docs/grammar.md):

* ``:`` binds tighter than ``->`` and its body must be an atom, ``_|_`` or a
  parenthesised formula: ``p0:A -> A`` is ``(p0:A) -> A``.
* ``[t]`` and ``~`` take a unary body, so ``[x0][x1]A`` and ``~~A`` parse
  without parentheses.
* ``A <-> B`` is accepted as input sugar for ``(A -> B) & (B -> A)``; the
  printer never emits it.
* Nesting deeper than ``_Parser.MAX_DEPTH`` levels is a ``ParseError``.
"""

from __future__ import annotations

import re
import weakref
from collections import defaultdict
from dataclasses import MISSING, Field, FrozenInstanceError, dataclass, fields
from enum import Enum
from operator import attrgetter
from typing import Mapping


class Dialect(Enum):
    JE = "JE"
    JEM = "JEM"
    MODAL = "MODAL"


class ParseError(Exception):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DialectError(Exception):
    """A term or formula uses a constructor the dialect does not have."""


class ProofOfPresent(Exception):
    """The forgetful translation is undefined on ``t:F`` subformulas."""


# ---------------------------------------------------------------------------
# Node and record classes
#
# The term, formula and record classes of the package are slotted classes
# whose methods are written once, below, and shared: importing the package
# compiles no code.  The annotated names of a class body become its
# ``__slots__``, ``__match_args__`` and ``dataclasses`` fields, so ``match``
# patterns, ``dataclasses.fields``, ``is_dataclass`` and ``replace`` work as
# on a dataclass.  Nodes and records take their fields by position or by
# keyword, checked by ``_Slotted._fields``, and share one ``repr`` and one
# pickle.

# Sets a field of a frozen instance, past its ``__setattr__``.
_set = object.__setattr__


def _key(names: tuple[str, ...]):
    """A class attribute mapping an instance to the tuple of its fields
    ``names`` (functions are wrapped, so an instance does not bind them)."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return staticmethod(lambda obj: (get(obj),))
    return staticmethod(lambda obj: ())


class _Slotted(type):
    """Metaclass of the node and record classes.  A class body without
    ``__slots__`` declares its fields by annotation; it may give a field
    ``field(compare=False)`` or ``field(repr=False)``; defaults are the
    business of a record class's own ``__init__``."""

    def __new__(meta, name, bases, ns):
        if "__slots__" in ns:  # a base class: shared methods, no fields
            return super().__new__(meta, name, bases, ns)
        names = tuple(ns.get("__annotations__", ()))
        options = {n: ns.pop(n) for n in names if n in ns}
        for n, opt in options.items():
            if not isinstance(opt, Field) or opt.default is not MISSING or opt.default_factory is not MISSING:
                raise TypeError(f"{name}.{n}: defaults belong in __init__")
        ns["__slots__"] = ns["__match_args__"] = names
        # With a docstring, ``dataclass`` does not compute one from
        # ``inspect.signature``, which would cost more than the rest.
        ns.setdefault("__doc__", f"{name}({', '.join(names)})")
        cls = super().__new__(meta, name, bases, ns)
        fs = fields(dataclass(init=False, repr=False, eq=False)(cls))  # metadata only
        for f in fs:
            if f.name in options:
                f.compare, f.repr = options[f.name].compare, options[f.name].repr
        cls._shown = tuple(f.name for f in fs if f.repr)
        cls._key = _key(tuple(f.name for f in fs if f.compare))
        return cls

    def _fields(cls, values, named) -> tuple:
        """``values`` followed by the keyword ``named`` fields, in field
        order: one value per field, or a TypeError naming the class."""
        names = cls.__match_args__
        if len(values) > len(names) or not named and len(values) < len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {len(values)} values")
        rest = names[len(values):]
        for name in named:
            if name not in rest:
                problem = "multiple values for" if name in names else "an unexpected keyword argument"
                raise TypeError(f"{cls.__name__}() got {problem} {name!r}")
        for name in rest:
            if name not in named:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        return (*values, *(named[name] for name in rest))


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Repr and pickling of nodes and records: over the distinct hash-consed nodes
# that the fields hold, directly or in tuples and records (a proof holds its
# sequent's formulas and its premises, a derivation its steps), so that nodes
# nest arbitrarily deep and a node shared below several fields is one entry.


def _mapped(value, fn, kind):
    """``value`` with ``fn`` applied to each ``kind`` instance in it,
    looking into tuples and records."""
    if isinstance(value, kind):
        return fn(value)
    if type(value) is tuple:
        return tuple([_mapped(v, fn, kind) for v in value])
    if isinstance(value, _Record):
        return type(value)(*[_mapped(getattr(value, name), fn, kind) for name in value.__match_args__])
    return value


def _field_values(node, fn, names=None) -> tuple:
    """The values of ``node``'s fields ``names`` (by default all of them),
    ``fn`` applied to the nodes they hold."""
    names = node.__match_args__ if names is None else names
    return _mapped(tuple(getattr(node, name) for name in names), fn, _HashConsed)


def _parts(node) -> list:
    """The hash-consed nodes that ``node``'s fields hold, in field order."""
    out: list = []
    _field_values(node, out.append)
    return out


class _Shown(str):
    """A text that is its own repr."""

    __slots__ = ()
    __repr__ = str.__str__


def _node_text(node, shown) -> _Shown:
    """The dataclass format of ``node``'s fields other than ``repr=False``
    ones, ``shown`` giving the text of each node they hold."""
    values = zip(node._shown, _field_values(node, shown, node._shown))
    return _Shown(f"{type(node).__qualname__}({', '.join(f'{name}={v!r}' for name, v in values)})")


def _node_repr(self) -> str:
    """The dataclass format, each distinct node's text made once."""
    parts: list = []
    _field_values(self, parts.append, self._shown)
    texts = _bottom_up(parts, _parts, defaultdict(lambda: _node_text))
    return str(_node_text(self, lambda node: next(texts)))


class _At(int):
    """A node's position in the table that ``_node_reduce`` pickles."""

    __slots__ = ()


def _node_reduce(self):
    """Pickle as a table of the distinct nodes that the fields hold, each
    after the nodes its own fields hold, which it names by position, and
    last ``self``.  An object whose fields hold no node, such as a leaf or
    a record inside a table, pickles as its class and its fields."""
    nodes: dict = {}
    for part in _parts(self):
        nodes.update(dict.fromkeys(postorder(part, nodes, _parts)))
    if not nodes:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)
    at = {node: _At(i) for i, node in enumerate(nodes)}
    return _unpickle, (tuple((type(node), _field_values(node, at.__getitem__)) for node in (*nodes, self)),)


def _unpickle(table):
    """The node or record ``_node_reduce`` pickled: its table's last."""
    built: list = []
    for cls, values in table:
        built.append(cls(*_mapped(values, built.__getitem__, _At)))
    return built[-1]


# The one live node per (class, *fields).  Values are weak, so the table
# keeps no node alive: an entry goes when its node's last reference does.
# Lookups read the underlying dict of weak references directly, which saves
# ``WeakValueDictionary.get``'s Python frame; a dead reference reads as a miss.
_NODES: weakref.WeakValueDictionary[tuple, _HashConsed] = weakref.WeakValueDictionary()
_LIVE = _NODES.data


class _Interned(_Slotted):
    """Metaclass of the hash-consed classes: a constructor call returns the
    live node with the same class and fields if there is one, and builds
    and enters it otherwise.  Child nodes were built the same way and hash
    by identity, so a key hashes in O(1).  A class whose ``_conclude`` is
    set derives more of a node from its fields once, when it is built."""

    def __call__(cls, *values, **named):
        if named:
            values = cls._fields(values, named)
        key = (cls, *values)
        ref = _LIVE.get(key)
        node = None if ref is None else ref()
        if node is None:
            names = cls.__match_args__
            if len(values) != len(names):
                cls._fields(values, {})  # raises: a field is missing or a value extra
            node = object.__new__(cls)
            for name, value in zip(names, values):
                _set(node, name, value)
            if cls._conclude is not None:
                cls._conclude(node)
            _NODES[key] = node
        return node


class _HashConsed(metaclass=_Interned):
    """Base of the hash-consed classes: the term and formula nodes, the
    metavariables of axiom patterns, sequent proofs and Hilbert steps.
    Instances are immutable, equal fields give the identical object, and
    ``==`` and ``hash`` are by identity."""

    __slots__ = ("__weakref__",)
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr
    __repr__ = _node_repr
    __reduce__ = _node_reduce
    _conclude = None

    # A copy is the node itself, at any depth.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # For ``children`` and ``check_dialect``: no child nodes, unless the
    # class is listed after BOT.
    _children = staticmethod(lambda node: ())
    _sorts = ()


class _Node(_HashConsed):
    """Base of the term and formula classes."""

    __slots__ = ()


class _Record(metaclass=_Slotted):
    """Base of the mutable records: ``==`` compares the fields, and
    instances are unhashable.  A record takes its fields by position or by
    keyword, as nodes do; a class whose fields have defaults or must be
    validated writes out its own ``__init__``.  ``repr`` and pickle are the
    nodes': a record pickles as one table of the distinct nodes under all
    its fields."""

    __slots__ = ()
    __repr__ = _node_repr
    __reduce__ = _node_reduce
    __hash__ = None

    def __init__(self, *values, **named):
        cls = type(self)
        if named or len(values) != len(cls.__match_args__):
            values = cls._fields(values, named)
        for name, value in zip(cls.__match_args__, values):
            _set(self, name, value)

    def __copy__(self):  # shallow: the same field values
        return type(self)(*[getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented


class _FrozenRecord(_Record):
    """Base of the immutable records: fields are set once, through ``_set``,
    and ``hash`` is over the compared fields."""

    __slots__ = ()
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __hash__(self):
        return hash(self._key(self))


# ---------------------------------------------------------------------------
# Terms


class ProofConst(_Node):
    name: str


class ProofVar(_Node):
    index: int


class Apply(_Node):
    left: ProofTerm
    right: ProofTerm


class Sum(_Node):
    left: ProofTerm
    right: ProofTerm


class Bang(_Node):
    inner: ProofTerm


class Evidence(_Node):
    """JE justification term ``e(t)`` wrapping a proof term."""

    proof: ProofTerm


class JustVar(_Node):
    index: int


class JustSum(_Node):
    left: JustTerm
    right: JustTerm


class MApply(_Node):
    """JEM justification term ``m(t, s)``: a proof term applied to evidence."""

    proof: ProofTerm
    just: JustTerm


ProofTerm = ProofConst | ProofVar | Apply | Sum | Bang
JustTerm = Evidence | JustVar | JustSum | MApply
Term = ProofTerm | JustTerm


# ---------------------------------------------------------------------------
# Formulas


class Atom(_Node):
    name: str


class Bottom(_Node):
    pass


class Implies(_Node):
    left: Formula
    right: Formula


class And(_Node):
    left: Formula
    right: Formula


class Or(_Node):
    left: Formula
    right: Formula


class Not(_Node):
    inner: Formula


class ProofOf(_Node):
    """``t:F`` -- a proof term asserting a formula."""

    term: ProofTerm
    body: Formula


class JustOf(_Node):
    """``[t]F`` -- a justification term asserting a formula."""

    term: JustTerm
    body: Formula


class Box(_Node):
    body: Formula


Formula = Atom | Bottom | Implies | And | Or | Not | ProofOf | JustOf | Box

BOT = Bottom()

# Every field of these classes holds a node, of the sort its annotation
# names.  The other hash-consed classes, the leaves and the metavariables of
# axiom patterns, hold none.
for _cls in (Apply, Sum, Bang, Evidence, JustSum, MApply, Implies, And, Or, Not, ProofOf, JustOf, Box):
    _cls._children = _key(_cls.__match_args__)
    _cls._sorts = tuple(globals()[sort] for sort in _cls.__annotations__.values())
del _cls


# ---------------------------------------------------------------------------
# Structure helpers


def children(node) -> tuple:
    """The child nodes of a term, formula or metavariable, in field order:
    ``()`` for a leaf.  ``type(node)(*children(node))`` rebuilds a node that
    has children, and hash-consing makes that the node itself."""
    try:
        return node._children(node)
    except AttributeError:
        raise TypeError(f"not a node: {node!r}") from None


def formula_children(f: Formula) -> tuple[Formula, ...]:
    """The children of ``f`` that are formulas: all but an assertion's term."""
    kids = children(f)
    return kids[1:] if isinstance(f, (ProofOf, JustOf)) else kids


def postorder(root, done=(), kids=children) -> list:
    """The distinct nodes under ``root``, ``root`` included, each after its
    children, in the order a left-to-right postorder walk of the tree first
    reaches them, without recursion.  What ``done`` (a caller's memo) holds
    is left out, and so is what only it leads to.  ``kids(node)`` is called
    once per node returned, in preorder, so a fault it raises is the first
    a recursive preorder walk would meet."""
    if root in done:
        return []
    top = kids(root)
    if not top:
        return [root]
    order: list = []
    pushed = {root}
    stack = [(root, iter(top))]
    while stack:
        node, rest = stack[-1]
        for kid in rest:
            if kid not in done and kid not in pushed:
                pushed.add(kid)
                below = kids(kid)
                if below:
                    stack.append((kid, iter(below)))
                    break
                order.append(kid)
        else:
            stack.pop()
            order.append(node)
    return order


def _bottom_up(roots, kids, make):
    """The values of ``roots``, one by one: ``make[type(node)](node, value)``
    is a node's, where ``value`` reads a child's.  Each distinct node's value
    is made once and dropped after its last read, so deep texts are not all
    alive at once."""
    uses: dict = {}  # the reads of each node's value still to come
    below = []  # the nodes each root is the first to reach
    for root in roots:
        nodes = postorder(root, uses, kids)
        below.append(nodes)
        uses |= dict.fromkeys(nodes, 0)
        for node in nodes:
            for kid in kids(node):
                uses[kid] += 1
        uses[root] += 1
    values: dict = {}

    def value(node):
        uses[node] -= 1
        return values[node] if uses[node] else values.pop(node)

    for root, nodes in zip(roots, below):
        for node in nodes:
            values[node] = make[type(node)](node, value)
        yield value(root)


def occurrences(f: Formula):
    """The subformula occurrences of ``f`` read as a tree, in preorder, without
    recursion: ``(path, node, positive)``, where ``path`` holds the
    formula-child indices from ``f`` down to the occurrence and ``positive``
    is its polarity.  ``f`` itself is positive; the left side of an
    implication and the body of a negation flip, every other place keeps."""
    stack = [((), f, True)]
    while stack:
        path, node, positive = stack.pop()
        yield path, node, positive
        kids = formula_children(node)
        for i in reversed(range(len(kids))):
            flips = isinstance(node, Not) or (i == 0 and isinstance(node, Implies))
            stack.append((path + (i,), kids[i], positive != flips))


def term_depth(t: Term) -> int:
    depth: dict = {}
    for node in postorder(t):
        depth[node] = 1 + max([depth[kid] for kid in children(node)], default=0)
    return depth[t]


def subterms(t: Term) -> list[Term]:
    """The distinct subterms of ``t``, ``t`` included, each after its own."""
    return postorder(t)


def terms_in(f: Formula) -> list[Term]:
    """The terms of the distinct assertions in ``f``."""
    return [node.term for node in postorder(f, kids=formula_children) if isinstance(node, (ProofOf, JustOf))]


# ---------------------------------------------------------------------------
# Dialect validation


# The classes that not every dialect has: the dialects that have each, and
# the message that rejects it in the others.
_RESTRICTED = {
    Sum: ((Dialect.JE,), "proof-term sum is not available in JEM"),
    Evidence: ((Dialect.JE,), "e(.) terms belong to JE only"),
    JustVar: ((Dialect.JEM,), "justification variables belong to JEM only"),
    JustSum: ((Dialect.JEM,), "justification-term sum belongs to JEM only"),
    MApply: ((Dialect.JEM,), "m(.,.) terms belong to JEM only"),
    Box: ((Dialect.MODAL,), "[] belongs to the modal dialect only"),
    ProofOf: ((Dialect.JE, Dialect.JEM), "proof assertions do not exist in the modal dialect"),
    JustOf: ((Dialect.JE, Dialect.JEM), "justification assertions do not exist in the modal dialect"),
}

# Per dialect, the message rejecting each class it lacks.  The modal dialect
# has no terms, and rejects one with the parser's message for its sort.
_REJECTED = {d: {cls: msg for cls, (has, msg) in _RESTRICTED.items() if d not in has} for d in Dialect}
_REJECTED[Dialect.MODAL].update(
    {cls: "proof terms are not available in the modal dialect" for cls in ProofTerm.__args__}
    | {cls: "justification terms are not available in the modal dialect" for cls in JustTerm.__args__}
)

_SORT_NAMES = {Formula: "formula", ProofTerm: "proof term", JustTerm: "justification term", Term: "term"}


def check_dialect(node, dialect: Dialect, sort=Formula, _seen: set | None = None) -> None:
    """Raise DialectError unless ``node`` is a ``sort`` (``Formula``,
    ``ProofTerm``, ``JustTerm`` or ``Term``) of ``dialect``.

    ``_seen`` holds the nodes that passed during this call, so a DAG with
    heavy sharing is walked once per distinct node, not once per path.  A
    caller may pass one set to several calls (``check_derivation`` does,
    across all steps).  A node's sort is checked by its parent, wherever it
    occurs, since one node may stand where two sorts are needed; a node
    enters the set only once everything below it passed."""
    if type(node) not in sort.__args__:
        raise DialectError(f"not a {_SORT_NAMES[sort]}: {node!r}")
    seen = set() if _seen is None else _seen
    rejected = _REJECTED[dialect]

    def checked_children(n):
        cls = type(n)
        message = rejected.get(cls)
        if message is not None:
            raise DialectError(message)
        kids = cls._children(n)
        for kid, kid_sort in zip(kids, cls._sorts):
            if type(kid) not in kid_sort.__args__:
                raise DialectError(f"not a {_SORT_NAMES[kid_sort]}: {kid!r}")
        return kids

    seen.update(postorder(node, seen, checked_children))


def forgetful(f: Formula) -> Formula:
    """Erase justification terms: ``[t]F`` becomes ``[]F``.

    Undefined on formulas containing a proof assertion ``t:F`` (there is no
    modal counterpart for those), in which case ProofOfPresent is raised.
    """

    def erasable_children(node):
        if isinstance(node, ProofOf):
            raise ProofOfPresent(f"cannot erase proof assertion {print_term(node.term)}:...")
        if isinstance(node, Box):
            raise DialectError("input to the forgetful translation is already modal")
        return formula_children(node)

    out: dict = {}
    for node in postorder(f, kids=erasable_children):
        kids = [out[kid] for kid in formula_children(node)]
        cls = Box if isinstance(node, JustOf) else type(node)
        out[node] = cls(*kids) if kids else node
    return out[f]


# ---------------------------------------------------------------------------
# Substitution


class Substitution(_FrozenRecord):
    """Simultaneous replacement of atoms, proof variables and justification
    variables.  Replacement values are not themselves rescanned."""

    atoms: Mapping[str, Formula]
    proof_vars: Mapping[int, ProofTerm]
    just_vars: Mapping[int, JustTerm]

    # Frozen, but the maps are dicts: declared unhashable so that ``hash``
    # names this class rather than a dict.
    __hash__ = None

    def __init__(self, atoms=None, proof_vars=None, just_vars=None):
        _set(self, "atoms", {} if atoms is None else atoms)
        _set(self, "proof_vars", {} if proof_vars is None else proof_vars)
        _set(self, "just_vars", {} if just_vars is None else just_vars)

    def is_empty(self) -> bool:
        return not (self.atoms or self.proof_vars or self.just_vars)


def apply_substitution(f: Formula | Term, s: Substitution) -> Formula | Term:
    """``f`` with ``s`` applied; ``f`` may be a formula or a term."""
    return _Substituter(s)(f)


class _Substituter:
    """One substitution, applied to each distinct term and formula node once.

    Structures that share nodes (``substitute_derivation`` rewrites every
    step of a derivation) should go through one instance, and the instance
    dropped afterwards.  A node the substitution
    does not touch comes back as itself, since its constructor returns the
    live node with the same fields."""

    __slots__ = ("s", "_memo")

    def __init__(self, s: Substitution):
        self.s = s
        self._memo: dict[Formula | Term, Formula | Term] = {}

    def __call__(self, node: Formula | Term) -> Formula | Term:
        memo, s = self._memo, self.s
        if node in memo:
            return memo[node]
        for n in postorder(node, memo):
            kids = children(n)
            if kids:
                out = type(n)(*[memo[kid] for kid in kids])
            elif isinstance(n, Atom):
                out = s.atoms.get(n.name, n)
            elif isinstance(n, ProofVar):
                out = s.proof_vars.get(n.index, n)
            elif isinstance(n, JustVar):
                out = s.just_vars.get(n.index, n)
            else:
                out = n
            memo[n] = out
        return memo[node]


# ---------------------------------------------------------------------------
# Printing

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4, 5


# How tightly the classes bind that do not bind tightest: a child that binds
# more loosely than its place in the parent needs is parenthesised.  Terms
# and formulas never stand in each other's places, so they share the levels.
_BINDS = {Implies: _PREC_IMP, Or: _PREC_OR, And: _PREC_AND, Sum: 1, JustSum: 1, Apply: 2}
_BINDS.update(dict.fromkeys((Not, Box, JustOf, ProofOf), _PREC_UNARY))


def _at(shown, kid, need: int) -> str:
    return shown(kid) if _BINDS.get(type(kid), _PREC_ATOM) >= need else f"({shown(kid)})"


class _Texts(dict):
    def __missing__(self, cls):
        raise TypeError(f"not a term or formula: {cls.__qualname__}")


# Each class's text, from the node and ``t``, which gives a child's text.
_TEXTS = _Texts({
    **dict.fromkeys((Atom, ProofConst), lambda n, t: n.name),
    Bottom: lambda n, t: "_|_",
    Implies: lambda n, t: f"{_at(t, n.left, _PREC_IMP + 1)} -> {_at(t, n.right, _PREC_IMP)}",
    Or: lambda n, t: f"{_at(t, n.left, _PREC_OR)} | {_at(t, n.right, _PREC_OR + 1)}",
    And: lambda n, t: f"{_at(t, n.left, _PREC_AND)} & {_at(t, n.right, _PREC_AND + 1)}",
    Not: lambda n, t: f"~{_at(t, n.inner, _PREC_UNARY)}",
    Box: lambda n, t: f"[]{_at(t, n.body, _PREC_UNARY)}",
    JustOf: lambda n, t: f"[{t(n.term)}]{_at(t, n.body, _PREC_UNARY)}",
    ProofOf: lambda n, t: f"{t(n.term)}:{_at(t, n.body, _PREC_ATOM)}",  # t:A, t:_|_, else t:(F)
    ProofVar: lambda n, t: f"p{n.index}",
    JustVar: lambda n, t: f"x{n.index}",
    **dict.fromkeys((Sum, JustSum), lambda n, t: f"{_at(t, n.left, 1)} + {_at(t, n.right, 2)}"),
    Apply: lambda n, t: f"{_at(t, n.left, 2)} * {_at(t, n.right, 3)}",
    Bang: lambda n, t: f"!{_at(t, n.inner, 3)}",
    Evidence: lambda n, t: f"e({t(n.proof)})",
    MApply: lambda n, t: f"m({t(n.proof)}, {t(n.just)})",
})


def print_term(t: Term) -> str:
    return next(_printed((t,)))


def print_formula(f: Formula) -> str:
    return next(_printed((f,)))


def print_sequent(antecedent: tuple[Formula, ...], succedent: tuple[Formula, ...]) -> str:
    texts = _printed((*antecedent, *succedent))
    left = ", ".join(next(texts) for _ in antecedent)
    right = ", ".join(texts)
    return f"{left} => {right}".strip()


def _printed(roots):
    """The texts of the terms and formulas ``roots``, one by one."""
    return _bottom_up(roots, children, _TEXTS)


# ---------------------------------------------------------------------------
# Lexing

_TOKEN = r"_\|_|<->|->|=>|[A-Za-z][A-Za-z0-9_]*|[()\[\]:~&|+*!,]"
_VALID_TOKEN_RE = re.compile(_TOKEN)
# One token per match, after optional whitespace.  The last alternative
# catches any other character, so no input is skipped; ``_tokenize`` rejects it.
_TOKEN_RE = re.compile(rf"\s*({_TOKEN}|\S)")

_ATOM_RE = re.compile(r"[A-Z][A-Za-z0-9_]*$")
_PCONST_RE = re.compile(r"c(?:[0-9]+|_[A-Za-z0-9_]+)$")
_PVAR_RE = re.compile(r"p([0-9]+)$")
_JVAR_RE = re.compile(r"x([0-9]+)$")


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, then ``""`` for the end of the input.
    Positions are recovered by ``_token_starts`` only when an error needs one."""
    tokens = _TOKEN_RE.findall(text)
    bad = {t for t in set(tokens) if not _VALID_TOKEN_RE.fullmatch(t)}
    if bad:
        i = next(i for i, t in enumerate(tokens) if t in bad)
        raise ParseError(f"unexpected character {tokens[i]!r}", _token_starts(text)[i])
    tokens.append("")
    return tokens


def _token_starts(text: str) -> list[int]:
    """The offset of each token of ``_tokenize(text)``, the end included."""
    return [m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)]


# ---------------------------------------------------------------------------
# Parsing

# Binary connectives for precedence climbing: class and precedence.  ``->``
# is right-associative, ``|`` and ``&`` are left-associative.
_BINARY = {"->": (Implies, _PREC_IMP), "|": (Or, _PREC_OR), "&": (And, _PREC_AND)}


class Reader:
    """Parses texts of one dialect, checking each node's tree depth.

    Nodes are hash-consed by their constructors, so equal subformulas and
    subterms come back as the same object, whichever text or reader they
    were read from.  The reader records the tree depth of every node it
    builds, for ``_Parser.MAX_DEPTH``; make one per file or per call, since
    the record keeps those nodes alive.
    """

    def __init__(self, dialect: Dialect):
        self.dialect = dialect
        self.depths: dict[Formula | Term, int] = {}  # tree depth; leaves are 0

    def formula(self, text: str) -> Formula:
        return self._read(text, _Parser.formula)

    def proof_term(self, text: str) -> ProofTerm:
        return self._read(text, _Parser.proof_term)

    def just_term(self, text: str) -> JustTerm:
        return self._read(text, _Parser.just_term)

    def sequent(self, text: str) -> tuple[tuple[Formula, ...], tuple[Formula, ...]]:
        return self._read(text, _Parser.sequent)

    def _read(self, text: str, rule):
        p = _Parser(text, self)
        try:
            out = rule(p)
            if not p.at_end():
                raise p.error(f"trailing input {p.peek()!r}")
        except _Failure as e:
            message, index = e.args
            raise ParseError(message, _token_starts(text)[index]) from None
        return out


class _Failure(Exception):
    """A parse failure at a token index.  The parser backtracks on these, so
    the character position is only worked out once one reaches the caller."""


class _Parser:
    # The deepest nesting accepted, counted two ways: the depth of the syntax
    # tree (a level per connective, box, assertion and term constructor), and
    # while reading, the parentheses, prefixes and right operands open at the
    # current token.  The parser's descent recurses once per level, and the
    # limit keeps it far inside Python's default limit of 1000 frames; the
    # walks over what it reads use ``postorder`` or a memo filled in it.  Proof
    # search recurses per rule application, under ``sequent.SEARCH_DEPTH_LIMIT``.
    # Files the toolkit writes can pass the limit: see docs/grammar.md.
    MAX_DEPTH = 200

    def __init__(self, text: str, reader: Reader):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dialect = reader.dialect
        self.depths = reader.depths
        self.depth = 0  # parentheses, prefixes and right operands open here

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.peek()
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""

    def error(self, message: str) -> _Failure:
        return _Failure(message, self.pos)

    def enter(self) -> None:
        """Open one level of nesting; the caller closes it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            raise self.error(f"nesting deeper than {self.MAX_DEPTH} levels")

    # -- building

    def node(self, cls, *kids):
        depth = max(self.depths.get(c, 0) for c in kids) + 1
        if depth > self.MAX_DEPTH:
            raise self.error(f"nesting deeper than {self.MAX_DEPTH} levels")
        node = cls(*kids)
        self.depths[node] = depth
        return node

    # -- formulas

    def sequent(self) -> tuple[tuple[Formula, ...], tuple[Formula, ...]]:
        """``F1, F2 => G1, G2``; either side may be empty."""
        ante = self.formula_list("=>")
        self.expect("=>")
        return ante, self.formula_list("")

    def formula_list(self, closer: str) -> tuple[Formula, ...]:
        """Comma-separated formulas up to ``closer`` (``""`` is the end of
        the input), possibly none."""
        if self.peek() == closer:
            return ()
        out = [self.formula()]
        while self.peek() == ",":
            self.next()
            out.append(self.formula())
        return tuple(out)

    def formula(self) -> Formula:
        left = self.binary(_PREC_IMP)
        if self.peek() == "<->":
            self.next()
            right = self.binary(_PREC_IMP)
            return self.node(And, self.node(Implies, left, right), self.node(Implies, right, left))
        return left

    def binary(self, min_prec: int) -> Formula:
        """Precedence climbing over the connectives binding at least as
        tightly as ``min_prec``."""
        left = self.unary()
        while True:
            op = _BINARY.get(self.peek())
            if op is None or op[1] < min_prec:
                return left
            cls, prec = op
            self.next()
            self.enter()
            right = self.binary(prec if cls is Implies else prec + 1)
            self.depth -= 1
            left = self.node(cls, left, right)

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.next()
            self.enter()
            inner = self.unary()
            self.depth -= 1
            return self.node(Not, inner)
        if tok == "[":
            self.next()
            self.enter()
            if self.peek() == "]":
                if self.dialect is not Dialect.MODAL:
                    raise DialectError("[] is only available in the modal dialect")
                self.next()
                body = self.unary()
                self.depth -= 1
                return self.node(Box, body)
            term = self.just_term()
            self.expect("]")
            body = self.unary()
            self.depth -= 1
            return self.node(JustOf, term, body)
        if tok == "_|_":
            self.next()
            return BOT
        if _ATOM_RE.match(tok):
            self.next()
            return Atom(tok)
        if tok == "(":
            if self.dialect is not Dialect.MODAL:
                saved = self.pos, self.depth
                try:
                    return self.proof_of()
                except _Failure:
                    self.pos, self.depth = saved
            self.next()
            self.enter()
            inner = self.formula()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok == "!" or _PCONST_RE.match(tok) or _PVAR_RE.match(tok):
            return self.proof_of()
        if tok[:1].isalpha():
            raise DialectError(f"name {tok!r} does not start a {self.dialect.value} formula")
        raise self.error(f"unexpected {tok or 'end of input'!r}")

    def proof_of(self) -> Formula:
        """``t:F``, where ``F`` is an atom, ``_|_`` or parenthesised."""
        term = self.proof_term()
        self.expect(":")
        self.enter()
        tok = self.peek()
        if tok == "_|_":
            self.next()
            body = BOT
        elif _ATOM_RE.match(tok):
            self.next()
            body = Atom(tok)
        elif tok == "(":
            self.next()
            self.enter()
            body = self.formula()
            self.expect(")")
            self.depth -= 1
        else:
            raise self.error("the body of ':' must be an atom, _|_ or parenthesised")
        self.depth -= 1
        return self.node(ProofOf, term, body)

    # -- proof terms

    def proof_term(self) -> ProofTerm:
        if self.dialect is Dialect.MODAL:
            raise DialectError("proof terms are not available in the modal dialect")
        left = self.proof_prod()
        while self.peek() == "+":
            if self.dialect is Dialect.JEM:
                raise DialectError("proof-term sum is not available in JEM")
            self.next()
            left = self.node(Sum, left, self.proof_prod())
        return left

    def proof_prod(self) -> ProofTerm:
        left = self.proof_atom()
        while self.peek() == "*":
            self.next()
            left = self.node(Apply, left, self.proof_atom())
        return left

    def proof_atom(self) -> ProofTerm:
        tok = self.peek()
        if tok == "!":
            self.next()
            self.enter()
            inner = self.proof_atom()
            self.depth -= 1
            return self.node(Bang, inner)
        if tok == "(":
            self.next()
            self.enter()
            inner = self.proof_term()
            self.expect(")")
            self.depth -= 1
            return inner
        if _PCONST_RE.match(tok):
            self.next()
            return ProofConst(tok)
        m = _PVAR_RE.match(tok)
        if m:
            self.next()
            return ProofVar(int(m.group(1)))
        if tok in ("e", "m") or _JVAR_RE.match(tok):
            raise self.error(f"justification term {tok!r} where a proof term is needed")
        raise self.error(f"expected a proof term, found {tok or 'end of input'!r}")

    # -- justification terms

    def just_term(self) -> JustTerm:
        if self.dialect is Dialect.MODAL:
            raise DialectError("justification terms are not available in the modal dialect")
        if self.dialect is Dialect.JE:
            tok = self.peek()
            if tok == "m" or _JVAR_RE.match(tok):
                raise DialectError(f"{tok!r} belongs to JEM, not JE")
            self.expect("e")
            self.expect("(")
            self.enter()
            inner = self.proof_term()
            self.expect(")")
            self.depth -= 1
            return self.node(Evidence, inner)
        return self.just_sum()

    def just_sum(self) -> JustTerm:
        left = self.just_atom()
        while self.peek() == "+":
            self.next()
            left = self.node(JustSum, left, self.just_atom())
        return left

    def just_atom(self) -> JustTerm:
        tok = self.peek()
        if tok == "(":
            self.next()
            self.enter()
            inner = self.just_sum()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok == "e":
            raise DialectError("e(.) belongs to JE, not JEM")
        if tok == "m":
            self.next()
            self.expect("(")
            self.enter()
            p = self.proof_term()
            self.expect(",")
            j = self.just_sum()
            self.expect(")")
            self.depth -= 1
            return self.node(MApply, p, j)
        m = _JVAR_RE.match(tok)
        if m:
            self.next()
            return JustVar(int(m.group(1)))
        raise self.error(f"expected a justification term, found {tok or 'end of input'!r}")


def parse_formula(text: str, dialect: Dialect) -> Formula:
    return Reader(dialect).formula(text)


def parse_proof_term(text: str, dialect: Dialect) -> ProofTerm:
    return Reader(dialect).proof_term(text)


def parse_just_term(text: str, dialect: Dialect) -> JustTerm:
    return Reader(dialect).just_term(text)


def parse_sequent(text: str, dialect: Dialect) -> tuple[tuple[Formula, ...], tuple[Formula, ...]]:
    """Parse ``F1, F2 => G1, G2``; either side may be empty."""
    return Reader(dialect).sequent(text)
