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
their fields) and carry no dialect tag of their own;
``check_formula`` validates a tree against a dialect.  Nodes are hash-consed:
every constructor call returns the one live node with its class and fields,
so equal terms and formulas are identical objects, ``==`` and ``hash`` are by
identity, and a term DAG costs memory per distinct node.  Occurrences of
subformulas are addressed by paths (tuples of child indices), which is what the
sequent machinery uses to track box occurrences across rule applications.

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
from dataclasses import MISSING, Field, FrozenInstanceError, dataclass, fields
from enum import Enum
from operator import attrgetter
from typing import Iterator, Mapping


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


class BadPath(Exception):
    """An occurrence path does not point into the formula."""


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
# on a dataclass.

# Sets a field of a frozen instance, past its ``__setattr__``.
_set = object.__setattr__


def _key(names: tuple[str, ...]):
    """A class attribute mapping an instance to the tuple of its fields
    ``names`` (functions are wrapped, so an instance does not bind them)."""
    if len(names) > 1:
        return attrgetter(*names)
    return staticmethod(lambda obj: tuple(getattr(obj, name) for name in names))


class _Slotted(type):
    """Metaclass of the node and record classes.  A class body without
    ``__slots__`` declares its fields by annotation; it may give a field
    ``field(compare=False)`` or ``field(repr=False)``; defaults are the
    business of the class's ``__init__``."""

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


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
    return f"{type(self).__qualname__}({shown})"


def _reduce(self):
    # copy, deepcopy and pickle rebuild through the constructor.
    return type(self), tuple(getattr(self, name) for name in self.__match_args__)


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
    by identity, so a key hashes in O(1).  Fields may be passed by keyword."""

    def __call__(cls, *values, **named):
        if named:
            values = cls._positional(values, named)
        key = (cls, *values)
        ref = _LIVE.get(key)
        node = None if ref is None else ref()
        if node is None:
            names = cls.__match_args__
            if len(values) != len(names):
                raise TypeError(f"{cls.__name__}() takes the fields {names}, got {len(values)} values")
            node = object.__new__(cls)
            for name, value in zip(names, values):
                _set(node, name, value)
            _NODES[key] = node
        return node

    def _positional(cls, values, named):
        """``values`` followed by the keyword ``named`` fields, in field order."""
        rest = cls.__match_args__[len(values):]
        for name in named:
            if name not in rest:
                taken = name in cls.__match_args__
                problem = "multiple values for" if taken else "an unexpected keyword argument"
                raise TypeError(f"{cls.__name__}() got {problem} {name!r}")
        for name in rest:
            if name not in named:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        return (*values, *(named[name] for name in rest))


class _HashConsed(metaclass=_Interned):
    """Base of the hash-consed classes: the term and formula nodes and the
    metavariables of axiom patterns.  Instances are immutable, equal fields
    give the identical object, and ``==`` and ``hash`` are by identity."""

    __slots__ = ("__weakref__",)
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr
    __repr__ = _repr
    __reduce__ = _reduce


class _Node(_HashConsed):
    """Base of the term and formula classes."""

    __slots__ = ()


class _Record(metaclass=_Slotted):
    """Base of the mutable records: ``==`` compares the fields, and
    instances are unhashable.  Each record writes out its ``__init__``."""

    __slots__ = ()
    __repr__ = _repr
    __reduce__ = _reduce
    __hash__ = None

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
    left: "ProofTerm"
    right: "ProofTerm"


class Sum(_Node):
    left: "ProofTerm"
    right: "ProofTerm"


class Bang(_Node):
    inner: "ProofTerm"


class Evidence(_Node):
    """JE justification term ``e(t)`` wrapping a proof term."""

    proof: "ProofTerm"


class JustVar(_Node):
    index: int


class JustSum(_Node):
    left: "JustTerm"
    right: "JustTerm"


class MApply(_Node):
    """JEM justification term ``m(t, s)``: a proof term applied to evidence."""

    proof: "ProofTerm"
    just: "JustTerm"


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
    left: "Formula"
    right: "Formula"


class And(_Node):
    left: "Formula"
    right: "Formula"


class Or(_Node):
    left: "Formula"
    right: "Formula"


class Not(_Node):
    inner: "Formula"


class ProofOf(_Node):
    """``t:F`` -- a proof term asserting a formula."""

    term: ProofTerm
    body: "Formula"


class JustOf(_Node):
    """``[t]F`` -- a justification term asserting a formula."""

    term: JustTerm
    body: "Formula"


class Box(_Node):
    body: "Formula"


Formula = Atom | Bottom | Implies | And | Or | Not | ProofOf | JustOf | Box

BOT = Bottom()


# ---------------------------------------------------------------------------
# Structure helpers


def formula_children(f: Formula) -> tuple[Formula, ...]:
    match f:
        case Implies(l, r) | And(l, r) | Or(l, r):
            return (l, r)
        case Not(inner):
            return (inner,)
        case ProofOf(_, body) | JustOf(_, body):
            return (body,)
        case Box(body):
            return (body,)
        case _:
            return ()


def subformula_at(f: Formula, path: tuple[int, ...]) -> Formula:
    node = f
    for i, step in enumerate(path):
        kids = formula_children(node)
        if step >= len(kids):
            raise BadPath(f"no child {step} at {path[:i]}")
        node = kids[step]
    return node


def subformulas(f: Formula) -> Iterator[tuple[tuple[int, ...], Formula]]:
    """Preorder walk yielding (path, subformula) pairs."""
    stack = [((), f)]
    while stack:
        path, node = stack.pop(0)
        yield path, node
        stack[0:0] = [(path + (i,), kid) for i, kid in enumerate(formula_children(node))]


def box_occurrences(f: Formula) -> tuple[tuple[int, ...], ...]:
    """Paths to every ``Box`` node, in preorder."""
    return tuple(path for path, node in subformulas(f) if isinstance(node, Box))


def polarity_at(f: Formula, path: tuple[int, ...]) -> str:
    """Polarity of the subformula at ``path``: the whole formula is positive,
    implication flips its left side, negation flips, everything else keeps."""
    node = f
    flips = 0
    for i, step in enumerate(path):
        kids = formula_children(node)
        if step >= len(kids):
            raise BadPath(f"no child {step} at {path[:i]}")
        if isinstance(node, Implies) and step == 0:
            flips += 1
        elif isinstance(node, Not):
            flips += 1
        node = kids[step]
    return "positive" if flips % 2 == 0 else "negative"


def term_depth(t: Term) -> int:
    match t:
        case ProofConst() | ProofVar() | JustVar():
            return 1
        case Apply(l, r) | Sum(l, r) | JustSum(l, r):
            return 1 + max(term_depth(l), term_depth(r))
        case Bang(inner) | Evidence(inner):
            return 1 + term_depth(inner)
        case MApply(l, r):
            return 1 + max(term_depth(l), term_depth(r))
    raise TypeError(f"not a term: {t!r}")


def subterms(t: Term) -> Iterator[Term]:
    yield t
    match t:
        case Apply(l, r) | Sum(l, r) | JustSum(l, r) | MApply(l, r):
            yield from subterms(l)
            yield from subterms(r)
        case Bang(inner) | Evidence(inner):
            yield from subterms(inner)


def terms_in(f: Formula) -> Iterator[Term]:
    """All terms asserting something in ``f``, outermost first."""
    for _, node in subformulas(f):
        if isinstance(node, (ProofOf, JustOf)):
            yield node.term


# ---------------------------------------------------------------------------
# Dialect validation


def check_proof_term(t: ProofTerm, dialect: Dialect, _seen: set | None = None) -> None:
    # ``_seen`` holds the nodes already validated during this call, so a term
    # DAG with heavy sharing is walked once per distinct node, not once per
    # path.  A caller may pass one set to several calls (``check_derivation``
    # does, across all steps).
    if _seen is None:
        _seen = set()
    elif t in _seen:
        return
    _seen.add(t)
    match t:
        case ProofConst() | ProofVar():
            pass
        case Apply(l, r):
            check_proof_term(l, dialect, _seen)
            check_proof_term(r, dialect, _seen)
        case Sum(l, r):
            if dialect is Dialect.JEM:
                raise DialectError("proof-term sum is not available in JEM")
            check_proof_term(l, dialect, _seen)
            check_proof_term(r, dialect, _seen)
        case Bang(inner):
            check_proof_term(inner, dialect, _seen)
        case _:
            raise DialectError(f"not a proof term: {t!r}")


def check_just_term(t: JustTerm, dialect: Dialect, _seen: set | None = None) -> None:
    if _seen is None:
        _seen = set()
    elif t in _seen:
        return
    _seen.add(t)
    match t:
        case Evidence(p):
            if dialect is not Dialect.JE:
                raise DialectError("e(.) terms belong to JE only")
            check_proof_term(p, dialect, _seen)
        case JustVar():
            if dialect is not Dialect.JEM:
                raise DialectError("justification variables belong to JEM only")
        case JustSum(l, r):
            if dialect is not Dialect.JEM:
                raise DialectError("justification-term sum belongs to JEM only")
            check_just_term(l, dialect, _seen)
            check_just_term(r, dialect, _seen)
        case MApply(p, j):
            if dialect is not Dialect.JEM:
                raise DialectError("m(.,.) terms belong to JEM only")
            check_proof_term(p, dialect, _seen)
            check_just_term(j, dialect, _seen)
        case _:
            raise DialectError(f"not a justification term: {t!r}")


def check_formula(f: Formula, dialect: Dialect, _seen: set | None = None) -> None:
    if _seen is None:
        _seen = set()
    elif f in _seen:
        return
    _seen.add(f)
    match f:
        case Atom() | Bottom():
            pass
        case Implies(l, r) | And(l, r) | Or(l, r):
            check_formula(l, dialect, _seen)
            check_formula(r, dialect, _seen)
        case Not(inner):
            check_formula(inner, dialect, _seen)
        case Box(body):
            if dialect is not Dialect.MODAL:
                raise DialectError("[] belongs to the modal dialect only")
            check_formula(body, dialect, _seen)
        case ProofOf(t, body):
            if dialect is Dialect.MODAL:
                raise DialectError("proof assertions do not exist in the modal dialect")
            check_proof_term(t, dialect, _seen)
            check_formula(body, dialect, _seen)
        case JustOf(t, body):
            if dialect is Dialect.MODAL:
                raise DialectError("justification assertions do not exist in the modal dialect")
            check_just_term(t, dialect, _seen)
            check_formula(body, dialect, _seen)
        case _:
            raise DialectError(f"not a formula: {f!r}")


def forgetful(f: Formula) -> Formula:
    """Erase justification terms: ``[t]F`` becomes ``[]F``.

    Undefined on formulas containing a proof assertion ``t:F`` (there is no
    modal counterpart for those), in which case ProofOfPresent is raised.
    """
    match f:
        case Atom() | Bottom():
            return f
        case Implies(l, r):
            return Implies(forgetful(l), forgetful(r))
        case And(l, r):
            return And(forgetful(l), forgetful(r))
        case Or(l, r):
            return Or(forgetful(l), forgetful(r))
        case Not(inner):
            return Not(forgetful(inner))
        case JustOf(_, body):
            return Box(forgetful(body))
        case ProofOf(t, _):
            raise ProofOfPresent(f"cannot erase proof assertion {print_term(t)}:...")
        case Box():
            raise DialectError("input to the forgetful translation is already modal")
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Substitution


class Substitution(_FrozenRecord):
    """Simultaneous replacement of atoms, proof variables and justification
    variables.  Replacement values are not themselves rescanned."""

    atoms: Mapping[str, Formula]
    proof_vars: Mapping[int, ProofTerm]
    just_vars: Mapping[int, JustTerm]

    def __init__(self, atoms=None, proof_vars=None, just_vars=None):
        _set(self, "atoms", {} if atoms is None else atoms)
        _set(self, "proof_vars", {} if proof_vars is None else proof_vars)
        _set(self, "just_vars", {} if just_vars is None else just_vars)

    def is_empty(self) -> bool:
        return not (self.atoms or self.proof_vars or self.just_vars)


def apply_to_term(t: Term, s: Substitution) -> Term:
    return _Substituter(s).term(t)


def apply_substitution(f: Formula, s: Substitution) -> Formula:
    return _Substituter(s).formula(f)


class _Substituter:
    """One substitution, applied to each distinct node once.

    Structures that share nodes (a realization step rewrites every
    derivation, candidate and log entry built so far) should go through one
    instance, and the instance dropped afterwards.  A node the substitution
    does not touch comes back as itself, since its constructor returns the
    live node with the same fields."""

    __slots__ = ("s", "_memo")

    def __init__(self, s: Substitution):
        self.s = s
        self._memo: dict[Formula | Term, Formula | Term] = {}

    def term(self, t: Term) -> Term:
        out = self._memo.get(t)
        if out is not None:
            return out
        match t:
            case ProofConst():
                out = t
            case ProofVar(i):
                out = self.s.proof_vars.get(i, t)
            case Apply(l, r):
                out = Apply(self.term(l), self.term(r))
            case Sum(l, r):
                out = Sum(self.term(l), self.term(r))
            case Bang(inner):
                out = Bang(self.term(inner))
            case Evidence(p):
                out = Evidence(self.term(p))
            case JustVar(i):
                out = self.s.just_vars.get(i, t)
            case JustSum(l, r):
                out = JustSum(self.term(l), self.term(r))
            case MApply(p, j):
                out = MApply(self.term(p), self.term(j))
            case _:
                raise TypeError(f"not a term: {t!r}")
        self._memo[t] = out
        return out

    def formula(self, f: Formula) -> Formula:
        out = self._memo.get(f)
        if out is not None:
            return out
        match f:
            case Atom(name):
                out = self.s.atoms.get(name, f)
            case Bottom():
                out = f
            case Implies(l, r):
                out = Implies(self.formula(l), self.formula(r))
            case And(l, r):
                out = And(self.formula(l), self.formula(r))
            case Or(l, r):
                out = Or(self.formula(l), self.formula(r))
            case Not(inner):
                out = Not(self.formula(inner))
            case ProofOf(t, body):
                out = ProofOf(self.term(t), self.formula(body))
            case JustOf(t, body):
                out = JustOf(self.term(t), self.formula(body))
            case Box(body):
                out = Box(self.formula(body))
            case _:
                raise TypeError(f"not a formula: {f!r}")
        self._memo[f] = out
        return out


# ---------------------------------------------------------------------------
# Printing

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4, 5


def print_term(t: Term) -> str:
    return _pt(t, 0)


def _pt(t: Term, prec: int) -> str:
    match t:
        case ProofConst(name):
            return name
        case ProofVar(i):
            return f"p{i}"
        case JustVar(i):
            return f"x{i}"
        case Sum(l, r) | JustSum(l, r):
            s = f"{_pt(l, 1)} + {_pt(r, 2)}"
            return f"({s})" if prec > 1 else s
        case Apply(l, r):
            s = f"{_pt(l, 2)} * {_pt(r, 3)}"
            return f"({s})" if prec > 2 else s
        case Bang(inner):
            return f"!{_pt(inner, 3)}"
        case Evidence(p):
            return f"e({_pt(p, 0)})"
        case MApply(p, j):
            return f"m({_pt(p, 0)}, {_pt(j, 0)})"
    raise TypeError(f"not a term: {t!r}")


def print_formula(f: Formula) -> str:
    return _pf(f, 0)


def _pf(f: Formula, prec: int) -> str:
    match f:
        case Atom(name):
            return name
        case Bottom():
            return "_|_"
        case Implies(l, r):
            s = f"{_pf(l, _PREC_IMP + 1)} -> {_pf(r, _PREC_IMP)}"
            return f"({s})" if prec > _PREC_IMP else s
        case Or(l, r):
            s = f"{_pf(l, _PREC_OR)} | {_pf(r, _PREC_OR + 1)}"
            return f"({s})" if prec > _PREC_OR else s
        case And(l, r):
            s = f"{_pf(l, _PREC_AND)} & {_pf(r, _PREC_AND + 1)}"
            return f"({s})" if prec > _PREC_AND else s
        case Not(inner):
            return f"~{_pf(inner, _PREC_UNARY)}"
        case Box(body):
            return f"[]{_pf(body, _PREC_UNARY)}"
        case JustOf(t, body):
            return f"[{print_term(t)}]{_pf(body, _PREC_UNARY)}"
        case ProofOf(t, body):
            if isinstance(body, (Atom, Bottom)):
                return f"{print_term(t)}:{_pf(body, _PREC_ATOM)}"
            return f"{print_term(t)}:({_pf(body, 0)})"
    raise TypeError(f"not a formula: {f!r}")


def print_sequent(antecedent: tuple[Formula, ...], succedent: tuple[Formula, ...]) -> str:
    left = ", ".join(print_formula(f) for f in antecedent)
    right = ", ".join(print_formula(f) for f in succedent)
    return f"{left} => {right}".strip()


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
    # current token.  Recursion in the parser and in every walker over its
    # output then stays far inside Python's default limit of 1000 frames.
    # The toolkit's own files nest far less: 69 tree levels at most in the
    # derivation of the GE realization of []^4 A => []^4 A.
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

    def node(self, cls, *children):
        depth = max(self.depths.get(c, 0) for c in children) + 1
        if depth > self.MAX_DEPTH:
            raise self.error(f"nesting deeper than {self.MAX_DEPTH} levels")
        node = cls(*children)
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
