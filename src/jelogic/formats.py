"""Plain-text file formats for the toolkit's artifacts.

Four formats, each versioned by its header line:

* ``# jelogic derivation v1``   -- Hilbert derivations, one numbered step per
  line (``hyp``/``axiom``/``an``/``mp``) and a final ``conclusion`` line.
  Axiom instances carry the scheme id and the instance formula; the reader
  rejects a formula that does not match its scheme.  ``mp`` and
  ``conclusion`` name steps read before them by their first position.  The
  writer writes each distinct step once, in the order of ``steps``.
* ``# jelogic cs v1``           -- constant specifications, one constant and
  its scheme ids per line.
* ``# jelogic sequent-proof v1`` -- proof trees, one node per line, children
  indented two spaces below their parent.
* ``# jelogic model v1``        -- quasi-models: worlds, neighborhoods, atom
  values and term entries, all world-tagged.

Writers emit canonical order, so ``write(parse(text)) == text`` whenever
``text`` itself was produced by a writer.  A reader's ``FormatError`` starts
``line N: ``, N the 1-based file line it read last (blank lines count).  Terms
and formulas are hash-consed as they are built (see ``syntax``), so the trees a
reader returns share every repeated subformula and subterm, and memory grows
with the distinct nodes in the file.
"""

from __future__ import annotations

from .axioms import ConstantSpecification, match, scheme_by_id
from .hilbert import ANStep, AxiomStep, Derivation, Hyp, MPStep, _rooted
from .semantics import FiniteBasicEvaluation, QuasiModel
from .sequent import Proof, Sequent
from .syntax import Dialect, DialectError, ParseError, Reader, _printed, print_formula, print_term


class FormatError(Exception):
    pass


def _parse_any_term(text: str, reader: Reader):
    try:
        return reader.proof_term(text)
    except ParseError:
        return reader.just_term(text)


def _read(text: str, header: str, parse):
    """``parse`` of the nonblank lines after ``header``, right-stripped, as
    an iterator.  A ``FormatError`` is prefixed with the line read last."""
    numbered = [(n, ln.rstrip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    at = numbered[0][0] if numbered else 1

    def lines():
        nonlocal at
        for at, ln in numbered[1:]:
            yield ln

    try:
        if not numbered or numbered[0][1].strip() != header:
            raise FormatError(f"expected header {header!r}")
        return parse(lines())
    except FormatError as e:
        raise FormatError(f"line {at}: {e}") from e


def _keyword_line(lines, keyword: str) -> str:
    """The rest of the next line, which must start with ``keyword``."""
    ln = next(lines, "")
    if not ln.startswith(keyword + " "):
        raise FormatError(f"expected a {keyword!r} line")
    return ln.split(None, 1)[1].strip()


def _dialect_line(lines) -> Dialect:
    name = _keyword_line(lines, "dialect")
    try:
        return Dialect[name]
    except KeyError:
        raise FormatError(f"unknown dialect {name!r}") from None


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad {what} {text!r}") from None


def _fields(text: str, count: int, sep: str | None = None) -> list[str]:
    """``text`` split at ``sep`` (whitespace when None) into exactly
    ``count`` fields, the last one taking the rest."""
    parts = text.split(sep, count - 1)
    if len(parts) != count:
        raise FormatError(f"expected {count} fields in {text!r}")
    return parts


# ---------------------------------------------------------------------------
# Derivations

_DERIVATION_HEADER = "# jelogic derivation v1"


def write_derivation(d: Derivation) -> str:
    out = [_DERIVATION_HEADER, f"dialect {d.dialect.name}"]
    steps = d.steps
    # Steps share subformulas: each is printed once per file.
    written = (Hyp, AxiomStep, ANStep)
    texts = _printed([s.axiom if isinstance(s, ANStep) else s.formula for s in steps if isinstance(s, written)])
    numbers = {step: i for i, step in enumerate(steps)}
    for i, step in enumerate(steps):
        if isinstance(step, Hyp):
            out.append(f"{i} hyp {next(texts)}")
        elif isinstance(step, AxiomStep):
            out.append(f"{i} axiom {step.scheme} {next(texts)}")
        elif isinstance(step, ANStep):
            out.append(f"{i} an {step.constant} {next(texts)}")
        elif isinstance(step, MPStep):
            out.append(f"{i} mp {numbers[step.major]} {numbers[step.minor]}")
        else:
            raise FormatError(f"unwritable step {step!r}")
    out.append(f"conclusion {numbers[d.conclusion]}")
    return "\n".join(out) + "\n"


def parse_derivation(text: str) -> Derivation:
    return parse_numbered_derivation(text)[0]


def parse_numbered_derivation(text: str) -> tuple[Derivation, dict]:
    """The derivation, and each step's number in ``text`` (its first line's)."""
    return _read(text, _DERIVATION_HEADER, _read_derivation)


def _earlier(steps: list, text: str, what: str):
    """The step numbered ``text``, which must have been read already."""
    n = _int(text, what)
    if not 0 <= n < len(steps):
        raise FormatError(f"{what} {n} names no step read so far")
    return steps[n]


def _read_derivation(lines) -> tuple[Derivation, dict]:
    dialect = _dialect_line(lines)
    reader = Reader(dialect)
    steps = []
    conclusion = None
    for ln in lines:
        parts = ln.split(None, 1)
        if parts[0] == "conclusion":
            if conclusion is not None:
                raise FormatError("a second conclusion line")
            conclusion = _earlier(steps, parts[1] if len(parts) == 2 else "", "conclusion")
            continue
        if conclusion is not None:
            raise FormatError("steps after the conclusion line")
        try:
            num, kind, rest = ln.split(None, 2)
        except ValueError:
            raise FormatError(f"malformed step line {ln!r}") from None
        if _int(num, "step number") != len(steps):
            raise FormatError(f"step numbered {num}, expected {len(steps)}")
        try:
            if kind == "hyp":
                steps.append(Hyp(reader.formula(rest)))
            elif kind == "axiom":
                scheme_id, ftext = _fields(rest, 2)
                f = reader.formula(ftext)
                if match(scheme_by_id(scheme_id, dialect).pattern, f) is None:
                    raise FormatError(f"{print_formula(f)} is not a {scheme_id} instance")
                steps.append(AxiomStep(f, scheme_id))
            elif kind == "an":
                constant, ftext = _fields(rest, 2)
                steps.append(ANStep(constant, reader.formula(ftext)))
            elif kind == "mp":
                major, minor = (_earlier(steps, n, "premise") for n in _fields(rest, 2))
                steps.append(MPStep(major, minor))
            else:
                raise FormatError(f"unknown step kind {kind!r}")
        except (ParseError, DialectError) as e:
            raise FormatError(f"bad formula in step {num}: {e}") from e
        except KeyError as e:
            raise FormatError(f"unknown axiom scheme in step {num}: {e}") from e
        except (FormatError, ValueError) as e:
            raise FormatError(f"malformed step {num}: {e}") from e
    if conclusion is None:
        raise FormatError("missing conclusion line")
    return _rooted(dialect, conclusion, steps), {step: n for n, step in reversed(list(enumerate(steps)))}


# ---------------------------------------------------------------------------
# Constant specifications

_CS_HEADER = "# jelogic cs v1"


def write_cs(cs: ConstantSpecification) -> str:
    out = [_CS_HEADER, f"dialect {cs.dialect.name}"]
    for name in sorted(cs.assignment):
        schemes = " ".join(sorted(cs.assignment[name]))
        out.append(f"{name}: {schemes}")
    return "\n".join(out) + "\n"


def parse_cs(text: str) -> ConstantSpecification:
    return _read(text, _CS_HEADER, _read_cs)


def _read_cs(lines) -> ConstantSpecification:
    dialect = _dialect_line(lines)
    assignment: dict[str, frozenset[str]] = {}
    for ln in lines:
        if ":" not in ln:
            raise FormatError(f"malformed constant line {ln!r}")
        name, rest = ln.split(":", 1)
        name = name.strip()
        if name in assignment:
            raise FormatError(f"constant {name!r} declared twice")
        schemes = frozenset(rest.split())
        for sid in schemes:
            try:
                scheme_by_id(sid, dialect)
            except KeyError as e:
                raise FormatError(f"unknown scheme for {name!r}: {e}") from e
        assignment[name] = schemes
    return ConstantSpecification(dialect, assignment)


# ---------------------------------------------------------------------------
# Sequent proofs

_PROOF_HEADER = "# jelogic sequent-proof v1"


def write_sequent_proof(p: Proof, calculus: str) -> str:
    out = [_PROOF_HEADER, f"calculus {calculus}"]

    stack = [(p, 0)]  # a stack, not recursion: proofs nest arbitrarily deep
    while stack:
        node, level = stack.pop()
        occ = " ".join(f"{side}{i}" for side, i in node.principal)
        out.append("  " * level + f"{node.rule} {occ} | {node.sequent}")
        stack.extend((child, level + 1) for child in reversed(node.children))
    return "\n".join(out) + "\n"


def parse_sequent_proof(text: str) -> tuple[Proof, str]:
    return _read(text, _PROOF_HEADER, _read_sequent_proof)


def _read_sequent_proof(lines) -> tuple[Proof, str]:
    calculus = _keyword_line(lines, "calculus")
    if calculus not in ("GE", "GM"):
        raise FormatError(f"unknown calculus {calculus!r}")
    reader = Reader(Dialect.MODAL)
    # Built with a stack, not recursion, so that a proof nests arbitrarily
    # deep: ``pending`` holds one node per level whose premises are still
    # being read, each as its line's fields and the premises built so far.
    pending: list[tuple[tuple, list[Proof]]] = []

    def close() -> Proof:
        (rule, principal, sequent), children = pending.pop()
        node = Proof(sequent, rule, principal, tuple(children))
        if pending:
            pending[-1][1].append(node)
        return node

    for ln in lines:
        stripped = ln.lstrip(" ")
        indent = len(ln) - len(stripped)
        if indent % 2:
            raise FormatError(f"odd indentation in {ln!r}")
        try:
            head, seq_text = stripped.split("|", 1)
        except ValueError:
            raise FormatError(f"missing '|' in proof line {ln!r}") from None
        parts = head.split()
        if not parts:
            raise FormatError(f"missing rule name in proof line {ln!r}")
        rule, occ_texts = parts[0], parts[1:]
        principal = []
        for occ in occ_texts:
            if occ[0] not in "LR" or not occ[1:].isdigit():
                raise FormatError(f"bad principal occurrence {occ!r}")
            principal.append((occ[0], int(occ[1:])))
        try:
            sequent = Sequent(*reader.sequent(seq_text.strip()))
        except (ParseError, DialectError) as e:
            raise FormatError(f"bad sequent in {ln!r}: {e}") from e
        level = indent // 2
        if pending and level == 0:
            raise FormatError("multiple roots in proof file")
        if level > len(pending):
            raise FormatError("indentation jump")
        while len(pending) > level:
            close()
        pending.append(((rule, tuple(principal), sequent), []))
    if not pending:
        raise FormatError("empty proof")
    while pending:
        root = close()
    return root, calculus


# ---------------------------------------------------------------------------
# Models

_MODEL_HEADER = "# jelogic model v1"


def _write_world_set(ws: frozenset[str]) -> str:
    return "{" + ",".join(sorted(ws)) + "}"


def _parse_world_set(text: str, worlds: frozenset[str]) -> frozenset[str]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise FormatError(f"malformed world set {text!r}")
    inner = text[1:-1].strip()
    members = frozenset(w.strip() for w in inner.split(",") if w.strip())
    unknown = members - worlds
    if unknown:
        raise FormatError(f"unknown worlds {sorted(unknown)} in {text!r}")
    return members


def write_model(m: QuasiModel) -> str:
    dialects = {eps.dialect for eps in m.evaluations.values()}
    if len(dialects) != 1:
        raise FormatError("model mixes dialects")
    bounds = {eps.bound for eps in m.evaluations.values()}
    if len(bounds) != 1:
        raise FormatError("model mixes bounds")
    out = [
        _MODEL_HEADER,
        f"dialect {next(iter(dialects)).name}",
        f"bound {next(iter(bounds))}",
        "worlds " + " ".join(m.worlds),
    ]
    for w in m.worlds:
        fam = m.neighborhoods.get(w, frozenset())
        sets = sorted((_write_world_set(x) for x in fam), key=lambda s: (len(s), s))
        out.append((f"neighborhood {w} : " + " ".join(sets)).rstrip())
    for w in m.worlds:
        eps = m.evaluations[w]
        for a in sorted(eps.atoms):
            out.append(f"atom {w} {a} {'true' if eps.atoms[a] else 'false'}")
    for w in m.worlds:
        eps = m.evaluations[w]
        for t in sorted(eps.table, key=print_term):
            fs = ", ".join(sorted(print_formula(f) for f in eps.table[t]))
            line = f"entry {w} {print_term(t)} : {fs}"
            out.append(line.rstrip())
    return "\n".join(out) + "\n"


def _split_outside_brackets(text: str) -> list[str]:
    """Split on commas that are not nested in parentheses or brackets, so
    formula lists survive terms like ``m(p0, x0)``."""
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_model(text: str) -> QuasiModel:
    return _read(text, _MODEL_HEADER, _read_model)


def _read_model(lines) -> QuasiModel:
    dialect = _dialect_line(lines)
    bound = _int(_keyword_line(lines, "bound"), "bound")
    worlds = tuple(_keyword_line(lines, "worlds").split())
    if len(set(worlds)) != len(worlds):
        raise FormatError("world list must be nonempty and duplicate-free")
    reader = Reader(dialect)
    wset = frozenset(worlds)
    neighborhoods: dict[str, frozenset[frozenset[str]]] = {w: frozenset() for w in worlds}
    atoms: dict[str, dict[str, bool]] = {w: {} for w in worlds}
    tables: dict[str, dict] = {w: {} for w in worlds}
    for ln in lines:
        kind, rest = _fields(ln, 2)
        if kind == "neighborhood":
            w, sets_text = _fields(rest, 2, ":")
            w = w.strip()
            if w not in wset:
                raise FormatError(f"unknown world {w!r}")
            neighborhoods[w] = frozenset(_parse_world_set(s, wset) for s in sets_text.split())
        elif kind == "atom":
            w, a, value = _fields(rest, 3)
            if w not in wset:
                raise FormatError(f"unknown world {w!r}")
            if value not in ("true", "false"):
                raise FormatError(f"bad atom value {value!r}")
            atoms[w][a] = value == "true"
        elif kind == "entry":
            w, tail = _fields(rest, 2)
            if w not in wset:
                raise FormatError(f"unknown world {w!r}")
            term_text, fs_text = _fields(tail, 2, ":")
            try:
                t = _parse_any_term(term_text.strip(), reader)
                fs = frozenset(
                    reader.formula(s.strip())
                    for s in _split_outside_brackets(fs_text)
                    if s.strip()
                )
            except (ParseError, DialectError) as e:
                raise FormatError(f"bad entry line {ln!r}: {e}") from e
            tables[w][t] = fs
        else:
            raise FormatError(f"unknown model line {ln!r}")
    evaluations = {
        w: FiniteBasicEvaluation(dialect, atoms[w], tables[w], bound) for w in worlds
    }
    return QuasiModel(worlds, neighborhoods, evaluations)
