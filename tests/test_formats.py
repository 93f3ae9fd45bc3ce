import random
from dataclasses import fields

import pytest

from jelogic import Sequent, prove_bounded, realize
from jelogic.axioms import ConstantSpecification, cs_total
from jelogic.formats import (
    FormatError,
    parse_cs,
    parse_derivation,
    parse_model,
    parse_sequent_proof,
    write_cs,
    write_derivation,
    write_model,
    write_sequent_proof,
)
from jelogic.generate import random_sequent_theorem, random_theorem
from jelogic.hilbert import ANStep, AxiomStep, Hyp, check_derivation, prove_id
from jelogic.semantics import FiniteBasicEvaluation, QuasiModel, saturate
from jelogic.sequent import check_sequent_proof
from jelogic.syntax import (
    Atom,
    Box,
    Dialect,
    Evidence,
    JustOf,
    JustVar,
    MApply,
    ProofVar,
    parse_formula,
)

from _helpers import CS_JE, CS_JEM, proof_of, realize_text

A, B = Atom("A"), Atom("B")


class TestDerivationFormat:
    def test_roundtrip(self):
        d = prove_id(Dialect.JE, parse_formula("[e(p0)]A", Dialect.JE))
        text = write_derivation(d)
        assert parse_derivation(text) == d
        assert write_derivation(parse_derivation(text)) == text

    def test_random_roundtrips(self):
        for seed in range(25):
            dialect = Dialect.JE if seed % 2 else Dialect.JEM
            d = random_theorem(random.Random(seed), dialect, steps=6)
            assert parse_derivation(write_derivation(d)) == d

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_derivation("# something else\ndialect JE\nconclusion 0\n")

    def test_missing_dialect(self):
        with pytest.raises(FormatError):
            parse_derivation("# jelogic derivation v1\n0 hyp A\nconclusion 0\n")

    def test_unknown_scheme(self):
        text = "# jelogic derivation v1\ndialect JE\n0 axiom zz A -> A\nconclusion 0\n"
        with pytest.raises(FormatError):
            parse_derivation(text)

    def test_axiom_line_must_be_instance(self):
        text = "# jelogic derivation v1\ndialect JE\n0 axiom pl_k A -> A\nconclusion 0\n"
        with pytest.raises(FormatError):
            parse_derivation(text)

    def test_steps_must_be_numbered_in_order(self):
        text = "# jelogic derivation v1\ndialect JE\n1 hyp A\nconclusion 0\n"
        with pytest.raises(FormatError):
            parse_derivation(text)

    def test_no_steps_after_conclusion(self):
        text = "# jelogic derivation v1\ndialect JE\n0 hyp A\nconclusion 0\n1 hyp B\n"
        with pytest.raises(FormatError):
            parse_derivation(text)

    def test_conclusion_required(self):
        with pytest.raises(FormatError):
            parse_derivation("# jelogic derivation v1\ndialect JE\n0 hyp A\n")


def _nodes(roots):
    """Every node reachable from ``roots``, once per object."""
    seen, out, stack = set(), [], list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack += [v for v in (getattr(node, f.name) for f in fields(node)) if not isinstance(v, (str, int))]
    return out


def _step_formulas(d):
    return [s.axiom if isinstance(s, ANStep) else s.formula for s in d.steps if isinstance(s, (Hyp, AxiomStep, ANStep))]


def _box_power(n):
    f = Atom("A")
    for _ in range(n):
        f = Box(f)
    return f


@pytest.fixture(scope="module")
def realized():
    """(label, derivation, specification, its file text, the derivation read
    back from it) for the strict realizations of acceptance goldens 1, 2, 4
    and 5, of the forward-built random proofs of generator seeds 0..7 in each
    calculus, and of the ladders ``[]^n A => []^n A`` for GE n <= 3 and
    GM n <= 5."""
    cs = {"GE": CS_JE, "GM": CS_JEM}
    out = []
    goldens = (
        (1, "=> []A -> ([]B -> []A)", "GE"),
        (2, "[][]A => [][]A", "GE"),
        (4, "=> [](A & B) -> ([]A & []B)", "GM"),
        (5, "=> ([]A | []B) -> [](A | B)", "GM"),
    )
    for number, text, calc in goldens:
        out.append((f"golden {number}", realize_text(text, calc).derivation, cs[calc]))
    for calc in ("GE", "GM"):
        for seed in range(8):
            proof = random_sequent_theorem(random.Random(seed), calc, depth=5)
            out.append((f"random {calc} {seed}", realize(proof, calc, cs[calc]).derivation, cs[calc]))
    for calc, top in (("GE", 3), ("GM", 5)):
        for n in range(1, top + 1):
            f = _box_power(n)
            proof = prove_bounded(Sequent((f,), (f,)), calc, 10)
            out.append((f"boxes {calc} {n}", realize(proof, calc, cs[calc]).derivation, cs[calc]))
    return [(label, d, spec, write_derivation(d), parse_derivation(write_derivation(d))) for label, d, spec in out]


class TestSharedReading:
    def test_roundtrip_is_byte_identical(self, realized):
        for label, _, _, text, back in realized:
            assert write_derivation(back) == text, label

    def test_one_object_per_distinct_node(self, realized):
        for label, _, _, _, back in realized:
            nodes = _nodes(_step_formulas(back))
            assert len(nodes) == len(set(nodes)), label

    def test_read_back_checks_to_the_same_judgment(self, realized):
        for label, d, cs, _, back in realized:
            assert check_derivation(back, cs) == check_derivation(d, cs), label

    def test_sequent_proof_shares_formulas_across_nodes(self):
        p = random_sequent_theorem(random.Random(3), "GM", depth=5)
        back, _ = parse_sequent_proof(write_sequent_proof(p, "GM"))
        sequents, stack = [], [back]
        while stack:
            node = stack.pop()
            sequents.append(node.sequent)
            stack += node.children
        nodes = _nodes([f for s in sequents for f in s.ante + s.succ])
        assert len(nodes) == len(set(nodes))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1 hyp A -> (", "bad formula in step 1"),
            ("1 hyp []A", "bad formula in step 1"),
            ("1 axiom pl_k", "malformed step 1"),
            ("1 an c0", "malformed step 1"),
            ("1 mp 0", "malformed step 1"),
            ("1 mp 0 x", "malformed step 1"),
            ("1 axiom zz A", "unknown axiom scheme in step 1"),
            ("x hyp A", "bad step number 'x'"),
        ],
    )
    def test_malformed_step_is_named(self, line, message):
        text = f"# jelogic derivation v1\ndialect JE\n0 hyp A\n{line}\nconclusion 0\n"
        with pytest.raises(FormatError, match=message):
            parse_derivation(text)


class TestCsFormat:
    def test_roundtrip_total(self):
        for dialect in (Dialect.JE, Dialect.JEM):
            cs = cs_total(dialect)
            text = write_cs(cs)
            assert parse_cs(text) == cs
            assert write_cs(parse_cs(text)) == text

    def test_roundtrip_partial(self):
        cs = ConstantSpecification(Dialect.JE, {"c0": frozenset({"jt", "j4"})})
        assert parse_cs(write_cs(cs)) == cs

    def test_duplicate_constant(self):
        text = "# jelogic cs v1\ndialect JE\nc0: jt\nc0: j4\n"
        with pytest.raises(FormatError):
            parse_cs(text)

    def test_unknown_scheme(self):
        with pytest.raises(FormatError):
            parse_cs("# jelogic cs v1\ndialect JE\nc0: zz\n")

    def test_scheme_must_fit_dialect(self):
        with pytest.raises(FormatError):
            parse_cs("# jelogic cs v1\ndialect JE\nc0: jm\n")

    def test_malformed_line(self):
        with pytest.raises(FormatError):
            parse_cs("# jelogic cs v1\ndialect JE\nc0 jt\n")


class TestSequentProofFormat:
    def test_roundtrip(self):
        p = proof_of("[]A -> ([]B -> []A)", "GE")
        text = write_sequent_proof(p, "GE")
        back, calculus = parse_sequent_proof(text)
        assert back == p and calculus == "GE"
        assert write_sequent_proof(back, calculus) == text
        check_sequent_proof(back, calculus)

    def test_random_roundtrips(self):
        for seed in range(25):
            calculus = "GE" if seed % 2 else "GM"
            p = random_sequent_theorem(random.Random(seed), calculus, depth=4)
            back, got = parse_sequent_proof(write_sequent_proof(p, calculus))
            assert back == p and got == calculus

    def test_unknown_calculus(self):
        with pytest.raises(FormatError):
            parse_sequent_proof("# jelogic sequent-proof v1\ncalculus GK\nAxP L0 R0 | A => A\n")

    def test_odd_indentation(self):
        text = "# jelogic sequent-proof v1\ncalculus GE\nWL L0 | A, B => A\n AxP L0 R0 | A => A\n"
        with pytest.raises(FormatError):
            parse_sequent_proof(text)

    def test_indentation_jump(self):
        text = (
            "# jelogic sequent-proof v1\ncalculus GE\n"
            "WL L0 | B, A => A\n    AxP L0 R0 | A => A\n"
        )
        with pytest.raises(FormatError):
            parse_sequent_proof(text)

    def test_missing_separator(self):
        with pytest.raises(FormatError):
            parse_sequent_proof("# jelogic sequent-proof v1\ncalculus GE\nAxP L0 R0 A => A\n")

    def test_formula_outside_the_modal_dialect(self):
        with pytest.raises(FormatError, match="bad sequent"):
            parse_sequent_proof("# jelogic sequent-proof v1\ncalculus GE\nAxP L0 R0 | [x0]A => [x0]A\n")

    def test_missing_rule_name(self):
        with pytest.raises(FormatError, match="missing rule name"):
            parse_sequent_proof("# jelogic sequent-proof v1\ncalculus GE\n| A => A\n")

    def test_multiple_roots(self):
        text = "# jelogic sequent-proof v1\ncalculus GE\nAxP L0 R0 | A => A\nAxP L0 R0 | B => B\n"
        with pytest.raises(FormatError):
            parse_sequent_proof(text)

    def test_empty_proof(self):
        with pytest.raises(FormatError):
            parse_sequent_proof("# jelogic sequent-proof v1\ncalculus GE\n")


def _sample_model() -> QuasiModel:
    u = saturate(FiniteBasicEvaluation(
        Dialect.JE, {"A": True},
        {ProofVar(0): frozenset({A}), Evidence(ProofVar(0)): frozenset({A})},
    ))
    v = FiniteBasicEvaluation(Dialect.JE, {"A": False, "B": True}, {})
    return QuasiModel(
        worlds=("u", "v"),
        neighborhoods={"u": frozenset({frozenset({"u"})}), "v": frozenset()},
        evaluations={"u": u, "v": v},
    )


class TestModelFormat:
    def test_roundtrip(self):
        m = _sample_model()
        text = write_model(m)
        back = parse_model(text)
        assert back.worlds == m.worlds
        assert back.neighborhoods == m.neighborhoods
        assert back.evaluations == m.evaluations
        assert write_model(back) == text

    def test_empty_neighborhood_set_roundtrips(self):
        m = _sample_model()
        m.neighborhoods["v"] = frozenset({frozenset()})
        back = parse_model(write_model(m))
        assert back.neighborhoods["v"] == frozenset({frozenset()})

    def test_no_trailing_whitespace(self):
        for line in write_model(_sample_model()).splitlines():
            assert line == line.rstrip()

    def test_entry_formulas_with_nested_commas_roundtrip(self):
        stored = frozenset({JustOf(MApply(ProofVar(0), JustVar(0)), A), Atom("B")})
        eps = FiniteBasicEvaluation(Dialect.JEM, {"A": True}, {JustVar(0): stored})
        m = QuasiModel(("u",), {"u": frozenset()}, {"u": eps})
        back = parse_model(write_model(m))
        assert back.evaluations["u"].table[JustVar(0)] == stored

    def test_unknown_world_in_entry(self):
        text = (
            "# jelogic model v1\ndialect JE\nbound 3\nworlds u\n"
            "neighborhood u :\natom w A true\n"
        )
        with pytest.raises(FormatError):
            parse_model(text)

    def test_malformed_world_set(self):
        text = (
            "# jelogic model v1\ndialect JE\nbound 3\nworlds u\n"
            "neighborhood u : u\n"
        )
        with pytest.raises(FormatError):
            parse_model(text)

    def test_bad_atom_value(self):
        text = (
            "# jelogic model v1\ndialect JE\nbound 3\nworlds u\n"
            "atom u A yes\n"
        )
        with pytest.raises(FormatError):
            parse_model(text)

    @pytest.mark.parametrize(
        "line",
        [
            "neighborhood",  # one word
            "neighborhood u {u}",  # no colon
            "atom u A",  # two fields
            "entry u",  # no term
            "entry u p0 A",  # no colon
            "entry u x0 : A",  # term outside the dialect
        ],
    )
    def test_malformed_line_names_its_line_number(self, line):
        # Line 7 of the file: the blank line 2 counts.
        text = f"# jelogic model v1\n\ndialect JE\nbound 3\nworlds u\nneighborhood u :\n{line}\n"
        with pytest.raises(FormatError, match="^line 7: "):
            parse_model(text)

    def test_bad_bound_names_its_line_number(self):
        text = "# jelogic model v1\ndialect JE\n\nbound x\nworlds u\n"
        with pytest.raises(FormatError, match="^line 4: bad bound 'x'"):
            parse_model(text)

    def test_duplicate_worlds(self):
        text = "# jelogic model v1\ndialect JE\nbound 3\nworlds u u\n"
        with pytest.raises(FormatError):
            parse_model(text)

    def test_write_rejects_mixed_dialects(self):
        m = _sample_model()
        m.evaluations["v"] = FiniteBasicEvaluation(Dialect.JEM, {}, {})
        with pytest.raises(FormatError):
            write_model(m)


_MUTATION_PIECES = [" ", ":", "(", ")", "[", "]", "|", "{", "}", ",", "x", "0", "-1", "\n", "  ", "conclusion", "mp", "hyp", "A"]


@pytest.mark.parametrize("fmt", ["derivation", "sequent-proof", "model", "cs"])
def test_mutated_files_raise_only_format_errors(fmt):
    """Seeded edits of a valid file: each read either succeeds or raises
    FormatError, never another exception."""
    reader, text = {
        "derivation": (parse_derivation, write_derivation(random_theorem(random.Random(1), Dialect.JE, steps=6))),
        "sequent-proof": (parse_sequent_proof, write_sequent_proof(random_sequent_theorem(random.Random(2), "GM", depth=4), "GM")),
        "model": (parse_model, write_model(_sample_model())),
        "cs": (parse_cs, write_cs(cs_total(Dialect.JEM))),
    }[fmt]
    rng = random.Random(0)
    for _ in range(500):
        chars = list(text)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(chars) + 1)
            op = rng.random()
            if op < 0.4 and chars:
                del chars[min(i, len(chars) - 1)]
            elif op < 0.8:
                chars.insert(i, rng.choice(_MUTATION_PIECES))
            else:
                chars = chars[:i]
        try:
            reader("".join(chars))
        except FormatError:
            pass

