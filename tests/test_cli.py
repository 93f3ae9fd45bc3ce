import json
import time
from pathlib import Path

import pytest

from jelogic import cli, realization
from jelogic.axioms import cs_total
from jelogic.cli import main
from jelogic.formats import parse_derivation, write_cs, write_derivation, write_model
from jelogic.hilbert import Derivation, Hyp, MPStep, prove_id
from jelogic.realization import realize
from jelogic.semantics import FiniteBasicEvaluation, QuasiModel, saturate
from jelogic.sequent import SEARCH_DEPTH_LIMIT, parse_sequent_line
from jelogic.syntax import And, Atom, Bottom, Box, Dialect, Evidence, Implies, Not, Or, ProofConst, ProofOf, ProofVar, _Parser

from _helpers import deep_proof_text

A, B = Atom("A"), Atom("B")


def run(capsys, *argv):
    """Invoke the CLI and return (exit code, human text, trailing JSON record)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = out.strip("\n").splitlines()
    record = json.loads(lines[-1])
    assert record["command"] == argv[0]
    assert record["ok"] == (code == 0)
    return code, "\n".join(lines[:-1]), record


def _mp_file(tmp_path):
    d = Derivation(Dialect.JE, (MPStep(Hyp(Implies(A, B)), Hyp(A)),))
    path = tmp_path / "mp.deriv"
    path.write_text(write_derivation(d))
    return path


class TestParse:
    def test_formula_canonicalized(self, capsys):
        code, human, record = run(capsys, "parse", "[e(p0+p0)]A->A", "--dialect", "JE")
        assert code == 0
        assert record["canonical"] == "[e(p0 + p0)]A -> A"
        assert human == "[e(p0 + p0)]A -> A"

    def test_sequent_kind(self, capsys):
        code, _, record = run(capsys, "parse", "A,B=>C", "--dialect", "MODAL", "--kind", "sequent")
        assert code == 0 and record["canonical"] == "A, B => C"

    def test_syntax_error_is_an_input_error(self, capsys):
        code, _, record = run(capsys, "parse", "A ->", "--dialect", "JE")
        assert code == 2 and "error" in record

    def test_dialect_violation_is_an_input_error(self, capsys):
        code, _, _ = run(capsys, "parse", "[x0]A", "--dialect", "JE")
        assert code == 2
        code, _, _ = run(capsys, "parse", "x0", "--dialect", "MODAL", "--kind", "just-term")
        assert code == 2

    def test_nesting_at_the_limit(self, capsys):
        text = "[]" * _Parser.MAX_DEPTH + "A"
        code, _, record = run(capsys, "parse", text, "--dialect", "MODAL")
        assert code == 0 and record["canonical"] == text

    def test_nesting_over_the_limit_is_an_input_error(self, capsys):
        for n in (_Parser.MAX_DEPTH + 1, 1000):
            code, _, record = run(capsys, "prove", "=> " + "[]" * n + "A", "--calculus", "GE")
            assert code == 2 and "nesting deeper than" in record["error"]


class TestProve:
    def test_a_search_past_its_limit_is_an_input_error(self, capsys):
        """Three formulas of 190 negations each: within the parser's nesting
        limit, but their search nests more rules than the search may."""
        side = ", ".join("~" * 190 + atom for atom in "ABC")
        code, human, record = run(capsys, "prove", f"{side} => D", "--calculus", "GE", "--depth", "1000")
        assert code == 2 and "Traceback" not in human
        assert f"SEARCH_DEPTH_LIMIT = {SEARCH_DEPTH_LIMIT}" in record["error"]

    def test_prove_and_realize_decide_and_depth_is_a_limit(self, capsys):
        """By default the search decides: ``[]^11 A => []^11 A`` nests 11
        RM, and a sequent with no proof exits 1.  A lower ``--depth`` is a
        limit that, when hit, exits 2 naming it."""
        boxes = "[]" * 11
        for command in ("prove", "realize"):
            code, _, _ = run(capsys, command, f"{boxes}A => {boxes}A", "--calculus", "GM")
            assert code == 0
            code, human, record = run(capsys, command, f"{boxes}A => {boxes}A", "--calculus", "GM", "--depth", "5")
            assert code == 2 and "depth = 5 " in record["error"] and "Traceback" not in human
            code, human, record = run(capsys, command, "[](A | B) => []A", "--calculus", "GM")
            assert code == 1 and human.startswith("not provable in GM: [](A | B) => []A")
            assert "depth" not in record

    def test_theorem_with_proof_file(self, capsys, tmp_path):
        out = tmp_path / "proof.seq"
        code, human, record = run(
            capsys, "prove", "=> []A -> ([]B -> []A)", "--calculus", "GE", "-o", str(out)
        )
        assert code == 0 and record["nodes"] > 0
        assert "proved" in human
        code2, _, _ = run(capsys, "seq-check", str(out))
        assert code2 == 0

    def test_size_of_a_shared_proof_without_expanding_it(self, capsys):
        """The GE ladder at n = 20 is a tree of 2^21 - 1 nodes over 21
        distinct subproofs; the sizes come from the shared proof."""
        boxes = "[]" * 20
        t0 = time.perf_counter()
        code, human, record = run(capsys, "prove", f"{boxes}A => {boxes}A", "--calculus", "GE", "--depth", "22")
        assert time.perf_counter() - t0 < 2.0
        assert code == 0
        assert record["nodes"] == 2097151 and record["distinct_nodes"] == 21
        assert "(2097151 nodes, 21 distinct)" in human

    def test_refuted_formula_reports_countermodel(self, capsys):
        code, human, record = run(
            capsys, "prove", "=> []A -> [](A | B)", "--calculus", "GE", "--depth", "12"
        )
        assert code == 1
        assert record["countermodel"] is not None
        assert "refuted by a countermodel" in human and "falsified at" in human

    def test_refuted_formula_prints_the_countermodel_by_name(self, capsys):
        """The text and the record name worlds alike: ``describe`` and the
        record both read ``ModalCountermodel.by_name``."""
        assert main(["prove", "=> []A -> [](A | B)", "--calculus", "GE"]) == 1
        assert capsys.readouterr().out == (
            "not provable in GE: => []A -> [](A | B)\n"
            "refuted by a countermodel of []A -> [](A | B):\n"
            "worlds: w0\n"
            "A true at {}\n"
            "B true at {w0}\n"
            "N(w0) = {{}}\n"
            "falsified at w0\n"
            '{"calculus": "GE", "command": "prove", "countermodel": {"atoms": {"A": [], "B": ["w0"]}, '
            '"falsified_at": "w0", "formula": "[]A -> [](A | B)", "neighborhoods": {"w0": [[]]}, '
            '"worlds": 1}, "ok": false, "sequent": "=> []A -> [](A | B)"}\n'
        )

    def test_unproved_sequent_with_antecedent_has_a_countermodel(self, capsys):
        """The oracle is asked about /\\ ante -> \\/ succ; the reported model
        makes every antecedent formula true and every succedent formula false
        at its world, by an evaluator written here."""
        for text, calculus, formula in (
            ("[]A => [](A & B)", "GM", "[]A -> [](A & B)"),
            ("[]A, B => []B", "GE", "[]A & B -> []B"),
            ("[]A, B =>", "GE", "[]A & B -> _|_"),
            ("=> []A, [](A | B)", "GE", "[]A | [](A | B)"),
        ):
            code, _, record = run(capsys, "prove", text, "--calculus", calculus)
            cm = record["countermodel"]
            assert code == 1 and cm["formula"] == formula
            worlds = frozenset(f"w{i}" for i in range(cm["worlds"]))
            neighborhoods = {w: {frozenset(x) for x in xs} for w, xs in cm["neighborhoods"].items()}
            if calculus == "GM":  # supersets of neighborhoods are neighborhoods
                assert all(x | {w} in ns for ns in neighborhoods.values() for x in ns for w in worlds)

            def truth(f) -> frozenset:
                match f:
                    case Atom(name):
                        return frozenset(cm["atoms"].get(name, ()))
                    case Bottom():
                        return frozenset()
                    case Not(inner):
                        return worlds - truth(inner)
                    case Implies(left, right):
                        return (worlds - truth(left)) | truth(right)
                    case And(left, right):
                        return truth(left) & truth(right)
                    case Or(left, right):
                        return truth(left) | truth(right)
                    case Box(body):
                        return frozenset(w for w in worlds if truth(body) in neighborhoods[w])
                raise AssertionError(f)

            s = parse_sequent_line(text)
            w = cm["falsified_at"]
            assert all(w in truth(f) for f in s.ante), text
            assert not any(w in truth(f) for f in s.succ), text

    def test_bad_sequent_text(self, capsys):
        code, _, _ = run(capsys, "prove", "=> (", "--calculus", "GE")
        assert code == 2


class TestRealize:
    def test_from_formula_text(self, capsys, tmp_path):
        out = tmp_path / "realized.deriv"
        code, _, record = run(
            capsys, "realize", "=> []A -> ([]B -> []A)", "--calculus", "GE",
            "--simplify", "-o", str(out),
        )
        assert code == 0 and record["mode"] == "simplify"
        assert record["realized"].startswith("[e(")
        code2, _, record2 = run(capsys, "check", str(out))
        assert code2 == 0
        assert record2["conclusion"] == record["realized"]
        assert record2["steps"] == record["steps"]

    def test_from_proof_file_with_cs(self, capsys, tmp_path):
        proof_path = tmp_path / "dist.seq"
        cs_path = tmp_path / "total.cs"
        cs_path.write_text(write_cs(cs_total(Dialect.JEM)))
        code, _, _ = run(
            capsys, "prove", "=> [](A & B) -> ([]A & []B)", "--calculus", "GM",
            "-o", str(proof_path),
        )
        assert code == 0
        code, _, record = run(
            capsys, "realize", str(proof_path), "--calculus", "GM", "--cs", str(cs_path)
        )
        assert code == 0
        assert record["realized"].startswith("[x0](A & B) -> [m(")
        assert " & [m(" in record["realized"]
        assert record["internalizations"] == 2

    def test_repeated_subproofs_internalize_once(self, capsys):
        code, _, record = run(capsys, "realize", "[][][]A => [][][]A", "--calculus", "GE")
        assert code == 0 and record["internalizations"] == 6

    def test_calculus_must_match_proof_file(self, capsys, tmp_path):
        proof_path = tmp_path / "ge.seq"
        run(capsys, "prove", "=> []A -> []A", "--calculus", "GE", "-o", str(proof_path))
        code, _, _ = run(capsys, "realize", str(proof_path), "--calculus", "GM")
        assert code == 2

    def test_sequent_longer_than_a_file_name(self, capsys):
        # Longer than a path component may be, so the file system refuses to
        # look the text up as a file: it must still be read as a sequent.
        text = "A & " * 70 + "A => A"
        assert len(text) > 255
        code, _, record = run(capsys, "realize", text, "--calculus", "GE")
        assert code == 0 and record["realized"] == text.replace("=>", "->")

    def test_missing_file_that_is_no_sequent(self, capsys):
        code, human, record = run(capsys, "realize", "/no/such/file.txt", "--calculus", "GE")
        assert code == 2
        assert record["error"] == (
            "/no/such/file.txt is neither an existing file nor a sequent: "
            "unexpected character '/' (at position 0)"
        )
        assert "input error" in human

    def test_unprovable_source(self, capsys):
        code, _, record = run(capsys, "realize", "=> []A -> [](A | B)", "--calculus", "GE")
        assert code == 1 and record["ok"] is False
        assert record["calculus"] == "GE"

    def test_simplify_fallback_is_null_without_a_fallback(self, capsys):
        for flags, mode in (((), "strict"), (("--simplify",), "simplify")):
            code, _, record = run(capsys, "realize", "=> [](A & B) -> [](B & A)", "--calculus", "GE", *flags)
            assert code == 0 and record["mode"] == mode
            assert "simplify_fallback" not in record

    def test_simplify_that_fails_the_gate_exits_1(self, capsys, monkeypatch):
        """A simplified result is checked as a strict one is: one that fails
        ``verify_realization`` is the command's failure, not a strict rerun."""
        def failing(result, proof=None, cs=None):
            raise realization.DerivationFails(f"forced in {result.mode} mode")

        monkeypatch.setattr(cli, "verify_realization", failing)
        code, out, record = run(
            capsys, "realize", "=> [](A & B) -> [](B & A)", "--calculus", "GE", "--simplify"
        )
        assert code == 1 and record["ok"] is False
        assert record["error"] == "forced in simplify mode"
        assert "strict" not in out

    def test_simplify_realizes_and_verifies_once(self, capsys, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, realization):
            monkeypatch.setattr(module, "realize", counted("realize", realization.realize))
            monkeypatch.setattr(module, "verify_realization", counted("verify", realization.verify_realization))
        code, _, record = run(
            capsys, "realize", "=> [](A & B) -> [](B & A)", "--calculus", "GE", "--simplify"
        )
        assert code == 0 and record["mode"] == "simplify"
        assert calls == ["realize", "verify"]

    def test_modes_are_exclusive(self, capsys):
        """``--simplify`` is the one mode switch; strict is the default and
        has no flag of its own."""
        with pytest.raises(SystemExit) as e:
            main(["realize", "=> []A -> []A", "--calculus", "GE", "--strict"])
        assert e.value.code == 2


class TestDerivationCommands:
    def test_check(self, capsys, tmp_path):
        path = tmp_path / "id.deriv"
        path.write_text(write_derivation(prove_id(Dialect.JE, A)))
        code, _, record = run(capsys, "check", str(path))
        assert code == 0 and record["conclusion"] == "A -> A"
        assert record["hypotheses"] == []

    def test_constant_names_must_read_back(self, capsys, tmp_path):
        """A constant name the formula grammar cannot read is an input error
        in a cs file and in an ``an`` step, so no written ``zzz:F`` fails
        to read back."""
        cs = tmp_path / "zzz.cs"
        cs.write_text(write_cs(cs_total(Dialect.JE)).replace("c_jt:", "zzz:"))
        deriv = tmp_path / "zzz.deriv"
        deriv.write_text("# jelogic derivation v1\ndialect JE\n0 axiom pl_k A -> B -> A\n1 an zzz A -> B -> A\nconclusion 1\n")
        code, human, record = run(capsys, "check", str(deriv), "--cs", str(cs))
        assert code == 2 and "Traceback" not in human
        assert record["error"] == "line 4: malformed step 1: 'zzz' is not a proof constant name"
        deriv.write_text(write_derivation(prove_id(Dialect.JE, A)))
        code, human, record = run(capsys, "check", str(deriv), "--cs", str(cs))
        assert code == 2 and "Traceback" not in human
        assert record["error"].endswith("'zzz' is not a proof constant name")

    def test_check_rejects_bad_modus_ponens(self, capsys, tmp_path):
        path = tmp_path / "bad.deriv"
        path.write_text(
            "# jelogic derivation v1\ndialect JE\n0 hyp A\n1 hyp B\n2 mp 0 1\nconclusion 2\n"
        )
        code, _, record = run(capsys, "check", str(path))
        assert code == 1
        assert record["error"] == "bad-mp at step 2: A does not apply to B"

    def test_a_failing_step_is_named_by_its_number_in_the_file(self, capsys, tmp_path):
        """The file need not list its steps in the order they are checked:
        an unused ``hyp`` line after the ones the ``mp`` uses, say."""
        path = tmp_path / "misordered.deriv"
        path.write_text(
            "# jelogic derivation v1\ndialect JE\n0 hyp A\n1 hyp B\n2 hyp C\n3 mp 2 1\nconclusion 3\n"
        )
        code, _, record = run(capsys, "check", str(path))
        assert code == 1
        assert record["error"] == "bad-mp at step 3: C does not apply to B"

    @pytest.mark.parametrize(
        "steps, line",
        [
            ("0 mp 1 1\n1 hyp A\nconclusion 1", 3),
            ("0 hyp A\n1 mp 0 -1\nconclusion 1", 4),
            ("0 hyp A\n1 hyp B\n2 hyp A -> B\nconclusion 3", 6),
            ("0 hyp A\n1 hyp B\n2 hyp A -> B\nconclusion -1", 6),
        ],
    )
    def test_a_step_not_read_yet_is_an_input_error(self, capsys, tmp_path, steps, line):
        """``mp`` and ``conclusion`` name steps read before them: a forward
        reference or a number out of range is a fault of the file."""
        path = tmp_path / "ref.deriv"
        path.write_text(f"# jelogic derivation v1\ndialect JE\n{steps}\n")
        code, _, record = run(capsys, "check", str(path))
        assert code == 2 and record["error"].startswith(f"line {line}: ")
        assert "names no step read so far" in record["error"]

    def test_check_counts_a_step_listed_twice(self, capsys, tmp_path):
        """Once: the count is of distinct steps."""
        path = tmp_path / "twice.deriv"
        path.write_text(
            "# jelogic derivation v1\ndialect JE\n0 hyp A -> B\n1 hyp A\n2 hyp A\n3 mp 0 2\nconclusion 3\n"
        )
        code, _, record = run(capsys, "check", str(path))
        assert code == 0 and record["steps"] == 3
        assert record["hypotheses"] == ["A", "A -> B"] and record["conclusion"] == "B"

    def test_a_file_in_builder_order_reads(self, capsys):
        """Golden 4's strict ``realize -o`` file as an older writer wrote it,
        its steps in the order the builder took them: ``check`` gives the
        judgment and step count it gave then, and the file writes back with
        the steps numbered in the order of ``steps``, which reads back
        equal."""
        path = Path(__file__).parent / "data" / "golden4_strict_builder_order.deriv"
        code, _, record = run(capsys, "check", str(path))
        assert code == 0 and record["steps"] == 15 and record["hypotheses"] == []
        assert record["conclusion"] == "[x0](A & B) -> [m(c_pl_and_elim_l, x0)]A & [m(c_pl_and_elim_r, x0)]B"
        text = path.read_text()
        d = parse_derivation(text)
        out = write_derivation(d)
        assert out != text
        back = parse_derivation(out)
        assert back == d and write_derivation(back) == out
        lines = out.splitlines()
        for i, step in enumerate(d.steps):  # step i of the file is the i-th of ``steps``
            assert parse_derivation("\n".join(lines[: 3 + i] + [f"conclusion {i}"])).conclusion is step

    def test_check_rejects_a_second_conclusion_line(self, capsys, tmp_path):
        """The last of two conclusion lines names a step that checks, but a
        derivation file has one conclusion: an input error."""
        d = prove_id(Dialect.JE, A)
        path = tmp_path / "two.deriv"
        path.write_text(write_derivation(d) + "conclusion 0\n")
        last = len(d) - 1
        assert write_derivation(d).endswith(f"conclusion {last}\n") and last != 0
        code, _, record = run(capsys, "check", str(path))
        assert code == 2 and "second conclusion" in record["error"]

    def test_check_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", str(tmp_path / "absent.deriv"))
        assert code == 2

    def test_check_a_directory(self, capsys, tmp_path):
        code, _, record = run(capsys, "check", str(tmp_path))
        assert code == 2 and record["error"]

    def test_deduce(self, capsys, tmp_path):
        out = tmp_path / "out.deriv"
        code, _, record = run(
            capsys, "deduce", str(_mp_file(tmp_path)), "--discharge", "A", "-o", str(out)
        )
        assert code == 0 and record["conclusion"] == "A -> B"
        d = parse_derivation(out.read_text())
        code2, _, record2 = run(capsys, "check", str(out))
        assert code2 == 0 and record2["hypotheses"] == ["A -> B"]
        assert d.dialect is Dialect.JE

    def test_internalize(self, capsys, tmp_path):
        path = tmp_path / "id.deriv"
        path.write_text(write_derivation(prove_id(Dialect.JE, A)))
        code, _, record = run(capsys, "internalize", str(path))
        assert code == 0
        assert record["term"] == "c_pl_s * c_pl_k * c_pl_k"
        assert record["conclusion"] == "c_pl_s * c_pl_k * c_pl_k:(A -> A)"

    def test_internalize_rejects_hypotheses(self, capsys, tmp_path):
        code, _, _ = run(capsys, "internalize", str(_mp_file(tmp_path)))
        assert code == 1

    def test_subst(self, capsys, tmp_path):
        path = tmp_path / "id.deriv"
        path.write_text(write_derivation(prove_id(Dialect.JE, A)))
        code, _, record = run(capsys, "subst", str(path), "--atom", "A=C & C")
        assert code == 0 and record["conclusion"] == "C & C -> C & C"

    def test_subst_bad_mapping(self, capsys, tmp_path):
        path = tmp_path / "id.deriv"
        path.write_text(write_derivation(prove_id(Dialect.JE, A)))
        code, _, _ = run(capsys, "subst", str(path), "--atom", "A")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [("check",), ("deduce", "--discharge", "A"), ("internalize",), ("subst", "--atom", "A=C")],
    )
    def test_input_is_checked_even_where_its_conclusion_is_not(self, capsys, tmp_path, argv):
        """Step 1 is a necessitation outside the specification that the
        conclusion does not use: every derivation command rejects the file,
        with the same error, about the file as written."""
        path = tmp_path / "unused.deriv"
        path.write_text(
            "# jelogic derivation v1\ndialect JE\n0 axiom pl_k A -> (B -> A)\n"
            "1 an c_jt A -> (B -> A)\nconclusion 0\n"
        )
        code, _, record = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 1
        assert record["error"] == "bad-an at step 1: (c_jt, A -> B -> A) not in the specification"

    def test_seq_check_calculus_mismatch(self, capsys, tmp_path):
        proof_path = tmp_path / "ge.seq"
        run(capsys, "prove", "=> []A -> []A", "--calculus", "GE", "-o", str(proof_path))
        code, _, _ = run(capsys, "seq-check", str(proof_path), "--calculus", "GM")
        assert code == 2

    def test_seq_check_rejects_an_axiom_with_a_wrong_principal(self, capsys, tmp_path):
        proof_path = tmp_path / "axiom.seq"
        proof_path.write_text("# jelogic sequent-proof v1\ncalculus GE\nAxP R5 | A => A\n")
        code, _, record = run(capsys, "seq-check", str(proof_path))
        assert code == 1 and record["ok"] is False
        assert record["error"].startswith("bad-rule")


def _model_file(tmp_path):
    u = saturate(FiniteBasicEvaluation(
        Dialect.JE, {"A": True},
        {ProofVar(0): frozenset({A}), Evidence(ProofVar(0)): frozenset({A})},
    ))
    v = FiniteBasicEvaluation(Dialect.JE, {"A": False, "B": True}, {})
    m = QuasiModel(
        worlds=("u", "v"),
        neighborhoods={"u": frozenset({frozenset({"u"})}), "v": frozenset()},
        evaluations={"u": u, "v": v},
    )
    path = tmp_path / "m.model"
    path.write_text(write_model(m))
    return path


class TestDeepProofFile:
    """A valid proof file nested deeper than Python's recursion limit."""

    def test_seq_check_and_realize(self, capsys, tmp_path):
        path = tmp_path / "deep.proof"
        path.write_text(deep_proof_text())
        code, _, record = run(capsys, "seq-check", str(path))
        assert code == 0 and record["sequent"] == "B, A => A"
        code, _, record = run(capsys, "realize", str(path), "--calculus", "GE")
        assert code == 0 and record["realized"] == "B -> A -> A"


class TestModelCheck:
    def test_good_model(self, capsys, tmp_path):
        code, human, record = run(capsys, "model-check", str(_model_file(tmp_path)))
        assert code == 0 and record["violations"] == []
        assert "model checks" in human

    def test_formula_truth_per_world(self, capsys, tmp_path):
        code, human, record = run(capsys, "model-check", str(_model_file(tmp_path)), "A")
        assert code == 1  # A fails at v
        assert record["truth"] == {"u": True, "v": False}
        assert "v: A is false" in human

    def test_violations_do_not_follow_the_table_order(self, capsys, tmp_path):
        """Two files stating one model, with entries, formula lists and
        neighborhoods in different orders, give the same record: terms and
        formulas in printed order, neighborhoods by their sorted members."""
        head = "# jelogic model v1\ndialect JEM\nbound 1\nworlds u v\natom u A true\n"
        first = tmp_path / "first.model"
        first.write_text(
            head + "neighborhood u : {u}\nneighborhood v : {v} {}\n"
            "entry u p0 : B, A & B, ~(A -> A), C\nentry u p1 : B, C\nentry u x0 : B, C\n"
        )
        second = tmp_path / "second.model"
        second.write_text(
            head + "neighborhood v : {} {v}\nneighborhood u : {u}\n"
            "entry u x0 : C, B\nentry u p1 : C, B\nentry u p0 : C, ~(A -> A), A & B, B\n"
        )
        code, _, record = run(capsys, "model-check", str(first))
        assert code == 1 and len(record["violations"]) == 18
        assert run(capsys, "model-check", str(second))[2] == record
        modular = [v for v in record["violations"] if v.startswith("[factivity]")]
        assert modular == [
            f"[factivity] at u: {t} justifies the false {f}"
            for t, fs in (("p0", ("A & B", "B", "C", "~(A -> A)")), ("p1", ("B", "C")))
            for f in fs
        ]
        assert [v for v in record["violations"] if v.startswith("[monotonicity] at v")] == [
            "[monotonicity] at v: [] is a neighborhood but ['u'] is not",
            "[monotonicity] at v: [] is a neighborhood but ['u', 'v'] is not",
            "[monotonicity] at v: ['v'] is a neighborhood but ['u', 'v'] is not",
        ]

    def test_violations_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text(
            "# jelogic model v1\ndialect JE\nbound 3\nworlds u\n"
            "neighborhood u :\nentry u p0 : A\n"
        )
        code, human, record = run(capsys, "model-check", str(path))
        assert code == 1 and record["violations"]
        assert "factivity" in human

    def test_cs_checks_closure_under_the_specification(self, capsys, tmp_path):
        """``--cs`` gives each evaluation read the specification, so the
        constant ``c_jt``, in the universe without the factivity instance
        the total specification assigns it, is reported only with it."""
        instance = Implies(ProofOf(ProofVar(1), A), A)
        eps = saturate(FiniteBasicEvaluation(
            Dialect.JE, {"A": True, "B": True},
            {ProofVar(0): frozenset({instance}), ProofConst("c_jt"): frozenset({B})},
        ))
        model = tmp_path / "m.model"
        model.write_text(write_model(QuasiModel(("u",), {"u": frozenset()}, {"u": eps})))
        cs = tmp_path / "total.cs"
        cs.write_text(write_cs(cs_total(Dialect.JE)))
        code, _, record = run(capsys, "model-check", str(model))
        assert code == 0 and record["violations"] == []
        code, human, record = run(capsys, "model-check", str(model), "--cs", str(cs))
        assert code == 1 and record["violations"] == ["at u: [specification-closure] c_jt lacks p1:A -> A"]
        assert "c_jt lacks p1:A -> A" in human

    def test_malformed_model_file(self, capsys, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("# jelogic model v1\ndialect JE\nbound 3\nworlds u\natom u A maybe\n")
        code, _, _ = run(capsys, "model-check", str(path))
        assert code == 2


class TestFuzz:
    def test_small_run(self, capsys):
        code, human, record = run(capsys, "fuzz", "--dialect", "JEM", "--trials", "10")
        assert code == 0 and record["failures"] == 0
        assert record["checked"] + record["rejected"] <= 10
        assert "failures" in human

    def test_negative_trials_is_an_input_error(self, capsys):
        code, human, record = run(capsys, "fuzz", "--dialect", "JE", "--trials", "-5")
        assert code == 2 and record["ok"] is False
        assert "trials must be non-negative" in record["error"]
        assert "trials checked" not in human
