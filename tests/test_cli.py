import json

import pytest

from jelogic.axioms import cs_total
from jelogic.cli import main
from jelogic.formats import parse_derivation, write_cs, write_derivation, write_model
from jelogic.hilbert import Derivation, Hyp, MPStep, prove_id
from jelogic.semantics import FiniteBasicEvaluation, QuasiModel, saturate
from jelogic.syntax import Atom, Dialect, Evidence, Implies, ProofVar, _Parser

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
    d = Derivation(Dialect.JE, (Hyp(Implies(A, B)), Hyp(A), MPStep(0, 1)), 2)
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

    def test_nesting_at_the_limit(self, capsys):
        text = "[]" * _Parser.MAX_DEPTH + "A"
        code, _, record = run(capsys, "parse", text, "--dialect", "MODAL")
        assert code == 0 and record["canonical"] == text

    def test_nesting_over_the_limit_is_an_input_error(self, capsys):
        for n in (_Parser.MAX_DEPTH + 1, 1000):
            code, _, record = run(capsys, "prove", "=> " + "[]" * n + "A", "--calculus", "GE")
            assert code == 2 and "nesting deeper than" in record["error"]


class TestProve:
    def test_theorem_with_proof_file(self, capsys, tmp_path):
        out = tmp_path / "proof.seq"
        code, human, record = run(
            capsys, "prove", "=> []A -> ([]B -> []A)", "--calculus", "GE", "-o", str(out)
        )
        assert code == 0 and record["nodes"] > 0
        assert "proved" in human
        code2, _, _ = run(capsys, "seq-check", str(out))
        assert code2 == 0

    def test_refuted_formula_reports_countermodel(self, capsys):
        code, human, record = run(
            capsys, "prove", "=> []A -> [](A | B)", "--calculus", "GE", "--depth", "12"
        )
        assert code == 1
        assert record["countermodel"] is not None
        assert "refuted by a countermodel" in human and "falsified at" in human

    def test_unproved_sequent_with_antecedent_has_no_countermodel(self, capsys):
        code, _, record = run(capsys, "prove", "[]A => [](A & B)", "--calculus", "GM")
        assert code == 1 and record["countermodel"] is None

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

    def test_calculus_must_match_proof_file(self, capsys, tmp_path):
        proof_path = tmp_path / "ge.seq"
        run(capsys, "prove", "=> []A -> []A", "--calculus", "GE", "-o", str(proof_path))
        code, _, _ = run(capsys, "realize", str(proof_path), "--calculus", "GM")
        assert code == 2

    def test_unprovable_source(self, capsys):
        code, _, record = run(capsys, "realize", "=> []A -> [](A | B)", "--calculus", "GE")
        assert code == 1 and record["ok"] is False

    def test_modes_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["realize", "=> []A -> []A", "--calculus", "GE", "--strict", "--simplify"])


class TestDerivationCommands:
    def test_check(self, capsys, tmp_path):
        path = tmp_path / "id.deriv"
        path.write_text(write_derivation(prove_id(Dialect.JE, A)))
        code, _, record = run(capsys, "check", str(path))
        assert code == 0 and record["conclusion"] == "A -> A"
        assert record["hypotheses"] == []

    def test_check_rejects_bad_modus_ponens(self, capsys, tmp_path):
        path = tmp_path / "bad.deriv"
        path.write_text(
            "# jelogic derivation v1\ndialect JE\n0 hyp A\n1 hyp B\n2 mp 0 1\nconclusion 2\n"
        )
        code, _, _ = run(capsys, "check", str(path))
        assert code == 1

    def test_check_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", str(tmp_path / "absent.deriv"))
        assert code == 2

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

    def test_seq_check_calculus_mismatch(self, capsys, tmp_path):
        proof_path = tmp_path / "ge.seq"
        run(capsys, "prove", "=> []A -> []A", "--calculus", "GE", "-o", str(proof_path))
        code, _, _ = run(capsys, "seq-check", str(proof_path), "--calculus", "GM")
        assert code == 2


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

    def test_violations_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text(
            "# jelogic model v1\ndialect JE\nbound 3\nworlds u\n"
            "neighborhood u :\nentry u p0 : A\n"
        )
        code, human, record = run(capsys, "model-check", str(path))
        assert code == 1 and record["violations"]
        assert "factivity" in human

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
