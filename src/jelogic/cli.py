"""Command-line front end.

Every subcommand prints a short human-readable report followed by one JSON
line (the structured record).  Exit status: 0 on success, 1 when the input is
well-formed but the logical claim fails (a derivation that does not check, an
unprovable sequent, a model violation, fuzz failures), 2 on malformed input or
input past a resource limit (``syntax._Parser.MAX_DEPTH`` levels of
brackets, prefixes and right operands open at once, or the search's
``--depth``, by default ``sequent.SEARCH_DEPTH_LIMIT``), which the record's
``error`` names.  Within that limit ``prove`` and ``realize`` decide a sequent.
A flat chain such as ``A0 & ... & A4999`` opens at most one parser level,
whatever its length.
The derivation commands (``check``, ``deduce``, ``internalize``, ``subst``)
check the derivation they read, and a command that builds a derivation checks
that too before it reports success: ``realize`` runs ``verify_realization`` on
its result in either mode, and its record's ``mode`` names the mode.
Artifacts written with ``-o`` use the formats module and can be fed straight
back into the matching subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import reduce
from pathlib import Path

from .axioms import ConstantSpecification, cs_total
from .hilbert import (
    Derivation,
    DerivationError,
    Judgment,
    NotAppropriate,
    check_derivation,
    deduction_transform,
    internalize,
    substitute_derivation,
)
from .formats import (
    FormatError,
    parse_cs,
    parse_model,
    parse_numbered_derivation,
    parse_sequent_proof,
    write_derivation,
    write_sequent_proof,
)
from .realization import (
    CALCULUS_DIALECT,
    UncheckedProof,
    VerificationError,
    realize,
    verify_realization,
)
from .semantics import (
    check_basic_model,
    check_modular,
    find_modal_countermodel,
    model_truth,
    soundness_fuzz,
)
from .sequent import SEARCH_DEPTH_LIMIT, Sequent, SequentProofError, check_sequent_proof, parse_sequent_line, proof_size, prove_bounded
from .syntax import (
    BOT,
    And,
    Dialect,
    DialectError,
    Implies,
    Or,
    ParseError,
    Substitution,
    parse_formula,
    parse_just_term,
    parse_proof_term,
    parse_sequent,
    print_formula,
    print_term,
    print_sequent,
)

_LOGICAL_ERRORS = (
    DerivationError,
    NotAppropriate,
    SequentProofError,
    UncheckedProof,
    VerificationError,
)
_INPUT_ERRORS = (ParseError, FormatError, DialectError, OSError, ValueError)


def _emit(human: str, record: dict) -> None:
    if human:
        print(human)
    print(json.dumps(record, sort_keys=True))


def _load_cs(path: str | None, dialect: Dialect) -> ConstantSpecification:
    if path is None:
        return cs_total(dialect)
    cs = parse_cs(Path(path).read_text())
    if cs.dialect is not dialect:
        raise DialectError(
            f"specification file is for {cs.dialect.name}, command needs {dialect.name}"
        )
    return cs


def _load_derivation(args) -> tuple[Derivation, ConstantSpecification, Judgment]:
    """The derivation file of a derivation command, its specification
    (``--cs``, total by default) and the judgment it checks to.  Each of
    these commands reads its input here, so each checks it once.  A check
    error names the failing step by its number in the file."""
    d, numbers = parse_numbered_derivation(Path(args.derivation).read_text())
    cs = _load_cs(args.cs, d.dialect)
    try:
        return d, cs, check_derivation(d, cs)
    except DerivationError as e:  # each names its step, by its position in d.steps
        raise DerivationError(e.kind, numbers[d.steps[e.step]], e.detail) from None


def _read_sequent(text: str) -> Sequent:
    if "=>" in text:
        return parse_sequent_line(text)
    return Sequent((), (parse_formula(text, Dialect.MODAL),))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_parse(args) -> int:
    dialect = Dialect[args.dialect]
    if args.kind == "formula":
        canonical = print_formula(parse_formula(args.text, dialect))
    elif args.kind == "proof-term":
        canonical = print_term(parse_proof_term(args.text, dialect))
    elif args.kind == "just-term":
        canonical = print_term(parse_just_term(args.text, dialect))
    else:
        ante, succ = parse_sequent(args.text, dialect)
        canonical = print_sequent(ante, succ)
    _emit(canonical, {"command": "parse", "ok": True, "kind": args.kind, "canonical": canonical})
    return 0


def _cmd_check(args) -> int:
    d, _, j = _load_derivation(args)
    hyps = sorted(print_formula(f) for f in j.hypotheses)
    human = (
        f"derivation checks ({len(d)} steps)\n"
        f"hypotheses: {', '.join(hyps) if hyps else '(none)'}\n"
        f"conclusion: {print_formula(j.conclusion)}"
    )
    _emit(
        human,
        {
            "command": "check",
            "ok": True,
            "steps": len(d),
            "hypotheses": hyps,
            "conclusion": print_formula(j.conclusion),
        },
    )
    return 0


def _emit_derivation(args, out: Derivation, cs: ConstantSpecification, lead: str, record: dict) -> int:
    """Report a command's output derivation once it checks, which is the
    command's gate: written to ``-o`` and named by ``lead`` and its
    conclusion, or else printed."""
    conclusion = print_formula(check_derivation(out, cs).conclusion)
    text = write_derivation(out)
    if args.output:
        Path(args.output).write_text(text)
        human = f"{lead}{conclusion}\nwrote {args.output}"
    else:
        human = text.rstrip("\n")
    _emit(human, {"command": args.command, "ok": True, **record, "conclusion": conclusion, "output": args.output})
    return 0


def _cmd_deduce(args) -> int:
    d, cs, _ = _load_derivation(args)
    f = parse_formula(args.discharge, d.dialect)
    out = deduction_transform(d, f)
    shown = print_formula(f)
    return _emit_derivation(args, out, cs, f"discharged {shown}\nconclusion: ", {"discharged": shown})


def _cmd_internalize(args) -> int:
    d, cs, _ = _load_derivation(args)
    term, proof = internalize(d, cs)
    return _emit_derivation(args, proof, cs, "internalized: ", {"term": print_term(term)})


def _mappings(specs, option: str, key, parse, dialect: Dialect) -> dict:
    """The ``KEY=TEXT`` arguments of one ``subst`` option as a dict."""
    out = {}
    for spec in specs or ():
        name, eq, text = spec.partition("=")
        if not eq:
            raise ValueError(f"bad --{option} mapping {spec!r}")
        out[key(name)] = parse(text, dialect)
    return out


def _cmd_subst(args) -> int:
    d, cs, _ = _load_derivation(args)
    s = Substitution(
        atoms=_mappings(args.atom, "atom", str.strip, parse_formula, d.dialect),
        proof_vars=_mappings(args.proof_var, "proof-var", int, parse_proof_term, d.dialect),
        just_vars=_mappings(args.just_var, "just-var", int, parse_just_term, d.dialect),
    )
    return _emit_derivation(args, substitute_derivation(d, s), cs, "substituted; conclusion: ", {})


def _cmd_seq_check(args) -> int:
    proof, calculus = parse_sequent_proof(Path(args.proof).read_text())
    if args.calculus and args.calculus != calculus:
        raise ValueError(f"file declares calculus {calculus}, --calculus says {args.calculus}")
    root = check_sequent_proof(proof, calculus)
    human = f"{calculus} proof checks: {root}"
    _emit(
        human,
        {"command": "seq-check", "ok": True, "calculus": calculus, "sequent": str(root)},
    )
    return 0


def _cmd_prove(args) -> int:
    s = _read_sequent(args.sequent)
    proof = prove_bounded(s, args.calculus, args.depth)
    if proof is not None:
        nodes, distinct = proof_size(proof)
        human = f"proved: {s} ({nodes} nodes, {distinct} distinct)"
        if args.output:
            Path(args.output).write_text(write_sequent_proof(proof, args.calculus))
            human += f"\nwrote {args.output}"
        _emit(
            human,
            {
                "command": "prove",
                "ok": True,
                "calculus": args.calculus,
                "sequent": str(s),
                "nodes": nodes,
                "distinct_nodes": distinct,
                "output": args.output,
            },
        )
        return 0
    record = {"command": "prove", "ok": False, "calculus": args.calculus, "sequent": str(s), "countermodel": None}
    human = f"not provable in {args.calculus}: {s}"
    # The sequent as one formula: /\ ante -> \/ succ, with _|_ for an empty
    # succedent and no implication for an empty antecedent.
    f = reduce(Or, s.succ) if s.succ else BOT
    if s.ante:
        f = Implies(reduce(And, s.ante), f)
    cm = find_modal_countermodel(f, "E" if args.calculus == "GE" else "EM")
    if cm is not None:
        human += f"\nrefuted by a countermodel of {print_formula(f)}:\n" + cm.describe()
        names, atoms, neighborhoods = cm.by_name()
        record["countermodel"] = {
            "worlds": cm.world_count,
            "falsified_at": names[cm.world],
            "formula": print_formula(f),
            "atoms": atoms,
            "neighborhoods": neighborhoods,
        }
    _emit(human, record)
    return 1


def _cmd_realize(args) -> int:
    calculus = args.calculus
    cs = _load_cs(args.cs, CALCULUS_DIALECT[calculus])
    if os.path.isfile(args.source):
        proof, file_calculus = parse_sequent_proof(Path(args.source).read_text())
        if file_calculus != calculus:
            raise ValueError(
                f"proof file declares calculus {file_calculus}, --calculus says {calculus}"
            )
    else:
        try:
            s = _read_sequent(args.source)
        except ParseError as e:
            raise ParseError(f"{args.source} is neither an existing file nor a sequent: {e}") from e
        proof = prove_bounded(s, calculus, args.depth)
        if proof is None:
            record = {"command": "realize", "ok": False, "calculus": calculus, "sequent": str(s)}
            _emit(f"not provable in {calculus}: {s}", record)
            return 1
    result = realize(proof, calculus, cs, "simplify" if args.simplify else "strict")
    verify_realization(result)
    human = f"realized ({result.mode}): {print_formula(result.realized)}"
    if args.output:
        Path(args.output).write_text(write_derivation(result.derivation))
        human += f"\nwrote {args.output}"
    _emit(
        human,
        {
            "command": "realize",
            "ok": True,
            "calculus": calculus,
            "mode": result.mode,
            "realized": print_formula(result.realized),
            "antecedent": [print_formula(f) for f in result.antecedent],
            "succedent": [print_formula(f) for f in result.succedent],
            "internalizations": len(result.log),
            "steps": len(result.derivation),
            "output": args.output,
        },
    )
    return 0


def _cmd_model_check(args) -> int:
    m = parse_model(Path(args.model).read_text())
    dialect = next(iter(m.evaluations.values())).dialect
    if args.cs:
        cs = _load_cs(args.cs, dialect)
        for eps in m.evaluations.values():
            eps.cs = cs
    violations = []
    for w in m.worlds:
        for v in check_basic_model(m.evaluations[w]):
            violations.append(f"at {w}: {v}")
    for v in check_modular(m):
        violations.append(str(v))
    lines = []
    ok = not violations
    if violations:
        lines.append(f"{len(violations)} violations:")
        lines.extend("  " + v for v in violations)
    else:
        lines.append("model checks: basic conditions and modularity hold")
    truth: dict[str, bool] = {}
    if args.formula:
        f = parse_formula(args.formula, dialect)
        for w in m.worlds:
            truth[w] = model_truth(m, w, f)
            lines.append(f"{w}: {print_formula(f)} is {'true' if truth[w] else 'false'}")
        ok = ok and all(truth.values())
    _emit(
        "\n".join(lines),
        {
            "command": "model-check",
            "ok": ok,
            "violations": violations,
            "truth": truth,
        },
    )
    return 0 if ok else 1


def _cmd_fuzz(args) -> int:
    dialect = Dialect[args.dialect]
    report = soundness_fuzz(dialect, args.trials, seed=args.seed)
    lines = [
        f"{report.checked} of {report.trials} trials checked "
        f"({report.rejected} rejected), {len(report.failures)} failures"
    ]
    for fail in report.failures[:10]:
        lines.append(f"  trial {fail.trial}: {fail.scheme} instance {fail.formula} came out false")
    _emit(
        "\n".join(lines),
        {
            "command": "fuzz",
            "ok": report.ok,
            "dialect": dialect.name,
            "trials": report.trials,
            "checked": report.checked,
            "rejected": report.rejected,
            "failures": len(report.failures),
        },
    )
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jelogic",
        description="Proof checking, proof search, realization and model "
        "checking for two justification dialects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a formula, term or sequent")
    p.add_argument("text")
    p.add_argument("--dialect", choices=["JE", "JEM", "MODAL"], required=True)
    p.add_argument(
        "--kind",
        choices=["formula", "proof-term", "just-term", "sequent"],
        default="formula",
    )
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("check", help="check a derivation file")
    p.add_argument("derivation")
    p.add_argument("--cs", help="constant specification file (default: total)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("deduce", help="discharge a hypothesis via the deduction transform")
    p.add_argument("derivation")
    p.add_argument("--discharge", required=True, help="hypothesis formula to discharge")
    p.add_argument("--cs")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_deduce)

    p = sub.add_parser("internalize", help="build a proof term witnessing a theorem")
    p.add_argument("derivation")
    p.add_argument("--cs")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_internalize)

    p = sub.add_parser("subst", help="apply a substitution to a derivation")
    p.add_argument("derivation")
    p.add_argument("--atom", action="append", metavar="NAME=FORMULA")
    p.add_argument("--proof-var", action="append", metavar="INDEX=TERM")
    p.add_argument("--just-var", action="append", metavar="INDEX=TERM")
    p.add_argument("--cs")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_subst)

    p = sub.add_parser("seq-check", help="check a sequent proof file")
    p.add_argument("proof")
    p.add_argument("--calculus", choices=["GE", "GM"])
    p.set_defaults(func=_cmd_seq_check)

    p = sub.add_parser("prove", help="backward proof search")
    p.add_argument("sequent", help="a sequent 'G => D' or a bare formula")
    p.add_argument("--calculus", choices=["GE", "GM"], required=True)
    p.add_argument("--depth", type=int, default=SEARCH_DEPTH_LIMIT, help="nesting limit of the search")
    p.add_argument("-o", "--output", help="write the found proof here")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("realize", help="realize a sequent proof (or provable formula)")
    p.add_argument("source", help="proof file, or a sequent/formula to prove first")
    p.add_argument("--calculus", choices=["GE", "GM"], required=True)
    p.add_argument("--cs")
    p.add_argument("--depth", type=int, default=SEARCH_DEPTH_LIMIT, help="nesting limit of the search")
    p.add_argument("--simplify", action="store_true", help="collapse equal witness pairs")
    p.add_argument("-o", "--output", help="write the realized derivation here")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("model-check", help="check a model file, optionally evaluating a formula")
    p.add_argument("model")
    p.add_argument("formula", nargs="?")
    p.add_argument("--cs", help="also check constant-specification closure")
    p.set_defaults(func=_cmd_model_check)

    p = sub.add_parser("fuzz", help="random soundness testing of the axioms over basic models")
    p.add_argument("--dialect", choices=["JE", "JEM"], required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _LOGICAL_ERRORS as e:
        _emit(f"failed: {e}", {"command": args.command, "ok": False, "error": str(e)})
        return 1
    except _INPUT_ERRORS as e:
        _emit(f"input error: {e}", {"command": args.command, "ok": False, "error": str(e)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
