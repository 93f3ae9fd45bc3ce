"""The public API in ``jelogic/__init__.py`` is a stable contract: a change
to it is made on purpose, with this list and CHANGES.md edited together."""

import jelogic

PUBLIC_API = [
    "ANStep", "And", "Apply", "Atom", "AxiomScheme", "AxiomStep", "BOT", "Bang", "Bottom",
    "Box", "Builder", "ConstantSpecification", "Derivation", "DerivationError", "Dialect",
    "DialectError", "Evidence", "FamilyAnalysis", "FiniteBasicEvaluation", "Hyp", "Implies",
    "Judgment", "JustOf", "JustSum", "JustVar", "MApply", "MPStep", "Not", "NotAppropriate",
    "Or", "ParseError", "Proof", "ProofConst", "ProofOf", "ProofVar", "QuasiModel",
    "RealizationResult", "Sequent", "SequentProofError", "Substitution", "Sum",
    "UncheckedProof", "VerificationError", "apply_substitution", "build_singleton_model",
    "check_basic_model", "check_derivation", "check_fully_explanatory", "check_modular",
    "check_sequent_proof", "compute_families", "cs_total", "deduction_transform",
    "find_modal_countermodel", "forgetful", "internalize", "match_axiom", "model_truth",
    "monotone_closure", "parse_formula", "parse_just_term", "parse_proof_term",
    "parse_sequent", "parse_sequent_line", "print_formula", "print_sequent", "print_term",
    "prove_bounded", "realize", "saturate", "scheme_by_id", "simplify",
    "soundness_fuzz", "substitute_derivation", "verify_realization",
]


def test_public_api_is_unchanged():
    assert jelogic.__all__ == PUBLIC_API


def test_every_public_name_imports():
    missing = [name for name in PUBLIC_API if not hasattr(jelogic, name)]
    assert missing == []
