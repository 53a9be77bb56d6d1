"""Weighted transition-rule formats: specs, induced models, and their checks.

The package parses rule specifications in two dialects (boolean ``desimone``
and ``weighted`` over the extended nonnegative rationals), validates them
against the rule-format conditions, builds the induced step and trace
semantics, and runs the analyses the format is there to guarantee: the
affineness naturality square, probabilistic mass preservation, almost-sure
termination estimation, and empirical congruence of bounded trace
equivalence.

The namespace is lazy (PEP 562): ``from desimone import step`` imports
``desimone.opmodel``, the module that owns ``step``, on first use, so a
program loads only the layers it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module's public names, re-exported here
_EXPORTS = {
    "analysis": (
        "Context", "CongruenceViolation", "bisim_partition",
        "counterexample_search", "fingerprint_buckets",
        "first_difference", "generate_contexts",
    ),
    "corpus": (
        "LEAKY_DEFAULT_CUTOFF", "SPEC_NAMES", "leaky_spec_text",
        "load_spec", "spec_path", "spec_text",
    ),
    "formalsum": (
        "STOP", "FormalSum", "Obs", "Pure", "Step", "belem_map",
        "dist_b", "dist_b0", "dist_sigma", "dist_sigma_star",
        "fs_empty", "fs_flatten", "fs_map", "fs_pair_join", "fs_total",
        "fs_unit", "is_affine", "payload_key",
    ),
    "law": (
        "NaturalityResult", "NaturalityWitness", "bar_rho_step",
        "leg_args_first", "leg_law_first", "naturality_check",
        "rho_apply", "step_law",
    ),
    "opmodel": (
        "ProbReport", "Walk", "check_probabilistic", "explore",
        "model_cache", "step",
    ),
    "rulespec": (
        "Rule", "RuleSpec", "RuleTargetError", "SpecParseError",
        "TermPremise", "TransPremise", "Violation", "expand_forall",
        "format_errors", "parse_spec", "validate_format",
    ),
    "semiring": ("BOOLEAN", "INF", "RATIONAL", "SEMIRINGS", "Semiring"),
    "terms": (
        "HOLE", "Leaf", "Node", "Signature", "TermSyntaxError",
        "UnboundVariableError", "Var", "enumerate_closed_terms", "fold",
        "graft", "is_affine_term", "leaves", "parse_term", "print_term",
        "substitute", "term_vars",
    ),
    "trace": (
        "AST_TOLERANCE", "AstReport", "ast_estimate",
        "partial_trace_bounded", "trace_bounded", "trace_direct",
        "word_to_str",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    """Import the module that owns ``name`` and keep the value here."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
