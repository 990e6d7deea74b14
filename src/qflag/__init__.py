"""Exact small quantum cohomology of flag varieties in the Schubert basis."""

from .classical import classical_parabolic_invariant, classical_product
from .compare import (
    CheckResult,
    ComparisonData,
    check_comparison_consistency,
    comparison_data,
    gw_invariant,
    parabolic_gw_invariant,
    parabolic_quantum_product,
    quantum_product,
    star,
)
from .degrees import (
    derived_parabolic,
    enumerate_alcove_lifts,
    flag_dimension,
    peterson_lift,
    push_degree,
)
from .quantum import (
    BOREL,
    QClass,
    format_qclass,
)
from .root_system import (
    CartanType,
    ParabolicSubset,
    RootSystem,
    build_root_system,
)
from .weyl import (
    DEFAULT_MAX_WEYL_ORDER,
    EnumerationBoundError,
    WeylElement,
    enumerate_min_reps,
    format_word,
    from_word,
    identity,
    longest_element,
    min_coset_rep,
    parse_word,
    simple_reflection,
)

__all__ = [
    "BOREL",
    "CartanType",
    "CheckResult",
    "ComparisonData",
    "DEFAULT_MAX_WEYL_ORDER",
    "EnumerationBoundError",
    "ParabolicSubset",
    "QClass",
    "RootSystem",
    "WeylElement",
    "build_root_system",
    "check_comparison_consistency",
    "classical_parabolic_invariant",
    "classical_product",
    "comparison_data",
    "derived_parabolic",
    "enumerate_alcove_lifts",
    "enumerate_min_reps",
    "flag_dimension",
    "format_qclass",
    "format_word",
    "from_word",
    "gw_invariant",
    "identity",
    "longest_element",
    "min_coset_rep",
    "parabolic_gw_invariant",
    "parabolic_quantum_product",
    "parse_word",
    "peterson_lift",
    "push_degree",
    "quantum_product",
    "simple_reflection",
    "star",
]
