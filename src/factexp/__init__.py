"""Prime exponents of factorials: exact arithmetic, completely
q-additive representations modulo m, and empirical distribution scans.

The pieces fit together like this: `exponents` computes e_p(n), the
exponent of p in n!, by several independent routes; `qadditive` carries
the machinery of completely q-additive functions and the gcd invariants
that govern joint equidistribution; `construction` builds, for an odd
prime p and modulus m coprime to it, a completely p^lambda-additive
function congruent to e_p mod m; `experiments` scans ranges of n for
residue histograms, pattern hits, and parity-pattern coverage; and
`reports` serializes the results.
"""

from .construction import (
    CongruenceReport,
    ConstructionResult,
    LambdaCertificate,
    build_function,
    construction_error_exponent,
    coverage_depth,
    coverage_log_threshold,
    euler_phi,
    lambda_index,
    split_modulus,
    verify_congruence,
)
from .exponents import (
    exponent_range,
    legendre_exponent,
)
from .experiments import (
    CoverageReport,
    DiscrepancyReport,
    PatternReport,
    ResidueHistogram,
    ScanConfig,
    discrepancy,
    joint_histogram,
    pattern_coverage,
    pattern_search,
)
from .primes import is_prime, nth_odd_prime, primes_up_to
from .qadditive import (
    HypothesisReport,
    QAdditiveFunction,
    check_system,
    derive_invariants,
    evaluate_range,
    kim_error_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "exponent_range",
    "legendre_exponent",
    "QAdditiveFunction",
    "HypothesisReport",
    "check_system",
    "derive_invariants",
    "evaluate_range",
    "kim_error_exponent",
    "CongruenceReport",
    "ConstructionResult",
    "LambdaCertificate",
    "build_function",
    "construction_error_exponent",
    "coverage_depth",
    "coverage_log_threshold",
    "euler_phi",
    "lambda_index",
    "split_modulus",
    "verify_congruence",
    "CoverageReport",
    "DiscrepancyReport",
    "PatternReport",
    "ResidueHistogram",
    "ScanConfig",
    "discrepancy",
    "joint_histogram",
    "pattern_coverage",
    "pattern_search",
    "is_prime",
    "nth_odd_prime",
    "primes_up_to",
    "__version__",
]
