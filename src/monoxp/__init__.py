"""monoxp: abductive and contrastive explanations for monotonic classifiers.

The library treats a classifier as a black box over a bounded ordinal
feature space with totally ordered classes. Given an instance it computes
one subset-minimal abductive explanation (a feature set whose instance
values force the prediction) or contrastive explanation (a feature set
whose freeing admits a different prediction) in at most 2N+2 oracle calls,
or N+2 when the prediction is the lowest or highest class or, for an
abductive explanation, when every feature is boolean, and enumerates the
complete families of both with one satisfiability call per explanation plus
one to terminate.
"""

from .classifiers import (
    AppendixCnfClassifier,
    ClassifierOracle,
    CountingOracle,
    ExternalProcessOracle,
    GradeClassifier,
    InternalConsistencyError,
    LinearThresholdClassifier,
    MonotoneDnfClassifier,
    MonotonicityViolation,
    OracleError,
    probe_monotonicity,
)
from .domain import (
    ClassOrder,
    Explanation,
    ExplanationKind,
    FeatureDomain,
    FeatureSpace,
    Point,
)
from .enumeration import (
    DualityCounterexample,
    EnumerationReport,
    brute_force_explanations,
    check_duality,
    enumerate_explanations,
)
from .explainer import NoCxpExists, SeedBreaksInvariant, corner_points, find_axp, find_cxp, verify_axp, verify_cxp
from .satcore import CnfFormula, solve, to_dimacs
from .specfile import SpecError, build_oracle

__version__ = "0.1.0"

__all__ = [
    "AppendixCnfClassifier",
    "ClassOrder",
    "ClassifierOracle",
    "CnfFormula",
    "CountingOracle",
    "DualityCounterexample",
    "EnumerationReport",
    "Explanation",
    "ExplanationKind",
    "ExternalProcessOracle",
    "FeatureDomain",
    "FeatureSpace",
    "GradeClassifier",
    "InternalConsistencyError",
    "LinearThresholdClassifier",
    "MonotoneDnfClassifier",
    "MonotonicityViolation",
    "NoCxpExists",
    "OracleError",
    "Point",
    "SeedBreaksInvariant",
    "SpecError",
    "brute_force_explanations",
    "build_oracle",
    "check_duality",
    "corner_points",
    "enumerate_explanations",
    "find_axp",
    "find_cxp",
    "probe_monotonicity",
    "solve",
    "to_dimacs",
    "verify_axp",
    "verify_cxp",
]
