"""Resonance counting for 3-D Schrödinger point-interaction Hamiltonians.

Computes the characteristic determinant of a finite family of point
interactions as an exponential polynomial, its effective size (the top
surviving frequency, which sets the linear growth rate of the resonance
counting function), the configuration size (a max-weight assignment over
permutations of the centers), genericity of a configuration, and the
Weyl / non-Weyl classification; zeros are counted and localized by the
argument principle.
"""

from .asymptotics import (
    CountingReport,
    ScanSummary,
    classify,
    fit_slope,
    genericity_scan,
)
from .errors import (
    CoincidentCenters,
    ContourThroughZero,
    NonpositiveScale,
    NumericalError,
    QuadratureDivergence,
    ResonanceSizerError,
    SamplingExhausted,
    SizeMismatch,
    TooFewCenters,
    TooFewPoints,
    TooLarge,
    ValidationError,
)
from .expoly import (
    CancellationGroup,
    CancellationReport,
    ExpoPolynomial,
    expand,
    zero_frequency_polynomial,
)
from .gammadet import determinant_direct, gamma_matrix
from .geometry import (
    Configuration,
    distance_matrix,
    random_configuration,
    scale_configuration,
    validate_configuration,
)
from .permutations import (
    ClassRepresentatives,
    Permutation,
    class_mates,
    cycle_decompose,
    edge_equivalent,
    edge_multigraph,
    enumerate_classes,
    permutation_sign,
)
from .sizing import GenericityReport, SizeReport, is_generic, size_v, v_sigma
from .zeros import (
    Rectangle,
    Resonance,
    ZeroCount,
    count_zeros_disk,
    count_zeros_rect,
    counting_function,
    find_resonances,
    newton_polish,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationGroup",
    "CancellationReport",
    "ClassRepresentatives",
    "CoincidentCenters",
    "Configuration",
    "ContourThroughZero",
    "CountingReport",
    "ExpoPolynomial",
    "GenericityReport",
    "NonpositiveScale",
    "NumericalError",
    "Permutation",
    "QuadratureDivergence",
    "Rectangle",
    "Resonance",
    "ResonanceSizerError",
    "SamplingExhausted",
    "ScanSummary",
    "SizeMismatch",
    "SizeReport",
    "TooFewCenters",
    "TooFewPoints",
    "TooLarge",
    "ValidationError",
    "ZeroCount",
    "class_mates",
    "classify",
    "count_zeros_disk",
    "count_zeros_rect",
    "counting_function",
    "cycle_decompose",
    "determinant_direct",
    "distance_matrix",
    "edge_equivalent",
    "edge_multigraph",
    "enumerate_classes",
    "expand",
    "find_resonances",
    "fit_slope",
    "gamma_matrix",
    "genericity_scan",
    "is_generic",
    "newton_polish",
    "permutation_sign",
    "random_configuration",
    "scale_configuration",
    "size_v",
    "v_sigma",
    "validate_configuration",
    "zero_frequency_polynomial",
]
