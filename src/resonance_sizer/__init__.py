"""Resonance counting for 3-D Schrödinger point-interaction Hamiltonians.

Computes the characteristic determinant of a finite family of point
interactions as an exponential polynomial, its effective size (the top
surviving frequency, which sets the linear growth rate of the resonance
counting function), the configuration size (a max-weight assignment over
permutations of the centers), genericity of a configuration, and the
Weyl / non-Weyl classification; zeros are counted and localized by the
argument principle.
"""

from .asymptotics import CountingReport, ScanSummary, classify, genericity_scan
from .errors import (
    ContourThroughZero,
    NumericalError,
    QuadratureDivergence,
    ResonanceSizerError,
    ValidationError,
)
from .expoly import CancellationReport, ExpoPolynomial, expand
from .gammadet import determinant_direct, gamma_matrix
from .geometry import Configuration, random_configuration, validate_configuration
from .permutations import enumerate_classes
from .sizing import GenericityReport, SizeReport, is_generic, size_v
from .zeros import (
    Rectangle,
    Resonance,
    ZeroCount,
    count_zeros_disk,
    counting_function,
    find_resonances,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationReport",
    "Configuration",
    "ContourThroughZero",
    "CountingReport",
    "ExpoPolynomial",
    "GenericityReport",
    "NumericalError",
    "QuadratureDivergence",
    "Rectangle",
    "Resonance",
    "ResonanceSizerError",
    "ScanSummary",
    "SizeReport",
    "ValidationError",
    "ZeroCount",
    "classify",
    "count_zeros_disk",
    "counting_function",
    "determinant_direct",
    "enumerate_classes",
    "expand",
    "find_resonances",
    "gamma_matrix",
    "genericity_scan",
    "is_generic",
    "random_configuration",
    "size_v",
    "validate_configuration",
]
