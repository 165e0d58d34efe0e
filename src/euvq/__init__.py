"""Resource estimators and desk-scale emulators for EUV photoresist quantum algorithms."""

from .core import (
    AbsorptionSpec,
    CostReport,
    NumericalError,
    PlaneWaveSpec,
    ValidationError,
)

__all__ = [
    "AbsorptionSpec",
    "CostReport",
    "NumericalError",
    "PlaneWaveSpec",
    "ValidationError",
]

__version__ = "0.1.0"
