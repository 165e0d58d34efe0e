"""Resource estimators and desk-scale emulators for EUV photoresist quantum algorithms."""

from .core import (
    AbsorptionSpec,
    CostReport,
    NumericalError,
    PlaneWaveSpec,
    ValidationError,
    au_to_fs,
    ev_to_hartree,
    fs_to_au,
    hartree_to_ev,
)

__all__ = [
    "AbsorptionSpec",
    "CostReport",
    "NumericalError",
    "PlaneWaveSpec",
    "ValidationError",
    "au_to_fs",
    "ev_to_hartree",
    "fs_to_au",
    "hartree_to_ev",
]

__version__ = "0.1.0"
