"""Shared domain types, physical constants, unit conversions, and the input reader.

Every JSON input field is type-checked once, by :func:`read_fields` or :func:`read_numbers`.

All internal energies are in Hartree, times in atomic units, lengths in
Bohr. Conversions to/from eV and femtoseconds happen only at input/output
boundaries, so that no factor of 27.2 or 41.3 can hide inside a formula.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import typing
from dataclasses import MISSING, dataclass, fields

HARTREE_PER_EV = 1.0 / 27.211386
AU_TIME_PER_FS = 41.3414
SPEED_OF_LIGHT_AU = 137.036
EUV_OMEGA_HA = 3.38  # 92 eV operating frequency in Hartree


class ValidationError(ValueError):
    """Raised when a spec or report violates its declared invariants."""


class NumericalError(RuntimeError):
    """Raised when an iterative numerical procedure fails to converge."""


def cross_section_prefactor(omega: float) -> float:
    """4*pi*omega / (3*c), the semi-classical absorption prefactor at frequency ``omega`` (Ha)."""
    return 4.0 * math.pi * omega / (3.0 * SPEED_OF_LIGHT_AU)


def ev_to_hartree(energy_ev: float) -> float:
    """Convert an energy in eV to Hartree."""
    if not math.isfinite(energy_ev):
        raise ValidationError("energy must be finite")
    return energy_ev * HARTREE_PER_EV


def hartree_to_ev(energy_ha: float) -> float:
    """Convert an energy in Hartree to eV."""
    if not math.isfinite(energy_ha):
        raise ValidationError("energy must be finite")
    return energy_ha / HARTREE_PER_EV


def fs_to_au(time_fs: float) -> float:
    """Convert a time in femtoseconds to atomic units."""
    if not math.isfinite(time_fs):
        raise ValidationError("time must be finite")
    return time_fs * AU_TIME_PER_FS


def au_to_fs(time_au: float) -> float:
    """Convert a time in atomic units to femtoseconds."""
    if not math.isfinite(time_au):
        raise ValidationError("time must be finite")
    return time_au / AU_TIME_PER_FS


def format_sig3(value: float) -> str:
    """Render a gate count with 3 significant figures, round-half-up.

    Counts reach 1e20, so rendering goes through the decimal exponent
    rather than float formatting quirks.
    """
    if value == 0:
        return "0"
    if value < 0:
        return "-" + format_sig3(-value)
    exp = math.floor(math.log10(value))
    mant = value / 10.0**exp
    mant = math.floor(mant * 100 + 0.5) / 100  # round half up on 3rd figure
    if mant >= 10.0:
        mant /= 10.0
        exp += 1
    if -1 <= exp <= 3:
        out = mant * 10.0**exp
        return f"{out:.4g}"
    return f"{mant:.2f}e{exp}"


def finite_ceil(compute, what: str) -> int:
    """``math.ceil(compute())``; a ValidationError naming ``what`` if it leaves the float range."""
    try:
        return math.ceil(compute())
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(f"{what} is beyond the float range") from None


def aligned_table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    """Text table: the header line, then one line per row, cells left-aligned two spaces apart."""
    widths = [max([len(col), *(len(row[i]) for row in rows)]) for i, col in enumerate(header)]
    return "".join("  ".join(cell.ljust(width) for cell, width in zip(line, widths)) + "\n"
                   for line in (header, *rows))


@dataclass(frozen=True)
class CostReport:
    """Logical-qubit count, shot count and per-subroutine non-Clifford gate breakdown.

    The gate totals are derived: ``gates_per_circuit`` is the breakdown sum and
    ``overall_gates`` is ``gates_per_circuit * shots``. Gate counts are exact
    integers where the formulas are exact and floats where they are analytic.
    """

    logical_qubits: int
    shots: int
    breakdown: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.logical_qubits < 0 or self.shots < 1:
            raise ValidationError("qubits must be >= 0 and shots >= 1")
        for label, count in self.breakdown:
            if count < 0:
                raise ValidationError(f"cost term '{label}' must be non-negative")
            if not count <= sys.float_info.max:
                raise ValidationError(f"cost term '{label}' is beyond the float range")
        if not self.overall_gates <= sys.float_info.max:
            raise ValidationError("overall gates (gates per circuit x shots) are beyond "
                                  "the float range")

    @property
    def gates_per_circuit(self) -> float:
        return sum(count for _, count in self.breakdown)

    @property
    def overall_gates(self) -> float:
        return self.gates_per_circuit * self.shots

    def to_dict(self) -> dict:
        return {
            "logical_qubits": self.logical_qubits,
            "gates_per_circuit": self.gates_per_circuit,
            "shots": self.shots,
            "overall_gates": self.overall_gates,
            "breakdown": [[label, count] for label, count in self.breakdown],
        }


@dataclass(frozen=True)
class AbsorptionSpec:
    """Inputs for the single-frequency absorption-sensitivity estimator.

    ``gamma`` is the spectral resolution target that sets the Trotter step;
    ``shot_alpha``/``shot_beta`` optionally pin the published operating-point
    constants for the shot count (computed from first principles when None).
    """

    n_orbitals: int
    l_fragments: int
    gamma: float            # Ha
    spectral_norm: float    # Ha, effective ||H||
    j_max: int
    tau: float              # a.u.
    y3_magnitude: float     # Ha, |<Y3>|
    dipole_norm: float      # a.u.
    epsilon: float          # a.u., target cross-section error
    rot_bits: int = 18
    shot_alpha: float | None = None
    shot_beta: float | None = None
    state_prep_gates: int = 0
    ancilla_qubits: int = 104
    gqsp_two_sided: bool = True

    def __post_init__(self) -> None:
        if self.gamma <= 0 or self.tau <= 0 or self.epsilon <= 0:
            raise ValidationError("gamma, tau, epsilon must be positive")
        if self.j_max < 0 or self.l_fragments < 1 or self.n_orbitals < 1:
            raise ValidationError("j_max >= 0, l_fragments >= 1, n_orbitals >= 1 required")
        if self.y3_magnitude <= 0 or self.spectral_norm <= 0:
            raise ValidationError("y3_magnitude and spectral_norm must be positive")
        if self.rot_bits < 3:
            raise ValidationError("rot_bits must be at least 3")
        for name in ("dipole_norm", "shot_alpha", "shot_beta"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.state_prep_gates < 0 or self.ancilla_qubits < 0:
            raise ValidationError("state_prep_gates and ancilla_qubits must be non-negative")

    @classmethod
    def from_dict(cls, data: dict) -> "AbsorptionSpec":
        return read_dataclass(cls, data)

    def to_dict(self) -> dict:
        return _spec_to_dict(self)


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Inputs for the first-quantized photoemission cost estimator.

    ``n_bits`` is qubits per spatial dimension, so the grid has 2**n_bits
    plane waves per dimension. ``epsilon_be`` budgets the block-encoding
    precision bits; ``epsilon_sampling`` sets the shot count. ``method`` only
    labels the output rows: a Pseudopotential spec is costed with the
    all-electron formulas at its own eta = lambda_zeta.
    """

    eta: int
    lambda_zeta: float
    omega_cell: float       # Bohr^3
    n_bits: int
    epsilon_be: float       # Ha
    delta_filter: float     # Ha
    t_evolution: float      # a.u.
    p_dipole: float = 1e-3
    p_window: float = 1e-3
    p_continuum: float = 1.0
    r_cutoff: float = 20.0  # Bohr
    c_sp: float = 1e9       # state-preparation gates, external input
    method: str = "AllElectron"
    epsilon_sampling: float = 0.01
    b_r: int = 7
    p_nu: float = 1.0
    filter_convention: str = "table"  # "table" or "body"

    def __post_init__(self) -> None:
        if self.eta < 1 or self.n_bits < 1:
            raise ValidationError("eta >= 1 and n_bits >= 1 required")
        max_bits = (sys.float_info.max_exp - 1) // 2  # keeps 2^(2 n_bits) a finite float
        if self.n_bits > max_bits:
            raise ValidationError(f"n_bits = {self.n_bits} puts 2^(2 n_bits) beyond the float "
                                  f"range; the cap is {max_bits}")
        max_eta = math.isqrt(int(sys.float_info.max))  # keeps eta^2 a finite float
        if self.eta > max_eta:
            raise ValidationError(f"eta = {self.eta:.3g} puts eta^2 beyond the float range; "
                                  f"the cap is {max_eta:.3g}")
        if self.c_sp < 0:
            raise ValidationError("c_sp must be non-negative")
        if self.omega_cell <= 0 or self.r_cutoff <= 0:
            raise ValidationError("omega_cell and r_cutoff must be positive")
        for name in ("p_dipole", "p_window", "p_continuum", "p_nu"):
            p = getattr(self, name)
            if not 0 < p <= 1:
                raise ValidationError(f"{name} must lie in (0, 1]")
        for name in ("epsilon_be", "delta_filter", "epsilon_sampling", "lambda_zeta"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.t_evolution < 0:
            raise ValidationError("t_evolution must be non-negative")
        if self.method not in ("AllElectron", "Pseudopotential"):
            raise ValidationError("method must be AllElectron or Pseudopotential")
        if self.filter_convention not in ("table", "body"):
            raise ValidationError("filter_convention must be 'table' or 'body'")
        if self.b_r < 1:
            raise ValidationError("b_r must be at least 1")

    @property
    def box_length(self) -> float:
        """Cubic cell side length Omega^(1/3) in Bohr."""
        return self.omega_cell ** (1.0 / 3.0)

    @classmethod
    def from_dict(cls, data: dict) -> "PlaneWaveSpec":
        return read_dataclass(cls, data)

    def to_dict(self) -> dict:
        return _spec_to_dict(self)


REQUIRED = object()  # the default of a field that must be present

_KIND_NAMES = {int: "an integer within the float range", float: "a finite number",
               str: "a string", bool: "true or false", dict: "an object", list: "a list"}


def _is_kind(value, kind) -> bool:
    if kind in (int, float):
        # the bound turns away NaN, infinities and integers too large to become a float
        numbers = int if kind is int else (int, float)
        return (isinstance(value, numbers) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return isinstance(value, kind)


def read_fields(data, spec: dict, where: str) -> dict:
    """Check the JSON object ``data`` against ``spec``; return its fields, defaults filled in.

    ``spec`` maps each name to ``(kind, default)``, kind one of int, float,
    str, bool, dict or list. An int never takes a boolean, nor an integer
    beyond the float range; a float takes any finite number, integers
    included and unconverted. null is accepted only where the default is
    None; a default of REQUIRED makes the field mandatory. Errors name the
    field and ``where``, the object it sits in.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(data) - set(spec))
    if unknown:
        raise ValidationError(f"unknown field(s) {unknown} in {where}")
    out = {}
    for name, (kind, default) in spec.items():
        if name not in data:
            if default is REQUIRED:
                raise ValidationError(f"missing field '{name}' in {where}")
            out[name] = default
            continue
        value = data[name]
        if not (_is_kind(value, kind) or (value is None and default is None)):
            shown = repr(value)
            shown = shown if len(shown) <= 40 else shown[:37] + "..."
            raise ValidationError(
                f"field '{name}' in {where} must be {_KIND_NAMES[kind]}, got {shown}")
        out[name] = value
    return out


def read_numbers(value, shape: tuple[int, ...], where: str):
    """A flat JSON list of finite numbers as a float array of ``shape``, filled row-major."""
    import numpy as np

    size = math.prod(shape)
    array = None
    if isinstance(value, list) and len(value) == size and set(map(type, value)) <= {int, float}:
        with contextlib.suppress(OverflowError):  # an integer too large to become a float
            array = np.asarray(value, dtype=float)
    if array is None or not np.isfinite(array).all():
        raise ValidationError(f"{where} must be a list of {size} finite numbers")
    return array.reshape(shape)


@functools.cache
def _field_spec(cls) -> dict:
    """``read_fields`` spec of a dataclass: kinds from its annotations, defaults from its fields."""
    hints = typing.get_type_hints(cls)
    spec = {}
    for f in fields(cls):
        kinds = [k for k in typing.get_args(hints[f.name]) or (hints[f.name],)
                 if k is not type(None)]
        spec[f.name] = (kinds[0], REQUIRED if f.default is MISSING else f.default)
    return spec


def read_dataclass(cls, data):
    """Build the dataclass ``cls`` from a JSON object through :func:`read_fields`."""
    return cls(**read_fields(data, _field_spec(cls), cls.__name__))


def _spec_to_dict(spec) -> dict:
    return {name: getattr(spec, name) for name in spec.__dataclass_fields__}
