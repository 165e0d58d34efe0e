"""Shared domain types, physical constants, and the input reader.

Every JSON input field is kind- and range-checked once, by :func:`read_fields` or
:func:`read_numbers`. A range is a rule: a NaN-safe predicate and the phrase its
refusal reads. Each input dataclass declares every field once, at the field:
the annotation gives its kind and :func:`_ranged` its rule. Construction
checks both (:func:`_check_fields`), so an object built in Python passes the
checks its JSON form does, and every range refusal is worded by :func:`_refuse`.

All internal energies are in Hartree, times in atomic units, lengths in
Bohr. Conversions to/from eV and femtoseconds happen only at input/output
boundaries, through ``HARTREE_PER_EV`` and ``AU_TIME_PER_FS``, so that no
factor of 27.2 or 41.3 can hide inside a formula.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields

HARTREE_PER_EV = 1.0 / 27.211386
AU_TIME_PER_FS = 41.3414
SPEED_OF_LIGHT_AU = 137.036
EUV_OMEGA_HA = 3.38  # 92 eV operating frequency in Hartree
MAX_SHOTS = 2**24    # largest number of shots an emulator's readout takes


class ValidationError(ValueError):
    """Raised when a spec or report violates its declared invariants."""


class NumericalError(RuntimeError):
    """Raised when an iterative numerical procedure fails to converge."""


def cross_section_prefactor(omega: float) -> float:
    """4*pi*omega / (3*c), the semi-classical absorption prefactor at frequency ``omega`` (Ha)."""
    return 4.0 * math.pi * omega / (3.0 * SPEED_OF_LIGHT_AU)


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


# Range rules: a predicate, false for NaN, and the phrase its refusal reads
_POSITIVE = (lambda v: v > 0, "positive")
_UNIT_INTERVAL = (lambda v: 0 < v <= 1, "within (0, 1]")
_GATE_COUNT = (lambda v: 0 <= v <= sys.float_info.max,
               "a non-negative count within the float range")


def _at_least(low):
    return (lambda v: v >= low, f"at least {low}")


def _between(low, high):
    return (lambda v: low <= v <= high, f"from {low} to {high}")


def _one_of(*choices):
    return (lambda v: v in choices, " or ".join(map(str, choices)))


def _ranged(rule, default=MISSING):
    """A dataclass field whose value must keep ``rule``, checked by :func:`_check_fields`."""
    return field(default=default, metadata={"rule": rule})


def _shown(value) -> str:
    """``value`` as a refusal prints it: its repr, cut to 40 characters."""
    if isinstance(value, (int, float)) and value == value and abs(value) > sys.float_info.max:
        return "a number beyond the float range"
    if isinstance(value, int) and abs(value) >= 10**16:  # more digits than a float keeps
        return f"{value:.3g}"
    shown = repr(value)
    return shown if len(shown) <= 40 else shown[:37] + "..."


def _refuse(name: str, where: str, phrase: str, value) -> typing.NoReturn:
    """Raise the one range refusal, naming the field and ``where``, the object it sits in."""
    raise ValidationError(f"field '{name}' in {where} must be {phrase}, got {_shown(value)}")


def _check(value, rule, name: str, where: str) -> None:
    ok, phrase = rule
    if not ok(value):
        _refuse(name, where, phrase, value)


@dataclass(frozen=True)
class CostReport:
    """Logical-qubit count, shot count and per-subroutine non-Clifford gate breakdown.

    The gate totals are derived: ``gates_per_circuit`` is the breakdown sum and
    ``overall_gates`` is ``gates_per_circuit * shots``. Gate counts are exact
    integers where the formulas are exact and floats where they are analytic.
    ``details`` holds, as (name, value) pairs, the intermediates the counts were built from.
    """

    logical_qubits: int = _ranged(_at_least(0))
    shots: int = _ranged(_at_least(1))
    breakdown: tuple[tuple[str, float], ...]
    details: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        _check_fields(self)
        for label, count in self.breakdown:
            _check(count, _GATE_COUNT, label, "CostReport.breakdown")
        _check(self.overall_gates, _GATE_COUNT, "overall_gates", "CostReport")

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
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class AbsorptionSpec:
    """Inputs for the single-frequency absorption-sensitivity estimator.

    ``gamma`` is the spectral resolution target that sets the Trotter step;
    ``shot_alpha``/``shot_beta`` optionally pin the published operating-point
    constants for the shot count (computed from first principles when None).
    """

    n_orbitals: int = _ranged(_at_least(1))
    l_fragments: int = _ranged(_at_least(1))
    gamma: float = _ranged(_POSITIVE)           # Ha
    j_max: int = _ranged(_at_least(0))
    tau: float = _ranged(_POSITIVE)             # a.u.
    y3_magnitude: float = _ranged(_POSITIVE)    # Ha, |<Y3>|
    dipole_norm: float = _ranged(_POSITIVE)     # a.u.
    epsilon: float = _ranged(_POSITIVE)         # a.u., target cross-section error
    rot_bits: int = _ranged(_at_least(3), 18)
    shot_alpha: float | None = _ranged(_POSITIVE, None)
    shot_beta: float | None = _ranged(_POSITIVE, None)
    state_prep_gates: int = _ranged(_at_least(0), 0)
    ancilla_qubits: int = _ranged(_at_least(0), 104)

    def __post_init__(self) -> None:
        _check_fields(self)

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

    eta: int = _ranged((lambda v: 1 <= v and v * v <= sys.float_info.max,  # eta^2 a float
                        f"from 1 to {math.sqrt(sys.float_info.max):.3g}, so that eta^2 is a "
                        f"finite float"))
    lambda_zeta: float = _ranged(_POSITIVE)
    omega_cell: float = _ranged(_POSITIVE)      # Bohr^3
    n_bits: int = _ranged(_between(1, (sys.float_info.max_exp - 1) // 2))  # 2^(2 n_bits) finite
    epsilon_be: float = _ranged(_POSITIVE)      # Ha
    delta_filter: float = _ranged(_POSITIVE)    # Ha
    t_evolution: float = _ranged(_at_least(0))  # a.u.
    p_dipole: float = _ranged(_UNIT_INTERVAL, 1e-3)
    p_window: float = _ranged(_UNIT_INTERVAL, 1e-3)
    p_continuum: float = _ranged(_UNIT_INTERVAL, 1.0)
    c_sp: float = _ranged(_at_least(0), 1e9)    # state-preparation gates, external input
    method: str = _ranged(_one_of("AllElectron", "Pseudopotential"), "AllElectron")
    epsilon_sampling: float = _ranged(_POSITIVE, 0.01)
    b_r: int = _ranged(_at_least(1), 7)
    p_nu: float = _ranged(_UNIT_INTERVAL, 1.0)
    filter_convention: str = _ranged(_one_of("table", "body"), "table")

    def __post_init__(self) -> None:
        _check_fields(self)

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
               str: "a string", dict: "an object", list: "a list"}


def _is_kind(value, kind) -> bool:
    if kind in (int, float):
        # the bound turns away NaN, infinities and integers too large to become a float
        numbers = int if kind is int else (int, float)
        return (isinstance(value, numbers) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return isinstance(value, kind)


def read_fields(data, spec: dict, where: str) -> dict:
    """Check the JSON object ``data`` against ``spec``; return its fields, defaults filled in.

    ``spec`` maps each name to ``(kind, default)`` or ``(kind, default, rule)``,
    kind one of int, float, str, dict or list. Neither an int nor a float
    takes a boolean; an int takes no integer beyond the float range, and a
    float takes any finite number, integers included, and returns it as a
    float. A given value, not null, must then keep ``rule``. null is accepted
    only where the default is None; a default of REQUIRED makes the field
    mandatory. Errors name the field and ``where``, the object it sits in.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(data) - set(spec))
    if unknown:
        raise ValidationError(f"unknown field(s) {unknown} in {where}")
    out = {}
    for name, (kind, default, *rule) in spec.items():
        if name not in data:
            if default is REQUIRED:
                raise ValidationError(f"missing field '{name}' in {where}")
            out[name] = default
            continue
        value = data[name]
        if value is None and default is None:
            out[name] = None
            continue
        if not _is_kind(value, kind):
            _refuse(name, where, _KIND_NAMES[kind], value)
        out[name] = value = float(value) if kind is float else value
        if rule:
            _check(value, rule[0], name, where)
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


def _float_array(value, shape: tuple[int, ...], name: str, where: str):
    """The array field ``name`` as a float array of ``shape``, else its refusal."""
    import numpy as np

    with contextlib.suppress(TypeError, ValueError):  # not numbers
        array = np.asarray(value, dtype=float)
        if array.shape == shape:
            return array
    _refuse(name, where, f"an array of numbers of shape {shape}", value)


@functools.cache
def _field_spec(cls) -> tuple[dict, tuple]:
    """A dataclass's ``read_fields`` spec and the checks its construction makes.

    The spec takes kinds from the annotations, defaults from the fields and
    rules from :func:`_ranged`; the checks give, in field order, each field's
    (name, optional, kind, rule) from the same declaration.
    """
    hints = typing.get_type_hints(cls)
    spec, checks = {}, []
    for f in fields(cls):
        kind = [k for k in typing.get_args(hints[f.name]) or (hints[f.name],)
                if k is not type(None)][0]
        rule = f.metadata.get("rule")
        spec[f.name] = (kind, REQUIRED if f.default is MISSING else f.default) + (
            (rule,) if rule else ())
        checks.append((f.name, f.default is None, kind, rule))
    return spec, tuple(checks)


def _check_fields(obj, where: str | None = None) -> None:
    """Check each field of the dataclass ``obj`` as :func:`read_fields` checks its JSON form.

    An int, float or str field must be of its kind, and a float field is
    stored as a float; then the field must keep its declared rule. The first
    field that fails is refused, naming ``where``, by default the class name.
    """
    where = where or type(obj).__name__
    for name, optional, kind, rule in _field_spec(type(obj))[1]:
        value = getattr(obj, name)
        if optional and value is None:
            continue
        if kind in (int, float, str) and not _is_kind(value, kind):
            _refuse(name, where, _KIND_NAMES[kind], value)
        if kind is float and type(value) is not float:
            object.__setattr__(obj, name, value := float(value))
        if rule and not rule[0](value):
            _refuse(name, where, rule[1], value)


def read_dataclass(cls, data):
    """Build the dataclass ``cls`` from a JSON object through :func:`read_fields`."""
    return cls(**read_fields(data, _field_spec(cls)[0], cls.__name__))


def _spec_to_dict(spec) -> dict:
    return {name: getattr(spec, name) for name in spec.__dataclass_fields__}
