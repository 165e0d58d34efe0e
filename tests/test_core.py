"""Unit conversions, constants, and report invariants."""

import math

import pytest

from euvq.core import (
    EUV_OMEGA_HA,
    HARTREE_PER_EV,
    REQUIRED,
    SPEED_OF_LIGHT_AU,
    AbsorptionSpec,
    CostReport,
    ValidationError,
    au_to_fs,
    ev_to_hartree,
    format_sig3,
    fs_to_au,
    hartree_to_ev,
    read_fields,
    cross_section_prefactor,
    read_numbers,
)


@pytest.mark.parametrize("ev, expected", [
    (92.0, 3.3809),       # the EUV operating point
    (0.0, 0.0),
    (1.84, 0.06761),      # the 2% bandwidth
])
def test_ev_to_hartree(ev, expected):
    assert ev_to_hartree(ev) == pytest.approx(expected, abs=5e-5)


@pytest.mark.parametrize("fs, expected", [(1.0, 41.3414), (0.0, 0.0), (10.0, 413.414)])
def test_fs_to_au(fs, expected):
    assert fs_to_au(fs) == pytest.approx(expected, rel=1e-6)


def test_round_trip_energy_and_time():
    for value in (1e-6, 0.0676, 3.38, 92.0, 1215.0):
        assert hartree_to_ev(ev_to_hartree(value)) == pytest.approx(value, rel=1e-12)
        assert au_to_fs(fs_to_au(value)) == pytest.approx(value, rel=1e-12)


def test_constants_invariants():
    assert EUV_OMEGA_HA == pytest.approx(92.0 * HARTREE_PER_EV, rel=5e-3)
    assert cross_section_prefactor(EUV_OMEGA_HA) == pytest.approx(0.10, abs=5e-3)
    # the one expression every cross-section column and the default shot alpha use
    for omega in (EUV_OMEGA_HA, 0.7, 2.5):
        assert cross_section_prefactor(omega) == 4.0 * math.pi * omega / (3.0 * SPEED_OF_LIGHT_AU)


def test_cost_report_consistency():
    report = CostReport(logical_qubits=10, shots=3, breakdown=(("a", 5), ("b", 7)))
    assert report.gates_per_circuit == 12
    assert report.overall_gates == 36
    with pytest.raises(ValidationError, match="'a' must be non-negative"):
        CostReport(logical_qubits=1, shots=2, breakdown=(("a", -1), ("b", 6)))
    with pytest.raises(ValidationError, match="shots >= 1"):
        CostReport(logical_qubits=1, shots=0, breakdown=(("a", 1),))
    with pytest.raises(ValidationError, match="overall gates"):
        CostReport(logical_qubits=1, shots=10**10, breakdown=(("a", 1e300),))


@pytest.mark.parametrize("count", [10**309, math.inf, math.nan], ids=["int", "inf", "nan"])
def test_cost_report_names_term_beyond_float_range(count):
    with pytest.raises(ValidationError, match="cost term 'big' is beyond the float range"):
        CostReport(logical_qubits=1, shots=1, breakdown=(("small", 1), ("big", count)))


def test_cost_report_large_counts_stay_exact():
    # Table-II scale totals must not lose integer precision
    gates = 10**20 + 7
    report = CostReport(logical_qubits=1, shots=10**4, breakdown=(("all", gates),))
    assert report.overall_gates == gates * 10**4


def test_format_sig3():
    assert format_sig3(3.944e9) == "3.94e9"
    assert format_sig3(3.945e9) == "3.95e9"   # half rounds up
    assert format_sig3(9.999e9) == "1.00e10"
    assert format_sig3(863) == "863"
    assert format_sig3(0) == "0"


def test_spec_validation_errors():
    good = dict(n_orbitals=4, l_fragments=4, gamma=0.03, spectral_norm=4.0, j_max=10,
                tau=0.4, y3_magnitude=10.0, dipole_norm=6.25, epsilon=0.1)
    AbsorptionSpec.from_dict(good)
    with pytest.raises(ValidationError):
        AbsorptionSpec.from_dict({**good, "gamma": -1.0})
    with pytest.raises(ValidationError):
        AbsorptionSpec.from_dict({**good, "bogus_field": 1})
    with pytest.raises(ValidationError):
        AbsorptionSpec.from_dict({**good, "rot_bits": 2})


def test_spec_round_trip():
    spec = AbsorptionSpec(n_orbitals=22, l_fragments=22, gamma=ev_to_hartree(1.0),
                          spectral_norm=4.0, j_max=200, tau=math.pi / 8,
                          y3_magnitude=10.0, dipole_norm=6.25, epsilon=0.1)
    assert AbsorptionSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("kind, value, ok", [
    (int, 3, True), (int, 3.0, False), (int, True, False), (int, "3", False),
    (float, 3, True), (float, 2.5, True), (float, False, False), (float, "2.5", False),
    (float, math.nan, False), (float, -math.inf, False), (float, 10**400, False),
    (str, "a", True), (str, 1, False), (bool, False, True), (bool, 0, False),
    (dict, {}, True), (dict, [], False), (list, [], True), (list, {}, False),
    (int, 2**1000, True), (int, -(10**400), False),
])
def test_read_fields_kinds(kind, value, ok):
    spec = {"x": (kind, REQUIRED)}
    if ok:
        assert read_fields({"x": value}, spec, "obj")["x"] is value  # passed on unconverted
    else:
        with pytest.raises(ValidationError, match="field 'x' in obj"):
            read_fields({"x": value}, spec, "obj")


def test_read_fields_presence_and_null():
    spec = {"a": (float, REQUIRED), "b": (int, 7), "c": (float, None)}
    assert read_fields({"a": 1.5}, spec, "obj") == {"a": 1.5, "b": 7, "c": None}
    assert read_fields({"a": 1.5, "c": None}, spec, "obj")["c"] is None
    with pytest.raises(ValidationError, match="missing field 'a' in obj"):
        read_fields({}, spec, "obj")
    with pytest.raises(ValidationError, match="'b' in obj"):
        read_fields({"a": 1.5, "b": None}, spec, "obj")  # null only where the default is None
    with pytest.raises(ValidationError, match=r"unknown field\(s\) \['d'\] in obj"):
        read_fields({"a": 1.5, "d": 0}, spec, "obj")
    with pytest.raises(ValidationError, match="obj must be a JSON object"):
        read_fields([1.5], spec, "obj")


def test_read_numbers_shape_and_finiteness():
    assert read_numbers([1, 2.5, 3, 4], (2, 2), "m").tolist() == [[1.0, 2.5], [3.0, 4.0]]
    for bad in ([1, 2, 3], [1, 2, 3, math.nan], [1, 2, 3, True], [[1, 2], [3, 4]], {}):
        with pytest.raises(ValidationError, match="m must be a list of 4 finite numbers"):
            read_numbers(bad, (2, 2), "m")


def test_spec_field_types_from_annotations():
    good = dict(n_orbitals=4, l_fragments=4, gamma=0.03, spectral_norm=4.0, j_max=10,
                tau=0.4, y3_magnitude=10.0, dipole_norm=6.25, epsilon=0.1)
    assert AbsorptionSpec.from_dict({**good, "shot_alpha": None}).shot_alpha is None
    for field, value in (("n_orbitals", 22.5), ("n_orbitals", 4.0), ("gamma", math.nan),
                         ("gqsp_two_sided", "no"), ("rot_bits", None)):
        with pytest.raises(ValidationError, match=f"'{field}' in AbsorptionSpec"):
            AbsorptionSpec.from_dict({**good, field: value})
