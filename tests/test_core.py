"""Constants, report invariants, the input reader, and every spec field entering a formula."""

import dataclasses
import json
import math
from importlib import resources

import pytest

from euvq.absorption import absorption_cost
from euvq.core import (
    EUV_OMEGA_HA,
    HARTREE_PER_EV,
    REQUIRED,
    SPEED_OF_LIGHT_AU,
    AbsorptionSpec,
    CostReport,
    PlaneWaveSpec,
    ValidationError,
    format_sig3,
    read_fields,
    cross_section_prefactor,
    read_numbers,
)
from euvq.planewave import photoemission_cost


def _fixture(name):
    return json.loads(resources.files("euvq").joinpath("fixtures", name).read_text())


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
    assert report.to_dict()["details"] == {}
    detailed = CostReport(logical_qubits=10, shots=3, breakdown=(("a", 5),),
                          details=(("n", 2), ("lam", 0.5)))
    assert detailed.to_dict()["details"] == {"n": 2, "lam": 0.5}
    with pytest.raises(ValidationError,
                       match="field 'a' in CostReport.breakdown must be a non-negative count"):
        CostReport(logical_qubits=1, shots=2, breakdown=(("a", -1), ("b", 6)))
    with pytest.raises(ValidationError, match="field 'shots' in CostReport must be at least 1"):
        CostReport(logical_qubits=1, shots=0, breakdown=(("a", 1),))
    with pytest.raises(ValidationError, match="field 'overall_gates' in CostReport"):
        CostReport(logical_qubits=1, shots=10**10, breakdown=(("a", 1e300),))


@pytest.mark.parametrize("count", [10**309, math.inf, math.nan], ids=["int", "inf", "nan"])
def test_cost_report_names_term_beyond_float_range(count):
    with pytest.raises(ValidationError,
                       match="field 'big' in CostReport.breakdown must be a non-negative count"):
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
    good = dict(n_orbitals=4, l_fragments=4, gamma=0.03, j_max=10,
                tau=0.4, y3_magnitude=10.0, dipole_norm=6.25, epsilon=0.1)
    AbsorptionSpec.from_dict(good)
    with pytest.raises(ValidationError):
        AbsorptionSpec.from_dict({**good, "gamma": -1.0})
    with pytest.raises(ValidationError):
        AbsorptionSpec.from_dict({**good, "bogus_field": 1})
    with pytest.raises(ValidationError):
        AbsorptionSpec.from_dict({**good, "rot_bits": 2})


def test_spec_round_trip():
    spec = AbsorptionSpec(n_orbitals=22, l_fragments=22, gamma=HARTREE_PER_EV,
                          j_max=200, tau=math.pi / 8,
                          y3_magnitude=10.0, dipole_norm=6.25, epsilon=0.1)
    assert AbsorptionSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("kind, value, ok", [
    (int, 3, True), (int, 3.0, False), (int, True, False), (int, "3", False),
    (float, 3, True), (float, 2.5, True), (float, False, False), (float, "2.5", False),
    (float, math.nan, False), (float, -math.inf, False), (float, 10**400, False),
    (str, "a", True), (str, 1, False), (str, True, False), (list, False, False),
    (dict, {}, True), (dict, [], False), (list, [], True), (list, {}, False),
    (int, 2**1000, True), (int, -(10**400), False),
])
def test_read_fields_kinds(kind, value, ok):
    spec = {"x": (kind, REQUIRED)}
    if ok:
        got = read_fields({"x": value}, spec, "obj")["x"]
        if kind is float:  # a number field returns a float, an integer converted
            assert type(got) is float and got == value
        else:
            assert got is value
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
    good = dict(n_orbitals=4, l_fragments=4, gamma=0.03, j_max=10,
                tau=0.4, y3_magnitude=10.0, dipole_norm=6.25, epsilon=0.1)
    assert AbsorptionSpec.from_dict({**good, "shot_alpha": None}).shot_alpha is None
    for field, value in (("n_orbitals", 22.5), ("n_orbitals", 4.0), ("gamma", math.nan),
                         ("rot_bits", "18"), ("rot_bits", None)):
        with pytest.raises(ValidationError, match=f"'{field}' in AbsorptionSpec"):
            AbsorptionSpec.from_dict({**good, field: value})


# Each estimator on a published row: table 1's N = 22 row and the corollary spec
ESTIMATORS = [(AbsorptionSpec, absorption_cost, _fixture("table1.json")["sweep"][0]),
              (PlaneWaveSpec, photoemission_cost, _fixture("corollary_imeph.json"))]
# A number moves by a factor of 0.9 unless it feeds a ceiling or a max: the Trotter step
# count is a ceiling, and p_nu enters lambda_total only below 0.32 on the corollary spec
SCALES = {"gamma": 4.0, "y3_magnitude": 4.0, "tau": 2.0, "p_nu": 0.25}
OTHER_CHOICE = {"table": "body", "body": "table"}


@pytest.mark.parametrize("cls, cost, row, name", [
    pytest.param(cls, cost, row, f.name, id=f"{cls.__name__}.{f.name}")
    for cls, cost, row in ESTIMATORS for f in dataclasses.fields(cls)
    if f.name != "method"  # labels the rows only (see test_c05_gate_costs_pp)
])
def test_every_spec_field_moves_the_report(cls, cost, row, name):
    # every settable estimator input enters a formula: changing it alone changes the report
    spec = cls.from_dict(row)
    value = getattr(spec, name)
    if isinstance(value, str):
        value = OTHER_CHOICE[value]
    elif isinstance(value, int):
        value += 1
    else:
        value *= SCALES.get(name, 0.9)
    moved = dataclasses.replace(spec, **{name: value})
    assert cost(moved).to_dict() != cost(spec).to_dict()


# A value outside each estimator field's range; every field has one
OUT_OF_RANGE = {
    AbsorptionSpec: {"n_orbitals": 0, "l_fragments": 0, "gamma": 0.0, "j_max": -1, "tau": -1.0,
                     "y3_magnitude": 0.0, "dipole_norm": -1.0, "epsilon": 0.0, "rot_bits": 2,
                     "shot_alpha": 0.0, "shot_beta": -1.0, "state_prep_gates": -1,
                     "ancilla_qubits": -1},
    PlaneWaveSpec: {"eta": 0, "lambda_zeta": 0.0, "omega_cell": -1.0, "n_bits": 0,
                    "epsilon_be": 0.0, "delta_filter": -1.0, "t_evolution": -1.0,
                    "p_dipole": 0.0, "p_window": 1.5, "p_continuum": -1.0, "c_sp": -1.0,
                    "method": "X", "epsilon_sampling": 0.0, "b_r": 0, "p_nu": 1.5,
                    "filter_convention": "X"},
}


def test_every_estimator_field_has_an_out_of_range_value():
    for cls, values in OUT_OF_RANGE.items():
        assert set(values) == {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("cls, row, name", [
    pytest.param(cls, row, name, id=f"{cls.__name__}.{name}")
    for cls, _, row in ESTIMATORS for name in OUT_OF_RANGE[cls]
])
def test_out_of_range_field_refused_in_python_and_from_json(cls, row, name):
    # a spec built in Python and one read from JSON pass the same range checks
    value = OUT_OF_RANGE[cls][name]
    refusal = f"^field '{name}' in {cls.__name__} must be .*, got {value!r}$"
    with pytest.raises(ValidationError, match=refusal):
        dataclasses.replace(cls.from_dict(row), **{name: value})
    with pytest.raises(ValidationError, match=refusal):
        cls.from_dict({**row, name: value})


def _float_fields():
    from euvq.grid import FilterSpec

    filt = FilterSpec(center=1.8, sigma=0.2, mode="ChebyshevPoly")
    specs = [cls.from_dict(row) for cls, _, row in ESTIMATORS] + [filt]
    return [pytest.param(spec, f.name, id=f"{type(spec).__name__}.{f.name}")
            for spec in specs for f in dataclasses.fields(spec) if f.type.startswith("float")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("spec, name", _float_fields())
def test_non_finite_float_field_refused_at_construction(spec, name, value):
    # NaN and +-inf are refused where the spec is built, as the JSON reader refuses them;
    # a NaN omega_cell used to pass and make photoemission_cost raise a bare ValueError
    with pytest.raises(ValidationError,
                       match=f"^field '{name}' in {type(spec).__name__} must be a finite number"):
        dataclasses.replace(spec, **{name: value})
