"""The CLI input boundary: mutated fixtures exit cleanly and name the bad field."""

import copy
import dataclasses
import functools
import json
import math
import re
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euvq.cli import EX_NUMERICAL, EX_OK, EX_USAGE, EX_VALIDATION, main

COMMANDS = {
    "table1.json": "estimate-absorption",
    "table2_ae.json": "estimate-photoemission",
    "table2_pp.json": "estimate-photoemission",
    "corollary_imeph.json": "estimate-photoemission",
    "scene_random16.json": "emulate-absorption",
    "scene_two_level.json": "emulate-absorption",
    "grid_soft_coulomb_1d.json": "emulate-photoemission",
    "tensor_random4.json": "cdf",
}
NUMBER_ARRAYS = {"re", "im", "values"}
DROP = object()
# finite extremes: integers beyond int64 and far beyond, a huge float and the least float
EXTREMES = [2**64, 10**200, 1e300, 5e-324]
# drop, then retype to str, bool, null, list, object or a fraction, then NaN and +-inf
MUTATIONS = [DROP, "x", True, None, [], {}, 2.5, math.nan, math.inf, -math.inf, *EXTREMES]


def load_fixture(name):
    return json.loads(resources.files("euvq").joinpath("fixtures", name).read_text())


def field_paths(node, prefix=()):
    """Keys and list indices at any depth, except elements of the number arrays."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and prefix[-1] not in NUMBER_ARRAYS:
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def mutate(data, path, value):
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


def run_on(command, data, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(data))
        return main([command, "--input", str(path), *extra])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_fixture_never_raises(name):
    base = load_fixture(name)

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(path=st.sampled_from(list(field_paths(base))),
           value=st.sampled_from(MUTATIONS))
    def check(path, value):
        code = run_on(COMMANDS[name], mutate(base, path, value), "--format", "json")
        assert code in (EX_OK, EX_VALIDATION, EX_NUMERICAL, EX_USAGE)

    check()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_finite_extremes_never_raise(name, capsys):
    # every number field, set to each extreme; the sampled fuzz above reaches few of them.
    # A run that exits 0 prints strict JSON: no NaN or Infinity in any value
    base = load_fixture(name)
    for path in field_paths(base):
        node = functools.reduce(lambda parent, key: parent[key], path, base)
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            for value in EXTREMES:
                code = run_on(COMMANDS[name], mutate(base, path, value), "--format", "json")
                assert code in (EX_OK, EX_VALIDATION, EX_NUMERICAL), (path, value)
                out = capsys.readouterr().out
                if code == EX_OK:
                    json.loads(out, parse_constant=functools.partial(_non_finite, path, value))


# each refusal names a quoted field and the object it sits in
NAMED_REFUSAL = re.compile(r"^error: fields? '[^']+'( and '[^']+')? in [A-Za-z]")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_range_refusal_names_its_field_and_object(name, capsys):
    # every number field set to 0, -1 and just above 2^20, every text field to "X"
    base = load_fixture(name)
    for path in field_paths(base):
        node = functools.reduce(lambda parent, key: parent[key], path, base)
        if isinstance(node, str):
            values = ["X"]
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            values = [0, -1, 2**20 + 1]
        else:
            continue
        for value in values:
            code = run_on(COMMANDS[name], mutate(base, path, value), "--format", "json")
            assert code in (EX_OK, EX_VALIDATION, EX_NUMERICAL), (path, value)
            err = capsys.readouterr().err
            if code == EX_VALIDATION:
                assert NAMED_REFUSAL.match(err) and err.count("\n") == 1, (path, value, err)


def _non_finite(path, value, constant):
    raise AssertionError(f"{path} = {value} printed {constant} at exit 0")


@pytest.mark.parametrize("name, path, value, field", [
    ("table1.json", ("sweep", 0, "n_orbitals"), 22.5, "n_orbitals"),
    ("table1.json", ("sweep", 0, "n_orbitals"), 4.0, "n_orbitals"),
    ("table1.json", ("sweep", 0, "rot_bits"), "18", "rot_bits"),
    ("scene_two_level.json", ("gamma",), math.nan, "gamma"),
    ("grid_soft_coulomb_1d.json", ("filter", "center"), DROP, "center"),
    ("grid_soft_coulomb_1d.json", ("filter",), {}, "center"),
    ("grid_soft_coulomb_1d.json", ("model", "potential"), "soft_coulomb", "potential"),
    ("grid_soft_coulomb_1d.json", ("bins", "count"), DROP, "count"),
    ("grid_soft_coulomb_1d.json", ("smoothing",), 0.5, "smoothing"),
    ("tensor_random4.json", ("l_max",), 2.5, "l_max"),
    ("tensor_random4.json", ("l_max",), 0, "l_max"),
    ("tensor_random4.json", ("l_max",), 17, "l_max"),
    ("tensor_random4.json", ("comment",), "x", "comment"),
    ("grid_soft_coulomb_1d.json", ("model", "box_length"), 5e-324, "box_length"),
    ("grid_soft_coulomb_1d.json", ("model", "box_length"), 1e300, "box_length"),
    ("grid_soft_coulomb_1d.json", ("r_cutoff",), 1e300, "r_cutoff"),
    ("grid_soft_coulomb_1d.json", ("model", "potential", "params", "z"), 2**64, "potential"),
    ("grid_soft_coulomb_1d.json", ("time",), -1, "time"),
    ("grid_soft_coulomb_1d.json", ("time",), 1e300, "time"),
    ("grid_soft_coulomb_1d.json", ("r_cutoff",), -1, "r_cutoff"),
    ("grid_soft_coulomb_1d.json", ("bins",), {"max": 5e-324, "count": 4}, "max"),
    ("scene_two_level.json", ("gamma",), -1, "gamma"),
    ("scene_two_level.json", ("tau",), 0, "tau"),
    ("scene_two_level.json", ("j_max",), -1, "j_max"),
    ("scene_two_level.json", ("tau",), 5e-324, "tau"),
    ("scene_two_level.json", ("gamma",), 1e160, "gamma"),
    ("scene_two_level.json", ("gamma",), 1e300, "gamma"),
    ("scene_two_level.json", ("shots",), 0, "shots"),
    ("grid_soft_coulomb_1d.json", ("shots",), -1, "shots"),
    ("scene_two_level.json", ("omega", "points"), 0, "points"),
    ("grid_soft_coulomb_1d.json", ("bins", "count"), 0, "count"),
    ("scene_two_level.json", ("omega",), {"min": -1e308, "max": 1e308, "points": 5}, "max"),
    ("tensor_random4.json", ("values",), [1.0, 2.0], "values"),
    ("scene_two_level.json", ("scene", "hamiltonian", "re"), [1.0], "re"),
    ("scene_two_level.json", ("scene", "dipole", "im"), [0.0, math.nan, 0.0, 0.0], "im"),
], ids=["n_orbitals-fractional", "n_orbitals-float", "rot_bits-str", "gamma-nan",
        "filter-no-center", "filter-empty", "potential-str", "bins-no-count",
        "config-unknown-key", "l_max-fractional", "l_max-zero", "l_max-above-N^2",
        "tensor-unknown-key", "box_length-least", "box_length-1e300", "r_cutoff-beyond-box",
        "z-2^64", "time-negative", "time-1e300",
        "r_cutoff-negative", "bins-collapsed", "gamma-negative", "tau-zero", "j_max-negative",
        "gamma_tau-underflow", "gamma-1e160", "gamma-1e300", "absorption-shots-zero",
        "photoemission-shots-negative", "omega-points-zero", "bins-count-zero",
        "omega-span-overflow", "tensor-values-short", "scene-re-short", "scene-im-nan"])
def test_bad_field_exits_2_and_is_named(capsys, name, path, value, field):
    assert run_on(COMMANDS[name], mutate(load_fixture(name), path, value)) == EX_VALIDATION
    err = capsys.readouterr().err
    assert f"'{field}'" in err
    assert err.count("\n") == 1  # the one error line: no traceback, no warning


@pytest.mark.parametrize("changes, field", [
    ({"dims": 2}, "dims"),
    ({"eta": 3}, "eta"),
    ({"dims": 3, "eta": 2, "n_points": 8}, "eta"),
    ({"dims": 3, "n_points": 64}, "n_points"),
    ({"eta": 2, "n_points": 2048}, "n_points"),
    ({"potential": {"kind": "soft_coulomb", "params": {"a": 0.0}}}, "potential"),
    ({"potential": {"kind": "nope"}}, "kind"),
    ({"potential": {"kind": "samples", "params": {"values": [1.0, 2.0]}}}, "values"),
    ({"n_points": 8192}, "mode"),
    ({"eta": 2, "n_points": 128}, "mode"),
    ({"eta": 2, "n_points": 16}, "mode"),
    ({"eta": 2, "n_points": 16, "filter": {"center": 1.8, "sigma": 0.2}}, "mode"),
    ({"interaction_strength": 5.0}, "interaction_strength"),
    ({"interaction_softening": 2.0}, "interaction_softening"),
    ({"eta": 2, "n_points": 16, "interaction_strength": 1.0, "interaction_softening": 0.0},
     "interaction_softening"),
    ({"eta": 2, "n_points": 16, "interaction_strength": 1.0, "interaction_softening": 1e-170},
     "interaction_softening"),
    ({"eta": 2, "n_points": 16, "interaction_strength": 1.0, "interaction_softening": 1e200},
     "interaction_softening"),
], ids=["dims-2", "eta-3", "3d-two-electrons", "3d-64-points", "hilbert-above-2^20",
        "potential-infinite", "kind-unknown", "samples-short", "exact-eigen-8192",
        "exact-eigen-two-electrons-128", "exact-eigen-two-electrons-16",
        "default-mode-two-electrons-16", "interaction-strength-one-electron",
        "interaction-softening-one-electron", "interaction-softening-zero",
        "interaction-softening-square-underflows", "interaction-softening-square-overflows"])
def test_bad_grid_model_exits_2_and_is_named(capsys, changes, field):
    # a "filter" entry replaces the fixture's filter; the rest update its model
    data = load_fixture("grid_soft_coulomb_1d.json")
    changes = dict(changes)
    data["filter"] = changes.pop("filter", data["filter"])
    data["model"].update(changes)
    assert run_on("emulate-photoemission", data) == EX_VALIDATION
    err = capsys.readouterr().err
    assert f"'{field}'" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, value", [("time", -1), ("time", 1e300), ("r_cutoff", -1),
                                          ("r_cutoff", 1e300)])
def test_bad_time_or_cutoff_exits_2_before_the_ground_state(monkeypatch, capsys, field, value):
    from euvq import grid

    def unreachable(*args, **kwargs):
        raise AssertionError("the ground state ran before the config was checked")

    monkeypatch.setattr(grid, "ground_state", unreachable)
    data = mutate(load_fixture("grid_soft_coulomb_1d.json"), (field,), value)
    assert run_on("emulate-photoemission", data) == EX_VALIDATION
    err = capsys.readouterr().err
    assert f"'{field}' in emulate-photoemission config" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("name, path", [
    ("scene_two_level.json", ("omega", "max")),
    ("grid_soft_coulomb_1d.json", ("bins", "max")),
], ids=["omega.max", "bins.max"])
@pytest.mark.parametrize("value", [2**64, 10**200], ids=["2^64", "10^200"])
def test_integer_beyond_int64_in_a_number_field_runs(capsys, name, path, value):
    # a number field converts an integer to a float, so numpy never sees an object array
    assert run_on(COMMANDS[name], mutate(load_fixture(name), path, value),
                  "--format", "json") == EX_OK
    assert capsys.readouterr().err == ""


# Every input object with a valid base: built in Python, each field set to a value of the
# wrong kind is refused at construction, naming the field and the object
def _input_objects():
    import numpy as np

    from euvq import cdf, grid
    from euvq.core import AbsorptionSpec, PlaneWaveSpec

    return {
        AbsorptionSpec: ("AbsorptionSpec", load_fixture("table1.json")["sweep"][0]),
        PlaneWaveSpec: ("PlaneWaveSpec", load_fixture("corollary_imeph.json")),
        grid.FilterSpec: ("FilterSpec", {"center": 1.8, "sigma": 0.2}),
        grid.GridModel: ("model", {"n_points": 16, "box_length": 10.0,
                                   "potential": np.zeros(16)}),
        cdf.TwoElectronTensor: ("TwoElectronTensor", {"n_orbitals": 2,
                                                      "values": np.zeros((2, 2, 2, 2))}),
    }


def _wrong_kinds(annotation):
    kind = annotation.split(" |")[0]
    return ([True, "x"] + ([1.5] if kind == "int" else [])
            + ([math.nan, math.inf, -math.inf] if kind == "float" else []))


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in _input_objects() for f in dataclasses.fields(cls)])
def test_every_field_of_the_wrong_kind_is_refused_at_construction(cls, name):
    from euvq.core import ValidationError

    where, base = _input_objects()[cls]
    annotation = next(f.type for f in dataclasses.fields(cls) if f.name == name)
    for value in _wrong_kinds(annotation):
        with pytest.raises(ValidationError, match=f"^field '{name}' in {where} must be "):
            cls(**{**base, name: value})


def _outcome(build):
    """None if ``build()`` succeeds, else the refusal's message."""
    from euvq.core import ValidationError

    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


# values a field may take in JSON, good and bad, shared by every field
FIELD_VALUES = [True, None, "x", [], 0, 1, 2, 3, -1, 1.5, 0.0, 1e-320, 1e200, 2**64, 10**400,
                math.nan, math.inf, -math.inf, "AllElectron", "Pseudopotential", "body",
                "ChebyshevPoly"]


def _mostly(*good):
    """One of ``good`` three times in four, else one of FIELD_VALUES."""
    return st.one_of(*[st.sampled_from(good)] * 3, st.sampled_from(FIELD_VALUES))


@pytest.mark.parametrize("cls", ["AbsorptionSpec", "PlaneWaveSpec", "FilterSpec"])
def test_json_and_python_construction_agree(cls):
    # a complete field dict is accepted or refused alike by the JSON reader and by the
    # constructor, with the same message
    from euvq.core import read_dataclass

    cls = next(c for c in _input_objects() if c.__name__ == cls)
    base = dataclasses.asdict(cls(**_input_objects()[cls][1]))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.fixed_dictionaries({name: _mostly(value) for name, value in base.items()}))
    def check(fields):
        assert (_outcome(lambda: read_dataclass(cls, fields))
                == _outcome(lambda: cls(**fields)))

    check()


GRID_POINTS = [2, 4, 8, 16, 32, 0, 3, 2**21, 16.0, True, "x", None]


def test_grid_model_from_config_and_python_agree():
    # a model read from JSON with a samples potential and one built in Python from the
    # same values are accepted or refused alike, with the same message
    import numpy as np

    from euvq.grid import GridModel

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(dims=_mostly(1, 3), n_points=st.sampled_from(GRID_POINTS),
           box_length=_mostly(10.0, 48.0, 5), eta=_mostly(1, 2),
           interaction_strength=_mostly(0.0, 1.0), interaction_softening=_mostly(1.0, 0.5),
           sample=st.sampled_from([0.0, -1.0, 2, 1e-300, 1e200, -1e308, 1e308]),
           data=st.data())
    def check(sample, data, **fields):
        n = fields["n_points"]
        size = n if type(n) is int and 0 < n <= 32 else 4
        values = data.draw(st.lists(st.sampled_from([0.0, -1.0, 3, sample]),
                                    min_size=size, max_size=size))
        config = {**fields, "potential": {"kind": "samples", "params": {"values": values}}}
        assert (_outcome(lambda: GridModel.from_config(config))
                == _outcome(lambda: GridModel(**fields, potential=np.array(values, dtype=float))))

    check()


def test_infinite_potential_of_both_signs_is_refused_without_a_warning():
    # +inf and -inf on the 1D axis meet in the 3D potential table as inf - inf
    import numpy as np

    from euvq.core import ValidationError
    from euvq.grid import GridModel

    potential = np.zeros(8)
    potential[:2] = np.inf, -np.inf
    with pytest.raises(ValidationError, match="^field 'potential' in model, or 'box_length'"):
        GridModel(dims=3, n_points=8, box_length=6.0, potential=potential)
