"""The CLI input boundary: mutated fixtures exit cleanly and name the bad field."""

import copy
import json
import math
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
# drop, then retype to str, bool, null, list, object or a fraction, then NaN and +-inf
MUTATIONS = [DROP, "x", True, None, [], {}, 2.5, math.nan, math.inf, -math.inf]


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


@pytest.mark.parametrize("name, path, value, field", [
    ("table1.json", ("sweep", 0, "n_orbitals"), 22.5, "n_orbitals"),
    ("table1.json", ("sweep", 0, "n_orbitals"), 4.0, "n_orbitals"),
    ("table1.json", ("sweep", 0, "gqsp_two_sided"), "no", "gqsp_two_sided"),
    ("scene_two_level.json", ("gamma",), math.nan, "gamma"),
    ("grid_soft_coulomb_1d.json", ("filter", "center"), DROP, "center"),
    ("grid_soft_coulomb_1d.json", ("filter",), {}, "center"),
    ("grid_soft_coulomb_1d.json", ("model", "potential"), "soft_coulomb", "potential"),
    ("grid_soft_coulomb_1d.json", ("bins", "count"), DROP, "count"),
    ("grid_soft_coulomb_1d.json", ("smoothing",), 0.5, "smoothing"),
    ("tensor_random4.json", ("l_max",), 2.5, "l_max"),
    ("tensor_random4.json", ("comment",), "x", "comment"),
], ids=["n_orbitals-fractional", "n_orbitals-float", "gqsp_two_sided-str", "gamma-nan",
        "filter-no-center", "filter-empty", "potential-str", "bins-no-count",
        "config-unknown-key", "l_max-fractional", "tensor-unknown-key"])
def test_bad_field_exits_2_and_is_named(capsys, name, path, value, field):
    assert run_on(COMMANDS[name], mutate(load_fixture(name), path, value)) == EX_VALIDATION
    assert f"'{field}'" in capsys.readouterr().err
