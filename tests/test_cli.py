"""CLI dispatch, exit codes, formats, and bundled-fixture round trips."""

import hashlib
import json
import re
import subprocess
import sys
from importlib import resources

import pytest

from euvq.cli import EX_NUMERICAL, EX_OK, EX_USAGE, EX_VALIDATION, main


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "euvq.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_estimate_absorption_table1_qubits(tmp_path):
    out = tmp_path / "t1.csv"
    code = main(["estimate-absorption", "--input", "table1.json",
                 "--output", str(out), "--format", "csv"])
    assert code == EX_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "n_orbitals,qubits,gate_cost,overall_cost"
    qubits = [row.split(",")[1] for row in lines[1:]]
    assert qubits == ["148", "160", "172", "184", "204"]


def test_estimate_photoemission_overall_ratio(tmp_path):
    out = tmp_path / "t2.csv"
    assert main(["estimate-photoemission", "--input", "table2_pp.json",
                 "--output", str(out), "--format", "csv"]) == EX_OK
    for row in out.read_text().splitlines()[1:]:
        cols = row.split(",")
        assert float(cols[5]) == float(cols[4]) * 1e4


def test_emulate_absorption_two_level_peak(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["emulate-absorption", "--input", "scene_two_level.json",
                 "--output", str(out), "--format", "csv"]) == EX_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "omega_Ha,sigma_exact,sigma_td,sigma_sampled,stderr"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    peak_omega = max(rows, key=lambda r: r[1])[0]
    assert abs(peak_omega - 3.38) <= 0.011  # grid step is 0.01


def test_emulate_absorption_json_format(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["emulate-absorption", "--input", "scene_random16.json",
                 "--output", str(out), "--format", "json"]) == EX_OK
    rows = json.loads(out.read_text())
    assert {"omega_Ha", "sigma_exact", "sigma_td", "sigma_sampled", "stderr"} \
        <= set(rows[0])


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["emulate-absorption", "--input", "scene_two_level.json",
                     "--output", str(path), "--seed", "7", "--format", "csv"]) == EX_OK
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(["emulate-absorption", "--input", "scene_two_level.json",
                 "--output", str(c), "--seed", "8", "--format", "csv"]) == EX_OK
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("argv", [
    ["estimate-absorption", "--input", "table1.json"],
    ["estimate-photoemission", "--input", "table2_ae.json"],
    ["emulate-absorption", "--input", "scene_two_level.json"],
    ["emulate-photoemission", "--input", "grid_soft_coulomb_1d.json"],
    ["cdf", "--input", "tensor_random4.json"],
    ["arith-verify"],
], ids=lambda argv: argv[0])
def test_every_subcommand_repeats_byte_identical(tmp_path, argv):
    outputs = []
    for run in range(2):
        path = tmp_path / f"run{run}.json"
        assert main([*argv, "--seed", "11", "--format", "json", "--output", str(path)]) == EX_OK
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("target", ["missing_dir/out.csv", "."])
def test_unwritable_output_exit_code(tmp_path, capsys, target):
    code = main(["arith-verify", "--output", str(tmp_path / target)])
    assert code == EX_VALIDATION
    assert "cannot write output" in capsys.readouterr().err


def test_cdf_command(tmp_path):
    out = tmp_path / "cdf.json"
    assert main(["cdf", "--input", "tensor_random4.json",
                 "--output", str(out)]) == EX_OK
    payload = json.loads(out.read_text())
    assert payload["reconstruction_error"] <= 1e-8
    assert all(r <= 6 for r in payload["givens_rotations_per_fragment"])


def test_arith_verify(tmp_path):
    out = tmp_path / "arith.txt"
    assert main(["arith-verify", "--output", str(out)]) == EX_OK
    text = out.read_text()
    assert "MISMATCH" not in text
    assert "comp n=4 exhaustive: ok" in text


def test_malformed_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sweep": [}')
    code, _, err = run_cli("estimate-absorption", "--input", str(bad))
    assert code == EX_VALIDATION
    assert "line" in err and "column" in err


def test_missing_input_exit_code():
    code, _, err = run_cli("estimate-absorption", "--input", "no_such_file.json")
    assert code == EX_VALIDATION


def test_invalid_spec_exit_code(tmp_path):
    bad = tmp_path / "bad_spec.json"
    bad.write_text(json.dumps({"n_orbitals": 4}))
    code, _, err = run_cli("estimate-absorption", "--input", str(bad))
    assert code == EX_VALIDATION


def test_unknown_command_exit_code():
    code, _, err = run_cli("fabricate-qubits")
    assert code == EX_USAGE
    assert "usage" in err.lower()


def test_fixture_specs_round_trip_validation():
    from importlib import resources

    from euvq.core import AbsorptionSpec, PlaneWaveSpec

    fixtures = resources.files("euvq").joinpath("fixtures")
    for name, cls in (("table1.json", AbsorptionSpec),
                      ("table2_ae.json", PlaneWaveSpec),
                      ("table2_pp.json", PlaneWaveSpec)):
        data = json.loads(fixtures.joinpath(name).read_text())
        for entry in data["sweep"]:
            spec = cls.from_dict(entry)
            assert cls.from_dict(spec.to_dict()) == spec
    corollary = json.loads(fixtures.joinpath("corollary_imeph.json").read_text())
    spec = PlaneWaveSpec.from_dict(corollary)
    assert spec.n_bits == 15


def test_emulate_photoemission_runs(tmp_path):
    cfg = {
        "model": {"dims": 1, "n_points": 128, "box_length": 60.0,
                  "potential": {"kind": "soft_coulomb", "params": {"z": 2.0, "a": 1.0}},
                  "eta": 1},
        "filter": {"center": 1.5, "sigma": 0.3, "mode": "ExactEigen"},
        "time": 4.0, "r_cutoff": 6.0,
        "bins": {"max": 3.0, "count": 12}, "shots": 100}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "hist.csv"
    assert main(["emulate-photoemission", "--input", str(path),
                 "--output", str(out), "--format", "csv"]) == EX_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_lo_Ha,bin_hi_Ha,mass,stderr"
    assert len(lines) == 13


def test_wraparound_flagged_invalid(tmp_path):
    # long propagation reaches the box boundary; the run must exit 3
    base = {
        "model": {"dims": 1, "n_points": 128, "box_length": 60.0,
                  "potential": {"kind": "soft_coulomb", "params": {"z": 2.0, "a": 1.0}},
                  "eta": 1},
        "filter": {"center": 1.8, "sigma": 0.2, "mode": "ExactEigen"},
        "time": 40.0, "r_cutoff": 8.0,
        "bins": {"max": 3.0, "count": 12}, "shots": 0}
    path = tmp_path / "wrap.json"
    path.write_text(json.dumps(base))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_NUMERICAL


@pytest.mark.parametrize("time", [float("nan"), float("inf"), 1e12])
def test_unrunnable_time_exit_code(tmp_path, time):
    # non-finite, or so long that exp(-iHt) needs more than 1e6 applications of H
    fixture = resources.files("euvq").joinpath("fixtures", "grid_soft_coulomb_1d.json")
    cfg = json.loads(fixture.read_text())
    cfg["time"] = time
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_VALIDATION


def test_numerical_failure_exit_code(tmp_path):
    # dipole along x annihilates nothing, but a zero box of zero potential with
    # a filter that cannot reach its tolerance at the pinned degree must exit 3
    cfg = {
        "model": {"dims": 1, "n_points": 64, "box_length": 30.0,
                  "potential": {"kind": "soft_coulomb", "params": {"z": 2.0, "a": 1.0}},
                  "eta": 1},
        "filter": {"center": 1.5, "sigma": 0.01, "mode": "ChebyshevPoly",
                   "poly_degree": 2, "poly_tolerance": 1e-6},
        "time": 1.0, "r_cutoff": 6.0,
        "bins": {"max": 3.0, "count": 12}, "shots": 10}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    code = main(["emulate-photoemission", "--input", str(path)])
    assert code in (EX_VALIDATION, EX_NUMERICAL)


def _form(text):
    """Which documented form a command's output takes: json, csv or table (plain text)."""
    try:
        json.loads(text)
        return "json"
    except ValueError:
        header = text.splitlines()[0]
        return "csv" if "," in header and " " not in header else "table"


ALL_FORMS = {"table": "table", "csv": "csv", "json": "json"}


FORMAT_CASES = [
    (["estimate-absorption", "--input", "table1.json"], ALL_FORMS),
    (["estimate-photoemission", "--input", "table2_ae.json"], ALL_FORMS),
    (["emulate-absorption", "--input", "scene_two_level.json"],
     {"table": "csv", "csv": "csv", "json": "json"}),
    (["emulate-photoemission", "--input", "grid_soft_coulomb_1d.json"],
     {"table": "csv", "csv": "csv", "json": "json"}),
    (["cdf", "--input", "tensor_random4.json"], dict.fromkeys(ALL_FORMS, "json")),
    (["arith-verify"], dict.fromkeys(ALL_FORMS, "table")),
]


@pytest.mark.parametrize("argv, forms", FORMAT_CASES, ids=[argv[0] for argv, _ in FORMAT_CASES])
def test_format_rule(tmp_path, argv, forms):
    # a command without the requested form prints its first of csv, json, table
    out = {}
    for fmt in ALL_FORMS:
        path = tmp_path / f"out.{fmt}"
        assert main([*argv, "--format", fmt, "--output", str(path)]) == EX_OK
        out[fmt] = path.read_text()
    assert {fmt: _form(text) for fmt, text in out.items()} == forms
    for fmt, form in forms.items():
        assert out[fmt] == out[form]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_out_of_range_exit_code(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["arith-verify", "--seed", seed])
    assert exc.value.code == EX_USAGE
    assert "usage" in capsys.readouterr().err


def _fixture(name):
    return json.loads(resources.files("euvq").joinpath("fixtures", name).read_text())


def _edited(name, edit):
    data = _fixture(name)
    edit(data)
    return data


def _table1_entry(**fields):
    return dict(_fixture("table1.json")["sweep"][0], **fields)


def _corollary(**fields):
    return _edited("corollary_imeph.json", lambda d: d.update(fields))


@pytest.mark.parametrize("command, data, name", [
    ("estimate-photoemission", _corollary(eta=10**400), "'eta'"),
    ("estimate-photoemission", _corollary(n_bits=2000), "n_bits"),
    ("estimate-photoemission", _corollary(c_sp=1e308), "'state prep + dipole (amplified)'"),
    ("estimate-absorption", _table1_entry(rot_bits=10**400), "'rot_bits'"),
    ("estimate-absorption", _table1_entry(tau=1e300), "'time-evolution (GQSP x Trotter)'"),
    ("estimate-photoemission", _corollary(epsilon_sampling=1e-300), "epsilon_sampling"),
    ("estimate-absorption", _table1_entry(epsilon=1e-300), "epsilon)^2"),
    ("estimate-absorption", _table1_entry(tau=1.7e308), "tau / sqrt(gamma / y3_magnitude)"),
], ids=["eta", "n_bits", "c_sp", "rot_bits", "tau", "epsilon_sampling", "epsilon", "tau_steps"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_estimate_out_of_float_range_exit_code(tmp_path, capsys, command, data, name, fmt):
    # the message names the input field, or the cost term, that left the float range
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main([command, "--input", str(path), "--format", fmt]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert name in err
    assert not re.search(r"Infinity|\binf\b|Traceback", err)


@pytest.mark.parametrize("command, data, field", [
    ("estimate-absorption", _table1_entry(dipole_norm=0), "dipole_norm"),
    ("estimate-absorption", _table1_entry(shot_alpha=0), "shot_alpha"),
    ("estimate-absorption", _table1_entry(shot_beta=-1.0), "shot_beta"),
    ("estimate-absorption", _table1_entry(ancilla_qubits=-1), "ancilla_qubits"),
    ("estimate-photoemission", _corollary(c_sp=-5.0), "c_sp"),
    ("estimate-photoemission", _corollary(c_sp=-1e12), "c_sp"),
    ("estimate-photoemission", _corollary(n_bits=511), "n_bits"),
    ("estimate-photoemission", _corollary(lambda_zeta=1e300), "lambda_zeta"),
    ("estimate-photoemission", _corollary(epsilon_be=1e-300), "epsilon_be"),
    ("estimate-photoemission", _corollary(epsilon_be=1e-320, omega_cell=1e300), "epsilon_be"),
    ("estimate-photoemission", _corollary(eta=10**200), "eta"),
], ids=["dipole_norm_0", "shot_alpha_0", "shot_beta_neg", "ancilla_neg", "c_sp_-5", "c_sp_-1e12",
        "n_bits_511", "lambda_zeta_1e300", "epsilon_be_1e-300", "epsilon_be_1e-320", "eta_1e200"])
def test_estimate_spec_out_of_range_names_field(tmp_path, capsys, command, data, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main([command, "--input", str(path)]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert field in err
    assert not re.search(r"Infinity|\binf\b|Traceback|value out of range", err)


def test_integer_beyond_parser_digit_limit_exit_code(tmp_path, capsys):
    text = json.dumps(_corollary()).replace('"eta": 110', '"eta": 1' + "0" * 5000)
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["estimate-photoemission", "--input", str(path)]) == EX_VALIDATION
    assert "number out of range" in capsys.readouterr().err


# sha256 of the estimators' stdout on every bundled estimator fixture; a change to
# any of these digests is a change of published output and must be stated
ESTIMATOR_DIGESTS = [
    ("estimate-absorption", "table1.json", "table",
     "0d38f07caaac90ea8ffa0d847ca71a26fa2297cd59d6a166b29d9d71f70720cd"),
    ("estimate-absorption", "table1.json", "csv",
     "6e312b10e6d1907c02f75e78f7fd0d0f5770d6c378b39a657df3c5caf3b317a0"),
    ("estimate-absorption", "table1.json", "json",
     "94d77e643e276cf6c447d30087c584b0bf7621f65eca00c3b339df5720ecc6df"),
    ("estimate-photoemission", "corollary_imeph.json", "table",
     "96ca83dab6e91b806d4b33c3087747eb36f67a5fa8bbff7a8453db6d88a6ce7c"),
    ("estimate-photoemission", "corollary_imeph.json", "csv",
     "0585ac72665abca330f93bac508b2712149a6ae05073eeed5c372e78046125d9"),
    ("estimate-photoemission", "corollary_imeph.json", "json",
     "7d44b3dd941c35671b9d996c03967ad2835b2426c58562cbc7fcca6312fd921a"),
    ("estimate-photoemission", "table2_ae.json", "table",
     "fa52c816595c43a44ab32bb93899e2ad6108df7d2ee20e898b278708310419ae"),
    ("estimate-photoemission", "table2_ae.json", "csv",
     "df86a22fb89ff0e8ec6d75a0cfb728fec2ec6398cd32696633057aef08e9e1f9"),
    ("estimate-photoemission", "table2_ae.json", "json",
     "2101bcee9ebdd0bf8d984bd5757ab91f5e654c3071915c4f050170efe02e1721"),
    ("estimate-photoemission", "table2_pp.json", "table",
     "0d29728021c69880c70b1938e47accb19242ba50ab24c1b9066b56e03df06e0e"),
    ("estimate-photoemission", "table2_pp.json", "csv",
     "f64a40ca724c0a85aac0a74e8bce2280a868082d02904df8f1f3b245e89f91dc"),
    ("estimate-photoemission", "table2_pp.json", "json",
     "577c12242cca017a4765cf64ad280e4ece2a6a2fc412b6bc5f15876077a7a400"),
]


@pytest.mark.parametrize("command, fixture, fmt, digest", ESTIMATOR_DIGESTS,
                         ids=[f"{c[9:]}-{f[:-5]}-{fmt}" for c, f, fmt, _ in ESTIMATOR_DIGESTS])
def test_estimator_output_digest(capsys, command, fixture, fmt, digest):
    assert main([command, "--input", fixture, "--format", fmt]) == EX_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _set_model(**fields):
    return lambda cfg: cfg["model"].update(fields)


@pytest.mark.parametrize("edit", [
    _set_model(potential={"kind": "soft_coulomb", "params": {"z": 2.0, "a": 0.0}}),
    _set_model(potential={"kind": "gaussian_well", "params": {"sigma": 0.0}}),
    _set_model(eta=2, n_points=32, interaction_strength=1.0, interaction_softening=0.0),
    _set_model(box_length=1e-320),
], ids=["soft_coulomb_a0", "gaussian_sigma0", "ee_softening0", "box_1e-320"])
def test_non_finite_grid_energy_exit_code(tmp_path, capsys, edit):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_edited("grid_soft_coulomb_1d.json", edit)))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_VALIDATION
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, edit", [
    ("j_max", lambda d: d.update(j_max=10**15)),
    ("omega.points", lambda d: d["omega"].update(points=10**15)),
    ("shots", lambda d: d.update(shots=10**15)),
    ("gamma", lambda d: d.update(gamma=1e-300)),
], ids=["j_max", "omega_points", "shots", "gamma_1e-300"])
def test_emulate_absorption_out_of_range_exit_code(tmp_path, capsys, field, edit):
    # oversized arrays are refused before allocation; a non-finite spectrum is refused
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_edited("scene_two_level.json", edit)))
    assert main(["emulate-absorption", "--input", str(path), "--format", "json"]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert field in err
    assert not re.search(r"Traceback|Warning|Infinity", err)


def _grid_with(**fields):
    return _edited("grid_soft_coulomb_1d.json", lambda d: d.update(fields))


@pytest.mark.parametrize("data, field, cap", [
    (_grid_with(shots=10**15), "shots", "16777216"),
    (_grid_with(bins={"max": 3.0, "count": 10**15}), "bins.count", "1048576"),
    (_grid_with(filter={"center": 1.8, "sigma": 0.2, "mode": "ChebyshevPoly",
                        "poly_degree": 10**15}), "poly_degree", "20000"),
], ids=["shots", "bins_count", "poly_degree"])
def test_emulate_photoemission_size_cap_exit_code(tmp_path, capsys, data, field, cap):
    # oversized arrays are refused before the pipeline allocates anything
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(data))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert field in err and cap in err
    assert "Traceback" not in err
