"""CLI dispatch, exit codes, formats, and bundled-fixture round trips."""

import hashlib
import json
import os
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from euvq import qarith
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
    assert text.splitlines()[-1] == "position block-encoding Toffolis vs closed form: ok"


def test_arith_verify_reproducible(tmp_path):
    # the sampled radius-test cases come from the seed alone, so two fresh
    # interpreters print the same bytes, and every seed passes every check
    runs = [run_cli("arith-verify", "--seed", "12345") for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0][1].splitlines()
    assert len(lines) == 10 and all(line.endswith(": ok") for line in lines)
    for seed in (0, 1, 2**64 - 1):
        out = tmp_path / f"arith_{seed}.txt"
        assert main(["arith-verify", "--seed", str(seed), "--output", str(out)]) == EX_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 10 and all(line.endswith(": ok") for line in lines)


def _mutated_comp(a, b):
    return int(b.value <= a.value)


def _mutated_radius_threshold(r_cutoff, n_bits, box, threshold=qarith.radius_threshold):
    return threshold(r_cutoff, n_bits, box) + 5


@pytest.mark.parametrize("target, mutant, broken", [
    ("euvq.qarith.BitRegister.as_int", property(lambda reg: reg.value), "radius_test sampled"),
    ("euvq.qarith.comp", _mutated_comp, "comp n=1 exhaustive"),
    ("euvq.qarith.radius_threshold", _mutated_radius_threshold, "radius_test sampled"),
], ids=["as_int_unsigned", "comp_le", "radius_threshold_plus_5"])
def test_arith_verify_catches_mutants(capsys, monkeypatch, target, mutant, broken):
    # the registers are built once per width, yet a fault in the code under test
    # still reaches every check that reads it; the radius oracle works from the
    # definition, so a wrong threshold cannot move both sides of its comparison
    monkeypatch.setattr(target, mutant)
    assert main(["arith-verify"]) == EX_NUMERICAL
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith(broken + ":"))
    assert line.endswith(("MISMATCH", "MISMATCHES"))


def test_parser_built_once_per_process(capsys, monkeypatch):
    from euvq import cli

    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["arith-verify"]) == EX_OK
        assert len(built) == 1
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == EX_USAGE
        assert capsys.readouterr().err.startswith("usage: euvq ")
        assert len(built) == 1
    finally:
        cli.build_parser.cache_clear()  # later calls build an unpatched parser


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


def test_numerical_failure_exit_code(tmp_path, capsys):
    # a window centred far above the spectrum passes nothing: the filtered
    # state is zero, and the run must exit 3
    cfg = {
        "model": {"dims": 1, "n_points": 64, "box_length": 30.0,
                  "potential": {"kind": "soft_coulomb", "params": {"z": 2.0, "a": 1.0}},
                  "eta": 1},
        "filter": {"center": 1e6, "sigma": 0.2, "mode": "ChebyshevPoly",
                   "poly_tolerance": 1e-6},
        "time": 1.0, "r_cutoff": 6.0,
        "bins": {"max": 3.0, "count": 12}, "shots": 10}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert "filter annihilated the state" in err


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


def _beta_unpinned(**fields):
    entry = _table1_entry(**fields)
    del entry["shot_beta"]
    return entry


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
    # gamma tau overflows to inf, and beta at j_max 0 is (tau/2pi) alone, not NaN
    ("estimate-absorption", _beta_unpinned(gamma=1e300, tau=1e300, j_max=0), "epsilon)^2"),
], ids=["eta", "n_bits", "c_sp", "rot_bits", "tau", "epsilon_sampling", "epsilon", "tau_steps",
        "beta_j_max_0"])
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
    # gamma tau rounds to 0, so the Fourier weights do not decay and beta diverges
    ("estimate-absorption", _beta_unpinned(gamma=1e-200, tau=1e-200),
     "gamma = 1e-200 and tau = 1e-200"),
    ("estimate-photoemission", _corollary(c_sp=-5.0), "c_sp"),
    ("estimate-photoemission", _corollary(c_sp=-1e12), "c_sp"),
    ("estimate-photoemission", _corollary(n_bits=511), "n_bits"),
    ("estimate-photoemission", _corollary(lambda_zeta=1e300), "lambda_zeta"),
    ("estimate-photoemission", _corollary(epsilon_be=1e-300), "epsilon_be"),
    ("estimate-photoemission", _corollary(epsilon_be=1e-320, omega_cell=1e300), "epsilon_be"),
    ("estimate-photoemission", _corollary(eta=10**200), "eta"),
], ids=["dipole_norm_0", "shot_alpha_0", "shot_beta_neg", "ancilla_neg", "gamma_tau_underflow",
        "c_sp_-5", "c_sp_-1e12", "n_bits_511", "lambda_zeta_1e300", "epsilon_be_1e-300",
        "epsilon_be_1e-320", "eta_1e200"])
def test_estimate_spec_out_of_range_names_field(tmp_path, capsys, command, data, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main([command, "--input", str(path)]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert field in err
    assert not re.search(r"Infinity|\binf\b|Traceback|value out of range", err)


@pytest.mark.parametrize("fields", [{"tau": 1e-300}, {"gamma": 1e-20, "tau": 1e-20}],
                         ids=["tau_1e-300", "gamma_tau_1e-40"])
def test_estimate_absorption_vanishing_decay_runs(tmp_path, capsys, fields):
    # r = exp(-gamma tau) rounds to 1, yet beta comes out finite and positive
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_beta_unpinned(**fields)))
    assert main(["estimate-absorption", "--input", str(path), "--format", "json"]) == EX_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)[0]["report"]["shots"] >= 1


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
     "011b55c6420714beb3a9f35577359625ca9a3f34dccb9328a395995d33266744"),
    ("estimate-photoemission", "corollary_imeph.json", "table",
     "b624c9019880eb23da1c43293918e20038c0a431de8488f75e464d12c98a815c"),
    ("estimate-photoemission", "corollary_imeph.json", "csv",
     "00f32d5883a911768717fcebdf0e880e5662782fc5e5b66b414762de7abc1d34"),
    ("estimate-photoemission", "corollary_imeph.json", "json",
     "435f7d33dff9f49d1698ed85b7c394c73a9e64e4b4c9793051343825c96aa204"),
    ("estimate-photoemission", "table2_ae.json", "table",
     "fa52c816595c43a44ab32bb93899e2ad6108df7d2ee20e898b278708310419ae"),
    ("estimate-photoemission", "table2_ae.json", "csv",
     "df86a22fb89ff0e8ec6d75a0cfb728fec2ec6398cd32696633057aef08e9e1f9"),
    ("estimate-photoemission", "table2_ae.json", "json",
     "a155f7e65cfa76ef82b9a4b02fc5bfb8f6453ca5602ae7c7011f561f823168e6"),
    ("estimate-photoemission", "table2_pp.json", "table",
     "0d29728021c69880c70b1938e47accb19242ba50ab24c1b9066b56e03df06e0e"),
    ("estimate-photoemission", "table2_pp.json", "csv",
     "f64a40ca724c0a85aac0a74e8bce2280a868082d02904df8f1f3b245e89f91dc"),
    ("estimate-photoemission", "table2_pp.json", "json",
     "ca5fef85eab7a18b386bfab5c38ca60a778c6a048b10d20e92d9f4a927dad28f"),
]


@pytest.mark.parametrize("command, fixture, fmt, digest", ESTIMATOR_DIGESTS,
                         ids=[f"{c[9:]}-{f[:-5]}-{fmt}" for c, f, fmt, _ in ESTIMATOR_DIGESTS])
def test_estimator_output_digest(capsys, command, fixture, fmt, digest):
    assert main([command, "--input", fixture, "--format", fmt]) == EX_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of emulate-absorption's stdout on every bundled scene at --seed 13: the
# exact, time-domain and sampled columns, outcome counts included
ABSORPTION_DIGESTS = [
    ("scene_two_level.json", "json",
     "f32ec0e4a2820da61fdf13937a726c5ff5b5d4ee63c10bc95d80bd320cdad05a"),
    ("scene_two_level.json", "csv",
     "220c86a14976a86993bb41659083241ddb2efbe8de2d6ed220b6b97f18f48fe5"),
    ("scene_random16.json", "json",
     "7ce41e5e63c238aff192ed1143c2d19619a1443ae19c5d3dec577a4f70d8c798"),
    ("scene_random16.json", "csv",
     "2d096a00829e0690816a8c0e811bfdfa0835e54af37afeff1c9b27614e2de1f0"),
]


@pytest.mark.parametrize("fixture, fmt, digest", ABSORPTION_DIGESTS,
                         ids=[f"{f[:-5]}-{fmt}" for f, fmt, _ in ABSORPTION_DIGESTS])
def test_emulate_absorption_output_digest(capsys, fixture, fmt, digest):
    assert main(["emulate-absorption", "--input", fixture, "--format", fmt,
                 "--seed", "13"]) == EX_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_emulate_absorption_scene_without_im_reads_as_real(tmp_path, capsys):
    # 'im' is optional in a scene: left out, each matrix and vector reads as real, so the
    # run prints the bytes of the fixture, which gives every 'im' as zeros
    def real_only(data):
        for entry in data["scene"].values():
            if isinstance(entry, dict):
                del entry["im"]

    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_edited("scene_two_level.json", real_only)))
    assert main(["emulate-absorption", "--input", str(path), "--format", "json"]) == EX_OK
    without_im = capsys.readouterr().out
    assert main(["emulate-absorption", "--input", "scene_two_level.json",
                 "--format", "json"]) == EX_OK
    assert without_im == capsys.readouterr().out


# two electrons on a 64-point line, dimension 4096, under the matrix-free filter
TWO_ELECTRON_CONFIG = {
    "model": {"dims": 1, "eta": 2, "n_points": 64, "box_length": 48.0,
              "potential": {"kind": "soft_coulomb", "params": {"z": 2.0, "a": 1.0}},
              "interaction_strength": 1.0},
    "filter": {"center": 1.5, "sigma": 0.3, "mode": "ChebyshevPoly"},
    "time": 1.0,
    "r_cutoff": 6.0,
    "bins": {"max": 3.0, "count": 24},
    "shots": 400,
}

# sha256 of emulate-photoemission's stdout at --seed 13 on the bundled fixture and
# on TWO_ELECTRON_CONFIG: the exact and sampled masses, outcome counts included, and
# in JSON the ground energy, the stages' success probabilities and the escape diagnostics
PHOTOEMISSION_DIGESTS = [
    ("grid_soft_coulomb_1d.json", "json",
     "22d730a28cf4a99b8ff8428e0755a299ca70c57d189fc6f179c902983d007b01"),
    ("grid_soft_coulomb_1d.json", "csv",
     "baaf407bb7a08f8e8bedcd36d940f4c09496c3b3d137fcbe6a6d065d527e0101"),
    (None, "json", "4b3bc42cb46d1fdde79c43b64285a4e2c2482c7b4913061582f8fda427a80b4c"),
    (None, "csv", "20d782e1fce314d69a47691a0bdfc8de37cad0a24ef57b1f2516c2484672f9fa"),
]


@pytest.mark.parametrize("fixture, fmt, digest", PHOTOEMISSION_DIGESTS,
                         ids=[f"{(f or 'two_electron.json')[:-5]}-{fmt}"
                              for f, fmt, _ in PHOTOEMISSION_DIGESTS])
def test_emulate_photoemission_output_digest(tmp_path, capsys, fixture, fmt, digest):
    if fixture is None:
        fixture = tmp_path / "two_electron.json"
        fixture.write_text(json.dumps(TWO_ELECTRON_CONFIG))
    assert main(["emulate-photoemission", "--input", str(fixture), "--format", fmt,
                 "--seed", "13"]) == EX_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# one electron in a 3D harmonic well, 16^3 points, under ExactEigen
THREE_D_HARMONIC_CONFIG = {
    "model": {"dims": 3, "n_points": 16, "box_length": 16.0,
              "potential": {"kind": "harmonic", "params": {"k": 1.0}}},
    "filter": {"center": 1.0, "sigma": 0.3, "mode": "ExactEigen"},
    "time": 0.5,
    "r_cutoff": 2.0,
    "bins": {"max": 3.0, "count": 24},
    "shots": 400,
}


@pytest.mark.parametrize("config", [THREE_D_HARMONIC_CONFIG, TWO_ELECTRON_CONFIG],
                         ids=["three_d_harmonic", "two_electron"])
def test_emulate_photoemission_bytes_do_not_depend_on_blas_threads(tmp_path, config):
    # one electron's eigensystem is that of the one-axis h1, 16 rows in 3D here,
    # and two electrons take the series; the dense H's symmetry blocks of
    # several hundred rows and more gave different bytes under 1 and 2 OpenBLAS
    # threads. The thread count is set in the child alone
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "euvq.cli", "emulate-photoemission",
                               "--input", str(path), "--format", "json"], capture_output=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == EX_OK, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_emulate_photoemission_exact_eigen_runs_3d_at_32_points(tmp_path, capsys):
    # 3D at its 32-point cap, dimension 32768, was refused naming 'mode'; one
    # electron's eigensystem now diagonalizes 32 rows
    config = {**THREE_D_HARMONIC_CONFIG,
              "model": {**THREE_D_HARMONIC_CONFIG["model"], "n_points": 32}}
    path = tmp_path / "harmonic_3d_32.json"
    path.write_text(json.dumps(config))
    assert main(["emulate-photoemission", "--input", str(path), "--format", "json"]) == EX_OK
    record = json.loads(capsys.readouterr().out)
    assert record["ground_energy_Ha"] == pytest.approx(1.5, abs=1e-10)
    assert record["filter_success_probability"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("config", [
    _fixture("grid_soft_coulomb_1d.json"),
    TWO_ELECTRON_CONFIG,
    {k: v for k, v in _fixture("grid_soft_coulomb_1d.json").items() if k != "filter"},
], ids=["exact_eigen", "two_electron_chebyshev", "no_filter"])
def test_emulate_photoemission_records_ground_energy_and_window_probability(
        tmp_path, capsys, config):
    # the JSON record carries the values the stages return, unrounded
    from euvq import grid
    from euvq.core import read_dataclass

    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    assert main(["emulate-photoemission", "--input", str(path), "--format", "json"]) == EX_OK
    record = json.loads(capsys.readouterr().out)
    model = grid.GridModel.from_config(config["model"])
    filt = None if "filter" not in config else read_dataclass(grid.FilterSpec, config["filter"])
    # every mode takes ground_state's pair: for one electron h1's lowest, lifted
    psi, energy = grid.ground_state(model)
    assert record["ground_energy_Ha"] == energy
    if filt is None:
        assert record["filter_success_probability"] is None
        return
    dipole, norm = grid.apply_dipole(model, psi)
    _, p_window = grid.gaussian_filter(model, filt, dipole / norm, energy)
    assert record["filter_success_probability"] == p_window


@pytest.mark.parametrize("config, applications", [
    (_fixture("grid_soft_coulomb_1d.json"), 0),
    (TWO_ELECTRON_CONFIG, 12 + 80 + 31),
], ids=["exact_eigen", "two_electron_chebyshev"])
def test_emulate_photoemission_h_applications(tmp_path, capsys, monkeypatch, config,
                                              applications):
    # ExactEigen builds h1 from the one-axis kinetic matrix and takes the ground
    # state, the window and exp(-iHt) from its one eigendecomposition, so it never
    # applies H (LOBPCG took 21 on the fixture, the Jacobi-Anger series 320);
    # ChebyshevPoly applies it in LOBPCG and once per degree of each series, on two
    # electrons by the sector kernel (LOBPCG from a random start took 26, and 15
    # while the preconditioner left out the repulsion's diagonal)
    from euvq.grid import GridModel

    calls = []
    for name in ("_apply", "_apply_sector"):
        def counted(self, tables, state, apply=getattr(GridModel, name)):
            calls.append(state.shape)
            return apply(self, tables, state)

        monkeypatch.setattr(GridModel, name, counted)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    assert main(["emulate-photoemission", "--input", str(path), "--format", "json"]) == EX_OK
    assert len(calls) == applications


@pytest.mark.parametrize("config", [
    _fixture("grid_soft_coulomb_1d.json"),
    TWO_ELECTRON_CONFIG,
], ids=["exact_eigen", "two_electron_chebyshev"])
def test_emulate_photoemission_records_escape_diagnostics(tmp_path, capsys, config):
    # the edge density of the propagated state, the slowest kinetic energy that
    # reaches r_cutoff within the time, and |V| on the axis at or past r_cutoff
    from euvq import grid
    from euvq.core import read_dataclass

    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    assert main(["emulate-photoemission", "--input", str(path), "--format", "json"]) == EX_OK
    record = json.loads(capsys.readouterr().out)
    model = grid.GridModel.from_config(config["model"])
    filt = read_dataclass(grid.FilterSpec, config["filter"])
    state, _, _ = grid.filter_and_evolve(model, filt, config["time"])
    assert record["edge_density"] == grid.edge_density(model, state)
    r_cutoff, t = config["r_cutoff"], config["time"]
    assert record["escape_energy_Ha"] == grid.escape_energy(r_cutoff, t) == (r_cutoff / t) ** 2 / 2
    outside = np.abs(model.axis) >= r_cutoff
    assert outside.any() and not outside.all()
    want = float(np.max(np.abs(model.potential[outside])))
    assert record["potential_at_cutoff_Ha"] == grid.potential_at_cutoff(model, r_cutoff) == want


@pytest.mark.parametrize("time", [0.0, 5e-324], ids=["zero", "overflow"])
def test_emulate_photoemission_escape_energy_null(tmp_path, capsys, time):
    # (r_cutoff / t)^2 / 2 has no value at t = 0 and overflows at the least positive t;
    # both are written as null, so the record stays strict JSON
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_edited("grid_soft_coulomb_1d.json",
                                       lambda d: d.update(time=time))))
    assert main(["emulate-photoemission", "--input", str(path), "--format", "json"]) == EX_OK
    record = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert record["escape_energy_Ha"] is None
    assert record["edge_density"] <= 1e-6


def _set_model(**fields):
    return lambda cfg: cfg["model"].update(fields)


def test_emulate_photoemission_harmonic_well(tmp_path):
    # V = x^2 / 2 reaches 800 Ha at the box faces; a ground-state preconditioner
    # blind to V stopped after 500 iterations here, and the run exited 3
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_edited("grid_soft_coulomb_1d.json", _set_model(
        n_points=512, potential={"kind": "harmonic", "params": {"k": 1.0}}))))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_OK


def test_spectral_range_overflow_exit_code(tmp_path):
    # a finite potential whose spectral range overflows when squared is refused
    # by name, before the ground-state iteration's dot products overflow
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_edited("grid_soft_coulomb_1d.json", _set_model(
        potential={"kind": "samples", "params": {"values": [1e200] + [0.0] * 255}}))))
    code, out, err = run_cli("emulate-photoemission", "--input", str(path))
    assert code == EX_VALIDATION
    assert out == ""
    assert "field 'potential' in model" in err
    assert "Warning" not in err


@pytest.mark.parametrize("edit, refusal", [
    (_set_model(potential={"kind": "soft_coulomb", "params": {"z": 2.0, "a": 0.0}}),
     "field 'potential' in model, or 'box_length' through the kinetic energy, gives energies "
     "that are not finite"),
    (_set_model(potential={"kind": "gaussian_well", "params": {"sigma": 0.0}}),
     "field 'sigma' in gaussian_well potential params must be finite and nonzero when squared"),
    (_set_model(eta=2, n_points=32, interaction_strength=1.0, interaction_softening=0.0),
     "field 'interaction_softening' in model must be such that interaction_softening^2 and "
     "the repulsion"),
    (_set_model(box_length=1e-320),
     "field 'potential' in model, or 'box_length' through the kinetic energy, gives energies "
     "that are not finite"),
], ids=["soft_coulomb_a0", "gaussian_sigma0", "ee_softening0", "box_1e-320"])
def test_non_finite_grid_energy_exit_code(tmp_path, capsys, edit, refusal):
    # a non-finite energy is refused by name: the potential and the kinetic energy
    # by the energy reach, the others by their own fields
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_edited("grid_soft_coulomb_1d.json", edit)))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {refusal}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, edit", [
    ("j_max", lambda d: d.update(j_max=10**15)),
    ("field 'points' in omega", lambda d: d["omega"].update(points=10**15)),
    ("field 'shots' in emulate-absorption config", lambda d: d.update(shots=10**15)),
    ("gamma", lambda d: d.update(gamma=1e-300)),
], ids=["j_max", "omega_points", "shots", "gamma_1e-300"])
def test_emulate_absorption_out_of_range_exit_code(tmp_path, capsys, field, edit):
    # a size past its cap is refused by name; a non-finite spectrum is refused
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_edited("scene_two_level.json", edit)))
    assert main(["emulate-absorption", "--input", str(path), "--format", "json"]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert field in err
    assert not re.search(r"Traceback|Warning|Infinity", err)


def _set_scene(name, values):
    return lambda d: d["scene"][name].update(re=values)


@pytest.mark.parametrize("edit, field, value", [
    (lambda d: d["scene"].update(dim=0), "field 'dim' in scene", "got 0"),
    (_set_scene("hamiltonian", [0.0, 1.0, 0.0, 3.38]), "field 'hamiltonian' in scene", "up to 1"),
    (_set_scene("dipole", [0.0, 6.25, 0.0, 0.0]), "field 'dipole' in scene", "up to 6.25"),
    (_set_scene("ground_state", [2.0, 0.0]), "field 'ground_state' in scene", "norm 2"),
    (_set_scene("ground_state", [0.6, 0.8]), "field 'ground_state' in scene", "residual 1.6"),
], ids=["dim_0", "hamiltonian_not_hermitian", "dipole_not_hermitian", "ground_state_norm_2",
        "ground_state_not_eigen"])
def test_emulate_absorption_scene_refusal_names_the_field(tmp_path, capsys, edit, field, value):
    # each scene check names its field in the form the other refusals use, and its value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_edited("scene_two_level.json", edit)))
    assert main(["emulate-absorption", "--input", str(path)]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert field in err and value in err
    assert "Traceback" not in err


def _grid_with(**fields):
    return _edited("grid_soft_coulomb_1d.json", lambda d: d.update(fields))


@pytest.mark.parametrize("data, field, cap", [
    (_grid_with(shots=10**15), "field 'shots' in emulate-photoemission config", "16777216"),
    (_grid_with(bins={"max": 3.0, "count": 10**15}), "field 'count' in bins", "1048576"),
    (_grid_with(filter={"center": 1.8, "sigma": 0.2, "mode": "ChebyshevPoly",
                        "poly_tolerance": 1e-300}), "field 'poly_tolerance' in FilterSpec",
     "20000"),
], ids=["shots", "bins_count", "poly_tolerance"])
def test_emulate_photoemission_size_cap_exit_code(tmp_path, capsys, data, field, cap):
    # a size past its cap, and a filter series past its degree cap, are refused
    # by name before anything is sized by them
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(data))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert field in err and cap in err
    assert "Traceback" not in err


def test_emulate_photoemission_refuses_energy_reach_when_the_model_is_made(
        tmp_path, capsys, monkeypatch):
    # kinetic energies near 3e11 Ha in a 1e-3 Bohr box: the model is refused as it
    # is made, before h1 is diagonalized or LOBPCG runs
    from euvq import grid

    def unreachable(*args, **kwargs):
        raise AssertionError("a decomposition ran before the model was checked")

    monkeypatch.setattr(grid, "_axis_eigh", unreachable)
    monkeypatch.setattr(grid, "eigsh", unreachable)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_edited("grid_soft_coulomb_1d.json",
                                       lambda d: d["model"].update(box_length=1e-3))))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert "field 'potential' in model" in err and err.count("\n") == 1


def _gaussian_well(sigma):
    return _set_model(potential={"kind": "gaussian_well", "params": {"sigma": sigma}})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit, where", [
    (lambda d: d["filter"].update(sigma=1e160), "FilterSpec"),
    (lambda d: d["filter"].update(sigma=1e-200), "FilterSpec"),
    (_gaussian_well(1e160), "gaussian_well potential params"),
    (_gaussian_well(1e-200), "gaussian_well potential params"),
], ids=["filter_1e160", "filter_1e-200", "gaussian_well_1e160", "gaussian_well_1e-200"])
def test_gaussian_width_out_of_float_range_names_field(tmp_path, capsys, edit, where):
    # sigma^2 overflowing or underflowing to 0 is refused before any grid work
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_edited("grid_soft_coulomb_1d.json", edit)))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert f"field 'sigma' in {where}" in err
    assert not re.search(r"Traceback|Warning|value out of range", err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["ExactEigen", "ChebyshevPoly"])
def test_filter_narrower_than_float_range_exit_code(tmp_path, capsys, mode):
    # sigma^2 is subnormal: every window weight underflows to 0, without a numpy warning
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_edited("grid_soft_coulomb_1d.json",
                                       lambda d: d["filter"].update(sigma=1e-160, mode=mode))))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert "filter annihilated the state" in err
    assert "Warning" not in err


@pytest.mark.parametrize("field, value", [
    ("sigma", -1.0), ("mode", "X"), ("poly_tolerance", 0.0),
], ids=["sigma", "mode", "poly_tolerance"])
def test_filter_spec_errors_name_field(tmp_path, capsys, field, value):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_edited("grid_soft_coulomb_1d.json",
                                       lambda d: d["filter"].update({field: value}))))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert f"field '{field}' in FilterSpec" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["filter"].update(poly_degree=40), "poly_degree"),
    (lambda d: d.update(smooth_width=0.5), "smooth_width"),
], ids=["filter.poly_degree", "smooth_width"])
def test_removed_grid_fields_exit_code(tmp_path, capsys, edit, field):
    # the filter degree comes from poly_tolerance alone, and the continuum
    # projector is the hard sphere only
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_edited("grid_soft_coulomb_1d.json", edit)))
    assert main(["emulate-photoemission", "--input", str(path)]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unknown field(s) ['{field}']" in err
    assert "Traceback" not in err


CHEBYSHEV_VARIANT = "<ChebyshevPoly variant of grid_soft_coulomb_1d.json>"
NBITS7_VARIANT = "<n_bits 7 variant of table2_pp.json>"
VARIANTS = {
    CHEBYSHEV_VARIANT: ("grid_soft_coulomb_1d.json",
                        lambda d: d["filter"].update(mode="ChebyshevPoly")),
    NBITS7_VARIANT: ("table2_pp.json", lambda d: d.update(sweep=[dict(d["sweep"][0], n_bits=7)])),
}


def _with_variant(argv, tmp_path):
    """``argv`` with each VARIANTS placeholder replaced by the path of its config in tmp_path."""
    out = []
    for arg in argv:
        if arg in VARIANTS:
            name, edit = VARIANTS[arg]
            path = tmp_path / f"variant_{name}"
            path.write_text(json.dumps(_edited(name, edit)))
            arg = str(path)
        out.append(arg)
    return out


IMPORT_PROBE = """
import contextlib, io, json, sys
from euvq.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv) if argv else 0
probed = {"logging", "numpy", "scipy", "euvq.spectro", "euvq.grid"}
print(json.dumps({"code": code, "loaded": sorted(probed & set(sys.modules))}))
"""


@pytest.mark.parametrize("argv, unloaded", [
    ([], {"numpy", "scipy"}),
    (["estimate-absorption", "--input", "table1.json"], {"numpy", "scipy"}),
    (["estimate-photoemission", "--input", "table2_ae.json"], {"numpy", "scipy"}),
    (["estimate-photoemission", "--input", "corollary_imeph.json"], {"numpy", "scipy"}),
    (["estimate-photoemission", "--input", "table2_pp.json"], {"numpy", "scipy"}),
    (["estimate-photoemission", "--input", NBITS7_VARIANT], {"numpy", "scipy"}),
    (["cdf", "--input", "tensor_random4.json"], {"scipy"}),
    (["arith-verify"], {"numpy", "scipy"}),
    (["emulate-absorption", "--input", "scene_two_level.json"], {"scipy", "euvq.grid"}),
    (["emulate-photoemission", "--input", "grid_soft_coulomb_1d.json"],
     {"scipy", "euvq.spectro"}),
    (["emulate-photoemission", "--input", CHEBYSHEV_VARIANT], {"scipy", "euvq.spectro"}),
], ids=["import", "estimate-absorption", "estimate-photoemission-table2_ae",
        "estimate-photoemission-corollary", "estimate-photoemission-table2_pp",
        "estimate-photoemission-n_bits7", "cdf", "arith-verify", "emulate-absorption",
        "emulate-photoemission", "emulate-photoemission-chebyshev"])
def test_subcommand_loads_only_its_modules(tmp_path, argv, unloaded):
    # each runner imports what it uses, so a fresh process never pays for the rest;
    # no command loads logging
    argv = _with_variant(argv, tmp_path)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == EX_OK
    assert not (unloaded | {"logging"}) & set(result["loaded"])


def test_estimator_modules_load_no_numpy():
    # library callers of the estimators and the arithmetic emulation pay no numpy import
    probe = ("import json, sys; import euvq.planewave, euvq.qarith, euvq.absorption; "
             "print(json.dumps(sorted({'numpy', 'scipy'} & set(sys.modules))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


SCIPY_FREE_PROBE = """
import importlib.abc, json, runpy, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")
        return None

if sys.argv[1] == "blocked":
    sys.meta_path.insert(0, BlockScipy())
argv = json.loads(sys.argv[2])
if argv:
    sys.argv = ["euvq", *argv]
    runpy.run_module("euvq.cli", run_name="__main__")
else:
    import numpy as np
    from euvq import spectro
    rng = np.random.default_rng(5)
    frags = [(a + a.conj().T) / 2 for a in rng.standard_normal((2, 6, 6))
             + 1j * rng.standard_normal((2, 6, 6))]
    exact, effective, _, shifts = spectro.trotter_effective_spectrum(frags, 0.02)
    print(json.dumps([exact.tolist(), effective.tolist(), shifts.tolist()]))
"""


@pytest.mark.parametrize("argv", [
    ["emulate-photoemission", "--input", "grid_soft_coulomb_1d.json", "--format", "json"],
    ["emulate-photoemission", "--input", CHEBYSHEV_VARIANT, "--format", "json"],
    [],
], ids=["emulate-photoemission", "emulate-photoemission-chebyshev",
        "trotter_effective_spectrum"])
def test_runs_with_scipy_import_blocked(tmp_path, argv):
    # the package is numpy-only: blocking every scipy import changes no output
    argv = _with_variant(argv, tmp_path)
    runs = [subprocess.run([sys.executable, "-c", SCIPY_FREE_PROBE, mode, json.dumps(argv)],
                           capture_output=True, text=True) for mode in ("blocked", "open")]
    assert [run.returncode for run in runs] == [EX_OK, EX_OK], runs[0].stderr
    assert runs[0].stdout
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize("z", [1e5, 1e6])
def test_emulate_photoemission_deep_well_converges(tmp_path, capsys, z):
    # soft Coulomb this deep on the bundled fixture's grid exited 3: LOBPCG from a
    # random start stalled. The time is cut so the series stays within its cap,
    # and the window widened so its degree does. Both modes read the ground
    # energy off h1's eigh, so the two runs agree to the bit
    config = _fixture("grid_soft_coulomb_1d.json")
    config["model"]["potential"]["params"]["z"] = z
    config["time"] = 1e-3
    energies = {}
    for mode in ("ChebyshevPoly", "ExactEigen"):
        config["filter"] = {"center": 0.0, "sigma": 0.1 * z, "mode": mode}
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(config))
        assert main(["emulate-photoemission", "--input", str(path), "--format", "json"]) == EX_OK
        energies[mode] = json.loads(capsys.readouterr().out)["ground_energy_Ha"]
    assert energies["ChebyshevPoly"] == energies["ExactEigen"]
