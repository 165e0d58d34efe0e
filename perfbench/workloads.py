"""The benchmark's workloads: generated inputs, command lists and correctness gates.

A workload is a list of ``euvq`` argument vectors, one gate per command. A
gate receives the command's standard output and raises ``GateFailure`` when
the output misses a bar that the test suite already holds the code to. The
seed reaches the program only through the generated input files and the
CLI's own ``--seed``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "euvq" / "fixtures"

# Published references of the green acceptance rows 03 and 05b/05c:
# N -> (qubits, gates per circuit) and (method, n_bits, t_fs) -> (qubits, gates).
TABLE1_PUBLISHED = {22: (148, 3.94e9), 28: (160, 8.14e9), 34: (172, 1.46e10),
                    40: (184, 2.38e10), 50: (204, 4.65e10)}
TABLE2_PUBLISHED = {
    ("AE", 9, 1.0): (4544, 3.49e14), ("AE", 9, 10.0): (4544, 3.65e14),
    ("AE", 11, 1.0): (5668, 1.73e15), ("AE", 11, 10.0): (5668, 1.81e15),
    ("AE", 13, 1.0): (6848, 8.32e15), ("AE", 13, 10.0): (6848, 8.69e15),
    ("PP", 6, 1.0): (2212, 4.74e13), ("PP", 6, 10.0): (2212, 4.94e13),
    ("PP", 8, 1.0): (3192, 2.97e15), ("PP", 8, 10.0): (3192, 3.10e15),
    ("PP", 9, 1.0): (3549, 4.11e16), ("PP", 9, 10.0): (3549, 4.30e16),
}
AU_TIME_PER_FS = 41.3414
SPEED_OF_LIGHT_AU = 137.036

# absorption-scan settings: j_max = ceil(14 / (gamma tau)) puts the truncated
# tail below 1e-6, the condition under which acceptance 06's 1e-3 bar holds.
SCAN_GAMMA = 0.0676
SCAN_TAU = math.pi / 8
SCAN_J_MAX = math.ceil(14.0 / (SCAN_GAMMA * SCAN_TAU))

# photoemission-2e: dimension 64^2 = 4096, exactly the dense cap.
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


class GateFailure(Exception):
    """A command's output missed its correctness bar."""


@dataclass(frozen=True)
class Workload:
    commands: list[list[str]]
    gates: list[Callable[[bytes], None]]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def _gate_table1(out: bytes) -> None:
    """Acceptance 01 (863 shots), 02 (cubic scaling) and 03 (published absolutes)."""
    rows = {r["spec"]["n_orbitals"]: r["report"] for r in json.loads(out)}
    _check(set(rows) == set(TABLE1_PUBLISHED), f"table1 rows {sorted(rows)}")
    g22 = rows[22]["gates_per_circuit"]
    for n, (qubits, gates) in TABLE1_PUBLISHED.items():
        rep = rows[n]
        _check(rep["logical_qubits"] == qubits == 2 * n + 104,
               f"table1 N={n}: {rep['logical_qubits']} qubits, published {qubits}")
        _check(abs(rep["gates_per_circuit"] / gates - 1.0) <= 0.25,
               f"table1 N={n}: gates {rep['gates_per_circuit']:.3g} vs {gates:.3g} (bar 25%)")
        _check(abs(rep["overall_gates"] / rep["gates_per_circuit"] - 863) <= 1,
               f"table1 N={n}: overall/gates is not 863")
        _check(abs(rep["gates_per_circuit"] / g22 / (n / 22) ** 3 - 1.0) <= 0.01,
               f"table1 N={n}: not cubic in N (bar 1%)")


def _gate_planewave(out: bytes, published: bool, check_gates: bool) -> None:
    """Acceptance 05a (overall = gates x 1e4) on every row, 05b/05c on published rows.

    The pseudopotential gate costs (05d) are red by design and never gated.
    """
    for row in json.loads(out):
        rep, spec = row["report"], row["spec"]
        _check(rep["shots"] == 10**4 and rep["overall_gates"] == rep["gates_per_circuit"] * 10**4,
               f"{row['method']} n_bits={spec['n_bits']}: overall != gates x 1e4")
        if not published:
            continue
        key = (row["method"], spec["n_bits"], round(spec["t_evolution"] / AU_TIME_PER_FS, 6))
        _check(key in TABLE2_PUBLISHED, f"unexpected table2 row {key}")
        qubits, gates = TABLE2_PUBLISHED[key]
        _check(abs(rep["logical_qubits"] / qubits - 1.0) <= 0.10,
               f"table2 {key}: {rep['logical_qubits']} qubits vs {qubits} (bar 10%)")
        if check_gates:
            factor = rep["gates_per_circuit"] / gates
            _check(max(factor, 1.0 / factor) <= 3.0,
                   f"table2 {key}: gates off by a factor {factor:.3g} (bar 3)")


def _gate_cdf(out: bytes) -> None:
    """The acceptance board's supporting reconstruction gate (1e-8)."""
    data = json.loads(out)
    _check(data["reconstruction_error"] <= 1e-8,
           f"cdf reconstruction error {data['reconstruction_error']:.2e} (bar 1e-8)")


def _gate_arith(out: bytes) -> None:
    lines = out.decode().splitlines()
    bad = [line for line in lines if not line.endswith(": ok")]
    _check(len(lines) == 10 and not bad, f"arith-verify: {bad or lines}")


def _kramers_heisenberg(scene: dict, omegas: np.ndarray, gamma: float) -> np.ndarray:
    """Cross-section from a direct eigendecomposition of the scene file's matrices."""
    dim = scene["dim"]

    def matrix(entry, shape):
        return (np.asarray(entry["re"], dtype=float)
                + 1j * np.asarray(entry["im"], dtype=float)).reshape(shape)

    h = matrix(scene["hamiltonian"], (dim, dim))
    d = matrix(scene["dipole"], (dim, dim))
    psi = matrix(scene["ground_state"], (dim,))
    energies, vectors = np.linalg.eigh(h)
    weights = np.abs(vectors.conj().T @ (d @ psi)) ** 2
    detune = energies[:, None] - float(np.real(psi.conj() @ h @ psi)) - omegas[None, :]
    lorentz = gamma / (detune**2 + gamma**2)
    return 4.0 * math.pi * omegas / (3.0 * SPEED_OF_LIGHT_AU) * (weights @ lorentz)


def _gate_spectrum(config: dict, td_bar: float | None) -> Callable[[bytes], None]:
    """sigma_exact against a direct Kramers-Heisenberg sum (acceptance 06's 1e-9).

    With ``td_bar``, also sigma_td against sigma_exact, relative, at the peak
    of the spectral density sigma / omega, where acceptance 06 holds it.
    """
    scan = config["omega"]
    omegas = np.linspace(scan["min"], scan["max"], scan["points"])
    want = _kramers_heisenberg(config["scene"], omegas, config["gamma"])

    def gate(out: bytes) -> None:
        rows = json.loads(out)
        _check(len(rows) == len(omegas), f"{len(rows)} spectrum rows, want {len(omegas)}")
        got = np.array([r["omega_Ha"] for r in rows])
        _check(np.array_equal(got, omegas), "omega grid differs from the scan")
        exact = np.array([r["sigma_exact"] for r in rows])
        dev = float(np.max(np.abs(exact - want)))
        _check(dev <= 1e-9, f"sigma_exact off the direct sum by {dev:.2e} (bar 1e-9)")
        if td_bar is None:
            return
        peak = int(np.argmax(exact / omegas))
        rel = abs(rows[peak]["sigma_td"] - exact[peak]) / exact[peak]
        _check(rel <= td_bar, f"sigma_td off sigma_exact by {rel:.2e} at the peak "
                              f"(bar {td_bar})")

    return gate


def _cli_light(seed: int, work: Path) -> Workload:
    commands = [
        ["estimate-absorption", "--input", "table1.json", "--format", "json"],
        ["estimate-photoemission", "--input", "table2_ae.json", "--format", "json"],
        ["estimate-photoemission", "--input", "table2_pp.json", "--format", "json"],
        ["estimate-photoemission", "--input", "corollary_imeph.json", "--format", "json"],
        ["cdf", "--input", "tensor_random4.json"],
        ["arith-verify", "--seed", str(seed)],
        ["emulate-absorption", "--input", "scene_two_level.json", "--format", "json",
         "--seed", str(seed)],
    ]
    gates = [
        _gate_table1,
        lambda out: _gate_planewave(out, published=True, check_gates=True),
        lambda out: _gate_planewave(out, published=True, check_gates=False),
        lambda out: _gate_planewave(out, published=False, check_gates=False),
        _gate_cdf,
        _gate_arith,
        _gate_spectrum(_fixture("scene_two_level.json"), td_bar=None),
    ]
    return Workload(commands, gates)


def _absorption_scan(seed: int, work: Path) -> Workload:
    from euvq import spectro

    config = {
        "scene": spectro.scene_to_dict(spectro.random_scene(64, seed)),
        "gamma": SCAN_GAMMA, "tau": SCAN_TAU, "j_max": SCAN_J_MAX,
        "omega": {"min": 0.5, "max": 3.5, "points": 121},
        "shots": 2000,
    }
    path = work / "absorption_scan.json"
    path.write_text(json.dumps(config))
    command = ["emulate-absorption", "--input", str(path), "--format", "json",
               "--seed", str(seed)]
    return Workload([command], [_gate_spectrum(config, td_bar=1e-3)])


def _dense_propagation():
    """Ground state and exp(-iHt) from one dense eigendecomposition (dim <= 4096)."""
    from euvq import grid

    eig = {}

    def ground(model):
        eig["values"], eig["vectors"] = np.linalg.eigh(grid.dense_hamiltonian(model))
        return eig["vectors"][:, 0], float(eig["values"][0])

    def propagate(model, psi, t):
        vectors = eig["vectors"]
        return vectors @ (np.exp(-1j * eig["values"] * t) * (vectors.conj().T @ psi))

    return ground, propagate


def _chebyshev_propagate(model, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) psi by the Jacobi-Anger series in Chebyshev polynomials of H.

    Independent of the emulator's own propagator: it touches H only through
    ``GridModel.apply_hamiltonian``. Terms run well past |J_k(a)| < 1e-16.
    """
    from scipy.special import jv

    v, kinetic = model.potential_grid(), model.kinetic_grid()
    lo, hi = float(v.min()), float(v.max() + kinetic.max())
    half, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
    a = half * t
    coeffs = jv(np.arange(int(1.5 * a) + 60), a)

    def scaled(x):
        return (model.apply_hamiltonian(x) - mid * x) / half

    prev, cur = psi, scaled(psi)
    out = coeffs[0] * prev - 2j * coeffs[1] * cur
    for k in range(2, len(coeffs)):
        prev, cur = cur, 2.0 * scaled(cur) - prev
        out = out + 2.0 * (-1j) ** k * coeffs[k] * cur
    return np.exp(-1j * mid * t) * out


def _gate_photoemission(config: dict, ground, propagate) -> Callable[[bytes], None]:
    """Histogram mass against the same pipeline with an oracle propagator.

    The 1e-6 bar is that of ``test_evolve_matches_dense_oracle``.
    """
    from euvq import grid

    model = grid.GridModel.from_config(config["model"])
    psi, energy = ground(model)
    psi, norm = grid.apply_dipole(model, psi)
    f = config["filter"]
    spec = grid.FilterSpec(center=f["center"], sigma=f["sigma"], mode=f["mode"])
    psi, _ = grid.gaussian_filter(model, spec, psi / norm, energy)
    psi = propagate(model, psi / np.linalg.norm(psi), config["time"])
    _check(grid.edge_density(model, psi) <= 1e-6, "oracle state reached the box edge")
    projected, success = grid.continuum_project(model, psi, config["r_cutoff"])
    edges = np.linspace(0.0, config["bins"]["max"], config["bins"]["count"] + 1)
    want = grid.kinetic_histogram(model, projected, edges).mass

    def gate(out: bytes) -> None:
        data = json.loads(out)
        mass = np.asarray(data["mass"])
        _check(mass.shape == want.shape, f"{mass.size} histogram bins, want {want.size}")
        dev = float(np.sum(np.abs(mass - want)))
        _check(dev <= 1e-6, f"histogram mass off the oracle by {dev:.2e} (bar 1e-6)")
        dev = abs(data["success_probability"] - success)
        _check(dev <= 1e-6, f"continuum success probability off by {dev:.2e} (bar 1e-6)")
        _check(data["shots"] == config["shots"], "shot count differs from the config")

    return gate


def _photoemission_1e(seed: int, work: Path) -> Workload:
    config = _fixture("grid_soft_coulomb_1d.json")
    command = ["emulate-photoemission", "--input", "grid_soft_coulomb_1d.json",
               "--format", "json", "--seed", str(seed)]
    return Workload([command], [_gate_photoemission(config, *_dense_propagation())])


def _photoemission_2e(seed: int, work: Path) -> Workload:
    from euvq import grid

    path = work / "photoemission_2e.json"
    path.write_text(json.dumps(TWO_ELECTRON_CONFIG))
    command = ["emulate-photoemission", "--input", str(path), "--format", "json",
               "--seed", str(seed)]
    gate = _gate_photoemission(TWO_ELECTRON_CONFIG, grid.ground_state, _chebyshev_propagate)
    return Workload([command], [gate])


WORKLOADS = {
    "cli-light": _cli_light,
    "absorption-scan": _absorption_scan,
    "photoemission-1e": _photoemission_1e,
    "photoemission-2e": _photoemission_2e,
}


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs for ``seed`` under ``work`` and build its gates."""
    return WORKLOADS[name](seed, work)
