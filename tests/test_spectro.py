"""Time-domain spectroscopy emulator: oracles are dense solves and closed forms."""

import math

import numpy as np
import pytest

from euvq import spectro
from euvq.core import ValidationError
from euvq.spectro import (
    FourierWeights,
    SpectralScene,
    _pair_by_overlap,
    dipole_excited_norm,
    exact_greens,
    fourier_weights,
    hadamard_exact_z,
    hadamard_shot_simulator,
    kramers_heisenberg,
    random_scene,
    scene_from_dict,
    scene_to_dict,
    spectral_density,
    spectral_density_grid,
    spectrum_rows,
    td_greens,
    trotter_effective_spectrum,
    trotter_step_unitary,
    two_level_scene,
    y3_operator,
)

GAMMA = 0.0676
TAU = math.pi / 8


def lattice_scene(n_sites, hopping=0.25):
    """Open 1D tight-binding chain with the position-like alternating dipole."""
    h = np.zeros((n_sites, n_sites), dtype=complex)
    for i in range(n_sites - 1):
        h[i, i + 1] = h[i + 1, i] = -hopping
    d = np.diag(np.linspace(-1.0, 1.0, n_sites)).astype(complex)
    return SpectralScene(h, d)


def td_truncation_bound(scene, weights):
    """Geometric tail bound on |td sum - untruncated sum|."""
    norm2 = float(np.linalg.norm(scene.dipole @ scene.ground_state) ** 2)
    r = math.exp(-weights.gamma * weights.tau)
    return 2.0 * norm2 * (weights.tau / (2.0 * math.pi)) * r ** (weights.j_max + 1) / (1.0 - r)


def test_exact_greens_matches_dense_solve():
    scene = random_scene(64, seed=2)
    omega = 1.3
    rhs = scene.dipole @ scene.ground_state
    shifted = (scene.hamiltonian
               - (scene.ground_energy + omega) * np.eye(scene.dim)
               + 1j * GAMMA * np.eye(scene.dim))
    oracle = complex(rhs.conj() @ np.linalg.solve(shifted, rhs))
    assert exact_greens(scene, omega, GAMMA) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("dim", [1, 0])
def test_random_scene_needs_two_levels(dim):
    with pytest.raises(ValidationError, match=f"dim >= 2, got dim = {dim}"):
        random_scene(dim, seed=1)


def test_exact_greens_zero_dipole():
    scene = two_level_scene(gap=1.0, coupling=0.0)
    assert exact_greens(scene, 1.0, GAMMA) == 0.0


def test_exact_greens_requires_broadening():
    scene = two_level_scene(gap=1.0)
    with pytest.raises(ValidationError):
        exact_greens(scene, 1.0, 0.0)


def test_two_level_peak_closed_form():
    d = 0.8
    scene = two_level_scene(gap=2.0, coupling=d)
    value = exact_greens(scene, 2.0, GAMMA)
    assert value.imag == pytest.approx(-d**2 / GAMMA, rel=1e-12)


def test_positivity_of_spectral_density():
    scene = random_scene(32, seed=3)
    omegas = np.linspace(-1.0, 5.0, 101)
    assert np.all(spectral_density_grid(scene, omegas, GAMMA) >= 0.0)
    assert spectral_density(scene, 1.0, GAMMA) >= 0.0


def test_kramers_heisenberg_equals_resolvent_form():
    for seed in range(5):
        scene = random_scene(48, seed=seed)
        for omega in (0.5, 1.7, 3.1):
            kh = kramers_heisenberg(scene, omega, GAMMA)
            prefactor = 4 * math.pi * omega / (3 * 137.036)
            assert kh == pytest.approx(prefactor * (-exact_greens(scene, omega, GAMMA).imag),
                                       abs=1e-9)


def test_fourier_weights_formula():
    w = fourier_weights(3.38, GAMMA, TAU, 200)
    assert isinstance(w, FourierWeights)
    assert len(w.weights) == 401
    j = w.indices
    np.testing.assert_allclose(np.abs(w.weights),
                               (TAU / (2 * math.pi)) * np.exp(-GAMMA * TAU * np.abs(j)),
                               rtol=1e-12)
    # |p(200)| / |p(0)| = exp(-200 gamma tau)
    assert abs(w.weights[-1]) / abs(w.weights[200]) == pytest.approx(
        math.exp(-200 * GAMMA * TAU), rel=1e-12)


def test_fourier_weights_single_term():
    w = fourier_weights(1.0, GAMMA, TAU, 0)
    assert len(w.weights) == 1
    assert w.beta == pytest.approx(TAU / (2 * math.pi), rel=1e-12)


def test_beta_matches_estimator_series():
    from euvq.absorption import beta_bound, beta_limit

    w = fourier_weights(3.38, 0.1 / TAU, TAU, 1000)
    assert w.beta == pytest.approx(beta_bound(TAU, 0.1 / TAU, 1000), rel=1e-12)
    assert w.beta == pytest.approx(beta_limit(TAU, 0.1 / TAU), rel=1e-3)


def test_td_greens_zero_time_autocorrelation():
    scene = random_scene(16, seed=4)
    w = fourier_weights(2.0, GAMMA, TAU, 0)
    norm = dipole_excited_norm(scene)
    assert td_greens(scene, w) == pytest.approx(norm**2 * TAU / (2 * math.pi), rel=1e-12)


@pytest.mark.parametrize("j_max", [0, 1, 150])
def test_td_greens_folded_half_sum_matches_two_sided_sum(j_max):
    # td_greens reads s_-j = conj(s_j) from the half j >= 0; hold it to the
    # two-sided complex sum over every j in [-j_max, j_max]
    scene = random_scene(12, seed=21)
    energies, vectors = np.linalg.eigh(scene.hamiltonian)
    line = np.abs(vectors.conj().T @ scene.dipole @ scene.ground_state) ** 2
    for omega in (0.4, 1.7, 3.1):
        w = fourier_weights(omega, GAMMA, TAU, j_max)
        phases = np.exp(-1j * np.outer(energies - scene.ground_energy, w.indices * TAU))
        two_sided = complex(w.weights @ (line @ phases))
        assert td_greens(scene, w) == pytest.approx(two_sided, rel=1e-13)


def test_fourier_weights_beta_is_the_same_at_every_frequency():
    # |p(j)| does not depend on omega, so neither does beta, to the last bit
    betas = [fourier_weights(omega, GAMMA, TAU, 300).beta for omega in (0.0, 0.5, 1.7, 3.38)]
    assert len(set(betas)) == 1
    for omega in (0.0, 0.5, 1.7, 3.38):
        w = fourier_weights(omega, GAMMA, TAU, 300)
        assert w.beta == pytest.approx(float(np.sum(np.abs(w.weights))), rel=1e-15)


def test_td_greens_converges_to_spectral_density():
    scene = random_scene(32, seed=6)
    omegas = np.linspace(0.2, 3.8, 400)
    dens = spectral_density_grid(scene, omegas, GAMMA)
    peak = float(omegas[np.argmax(dens)])
    j_max = math.ceil(14.0 / (GAMMA * TAU))  # e^-14 < 1e-6 tail
    w = fourier_weights(peak, GAMMA, TAU, j_max)
    td = td_greens(scene, w)
    assert abs(td.imag) < 1e-12 * abs(td)  # two-sided sum is real
    assert td.real == pytest.approx(spectral_density(scene, peak, GAMMA), rel=1e-3)


def test_td_greens_two_level_peak_location():
    scene = two_level_scene(gap=2.0, coupling=1.0)
    j_max = math.ceil(14.0 / (GAMMA * TAU))
    omegas = np.linspace(1.8, 2.2, 81)
    values = [td_greens(scene, fourier_weights(om, GAMMA, TAU, j_max)).real
              for om in omegas]
    assert abs(omegas[int(np.argmax(values))] - 2.0) <= GAMMA / 10


def test_td_truncation_bound_holds():
    scene = random_scene(24, seed=8)
    for j_max in (50, 100, 200):
        w = fourier_weights(1.5, GAMMA, TAU, j_max)
        w_big = fourier_weights(1.5, GAMMA, TAU, 4000)
        gap = abs(td_greens(scene, w) - td_greens(scene, w_big))
        assert gap <= td_truncation_bound(scene, w) * (1 + 1e-9)


def test_dipole_excited_norm():
    scene = random_scene(16, seed=9)
    psi = scene.ground_state
    quad = math.sqrt(float(np.real(psi.conj() @ scene.dipole @ scene.dipole @ psi)))
    assert dipole_excited_norm(scene) == pytest.approx(quad, rel=1e-12)
    identity = SpectralScene(np.diag([0.0, 1.0]), np.eye(2))
    assert dipole_excited_norm(identity) == pytest.approx(1.0, rel=1e-12)


def test_y3_zero_for_commuting_fragments():
    a = np.diag([0.1, 0.2, 0.3]).astype(complex)
    b = np.diag([0.5, -0.1, 0.4]).astype(complex)
    y3 = y3_operator([a, b])
    assert np.linalg.norm(y3) <= 1e-14
    exact, eff, _, shifts = trotter_effective_spectrum([a, b], 0.01)
    np.testing.assert_allclose(eff, exact, atol=1e-12)
    np.testing.assert_allclose(shifts, 0.0, atol=1e-14)


def rand_herm(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_trotter_slope_four_after_correction():
    rng = np.random.default_rng(17)
    slopes = []
    for _ in range(6):
        frags = [rand_herm(8, rng), rand_herm(8, rng)]
        deltas = np.array([0.02, 0.01, 0.005])
        residuals = []
        for delta in deltas:
            exact, eff, _, shifts = trotter_effective_spectrum(frags, float(delta))
            residuals.append(np.max(np.abs(eff - exact - shifts)))
        slope = np.polyfit(np.log(deltas), np.log(residuals), 1)[0]
        slopes.append(slope)
    assert all(abs(s - 4.0) <= 0.3 for s in slopes)


def test_trotter_step_size_rule_bounds_shift():
    rng = np.random.default_rng(23)
    frags = [rand_herm(8, rng), rand_herm(8, rng)]
    h = frags[0] + frags[1]
    energies, vectors = np.linalg.eigh(h)
    y3 = y3_operator(frags)
    y3_max = float(np.max(np.abs(np.real(np.einsum("il,ij,jl->l", vectors.conj(), y3, vectors)))))
    gamma = 0.05
    delta = math.sqrt(gamma / y3_max)
    if np.linalg.norm(h, 2) * delta >= math.pi:
        delta = 0.9 * math.pi / np.linalg.norm(h, 2)
    exact, eff, _, _ = trotter_effective_spectrum(frags, delta)
    assert np.max(np.abs(eff - exact)) <= 2 * gamma


def test_trotter_pairing_matches_optimal_assignment(monkeypatch):
    # up to 0.9 of the phase-wrap limit, largest overlap first is the optimal pairing
    assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    pairings = []

    def both(overlap):
        row, col = assignment(-overlap)
        pairings.append((_pair_by_overlap(overlap), col[np.argsort(row)]))
        return pairings[-1][0]

    monkeypatch.setattr(spectro, "_pair_by_overlap", both)
    rng = np.random.default_rng(88)
    for _ in range(10):
        frags = [rand_herm(8, rng), rand_herm(8, rng)]
        wrap = math.pi / np.linalg.norm(frags[0] + frags[1], 2)
        for fraction in (0.01, 0.1, 0.5, 0.9):
            trotter_effective_spectrum(frags, fraction * wrap)
    assert len(pairings) == 40
    for ours, optimal in pairings:
        np.testing.assert_array_equal(ours, optimal)


def test_trotter_phase_wrap_guard():
    big = np.diag([0.0, 100.0]).astype(complex)
    with pytest.raises(ValidationError):
        trotter_effective_spectrum([big, big], 0.1)


def test_trotter_unitary_is_strang_composition():
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(31)
    a, b, c = (rand_herm(4, rng) for _ in range(3))
    delta = 0.02
    u = trotter_step_unitary([a, b, c], delta)
    oracle = (expm(-1j * c * delta / 2) @ expm(-1j * b * delta / 2) @ expm(-1j * a * delta)
              @ expm(-1j * b * delta / 2) @ expm(-1j * c * delta / 2))
    np.testing.assert_allclose(u, oracle, atol=1e-12)


def test_hadamard_single_shot_values():
    scene = two_level_scene(gap=2.0, coupling=1.0)
    w = fourier_weights(2.0, GAMMA, TAU, 100)
    est = hadamard_shot_simulator(scene, w, shots=1, seed=0, alpha=0.1)
    scale = 0.1 * dipole_excited_norm(scene) * w.beta
    assert est.estimate in (scale, -scale)


def test_hadamard_resonant_two_level_is_deterministic():
    # all weight on one line at resonance: E[Z] = 1 exactly
    scene = two_level_scene(gap=2.0, coupling=1.0)
    w = fourier_weights(2.0, GAMMA, TAU, 300)
    assert hadamard_exact_z(scene, w) == pytest.approx(1.0, rel=1e-12)
    est = hadamard_shot_simulator(scene, w, shots=50, seed=1, alpha=0.1)
    assert est.mean_z == 1.0


def test_hadamard_zero_signal_concentrates():
    # a dipole that annihilates the line weights at the probe: E[Z] ~ 0 scene
    scene = two_level_scene(gap=2.0, coupling=1.0)
    w = fourier_weights(2.0 + 40 * GAMMA, GAMMA, TAU, 300)
    exact = hadamard_exact_z(scene, w)
    assert abs(exact) < 0.05
    hits = 0
    trials = 100
    shots = 400
    for seed in range(trials):
        est = hadamard_shot_simulator(scene, w, shots=shots, seed=seed, alpha=0.1)
        scale = 0.1 * dipole_excited_norm(scene) * w.beta
        if abs(est.estimate - scale * exact) <= 3 * scale / math.sqrt(shots):
            hits += 1
    assert hits >= 99  # 3-sigma window


def test_hadamard_unbiased_over_seeds():
    scene = lattice_scene(6)
    w = fourier_weights(0.5, GAMMA, TAU, 200)
    exact = hadamard_exact_z(scene, w)
    means = [hadamard_shot_simulator(scene, w, shots=8, seed=s).mean_z
             for s in range(10_000)]
    grand = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    assert abs(grand - exact) <= 3 * stderr + 1e-12


def test_hadamard_deterministic_under_seed():
    scene = lattice_scene(5)
    w = fourier_weights(0.4, GAMMA, TAU, 100)
    a = hadamard_shot_simulator(scene, w, shots=100, seed=42)
    b = hadamard_shot_simulator(scene, w, shots=100, seed=42)
    assert a == b


def test_spectrum_rows_td_matches_per_frequency_and_double_sum():
    # sigma_td comes from one phase sum per scan; hold it to td_greens at each
    # frequency and to the direct double sum over final states F and steps j
    scene = random_scene(12, seed=14)
    omegas = np.linspace(0.3, 3.7, 9)
    j_max = 150
    rows = spectrum_rows(scene, omegas, GAMMA, TAU, j_max, shots=10, seed=3)
    energies, vectors = np.linalg.eigh(scene.hamiltonian)
    line = np.abs(vectors.conj().T @ scene.dipole @ scene.ground_state) ** 2
    j = np.arange(-j_max, j_max + 1)
    for omega, row in zip(omegas, rows):
        w = fourier_weights(omega, GAMMA, TAU, j_max)
        scale = 4 * math.pi * omega / (3 * 137.036) * math.pi
        direct = sum(line[f] * p * np.exp(-1j * (energies[f] - scene.ground_energy) * TAU * jj)
                     for f in range(scene.dim) for p, jj in zip(w.weights, j))
        assert row["sigma_td"] == pytest.approx(scale * td_greens(scene, w).real, rel=1e-13)
        assert row["sigma_td"] == pytest.approx(scale * direct.real, rel=1e-13)


def test_spectrum_rows_sampled_column_is_the_shot_simulator():
    # frequency k draws through the shot simulator's sampler with seed + k
    scene = lattice_scene(6)
    omegas = np.linspace(0.1, 0.9, 7)
    shots, seed = 300, 11
    rows = spectrum_rows(scene, omegas, GAMMA, TAU, 120, shots, seed)
    norm = dipole_excited_norm(scene)
    for k, (omega, row) in enumerate(zip(omegas, rows)):
        w = fourier_weights(omega, GAMMA, TAU, 120)
        scale = 4 * math.pi * omega / (3 * 137.036) * math.pi * w.beta * norm**2
        est = hadamard_shot_simulator(scene, w, shots, seed + k)
        assert row["sigma_sampled"] == scale * est.mean_z


@pytest.mark.parametrize("j_max", [0, 7, 150])
def test_spectrum_rows_do_not_depend_on_the_block_split(monkeypatch, j_max):
    # frequencies are evaluated in blocks of at most SCAN_BLOCK_ENTRIES table
    # entries; splitting the scan into blocks of 1, 2 and 3 rows changes no bit
    scene = random_scene(12, seed=15)
    omegas = np.linspace(0.3, 3.7, 11)
    whole = spectrum_rows(scene, omegas, GAMMA, TAU, j_max, shots=50, seed=4)
    for rows_per_block in (1, 2, 3):
        monkeypatch.setattr(spectro, "SCAN_BLOCK_ENTRIES", rows_per_block * max(j_max, scene.dim))
        assert spectrum_rows(scene, omegas, GAMMA, TAU, j_max, shots=50, seed=4) == whole


def test_scene_round_trip():
    scene = random_scene(8, seed=12)
    data = scene_to_dict(scene)
    back = scene_from_dict(data)
    np.testing.assert_allclose(back.hamiltonian, scene.hamiltonian, atol=1e-12)
    np.testing.assert_allclose(back.ground_state, scene.ground_state, atol=1e-12)


def test_scene_rejects_non_hermitian():
    data = {"dim": 2,
            "hamiltonian": {"re": [0, 1, 0, 0], "im": [0, 0, 0, 0]},
            "dipole": {"re": [0, 0, 0, 0], "im": [0, 0, 0, 0]}}
    with pytest.raises(ValidationError):
        scene_from_dict(data)
