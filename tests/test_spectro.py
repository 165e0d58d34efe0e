"""Time-domain spectroscopy emulator: oracles are dense solves and closed forms."""

import math
import types

import numpy as np
import pytest

from conftest import beta_limit, two_level_scene
from euvq import spectro
from euvq.core import ValidationError
from euvq.spectro import (
    SpectralScene,
    _pair_by_overlap,
    random_scene,
    scene_from_dict,
    scene_to_dict,
    spectrum_rows,
    trotter_effective_spectrum,
    trotter_step_unitary,
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


def scale(omega):
    """(4 pi omega / 3c) pi: each column is this times a spectral density."""
    return 4 * math.pi * omega / (3 * 137.036) * math.pi


def dense_density(scene, omega, gamma=GAMMA):
    """-Im <I| D (H - E_I - omega + i gamma)^-1 D |I> / pi, by a dense solve."""
    rhs = scene.dipole @ scene.ground_state
    shifted = scene.hamiltonian - (scene.ground_energy + omega - 1j * gamma) * np.eye(scene.dim)
    return -complex(rhs.conj() @ np.linalg.solve(shifted, rhs)).imag / math.pi


def two_sided_td(scene, omega, j_max, gamma=GAMMA, tau=TAU):
    """sum_j p(j) <I| D exp(-i (H - E_I) tau j) D |I> over every j in [-j_max, j_max]."""
    energies, vectors = np.linalg.eigh(scene.hamiltonian)
    line = np.abs(vectors.conj().T @ scene.dipole @ scene.ground_state) ** 2
    j = np.arange(-j_max, j_max + 1)
    p = (tau / (2 * math.pi)) * np.exp(-gamma * tau * np.abs(j) + 1j * omega * tau * j)
    return complex(p @ (line @ np.exp(-1j * np.outer(energies - scene.ground_energy, j * tau))))


def beta(j_max, gamma=GAMMA, tau=TAU):
    """sum_j |p(j)| over j in [-j_max, j_max]."""
    j = np.arange(-j_max, j_max + 1)
    return float(np.sum((tau / (2 * math.pi)) * np.exp(-gamma * tau * np.abs(j))))


def norm_squared(scene):
    return float(np.linalg.norm(scene.dipole @ scene.ground_state) ** 2)


def td_truncation_bound(scene, j_max, gamma=GAMMA, tau=TAU):
    """Geometric tail bound on |td sum - untruncated sum|."""
    r = math.exp(-gamma * tau)
    return 2.0 * norm_squared(scene) * (tau / (2.0 * math.pi)) * r ** (j_max + 1) / (1.0 - r)


def scan(scene, omegas, j_max, shots=1, seed=0, gamma=GAMMA):
    return spectrum_rows(scene, omegas, gamma, TAU, j_max, shots, seed)


def column(rows, name):
    return np.array([row[name] for row in rows])


def test_exact_greens_matches_dense_solve():
    scene = random_scene(64, seed=2)
    omegas = [0.5, 1.3, 3.1]
    for omega, row in zip(omegas, scan(scene, omegas, 10)):
        want = scale(omega) * dense_density(scene, omega)
        assert row["sigma_exact"] == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("dim", [1, 0])
def test_random_scene_needs_two_levels(dim):
    with pytest.raises(ValidationError, match=f"dim >= 2, got dim = {dim}"):
        random_scene(dim, seed=1)


def test_exact_greens_zero_dipole():
    # no line weight: every column is 0, the sampled one included
    scene = two_level_scene(gap=1.0, coupling=0.0)
    for row in scan(scene, [0.5, 1.0], 50, shots=20):
        assert row["sigma_exact"] == row["sigma_td"] == row["sigma_sampled"] == 0.0


def test_exact_greens_requires_broadening():
    scene = two_level_scene(gap=1.0)
    for gamma in (0.0, -GAMMA):
        with pytest.raises(ValidationError, match="field 'gamma' in _one_minus_decay must be positive"):
            scan(scene, [1.0], 10, gamma=gamma)


def test_two_level_peak_closed_form():
    # -Im G = d^2 / gamma at resonance
    d = 0.8
    scene = two_level_scene(gap=2.0, coupling=d)
    row, = scan(scene, [2.0], 10)
    assert row["sigma_exact"] == pytest.approx(scale(2.0) * d**2 / (math.pi * GAMMA),
                                               rel=1e-12, abs=0)


def test_positivity_of_spectral_density():
    # sigma_exact / omega is the density times a positive constant, on both signs of omega
    scene = random_scene(32, seed=3)
    omegas = np.linspace(-1.0, 5.0, 101)
    assert np.all(column(scan(scene, omegas, 10), "sigma_exact") / omegas >= 0.0)


def test_kramers_heisenberg_equals_resolvent_form():
    # the Kramers-Heisenberg line sum (4 pi omega / 3c) sum_F |<F|D|I>|^2
    # L_gamma(E_F - E_I - omega), written out from a dense eigh, is -Im of the
    # resolvent element times the prefactor: the exact column
    for seed in range(5):
        scene = random_scene(48, seed=seed)
        energies, vectors = np.linalg.eigh(scene.hamiltonian)
        line = np.abs(vectors.conj().T @ scene.dipole @ scene.ground_state) ** 2
        omegas = [0.5, 1.7, 3.1]
        for omega, row in zip(omegas, scan(scene, omegas, 10)):
            detune = energies - scene.ground_energy - omega
            lorentzian = GAMMA / (detune**2 + GAMMA**2)
            kh = 4 * math.pi * omega / (3 * 137.036) * float(np.sum(line * lorentzian))
            assert row["sigma_exact"] == pytest.approx(kh, abs=1e-9)
            assert row["sigma_exact"] == pytest.approx(scale(omega) * dense_density(scene, omega),
                                                       abs=1e-9)


def test_fourier_weights_single_term():
    # j_max = 0 keeps p(0) = tau/2pi alone: beta = tau/2pi, E[Z] = 1 exactly
    scene = random_scene(16, seed=4)
    shots = 30
    for omega, row in zip((0.5, 2.0), scan(scene, [0.5, 2.0], 0, shots=shots)):
        full = scale(omega) * norm_squared(scene) * TAU / (2 * math.pi)
        assert row["stderr"] * math.sqrt(shots) == pytest.approx(full, rel=1e-12, abs=0)
        assert row["sigma_sampled"] == pytest.approx(full, rel=1e-12, abs=0)


def test_beta_matches_estimator_series():
    # one shot: the standard error is the full scale (4 pi omega / 3c) pi N^2 beta
    from euvq.absorption import beta_bound

    scene = random_scene(16, seed=5)
    gamma = 0.1 / TAU
    row, = scan(scene, [3.38], 1000, gamma=gamma)
    measured = row["stderr"] / (scale(3.38) * norm_squared(scene))
    assert measured == pytest.approx(beta(1000, gamma=gamma), rel=1e-12, abs=0)
    assert measured == pytest.approx(beta_bound(TAU, gamma, 1000), rel=1e-12, abs=0)
    assert measured == pytest.approx(beta_limit(TAU, gamma), rel=1e-3, abs=0)


def test_td_greens_zero_time_autocorrelation():
    # j_max = 0: td = p(0) s_0 = (tau/2pi) ||D|I>||^2 at every frequency
    scene = random_scene(16, seed=4)
    for omega, row in zip((0.5, 2.0), scan(scene, [0.5, 2.0], 0)):
        want = scale(omega) * norm_squared(scene) * TAU / (2 * math.pi)
        assert row["sigma_td"] == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("j_max", [0, 1, 150])
def test_td_greens_folded_half_sum_matches_two_sided_sum(j_max):
    # the scan sums over j in closed form; hold it to the two-sided complex sum
    # over every j in [-j_max, j_max], which is real
    scene = random_scene(12, seed=21)
    omegas = [0.4, 1.7, 3.1]
    for omega, row in zip(omegas, scan(scene, omegas, j_max)):
        two_sided = two_sided_td(scene, omega, j_max)
        assert abs(two_sided.imag) <= 1e-13 * abs(two_sided)
        assert row["sigma_td"] == pytest.approx(scale(omega) * two_sided.real, rel=1e-13, abs=0)


def test_td_greens_converges_to_spectral_density():
    scene = random_scene(32, seed=6)
    omegas = np.linspace(0.2, 3.8, 400)
    j_max = math.ceil(14.0 / (GAMMA * TAU))  # e^-14 < 1e-6 tail
    rows = scan(scene, omegas, j_max)
    peak = int(np.argmax(column(rows, "sigma_exact") / omegas))
    want = scale(omegas[peak]) * dense_density(scene, omegas[peak])
    assert rows[peak]["sigma_td"] == pytest.approx(want, rel=1e-3, abs=0)


def test_td_greens_two_level_peak_location():
    scene = two_level_scene(gap=2.0, coupling=1.0)
    j_max = math.ceil(14.0 / (GAMMA * TAU))
    omegas = np.linspace(1.8, 2.2, 81)
    density = column(scan(scene, omegas, j_max), "sigma_td") / omegas
    assert abs(omegas[int(np.argmax(density))] - 2.0) <= GAMMA / 10


def test_td_truncation_bound_holds():
    scene = random_scene(24, seed=8)
    far, = scan(scene, [1.5], 4000)
    for j_max in (50, 100, 200):
        row, = scan(scene, [1.5], j_max)
        gap = abs(row["sigma_td"] - far["sigma_td"])
        assert gap <= scale(1.5) * td_truncation_bound(scene, j_max) * (1 + 1e-9)


def test_dipole_excited_norm():
    # the eigenbasis is complete, so the line weights sum to ||D|I>||^2 = <I|DD|I>
    scene = random_scene(16, seed=9)
    psi = scene.ground_state
    quad = float(np.real(psi.conj() @ scene.dipole @ scene.dipole @ psi))
    assert scene.line_weights.sum() == pytest.approx(quad, rel=1e-12)
    identity = SpectralScene(np.diag([0.0, 1.0]), np.eye(2))
    assert identity.line_weights.sum() == pytest.approx(1.0, rel=1e-12)


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
    # one outcome: the sampled column is + or - the full scale
    scene = two_level_scene(gap=2.0, coupling=1.0)
    row, = scan(scene, [2.0], 100, shots=1)
    full = scale(2.0) * norm_squared(scene) * beta(100)
    assert row["sigma_sampled"] in (row["stderr"], -row["stderr"])
    assert abs(row["sigma_sampled"]) == pytest.approx(full, rel=1e-12, abs=0)


def test_hadamard_resonant_two_level_is_deterministic():
    # all weight on one line at resonance: E[Z] = 1 exactly, so every shot is +1
    scene = two_level_scene(gap=2.0, coupling=1.0)
    row, = scan(scene, [2.0], 300, shots=50, seed=1)
    full = scale(2.0) * norm_squared(scene) * beta(300)
    assert row["sigma_td"] / full == pytest.approx(1.0, rel=1e-12, abs=0)
    assert row["sigma_sampled"] == pytest.approx(full, rel=1e-12, abs=0)


def test_hadamard_zero_signal_concentrates():
    # far off the one line E[Z] ~ 0; 10,000 copies of the frequency in one scan.
    # Each copy misses the 3-sigma window with the exact binomial probability q,
    # so the misses are held to their expected count plus five standard deviations
    scene = two_level_scene(gap=2.0, coupling=1.0)
    omega, shots, copies = 2.0 + 40 * GAMMA, 400, 10_000
    rows = scan(scene, [omega] * copies, 300, shots=shots)
    full = scale(omega) * norm_squared(scene) * beta(300)
    exact_z = two_sided_td(scene, omega, 300).real / (norm_squared(scene) * beta(300))
    assert abs(exact_z) < 0.05
    # the +1 counts k inside the window |2k/shots - 1 - E[Z]| <= 3 / sqrt(shots)
    low = math.ceil(shots * (1 + exact_z - 3 / math.sqrt(shots)) / 2)
    high = math.floor(shots * (1 + exact_z + 3 / math.sqrt(shots)) / 2)
    p = (1 + exact_z) / 2
    q = 1 - sum(math.comb(shots, k) * p**k * (1 - p) ** (shots - k) for k in range(low, high + 1))
    misses = sum(abs(row["sigma_sampled"] - row["sigma_td"]) > 3 * full / math.sqrt(shots)
                 for row in rows)
    assert misses <= copies * q + 5 * math.sqrt(copies * q * (1 - q))


def test_hadamard_unbiased_over_seeds():
    # 10,000 copies of one frequency, drawn in turn from the scan's one generator
    scene = lattice_scene(6)
    rows = scan(scene, [0.5] * 10_000, 200, shots=8)
    full = scale(0.5) * norm_squared(scene) * beta(200)
    means = column(rows, "sigma_sampled") / full
    exact = two_sided_td(scene, 0.5, 200).real / (norm_squared(scene) * beta(200))
    grand = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    assert abs(grand - exact) <= 3 * stderr + 1e-12


def test_hadamard_deterministic_under_seed():
    scene = lattice_scene(5)
    omegas = np.linspace(0.1, 0.9, 5)
    first = scan(scene, omegas, 100, shots=100, seed=42)
    assert scan(scene, omegas, 100, shots=100, seed=42) == first
    assert scan(scene, omegas, 100, shots=100, seed=43) != first


def test_spectrum_rows_td_matches_per_frequency_and_double_sum():
    # sigma_td comes from one closed-form kernel per line and frequency; hold it
    # at each frequency to the direct double sum over final states F and steps j
    scene = random_scene(12, seed=14)
    omegas = np.linspace(0.3, 3.7, 9)
    j_max = 150
    rows = spectrum_rows(scene, omegas, GAMMA, TAU, j_max, shots=10, seed=3)
    energies, vectors = np.linalg.eigh(scene.hamiltonian)
    line = np.abs(vectors.conj().T @ scene.dipole @ scene.ground_state) ** 2
    j = np.arange(-j_max, j_max + 1)
    for omega, row in zip(omegas, rows):
        p = (TAU / (2 * math.pi)) * np.exp(-GAMMA * TAU * np.abs(j) + 1j * omega * TAU * j)
        direct = sum(line[f] * pj * np.exp(-1j * (energies[f] - scene.ground_energy) * TAU * jj)
                     for f in range(scene.dim) for pj, jj in zip(p, j))
        assert row["sigma_td"] == pytest.approx(scale(omega) * direct.real, rel=1e-13, abs=0)


def test_spectrum_rows_sampled_column_is_the_shot_simulator():
    # one default_rng(seed) draws each frequency's count of +1 outcomes in
    # frequency order, Binomial(shots, (1 + E[Z]) / 2), E[Z] = td / (N^2 beta)
    scene = lattice_scene(6)
    omegas = np.linspace(0.1, 0.9, 7)
    shots, seed = 300, 11
    rows = spectrum_rows(scene, omegas, GAMMA, TAU, 120, shots, seed)
    full_norm = norm_squared(scene) * beta(120)
    rng = np.random.default_rng(seed)
    for omega, row in zip(omegas, rows):
        exact_z = two_sided_td(scene, omega, 120).real / full_norm
        plus = int(rng.binomial(shots, (1 + exact_z) / 2))
        assert row["sigma_sampled"] == pytest.approx(
            scale(omega) * full_norm * (2 * plus - shots) / shots, rel=1e-12, abs=0)
        assert row["stderr"] == pytest.approx(scale(omega) * full_norm / math.sqrt(shots),
                                              rel=1e-12, abs=0)


@pytest.mark.parametrize("j_max", [0, 7, 150])
def test_spectrum_rows_do_not_depend_on_the_block_split(monkeypatch, j_max):
    # frequencies are evaluated in blocks of SCAN_BLOCK_ENTRIES // dim rows;
    # splitting the scan into blocks of 1, 2 and 3 rows changes no bit
    scene = random_scene(12, seed=15)
    omegas = np.linspace(0.3, 3.7, 11)
    whole = spectrum_rows(scene, omegas, GAMMA, TAU, j_max, shots=50, seed=4)
    blocks = []
    prefactor = spectro.cross_section_prefactor  # called once per block

    def counted(chunk):
        blocks.append(len(chunk))
        return prefactor(chunk)

    monkeypatch.setattr(spectro, "cross_section_prefactor", counted)
    for rows_per_block in (1, 2, 3):
        blocks.clear()
        monkeypatch.setattr(spectro, "SCAN_BLOCK_ENTRIES", rows_per_block * scene.dim)
        assert spectrum_rows(scene, omegas, GAMMA, TAU, j_max, shots=50, seed=4) == whole
        assert len(blocks) == math.ceil(len(omegas) / rows_per_block) > 1
        assert max(blocks) == rows_per_block


def lines(*excitations):
    """A spectral measure of unit-weight lines, all that ``spectrum_rows`` reads."""
    return types.SimpleNamespace(excitations=np.array(excitations, dtype=float),
                                 line_weights=np.ones(len(excitations)))


def direct_td(measure, omega, j_max, gamma, tau=TAU):
    """(tau/2pi) sum_F w_F sum_j r^|j| exp(i (omega - E_F + E_I) tau j), term by term."""
    j = np.arange(-j_max, j_max + 1)
    theta = (omega - measure.excitations) * tau
    terms = np.exp(-gamma * tau * np.abs(j) + 1j * np.multiply.outer(theta, j))
    return (tau / (2 * math.pi)) * float(measure.line_weights @ terms.sum(axis=1).real)


@pytest.mark.parametrize("gamma, j_max, offsets", [
    (GAMMA, 528, [0.0, 1e-9, -1e-9, 1e-6, -1e-6]),  # near resonance
    (GAMMA, 528, [2 * math.pi / TAU + d for d in (0.0, 1e-9, 1e-6, 0.05)]),  # aliased by 2pi/tau
    (GAMMA, 528, [-4 * math.pi / TAU + d for d in (0.0, 1e-6, -0.3)]),
    (1e-7, 10**5, [0.0, 1e-9, 1e-6, 1e-4, 0.3]),  # r^j_max = exp(-3.9e-3), near 1
], ids=["resonant", "aliased", "aliased_twice", "r_j_max_near_1"])
def test_td_closed_form_matches_direct_sum_where_digits_are_at_risk(gamma, j_max, offsets):
    # small theta, theta near a multiple of 2 pi and r^j_max near 1 are where a
    # closed form of the geometric sum can lose digits; the term-by-term sum
    # is the oracle, and the gap is measured against the peak (2 j_max + 1 at most)
    measure = lines(2.0, 2.7)
    omegas = 2.0 + np.array(offsets)
    rows = spectrum_rows(measure, omegas, gamma, TAU, j_max, shots=1, seed=0)
    peak = direct_td(lines(2.0), 2.0, j_max, gamma)
    for omega, row in zip(omegas, rows):
        gap = abs(row["sigma_td"] / scale(omega) - direct_td(measure, omega, j_max, gamma))
        assert gap <= 1e-13 * peak


@pytest.mark.parametrize("gamma, tau, j_max, kernel", [
    (1e154, 1e155, 0, 1.0),  # gamma tau overflows to inf, so r = 0
    (1e154, 1e155, 5, 1.0),
    (1.0, 1000.0, 5, 1.0),  # exp(gamma tau) overflows and r underflows to 0
    (1e-150, 1e-10, 400, 801.0),  # (1 - r)^2 underflows; K = 2 j_max + 1 to double precision
], ids=["inf_j0", "inf_j5", "r_underflows", "one_minus_r_squared_underflows"])
def test_td_kernel_is_finite_for_every_decay(gamma, tau, j_max, kernel):
    # at resonance K = sum_{|j| <= j_max} r^|j|, for any gamma tau the reader accepts
    row, = spectrum_rows(lines(2.0), [2.0], gamma, tau, j_max, shots=1, seed=0)
    want = scale(2.0) * (tau / (2 * math.pi)) * kernel
    assert row["sigma_td"] == pytest.approx(want, rel=1e-15, abs=0)


def test_td_closed_form_tends_to_the_poisson_kernel():
    # once r^j_max underflows the truncated kernel is the infinite sum's
    # Poisson kernel (1 - r^2) / (1 - 2 r cos theta + r^2), an independent closed form
    j_max = 40_000
    r = math.exp(-GAMMA * TAU)
    assert r ** j_max == 0.0
    measure = lines(2.0)
    omegas = 2.0 + np.array([0.0, 1e-9, 1e-6, 1e-3, 0.3, 2 * math.pi / TAU + 1e-6, 7.0])
    rows = spectrum_rows(measure, omegas, GAMMA, TAU, j_max, shots=1, seed=0)
    peak = (1 + r) / (1 - r)
    for omega, row in zip(omegas, rows):
        theta = (omega - 2.0) * TAU
        poisson = (1 - r * r) / (1 - 2 * r * math.cos(theta) + r * r)
        kernel = row["sigma_td"] / (scale(omega) * TAU / (2 * math.pi))
        assert abs(kernel - poisson) <= 1e-12 * peak


def test_spectrum_rows_read_only_the_spectral_measure():
    # excitations and line weights alone give the scene's rows, bit for bit
    scene = random_scene(12, seed=16)
    measure = types.SimpleNamespace(excitations=scene.excitations,
                                    line_weights=scene.line_weights)
    omegas = np.linspace(0.3, 3.7, 7)
    assert (spectrum_rows(measure, omegas, GAMMA, TAU, 90, shots=40, seed=5)
            == spectrum_rows(scene, omegas, GAMMA, TAU, 90, shots=40, seed=5))


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
