"""Grid photoemission emulator against dense-diagonalization and mask oracles."""

import hashlib
import json
import math
from importlib import resources

import numpy as np
import pytest

from conftest import correlation_identity_check
from euvq import grid, planewave
from euvq.core import NumericalError, PlaneWaveSpec, ValidationError
from euvq.grid import (
    EVOLVE_TAIL,
    FilterSpec,
    GridModel,
    _dct2,
    _dct3,
    _sup_error,
    apply_dipole,
    chebyshev_fit,
    continuum_project,
    edge_density,
    dense_hamiltonian,
    evolve,
    gaussian_filter,
    _radius_values_1particle,
    ground_state,
    jacobi_anger_bessel,
    kinetic_energies,
    kinetic_histogram,
    position_values,
)


def soft_model(n=128, box=40.0, z=2.0, eta=1, **kw):
    x = (np.arange(n) - n // 2) * (box / n)
    v = -z / np.sqrt(x**2 + 1.0)
    return GridModel(dims=1, n_points=n, box_length=box, potential=v, eta=eta, **kw)


def free_model(n=64, box=20.0, eta=1):
    return GridModel(dims=1, n_points=n, box_length=box,
                     potential=np.zeros(n), eta=eta)


def test_grid_invariants():
    m = soft_model()
    assert m.spacing == pytest.approx(40.0 / 128)
    assert m.axis[m.n_points // 2] == 0.0
    with pytest.raises(ValidationError):
        GridModel(dims=1, n_points=100, box_length=10.0, potential=np.zeros(100))
    with pytest.raises(ValidationError):
        GridModel(dims=2, n_points=64, box_length=10.0, potential=np.zeros(64))


def test_hamiltonian_hermitian_on_grid():
    m = soft_model(n=32)
    h = dense_hamiltonian(m)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-10)


def test_ground_state_free_particle():
    m = free_model()
    psi, energy = ground_state(m)
    assert energy == pytest.approx(0.0, abs=1e-9)
    # uniform k=0 plane wave up to a global phase
    probs = np.abs(psi) ** 2
    np.testing.assert_allclose(probs, probs[0], rtol=1e-6)


def test_ground_state_matches_dense_oracle():
    m = soft_model(n=256, box=60.0)
    psi, energy = ground_state(m)
    h = dense_hamiltonian(m)
    evals, evecs = np.linalg.eigh(h)
    assert energy == pytest.approx(float(evals[0]), abs=1e-9)
    overlap = abs(np.vdot(evecs[:, 0], psi))
    assert overlap == pytest.approx(1.0, abs=1e-8)
    # localized: participation ratio far below N
    pr = 1.0 / np.sum(np.abs(psi) ** 4)
    assert pr < m.n_points / 4
    assert energy > float(np.min(m.potential))


def test_ground_state_deepening_well_lowers_energy():
    energies = [ground_state(soft_model(n=128, z=z))[1] for z in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_two_electron_ground_state_sectors():
    m = soft_model(n=32, box=24.0, eta=2, interaction_strength=0.5)
    psi_s, e_s = ground_state(m, symmetry="symmetric")
    psi_a, e_a = ground_state(m, symmetry="antisymmetric")
    grid_s = psi_s.reshape(32, 32)
    grid_a = psi_a.reshape(32, 32)
    np.testing.assert_allclose(grid_s, grid_s.T, atol=1e-7)
    np.testing.assert_allclose(grid_a, -grid_a.T, atol=1e-7)
    assert e_s < e_a  # spatially symmetric sector lies lower


def test_apply_dipole_parity_selection_rule():
    m = soft_model(n=64, box=30.0)
    psi, _ = ground_state(m)  # even-parity bound state
    excited, norm = apply_dipole(m, psi)
    assert norm > 0
    assert abs(np.vdot(psi, excited)) <= 1e-8


def test_apply_dipole_norm_oracles():
    m = free_model(n=8, box=8.0)
    uniform = np.full(8, 1 / math.sqrt(8), dtype=complex)
    _, norm = apply_dipole(m, uniform)
    assert norm**2 == pytest.approx(float(np.mean(m.axis**2)), rel=1e-12)
    delta = np.zeros(8, dtype=complex)
    delta[2] = 1.0
    _, norm = apply_dipole(m, delta)
    assert norm == pytest.approx(abs(m.axis[2]), rel=1e-12)


def test_gaussian_filter_wide_window_is_identity():
    m = soft_model(n=64)
    psi, e0 = ground_state(m)
    filt = FilterSpec(center=0.0, sigma=1e6, mode="ExactEigen")
    out, success = gaussian_filter(m, filt, psi, e0)
    assert success == pytest.approx(1.0, rel=1e-9)
    np.testing.assert_allclose(out, psi, atol=1e-6)


def test_gaussian_filter_two_level_attenuation():
    # closed form on a 2-point grid: amplitudes scale by exp(-dE^2 / 2 sigma^2)
    m = free_model(n=2, box=2.0)
    h = dense_hamiltonian(m)
    evals, evecs = np.linalg.eigh(h)
    state = (evecs[:, 0] + evecs[:, 1]) / math.sqrt(2)
    sigma = 0.8 * (evals[1] - evals[0])
    filt = FilterSpec(center=evals[1] - evals[0], sigma=float(sigma), mode="ExactEigen")
    out, success = gaussian_filter(m, filt, state.astype(complex), float(evals[0]))
    a0 = abs(np.vdot(evecs[:, 0], out)) * math.sqrt(2)
    a1 = abs(np.vdot(evecs[:, 1], out)) * math.sqrt(2)
    assert a1 == pytest.approx(1.0, rel=1e-12)
    assert a0 == pytest.approx(math.exp(-(evals[1] - evals[0]) ** 2 / (2 * sigma**2)),
                               rel=1e-9)
    assert success == pytest.approx((a0**2 + a1**2) / 2, rel=1e-9)


def test_chebyshev_filter_matches_exact_mode():
    m = soft_model(n=64, box=30.0)
    psi, e0 = ground_state(m)
    excited, norm = apply_dipole(m, psi)
    excited /= norm
    exact = FilterSpec(center=0.8, sigma=0.3, mode="ExactEigen")
    poly = FilterSpec(center=0.8, sigma=0.3, mode="ChebyshevPoly", poly_tolerance=1e-6)
    out_e, p_e = gaussian_filter(m, exact, excited, e0)
    out_p, p_p = gaussian_filter(m, poly, excited, e0)
    assert p_p == pytest.approx(p_e, abs=1e-5)
    np.testing.assert_allclose(out_p, out_e, atol=1e-5)


def test_filter_degree_scales_inversely_with_width():
    def gauss(sigma):
        return lambda x: np.exp(-(x - 0.1) ** 2 / (2 * sigma**2))

    d_wide = len(chebyshev_fit(gauss(0.05), 1e-3)) - 1
    d_narrow = len(chebyshev_fit(gauss(0.025), 1e-3)) - 1
    assert 1.6 <= d_narrow / d_wide <= 2.4


def test_filter_degree_meets_tolerance_on_fine_grid():
    # at degrees past 2000 a fixed 2001-node check misses the error between nodes, and
    # the first interpolants are too coarse to see the peak at all
    def target(x):
        return np.exp(-((x - 0.2) ** 2) / (2 * 0.001**2))

    xs = np.linspace(-1.0, 1.0, 50_001)
    fit = np.polynomial.chebyshev.chebval(xs, chebyshev_fit(target, 1e-3))
    assert float(np.max(np.abs(fit - target(xs)))) <= 1e-3


def test_filter_fit_keeps_degrees_up_to_the_cap():
    # a degree between 16384 and MAX_FILTER_DEGREE needs m = 65536 nodes; a
    # narrower window needs one above the cap and is refused by name
    def window(sigma):
        return lambda x: np.exp(-(x**2) / (2 * sigma**2))

    coeffs = chebyshev_fit(window(2e-4), 1e-3)
    assert 16384 <= len(coeffs) - 1 <= grid.MAX_FILTER_DEGREE
    assert _sup_error(window(2e-4), coeffs) <= 1e-3
    with pytest.raises(ValidationError, match="poly_tolerance.*20000"):
        chebyshev_fit(window(1.6e-4), 1e-3)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 255, 256, 2001, 4096, 4097])
def test_cosine_transforms_match_scipy(m):
    dct = pytest.importorskip("scipy.fft").dct
    x = np.random.default_rng(m).standard_normal(m)
    for ours, kind in ((_dct2, 2), (_dct3, 3)):
        ref = dct(x, type=kind)
        assert float(np.max(np.abs(ours(x) - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


SOFT_COULOMB = {"kind": "soft_coulomb", "params": {"z": 2.0, "a": 1.0}}


def _fixture_model():
    text = resources.files("euvq").joinpath("fixtures", "grid_soft_coulomb_1d.json").read_text()
    return json.loads(text)["model"]


FILTER_MODELS = {
    "chebyshev-filter-test": ({"n_points": 64, "box_length": 30.0, "potential": SOFT_COULOMB},
                              {"center": 0.8, "sigma": 0.3, "poly_tolerance": 1e-6}),
    "fixture-chebyshev": (_fixture_model(), {"center": 1.8, "sigma": 0.2}),
    "photoemission-2e": ({"eta": 2, "n_points": 64, "box_length": 48.0,
                          "potential": SOFT_COULOMB, "interaction_strength": 1.0},
                         {"center": 1.5, "sigma": 0.3}),
}


def _filter_fit_input(monkeypatch, name):
    """The window function and tolerance that ``gaussian_filter`` fits on a named model."""
    model, window = FILTER_MODELS[name]
    m = GridModel.from_config(model)
    psi, e0 = ground_state(m)
    excited, norm = apply_dipole(m, psi)
    fits = []

    def spy(func, tolerance):
        fits.append((func, tolerance))
        return chebyshev_fit(func, tolerance)

    monkeypatch.setattr(grid, "chebyshev_fit", spy)
    gaussian_filter(m, FilterSpec(mode="ChebyshevPoly", **window), excited / norm, e0)
    monkeypatch.undo()
    [fit] = fits
    return fit


@pytest.mark.parametrize("name, degree", [
    ("chebyshev-filter-test", 109), ("fixture-chebyshev", 194), ("photoemission-2e", 80),
], ids=FILTER_MODELS)
def test_filter_degree_matches_scipy_cosine_transforms(monkeypatch, name, degree):
    # ``degree`` is what the same fit gives with scipy.fft.dct for both transforms
    fft = pytest.importorskip("scipy.fft")
    func, tolerance = _filter_fit_input(monkeypatch, name)
    assert len(chebyshev_fit(func, tolerance)) - 1 == degree
    monkeypatch.setattr(grid, "_dct2", lambda x: fft.dct(x, type=2))
    monkeypatch.setattr(grid, "_dct3", lambda x: fft.dct(x, type=3))
    assert len(chebyshev_fit(func, tolerance)) - 1 == degree


@pytest.mark.parametrize("name", FILTER_MODELS)
def test_filter_fit_meets_tolerance_down_to_floor(monkeypatch, name):
    func, _ = _filter_fit_input(monkeypatch, name)
    for tolerance in (1e-3, 1e-6, 1e-9, 1e-12, 1e-13):
        assert _sup_error(func, chebyshev_fit(func, tolerance)) <= tolerance


def test_evolve_identity_at_zero_time():
    m = soft_model(n=64)
    psi, _ = ground_state(m)
    np.testing.assert_allclose(evolve(m, psi, 0.0), psi)


def test_evolve_identity_when_series_argument_underflows():
    # half_span * t is 0, and at the smallest subnormal a / 2 is 0
    m = free_model(n=2, box=100.0)
    psi = np.array([0.6, 0.8j])
    np.testing.assert_array_equal(evolve(m, psi, 5e-324), psi)
    np.testing.assert_array_equal(jacobi_anger_bessel(5e-324), [1.0, 0.0])


def test_evolve_free_momentum_eigenstate_phase():
    m = free_model(n=64, box=16.0)
    k = m.k_axis[5]
    x = m.axis
    psi = np.exp(1j * k * x) / math.sqrt(64)
    t = 3.7
    out = evolve(m, psi, t)
    np.testing.assert_allclose(out, psi * np.exp(-1j * k**2 * t / 2), atol=1e-10)


def test_evolve_matches_dense_oracle():
    m = soft_model(n=256, box=60.0)
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    psi /= np.linalg.norm(psi)
    t = 10.0
    out = evolve(m, psi, t)
    h = dense_hamiltonian(m)
    evals, evecs = np.linalg.eigh(h)
    oracle = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi))
    assert np.linalg.norm(out - oracle) <= 1e-6
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)


def test_evolve_conserves_energy():
    m = soft_model(n=128)
    psi, _ = ground_state(m)
    excited, norm = apply_dipole(m, psi)
    excited /= norm
    def energy(v):
        return float(np.real(np.vdot(v, m.apply_hamiltonian(v))))
    before = energy(excited)
    after = energy(evolve(m, excited, 5.0))
    assert after == pytest.approx(before, abs=1e-8)


def test_evolve_degree_law():
    # series degree for exp(-i a x), a = lambda t with lambda the half-span,
    # against the qubitized-evolution law 2 lambda t + 3 log2(12 / eps)
    spec = dict(eta=1, lambda_zeta=1.0, omega_cell=1.0, n_bits=1,
                epsilon_be=EVOLVE_TAIL, delta_filter=1.0)
    for a in (100, 300, 1000, 3000):
        degree = len(jacobi_anger_bessel(a)) - 1
        predicted = planewave.time_evolution_cost(
            PlaneWaveSpec(**spec, t_evolution=float(a)), 1.0, 1, 0, 0)
        assert a < degree
        assert max(predicted / degree, degree / predicted) <= 3.0


@pytest.mark.parametrize("a, length, digest", [
    (0.5, 10, "112ef81affe4538b51c16225f720e27fffd02cc8345b8a44bd152e1baee876ec"),
    (10.0, 31, "b8372160fabd8bb88d6cfc2e55cbc97ac32f9b68d19564b0c4a9532288d56fd2"),
    (260.0, 318, "f9d313d6507a2e51dafb3e1c83f21337efff2b24fe4944a1161dd84c139cdc8a"),
    (1e4, 10194, "91d83ec2d5b480fcf970b482d9a8c2bc0dc5ea27b801b8e0b129aac52ef5e342"),
], ids=["0.5", "10", "260", "1e4"])
def test_jacobi_anger_bessel_bitwise(a, length, digest):
    # the series' values and where its tail is cut, down to the last bit
    bessel = jacobi_anger_bessel(a)
    assert len(bessel) == length
    assert hashlib.sha256(bessel.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("a, atol", [(0.5, 1e-13), (10.0, 1e-13), (260.0, 1e-13), (1e4, 1e-12)])
def test_jacobi_anger_bessel_matches_scipy(a, atol):
    jv = pytest.importorskip("scipy.special").jv
    bessel = jacobi_anger_bessel(a)
    np.testing.assert_allclose(bessel, jv(np.arange(len(bessel)), a), rtol=0, atol=atol)


def test_evolve_long_free_momentum_phase():
    m = free_model(n=64, box=16.0)
    k = m.k_axis[5]
    psi = np.exp(1j * k * m.axis) / math.sqrt(64)
    t = 60.0
    assert float(np.max(m.kinetic_grid())) / 2 * t > 2000  # series argument a
    out = evolve(m, psi, t)
    np.testing.assert_allclose(out, psi * np.exp(-1j * k**2 * t / 2), atol=1e-10)


def test_continuum_project_masks():
    m = free_model(n=32, box=16.0)
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    psi /= np.linalg.norm(psi)
    out, success = continuum_project(m, psi, 3.0)
    mask = np.abs(m.axis) < 3.0
    oracle = np.where(mask, 0.0, psi)
    np.testing.assert_allclose(out, oracle)
    assert success == pytest.approx(float(np.linalg.norm(oracle) ** 2), rel=1e-12)


def test_continuum_project_extremes():
    m = free_model(n=32, box=16.0)
    psi = np.full(32, 1 / math.sqrt(32), dtype=complex)
    with pytest.warns(UserWarning):
        out, success = continuum_project(m, psi, 100.0)
    assert success == 0.0
    assert np.linalg.norm(out) == 0.0
    out, success = continuum_project(m, psi, 1e-9)
    # only the single x=0 point is bound
    assert success == pytest.approx(1.0 - 1.0 / 32, rel=1e-12)


def test_continuum_project_two_electron_any_outside():
    m = soft_model(n=16, box=16.0, eta=2)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    psi /= np.linalg.norm(psi)
    out, success = continuum_project(m, psi.reshape(-1), 2.0)
    inside = np.abs(m.axis) < 2.0
    both_inside = np.logical_and(inside[:, None], inside[None, :])
    oracle = np.where(both_inside, 0.0, psi)
    np.testing.assert_allclose(out.reshape(16, 16), oracle)
    assert success == pytest.approx(float(np.sum(np.abs(oracle) ** 2)), rel=1e-12)


def test_kinetic_histogram_momentum_eigenstate():
    m = free_model(n=32, box=16.0)
    k = m.k_axis[3]
    psi = np.exp(1j * k * m.axis) / math.sqrt(32)
    edges = np.linspace(0.0, 4.0, 17)
    hist = kinetic_histogram(m, psi, edges)
    expected_bin = np.searchsorted(edges, k**2 / 2, side="right") - 1
    assert hist.mass[expected_bin] == pytest.approx(1.0, rel=1e-12)
    assert hist.mass.sum() == pytest.approx(hist.success_probability, rel=1e-12)


def test_kinetic_histogram_two_momentum_split():
    m = free_model(n=32, box=16.0)
    k1, k2 = m.k_axis[2], m.k_axis[7]
    psi = (np.exp(1j * k1 * m.axis) + np.exp(1j * k2 * m.axis)) / math.sqrt(2 * 32)
    edges = np.linspace(0.0, 6.0, 25)
    hist = kinetic_histogram(m, psi, edges, shots=4000, seed=9)
    b1 = np.searchsorted(edges, k1**2 / 2, side="right") - 1
    b2 = np.searchsorted(edges, k2**2 / 2, side="right") - 1
    assert hist.mass[b1] == pytest.approx(0.5, rel=1e-9)
    assert hist.mass[b2] == pytest.approx(0.5, rel=1e-9)
    assert hist.sampled_mass[b1] == pytest.approx(0.5, abs=0.05)


def test_kinetic_histogram_mass_equals_success():
    m = soft_model(n=128, box=40.0)
    psi, e0 = ground_state(m)
    excited, norm = apply_dipole(m, psi)
    excited /= norm
    moved = evolve(m, excited, 4.0)
    projected, success = continuum_project(m, moved, 6.0)
    kmax = float(np.max(m.k_axis**2) / 2)
    edges = np.linspace(0.0, kmax * 1.001, 40)
    hist = kinetic_histogram(m, projected, edges)
    assert hist.mass.sum() == pytest.approx(success, abs=1e-12)
    assert hist.success_probability == pytest.approx(success, abs=1e-12)


def test_kinetic_histogram_sampling_variance():
    # empirical estimator variance tracks p(1-p)/shots within 20%
    m = free_model(n=32, box=16.0)
    k1, k2 = m.k_axis[2], m.k_axis[7]
    psi = (np.exp(1j * k1 * m.axis) + np.exp(1j * k2 * m.axis)) / math.sqrt(2 * 32)
    edges = np.linspace(0.0, 6.0, 25)
    target_bin = np.searchsorted(edges, k1**2 / 2, side="right") - 1
    shots = 50
    draws = [kinetic_histogram(m, psi, edges, shots=shots, seed=s).sampled_mass[target_bin]
             for s in range(10_000)]
    empirical = float(np.var(draws, ddof=1))
    binomial = 0.5 * 0.5 / shots
    assert abs(empirical / binomial - 1.0) <= 0.20


def test_kinetic_histogram_rejects_zero_state():
    m = free_model(n=16)
    with pytest.raises(ValidationError):
        kinetic_histogram(m, np.zeros(16, dtype=complex), np.linspace(0, 1, 5))


def test_correlation_identity():
    m = soft_model(n=128, box=40.0)
    rng = np.random.default_rng(21)
    psi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    psi /= np.linalg.norm(psi)
    assert correlation_identity_check(m, psi, 5.0) <= 1e-12


def test_correlation_identity_zero_dipole_state():
    m = free_model(n=32, box=16.0)
    psi = np.zeros(32, dtype=complex)
    psi[0] = 1.0  # fully bound at the left edge point
    deviation = correlation_identity_check(m, psi, 1.0)
    assert deviation <= 1e-12


def test_free_packet_ionization_monotone_pre_wrap():
    m = free_model(n=256, box=120.0)
    x = m.axis
    packet = np.exp(-(x**2) / (2 * 2.0**2) + 1j * 1.5 * x)
    packet /= np.linalg.norm(packet)
    successes = []
    for t in (0.0, 4.0, 8.0, 12.0):
        moved = evolve(m, packet, t)
        _, success = continuum_project(m, moved, 10.0)
        successes.append(success)
    assert all(b >= a - 1e-12 for a, b in zip(successes, successes[1:]))
    assert successes[-1] > successes[0]


def test_norm_bookkeeping_multiplies():
    m = soft_model(n=128, box=40.0)
    psi, e0 = ground_state(m)
    excited, norm = apply_dipole(m, psi)
    excited /= norm
    filt = FilterSpec(center=1.2, sigma=0.4, mode="ExactEigen")
    filtered, p_w = gaussian_filter(m, filt, excited, e0)
    filtered_n = filtered / np.linalg.norm(filtered)
    projected, p_c = continuum_project(m, filtered_n, 8.0)
    end_to_end = float(np.linalg.norm(projected) ** 2
                       * np.linalg.norm(filtered) ** 2)
    assert p_w * p_c == pytest.approx(end_to_end, abs=1e-12)


def test_edge_density_flags_boundary_arrival():
    m = free_model(n=128, box=60.0)
    x = m.axis
    packet = np.exp(-(x**2) / (2 * 1.5**2) + 1j * 2.0 * x).astype(complex)
    packet /= np.linalg.norm(packet)
    assert edge_density(m, packet) < 1e-10
    moved = evolve(m, packet, 16.0)  # k*t = 32 > box/2
    assert edge_density(m, moved) > 1e-6


def test_3d_ground_state_and_histogram():
    n, box = 8, 12.0
    m = GridModel(dims=3, n_points=n, box_length=box, potential=np.zeros(n))
    psi, energy = ground_state(m)
    assert energy == pytest.approx(0.0, abs=1e-9)
    k = m.k_axis[1]
    x = m.axis
    plane = np.exp(1j * k * x)[:, None, None] * np.ones((n, n, n))
    plane = (plane / np.linalg.norm(plane)).reshape(-1)
    edges = np.linspace(0.0, 2.0, 9)
    hist = kinetic_histogram(m, plane, edges)
    target = np.searchsorted(edges, k**2 / 2, side="right") - 1
    assert hist.mass[target] == pytest.approx(1.0, rel=1e-12)


def test_3d_continuum_project_sphere_mask():
    n, box = 8, 12.0
    m = GridModel(dims=3, n_points=n, box_length=box, potential=np.zeros(n))
    rng = np.random.default_rng(13)
    psi = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    psi /= np.linalg.norm(psi)
    out, success = continuum_project(m, psi.reshape(-1), 4.0)
    x = m.axis
    r = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
    oracle = np.where(r < 4.0, 0.0, psi)
    np.testing.assert_allclose(out.reshape(n, n, n), oracle)
    assert success == pytest.approx(float(np.sum(np.abs(oracle) ** 2)), rel=1e-12)


def test_3d_evolve_free_eigenstate():
    n, box = 8, 12.0
    m = GridModel(dims=3, n_points=n, box_length=box, potential=np.zeros(n))
    kx, ky = m.k_axis[2], m.k_axis[1]
    x = m.axis
    psi = (np.exp(1j * kx * x)[:, None, None]
           * np.exp(1j * ky * x)[None, :, None]
           * np.ones((n, n, n))).astype(complex)
    psi /= np.linalg.norm(psi)
    t = 2.3
    out = evolve(m, psi.reshape(-1), t)
    phase = np.exp(-1j * (kx**2 + ky**2) * t / 2)
    np.testing.assert_allclose(out, (phase * psi).reshape(-1), atol=1e-10)


def test_evolve_rejects_negative_time():
    m = free_model()
    with pytest.raises(ValidationError):
        evolve(m, np.ones(64, dtype=complex), -1.0)


def test_ground_state_nonconvergence_reports():
    m = soft_model(n=128)
    with pytest.raises(NumericalError, match="iteration|residual"):
        ground_state(m, maxiter=1)


@pytest.mark.parametrize("eta", [1, 2])
def test_ground_state_two_point_grid(eta):
    # dimension 2 and 4: the block spans the whole space
    m = soft_model(n=2, box=4.0, eta=eta)
    _, energy = ground_state(m)
    assert energy == pytest.approx(float(np.linalg.eigvalsh(dense_hamiltonian(m))[0]), abs=1e-12)


def test_ground_state_fine_grid_matches_dense_oracle():
    # the fixture's model at 8192 points: a 1.3 Ha gap against a 5e4 Ha
    # spectral range. The smooth potential's ground energy has converged on
    # the grid by 512 points (the two agree to 5e-15), so dense eigh there
    # is the oracle.
    psi, energy = ground_state(soft_model(n=8192, box=80.0))
    oracle = float(np.linalg.eigvalsh(dense_hamiltonian(soft_model(n=512, box=80.0)))[0])
    assert energy == pytest.approx(oracle, abs=1e-9)


def test_ground_state_stops_at_rounding_floor():
    # max T is 2e6 Ha, so H psi by FFT cannot resolve a 1e-10 Ha residual
    m = soft_model(n=64, box=0.1)
    assert float(np.max(m.kinetic_grid())) > 1e6
    psi, energy = ground_state(m)
    dense = dense_hamiltonian(m)
    assert energy == pytest.approx(float(np.linalg.eigvalsh(dense)[0]), abs=1e-8)
    assert float(np.linalg.norm(dense @ psi - energy * psi)) <= 1e-8


def two_electron_model(n=64):
    """The two-electron soft-Coulomb model of the photoemission benchmark, at n^2 points."""
    return GridModel.from_config({
        "dims": 1, "eta": 2, "n_points": n, "box_length": 48.0,
        "potential": {"kind": "soft_coulomb", "params": {"z": 2.0, "a": 1.0}},
        "interaction_strength": 1.0})


def three_d_model(n=16):
    return GridModel.from_config({
        "dims": 3, "n_points": n, "box_length": 16.0,
        "potential": {"kind": "soft_coulomb", "params": {"z": 1.0, "a": 1.0}}})


def _arpack_lowest(model, project=None):
    """ARPACK's lowest eigenvalue of H, or of P H P for a projector P."""
    linalg = pytest.importorskip("scipy.sparse.linalg")
    project = project or (lambda v: v)
    op = linalg.LinearOperator((model.hilbert_dim,) * 2, dtype=float,
                               matvec=lambda v: project(model.apply_hamiltonian(project(v))))
    return float(linalg.eigsh(op, k=1, which="SA", tol=1e-14,
                              v0=project(np.random.default_rng(0).standard_normal(
                                  model.hilbert_dim)))[0][0])


@pytest.mark.parametrize("make", [two_electron_model, three_d_model], ids=["2e_64^2", "3d_16^3"])
def test_ground_state_matches_arpack(make):
    m = make()
    _, energy = ground_state(m)
    assert energy == pytest.approx(_arpack_lowest(m), abs=1e-12)


def test_ground_state_antisymmetric_sector_fine_grid():
    m = two_electron_model()
    psi, energy = ground_state(m, symmetry="antisymmetric")
    swapped = psi.reshape(m.shape).T.reshape(-1)
    assert float(np.max(np.abs(psi + swapped))) <= 1e-12
    # H commutes with the exchange, so the sector's state is an eigenstate of H itself
    assert float(np.linalg.norm(m.apply_hamiltonian(psi) - energy * psi)) <= 1e-8

    def antisymmetrize(v):
        return (v - v.reshape(m.shape).T.reshape(-1)) / 2.0

    # the sector's ground energy is negative, below the zeros P H P has off the sector
    assert energy == pytest.approx(_arpack_lowest(m, antisymmetrize), abs=1e-12)
    assert energy > ground_state(m)[1]


@pytest.mark.parametrize("make, symmetry", [
    (two_electron_model, "none"), (lambda: soft_model(n=8192, box=80.0), "none"),
    (two_electron_model, "symmetric"), (two_electron_model, "antisymmetric"),
], ids=["2e_64^2", "1e_8192", "2e_64^2_symmetric", "2e_64^2_antisymmetric"])
def test_ground_state_vector_applications(monkeypatch, make, symmetry):
    # LOBPCG applies H once per iteration; the filtered subspace iteration it
    # replaced took 673 vector applications on the 2e model. H itself is
    # applied in a sector too, where a shifted P H P + c (1 - P) took 113
    # (symmetric) and 152 (antisymmetric)
    m = make()
    applied = []
    apply_hamiltonian = GridModel.apply_hamiltonian

    def counted(self, state):
        applied.append(state.size // self.hilbert_dim)
        return apply_hamiltonian(self, state)

    monkeypatch.setattr(GridModel, "apply_hamiltonian", counted)
    ground_state(m, symmetry=symmetry)
    assert sum(applied) <= 60


@pytest.mark.parametrize("symmetry, sign", [("symmetric", 1.0), ("antisymmetric", -1.0)])
def test_ground_state_lies_exactly_in_its_sector(symmetry, sign):
    # the projected start and residuals keep the state in its sector bit for bit
    m = two_electron_model()
    psi, _ = ground_state(m, symmetry=symmetry)
    assert np.array_equal(psi, sign * psi.reshape(m.shape).T.reshape(-1))


def test_ground_state_is_real_and_later_stages_promote():
    m = two_electron_model(n=32)
    psi, energy = ground_state(m)
    assert psi.dtype == np.float64
    excited, norm = apply_dipole(m, psi)
    assert excited.dtype == np.float64
    filt = FilterSpec(center=1.5, sigma=0.3, mode="ChebyshevPoly")
    filtered, _ = gaussian_filter(m, filt, excited / norm, energy)
    assert filtered.dtype == np.float64
    complex_filtered, _ = gaussian_filter(m, filt, (excited / norm).astype(complex), energy)
    np.testing.assert_allclose(filtered, complex_filtered, rtol=0, atol=1e-13)
    moved = evolve(m, filtered, 1.0)
    assert moved.dtype == np.complex128
    np.testing.assert_allclose(moved, evolve(m, complex_filtered, 1.0), rtol=0, atol=1e-12)


def test_orthonormal_basis_drops_dependent_rows():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    a = a + a.T
    u, v, w, z = rng.standard_normal((4, 3))
    # 2u lies in the span of u and the zero row adds nothing; once both are
    # dropped, z lies past the dimension 3
    block = np.array([u, 2.0 * u, np.zeros(3), v, w, z])
    basis, images = grid._orthonormal_basis(block, block @ a)
    assert basis.shape == (3, 3)
    np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(images, basis @ a, atol=1e-13)
    np.testing.assert_allclose(abs(basis[0] @ u), np.linalg.norm(u), rtol=1e-14)


@pytest.mark.parametrize("dim, rows", [
    (50, lambda u, v, w: [u, v, u - 3.0 * v]),  # the third row is dependent
    (2, lambda u, v, w: [u, v, w]),             # the third row lies past the dimension 2
], ids=["dependent", "past-dimension"])
def test_orthonormal_basis_rows_are_orthonormal(dim, rows):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim))
    a = a + a.T
    block = np.array(rows(*rng.standard_normal((3, dim))))
    basis, images = grid._orthonormal_basis(block, block @ a)
    assert basis.shape == (2, dim)
    np.testing.assert_allclose(basis @ basis.T, np.eye(2), rtol=0, atol=1e-14)
    np.testing.assert_allclose(images, basis @ a, rtol=0, atol=1e-13 * np.linalg.norm(a))
    # the kept rows span every row of the block
    np.testing.assert_allclose(block @ basis.T @ basis, block, rtol=0, atol=1e-13)


def test_orthonormal_basis_keeps_a_nearly_dependent_row_orthogonal():
    # one Gram-Schmidt pass leaves this row's remainder off by about eps / 1e-9;
    # the second pass restores orthogonality to working precision
    rng = np.random.default_rng(7)
    u, v, w = rng.standard_normal((3, 200))
    block = np.array([u, u + 1e-9 * v, w])
    basis, _ = grid._orthonormal_basis(block, block)
    assert basis.shape == (3, 200)
    np.testing.assert_allclose(basis @ basis.T, np.eye(3), rtol=0, atol=1e-14)


def _layout_oracle(m):
    """(potential, kinetic, position, one-electron kinetic, radius), written out per layout.

    The reference for the outer-sum rule that builds the grid tables.
    """
    x, k2, v = m.axis, m.k_axis**2, m.potential
    if m.dims == 3:
        kinetic = (k2[:, None, None] + k2[None, :, None] + k2[None, None, :]) / 2.0
        return (v[:, None, None] + v[None, :, None] + v[None, None, :], kinetic,
                np.broadcast_to(x[:, None, None], m.shape).copy(), kinetic.reshape(-1),
                np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2))
    if m.eta == 1:
        return v, k2 / 2.0, x, k2 / 2.0, np.abs(x)
    sep = x[:, None] - x[None, :]
    potential = (v[:, None] + v[None, :]
                 + m.interaction_strength / np.sqrt(sep**2 + m.interaction_softening**2))
    kinetic = (k2[:, None] + k2[None, :]) / 2.0
    return potential, kinetic, x[:, None] + x[None, :], k2 / 2.0, np.abs(x)


LAYOUTS = {
    "1d_one_electron": lambda: soft_model(n=64, box=24.0),
    "1d_two_electrons": lambda: soft_model(n=32, box=24.0, eta=2, interaction_strength=0.7,
                                           interaction_softening=0.5),
    "3d": lambda: GridModel(dims=3, n_points=16, box_length=12.0,
                            potential=-1.0 / np.sqrt((np.arange(16) - 8.0) ** 2 * 0.5625 + 1.0)),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_tables_match_per_layout_formulas(layout):
    m = LAYOUTS[layout]()
    potential, kinetic, position, one_kinetic, radius = _layout_oracle(m)
    assert np.array_equal(m.potential_grid(), potential)
    assert np.array_equal(m.kinetic_grid(), kinetic)
    assert np.array_equal(position_values(m), position)
    assert np.array_equal(kinetic_energies(m), one_kinetic)
    assert np.array_equal(_radius_values_1particle(m), radius)
    rng = np.random.default_rng(21)
    psi = (rng.standard_normal(m.hilbert_dim) + 1j * rng.standard_normal(m.hilbert_dim)) / 40.0
    outside = (radius >= 3.0).astype(float)
    keep = (outside if m.eta == 1
            else 1.0 - np.outer(1.0 - outside, 1.0 - outside).reshape(m.shape))
    out, success = continuum_project(m, psi, 3.0)
    assert np.array_equal(out, (keep * psi.reshape(m.shape)).reshape(-1))
    assert success == float(np.linalg.norm(out) ** 2 / np.linalg.norm(psi) ** 2)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_dense_hamiltonian_matches_complex_columns(layout):
    # the oracle's one real block application (real-FFT kernel on the half
    # table) against a complex build one column at a time (fftn on the full
    # kinetic table), which shares no transform code with the kernel
    m = LAYOUTS[layout]()
    h = dense_hamiltonian(m)
    assert h.dtype == np.float64
    column = np.zeros(m.shape, dtype=complex)
    potential = m.potential_grid().reshape(-1)
    worst = 0.0
    for i in range(m.hilbert_dim):
        column.flat[i] = 1.0
        kinetic = np.fft.ifftn(m.kinetic_grid() * np.fft.fftn(column, norm="ortho"), norm="ortho")
        worst = max(worst, float(np.max(np.abs(kinetic.reshape(-1) + potential * column.reshape(-1)
                                               - h[:, i]))))
        column.flat[i] = 0.0
    assert worst <= 1e-13


def test_dense_hamiltonian_blocks_match_one_shot_build():
    # the 2e 64^2 model spans eight column blocks; each column is H on one
    # unit vector, so the blocked build equals one application to the identity
    m = soft_model(n=64, box=48.0, eta=2, interaction_strength=1.0)
    assert m.hilbert_dim > grid.DENSE_BLOCK
    assert np.array_equal(dense_hamiltonian(m), m.apply_hamiltonian(np.eye(m.hilbert_dim)).T)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_complex_state_goes_through_the_kernel_as_two_real_rows(layout):
    m = LAYOUTS[layout]()
    re, im = np.random.default_rng(3).standard_normal((2, m.hilbert_dim))
    out = m.apply_hamiltonian(re + 1j * im)
    assert np.array_equal(out.real, m.apply_hamiltonian(re))
    assert np.array_equal(out.imag, m.apply_hamiltonian(im))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_tables_built_once_per_model(layout):
    m = LAYOUTS[layout]()
    assert m.potential_grid() is m.potential_grid()
    assert m.kinetic_grid() is m.kinetic_grid()


def test_hilbert_cap_precedes_the_tables():
    # a 2^40-entry table would fail to allocate; the cap must refuse the model first
    n = 2**20
    with pytest.raises(ValidationError, match="Hilbert space capped"):
        GridModel(dims=1, eta=2, n_points=n, box_length=100.0, potential=np.zeros(n))


ENGINE_MODELS = {"1e_256": lambda: soft_model(n=256, box=60.0),
                 "2e_32^2": lambda: two_electron_model(n=32)}


@pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real_coeffs", "complex_coeffs"])
@pytest.mark.parametrize("complex_state", [False, True], ids=["real_state", "complex_state"])
@pytest.mark.parametrize("make", ENGINE_MODELS.values(), ids=ENGINE_MODELS)
def test_chebyshev_series_matches_dense_eigh(make, complex_state, complex_coeffs):
    m = make()
    mid, half_span = grid._spectral_bounds(m)
    rng = np.random.default_rng(7)
    decay = np.exp(-np.arange(150) / 30.0)
    coeffs = rng.standard_normal(150) * decay
    psi = rng.standard_normal(m.hilbert_dim)
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal(150) * decay
    if complex_state:
        psi = psi + 1j * rng.standard_normal(m.hilbert_dim)
    psi /= np.linalg.norm(psi)
    out = grid._chebyshev_series(m.apply_hamiltonian, coeffs, psi, mid, half_span)
    energies, vectors = np.linalg.eigh(dense_hamiltonian(m))
    weights = np.polynomial.chebyshev.chebval((energies - mid) / half_span, coeffs)
    oracle = vectors @ (weights * (vectors.T @ psi))
    assert out.dtype == oracle.dtype
    assert float(np.max(np.abs(out - oracle))) <= 1e-12


def test_hot_path_runs_no_complex_fft(monkeypatch):
    # the ground state, the polynomial filter and exp(-iHt) all run on real FFTs
    m = GridModel.from_config(_fixture_model())

    def refuse(*args, **kwargs):
        raise AssertionError("complex n-dimensional FFT on the hot path")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    psi, energy = ground_state(m)
    excited, norm = apply_dipole(m, psi)
    filt = FilterSpec(center=1.8, sigma=0.2, mode="ChebyshevPoly")
    filtered, _ = gaussian_filter(m, filt, excited / norm, energy)
    evolve(m, filtered, 10.0)
    evolve(m, filtered * np.exp(0.3j), 1.0)


def test_h_applications_per_stage_on_two_electron_pipeline(monkeypatch):
    # the photoemission-2e config: one application of H per LOBPCG iteration and
    # per degree of each series, a complex state's two rows in one application
    m = two_electron_model()
    calls = []
    apply_hamiltonian = GridModel.apply_hamiltonian

    def counted(self, state):
        calls.append(state.shape)
        return apply_hamiltonian(self, state)

    monkeypatch.setattr(GridModel, "apply_hamiltonian", counted)

    def applications(stage, *args):
        calls.clear()
        return stage(*args), len(calls)

    (psi, energy), ground = applications(ground_state, m)
    excited, norm = apply_dipole(m, psi)
    filt = FilterSpec(center=1.5, sigma=0.3, mode="ChebyshevPoly")
    (filtered, _), filtering = applications(gaussian_filter, m, filt, excited / norm, energy)
    _, propagation = applications(evolve, m, filtered / np.linalg.norm(filtered), 1.0)
    assert (ground, filtering, propagation) == (46, 80, 31)
