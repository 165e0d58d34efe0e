"""Desk-scale emulation of the coherent time-domain absorption algorithm.

Small dense Hermitian Hamiltonians stand in for the molecular problem. The
resolvent Green's function, its truncated discrete-time Fourier
reconstruction, the product-formula eigenvalue perturbation, and the
Hadamard-test shot statistics are all evaluated through eigendecompositions,
which validates the algorithm's math without building circuits.

Sign convention, pinned by matching the resolvent: the two-sided Fourier sum
G_t = sum_j p(j) exp(-i (H - E_I) tau j) has a real expectation value on any
state and reconstructs the spectral density -Im(G)/pi, so the measured
Hadamard-test component is the real part of <Phi| G_t / beta |Phi>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EUV_OMEGA_HA, REQUIRED, ValidationError, cross_section_prefactor, read_fields,
                   read_numbers)

HERMITICITY_TOL = 1e-12
EIGENPAIR_TOL = 1e-9
MAX_PHASE_ENTRIES = 2**24  # largest dim * (2 j_max + 1) phase table a sum over j allocates
MAX_SHOTS = 2**24          # largest number of Hadamard-test outcomes one draw allocates


@dataclass(frozen=True)
class SpectralScene:
    """Dense Hermitian Hamiltonian + dipole operator + initial eigenstate."""

    dim: int
    hamiltonian: np.ndarray
    dipole: np.ndarray
    ground_state: np.ndarray
    ground_energy: float

    def __post_init__(self) -> None:
        h = np.asarray(self.hamiltonian, dtype=complex)
        d = np.asarray(self.dipole, dtype=complex)
        psi = np.asarray(self.ground_state, dtype=complex)
        if h.shape != (self.dim, self.dim) or d.shape != (self.dim, self.dim):
            raise ValidationError("operator shapes inconsistent with dim")
        if not np.allclose(h, h.conj().T, atol=HERMITICITY_TOL, rtol=0.0):
            raise ValidationError("hamiltonian is not Hermitian to 1e-12")
        if not np.allclose(d, d.conj().T, atol=HERMITICITY_TOL, rtol=0.0):
            raise ValidationError("dipole is not Hermitian to 1e-12")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            raise ValidationError("ground_state must be normalized")
        if np.linalg.norm(h @ psi - self.ground_energy * psi) > EIGENPAIR_TOL:
            raise ValidationError("ground_state is not an eigenpair of H to 1e-9")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dipole", d)
        object.__setattr__(self, "ground_state", psi)


def make_scene(hamiltonian: np.ndarray, dipole: np.ndarray) -> SpectralScene:
    """Build a scene whose initial state is the exact ground state of H."""
    h = np.asarray(hamiltonian, dtype=complex)
    h = (h + h.conj().T) / 2.0
    energies, vectors = np.linalg.eigh(h)
    d = np.asarray(dipole, dtype=complex)
    d = (d + d.conj().T) / 2.0
    return SpectralScene(dim=h.shape[0], hamiltonian=h, dipole=d,
                         ground_state=vectors[:, 0], ground_energy=float(energies[0]))


def random_scene(dim: int, seed: int, spectral_span: float = 4.0,
                 dipole_scale: float = 1.0) -> SpectralScene:
    """Gaussian-ensemble Hermitian scene, rescaled to the given spectral span."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    energies = np.linalg.eigvalsh(h)
    h *= spectral_span / (energies[-1] - energies[0])
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    d = dipole_scale * (b + b.conj().T) / 2.0
    return make_scene(h, d)


def two_level_scene(gap: float, coupling: float = 1.0) -> SpectralScene:
    """Two levels split by ``gap`` with purely off-diagonal dipole ``coupling``."""
    h = np.diag([0.0, gap]).astype(complex)
    d = np.array([[0.0, coupling], [coupling, 0.0]], dtype=complex)
    return SpectralScene(dim=2, hamiltonian=h, dipole=d,
                         ground_state=np.array([1.0, 0.0], dtype=complex),
                         ground_energy=0.0)


def lattice_scene(n_sites: int, hopping: float = 0.25,
                  onsite: float = 0.0) -> SpectralScene:
    """Open 1D tight-binding chain with the position-like alternating dipole."""
    h = np.zeros((n_sites, n_sites), dtype=complex)
    for i in range(n_sites - 1):
        h[i, i + 1] = h[i + 1, i] = -hopping
    h += onsite * np.eye(n_sites)
    d = np.diag(np.linspace(-1.0, 1.0, n_sites)).astype(complex)
    return make_scene(h, d)


@dataclass(frozen=True)
class FourierWeights:
    """Truncated discrete-time Fourier coefficients p(j), j in [-j_max, j_max]."""

    tau: float
    gamma: float
    omega: float
    j_max: int
    weights: np.ndarray
    beta: float

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.j_max, self.j_max + 1)


def fourier_weights(omega: float, gamma: float, tau: float, j_max: int) -> FourierWeights:
    """Coefficients p(j) = (tau/2pi) exp(-gamma tau |j| + i omega tau j)."""
    if tau <= 0 or gamma <= 0 or j_max < 0:
        raise ValidationError("tau, gamma must be positive and j_max >= 0")
    j = np.arange(-j_max, j_max + 1)
    weights = (tau / (2.0 * math.pi)) * np.exp(-gamma * tau * np.abs(j)
                                               + 1j * omega * tau * j)
    beta = float(np.sum(np.abs(weights)))
    return FourierWeights(tau=tau, gamma=gamma, omega=omega, j_max=j_max,
                          weights=weights, beta=beta)


def _spectral_data(scene: SpectralScene):
    """Eigenvalues and |<F|D|I>|^2 weights, computed once per scene."""
    cached = scene.__dict__.get("_spectral_cache")
    if cached is None:
        energies, vectors = np.linalg.eigh(scene.hamiltonian)
        amps = vectors.conj().T @ (scene.dipole @ scene.ground_state)
        cached = (energies, np.abs(amps) ** 2)
        object.__setattr__(scene, "_spectral_cache", cached)
    return cached


def exact_greens(scene: SpectralScene, omega: float, gamma: float) -> complex:
    """Resolvent matrix element <I| D (H - E_I - omega + i gamma)^-1 D |I>."""
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    energies, weights = _spectral_data(scene)
    return complex(np.sum(weights / (energies - scene.ground_energy - omega + 1j * gamma)))


def spectral_density(scene: SpectralScene, omega: float, gamma: float) -> float:
    """Lorentzian-broadened dipole spectral density -Im(G)/pi (non-negative)."""
    return -exact_greens(scene, omega, gamma).imag / math.pi


def spectral_density_grid(scene: SpectralScene, omegas: np.ndarray,
                          gamma: float) -> np.ndarray:
    """Vectorized -Im(G)/pi over a frequency grid (used for peak finding)."""
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    energies, weights = _spectral_data(scene)
    detune = energies[:, None] - scene.ground_energy - np.asarray(omegas)[None, :]
    return (weights[:, None] * (gamma / (detune**2 + gamma**2))).sum(axis=0) / math.pi


def kramers_heisenberg(scene: SpectralScene, omega: float, gamma: float) -> float:
    """Absorption cross-section (4 pi omega / 3c) sum_F |<F|D|I>|^2 L_gamma(E_F - E_I - omega).

    The sum runs over all final states; for a dipole with no static component
    this coincides with the inelastic-only sum, and it is identically
    (4 pi omega / 3c) times -Im of the resolvent element.
    """
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    energies, weights = _spectral_data(scene)
    detune = energies - scene.ground_energy - omega
    lor = gamma / (detune**2 + gamma**2)
    return float(cross_section_prefactor(omega) * np.sum(weights * lor))


def _phase_sum(scene: SpectralScene, tau: float, j_max: int) -> np.ndarray:
    """s_j = sum_F |<F|D|I>|^2 exp(-i (E_F - E_I) tau j) for j in [-j_max, j_max].

    Only the weights p(j) depend on the probe frequency, so one s serves a
    whole scan: <I| D G_t D |I> = sum_j p(j) s_j.
    """
    entries = scene.dim * (2 * j_max + 1)
    if entries > MAX_PHASE_ENTRIES:
        raise ValidationError(
            f"j_max = {j_max} needs a phase table of dim * (2 j_max + 1) = {entries} "
            f"entries; the cap is 2^24 = {MAX_PHASE_ENTRIES}")
    energies, wts = _spectral_data(scene)
    j = np.arange(-j_max, j_max + 1)
    # one complex table, exponentiated in place: 16 bytes per entry at the cap
    phases = np.multiply.outer(energies - scene.ground_energy, -1j * (j * tau))
    return wts @ np.exp(phases, out=phases)


def td_greens(scene: SpectralScene, weights: FourierWeights) -> complex:
    """<I| D G_t D |I> with G_t = sum_j p(j) exp(-i (H - E_I) tau j).

    Converges (in its real part) to the spectral density -Im(exact)/pi as
    j_max grows; the truncation error is bounded by the geometric tail
    2 N^2 (tau/2pi) r^(j_max+1) / (1-r).
    """
    return complex(weights.weights @ _phase_sum(scene, weights.tau, weights.j_max))


def td_truncation_bound(scene: SpectralScene, weights: FourierWeights) -> float:
    """Geometric tail bound on |td sum - untruncated sum|."""
    norm2 = float(np.linalg.norm(scene.dipole @ scene.ground_state) ** 2)
    r = math.exp(-weights.gamma * weights.tau)
    return 2.0 * norm2 * (weights.tau / (2.0 * math.pi)) * r ** (weights.j_max + 1) / (1.0 - r)


def dipole_excited_norm(scene: SpectralScene) -> float:
    """Normalization factor ||D |I>||."""
    return float(np.linalg.norm(scene.dipole @ scene.ground_state))


def trotter_effective_spectrum(fragments: list[np.ndarray], delta: float
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenphases of the second-order product formula and the predicted shifts.

    Returns (exact_energies, effective_energies, y3_matrix, predicted_shifts)
    where effective energies are eigenphases of U2(delta)/(-delta) paired to
    the exact spectrum by eigenvector overlap, and predicted_shifts[l] =
    -delta^2 <E_l| Y3 |E_l> satisfies E'_l = E_l + predicted_shifts[l] + O(delta^4).

    The error operator is Y3 = sum_j ([H_j, [S_j, H_j]]/24 + [S_j, [S_j, H_j]]/12)
    with S_j = sum_{h<j} H_h; the sign is fixed so that the stated eigenvalue
    relation holds for U2 as implemented (fragment 1 innermost).
    """
    if not fragments:
        raise ValidationError("need at least one fragment")
    frags = [np.asarray(f, dtype=complex) for f in fragments]
    h = sum(frags)
    energies, vectors = np.linalg.eigh(h)
    norm = float(np.linalg.norm(h, 2))
    if norm * delta >= math.pi:
        raise ValidationError(
            f"eigenphases wrap at delta={delta:g}; use delta < {math.pi / norm:g}")

    y3 = y3_operator(frags)
    shifts = -delta**2 * np.real(np.einsum("il,ij,jl->l", vectors.conj(), y3, vectors))

    from scipy.optimize import linear_sum_assignment

    u2 = trotter_step_unitary(frags, delta)
    phases, u_vecs = np.linalg.eig(u2)
    effective = np.angle(phases) / (-delta)
    overlap = np.abs(vectors.conj().T @ u_vecs) ** 2
    row, col = linear_sum_assignment(-overlap)
    effective = effective[col[np.argsort(row)]]
    return energies, effective, y3, shifts


def y3_operator(fragments: list[np.ndarray]) -> np.ndarray:
    """Leading product-formula error operator (see trotter_effective_spectrum)."""
    acc = np.zeros_like(np.asarray(fragments[0], dtype=complex))
    partial = np.zeros_like(acc)
    for j, frag in enumerate(fragments):
        if j > 0:
            inner = partial @ frag - frag @ partial  # [S_j, H_j]
            acc += (frag @ inner - inner @ frag) / 24.0
            acc += (partial @ inner - inner @ partial) / 12.0
        partial = partial + frag
    return acc


def trotter_step_unitary(fragments: list[np.ndarray], delta: float) -> np.ndarray:
    """Second-order step: fragment 1 applied in full, later fragments halved around it."""
    from scipy.linalg import expm

    u = expm(-1j * np.asarray(fragments[0], dtype=complex) * delta)
    for frag in fragments[1:]:
        half = expm(-1j * np.asarray(frag, dtype=complex) * delta / 2.0)
        u = half @ u @ half
    return u


@dataclass(frozen=True)
class HadamardEstimate:
    """Outcome of a simulated Hadamard-test run."""

    mean_z: float
    estimate: float
    exact_z: float
    shots: int
    stderr: float


def _expected_z(td: complex, norm: float, beta: float) -> float:
    """E[Z] = Re td / (N^2 beta) for the time-domain value td = <I| D G_t D |I>."""
    if norm == 0.0:
        return 0.0
    return float((td / (norm**2 * beta)).real)


def hadamard_exact_z(scene: SpectralScene, weights: FourierWeights) -> float:
    """Ideal expectation E[Z] = Re <Phi| G_t / beta |Phi> on |Phi> = D|I>/N."""
    return _expected_z(td_greens(scene, weights), dipole_excited_norm(scene), weights.beta)


def _check_shots(shots: int) -> None:
    if not 1 <= shots <= MAX_SHOTS:
        raise ValidationError(f"shots must be from 1 to 2^24 = {MAX_SHOTS}, got {shots}")


def _draw_z(exact_z: float, shots: int, seed: int) -> np.ndarray:
    """``shots`` outcomes in {-1, +1}, each +1 with probability (1 + E[Z])/2."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random(shots) < (1.0 + exact_z) / 2.0, 1.0, -1.0)


def hadamard_shot_simulator(scene: SpectralScene, weights: FourierWeights,
                            shots: int, seed: int,
                            alpha: float | None = None) -> HadamardEstimate:
    """Draw Z in {-1, +1} shots and reconstruct alpha * N * beta * mean(Z).

    The success-postselected ideal model: each shot is +1 with probability
    (1 + E[Z])/2. Deterministic under a fixed seed.
    """
    _check_shots(shots)
    if alpha is None:
        alpha = cross_section_prefactor(EUV_OMEGA_HA)
    exact = hadamard_exact_z(scene, weights)
    draws = _draw_z(exact, shots, seed)
    mean_z = float(np.mean(draws))
    scale = alpha * dipole_excited_norm(scene) * weights.beta
    stderr = scale * float(np.std(draws, ddof=1) / math.sqrt(shots)) if shots > 1 else scale
    return HadamardEstimate(mean_z=mean_z, estimate=scale * mean_z,
                            exact_z=exact, shots=shots, stderr=stderr)


def scene_to_dict(scene: SpectralScene) -> dict:
    def split(m):
        return {"re": np.real(m).ravel().tolist(), "im": np.imag(m).ravel().tolist()}
    return {"dim": scene.dim, "hamiltonian": split(scene.hamiltonian),
            "dipole": split(scene.dipole), "ground_state": split(scene.ground_state)}


def scene_from_dict(data: dict) -> SpectralScene:
    """Parse {dim, hamiltonian: {re, im}, dipole: {re, im}, optional ground_state}."""
    scene = read_fields(data, {"dim": (int, REQUIRED), "hamiltonian": (dict, REQUIRED),
                               "dipole": (dict, REQUIRED), "ground_state": (dict, None)},
                        "scene")
    dim = scene["dim"]
    if dim < 1:
        raise ValidationError("scene dim must be at least 1")

    def join(name, shape):
        entry = read_fields(scene[name], {"re": (list, REQUIRED), "im": (list, None)},
                            f"scene.{name}")
        re = read_numbers(entry["re"], shape, f"scene.{name}.re")
        if entry["im"] is None:
            return re + 0j
        return re + 1j * read_numbers(entry["im"], shape, f"scene.{name}.im")

    h = join("hamiltonian", (dim, dim))
    d = join("dipole", (dim, dim))
    for name, mat in (("hamiltonian", h), ("dipole", d)):
        if not np.allclose(mat, mat.conj().T, atol=HERMITICITY_TOL, rtol=0.0):
            raise ValidationError(f"scene {name} is not Hermitian")
    if scene["ground_state"] is not None:
        psi = join("ground_state", (dim,))
        energy = float(np.real(psi.conj() @ h @ psi))
        return SpectralScene(dim=dim, hamiltonian=h, dipole=d,
                             ground_state=psi, ground_energy=energy)
    return make_scene(h, d)


def spectrum_rows(scene: SpectralScene, omegas, gamma: float, tau: float,
                  j_max: int, shots: int, seed: int) -> list[dict]:
    """Cross-section columns (exact, time-domain, sampled) per frequency.

    All three columns share the (4 pi omega / 3c) * pi-scaled spectral-density
    convention so they agree in the large-j_max, many-shot limit. The
    frequency-independent phase sum is formed once; each frequency then costs
    one dot product with its weights, whose value gives both sigma_td and the
    E[Z] that frequency k draws its shots from, with seed ``seed + k``.
    Raises ValidationError if gamma and tau leave any value non-finite.
    """
    _check_shots(shots)
    rows = []
    with np.errstate(all="ignore"):  # a non-finite row is rejected below
        phase_sum = _phase_sum(scene, tau, j_max)
        norm = dipole_excited_norm(scene)
        for k, omega in enumerate(omegas):
            prefactor = cross_section_prefactor(omega)
            weights = fourier_weights(omega, gamma, tau, j_max)
            td = complex(weights.weights @ phase_sum)
            draws = _draw_z(_expected_z(td, norm, weights.beta), shots, seed + k)
            scale = prefactor * math.pi * weights.beta * norm**2
            row = {
                "omega_Ha": float(omega),
                "sigma_exact": float(kramers_heisenberg(scene, omega, gamma)),
                "sigma_td": float(prefactor * math.pi * td.real),
                "sigma_sampled": float(scale * float(np.mean(draws))),
                "stderr": float(scale / math.sqrt(shots)),
            }
            if not all(map(math.isfinite, row.values())):
                raise ValidationError(
                    f"spectrum is not finite at omega = {float(omega):g} Ha: "
                    f"gamma = {gamma:g} or tau = {tau:g} is out of range")
            rows.append(row)
    return rows

