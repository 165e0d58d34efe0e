"""Desk-scale emulation of the coherent time-domain absorption algorithm.

Small dense Hermitian Hamiltonians stand in for the molecular problem, and
everything is evaluated through eigendecompositions, which validates the
algorithm's math without building circuits. A scene diagonalizes its H once,
when it is made, and keeps the excitation energies E_F - E_I and line
weights |<F|D|I>|^2 that every absorption quantity reads. ``spectrum_rows``
is the one absorption path: per frequency it gives the resolvent reference,
its truncated discrete-time Fourier reconstruction and a Hadamard-test
estimate from a drawn count of +1 outcomes. The product-formula eigenvalue
perturbation is emulated here as well.

The reference is -Im(G)/pi for the resolvent element
G = <I| D (H - E_I - omega + i gamma)^-1 D |I>, the Lorentzian sum
(1/pi) sum_F |<F|D|I>|^2 gamma / ((E_F - E_I - omega)^2 + gamma^2).
Sign convention, pinned by matching it: the two-sided Fourier sum
G_t = sum_j p(j) exp(-i (H - E_I) tau j), with
p(j) = (tau/2pi) exp(-gamma tau |j| + i omega tau j) for j in [-j_max, j_max],
has a real expectation value on any state and reconstructs -Im(G)/pi, so the
measured Hadamard-test component is the real part of <Phi| G_t / beta |Phi>
on |Phi> = D|I> / ||D|I>||, with beta = sum_j |p(j)| in the closed form of
``absorption.beta_bound``.

Line by line the sum over j is geometric. With w_F = |<F|D|I>|^2,
theta_F = (omega - (E_F - E_I)) tau, r = exp(-gamma tau) and J = j_max,
td(omega) = (tau/2pi) sum_F w_F K(theta_F) for the real kernel
K(theta) = sum_{|j|<=J} r^|j| exp(i j theta), whose closed form is
K = [(1 - r) (1 - r^(J+1) + r (1 - r^J) + 4 r^(J+1) sin^2(J theta/2))
     + 4 r^(J+1) sin(theta/2) sin((2J+1) theta/2)] / |1 - r exp(i theta)|^2,
|1 - r exp(i theta)|^2 = (1 - r)^2 + 4 r sin^2(theta/2). As J grows, K tends
to the Poisson kernel (1 - r^2) / |1 - r exp(i theta)|^2. A scan evaluates K
per line and frequency, so its cost does not grow with j_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import absorption
from .core import (MAX_SHOTS, REQUIRED, ValidationError, _at_least, _between, _check, _POSITIVE,
                   cross_section_prefactor, read_fields, read_numbers)

HERMITICITY_TOL = 1e-12
EIGENPAIR_TOL = 1e-9
MAX_PHASE_ENTRIES = 2**24  # largest dim * (2 j_max + 1), the (line, step) terms of the sum over j
SCAN_BLOCK_ENTRIES = 2**14  # largest frequencies * dim detuning table of a scan block
SPECTRUM_COLUMNS = ("omega_Ha", "sigma_exact", "sigma_td", "sigma_sampled", "stderr")
_SHOTS = _between(1, MAX_SHOTS)
_GAMMA = (lambda g: 0 < g and g * g < math.inf, "positive and finite when squared")


@dataclass(frozen=True)
class SpectralScene:
    """Dense Hermitian Hamiltonian + dipole operator + initial eigenstate.

    ``ground_state`` None means the lowest eigenvector of H. The scene
    diagonalizes H once, when it is made, and keeps what every quantity
    downstream reads: the excitation energies E_F - E_I and the line weights
    |<F|D|I>|^2. ``dim`` and ``ground_energy`` = <I|H|I> are derived too.
    """

    hamiltonian: np.ndarray
    dipole: np.ndarray
    ground_state: np.ndarray | None = None
    dim: int = field(init=False)
    ground_energy: float = field(init=False)
    excitations: np.ndarray = field(init=False, repr=False)
    line_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        h = np.asarray(self.hamiltonian, dtype=complex)
        d = np.asarray(self.dipole, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or d.shape != h.shape:
            raise ValidationError("operator shapes inconsistent with dim")
        for name, m in (("hamiltonian", h), ("dipole", d)):
            skew = float(np.max(np.abs(m - m.conj().T)))
            if not skew <= HERMITICITY_TOL:
                raise ValidationError(f"field '{name}' in scene must be Hermitian to 1e-12; it "
                                      f"differs from its conjugate transpose by up to {skew:.3g}")
        energies, vectors = np.linalg.eigh(h)
        if self.ground_state is None:
            psi, energy = vectors[:, 0], float(energies[0])
        else:
            psi = np.asarray(self.ground_state, dtype=complex)
            energy = float(np.real(psi.conj() @ h @ psi))
        norm = float(np.linalg.norm(psi))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValidationError(f"field 'ground_state' in scene must be normalized, "
                                  f"got norm {norm:.12g}")
        residual = float(np.linalg.norm(h @ psi - energy * psi))
        if not residual <= EIGENPAIR_TOL:
            raise ValidationError(f"field 'ground_state' in scene must be an eigenvector of "
                                  f"'hamiltonian' to 1e-9, got residual {residual:.3g}")
        amps = vectors.conj().T @ (d @ psi)
        for name, value in (("hamiltonian", h), ("dipole", d), ("ground_state", psi),
                            ("dim", h.shape[0]), ("ground_energy", energy),
                            ("excitations", energies - energy),
                            ("line_weights", np.abs(amps) ** 2)):
            object.__setattr__(self, name, value)


def random_scene(dim: int, seed: int) -> SpectralScene:
    """Gaussian-ensemble Hermitian scene, rescaled to a spectral span of 4 Ha."""
    if dim < 2:  # one level has no span to rescale, and no excitation
        raise ValidationError(f"random_scene needs dim >= 2, got dim = {dim}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    energies = np.linalg.eigvalsh(h)
    h *= 4.0 / (energies[-1] - energies[0])
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return SpectralScene(h, (b + b.conj().T) / 2.0)


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
    norm = max(abs(float(energies[0])), abs(float(energies[-1])))
    if norm * delta >= math.pi:
        raise ValidationError(
            f"eigenphases wrap at delta={delta:g}; use delta < {math.pi / norm:g}")

    y3 = y3_operator(frags)
    shifts = -delta**2 * np.real(np.einsum("il,ij,jl->l", vectors.conj(), y3, vectors))

    u2 = trotter_step_unitary(frags, delta)
    phases, u_vecs = np.linalg.eig(u2)
    effective = np.angle(phases) / (-delta)
    overlap = np.abs(vectors.conj().T @ u_vecs) ** 2
    return energies, effective[_pair_by_overlap(overlap)], y3, shifts


def _pair_by_overlap(overlap: np.ndarray) -> np.ndarray:
    """Column paired with each row, taking the largest remaining overlap first.

    Each eigenvector of U2 lies within O(delta^2) of one eigenvector of H, so
    its largest overlap singles out its partner.
    """
    n = len(overlap)
    partner = np.full(n, -1)
    taken = np.zeros(n, dtype=bool)
    for flat in np.argsort(-overlap, axis=None, kind="stable"):
        row, col = divmod(int(flat), n)
        if partner[row] < 0 and not taken[col]:
            partner[row], taken[col] = col, True
    return partner


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
    u = _hermitian_exp(fragments[0], delta)
    for frag in fragments[1:]:
        half = _hermitian_exp(frag, delta / 2.0)
        u = half @ u @ half
    return u


def _hermitian_exp(fragment: np.ndarray, t: float) -> np.ndarray:
    """exp(-i F t) for a Hermitian F, as V exp(-i E t) V^dagger from its eigenpairs."""
    energies, vectors = np.linalg.eigh(np.asarray(fragment, dtype=complex))
    return (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T


def scene_to_dict(scene: SpectralScene) -> dict:
    def split(m):
        return {"re": np.real(m).ravel().tolist(), "im": np.imag(m).ravel().tolist()}
    return {"dim": scene.dim, "hamiltonian": split(scene.hamiltonian),
            "dipole": split(scene.dipole), "ground_state": split(scene.ground_state)}


def scene_from_dict(data: dict) -> SpectralScene:
    """Parse {dim, hamiltonian: {re, im}, dipole: {re, im}, optional ground_state}."""
    scene = read_fields(data, {"dim": (int, REQUIRED, _at_least(1)),
                               "hamiltonian": (dict, REQUIRED), "dipole": (dict, REQUIRED),
                               "ground_state": (dict, None)}, "scene")
    dim = scene["dim"]

    def join(name, shape):
        where = f"scene.{name}"
        entry = read_fields(scene[name], {"re": (list, REQUIRED), "im": (list, None)}, where)
        re = read_numbers(entry["re"], shape, "re", where)
        if entry["im"] is None:
            return re + 0j
        return re + 1j * read_numbers(entry["im"], shape, "im", where)

    h = join("hamiltonian", (dim, dim))
    d = join("dipole", (dim, dim))
    psi = None if scene["ground_state"] is None else join("ground_state", (dim,))
    return SpectralScene(h, d, psi)


def _phase_terms(dim: int):
    """The rule on j_max at ``dim`` lines: the sum over j has at most MAX_PHASE_ENTRIES terms."""
    return (lambda j: dim * (2 * j + 1) <= MAX_PHASE_ENTRIES,
            f"at most {(MAX_PHASE_ENTRIES // dim - 1) // 2} at dim {dim}, so that the sum over j "
            f"has dim * (2 j_max + 1) <= 2^24 = {MAX_PHASE_ENTRIES} terms")


def spectrum_rows(scene: SpectralScene, omegas, gamma: float, tau: float,
                  j_max: int, shots: int, seed: int) -> list[dict]:
    """Cross-section columns (exact, time-domain, sampled) per frequency.

    ``scene`` is read only through its spectral measure, the excitations
    E_F - E_I and line weights |<F|D|I>|^2, so any object holding those two
    arrays serves. All three columns share the (4 pi omega / 3c) * pi-scaled
    spectral-density convention so they agree in the large-j_max, many-shot
    limit: sigma_exact is the Lorentzian sum (the Kramers-Heisenberg form),
    sigma_td reads Re td, whose truncation error is at most the geometric
    tail 2 N^2 (tau/2pi) r^(j_max+1) / (1 - r), and sigma_sampled is N^2 beta
    times the mean of ``shots`` outcomes Z = +-1, each +1 with probability
    (1 + E[Z]) / 2 for E[Z] = td / (N^2 beta). Here N^2 = ||D|I>||^2 is the
    sum of the line weights (the eigenbasis is complete), and beta is the
    estimator's :func:`euvq.absorption.beta_bound`; neither depends on omega.
    td is summed through the kernel K of the module docstring: 1 - r^n comes
    from expm1, so K keeps its digits as gamma tau -> 0, and
    |1 - r exp(i theta)| from hypot, so nothing is squared into underflow; K
    is finite for every gamma tau > 0. theta is reduced to [-pi, pi] first,
    so a line aliased by 2 pi / tau is as accurate as a resonant one. Each
    block of frequencies costs one detuning table omega - (E_F - E_I) of at
    most SCAN_BLOCK_ENTRIES entries where one frequency's row fits. It feeds
    both the Lorentzian and K, so a scan costs O(frequencies * lines)
    whatever j_max is. One ``np.random.default_rng(seed)`` draws each
    frequency's count of +1 outcomes, Binomial(shots, (1 + E[Z]) / 2), in
    frequency order. Each table row is summed on its own, not by a
    matrix-vector product whose rounding can depend on the number of rows,
    and a block's one draw takes the stream as per-frequency draws do, so the
    rows do not depend on the block split. ``shots``, ``gamma``, ``tau``,
    j_max >= 0 and j_max's cap dim * (2 j_max + 1) <= MAX_PHASE_ENTRIES, the
    count of the sum's terms, are checked first. Raises ValidationError if
    gamma and tau leave any value non-finite.
    """
    weights, excitations = scene.line_weights, scene.excitations
    _check(shots, _SHOTS, "shots", "spectrum_rows")
    _check(gamma, _GAMMA, "gamma", "spectrum_rows")
    _check(tau, _POSITIVE, "tau", "spectrum_rows")
    _check(j_max, _at_least(0), "j_max", "spectrum_rows")
    _check(j_max, _phase_terms(len(excitations)), "j_max", "spectrum_rows")
    beta = absorption.beta_bound(tau, gamma, j_max)
    omegas = np.asarray(omegas, dtype=float)
    block = max(1, SCAN_BLOCK_ENTRIES // len(excitations))
    rng = np.random.default_rng(seed)
    rows = []
    with np.errstate(all="ignore"):  # a non-finite row is rejected below
        # K's scalars 1 - r, r, r^(J+1) and (1 - r^(J+1)) + r (1 - r^J); J = 0 sums no
        # term, even where gamma tau is inf and inf * 0 would give NaN
        decay = gamma * tau
        j_decay = decay * j_max if j_max else 0.0
        one_minus_r, r, r_next = -math.expm1(-decay), math.exp(-decay), math.exp(-j_decay - decay)
        resonant = -math.expm1(-j_decay - decay) - r * math.expm1(-j_decay)
        norm2 = float(weights.sum())
        for start in range(0, len(omegas), block):
            chunk = omegas[start:start + block]
            detune = np.subtract.outer(chunk, excitations)  # Lorentzian and K are even in it
            theta = detune * tau
            theta -= (2.0 * math.pi) * np.rint(theta / (2.0 * math.pi))
            half = np.sin(theta / 2.0)
            wave = np.sin((j_max / 2.0) * theta)
            gap = np.hypot(one_minus_r, (2.0 * math.sqrt(r)) * half)  # |1 - r exp(i theta)|
            kernel = (one_minus_r / gap) * (resonant + 4.0 * r_next * wave * wave)
            kernel += 4.0 * r_next * (half / gap) * np.sin((j_max + 0.5) * theta)
            kernel /= gap
            tds = (tau / (2.0 * math.pi)) * np.sum(weights * kernel, axis=-1)
            prefactor = cross_section_prefactor(chunk)
            scale = prefactor * math.pi * beta * norm2
            exact = prefactor * np.sum(weights * (gamma / (detune**2 + gamma**2)), axis=-1)
            td = prefactor * math.pi * tds
            stderr = scale / math.sqrt(shots)  # finite only where scale is
            finite = np.isfinite([chunk, exact, td, stderr]).all(axis=0)
            if not finite.all():
                raise ValidationError(
                    f"spectrum is not finite at omega = {chunk[np.argmin(finite)]:g} Ha: "
                    f"gamma = {gamma:g} or tau = {tau:g} is out of range")
            exact_z = tds / (norm2 * beta) if norm2 * beta else np.zeros_like(tds)
            # rounding can push (1 + E[Z]) / 2 just past [0, 1], where the draw refuses it
            plus = rng.binomial(shots, np.clip((1.0 + exact_z) / 2.0, 0.0, 1.0))
            # (2 plus - shots) / shots is the mean of the +-1 outcomes, exactly
            columns = [chunk, exact, td, scale * ((2 * plus - shots) / shots), stderr]
            rows.extend(dict(zip(SPECTRUM_COLUMNS, row)) for row in np.transpose(columns).tolist())
    return rows
