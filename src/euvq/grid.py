"""Real-space grid emulation of the photoemission correlation function.

A periodic 1D (or small 3D) grid carries one or two electrons: ground state
by preconditioned LOBPCG, dipole excitation by the centered position
operator, a Gaussian energy filter (exact eigenbasis or Chebyshev
polynomial), real-time propagation, a hard spherical continuum projector,
and kinetic-energy histogram sampling in the momentum basis.

As in the qubitized circuit, the polynomial filter and exp(-iHt) are both
Chebyshev series in (H - mid) / half_span, with [mid - half_span,
mid + half_span] an interval that holds the spectrum of H, summed
matrix-free by one forward three-term recurrence on real rows. Both series
end by one rule: at the
first degree whose dropped coefficients sum to within the tolerance. The
filter's coefficients come from interpolating the window, the propagator's
are Bessel functions (the Jacobi-Anger expansion), so neither degree is
found by a search or by refining a time step. The ground state needs no
polynomial: locally optimal block preconditioned conjugate gradients
(LOBPCG; Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)), preconditioned by
(T + 1 Ha)^-1, reaches it in a few dozen applications of H.

Grid conventions: N points per dimension (power of two), spacing
h = L / N, positions x_q = (q - N/2) h, momenta k = 2 pi fftfreq(N, h).
The histogram's FFT is orthonormal, so position and momentum norms match
exactly. H reaches the momentum grid through one real-FFT kernel, whose
inverse transforms carry the whole normalization.

Layout rule: as in the first-quantized circuit, each electron has its own
coordinate register, so there are dims * eta axes and each table is built
from a 1D axis table. Potential, kinetic and dipole tables are outer sums
over the coordinates, the radius sums x^2 over one electron's axes, and the
"any electron outside" weight is one minus the outer product of the
electrons' inside weights. A model builds its potential and kinetic tables
once, when it is made.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import REQUIRED, NumericalError, ValidationError, read_fields, read_numbers

EVOLVE_TAIL = 1e-12            # bound on the dropped tail of the exp(-iHt) series
MAX_SERIES_ARGUMENT = 1e6      # largest half_span * t evolve runs: about 1e6 H applications
MAX_FILTER_DEGREE = 20000      # largest Chebyshev degree of the energy filter
FIT_NODES = 64                 # first interpolation size of the filter fit, doubled as needed
GROUND_STATE_TOL = 1e-10       # ||H psi - E psi|| (Ha) at which the ground-state iteration stops,
GROUND_STATE_FLOOR = 1e-15     # or at this much per Ha of spectral range, its rounding floor
GROUND_STATE_ITERATIONS = 500  # default cap on LOBPCG iterations, one H application each
BASIS_DEPENDENCE = 1e-12       # remaining norm below which a unit basis row counts as dependent
EDGE_CELLS = 2                 # grid points next to each box face that edge_density counts
DENSE_BLOCK = 512              # identity rows per H application in dense_hamiltonian


def _check_width(sigma: float, where: str) -> None:
    """Reject a Gaussian width whose square overflows or underflows to 0, naming the field."""
    if not 0 < sigma * sigma < math.inf:
        raise ValidationError(
            f"field 'sigma' in {where} must be finite and nonzero when squared, got {sigma:.3g}")


def _potential_from_config(data, x: np.ndarray) -> np.ndarray:
    pot = read_fields(data, {"kind": (str, "zero"), "params": (dict, {})}, "model.potential")
    kind, params = pot["kind"], pot["params"]
    where = f"{kind} potential params"
    if kind == "zero":
        read_fields(params, {}, where)
        return np.zeros_like(x)
    if kind == "soft_coulomb":
        p = read_fields(params, {"z": (float, 1.0), "a": (float, 1.0), "center": (float, 0.0)},
                        where)
        return -p["z"] / np.sqrt((x - p["center"]) ** 2 + p["a"] ** 2)
    if kind == "gaussian_well":
        p = read_fields(params, {"v0": (float, 1.0), "sigma": (float, 1.0),
                                 "center": (float, 0.0)}, where)
        _check_width(p["sigma"], where)
        return -p["v0"] * np.exp(-((x - p["center"]) ** 2) / (2.0 * p["sigma"] ** 2))
    if kind == "harmonic":
        return 0.5 * read_fields(params, {"k": (float, 1.0)}, where)["k"] * x**2
    if kind == "samples":
        values = read_fields(params, {"values": (list, REQUIRED)}, where)["values"]
        return read_numbers(values, x.shape, "samples potential values")
    raise ValidationError(f"unknown potential kind '{kind}'")


def _check_n_points(n: int) -> None:
    if n < 2 or n & (n - 1) or n > 2**20:
        raise ValidationError("n_points must be a power of two from 2 to 2^20")


def _axis(n: int, box_length: float) -> np.ndarray:
    """Centered positions x_q = (q - N/2) L / N."""
    return (np.arange(n) - n // 2) * (box_length / n)


def _outer_sum(tables) -> np.ndarray:
    """t_1(q_1) + t_2(q_2) + ... on the grid with one axis per table."""
    return functools.reduce(np.add.outer, tables)


@dataclass(frozen=True)
class GridModel:
    """Periodic real-space grid with kinetic + local potential Hamiltonian."""

    dims: int
    n_points: int
    box_length: float       # Bohr
    potential: np.ndarray   # on the 1D axis grid
    eta: int = 1
    interaction_strength: float = 0.0   # two-electron soft-Coulomb repulsion
    interaction_softening: float = 1.0

    def __post_init__(self) -> None:
        if self.dims not in (1, 3):
            raise ValidationError("dims must be 1 or 3")
        if self.eta not in (1, 2):
            raise ValidationError("eta must be 1 or 2 at desk scale")
        n = self.n_points
        _check_n_points(n)
        if self.box_length <= 0:
            raise ValidationError("box_length must be positive")
        v = np.asarray(self.potential, dtype=float)
        if v.shape != (n,):
            raise ValidationError("potential must be sampled on the 1D axis grid")
        object.__setattr__(self, "potential", v)
        if self.dims == 3 and self.eta != 1:
            raise ValidationError("3D mode supports a single electron")
        if self.dims == 3 and n > 32:
            raise ValidationError("3D grids capped at 32 points per dimension")
        if self.hilbert_dim > 2**20:
            raise ValidationError("Hilbert space capped at 2^20")
        coords = self.dims * self.eta
        v = _outer_sum([self.potential] * coords)
        if self.eta == 2 and self.interaction_strength:
            sep = np.subtract.outer(self.axis, self.axis)
            v = v + self.interaction_strength / np.sqrt(sep**2 + self.interaction_softening**2)
        object.__setattr__(self, "_potential_table", v)
        object.__setattr__(self, "_kinetic_table", _outer_sum([self.k_axis**2 / 2.0] * coords))
        object.__setattr__(self, "_kinetic_half", self._kinetic_table[..., :n // 2 + 1])
        if not all(np.isfinite(g).all() for g in (v, self._kinetic_table)):
            raise ValidationError("potential and kinetic energies must be finite on the grid")

    @property
    def spacing(self) -> float:
        return self.box_length / self.n_points

    @property
    def axis(self) -> np.ndarray:
        """Centered positions x_q = (q - N/2) h."""
        return _axis(self.n_points, self.box_length)

    @property
    def k_axis(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_points,) * (self.dims * self.eta)

    @property
    def hilbert_dim(self) -> int:
        return self.n_points ** (self.dims * self.eta)

    def potential_grid(self) -> np.ndarray:
        """Total potential on the configuration grid (incl. e-e repulsion)."""
        return self._potential_table

    def kinetic_grid(self) -> np.ndarray:
        """Kinetic energies ||k||^2 / 2 on the configuration momentum grid."""
        return self._kinetic_table

    def apply_hamiltonian(self, state: np.ndarray) -> np.ndarray:
        """H applied to a state, or to each row of a block of flattened states."""
        potential = self._potential_table * state.reshape((-1,) + self.shape)
        return potential.reshape(state.shape) + self.momentum_multiply(self._kinetic_half, state)

    def momentum_multiply(self, half_table: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Multiply a state, or each row of a block, by a table on the momentum grid.

        ``half_table`` holds the table on the half of the momentum grid that
        the real FFT keeps: rfft on the last axis, fft on the other coordinate
        axes. Every table here is even in k, like the kinetic energy, so the
        product maps real rows to real rows, and a complex state goes through
        as its real and imaginary rows. The transforms are taken one axis at
        a time: rfftn/irfftn give the same bits but cost about a third more
        per call at these sizes (exp(-iHt) on the bundled 1-electron fixture,
        one core, numpy 2.4: 12.6 ms per axis against 16.7 ms with rfftn).
        """
        if np.iscomplexobj(state):
            rows = self.momentum_multiply(half_table, np.stack([state.real, state.imag]))
            return rows[0] + 1j * rows[1]
        psi = state.reshape((-1,) + self.shape)
        inner = range(1, psi.ndim - 1)  # the coordinate axes before the last
        spectrum = np.fft.rfft(psi)
        for axis in reversed(inner):
            spectrum = np.fft.fft(spectrum, axis=axis)
        spectrum *= half_table
        for axis in inner:
            spectrum = np.fft.ifft(spectrum, axis=axis)
        return np.fft.irfft(spectrum, self.n_points).reshape(state.shape)

    @classmethod
    def from_config(cls, data: dict) -> "GridModel":
        """Build from JSON {dims, n_points, box_length, potential: {kind, params}, eta, ...}."""
        cfg = read_fields(data, {
            "dims": (int, 1), "n_points": (int, REQUIRED), "box_length": (float, REQUIRED),
            "potential": (dict, {"kind": "zero"}), "eta": (int, 1),
            "interaction_strength": (float, 0.0), "interaction_softening": (float, 1.0),
        }, "model")
        _check_n_points(cfg["n_points"])  # the axis is sampled before the model exists
        x = _axis(cfg["n_points"], cfg["box_length"])
        with np.errstate(all="ignore"):  # a non-finite energy is rejected by __post_init__
            return cls(potential=_potential_from_config(cfg.pop("potential"), x), **cfg)


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian energy window applied to H - E0."""

    center: float           # Ha above the ground energy
    sigma: float            # Ha
    mode: str = "ExactEigen"
    poly_tolerance: float = 1e-3

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValidationError(
                f"field 'sigma' in FilterSpec must be positive, got {self.sigma:g}")
        _check_width(self.sigma, "FilterSpec")
        if self.mode not in ("ExactEigen", "ChebyshevPoly"):
            raise ValidationError(f"field 'mode' in FilterSpec must be ExactEigen or "
                                  f"ChebyshevPoly, got '{self.mode}'")
        if self.poly_tolerance <= 0:
            raise ValidationError(f"field 'poly_tolerance' in FilterSpec must be positive, "
                                  f"got {self.poly_tolerance:g}")

    def window(self, excitation):
        """Weight exp(-(E - center)^2 / 2 sigma^2) at excitation energies E above E0."""
        with np.errstate(over="ignore"):  # an exponent beyond the float range gives weight 0
            return np.exp(-((excitation - self.center) ** 2) / (2.0 * self.sigma**2))


@dataclass(frozen=True)
class KineticHistogram:
    """Estimated probability mass per kinetic-energy bin."""

    bin_edges: np.ndarray          # Ha, length n_bins + 1
    mass: np.ndarray               # absolute mass (sums to success_probability)
    sampled_mass: np.ndarray | None
    success_probability: float
    shots_used: int
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        if np.any(self.mass < -1e-15):
            raise ValidationError("negative histogram mass")
        if self.mass.sum() > 1.0 + 1e-9:
            raise ValidationError("histogram mass exceeds 1")
        if not 0.0 <= self.success_probability <= 1.0 + 1e-12:
            raise ValidationError("success_probability outside [0, 1]")


def dense_hamiltonian(model: GridModel) -> np.ndarray:
    """Explicit real Hamiltonian matrix (oracle-sized grids only).

    H is applied to DENSE_BLOCK identity rows at a time, so the FFT
    temporaries stay a block's size however large the matrix is.
    """
    dim = model.hilbert_dim
    if dim > 4096:
        raise ValidationError("dense Hamiltonian capped at dimension 4096")
    images = np.empty((dim, dim))  # row i: H applied to unit vector i
    for start in range(0, dim, DENSE_BLOCK):
        stop = min(start + DENSE_BLOCK, dim)
        images[start:stop] = model.apply_hamiltonian(np.eye(stop - start, dim, k=start))
    return images.T


def _orthonormal_basis(block: np.ndarray, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the real rows of ``block``, with the operator's images of them.

    ``images`` holds the operator applied to each row of ``block``. Each row
    in turn is scaled to unit norm and cleared of the rows kept before it by
    classical Gram-Schmidt applied twice, which leaves it orthogonal to
    working precision (Giraud et al., Numer. Math. 101, 87 (2005)). A row
    whose remaining norm is not above BASIS_DEPENDENCE lies in the span of the
    rows before it and is dropped, and so is a row past the dimension of the
    space. The images follow the same combinations, so the operator is not
    applied again.
    """
    basis, h_basis = np.empty_like(block), np.empty_like(images)
    size = 0
    for row, image in zip(block, images):
        scale = np.linalg.norm(row) or 1.0  # a zero row stays zero, and is dropped
        row, image = row / scale, image / scale
        for _ in range(2 if size else 0):
            overlap = basis[:size] @ row
            row -= overlap @ basis[:size]
            image -= overlap @ h_basis[:size]
        rest = np.linalg.norm(row)
        if rest > BASIS_DEPENDENCE:
            np.divide(row, rest, out=basis[size])
            np.divide(image, rest, out=h_basis[size])
            size += 1
    return basis[:size], h_basis[:size]


def eigsh(apply, precondition, start: np.ndarray, upper: float, maxiter: int
          ) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a real symmetric operator by preconditioned LOBPCG.

    ``apply`` maps a real vector to the operator applied to it, and the
    operator's spectrum lies at or below ``upper``. Starting from ``start``,
    each iteration moves x to the lowest Ritz vector on the span of x, its
    residual mapped by ``precondition``, and the previous step p (Knyazev,
    SIAM J. Sci. Comput. 23, 517 (2001), with a block of one). The images of
    x and p are carried along as the same combinations, so an iteration
    applies the operator once, to the preconditioned residual. The next p is
    the Ritz vector's part along the basis rows other than x, which stays
    accurate as the steps shrink, where the difference of successive x would
    cancel. Once the residual is within GROUND_STATE_TOL, or within the
    rounding floor of the operator's range where that is larger, the Ritz
    value and x are returned. Raises NumericalError after ``maxiter``
    iterations.
    """
    x = start / np.linalg.norm(start)
    hx = apply(x)
    step = h_step = np.empty((0, len(x)))
    iterations = 0
    while True:
        theta = float(x @ hx)
        residual = hx - theta * x
        error = float(np.linalg.norm(residual))
        tol = max(GROUND_STATE_TOL, GROUND_STATE_FLOOR * (upper - theta))
        if error <= tol:
            return theta, x
        if iterations == maxiter:
            raise NumericalError(
                f"ground-state iteration stopped after {maxiter} LOBPCG iterations "
                f"with residual {error:.2e} > {tol:.2e}")
        w = precondition(residual)
        basis, h_basis = _orthonormal_basis(np.vstack([x, w, step]),
                                            np.vstack([hx, apply(w), h_step]))
        lowest = np.linalg.eigh(basis @ h_basis.T)[1][:, 0]
        x, hx = lowest @ basis, lowest @ h_basis
        step, h_step = lowest[None, 1:] @ basis[1:], lowest[None, 1:] @ h_basis[1:]
        iterations += 1


def ground_state(model: GridModel, symmetry: str = "none",
                 maxiter: int = GROUND_STATE_ITERATIONS) -> tuple[np.ndarray, float]:
    """Lowest eigenpair of the grid Hamiltonian by preconditioned LOBPCG.

    ``symmetry`` for two-electron models: "none", "symmetric", or
    "antisymmetric" exchange sector. ``eigsh`` (Knyazev 2001) applies H
    itself in every sector; the sector is kept by projecting the random
    start vector and each preconditioned residual onto it. Both projections
    are exact, and LOBPCG's x and step are combinations of those rows, so
    they stay in the sector; the rounding-level leak in the images of H is
    cleared by the next projection. The iteration runs in real arithmetic,
    since H is real symmetric, preconditioned by (T + 1 Ha)^-1; ``maxiter``
    caps its iterations, each of which applies H once. The returned state
    is real. Raises with iteration diagnostics if the residual exceeds 1e-8.
    """
    dim = model.hilbert_dim
    if symmetry not in ("none", "symmetric", "antisymmetric"):
        raise ValidationError("symmetry must be none, symmetric, or antisymmetric")
    if symmetry != "none" and model.eta != 2:
        raise ValidationError("exchange symmetry applies to two-electron models")
    sign = 1.0 if symmetry == "symmetric" else -1.0

    def project(v):
        """The part of ``v`` in the requested exchange sector; ``v`` itself for "none"."""
        if symmetry == "none":
            return v
        psi = v.reshape(model.shape)
        return ((psi + sign * psi.T) / 2.0).reshape(v.shape)

    start = project(np.random.default_rng(12345).standard_normal(dim))
    mid, half_span = _spectral_bounds(model)
    # (T + 1 Ha)^-1 inverts H - E at high momentum, where T dominates
    inverse_kinetic = 1.0 / (model._kinetic_half + 1.0)

    def precondition(v):
        return project(model.momentum_multiply(inverse_kinetic, v))

    _, psi = eigsh(model.apply_hamiltonian, precondition, start, mid + half_span, maxiter)
    psi = psi / np.linalg.norm(psi)
    h_psi = model.apply_hamiltonian(psi)
    energy = float(psi @ h_psi)
    residual = float(np.linalg.norm(h_psi - energy * psi))
    if residual > 1e-8:
        raise NumericalError(
            f"ground-state residual {residual:.2e} > 1e-8 (dim={dim}, tol={GROUND_STATE_TOL})")
    return psi, energy


def position_values(model: GridModel) -> np.ndarray:
    """Summed centered position operator, along each electron's first axis, on the grid."""
    x = model.axis
    return _outer_sum(([x] + [np.zeros_like(x)] * (model.dims - 1)) * model.eta)


def apply_dipole(model: GridModel, state: np.ndarray) -> tuple[np.ndarray, float]:
    """Multiply by the (signed, centered) position grid; returns (D psi, ||D psi||)."""
    out = (position_values(model) * state.reshape(model.shape)).reshape(state.shape)
    return out, float(np.linalg.norm(out))


def gaussian_filter(model: GridModel, filt: FilterSpec, state: np.ndarray,
                    ground_energy: float) -> tuple[np.ndarray, float]:
    """Apply f(H - E0) with f a Gaussian centered at ``filt.center``.

    Both modes weigh energies by ``filt.window``. ExactEigen mode
    diagonalizes the dense real Hamiltonian (dimension capped); ChebyshevPoly
    applies, matrix-free, the Chebyshev series that ``chebyshev_fit`` cuts
    from the window within ``filt.poly_tolerance``.
    Returns the filtered (un-normalized) state and the success probability
    ||f psi||^2 / ||psi||^2.
    """
    norm_in = float(np.linalg.norm(state))
    if norm_in == 0.0:
        raise ValidationError("cannot filter a zero state")

    if filt.mode == "ExactEigen":
        energies, vectors = np.linalg.eigh(dense_hamiltonian(model))
        window = filt.window(energies - ground_energy)
        out = (vectors @ (window * (vectors.T @ state.reshape(-1)))).reshape(state.shape)
    else:
        mid, half_span = _spectral_bounds(model)
        coeffs = chebyshev_fit(lambda x: filt.window(x * half_span + mid - ground_energy),
                               filt.poly_tolerance)
        out = _chebyshev_series(model.apply_hamiltonian, coeffs, state, mid, half_span)
    success = float(np.linalg.norm(out) ** 2 / norm_in**2)
    return out, success


def _spectral_bounds(model: GridModel) -> tuple[float, float]:
    """Centre and half-width of [min V, max V + max T], which holds the spectrum of H."""
    lo = float(np.min(model.potential_grid()))
    hi = float(np.max(model.potential_grid())) + float(np.max(model.kinetic_grid()))
    return (hi + lo) / 2.0, (hi - lo) / 2.0


def _chebyshev_series(apply, coeffs: np.ndarray, state: np.ndarray,
                      mid: float, half_span: float) -> np.ndarray:
    """Apply sum_k c_k T_k(X) to ``state``, X = (A - mid) / half_span, by the forward recurrence.

    T_0 = psi, T_1 = X psi and T_{k+1} = 2 X T_k - T_{k-1} stay real for a
    real state, since A is a real operator; ``apply`` acts on arrays shaped
    like ``state``, the series has degree at least 1, and A is applied degree
    times. The coefficients may be complex: their real and imaginary parts
    weigh the same real T_k, so the even (real) and odd (imaginary) terms of
    exp(-iHt) give its cosine and sine parts from one sequence. The sum is
    real when ``state`` and ``coeffs`` are.
    """
    prev, cur = state, (apply(state) - mid * state) / half_span
    total = coeffs[0] * prev + coeffs[1] * cur
    for c in coeffs[2:].tolist():
        step = apply(cur)
        step -= mid * cur
        step *= 2.0 / half_span
        step -= prev
        prev, cur = cur, step
        total += c * cur
    return total


def chebyshev_coefficients(func, degree: int) -> np.ndarray:
    """Chebyshev interpolation coefficients of ``func`` on [-1, 1].

    Uses the cosine transform of the values at first-kind Chebyshev nodes,
    which is the interpolant through degree + 1 nodes.
    """
    m = degree + 1
    nodes = np.cos(math.pi * (np.arange(m) + 0.5) / m)
    coeffs = _dct2(func(nodes)) / m
    coeffs[0] /= 2.0
    return coeffs


def _dct2(x: np.ndarray) -> np.ndarray:
    """Type-II cosine transform y_k = 2 sum_n x_n cos(pi k (2n + 1) / 2m), from the FFT.

    The length-2m even extension [x, reversed x] has DFT exp(i pi k / 2m) y_k.
    """
    m = len(x)
    spectrum = np.fft.rfft(np.concatenate([x, x[::-1]]))[:m]
    return (np.exp(-0.5j * math.pi * np.arange(m) / m) * spectrum).real


def _dct3(x: np.ndarray) -> np.ndarray:
    """Type-III cosine transform y_k = x_0 + 2 sum_{n>=1} x_n cos(pi n (2k + 1) / 2m).

    The inverse real FFT of length 2m, fed the half spectrum
    x_n exp(i pi n / 2m) padded by one zero, gives y_k / 2m.
    """
    m = len(x)
    half_spectrum = np.append(x * np.exp(0.5j * math.pi * np.arange(m) / m), 0.0)
    return 2 * m * np.fft.irfft(half_spectrum, 2 * m)[:m]


def _sup_error(func, coeffs: np.ndarray) -> float:
    """Largest deviation of a Chebyshev series from ``func`` over [-1, 1].

    Taken on first-kind Chebyshev nodes: sixteen per coefficient, so the
    error between the series' own nodes is resolved at any degree, never fewer
    than 2001, and an odd count, so x = 0 is among them. A type-III cosine
    transform of the zero-padded series gives its values there.
    """
    m = max(2001, 16 * len(coeffs) + 1)
    padded = np.zeros(m)
    padded[:len(coeffs)] = coeffs
    padded[1:] /= 2.0
    xs = np.cos(math.pi * (np.arange(m) + 0.5) / m)
    return float(np.max(np.abs(_dct3(padded) - func(xs))))


def _tail_cut(coeffs: np.ndarray, bound: float, start: int = 0, rest: float = 0.0) -> int:
    """Least degree K >= start at which rest + sum_{k>K} |c_k| is within ``bound``.

    ``rest`` bounds the terms past the end of ``coeffs``. Since |T_k| <= 1 on
    [-1, 1], the dropped tail bounds the sup error of the series cut at K.
    This one rule ends every Chebyshev series here: the energy filter's and
    that of exp(-iHt).
    """
    tails = np.append(np.cumsum(np.abs(coeffs[::-1]))[::-1][1:], 0.0)  # sum_{k>K} |c_k|
    return start + int(np.argmax(tails[start:] + rest <= bound))


def chebyshev_fit(func, tolerance: float) -> np.ndarray:
    """Chebyshev series of degree at least 1 within ``tolerance`` of ``func`` on [-1, 1].

    ``func`` is interpolated at m first-kind nodes, m from FIT_NODES up and
    doubled until the fit holds. Once the top half of the interpolant sums to
    at most tolerance / 4, the series is cut where its dropped tail is within
    tolerance / 2 (the chopping rule of Aurentz & Trefethen, ACM TOMS 43, 33
    (2017)), and the cut series is checked once by ``_sup_error``, which
    catches an interpolant too coarse to see a narrow peak. The top-half test
    sums m / 2 coefficients, so its rounding sets a floor near tolerance 1e-13.
    m stops at the first size above 2 * MAX_FILTER_DEGREE, the first that can
    keep a degree of MAX_FILTER_DEGREE. Raises ValidationError when no m
    meets the tolerance, or when the kept degree is above MAX_FILTER_DEGREE.
    """
    m = FIT_NODES
    while m < 4 * MAX_FILTER_DEGREE:
        coeffs = chebyshev_coefficients(func, m - 1)
        if np.abs(coeffs[m // 2:]).sum() <= tolerance / 4.0:
            kept = coeffs[:_tail_cut(coeffs, tolerance / 2.0, start=1) + 1]
            if len(kept) > MAX_FILTER_DEGREE + 1:
                break
            if _sup_error(func, kept) <= tolerance:
                return kept
        m *= 2
    raise ValidationError(f"field 'poly_tolerance' in FilterSpec needs a filter degree "
                          f"above {MAX_FILTER_DEGREE}, got {tolerance:g}")


def jacobi_anger_bessel(a: float) -> np.ndarray:
    """Bessel values J_0(a) .. J_K(a) of the truncated series for exp(-i a x).

    On [-1, 1], exp(-i a x) = J_0(a) + 2 sum_{k>=1} (-i)^k J_k(a) T_k(x)
    (Jacobi-Anger). ``_tail_cut`` gives the degree K: the smallest order above
    ``a`` with 2 sum_{k>K} |J_k(a)| <= EVOLVE_TAIL, which bounds the sup error
    of the truncated series.
    """
    # |J_k(a)| <= (a/2)^k / k! (DLMF 10.14.4). Past k = a each bound is under
    # half the one before, so all orders above n add up to at most twice the
    # bound at n + 1; n is taken where that remainder is negligible.
    def log_bound(k):
        return k * (math.log(a) - math.log(2.0)) - math.lgamma(k + 1)  # a / 2 may underflow

    first = math.floor(a) + 1
    n = first
    while log_bound(n + 1) > math.log(5e-4 * EVOLVE_TAIL):
        n += 1
    remainder = 2.0 * math.exp(log_bound(n + 1))
    bessel = _bessel_j(n, a)
    # the series' terms are 2 J_k(a) T_k, so its tail is twice that of the J_k
    return bessel[:_tail_cut(bessel, EVOLVE_TAIL / 2.0, first, remainder) + 1]


def _bessel_j(n: int, a: float) -> np.ndarray:
    """J_0(a) .. J_n(a) for a > 0 by Miller's backward recurrence.

    J_{k-1} = (2k / a) J_k - J_{k+1} is run down from an order far enough
    above max(n, a) that the start values' error has died out by order n. It
    is carried as the ratios J_k / J_{k-1} = 1 / (2k / a - J_{k+1} / J_k),
    which do not overflow, and their running products are normalized by
    J_0 + 2 sum_{k>=1} J_2k = 1 (DLMF 10.74(iv), 10.12.4). A J_{k-1} that
    rounds to exactly 0 is taken as a tiny number instead, so the two ratios
    around it multiply to the -1 that J_k = -J_{k-2} asks for.
    """
    start = int(max(n, a)) + 30 + int(math.sqrt(40.0 * max(n, a)))
    ratios = np.zeros(start + 1)
    for k in range(start, 0, -1):
        ratios[k - 1] = 1.0 / ((2.0 * k / a - ratios[k]) or 1e-300)
    relative = np.cumprod(np.append(1.0, ratios[:-1]))   # J_k / J_0
    return relative[:n + 1] / (1.0 + 2.0 * relative[2::2].sum())


def evolve(model: GridModel, state: np.ndarray, t: float) -> np.ndarray:
    """Propagate by exp(-i H t) as a Chebyshev series in the rescaled Hamiltonian.

    Writing H = mid + half_span x, exp(-iHt) = exp(-i mid t) sum_k
    (2 - delta_k0) (-i)^k J_k(a) T_k(x) with a = half_span t (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81, 3967 (1984)). The series stops at the first
    degree above a whose dropped tail is below EVOLVE_TAIL, so a run costs a
    little over a applications of H and its accuracy does not depend on t.
    """
    if not math.isfinite(t):
        raise ValidationError("t must be finite")
    if t < 0:
        raise ValidationError("t must be non-negative")
    mid, half_span = _spectral_bounds(model)
    if half_span * t == 0:  # t = 0, or so short that the series argument underflows
        return state.copy()
    if half_span * t > MAX_SERIES_ARGUMENT:
        raise ValidationError(
            f"t = {t:g} needs a series of degree above {MAX_SERIES_ARGUMENT:g}; shorten t")
    bessel = jacobi_anger_bessel(half_span * t)
    # (-i)^k from a table, free of the rounding a complex power would add
    minus_i_power = np.array([1.0, -1j, -1.0, 1j])[np.arange(len(bessel)) % 4]
    coeffs = 2.0 * minus_i_power * bessel
    coeffs[0] /= 2.0
    return np.exp(-1j * mid * t) * _chebyshev_series(model.apply_hamiltonian, coeffs, state,
                                                     mid, half_span)


def edge_density(model: GridModel, state: np.ndarray) -> float:
    """Probability mass within EDGE_CELLS grid points of any box face.

    Propagation on the periodic grid is only physical until density reaches
    the boundary; callers flag a run invalid once this exceeds ~1e-6.
    """
    psi = np.abs(np.asarray(state).reshape(model.shape)) ** 2
    interior = (slice(EDGE_CELLS, model.n_points - EDGE_CELLS),) * psi.ndim
    total = float(psi.sum())
    if total == 0.0:
        return 0.0
    return float((total - psi[interior].sum()) / total)


def _radius_values_1particle(model: GridModel) -> np.ndarray:
    return np.sqrt(_outer_sum([model.axis**2] * model.dims))


def continuum_project(model: GridModel, state: np.ndarray, r_cutoff: float
                      ) -> tuple[np.ndarray, float]:
    """Zero amplitudes where all particles lie inside the cutoff sphere.

    The hard projector of the circuit's radius test: keeps the "any particle
    outside" subspace; returns the projected (un-normalized) state and the
    retained norm^2 as success probability.
    """
    if r_cutoff <= 0:
        raise ValidationError("r_cutoff must be positive")
    if r_cutoff > model.box_length / 2.0 * math.sqrt(model.dims):
        warnings.warn("r_cutoff exceeds the box half-diagonal; projector is empty",
                      stacklevel=2)
    outside = _radius_values_1particle(model) >= r_cutoff
    psi = state.reshape(model.shape).astype(complex)
    keep = functools.reduce(np.logical_or.outer, [outside] * model.eta)
    out = keep * psi
    norm_in = float(np.linalg.norm(psi))
    if norm_in == 0.0:
        raise ValidationError("cannot project a zero state")
    success = float(np.linalg.norm(out) ** 2 / norm_in**2)
    return out.reshape(state.shape), success


def kinetic_energies(model: GridModel) -> np.ndarray:
    """Single-particle kinetic energies per momentum grid point."""
    return _outer_sum([model.k_axis**2 / 2.0] * model.dims).reshape(-1)


def kinetic_histogram(model: GridModel, state: np.ndarray, bins: np.ndarray,
                      shots: int = 0, seed: int = 0) -> KineticHistogram:
    """Histogram the single-particle kinetic energy of a (projected) state.

    The exact column is the momentum-basis distribution pushed through
    ||k||^2/2 into bins, scaled by the state's norm^2 (the projector success
    probability); with ``shots`` > 0 a sampled estimate with per-bin standard
    errors is included (eta samples per shot, one per electron register).
    """
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("bins must be increasing edges")
    psi = state.reshape(model.shape).astype(complex)
    norm2 = float(np.linalg.norm(psi) ** 2)
    if norm2 == 0.0:
        raise ValidationError("zero-norm state: projection failed upstream")

    amps = np.fft.fftn(psi, norm="ortho")
    ke = kinetic_energies(model)
    joint = (np.abs(amps) ** 2).reshape((len(ke),) * model.eta) / norm2  # conditional
    n_bins = len(edges) - 1

    def deposit(totals, energies, weights):
        """Add ``weights`` to the bins holding ``energies``; energies past the edges drop."""
        idx = np.searchsorted(edges, energies, side="right") - 1
        valid = (idx >= 0) & (idx < n_bins) & (energies < edges[-1])
        np.add.at(totals, idx[valid], np.broadcast_to(weights, energies.shape)[valid])

    # exact per-bin mass: average over particles of P(KE_i in bin)
    exact = np.zeros(n_bins)
    for axis in range(model.eta):
        others = tuple(a for a in range(model.eta) if a != axis)
        deposit(exact, ke, joint.sum(axis=others))
    exact /= model.eta
    mass = exact * norm2

    sampled = stderr = None
    if shots > 0:
        rng = np.random.default_rng(seed)
        flat = joint.reshape(-1)
        draws = rng.choice(len(flat), size=shots, p=flat / flat.sum())
        counts = np.zeros(n_bins)
        for particle in np.unravel_index(draws, joint.shape):
            deposit(counts, ke[particle], 1.0 / model.eta)
        freq = counts / shots
        sampled = freq * norm2
        stderr = norm2 * np.sqrt(np.maximum(freq * (1.0 - freq), 0.0) / shots)

    return KineticHistogram(bin_edges=edges, mass=mass, sampled_mass=sampled,
                            success_probability=norm2, shots_used=shots, stderr=stderr)
