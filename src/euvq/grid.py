"""Real-space grid emulation of the photoemission correlation function.

A periodic 1D (or small 3D) grid carries one or two electrons: ground state,
dipole excitation by the centered position operator, a Gaussian energy
filter (exact eigenbasis or Chebyshev polynomial), real-time propagation, a
hard spherical continuum projector, and kinetic-energy histogram sampling in
the momentum basis; :func:`filter_and_evolve` runs the stages up to the
propagated state. H and the dipole are exchange symmetric and the
two-electron ground state is the lowest spatially symmetric state, so a run
stays in that sector, where H applies by a kernel of its own up to
KINETIC_MATRIX_POINTS points (:meth:`GridModel._apply_sector`).

A model is checked once, when it is made (:class:`GridModel`): first each
field's kind and declared range, alike for JSON (:meth:`GridModel.from_config`)
and Python, then what needs several fields: the sizes, the repulsion at
r = 0, and an energy reach that the ground state's residual bar can resolve,
which also refuses every energy that is NaN or infinite. The time is checked
by :func:`check_time` first thing in :func:`filter_and_evolve`, in both
modes, and in :func:`evolve`. The cutoff is checked by
:func:`check_r_cutoff` in :func:`continuum_project`, the last stage, so the
CLI runs that check before the pipeline as well.

As in the qubitized circuit, the polynomial filter and exp(-iHt) are both
Chebyshev series in (H - mid) / half_span, with
[mid - half_span, mid + half_span] an interval that holds the spectrum of H,
summed matrix-free by one forward three-term recurrence on real rows. Each
step is one call of H's own kernel on the potential and kinetic tables
scaled once per series, so that it applies 2 (H - mid) / half_span. Both
series end by one rule: at the first degree whose dropped coefficients sum
to within the tolerance. The filter's coefficients come from interpolating
the window, the propagator's are Bessel functions (the Jacobi-Anger
expansion), so neither degree is found by a search or by refining a time
step. One routine gives one electron's ground pair (:func:`_axis_ground`)
in every ExactEigen run, and in every mode on grids that hold K: H is the
one-axis Hamiltonian h1 = diag(v) + K summed over the ``dims`` axes, so
the ground state is the tensor product of h1's lowest eigenvector
(:func:`_axis_eigh`, by the blocks of the axis inversion when v is even),
polished on dims h1 where the stop rule needs it. An ExactEigen run also
takes the window and exp(-iHt) from h1's eigensystem (:func:`_eigensystem`):
the filtered state's amplitudes on H's eigenvectors take the phases
exp(-iEt), no series is summed and H is never applied. Two electrons run on
the series alone; their ground state, and that of one electron on a line
too long to hold K, comes from LOBPCG (:func:`eigsh`). Every ground pair is
finished once, in eigsh or from an eigendecomposition, under one stop rule
read on H's spectrum (:func:`_converged`).

Grid conventions: N points per dimension (power of two), spacing
h = L / N, positions x_q = (q - N/2) h, momenta k = 2 pi fftfreq(N, h).
The histogram's FFT is orthonormal, so position and momentum norms match
exactly. H applies the kinetic energy by one N x N circulant matrix K per
coordinate axis, a BLAS product each, up to KINETIC_MATRIX_POINTS points,
and above by a real-FFT kernel, whose inverse transforms carry the whole
normalization.

Layout rule: as in the first-quantized circuit, each electron has its own
coordinate register, so there are dims * eta axes. Potential, kinetic and
dipole tables are outer sums of 1D axis tables over them, the radius test
sums the integer offsets q^2 over one electron's axes, and "any electron
outside" is the outer OR of the electrons' masks. A model builds its
tables, K and [mid - half_span, mid + half_span] once, when it is made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qarith
from .core import (REQUIRED, NumericalError, ValidationError, _check_fields, _field_spec,
                   _float_array, _one_of, _POSITIVE, _ranged, _refuse, read_fields, read_numbers)

EVOLVE_TAIL = 1e-12            # bound on the dropped tail of the exp(-iHt) series
MAX_SERIES_ARGUMENT = 1e6      # largest half_span * t evolve runs: about 1e6 H applications
MAX_FILTER_DEGREE = 20000      # largest Chebyshev degree of the energy filter
FIT_NODES = 64                 # first interpolation size of the filter fit, doubled as needed
GROUND_STATE_TOL = 1e-10       # ||H psi - E psi|| (Ha) at which the ground-state iteration stops,
GROUND_STATE_FLOOR = 1e-15     # or at this much per Ha of spectral range, its rounding floor
GROUND_STATE_ITERATIONS = 500  # cap on LOBPCG iterations, one H application each
GROUND_STATE_BAR = 1e-8        # ||H psi - E psi|| (Ha) above which ground_state raises
BASIS_DEPENDENCE = 1e-12       # remaining norm below which a unit basis row counts as dependent
EDGE_CELLS = 2                 # grid points next to each box face that edge_density counts
# Largest n_points at which H applies the kinetic energy by one N x N matrix per
# axis rather than by the real-FFT kernel. Median us per application of H to one
# real vector, FFT vs matrix (2 shared vCPUs, numpy 2.4, OpenBLAS 0.3.31):
#   1D, 1 electron,  N = 64 / 128 / 256 / 512 / 2048:  28 / 33 / 34 / 40 / 75
#                                             vs matrix   9 / 11 / 17 / 90 / 860
#   1D, 2 electrons, N = 32 / 64 / 128 / 256 / 512:     47 / 75 / 231 / 1363 / 6294
#                                             vs matrix  12 / 31 / 164 / 1169 / 6941
#   3D, N = 8 / 16 / 32 (its cap):                      110 / 123 / 726
#                                             vs matrix  23 / 26 / 220
# Both 1D layouts cross between 256 and 512 points, so one cut by n_points serves
# all three; the kernels agree within 2e-15 of max T up to 256 points.
KINETIC_MATRIX_POINTS = 256
# Shift (Ha) of the ground state's preconditioner in h1's product eigenbasis
# above the lowest entry of H's diagonal there. LOBPCG applications to the
# two-electron ground state at gaps of 0.01 / 0.03 / 0.1 / 0.3 / 1 Ha, on the
# benchmark's model (soft Coulomb z 2, repulsion 1, box 48) and, last, on it
# at repulsion 10 and softening 0.5:
#   2e 32^2:  15 / 13 / 12 / 13 / 16     2e 64^2:  13 / 13 / 12 / 13 / 17
#   2e 128^2: 13 / 13 / 12 / 13 / 17     2e 256^2: 13 / 13 / 12 / 13 / 17
#   2e 32^2, repulsion 10:  104 / 85 / 81 / 88 / 96
SEPARABLE_GAP = 0.1


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
        p = read_fields(params, {
            "v0": (float, 1.0),
            "sigma": (float, 1.0, (lambda s: 0 < s * s < math.inf, "finite and nonzero when "
                                                                    "squared")),
            "center": (float, 0.0)}, where)
        return -p["v0"] * np.exp(-((x - p["center"]) ** 2) / (2.0 * p["sigma"] ** 2))
    if kind == "harmonic":
        return 0.5 * read_fields(params, {"k": (float, 1.0)}, where)["k"] * x**2
    if kind == "samples":
        values = read_fields(params, {"values": (list, REQUIRED)}, where)["values"]
        return read_numbers(values, x.shape, "field 'values' in samples potential params")
    _refuse("kind", "model.potential", "zero, soft_coulomb, gaussian_well, harmonic or samples",
            kind)


def _axis(n: int, box_length: float) -> np.ndarray:
    """Centered positions x_q = (q - N/2) L / N."""
    return (np.arange(n) - n // 2) * (box_length / n)


def _outer_sum(tables) -> np.ndarray:
    """t_1(q_1) + t_2(q_2) + ... on the grid with one axis per table."""
    return functools.reduce(np.add.outer, tables)


def _repulsion(model: GridModel) -> np.ndarray:
    """The two electrons' soft-Coulomb repulsion on the N x N grid.

    It is the part of the potential table that is not a sum over the axes.
    """
    separation = np.subtract.outer(model.axis, model.axis)
    return model.interaction_strength / np.sqrt(separation**2 + model.interaction_softening**2)


def _kinetic_circulant(k_axis: np.ndarray) -> np.ndarray:
    """The one-axis kinetic matrix K, the matrix of the real-FFT kernel's transforms on one axis.

    K is the circulant whose column is the inverse real FFT of the axis table
    k^2 / 2: K[i, j] = column[i - j mod N]. Row i is the window of the reversed
    column, repeated twice, that starts at N - 1 - i, so K is one copy of a
    strided view, with no N^2 index table.
    """
    n = len(k_axis)
    reversed_column = np.fft.irfft(k_axis[:n // 2 + 1] ** 2 / 2.0, n)[::-1]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([reversed_column, reversed_column]), n)
    return windows[n - 1::-1].copy()


def _along_axes(matrix: np.ndarray, state: np.ndarray, coords: int) -> np.ndarray:
    """(M x M x ... x M) psi: ``matrix`` applied along each of the ``coords`` axes of a flat state.

    Each pass applies M to the last axis, as rows times M^T, and moves that
    axis to the front, so after one pass per axis each axis has had M once
    and the axes are back in their order.
    """
    n = len(matrix)
    for _ in range(coords):
        state = (state.reshape(-1, n) @ matrix.T).T
    return state.reshape(-1)


@dataclass(frozen=True, kw_only=True)
class GridModel:
    """Periodic real-space grid with kinetic + local potential Hamiltonian.

    Its spectrum lies in [mid - half_span, mid + half_span], set when it is made.
    """

    dims: int = _ranged(_one_of(1, 3), 1)
    n_points: int = _ranged((lambda n: 2 <= n <= 2**20 and not n & (n - 1),
                             "a power of two from 2 to 2^20"))
    box_length: float       # Bohr
    potential: np.ndarray   # on the 1D axis grid
    eta: int = _ranged(_one_of(1, 2), 1)
    interaction_strength: float = 0.0   # two-electron soft-Coulomb repulsion
    interaction_softening: float = 1.0

    def __post_init__(self) -> None:
        _check_fields(self, "model")
        n, coords = self.n_points, self.dims * self.eta
        if not (0 < self.spacing and self.box_length * self.box_length < math.inf):
            # the spacing divides the momenta, and the square bounds ||D psi||^2
            _refuse("box_length", "model", "positive, with a nonzero spacing box_length / "
                    "n_points and a finite square", self.box_length)
        v = _float_array(self.potential, (n,), "potential", "model")  # on the 1D axis grid
        object.__setattr__(self, "potential", v)
        if self.dims == 3 and self.eta != 1:
            _refuse("eta", "model", "1 in 3D, which takes one electron", self.eta)
        if self.dims == 3 and n > 32:
            _refuse("n_points", "model", "at most 32 in 3D", n)
        if self.hilbert_dim > 2**20:
            _refuse("n_points", "model", f"at most {2 ** (20 // coords)} on {coords} coordinates, "
                    f"as the Hilbert space n_points^(dims eta) is capped at 2^20", n)
        if self.eta == 1:
            for name, neutral in (("interaction_strength", 0.0), ("interaction_softening", 1.0)):
                if getattr(self, name) != neutral:
                    _refuse(name, "model", f"{neutral:g} with eta 1, as it applies to two "
                            f"electrons only", getattr(self, name))
        with np.errstate(all="ignore"):  # a non-finite energy is refused by its reach below
            v = _outer_sum([v] * coords)
            if self.eta == 2 and self.interaction_strength:
                softening = self.interaction_softening
                # _repulsion's softening**2 raises OverflowError where this product is inf
                repulsion = _repulsion(self) if softening * softening < math.inf else math.inf
                if not np.isfinite(repulsion).all():
                    _refuse("interaction_softening", "model", f"such that interaction_softening^2 "
                            f"and the repulsion interaction_strength / sqrt(r^2 + "
                            f"interaction_softening^2) at r = 0 are finite, with "
                            f"interaction_strength {self.interaction_strength:.3g}", softening)
                v = v + repulsion
            kinetic = _outer_sum([self.k_axis**2 / 2.0] * coords)
        # [lo, hi] = [min V, max V + max T] holds the spectrum of H; both Chebyshev
        # series run in (H - mid) / half_span
        lo, hi = float(v.min()), float(v.max()) + float(kinetic.max())
        object.__setattr__(self, "mid", (hi + lo) / 2.0)
        object.__setattr__(self, "half_span", (hi - lo) / 2.0)
        # the energy reach: the rounding of H psi alone, GROUND_STATE_FLOOR per Ha of the
        # largest |E|, must stay under GROUND_STATE_BAR, and no energy may be NaN or infinite
        reach = abs(self.mid) + self.half_span
        if not GROUND_STATE_FLOOR * reach <= GROUND_STATE_BAR:
            energies = (f"up to {reach:.3g} Ha in magnitude" if math.isfinite(reach)
                        else "that are not finite")
            raise ValidationError(
                f"field 'potential' in model, or 'box_length' through the kinetic energy, gives "
                f"energies {energies}; beyond {GROUND_STATE_BAR / GROUND_STATE_FLOOR:.3g} Ha "
                f"rounding passes the ground state's {GROUND_STATE_BAR:g} Ha residual bar")
        object.__setattr__(self, "_potential_table", v)
        object.__setattr__(self, "_kinetic_table", kinetic)
        object.__setattr__(self, "_kinetic_half", kinetic[..., :n // 2 + 1])
        object.__setattr__(self, "_kinetic_matrix", _kinetic_circulant(self.k_axis)
                           if n <= KINETIC_MATRIX_POINTS else None)
        # the tables the kernels take: V, and K or the half kinetic table
        object.__setattr__(self, "_tables", (v, self._kinetic_half if self._kinetic_matrix is None
                                             else self._kinetic_matrix))

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
        """H applied to a state, or to each row of a block of flattened states.

        H is real, so a complex state goes through as its real and imaginary
        rows. Up to KINETIC_MATRIX_POINTS points the kinetic energy is the
        one-axis matrix K applied along each coordinate axis, one BLAS product
        per axis: the last axis as rows times K^T, every other axis as K times
        the block behind it. Above that, it goes through :meth:`momentum_multiply`.
        """
        return self._apply(self._tables, state)

    def _apply(self, tables: tuple[np.ndarray, np.ndarray], state: np.ndarray) -> np.ndarray:
        """The kernel of :meth:`apply_hamiltonian` on ``tables``: (V, K) or (V, half table).

        The model's own tables give H; the Chebyshev series pass tables scaled
        once per series (:func:`_chebyshev_series`).
        """
        if np.iscomplexobj(state):
            rows = self._apply(tables, np.stack([state.real, state.imag]))
            return rows[0] + 1j * rows[1]
        potential_table, k = tables
        potential = potential_table * state.reshape((-1,) + self.shape)
        if self._kinetic_matrix is None:
            kinetic = self.momentum_multiply(k, state)
        else:
            n, coords = self.n_points, self.dims * self.eta
            kinetic = state.reshape(-1, n ** (coords - 1), n) @ k.T
            for axis in range(coords - 1):
                block = state.reshape(-1, n**axis, n, n ** (coords - axis - 1))
                view = kinetic.reshape(block.shape)
                view += k @ block
        return potential.reshape(state.shape) + kinetic.reshape(state.shape)

    def _apply_sector(self, tables: tuple[np.ndarray, np.ndarray],
                      state: np.ndarray) -> np.ndarray:
        """H on ``tables``, (V, K), applied to an exchange-symmetric two-electron state or block.

        For two electrons on a grid of up to KINETIC_MATRIX_POINTS points: a
        state X = X^T on the N x N grid has X K^T = (K X)^T, so one kinetic
        product M = K X per state gives H X = V X + (M + M^T), where
        :meth:`_apply` makes two. The kinetic sum is formed first, so H X is
        symmetric to the bit when X is.
        """
        n = self.n_points
        potential, k = tables
        squares = state.reshape(-1, n, n)
        half = np.matmul(k, squares)
        kinetic = half + half.transpose(0, 2, 1)
        kinetic += np.multiply(potential, squares, out=half)
        return kinetic.reshape(state.shape)

    def momentum_multiply(self, half_table: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Multiply a real state, or each row of a block, by a table on the momentum grid.

        It serves H and the ground state's preconditioner on grids above
        KINETIC_MATRIX_POINTS, where the FFT's N log N beats the one-axis
        matrices' N^2 per axis. ``half_table`` holds the table on the half of
        the momentum grid that the real FFT keeps: rfft on the last axis, fft
        on the other coordinate axes. Every table here is even in k, like the
        kinetic energy, so the product maps real rows to real rows. The
        transforms are taken one axis at a time: rfftn/irfftn give the same
        bits but cost about a third more per call at these sizes (exp(-iHt) on
        the bundled 1-electron fixture, one core, numpy 2.4: 12.6 ms per axis
        against 16.7 ms with rfftn).
        """
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
        """Build from JSON: the fields by the class's own spec, ``potential`` as {kind, params}."""
        cfg = read_fields(data, {**_field_spec(cls)[0], "potential": (dict, {"kind": "zero"})},
                          "model")
        x = _axis(cfg["n_points"], cfg["box_length"])
        with np.errstate(all="ignore"):  # a non-finite energy is refused by __post_init__
            cfg["potential"] = _potential_from_config(cfg["potential"], x)
        return cls(**cfg)


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian energy window applied to H - E0."""

    center: float                           # Ha above the ground energy
    sigma: float = _ranged((lambda s: 0 < s and 0 < s * s < math.inf,  # Ha
                            "positive, and finite and nonzero when squared"))
    mode: str = _ranged(_one_of("ExactEigen", "ChebyshevPoly"), "ExactEigen")
    poly_tolerance: float = _ranged(_POSITIVE, 1e-3)

    def __post_init__(self) -> None:
        _check_fields(self)

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
    """Explicit real Hamiltonian matrix (oracle-sized grids only), built without applying H.

    H is diag(V) plus, on each coordinate axis, the one-axis kinetic matrix
    K (:func:`_kinetic_circulant`) padded by the identity on the other axes:
    the model's own K, or one built here for a 1D line of 257 to 4096 points.
    Each axis adds K through a view of the matrix's blocks, so no Kronecker
    product is formed.
    """
    dim = model.hilbert_dim
    if dim > 4096:
        raise ValidationError(f"the dense Hamiltonian is capped at dimension 4096, got {dim}")
    n, coords = model.n_points, model.dims * model.eta
    kinetic = model._kinetic_matrix
    if kinetic is None:
        kinetic = _kinetic_circulant(model.k_axis)
    h = np.diag(model.potential_grid().reshape(-1))
    for axis in range(coords):
        outer, inner = n**axis, n ** (coords - axis - 1)
        # rows (a, i, b) and columns (a, j, b): the block K[i, j] for each a and b
        np.einsum("aibajb->abij", h.reshape(outer, n, inner, outer, n, inner))[...] += kinetic
    return h


def _mirror_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh(h) by the even and odd blocks of the axis inversion q -> -q mod N, kept by h.

    Returns what ``np.linalg.eigh(h)`` does: ascending energies and
    orthonormal real eigenvectors as columns. The inversion fixes 0 and N/2
    and pairs q with N - q. The even block is h in the basis e_0, e_N/2,
    (e_q + e_N-q) / sqrt 2, the odd block in (e_q - e_N-q) / sqrt 2, so on the
    pairs both are h[1:N/2, 1:N/2] +- h[1:N/2, :N/2:-1], two slices of h.
    Two eigh of about half the size take about a quarter of the flops of
    one. The eigenvectors' columns are taken, C-ordered, in a stable sort of
    the energies.
    """
    n, half = len(h), len(h) // 2
    rows = h[1:half]
    pairs, across = rows[:, 1:half], rows[:, :half:-1]  # views of h: never written
    even = np.empty((half + 1, half + 1))
    even[:2, :2] = h[::half, ::half]
    even[2:, :2] = math.sqrt(2.0) * rows[:, ::half]
    even[:2, 2:] = even[2:, :2].T
    np.add(pairs, across, out=even[2:, 2:])
    even_energies, even_vectors = np.linalg.eigh(even)
    odd_energies, odd_vectors = np.linalg.eigh(pairs - across)
    vectors = np.zeros((n, n))
    vectors[::half, :half + 1] = even_vectors[:2]
    vectors[1:half, :half + 1] = vectors[:half:-1, :half + 1] = even_vectors[2:] * math.sqrt(0.5)
    vectors[1:half, half + 1:] = odd = odd_vectors * math.sqrt(0.5)
    vectors[:half:-1, half + 1:] = -odd
    energies = np.concatenate([even_energies, odd_energies])
    order = np.argsort(energies, kind="stable")
    return energies[order], vectors.take(order, axis=1)


def _orthonormalize(row: np.ndarray, rows: np.ndarray) -> bool:
    """Turn ``row`` in place into a unit vector orthogonal to the orthonormal ``rows``.

    The row is scaled to unit norm and cleared of ``rows`` by classical
    Gram-Schmidt applied twice, which leaves it orthogonal to working
    precision (Giraud et al., Numer. Math. 101, 87 (2005)); scaling first
    makes the test below relative. Returns False, and leaves the row
    meaningless, when its remaining norm is not above BASIS_DEPENDENCE: a
    zero row, a row in the span of ``rows``, or a row past the dimension of
    the space that ``rows`` already fill.
    """
    row /= np.linalg.norm(row) or 1.0  # a zero row stays zero, and is dropped
    for _ in range(2):
        row -= (rows @ row) @ rows
    rest = np.linalg.norm(row)
    if rest <= BASIS_DEPENDENCE:
        return False
    row /= rest
    return True


def eigsh(apply, precondition, start: np.ndarray, upper: float, maxiter: int
          ) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Lowest eigenpair of a real symmetric operator by preconditioned LOBPCG.

    ``apply`` maps a real vector to the operator applied to it, and the
    operator's spectrum lies at or below ``upper``. Starting from ``start``,
    each iteration moves x to the lowest Ritz vector on the span of x, the
    previous step p and w, the residual mapped by ``precondition`` (Knyazev,
    SIAM J. Sci. Comput. 23, 517 (2001), with a block of one). The rows x, p
    and w are kept orthonormal, with their images under the operator, in
    preallocated (3, n) arrays. Only w is new in an iteration: it is cleared
    of x and p by ``_orthonormalize`` and then mapped, so an iteration applies
    the operator once. x and p come out orthonormal from the 3 x 3 Ritz
    problem itself (Hetmaniuk & Lehoucq, J. Comput. Phys. 218, 324 (2006)):
    the next x is the lowest Ritz vector's coefficients c applied to the rows,
    and the next p is the Ritz vector's part along the rows other than x,
    made orthonormal to c in coefficient space, so the images follow from the
    same coefficients. That part is scaled to unit norm before the dependence
    test, since its raw norm is the step size: testing the raw norm would
    drop p near convergence and leave steepest descent. Once the residual is
    within GROUND_STATE_TOL, or within the rounding floor of the operator's
    range where that is larger, or after ``maxiter`` iterations, x and its
    carried image are divided by x's norm, and the unit x, its Rayleigh
    quotient, the image's residual norm and the iteration count are returned:
    whether a pair at the cap is good enough is the caller's call.
    """
    basis, images = np.empty((3, len(start))), np.empty((3, len(start)))  # rows x, [p], w
    next_basis, next_images = np.empty_like(basis), np.empty_like(images)
    basis[0] = start / np.linalg.norm(start)
    images[0] = apply(basis[0])
    residual = np.empty(len(start))
    kept = 1  # rows x and p carried into the iteration
    iterations = 0
    while True:
        x, hx = basis[0], images[0]
        theta = float(x @ hx)
        np.subtract(hx, np.multiply(x, theta, out=residual), out=residual)
        if _converged(float(np.linalg.norm(residual)), theta, upper) or iterations == maxiter:
            norm = np.linalg.norm(x)
            x, hx = x / norm, hx / norm
            theta = float(x @ hx)
            return x, theta, float(np.linalg.norm(hx - theta * x)), iterations
        size = kept
        basis[size] = precondition(residual)
        if _orthonormalize(basis[size], basis[:size]):
            images[size] = apply(basis[size])
            size += 1
        ritz = np.linalg.eigh(basis[:size] @ images[:size].T)[1]
        coeffs = np.zeros((2, size))
        coeffs[0] = ritz[:, 0]
        coeffs[1, 1:] = ritz[1:, 0]
        kept = 1 + _orthonormalize(coeffs[1], coeffs[:1])
        np.matmul(coeffs[:kept], basis[:size], out=next_basis[:kept])
        np.matmul(coeffs[:kept], images[:size], out=next_images[:kept])
        basis, next_basis = next_basis, basis
        images, next_images = next_images, images
        iterations += 1


def _converged(error: float, theta: float, upper: float) -> bool:
    """:func:`eigsh`'s stop rule: GROUND_STATE_TOL, or the rounding floor of [theta, upper]."""
    return error <= max(GROUND_STATE_TOL, GROUND_STATE_FLOOR * (upper - theta))


def _check_residual(model: GridModel, residual: float, how: str) -> None:
    """Refuse a ground pair whose residual ||H psi - E psi|| exceeds GROUND_STATE_BAR."""
    if residual > GROUND_STATE_BAR:
        raise NumericalError(f"ground-state residual {residual:.2e} > {GROUND_STATE_BAR:g} "
                             f"{how} (dim={model.hilbert_dim}, tol={GROUND_STATE_TOL})")


def _sector_operator(model: GridModel):
    """The kernel that applies H to the states a run makes, all of them exchange symmetric.

    :meth:`GridModel._apply_sector` for two electrons on the matrix kernel,
    the kernel of :meth:`GridModel.apply_hamiltonian` otherwise; either takes
    the tables it applies first.
    """
    if model.eta == 2 and model._kinetic_matrix is not None:
        return model._apply_sector
    return model._apply


def _axis_eigh(model: GridModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one-axis Hamiltonian h1 = diag(v) + K, its ascending energies and its eigenvectors.

    K is even under the axis inversion q -> -q mod N, so when v is too,
    v[q] = v[N - q] exactly, h1 is split into the inversion's blocks
    (:func:`_mirror_eigh`; 5 ms against 8 for one eigh at 256 points, 2
    shared vCPUs), else diagonalized whole. K is the model's own, or one
    built here for a line above KINETIC_MATRIX_POINTS. A model whose
    energies the residual bar cannot resolve was refused when it was made.
    """
    v, kinetic = model.potential, model._kinetic_matrix
    if kinetic is None:
        kinetic = _kinetic_circulant(model.k_axis)
    h1 = np.diag(v)
    h1 += kinetic  # in place: one N x N array at a time, not two
    return h1, *(_mirror_eigh(h1) if np.array_equal(v[1:], v[:0:-1]) else np.linalg.eigh(h1))


def _separable_start(model: GridModel):
    """Two electrons' start and preconditioner from the eigenbasis U of h1 = diag(v) + K.

    H without the e-e repulsion R is h1 summed over the two coordinate axes,
    so its eigenvectors are products of h1's, U x U, with energies the sums
    of h1's eigenvalues eps. The start is the lowest, phi0 x phi0. The
    preconditioner is U (d - min d + gap)^-1 U^T, with d the diagonal of H in
    that basis (Davidson, J. Comput. Phys. 17, 87 (1975)), shifted
    SEPARABLE_GAP above its lowest entry: the sums of the eps plus R's
    diagonal, D_ij = sum_xy U_xi^2 U_yj^2 R_xy = ((U o U)^T R (U o U))_ij,
    two N x N products per run. It maps the N x N residual W to
    U (inverse o (U^T W U)) U^T and ends on (S + S^T) / 2, so each direction
    stays in the exchange sector to the bit. h1's eigenpairs come from
    :func:`_axis_eigh` and are not kept.
    """
    n = model.n_points
    _, energies, vectors = _axis_eigh(model)
    start = np.multiply.outer(vectors[:, 0], vectors[:, 0]).reshape(-1)
    squares = vectors * vectors
    levels = _outer_sum([energies - energies[0]] * 2) + squares.T @ _repulsion(model) @ squares
    inverse = 1.0 / (levels - levels.min() + SEPARABLE_GAP)

    def precondition(residual):
        step = vectors @ (inverse * (vectors.T @ residual.reshape(n, n) @ vectors)) @ vectors.T
        return ((step + step.T) / 2.0).reshape(-1)

    return start, precondition


def _axis_ground(model: GridModel, h1: np.ndarray, energies: np.ndarray,
                 vectors: np.ndarray) -> tuple[np.ndarray, float]:
    """The one-electron ground pair, from h1 = diag(v) + K and its eigenpairs (:func:`_axis_eigh`).

    H is h1 summed over the ``dims`` axes, so the ground state is
    phi x ... x phi and its energy dims eps, for (phi, eps) h1's lowest pair.
    The stop rule is read on dims h1, which has H's spectrum and whose
    residual dims ||h1 phi - eps phi|| bounds H's, sqrt(dims) times h1's, as
    H psi - E psi is a sum of one orthogonal term per axis. Where it fails,
    :func:`eigsh` polishes the pair on dims h1 from phi, preconditioned in
    h1's eigenbasis U by U (eps - eps_0 + SEPARABLE_GAP)^-1 U^T (Davidson's
    preconditioner), so its own stop is that rule. H's residual is then held
    to GROUND_STATE_BAR.
    """
    dims, phi, eps = model.dims, vectors[:, 0], float(energies[0])
    energy, upper = dims * eps, dims * float(energies[-1])
    residual = dims * float(np.linalg.norm(h1 @ phi - eps * phi))
    how = f"from the eigendecomposition of {model.n_points} rows"
    if not _converged(residual, energy, upper):
        inverse = 1.0 / (energies - energies[0] + SEPARABLE_GAP)
        phi, energy, residual, iterations = eigsh(
            lambda x: dims * (h1 @ x), lambda r: vectors @ (inverse * (vectors.T @ r)),
            phi, upper, GROUND_STATE_ITERATIONS)
        how += f" and {iterations} LOBPCG iterations on it"
    _check_residual(model, residual / math.sqrt(dims), how)
    return functools.reduce(np.multiply.outer, [phi] * dims).reshape(-1), energy


def _momentum_start(model: GridModel):
    """Random start and the preconditioner S (T + 1 Ha)^-1 S, S = (1 + V - min V)^-1/2.

    (T + 1 Ha)^-1 inverts H - E at high momentum, where T dominates, and S
    on both sides where V does; two elementwise products beyond the kinetic
    factor's transforms.
    """
    start = np.random.default_rng(12345).standard_normal(model.hilbert_dim)
    inverse_kinetic = 1.0 / (model._kinetic_half + 1.0)
    potential = model.potential_grid().reshape(-1)
    scale = (1.0 + potential - float(np.min(potential))) ** -0.5

    def precondition(v):
        return scale * model.momentum_multiply(inverse_kinetic, scale * v)

    return start, precondition


def ground_state(model: GridModel) -> tuple[np.ndarray, float]:
    """Lowest eigenpair of the grid Hamiltonian, a real state.

    One electron on a grid that holds K (up to KINETIC_MATRIX_POINTS points,
    every 3D grid) takes h1's pair (:func:`_axis_ground`), as ExactEigen
    does, and H is not applied. Otherwise LOBPCG (:func:`eigsh`) finds it in
    real arithmetic: for two electrons up to KINETIC_MATRIX_POINTS points
    from h1's eigenbasis (:func:`_separable_start`) on the sector kernel
    (:func:`_sector_operator`), since H and D keep the exchange-symmetric
    sector, whose lowest state is the ground state; above that from a random
    vector (:func:`_momentum_start`). GROUND_STATE_ITERATIONS, read at each
    call, caps the iterations, each one application of H. A pair within
    GROUND_STATE_BAR is accepted, at the cap too. Above the bar, a
    one-electron line of at most 4096 points takes :func:`_axis_ground`'s
    pair instead, and any other model is refused, naming the iterations.
    """
    if model.eta == 1 and model._kinetic_matrix is not None:
        return _axis_ground(model, *_axis_eigh(model))
    start, precondition = (_momentum_start(model) if model._kinetic_matrix is None
                           else _separable_start(model))
    apply = functools.partial(_sector_operator(model), model._tables)
    psi, energy, residual, iterations = eigsh(apply, precondition, start,
                                              model.mid + model.half_span, GROUND_STATE_ITERATIONS)
    if residual > GROUND_STATE_BAR and model.eta == 1 and model.n_points <= 4096:
        return _axis_ground(model, *_axis_eigh(model))
    _check_residual(model, residual, f"after {iterations} LOBPCG iterations")
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

    Both modes weigh energies by ``filt.window``. ExactEigen mode applies it
    in h1's eigensystem (:func:`_eigensystem`), for one electron on at most
    4096 points; ChebyshevPoly applies, matrix-free, the Chebyshev series
    that ``chebyshev_fit`` cuts from the window within ``filt.poly_tolerance``.
    Returns the filtered (un-normalized) state and the success probability
    ||f psi||^2 / ||psi||^2.
    """
    if filt.mode == "ExactEigen":
        out = _exact_window(model, filt, *_eigensystem(model)[:2], state, ground_energy)[0]
    else:
        out = _polynomial_window(model._apply, model, filt, state, ground_energy)
    return out, _window_success(out, state)


def _polynomial_window(kernel, model: GridModel, filt: FilterSpec, state: np.ndarray,
                       ground_energy: float) -> np.ndarray:
    """The ChebyshevPoly window f(H - E0) psi, summed on the model's ``kernel``."""
    mid, half_span = model.mid, model.half_span
    coeffs = chebyshev_fit(lambda x: filt.window(x * half_span + mid - ground_energy),
                           filt.poly_tolerance)
    return _chebyshev_series(kernel, model, coeffs, state)


def _exact_window(model: GridModel, filt: FilterSpec, energies: np.ndarray,
                  vectors: np.ndarray, state: np.ndarray,
                  ground_energy: float) -> tuple[np.ndarray, np.ndarray]:
    """The ExactEigen window in the eigensystem (E, M) of :func:`_eigensystem`.

    Returns f(H - E0) psi and the filtered amplitudes f(E - E0) W^T psi, from
    which any further function of H applies to the filtered state without
    another decomposition.
    """
    axes = model.dims
    amplitudes = filt.window(energies - ground_energy) * _along_axes(vectors.T, state, axes)
    return _along_axes(vectors, amplitudes, axes).reshape(state.shape), amplitudes


def _window_success(filtered: np.ndarray, state: np.ndarray) -> float:
    """The window's success probability ||f psi||^2 / ||psi||^2."""
    norm_in = float(np.linalg.norm(state))
    if norm_in == 0.0:
        raise ValidationError("cannot filter a zero state")
    return float(np.linalg.norm(filtered) ** 2 / norm_in**2)


def _filtered_norm(filtered: np.ndarray) -> float:
    """||f psi||, which normalizes the filtered state; raises if the window removed all of it."""
    norm = np.linalg.norm(filtered)
    if norm == 0.0:
        raise NumericalError("filter annihilated the state")
    return norm


def _excite(model: GridModel, ground: np.ndarray) -> np.ndarray:
    """The normalized dipole state D psi0 / ||D psi0||; raises if D annihilates psi0."""
    state, norm = apply_dipole(model, ground)
    if norm == 0.0:
        raise NumericalError("dipole annihilated the ground state")
    return state / norm


def _eigensystem(model: GridModel):
    """H = W diag(E) W^T, W = M x ... x M on the model's ``dims`` axes: E, M, h1 and its energies.

    ExactEigen takes one electron on at most 4096 points, or the model is
    refused naming ``mode``. H is then h1 summed over the axes, so M is h1's
    eigenbasis (:func:`_axis_eigh`) and E the outer sum of h1's energies. The
    ground pair is taken where it is read (:func:`filter_and_evolve`).
    """
    if model.eta != 1 or model.n_points > 4096:
        _refuse("mode", "FilterSpec", f"ChebyshevPoly for eta {model.eta} on {model.n_points} "
                f"points: ExactEigen takes one electron on at most 4096", "ExactEigen")
    h1, energies, vectors = _axis_eigh(model)
    return _outer_sum([energies] * model.dims).reshape(-1), vectors, h1, energies


def filter_and_evolve(model: GridModel, filt: FilterSpec | None, t: float
                      ) -> tuple[np.ndarray, float, float | None]:
    """The photoemission state exp(-iHt) f(H - E0) D psi0, normalized, from the model alone.

    Runs ground state, dipole, window and propagator, and returns the state,
    the ground energy E0 and the window's success probability (None without
    a filter, when the state is exp(-iHt) D psi0). A ChebyshevPoly or absent
    window takes the ground pair of :func:`ground_state`, then sums the
    series of :func:`gaussian_filter` and :func:`evolve`, applying H by
    :func:`_sector_operator`, since every state it makes is exchange
    symmetric. An ExactEigen window, for one electron only, takes all from
    h1's eigensystem H = W diag(E) W^T, W = M x ... x M (:func:`_eigensystem`),
    the ground pair by :func:`_axis_ground` as ground_state does where K is
    held: the state is W (exp(-iEt) f(E - E0) W^T D psi0) / ||f(H - E0) D psi0||,
    one phase per level in place of a series in H, exact at any t, and H is
    never applied. The time is checked by :func:`check_time` in every mode.
    Raises NumericalError when the dipole or the window removes the whole state.
    """
    check_time(model, t)
    if filt is not None and filt.mode == "ExactEigen":
        levels, vectors, h1, energies = _eigensystem(model)
        ground, energy = _axis_ground(model, h1, energies, vectors)
        state = _excite(model, ground)
        filtered, amplitudes = _exact_window(model, filt, levels, vectors, state, energy)
        success = _window_success(filtered, state)
        rotated = np.exp(-1j * t * levels) * amplitudes / _filtered_norm(filtered)
        # M is real: two real passes, not a complex copy of M
        return (_along_axes(vectors, rotated.real, model.dims)
                + 1j * _along_axes(vectors, rotated.imag, model.dims)), energy, success
    psi, energy = ground_state(model)
    state = _excite(model, psi)
    kernel = _sector_operator(model)
    if filt is None:
        return _propagate(kernel, model, state, t), energy, None
    filtered = _polynomial_window(kernel, model, filt, state, energy)
    success = _window_success(filtered, state)
    return _propagate(kernel, model, filtered / _filtered_norm(filtered), t), energy, success


def _chebyshev_series(kernel, model: GridModel, coeffs: np.ndarray,
                      state: np.ndarray) -> np.ndarray:
    """Apply sum_k c_k T_k(X) to ``state``, X = (H - mid) / half_span, by the forward recurrence.

    ``kernel`` is one of the model's kernels (:meth:`GridModel._apply`,
    :meth:`GridModel._apply_sector`), run on tables scaled once per series
    so that it applies 2X: the kinetic matrix or half table times
    2 / half_span, and the potential table as (2 / half_span)(V - mid). So
    T_0 = psi, T_1 = X psi and each T_{k+1} = 2X T_k - T_{k-1} is one kernel
    call and one subtraction. The T_k stay real for a real state, since H
    is real; ``kernel`` acts on arrays shaped like ``state``, the series has
    degree at least 1, and the kernel is called degree times. The
    coefficients may be complex: their real and imaginary parts weigh the
    same T_k into two accumulators, updated in place and skipped where the
    part is 0, so the even (real) and odd (imaginary) terms of exp(-iHt)
    give its cosine and sine parts from one sequence. The sum is real when
    ``state`` and ``coeffs`` are.
    """
    scale = 2.0 / model.half_span
    potential, kinetic = model._tables
    double = functools.partial(kernel, (scale * (potential - model.mid), scale * kinetic))
    prev, cur = state, 0.5 * double(state)
    parts = [coeffs.real, coeffs.imag] if np.iscomplexobj(coeffs) else [coeffs]
    sums = [part[0] * prev + part[1] * cur for part in parts]
    weights = [part[2:].tolist() for part in parts]
    scratch = np.empty_like(cur)
    for k in range(len(coeffs) - 2):
        step = double(cur)
        step -= prev
        prev, cur = cur, step
        for total, weight in zip(sums, weights):
            if weight[k]:
                total += np.multiply(cur, weight[k], out=scratch)
    return sums[0] if len(sums) == 1 else sums[0] + 1j * sums[1]


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
        nodes = np.cos(math.pi * (np.arange(m) + 0.5) / m)
        coeffs = _dct2(func(nodes)) / m  # the interpolant through the m nodes
        coeffs[0] /= 2.0
        if np.abs(coeffs[m // 2:]).sum() <= tolerance / 4.0:
            kept = coeffs[:_tail_cut(coeffs, tolerance / 2.0, start=1) + 1]
            if len(kept) > MAX_FILTER_DEGREE + 1:
                break
            if _sup_error(func, kept) <= tolerance:
                return kept
        m *= 2
    _refuse("poly_tolerance", "FilterSpec", f"large enough for a filter degree of at most "
            f"{MAX_FILTER_DEGREE}", tolerance)


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


def check_time(model: GridModel, t: float) -> None:
    """Reject a propagation time that :func:`evolve` cannot run, naming the config field.

    The two entry points that propagate run it before any other work:
    :func:`filter_and_evolve`, in both filter modes, and :func:`evolve`.
    """
    where = "emulate-photoemission config"
    if not 0 <= t < math.inf:
        _refuse("time", where, "non-negative and finite", t)
    if model.half_span * t > MAX_SERIES_ARGUMENT:
        _refuse("time", where, f"at most {MAX_SERIES_ARGUMENT / model.half_span:.3g}, beyond "
                f"which its series needs a degree above {MAX_SERIES_ARGUMENT:g}", t)


def evolve(model: GridModel, state: np.ndarray, t: float) -> np.ndarray:
    """Propagate by exp(-i H t) as a Chebyshev series in the rescaled Hamiltonian.

    Writing H = mid + half_span x, exp(-iHt) = exp(-i mid t) sum_k
    (2 - delta_k0) (-i)^k J_k(a) T_k(x) with a = half_span t (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81, 3967 (1984)). The series stops at the first
    degree above a whose dropped tail is below EVOLVE_TAIL, so a run costs a
    little over a applications of H and its accuracy does not depend on t.
    """
    check_time(model, t)
    return _propagate(model._apply, model, state, t)


def _propagate(kernel, model: GridModel, state: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) psi by the Jacobi-Anger series of :func:`evolve`, summed on ``kernel``."""
    mid, half_span = model.mid, model.half_span
    if half_span * t == 0:  # t = 0, or so short that the series argument underflows
        return state.copy()
    bessel = jacobi_anger_bessel(half_span * t)
    # (-i)^k from a table, free of the rounding a complex power would add
    minus_i_power = np.array([1.0, -1j, -1.0, 1j])[np.arange(len(bessel)) % 4]
    coeffs = 2.0 * minus_i_power * bessel
    coeffs[0] /= 2.0
    return np.exp(-1j * mid * t) * _chebyshev_series(kernel, model, coeffs, state)


def edge_density(model: GridModel, state: np.ndarray) -> float:
    """Probability mass within EDGE_CELLS grid points of any box face.

    Propagation on the periodic grid is only physical until density reaches
    the boundary; callers flag a run invalid once this exceeds ~1e-6.
    """
    psi = np.abs(np.asarray(state).reshape(model.shape)) ** 2
    total = float(psi.sum())
    if total == 0.0:
        return 0.0
    edge = np.zeros(model.n_points, dtype=bool)
    edge[:EDGE_CELLS] = edge[-EDGE_CELLS:] = True
    # the edge cells summed directly: no difference of totals, so no sign or digit is lost
    return float(psi[functools.reduce(np.logical_or.outer, [edge] * psi.ndim)].sum() / total)


def check_r_cutoff(model: GridModel, r_cutoff: float) -> None:
    """Reject a cutoff radius that :func:`continuum_project` cannot use, naming the config field."""
    half_diagonal = model.box_length / 2.0 * math.sqrt(model.dims)
    if not 0 < r_cutoff <= half_diagonal:
        _refuse("r_cutoff", "emulate-photoemission config", f"positive and within the box "
                f"half-diagonal {half_diagonal:.3g} Bohr, beyond which no grid point lies",
                r_cutoff)


def _outside(model: GridModel, r_cutoff: float, dims: int) -> np.ndarray:
    """The radius test on one particle's first ``dims`` axes: True where it lies outside.

    The circuit's test: a particle at integer offsets q = index - N/2 is
    outside when sum q^2 exceeds :func:`euvq.qarith.radius_threshold`, which
    is |x| >= r_cutoff found exactly, so a particle on the sphere is outside.
    """
    n = model.n_points
    offsets = np.arange(n) - n // 2
    threshold = qarith.radius_threshold(r_cutoff, n.bit_length() - 1, model.box_length)
    return _outer_sum([offsets * offsets] * dims) > threshold


def escape_energy(r_cutoff: float, t: float) -> float | None:
    """Slowest kinetic energy (Ha) that can reach ``r_cutoff`` from the origin within ``t``.

    That is (r_cutoff / t)^2 / 2, or None at t = 0 or where the value overflows.
    """
    if t == 0:
        return None
    speed = r_cutoff / t  # an overflow gives inf, and inf * inf stays inf
    energy = 0.5 * speed * speed
    return energy if math.isfinite(energy) else None


def potential_at_cutoff(model: GridModel, r_cutoff: float) -> float | None:
    """Largest |V| (Ha) of the one-electron axis potential over the points with |x| >= r_cutoff.

    The points are those the projector's radius test puts outside on one
    axis; None when the cutoff lies beyond every axis point, as it can in 3D.
    """
    beyond = np.abs(model.potential[_outside(model, r_cutoff, 1)])
    return float(beyond.max()) if beyond.size else None


def continuum_project(model: GridModel, state: np.ndarray, r_cutoff: float
                      ) -> tuple[np.ndarray, float]:
    """Zero amplitudes where all particles lie inside the cutoff sphere.

    The hard projector of the circuit's radius test (:func:`_outside`), so a
    particle on the sphere is outside. Keeps the "any particle outside"
    subspace; returns the projected (un-normalized) state and the retained
    norm^2 as success probability.
    """
    check_r_cutoff(model, r_cutoff)
    outside = _outside(model, r_cutoff, model.dims)
    psi = np.asarray(state.reshape(model.shape), dtype=complex)
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
    errors is included: ``np.random.default_rng(seed)`` draws the counts of all
    joint momentum cells, Multinomial(shots, |amplitude|^2 / norm^2), and each
    electron register's marginal of those counts is binned as the exact column.
    """
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("bins must be increasing edges")
    psi = np.asarray(state.reshape(model.shape), dtype=complex)
    norm2 = float(np.linalg.norm(psi) ** 2)
    if norm2 == 0.0:
        raise ValidationError("zero-norm state: projection failed upstream")

    amps = np.fft.fftn(psi, norm="ortho")
    ke = kinetic_energies(model)
    joint = (np.abs(amps) ** 2).reshape((len(ke),) * model.eta) / norm2  # conditional
    n_bins = len(edges) - 1

    # bin of each single-particle momentum cell; energies past the edges drop
    idx = np.searchsorted(edges, ke, side="right") - 1
    valid = (idx >= 0) & (idx < n_bins)

    def per_particle(table):
        """Average over particles of the joint ``table``'s mass in each bin."""
        totals = np.zeros(n_bins)
        for axis in range(model.eta):
            marginal = table.sum(axis=tuple(a for a in range(model.eta) if a != axis))
            np.add.at(totals, idx[valid], marginal[valid])
        return totals / model.eta

    mass = per_particle(joint) * norm2
    sampled = stderr = None
    if shots > 0:
        counts = np.random.default_rng(seed).multinomial(shots, joint.ravel() / joint.sum())
        freq = per_particle(counts.reshape(joint.shape)) / shots
        sampled = freq * norm2
        stderr = norm2 * np.sqrt(np.maximum(freq * (1.0 - freq), 0.0) / shots)

    return KineticHistogram(bin_edges=edges, mass=mass, sampled_mass=sampled,
                            success_probability=norm2, shots_used=shots, stderr=stderr)
