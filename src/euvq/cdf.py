"""Double factorization of two-electron tensors and Givens synthesis of rotations.

The two-electron tensor (chemist convention) is matricized to N^2 x N^2,
eigendecomposed, and the leading eigenvectors are reshaped and diagonalized
into (U, Z) fragments: retaining all N^2 eigenvalues reproduces the tensor
exactly, truncation gives the compressed form. Orthogonal basis rotations
are further decomposed into at most N(N-1)/2 two-level Givens rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ValidationError, _at_least, _between, _check, _check_fields, _float_array,
                   _ranged)

SYMMETRY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
_ANGLE_TOL = 1e-14


def _within(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """``np.allclose(a, b, atol=tol, rtol=0)`` on real arrays, from the largest deviation.

    A deviation of exactly ``tol`` passes, NaN fails and an empty pair passes.
    Equal infinities, whose difference is NaN, count as close as in allclose.
    """
    with np.errstate(invalid="ignore"):  # inf - inf
        dev = np.abs(a - b)
    if dev.size == 0 or dev.max() <= tol:
        return True
    return bool(np.all((dev <= tol) | (a == b)))


@dataclass(frozen=True)
class TwoElectronTensor:
    """Rank-4 real tensor (pq|rs) with 8-fold permutational symmetry."""

    n_orbitals: int = _ranged(_at_least(0))
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_fields(self)
        v = _float_array(self.values, (self.n_orbitals,) * 4, "values", "TwoElectronTensor")
        object.__setattr__(self, "values", v)
        for perm, label in (((1, 0, 2, 3), "(qp|rs)"),
                            ((0, 1, 3, 2), "(pq|sr)"),
                            ((2, 3, 0, 1), "(rs|pq)")):
            if not _within(v, v.transpose(perm), SYMMETRY_TOL):
                raise ValidationError(f"tensor violates {label} symmetry beyond {SYMMETRY_TOL}")


@dataclass(frozen=True)
class CdfFactorization:
    """Fragments (U, Z) of a double factorization, plus the reconstruction error.

    Each fragment contributes sum_{kl} U[p,k] U[q,k] Z[k,l] U[r,l] U[s,l] to the
    reconstructed tensor; Z is symmetric and U orthogonal.
    """

    fragments: tuple[tuple[np.ndarray, np.ndarray], ...]
    reconstruction_error: float

    def __len__(self) -> int:
        return len(self.fragments)


def double_factorize(tensor: TwoElectronTensor, l_max: int) -> CdfFactorization:
    """Factorize a two-electron tensor into at most ``l_max`` (U, Z) fragments.

    The N^2 x N^2 matricization is eigendecomposed; the ``l_max`` eigenvalues
    of largest magnitude are kept (stable-sorted, index tie-break), each
    eigenvector reshaped to a symmetric N x N matrix and diagonalized into an
    orthogonal U and symmetric Z. Zero eigenvalues are dropped, so a zero
    tensor yields zero fragments. ``l_max`` must lie in [1, N^2].

    Returns a :class:`CdfFactorization` carrying the Frobenius reconstruction
    error over the retained fragments.
    """
    n = tensor.n_orbitals
    _check(l_max, _between(1, n * n), "l_max", "tensor file")

    mat = tensor.values.reshape(n * n, n * n)
    evals, evecs = np.linalg.eigh((mat + mat.T) / 2.0)
    order = np.argsort(-np.abs(evals), kind="stable")

    scale = float(np.max(np.abs(evals))) if evals.size else 0.0
    fragments: list[tuple[np.ndarray, np.ndarray]] = []
    recon = np.zeros_like(tensor.values)
    for idx in order[:l_max]:
        lam = evals[idx]
        if abs(lam) <= max(1e-14 * scale, 1e-300):
            continue  # numerically null direction, not a fragment
        w = evecs[:, idx].reshape(n, n)
        w = (w + w.T) / 2.0  # symmetric up to round-off by (pq|rs)=(qp|rs)
        z_eigs, u = np.linalg.eigh(w)
        z = lam * np.outer(z_eigs, z_eigs)
        fragments.append((u, z))
        recon += lam * np.einsum("pq,rs->pqrs", w, w)

    error = float(np.linalg.norm(recon - tensor.values))
    return CdfFactorization(fragments=tuple(fragments), reconstruction_error=error)


def givens_decompose(u: np.ndarray) -> list[tuple[int, int, float]]:
    """Decompose an orthogonal matrix into Givens rotations.

    Returns rotations (i, j, theta) with i < j such that the ordered product
    ``G(r_1) @ G(r_2) @ ... @ diag(signs)`` equals ``u``, where each G(i, j,
    theta) acts as [[cos, -sin], [sin, cos]] on rows (i, j). At most
    N(N-1)/2 rotations are emitted; exact zeros are skipped, so the identity
    gives an empty list. ``signs`` is the +-1 diagonal that the eliminations
    leave of ``u``; the decomposition does not return it.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("matrix must be square")
    n = u.shape[0]
    if not _within(u.T @ u, np.eye(n), ORTHOGONALITY_TOL):
        raise ValidationError("matrix is not orthogonal to 1e-10")

    # rows of Python floats: the same IEEE products and sums as numpy's rows, without
    # numpy's per-call overhead on a handful of entries
    work = u.tolist()
    eliminations: list[tuple[int, int, float]] = []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            top, bottom = work[row - 1], work[row]
            a, b = top[col], bottom[col]
            if abs(b) <= _ANGLE_TOL:
                continue
            theta = math.atan2(b, a)
            c, s = math.cos(theta), math.sin(theta)
            work[row - 1] = [c * x + s * y for x, y in zip(top, bottom)]
            work[row] = [-s * x + c * y for x, y in zip(top, bottom)]
            eliminations.append((row - 1, row, theta))
    # work is now diagonal +-1: R_m ... R_1 u = D, so u = R_1^T ... R_m^T D
    # and each R^T is G(i, j, theta) in the documented sign convention.
    return eliminations

