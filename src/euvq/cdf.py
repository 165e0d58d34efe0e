"""Double factorization of two-electron tensors and Givens synthesis of rotations.

The two-electron tensor (chemist convention) is matricized to N^2 x N^2,
eigendecomposed, and the leading eigenvectors are reshaped and diagonalized
into (U, Z) fragments: retaining all N^2 eigenvalues reproduces the tensor
exactly, truncation gives the compressed form. Orthogonal basis rotations
are further decomposed into at most N(N-1)/2 two-level Givens rotations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ValidationError

SYMMETRY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
_ANGLE_TOL = 1e-14


@dataclass(frozen=True)
class TwoElectronTensor:
    """Rank-4 real tensor (pq|rs) with 8-fold permutational symmetry."""

    n_orbitals: int
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.n_orbitals
        v = np.asarray(self.values, dtype=float)
        if v.shape != (n, n, n, n):
            raise ValidationError(f"tensor shape {v.shape} != {(n, n, n, n)}")
        object.__setattr__(self, "values", v)
        for perm, label in (((1, 0, 2, 3), "(qp|rs)"),
                            ((0, 1, 3, 2), "(pq|sr)"),
                            ((2, 3, 0, 1), "(rs|pq)")):
            if not np.allclose(v, v.transpose(perm), atol=SYMMETRY_TOL, rtol=0.0):
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

    def reconstruct(self, n_orbitals: int) -> np.ndarray:
        """Assemble the rank-4 tensor sum_l U U Z U U from the emitted fragments."""
        out = np.zeros((n_orbitals,) * 4)
        for u, z in self.fragments:
            out += np.einsum("pk,qk,kl,rl,sl->pqrs", u, u, z, u, u)
        return out


def double_factorize(tensor: TwoElectronTensor, l_max: int) -> CdfFactorization:
    """Factorize a two-electron tensor into at most ``l_max`` (U, Z) fragments.

    The N^2 x N^2 matricization is eigendecomposed; the ``l_max`` eigenvalues
    of largest magnitude are kept (stable-sorted, index tie-break), each
    eigenvector reshaped to a symmetric N x N matrix and diagonalized into an
    orthogonal U and symmetric Z. Zero eigenvalues are dropped, so a zero
    tensor yields zero fragments.

    Returns a :class:`CdfFactorization` carrying the Frobenius reconstruction
    error over the retained fragments.
    """
    if l_max < 1:
        raise ValidationError("l_max must be at least 1")
    n = tensor.n_orbitals
    if l_max > n * n:
        warnings.warn(f"l_max={l_max} exceeds N^2={n*n}; clamping", stacklevel=2)
        l_max = n * n

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
    gives an empty list. Use :func:`givens_reconstruct` to rebuild ``u``.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    if u.ndim != 2 or u.shape != (n, n):
        raise ValidationError("matrix must be square")
    if not np.allclose(u.T @ u, np.eye(n), atol=ORTHOGONALITY_TOL, rtol=0.0):
        raise ValidationError("matrix is not orthogonal to 1e-10")

    work = u.copy()
    eliminations: list[tuple[int, int, float]] = []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            a, b = work[row - 1, col], work[row, col]
            if abs(b) <= _ANGLE_TOL:
                continue
            theta = math.atan2(b, a)
            c, s = math.cos(theta), math.sin(theta)
            upper = c * work[row - 1] + s * work[row]
            lower = -s * work[row - 1] + c * work[row]
            work[row - 1], work[row] = upper, lower
            eliminations.append((row - 1, row, theta))
    # work is now diagonal +-1: R_m ... R_1 u = D, so u = R_1^T ... R_m^T D
    # and each R^T is G(i, j, theta) in the documented sign convention.
    return eliminations


def givens_signs(u: np.ndarray, rotations: list[tuple[int, int, float]]) -> np.ndarray:
    """Diagonal sign vector completing the decomposition of ``u``."""
    acc = np.asarray(u, dtype=float).copy()
    for i, j, theta in rotations:
        c, s = math.cos(theta), math.sin(theta)
        upper = c * acc[i] + s * acc[j]
        lower = -s * acc[i] + c * acc[j]
        acc[i], acc[j] = upper, lower
    return np.sign(np.diag(acc))


def givens_reconstruct(rotations: list[tuple[int, int, float]],
                       signs: np.ndarray) -> np.ndarray:
    """Multiply out the emitted rotations times the sign matrix."""
    out = np.diag(np.asarray(signs, dtype=float))
    for i, j, theta in reversed(rotations):
        c, s = math.cos(theta), math.sin(theta)
        upper = c * out[i] - s * out[j]
        lower = s * out[i] + c * out[j]
        out[i], out[j] = upper, lower
    return out

