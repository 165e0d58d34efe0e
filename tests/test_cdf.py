"""Double factorization and Givens decomposition against dense oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euvq.cdf import (
    CdfFactorization,
    TwoElectronTensor,
    double_factorize,
    givens_decompose,
)
from euvq.core import ValidationError


def givens_signs(u, rotations):
    """Diagonal sign vector completing the decomposition of ``u``."""
    acc = np.asarray(u, dtype=float).copy()
    for i, j, theta in rotations:
        c, s = math.cos(theta), math.sin(theta)
        acc[i], acc[j] = c * acc[i] + s * acc[j], -s * acc[i] + c * acc[j]
    return np.sign(np.diag(acc))


def givens_reconstruct(rotations, signs):
    """Multiply out the emitted rotations times the sign matrix."""
    out = np.diag(np.asarray(signs, dtype=float))
    for i, j, theta in reversed(rotations):
        c, s = math.cos(theta), math.sin(theta)
        out[i], out[j] = c * out[i] - s * out[j], s * out[i] + c * out[j]
    return out


def random_symmetric_tensor(n, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n,) * 4)
    t = t + t.transpose(1, 0, 2, 3)
    t = t + t.transpose(0, 1, 3, 2)
    t = t + t.transpose(2, 3, 0, 1)
    return TwoElectronTensor(n_orbitals=n, values=t)


def random_orthogonal(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def reconstruct(fact, n):
    # dense oracle: assemble sum_l U U Z U U independently of the class method
    out = np.zeros((n,) * 4)
    for u, z in fact.fragments:
        out += np.einsum("pk,qk,kl,rl,sl->pqrs", u, u, z, u, u)
    return out


def test_tensor_symmetry_validation():
    rng = np.random.default_rng(0)
    bad = rng.standard_normal((3, 3, 3, 3))
    with pytest.raises(ValidationError):
        TwoElectronTensor(n_orbitals=3, values=bad)


def _tensor_off_by(dev):
    # zero tensor but for one entry, so (qp|rs) and (rs|pq) each deviate by exactly ``dev``
    values = np.zeros((2, 2, 2, 2))
    values[0, 1, 0, 0] = dev
    return values


def test_tensor_symmetry_tolerance_is_inclusive():
    assert TwoElectronTensor(n_orbitals=2, values=_tensor_off_by(1e-10)).n_orbitals == 2
    with pytest.raises(ValidationError, match=r"violates \(qp\|rs\) symmetry beyond 1e-10"):
        TwoElectronTensor(n_orbitals=2, values=_tensor_off_by(2e-10))


def test_tensor_symmetry_refuses_nan():
    values = np.zeros((2, 2, 2, 2))
    values[1, 1, 1, 1] = np.nan
    with pytest.raises(ValidationError, match=r"violates \(qp\|rs\) symmetry beyond 1e-10"):
        TwoElectronTensor(n_orbitals=2, values=values)


def test_tensor_symmetry_accepts_what_allclose_accepts():
    # equal infinities are close to np.allclose, and an empty tensor passes
    values = np.full((2, 2, 2, 2), np.inf)
    assert np.allclose(values, values.transpose(1, 0, 2, 3), atol=1e-10, rtol=0.0)
    TwoElectronTensor(n_orbitals=2, values=values)
    TwoElectronTensor(n_orbitals=0, values=np.zeros((0, 0, 0, 0)))
    values[0, 1, 0, 0] = -np.inf
    with pytest.raises(ValidationError, match=r"\(qp\|rs\)"):
        TwoElectronTensor(n_orbitals=2, values=values)


def test_single_fragment_tensor_exact():
    # a tensor built from one (U, Z) pair must factorize exactly with l_max=1
    n = 5
    u = random_orthogonal(n, 7)
    z_eigs = np.array([1.5, -0.7, 0.3, 0.1, -0.05])
    w = u @ np.diag(z_eigs) @ u.T
    values = np.einsum("pq,rs->pqrs", w, w)
    tensor = TwoElectronTensor(n_orbitals=n, values=values)
    fact = double_factorize(tensor, l_max=1)
    assert len(fact) == 1
    assert fact.reconstruction_error <= 1e-10
    np.testing.assert_allclose(reconstruct(fact, n), values, atol=1e-10)


def test_zero_tensor():
    tensor = TwoElectronTensor(n_orbitals=3, values=np.zeros((3, 3, 3, 3)))
    fact = double_factorize(tensor, l_max=3)
    assert len(fact) == 0
    assert fact.reconstruction_error == 0.0


def test_full_rank_factorization_is_exact():
    n = 4
    tensor = random_symmetric_tensor(n, 11)
    fact = double_factorize(tensor, l_max=n * n)
    assert fact.reconstruction_error <= 1e-8
    np.testing.assert_allclose(reconstruct(fact, n), tensor.values, atol=1e-8)


def test_truncation_error_monotone():
    n = 4
    tensor = random_symmetric_tensor(n, 23)
    errors = [double_factorize(tensor, l_max=l).reconstruction_error
              for l in range(1, n * n + 1)]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-8


def test_fragment_structure():
    n = 4
    fact = double_factorize(random_symmetric_tensor(n, 3), l_max=6)
    for u, z in fact.fragments:
        np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(z, z.T, atol=1e-12)


def test_l_max_outside_one_to_n_squared_refused():
    tensor = random_symmetric_tensor(3, 5)
    assert len(double_factorize(tensor, l_max=9)) <= 9
    refusal = "field 'l_max' in tensor file must be from 1 to 9, got "
    for l_max in (0, 10, 100):
        with pytest.raises(ValidationError, match=f"{refusal}{l_max}$"):
            double_factorize(tensor, l_max=l_max)


def test_givens_identity_empty():
    assert givens_decompose(np.eye(5)) == []


def test_givens_empty_matrix_empty():
    assert givens_decompose(np.zeros((0, 0))) == []


@pytest.mark.parametrize("u", [np.float64(1.0), np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2))],
                         ids=["0d", "1d", "2x3", "3d"])
def test_givens_refuses_non_square(u):
    with pytest.raises(ValidationError, match="matrix must be square"):
        givens_decompose(u)


def test_givens_orthogonality_tolerance_is_inclusive():
    # u^T u deviates from the identity by exactly eps off the diagonal (1 + eps^2 rounds to 1)
    u = np.eye(2)
    u[0, 1] = 1e-10
    assert np.abs(u.T @ u - np.eye(2)).max() == 1e-10
    assert givens_decompose(u) == []
    u[0, 1] = 2e-10
    with pytest.raises(ValidationError, match="matrix is not orthogonal to 1e-10"):
        givens_decompose(u)


def test_givens_refuses_nan():
    u = np.eye(3)
    u[2, 0] = np.nan
    with pytest.raises(ValidationError, match="matrix is not orthogonal to 1e-10"):
        givens_decompose(u)


def test_givens_2x2_single_rotation():
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotations = givens_decompose(u)
    assert len(rotations) == 1
    i, j, angle = rotations[0]
    assert (i, j) == (0, 1)
    assert angle == pytest.approx(theta, abs=1e-12)


@pytest.mark.parametrize("n, seed", [(3, 0), (6, 1), (6, 2), (9, 3)])
def test_givens_reconstruction_oracle(n, seed):
    u = random_orthogonal(n, seed)
    if seed % 2:
        u[:, 0] *= -1.0  # exercise det = -1
    rotations = givens_decompose(u)
    assert len(rotations) <= n * (n - 1) // 2
    signs = givens_signs(u, rotations)
    np.testing.assert_allclose(givens_reconstruct(rotations, signs), u, atol=1e-9)


def numpy_row_eliminations(u):
    """givens_decompose's elimination loop written on 1D numpy rows, one rotation at a time."""
    work = np.asarray(u, dtype=float).copy()
    n = len(work)
    eliminations = []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            a, b = work[row - 1, col], work[row, col]
            if abs(b) <= 1e-14:
                continue
            theta = math.atan2(b, a)
            c, s = math.cos(theta), math.sin(theta)
            upper = c * work[row - 1] + s * work[row]
            lower = -s * work[row - 1] + c * work[row]
            work[row - 1], work[row] = upper, lower
            eliminations.append((row - 1, row, theta))
    return eliminations


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), flip=st.booleans(),
       permute=st.booleans())
def test_givens_float_rows_match_numpy_rows(n, seed, flip, permute):
    # the rotations on Python float rows are the same IEEE products and sums as on
    # numpy rows, so the eliminations agree to the bit; a permutation with signs
    # exercises the exact zeros that are skipped
    if permute:
        rng = np.random.default_rng(seed)
        u = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
    else:
        u = random_orthogonal(n, seed)
    if flip:
        u[:, 0] *= -1.0
    assert givens_decompose(u) == numpy_row_eliminations(u)


def test_givens_rejects_non_orthogonal():
    with pytest.raises(ValidationError):
        givens_decompose(np.ones((3, 3)))


def test_factorization_type_exposed():
    fact = double_factorize(random_symmetric_tensor(3, 1), l_max=9)
    assert isinstance(fact, CdfFactorization)
