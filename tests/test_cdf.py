"""Double factorization and Givens decomposition against dense oracles."""

import numpy as np
import pytest

from euvq.cdf import (
    CdfFactorization,
    TwoElectronTensor,
    double_factorize,
    givens_decompose,
    givens_reconstruct,
    givens_signs,
)
from euvq.core import ValidationError


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
    np.testing.assert_allclose(fact.reconstruct(n), reconstruct(fact, n), atol=1e-12)


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


def test_l_max_clamped_with_warning():
    tensor = random_symmetric_tensor(3, 5)
    with pytest.warns(UserWarning):
        fact = double_factorize(tensor, l_max=100)
    assert len(fact) <= 9


def test_givens_identity_empty():
    assert givens_decompose(np.eye(5)) == []


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


def test_givens_rejects_non_orthogonal():
    with pytest.raises(ValidationError):
        givens_decompose(np.ones((3, 3)))


def test_factorization_type_exposed():
    fact = double_factorize(random_symmetric_tensor(3, 1), l_max=9)
    assert isinstance(fact, CdfFactorization)
