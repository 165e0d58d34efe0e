"""Brute-force verification of the reversible-arithmetic emulation and its Toffoli counts."""

import numpy as np
import pytest

from conftest import inside_sphere
from euvq.core import PlaneWaveSpec, ValidationError
from euvq.planewave import continuum_projector_cost, dipole_block_encoding_cost
from euvq.qarith import (
    BitRegister,
    all_bound,
    all_bound_toffolis,
    be_x_amplitude,
    comp,
    position_be_toffolis,
    radius_test,
    radius_test_toffolis,
    radius_threshold,
)


def test_bit_register_bounds():
    BitRegister(width=3, value=7)
    with pytest.raises(ValidationError):
        BitRegister(width=3, value=8)
    reg = BitRegister.from_int(-3, width=4, signed=True)
    assert reg.value == 0b1101
    assert reg.as_int == -3
    with pytest.raises(ValidationError):
        BitRegister.from_int(8, width=4, signed=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_comp_exhaustive(n):
    for alpha in range(2**n):
        for beta in range(2**n):
            got = comp(BitRegister(n, alpha), BitRegister(n, beta))
            assert got == int(beta < alpha)


def test_comp_width_mismatch():
    with pytest.raises(ValidationError):
        comp(BitRegister(3, 1), BitRegister(4, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_be_x_amplitude_exact(n):
    for alpha in range(2**n + 1):
        amp0, amp1 = be_x_amplitude(alpha, n)
        assert amp0 == alpha / 2**n
        assert amp1 == (2**n - alpha) / 2**n


def test_be_x_amplitude_boundaries():
    assert be_x_amplitude(0, 3)[0] == 0.0
    assert be_x_amplitude(8, 3)[0] == 1.0  # full-range convention


def test_be_x_amplitude_refuses_large_registers():
    with pytest.raises(ValidationError, match=r"2\^width comparator branches"):
        be_x_amplitude(1, 7)


def test_radius_test_origin_and_corner():
    zero = tuple(BitRegister.from_int(0, 3, signed=True) for _ in range(3))
    assert radius_test(zero, 0.5, 10.0) == 1
    corner = tuple(BitRegister.from_int(3, 3, signed=True) for _ in range(3))
    assert radius_test(corner, 1e-6, 10.0) == 0


def test_radius_test_exhaustive_vs_float_sphere():
    n, box = 3, 10.0
    rng = np.random.default_rng(6)
    for _ in range(12):
        r_c = float(rng.uniform(0.3, 7.0))
        constant = radius_threshold(r_c, n, box)
        scaled = (r_c * 2**n / box) ** 2
        for qx in range(-4, 4):
            for qy in range(-4, 4):
                for qz in range(-4, 4):
                    regs = tuple(BitRegister.from_int(v, n, signed=True)
                                 for v in (qx, qy, qz))
                    got = radius_test(regs, r_c, box)
                    q2 = qx**2 + qy**2 + qz**2
                    # the constant is the largest integer below the scaled radius
                    # squared, so <= on integers is the strict < (no draw is a tie)
                    assert got == int(q2 <= constant) == int(q2 < scaled)


def test_radius_test_exact_integer_constant_counts_the_sphere_outside():
    # R 2^n / L = 5 * 8 / 10 = 4 exactly, so the constant is 16 and q^2 = 16 is on the sphere
    n, box, r_c = 3, 10.0, 5.0
    assert radius_threshold(r_c, n, box) == 15
    on_sphere = tuple(BitRegister.from_int(v, n, signed=True) for v in (-4, 0, 0))
    assert radius_test(on_sphere, r_c, box) == 0
    inside = tuple(BitRegister.from_int(v, n, signed=True) for v in (3, -2, 1))  # 14
    assert radius_test(inside, r_c, box) == 1


def test_radius_test_toffoli_count():
    n = 4
    assert radius_test_toffolis(n) == 12 * n * n - 8 * n + 1


def test_all_bound_reduces_to_radius_test():
    regs = tuple(BitRegister.from_int(1, 3, signed=True) for _ in range(3))
    assert all_bound([regs], 3.0, 10.0) == radius_test(regs, 3.0, 10.0)


def test_all_bound_any_outside_flips():
    inner = tuple(BitRegister.from_int(0, 3, signed=True) for _ in range(3))
    outer = tuple(BitRegister.from_int(3, 3, signed=True) for _ in range(3))
    assert all_bound([inner, inner, inner], 2.0, 10.0) == 1
    assert all_bound([inner, outer, inner], 2.0, 10.0) == 0


def test_all_bound_random_ensembles_match_product_oracle():
    rng = np.random.default_rng(14)
    n, box = 3, 12.0
    for _ in range(10_000 // 50):
        r_c = float(rng.uniform(0.5, 8.0))
        for _ in range(50):
            particles = []
            bits = []
            for _ in range(3):
                vals = rng.integers(-4, 4, size=3)
                regs = tuple(BitRegister.from_int(int(v), n, signed=True) for v in vals)
                particles.append(regs)
                bits.append(radius_test(regs, r_c, box))
            assert all_bound(particles, r_c, box) == int(all(bits))


def test_all_bound_toffolis_match_closed_form():
    for eta, n in ((1, 5), (2, 2), (3, 2), (5, 5), (8, 4)):
        spec = PlaneWaveSpec(eta=eta, lambda_zeta=float(eta), omega_cell=1000.0, n_bits=n,
                             epsilon_be=1e-3, delta_filter=0.1, t_evolution=0.0)
        assert all_bound_toffolis(n, eta) == continuum_projector_cost(spec)


def test_position_toffolis_equal_closed_form_cross_module():
    rng = np.random.default_rng(16)
    for _ in range(100):
        eta = int(rng.integers(1, 200))
        n = int(rng.integers(1, 16))
        eps = float(rng.choice([0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6]))
        spec = PlaneWaveSpec(eta=eta, lambda_zeta=float(eta), omega_cell=1000.0,
                             n_bits=n, epsilon_be=eps, delta_filter=0.1,
                             t_evolution=0.0)
        assert position_be_toffolis(spec) == dipole_block_encoding_cost(spec)


def test_comp_sampled_wide_registers():
    # 1e5 sampled cases at n = 8
    rng = np.random.default_rng(19)
    a_vals = rng.integers(0, 256, size=100_000)
    b_vals = rng.integers(0, 256, size=100_000)
    for a, b in zip(a_vals[:2000], b_vals[:2000]):
        assert comp(BitRegister(8, int(a)), BitRegister(8, int(b))) == int(b < a)
    # the remaining samples via the same predicate, vectorized
    assert np.array_equal(
        np.fromiter((comp(BitRegister(8, int(a)), BitRegister(8, int(b)))
                     for a, b in zip(a_vals[2000:12000], b_vals[2000:12000])),
                    dtype=int),
        (b_vals[2000:12000] < a_vals[2000:12000]).astype(int))


def _largest_inside(r_c: float, n: int, box: float) -> int:
    """The threshold t, the largest sum q^2 inside the sphere, by bisection on ``inside_sphere``."""
    inside, outside = 0, 3 * 4**n + 1  # the origin is inside; no n-bit point reaches 3 * 4^n + 1
    assert inside_sphere(inside, r_c, n, box) and not inside_sphere(outside, r_c, n, box)
    while outside - inside > 1:
        mid = (inside + outside) // 2
        if inside_sphere(mid, r_c, n, box):
            inside = mid
        else:
            outside = mid
    return inside


def _shell_points(q2: int, rng, count: int) -> np.ndarray:
    """Up to ``count`` random 8-bit points (x, y, z) with x^2 + y^2 + z^2 = q2 exactly."""
    coords = np.arange(-127, 128)
    rest = q2 - coords[:, None] ** 2 - coords[None, :] ** 2  # z^2 for each (x, y)
    z = np.sqrt(np.maximum(rest, 0)).round().astype(int)
    x, y = np.nonzero((rest >= 0) & (z * z == rest) & (z <= 127))
    pick = rng.permutation(len(x))[:count]
    signs = rng.choice([-1, 1], size=len(pick))
    return np.column_stack([coords[x[pick]], coords[y[pick]], signs * z[x[pick], y[pick]]])


def _sampled_radius_mismatches() -> int:
    """8-bit points where radius_test leaves the sphere's definition (``inside_sphere``).

    At each of 40 radii: 250 uniform points, and up to 5 points on each of
    the integer shells sum q^2 = t - 1, t and t + 1 around the threshold t,
    which the definition alone gives (:func:`_largest_inside`). The uniform
    points catch a threshold 5 too high at only 2 of 10000; the shells catch
    one off by one either way.
    """
    rng, shell_rng = np.random.default_rng(20), np.random.default_rng(21)
    n, box = 8, 50.0
    mismatches = 0
    for _ in range(40):
        r_c = float(rng.uniform(1.0, 30.0))
        vals = rng.integers(-128, 128, size=(250, 3))
        t = _largest_inside(r_c, n, box)
        shells = [_shell_points(q2, shell_rng, 5) for q2 in (t - 1, t, t + 1)]
        for row in np.concatenate([vals, *shells]):
            regs = tuple(BitRegister.from_int(int(v), n, signed=True) for v in row)
            want = int(inside_sphere(sum(int(v) ** 2 for v in row), r_c, n, box))
            mismatches += radius_test(regs, r_c, box) != want
    return mismatches


def test_radius_test_sampled_wide_registers():
    assert _sampled_radius_mismatches() == 0


def test_radius_test_sampled_catches_a_shifted_threshold(radius_threshold_plus_5):
    assert _sampled_radius_mismatches() > 0


@pytest.mark.parametrize("mutant", ["radius_threshold_minus_1", "radius_threshold_plus_1"])
def test_radius_test_sampled_catches_a_threshold_off_by_one(request, mutant):
    request.getfixturevalue(mutant)
    assert _sampled_radius_mismatches() > 0
