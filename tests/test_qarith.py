"""Brute-force verification of the reversible-arithmetic emulation and ledgers."""

import numpy as np
import pytest

from euvq.core import PlaneWaveSpec, ValidationError
from euvq.planewave import continuum_projector_cost, dipole_block_encoding_cost
from euvq.qarith import (
    BitRegister,
    ToffoliLedger,
    all_bound,
    be_x_amplitude,
    comp,
    position_be_ledger,
    radius_test,
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


def test_comp_charges_n_toffolis():
    ledger = ToffoliLedger()
    comp(BitRegister(5, 9), BitRegister(5, 3), ledger=ledger)
    assert ledger.total() == 5
    with pytest.raises(ValidationError):
        ledger.charge("bad", -1)
    assert ledger.total() == 5


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
    with pytest.raises(ValidationError):
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
                    # float oracle with strict <; ties cannot occur for
                    # irrational scaled radii, and floor semantics otherwise
                    assert got == int(q2 <= constant) == int(q2 < scaled or q2 == constant)


def test_radius_test_ledger_counts():
    n = 4
    regs = tuple(BitRegister.from_int(1, n, signed=True) for _ in range(3))
    ledger = ToffoliLedger()
    radius_test(regs, 2.0, 10.0, ledger=ledger)
    assert ledger.total() == 12 * n * n - 8 * n + 1
    full = ledger.total("Full")
    assert full == ledger.total() + 3 * n * (3 * n - 3) + 3 * n * n - n - 1


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


def test_all_bound_ledger_matches_closed_form():
    rng = np.random.default_rng(15)
    for eta in (1, 2, 3, 5, 8):
        n = int(rng.integers(2, 6))
        particles = []
        for _ in range(eta):
            vals = rng.integers(-(2 ** (n - 1)), 2 ** (n - 1), size=3)
            particles.append(tuple(BitRegister.from_int(int(v), n, signed=True)
                                   for v in vals))
        ledger = ToffoliLedger()
        all_bound(particles, 2.0, 10.0, ledger=ledger)
        spec = PlaneWaveSpec(eta=eta, lambda_zeta=float(eta), omega_cell=1000.0, n_bits=n,
                             epsilon_be=1e-3, delta_filter=0.1, t_evolution=0.0)
        assert ledger.total() == continuum_projector_cost(spec)


def test_measure_fixup_never_exceeds_full():
    spec = PlaneWaveSpec(eta=17, lambda_zeta=17.0, omega_cell=1000.0, n_bits=5,
                         epsilon_be=1e-3, delta_filter=0.1, t_evolution=0.0)
    ledger = position_be_ledger(spec)
    assert ledger.total("MeasureFixup") <= ledger.total("Full")
    delta = ledger.total("Full") - ledger.total("MeasureFixup")
    assert delta == sum(count for _, count in ledger.fixup_entries)


def test_position_ledger_equals_closed_form_cross_module():
    rng = np.random.default_rng(16)
    for _ in range(100):
        eta = int(rng.integers(1, 200))
        n = int(rng.integers(1, 16))
        eps = float(rng.choice([0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6]))
        spec = PlaneWaveSpec(eta=eta, lambda_zeta=float(eta), omega_cell=1000.0,
                             n_bits=n, epsilon_be=eps, delta_filter=0.1,
                             t_evolution=0.0)
        assert position_be_ledger(spec).total() == dipole_block_encoding_cost(spec)


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


def test_radius_test_sampled_wide_registers():
    rng = np.random.default_rng(20)
    n, box = 8, 50.0
    for _ in range(40):
        r_c = float(rng.uniform(1.0, 30.0))
        constant = radius_threshold(r_c, n, box)
        vals = rng.integers(-128, 128, size=(250, 3))
        for row in vals:
            regs = tuple(BitRegister.from_int(int(v), n, signed=True) for v in row)
            want = int(int(row[0])**2 + int(row[1])**2 + int(row[2])**2 <= constant)
            assert radius_test(regs, r_c, box) == want
