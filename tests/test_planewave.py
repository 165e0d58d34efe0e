"""Plane-wave cost formulas: hand substitutions, published anchors, scalings."""

import math

import numpy as np
import pytest

from euvq.core import PlaneWaveSpec, ValidationError, fs_to_au
from euvq.planewave import (
    build_budget,
    budget_from_bits,
    continuum_projector_cost,
    dipole_block_encoding_cost,
    filter_cost,
    filter_degree,
    lambda_kinetic,
    lambda_potentials,
    lambda_total,
    lattice_sum_inv_norm,
    min_superposition_correction,
    photoemission_cost,
    precision_bits,
    prep_select_costs,
    render_table,
    theorem_query_cost,
    time_evolution_cost,
)


def make_spec(**overrides):
    base = dict(eta=110, lambda_zeta=110.0, omega_cell=200.0**3, n_bits=15,
                epsilon_be=8e-4, delta_filter=0.067, t_evolution=fs_to_au(1.0),
                p_dipole=1e-3, p_window=1e-3, p_continuum=1.0, c_sp=1e9)
    base.update(overrides)
    return PlaneWaveSpec(**base)


def test_lambda_kinetic_published_value():
    # eta=110, Omega^(1/3)=200 Bohr, n=15 -> 4.37e7
    assert lambda_kinetic(make_spec()) == pytest.approx(4.37e7, rel=0.01)


def test_lambda_kinetic_scalings():
    spec = make_spec(eta=58, n_bits=9)
    value = 6 * 58 * math.pi**2 * 2**16 / 200.0**2
    assert lambda_kinetic(spec) == pytest.approx(value, rel=1e-12)
    # n -> n+1 quadruples
    assert lambda_kinetic(make_spec(n_bits=10)) == pytest.approx(
        4 * lambda_kinetic(make_spec(n_bits=9)), rel=1e-12)


def test_lambda_potentials_anchored():
    lam_u, lam_v = lambda_potentials(make_spec())
    assert lam_u == pytest.approx(7.5e6, rel=1e-9)
    assert lam_v == pytest.approx(1.23e7, rel=1e-9)
    # doubling per grid bit
    u2, v2 = lambda_potentials(make_spec(n_bits=16))
    assert u2 == pytest.approx(2 * lam_u, rel=1e-12)
    assert v2 == pytest.approx(2 * lam_v, rel=1e-12)


def test_lambda_potentials_eta_scaling():
    u1, v1 = lambda_potentials(make_spec(eta=58, lambda_zeta=58.0, n_bits=9))
    u2, v2 = lambda_potentials(make_spec(eta=116, lambda_zeta=58.0, n_bits=9))
    assert u2 == pytest.approx(2 * u1, rel=1e-12)
    assert v2 == pytest.approx(4 * v1, rel=1e-12)


def test_lambda_total_branches():
    assert lambda_total(10.0, 0.0, 0.0, 1.0, 5) == 10.0
    # second branch dominates for small p_nu and small kinetic term
    value = lambda_total(1.0, 4.0, 6.0, 0.5, 4)
    assert value == pytest.approx((4.0 + 6.0 / (1 - 0.25)) / 0.5, rel=1e-12)
    with pytest.raises(ValidationError):
        lambda_total(1.0, 1.0, 1.0, 0.0, 4)


def test_lattice_sum_exact_small_grid():
    # brute-force oracle over all 15^3 - 1 vectors at n=4
    half = (2**4 - 1) // 2
    r = np.arange(-half, half + 1)
    x, y, z = np.meshgrid(r, r, r, indexing="ij")
    q2 = (x**2 + y**2 + z**2).astype(float)
    oracle = float(np.sum(1.0 / np.sqrt(q2[q2 > 0])))
    assert lattice_sum_inv_norm(4) == pytest.approx(oracle, rel=1e-12)


def test_lattice_sum_radial_regime():
    # the integral approximation takes over above n_bits = 7
    for n in (8, 10):
        assert lattice_sum_inv_norm(n) == pytest.approx(2 * math.pi * 4**n / 4, rel=1e-12)
    assert lattice_sum_inv_norm(7) != pytest.approx(2 * math.pi * 4**7 / 4, rel=1e-12)


def test_filter_convention_recorded_in_report():
    spec = make_spec(n_bits=9, epsilon_be=1e-6)
    labels = [label for label, _ in photoemission_cost(spec).breakdown]
    assert any("table prefactor" in label for label in labels)
    body_spec = PlaneWaveSpec(**{**spec.to_dict(), "filter_convention": "body"})
    labels = [label for label, _ in photoemission_cost(body_spec).breakdown]
    assert any("body prefactor" in label for label in labels)


def test_precision_bits_corollary_point():
    spec = make_spec()
    lam = lambda_total(lambda_kinetic(spec), *lambda_potentials(spec), spec.p_nu, spec.eta)
    n_m, n_r, n_t = precision_bits(spec, lam)
    # published n_R = 50; the documented estimator gives 49 (within +-1).
    assert abs(n_r - 50) <= 1
    # published (n_M, n_T) = (36, 35) are NOT reproduced by the stated
    # formulas (they give far fewer/more bits); recorded, not asserted.
    assert n_m == 19
    assert n_t == 40


def test_precision_bits_scale_with_epsilon():
    spec = make_spec()
    lam = lambda_total(lambda_kinetic(spec), *lambda_potentials(spec), spec.p_nu, spec.eta)
    base = precision_bits(spec, lam)
    doubled = precision_bits(PlaneWaveSpec(**{**spec.to_dict(), "epsilon_be": 2 * 8e-4}), lam)
    assert tuple(b - d for b, d in zip(base, doubled)) == (1, 1, 1)


def test_precision_bits_floor_at_one_bit():
    # a one-bit grid has no nonzero lattice vector, so its n_R error is zero;
    # an error scale far below epsilon_be/3 needs no more than the one bit
    spec = make_spec(n_bits=1)
    lam = lambda_total(lambda_kinetic(spec), *lambda_potentials(spec), spec.p_nu, spec.eta)
    assert lattice_sum_inv_norm(1) == 0.0
    assert precision_bits(spec, lam)[1] == 1
    assert precision_bits(make_spec(epsilon_be=1e300), lam) == (1, 1, 1)
    assert photoemission_cost(spec).shots == 10**4


def test_min_superposition_correction():
    # min over k of ceil(110/2^k) + 2^k: k=3 gives 14+8=22
    assert min_superposition_correction(110.0) == 22
    assert min_superposition_correction(58.0) == 16


def test_prep_select_hand_substitution():
    # n=9, eta=110, lz=110, n_M=36, n_R=50, n_T=35, n_ez=9, b_r=7
    spec = make_spec(n_bits=9)
    c_prep, c_sel = prep_select_costs(spec, n_m=36, n_r=50, n_t=35, n_eta_zeta=9)
    # prep_UV = 2*81 + 135 + 4*36*10 - 7 + 110 + 22 = 1862
    # prep_T = 2*(9+9) = 36
    # prep_TUV = 2*(35 + 36 + 14 - 12) + 14*110 + 56 - 36 = 1706
    assert c_prep == 1862 + 36 + 1706 == 3604
    # sel_UV = 216 + 2700; sel_T = 42; sel_TUV = 11880 - 440 - 8 = 11432
    assert c_sel == 216 + 2700 + 42 + 11432 == 14390


def test_prep_select_minimal_instance():
    spec = make_spec(eta=1, lambda_zeta=1.0, n_bits=1)
    c_prep, c_sel = prep_select_costs(spec, n_m=1, n_r=1, n_t=1, n_eta_zeta=2)
    assert c_prep > 0 and c_sel > 0


def test_theorem_query_cost_corollary():
    # published stated inputs (n=15, n_M=36, n_R=50, n_T=35, b_r=7) -> T1
    spec = make_spec()
    t1 = theorem_query_cost(spec, n_m=36, n_r=50, n_t=35, n_eta=7, n_eta_zeta=9)
    # term-by-term hand evaluation:
    # 2*(35+36+14-12)=146; 14*7=98; 8*7-36=20; 12*110*15=19800; 4*110-8=432;
    # 5*14+2=72; 3*225=675; 15*15=225; 4*36*16-7=2297; 110; 24*15=360;
    # 3*(1500-240-1)=3777  -> total 28012
    assert t1 == 28012
    assert abs(t1 / 2.53e4 - 1.0) <= 0.15


def test_theorem_query_cost_monotone_in_n():
    spec9 = make_spec(n_bits=9)
    spec10 = make_spec(n_bits=10)
    t9 = theorem_query_cost(spec9, 20, 40, 30, 7, 9)
    t10 = theorem_query_cost(spec10, 20, 40, 30, 7, 9)
    assert t10 > t9
    # growth dominated by 12*eta*n and 3n^2 terms
    assert t10 - t9 >= 12 * 110


@pytest.mark.parametrize("eta, n, eps, expected", [
    (58, 9, 1e-3, 1666),   # 9*(9+173) + 8 + 20
    (1, 1, 0.5, 7),        # 1*3 + 2 + 2
])
def test_dipole_block_encoding_cost(eta, n, eps, expected):
    spec = make_spec(eta=eta, lambda_zeta=float(eta), n_bits=n, epsilon_be=eps)
    assert dipole_block_encoding_cost(spec) == expected


def test_dipole_cost_corollary_shape():
    spec = make_spec(epsilon_be=1e-3)
    assert dipole_block_encoding_cost(spec) == 15 * (15 + 329) + 9 + 20


def test_filter_cost_conventions():
    spec = make_spec(n_bits=9, epsilon_be=1e-3)
    table = filter_cost(spec, 5e7, 100, 200, 50)
    body = filter_cost(PlaneWaveSpec(**{**spec.to_dict(), "filter_convention": "body"}),
                       5e7, 100, 200, 50)
    logeps = 10  # ceil(log2 1000)
    assert table == pytest.approx(
        math.sqrt(2) * math.pi * 5e7 * (100 + 400 + 50) / 0.067 * logeps, rel=1e-12)
    assert body == pytest.approx(
        5e7 * (100 + 200 + 50) / (2 * math.sqrt(2 * math.log(2)) * 0.067) * logeps,
        rel=1e-12)
    # halving delta doubles the cost
    half = filter_cost(PlaneWaveSpec(**{**spec.to_dict(), "delta_filter": 0.067 / 2}),
                       5e7, 100, 200, 50)
    assert half == pytest.approx(2 * table, rel=1e-12)


def test_filter_degree_published_scale():
    # lambda = 5e7, delta = 0.067 -> about 3.17e8 per log2(1/eps) unit
    assert filter_degree(5e7, 0.067, 0.5) == pytest.approx(3.169e8, rel=1e-3)


def test_filter_cost_vanishes_for_wide_window():
    narrow = filter_cost(make_spec(), 5e7, 100, 200, 50)
    wide = filter_cost(make_spec(delta_filter=1e12), 5e7, 100, 200, 50)
    assert wide == pytest.approx(narrow * 0.067 / 1e12, rel=1e-12)
    assert wide < 1e-10 * narrow


def test_time_evolution_cost():
    spec = make_spec(n_bits=9, epsilon_be=1e-3)
    combo = 14390 + 2 * 3604 + 122
    cost = time_evolution_cost(spec, 5e7, 14390, 3604, 122)
    degree = 2 * 5e7 * fs_to_au(1.0) + 3 * math.log2(12 / 1e-3)
    assert cost == pytest.approx(degree * combo, rel=1e-12)
    # t = 0, epsilon >= 12: degree clamps to zero
    idle = PlaneWaveSpec(**{**spec.to_dict(), "t_evolution": 0.0, "epsilon_be": 12.0})
    assert time_evolution_cost(idle, 5e7, 14390, 3604, 122) == 0.0


@pytest.mark.parametrize("eta, n, expected", [
    (58, 9, 58 * 907),
    (1, 1, 5),
    (110, 15, 110 * (2700 - 120 + 7 + 1)),
])
def test_continuum_projector_cost(eta, n, expected):
    spec = make_spec(eta=eta, lambda_zeta=float(eta), n_bits=n)
    assert continuum_projector_cost(spec) == expected


def test_budget_corollary_ancillas():
    # with the published bit counts the ancilla total lands at 3538 (q_anc 3542)
    spec = make_spec()
    lam_t = lambda_kinetic(spec)
    lam_u, lam_v = lambda_potentials(spec)
    lam = lambda_total(lam_t, lam_u, lam_v, 1.0, 110)
    budget = budget_from_bits(spec, lam_t, lam_u, lam_v, lam, n_m=36, n_r=50, n_t=35)
    assert budget.system_qubits == 4950
    assert budget.ancilla_qubits == 3538
    assert budget.toffoli_per_query == 28012


def test_photoemission_cost_structure():
    spec = make_spec(n_bits=9, epsilon_be=1e-6)
    report = photoemission_cost(spec)
    assert report.shots == 10**4
    assert report.overall_gates == report.gates_per_circuit * 10**4
    assert sum(c for _, c in report.breakdown) == report.gates_per_circuit
    assert report.logical_qubits == build_budget(spec).total_qubits


def test_photoemission_no_amplification_limit():
    spec = make_spec(n_bits=4, eta=2, lambda_zeta=2.0, p_dipole=1.0, p_window=1.0,
                     p_continuum=1.0, t_evolution=0.0, delta_filter=1e15,
                     epsilon_be=12.0, c_sp=100.0)
    report = photoemission_cost(spec)
    c_x = dipole_block_encoding_cost(spec)
    c_bound = continuum_projector_cost(spec)
    # filter and evolution vanish; only prep, dipole, projector remain
    residual = report.gates_per_circuit - (100.0 + c_x + c_bound)
    assert abs(residual) / report.gates_per_circuit < 0.05


def test_photoemission_monotonicity():
    base = photoemission_cost(make_spec(n_bits=9, epsilon_be=1e-6)).gates_per_circuit
    # non-decreasing drivers
    up = {
        "eta": make_spec(n_bits=9, epsilon_be=1e-6, eta=140),
        "n_bits": make_spec(n_bits=10, epsilon_be=1e-6),
        "t": make_spec(n_bits=9, epsilon_be=1e-6, t_evolution=fs_to_au(10.0)),
        "lambda_zeta": make_spec(n_bits=9, epsilon_be=1e-6, lambda_zeta=140.0),
    }
    for name, spec in up.items():
        assert photoemission_cost(spec).gates_per_circuit > base, name
    # non-increasing drivers (cost grows as they shrink)
    down = {
        "epsilon_be": make_spec(n_bits=9, epsilon_be=1e-8),
        "delta": make_spec(n_bits=9, epsilon_be=1e-6, delta_filter=0.01),
        "p_dipole": make_spec(n_bits=9, epsilon_be=1e-6, p_dipole=1e-4),
        "p_window": make_spec(n_bits=9, epsilon_be=1e-6, p_window=1e-4),
        "p_continuum": make_spec(n_bits=9, epsilon_be=1e-6, p_continuum=0.25),
    }
    for name, spec in down.items():
        assert photoemission_cost(spec).gates_per_circuit > base, name


def test_lambda_potentials_single_electron_probe():
    # eta = 1 still evaluates the pair formula (no physical pair interaction)
    spec = make_spec(eta=1, lambda_zeta=1.0, n_bits=6)
    _, lam_v = lambda_potentials(spec)
    from euvq.planewave import KAPPA_V

    assert lam_v == pytest.approx(KAPPA_V * 2**6 / 200.0, rel=1e-12)


def test_exact_reproducibility():
    spec = make_spec(n_bits=11, epsilon_be=1e-6)
    a = photoemission_cost(spec)
    b = photoemission_cost(spec)
    assert a.gates_per_circuit == b.gates_per_circuit
    assert a.to_dict() == b.to_dict()


def test_render_table_shape():
    spec = make_spec(n_bits=9, epsilon_be=1e-6)
    text = render_table([("AE", spec, photoemission_cost(spec))])
    assert text.splitlines()[0].startswith("Method")
    assert "2^9" in text
