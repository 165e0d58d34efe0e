"""Absorption-estimator formulas against hand-substituted values and series oracles."""

import math

import pytest

from euvq.absorption import (
    absorption_breakdown,
    absorption_cost,
    beta_bound,
    beta_limit,
    fragment_cost,
    render_table,
    rotation_cost,
    shot_count,
    trotter_step_size,
)
from euvq.core import (EUV_OMEGA_HA, AbsorptionSpec, ValidationError, cross_section_prefactor,
                       ev_to_hartree)


def table1_spec(n, **overrides):
    base = dict(n_orbitals=n, l_fragments=n, gamma=ev_to_hartree(1.0),
                spectral_norm=4.0, j_max=200, tau=math.pi / 8, y3_magnitude=10.0,
                dipole_norm=6.25, epsilon=0.1, rot_bits=18,
                shot_alpha=0.10, shot_beta=4.7)
    base.update(overrides)
    return AbsorptionSpec(**base)


@pytest.mark.parametrize("bits, expected", [(18, 16), (3, 1), (20, 18)])
def test_rotation_cost(bits, expected):
    assert rotation_cost(bits) == expected


def test_rotation_cost_rejects_tiny_adders():
    with pytest.raises(ValidationError):
        rotation_cost(2)


@pytest.mark.parametrize("n, c_rot, unitary, zmatr", [
    (22, 16, 15488, 15136),
    (1, 1, 2, 1),
    (50, 16, 80000, 79200),
])
def test_fragment_cost_substitution(n, c_rot, unitary, zmatr):
    assert fragment_cost(n, c_rot) == (unitary, zmatr)


def test_trotter_step_size():
    assert trotter_step_size(ev_to_hartree(1.0), 10.0) == pytest.approx(0.0606, abs=2e-4)
    assert trotter_step_size(0.5, 0.5) == 1.0
    assert trotter_step_size(0.0676, 1.0) == pytest.approx(0.260, abs=1e-3)


def test_trotter_steps_at_least_one():
    # tau / Delta underflows to 0 on the first Table 1 row; a positive tau still takes a step
    spec = table1_spec(22, tau=5e-324, gamma=100.0)
    assert spec.tau / trotter_step_size(spec.gamma, spec.y3_magnitude) == 0.0
    details = absorption_breakdown(spec)
    assert details.trotter_steps_per_tau == 1
    assert absorption_cost(spec).gates_per_circuit == 401 * details.c_trotter_step


def series_beta(tau, gamma, j_max):
    # independent oracle: direct summation of the weight magnitudes
    return (tau / (2 * math.pi)) * sum(math.exp(-gamma * tau * abs(j))
                                       for j in range(-j_max, j_max + 1))


# gamma tau from 1e-30 to 10; below about 1e-16, r = exp(-gamma tau) rounds to 1
VANISHING_DECAY = (1e-30, 1e-20, 1e-16, 1e-12, 1e-6, 1e-2, 1.0, 10.0)


def test_beta_bound_matches_series():
    cases = [(0.0676, math.pi / 8, 200), (0.5, 0.1, 50), (0.02, 1.0, 400)]
    cases += [(gamma_tau / 0.5, 0.5, j_max) for gamma_tau in VANISHING_DECAY
              for j_max in (0, 1, 7, 200)]
    for gamma, tau, j_max in cases:
        assert beta_bound(tau, gamma, j_max) == pytest.approx(
            series_beta(tau, gamma, j_max), rel=1e-12)


def test_beta_bound_single_term():
    tau = 0.7
    assert beta_bound(tau, 1.0, 0) == pytest.approx(tau / (2 * math.pi), rel=1e-12)


def test_beta_small_tau_limit():
    # at gamma = 0.0676 Ha the j_max -> inf small-tau limit is 1/(pi*gamma) = 4.71
    gamma = 0.0676
    assert beta_limit(1e-4, gamma) == pytest.approx(1 / (math.pi * gamma), rel=1e-4)
    assert beta_limit(1e-4, gamma) == pytest.approx(4.71, abs=5e-3)
    for gamma_tau in VANISHING_DECAY:
        assert beta_limit(0.5, gamma_tau / 0.5) == pytest.approx(
            (0.5 / (2 * math.pi)) / math.tanh(gamma_tau / 2), rel=1e-12)


def test_beta_truncation_gap():
    gamma, tau, j_max = 0.0676, math.pi / 8, 200
    r = math.exp(-gamma * tau)
    gap = beta_limit(tau, gamma) - beta_bound(tau, gamma, j_max)
    assert 0 <= gap <= 2 * r ** (j_max + 1) * (tau / (2 * math.pi)) / (1 - r) * (1 + 1e-9)


def test_beta_requires_positive_decay():
    with pytest.raises(ValidationError):
        beta_bound(0.0, 0.1, 10)
    with pytest.raises(ValidationError):
        beta_bound(0.1, 0.0, 10)
    with pytest.raises(ValidationError, match="gamma = 1e-200 and tau = 1e-200"):
        beta_bound(1e-200, 1e-200, 10)  # gamma * tau underflows to 0
    with pytest.raises(ValidationError, match="gamma = 1e-200 and tau = 1e-200"):
        beta_limit(1e-200, 1e-200)


def test_shot_count_published_point():
    assert shot_count(0.10, 6.25, 4.7, 0.1) == 863


def test_shot_count_edges():
    assert shot_count(1.0, 1.0, 1.0, 1.0) == 1
    assert shot_count(0.10, 6.25, 4.7, 0.05) == 4 * 863  # quadratic in 1/eps


def test_absorption_cost_n22_row():
    report = absorption_cost(table1_spec(22))
    details = absorption_breakdown(table1_spec(22))
    assert report.logical_qubits == 148
    assert details.trotter_steps_per_tau == 7
    assert details.gqsp_degree == 401
    assert details.c_trotter_step == 2 * 22 * (15488 + 15136)
    assert report.gates_per_circuit == 401 * 7 * details.c_trotter_step
    assert report.shots == 863
    assert report.overall_gates == report.gates_per_circuit * 863
    # published row: 3.94e9 gates, within the calibrated-constant tolerance
    assert report.gates_per_circuit == pytest.approx(3.94e9, rel=0.25)
    assert report.overall_gates == pytest.approx(3.40e12, rel=0.25)


def test_cubic_scaling_between_rows():
    g22 = absorption_cost(table1_spec(22)).gates_per_circuit
    for n, ratio in [(28, 2.066), (34, 3.706), (40, 6.041), (50, 11.80)]:
        gn = absorption_cost(table1_spec(n)).gates_per_circuit
        assert gn / g22 == pytest.approx((n / 22) ** 3, rel=0.01)
        assert gn / g22 == pytest.approx(ratio, rel=0.01)


def test_qubit_linearity():
    offsets = {absorption_cost(table1_spec(n)).logical_qubits - 2 * n
               for n in (22, 28, 34, 40, 50)}
    assert offsets == {104}


def test_monotonicity_in_drivers():
    base = absorption_cost(table1_spec(22)).gates_per_circuit
    assert absorption_cost(table1_spec(22, j_max=300)).gates_per_circuit > base
    assert absorption_cost(table1_spec(22, y3_magnitude=40.0)).gates_per_circuit > base
    assert absorption_cost(table1_spec(22, l_fragments=30)).gates_per_circuit > base


def test_minimal_instance_floor():
    spec = table1_spec(1, l_fragments=1, j_max=0, tau=0.05, shot_alpha=1.0, shot_beta=1.0,
                       dipole_norm=1.0, epsilon=1.0)
    details = absorption_breakdown(spec)
    assert details.gqsp_degree == 1
    assert details.trotter_steps_per_tau == 1
    assert absorption_cost(spec).gates_per_circuit == details.c_trotter_step


def test_one_sided_degree_convention():
    two = absorption_breakdown(table1_spec(22)).gqsp_degree
    one = absorption_breakdown(table1_spec(22, gqsp_two_sided=False)).gqsp_degree
    assert (two, one) == (401, 200)


def test_default_alpha_beta_computed():
    spec = table1_spec(22, shot_alpha=None, shot_beta=None)
    details = absorption_breakdown(spec)
    expected_beta = beta_bound(spec.tau, spec.gamma, spec.j_max)
    expected = math.ceil(
        (cross_section_prefactor(EUV_OMEGA_HA) * 6.25 * expected_beta / 0.1) ** 2)
    assert details.shots == expected


def test_state_prep_line_in_breakdown():
    report = absorption_cost(table1_spec(22, state_prep_gates=1000))
    labels = dict(report.breakdown)
    assert labels["state preparation (sum-of-Slaters)"] == 1000
    assert sum(labels.values()) == report.gates_per_circuit


def test_render_table_columns():
    rows = [(table1_spec(22), absorption_cost(table1_spec(22)))]
    text = render_table(rows)
    assert text.splitlines()[0].startswith("Number of Orbitals")
    assert "148" in text
