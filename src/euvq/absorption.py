"""Closed-form gate and qubit costs for single-frequency absorption estimation.

The circuit applies a degree-d polynomial of a Trotterized step propagator to
a dipole-excited state and reads the result out through a Hadamard test. Gate
counts are exact integers built from the per-fragment rotation counts; the
shot count comes from the Chebyshev bound on the +-1 estimator.
"""

from __future__ import annotations

import math

from .core import (EUV_OMEGA_HA, AbsorptionSpec, CostReport, ValidationError, _at_least, _check,
                   _POSITIVE, aligned_table, cross_section_prefactor, finite_ceil, format_sig3)


def rotation_cost(rot_bits: int) -> int:
    """Toffoli-equivalent cost of one phase-gradient rotation at ``rot_bits`` bits."""
    _check(rot_bits, _at_least(3), "rot_bits", "rotation_cost")
    return rot_bits - 2


def fragment_cost(n_orbitals: int, c_rot: int) -> tuple[int, int]:
    """Per-fragment costs (c_unitary, c_zmatr).

    The basis rotation needs 2 * N(N-1)/2 Givens rotations at two elementary
    rotations each plus 2N phase corrections; the diagonal part needs
    2N(2N-1)/2 two-body rotations.
    """
    _check(n_orbitals, _at_least(1), "n_orbitals", "fragment_cost")
    c_unitary = (2 * (n_orbitals * (n_orbitals - 1) // 2) * 2 + 2 * n_orbitals) * c_rot
    c_zmatr = (2 * n_orbitals * (2 * n_orbitals - 1) // 2) * c_rot
    return c_unitary, c_zmatr


def trotter_step_size(gamma: float, y3_magnitude: float) -> float:
    """Largest step keeping the product-formula eigenvalue shift within gamma.

    The second-order formula shifts eigenvalues by Delta^2 <Y3>, so the
    admissible step is sqrt(gamma / |<Y3>|).
    """
    for name, value in (("gamma", gamma), ("y3_magnitude", y3_magnitude)):
        _check(value, _POSITIVE, name, "trotter_step_size")
    return math.sqrt(gamma / y3_magnitude)


def _one_minus_decay(tau: float, gamma: float) -> float:
    """1 - r for r = exp(-gamma tau), from expm1 so that it stays accurate as gamma tau -> 0."""
    for name, value in (("tau", tau), ("gamma", gamma)):
        _check(value, _POSITIVE, name, "_one_minus_decay")
    if gamma * tau == 0:
        raise ValidationError(f"beta diverges unless 'gamma' * 'tau' > 0, got gamma = {gamma:g} "
                              f"and tau = {tau:g}")
    return -math.expm1(-gamma * tau)


def beta_bound(tau: float, gamma: float, j_max: int) -> float:
    """One-norm of the truncated Fourier weights.

    Evaluates (tau/2pi) (1 + 2 sum_{j=1}^{j_max} r^j) = (tau/2pi) (1 + 2 r
    (1 - r^j_max) / (1 - r)) with r = exp(-gamma*tau); as j_max grows this
    converges to (tau/2pi)*coth(gamma*tau/2).
    """
    one_minus_r = _one_minus_decay(tau, gamma)
    _check(j_max, _at_least(0), "j_max", "beta_bound")
    # j_max = 0 sums no r^j, even where gamma * tau overflows and inf * 0 would give NaN
    one_minus_power = -math.expm1(-gamma * tau * j_max) if j_max else 0.0
    r = math.exp(-gamma * tau)
    return (tau / (2.0 * math.pi)) * (1.0 + 2.0 * r * one_minus_power / one_minus_r)


def shot_count(alpha: float, dipole_norm: float, beta: float, epsilon: float) -> int:
    """Shots M = ceil((alpha * N * beta / epsilon)^2) from the Chebyshev bound."""
    for name, value in (("alpha", alpha), ("dipole_norm", dipole_norm), ("beta", beta),
                        ("epsilon", epsilon)):
        _check(value, _POSITIVE, name, "shot_count")
    # a positive product whose square underflows to 0 still needs one shot
    return max(1, finite_ceil(lambda: (alpha * dipole_norm * beta / epsilon) ** 2,
                              "shot count (alpha dipole_norm beta / epsilon)^2"))


def absorption_cost(spec: AbsorptionSpec) -> CostReport:
    """Assemble the full cost report for an absorption-sensitivity run.

    Gate total per circuit is gqsp_degree * ceil(tau/Delta) * C_trot plus the
    (subdominant, configurable) state-preparation gates; qubits are 2N system
    qubits plus a fixed ancilla budget. Shots use the published operating-point
    constants when the spec pins them, otherwise alpha is computed from the
    EUV frequency and beta from the truncated-weight one-norm. ``details``
    carries the rotation and fragment costs, the step count, the degree and
    the alpha and beta used.
    """
    c_rot = rotation_cost(spec.rot_bits)
    c_unitary, c_zmatr = fragment_cost(spec.n_orbitals, c_rot)
    c_trotter_step = 2 * spec.l_fragments * (c_unitary + c_zmatr)  # two first-order calls

    delta = trotter_step_size(spec.gamma, spec.y3_magnitude)
    degree = 2 * spec.j_max + 1  # two-sided: Fourier terms j = -j_max .. j_max

    alpha = cross_section_prefactor(EUV_OMEGA_HA) if spec.shot_alpha is None else spec.shot_alpha
    beta = (beta_bound(spec.tau, spec.gamma, spec.j_max) if spec.shot_beta is None
            else spec.shot_beta)
    # a positive tau whose ratio to the step underflows to 0 still needs one step
    steps = max(1, finite_ceil(lambda: spec.tau / delta,
                               "Trotter step count tau / sqrt(gamma / y3_magnitude)"))
    return CostReport(
        logical_qubits=2 * spec.n_orbitals + spec.ancilla_qubits,
        shots=shot_count(alpha, spec.dipole_norm, beta, spec.epsilon),
        breakdown=(("time-evolution (GQSP x Trotter)", degree * steps * c_trotter_step),
                   ("state preparation (sum-of-Slaters)", spec.state_prep_gates)),
        details=(("c_rot", c_rot), ("c_unitary", c_unitary), ("c_zmatr", c_zmatr),
                 ("c_trotter_step", c_trotter_step), ("trotter_steps_per_tau", steps),
                 ("gqsp_degree", degree), ("shot_alpha", alpha), ("shot_beta", beta)))


def render_table(rows: list[tuple[AbsorptionSpec, CostReport]]) -> str:
    """Aligned text table with the published column layout."""
    return aligned_table(
        ("Number of Orbitals", "Qubits", "Gate Cost", "Overall Cost"),
        [(str(spec.n_orbitals), str(report.logical_qubits),
          format_sig3(report.gates_per_circuit), format_sig3(report.overall_gates))
         for spec, report in rows])
