"""Closed-form gate and qubit costs for single-frequency absorption estimation.

The circuit applies a degree-d polynomial of a Trotterized step propagator to
a dipole-excited state and reads the result out through a Hadamard test. Gate
counts are exact integers built from the per-fragment rotation counts; the
shot count comes from the Chebyshev bound on the +-1 estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (EUV_OMEGA_HA, AbsorptionSpec, CostReport, ValidationError, aligned_table,
                   cross_section_prefactor, finite_ceil, format_sig3)


def rotation_cost(rot_bits: int) -> int:
    """Toffoli-equivalent cost of one phase-gradient rotation at ``rot_bits`` bits."""
    if rot_bits < 3:
        raise ValidationError("rot_bits must be at least 3")
    return rot_bits - 2


def fragment_cost(n_orbitals: int, c_rot: int) -> tuple[int, int]:
    """Per-fragment costs (c_unitary, c_zmatr).

    The basis rotation needs 2 * N(N-1)/2 Givens rotations at two elementary
    rotations each plus 2N phase corrections; the diagonal part needs
    2N(2N-1)/2 two-body rotations.
    """
    if n_orbitals < 1:
        raise ValidationError("n_orbitals must be >= 1")
    c_unitary = (2 * (n_orbitals * (n_orbitals - 1) // 2) * 2 + 2 * n_orbitals) * c_rot
    c_zmatr = (2 * n_orbitals * (2 * n_orbitals - 1) // 2) * c_rot
    return c_unitary, c_zmatr


def trotter_step_size(gamma: float, y3_magnitude: float) -> float:
    """Largest step keeping the product-formula eigenvalue shift within gamma.

    The second-order formula shifts eigenvalues by Delta^2 <Y3>, so the
    admissible step is sqrt(gamma / |<Y3>|).
    """
    if gamma <= 0 or y3_magnitude <= 0:
        raise ValidationError("gamma and y3_magnitude must be positive")
    return math.sqrt(gamma / y3_magnitude)


def _one_minus_decay(tau: float, gamma: float) -> float:
    """1 - r for r = exp(-gamma tau), from expm1 so that it stays accurate as gamma tau -> 0."""
    if tau <= 0 or gamma <= 0 or gamma * tau == 0:
        raise ValidationError(f"beta diverges unless gamma * tau > 0, got gamma = {gamma:g} "
                              f"and tau = {tau:g}")
    return -math.expm1(-gamma * tau)


def beta_bound(tau: float, gamma: float, j_max: int) -> float:
    """One-norm of the truncated Fourier weights.

    Evaluates (tau/2pi) (1 + 2 sum_{j=1}^{j_max} r^j) = (tau/2pi) (1 + 2 r
    (1 - r^j_max) / (1 - r)) with r = exp(-gamma*tau); as j_max grows this
    converges to (tau/2pi)*coth(gamma*tau/2).
    """
    one_minus_r = _one_minus_decay(tau, gamma)
    if j_max < 0:
        raise ValidationError("j_max must be non-negative")
    one_minus_power = -math.expm1(-gamma * tau * j_max)
    r = math.exp(-gamma * tau)
    return (tau / (2.0 * math.pi)) * (1.0 + 2.0 * r * one_minus_power / one_minus_r)


def beta_limit(tau: float, gamma: float) -> float:
    """j_max -> infinity limit (tau/2pi) coth(gamma tau / 2) = (tau/2pi) (1 + r) / (1 - r)."""
    one_minus_r = _one_minus_decay(tau, gamma)
    return (tau / (2.0 * math.pi)) * (2.0 - one_minus_r) / one_minus_r


def shot_count(alpha: float, dipole_norm: float, beta: float, epsilon: float) -> int:
    """Shots M = ceil((alpha * N * beta / epsilon)^2) from the Chebyshev bound."""
    if min(alpha, dipole_norm, beta, epsilon) <= 0:
        raise ValidationError("shot_count arguments must all be positive")
    # a positive product whose square underflows to 0 still needs one shot
    return max(1, finite_ceil(lambda: (alpha * dipole_norm * beta / epsilon) ** 2,
                              "shot count (alpha dipole_norm beta / epsilon)^2"))


@dataclass(frozen=True)
class AbsorptionCostBreakdown:
    """All intermediate quantities entering an absorption cost estimate."""

    c_rot: int
    c_unitary: int
    c_zmatr: int
    c_trotter_step: int
    trotter_steps_per_tau: int
    gqsp_degree: int
    shots: int
    qubits: int


def absorption_cost(spec: AbsorptionSpec) -> CostReport:
    """Assemble the full cost report for an absorption-sensitivity run.

    Gate total per circuit is gqsp_degree * ceil(tau/Delta) * C_trot plus the
    (subdominant, configurable) state-preparation gates; qubits are 2N system
    qubits plus a fixed ancilla budget. Shots use the published operating-point
    constants when the spec pins them, otherwise alpha is computed from the
    EUV frequency and beta from the truncated-weight one-norm.
    """
    details = absorption_breakdown(spec)
    return CostReport(logical_qubits=details.qubits, shots=details.shots, breakdown=(
        ("time-evolution (GQSP x Trotter)",
         details.gqsp_degree * details.trotter_steps_per_tau * details.c_trotter_step),
        ("state preparation (sum-of-Slaters)", spec.state_prep_gates),
    ))


def absorption_breakdown(spec: AbsorptionSpec) -> AbsorptionCostBreakdown:
    """Compute the itemized quantities behind :func:`absorption_cost`."""
    c_rot = rotation_cost(spec.rot_bits)
    c_unitary, c_zmatr = fragment_cost(spec.n_orbitals, c_rot)
    c_trotter_step = 2 * spec.l_fragments * (c_unitary + c_zmatr)  # two first-order calls

    delta = trotter_step_size(spec.gamma, spec.y3_magnitude)
    degree = 2 * spec.j_max + 1 if spec.gqsp_two_sided else max(spec.j_max, 1)

    alpha = cross_section_prefactor(EUV_OMEGA_HA) if spec.shot_alpha is None else spec.shot_alpha
    beta = (beta_bound(spec.tau, spec.gamma, spec.j_max) if spec.shot_beta is None
            else spec.shot_beta)
    return AbsorptionCostBreakdown(
        c_rot=c_rot, c_unitary=c_unitary, c_zmatr=c_zmatr, c_trotter_step=c_trotter_step,
        # a positive tau whose ratio to the step underflows to 0 still needs one step
        trotter_steps_per_tau=max(1, finite_ceil(
            lambda: spec.tau / delta, "Trotter step count tau / sqrt(gamma / y3_magnitude)")),
        gqsp_degree=degree,
        shots=shot_count(alpha, spec.dipole_norm, beta, spec.epsilon),
        qubits=2 * spec.n_orbitals + spec.ancilla_qubits,
    )


def render_table(rows: list[tuple[AbsorptionSpec, CostReport]]) -> str:
    """Aligned text table with the published column layout."""
    return aligned_table(
        ("Number of Orbitals", "Qubits", "Gate Cost", "Overall Cost"),
        [(str(spec.n_orbitals), str(report.logical_qubits),
          format_sig3(report.gates_per_circuit), format_sig3(report.overall_gates))
         for spec, report in rows])
