"""Closed-form costs for the first-quantized plane-wave photoemission algorithm.

Everything here is exact integer or analytic float arithmetic: one-norms of
the Hamiltonian terms, precision-bit selection, prepare/select circuit costs,
the per-query Toffoli count, and the assembled per-circuit totals with
amplitude-amplification multipliers. Logs are base 2 and rounded up wherever
they set a bit or qubit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AU_TIME_PER_FS, CostReport, PlaneWaveSpec, ValidationError, aligned_table,
                   finite_ceil, format_sig3)

# Dimensionless prefactors in lambda_U = k_U * eta * lambda_zeta * 2^n / L and
# lambda_V = k_V * eta^2 * 2^n / L, anchored so that the published one-norms
# (7.5e6 and 1.23e7 at eta = lambda_zeta = 110, n = 15, L = 200 Bohr) are
# reproduced exactly. The source gives only the scaling column, not the
# lattice-sum prefactors.
KAPPA_U = 7.5e6 * 200.0 / (110.0 * 110.0 * 2.0**15)
KAPPA_V = 1.23e7 * 200.0 / (110.0 * 110.0 * 2.0**15)

LATTICE_SUM_EXACT_MAX_BITS = 7  # brute force up to 127^3 lattice vectors


def _log2_ceil_inv(epsilon: float) -> int:
    """ceil(log2(1/epsilon)) for 0 < epsilon <= 1-ish inputs."""
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    return max(0, finite_ceil(lambda: math.log2(1.0 / epsilon), "log2(1/epsilon_be)"))


def lambda_kinetic(spec: PlaneWaveSpec) -> float:
    """Kinetic one-norm 6 * eta * pi^2 * 2^(2(n-1)) / Omega^(2/3)."""
    return 6.0 * spec.eta * math.pi**2 * 2.0 ** (2 * (spec.n_bits - 1)) / spec.box_length**2


def lambda_potentials(spec: PlaneWaveSpec) -> tuple[float, float]:
    """One-norms (lambda_U, lambda_V) of the two Coulomb terms.

    lambda_U = KAPPA_U * eta * lambda_zeta * 2^n / Omega^(1/3) and
    lambda_V = KAPPA_V * eta^2 * 2^n / Omega^(1/3); see the module-level
    calibration note for the prefactors.
    """
    grid = 2.0**spec.n_bits
    lam_u = KAPPA_U * spec.eta * spec.lambda_zeta * grid / spec.box_length
    lam_v = KAPPA_V * spec.eta**2 * grid / spec.box_length
    return lam_u, lam_v


def lambda_total(lam_t: float, lam_u: float, lam_v: float,
                 p_nu: float, eta: int) -> float:
    """Overall subnormalization max{T'+U+V, (U + V/(1 - 1/eta)) / p_nu}."""
    if not 0 < p_nu <= 1:
        raise ValidationError("p_nu must lie in (0, 1]")
    pair_factor = 1.0 / (1.0 - 1.0 / eta) if eta > 1 else 1.0
    return max(lam_t + lam_u + lam_v, (lam_u + lam_v * pair_factor) / p_nu)


def lattice_sum_inv_norm(n_bits: int) -> float:
    """Estimate sum over nonzero lattice vectors of 1/||nu||.

    Up to n_bits = 7 the symmetric integer cube is summed exactly; above, the
    integral approximation 2*pi*(2^n)^2/4 (a ball of radius 2^n / 2) is used.
    """
    if n_bits < 1:
        raise ValidationError("n_bits must be >= 1")
    if n_bits <= LATTICE_SUM_EXACT_MAX_BITS:
        half = (2**n_bits - 1) // 2
        r = np.arange(-half, half + 1)
        total = 0.0
        for x in r:  # slice by x to keep the working set small
            q2 = (float(x) ** 2 + r[:, None] ** 2 + r[None, :] ** 2).astype(float)
            q2 = q2[q2 > 0]
            total += float(np.sum(1.0 / np.sqrt(q2)))
        return total
    return 2.0 * math.pi * (2.0**n_bits) ** 2 / 4.0


@dataclass(frozen=True)
class BlockEncodingBudget:
    """Bit counts, one-norms, and per-query cost of the Hamiltonian block encoding."""

    n_m: int
    n_r: int
    n_t: int
    n_eta: int
    n_eta_zeta: int
    b_r: int
    lambda_t_prime: float
    lambda_u: float
    lambda_v: float
    lambda_total: float
    p_nu: float
    c_ref: int
    toffoli_per_query: int
    ancilla_qubits: int
    system_qubits: int

    @property
    def total_qubits(self) -> int:
        return self.system_qubits + self.ancilla_qubits

    def __post_init__(self) -> None:
        if self.lambda_total < max(self.lambda_t_prime, self.lambda_u, self.lambda_v) - 1e-9:
            raise ValidationError("lambda_total below its largest component")
        for name in ("n_m", "n_r", "n_t", "n_eta", "n_eta_zeta", "b_r"):
            if getattr(self, name) < 1:
                raise ValidationError(f"bit count {name} must be >= 1")


def precision_bits(spec: PlaneWaveSpec, lam: float) -> tuple[int, int, int]:
    """Smallest (n_M, n_R, n_T) putting each error component below epsilon/3.

    eps_M = 2 eta (eta - 1 + 2 lambda_zeta) / (2^n_M pi Omega^(1/3)),
    eps_R = eta lambda_zeta sum(1/||nu||) / (2^n_R Omega^(1/3)),
    eps_T = pi lambda / 2^n_T.
    """
    target = spec.epsilon_be / 3.0

    def bits(name, scale, drivers):
        return max(1, finite_ceil(lambda: math.log2(max(scale / target, 1.0)),
                                  f"precision bit count {name}, set by {drivers} and epsilon_be,"))

    eps_m_scale = 2.0 * spec.eta * (spec.eta - 1 + 2 * spec.lambda_zeta) / (math.pi * spec.box_length)
    eps_r_scale = spec.eta * spec.lambda_zeta * lattice_sum_inv_norm(spec.n_bits) / spec.box_length
    return (bits("n_M", eps_m_scale, "eta, lambda_zeta"),
            bits("n_R", eps_r_scale, "eta, lambda_zeta, n_bits"),
            bits("n_T", math.pi * lam, "eta, lambda_zeta, n_bits"))


def min_superposition_correction(lambda_zeta: float) -> int:
    """min over integer k of ceil(2^-k * lambda_zeta) + 2^k."""
    lz = math.ceil(lambda_zeta)
    best = lz + 1  # k = 0
    for k in range(1, max(2, lz.bit_length() + 1)):
        best = min(best, math.ceil(lambda_zeta / 2**k) + 2**k)
    return best


def build_budget(spec: PlaneWaveSpec) -> BlockEncodingBudget:
    """Derive the full block-encoding budget for a spec."""
    lam_t = lambda_kinetic(spec)
    lam_u, lam_v = lambda_potentials(spec)
    lam = lambda_total(lam_t, lam_u, lam_v, spec.p_nu, spec.eta)
    n_m, n_r, n_t = precision_bits(spec, lam)
    return budget_from_bits(spec, lam_t, lam_u, lam_v, lam, n_m, n_r, n_t)


def budget_from_bits(spec: PlaneWaveSpec, lam_t: float, lam_u: float, lam_v: float,
                     lam: float, n_m: int, n_r: int, n_t: int) -> BlockEncodingBudget:
    """Assemble a budget from externally fixed bit counts (published or derived)."""
    n = spec.n_bits
    n_eta = max(1, math.ceil(math.log2(spec.eta)))
    n_eta_zeta = max(1, math.ceil(math.log2(spec.eta + 2 * spec.lambda_zeta)))
    c_ref = n_eta_zeta + 2 * n_eta + 6 * n + n_m + 16
    toffoli = theorem_query_cost(spec, n_m, n_r, n_t, n_eta, n_eta_zeta)
    anc = n_m + 6 * n + 2 * n_eta + n_eta_zeta + max(5 * n_r - 4, 5 * n + 1) + 18
    n_ref = 3 * n * n + 4 * n_m * (n + 1) + 6 * n + 5 + max(n_t, n_r + 1)
    system = 3 * spec.eta * n
    return BlockEncodingBudget(
        n_m=n_m, n_r=n_r, n_t=n_t, n_eta=n_eta, n_eta_zeta=n_eta_zeta, b_r=spec.b_r,
        lambda_t_prime=lam_t, lambda_u=lam_u, lambda_v=lam_v, lambda_total=lam,
        p_nu=spec.p_nu, c_ref=c_ref, toffoli_per_query=toffoli,
        ancilla_qubits=anc + n_ref, system_qubits=system,
    )


def prep_select_costs(spec: PlaneWaveSpec, n_m: int, n_r: int, n_t: int,
                      n_eta_zeta: int) -> tuple[int, int]:
    """Toffoli costs (C_prep, C_sel) of the prepare and select circuits.

    C_prep = [2n^2 + 15n + 4 n_M (n+1) - 7 + lambda_zeta + min_k(...)]
           + [2(n+9)]
           + [2(n_T + 4 n_eta_zeta + 2 b_r - 12) + 14 eta + 8 b_r - 36]
    C_sel  = [24n + 6 n n_R] + [5(n-1) + 2] + [12 eta n - 4 eta - 8]
    """
    n, eta, b_r = spec.n_bits, spec.eta, spec.b_r
    lz = round(spec.lambda_zeta)
    prep_uv = (2 * n * n + 15 * n + 4 * n_m * (n + 1) - 7 + lz
               + min_superposition_correction(spec.lambda_zeta))
    prep_t = 2 * (n + 9)
    prep_tuv = 2 * (n_t + 4 * n_eta_zeta + 2 * b_r - 12) + 14 * eta + 8 * b_r - 36
    c_prep = prep_uv + prep_t + prep_tuv
    sel_uv = 24 * n + 6 * n * n_r
    sel_t = 5 * (n - 1) + 2
    sel_tuv = 12 * eta * n - 4 * eta - 8
    c_sel = sel_uv + sel_t + sel_tuv
    return c_prep, c_sel


def theorem_query_cost(spec: PlaneWaveSpec, n_m: int, n_r: int, n_t: int,
                       n_eta: int, n_eta_zeta: int) -> int:
    """Toffolis for one query of the qubitized block encoding (single closed form).

    2(n_T + 4 n_ez + 2 b_r - 12) + 14 n_eta + 8 b_r - 36 + 12 eta n + 4 eta - 8
    + 5(n-1) + 2 + 3n^2 + 15n + 4 n_M(n+1) - 7 + lambda_zeta + 24n
    + 3(2 n n_R - n(n+1) - 1)
    """
    n, eta, b_r = spec.n_bits, spec.eta, spec.b_r
    lz = round(spec.lambda_zeta)
    return (2 * (n_t + 4 * n_eta_zeta + 2 * b_r - 12) + 14 * n_eta + 8 * b_r - 36
            + 12 * eta * n + 4 * eta - 8 + 5 * (n - 1) + 2
            + 3 * n * n + 15 * n + 4 * n_m * (n + 1) - 7 + lz + 24 * n
            + 3 * (2 * n * n_r - n * (n + 1) - 1))


def dipole_block_encoding_cost(spec: PlaneWaveSpec) -> int:
    """Toffolis to block encode the summed position operator.

    n(n + 3 eta - 1) + ceil(log2(3 eta)) + 2 ceil(log2(1/eps)); the encoding
    carries subnormalization eta * 2^n.
    """
    n, eta = spec.n_bits, spec.eta
    return (n * (n + 3 * eta - 1) + math.ceil(math.log2(3 * eta))
            + 2 * _log2_ceil_inv(spec.epsilon_be))


def filter_cost(spec: PlaneWaveSpec, lam: float, c_sel: int, c_prep: int,
                c_ref: int) -> float:
    """QSP cost of the Gaussian energy filter.

    Table convention (default): sqrt(2) pi lam (C_sel + 2 C_prep + c_ref) / delta
    * ceil(log2(1/eps)). Body convention: lam (C_sel + C_prep + c_ref) /
    (2 sqrt(2 ln 2) delta) * ceil(log2(1/eps)).
    """
    if spec.delta_filter <= 0:
        raise ValidationError("delta_filter must be positive")
    logeps = _log2_ceil_inv(spec.epsilon_be)
    if spec.filter_convention == "table":
        return math.sqrt(2.0) * math.pi * lam * (c_sel + 2 * c_prep + c_ref) \
            / spec.delta_filter * logeps
    return lam * (c_sel + c_prep + c_ref) / (2.0 * math.sqrt(2.0 * math.log(2.0))
                                             * spec.delta_filter) * logeps


def filter_degree(lam: float, delta: float, epsilon: float) -> float:
    """Polynomial degree lam / (2 sqrt(2 ln 2) delta) * log2(1/eps) of the filter."""
    return lam / (2.0 * math.sqrt(2.0 * math.log(2.0)) * delta) * math.log2(1.0 / epsilon)


def time_evolution_cost(spec: PlaneWaveSpec, lam: float, c_sel: int, c_prep: int,
                        c_ref: int) -> float:
    """QSP time-evolution cost (2 lam t + 3 log2(12/eps)) (C_sel + 2 C_prep + c_ref)."""
    if spec.t_evolution < 0:
        raise ValidationError("t_evolution must be non-negative")
    log_term = 3.0 * math.log2(12.0 / spec.epsilon_be)
    degree = max(0.0, 2.0 * lam * spec.t_evolution + max(0.0, log_term))
    return degree * (c_sel + 2 * c_prep + c_ref)


def continuum_projector_cost(spec: PlaneWaveSpec) -> int:
    """Toffolis for the real-space continuum test: eta(12n^2 - 8n + ceil(log2 eta) + 1)."""
    n, eta = spec.n_bits, spec.eta
    n_eta = math.ceil(math.log2(eta)) if eta > 1 else 0
    return eta * (12 * n * n - 8 * n + n_eta + 1)


def photoemission_cost(spec: PlaneWaveSpec) -> CostReport:
    """Assemble the per-circuit gate count, qubits, and shots for one run.

    gates = (1/sqrt(P_c)) [C_bound + C_te + (1/sqrt(P_w)) (C_W +
    (1/sqrt(P_d)) (C_X + C_sp))]; shots = ceil(1/eps_sampling^2); qubits are
    the 3*eta*n system register plus block-encoding ancilla and reflection
    workspace.
    """
    budget = build_budget(spec)
    c_prep, c_sel = prep_select_costs(spec, budget.n_m, budget.n_r, budget.n_t,
                                      budget.n_eta_zeta)
    lam = budget.lambda_total
    c_x = dipole_block_encoding_cost(spec)
    c_w = filter_cost(spec, lam, c_sel, c_prep, budget.c_ref)
    c_te = time_evolution_cost(spec, lam, c_sel, c_prep, budget.c_ref)
    c_bound = continuum_projector_cost(spec)

    amp_c = 1.0 / math.sqrt(spec.p_continuum)
    amp_w = 1.0 / math.sqrt(spec.p_window)
    amp_d = 1.0 / math.sqrt(spec.p_dipole)
    shots = finite_ceil(lambda: 1.0 / spec.epsilon_sampling**2,
                        "shot count 1/epsilon_sampling^2")
    return CostReport(logical_qubits=budget.total_qubits, shots=shots, breakdown=(
        ("state prep + dipole (amplified)", amp_c * amp_w * amp_d * (c_x + spec.c_sp)),
        (f"gaussian filter QSP (amplified, {spec.filter_convention} prefactor)",
         amp_c * amp_w * c_w),
        ("time evolution QSP", amp_c * c_te),
        ("continuum projector", amp_c * float(c_bound)),
    ))


def render_table(rows: list[tuple[str, PlaneWaveSpec, CostReport]]) -> str:
    """Aligned text table with the published column layout."""
    return aligned_table(
        ("Method", "Basis Size", "Time (fs)", "Qubits", "Gate Cost", "Overall Cost"),
        [(label, f"2^{spec.n_bits}", f"{spec.t_evolution / AU_TIME_PER_FS:g}",
          str(report.logical_qubits), format_sig3(report.gates_per_circuit),
          format_sig3(report.overall_gates)) for label, spec, report in rows])
