"""Golden acceptance suite: every criterion at its pinned tolerance.

Each test records a line on the acceptance board (printed in the terminal
summary) and then asserts. One check, 05d, encodes published reference values
from a construction the package does not model (the nonlocal-projector
pseudopotential encoding); it is asserted at its stated tolerance and fails
honestly rather than being loosened — see its docstring. The published
subnormalization total of criterion 4 contradicts its own published components
under the stated max rule; 04 checks the total those components imply.
"""

import json
import math
from importlib import resources

import numpy as np
import pytest

from conftest import (
    beta_limit,
    correlation_identity_check,
    inside_sphere,
    record,
    two_level_scene,
)
from euvq import absorption, cdf, grid, planewave, qarith, spectro
from euvq.core import AbsorptionSpec, PlaneWaveSpec

TABLE1_PUBLISHED = {
    22: (148, 3.94e9, 3.40e12),
    28: (160, 8.14e9, 7.02e12),
    34: (172, 1.46e10, 1.26e13),
    40: (184, 2.38e10, 2.05e13),
    50: (204, 4.65e10, 4.01e13),
}

TABLE2_PUBLISHED = {
    # (method, n_bits, t_fs) -> (qubits, gate cost)
    ("AE", 9, 1.0): (4544, 3.49e14), ("AE", 9, 10.0): (4544, 3.65e14),
    ("AE", 11, 1.0): (5668, 1.73e15), ("AE", 11, 10.0): (5668, 1.81e15),
    ("AE", 13, 1.0): (6848, 8.32e15), ("AE", 13, 10.0): (6848, 8.69e15),
    ("PP", 6, 1.0): (2212, 4.74e13), ("PP", 6, 10.0): (2212, 4.94e13),
    ("PP", 8, 1.0): (3192, 2.97e15), ("PP", 8, 10.0): (3192, 3.10e15),
    ("PP", 9, 1.0): (3549, 4.11e16), ("PP", 9, 10.0): (3549, 4.30e16),
}


def load_fixture(name):
    return json.loads(resources.files("euvq").joinpath("fixtures", name).read_text())


@pytest.fixture(scope="module")
def table1_reports():
    specs = [AbsorptionSpec.from_dict(e) for e in load_fixture("table1.json")["sweep"]]
    return {s.n_orbitals: (s, absorption.absorption_cost(s)) for s in specs}


@pytest.fixture(scope="module")
def table2_reports():
    rows = {}
    for name, label in (("table2_ae.json", "AE"), ("table2_pp.json", "PP")):
        for entry in load_fixture(name)["sweep"]:
            spec = PlaneWaveSpec.from_dict(entry)
            t_fs = round(spec.t_evolution / 41.3414, 6)
            rows[(label, spec.n_bits, t_fs)] = planewave.photoemission_cost(spec)
    return rows


def test_c01_shot_factor(table1_reports):
    """Criterion 1: overall/gate equals the 863-shot factor on every row."""
    shots = absorption.shot_count(0.10, 6.25, 4.7, 0.1)
    ok = abs(shots - 863) <= 1
    ratios = []
    for n, (_, report) in table1_reports.items():
        ratios.append(report.overall_gates / report.gates_per_circuit)
        ok &= abs(ratios[-1] - 863) <= 1
    record("01 shot factor", ok, f"shot_count=863 expected, got {shots}; "
                                 f"row ratios {sorted(set(ratios))}")
    assert ok


def test_c02_cubic_scaling(table1_reports):
    """Criterion 2: gate ratios follow (N/22)^3 within 1%."""
    g22 = table1_reports[22][1].gates_per_circuit
    worst = 0.0
    for n in (28, 34, 40, 50):
        ratio = table1_reports[n][1].gates_per_circuit / g22
        worst = max(worst, abs(ratio / (n / 22) ** 3 - 1.0))
    record("02 cubic scaling", worst <= 0.01, f"max deviation {worst:.2%} (bar 1%)")
    assert worst <= 0.01


def test_c03_table1_absolutes(table1_reports):
    """Criterion 3: absolute gates within 25% after the single b_grad calibration."""
    ok = True
    worst = 0.0
    for n, (qubits_pub, gates_pub, _) in TABLE1_PUBLISHED.items():
        _, report = table1_reports[n]
        ok &= report.logical_qubits == qubits_pub == 2 * n + 104
        worst = max(worst, abs(report.gates_per_circuit / gates_pub - 1.0))
    ok &= worst <= 0.25
    record("03 table1 absolutes", ok,
           f"qubits exact {{2N+104}}; max gate deviation {worst:.1%} (bar 25%)")
    assert ok


def test_c04_corollary_analytics():
    """Criterion 4 (analytic parts): kinetic one-norm, n_R, per-query Toffolis."""
    spec = PlaneWaveSpec.from_dict(load_fixture("corollary_imeph.json"))
    lam_t = planewave.lambda_kinetic(spec)
    dev_t = abs(lam_t / 4.37e7 - 1.0)

    lam_u, lam_v = planewave.lambda_potentials(spec)
    lam = planewave.lambda_total(lam_t, lam_u, lam_v, spec.p_nu, spec.eta)
    _, n_r, _ = planewave.precision_bits(spec, lam)

    t1 = planewave.theorem_query_cost(spec, n_m=36, n_r=50, n_t=35, n_eta=7,
                                      n_eta_zeta=9)
    dev_t1 = abs(t1 / 2.53e4 - 1.0)

    ok = dev_t <= 0.01 and abs(n_r - 50) <= 1 and dev_t1 <= 0.15
    record("04 corollary analytics", ok,
           f"lambda_T'={lam_t:.4g} ({dev_t:.2%} of 4.37e7, bar 1%); "
           f"n_R={n_r} (bar 50±1); T1={t1} ({dev_t1:.1%} of 2.53e4, bar 15%)")
    assert dev_t <= 0.01
    assert abs(n_r - 50) <= 1
    assert dev_t1 <= 0.15


def test_c04_lambda_total_corollary():
    """Criterion 4 (subnormalization): total within 1% of its published components.

    The reference is the max-rule total max{T'+U+V, (U + V/(1 - 1/eta))/p_nu}
    of the published component one-norms (4.37e7, 7.5e6, 1.23e7) at the
    fixture's p_nu, i.e. 6.35e7. The published total 5.00e7 is a
    known-inconsistent reference value: it lies 21% below T'+U+V, and the max
    rule never falls below that sum, so no p_nu in (0, 1] reaches it. The
    p_nu sweep asserts exactly that.
    """
    spec = PlaneWaveSpec.from_dict(load_fixture("corollary_imeph.json"))
    lam_t = planewave.lambda_kinetic(spec)
    lam_u, lam_v = planewave.lambda_potentials(spec)
    lam = planewave.lambda_total(lam_t, lam_u, lam_v, spec.p_nu, spec.eta)
    pair_factor = 1.0 / (1.0 - 1.0 / spec.eta)
    reference = max(4.37e7 + 7.5e6 + 1.23e7, (7.5e6 + 1.23e7 * pair_factor) / spec.p_nu)
    deviation = abs(lam / reference - 1.0)

    component_sum = lam_t + lam_u + lam_v
    lowest = min(planewave.lambda_total(lam_t, lam_u, lam_v, p_nu, spec.eta)
                 for p_nu in np.linspace(1.0, 0.01, 100))
    floor_held = lowest >= component_sum > 5.00e7

    record("04 corollary lambda", deviation <= 0.01 and floor_held,
           f"lambda={lam:.4g} vs {reference:.4g} from published components "
           f"({deviation:.2%}, bar 1%); min over p_nu sweep {lowest:.4g}, "
           f"T'+U+V={component_sum:.4g}, published 5.00e7 "
           "[known-inconsistent reference value]")
    assert deviation <= 0.01
    assert lowest >= component_sum
    assert component_sum > 5.00e7


def test_c05_overall_equals_gates_times_shots(table2_reports):
    """Criterion 5a: overall = gates x 1e4 exactly on all 12 rows."""
    ok = all(rep.overall_gates == rep.gates_per_circuit * 10**4
             and rep.shots == 10**4 for rep in table2_reports.values())
    record("05a overall=gates*1e4", ok, f"{len(table2_reports)} rows, exact product")
    assert ok


def test_c05_qubits_within_10pct(table2_reports):
    """Criterion 5b: qubit counts within 10% of the six published values."""
    worst = 0.0
    for key, (qubits_pub, _) in TABLE2_PUBLISHED.items():
        got = table2_reports[key].logical_qubits
        worst = max(worst, abs(got / qubits_pub - 1.0))
    record("05b table2 qubits", worst <= 0.10, f"max deviation {worst:.1%} (bar 10%)")
    assert worst <= 0.10


def test_c05_gate_costs_ae(table2_reports):
    """Criterion 5c: all-electron gate costs within a factor of 3."""
    worst = 1.0
    for key, (_, gates_pub) in TABLE2_PUBLISHED.items():
        if key[0] != "AE":
            continue
        factor = table2_reports[key].gates_per_circuit / gates_pub
        worst = max(worst, factor, 1.0 / factor)
    record("05c table2 AE gates", worst <= 3.0, f"worst factor {worst:.2f} (bar 3)")
    assert worst <= 3.0


def test_c05_gate_costs_pp(table2_reports):
    """Criterion 5d: pseudopotential gate costs within a factor of 3.

    HONEST RED: the published pseudopotential rows come from a nonlocal-
    projector encoding whose one-norm and per-query Toffoli cost the package
    does not yet model; under the in-scope model (all-electron formulas with
    swapped particle counts, eta = lambda_zeta = 58) the per-circuit costs
    land factors of 8.8-783 below the published values (8.8-9.1 at n = 6,
    124-127 at n = 8, 762-783 at n = 9), and no admissible parameter choice
    closes that gap (precision enters only logarithmically). Asserted at the
    stated factor-3 bar and fails.
    """
    worst = 1.0
    for key, (_, gates_pub) in TABLE2_PUBLISHED.items():
        if key[0] != "PP":
            continue
        factor = table2_reports[key].gates_per_circuit / gates_pub
        worst = max(worst, factor, 1.0 / factor)
    record("05d table2 PP gates", worst <= 3.0,
           f"worst factor {worst:.0f} (bar 3) [missing model: nonlocal-projector "
           "one-norm and per-query Toffoli cost]")
    assert worst <= 3.0


def test_c06_greens_equivalence():
    """Criterion 6: time-domain and resolvent spectra agree on 50 random scenes.

    Both columns come from ``spectrum_rows``, the scan the CLI runs. The peak is
    the argmax of sigma_exact / omega, the spectral density; sigma_exact is held
    to the resolvent element from a dense solve at the peak and near both ends.
    """
    gamma, tau = 0.0676, math.pi / 8
    j_max = math.ceil(14.0 / (gamma * tau))
    assert math.exp(-gamma * tau * j_max) <= 1e-6
    rng = np.random.default_rng(2024)
    omegas = np.linspace(0.1, 3.9, 240)
    ends = [int(np.argmin(np.abs(omegas - omega))) for omega in (0.3, 3.3)]
    worst_td = 0.0
    worst_resolvent = 0.0
    for trial in range(50):
        dim = int(rng.integers(16, 257))
        scene = spectro.random_scene(dim, seed=int(rng.integers(0, 2**31)))
        rows = spectro.spectrum_rows(scene, omegas, gamma, tau, j_max, shots=1, seed=0)
        exact = np.array([row["sigma_exact"] for row in rows])
        peak = int(np.argmax(exact / omegas))
        worst_td = max(worst_td, abs(rows[peak]["sigma_td"] / exact[peak] - 1.0))
        rhs = scene.dipole @ scene.ground_state
        for k in (ends[0], peak, ends[1]):
            omega = rows[k]["omega_Ha"]
            shifted = scene.hamiltonian - (scene.ground_energy + omega - 1j * gamma) * np.eye(dim)
            resolvent = complex(rhs.conj() @ np.linalg.solve(shifted, rhs))
            prefactor = 4 * math.pi * omega / (3 * 137.036)
            worst_resolvent = max(worst_resolvent, abs(exact[k] - prefactor * -resolvent.imag))
    ok = worst_td <= 1e-3 and worst_resolvent <= 1e-9
    record("06 greens equivalence", ok,
           f"peak td deviation {worst_td:.2e} (bar 1e-3); "
           f"dense resolvent {worst_resolvent:.2e} (bar 1e-9)")
    assert worst_td <= 1e-3
    assert worst_resolvent <= 1e-9


def test_c07_beta_bound_grid():
    """Criterion 7: truncated one-norm below the coth bound; gap vanishes."""
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        gamma = float(rng.uniform(0.01, 0.5))
        tau = float(rng.uniform(0.05, 1.5))
        limit = beta_limit(tau, gamma)
        r = math.exp(-gamma * tau)
        noise = 1e-13 * max(1.0, limit)  # cancellation floor of limit - beta
        prev_gap = None
        for j_max in (10, 40, 160, 640, 2560):
            beta = absorption.beta_bound(tau, gamma, j_max)
            gap = limit - beta
            ok &= beta <= limit * (1 + 1e-12)
            if prev_gap is not None:
                ok &= gap <= prev_gap + noise
            # the gap is exactly the geometric tail, which vanishes with j_max
            tail = 2 * r ** (j_max + 1) * (tau / (2 * math.pi)) / (1 - r)
            ok &= gap <= tail * (1 + 1e-9) + noise
            prev_gap = gap
    small_tau = beta_limit(1e-4, 0.0676)
    dev = abs(small_tau / (1 / (math.pi * 0.0676)) - 1.0)
    ok &= dev <= 0.01
    record("07 beta bound", ok,
           f"100-point grid monotone under coth bound; small-tau dev {dev:.2e} "
           "vs 1/(pi*gamma)=4.71 (bar 1%)")
    assert ok


def test_c08_trotter_error_law():
    """Criterion 8: corrected residual scales as delta^4; commuting is exact."""
    rng = np.random.default_rng(88)
    deltas = np.array([5e-3, 1.06e-2, 2.24e-2, 5e-2])
    slopes = []
    for _ in range(20):
        frags = []
        for _ in range(2):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            frags.append((a + a.conj().T) / 2)
        residuals = []
        for delta in deltas:
            exact, eff, _, shifts = spectro.trotter_effective_spectrum(frags, float(delta))
            residuals.append(float(np.max(np.abs(eff - exact - shifts))))
        slopes.append(float(np.polyfit(np.log(deltas), np.log(residuals), 1)[0]))
    slope_ok = all(abs(s - 4.0) <= 0.3 for s in slopes)

    diag = [np.diag(rng.standard_normal(8)).astype(complex) for _ in range(2)]
    exact, eff, _, shifts = spectro.trotter_effective_spectrum(diag, 0.02)
    commuting_ok = (float(np.max(np.abs(eff - exact))) <= 1e-12
                    and float(np.max(np.abs(shifts))) <= 1e-12)
    ok = slope_ok and commuting_ok
    record("08 trotter error law", ok,
           f"20 systems, slopes {min(slopes):.2f}..{max(slopes):.2f} (bar 4.0±0.3); "
           f"commuting exact: {commuting_ok}")
    assert ok


def test_c09_shot_noise_contract():
    """Criterion 9: M = (alpha*N*beta/eps)^2 shots put sigma within eps >= 80/100 copies.

    One ``spectrum_rows`` scan over 100 copies of the frequency draws their
    outcome counts in turn from one generator. The sampled column is alpha N beta times the mean outcome,
    with alpha = (4 pi omega / 3c) pi N, and sigma_td is its expectation.
    """
    gamma, tau, j_max = 0.0676, math.pi / 8, 600
    scene = two_level_scene(gap=2.0, coupling=1.0)
    # probe half a linewidth off resonance: strong but nontrivial signal
    omega = 2.0 + gamma / 2
    norm = float(np.linalg.norm(scene.dipole @ scene.ground_state))  # N = ||D|I>||
    alpha = 4 * math.pi * omega / (3 * 137.036) * math.pi * norm
    beta = absorption.beta_bound(tau, gamma, j_max)
    epsilon = 0.02
    shots = absorption.shot_count(alpha, norm, beta, epsilon)
    rows = spectro.spectrum_rows(scene, [omega] * 100, gamma, tau, j_max, shots, seed=0)
    hits = sum(abs(row["sigma_sampled"] - row["sigma_td"]) <= epsilon for row in rows)
    exact_z = rows[0]["sigma_td"] / (alpha * norm * beta)
    record("09 shot noise", hits >= 80,
           f"{hits}/100 copies within eps={epsilon} at M={shots} (bar 80); "
           f"E[Z]={exact_z:.3f}")
    assert hits >= 80


def _pipeline_state():
    model = grid.GridModel.from_config(load_fixture("grid_soft_coulomb_1d.json")["model"])
    psi, e0 = grid.ground_state(model)
    excited, norm = grid.apply_dipole(model, psi)
    excited /= norm
    filt = grid.FilterSpec(center=1.8, sigma=0.2, mode="ExactEigen")
    filtered, p_w = grid.gaussian_filter(model, filt, excited, e0)
    filtered /= np.linalg.norm(filtered)
    moved = grid.evolve(model, filtered, 10.0)
    projected, p_c = grid.continuum_project(model, moved, 10.0)
    return model, projected, p_c


def test_c10_photoemission_identity_and_sampling():
    """Criterion 10: correlation-function identity, mass bookkeeping, sampling."""
    model, projected, p_c = _pipeline_state()
    deviation = correlation_identity_check(model, projected, 10.0)
    kmax = float(np.max(model.k_axis**2) / 2)
    edges = np.linspace(0.0, kmax * 1.0001, 30)
    hist = grid.kinetic_histogram(model, projected, edges)
    # the pipeline state entered the projector normalized, so its retained
    # norm^2 is the success probability itself
    mass_dev = abs(float(hist.mass.sum()) - p_c)

    epsilon = 0.05
    shots = math.ceil(1 / epsilon**2)
    exact_conditional = hist.mass / hist.success_probability
    good_trials = 0
    for seed in range(200):
        sampled = grid.kinetic_histogram(model, projected, edges, shots=shots, seed=seed)
        freq = sampled.sampled_mass / sampled.success_probability
        if float(np.max(np.abs(freq - exact_conditional))) <= epsilon:
            good_trials += 1
    ok = deviation <= 1e-12 and mass_dev <= 1e-12 and good_trials >= 190
    record("10 photoemission identity", ok,
           f"correlation identity {deviation:.1e} (bar 1e-12); mass-success "
           f"{mass_dev:.1e} (bar 1e-12); {good_trials}/200 trials within eps=0.05 (bar 190)")
    assert deviation <= 1e-12
    assert mass_dev <= 1e-12
    assert good_trials >= 190


def test_c11_filter_degree_law():
    """Criterion 11: Chebyshev degree for 1e-3 sup error tracks the closed form."""
    epsilon = 1e-3
    worst = 1.0
    for ratio in (20, 35, 63, 112, 200):  # one decade of lambda/delta
        sigma = 1.0 / ratio

        def target(x, s=sigma):
            return np.exp(-((x - 0.2) ** 2) / (2 * s**2))

        actual = len(grid.chebyshev_fit(target, epsilon)) - 1
        predicted = planewave.filter_degree(float(ratio), 1.0, epsilon)
        factor = max(predicted / actual, actual / predicted)
        worst = max(worst, factor)
    record("11 filter degree law", worst <= 3.0, f"worst factor {worst:.2f} (bar 3)")
    assert worst <= 3.0


def _radius_brute_force_ok(rng) -> bool:
    """Criterion 12's radius check: every 3D point of n = 2 to 4 bits at four radii each.

    The oracle is the sphere's definition in exact integers (``inside_sphere``).
    """
    ok = True
    box = 10.0
    for n in (2, 3, 4):
        half = 2 ** (n - 1)
        for r_c in rng.uniform(0.2, 9.0, size=4):
            for qx in range(-half, half):
                for qy in range(-half, half):
                    for qz in range(-half, half):
                        regs = tuple(qarith.BitRegister.from_int(v, n, signed=True)
                                     for v in (qx, qy, qz))
                        want = int(inside_sphere(qx**2 + qy**2 + qz**2, float(r_c), n, box))
                        ok &= qarith.radius_test(regs, float(r_c), box) == want
    return ok


def test_c12_radius_check_catches_a_shifted_threshold(radius_threshold_plus_5):
    assert not _radius_brute_force_ok(np.random.default_rng(12))


def test_c12_arithmetic_brute_force():
    """Criterion 12: exhaustive arithmetic equivalence and Toffoli-count identities."""
    comp_ok = all(
        qarith.comp(qarith.BitRegister(n, a), qarith.BitRegister(n, b)) == int(b < a)
        for n in range(1, 5) for a in range(2**n) for b in range(2**n))

    bex_ok = all(
        qarith.be_x_amplitude(alpha, n) == (alpha / 2**n, (2**n - alpha) / 2**n)
        for n in range(1, 5) for alpha in range(2**n + 1))

    rng = np.random.default_rng(12)
    radius_ok = _radius_brute_force_ok(rng)

    allb_ok = True
    n = 2
    for r_c in (1.2, 3.3, 6.7):
        for q1 in range(-2, 2):
            for q2 in range(-2, 2):
                regs1 = tuple(qarith.BitRegister.from_int(v, n, signed=True)
                              for v in (q1, q2, 0))
                for p1 in range(-2, 2):
                    regs2 = tuple(qarith.BitRegister.from_int(v, n, signed=True)
                                  for v in (p1, 0, q1))
                    want = (qarith.radius_test(regs1, r_c, 10.0)
                            & qarith.radius_test(regs2, r_c, 10.0))
                    allb_ok &= qarith.all_bound([regs1, regs2], r_c, 10.0) == want

    counts_ok = True
    for _ in range(100):
        eta = int(rng.integers(1, 250))
        bits = int(rng.integers(1, 16))
        eps = float(rng.choice([0.5, 1e-2, 1e-3, 1e-5]))
        spec = PlaneWaveSpec(eta=eta, lambda_zeta=float(eta), omega_cell=1000.0,
                             n_bits=bits, epsilon_be=eps, delta_filter=0.1,
                             t_evolution=0.0)
        counts_ok &= (qarith.position_be_toffolis(spec)
                      == planewave.dipole_block_encoding_cost(spec))
        counts_ok &= (qarith.all_bound_toffolis(bits, eta)
                      == planewave.continuum_projector_cost(spec))

    ok = comp_ok and bex_ok and radius_ok and allb_ok and counts_ok
    record("12 arithmetic brute force", ok,
           f"comp {comp_ok}, be_x {bex_ok}, radius {radius_ok}, "
           f"all_bound {allb_ok}, cross-module Toffoli counts {counts_ok}")
    assert ok


def test_cdf_reconstruction_gate():
    """Supporting gate: full-rank factorization reproduces a random tensor."""
    rng = np.random.default_rng(4)
    n = 4
    t = rng.standard_normal((n,) * 4)
    t = t + t.transpose(1, 0, 2, 3)
    t = t + t.transpose(0, 1, 3, 2)
    t = t + t.transpose(2, 3, 0, 1)
    tensor = cdf.TwoElectronTensor(n_orbitals=n, values=t)
    fact = cdf.double_factorize(tensor, l_max=n * n)
    record("-- cdf reconstruction", fact.reconstruction_error <= 1e-8,
           f"error {fact.reconstruction_error:.2e} (bar 1e-8)")
    assert fact.reconstruction_error <= 1e-8
