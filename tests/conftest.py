"""Shared test infrastructure: the acceptance-criteria result board, shared oracles and scenes.

Acceptance tests register one line per criterion (or sub-criterion) through
``record``; the terminal summary prints the full board after the run so the
pass/fail state of every golden check is visible in one place.
"""

import math
from collections import OrderedDict

import numpy as np
import pytest

from euvq import absorption, grid, qarith, spectro

_BOARD: "OrderedDict[str, tuple[bool, str]]" = OrderedDict()


def record(criterion: str, passed: bool, detail: str) -> None:
    _BOARD[criterion] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _BOARD:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, (passed, detail) in _BOARD.items():
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {criterion:<28} {status}  {detail}")


def inside_sphere(q2: int, r_cutoff: float, n_bits: int, box: float) -> bool:
    """The radius test from its definition: sum q^2 < (R_c 2^n / L)^2, in exact integers.

    With R_c = r_num / r_den and L = L_num / L_den, that is
    sum q^2 (r_den L_num)^2 < (r_num L_den 2^n)^2, as arith-verify compares it;
    nothing of ``qarith`` is read, so a wrong threshold there cannot move both
    sides of a check.
    """
    (r_num, r_den), (box_num, box_den) = r_cutoff.as_integer_ratio(), box.as_integer_ratio()
    return q2 * (r_den * box_num) ** 2 < (r_num * box_den * 2**n_bits) ** 2


def _shift_radius_threshold(monkeypatch, shift: int) -> None:
    threshold = qarith.radius_threshold
    monkeypatch.setattr(qarith, "radius_threshold", lambda *args: threshold(*args) + shift)


@pytest.fixture
def radius_threshold_plus_5(monkeypatch):
    """``qarith.radius_threshold`` returning 5 more: a fault each radius oracle must catch."""
    _shift_radius_threshold(monkeypatch, 5)


@pytest.fixture
def radius_threshold_plus_1(monkeypatch):
    """``qarith.radius_threshold`` off by one upward: only points on the shell above it catch it."""
    _shift_radius_threshold(monkeypatch, 1)


@pytest.fixture
def radius_threshold_minus_1(monkeypatch):
    """``qarith.radius_threshold`` off by one downward: only points on its own shell catch it."""
    _shift_radius_threshold(monkeypatch, -1)


def correlation_identity_check(model, state, r_cutoff):
    """Max deviation between the two correlation-function forms at tau = 0, 0.5 and 2.

    Form A resolves <psi| Pi_c exp(-i T tau) Pi_c |psi> through the grid
    operators; form B sums exp(-i E_k tau) |<k| Pi_c psi>|^2 over the
    momentum basis. The two are algebraically identical on a finite grid.
    """
    projected, _ = grid.continuum_project(model, state, r_cutoff)
    psi = projected.reshape(model.shape).astype(complex)
    amps = np.fft.fftn(psi, norm="ortho").reshape(-1)
    ke = model.kinetic_grid().reshape(-1)
    worst = 0.0
    for tau in (0.0, 0.5, 2.0):
        phases = np.exp(-1j * ke * tau)
        form_b = complex(np.sum(phases * np.abs(amps) ** 2))
        evolved = np.fft.ifftn((phases * amps).reshape(model.shape), norm="ortho")
        form_a = complex(np.vdot(psi, evolved))
        worst = max(worst, abs(form_a - form_b))
    return worst


def beta_limit(tau, gamma):
    """j_max -> infinity limit of ``absorption.beta_bound``.

    (tau/2pi) coth(gamma tau / 2) = (tau/2pi) (1 + r) / (1 - r), r = exp(-gamma tau).
    """
    one_minus_r = absorption._one_minus_decay(tau, gamma)
    return (tau / (2.0 * math.pi)) * (2.0 - one_minus_r) / one_minus_r


def two_level_scene(gap, coupling=1.0):
    """Two levels split by ``gap`` with purely off-diagonal dipole ``coupling``."""
    h = np.diag([0.0, gap]).astype(complex)
    d = np.array([[0.0, coupling], [coupling, 0.0]], dtype=complex)
    return spectro.SpectralScene(h, d, ground_state=np.array([1.0, 0.0], dtype=complex))
