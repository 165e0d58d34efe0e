"""Shared test infrastructure: the acceptance-criteria result board and shared oracles.

Acceptance tests register one line per criterion (or sub-criterion) through
``record``; the terminal summary prints the full board after the run so the
pass/fail state of every golden check is visible in one place.
"""

from collections import OrderedDict

import numpy as np

from euvq import grid

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
