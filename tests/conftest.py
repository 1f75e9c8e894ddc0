"""Shared pytest plumbing.

The acceptance harness registers one verdict line per criterion here; the
terminal summary hook echoes them after the run so they stay visible even
though pytest captures stdout of passing tests.
"""

import numpy as np

from erasurelab.states import PureState, SiteDims

ACCEPTANCE_LINES = []


def random_state(dims, rng: np.random.Generator) -> PureState:
    """A seeded random pure state over the register ``dims``: a complex
    Gaussian vector, real parts drawn first, normalized."""
    dims = SiteDims(dims)
    z = rng.standard_normal(dims.total) + 1j * rng.standard_normal(dims.total)
    return PureState(dims, z / np.linalg.norm(z))


def code_to_json_dict(code) -> dict:
    """``code`` in the code-file format: the number of sites, their
    dimensions, and each logical state's amplitudes as [re, im] pairs."""
    return {
        "n_sites": code.n_physical,
        "dims": [2] * code.n_physical,
        "logical_basis": [[[float(a.real), float(a.imag)] for a in row] for row in code.basis],
    }


def record_criterion(number: int, label: str, ok: bool) -> bool:
    line = f"[acceptance] criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.line(line)
