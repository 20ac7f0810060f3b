import sys

import numpy as np
import pytest

from fpukdv.core import FieldProfile
from fpukdv.kdv import SolitonSpec, soliton_profile


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance PASS/FAIL lines where capture cannot hide them."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def soliton_p2():
    """Reference p=2, c=1 soliton on the standard L=64 justification domain."""
    return soliton_profile(SolitonSpec(p=2, c=1.0, center=32.0), 64.0, 1024)


@pytest.fixture(scope="session")
def gaussian_profile():
    L, M = 64.0, 1024
    x = np.arange(M) * (L / M)
    return FieldProfile.from_values(np.exp(-((x - L / 2.0) ** 2)), L)
