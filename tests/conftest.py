import pytest

from qecentropy import binary_unitary


@pytest.fixture(autouse=True)
def _forget_last_unitary():
    # binary_unitary keeps the most recent U's decomposition and ranges; tests
    # that count decompositions or range builds must not find an earlier
    # test's U there.
    binary_unitary._last_u = None
