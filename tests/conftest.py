import pytest

from qecentropy import binary_unitary
from qecentropy import code as code_module


@pytest.fixture(autouse=True)
def _forget_last_analyses():
    # binary_unitary keeps the most recent U's decomposition and ranges, and
    # code the most recent (channel, code) analysis; tests that count
    # decompositions, range builds or KL checks must not find an earlier
    # test's U or code there.
    binary_unitary._last_u = None
    code_module._last_code = None


@pytest.fixture
def analysis_counts(monkeypatch):
    """(unitary_eigen calls, rank of each range built) in binary_unitary,
    recorded from the start of the test."""
    eigen_calls, range_ks = [], []
    eigen, build = binary_unitary.unitary_eigen, binary_unitary._range_from_eigen

    def counting_eigen(*args):
        eigen_calls.append(args)
        return eigen(*args)

    def counting_build(dec, k, tol):
        range_ks.append(k)
        return build(dec, k, tol)

    monkeypatch.setattr(binary_unitary, "unitary_eigen", counting_eigen)
    monkeypatch.setattr(binary_unitary, "_range_from_eigen", counting_build)
    return eigen_calls, range_ks
