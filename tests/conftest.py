import pytest

from qecentropy import binary_unitary, entropy, numerics
from qecentropy import code as code_module


@pytest.fixture(autouse=True)
def _forget_last_analyses():
    # Four one-entry memos (numerics._LastCall) keep the most recent U's
    # decomposition, the ranges built from it, the most recent (channel, code)
    # analysis and the most recent (channel, state) analysis; tests that count
    # decompositions, range builds, KL checks or eigensolves must not find an
    # earlier test's U, code or state there, so each memo's entry is dropped.
    # Clearing the decomposition alone makes the next call on any U cold, as
    # the range memo is keyed by the decomposition.  Per-channel quantities
    # (the trace residual, the Kraus Gram and its eigensolve) live on the
    # channel object, so a new channel starts without them.
    numerics._eigen_memo.last = None
    binary_unitary._range_memo.last = None
    code_module._code_memo.last = None
    entropy._state_memo.last = None


@pytest.fixture
def analysis_counts(monkeypatch):
    """(decompositions computed, rank of each range built), recorded from the
    start of the test.  A decomposition is counted when unitary_eigen's memo
    misses and it is computed, not on every call."""
    eigen_calls, range_ks = [], []
    eigen, build = numerics._decompose_unitary, binary_unitary._range_from_eigen

    def counting_eigen(*args):
        eigen_calls.append(args)
        return eigen(*args)

    def counting_build(dec, k, tol):
        range_ks.append(k)
        return build(dec, k, tol)

    monkeypatch.setattr(numerics, "_decompose_unitary", counting_eigen)
    monkeypatch.setattr(binary_unitary, "_range_from_eigen", counting_build)
    return eigen_calls, range_ks
