import ctypes
import glob
import os

import numpy as np
import pytest

from qecentropy import binary_unitary, entropy, numerics
from qecentropy import code as code_module


def _openblas_core() -> str:
    """The core (kernel) that numpy's bundled scipy-openblas chose for this CPU."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown (no bundled scipy-openblas)"


def pytest_report_header(config):
    # The stdout pins hold the last bits of BLAS products, which depend on
    # the kernel; a pin that fails on another kernel shows it here.
    return f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}"


@pytest.fixture(autouse=True)
def _forget_last_analyses():
    # Three one-entry memos (numerics._LastCall) keep the most recent U's
    # decomposition, the most recent (channel, code) analysis and the most
    # recent (channel, state) analysis.  U and rho are matched by shape and
    # bytes, so a test that builds an equal U or state would find an earlier
    # test's entry; channels and codes are matched by identity, and the entry
    # keeps them alive.  Tests that count decompositions, range builds, KL
    # checks or eigensolves must start cold, so each memo's entry is dropped.
    # The ranges live on the decomposition, so clearing it makes the next
    # call on any U cold.  Per-channel quantities (the trace residual, the
    # Kraus Gram and its eigensolve) live on the channel object, so a new
    # channel starts without them.
    numerics._eigen_memo.last = None
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
