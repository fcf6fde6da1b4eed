import functools
import importlib

import numpy as np
import pytest

from qecentropy import code as code_module
from qecentropy.channel import apply_channel, pauli_channel, unitary_channel
from qecentropy.code import (
    CodeClass,
    build_recovery,
    classify_code,
    code_entropy,
    code_from_json,
    code_subspace,
    kl_check,
    rank_bound_check,
    sigma_equals_lambda_check,
    span_code,
)
from qecentropy.errors import NotCorrectable
from qecentropy.numerics import dag
from qecentropy.sampling import haar_unitary

LOG2_3 = np.log2(3.0)


def _ket(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def _table1_channel():
    return pauli_channel([(1 / 3, "III"), (1 / 3, "XII"), (1 / 3, "IXI")])


def _table1_codes():
    k = [_ket(8, i) for i in range(8)]
    code1 = code_subspace([k[0], k[7]])
    code2 = code_subspace([(k[0] + k[4]) / np.sqrt(2), (k[3] + k[7]) / np.sqrt(2)])
    code3 = code_subspace([
        (k[0] + k[4] + k[2] + k[6]) / 2,
        (k[3] + k[7] + k[1] + k[5]) / 2,
    ])
    return code1, code2, code3


def test_rank_one_code_decomposes_lambda_once(monkeypatch):
    # The KL analysis is memoised, so the whole chain on one code decomposes
    # Lambda once: in the first kl_check, which classify_code,
    # build_recovery and sigma_equals_lambda_check then reuse.
    chan, code3 = _table1_channel(), _table1_codes()[2]
    lam = kl_check(chan, code3)[0].matrix
    code_module._code_memo.last = None
    eigh, calls = np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        if a.shape == lam.shape and np.allclose(a, lam, atol=1e-12):
            calls.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    kl_check(chan, code3)
    report = classify_code(chan, code3)
    assert report.lambda_rank == 1 and report.classification is CodeClass.DECOHERENCE_FREE
    build_recovery(chan, code3)
    assert sigma_equals_lambda_check(chan, code3, 2)
    assert len(calls) == 1


def test_one_channel_checks_trace_preservation_once(monkeypatch):
    # ||sum_i E_i^dag E_i - I||_F is formed once, for the analysed channel
    # alone: the built recovery is checked in the code space instead.
    # The package's own ``channel`` attribute is the constructor function.
    channel_module = importlib.import_module("qecentropy.channel")
    cls = channel_module.QuantumChannel
    chan, code1 = _table1_channel(), _table1_codes()[0]
    form, formed = cls.__dict__["_trace_residual"].func, []

    def counting(c):
        formed.append(c)
        return form(c)

    prop = functools.cached_property(counting)
    prop.__set_name__(cls, "_trace_residual")
    monkeypatch.setattr(cls, "_trace_residual", prop)
    kl_check(chan, code1)
    classify_code(chan, code1)
    build_recovery(chan, code1)
    assert sigma_equals_lambda_check(chan, code1, 2)
    assert rank_bound_check(chan, code1)
    assert len(formed) == 1 and formed[0] is chan


def test_code_subspace_requires_orthonormal_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        code_subspace([_ket(4, 0), (_ket(4, 0) + _ket(4, 1)) / np.sqrt(2)])


def test_span_code_orthonormalizes():
    code = span_code([_ket(4, 0) * 2.0, _ket(4, 0) + _ket(4, 1)])
    p = code.projector()
    assert np.allclose(p @ p, p, atol=1e-12)
    assert code.k == 2
    with pytest.raises(ValueError, match="dependent"):
        span_code([_ket(4, 0), 2 * _ket(4, 0)])


def test_kl_check_table1_lambda_matrices():
    chan = _table1_channel()
    code1, code2, _ = _table1_codes()
    lam1, res1 = kl_check(chan, code1)
    assert np.allclose(lam1.matrix, np.eye(3) / 3, atol=1e-12)
    assert res1 < 1e-12
    lam2, _ = kl_check(chan, code2)
    expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=complex) / 3
    assert np.allclose(lam2.matrix, expected, atol=1e-12)
    assert np.allclose(lam2.spectrum, [0.0, 1 / 3, 2 / 3], atol=1e-12)


def test_kl_check_rejects_non_code():
    chan = _table1_channel()
    bad = code_subspace([_ket(8, 0), _ket(8, 4)])  # X1 flips within the span
    with pytest.raises(NotCorrectable) as err:
        kl_check(chan, bad)
    assert err.value.residual > err.value.threshold


def test_lambda_is_a_density_matrix():
    chan = _table1_channel()
    for code in _table1_codes():
        lam, _ = kl_check(chan, code)
        assert abs(np.trace(lam.matrix) - 1.0) < 1e-12
        assert np.allclose(lam.matrix, dag(lam.matrix), atol=1e-14)
        assert np.min(np.linalg.eigvalsh(lam.matrix)) > -1e-12


def test_code_entropy_table1():
    chan = _table1_channel()
    code1, code2, code3 = _table1_codes()
    assert abs(code_entropy(chan, code1) - LOG2_3) < 1e-12
    assert abs(code_entropy(chan, code2) - (LOG2_3 - 2 / 3)) < 1e-12
    assert code_entropy(chan, code3) < 1e-12


def test_classify_code_table1():
    chan = _table1_channel()
    code1, code2, code3 = _table1_codes()
    r1 = classify_code(chan, code1)
    assert r1.classification is CodeClass.NON_DEGENERATE
    assert r1.lambda_rank == r1.choi_rank == 3
    r2 = classify_code(chan, code2)
    assert r2.classification is CodeClass.PARTIALLY_DEGENERATE
    assert r2.lambda_rank == 2
    r3 = classify_code(chan, code3)
    assert r3.classification is CodeClass.DECOHERENCE_FREE
    assert r3.unitarily_correctable and r3.decoherence_free
    assert r3.entropy_bits < 1e-12


def test_unitarily_correctable_but_not_dfs():
    # A unitary channel acts as X on the code: correctable by one unitary,
    # but not the identity, so not decoherence free.
    u = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))
    chan = unitary_channel(u)
    code = code_subspace([_ket(4, 0), _ket(4, 1)])
    report = classify_code(chan, code)
    assert report.classification is CodeClass.UNITARILY_CORRECTABLE
    assert report.unitarily_correctable and not report.decoherence_free


def test_sigma_equals_lambda_and_rank_bound():
    chan = _table1_channel()
    for code in _table1_codes():
        assert sigma_equals_lambda_check(chan, code, samples=10, seed=1)
        assert rank_bound_check(chan, code)


def test_build_recovery_table1():
    chan = _table1_channel()
    for code in _table1_codes():
        rec = build_recovery(chan, code)
        assert rec.residual <= 1e-6
        # Recovery undoes the channel on arbitrary code states.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x /= np.linalg.norm(x)
        psi = code.basis @ x
        rho = np.outer(psi, np.conj(psi))
        assert np.allclose(apply_channel(rec.channel, apply_channel(chan, rho)), rho,
                           atol=1e-10)


def test_build_recovery_unitary_channel_is_adjoint():
    rng = np.random.default_rng(4)
    u = haar_unitary(4, rng)
    chan = unitary_channel(u)
    code = code_subspace([_ket(4, 0), _ket(4, 2)])
    rec = build_recovery(chan, code)
    assert rec.residual <= 1e-10
    # One recovery Kraus operator acts as U^dag on the channel image of the code.
    img = u @ code.basis
    assert np.allclose(rec.channel.kraus[0] @ img, code.basis, atol=1e-10)


def test_code_json_roundtrip():
    code = _table1_codes()[1]
    back = code_from_json(code.to_json())
    assert np.allclose(back.projector(), code.projector(), atol=1e-14)
    with pytest.raises(ValueError):
        code_from_json({"dim": 8})
