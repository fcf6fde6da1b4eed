"""Batched Kraus-family routines against the per-pair loops they replaced.

The references below are the loop implementations kept as slow
differential oracles.  Batching changes the summation order, so results
are compared to ORACLE_ATOL: a few hundred float64 roundings (2.2e-16
each) on quantities of order one.  Verdicts must agree exactly.
"""

import tracemalloc

import numpy as np
import pytest

from qecentropy.catalog import all_instances
from qecentropy.channel import (
    canonical_kraus,
    channel,
    choi_gram,
    pauli_channel,
    remix_kraus,
    unitary_channel,
)
from qecentropy.code import _recovery_residual, build_recovery, code_subspace, kl_check, span_code
from qecentropy.entropy import (
    _entropy_of_spectrum,
    exchange_matrix,
    lindblad_omega,
    purification_exchange_entropy,
)
from qecentropy.errors import NotCorrectable, NotTracePreserving
from qecentropy.numerics import DEFAULT_TOL, dag, frobenius
from qecentropy.sampling import haar_unitary, random_channel, random_density

ORACLE_ATOL = 1e-12
VERIFY_ATOL = 1e-6  # build_recovery's default verify_atol


# Slow references: the per-pair loops -------------------------------------


def _choi_gram_reference(c):
    m = c.num_kraus
    g = np.empty((m, m), dtype=complex)
    for i, ei in enumerate(c.kraus):
        for j, ej in enumerate(c.kraus):
            g[i, j] = np.trace(dag(ei) @ ej)
    return (g + dag(g)) / 2


def _exchange_matrix_reference(c, rho):
    m = c.num_kraus
    sigma = np.empty((m, m), dtype=complex)
    for i, ei in enumerate(c.kraus):
        for j, ej in enumerate(c.kraus):
            sigma[i, j] = np.trace(rho @ dag(ei) @ ej)
    return (sigma + dag(sigma)) / 2


def _kl_check_reference(c, code, tol=DEFAULT_TOL):
    """(lambda, residual), raising NotTracePreserving or NotCorrectable."""
    total = sum(dag(e) @ e for e in c.kraus)
    tp_residual = frobenius(total - np.eye(c.dim))
    if tp_residual > tol.eps_kl * c.dim:
        raise NotTracePreserving(tp_residual)
    b, k, m = code.basis, code.k, c.num_kraus
    lam = np.empty((m, m), dtype=complex)
    residual = 0.0
    compressed = [e @ b for e in c.kraus]
    for i in range(m):
        for j in range(m):
            block = dag(compressed[i]) @ compressed[j]
            lam[i, j] = np.trace(block) / k
            residual = max(residual, frobenius(block - lam[i, j] * np.eye(k)))
    scale = max(frobenius(e) for e in c.kraus)
    threshold = tol.eps_kl * max(1.0, scale * scale)
    if residual > threshold:
        raise NotCorrectable(residual, threshold)
    return (lam + dag(lam)) / 2, residual


def _lindblad_omega_reference(c, rho):
    n, m = c.dim, c.num_kraus
    omega = np.zeros((n * m, n * m), dtype=complex)
    for i, ei in enumerate(c.kraus):
        for j, ej in enumerate(c.kraus):
            unit = np.zeros((m, m), dtype=complex)
            unit[i, j] = 1.0
            omega += np.kron(ei @ rho @ dag(ej), unit)
    _, q = np.linalg.eigh(_exchange_matrix_reference(c, rho))
    big = np.kron(np.eye(n), q @ q.T)
    return big @ omega @ dag(big)


def _purification_entropy_reference(c, rho, tol=DEFAULT_TOL):
    """The kron(E_i, I_r) route on the full (n*r)-dimensional purified state."""
    w, v = np.linalg.eigh(rho)
    keep = w > tol.eps_rank * max(1.0, float(w[-1]))
    w, v = w[keep], v[:, keep]
    r = len(w)
    psi = np.zeros(c.dim * r, dtype=complex)
    for a in range(r):
        ref = np.zeros(r)
        ref[a] = 1.0
        psi += np.sqrt(w[a]) * np.kron(v[:, a], ref)
    pure = np.outer(psi, np.conj(psi))
    out = np.zeros_like(pure)
    for e in c.kraus:
        big = np.kron(e, np.eye(r))
        out += big @ pure @ dag(big)
    return _entropy_of_spectrum(np.linalg.eigvalsh((out + dag(out)) / 2), tol)


def _recovery_residual_reference(recovery, c, code):
    """The k^2 full n x n round trips through the channel and the recovery."""
    b = code.basis
    residual = 0.0
    for a in range(code.k):
        for bb in range(code.k):
            unit = np.outer(b[:, a], np.conj(b[:, bb]))
            noisy = sum(e @ unit @ dag(e) for e in c.kraus)
            roundtrip = sum(r @ noisy @ dag(r) for r in recovery.kraus)
            residual = max(residual, frobenius(roundtrip - unit))
    return residual


# Seeded inputs -------------------------------------------------------------


def _random_channels(seed, count):
    """(channel, rng) pairs: n 2-16, m 1-9; every third family is scaled per
    operator, so it is not trace preserving."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n, m = int(rng.integers(2, 17)), int(rng.integers(1, 10))
        c = random_channel(n, m, rng)
        if t % 3 == 2:
            c = channel(rng.uniform(0.3, 1.5) * e for e in c.kraus)
        yield c, rng


def _random_subspace(n, k, rng):
    return span_code(list(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))))


def _correctable_pairs():
    """(channel, code) pairs that pass the KL check, of code rank 1 to 4."""
    rng = np.random.default_rng(41)
    pairs = [(inst.channel, code) for inst in all_instances().values() for _, code in inst.codes]
    for nq in (3, 4):
        words = ["I" * nq] + ["I" * i + "X" + "I" * (nq - i - 1) for i in range(nq)]
        eye = np.eye(2 ** nq)
        pairs.append((pauli_channel(zip(rng.dirichlet(np.ones(nq + 1)), words)),
                      code_subspace([eye[0], eye[-1]])))
    for n, k in ((4, 2), (6, 3), (8, 4)):
        pairs.append((unitary_channel(haar_unitary(n, rng)), _random_subspace(n, k, rng)))
    for n, m in ((3, 2), (7, 5), (12, 9)):
        pairs.append((random_channel(n, m, rng), _random_subspace(n, 1, rng)))
    return pairs


# Differential tests ----------------------------------------------------------


def test_choi_gram_matches_loop_reference():
    for c, _ in _random_channels(1, 60):
        gram = choi_gram(c)
        ref = _choi_gram_reference(c)
        assert np.max(np.abs(gram.matrix - ref)) <= ORACLE_ATOL
        ref_weights = np.clip(np.linalg.eigvalsh(ref), 0.0, None)
        assert np.max(np.abs(gram.weights - ref_weights)) <= ORACLE_ATOL


def test_exchange_matrix_matches_loop_reference():
    for c, rng in _random_channels(2, 60):
        rho = random_density(c.dim, rng)
        ref = _exchange_matrix_reference(c, rho)
        assert np.max(np.abs(exchange_matrix(c, rho) - ref)) <= ORACLE_ATOL


def _kl_outcome(check, c, code):
    try:
        return check(c, code)
    except (NotTracePreserving, NotCorrectable) as exc:
        return exc


def test_kl_check_matches_loop_reference_on_random_subspaces():
    verdicts = set()
    for c, rng in _random_channels(3, 60):
        for k in (1, 2):
            code = _random_subspace(c.dim, k, rng)
            new, ref = _kl_outcome(kl_check, c, code), _kl_outcome(_kl_check_reference, c, code)
            assert type(new) is type(ref)
            verdicts.add(type(new).__name__)
            if isinstance(ref, NotCorrectable):
                assert abs(new.residual - ref.residual) <= ORACLE_ATOL
                assert abs(new.threshold - ref.threshold) <= ORACLE_ATOL * ref.threshold
            elif isinstance(ref, tuple):
                assert np.max(np.abs(new[0].matrix - ref[0])) <= ORACLE_ATOL
                assert abs(new[1] - ref[1]) <= ORACLE_ATOL
    assert verdicts == {"tuple", "NotCorrectable", "NotTracePreserving"}


def test_kl_check_matches_loop_reference_on_codes():
    for c, code in _correctable_pairs():
        lam, residual = kl_check(c, code)
        ref_lam, ref_residual = _kl_check_reference(c, code)
        assert np.max(np.abs(lam.matrix - ref_lam)) <= ORACLE_ATOL
        assert abs(residual - ref_residual) <= ORACLE_ATOL


def test_lindblad_omega_matches_loop_reference():
    for c, rng in _random_channels(4, 45):
        rho = random_density(c.dim, rng)
        ref = _lindblad_omega_reference(c, rho)
        assert np.max(np.abs(lindblad_omega(c, rho) - ref)) <= ORACLE_ATOL


def test_purification_route_matches_kron_reference():
    for c, rng in _random_channels(5, 45):
        rho = random_density(c.dim, rng)
        if rng.uniform() < 0.3:
            # Rank-deficient input: the reference is sized to the rank.
            psi = rng.standard_normal((c.dim, 2)) + 1j * rng.standard_normal((c.dim, 2))
            rho = psi @ dag(psi)
            rho /= np.trace(rho).real
        got = purification_exchange_entropy(c, rho)
        assert abs(got - _purification_entropy_reference(c, rho)) <= 1e-10


def test_recovery_residual_matches_loop_reference_on_built_recoveries():
    for c, code in _correctable_pairs():
        rec = build_recovery(c, code)
        ref = _recovery_residual_reference(rec.channel, c, code)
        assert abs(rec.residual - ref) <= ORACLE_ATOL
        assert abs(_recovery_residual(rec.channel, c, code) - ref) <= ORACLE_ATOL


def _broken_recoveries(ops, code, rng):
    """Recovery families with one operator dropped, a logical swap of two
    code states after one branch, or one operator perturbed at scales on
    both sides of VERIFY_ATOL."""
    for j in range(len(ops)):
        yield [r for i, r in enumerate(ops) if i != j]
    if code.k >= 2:
        perm = np.arange(code.k)
        perm[[0, 1]] = perm[[1, 0]]
        logical_swap = code.basis[:, perm] @ dag(code.basis)
        yield [logical_swap @ ops[0], *ops[1:]]
    noise = rng.standard_normal(ops[0].shape) + 1j * rng.standard_normal(ops[0].shape)
    for eps in (1e-9, 1e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 1e-4):
        yield [ops[0] + eps * noise / frobenius(noise), *ops[1:]]


def test_recovery_residual_flags_broken_recoveries_like_the_loop():
    rng = np.random.default_rng(43)
    flagged = passed = 0
    for c, code in _correctable_pairs():
        ops = list(build_recovery(c, code).channel.kraus)
        for broken in _broken_recoveries(ops, code, rng):
            recovery = channel(broken)
            got = _recovery_residual(recovery, c, code)
            ref = _recovery_residual_reference(recovery, c, code)
            assert abs(got - ref) <= ORACLE_ATOL * max(1.0, ref)
            assert (got > VERIFY_ATOL) == (ref > VERIFY_ATOL)
            flagged += ref > VERIFY_ATOL
            passed += ref <= VERIFY_ATOL
    assert flagged and passed


def test_purification_route_allocates_no_purified_output():
    # The kron(E_i, I_r) route builds (n*r) x (n*r) matrices: about 96 MiB
    # at n = 32 with a full-rank state.
    rng = np.random.default_rng(6)
    c, rho = random_channel(32, 4, rng), random_density(32, rng)
    purification_exchange_entropy(c, rho)
    tracemalloc.start()
    try:
        purification_exchange_entropy(c, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_kraus_families_are_read_only_stacks():
    rng = np.random.default_rng(7)
    c = random_channel(5, 3, rng)
    for family in (c, canonical_kraus(c), remix_kraus(c, haar_unitary(3, rng))):
        assert family.kraus.shape == (family.num_kraus, 5, 5)
        assert family.kraus.dtype == complex
        with pytest.raises(ValueError):
            family.kraus[0, 0, 0] = 1.0
