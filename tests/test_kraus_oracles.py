"""Batched Kraus-family routines against the per-pair loops they replaced.

The references below are the loop implementations kept as slow
differential oracles.  Batching changes the summation order, so results
are compared to ORACLE_ATOL: a few hundred float64 roundings (2.2e-16
each) on quantities of order one.  Verdicts must agree exactly.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecentropy import code as code_module
from qecentropy.catalog import all_instances
from qecentropy.channel import (
    canonical_kraus,
    channel,
    choi_gram,
    pauli_channel,
    pauli_word,
    remix_kraus,
    unitary_channel,
)
from qecentropy.code import (
    RECOVERY_VERIFY_ATOL,
    _recovery_residual,
    build_recovery,
    code_subspace,
    kl_check,
    span_code,
)
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


# [[5,1,3]] code (cyclic shifts of XZZXI) and Steane [[7,1,3]] code (X- and
# Z-type checks on the rows of the Hamming parity matrix).
FIVE_QUBIT_STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
STEANE_STABILIZERS = tuple(
    "".join(p if bit == "1" else "I" for bit in row)
    for p in "XZ" for row in ("0001111", "0110011", "1010101")
)


def _stabilizer_code(generators):
    """The joint +1 eigenspace of commuting Pauli generators."""
    n = 2 ** len(generators[0])
    proj = np.eye(n, dtype=complex)
    for g in generators:
        proj = proj @ (np.eye(n) + pauli_word(g)) / 2
    w, v = np.linalg.eigh((proj + dag(proj)) / 2)
    return code_subspace(v[:, w > 0.5].T)


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


def _restricted_operators(c, code):
    """(sum_i v_i E_i B for the r nonzero Lambda weights w, sqrt(w)):
    build_recovery divides the first by the second to get its isometries."""
    lam, _ = kl_check(c, code)
    restricted = np.tensordot(lam.vectors[:, :lam.rank].T, c.kraus @ code.basis, axes=1)
    return restricted, np.sqrt(lam.weights[:lam.rank])[:, None, None]


def _recovery_from_factors(isometries, basis):
    """(images, recovery): the n x n operators B W_j^dag and I - A A^dag."""
    n = basis.shape[0]
    images = isometries.transpose(1, 0, 2).reshape(n, -1)
    returns = basis @ np.conj(isometries).transpose(0, 2, 1)
    return images, channel([*returns, np.eye(n) - images @ dag(images)])


def _assert_factor_residual_matches_loop(c, code, isometries):
    """The factor-form residual of the recovery built from ``isometries``
    agrees with the loop on its stored operators; returns the loop's value."""
    images, recovery = _recovery_from_factors(isometries, code.basis)
    got = _recovery_residual(c.kraus @ code.basis, code.basis, images)
    ref = _recovery_residual_reference(recovery, c, code)
    assert abs(got - ref) <= ORACLE_ATOL * max(1.0, ref)
    assert (got > RECOVERY_VERIFY_ATOL) == (ref > RECOVERY_VERIFY_ATOL)
    return ref


def _small_weight_pairs():
    """Bit-flip channels with the repetition code whose smallest Lambda
    weights are 1e-6 to 1e-8: the 1/sqrt(w) scaling of the isometries
    magnifies an error in their restricted operators 1e3 to 1e4 times."""
    for nq, tiny in ((3, 1e-6), (4, 1e-8), (5, 1e-7)):
        words = ["I" * nq] + ["I" * i + "X" + "I" * (nq - i - 1) for i in range(nq)]
        weights = [1.0 - nq * tiny] + [tiny] * nq
        eye = np.eye(2 ** nq)
        yield pauli_channel(zip(weights, words)), code_subspace([eye[0], eye[-1]])


PERTURBATIONS = (1e-9, 1e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 1e-4, 1e-2, 1e-1)


def test_recovery_residual_flags_perturbed_factors_like_the_loop():
    # Perturbing the restricted operators before their scaling, at scales on
    # both sides of RECOVERY_VERIFY_ATOL, breaks the factors themselves,
    # which the residual reads.
    rng = np.random.default_rng(43)
    flagged = passed = 0
    for c, code in [*_correctable_pairs(), *_small_weight_pairs()]:
        restricted, scale = _restricted_operators(c, code)
        noise = rng.standard_normal(restricted.shape) + 1j * rng.standard_normal(restricted.shape)
        for eps in (0.0, *PERTURBATIONS):
            ref = _assert_factor_residual_matches_loop(
                c, code, (restricted + eps * noise / frobenius(noise)) / scale)
            flagged += ref > RECOVERY_VERIFY_ATOL
            passed += ref <= RECOVERY_VERIFY_ATOL
    assert flagged and passed


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.sampled_from(["bitflip", "xz"]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(PERTURBATIONS))
def test_recovery_residual_flags_perturbed_factors_like_the_loop_property(nq, family, seed, eps):
    # X and Z errors with the five-qubit or the Steane code; else bit flips
    # with the repetition code.
    rng = np.random.default_rng(seed)
    words = ["I" * i + "X" + "I" * (nq - i - 1) for i in range(nq)]
    if family == "xz" and nq in (5, 7):
        words += ["I" * i + "Z" + "I" * (nq - i - 1) for i in range(nq)]
        code = _stabilizer_code(FIVE_QUBIT_STABILIZERS if nq == 5 else STEANE_STABILIZERS)
    else:
        eye = np.eye(2 ** nq)
        code = code_subspace([eye[0], eye[-1]])
    weights = rng.dirichlet(np.ones(len(words) + 1))
    c = pauli_channel(zip(weights, ["I" * nq, *words]))
    restricted, scale = _restricted_operators(c, code)
    noise = rng.standard_normal(restricted.shape) + 1j * rng.standard_normal(restricted.shape)
    _assert_factor_residual_matches_loop(c, code, restricted / scale)
    _assert_factor_residual_matches_loop(c, code, (restricted + eps * noise / frobenius(noise)) / scale)


def _conjugate_first_return(ops):
    ops[0] = np.conj(ops[0])


def _drop_complement_projection(ops):
    ops[-1] = np.eye(ops.shape[1])


@pytest.mark.parametrize("corrupt", [_conjugate_first_return, _drop_complement_projection])
def test_loop_reference_catches_a_fault_in_the_stored_operators(monkeypatch, corrupt):
    # build_recovery verifies the factors, not the n x n operators it stores;
    # a fault in storing them passes its own check, and the loop reference on
    # the returned operators is the check that catches it.  Conjugation leaves
    # a real operator as it is, which is no fault.
    stacked = code_module._stacked
    moved = []

    def spoiled(ops):
        kept = ops.copy()
        corrupt(ops)
        moved.append(frobenius(ops - kept))
        return stacked(ops)

    monkeypatch.setattr(code_module, "_stacked", spoiled)
    caught = 0
    for c, code in _correctable_pairs():
        rec = build_recovery(c, code)
        assert rec.residual <= RECOVERY_VERIFY_ATOL
        flagged = _recovery_residual_reference(rec.channel, c, code) > RECOVERY_VERIFY_ATOL
        assert flagged == (moved[-1] > RECOVERY_VERIFY_ATOL)
        caught += flagged
    assert caught >= 6


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
