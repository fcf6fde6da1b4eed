"""The memoised (channel, code) analysis and the two routes that work in the
code space: the exchange state from the compressions E_i B, and the
trace-preservation residual of a built recovery in the (rk) x (rk) space."""

import numpy as np
import pytest

from qecentropy import code as code_module
from qecentropy import entropy
from qecentropy.channel import channel, choi_gram, pauli_channel
from qecentropy.code import (
    CodeSubspace,
    build_recovery,
    classify_code,
    code_entropy,
    code_subspace,
    kl_check,
    rank_bound_check,
    sigma_equals_lambda_check,
)
from qecentropy.entropy import exchange_matrix
from qecentropy.errors import NotCorrectable, NotTracePreserving, RecoveryVerificationError
from qecentropy.numerics import DEFAULT_TOL, ToleranceConfig, dag, frobenius
from qecentropy.sampling import haar_unitary, random_channel, random_density

TINY_RANK = ToleranceConfig(eps_rank=1e-300)


def _random_subspace(n, k, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    return code_subspace(q.T)


def _block_code(k, blocks, rng):
    """A random correctable code with a non-diagonal Lambda of rank ``blocks``.

    W_j is a block-diagonal Haar unitary followed by a shift of j blocks, so
    the W_j map the first block onto mutually orthogonal blocks; the Kraus
    family is a unitary remix of the sqrt(p_j) W_j, conjugated by a Haar
    unitary Q, and the code is Q's first k columns.
    """
    n = k * blocks
    ws = []
    for j in range(blocks):
        diag = np.zeros((n, n), dtype=complex)
        for b in range(blocks):
            diag[b * k:(b + 1) * k, b * k:(b + 1) * k] = haar_unitary(k, rng)
        ws.append(np.roll(np.eye(n), j * k, axis=0) @ diag)
    p = rng.dirichlet(np.ones(blocks))
    ops = np.tensordot(haar_unitary(blocks, rng), np.sqrt(p)[:, None, None] * np.array(ws), axes=1)
    q = haar_unitary(n, rng)
    return channel([q @ e @ dag(q) for e in ops]), code_subspace(q[:, :k].T)


def _cases(seed):
    """(channel, code, tolerances): Pauli codes, random correctable codes,
    codes of dimension one under random channels, and random subspaces that
    are not codes."""
    rng = np.random.default_rng(seed)
    cases = []
    for nq in (3, 4):
        w = rng.dirichlet(np.ones(nq + 1))
        words = ["I" * nq] + ["I" * i + "X" + "I" * (nq - i - 1) for i in range(nq)]
        chan = pauli_channel(list(zip(w, words)))
        e = np.eye(2 ** nq)
        cases += [(chan, code_subspace([e[0], e[-1]]), DEFAULT_TOL),
                  (chan, _random_subspace(2 ** nq, 2, rng), DEFAULT_TOL)]
    for k, blocks in ((2, 2), (2, 3), (3, 2), (2, 4)):
        chan, code = _block_code(k, blocks, rng)
        cases += [(chan, code, DEFAULT_TOL), (chan, code, TINY_RANK),
                  (chan, _random_subspace(chan.dim, k, rng), DEFAULT_TOL)]
    for n, m in ((4, 3), (6, 5), (8, 2)):
        chan = random_channel(n, m, rng)
        cases += [(chan, _random_subspace(n, 1, rng), DEFAULT_TOL),
                  (chan, _random_subspace(n, 2, rng), DEFAULT_TOL)]
    return cases


def _exact(x):
    """A result in comparable exact form: floats by float.hex, arrays element
    by element, records by their fields, errors by type and text."""
    if isinstance(x, Exception):
        return type(x).__name__, str(x)
    if isinstance(x, np.ndarray):
        return x.shape, tuple(_exact(complex(y)) for y in x.ravel())
    if isinstance(x, code_module.ErrorCorrectionMatrix):
        return _exact((x.matrix, x.spectrum, x.vectors, x.rank))
    if isinstance(x, code_module.CodeReport):
        return (_exact(x.lam), _exact(x.entropy_bits), x.lambda_rank, x.choi_rank,
                x.classification, x.unitarily_correctable, x.decoherence_free,
                _exact(x.kl_residual))
    if isinstance(x, code_module.RecoveryOperation):
        return _exact((x.channel.kraus, x.residual))
    if isinstance(x, (list, tuple)):
        return tuple(_exact(y) for y in x)
    if isinstance(x, complex):
        return float(x.real).hex(), float(x.imag).hex()
    if isinstance(x, float):
        return x.hex()
    return x


ENTRY_POINTS = (
    lambda c, code, tol: kl_check(c, code, tol),
    lambda c, code, tol: classify_code(c, code, tol),
    lambda c, code, tol: build_recovery(c, code, tol),
    lambda c, code, tol: sigma_equals_lambda_check(c, code, 3, seed=5, tol=tol),
    lambda c, code, tol: code_entropy(c, code, tol),
    lambda c, code, tol: rank_bound_check(c, code, tol),
)


def _run(fn, case):
    try:
        return "ok", _exact(fn(*case))
    except NotCorrectable as exc:
        return _exact(exc)


def test_memo_gives_the_cold_results():
    rng = np.random.default_rng(11)
    calls = []
    for case in _cases(7):
        order = rng.permutation(len(ENTRY_POINTS))
        calls += [(ENTRY_POINTS[i], case) for i in order]
    cold = []
    for fn, case in calls:
        code_module._code_memo.last = None
        cold.append(_run(fn, case))
    code_module._code_memo.last = None
    warm = [_run(fn, case) for fn, case in calls]
    assert warm == cold
    outcomes = [outcome for outcome, _ in cold]
    # 13 codes and 9 subspaces that are not codes, six entry points each.
    assert outcomes.count("ok") == 6 * 13
    assert outcomes.count("NotCorrectable") == 6 * 9


def test_one_analysis_serves_the_whole_chain(monkeypatch):
    chan, code = _block_code(2, 3, np.random.default_rng(3))
    calls, analyse = [], code_module._kl_analysis

    def counting(*args):
        calls.append(args)
        return analyse(*args)

    monkeypatch.setattr(code_module, "_kl_analysis", counting)
    for fn in ENTRY_POINTS:
        fn(chan, code, DEFAULT_TOL)
    assert len(calls) == 1
    # The Kraus Gram is formed once per channel and shared.
    assert choi_gram(chan).matrix is choi_gram(chan).matrix is chan._kraus_gram


def test_memo_follows_the_code_and_the_tolerances():
    e = np.eye(8)
    chan = pauli_channel([(1 / 3, "III"), (1 / 3, "XII"), (1 / 3, "IXI")])
    code = code_subspace([e[0], e[7]])
    assert kl_check(chan, code)[0].rank == 3
    # The checked basis cannot change in place; another basis is another code,
    # checked afresh, and the first code's analysis stands.
    with pytest.raises(ValueError, match="read-only"):
        code.basis[:] = np.column_stack([e[0], e[4]])
    non_code = code_subspace([e[0], e[4]])
    with pytest.raises(NotCorrectable):
        kl_check(chan, non_code)
    with pytest.raises(NotCorrectable):
        build_recovery(chan, non_code)
    assert classify_code(chan, code).lambda_rank == 3
    # A near code: accepted under the default eps_kl, refused under a tighter one.
    near = code_subspace([(e[0] + 1e-9 * e[1]) / np.sqrt(1 + 1e-18), e[7]])
    residual = kl_check(chan, near)[1]
    assert 1e-12 < residual <= DEFAULT_TOL.eps_kl
    with pytest.raises(NotCorrectable):
        kl_check(chan, near, ToleranceConfig(eps_kl=1e-12))
    assert kl_check(chan, near)[1] == residual
    # Another rank cutoff gives another Lambda rank.
    dfs = code_subspace([(e[0] + e[4] + e[2] + e[6]) / 2, (e[3] + e[7] + e[1] + e[5]) / 2])
    assert kl_check(chan, dfs)[0].rank == 1
    assert kl_check(chan, dfs, TINY_RANK)[0].rank == 2
    assert kl_check(chan, dfs)[0].rank == 1
    # Another channel object is checked afresh, and so is the same basis
    # padded to a 9-dimensional code.
    with pytest.raises(NotTracePreserving):
        kl_check(channel(0.5 * chan.kraus), dfs)
    with pytest.raises(ValueError, match="does not match"):
        kl_check(chan, code_subspace(np.vstack([dfs.basis, np.zeros((1, 2))]).T))


def test_memoised_arrays_are_read_only():
    chan, code = _block_code(2, 2, np.random.default_rng(4))
    lam, _ = kl_check(chan, code)
    compressed = code_module._analysed(chan, code, DEFAULT_TOL)[0]
    for array in (compressed, lam.matrix, lam.spectrum, lam.vectors,
                  chan._kraus_gram, choi_gram(chan).matrix):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def _kl_threshold(c, tol):
    """The KL acceptance threshold, eps_kl * max(1, largest eigenvalue of the
    Kraus Gram matrix (Tr E_i^dag E_j), built here pair by pair)."""
    gram = np.array([[np.trace(dag(ei) @ ej) for ej in c.kraus] for ei in c.kraus])
    return tol.eps_kl * max(1.0, np.linalg.eigvalsh((gram + dag(gram)) / 2)[-1])


def _sigma_reference(c, code, lam, samples, seed, tol):
    """sigma = Lambda within the KL threshold on random code states, by the
    n x n exchange matrix."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        rho_code = random_density(code.k, rng)
        sigma = exchange_matrix(c, code.basis @ rho_code @ dag(code.basis))
        if np.max(np.abs(sigma - lam.matrix)) > _kl_threshold(c, tol):
            return False
    return True


def test_exchange_state_from_the_compressions_matches_exchange_matrix():
    rng = np.random.default_rng(21)
    checked = 0
    for c, code, tol in _cases(9):
        compressed = c.kraus @ code.basis
        for _ in range(3):
            rho_code = random_density(code.k, rng)
            rho = code.basis @ rho_code @ dag(code.basis)
            sigma = entropy._exchange(compressed, rho_code)
            assert np.max(np.abs(sigma - exchange_matrix(c, rho))) <= 1e-12
            checked += 1
    assert checked >= 60


def test_sigma_check_agrees_with_the_exchange_matrix_route():
    # Near codes accepted under a loose eps_kl pass, as sigma - Lambda is at most
    # the KL residual.  Only rounding fails the check: the identity channel on
    # its exact code under an eps_kl far below it, where tr(rho) misses 1 by an
    # ulp for some states.  So both verdicts occur.
    e = np.eye(8)
    chan = pauli_channel([(1 / 3, "III"), (1 / 3, "XII"), (1 / 3, "IXI")])
    loose = ToleranceConfig(eps_kl=1e-2)
    cases = [(chan, code_subspace([(e[0] + delta * e[1]) / np.sqrt(1 + delta ** 2), e[7]]), loose)
             for delta in (0.0, 1e-9, 1e-6, 1e-3)]
    cases.append((channel([np.eye(2)]), code_subspace(np.eye(2)), ToleranceConfig(eps_kl=1e-300)))
    verdicts = []
    for c, code, tol in cases:
        for seed in range(4):
            lam, _ = kl_check(c, code, tol)
            got = sigma_equals_lambda_check(c, code, 3, seed, tol)
            assert got == _sigma_reference(c, code, lam, 3, seed, tol)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_sigma_check_passes_on_every_accepted_near_code():
    # Table 1's first code perturbed by 1e-9 to 10^-7.5 and renormalised: each
    # entry of sigma - Lambda is tr(rho D) for one KL block deviation D, so it is
    # at most the residual, which an accepted code keeps within the threshold.
    # A fixed entrywise bound of 1e-8 refused some of these codes.
    e = np.eye(8)
    chan = pauli_channel([(1 / 3, "III"), (1 / 3, "XII"), (1 / 3, "IXI")])
    rng = np.random.default_rng(8)
    accepted = 0
    for _ in range(60):
        scale = 10.0 ** rng.uniform(-9, -7.5)
        basis = np.column_stack([e[0], e[7]]) + scale * (
            rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
        code = code_subspace(np.linalg.qr(basis)[0].T)
        try:
            kl_check(chan, code)
        except NotCorrectable:
            continue
        assert sigma_equals_lambda_check(chan, code, 20, seed=int(rng.integers(2 ** 31)))
        accepted += 1
    assert accepted >= 20


def _recovery_parts(c, code, tol):
    """(images, isometries) that build_recovery forms from the code's Lambda."""
    lam, _ = kl_check(c, code, tol)
    n, k, r = code.ambient_dim, code.k, lam.rank
    isometries = np.tensordot(lam.vectors[:, ::-1][:, :r].T, c.kraus @ code.basis, axes=1)
    isometries /= np.sqrt(lam.spectrum[::-1][:r])[:, None, None]
    return isometries.transpose(1, 0, 2).reshape(n, r * k), isometries


def _full_trace_residual(images, isometries, basis):
    """||sum_j R_j^dag R_j - I||_F of the recovery, formed in n x n."""
    n = images.shape[0]
    returns = basis @ np.conj(isometries).transpose(0, 2, 1)
    ops = [*returns, np.eye(n) - images @ dag(images)]
    return frobenius(sum(dag(r) @ r for r in ops) - np.eye(n))


def _recovery_cases():
    e = np.eye(8)
    chan = pauli_channel([(1 / 3, "III"), (1 / 3, "XII"), (1 / 3, "IXI")])
    dfs = code_subspace([(e[0] + e[4] + e[2] + e[6]) / 2, (e[3] + e[7] + e[1] + e[5]) / 2])
    # A basis about 1e-11 from orthonormal, which code_subspace accepts.
    rng = np.random.default_rng(2)
    skew = dfs.basis + 1e-11 * (rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
    cases = [(chan, dfs, DEFAULT_TOL), (chan, dfs, TINY_RANK),
             (chan, CodeSubspace(skew), DEFAULT_TOL),
             (chan, code_subspace([e[0], e[7]]), DEFAULT_TOL)]
    return cases + [case for case in _cases(13) if case[1].k > 1]


def test_recovery_trace_residual_matches_the_full_residual():
    built = 0
    for c, code, tol in _recovery_cases():
        try:
            rec = build_recovery(c, code, tol)
        except NotCorrectable:
            continue
        images, isometries = _recovery_parts(c, code, tol)
        new = code_module._recovery_trace_residual(images, code.basis)
        assert abs(new - _full_trace_residual(images, isometries, code.basis)) <= 1e-14
        # The returned recovery is built from the same images.
        assert abs(new - rec.channel._trace_residual) <= 1e-14
        built += 1
    assert built >= 10


def test_a_perturbed_recovery_is_refused_by_both_residuals():
    rng = np.random.default_rng(6)
    for c, code, tol in _recovery_cases()[:4]:
        images, isometries = _recovery_parts(c, code, tol)
        n = code.ambient_dim
        noise = rng.standard_normal(isometries.shape) + 1j * rng.standard_normal(isometries.shape)
        isometries = isometries + 1e-6 * noise
        images = isometries.transpose(1, 0, 2).reshape(n, -1)
        full = _full_trace_residual(images, isometries, code.basis)
        new = code_module._recovery_trace_residual(images, code.basis)
        assert full > tol.eps_kl * n and new > tol.eps_kl * n
        assert abs(new - full) <= 1e-9 * full


def test_build_recovery_refuses_what_the_full_residual_refuses():
    # Bases about 1e-11 from orthonormal under eps_kl = 5e-12: some pass the KL
    # check and then miss trace preservation by more than eps_kl * n.  On this
    # decoherence-free code the KL residual is the traceless part of B^dag B - I
    # and the recovery's trace residual about twice all of it, against bounds
    # eps_kl * 8/3 and eps_kl * 8: only a skew that stretches both basis vectors
    # alike can pass the one and fail the other.
    e = np.eye(8)
    chan = pauli_channel([(1 / 3, "III"), (1 / 3, "XII"), (1 / 3, "IXI")])
    base = np.column_stack([(e[0] + e[4] + e[2] + e[6]) / 2, (e[3] + e[7] + e[1] + e[5]) / 2])
    tol = ToleranceConfig(eps_kl=5e-12)
    verdicts = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        skew = (1 + 3e-11 * rng.uniform()) * base + 1e-12 * noise
        code = CodeSubspace(skew)
        try:
            images, isometries = _recovery_parts(chan, code, tol)
        except NotCorrectable:
            continue
        full = _full_trace_residual(images, isometries, skew)
        try:
            build_recovery(chan, code, tol)
            verdicts.append("ok")
            assert full <= tol.eps_kl * 8
        except NotTracePreserving as err:
            verdicts.append("NotTracePreserving")
            assert full > tol.eps_kl * 8
            assert abs(err.residual - full) <= 1e-14
    assert verdicts.count("NotTracePreserving") >= 5 and verdicts.count("ok") >= 2


def test_build_recovery_refuses_a_nan_verification_residual(monkeypatch):
    # A non-finite compression, past a trace check stubbed to pass, makes the
    # code-space residual itself nan, which must be refused, not maxed away.
    chan, code = _recovery_cases()[0][:2]
    analysed = code_module._analysed

    def spoiled(c, code, tol):
        compressed, *rest = analysed(c, code, tol)
        compressed = compressed.copy()
        compressed[0, 0, 0] = np.nan
        return compressed, *rest

    monkeypatch.setattr(code_module, "_analysed", spoiled)
    monkeypatch.setattr(code_module, "_recovery_trace_residual", lambda *args: 0.0)
    with pytest.raises(RecoveryVerificationError, match="nan"):
        build_recovery(chan, code)
