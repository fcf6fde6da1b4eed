"""Quantities computed once per channel (the trace residual, the Kraus Gram's
eigensolve) and once per (channel, state) (the entropy routes' shared state
analysis), checked against independent forms and for what the memos keep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecentropy import entropy
from qecentropy.channel import (
    _SYRK_MIN_DIM,
    apply_channel,
    canonical_kraus,
    channel,
    choi_gram,
    pauli_channel,
    remix_kraus,
    validate_channel,
)
from qecentropy.code import classify_code, code_subspace, kl_check, rank_bound_check
from qecentropy.entropy import (
    LINDBLAD_SLACK,
    _entropy_of_spectrum,
    _exchange,
    check_lindblad_bounds,
    entropy_exchange,
    exchange_matrix,
    lindblad_omega,
    purification_exchange_entropy,
)
from qecentropy.errors import NotTracePreserving
from qecentropy.numerics import DEFAULT_TOL, ToleranceConfig, dag, frobenius
from qecentropy.sampling import haar_unitary, random_channel, random_density

EPS = np.finfo(float).eps
KINDS = ("random", "channel", "pauli", "canonical", "remix")


def _stack(kind, n_or_qubits, m, rng):
    """A Kraus family of one kind: an unnormalised random stack, a random
    channel, a Pauli channel on n_or_qubits qubits, or a random channel's
    ``canonical_kraus`` or ``remix_kraus`` family."""
    if kind == "random":
        return channel(rng.standard_normal((m, n_or_qubits, n_or_qubits))
                       + 1j * rng.standard_normal((m, n_or_qubits, n_or_qubits)))
    if kind == "pauli":
        words = ["".join(rng.choice(list("IXYZ"), n_or_qubits)) for _ in range(m)]
        return pauli_channel(zip(rng.dirichlet(np.ones(m)), words))
    c = random_channel(n_or_qubits, m, rng)
    if kind == "canonical":
        return canonical_kraus(c)
    if kind == "remix":
        return remix_kraus(c, haar_unitary(m, rng))
    return c


def _reference_residual(c):
    """||sum_i E_i^dag E_i - I||_F by a loop over the operators."""
    total = np.zeros((c.dim, c.dim), dtype=complex)
    for e in c.kraus:
        total += dag(e) @ e
    return frobenius(total - np.eye(c.dim))


def _assert_residual_matches(c):
    bound = 64 * EPS * (1 + sum(frobenius(e) ** 2 for e in c.kraus))
    assert abs(c._trace_residual - _reference_residual(c)) <= bound


@pytest.mark.parametrize("kind", KINDS)
def test_trace_residual_matches_the_loop_on_seeded_stacks(kind):
    # Both forms: the complex product below _SYRK_MIN_DIM, the real symmetric one from it.
    rng = np.random.default_rng(17)
    sizes = [(1, 1), (2, 3), (3, 4), (5, 2), (8, 6), (16, 4), (32, 16), (63, 3), (64, 3), (96, 5), (128, 2)]
    if kind == "pauli":
        sizes = [(1, 2), (2, 4), (3, 7), (5, 11), (6, 7), (7, 15)]
    for size, m in sizes:
        _assert_residual_matches(_stack(kind, size, m, rng))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS),
       size=st.one_of(st.integers(1, 12), st.integers(_SYRK_MIN_DIM - 2, _SYRK_MIN_DIM + 6)),
       m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_trace_residual_matches_the_loop_property(kind, size, m, seed):
    if kind == "pauli":
        size = 1 + size % 7
    _assert_residual_matches(_stack(kind, size, m, np.random.default_rng(seed)))


@pytest.mark.parametrize("n, m", [(2, 1), (4, 3), (16, 5), (_SYRK_MIN_DIM - 1, 2), (_SYRK_MIN_DIM, 4), (128, 3)])
def test_trace_preservation_verdict_just_across_the_threshold(n, m):
    # sum_i E_i^dag E_i = (1 + t) I has residual |t| sqrt(n); scale a TP family
    # so that it lies 0.1 % either side of eps_kl * n.
    base = random_channel(n, m, np.random.default_rng(n + m))
    rho = random_density(n, np.random.default_rng(100 + n + m))
    limit = DEFAULT_TOL.eps_kl * n
    for sign in (-1, 1):
        for side in (0.999, 1.001):
            t = sign * side * limit / np.sqrt(n)
            c = channel(np.sqrt(1 + t) * base.kraus)
            assert (c._trace_residual <= limit) == (_reference_residual(c) <= limit) == (side < 1)
            if side < 1:
                validate_channel(c)
                # An accepted channel's output, of trace 1 + t, is not refused as a state.
                report = check_lindblad_bounds(c, rho)
                assert report.holds is True
                assert report.S_rho_prime == _entropy_of_spectrum(np.linalg.eigvalsh(apply_channel(c, rho)))
            else:
                with pytest.raises(NotTracePreserving):
                    validate_channel(c)
                with pytest.raises(NotTracePreserving):
                    check_lindblad_bounds(c, rho)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_lindblad_slack_covers_what_the_trace_verdict_admits(n):
    # E = diag(sqrt(1 + x)) with sum_i rho_ii x_i = 0: Phi(rho) keeps unit trace,
    # yet its entropy moves by -sum_i rho_ii x_i log2 rho_ii, past LINDBLAD_SLACK
    # (the dilation no longer keeps rho's purification).  At 0.999 of the trace
    # threshold the channel is accepted, and the bounds must hold.
    w = np.exp(-np.linspace(0, 4, n))
    w /= w.sum()
    x = w * np.log2(w)
    x -= (x @ w) / (w @ w) * w
    x *= -0.999 * DEFAULT_TOL.eps_kl * n / np.linalg.norm(x)
    c = channel([np.diag(np.sqrt(1 + x))])
    validate_channel(c)
    report = check_lindblad_bounds(c, np.diag(w))
    assert abs(np.trace(apply_channel(c, np.diag(w))) - 1) <= 1e-15
    assert report.S_rho_prime - report.S_sigma - report.S_rho > LINDBLAD_SLACK
    assert report.holds is True
    # Random families under a coarse eps_kl, where that shift dwarfs the
    # rounding: an accepted family's bounds hold, a refused one raises.
    rng = np.random.default_rng(n)
    tol = ToleranceConfig(eps_kl=1e-3)
    for _ in range(10):
        base = random_channel(n, int(rng.integers(1, 4)), rng)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + dag(h)) * (10 ** rng.uniform(-4, -1) / frobenius(h + dag(h)))
        c = channel(base.kraus @ dag(np.linalg.cholesky(np.eye(n) + h)))  # sum E^dag E = I + h
        rho = random_density(n, rng)
        if frobenius(h) <= tol.eps_kl * n:
            assert check_lindblad_bounds(c, rho, tol).holds is True
        else:
            with pytest.raises(NotTracePreserving):
                check_lindblad_bounds(c, rho, tol)


def test_one_gram_eigensolve_per_channel(monkeypatch):
    e = np.eye(8)
    chan = pauli_channel([(1 / 3, "III"), (1 / 3, "XII"), (1 / 3, "IXI")])
    code = code_subspace([e[0], e[7]])
    calls, solve = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        if a.shape == chan._kraus_gram.shape and np.array_equal(a, chan._kraus_gram):
            calls.append(a)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert choi_gram(chan).choi_rank == 3
    assert classify_code(chan, code).choi_rank == 3
    assert rank_bound_check(chan, code)
    assert canonical_kraus(chan).num_kraus == 3
    assert choi_gram(chan, ToleranceConfig(eps_rank=1e-300)).choi_rank == 3
    assert len(calls) == 1
    # Another channel object with the same operators solves its own Gram.
    choi_gram(channel(chan.kraus))
    assert len(calls) == 2


def test_gram_rank_follows_the_tolerances_of_each_call():
    # Gram weights 2(1 - 1e-12) and 2e-12: rank 1 at the default cutoff, 2 below it.
    eps = 1e-12
    chan = pauli_channel([(1 - eps, "I"), (eps, "X")])
    fine = ToleranceConfig(eps_rank=1e-13)
    assert [choi_gram(chan).choi_rank, choi_gram(chan, fine).choi_rank, choi_gram(chan).choi_rank] == [1, 2, 1]
    assert canonical_kraus(chan).num_kraus == 1
    assert canonical_kraus(chan, fine).num_kraus == 2
    w, v = chan._gram_eigen
    for array in (w, v):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0



def _assert_ascending_eigenpairs(a, w, v):
    assert np.all(np.diff(w) >= 0)
    for j in range(len(w)):
        assert np.allclose(a @ v[:, j], w[j] * v[:, j], rtol=0, atol=1e-12), j


def test_each_spectrum_pairs_with_its_vectors_in_ascending_order():
    # Lambda, the Kraus Gram matrix and sigma, each from one eigh, keep its order.
    rng = np.random.default_rng(12)
    e = np.eye(8)
    table1 = pauli_channel([(0.5, "III"), (0.3, "XII"), (0.2, "IXI")])
    chan = remix_kraus(table1, haar_unitary(3, rng))
    lam, _ = kl_check(chan, code_subspace([e[0], e[7]]))
    _assert_ascending_eigenpairs(lam.matrix, lam.spectrum, lam.vectors)
    for c in (chan, random_channel(6, 4, rng)):
        _assert_ascending_eigenpairs(c._kraus_gram, *c._gram_eigen)
        state = entropy._state(c, random_density(c.dim, rng), DEFAULT_TOL)
        _assert_ascending_eigenpairs(*state.exchange)


def _four_routes(c, rho):
    sigma, s_exchange = entropy_exchange(c, rho)
    s_pure = purification_exchange_entropy(c, rho)
    omega = lindblad_omega(c, rho)
    report = check_lindblad_bounds(c, rho)
    return [sigma.tobytes(), s_exchange.hex(), s_pure.hex(), omega.tobytes(),
            report.S_rho.hex(), report.S_rho_prime.hex(), report.S_sigma.hex(), report.holds]


def _cold(c, rho):
    out = []
    for route in (lambda: entropy_exchange(c, rho), lambda: purification_exchange_entropy(c, rho),
                  lambda: lindblad_omega(c, rho), lambda: check_lindblad_bounds(c, rho)):
        entropy._state_memo.last = None
        out.append(route())
    (sigma, s_exchange), s_pure, omega, report = out
    return [sigma.tobytes(), s_exchange.hex(), s_pure.hex(), omega.tobytes(),
            report.S_rho.hex(), report.S_rho_prime.hex(), report.S_sigma.hex(), report.holds]


@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (8, 4), (12, 8), (16, 16), (32, 4)])
def test_warm_state_analysis_equals_cold(n, m):
    rng = np.random.default_rng(100 * n + m)
    c, rho = random_channel(n, m, rng), random_density(n, rng)
    cold = _cold(c, rho)
    entropy._state_memo.last = None
    assert _four_routes(c, rho) == cold
    # The purification route first, then the rest.
    entropy._state_memo.last = None
    purification_exchange_entropy(c, rho)
    assert _four_routes(c, rho) == cold
    # A pure state and a unitary channel (Lindblad equalities).
    psi = haar_unitary(n, rng)[:, :1]
    pure, unitary = psi @ dag(psi), channel([haar_unitary(n, rng)])
    for case in ((c, pure), (unitary, rho), (unitary, pure)):
        cold = _cold(*case)
        entropy._state_memo.last = None
        assert _four_routes(*case) == cold


def test_state_memo_misses_on_a_changed_state_channel_or_tolerances():
    rng = np.random.default_rng(9)
    c, rho, other = random_channel(4, 3, rng), random_density(4, rng), random_density(4, rng)
    state = entropy._state(c, rho, DEFAULT_TOL)
    assert entropy._state(c, rho.copy(), DEFAULT_TOL) is state
    # rho changed in place: a new analysis, equal to a cold one on the new bytes.
    kept = rho.copy()
    rho[:] = other
    s_new = entropy_exchange(c, rho)[1]
    assert entropy._state(c, rho, DEFAULT_TOL) is not state
    assert np.array_equal(state.rho, kept)
    entropy._state_memo.last = None
    assert entropy_exchange(c, other)[1].hex() == s_new.hex()
    # Another channel object with the same operators, and other tolerances.
    state = entropy._state(c, rho, DEFAULT_TOL)
    assert entropy._state(channel(c.kraus), rho, DEFAULT_TOL) is not state
    state = entropy._state(c, rho, DEFAULT_TOL)
    assert entropy._state(c, rho, ToleranceConfig(eps_rank=1e-12)) is not state
    # A state accepted under a loose PSD floor is refused again under the
    # default one, and a refused state is not stored.
    near = np.diag([1 + 1e-7, -1e-7])
    loose = ToleranceConfig(eps_rank=1e-6)
    binary = pauli_channel([(0.5, "I"), (0.5, "X")])
    entropy_exchange(binary, near, loose)
    kept = entropy._state_memo.last
    with pytest.raises(ValueError, match="negative eigenvalue"):
        entropy_exchange(binary, near)
    assert entropy._state_memo.last is kept


def test_state_memo_shares_read_only_arrays_and_leaves_the_caller_s_own():
    rng = np.random.default_rng(10)
    c, rho = random_channel(4, 3, rng), random_density(4, rng)
    sigma, _ = entropy_exchange(c, rho)
    omega = lindblad_omega(c, rho)
    check_lindblad_bounds(c, rho)
    state = entropy._state(c, rho, DEFAULT_TOL)
    assert entropy_exchange(c, rho)[0] is sigma is state.exchange[0]
    for array in (sigma, state.rho, state.w, state.v, *state.exchange[1:], state.output):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    rho[0, 0] = rho[0, 0]
    omega[0, 0] = omega[0, 0]


def test_purification_route_never_forms_the_exchange_state(monkeypatch):
    rng = np.random.default_rng(11)
    c, rho = random_channel(5, 3, rng), random_density(5, rng)
    expected = entropy_exchange(c, rho)[1]
    entropy._state_memo.last = None

    def refuse(*args):
        raise AssertionError("the purification route formed sigma")

    monkeypatch.setattr(entropy, "_exchange", refuse)
    assert abs(purification_exchange_entropy(c, rho) - expected) <= 1e-12


def _error_text(fn, *args):
    with pytest.raises(ValueError) as err:
        fn(*args)
    return str(err.value)


def test_entropy_exchange_validates_the_state_as_the_purification_route_does():
    c = pauli_channel([(0.5, "I"), (0.5, "X")])
    for bad in (np.eye(2), np.diag([1.5, -0.5]), np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(3) / 3):
        text = _error_text(purification_exchange_entropy, c, bad)
        assert _error_text(entropy_exchange, c, bad) == text
        assert _error_text(check_lindblad_bounds, c, bad) == text
        assert _error_text(lindblad_omega, c, bad) == text
    assert "trace" in _error_text(entropy_exchange, c, np.eye(2))
    assert "negative eigenvalue" in _error_text(entropy_exchange, c, np.diag([1.5, -0.5]))
    # exchange_matrix stays the raw linear map: any matrix of the right shape.
    assert np.allclose(exchange_matrix(c, np.eye(2)), np.eye(2))
    unit = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(exchange_matrix(c, unit), _exchange(c.kraus, unit.astype(complex)))


def test_lindblad_bounds_refuse_a_kraus_family_that_is_not_trace_preserving():
    # rho = I/2 is a valid state; {I/2} is no channel, and its output has trace 1/4.
    c, rho = channel([0.5 * np.eye(2)]), np.eye(2) / 2
    with pytest.raises(NotTracePreserving):
        check_lindblad_bounds(c, rho)
    # The other three routes take any Kraus family: sigma = (1/4), of entropy 1/2.
    assert entropy_exchange(c, rho)[1] == pytest.approx(0.5)
    assert purification_exchange_entropy(c, rho) == pytest.approx(0.5)
    assert np.allclose(lindblad_omega(c, rho), rho / 4)
