import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecentropy.binary_unitary import biunitary_code_entropy
from qecentropy.channel import apply_channel, channel, pauli_channel
from qecentropy.entropy import (
    _entropy_of_spectrum,
    check_lindblad_bounds,
    entropy_exchange,
    exchange_matrix,
    lindblad_omega,
    purification_exchange_entropy,
    von_neumann_entropy,
)
from qecentropy.numerics import ToleranceConfig
from qecentropy.sampling import haar_unitary, random_channel, random_density


def _is_plus_or_zero(s: float) -> bool:
    return s >= 0 and math.copysign(1.0, s) == 1.0


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-14
    assert abs(von_neumann_entropy(np.eye(8) / 8) - 3.0) < 1e-14
    assert abs(von_neumann_entropy(np.diag([0.25, 0.75])) -
               (-0.25 * np.log2(0.25) - 0.75 * np.log2(0.75))) < 1e-14


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       ulps=st.integers(0, 4), p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       modulus=st.one_of(st.just(1.0), st.floats(0.0, 1.0)), phase=st.floats(0.0, 2 * math.pi))
def test_entropies_are_never_negative_or_minus_zero(weights, ulps, p, modulus, phase):
    # A pure spectrum, its weight a few ulps above 1 as rounding leaves it.
    pure = np.zeros(len(weights))
    pure[0] = 1.0 + ulps * 2.0 ** -52
    for w in (np.array(weights), pure):
        assert _is_plus_or_zero(_entropy_of_spectrum(w))
    assert _is_plus_or_zero(von_neumann_entropy(np.diag(pure / pure[0])))
    assert _is_plus_or_zero(biunitary_code_entropy(p, modulus * complex(math.cos(phase), math.sin(phase))))


def test_von_neumann_entropy_rejects_negative_spectrum():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_exchange_entropy_zero_for_unitary_channel():
    rng = np.random.default_rng(0)
    c = channel([haar_unitary(3, rng)])
    _, s = entropy_exchange(c, random_density(3, rng))
    assert s < 1e-12


def test_exchange_matrix_depolarizing_style():
    c = pauli_channel([(0.5, "I"), (0.5, "X")])
    sigma = exchange_matrix(c, np.eye(2) / 2)
    assert np.allclose(sigma, np.diag([0.5, 0.5]), atol=1e-14)
    _, s = entropy_exchange(c, np.eye(2) / 2)
    assert abs(s - 1.0) < 1e-12


def test_purification_route_agrees_with_exchange():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        c = random_channel(n, m, rng)
        rho = random_density(n, rng)
        _, s_direct = entropy_exchange(c, rho)
        assert abs(s_direct - purification_exchange_entropy(c, rho)) < 1e-10


def test_lindblad_omega_marginals_and_entropy():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        c = random_channel(n, m, rng)
        rho = random_density(n, rng)
        omega = lindblad_omega(c, rho)
        sigma = exchange_matrix(c, rho)
        blocks = omega.reshape(n, m, n, m)  # [system, environment, system, environment]
        assert np.max(np.abs(np.einsum("aiaj->ij", blocks) - sigma)) < 1e-10
        assert np.max(np.abs(np.einsum("aibi->ab", blocks) - apply_channel(c, rho))) < 1e-10
        assert abs(von_neumann_entropy(omega) - von_neumann_entropy(rho)) < 1e-10


def test_lindblad_bounds_hold_and_tight_for_pure_input():
    rng = np.random.default_rng(3)
    c = random_channel(3, 4, rng)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, np.conj(psi))
    rep = check_lindblad_bounds(c, rho)
    assert rep.holds
    # Pure input: S(rho) = 0, so output and exchange entropies coincide.
    assert rep.S_rho < 1e-12
    assert abs(rep.S_rho_prime - rep.S_sigma) < 1e-10
    assert rep.to_json()["bounds_hold"] is True


def test_entropy_layer_under_a_tiny_rank_cutoff():
    # Rounding leaves the zero eigenvalues of a pure or low-rank state, and of
    # its exchange state, near -1e-16, which an eps_rank of 1e-300 must not
    # turn into a "negative eigenvalue" error.
    tiny = ToleranceConfig(eps_rank=1e-300)
    rng = np.random.default_rng(5)
    for case in range(60):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        c = random_channel(n, m, rng)
        if case % 2:
            rho = random_density(n, rng)
        else:
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, np.conj(psi))
        assert abs(von_neumann_entropy(rho, tiny) - von_neumann_entropy(rho)) <= 1e-12
        pure_tiny, pure = purification_exchange_entropy(c, rho, tiny), purification_exchange_entropy(c, rho)
        assert abs(pure_tiny - pure) <= 1e-12
        (sigma, s), (sigma_tiny, s_tiny) = entropy_exchange(c, rho), entropy_exchange(c, rho, tiny)
        assert np.array_equal(sigma, sigma_tiny) and abs(s - s_tiny) <= 1e-12
        assert np.max(np.abs(lindblad_omega(c, rho, tiny) - lindblad_omega(c, rho))) <= 1e-12
        rep, rep_tiny = check_lindblad_bounds(c, rho), check_lindblad_bounds(c, rho, tiny)
        assert rep_tiny.holds == rep.holds
        for name in ("S_rho", "S_rho_prime", "S_sigma"):
            assert abs(getattr(rep_tiny, name) - getattr(rep, name)) <= 1e-12


def test_an_overflowing_kraus_family_is_refused_by_every_route():
    # sigma = Tr(rho E^dag E) overflows to inf: its weight would give a silent
    # 0 bits, and omega's inf/nan entries fail the partial-trace checks.
    c, rho = channel([1e200 * np.eye(2)]), np.eye(2) / 2
    with np.errstate(all="ignore"):
        for route in (entropy_exchange, purification_exchange_entropy):
            with pytest.raises(ValueError, match="non-finite weight"):
                route(c, rho)
        with pytest.raises(ArithmeticError, match="partial trace"):
            lindblad_omega(c, rho)


def test_dimension_mismatch_raises():
    c = pauli_channel([(1.0, "I")])
    with pytest.raises(ValueError):
        exchange_matrix(c, np.eye(3) / 3)
    with pytest.raises(ValueError):
        lindblad_omega(c, np.eye(3) / 3)


def test_each_density_is_diagonalised_once(monkeypatch):
    # The positivity check's spectrum is the one the entropy reads, and across
    # the four routes on one (c, rho) each of rho, sigma and Phi(rho) is
    # diagonalised once: rho and sigma by eigh (their vectors feed the
    # purification and omega), Phi(rho) by the Lindblad check's eigvalsh.
    calls = []

    def counting(name):
        solve = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)

        return call

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    rng = np.random.default_rng(4)
    c, rho = random_channel(3, 2, rng), random_density(3, rng)
    assert von_neumann_entropy(np.eye(4) / 4) == 2.0 and calls == ["eigvalsh"]
    calls.clear()
    # In the kraus workload's order: rho and sigma in entropy_exchange, then
    # nothing new until Phi(rho) in check_lindblad_bounds.
    entropy_exchange(c, rho)
    assert calls == ["eigh", "eigh"]
    purification_exchange_entropy(c, rho)
    lindblad_omega(c, rho)
    assert calls == ["eigh", "eigh"]
    check_lindblad_bounds(c, rho)
    assert calls == ["eigh", "eigh", "eigvalsh"]
    # The purification route first, on a fresh (c, rho): rho alone; then
    # Phi(rho) and sigma in check_lindblad_bounds.
    calls.clear()
    c, rho = random_channel(3, 2, rng), random_density(3, rng)
    purification_exchange_entropy(c, rho)
    assert calls == ["eigh"]
    check_lindblad_bounds(c, rho)
    entropy_exchange(c, rho)
    lindblad_omega(c, rho)
    assert calls == ["eigh", "eigvalsh", "eigh"]
    with pytest.raises(ValueError, match="negative eigenvalue"):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_a_new_state_is_checked_as_a_matrix_once(monkeypatch):
    # _state_matrix checks rho's entries and shape; the density checks that
    # follow take that matrix as it is.
    import importlib

    channel_module = importlib.import_module("qecentropy.channel")
    rng = np.random.default_rng(5)
    c, rho = random_channel(3, 2, rng), random_density(3, rng)
    calls = []
    as_matrix = channel_module.as_matrix

    def counting(a):
        calls.append(np.shape(a))
        return as_matrix(a)

    monkeypatch.setattr(channel_module, "as_matrix", counting)
    s = entropy_exchange(c, rho)[1]
    assert calls == [(3, 3)]
    assert s == entropy_exchange(c, rho.copy())[1] and calls == [(3, 3), (3, 3)]
    with pytest.raises(ValueError, match="not Hermitian"):
        entropy_exchange(c, rho + np.triu(np.ones((3, 3)), 1))
