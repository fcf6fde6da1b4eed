import numpy as np
import pytest

from qecentropy.numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    dag,
    hermitian_eigen,
    is_unitary,
    psd_eigen,
    unitary_eigen,
)


def test_tolerance_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        ToleranceConfig(eps_rank=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(eps_kl=-1e-8)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_tolerance_config_rejects_non_finite(value):
    for name in ("eps_rank", "eps_kl", "eps_geom", "eps_eig"):
        with pytest.raises(ValueError, match="finite positive"):
            ToleranceConfig(**{name: value})


def test_hermitian_eigen_known_spectrum():
    # This matrix shows up as a correction matrix later; spectrum {0, 1/3, 2/3}.
    a = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=complex) / 3
    dec = hermitian_eigen(a)
    assert np.allclose(dec.eigenvalues, [0.0, 1 / 3, 2 / 3], atol=1e-14)
    # Reconstruction and orthonormality.
    v = dec.eigenvectors
    assert np.allclose(v @ np.diag(dec.eigenvalues) @ dag(v), a, atol=1e-14)
    assert np.allclose(dag(v) @ v, np.eye(3), atol=1e-14)


def test_hermitian_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigen_clusters_degenerate():
    dec = hermitian_eigen(np.diag([1.0, 1.0, 2.0]))
    assert dec.cluster_map == ((0, 1), (2,))


def test_unitary_eigen_reconstructs_and_sorts_by_phase():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        dec = unitary_eigen(u)
        v, eig = dec.eigenvectors, dec.eigenvalues
        assert np.allclose(v @ np.diag(eig) @ dag(v), u, atol=1e-12)
        assert np.allclose(np.abs(eig), 1.0, atol=1e-12)
        assert np.allclose(dag(v) @ v, np.eye(n), atol=1e-12)
        phases = np.mod(np.angle(eig), 2 * np.pi)
        assert np.all(np.diff(phases) >= -1e-12)


def test_unitary_eigen_degenerate_clusters():
    u = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)  # Z (x) Z
    dec = unitary_eigen(u)
    sizes = sorted(len(c) for c in dec.cluster_map)
    assert sizes == [2, 2]
    assert np.allclose(sorted(dec.eigenvalues.real), [-1, -1, 1, 1], atol=1e-12)


def test_unitary_eigen_rejects_nonunitary():
    with pytest.raises(ValueError, match="not unitary"):
        unitary_eigen(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_is_unitary():
    assert is_unitary(np.eye(3))
    assert not is_unitary(2 * np.eye(3))
    assert not is_unitary(np.ones((2, 3)))


def test_psd_eigen_rank_and_invariance():
    a = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=complex) / 3
    w, v, rank = psd_eigen(a)
    assert rank == 2
    assert np.all(np.diff(w) <= 0)
    assert np.allclose((v * w) @ dag(v), a, atol=1e-12)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    assert psd_eigen(q @ a @ dag(q))[2] == 2


def test_psd_eigen_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        psd_eigen(np.diag([1.0, -0.5]))


def test_default_tolerances():
    assert DEFAULT_TOL.eps_rank == 1e-9
    assert DEFAULT_TOL.eps_kl == 1e-8
    assert DEFAULT_TOL.eps_geom == 1e-10
    assert DEFAULT_TOL.eps_eig == 1e-10
