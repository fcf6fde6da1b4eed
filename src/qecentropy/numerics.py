"""Dense complex linear algebra: eigendecompositions, numerical rank, tolerances.

Everything here works on plain ``numpy`` complex arrays at desk scale
(dimensions up to a few hundred).  All functions are pure.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used throughout the package.

    eps_rank  -- relative cutoff for counting nonzero eigenvalues
    eps_kl    -- acceptance threshold for compression-condition residuals
    eps_geom  -- snapping resolution for plane geometry
    eps_eig   -- eigensolver validation and degeneracy-clustering threshold
    """

    eps_rank: float = 1e-9
    eps_kl: float = 1e-8
    eps_geom: float = 1e-10
    eps_eig: float = 1e-10

    def __post_init__(self):
        for name in ("eps_rank", "eps_kl", "eps_geom", "eps_eig"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")


DEFAULT_TOL = ToleranceConfig()


@dataclasses.dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues, orthonormal eigenvectors (as columns) and degeneracy clusters.

    ``cluster_map`` groups indices whose eigenvalues coincide within the
    clustering threshold (transitive closure of pairwise closeness).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cluster_map: tuple[tuple[int, ...], ...]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(a).T


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _require_square(a: np.ndarray):
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")


def _chain_clusters(values: np.ndarray, threshold: float) -> tuple[tuple[int, ...], ...]:
    """Group indices whose values are chained within ``threshold`` of each other."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= threshold:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0]))


def hermitian_eigen(a, tol: ToleranceConfig = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises ValueError when the input is not Hermitian within ``eps_eig``
    (relative to the Frobenius norm), reporting the largest asymmetry.
    """
    a = as_matrix(a)
    _require_square(a)
    asym = a - dag(a)
    max_asym = float(np.max(np.abs(asym))) if a.size else 0.0
    scale = max(1.0, frobenius(a))
    if max_asym > tol.eps_eig * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {max_asym:.3e}")
    w, v = np.linalg.eigh((a + dag(a)) / 2)
    clusters = _chain_clusters(w.astype(complex), tol.eps_eig * a.shape[0])
    return EigenDecomposition(w, v, clusters)


def is_unitary(u: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    n = u.shape[0]
    return frobenius(dag(u) @ u - np.eye(n)) <= tol.eps_eig * n


def unitary_eigen(u, tol: ToleranceConfig = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix, eigenvalues sorted by phase in [0, 2pi).

    Diagonalises the Hermitian part, then splits each of its degenerate
    clusters with the compressed anti-Hermitian part.  The two commute for
    a normal matrix, so this produces a joint orthonormal eigenbasis
    without a general complex Schur decomposition.
    """
    u = as_matrix(u)
    _require_square(u)
    n = u.shape[0]
    if not is_unitary(u, tol):
        resid = frobenius(dag(u) @ u - np.eye(n))
        raise ValueError(f"matrix is not unitary (||U^dag U - I||_F = {resid:.3e})")

    h = (u + dag(u)) / 2
    k = (u - dag(u)) / (2j)
    w, v = np.linalg.eigh(h)
    for cluster in _chain_clusters(w.astype(complex), tol.eps_eig * n):
        if len(cluster) > 1:
            idx = list(cluster)
            block = dag(v[:, idx]) @ k @ v[:, idx]
            _, rot = np.linalg.eigh((block + dag(block)) / 2)
            v[:, idx] = v[:, idx] @ rot

    # Rayleigh quotients recover the unimodular eigenvalues in the joint basis.
    eigs = np.einsum("ij,ik,kj->j", np.conj(v), u, v)
    phases = np.mod(np.angle(eigs), 2 * np.pi)
    phases[phases > 2 * np.pi - tol.eps_eig * n] -= 2 * np.pi
    order = np.argsort(phases, kind="stable")
    eigs, v = eigs[order], v[:, order]
    clusters = _chain_clusters(eigs, tol.eps_eig * n)
    return EigenDecomposition(eigs, v, clusters)


def psd_eigen(a, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, int]:
    """Descending eigenvalues, their eigenvectors (columns) and the rank of a
    PSD Hermitian matrix: the count above ``eps_rank * max(1, largest)``.
    Ties keep ``np.argsort(w)[::-1]`` order; ValueError below minus the cutoff."""
    a = as_matrix(a)
    _require_square(a)
    w, v = np.linalg.eigh((a + dag(a)) / 2)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    cutoff = tol.eps_rank * max(1.0, float(w[0]))
    # Rounding leaves the zero eigenvalues of a PSD matrix slightly negative,
    # so an eps_rank below the default does not tighten this check.
    if float(w[-1]) < -max(cutoff, DEFAULT_TOL.eps_rank * max(1.0, float(w[0]))):
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w[-1]:.3e})")
    return w, v, int(np.count_nonzero(w > cutoff))
