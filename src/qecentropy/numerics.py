"""Dense complex linear algebra: eigendecompositions, numerical rank, tolerances.

Everything here works on plain ``numpy`` complex arrays at desk scale
(dimensions up to a few hundred).  All functions are pure, except that
``unitary_eigen`` keeps the most recent unitary's decomposition in a
``_LastCall`` memo and hands the same read-only arrays to every caller that
asks again.
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
        # The rank cutoff eps_rank * max(1, largest) would reach the largest
        # eigenvalue and make every rank 0.
        if self.eps_rank >= 1:
            raise ValueError(f"eps_rank must be below 1, got {self.eps_rank!r}")


DEFAULT_TOL = ToleranceConfig()


@dataclasses.dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues, orthonormal eigenvectors (as columns) and degeneracy clusters.

    ``cluster_map`` groups indices whose eigenvalues coincide within the
    clustering threshold (transitive closure of pairwise closeness).
    Decompositions compare and hash by identity.
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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _require_square(a: np.ndarray):
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")


def _chain_clusters(values: np.ndarray, threshold: float) -> tuple[tuple[int, ...], ...]:
    """Group indices whose values are chained within ``threshold`` of each other.

    ``values`` must be ascending reals or unimodular values in cyclic phase
    order.  Only neighbours, and the last and first values, are compared: two
    values within the threshold have every value between them (along the
    shorter arc, for phases) within it too, since chord length grows with
    arc length.  So each group is a contiguous run, or, for phases, one run
    that wraps from the end to the start.
    """
    z = values.tolist()
    if not z:
        return ()
    breaks = [i for i in range(1, len(z)) if abs(z[i] - z[i - 1]) > threshold]
    bounds = [0, *breaks, len(z)]
    groups = [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    if breaks and abs(z[-1] - z[0]) <= threshold:
        groups[0] = groups[0] + groups.pop()
    return tuple(groups)


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
    clusters = _chain_clusters(w, tol.eps_eig * a.shape[0])
    return EigenDecomposition(w, v, clusters)


def _unitarity_residual(u: np.ndarray) -> float:
    """||U^dag U - I||_F of a square matrix; U is unitary when this is at
    most eps_eig * N."""
    return frobenius(dag(u) @ u - np.eye(u.shape[0]))


def is_unitary(u: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    u = as_matrix(u)
    return u.shape[0] == u.shape[1] and _unitarity_residual(u) <= tol.eps_eig * u.shape[0]


class _LastCall:
    """One-entry memo: ``memo(key, build, *args)`` returns ``build(*args)``,
    building again only when ``key != `` the key of the result it keeps.

    Every memo in the package follows this rule.  The entry is the last result
    only, replaced by one assignment, so concurrent callers at worst compute
    the same thing twice.  Owners (channels, decompositions) sit in the key by
    identity, as they compare by identity; arrays by shape and bytes, since a
    caller may change them in place; and the tolerances, so a hit reuses only
    verdicts reached under equal ones.  A build that raises is not stored, so
    a refused input is checked again.  A hit hands the same objects to every
    caller, so their arrays are read-only.  Callers name ``build`` at each
    call, so a builder replaced in its module is the one that runs.
    """

    last: tuple | None = None  # (key, result)

    def __call__(self, key, build, *args):
        last = self.last
        if last is None or last[0] != key:
            last = self.last = (key, build(*args))
        return last[1]


_eigen_memo = _LastCall()


def unitary_eigen(u, tol: ToleranceConfig = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix, eigenvalues sorted by phase in [0, 2pi).

    Diagonalises the Hermitian part, then splits each of its degenerate
    clusters with the compressed anti-Hermitian part.  The two commute for
    a normal matrix, so this produces a joint orthonormal eigenbasis
    without a general complex Schur decomposition.

    The most recent result is remembered: a later call with a matrix of the
    same shape and bytes, under equal tolerances, returns the same object
    without decomposing or checking it again.  Its ``eigenvalues`` and
    ``eigenvectors`` are read-only; copy them before writing.
    """
    u = as_matrix(u)
    return _eigen_memo((u.shape, u.tobytes(), tol), _decompose_unitary, u, tol)


def _decompose_unitary(u: np.ndarray, tol: ToleranceConfig) -> EigenDecomposition:
    """``unitary_eigen``'s work on a matrix not in its memo: the unitarity
    check, then the decomposition."""
    _require_square(u)
    n = u.shape[0]
    resid = _unitarity_residual(u)
    if not resid <= tol.eps_eig * n:
        raise ValueError(f"matrix is not unitary (||U^dag U - I||_F = {resid:.3e})")

    h = (u + dag(u)) / 2
    k = (u - dag(u)) / (2j)
    w, v = np.linalg.eigh(h)
    for cluster in _chain_clusters(w, tol.eps_eig * n):
        if len(cluster) > 1:
            idx = list(cluster)
            block = dag(v[:, idx]) @ k @ v[:, idx]
            _, rot = np.linalg.eigh((block + dag(block)) / 2)
            v[:, idx] = v[:, idx] @ rot

    # Rayleigh quotients recover the unimodular eigenvalues in the joint basis.
    eigs = np.sum(np.conj(v) * (u @ v), axis=0)
    phases = np.mod(np.angle(eigs), 2 * np.pi)
    phases[phases > 2 * np.pi - tol.eps_eig * n] -= 2 * np.pi
    order = np.argsort(phases, kind="stable")
    eigs, v = eigs[order], v[:, order]
    clusters = _chain_clusters(eigs, tol.eps_eig * n)
    return EigenDecomposition(_frozen(eigs), _frozen(v), clusters)


def _psd_floor(largest: float, tol: ToleranceConfig) -> float:
    """How far below 0 a PSD matrix's eigenvalues may round: the rank cutoff, with
    eps_rank at least the default, as zeros round to about -1e-16 at any cutoff."""
    return max(tol.eps_rank, DEFAULT_TOL.eps_rank) * max(1.0, largest)


def _descending_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and eigenvectors (columns) of a Hermitian matrix, whose
    lower triangle ``eigh`` reads; ties keep ``np.argsort(w)[::-1]`` order."""
    w, v = np.linalg.eigh(as_matrix(a))
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def _psd_rank(w: np.ndarray, tol: ToleranceConfig) -> int:
    """Rank of a PSD matrix from its descending eigenvalues: the count above
    ``eps_rank * max(1, largest)``; ValueError below ``-_psd_floor``."""
    if float(w[-1]) < -_psd_floor(float(w[0]), tol):
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w[-1]:.3e})")
    return int(np.count_nonzero(w > tol.eps_rank * max(1.0, float(w[0]))))
