"""Quantum channels in Kraus form and their Choi-Gram structure."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import serialization
from .errors import NotTracePreserving
from .numerics import (DEFAULT_TOL, ToleranceConfig, _frozen, _isometry_residual, _iterate, _psd_rank,
                       _require_unitary, as_matrix, dag, frobenius)

# Hermiticity of a density matrix is checked relative to its Frobenius norm
# (at least 1), at the resolution of a few rounding errors per entry.
DENSITY_HERMITIAN_RTOL = 1e-10
# A density matrix built in double precision has unit trace to ~1e-15; 1e-12
# leaves room for sums over a few hundred entries.
DENSITY_TRACE_ATOL = 1e-12
# Pauli weights in double precision sum to one up to a few rounding errors.
PAULI_WEIGHT_SUM_ATOL = 1e-12
# From this channel dimension the trace residual takes one real symmetric product (half the
# flops); below it the complex product, whose kernel the rest of a request keeps warm, is faster.
_SYRK_MIN_DIM = 64

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclasses.dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A completely positive map given by m square Kraus operators of size n.

    ``kraus`` is one complex array of shape (m, n, n), n >= 1 and m >= 0, or
    ValueError; the channel makes it read-only, without a copy, so its checked
    shape and cached properties hold.  Channels compare and hash by identity.
    """

    kraus: np.ndarray

    def __post_init__(self):
        k = self.kraus
        if not (isinstance(k, np.ndarray) and k.dtype == complex and k.ndim == 3
                and k.shape[1] == k.shape[2] >= 1):
            got = f"{k.dtype} array of shape {k.shape}" if isinstance(k, np.ndarray) else type(k).__name__
            raise ValueError(f"Kraus operators must form one complex (m, n, n) array, n >= 1; got {got}")
        _frozen(k)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def num_kraus(self) -> int:
        return len(self.kraus)

    @functools.cached_property
    def _trace_residual(self) -> float:
        """||sum_i E_i^dag E_i - I||_F, formed once per channel (``kraus`` is read-only)."""
        rows = self.kraus.reshape(-1, self.dim)
        if self.dim < _SYRK_MIN_DIM:
            return _isometry_residual(rows)
        # The stacked operators A = X + iY have the real view V = [x_1 y_1 x_2 y_2 ...]:
        # V^T V (syrk) has 2x2 blocks [[X^T X, X^T Y], [Y^T X, Y^T Y]].
        v = rows.view(float)
        g = (v.T @ v).reshape(self.dim, 2, self.dim, 2)
        re, im = g[:, 0, :, 0] + g[:, 1, :, 1], g[:, 0, :, 1] - g[:, 1, :, 0]
        re.reshape(-1)[:: self.dim + 1] -= 1.0
        return float(np.sqrt(np.vdot(re, re) + np.vdot(im, im)))

    @functools.cached_property
    def _kraus_gram(self) -> np.ndarray:
        """Hermitian Gram matrix (Tr E_i^dag E_j), formed once per channel, as
        ``kraus`` is read-only; the returned array is read-only too."""
        flat = self.kraus.reshape(self.num_kraus, -1)
        g = np.conj(flat) @ flat.T
        return _frozen((g + dag(g)) / 2)

    @functools.cached_property
    def _gram_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending ``eigh`` of ``_kraus_gram``, once per channel; read-only."""
        return tuple(map(_frozen, np.linalg.eigh(self._kraus_gram)))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "kraus": [serialization.matrix_to_json(e) for e in self.kraus],
        }


@dataclasses.dataclass(frozen=True, eq=False)
class ChoiGram:
    """Gram matrix (Tr E_i^dag E_j) of a Kraus family, and the channel's one
    solve of it: ``weights`` ascending, clipped at 0, and the Choi rank."""

    matrix: np.ndarray
    weights: np.ndarray
    choi_rank: int


def channel(kraus_ops) -> QuantumChannel:
    """Build a channel from an iterable of finite matrices, at least one, square and of one shape."""
    ops = [as_matrix(e) for e in _iterate(kraus_ops, "Kraus operators")]
    if len({e.shape for e in ops}) > 1:
        raise ValueError(f"all Kraus operators must have one shape, got {[e.shape for e in ops]}")
    return QuantumChannel(np.array(ops))


def channel_from_json(obj) -> QuantumChannel:
    dim, kraus = serialization._record_from_json(obj, "channel", "kraus", "matrices")
    c = channel(serialization.matrix_from_json(m) for m in kraus)
    if c.dim != dim:
        raise ValueError(f"declared dim {dim} does not match Kraus operators ({c.dim})")
    return c


def _require_trace_preserving(residual: float, n: int, tol: ToleranceConfig) -> None:
    """The one trace-preservation verdict, on ||sum_i E_i^dag E_i - I||_F of n x n operators."""
    if not residual <= tol.eps_kl * n:
        raise NotTracePreserving(residual)


def validate_channel(c: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Check trace preservation; raises NotTracePreserving on failure."""
    _require_trace_preserving(c._trace_residual, c.dim, tol)


def _density_spectrum(rho: np.ndarray, tol: ToleranceConfig, vectors: bool = False):
    """Check that rho, a finite square matrix (``as_matrix``, checked square), is
    a density matrix: Hermitian, of unit trace and, by ``_psd_rank`` where it is
    solved, PSD; returns its ascending eigenvalues, their eigenvectors if
    ``vectors`` (else None) and its rank."""
    herm = float(np.max(np.abs(rho - dag(rho))))
    if herm > DENSITY_HERMITIAN_RTOL * max(1.0, frobenius(rho)):
        raise ValueError(f"density matrix is not Hermitian (asymmetry {herm:.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
        raise ValueError(f"density matrix trace is {tr}, expected 1")
    w, v = np.linalg.eigh(rho) if vectors else (np.linalg.eigvalsh(rho), None)
    return w, v, _psd_rank(w, tol, "density matrix")


def choi_gram(c: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> ChoiGram:
    """Gram matrix of the Kraus family, and its eigensolve, both formed once per channel
    and shared (read-only); the Choi rank and the PSD check follow each call's ``tol``."""
    w = c._gram_eigen[0]
    return ChoiGram(c._kraus_gram, np.clip(w, 0.0, None), _psd_rank(w, tol, "Kraus Gram matrix"))


def canonical_kraus(c: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
    """Remix the Kraus family into mutually orthogonal operators.

    The output implements the same map with exactly ``choi_rank`` nonzero
    operators, largest Gram weight first; operators with Gram weight at the
    rank cutoff are dropped.
    """
    w, vecs = c._gram_eigen
    rank = _psd_rank(w, tol, "Kraus Gram matrix")
    return QuantumChannel(np.tensordot(vecs[:, ::-1][:, :rank].T, c.kraus, axes=1))


def _state_matrix(c: QuantumChannel, rho) -> np.ndarray:
    """``rho`` as a matrix (``as_matrix``), checked n x n for the channel's n."""
    rho = as_matrix(rho)
    if rho.shape != (c.dim, c.dim):
        raise ValueError(f"state shape {rho.shape} does not match channel dim {c.dim}")
    return rho


def apply_channel(c: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    rho = _state_matrix(c, rho)
    # No Hermitization: the map must stay linear on arbitrary (e.g. matrix
    # unit) inputs for process-identity checks.
    return (c.kraus @ rho @ np.conj(c.kraus).transpose(0, 2, 1)).sum(axis=0)


def remix_kraus(c: QuantumChannel, v, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
    """New Kraus family E'_i = sum_j v_ij E_j; implements the same map."""
    v = as_matrix(v)
    m = c.num_kraus
    if v.shape != (m, m):
        raise ValueError(f"remix matrix must be {m}x{m}, got {v.shape}")
    _require_unitary(v, tol, "remix matrix")
    return QuantumChannel(np.tensordot(v, c.kraus, axes=1))


def pauli_word(word: str) -> np.ndarray:
    """Tensor product of single-qubit Pauli operators, e.g. ``'XIZ'``."""
    if not word or any(ch not in _PAULI for ch in word):
        raise ValueError(f"invalid Pauli word {word!r}")
    op = _PAULI[word[0]]
    for ch in word[1:]:
        op = np.kron(op, _PAULI[ch])
    return op


def pauli_channel(terms) -> QuantumChannel:
    """Channel from (weight, pauli-word) pairs; weights must sum to one."""
    terms = list(terms)
    if not terms:
        raise ValueError("pauli_channel requires at least one term")
    weights = [float(w) for w, _ in terms]
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if abs(sum(weights) - 1.0) > PAULI_WEIGHT_SUM_ATOL:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    nq = len(terms[0][1])
    if any(len(word) != nq for _, word in terms):
        raise ValueError("all Pauli words must have equal length")
    return channel([np.sqrt(w) * pauli_word(word) for w, word in terms])
