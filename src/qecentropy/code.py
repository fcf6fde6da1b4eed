"""Code subspaces: compression-condition verification, code entropy,
classification, and recovery construction."""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from . import serialization
from .channel import QuantumChannel, channel, choi_gram, validate_channel
from .entropy import _entropy_of_spectrum, exchange_matrix
from .errors import NotCorrectable, RecoveryVerificationError
from .numerics import DEFAULT_TOL, ToleranceConfig, as_matrix, dag, frobenius, numerical_rank
from .sampling import random_density

# Entrywise tolerance between the exchange matrix of a code state and Lambda.
# Both are O(1) matrices formed by different products of the Kraus operators,
# and a code is accepted with a KL residual up to eps_kl (1e-8 by default), so
# the two may differ by that much on an accepted code.
SIGMA_LAMBDA_ATOL = 1e-8


@dataclasses.dataclass(frozen=True)
class CodeSubspace:
    """A k-dimensional subspace given by an orthonormal basis (columns)."""

    ambient_dim: int
    basis: np.ndarray

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ dag(self.basis)

    def to_json(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "basis": [serialization.vector_to_json(self.basis[:, i]) for i in range(self.k)],
        }


@dataclasses.dataclass(frozen=True)
class ErrorCorrectionMatrix:
    """The positive unit-trace matrix of compression coefficients, with spectrum."""

    matrix: np.ndarray
    spectrum: np.ndarray


class CodeClass(str, enum.Enum):
    UNITARILY_CORRECTABLE = "UnitarilyCorrectable"
    DECOHERENCE_FREE = "DecoherenceFree"
    NON_DEGENERATE = "NonDegenerate"
    PARTIALLY_DEGENERATE = "PartiallyDegenerate"


@dataclasses.dataclass(frozen=True)
class CodeReport:
    lam: ErrorCorrectionMatrix
    entropy_bits: float
    lambda_rank: int
    choi_rank: int
    classification: CodeClass
    unitarily_correctable: bool
    decoherence_free: bool
    max_kl_residual: float

    def to_json(self) -> dict:
        return {
            "lambda": serialization.matrix_to_json(self.lam.matrix),
            "lambda_spectrum": [float(x) for x in self.lam.spectrum],
            "entropy_bits": self.entropy_bits,
            "lambda_rank": self.lambda_rank,
            "choi_rank": self.choi_rank,
            "classification": self.classification.value,
            "unitarily_correctable": self.unitarily_correctable,
            "decoherence_free": self.decoherence_free,
            "max_kl_residual": self.max_kl_residual,
        }


@dataclasses.dataclass(frozen=True)
class RecoveryOperation:
    """A trace-preserving map undoing the channel on a code subspace."""

    channel: QuantumChannel
    residual: float


def code_subspace(vectors, tol: ToleranceConfig = DEFAULT_TOL) -> CodeSubspace:
    """Build a code from basis vectors; they must already be orthonormal."""
    basis = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    n, k = basis.shape
    if k > n:
        raise ValueError(f"code dimension {k} exceeds ambient dimension {n}")
    gram = dag(basis) @ basis
    if frobenius(gram - np.eye(k)) > tol.eps_eig * max(1, n):
        raise ValueError("code basis is not orthonormal")
    return CodeSubspace(n, basis)


def span_code(vectors, tol: ToleranceConfig = DEFAULT_TOL) -> CodeSubspace:
    """Build a code from a spanning set, orthonormalizing it first."""
    raw = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    q, r = np.linalg.qr(raw)
    if np.min(np.abs(np.diag(r))) <= tol.eps_rank * max(1.0, float(np.abs(r).max())):
        raise ValueError("spanning vectors are linearly dependent")
    return code_subspace(q.T, tol)


def code_from_json(obj, tol: ToleranceConfig = DEFAULT_TOL) -> CodeSubspace:
    try:
        dim, basis = serialization.size_from_json(obj["dim"], "dim"), obj["basis"]
    except (KeyError, TypeError) as exc:
        raise ValueError("code JSON must have 'dim' and 'basis'") from exc
    if not isinstance(basis, list):
        raise ValueError("code JSON 'basis' must be a list of vectors")
    vectors = [serialization.vector_from_json(v) for v in basis]
    if any(len(v) != dim for v in vectors):
        raise ValueError("code basis vectors do not match the declared dimension")
    return code_subspace(vectors, tol)


def kl_check(
    c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[ErrorCorrectionMatrix, float]:
    """Verify the compression conditions P E_i^dag E_j P = lambda_ij P.

    Coefficients come from the least-squares extraction
    lambda_ij = Tr(P E_i^dag E_j P)/k, and the acceptance threshold scales
    with the Kraus operator norms so verdicts are invariant under global
    rescaling.  Raises NotCorrectable when the residual exceeds it.
    """
    validate_channel(c, tol)
    if code.ambient_dim != c.dim:
        raise ValueError(
            f"code ambient dimension {code.ambient_dim} does not match channel dim {c.dim}"
        )
    k = code.k
    compressed = c.kraus @ code.basis
    # blocks[i, j] = (E_i B)^dag (E_j B), the (k, k) compression of E_i^dag E_j.
    blocks = np.conj(compressed).transpose(0, 2, 1)[:, None] @ compressed[None, :]
    lam = np.trace(blocks, axis1=2, axis2=3) / k
    residual = float(np.linalg.norm(blocks - lam[:, :, None, None] * np.eye(k), axis=(2, 3)).max())
    scale = float(np.linalg.norm(c.kraus.reshape(c.num_kraus, -1), axis=1).max())
    threshold = tol.eps_kl * max(1.0, scale * scale)
    if residual > threshold:
        raise NotCorrectable(residual, threshold)
    lam = (lam + dag(lam)) / 2
    spectrum = np.clip(np.linalg.eigvalsh(lam), 0.0, None)
    return ErrorCorrectionMatrix(lam, spectrum), residual


def code_entropy(c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Entropy (bits) of the error correction matrix; a property of the code."""
    lam, _ = kl_check(c, code, tol)
    return _entropy_of_spectrum(lam.spectrum, tol)


def _dfs_check(c: QuantumChannel, code: CodeSubspace, lam: ErrorCorrectionMatrix,
               tol: ToleranceConfig) -> bool:
    # Rank-one coefficients mean all restricted operators share one isometry;
    # the code is decoherence free iff that isometry is the identity on the
    # code up to a global phase.
    w, vecs = np.linalg.eigh(lam.matrix)
    common = np.tensordot(vecs[:, -1], c.kraus @ code.basis, axes=1)
    phase = np.trace(dag(code.basis) @ common) / code.k
    scale = tol.eps_kl * max(1.0, np.sqrt(code.k))
    return bool(abs(abs(phase) - 1.0) <= scale and frobenius(common - phase * code.basis) <= scale)


def classify_code(
    c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL
) -> CodeReport:
    """Full report: coefficients, entropy, rank data and extremal classification."""
    lam, residual = kl_check(c, code, tol)
    entropy = _entropy_of_spectrum(lam.spectrum, tol)
    lam_rank = numerical_rank(lam.matrix, tol)
    d = choi_gram(c, tol).choi_rank
    if lam_rank == 1:
        dfs = _dfs_check(c, code, lam, tol)
        cls = CodeClass.DECOHERENCE_FREE if dfs else CodeClass.UNITARILY_CORRECTABLE
        return CodeReport(lam, entropy, lam_rank, d, cls, True, dfs, residual)
    flat = bool(np.max(np.abs(lam.spectrum - 1.0 / d)) <= tol.eps_kl)
    cls = CodeClass.NON_DEGENERATE if (lam_rank == d and flat) else CodeClass.PARTIALLY_DEGENERATE
    return CodeReport(lam, entropy, lam_rank, d, cls, False, False, residual)


def sigma_equals_lambda_check(
    c: QuantumChannel,
    code: CodeSubspace,
    samples: int,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
    atol: float = SIGMA_LAMBDA_ATOL,
) -> bool:
    """Exchange state equals the correction matrix for states on the code."""
    lam, _ = kl_check(c, code, tol)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        rho_code = random_density(code.k, rng)
        rho = code.basis @ rho_code @ dag(code.basis)
        sigma = exchange_matrix(c, rho)
        if np.max(np.abs(sigma - lam.matrix)) > atol:
            return False
    return True


def rank_bound_check(c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Rank of the correction matrix never exceeds the Choi rank."""
    lam, _ = kl_check(c, code, tol)
    return numerical_rank(lam.matrix, tol) <= choi_gram(c, tol).choi_rank


def _recovery_residual(recovery: QuantumChannel, c: QuantumChannel, code: CodeSubspace) -> float:
    """Process-identity residual of ``recovery`` after ``c`` on the code.

    The maximum over code matrix units |a><b| = B_a B_b^dag of
    ||R(E(|a><b|)) - |a><b|||_F.  With T_ji = R_j E_i B (n x k) for the J
    recovery and m channel operators, R(E(|a><b|)) is
    sum_{j,i} T_ji[:, a] T_ji[:, b]^dag, so the k round trips from one |a>
    come out of one matrix product and no n x n round trip is applied.  One
    product per |a> keeps the working set at n^2 k instead of (n k)^2.
    """
    n, k = code.ambient_dim, code.k
    t = np.tensordot(recovery.kraus, c.kraus @ code.basis, axes=([2], [1]))
    cols = t.transpose(1, 3, 0, 2).reshape(n * k, -1)  # rows (x, a), columns (j, i)
    residual = 0.0
    for a in range(k):
        roundtrips = (cols[a::k] @ dag(cols)).reshape(n, n, k)
        diff = roundtrips - code.basis[:, a, None, None] * np.conj(code.basis)[None]
        residual = max(residual, float(np.linalg.norm(diff, axis=(0, 1)).max()))
    return residual


def build_recovery(
    c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL,
    verify_atol: float = 1e-6,
) -> RecoveryOperation:
    """Construct a trace-preserving recovery map for a correctable code.

    Diagonalising the correction matrix yields restricted operators that are
    scaled isometries with mutually orthogonal ranges; the recovery maps each
    range back onto the code, completed by the projector onto the unused
    complement.  The process identity is verified on a matrix-unit basis of
    the code before returning.
    """
    lam, _ = kl_check(c, code, tol)
    b = code.basis
    n, k = code.ambient_dim, code.k
    w, vecs = np.linalg.eigh(lam.matrix)
    order = np.argsort(w)[::-1]
    w, vecs = w[order], vecs[:, order]
    cutoff = tol.eps_rank * max(1.0, float(w[0]))
    rank = int(np.count_nonzero(w > cutoff))
    # Restricted canonical operators (sum_i v_i E_i) B, scaled to isometries.
    isometries = np.tensordot(vecs[:, :rank].T, c.kraus @ b, axes=1)
    isometries /= np.sqrt(w[:rank])[:, None, None]
    images = isometries.transpose(1, 0, 2).reshape(n, rank * k)
    returns = b @ np.conj(isometries).transpose(0, 2, 1)
    psi = channel([*returns, np.eye(n) - images @ dag(images)])
    validate_channel(psi, tol)

    residual = _recovery_residual(psi, c, code)
    if residual > verify_atol:
        raise RecoveryVerificationError(
            f"recovery verification residual {residual:.3e} exceeds {verify_atol:.1e}"
        )
    return RecoveryOperation(psi, residual)
