"""Code subspaces: compression-condition verification, code entropy,
classification, and recovery construction."""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from . import serialization
from .channel import QuantumChannel, _require_trace_preserving, validate_channel
from .entropy import _entropy_of_spectrum, _exchange
from .errors import NotCorrectable, RecoveryVerificationError
from .numerics import (DEFAULT_TOL, ToleranceConfig, _LastCall, _frozen, _isometry_residual, _iterate, _psd_rank,
                       dag, frobenius)
from .sampling import random_density

# Process-identity residual a built recovery must meet: an accepted code keeps
# a KL residual up to eps_kl (1e-8 by default) times max(1, largest Kraus Gram
# weight), which the 1/sqrt(w) scaling of the isometries magnifies for small
# Lambda weights w.
RECOVERY_VERIFY_ATOL = 1e-6


@dataclasses.dataclass(frozen=True, eq=False)
class CodeSubspace:
    """A k-dimensional subspace given by an orthonormal basis (columns): one n x k
    array, 1 <= k <= n, or ValueError, made read-only without a copy so its checks hold."""

    basis: np.ndarray

    def __post_init__(self):
        b = self.basis
        if not (isinstance(b, np.ndarray) and b.ndim == 2 and b.shape[1] >= 1):
            raise ValueError(f"code basis must be one n x k array, k >= 1; got shape {np.shape(b)}")
        if b.shape[1] > b.shape[0]:
            raise ValueError(f"code dimension {b.shape[1]} exceeds ambient dimension {b.shape[0]}")
        _frozen(b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def to_json(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "basis": [serialization.vector_to_json(self.basis[:, i]) for i in range(self.k)],
        }


@dataclasses.dataclass(frozen=True, eq=False)
class ErrorCorrectionMatrix:
    """Positive unit-trace matrix Lambda of compression coefficients, and one
    ``eigh`` of it: ``spectrum`` ascending, clipped at 0, ``vectors`` its
    eigenvectors (columns, in the same order) and ``rank``, from ``_psd_rank``'s
    PSD check of the unclipped eigenvalues."""

    matrix: np.ndarray
    spectrum: np.ndarray
    vectors: np.ndarray
    rank: int


class CodeClass(str, enum.Enum):
    UNITARILY_CORRECTABLE = "UnitarilyCorrectable"
    DECOHERENCE_FREE = "DecoherenceFree"
    NON_DEGENERATE = "NonDegenerate"
    PARTIALLY_DEGENERATE = "PartiallyDegenerate"


@dataclasses.dataclass(frozen=True, eq=False)
class CodeReport:
    lam: ErrorCorrectionMatrix
    entropy_bits: float
    lambda_rank: int
    choi_rank: int
    classification: CodeClass
    unitarily_correctable: bool
    decoherence_free: bool
    kl_residual: float

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
            "kl_residual": self.kl_residual,
        }


@dataclasses.dataclass(frozen=True, eq=False)
class RecoveryOperation:
    """A trace-preserving map undoing the channel on a code subspace."""

    channel: QuantumChannel
    residual: float


def code_subspace(vectors, tol: ToleranceConfig = DEFAULT_TOL) -> CodeSubspace:
    """Build a code from basis vectors; they must already be orthonormal, to eps_eig * max(1, n)."""
    columns = [np.asarray(v, dtype=complex).reshape(-1) for v in _iterate(vectors, "code basis vectors")]
    if not columns:
        raise ValueError("code basis must hold at least one vector")
    return _orthonormal_code(np.column_stack(columns), tol)


def _orthonormal_code(basis: np.ndarray, tol: ToleranceConfig) -> CodeSubspace:
    """The code on an n x k complex ``basis``, once its columns are checked
    orthonormal to eps_eig * max(1, n)."""
    code = CodeSubspace(basis)
    if not _isometry_residual(code.basis) <= tol.eps_eig * max(1, code.ambient_dim):
        raise ValueError("code basis is not orthonormal")
    return code


def code_from_json(obj, tol: ToleranceConfig = DEFAULT_TOL) -> CodeSubspace:
    dim, basis = serialization._record_from_json(obj, "code", "basis", "vectors")
    vectors = [serialization.vector_from_json(v) for v in basis]
    if any(len(v) != dim for v in vectors):
        raise ValueError("code basis vectors do not match the declared dimension")
    return code_subspace(vectors, tol)


_code_memo = _LastCall()  # the last accepted (channel, code) pair's KL analysis


def _kl_analysis(c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig) -> tuple:
    validate_channel(c, tol)
    if code.ambient_dim != c.dim:
        raise ValueError(f"code ambient dimension {code.ambient_dim} does not match channel dim {c.dim}")
    m, n, k = c.num_kraus, code.ambient_dim, code.k
    compressed = _frozen(c.kraus @ code.basis)
    # T = C^dag C for C = [E_1 B ... E_m B]: t[i, a, j, b] = ((E_i B)^dag E_j B)[a, b].
    cols = compressed.transpose(1, 0, 2).reshape(n, m * k)
    t = (dag(cols) @ cols).reshape(m, k, m, k)
    lam = np.einsum("iaja->ij", t) / k
    residual = frobenius(t - lam[:, None, :, None] * np.eye(k)[:, None])  # ||T - Lambda (x) I_k||_F
    # The largest Kraus Gram weight and the Choi rank, from the channel's one solve, once it is checked PSD.
    gram = c._gram_eigen[0]
    choi_rank = _psd_rank(gram, tol, "Kraus Gram matrix")
    threshold = tol.eps_kl * max(1.0, float(gram[-1]))
    if residual > threshold:
        raise NotCorrectable(residual, threshold)
    lam = (lam + dag(lam)) / 2
    w, vectors = np.linalg.eigh(lam)
    arrays = map(_frozen, (lam, np.clip(w, 0.0, None), vectors))
    rank = _psd_rank(w, tol, "error correction matrix")
    return compressed, ErrorCorrectionMatrix(*arrays, rank), residual, threshold, choi_rank


def _analysed(
    c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig
) -> tuple[np.ndarray, ErrorCorrectionMatrix, float, float, int]:
    """The compressions E_i B (shape (m, n, k)), Lambda, the KL residual, its threshold
    and the Choi rank, from the memo of the most recent accepted (channel, code) pair,
    both matched by identity; raises NotCorrectable for a refused code."""
    return _code_memo((c, code, tol), _kl_analysis, c, code, tol)


def kl_check(
    c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[ErrorCorrectionMatrix, float]:
    """Verify the compression conditions P E_i^dag E_j P = lambda_ij P.

    Coefficients come from the least-squares extraction
    lambda_ij = Tr(P E_i^dag E_j P)/k.  The residual ||T - Lambda (x) I_k||_F,
    with T the mk x mk matrix of blocks B^dag E_i^dag E_j B, must be at most
    eps_kl * max(1, largest Kraus Gram eigenvalue), or NotCorrectable is
    raised.  Both are invariant under isometric remixes of the Kraus family
    (unitary remix, zero padding, splitting), so the verdict is the channel's.  The
    returned matrix is shared with later calls on the same channel and code,
    and read-only.
    """
    return _analysed(c, code, tol)[1:3]


def code_entropy(c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Entropy (bits) of the error correction matrix; a property of the code."""
    lam, _ = kl_check(c, code, tol)
    return _entropy_of_spectrum(lam.spectrum)


def classify_code(
    c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL
) -> CodeReport:
    """Full report: coefficients, entropy, rank data and extremal classification."""
    compressed, lam, residual, _, d = _analysed(c, code, tol)
    if lam.rank == 1:
        # All restricted operators share one isometry; the code is decoherence
        # free iff it is the identity on the code up to a global phase.
        common = np.tensordot(lam.vectors[:, -1], compressed, axes=1)
        phase = np.trace(dag(code.basis) @ common) / code.k
        scale = tol.eps_kl * max(1.0, np.sqrt(code.k))
        dfs = abs(abs(phase) - 1.0) <= scale and frobenius(common - phase * code.basis) <= scale
        cls = CodeClass.DECOHERENCE_FREE if dfs else CodeClass.UNITARILY_CORRECTABLE
    else:
        # Flat on the d largest weights: with m > d Kraus operators Lambda has m - d zeros.
        flat = d > 0 and np.max(np.abs(lam.spectrum[-d:] - 1.0 / d)) <= tol.eps_kl
        cls = CodeClass.NON_DEGENERATE if (lam.rank == d and flat) else CodeClass.PARTIALLY_DEGENERATE
    return CodeReport(lam, _entropy_of_spectrum(lam.spectrum), lam.rank, d, cls, lam.rank == 1,
                      cls is CodeClass.DECOHERENCE_FREE, residual)


def sigma_equals_lambda_check(c: QuantumChannel, code: CodeSubspace, samples: int, seed: int = 0,
                              tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Exchange state equals the correction matrix for random states on the code,
    entrywise within the KL threshold the code was accepted under: each entry of
    sigma - Lambda is tr(rho D) for one block deviation
    D = B^dag E_i^dag E_j B - lambda_ij I, so it is at most the KL residual."""
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    compressed, lam, _, threshold, _ = _analysed(c, code, tol)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        sigma = _exchange(compressed, random_density(code.k, rng))
        if np.max(np.abs(sigma - lam.matrix)) > threshold:
            return False
    return True


def rank_bound_check(c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Rank of the correction matrix never exceeds the Choi rank."""
    _, lam, _, _, choi_rank = _analysed(c, code, tol)
    return lam.rank <= choi_rank


def _recovery_residual(compressed: np.ndarray, basis: np.ndarray, images: np.ndarray) -> float:
    """Process-identity residual of the recovery built from ``images``, after
    the channel whose compressions E_i B (shape (m, n, k)) on the code basis B
    are given.

    The maximum over code matrix units |a><b| = B_a B_b^dag of
    ||R(E(|a><b|)) - |a><b|||_F, for the recovery of ``build_recovery``: the
    returns R_j = B W_j^dag, with W_j the j-th n x k block of A = images, and
    the complement I - A A^dag.  For j < r, R_j E_i B = B M_ji with M_ji the
    j-th k x k block of N_i = A^dag E_i B, and the complement leaves
    U_i = E_i B - A N_i (n x k).  So, for orthonormal B,
    R(E(|a><b|)) - |a><b| = B Z_ab B^dag + sum_i u_ia u_ib^dag with
    Z_ab = sum_ji M_ji[:, a] M_ji[:, b]^dag - e_a e_b^dag formed explicitly, so
    no O(1) terms cancel, and u_ia the a-th column of U_i.  Its squared norm is
    ||Z_ab||^2 + tr(G^a G^b) + 2 Re sum_i (B^dag u_ib)^dag Z_ab^dag (B^dag u_ia),
    with G^a the m x m Gram matrix of the u_ia.  No n x n array is formed, and
    one product per code index a keeps the working set at k^3 instead of k^4.
    """
    m, _, k = compressed.shape
    blocks = dag(images) @ compressed  # (m, rk, k): N_i
    rest = compressed - images @ blocks  # (m, n, k): U_i
    coeffs = blocks.reshape(-1, k * k).T  # rows (x, a), columns (i, j): M_ji[x, a]
    coeffs_dag = dag(coeffs)
    proj = (dag(basis) @ rest).reshape(m, k * k).T  # rows (x, a), columns i: (B^dag u_ia)[x]
    proj_dag = dag(proj)
    cols = rest.transpose(2, 0, 1)
    gram = np.conj(cols) @ cols.transpose(0, 2, 1)  # (k, m, m): G^a
    squares = (gram.reshape(k, -1) @ gram.transpose(0, 2, 1).reshape(k, -1).T).real  # tr(G^a G^b)
    for a in range(k):
        z = coeffs[a::k] @ coeffs_dag  # z[x, (y, b)] = Z_ab[x, y] + [x = a][y = b]
        z[a, :: k + 1] -= 1.0
        cross = proj[a::k] @ proj_dag
        squares[a] += (np.conj(z) * (z + 2 * cross)).real.reshape(k, k, k).sum(axis=(0, 1))
    return float(np.sqrt(np.maximum(squares, 0.0).max()))


def _recovery_trace_residual(images: np.ndarray, basis: np.ndarray) -> float:
    """||sum_j R_j^dag R_j - I||_F of the recovery built from ``images``.

    With A = images (n x rk), G = A^dag A and returns R_j = B V_j^dag, the
    recovery {R_j} + {I - A A^dag} has sum_j R_j^dag R_j - I = A X A^dag for
    X = (I_r (x) B^dag B - I) + (G - I).  Writing A = Q R with Q's columns
    orthonormal, its Frobenius norm is that of R X R^dag, an (rk) x (rk)
    matrix, so no n x n product is formed.
    """
    size = images.shape[1]
    gram = dag(images) @ images
    x = np.kron(np.eye(size // basis.shape[1]), dag(basis) @ basis) + gram - 2 * np.eye(size)
    r = np.linalg.qr(images, mode="r")
    return frobenius(r @ x @ dag(r))


def build_recovery(
    c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL
) -> RecoveryOperation:
    """Construct a trace-preserving recovery map for a correctable code.

    Diagonalising the correction matrix yields restricted operators that are
    scaled isometries with mutually orthogonal ranges; the recovery maps each
    range back onto the code, completed by the projector onto the unused
    complement.  Both checks read the factors the operators are built from
    (the isometries and the compressions E_i B) and work in the code and range
    spaces, before any n x n operator is formed: trace preservation, by the
    verdict ``validate_channel`` gives a channel, and the process identity on
    a matrix-unit basis of the code.  A non-finite recovery fails the first
    check.
    """
    compressed, lam, _, _, _ = _analysed(c, code, tol)
    b = code.basis
    n, k, r = code.ambient_dim, code.k, lam.rank
    # Restricted canonical operators (sum_i v_i E_i) B, largest weight first, scaled to isometries.
    isometries = np.tensordot(lam.vectors[:, ::-1][:, :r].T, compressed, axes=1)
    isometries /= np.sqrt(lam.spectrum[::-1][:r])[:, None, None]
    images = isometries.transpose(1, 0, 2).reshape(n, r * k)
    _require_trace_preserving(_recovery_trace_residual(images, b), n, tol)
    residual = _recovery_residual(compressed, b, images)
    if not residual <= RECOVERY_VERIFY_ATOL:
        raise RecoveryVerificationError(
            f"recovery verification residual {residual:.3e} exceeds {RECOVERY_VERIFY_ATOL:.1e}"
        )
    ops = np.empty((r + 1, n, n), dtype=complex)
    np.matmul(b, np.conj(isometries).transpose(0, 2, 1), out=ops[:r])
    np.subtract(np.eye(n), images @ dag(images), out=ops[r])
    return RecoveryOperation(QuantumChannel(ops), residual)
