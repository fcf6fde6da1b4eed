"""Code subspaces: compression-condition verification, code entropy,
classification, and recovery construction."""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from . import serialization
from .channel import QuantumChannel, _stacked, choi_gram, validate_channel
from .entropy import _entropy_of_spectrum, _exchange
from .errors import NotCorrectable, NotTracePreserving, RecoveryVerificationError
from .numerics import DEFAULT_TOL, ToleranceConfig, _LastCall, _descending_eigh, _frozen, _psd_rank, dag, frobenius
from .sampling import random_density

# Entrywise tolerance between the exchange matrix of a code state and Lambda.
# Both are O(1) matrices formed by different products of the Kraus operators,
# and a code is accepted with a KL residual up to eps_kl (1e-8 by default), so
# the two may differ by that much on an accepted code.
SIGMA_LAMBDA_ATOL = 1e-8

# Process-identity residual a built recovery must meet: an accepted code keeps
# a KL residual up to eps_kl (1e-8 by default), which the 1/sqrt(w) scaling of
# the isometries magnifies for small Lambda weights w.
RECOVERY_VERIFY_ATOL = 1e-6


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
    """Positive unit-trace matrix Lambda of compression coefficients, and one
    ``_descending_eigh`` solve of it: ``weights`` (descending), ``vectors`` and
    ``rank``; the reported ``spectrum`` is ``weights`` ascending, clipped at 0."""

    matrix: np.ndarray
    spectrum: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray
    rank: int


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
    if not frobenius(gram - np.eye(k)) <= tol.eps_eig * max(1, n):
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


_code_memo = _LastCall()  # the last accepted (channel, code) pair's KL analysis


def _kl_analysis(c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig) -> tuple:
    validate_channel(c, tol)
    if code.ambient_dim != c.dim:
        raise ValueError(
            f"code ambient dimension {code.ambient_dim} does not match channel dim {c.dim}"
        )
    k = code.k
    compressed = _frozen(c.kraus @ code.basis)
    # blocks[i, j] = (E_i B)^dag (E_j B), the (k, k) compression of E_i^dag E_j.
    blocks = np.conj(compressed).transpose(0, 2, 1)[:, None] @ compressed[None, :]
    lam = np.trace(blocks, axis1=2, axis2=3) / k
    residual = float(np.linalg.norm(blocks - lam[:, :, None, None] * np.eye(k), axis=(2, 3)).max())
    flat = c.kraus.reshape(c.num_kraus, -1).view(float)  # max_i ||E_i||_F^2 from the real view
    threshold = tol.eps_kl * max(1.0, float((flat * flat).sum(axis=1).max()))
    if residual > threshold:
        raise NotCorrectable(residual, threshold)
    lam = (lam + dag(lam)) / 2
    weights, vectors = _descending_eigh(lam)
    arrays = map(_frozen, (lam, np.clip(weights[::-1], 0.0, None), weights, vectors))
    return compressed, ErrorCorrectionMatrix(*arrays, _psd_rank(weights, tol)), residual


def _analysed(
    c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig
) -> tuple[np.ndarray, ErrorCorrectionMatrix, float]:
    """The compressions E_i B (shape (m, n, k)), Lambda and the KL residual of
    the code, from the memo of the most recent accepted (channel, code) pair;
    raises NotCorrectable for a refused code."""
    basis = code.basis
    key = (c, code.ambient_dim, basis.shape, basis.dtype.str, basis.tobytes(), tol)
    return _code_memo(key, _kl_analysis, c, code, tol)


def kl_check(
    c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[ErrorCorrectionMatrix, float]:
    """Verify the compression conditions P E_i^dag E_j P = lambda_ij P.

    Coefficients come from the least-squares extraction
    lambda_ij = Tr(P E_i^dag E_j P)/k, and the acceptance threshold scales
    with the Kraus operator norms so verdicts are invariant under global
    rescaling.  Raises NotCorrectable when the residual exceeds it.  The
    returned matrix is shared with later calls on the same channel and code,
    and read-only.
    """
    _, lam, residual = _analysed(c, code, tol)
    return lam, residual


def code_entropy(c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Entropy (bits) of the error correction matrix; a property of the code."""
    lam, _ = kl_check(c, code, tol)
    return _entropy_of_spectrum(lam.spectrum, tol)


def classify_code(
    c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL
) -> CodeReport:
    """Full report: coefficients, entropy, rank data and extremal classification."""
    lam, residual = kl_check(c, code, tol)
    entropy = _entropy_of_spectrum(lam.spectrum, tol)
    d = choi_gram(c, tol).choi_rank
    if lam.rank == 1:
        # All restricted operators share one isometry; the code is decoherence
        # free iff it is the identity on the code up to a global phase.
        common = np.tensordot(lam.vectors[:, 0], _analysed(c, code, tol)[0], axes=1)
        phase = np.trace(dag(code.basis) @ common) / code.k
        scale = tol.eps_kl * max(1.0, np.sqrt(code.k))
        dfs = bool(abs(abs(phase) - 1.0) <= scale
                   and frobenius(common - phase * code.basis) <= scale)
        cls = CodeClass.DECOHERENCE_FREE if dfs else CodeClass.UNITARILY_CORRECTABLE
        return CodeReport(lam, entropy, 1, d, cls, True, dfs, residual)
    flat = d > 0 and bool(np.max(np.abs(lam.spectrum - 1.0 / d)) <= tol.eps_kl)
    cls = CodeClass.NON_DEGENERATE if (lam.rank == d and flat) else CodeClass.PARTIALLY_DEGENERATE
    return CodeReport(lam, entropy, lam.rank, d, cls, False, False, residual)


def sigma_equals_lambda_check(c: QuantumChannel, code: CodeSubspace, samples: int, seed: int = 0,
                              tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Exchange state equals the correction matrix for random states on the code."""
    compressed, lam, _ = _analysed(c, code, tol)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        sigma = _exchange(compressed, random_density(code.k, rng))
        if np.max(np.abs(sigma - lam.matrix)) > SIGMA_LAMBDA_ATOL:
            return False
    return True


def rank_bound_check(c: QuantumChannel, code: CodeSubspace, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Rank of the correction matrix never exceeds the Choi rank."""
    lam, _ = kl_check(c, code, tol)
    return lam.rank <= choi_gram(c, tol).choi_rank


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
    spaces, before any n x n operator is formed: trace preservation to
    ``eps_kl * n``, as ``validate_channel`` would, and the process identity on
    a matrix-unit basis of the code.  A non-finite recovery fails the first
    check.
    """
    compressed, lam, _ = _analysed(c, code, tol)
    b = code.basis
    n, k, r = code.ambient_dim, code.k, lam.rank
    # Restricted canonical operators (sum_i v_i E_i) B, scaled to isometries.
    isometries = np.tensordot(lam.vectors[:, :r].T, compressed, axes=1)
    isometries /= np.sqrt(lam.weights[:r])[:, None, None]
    images = isometries.transpose(1, 0, 2).reshape(n, r * k)
    trace_residual = _recovery_trace_residual(images, b)
    if not trace_residual <= tol.eps_kl * n:
        raise NotTracePreserving(trace_residual)
    residual = _recovery_residual(compressed, b, images)
    if not residual <= RECOVERY_VERIFY_ATOL:
        raise RecoveryVerificationError(
            f"recovery verification residual {residual:.3e} exceeds {RECOVERY_VERIFY_ATOL:.1e}"
        )
    ops = np.empty((r + 1, n, n), dtype=complex)
    np.matmul(b, np.conj(isometries).transpose(0, 2, 1), out=ops[:r])
    np.subtract(np.eye(n), images @ dag(images), out=ops[r])
    return RecoveryOperation(_stacked(ops), residual)
