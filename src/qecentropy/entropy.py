"""Von Neumann entropy, entropy exchange, and the Lindblad entropy bounds.

All entropies are in bits (logarithm base two).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .channel import QuantumChannel, _density_spectrum, _state_matrix, apply_channel, validate_channel
from .numerics import DEFAULT_TOL, ToleranceConfig, _LastCall, _frozen, _psd_rank, as_matrix, dag

# lindblad_omega's partial traces must reproduce the exchange state and the
# channel output to rounding error, relative to omega's largest entry.
MARGINAL_CHECK_RTOL = 1e-10

# Slack on the Lindblad inequalities, in bits.  The bounds hold with equality
# for pure inputs and for unitary channels, so the rounding of the eigensolves
# behind the three entropies must not turn an equality into a failure.
LINDBLAD_SLACK = 1e-8


def _entropy_rows(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w along the last axis (0 log 0 := 0), clamped at +0.0,
    since a pure spectrum gives a zero sum and a weight rounded above 1 a
    tiny negative entropy; 0.0 - sum, as np.maximum may return -0.0."""
    return np.maximum(0.0, 0.0 - (w * np.log2(np.where(w > 0, w, 1.0))).sum(axis=-1))


def _entropy_of_spectrum(w) -> float:
    """Entropy (bits) of one spectrum, already checked PSD where it was solved,
    summed over its positive weights alone, as zeros (and rounded negatives)
    would regroup numpy's pairwise sum; ValueError for a non-finite weight."""
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError(f"spectrum has a non-finite weight ({w.max():.3e})")
    return float(_entropy_rows(w[w > 0]))


def von_neumann_entropy(rho, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """-Tr(rho log2 rho) with the 0*log(0) := 0 convention."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    return _entropy_of_spectrum(_density_spectrum(rho, tol)[0])


@dataclasses.dataclass(frozen=True)
class LindbladReport:
    """Entropies entering the Lindblad inequalities and whether they hold."""

    S_rho: float
    S_rho_prime: float
    S_sigma: float
    holds: bool

    def to_json(self) -> dict:
        return {
            "S_rho": self.S_rho,
            "S_rho_prime": self.S_rho_prime,
            "S_sigma": self.S_sigma,
            "bounds_hold": self.holds,
        }


def _exchange(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sigma_ij = Tr(rho F_i^dag F_j), the Frobenius inner product of F_i with
    F_j rho, Hermitised, for operators F_i stacked (m, n, d) and a d x d rho.
    With F_i = E_i B it is the exchange state of B rho B^dag, in O(m^2 n k)."""
    m = len(ops)
    sigma = np.conj(ops.reshape(m, -1)) @ (ops @ rho).reshape(m, -1).T
    return (sigma + dag(sigma)) / 2


def exchange_matrix(c: QuantumChannel, rho) -> np.ndarray:
    """The exchange state sigma_ij = Tr(rho E_i^dag E_j), the raw linear map: rho is not validated."""
    return _exchange(c.kraus, _state_matrix(c, rho))


class _State:
    """A copy of rho, which ``_state`` checked as an n x n matrix, validated as a density matrix,
    with ``w`` and ``v`` from one ``eigh`` and its ``rank``; sigma with its ``eigh``, checked PSD,
    and Phi(rho), on first use."""

    def __init__(self, c: QuantumChannel, rho: np.ndarray, tol: ToleranceConfig):
        w, v, self.rank = _density_spectrum(rho, tol, vectors=True)
        self.c, self.tol, (self.rho, self.w, self.v) = c, tol, map(_frozen, (rho.copy(), w, v))

    @functools.cached_property
    def exchange(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sigma = _exchange(self.c.kraus, self.rho)
        w, v = np.linalg.eigh(sigma)
        _psd_rank(w, self.tol, "exchange state")
        return tuple(map(_frozen, (sigma, w, v)))

    @functools.cached_property
    def output(self) -> np.ndarray:
        return _frozen(apply_channel(self.c, self.rho))


_state_memo = _LastCall()  # the last accepted (channel, state) pair's _State


def _state(c: QuantumChannel, rho, tol: ToleranceConfig) -> _State:
    rho = _state_matrix(c, rho)
    return _state_memo((c, rho.shape, rho.tobytes(), tol), _State, c, rho, tol)


def entropy_exchange(c: QuantumChannel, rho, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Exchange state (shared, read-only) and its entropy, zero for any unitary channel; rho is
    validated, and any Kraus family is accepted (trace preservation is not checked)."""
    sigma, w, _ = _state(c, rho, tol).exchange
    return sigma, _entropy_of_spectrum(w)


def purification_exchange_entropy(c: QuantumChannel, rho, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Entropy exchange via a purification of the input state.

    Purifies ``rho`` against a reference sized to its rank r and returns the
    entropy of the output (E (x) I)|psi><psi|(E (x) I)^dag of the channel
    applied to the system factor only.  Written as an n x r matrix, the
    purification is Psi = V sqrt(w) from the eigendecomposition of ``rho``,
    and (E_i (x) I)|psi> is E_i Psi flattened.  With X the (m, n*r) matrix
    of those rows, the output is sum_i x_i x_i^dag = X^T conj(X), so its
    nonzero eigenvalues are the squared singular values of X; the
    (n*r) x (n*r) output itself is never formed.

    Agrees with :func:`entropy_exchange` for any purification.  The two routes
    share only the validation of ``rho`` (this one reads its eigenvectors); past
    it, this one takes an SVD and forms no exchange matrix and no E_i^dag E_j.
    Any Kraus family is accepted: trace preservation is not checked.
    """
    state = _state(c, rho, tol)
    top = slice(len(state.w) - state.rank, None)  # the eigenpairs above the rank cutoff
    psi = state.v[:, top] * np.sqrt(state.w[top])
    x = (c.kraus @ psi).reshape(c.num_kraus, -1)
    return _entropy_of_spectrum(np.linalg.svd(x, compute_uv=False) ** 2)


def lindblad_omega(c: QuantumChannel, rho, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """System-environment state of the dilated channel.

    The joint state of the system and an initially pure environment; its
    entropy equals S(rho), the environment trace gives the channel output
    and the system trace gives the exchange state.  Both partial-trace
    identities are verified before returning.

    Dilations are unique up to a unitary on the environment.  The raw
    block form with environment block (i, j) = E_i rho E_j^dag has system
    trace equal to the entrywise conjugate of the exchange state (the
    pairing that would give it entrywise is its partial transpose and is
    not positive semidefinite), so the environment factor is rotated by
    Q Q^T, with Q the eigenbasis of sigma, which carries conj(sigma) onto
    sigma without touching the other marginal or the spectrum.  Any Kraus
    family is accepted: trace preservation is not checked.
    """
    state = _state(c, rho, tol)
    (sigma, _, q), n, m = state.exchange, c.dim, c.num_kraus
    # omega = V rho V^dag for the Stinespring isometry V = sum_i E_i (x) |i>,
    # with the environment rotation folded into the Kraus family first:
    # (I (x) R) V = sum_i (sum_j R_ij E_j) (x) |i>.
    rotated = np.tensordot(q @ q.T, c.kraus, axes=1)
    v = rotated.transpose(1, 0, 2).reshape(n * m, n)
    omega = v @ state.rho @ dag(v)
    check = MARGINAL_CHECK_RTOL * max(1.0, float(np.abs(omega).max()))
    blocks = omega.reshape(n, m, n, m)  # [system, environment, system, environment]
    if not np.max(np.abs(np.einsum("aiaj->ij", blocks) - sigma)) <= check:
        raise ArithmeticError("composite state partial trace does not match exchange state")
    if not np.max(np.abs(np.einsum("aibi->ab", blocks) - state.output)) <= check:
        raise ArithmeticError("composite state partial trace does not match channel output")
    return omega


def check_lindblad_bounds(c: QuantumChannel, rho, tol: ToleranceConfig = DEFAULT_TOL) -> LindbladReport:
    """|S(rho') - S(sigma)| <= S(rho) <= S(sigma) + S(rho') within ``LINDBLAD_SLACK``.

    The bounds are stated for channels: raises NotTracePreserving for another Kraus family."""
    validate_channel(c, tol)
    state = _state(c, rho, tol)
    s_rho = _entropy_of_spectrum(state.w)
    s_out = von_neumann_entropy(state.output, tol)
    s_sigma = _entropy_of_spectrum(state.exchange[1])
    slack = LINDBLAD_SLACK
    holds = abs(s_out - s_sigma) <= s_rho + slack and s_rho <= s_sigma + s_out + slack
    return LindbladReport(s_rho, s_out, s_sigma, holds)
