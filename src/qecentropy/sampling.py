"""Seeded random generators for states, unitaries and channels."""

from __future__ import annotations

import numpy as np

from .channel import channel


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    q, r = np.linalg.qr(_ginibre(dim, dim, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = _ginibre(dim, dim, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_channel(dim: int, num_kraus: int, rng: np.random.Generator):
    """Random trace-preserving channel from a Haar-ish Stinespring isometry."""
    q, _ = np.linalg.qr(_ginibre(dim * num_kraus, dim, rng))
    return channel([q[i * dim:(i + 1) * dim, :] for i in range(num_kraus)])
