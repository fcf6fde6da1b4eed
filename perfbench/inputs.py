"""Seeded input generators for the benchmark workloads.

Each generator draws from a ``numpy.random.Generator`` that the caller seeds
from the workload seed, the round and the slot, so the same seed always gives
the same inputs.  Random unitaries come from ``qecentropy.sampling``; nothing
here is timed.
"""

from __future__ import annotations

import numpy as np

from qecentropy import CodeSubspace, code_subspace, haar_unitary, pauli_channel, pauli_word

TWO_PI = 2.0 * np.pi

# [[5,1,3]] perfect code: cyclic shifts of XZZXI.
FIVE_QUBIT_STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
# Steane [[7,1,3]] code: X- and Z-type checks on the rows of the Hamming parity matrix.
_HAMMING_ROWS = ("0001111", "0110011", "1010101")
STEANE_STABILIZERS = tuple(
    "".join(p if bit == "1" else "I" for bit in row) for p in "XZ" for row in _HAMMING_ROWS
)


WARMUP_ROUND = 1 << 20  # round key of the warm-up requests, never reached by a run


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 64), *key])


def spectrum(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenvalue phases in [0, 2pi), sorted, listed with multiplicity.

    even      -- n evenly spaced phases with a random offset
    random    -- n independent uniform phases
    pairs     -- n/2 random centres, each split into two phases 0.02-0.1 apart
    repeated  -- ceil(n/2) random phases, the extra n - ceil(n/2) copies
                 spread over them at random, so multiplicities reach 2-4
    """
    if family == "even":
        phases = rng.uniform(0.0, TWO_PI) + TWO_PI * np.arange(n) / n
    elif family == "random":
        phases = rng.uniform(0.0, TWO_PI, n)
    elif family == "pairs":
        centres = rng.uniform(0.0, TWO_PI, n // 2)
        phases = np.concatenate([centres, centres + rng.uniform(0.02, 0.1, n // 2)])
    elif family == "repeated":
        distinct = (n + 1) // 2
        base = rng.uniform(0.0, TWO_PI, distinct)
        counts = 1 + rng.multinomial(n - distinct, np.full(distinct, 1.0 / distinct))
        phases = np.repeat(base, counts)
    else:
        raise ValueError(f"unknown spectrum family {family!r}")
    return np.sort(np.mod(phases, TWO_PI))


def unitary_with_phases(phases: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Q diag(exp(i phases)) Q^dag with a Haar-random eigenbasis Q."""
    q = haar_unitary(len(phases), rng)
    return (q * np.exp(1j * phases)) @ q.conj().T


def _single_qubit_words(nq: int, letter: str) -> list[str]:
    return ["I" * i + letter + "I" * (nq - i - 1) for i in range(nq)]


def pauli_noise(family: str, nq: int, rng: np.random.Generator):
    """Pauli channel and its Kraus weights.

    bitflip -- identity plus single-qubit X errors
    xz      -- identity plus single-qubit X and Z errors
    The identity weight is drawn from [0.5, 0.9]; the rest is split at random.
    """
    if family == "bitflip":
        words = _single_qubit_words(nq, "X")
    elif family == "xz":
        words = _single_qubit_words(nq, "X") + _single_qubit_words(nq, "Z")
    else:
        raise ValueError(f"unknown Pauli family {family!r}")
    w0 = rng.uniform(0.5, 0.9)
    weights = np.concatenate([[w0], (1.0 - w0) * rng.dirichlet(np.ones(len(words)))])
    chan = pauli_channel(zip(weights, ["I" * nq] + words))
    return chan, weights


def repetition_code(nq: int) -> CodeSubspace:
    n = 2 ** nq
    zero, one = np.zeros(n), np.zeros(n)
    zero[0], one[-1] = 1.0, 1.0
    return code_subspace([zero, one])


def stabilizer_code(generators) -> CodeSubspace:
    """Joint +1 eigenspace of commuting Pauli generators."""
    n = 2 ** len(generators[0])
    proj = np.eye(n, dtype=complex)
    for g in generators:
        proj = proj @ (np.eye(n) + pauli_word(g)) / 2
    w, v = np.linalg.eigh((proj + proj.conj().T) / 2)
    return code_subspace(v[:, w > 0.5].T)


def random_subspace(n: int, rng: np.random.Generator) -> CodeSubspace:
    """A Haar-random 2-dim subspace; generically not a code for any Pauli channel."""
    q = haar_unitary(n, rng)
    return code_subspace([q[:, 0], q[:, 1]])
