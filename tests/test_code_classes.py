"""Code classes by construction, and their invariance under rewriting the channel.

Each family below is built to have one class, with P = B B^dag and Q = I - P:
- DecoherenceFree: E_i = c_i P + Q H_i Q, with sum |c_i|^2 = 1 and the Q H_i Q
  a channel on the complement, so every E_i acts on the code as c_i I;
- UnitarilyCorrectable: W times that family, for a Haar W;
- NonDegenerate: E_i = U_i / sqrt(m), unitaries U_i that send the code onto
  mutually orthogonal images;
- PartiallyDegenerate: the same with unequal weights, sqrt(p_i) U_i.

The same channel and code can be written down in many ways: a unitary remix
of the Kraus family, zero padding, an isometric embedding into m + 2
operators, splitting one operator, a global phase, conjugation by a unitary W
(with code W B) and a change of basis B -> B Q inside the code.  The class,
the entropy, Lambda's nonzero spectrum, the Choi rank and the KL verdict are
properties of the channel and the code, so none of these rewritings may move
them.  The entropies meet the paper's bounds, 0 <= S <= log2 d for Choi rank
d, with S = log2 d for a non-degenerate code and S = 0 for rank Lambda = 1, to
rounding (ENTROPY_ATOL).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecentropy.channel import channel
from qecentropy.code import CodeClass, classify_code, code_subspace, kl_check
from qecentropy.errors import NotCorrectable
from qecentropy.numerics import DEFAULT_TOL, dag
from qecentropy.sampling import haar_unitary, random_channel

# Entropies of spectra built from float64 unitaries and weights, in bits:
# a few hundred roundings of quantities of order one.
ENTROPY_ATOL = 1e-12
# Lambda's nonzero weights agree to rounding across rewritings.
SPECTRUM_ATOL = 1e-10
# Verdicts on codes whose residual lies within this fraction of the threshold
# may go either way under rounding, and are not compared.
VERDICT_BAND = 1e-3

FAMILIES = tuple(CodeClass)


def _family(cls, k, m, rng):
    """(Kraus operators stacked (m, n, n), code basis B (n, k)) of class ``cls``."""
    if cls in (CodeClass.DECOHERENCE_FREE, CodeClass.UNITARILY_CORRECTABLE):
        n = k + int(rng.integers(1, 4))
        frame = haar_unitary(n, rng)
        b, v = frame[:, :k], frame[:, k:]
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        c /= np.linalg.norm(c)
        ops = c[:, None, None] * (b @ dag(b)) + v @ random_channel(n - k, m, rng).kraus @ dag(v)
        if cls == CodeClass.UNITARILY_CORRECTABLE:
            ops = haar_unitary(n, rng) @ ops
        return ops, b
    n = m * k + int(rng.integers(0, 3))
    p = np.full(m, 1 / m) if cls == CodeClass.NON_DEGENERATE else rng.dirichlet(np.ones(m))
    frame, images = haar_unitary(n, rng), haar_unitary(n, rng)
    ops = []
    for i in range(m):
        # U_i = W_i frame^dag: W_i's first k columns are the i-th block of k
        # columns of ``images``, and the rest a Haar rotation of the others.
        rest = np.eye(n, dtype=complex)
        rest[k:, k:] = haar_unitary(n - k, rng)
        ops.append(np.sqrt(p[i]) * np.roll(images, -i * k, axis=1) @ rest @ dag(frame))
    return np.array(ops), frame[:, :k]


def _remix(ops, b, rng):
    return np.tensordot(haar_unitary(len(ops), rng), ops, axes=1), b


def _pad(ops, b, rng):
    return np.concatenate([ops, np.zeros_like(ops[:1])]), b


def _embed(ops, b, rng):
    isometry = haar_unitary(len(ops) + 2, rng)[:, :len(ops)]
    return np.tensordot(isometry, ops, axes=1), b


def _split(ops, b, rng):
    theta = rng.uniform(0.2, 1.3)
    return np.concatenate([[np.cos(theta) * ops[0], np.sin(theta) * ops[0]], ops[1:]]), b


def _phase(ops, b, rng):
    return np.exp(2j * np.pi * rng.uniform()) * ops, b


def _conjugate(ops, b, rng):
    w = haar_unitary(b.shape[0], rng)
    return w @ ops @ dag(w), w @ b


def _rotate(ops, b, rng):
    return ops, b @ haar_unitary(b.shape[1], rng)


REWRITINGS = (_remix, _pad, _embed, _split, _phase, _conjugate, _rotate)


def _rewritten(ops, b, rng):
    """The family as built, then under each rewriting."""
    return [(ops, b)] + [rewrite(ops, b, rng) for rewrite in REWRITINGS]


def _report(ops, b):
    return classify_code(channel(ops), code_subspace(b.T))


def _check_class_and_invariants(cls, k, m, seed):
    rng = np.random.default_rng(seed)
    ops, b = _family(cls, k, m, rng)
    reports = [_report(*pair) for pair in _rewritten(ops, b, rng)]
    first = reports[0]
    assert first.classification == cls
    for report in reports:
        assert report.classification == first.classification
        assert report.choi_rank == first.choi_rank
        assert report.lambda_rank == first.lambda_rank
        nonzero = report.lam.spectrum[::-1][:report.lambda_rank]
        assert np.max(np.abs(nonzero - first.lam.spectrum[::-1][:first.lambda_rank])) <= SPECTRUM_ATOL
        assert abs(report.entropy_bits - first.entropy_bits) <= ENTROPY_ATOL
        # The paper's bounds.
        s, d = report.entropy_bits, report.choi_rank
        assert 0.0 <= s <= np.log2(d) + ENTROPY_ATOL
        if report.lambda_rank == 1:
            assert s <= ENTROPY_ATOL
        if report.classification == CodeClass.NON_DEGENERATE:
            assert d == m and abs(s - np.log2(d)) <= ENTROPY_ATOL
    if cls == CodeClass.PARTIALLY_DEGENERATE:
        assert first.entropy_bits < np.log2(first.choi_rank) - 1e-6


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda c: c.value)
def test_each_family_gets_its_class_under_every_rewriting(cls):
    for k in (1, 2, 3):
        for m in (2, 3, 4):
            for seed in range(2):
                _check_class_and_invariants(cls, k, m, seed=100 * k + 10 * m + seed)


@settings(max_examples=40, deadline=None)
@given(cls=st.sampled_from(FAMILIES), k=st.integers(1, 3), m=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_class_and_invariants_hold_for_any_draw(cls, k, m, seed):
    _check_class_and_invariants(cls, k, m, seed)


# KL verdicts near the threshold ----------------------------------------------


def _margin(ops, b):
    """Residual over threshold, from the definition: ||T - Lambda (x) I_k||_F for
    T = C^dag C, C = [E_1 B ... E_m B], against eps_kl * max(1, largest Kraus
    Gram eigenvalue), with T and the Gram matrix formed here."""
    m, k = len(ops), b.shape[1]
    c = np.concatenate(list(ops @ b), axis=1)
    t = dag(c) @ c
    lam = np.einsum("iaja->ij", t.reshape(m, k, m, k)) / k
    flat = ops.reshape(m, -1)
    gram = np.conj(flat) @ flat.T
    threshold = DEFAULT_TOL.eps_kl * max(1.0, np.linalg.eigvalsh((gram + dag(gram)) / 2)[-1])
    return np.linalg.norm(t - np.kron(lam, np.eye(k))) / threshold


def _perturbed(b, direction, scale):
    return np.linalg.qr(b + scale * direction)[0]


def _scale_at_threshold(ops, b, direction):
    """The perturbation scale at which the margin crosses 1, by bisection in
    log10: the residual grows as scale (or scale^2 when the first order cancels)."""
    lo, hi = -14.0, -1.0
    for _ in range(50):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _margin(ops, _perturbed(b, direction, 10 ** mid)) < 1 else (lo, mid)
    return 10 ** lo


def _accepted(ops, b):
    try:
        kl_check(channel(ops), code_subspace(b.T))
    except NotCorrectable:
        return False
    return True


def test_kl_verdict_is_the_channels_near_the_threshold():
    # Codes perturbed to within a factor 2 of the threshold.  A residual taken
    # over single Kraus pairs, or a threshold scaled by single operator norms,
    # moves under a remix of the same channel and flips such verdicts.
    compared, verdicts = 0, set()
    for index in range(24):
        cls = FAMILIES[index % 4]
        rng = np.random.default_rng(700 + index)
        k, m = 1 + index % 3, 2 + index // 4 % 3
        ops, b = _family(cls, k, m, rng)
        direction = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
        scale = _scale_at_threshold(ops, b, direction) * 10 ** rng.uniform(-0.3, 0.3)
        code = _perturbed(b, direction, scale)
        margin = _margin(ops, code)
        if abs(margin - 1) <= VERDICT_BAND:
            continue
        expected = margin < 1
        for pair in _rewritten(ops, code, rng):
            assert _accepted(*pair) == expected, (cls, k, m, margin)
        compared += 1
        verdicts.add(expected)
    assert compared >= 20 and verdicts == {True, False}
