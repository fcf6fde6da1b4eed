"""Stabilizer codes under Pauli channels, checked against their GF(2) closed form.

For a stabilizer group S on n qubits and a Pauli channel {sqrt(p_a) P_a},
P_a^dag P_b = P_a P_b is, up to a phase, the Pauli whose symplectic vector is
v_a + v_b (Gottesman, quant-ph/9705052; Aaronson and Gottesman, PRA 70,
052328).  On the code it is 0 when that Pauli anticommutes with a generator,
a phase times the identity when it lies in S, and a logical operator when it
commutes with S without lying in it, which no lambda_ab can absorb.  So the
code is correctable exactly when no two errors differ by an element of
N(S) \\ S.  Then Lambda is a direct sum over the cosets P S met by the errors
of rank-1 blocks of weight equal to the coset's mass, the sum of its p_a:
its spectrum is the masses and zeros, its rank the number of cosets, and the
code entropy the Shannon entropy of the masses.  The class follows: one
coset is DecoherenceFree if it is S and UnitarilyCorrectable otherwise;
NonDegenerate needs every coset a single error and every p_a = 1/d, with d
the Choi rank, here the number of distinct words; anything else is
PartiallyDegenerate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecentropy import NotCorrectable, build_recovery, classify_code, code_subspace, pauli_channel, pauli_word
from qecentropy.sampling import haar_unitary

# GF(2) helper: a Pauli word on n qubits is the int with x bits above z bits.


def _vector(word: str) -> int:
    x = z = 0
    for ch in word:
        x, z = x << 1 | (ch in "XY"), z << 1 | (ch in "YZ")
    return x << len(word) | z


def _word(v: int, n: int) -> str:
    x, z = v >> n, v & ((1 << n) - 1)
    return "".join("IZXY"[(x >> i & 1) << 1 | (z >> i & 1)] for i in reversed(range(n)))


def _anticommute(u: int, v: int, n: int) -> bool:
    mask = (1 << n) - 1
    return bool(bin((u >> n & v & mask) ^ (u & mask & v >> n)).count("1") & 1)


def _reduce(v: int, span: dict) -> int:
    """v less the echelon ``span`` (leading bit -> vector): 0 exactly when v
    is in the span, and otherwise the same label for every vector of v's coset."""
    for bit in sorted(span, reverse=True):
        if v >> bit & 1:
            v ^= span[bit]
    return v


def _extend(span: dict, v: int) -> bool:
    """Add v to the span if it is independent; whether it was."""
    v = _reduce(v, span)
    if v:
        span[v.bit_length() - 1] = v
    return bool(v)


def _random_stabilizer(n: int, r: int, rng) -> list[int]:
    """r independent commuting generators, drawn word by word."""
    gens, span = [], {}
    while len(gens) < r:
        v = int(rng.integers(1, 4**n))
        if not any(_anticommute(v, g, n) for g in gens) and _extend(span, v):
            gens.append(v)
    return gens


def _code_basis(gens: list[int], signs: list[int], n: int) -> np.ndarray:
    """Orthonormal columns spanning the range of prod_i (I + s_i g_i) / 2."""
    proj = np.eye(2**n, dtype=complex)
    for g, s in zip(gens, signs):
        proj = proj @ (np.eye(2**n) + s * pauli_word(_word(g, n))) / 2
    w, v = np.linalg.eigh((proj + proj.conj().T) / 2)
    return v[:, w > 0.5]


def _predict(gens: list[int], errors: list[tuple[float, int]], n: int):
    """(correctable, coset masses, class) from GF(2) arithmetic alone."""
    span = {}
    for g in gens:
        _extend(span, g)
    for _, a in errors:
        for _, b in errors:
            s = a ^ b
            if not any(_anticommute(s, g, n) for g in gens) and _reduce(s, span):
                return False, None, None
    masses: dict[int, float] = {}
    for p, a in errors:
        label = _reduce(a, span)
        masses[label] = masses.get(label, 0.0) + p
    d = len(errors)
    if len(masses) == 1:
        cls = "DecoherenceFree" if 0 in masses else "UnitarilyCorrectable"
    elif len(masses) == d and all(p == 1.0 / d for p, _ in errors):
        cls = "NonDegenerate"
    else:
        cls = "PartiallyDegenerate"
    return True, sorted(masses.values()), cls


def _random_errors(gens: list[int], n: int, rng) -> list[int]:
    """Distinct error words: random ones, or one coset P S, P in S or not."""
    mode = rng.choice(["random", "one_coset", "stabilizer", "with_identity"])
    m = int(rng.integers(1, 5))
    base = 0 if mode == "stabilizer" else int(rng.integers(0, 4**n))
    errors = set()
    for _ in range(20 * m):
        if len(errors) == m:
            break
        if mode in ("one_coset", "stabilizer"):
            chosen = rng.integers(0, 2, len(gens))
            v = base
            for g, c in zip(gens, chosen):
                v ^= g * int(c)
        else:
            v = int(rng.integers(0, 4**n))
        errors.add(v)
    if mode == "with_identity":
        errors.add(0)
    return sorted(errors)


def _check_case(n: int, rng) -> str:
    r = int(rng.integers(1, n))
    gens = _random_stabilizer(n, r, rng)
    signs = [int(s) for s in rng.choice([-1, 1], r)]
    basis = _code_basis(gens, signs, n)
    if rng.random() < 0.5:  # a basis change B -> BQ leaves every verdict
        basis = basis @ haar_unitary(basis.shape[1], rng)
    vectors = _random_errors(gens, n, rng)
    if rng.random() < 0.3:
        weights = [1.0 / len(vectors)] * len(vectors)
    else:
        raw = rng.uniform(0.05, 1.0, len(vectors))
        weights = (raw / raw.sum()).tolist()
    return _check(gens, basis, list(zip(weights, vectors)), n)


def _check(gens, basis, errors, n) -> str:
    c = pauli_channel([(p, _word(v, n)) for p, v in errors])
    code = code_subspace(basis.T)
    correctable, masses, cls = _predict(gens, errors, n)
    if not correctable:
        with pytest.raises(NotCorrectable):
            classify_code(c, code)
        with pytest.raises(NotCorrectable):
            build_recovery(c, code)
        return "NotCorrectable"
    report = classify_code(c, code)
    assert report.classification.value == cls
    assert abs(report.entropy_bits - -sum(p * math.log2(p) for p in masses)) <= 1e-12
    spectrum = np.array(report.lam.spectrum)
    expected = np.array([0.0] * (len(errors) - len(masses)) + masses)
    assert np.max(np.abs(spectrum - expected)) <= 1e-12
    assert report.lambda_rank == len(masses)
    assert report.choi_rank == len(errors)
    build_recovery(c, code)
    return cls


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_random_stabilizer_codes_match_the_coset_oracle(n):
    rng = np.random.default_rng(1000 + n)
    outcomes = {_check_case(n, rng) for _ in range(40 if n < 6 else 12)}
    if n in (3, 4, 5):
        assert outcomes == {"NotCorrectable", "DecoherenceFree", "UnitarilyCorrectable",
                            "NonDegenerate", "PartiallyDegenerate"}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_drawn_stabilizer_codes_match_the_coset_oracle(n, seed):
    _check_case(n, np.random.default_rng(seed))


STEANE = ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"]


@pytest.mark.parametrize("extra, cls", [
    (None, "NonDegenerate"),
    ("IIIXXXX", "PartiallyDegenerate"),  # a stabilizer joins the identity's coset
    ("XXXIIII", "NotCorrectable"),  # logical X times the stabilizer IIIXXXX
])
def test_steane_code_under_single_qubit_paulis(extra, cls):
    n = 7
    gens = [_vector(w) for w in STEANE]
    words = ["I" * n] + ["I" * i + p + "I" * (n - i - 1) for i in range(n) for p in "XYZ"]
    if extra == "XXXIIII":
        words = ["I" * n, extra]
    elif extra:
        words.append(extra)
    errors = [(1.0 / len(words), _vector(w)) for w in words]
    assert _check(gens, _code_basis(gens, [1] * len(gens), n), errors, n) == cls
