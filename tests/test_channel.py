import numpy as np
import pytest

from qecentropy.binary_unitary import BinaryUnitaryChannel
from qecentropy.channel import (
    QuantumChannel,
    apply_channel,
    canonical_kraus,
    channel,
    channel_from_json,
    choi_gram,
    pauli_channel,
    pauli_word,
    remix_kraus,
    validate_channel,
)
from qecentropy.entropy import von_neumann_entropy
from qecentropy.errors import NotTracePreserving
from qecentropy.numerics import dag
from qecentropy.sampling import haar_unitary, random_channel, random_density


def test_validate_channel_accepts_tp_and_rejects_non_tp():
    validate_channel(channel([np.eye(2)]))
    with pytest.raises(NotTracePreserving):
        validate_channel(channel([0.5 * np.eye(2)]))


def test_channels_compare_and_hash_by_identity():
    ops = [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * pauli_word("X")]
    a, b = channel(ops), channel(ops)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_validate_density():
    # The density checks every entropy route runs, reached through von_neumann_entropy.
    assert von_neumann_entropy(np.eye(2) / 2) == 1.0
    with pytest.raises(ValueError, match="trace"):
        von_neumann_entropy(np.eye(2))
    with pytest.raises(ValueError, match="Hermitian"):
        von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_choi_rank_examples():
    assert choi_gram(channel([np.eye(4)])).choi_rank == 1
    table1 = pauli_channel([(1 / 3, "III"), (1 / 3, "XII"), (1 / 3, "IXI")])
    assert choi_gram(table1).choi_rank == 3
    # A redundant Kraus presentation does not inflate the rank.
    redundant = channel([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)])
    assert choi_gram(redundant).choi_rank == 1


def test_canonical_kraus_same_map_orthogonal_family():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = random_channel(3, 5, rng)
        canon = canonical_kraus(c)
        assert canon.num_kraus == choi_gram(c).choi_rank
        rho = random_density(3, rng)
        assert np.allclose(apply_channel(canon, rho), apply_channel(c, rho), atol=1e-12)
        for i, ei in enumerate(canon.kraus):
            for j, ej in enumerate(canon.kraus):
                if i != j:
                    assert abs(np.trace(dag(ei) @ ej)) < 1e-10


def test_remix_preserves_map():
    rng = np.random.default_rng(2)
    c = random_channel(2, 4, rng)
    v = haar_unitary(4, rng)
    mixed = remix_kraus(c, v)
    rho = random_density(2, rng)
    assert np.allclose(apply_channel(mixed, rho), apply_channel(c, rho), atol=1e-12)
    with pytest.raises(ValueError, match="unitary"):
        remix_kraus(c, np.eye(4) * 2)


def test_apply_channel_is_linear_on_matrix_units():
    rng = np.random.default_rng(3)
    c = random_channel(3, 3, rng)
    unit = np.zeros((3, 3), dtype=complex)
    unit[0, 2] = 1.0
    direct = apply_channel(c, unit)
    expected = sum(e @ unit @ dag(e) for e in c.kraus)
    assert np.array_equal(direct, expected)


def test_a_channel_freezes_the_array_it_is_given_without_a_copy():
    arr = np.array([np.eye(2, dtype=complex)])
    assert QuantumChannel(arr).kraus is arr
    assert not arr.flags.writeable


def test_pauli_word_and_channel():
    assert np.allclose(pauli_word("XZ"), np.kron([[0, 1], [1, 0]], [[1, 0], [0, -1]]))
    with pytest.raises(ValueError):
        pauli_word("XQ")
    with pytest.raises(ValueError, match="sum to 1"):
        pauli_channel([(0.5, "X")])
    with pytest.raises(ValueError, match="at least one term"):
        pauli_channel([])
    with pytest.raises(ValueError, match="non-negative"):
        pauli_channel([(1.5, "X"), (-0.5, "Z")])
    with pytest.raises(ValueError, match="equal length"):
        pauli_channel([(0.5, "X"), (0.5, "XZ")])
    c = pauli_channel([(0.5, "II"), (0.5, "ZZ")])
    validate_channel(c)


def test_binary_unitary_kraus():
    u = np.diag([1.0, -1.0]).astype(complex)
    c = BinaryUnitaryChannel(0.25, u).to_channel()
    validate_channel(c)
    with pytest.raises(ValueError):
        BinaryUnitaryChannel(1.5, u).to_channel()
    with pytest.raises(ValueError, match=r"^matrix is not unitary \(\|\|U\^dag U - I\|\|_F = "):
        BinaryUnitaryChannel(0.25, 2 * u).to_channel()


def test_channel_json_roundtrip():
    c = pauli_channel([(0.5, "I"), (0.5, "X")])
    back = channel_from_json(c.to_json())
    assert back.dim == c.dim
    for a, b in zip(back.kraus, c.kraus):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        channel_from_json({"dim": 2})
