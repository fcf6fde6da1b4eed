"""Each input is checked where its object is built: malformed shapes give a
ValueError, never another error type, and a checked array stays checked."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qecentropy import classify_code, code_subspace, pauli_channel
from qecentropy.channel import QuantumChannel, apply_channel, canonical_kraus, channel, remix_kraus
from qecentropy.code import CodeSubspace
from qecentropy.entropy import exchange_matrix
from qecentropy.numerics import as_matrix, unitary_eigen

_CHANNEL = channel([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.diag([1.0, -1.0])])

# Arrays of ndim 0 to 4 with empty, square and non-square sides, complex or
# real; entries that make identities and permutations likely, and a nan now
# and then.
_complex_arrays = hnp.arrays(
    dtype=complex,
    shape=hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
    elements=st.sampled_from([0, 1, -1, 1j, 0.5, np.nan]),
)
_arrays = _complex_arrays | _complex_arrays.map(np.real)


def _items(a):
    # channel and code_subspace take an iterable: a 0-d array goes in as a one-item list.
    return a if a.ndim else [a]


# Each entry point, and what a result it accepts must satisfy.
_ENTRY_POINTS = {
    "QuantumChannel": (QuantumChannel, lambda c, a: a.dtype == complex and a.ndim == 3
                       and a.shape[1] == a.shape[2] >= 1 and c.kraus is a),
    "QuantumChannel(list)": (lambda a: QuantumChannel(a.tolist()), None),
    "channel": (lambda a: channel(_items(a)), lambda c, a: c.kraus.shape == a.shape),
    "CodeSubspace": (CodeSubspace, lambda code, a: a.ndim == 2 and 1 <= a.shape[1] <= a.shape[0]),
    "CodeSubspace(list)": (lambda a: CodeSubspace(a.tolist()), None),
    "code_subspace": (lambda a: code_subspace(_items(a)), lambda code, a: 1 <= code.k <= code.ambient_dim),
    "apply_channel": (lambda a: apply_channel(_CHANNEL, a), lambda out, a: a.shape == (2, 2)),
    "exchange_matrix": (lambda a: exchange_matrix(_CHANNEL, a), lambda out, a: a.shape == (2, 2)),
    "remix_kraus": (lambda a: remix_kraus(_CHANNEL, a), lambda c, a: a.shape == (2, 2)),
    "unitary_eigen": (unitary_eigen, lambda dec, a: a.ndim == 2 and a.shape[0] == a.shape[1]),
}


@pytest.mark.parametrize("name", _ENTRY_POINTS)
@settings(max_examples=150, deadline=None)
@given(a=_arrays)
def test_malformed_shapes_give_a_value_error(name, a):
    build, accepted = _ENTRY_POINTS[name]
    try:
        result = build(a)
    except ValueError:
        return
    assert accepted is not None and accepted(result, a), (name, a.shape)


def test_a_checked_code_basis_is_read_only():
    # Scaling the basis in place would leave a code that is no longer
    # orthonormal behind the verdicts already reached on it.
    e = np.eye(8)
    chan = pauli_channel([(1 / 3, "III"), (1 / 3, "XII"), (1 / 3, "IXI")])
    code = code_subspace([e[0], e[7]])
    with pytest.raises(ValueError, match="read-only"):
        code.basis[:] *= 2
    report = classify_code(chan, code)
    assert report.classification.value == "NonDegenerate"
    assert report.entropy_bits == pytest.approx(np.log2(3), abs=1e-12)


def test_a_channel_refuses_operators_that_are_not_one_square_stack():
    for kraus in ([np.eye(2)], np.zeros((1, 3, 4), dtype=complex), np.eye(2, dtype=complex),
                  np.zeros((1, 2, 2)), np.zeros((1, 0, 0), dtype=complex)):
        with pytest.raises(ValueError, match=r"complex \(m, n, n\) array"):
            QuantumChannel(kraus)
    # m = 0 stays a channel: the zero map that canonical_kraus gives for a zero family.
    assert canonical_kraus(channel([np.zeros((2, 2))])).kraus.shape == (0, 2, 2)


@pytest.mark.parametrize("value, message", [
    (np.ones(3), "expected a matrix, got ndim=1"),
    (np.ones((1, 2, 2)), "expected a matrix, got ndim=3"),
    ([[1.0, np.nan]], "non-finite entries"),
    ([[np.inf]], "non-finite entries"),
])
def test_as_matrix_refuses_non_matrices_and_non_finite_entries(value, message):
    with pytest.raises(ValueError, match=message):
        as_matrix(value)


@pytest.mark.parametrize("build, what", [(channel, "Kraus operators"), (code_subspace, "code basis vectors")])
@pytest.mark.parametrize("value", [5, 2.5, None, np.array(5.0), np.array(1j)], ids=repr)
def test_a_non_iterable_argument_gives_a_value_error(build, what, value):
    with pytest.raises(ValueError, match=f"{what} must be an iterable"):
        build(value)
