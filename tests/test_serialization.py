import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecentropy import serialization


def test_float_roundtrip_17_digits():
    xs = [1 / 3, np.pi, 1e-300, -0.0, 123456.789]
    for x in xs:
        assert float(serialization.format_float(x)) == x


def test_format_float_rejects_nonfinite():
    with pytest.raises(ValueError):
        serialization.format_float(float("nan"))


def test_dumps_is_valid_and_deterministic():
    obj = {"a": [1, 2.5, "x\"y\\z"], "b": {"c": True, "d": None}, "e": 1 + 2j}
    out1 = serialization.dumps(obj, indent=2)
    out2 = serialization.dumps(obj, indent=2)
    assert out1 == out2
    parsed = json.loads(out1)
    assert parsed["a"] == [1, 2.5, "x\"y\\z"]
    assert parsed["e"] == [1.0, 2.0]
    with pytest.raises(TypeError, match="cannot serialize"):
        serialization.dumps({"a": [object()]})


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = serialization.matrix_from_json(json.loads(
        serialization.dumps(serialization.matrix_to_json(a))
    ))
    assert np.array_equal(back, a)
    # An integral float is read as the size it names.
    obj = serialization.matrix_to_json(a)
    assert np.array_equal(serialization.matrix_from_json({**obj, "rows": 3.0, "cols": 4.0}), a)


def test_vector_roundtrip():
    v = np.array([1 + 2j, -3.5, 0])
    back = serialization.vector_from_json(serialization.vector_to_json(v))
    assert np.array_equal(back, v)
    back = serialization.vector_from_json({**serialization.vector_to_json(v), "dim": 3.0})
    assert np.array_equal(back, v)


def test_malformed_inputs_raise():
    with pytest.raises(ValueError):
        serialization.complex_from_json([1.0])
    with pytest.raises(ValueError):
        serialization.matrix_from_json({"rows": 2, "cols": 2, "data": [[0, 0]]})
    with pytest.raises(ValueError):
        serialization.matrix_from_json({"rows": 2, "data": []})
    with pytest.raises(ValueError, match="dimensions must be positive"):
        serialization.matrix_from_json({"rows": 0, "cols": 2, "data": []})
    with pytest.raises(ValueError):
        serialization.vector_from_json({"dim": 3, "data": [[0, 0]]})


def test_complex_components_must_be_json_numbers():
    for bad in (["1.5", "2"], [1.0, "2"], [True, 0], [0.0, False], [None, 1.0]):
        with pytest.raises(ValueError, match="components must be numbers"):
            serialization.complex_from_json(bad)
        with pytest.raises(ValueError, match="components must be numbers"):
            serialization.matrix_from_json({"rows": 1, "cols": 2, "data": [[0.5, 0], bad]})
        with pytest.raises(ValueError, match="components must be numbers"):
            serialization.vector_from_json({"dim": 2, "data": [bad, [0.5, 0]]})


# The recursive serializer that ``dumps`` replaced for lists of [re, im]
# pairs; ``dumps`` must give its bytes on every input.
def _dumps_reference(obj, indent=0, _level=0):
    pad = " " * (indent * (_level + 1)) if indent else ""
    end_pad = " " * (indent * _level) if indent else ""
    nl = "\n" if indent else ""
    sep = "," + nl
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return serialization.format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, complex):
        return _dumps_reference(serialization.complex_to_json(obj), indent, _level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}"{k}": {_dumps_reference(v, indent, _level + 1)}' for k, v in obj.items()]
        return "{" + nl + sep.join(items) + nl + end_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [pad + _dumps_reference(v, indent, _level + 1) for v in obj]
        return "[" + nl + sep.join(items) + nl + end_pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _assert_dumps_matches_reference(obj):
    for indent in (0, 2):
        assert serialization.dumps(obj, indent=indent) == _dumps_reference(obj, indent), (obj, indent)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1 / 3,
               0.12345678901234568, 2.2250738585072014e-308, 123456789012345680.0, 1e16, 1.0]


@pytest.mark.parametrize("obj", [
    [[x, y] for x in EDGE_FLOATS for y in EDGE_FLOATS],
    {"rows": 2, "cols": 1, "data": [[-0.0, 5e-324], [1e308, 0.30000000000000004]]},
    # Pairs that are not two Python floats keep the recursive path.
    [[1, 2], [3, 4]],
    [[2 ** 64, 3], [-(10 ** 20), 0]],
    [[1.5, 2], [0.5, 10 ** 20]],
    [[True, 1.5], [False, -0.0]],
    [[1.5, 2.5], [1.5, True]],
    [[np.float64(0.1), np.float64(-0.0)], [np.float64(5e-324), np.float64(1e308)]],
    [[0.1, np.float64(0.2)]],
    [(0.1, 0.2), (0.3, -0.0)],
    ((0.1, 0.2), [0.3, -0.0]),
    [[0.1, 0.2], (0.3, -0.0)],
    [[0.1, 0.2, 0.3], [0.4, 0.5]],
    [[0.1], [0.2]],
    [[0.1, 0.2], [0.3]],
    [[0.1, 0.2], 0.3],
    [0.1, [0.2, 0.3]],
    [[0.1, 0.2], None, "x"],
    [[], []],
    [],
    [[[0.1, 0.2], [0.3, 0.4]], [[-0.0, 1e-300]]],
    {"a": [], "b": {}, "c": [[1e-7, 1e22]], "d": 1 + 2j},
    [1 + 2j, -0.0 - 5e-324j],
])
def test_dumps_matches_the_recursive_reference(obj):
    _assert_dumps_matches_reference(obj)


@pytest.mark.parametrize("obj", [
    [[float("nan"), 0.0]],
    [[0.0, float("inf")]],
    [[0.5, 0.5], [float("-inf"), 1.0]],
    {"data": [[1.0, 2.0], [3.0, float("nan")]]},
    [[np.float64("nan"), 0.0]],
    [[float("inf"), 1]],
])
@pytest.mark.parametrize("indent", [0, 2])
def test_dumps_refuses_non_finite_floats_like_the_reference(obj, indent):
    with pytest.raises(ValueError, match="non-finite float in output"):
        _dumps_reference(obj, indent)
    with pytest.raises(ValueError, match="non-finite float in output"):
        serialization.dumps(obj, indent=indent)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_pair = st.lists(_finite, min_size=2, max_size=2)
_leaf = (st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70) | _finite
         | _finite.map(np.float64) | st.text(max_size=4) | _pair)
_tree = st.recursive(
    _leaf,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)
                   | st.lists(_pair, min_size=1, max_size=6)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_tree)
def test_dumps_matches_the_recursive_reference_on_generated_trees(obj):
    _assert_dumps_matches_reference(obj)


def _entries_reference(data):
    return np.array([serialization.complex_from_json(z) for z in data], dtype=complex)


def _wrap(data, as_matrix):
    if as_matrix:
        return serialization.matrix_from_json({"rows": 1, "cols": len(data), "data": data})
    return serialization.vector_from_json({"dim": len(data), "data": data})


def _as_bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tobytes()


_number = _finite | st.integers(-(2 ** 70), 2 ** 70)
_entries = st.lists(st.lists(_number, min_size=2, max_size=2), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(_entries, st.booleans())
def test_entries_are_read_as_complex_from_json_reads_them(data, as_matrix):
    got = _wrap(data, as_matrix)
    assert got.shape == ((1, len(data)) if as_matrix else (len(data),))
    assert _as_bits(got) == _as_bits(_entries_reference(data))


DAMAGES = [
    [1.0], [1.0, 2.0, 3.0], [], "ab", None, 1.5, {"re": 1.0, "im": 0.0},
    ["1.5", "2"], [0.5, "2"], [True, 0], [0.0, False], [None, 1.0], [[1.0], 2.0],
    [float("nan"), 0.0], [0.0, float("-inf")], [10 ** 400, 0], [0, -(10 ** 400)],
]
# Entries outside JSON that the entry-by-entry form reads: they must read the same.
NON_JSON_ENTRIES = [(1.0, 2.0), [np.float64(-0.0), 3], [1, np.int64(2)]]


@settings(max_examples=200, deadline=None)
@given(_entries, st.data(), st.booleans())
def test_damaged_entries_give_the_first_bad_entry_s_message(data, draw, as_matrix):
    spots = draw.draw(st.lists(st.integers(0, len(data)), min_size=1, max_size=3))
    for spot in spots:
        data.insert(spot, draw.draw(st.sampled_from(DAMAGES + NON_JSON_ENTRIES)))
    try:
        want = _entries_reference(data)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _wrap(data, as_matrix)
        assert str(got.value) == str(exc)
    else:
        assert _as_bits(_wrap(data, as_matrix)) == _as_bits(want)


def test_matrix_and_vector_json_write_each_entry_as_complex_to_json():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    a[0, 0], a[1, 2] = complex(-0.0, 5e-324), complex(1e308, -0.0)
    for m in (a, a.T, a[::2, 1::2], a.real, np.array([[1, 2], [3, 4]])):
        got = serialization.matrix_to_json(m)
        want = [serialization.complex_to_json(z) for z in np.asarray(m, dtype=complex).reshape(-1)]
        assert (got["rows"], got["cols"]) == m.shape
        assert [[x.hex() for x in z] for z in got["data"]] == [[x.hex() for x in z] for z in want]
        assert {type(x) for z in got["data"] for x in z} == {float}
    for v in (a[:, 2], a[3], a[::-2, 0], np.arange(3)):
        got = serialization.vector_to_json(v)
        want = [serialization.complex_to_json(z) for z in np.asarray(v, dtype=complex)]
        assert got["dim"] == len(v)
        assert [[x.hex() for x in z] for z in got["data"]] == [[x.hex() for x in z] for z in want]


def test_matrix_json_round_trips_every_bit():
    rng = np.random.default_rng(19)
    parts = np.frombuffer(rng.bytes(8 * 80), dtype=float).reshape(4, 20).copy()
    parts[~np.isfinite(parts)] = -0.0
    a = parts.view(complex)
    back = serialization.matrix_from_json(json.loads(serialization.dumps(serialization.matrix_to_json(a))))
    assert _as_bits(back) == _as_bits(a)
    v = a[1]
    back = serialization.vector_from_json(json.loads(serialization.dumps(serialization.vector_to_json(v), 2)))
    assert _as_bits(back) == _as_bits(v)
