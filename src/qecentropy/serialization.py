"""JSON wire formats for complex scalars, vectors, matrices and channels.

Complex numbers serialize as two-element ``[re, im]`` arrays; matrices as
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` in row-major order.
Floating-point output always carries 17 significant digits so values
round-trip exactly and output is byte-identical for identical inputs.
Lists of ``[re, im]`` entries are written and read in bulk, with the bytes
and the accepted inputs of the entry-by-entry forms.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite float in output")
    return format(x, ".17g")


def dumps(obj, indent: int = 0, _level: int = 0) -> str:
    """Deterministic JSON serializer with 17-significant-digit floats."""
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
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, complex):
        return dumps(complex_to_json(obj), indent, _level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}"{k}": {dumps(v, indent, _level + 1)}' for k, v in obj.items()]
        return "{" + nl + sep.join(items) + nl + end_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        if _is_float_pairs(obj):
            # Each [re, im] item as the recursive form lays it out, filled by one format.
            inner = " " * (indent * (_level + 2)) if indent else ""
            item = f"{pad}[{nl}{inner}%.17g,{nl}{inner}%.17g{nl}{pad}]"
            parts = tuple(chain.from_iterable(obj))
            if not all(map(math.isfinite, parts)):
                raise ValueError("non-finite float in output")
            body = sep.join([item] * len(obj)) % parts
        else:
            body = sep.join([pad + dumps(v, indent, _level + 1) for v in obj])
        return "[" + nl + body + nl + end_pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _is_float_pairs(items) -> bool:
    """Whether every item is a two-element list of Python floats."""
    return (type(items[0]) is list and set(map(type, items)) == {list}
            and set(map(len, items)) == {2}
            and set(map(type, chain.from_iterable(items))) == {float})


def complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def size_from_json(value, name: str) -> int:
    """A dimension read from JSON: a finite, integral, non-negative number."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"'{name}' must be a non-negative integer, got {value!r}")
    return value


def complex_from_json(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ValueError("complex value must be a two-element [re, im] array")
    if any(isinstance(part, (str, bool)) for part in obj):
        raise ValueError("complex value components must be numbers")
    try:
        z = complex(float(obj[0]), float(obj[1]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("complex value components must be numbers") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("complex value has non-finite components")
    return z


def _entries_from_json(data: list) -> np.ndarray:
    """The complex values of a list of ``[re, im]`` entries, as a 1-D array.

    Lists of two JSON numbers (int or float) that all convert to finite
    floats are read in one pass, as a complex view of their components, so
    every bit, -0.0 included, is kept.  Anything else is read entry by entry
    with ``complex_from_json``, which raises at the first bad entry.
    """
    if (set(map(type, data)) <= {list} and set(map(len, data)) <= {2}
            and set(map(type, chain.from_iterable(data))) <= {int, float}):
        try:
            parts = np.fromiter(chain.from_iterable(data), dtype=float, count=2 * len(data))
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.isfinite(parts).all():
                return parts.view(complex)
    return np.array([complex_from_json(z) for z in data], dtype=complex)


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=complex)
    rows, cols = a.shape
    # complex_to_json of each entry, in row-major order, from one float view.
    return {"rows": int(rows), "cols": int(cols), "data": a.view(float).reshape(-1, 2).tolist()}


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError("matrix JSON must have 'rows', 'cols' and 'data'") from exc
    rows, cols = size_from_json(rows, "rows"), size_from_json(cols, "cols")
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    if not isinstance(data, list):
        raise ValueError("matrix JSON 'data' must be a list of [re, im] entries")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != rows*cols = {rows * cols}")
    return _entries_from_json(data).reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> dict:
    v = np.ascontiguousarray(v, dtype=complex).reshape(-1)
    return {"dim": int(len(v)), "data": v.view(float).reshape(-1, 2).tolist()}


def vector_from_json(obj) -> np.ndarray:
    try:
        dim, data = size_from_json(obj["dim"], "dim"), obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError("vector JSON must have 'dim' and 'data'") from exc
    if not isinstance(data, list):
        raise ValueError("vector JSON 'data' must be a list of [re, im] entries")
    if dim <= 0 or len(data) != dim:
        raise ValueError("vector data length does not match 'dim'")
    return _entries_from_json(data)
