"""JSON wire formats for complex scalars, vectors, matrices and channels.

Complex numbers serialize as two-element ``[re, im]`` arrays; matrices as
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` in row-major order.
Floating-point output always carries 17 significant digits so values
round-trip exactly and output is byte-identical for identical inputs.
"""

from __future__ import annotations

import math

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
        items = [pad + dumps(v, indent, _level + 1) for v in obj]
        return "[" + nl + sep.join(items) + nl + end_pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


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
    try:
        z = complex(float(obj[0]), float(obj[1]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("complex value components must be numbers") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("complex value has non-finite components")
    return z


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    rows, cols = a.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "data": [complex_to_json(z) for z in a.reshape(-1)],
    }


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
    flat = [complex_from_json(z) for z in data]
    return np.array(flat, dtype=complex).reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return {"dim": int(len(v)), "data": [complex_to_json(z) for z in v]}


def vector_from_json(obj) -> np.ndarray:
    try:
        dim, data = size_from_json(obj["dim"], "dim"), obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError("vector JSON must have 'dim' and 'data'") from exc
    if not isinstance(data, list):
        raise ValueError("vector JSON 'data' must be a list of [re, im] entries")
    if dim <= 0 or len(data) != dim:
        raise ValueError("vector data length does not match 'dim'")
    return np.array([complex_from_json(z) for z in data], dtype=complex)
