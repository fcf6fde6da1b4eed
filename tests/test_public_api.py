"""The package's export list, its objects' identity equality, and the library
example in README.md."""

import contextlib
import dataclasses
import importlib
import io
import pathlib
import re
import types

import numpy as np
import pytest

import qecentropy
from qecentropy import binary_unitary, catalog, code, entropy, numerics

# The package's name `channel` is the function; the module is reached by its path.
channel_module = importlib.import_module("qecentropy.channel")

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# Names the package no longer provides; README says what replaces each.
REMOVED = {
    qecentropy: ("hermitian_eigen", "span_code", "validate_density", "unitary_channel",
                 "partial_trace_system", "partial_trace_environment", "binary_unitary_kraus"),
    numerics: ("hermitian_eigen", "_require_square", "_descending_eigh", "_psd_floor", "is_unitary",
               "_unitarity_residual"),
    code: ("span_code", "SIGMA_LAMBDA_ATOL"),
    channel_module: ("validate_density", "unitary_channel", "binary_unitary_kraus",
                     "_check_mixing_probability", "_stacked"),
    entropy: ("partial_trace_system", "partial_trace_environment"),
    catalog: ("example_unitaries",),
    binary_unitary: ("_range_memo",),
    code.CodeSubspace: ("projector",),
    binary_unitary.BinaryUnitaryChannel: ("from_pair",),
}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qecentropy import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == qecentropy.__all__


def test_all_is_sorted_and_every_entry_resolves():
    assert qecentropy.__all__ == sorted(set(qecentropy.__all__))
    for name in qecentropy.__all__:
        assert not isinstance(getattr(qecentropy, name), types.ModuleType), name


def test_removed_names_are_gone():
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert not set(REMOVED[qecentropy]) & set(qecentropy.__all__)
    # Lambda's weights are its spectrum reversed, no longer a field of their own.
    assert "weights" not in {f.name for f in dataclasses.fields(code.ErrorCorrectionMatrix)}


_CHANNEL = qecentropy.channel([np.eye(2)])
_CODE = qecentropy.code_subspace([[1, 0]])
_LAMBDA = code.ErrorCorrectionMatrix(np.eye(1), np.ones(1), np.eye(1), 1)

# Each class, and a builder of equal inputs to its constructor.
EQUAL_INPUTS = {
    code.CodeSubspace: lambda: (np.eye(4)[:, :2],),
    code.ErrorCorrectionMatrix: lambda: (np.eye(2) / 2, np.full(2, 0.5), np.eye(2), 2),
    code.CodeReport: lambda: (_LAMBDA, 0.0, 1, 1, code.CodeClass.DECOHERENCE_FREE, True, True, 0.0),
    code.RecoveryOperation: lambda: (_CHANNEL, 0.0),
    channel_module.ChoiGram: lambda: (np.eye(2), np.ones(2), 2),
    binary_unitary.NumRangeRegion: lambda: (2, binary_unitary.RegionKind.POLYGON, np.array([1, 1j, -1])),
    binary_unitary.GroupingCode: lambda: (1j, ((0,),), ((1.0,),), _CODE),
    binary_unitary.BinaryUnitaryChannel: lambda: (0.1, np.diag([1.0, -1.0])),
}


@pytest.mark.parametrize("cls", EQUAL_INPUTS, ids=lambda cls: cls.__name__)
def test_objects_built_from_equal_inputs_are_distinct_keys(cls):
    a, b = cls(*EQUAL_INPUTS[cls]()), cls(*EQUAL_INPUTS[cls]())
    assert a != b and a == a
    assert hash(a) == hash(a)
    keys = {a: "a", b: "b"}
    assert keys[a] == "a" and keys[b] == "b"


def test_channels_and_codes_read_their_dimensions_from_their_arrays():
    assert [f.name for f in dataclasses.fields(qecentropy.QuantumChannel)] == ["kraus"]
    assert [f.name for f in dataclasses.fields(code.CodeSubspace)] == ["basis"]
    assert qecentropy.QuantumChannel(np.zeros((2, 3, 3), dtype=complex)).dim == 3
    assert code.CodeSubspace(np.eye(5)[:, :2]).ambient_dim == 5


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert "1.584962500721156 NonDegenerate" in out.getvalue().splitlines()
