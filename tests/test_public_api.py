"""The package's export list, and the library example in README.md."""

import contextlib
import dataclasses
import importlib
import io
import pathlib
import re
import types

import qecentropy
from qecentropy import binary_unitary, catalog, code, entropy, numerics

# The package's name `channel` is the function; the module is reached by its path.
channel_module = importlib.import_module("qecentropy.channel")

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# Names the package no longer provides; README says what replaces each.
REMOVED = {
    qecentropy: ("hermitian_eigen", "span_code", "validate_density", "unitary_channel",
                 "partial_trace_system", "partial_trace_environment", "binary_unitary_kraus"),
    numerics: ("hermitian_eigen", "_require_square", "_descending_eigh", "_psd_floor"),
    code: ("span_code", "SIGMA_LAMBDA_ATOL"),
    channel_module: ("validate_density", "unitary_channel", "binary_unitary_kraus",
                     "_check_mixing_probability"),
    entropy: ("partial_trace_system", "partial_trace_environment"),
    catalog: ("example_unitaries",),
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


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert "1.584962500721156 NonDegenerate" in out.getvalue().splitlines()
