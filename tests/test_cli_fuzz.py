"""Fuzz test of the CLI on generated JSON input, run in-process through main.

Each case writes well-formed input files (a tolerance file, a channel and a
code for ``code analyze`` or ``code recovery``, or a unitary for
``numrange``) and then, most of the time, damages one of them at one spot:
a value replaced by a non-finite or oversized number or a value of the
wrong type, a key dropped, or a list grown or cut, which breaks shapes.
Whatever the input, main must return an exit code in 0-4, print at most one
``error:`` line, and raise nothing.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qecentropy import serialization
from qecentropy.channel import channel, pauli_channel
from qecentropy.cli import main
from qecentropy.code import code_subspace
from qecentropy.sampling import haar_unitary, random_channel

BIG_INT = 10 ** 400  # a JSON integer too large for a float
BAD_VALUE = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, BIG_INT, -1, 0, 2.5, 1e300, -1e-300]),
    st.none(), st.booleans(), st.text(max_size=2), st.just([]), st.just({}),
    st.lists(st.floats(-2, 2), min_size=1, max_size=3),
)
TOLERANCE_KEYS = ("eps_rank", "eps_kl", "eps_geom", "eps_eig")


def _paths(obj, prefix=()):
    """Every path to a value inside nested dicts and lists, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def damaged(draw, obj):
    """obj with one value replaced, one dict key dropped, or one list resized."""
    paths = list(_paths(obj))
    if not paths:
        return draw(BAD_VALUE)
    path = draw(st.sampled_from(paths))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    action = draw(st.sampled_from(["replace", "drop", "resize"]))
    if action == "drop" and isinstance(parent, dict):
        del parent[path[-1]]
    elif action == "resize" and isinstance(value, list) and value:
        if draw(st.booleans()):
            value.pop()
        else:
            value.append(value[0])
    else:
        parent[path[-1]] = draw(BAD_VALUE)
    return obj


def _unitary(draw, n):
    if draw(st.booleans()):
        # Phases on a 12-point grid give exact degeneracies.
        return np.diag(np.exp(1j * np.pi / 6 * np.array(draw(st.lists(
            st.integers(0, 11), min_size=n, max_size=n)))))
    return haar_unitary(n, np.random.default_rng(draw(st.integers(0, 2 ** 16))))


@st.composite
def channel_and_code(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["unitary", "pauli", "random"]))
    if kind == "pauli":
        nq = draw(st.integers(1, 3))
        words = draw(st.lists(st.text("IXYZ", min_size=nq, max_size=nq), min_size=1, max_size=4))
        weights = rng.dirichlet(np.ones(len(words)))
        c = pauli_channel(zip(weights, words))
    elif kind == "unitary":
        c = channel([_unitary(draw, draw(st.integers(1, 6)))])
    else:
        c = random_channel(draw(st.integers(1, 5)), draw(st.integers(1, 4)), rng)
    n = c.dim
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        vectors = np.eye(n)[draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                                          unique=True))]
    else:
        vectors = haar_unitary(n, rng)[:, :k].T
    return c.to_json(), code_subspace(vectors).to_json()


@st.composite
def invocation(draw):
    """(files to write, argv naming them) for one CLI call."""
    command = draw(st.sampled_from(["analyze", "recovery", "numrange"]))
    files = {}
    if draw(st.booleans()):
        files["tol.json"] = {key: draw(st.sampled_from([1e-300, 1e-12, 1e-9, 1e-6, 1e-2, 1e300]))
                             for key in draw(st.lists(st.sampled_from(TOLERANCE_KEYS), unique=True))}
    if command == "numrange":
        n = draw(st.integers(1, 6))
        files["u.json"] = serialization.matrix_to_json(_unitary(draw, n))
        argv = ["numrange", "u.json", str(draw(st.integers(0, n + 1)))]
    else:
        files["chan.json"], files["code.json"] = draw(channel_and_code())
        argv = ["code", command, "chan.json", "code.json"]
        if command == "analyze" and draw(st.booleans()):
            argv += ["--sigma-samples", str(draw(st.integers(0, 3)))]
    victim = draw(st.sampled_from([None, *files]))
    if victim is not None:
        files[victim] = draw(damaged(files[victim]))
    if "tol.json" in files:
        argv = ["--tolerances", "tol.json", *argv]
    return files, argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocation())
def test_cli_survives_generated_json(tmp_path_factory, case):
    files, argv = case
    workdir = tmp_path_factory.mktemp("fuzz")
    for name, obj in files.items():
        # json.dumps writes non-finite floats as Infinity and NaN, which the
        # loader accepts, and big integers digit for digit.
        (workdir / name).write_text(json.dumps(obj))
    argv = [str(workdir / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3, 4), rc
    lines = err.getvalue().splitlines()
    assert sum(line.startswith("error:") for line in lines) <= 1, lines
    if rc in (1, 2, 3):
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
