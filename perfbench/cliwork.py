"""The cli workload: ``python -m qecentropy.cli`` child processes, one at a time.

Set-up writes the seeded channel, code and unitary files and records each
command's stdout (and SVG) from an in-process ``qecentropy.cli.main`` call;
every child's exit code, stdout and SVG must match.  Child processes are
opaque to spans, so the traced run replays each command in-process through
the same public calls (parse, library call, to_json, serialization.dumps).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

from qecentropy import (
    BinaryUnitaryChannel,
    biunitary_code_entropy,
    build_recovery,
    channel_from_json,
    choi_gram,
    classify_code,
    code_from_json,
    constituent_hulls,
    extremal_lambda,
    grouping_code,
    kl_check,
    numerical_range,
    unitary_eigen,
    validate_channel,
)
from qecentropy import catalog, cli, serialization

import inputs
from workloads import Request

QUTRIT_EXIT = 4  # reproduce qutrit is red by design: the paper's 0.060 vs the exact 0.06123.
SVG_MARK = "{svg}"
CHILD_TIMEOUT_S = 30  # a child still running after this is killed and its request fails

# One round: every command once, the cheap ones (reproduce, catalog, numrange,
# min-entropy-code) on each of their inputs, the file-reading ones on the 6-
# and 7-qubit files; the costliest commands are spread through the round.
# 25 commands, so that four passes make the run's 100 requests.
CLI_ROUND = (
    ("reproduce", "table1"),
    ("channel", "info", "bitflip6.json"),
    ("catalog", "get", "table1"),
    ("numrange", "qutrit.json", "3", "--svg", SVG_MARK, "--hulls"),
    ("reproduce", "stabilizer"),
    ("code", "analyze", "bitflip7.json", "repetition7.json"),
    ("min-entropy-code", "qutrit.json", "3", "0.01"),
    ("catalog", "get", "stabilizer"),
    ("reproduce", "qutrit"),
    ("code", "recovery", "bitflip6.json", "repetition6.json"),
    ("catalog", "list"),
    ("numrange", "qutrit.json", "2", "--svg", SVG_MARK, "--hulls"),
    ("reproduce", "example33"),
    ("catalog", "get", "example33"),
    ("min-entropy-code", "qutrit.json", "3", "0.1"),
    ("channel", "info", "bitflip7.json"),
    ("catalog", "get", "qutrit"),
    ("numrange", "qutrit.json", "4", "--svg", SVG_MARK, "--hulls"),
    ("code", "analyze", "bitflip6.json", "repetition6.json"),
    ("catalog", "get", "pauli-zz"),
    ("min-entropy-code", "qutrit.json", "3", "0.25"),
    ("code", "recovery", "bitflip7.json", "repetition7.json"),
    ("numrange", "qutrit.json", "5", "--svg", SVG_MARK, "--hulls"),
    ("min-entropy-code", "qutrit.json", "3", "0.4"),
    ("numrange", "qutrit.json", "1", "--svg", SVG_MARK, "--hulls"),
)


def child_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(cli.TOLERANCES_ENV, None)
    return env


def time_child(argv, env) -> float:
    """Wall time of a child process that must exit 0."""
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def write_inputs(seed: int, workdir: str) -> None:
    """Seeded bit-flip channels with repetition codes, and the two-qutrit unitary
    (nine evenly spaced eigenvalues from phase 0) in a random eigenbasis."""
    os.makedirs(workdir, exist_ok=True)
    rng = inputs.rng_for(seed, 4)
    files = {}
    for nq in (6, 7):
        chan, _ = inputs.pauli_noise("bitflip", nq, rng)
        files[f"bitflip{nq}.json"] = chan.to_json()
        files[f"repetition{nq}.json"] = inputs.repetition_code(nq).to_json()
    u = inputs.unitary_with_phases(inputs.TWO_PI * np.arange(9) / 9, rng)
    files["qutrit.json"] = serialization.matrix_to_json(u)
    for name, obj in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(serialization.dumps(obj))


def _argv(command, workdir: str, svg: str) -> list[str]:
    return [svg if a == SVG_MARK else os.path.join(workdir, a) if a.endswith(".json") else a
            for a in command]


def expected_outputs(workdir: str) -> list[tuple[int, str, str | None]]:
    """(exit code, stdout, SVG) of each command, from in-process cli.main."""
    svg = os.path.join(workdir, "expected.svg")
    out = []
    for command in CLI_ROUND:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(_argv(command, workdir, svg))
        want = QUTRIT_EXIT if command == ("reproduce", "qutrit") else 0
        if code != want:
            raise RuntimeError(f"in-process {' '.join(command)} exited {code}, expected {want}")
        out.append((code, buf.getvalue(), _read(svg) if SVG_MARK in command else None))
    return out


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def child_round(workdir: str, src: str, expected) -> list[Request]:
    svg = os.path.join(workdir, "child.svg")
    env = child_env(src)
    requests = []
    for command, (want_code, want_out, want_svg) in zip(CLI_ROUND, expected):
        argv = [sys.executable, "-m", "qecentropy.cli", *_argv(command, workdir, svg)]

        def run(tr, argv=argv, draws_svg=SVG_MARK in command):
            if draws_svg and os.path.exists(svg):
                os.remove(svg)  # so a child that writes no SVG cannot pass on an earlier one
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=False,
                                  timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout, _read(svg) if draws_svg else None

        def check(out, want=(want_code, want_out, want_svg)):
            if out[0] != want[0]:
                return f"exit code {out[0]}, expected {want[0]}"
            if out[1] != want[1]:
                return "stdout differs from the in-process result"
            if out[2] != want[2]:
                return "SVG differs from the in-process result"
            return None

        requests.append(Request("cli " + " ".join(command), run, check))
    return requests


# In-process replay ----------------------------------------------------------


def _parse(tr, path: str, from_json):
    with tr.span("serialization.parse"):
        text = _read(path)
        tr.count("serialization.bytes_in", len(text))
        return from_json(json.loads(text))


def _emit(tr, report) -> str:
    with tr.span("serialization.dumps"):
        text = serialization.dumps(report, indent=2) + "\n"
    tr.count("serialization.bytes_out", len(text))
    return text


def replay(tr, command, workdir: str) -> tuple[int, str, str | None]:
    """Run one command in-process through the public calls the CLI makes.

    The CSV cells and the catalog instance JSON come from the CLI's own
    formatting helpers, so the replay's stdout is the CLI's by construction."""
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    head = command[0]
    if head == "reproduce":
        inst = tr.call("catalog.all_instances", catalog.all_instances)[command[1]]
        rows = tr.call("catalog.evaluate_instance", catalog.evaluate_instance, inst)
        lines = ["quantity,expected,computed,abs_error,tolerance,pass"]
        lines += [",".join([r["quantity"], *(cli._csv_value(r[key]) for key in
                            ("expected", "computed", "abs_error", "tolerance", "passed"))])
                  for r in rows]
        return (0 if all(r["passed"] for r in rows) else QUTRIT_EXIT), "\n".join(lines) + "\n", None
    if head == "catalog":
        instances = tr.call("catalog.all_instances", catalog.all_instances)
        if command[1] == "list":
            return 0, _emit(tr, sorted(instances)), None
        report = tr.call("serialization.to_json", cli._instance_json, instances[command[2]])
        return 0, _emit(tr, report), None
    if head == "channel":
        chan = _parse(tr, path(command[2]), channel_from_json)
        tr.call("channel.validate_channel", validate_channel, chan)
        gram = tr.call("channel.choi_gram", choi_gram, chan)
        report = {"dim": chan.dim, "num_kraus": chan.num_kraus,
                  "choi_gram_spectrum": [float(w) for w in gram.weights], "choi_rank": gram.choi_rank}
        return 0, _emit(tr, report), None
    if head == "code":
        chan = _parse(tr, path(command[2]), channel_from_json)
        code = _parse(tr, path(command[3]), code_from_json)
        if command[1] == "analyze":
            result = tr.call("code.classify_code", classify_code, chan, code)
            report = tr.call("serialization.to_json", result.to_json)
        else:
            rec = tr.call("code.build_recovery", build_recovery, chan, code)
            report = tr.call("serialization.to_json",
                             lambda: {"channel": rec.channel.to_json(), "residual": rec.residual})
        return 0, _emit(tr, report), None
    u = _parse(tr, path(command[1]), serialization.matrix_from_json)
    k = int(command[2])
    region = tr.call("binary_unitary.numerical_range", numerical_range, u, k)
    if head == "numrange":
        text = _emit(tr, tr.call("serialization.to_json", region.to_json))
        dec = tr.call("numerics.unitary_eigen", unitary_eigen, u)
        hulls = tr.call("binary_unitary.constituent_hulls", constituent_hulls, u, k)
        svg = tr.call("cli.render_region_svg", cli.render_region_svg, region, dec.eigenvalues, hulls)
        tr.count("binary_unitary.constituent_hulls.hulls", len(hulls))
        tr.count("cli.render_region_svg.bytes_out", len(svg))
        return 0, text, svg
    p = float(command[3])
    lam = tr.call("binary_unitary.extremal_lambda", extremal_lambda, region).min_entropy_lambdas[0]
    built = tr.call("binary_unitary.grouping_code", grouping_code, u, k, lam)
    binary = BinaryUnitaryChannel(p, u).to_channel()
    lam_matrix, residual = tr.call("code.kl_check", kl_check, binary, built.code)
    entropy = tr.call("binary_unitary.biunitary_code_entropy", biunitary_code_entropy, p, lam)
    report = tr.call("serialization.to_json", lambda: {
        "lambda": serialization.complex_to_json(lam),
        "entropy_bits": entropy,
        "kl_residual": residual,
        "lambda_spectrum": [float(x) for x in lam_matrix.spectrum],
        "partition": [list(g) for g in built.partition],
        "weights": [list(w) for w in built.weights],
        "code": built.code.to_json(),
    })
    return 0, _emit(tr, report), None


def replay_round(workdir: str, expected) -> list[Request]:
    requests = []
    for command, want in zip(CLI_ROUND, expected):
        def run(tr, command=command):
            return replay(tr, command, workdir)

        def check(out, want=want):
            return None if out == want else "in-process replay differs from cli.main"

        requests.append(Request("replay " + " ".join(command), run, check))
    return requests
