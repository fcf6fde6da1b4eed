import hashlib
import json
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import qecentropy
from qecentropy import catalog, cli, code_subspace, pauli_channel, serialization
from qecentropy.channel import channel, validate_channel
from qecentropy.cli import main
from qecentropy.numerics import DEFAULT_TOL

U4 = np.diag(np.exp(1j * np.pi * np.array([1, 3, 5, 7]) / 4))
U9 = np.diag(np.exp(2j * np.pi * np.arange(9) / 9))


@pytest.fixture
def files(tmp_path):
    inst = catalog.table1_instances()
    paths = {}

    def write(name, obj):
        path = tmp_path / name
        path.write_text(serialization.dumps(obj))
        paths[name] = str(path)

    write("chan.json", inst.channel.to_json())
    write("code1.json", inst.code("code1").to_json())
    write("u4.json", serialization.matrix_to_json(U4))
    write("u9.json", serialization.matrix_to_json(U9))
    e = np.eye(8)
    write("bad.json", code_subspace([e[0], e[4]]).to_json())
    paths["dir"] = str(tmp_path)
    return paths


def test_channel_info(files, capsys):
    assert main(["channel", "info", files["chan.json"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == 8 and report["choi_rank"] == 3


def test_code_analyze_and_exit_codes(files, capsys):
    assert main(["code", "analyze", files["chan.json"], files["code1.json"],
                 "--sigma-samples", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "NonDegenerate"
    assert abs(report["entropy_bits"] - np.log2(3)) < 1e-9
    assert report["sigma_matches_lambda"] is True
    # Non-code subspace: exit 2 with residual diagnostics on stderr.
    assert main(["code", "analyze", files["chan.json"], files["bad.json"]]) == 2
    err = capsys.readouterr().err
    assert "residual" in err
    # Missing file: exit 1.
    assert main(["code", "analyze", files["dir"] + "/nope.json", files["code1.json"]]) == 1


def test_code_analyze_with_sigma_samples_runs_one_analysis(files, capsys, monkeypatch):
    from qecentropy import code as code_module

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return validate_channel(*args, **kwargs)

    monkeypatch.setattr(code_module, "validate_channel", counting)
    assert main(["code", "analyze", files["chan.json"], files["code1.json"],
                 "--sigma-samples", "3", "--seed", "7"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["sigma_matches_lambda"] is True


def test_code_analyze_rank_one_codes(tmp_path, capsys):
    # Rank-one Lambda takes the decoherence-free test, whose verdict must
    # serialize as a JSON boolean either way.
    flip = channel([np.kron([[0, 1], [1, 0]], np.eye(2))])
    cases = [(catalog.all_instances()[name].channel, catalog.all_instances()[name].code(label), cls)
             for name, label, cls in (("table1", "code3", "DecoherenceFree"),
                                      ("pauli-zz", "plus-eigenspace", "DecoherenceFree"))]
    cases.append((flip, code_subspace(np.eye(4)[:2]), "UnitarilyCorrectable"))
    for chan, code, cls in cases:
        chan_path, code_path = tmp_path / "chan.json", tmp_path / "code.json"
        chan_path.write_text(serialization.dumps(chan.to_json()))
        code_path.write_text(serialization.dumps(code.to_json()))
        assert main(["code", "analyze", str(chan_path), str(code_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == cls and report["lambda_rank"] == 1
        assert report["decoherence_free"] is (cls == "DecoherenceFree")


def test_code_analyze_prints_a_pure_lambda_entropy_as_0(tmp_path, capsys):
    # Lambda of a unitary channel is pure: its entropy printed as -0, and the
    # pauli-zz code's as -3.2e-16, before the entropy was clamped at 0.
    pauli = catalog.all_instances()["pauli-zz"]
    cases = [(channel([np.eye(2)]), code_subspace(np.eye(2))),
             (pauli.channel, pauli.code("plus-eigenspace"))]
    for chan, code in cases:
        chan_path, code_path = tmp_path / "chan.json", tmp_path / "code.json"
        chan_path.write_text(serialization.dumps(chan.to_json()))
        code_path.write_text(serialization.dumps(code.to_json()))
        assert main(["code", "analyze", str(chan_path), str(code_path)]) == 0
        assert '\n  "entropy_bits": 0,\n' in capsys.readouterr().out


BIG_INT = "1" + "0" * 400  # a JSON integer too large for a float
DEEP_JSON = "[" * 100000 + "]" * 100000  # nested past json.load's recursion limit


@pytest.mark.parametrize("command, obj", [
    ("channel", {"dim": 1, "kraus": 5}),
    ("channel", {"dim": 1, "kraus": [{"rows": 1, "cols": 1, "data": 5}]}),
    ("channel", {"dim": 1, "kraus": [{"rows": 1, "cols": 1, "data": [[None, 1]]}]}),
    ("code", {"dim": 8, "basis": 5}),
    ("code", {"dim": 8, "basis": [{"dim": 8, "data": 5}]}),
    # JSON 1e400 parses as infinity, which int() cannot convert.
    ("channel", '{"dim": 1, "kraus": [{"rows": 1e400, "cols": 1, "data": [[1, 0]]}]}'),
    ("channel", '{"dim": 1, "kraus": [{"rows": 1, "cols": 1.5, "data": [[1, 0]]}]}'),
    ("channel", '{"dim": 1e400, "kraus": [{"rows": 1, "cols": 1, "data": [[1, 0]]}]}'),
    ("channel", '{"dim": 1, "kraus": [{"rows": 1, "cols": 1, "data": [[%s, 0]]}]}' % BIG_INT),
    ("code", '{"dim": 1e400, "basis": [{"dim": 8, "data": []}]}'),
    ("code", '{"dim": 8, "basis": [{"dim": 1e400, "data": []}]}'),
    ("channel", DEEP_JSON),
    ("channel", {"dim": 1, "kraus": [{"rows": 0, "cols": 1, "data": []}]}),
    ("channel", {"dim": 1, "kraus": []}),
    ("channel", {"dim": 2, "kraus": [{"rows": 1, "cols": 1, "data": [[1, 0]]}]}),
    ("code", {"dim": 8, "basis": [{"dim": 4, "data": [[1, 0]] + [[0, 0]] * 3}]}),
], ids=["kraus-not-a-list", "data-not-a-list", "null-component",
        "basis-not-a-list", "vector-data-not-a-list", "matrix-rows-infinite",
        "matrix-cols-fractional", "channel-dim-infinite", "component-too-large",
        "code-dim-infinite", "vector-dim-infinite", "nested-too-deeply",
        "matrix-rows-zero", "kraus-empty", "channel-dim-mismatch", "vector-dim-mismatch"])
def test_malformed_json_gives_one_error_line(files, tmp_path, capsys, command, obj):
    bad = tmp_path / "malformed.json"
    bad.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    if command == "channel":
        argv = ["channel", "info", str(bad)]
    else:
        argv = ["code", "analyze", files["chan.json"], str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("dim", [8, 0])
def test_an_empty_code_basis_gives_its_own_error_line(files, tmp_path, capsys, dim):
    # np.column_stack's "need at least one array to concatenate" used to leak out.
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dim": dim, "basis": []}))
    assert main(["code", "analyze", files["chan.json"], str(empty)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: code basis must hold at least one vector\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_inputs_fail_their_validity_checks(files, tmp_path, capsys):
    # An entry 1e300(1 + i) squares to inf - inf = nan in the Gram products,
    # and a nan residual must fail the orthonormality and trace checks.
    big = [1e300, 1e300]
    code_path, chan_path = tmp_path / "big_code.json", tmp_path / "big_chan.json"
    code_path.write_text(json.dumps({"dim": 8, "basis": [{"dim": 8, "data": [big] + [[0, 0]] * 7}]}))
    chan_path.write_text(json.dumps({"dim": 1, "kraus": [{"rows": 1, "cols": 1, "data": [big]}]}))
    for argv, message in ((["code", "recovery", files["chan.json"], str(code_path)], "orthonormal"),
                          (["channel", "info", str(chan_path)], "not trace preserving")):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_an_overflowing_channel_prints_one_error_line(tmp_path):
    # Run as a program, so that numpy's own warnings, which pytest would
    # capture, reach stderr too.
    chan_path = tmp_path / "big_chan.json"
    chan_path.write_text(json.dumps({"dim": 1, "kraus": [{"rows": 1, "cols": 1, "data": [[1e300, 1e300]]}]}))
    src = str(pathlib.Path(qecentropy.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "qecentropy.cli", "channel", "info", str(chan_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: "), done.stderr


def test_code_recovery(files, capsys):
    assert main(["code", "recovery", files["chan.json"], files["code1.json"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residual"] <= 1e-6


# SHA-256 of `code recovery chan.json CODE.json` stdout for the table1
# channel, as written when the recovery was built through ``channel`` and
# verified with the channel's compressions formed again.
RECOVERY_SHA256 = {
    "code1": "a77287982b348348f14cfd41b4b683a2810ef1007abf866837909c602ca08e68",
    "code3": "ccf85841176858a1374e278ec0ca48f776c8fd46462884f090446aa39d658d48",
}


@pytest.mark.parametrize("label", sorted(RECOVERY_SHA256))
def test_code_recovery_is_byte_stable(files, tmp_path, capsys, label):
    code_path = tmp_path / f"{label}.json"
    code_path.write_text(serialization.dumps(catalog.table1_instances().code(label).to_json()))
    assert main(["code", "recovery", files["chan.json"], str(code_path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == RECOVERY_SHA256[label]


def _bitflip_pair(nq, seed):
    """A seeded channel of single-qubit X errors on nq qubits (identity weight
    in [0.5, 0.9]) and the repetition code |0...0>, |1...1>."""
    rng = np.random.default_rng(seed)
    words = ["I" * nq] + ["I" * i + "X" + "I" * (nq - i - 1) for i in range(nq)]
    w0 = rng.uniform(0.5, 0.9)
    chan = pauli_channel(zip([w0, *((1 - w0) * rng.dirichlet(np.ones(nq)))], words))
    e = np.eye(2 ** nq)
    return chan, code_subspace([e[0], e[-1]])


def test_a_six_qubit_recovery_is_byte_stable(tmp_path, capsys):
    # About 1.8 MB of [re, im] entries, the bulk of which the writer formats in one go.
    chan, code = _bitflip_pair(6, 6)
    chan_path, code_path = tmp_path / "bitflip6.json", tmp_path / "repetition6.json"
    chan_path.write_text(serialization.dumps(chan.to_json()))
    code_path.write_text(serialization.dumps(code.to_json()))
    assert main(["code", "recovery", str(chan_path), str(code_path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "3f4faf5a9494f859c048ff46c79db6275c605e570a6eead836e0612b58d00969"


# SHA-256 of `catalog get NAME` stdout for each catalog instance.
CATALOG_SHA256 = {
    "example33": "14146a7f1d24f8a052f21e11735916e529f3e4bb3a174cf7623748c45da866a6",
    "pauli-zz": "8fda68f09a84586d77d299b6f9a120565ad945b38e565ea7d548028e86018bfb",
    "qutrit": "31a1327f1ce57847a70fa97ab872737ad0b8bcf4d85d336ea6ad2770f0b6385b",
    "stabilizer": "4b4489ccac02ea194cd39c5cecfde6f69f7a178076fe2b0385f22cac735299e1",
    "table1": "488c8318b3c540fc962da1a065c2e7ddf0a4d20d8be72cf4bd9eb33b146c7b55",
}


def test_catalog_pins_cover_every_instance():
    assert sorted(CATALOG_SHA256) == sorted(catalog.all_instances())


@pytest.mark.parametrize("name", sorted(CATALOG_SHA256))
def test_catalog_get_is_byte_stable(capsys, name):
    assert main(["catalog", "get", name]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CATALOG_SHA256[name]


@pytest.mark.parametrize("part", ['"1"', '"1.5"', "true"])
def test_string_and_boolean_components_are_refused(files, tmp_path, capsys, part):
    # Each file is valid with the component written as 1 instead.
    chan_path, code_path = tmp_path / "chan.json", tmp_path / "code.json"
    chan_path.write_text('{"dim": 1, "kraus": [{"rows": 1, "cols": 1, "data": [[%s, 0]]}]}' % part)
    code_path.write_text('{"dim": 8, "basis": [{"dim": 8, "data": [[%s, 0]%s]}]}' % (part, ", [0, 0]" * 7))
    for argv in (["channel", "info", str(chan_path)],
                 ["code", "analyze", files["chan.json"], str(code_path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: complex value components must be numbers\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_recovery_exits_1(files, capsys, monkeypatch, bad):
    # Compressions with a non-finite entry give a non-finite recovery, which
    # the trace-preservation check refuses before anything is printed.
    from qecentropy import code as code_module

    analysed = code_module._analysed

    def spoiled(c, code, tol):
        compressed, *rest = analysed(c, code, tol)
        compressed = compressed.copy()
        compressed[0, 0, 0] = bad
        return compressed, *rest

    monkeypatch.setattr(code_module, "_analysed", spoiled)
    assert main(["code", "recovery", files["chan.json"], files["code1.json"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert "not trace preserving" in captured.err


def test_numrange_json_and_svg(files, tmp_path, capsys):
    svg_path = str(tmp_path / "fig.svg")
    assert main(["numrange", files["u9.json"], "3", "--svg", svg_path, "--hulls"]) == 0
    region = json.loads(capsys.readouterr().out)
    assert region["kind"] == "Polygon"

    root = ET.parse(svg_path).getroot()  # valid XML by construction
    assert root.tag.endswith("svg")
    size = float(root.get("width"))
    polys = [el for el in root.iter() if el.get("class") == "region"]
    assert len(polys) == 1
    pairs = [tuple(map(float, p.split(","))) for p in polys[0].get("points").split()]
    # Invert the documented viewport transform and compare with the JSON.
    for (x, y), (re, im) in zip(pairs, region["vertices"]):
        assert abs((x - size / 2) / (0.45 * size) - re) < 1e-6
        assert abs((size / 2 - y) / (0.45 * size) - im) < 1e-6
    eig_dots = [el for el in root.iter() if el.get("class") == "eigenvalue"]
    assert len(eig_dots) == 9
    assert any(el.get("class") == "hull" for el in root.iter())


def test_numrange_svg_decomposes_once(files, tmp_path, capsys, analysis_counts):
    from qecentropy import binary_unitary, cli, numerics

    u = serialization.matrix_from_json(json.loads(pathlib.Path(files["u9.json"]).read_text()))
    region = binary_unitary.numerical_range(u, 3)
    expected = cli.render_region_svg(region, numerics.unitary_eigen(u).eigenvalues,
                                     binary_unitary.constituent_hulls(u, 3), size=300)
    svg_path = tmp_path / "fig.svg"
    # The calls above left this U in the memo and in the counts; the command
    # must start from neither.
    numerics._eigen_memo.last = None
    eigen_calls, range_ks = analysis_counts
    eigen_calls.clear()
    range_ks.clear()
    assert main(["numrange", files["u9.json"], "3", "--svg", str(svg_path),
                 "--hulls", "--size", "300"]) == 0
    assert len(eigen_calls) == 1 and range_ks == [3]
    assert json.loads(capsys.readouterr().out) == json.loads(serialization.dumps(region.to_json()))
    assert svg_path.read_text(encoding="utf-8") == expected


def test_numrange_svg_builds_representatives_once_and_splits_clusters_by_size(tmp_path, capsys, monkeypatch):
    import functools

    from qecentropy import numerics
    from qecentropy.sampling import haar_unitary

    # Clusters of sizes 2, 2 and 3 and two single eigenvalues, whose real
    # parts are all distinct: the Hermitian part has the same clusters.
    phases = np.array([0.3, 0.3, 1.1, 1.1, 1.1, 2.0, 2.6, 2.6, 4.0])
    q = haar_unitary(len(phases), np.random.default_rng(31))
    u_path, svg_path = tmp_path / "u.json", tmp_path / "fig.svg"
    u_path.write_text(serialization.dumps(serialization.matrix_to_json((q * np.exp(1j * phases)) @ q.conj().T)))
    eighs, builds = [], []
    eigh, build = np.linalg.eigh, numerics.EigenDecomposition._representatives.func

    def counting_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def counting_build(dec):
        builds.append(dec)
        return build(dec)

    representatives = functools.cached_property(counting_build)
    representatives.__set_name__(numerics.EigenDecomposition, "_representatives")
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(numerics.EigenDecomposition, "_representatives", representatives)
    assert main(["numrange", str(u_path), "3", "--svg", str(svg_path), "--hulls"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "Polygon"
    # One build, read by the range and the hulls; one eigh of the Hermitian
    # part, then one stacked eigh per cluster size: two clusters of 2, one of 3.
    assert len(builds) == 1
    assert eighs[0] == (9, 9) and sorted(eighs[1:]) == [(1, 3, 3), (2, 2, 2)]


# SHA-256 of `numrange u9.json K --svg FILE --hulls` for the qutrit unitary,
# as written when each run hull was still built by a hull algorithm and the
# range re-hulled after every clip; k = 2 taken again when clip_halfplane
# began clamping each cut to its edge, which moves one vertex by 1.1e-16.
QUTRIT_SVG_SHA256 = {
    1: "1cf67bc5c1c8bac3f9b960869de1fb3b07a3e9d1e3f33849de6c817075c9d9db",
    2: "7cc0f92cbd4d4a703476dff7773283a4d2b216256a11fefd04a19974e99c0dda",
    3: "3c868adbd100767658f8a5619928b34a42435f0c572d1764f77e4ebc4f4dc111",
    4: "6434a789d11379d92b732119655278e20cfb5b01d3a6aa0465eb199598419573",
    5: "0afaee99773d5f92e7568b1b9dfd428ea15f8c435821e9194e2b19a8031e94e1",
}


@pytest.mark.parametrize("k", sorted(QUTRIT_SVG_SHA256))
def test_numrange_svg_with_hulls_is_byte_stable(files, tmp_path, capsys, k):
    svg_path = tmp_path / "fig.svg"
    assert main(["numrange", files["u9.json"], str(k), "--svg", str(svg_path), "--hulls"]) == 0
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == QUTRIT_SVG_SHA256[k]


# SHA-256 of `numrange U.json K --svg FILE --hulls` for the shapes the qutrit
# pins above leave out: two-point hulls drawn as lines (qutrit, k = 8, an
# empty range), a Point region and a Segment region, each drawn by its own
# f-string when these digests were taken.
SHAPE_SVG_SHA256 = {
    "hull-lines": (U9, 8, "0b247180001a0e95ffca69137f76bf371867bea1692d09d770c5ad437c156115"),
    "point": (np.diag([1, 1, 1, -1]), 2, "81e51a67c69dba2aa0b20b0c670b31264cc1bf2f16d0aec58b817541898383e4"),
    "segment": (np.diag([1, 1, -1, -1]), 2, "3b997b77693cfcac33f597987d2d8ead4168b4a2f24da973b18f7aadfd3a3e3b"),
}


@pytest.mark.parametrize("shape", sorted(SHAPE_SVG_SHA256))
def test_numrange_svg_shapes_are_byte_stable(tmp_path, capsys, shape):
    u, k, digest = SHAPE_SVG_SHA256[shape]
    u_path, svg_path = tmp_path / "u.json", tmp_path / "fig.svg"
    u_path.write_text(serialization.dumps(serialization.matrix_to_json(u)))
    assert main(["numrange", str(u_path), str(k), "--svg", str(svg_path), "--hulls"]) == 0
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == digest


# Byte-for-byte oracle for render_region_svg: every point of every shape
# formatted on its own, as the figure was drawn before points were shared.


def _svg_point_reference(z, size):
    scale = 0.45 * size
    return size / 2 + scale * z.real, size / 2 - scale * z.imag


def _svg_shape_reference(cls, zs, size, polygon="", line="", dot=""):
    points = (_svg_point_reference(z, size) for z in np.asarray(zs, dtype=complex).tolist())
    xy = [(serialization.format_float(x), serialization.format_float(y)) for x, y in points]
    if len(xy) >= 3 and polygon:
        coords = " ".join(f"{x},{y}" for x, y in xy)
        return [f'<polygon class="{cls}" points="{coords}" {polygon}/>']
    if len(xy) == 2 and line:
        (x1, y1), (x2, y2) = xy
        return [f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {line}/>']
    if len(xy) == 1 and dot:
        return [f'<circle class="{cls}" cx="{xy[0][0]}" cy="{xy[0][1]}" {dot}/>']
    return []


def _render_region_svg_reference(region, eigenvalues, hulls=None, size=600):
    s = float(size)
    cx, cy = _svg_point_reference(0.0, s)
    fmt = serialization.format_float
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(0.45 * s)}" fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    dashed = 'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"'
    for hull in hulls or []:
        parts += _svg_shape_reference("hull", hull, s, polygon=f'fill="none" {dashed}', line=dashed)
    parts += _svg_shape_reference(
        "region", region.vertices, s,
        polygon='fill="#6699cc" fill-opacity="0.5" stroke="#336699" stroke-width="1.5"',
        line='stroke="#336699" stroke-width="2"', dot='r="4" fill="#336699"')
    for z in eigenvalues:
        parts += _svg_shape_reference("eigenvalue", [z], s, dot='r="3" fill="black"')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("family", ["random", "even", "repeated"])
def test_render_region_svg_matches_the_per_point_reference(family):
    from qecentropy.binary_unitary import _analysed_range, constituent_hulls
    from qecentropy.sampling import haar_unitary

    rng = np.random.default_rng(1630 + ["random", "even", "repeated"].index(family))
    for _ in range(4):
        n = 16
        if family == "random":
            phases = rng.uniform(0, 2 * np.pi, n)
        elif family == "even":
            phases = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(n) / n
        else:
            # 5 to 10 distinct eigenvalues, some repeated: the hulls share
            # the cluster means, and the region's vertices are among them.
            base = rng.uniform(0, 2 * np.pi, int(rng.integers(5, 11)))
            phases = np.concatenate([base, base[rng.integers(0, len(base), n - len(base))]])
        q = haar_unitary(n, rng)
        u = (q * np.exp(1j * phases)) @ q.conj().T
        for k in (2, 3):
            dec, region = _analysed_range(u, k, DEFAULT_TOL)
            hulls = constituent_hulls(u, k)
            for args in [(hulls,), (hulls, 300), (None,), ([h[:2] for h in hulls[:3]], 17)]:
                expected = _render_region_svg_reference(region, dec.eigenvalues, *args)
                assert cli.render_region_svg(region, dec.eigenvalues, *args) == expected, (family, k)


def test_numrange_rejects_nonpositive_svg_size(files, tmp_path, capsys):
    svg_path = tmp_path / "fig.svg"
    assert main(["numrange", files["u9.json"], "3", "--svg", str(svg_path), "--size", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not svg_path.exists()
    assert captured.err.count("error:") == 1 and "--size" in captured.err


def test_code_analyze_rejects_negative_sigma_samples(files, capsys):
    assert main(["code", "analyze", files["chan.json"], files["code1.json"], "--sigma-samples", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "--sigma-samples" in captured.err


def test_numrange_deterministic_output(files, capsys):
    assert main(["numrange", files["u4.json"], "2"]) == 0
    first = capsys.readouterr().out
    assert main(["numrange", files["u4.json"], "2"]) == 0
    assert capsys.readouterr().out == first


def test_min_entropy_code(files, capsys):
    assert main(["min-entropy-code", files["u4.json"], "2", "0.01"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["entropy_bits"] - 0.081) < 5e-4
    assert report["kl_residual"] <= 1e-8
    # k does not divide N: unsupported.
    assert main(["min-entropy-code", files["u9.json"], "2", "0.01"]) == 3
    capsys.readouterr()
    # Empty region: no code exists.
    assert main(["min-entropy-code", files["u4.json"], "4", "0.01"]) == 2


def test_min_entropy_code_decomposes_once(files, capsys, analysis_counts):
    from qecentropy import binary_unitary, numerics

    u = serialization.matrix_from_json(json.loads(pathlib.Path(files["u9.json"]).read_text()))
    lam = binary_unitary.extremal_lambda(binary_unitary.numerical_range(u, 3)).min_entropy_lambdas[0]
    built = binary_unitary.grouping_code(u, 3, lam)
    # The calls above left this U in the memo and in the counts; the command
    # must start from neither.
    numerics._eigen_memo.last = None
    eigen_calls, range_ks = analysis_counts
    eigen_calls.clear()
    range_ks.clear()
    assert main(["min-entropy-code", files["u9.json"], "3", "0.01"]) == 0
    assert len(eigen_calls) == 1 and range_ks == [3]
    # 17-digit floats round-trip, so equal parsed values mean equal bytes.
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == serialization.complex_to_json(lam)
    assert report["partition"] == [list(g) for g in built.partition]
    assert report["weights"] == [list(w) for w in built.weights]
    assert report["code"] == json.loads(serialization.dumps(built.code.to_json()))


# The qutrit's minimum-entropy code, grouped by interleaving around lambda:
# group j holds the eigenstates j, j+3, j+6 of the angle order.  lambda and
# entropy_bits are the values printed when the groups came from packing a
# table of minimal supports, as ((0, 1, 5), (2, 3, 6), (4, 7, 8)); the
# grouping changes the code, never lambda or the entropy.
QUTRIT_LAMBDA = [-0.5000000000000001, -0.181985117133101]
QUTRIT_ENTROPY_BITS = {"0.01": 0.06122972048451543, "0.1": 0.3634008513591858,
                       "0.25": 0.6343632602291478, "0.4": 0.7616392100950833}
QUTRIT_PARTITION = [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
QUTRIT_WEIGHTS = [[0.0, 0.39493084363469855, 0.6050691563653015],
                  [0.0, 0.6050691563653016, 0.39493084363469844],
                  [0.15597037125401458, 0.6880592574919707, 0.15597037125401472]]


@pytest.mark.parametrize("p", sorted(QUTRIT_ENTROPY_BITS))
def test_qutrit_min_entropy_code_groups_by_interleaving(files, capsys, p):
    assert main(["min-entropy-code", files["u9.json"], "3", p]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["partition"] == QUTRIT_PARTITION
    assert report["weights"] == QUTRIT_WEIGHTS
    assert report["lambda"] == QUTRIT_LAMBDA
    assert report["entropy_bits"] == QUTRIT_ENTROPY_BITS[p]


# SHA-256 of stdout for the qutrit unitary, at the p values of the benchmark's
# CLI workload; the library calls that the decompose-once tests compare with
# would change along with the command, these would not.
QUTRIT_STDOUT_SHA256 = {
    ("min-entropy-code", "3", "0.01"): "b81d7151903d745f433c8229f6d48f0c8bf911e3e0ce0c7305fe70d56e819355",
    ("min-entropy-code", "3", "0.1"): "5474972151c02cfc53675900b451548b41166d0ef95f03b992a5eee28191f52c",
    ("min-entropy-code", "3", "0.25"): "2b8b4cd296d028712aa146d393accbd417432d35c82730695bed117165644995",
    ("min-entropy-code", "3", "0.4"): "7880981cba50524436bd7191706a1edd7ab92011cf435d10b94221de2589f882",
    ("entropy-vs-p", "3", "--lam", "0,0", "--p-steps", "5"):
        "a3a3038add37d91dfe04cf310aa759499baa8b6758a6dd4a4e91d34e751b0493",
}


@pytest.mark.parametrize("args", sorted(QUTRIT_STDOUT_SHA256), ids=" ".join)
def test_binary_unitary_commands_are_byte_stable(files, capsys, args):
    command, *rest = args
    assert main([command, files["u9.json"], *rest]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == QUTRIT_STDOUT_SHA256[args]


@pytest.mark.parametrize("matrix, message", [
    (np.diag([1, 1, 1, 1.1]), "not unitary"),
    (np.ones((2, 3)), "must be square"),
], ids=["not-unitary", "not-square"])
@pytest.mark.parametrize("command", [
    ["numrange", "2"],
    ["entropy-vs-p", "2", "--lam", "0"],
    ["min-entropy-code", "2", "0.1"],
], ids=lambda argv: argv[0])
def test_unitary_commands_reject_a_non_unitary_matrix(tmp_path, capsys, command, matrix, message):
    u_path = tmp_path / "u.json"
    u_path.write_text(serialization.dumps(serialization.matrix_to_json(matrix)))
    assert main([command[0], str(u_path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert message in captured.err


def test_min_entropy_code_checks_unitarity_under_the_tolerances(tmp_path, capsys):
    # Unitary to 3e-7: rejected at the default eps_eig, accepted at 1e-7.
    u_path, tol_path = tmp_path / "u.json", tmp_path / "tol.json"
    u_path.write_text(serialization.dumps(serialization.matrix_to_json(
        U9 @ np.diag(1 + 1e-8 * np.arange(9)))))
    tol_path.write_text('{"eps_eig": 1e-7}')
    assert main(["min-entropy-code", str(u_path), "3", "0.1"]) == 1
    capsys.readouterr()
    assert main(["--tolerances", str(tol_path), "numrange", str(u_path), "3"]) == 0
    assert main(["--tolerances", str(tol_path), "min-entropy-code", str(u_path), "3", "0.1"]) == 0
    assert capsys.readouterr().err == ""


def test_entropy_vs_p(files, capsys):
    assert main(["entropy-vs-p", files["u4.json"], "2", "--lam", "0",
                 "--p-grid", "0,0.5,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    entropies = [pt["entropy_bits"] for pt in report["points"]]
    assert entropies == [0.0, 1.0, 0.0]


def test_entropy_vs_p_refuses_a_three_part_lambda(files, capsys):
    assert main(["entropy-vs-p", files["u4.json"], "2", "--lam", "1,2,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: complex value must be 'RE' or 'RE,IM', got '1,2,3'\n"


def test_entropy_vs_p_refuses_a_lambda_past_a_corner(tmp_path, capsys):
    # The range is the triangle of three 3-fold eigenvalues; lambda lies
    # 1.5e-9 past its vertex 1, so it is outside the range, not a lambda
    # whose modulus exceeds 1.
    u_path = tmp_path / "u.json"
    u_path.write_text(serialization.dumps(serialization.matrix_to_json(
        np.diag(np.exp(1j * np.array([0, 0, 0, 1, 1, 1, 2.5, 2.5, 2.5]))))))
    assert main(["entropy-vs-p", str(u_path), "3",
                 "--lam", "1.0000000011513153,-9.614952872449876e-10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert "not in the rank-3 numerical range" in captured.err


def test_entropy_vs_p_rejects_a_grid_point_outside_the_unit_interval(files, capsys):
    assert main(["entropy-vs-p", files["u4.json"], "2", "--lam", "0", "--p-grid", "0.5,1.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "mixing probability" in captured.err


def test_entropy_vs_p_rejects_single_step_grid(files, capsys):
    assert main(["entropy-vs-p", files["u4.json"], "2", "--lam", "0", "--p-steps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "--p-steps" in captured.err


def test_catalog_commands(files, capsys):
    assert main(["catalog", "list"]) == 0
    names = json.loads(capsys.readouterr().out)
    assert "table1" in names and names == sorted(names)
    assert main(["catalog", "get", "example33"]) == 0
    inst = json.loads(capsys.readouterr().out)
    assert inst["name"] == "example33" and inst["binary"]["p"] == 0.01
    assert main(["catalog", "get", "nonsense"]) == 1


def test_reproduce_csv_and_exit_codes(capsys):
    assert main(["reproduce", "table1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "quantity,expected,computed,abs_error,tolerance,pass"
    assert len(lines) == 8 and all(line.endswith("true") for line in lines[1:])
    assert main(["reproduce", "stabilizer"]) == 0
    capsys.readouterr()
    assert main(["reproduce", "example33"]) == 0
    capsys.readouterr()
    # The qutrit minimal-entropy reference (0.060) is derived from a rounded
    # spectrum and is unattainable at its stated tolerance; exactly that row
    # fails and the command reports a regression.
    assert main(["reproduce", "qutrit"]) == 4
    lines = capsys.readouterr().out.strip().split("\n")
    failing = [line for line in lines[1:] if line.endswith("false")]
    assert len(failing) == 1 and failing[0].startswith("min_entropy")


# SHA-256 of each table's CSV on stdout, final newline included, and the exit
# code; they guard the catalog evaluation against any change in its output.
REPRODUCE_SHA256 = {
    "table1": ("b0dd3e1e83f7bd22398c7a77cb6d27450f2f669484a4f503428929c072c5c0c3", 0),
    "stabilizer": ("3f713be08a6154f78ff3afe9971a626320470fe6dcf4400eb32ad8471bb8cc64", 0),
    "example33": ("e5a76284e88c07bd9bcc6a4b0324d5076b4fe4139c63c3898fc325eaaad29295", 0),
    "qutrit": ("a4936e0094013fb8ec43cf540aa397f9d8a7b5e4cf38e793ebaadb7bf24e264c", 4),
}


@pytest.mark.parametrize("table", sorted(REPRODUCE_SHA256))
def test_reproduce_is_byte_stable(capsys, table):
    digest, code = REPRODUCE_SHA256[table]
    assert main(["reproduce", table]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_reproduce_deterministic(capsys):
    assert main(["reproduce", "table1"]) == 0
    first = capsys.readouterr().out
    assert main(["reproduce", "table1"]) == 0
    assert capsys.readouterr().out == first


def test_tolerances_file(files, tmp_path, capsys):
    tol_path = tmp_path / "tol.json"
    tol_path.write_text('{"eps_kl": 1.0}')
    # Loose threshold turns the non-code into an accepted one: exit 0.
    assert main(["--tolerances", str(tol_path), "code", "analyze",
                 files["chan.json"], files["bad.json"]]) == 0
    capsys.readouterr()
    tol_path.write_text('{"bogus": 1}')
    assert main(["--tolerances", str(tol_path), "channel", "info",
                 files["chan.json"]]) == 1


@pytest.mark.parametrize("text", [
    '{"eps_kl": null}', '{"eps_kl": true}', '{"eps_geom": "1e-10"}', '{"eps_eig": [1e-10]}',
    '{"eps_rank": %s}' % BIG_INT, DEEP_JSON,
], ids=["null", "bool", "string", "list", "too-large", "nested-too-deeply"])
def test_tolerances_file_rejects_non_numbers(files, tmp_path, capsys, text):
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(text)
    assert main(["--tolerances", str(tol_path), "channel", "info", files["chan.json"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_rank_one_code_under_a_tiny_rank_cutoff(files, tmp_path, capsys):
    # Rounding leaves Lambda's zero eigenvalues near -1e-16, which an eps_rank
    # of 1e-300 must not turn into a "not positive semidefinite" error.
    code_path, tol_path = tmp_path / "code3.json", tmp_path / "tol.json"
    code_path.write_text(serialization.dumps(catalog.table1_instances().code("code3").to_json()))
    tol_path.write_text('{"eps_rank": 1e-300}')
    for command in ("analyze", "recovery"):
        assert main(["--tolerances", str(tol_path), "code", command, files["chan.json"],
                     str(code_path)]) == 0
        assert capsys.readouterr().err == ""


def test_tolerances_file_rejects_rank_cutoff_of_one_or_more(files, tmp_path, capsys):
    # eps_rank >= 1 would make every rank 0 and report a Choi rank of 0.
    tol_path = tmp_path / "tol.json"
    tol_path.write_text('{"eps_rank": 1e300}')
    assert main(["--tolerances", str(tol_path), "code", "analyze",
                 files["chan.json"], files["code1.json"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "eps_rank" in captured.err


def test_tolerances_environment_variable(files, tmp_path, capsys, monkeypatch):
    # The variable names a tolerance file, as --tolerances does.
    big, loose = tmp_path / "big.json", tmp_path / "loose.json"
    big.write_text('{"eps_rank": 1e300}')
    loose.write_text('{"eps_kl": 1.0}')
    analyze = ["code", "analyze", files["chan.json"], files["bad.json"]]

    def assert_one_error_line(code, *needles):
        assert main(analyze) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert all(needle in captured.err for needle in needles)

    # The variable alone applies: its rank cutoff is refused.
    monkeypatch.setenv(cli.TOLERANCES_ENV, str(big))
    assert_one_error_line(1, "eps_rank")
    # --tolerances FILE takes precedence: its eps_kl accepts the non-code.
    assert main(["--tolerances", str(loose), *analyze]) == 0
    assert json.loads(capsys.readouterr().out)["kl_residual"] > DEFAULT_TOL.eps_kl
    # An empty value means the defaults, under which the non-code exits 2.
    monkeypatch.setenv(cli.TOLERANCES_ENV, "")
    assert_one_error_line(2)
    # An unreadable path exits 1.
    monkeypatch.setenv(cli.TOLERANCES_ENV, str(tmp_path / "missing.json"))
    assert_one_error_line(1, "missing.json")


def test_code_analyze_zero_channel_under_loose_tolerance(tmp_path, capsys):
    # eps_kl = 1 accepts the 1x1 zero map as trace preserving; its Choi rank
    # is 0, which the flat-spectrum test must not divide by.
    chan_path, code_path, tol_path = (tmp_path / n for n in ("chan.json", "code.json", "tol.json"))
    chan_path.write_text('{"dim": 1, "kraus": [{"rows": 1, "cols": 1, "data": [[0, 0]]}]}')
    code_path.write_text('{"dim": 1, "basis": [{"dim": 1, "data": [[1, 0]]}]}')
    tol_path.write_text('{"eps_kl": 1.0}')
    assert main(["--tolerances", str(tol_path), "code", "analyze", str(chan_path),
                 str(code_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["choi_rank"] == 0 and report["classification"] == "PartiallyDegenerate"


@pytest.mark.parametrize("text", ['{"eps_kl": Infinity}', '{"eps_rank": -Infinity}',
                                  '{"eps_eig": NaN}'], ids=["inf", "minus-inf", "nan"])
def test_tolerances_file_rejects_non_finite_numbers(files, tmp_path, capsys, text):
    # An infinite eps_kl would accept this non-code, which exits 2 by default.
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(text)
    assert main(["--tolerances", str(tol_path), "code", "analyze",
                 files["chan.json"], files["bad.json"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


# Each leaf command on inputs it accepts (file names stand for the fixture's
# paths) and its exit code; reproduce qutrit exits 4 by design.
LEAF_COMMANDS = [
    (["channel", "info", "chan.json"], 0),
    (["code", "analyze", "chan.json", "code1.json"], 0),
    (["code", "recovery", "chan.json", "code1.json"], 0),
    (["numrange", "u9.json", "3"], 0),
    (["min-entropy-code", "u9.json", "3", "0.01"], 0),
    (["entropy-vs-p", "u9.json", "3", "--lam", "0,0", "--p-steps", "5"], 0),
    (["catalog", "list"], 0),
    (["catalog", "get", "example33"], 0),
    (["reproduce", "qutrit"], 4),
]


def test_output_to_file(files, tmp_path, capsys):
    out = tmp_path / "report.out"
    for argv, code in LEAF_COMMANDS:
        argv = [files.get(arg, arg) for arg in argv]
        assert main(argv) == code
        stdout = capsys.readouterr().out
        assert main([*argv, "--output", str(out)]) == code, argv
        assert capsys.readouterr().out == ""
        # The file holds the report without print's final newline.
        assert stdout.endswith("\n") and out.read_text(encoding="utf-8") == stdout[:-1], argv


@pytest.mark.parametrize("leaf", [argv[:2] if argv[0] in ("channel", "code", "catalog") else argv[:1]
                                  for argv, _ in LEAF_COMMANDS], ids=" ".join)
def test_help_lists_output_last(capsys, leaf):
    with pytest.raises(SystemExit) as exc:
        main([*leaf, "--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("\noptions:\n")[1].split("\n\n")[0]
    flags = [line.split()[0] for line in options.splitlines() if line.startswith("  -")]
    assert flags[-1] == "--output" and flags.count("--output") == 1


def test_svg_help_prints_one_percent_sign(capsys):
    # argparse %-formats a help text only where it holds a %(...)s field, so
    # the epilog is written with a plain "5%".
    for argv in (["--help"], ["numrange", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        out = capsys.readouterr().out
        assert "5% margin" in " ".join(out.split()) and "%%" not in out, argv


# Four pairs of near twins 1e-7 apart.  The exact rank-4 range of these float
# eigenvalues is empty: opposite runs pin it to the chords z0z4, z1z5, z2z6
# and z3z7, which do not meet in one point.
NEAR_TWIN_PHASES = [3.0190422255055376, 3.0190423255055374, 4.285706209815834, 4.285706309815835,
                    4.647611914951474, 4.647612014951474, 4.911766053139357, 4.911766153139357]


def test_near_twin_spectrum_has_an_empty_rank_4_range(tmp_path, capsys):
    u = np.diag(np.exp(1j * np.array(NEAR_TWIN_PHASES)))
    path = tmp_path / "u.json"
    path.write_text(serialization.dumps(serialization.matrix_to_json(u)))
    code = main(["min-entropy-code", str(path), "4", "0.1"])
    err = capsys.readouterr().err
    assert not (code == 2 and "no size-2 eigenstate partition" in err), err
    assert qecentropy.numerical_range(u, 4).kind is qecentropy.RegionKind.EMPTY
