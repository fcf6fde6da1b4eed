import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qecentropy import catalog, serialization
from qecentropy.channel import unitary_channel, validate_channel
from qecentropy.cli import main
from qecentropy.code import span_code

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
    write("bad.json", span_code([e[0], e[4]]).to_json())
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
    flip = unitary_channel(np.kron([[0, 1], [1, 0]], np.eye(2)))
    cases = [(catalog.all_instances()[name].channel, catalog.all_instances()[name].code(label), cls)
             for name, label, cls in (("table1", "code3", "DecoherenceFree"),
                                      ("pauli-zz", "plus-eigenspace", "DecoherenceFree"))]
    cases.append((flip, span_code(np.eye(4)[:2]), "UnitarilyCorrectable"))
    for chan, code, cls in cases:
        chan_path, code_path = tmp_path / "chan.json", tmp_path / "code.json"
        chan_path.write_text(serialization.dumps(chan.to_json()))
        code_path.write_text(serialization.dumps(code.to_json()))
        assert main(["code", "analyze", str(chan_path), str(code_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == cls and report["lambda_rank"] == 1
        assert report["decoherence_free"] is (cls == "DecoherenceFree")


BIG_INT = "1" + "0" * 400  # a JSON integer too large for a float


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
], ids=["kraus-not-a-list", "data-not-a-list", "null-component",
        "basis-not-a-list", "vector-data-not-a-list", "matrix-rows-infinite",
        "matrix-cols-fractional", "channel-dim-infinite", "component-too-large",
        "code-dim-infinite", "vector-dim-infinite"])
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def test_code_recovery(files, capsys):
    assert main(["code", "recovery", files["chan.json"], files["code1.json"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residual"] <= 1e-6


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


def test_numrange_svg_decomposes_once(files, tmp_path, capsys, monkeypatch):
    from qecentropy import binary_unitary, cli, numerics

    u = serialization.matrix_from_json(json.loads(open(files["u9.json"]).read()))
    region = binary_unitary.numerical_range(u, 3)
    expected = cli.render_region_svg(region, numerics.unitary_eigen(u).eigenvalues,
                                     binary_unitary.constituent_hulls(u, 3), size=300)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return numerics.unitary_eigen(*args, **kwargs)

    monkeypatch.setattr(cli, "unitary_eigen", counting)
    monkeypatch.setattr(binary_unitary, "unitary_eigen", counting)
    svg_path = tmp_path / "fig.svg"
    assert main(["numrange", files["u9.json"], "3", "--svg", str(svg_path),
                 "--hulls", "--size", "300"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out) == json.loads(serialization.dumps(region.to_json()))
    assert svg_path.read_text(encoding="utf-8") == expected


def test_numrange_rejects_nonpositive_svg_size(files, tmp_path, capsys):
    svg_path = tmp_path / "fig.svg"
    assert main(["numrange", files["u9.json"], "3", "--svg", str(svg_path), "--size", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not svg_path.exists()
    assert captured.err.count("error:") == 1 and "--size" in captured.err


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


def test_min_entropy_code_decomposes_once(files, capsys, monkeypatch):
    from qecentropy import binary_unitary, cli, numerics

    u = serialization.matrix_from_json(json.loads(open(files["u9.json"]).read()))
    lam = binary_unitary.extremal_lambda(binary_unitary.numerical_range(u, 3)).min_entropy_lambdas[0]
    built = binary_unitary.grouping_code(u, 3, lam)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return numerics.unitary_eigen(*args, **kwargs)

    monkeypatch.setattr(cli, "unitary_eigen", counting)
    monkeypatch.setattr(binary_unitary, "unitary_eigen", counting)
    assert main(["min-entropy-code", files["u9.json"], "3", "0.01"]) == 0
    assert len(calls) == 1
    # 17-digit floats round-trip, so equal parsed values mean equal bytes.
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == serialization.complex_to_json(lam)
    assert report["partition"] == [list(g) for g in built.partition]
    assert report["weights"] == [list(w) for w in built.weights]
    assert report["code"] == json.loads(serialization.dumps(built.code.to_json()))


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
    '{"eps_rank": %s}' % BIG_INT,
], ids=["null", "bool", "string", "list", "too-large"])
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


def test_output_to_file(files, tmp_path):
    out = tmp_path / "report.json"
    assert main(["channel", "info", files["chan.json"], "--output", str(out)]) == 0
    assert json.loads(out.read_text())["choi_rank"] == 3
