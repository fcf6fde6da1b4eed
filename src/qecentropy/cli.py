"""Command-line interface: channel inspection, code analysis, numerical
ranges with SVG figures, minimum-entropy code construction and the
regression driver over the named catalog instances.

Exit codes: 0 success, 1 input or validation error, 2 not correctable or
no code exists, 3 unsupported parameters, 4 regression failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import catalog, serialization
from .binary_unitary import (
    BinaryUnitaryChannel,
    NumRangeRegion,
    biunitary_code_entropy,
    constituent_hulls,
    entropy_vs_p,
    extremal_lambda,
    grouping_code,
    numerical_range,
)
from .channel import channel_from_json, choi_gram, validate_channel
from .code import (
    build_recovery,
    classify_code,
    code_from_json,
    kl_check,
    sigma_equals_lambda_check,
)
from .errors import (
    NoCodeError,
    NoFeasiblePartitionError,
    NotCorrectable,
    QecError,
    RecoveryVerificationError,
    UnsupportedCodeDimensionError,
)
from .numerics import DEFAULT_TOL, ToleranceConfig, unitary_eigen

TOLERANCES_ENV = "QECENTROPY_TOLERANCES"

SVG_HELP = (
    "SVG viewport: the unit disk is mapped to a size-by-size pixel canvas "
    "with a 5% margin, so a point z maps to px = size/2 + 0.45*size*Re(z), "
    "py = size/2 - 0.45*size*Im(z); the y axis is flipped so the complex "
    "plane reads conventionally."
)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_tolerances(path: str | None) -> ToleranceConfig:
    if path is None:
        path = os.environ.get(TOLERANCES_ENV) or None
    if path is None:
        return DEFAULT_TOL
    obj = _load_json_file(path)
    if not isinstance(obj, dict):
        raise ValueError("tolerance file must be a JSON object")
    fields = {f.name for f in dataclasses.fields(ToleranceConfig)}
    unknown = set(obj) - fields
    if unknown:
        raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
    for key, value in obj.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"tolerance {key!r} must be a number, got {value!r}")
    try:
        return ToleranceConfig(**{k: float(v) for k, v in obj.items()})
    except OverflowError as exc:
        raise ValueError(f"tolerance value out of range: {exc}") from exc


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"complex value must be 'RE' or 'RE,IM', got {text!r}")


def _load_unitary(path: str) -> np.ndarray:
    # Unitarity is checked where U is first decomposed, under the tolerances.
    return serialization.matrix_from_json(_load_json_file(path))


def _emit(text: str, output: str | None) -> None:
    """Write a command's report to stdout, or to the --output file without
    the final newline."""
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


# SVG figure emission ------------------------------------------------------


def _svg_point(z: complex, size: float) -> tuple[str, str]:
    """The pixel coordinates of ``z``, formatted."""
    x, y = size / 2 + 0.45 * size * z.real, size / 2 - 0.45 * size * z.imag
    return serialization.format_float(x), serialization.format_float(y)


def _svg_shape(cls: str, xy: list[tuple[str, str]], polygon="", line="", dot="") -> list[str]:
    """The element drawing the formatted points ``xy`` as a polygon (three
    or more), a line (two) or a circle (one), with that shape's style
    attributes; no element when the shape has no style."""
    if len(xy) >= 3 and polygon:
        coords = " ".join(f"{x},{y}" for x, y in xy)
        return [f'<polygon class="{cls}" points="{coords}" {polygon}/>']
    if len(xy) == 2 and line:
        (x1, y1), (x2, y2) = xy
        return [f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {line}/>']
    if len(xy) == 1 and dot:
        return [f'<circle class="{cls}" cx="{xy[0][0]}" cy="{xy[0][1]}" {dot}/>']
    return []


def render_region_svg(
    region: NumRangeRegion,
    eigenvalues: np.ndarray,
    hulls: list[np.ndarray] | None = None,
    size: int = 600,
) -> str:
    """Static figure of a rank-k numerical range inside the unit circle."""
    s = float(size)
    cx, cy = _svg_point(0j, s)
    # Hull and region vertices are cluster means that many shapes share, so
    # each distinct point is formatted once per figure.
    formatted: dict[complex, tuple[str, str]] = {}

    def xy(zs) -> list[tuple[str, str]]:
        zs = np.asarray(zs, dtype=complex).tolist()
        return [formatted.get(z) or formatted.setdefault(z, _svg_point(z, s)) for z in zs]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{cx}" cy="{cy}" r="{serialization.format_float(0.45 * s)}" '
        'fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    dashed = 'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"'
    for hull in hulls or []:
        parts += _svg_shape("hull", xy(hull), polygon=f'fill="none" {dashed}', line=dashed)
    parts += _svg_shape(
        "region", xy(region.vertices),
        polygon='fill="#6699cc" fill-opacity="0.5" stroke="#336699" stroke-width="1.5"',
        line='stroke="#336699" stroke-width="2"', dot='r="4" fill="#336699"')
    for pair in xy(eigenvalues):
        parts += _svg_shape("eigenvalue", [pair], dot='r="3" fill="black"')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Subcommand implementations -----------------------------------------------


def _cmd_channel_info(args, tol: ToleranceConfig) -> dict:
    c = channel_from_json(_load_json_file(args.channel))
    validate_channel(c, tol)
    gram = choi_gram(c, tol)
    return {
        "dim": c.dim,
        "num_kraus": c.num_kraus,
        "choi_gram_spectrum": [float(w) for w in gram.weights],
        "choi_rank": gram.choi_rank,
    }


def _cmd_code_analyze(args, tol: ToleranceConfig) -> dict:
    c = channel_from_json(_load_json_file(args.channel))
    code = code_from_json(_load_json_file(args.code), tol)
    result = classify_code(c, code, tol)
    report = result.to_json()
    if args.sigma_samples > 0:
        report["sigma_matches_lambda"] = sigma_equals_lambda_check(
            c, code, args.sigma_samples, args.seed, tol)
    return report


def _cmd_code_recovery(args, tol: ToleranceConfig) -> dict:
    c = channel_from_json(_load_json_file(args.channel))
    code = code_from_json(_load_json_file(args.code), tol)
    rec = build_recovery(c, code, tol)
    return {"channel": rec.channel.to_json(), "residual": rec.residual}


def _cmd_numrange(args, tol: ToleranceConfig) -> dict:
    if args.size < 1:
        raise ValueError(f"--size must be a positive number of pixels, got {args.size}")
    u = _load_unitary(args.unitary)
    region = numerical_range(u, args.k, tol)
    if args.svg is not None:
        # The range's decomposition, from unitary_eigen's memo.
        eigenvalues = unitary_eigen(u, tol).eigenvalues
        hulls = constituent_hulls(u, args.k, tol) if args.hulls else None
        svg = render_region_svg(region, eigenvalues, hulls, size=args.size)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return region.to_json()


def _cmd_min_entropy_code(args, tol: ToleranceConfig) -> dict:
    # Rejects p outside [0, 1] before any range is built.
    binary = BinaryUnitaryChannel(args.p, _load_unitary(args.unitary))
    region = numerical_range(binary.u, args.k, tol)
    lam = extremal_lambda(region).min_entropy_lambdas[0]
    built = grouping_code(binary.u, args.k, lam, tol)
    # Independent verification of the construction before anything is printed.
    lam_matrix, residual = kl_check(binary.to_channel(tol), built.code, tol)
    return {
        "lambda": serialization.complex_to_json(lam),
        "entropy_bits": biunitary_code_entropy(args.p, lam),
        "kl_residual": residual,
        "lambda_spectrum": [float(x) for x in lam_matrix.spectrum],
        "partition": [list(g) for g in built.partition],
        "weights": [list(w) for w in built.weights],
        "code": built.code.to_json(),
    }


def _cmd_entropy_vs_p(args, tol: ToleranceConfig) -> dict:
    u = _load_unitary(args.unitary)
    lam = _parse_complex(args.lam)
    if args.p_grid is not None:
        grid = [float(x) for x in args.p_grid.split(",")]
    elif args.p_steps < 2:
        raise ValueError(f"--p-steps must be at least 2 (the grid holds 0 and 1), got {args.p_steps}")
    else:
        grid = [i / (args.p_steps - 1) for i in range(args.p_steps)]
    rows = entropy_vs_p(u, args.k, lam, grid, tol)
    return {
        "k": args.k,
        "lambda": serialization.complex_to_json(lam),
        "points": [{"p": p, "entropy_bits": s} for p, s in rows],
    }


def _instance_json(inst: catalog.NamedInstance) -> dict:
    obj: dict = {
        "name": inst.name,
        "channel": inst.channel.to_json(),
        "codes": [{"label": label, "code": code.to_json()} for label, code in inst.codes],
        "expected": [
            {
                "quantity": e.quantity,
                "code_label": e.code_label,
                "target": e.target,
                "tolerance": e.tolerance,
                "provenance": e.provenance,
            }
            for e in inst.expected
        ],
    }
    if inst.binary is not None:
        obj["binary"] = {
            "p": inst.binary.p,
            "unitary": serialization.matrix_to_json(inst.binary.u),
        }
    if inst.k is not None:
        obj["k"] = inst.k
    return obj


def _cmd_catalog(args, tol: ToleranceConfig) -> list | dict:
    instances = catalog.all_instances()
    if args.catalog_command == "list":
        return sorted(instances)
    if args.name not in instances:
        raise ValueError(f"unknown catalog instance {args.name!r}; "
                         f"known: {', '.join(sorted(instances))}")
    return _instance_json(instances[args.name])


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, complex):
        sign = "+" if value.imag >= 0 else "-"
        return (f"{serialization.format_float(value.real)}{sign}"
                f"{serialization.format_float(abs(value.imag))}i")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return serialization.format_float(float(value))


def _cmd_reproduce(args, tol: ToleranceConfig) -> tuple[str, int]:
    inst = catalog.all_instances()[args.table]
    rows = catalog.evaluate_instance(inst, tol)
    lines = ["quantity,expected,computed,abs_error,tolerance,pass"]
    for row in rows:
        lines.append(",".join([
            row["quantity"],
            _csv_value(row["expected"]),
            _csv_value(row["computed"]),
            _csv_value(row["abs_error"]),
            _csv_value(row["tolerance"]),
            _csv_value(row["passed"]),
        ]))
    return "\n".join(lines), 0 if all(row["passed"] for row in rows) else 4


# Argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qecentropy",
        description="Entropy, classification and construction of quantum "
        "error-correcting codes for finite-dimensional noise channels.",
        epilog=SVG_HELP,
    )
    parser.add_argument(
        "--tolerances",
        metavar="FILE",
        default=None,
        help="JSON file overriding numerical tolerances (eps_rank, eps_kl, "
        f"eps_geom, eps_eig); defaults to ${TOLERANCES_ENV} if set",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chan = sub.add_parser("channel", help="channel inspection")
    chan_sub = chan.add_subparsers(dest="channel_command", required=True)
    info = chan_sub.add_parser("info", help="dimension, Choi-Gram spectrum and Choi rank")
    info.add_argument("channel", help="channel JSON file")
    info.set_defaults(func=_cmd_channel_info)

    code = sub.add_parser("code", help="code analysis and recovery")
    code_sub = code.add_subparsers(dest="code_command", required=True)
    analyze = code_sub.add_parser("analyze", help="verify a code and report entropy and class")
    analyze.add_argument("channel", help="channel JSON file")
    analyze.add_argument("code", help="code JSON file")
    analyze.add_argument("--sigma-samples", type=int, default=0,
                         help="also test the exchange-state identity on this many random code states")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.set_defaults(func=_cmd_code_analyze)
    recovery = code_sub.add_parser("recovery", help="construct and verify a recovery operation")
    recovery.add_argument("channel", help="channel JSON file")
    recovery.add_argument("code", help="code JSON file")
    recovery.set_defaults(func=_cmd_code_recovery)

    numrange = sub.add_parser(
        "numrange", help="rank-k numerical range of a unitary matrix", epilog=SVG_HELP
    )
    numrange.add_argument("unitary", help="unitary matrix JSON file")
    numrange.add_argument("k", type=int)
    numrange.add_argument("--svg", default=None, help="also write an SVG figure to this path")
    numrange.add_argument("--hulls", action="store_true",
                          help="draw the phase-contiguous run hulls (at most N) in the SVG")
    numrange.add_argument("--size", type=int, default=600, help="SVG canvas size in pixels")
    numrange.set_defaults(func=_cmd_numrange)

    mec = sub.add_parser("min-entropy-code",
                         help="construct a minimum-entropy rank-k code by eigenstate grouping")
    mec.add_argument("unitary", help="unitary matrix JSON file")
    mec.add_argument("k", type=int)
    mec.add_argument("p", type=float, help="mixing probability of the binary unitary channel")
    mec.set_defaults(func=_cmd_min_entropy_code)

    evp = sub.add_parser("entropy-vs-p", help="code entropy along a mixing-probability grid")
    evp.add_argument("unitary", help="unitary matrix JSON file")
    evp.add_argument("k", type=int)
    evp.add_argument("--lam", required=True, help="compression value as 'RE' or 'RE,IM'")
    evp.add_argument("--p-grid", default=None, help="comma-separated probabilities")
    evp.add_argument("--p-steps", type=int, default=21, help="uniform grid size on [0, 1]")
    evp.set_defaults(func=_cmd_entropy_vs_p)

    cat = sub.add_parser("catalog", help="named reference instances")
    cat_sub = cat.add_subparsers(dest="catalog_command", required=True)
    cat_list = cat_sub.add_parser("list", help="list instance names")
    cat_list.set_defaults(func=_cmd_catalog)
    cat_get = cat_sub.add_parser("get", help="emit one instance as JSON")
    cat_get.add_argument("name")
    cat_get.set_defaults(func=_cmd_catalog)

    rep = sub.add_parser("reproduce", help="check expected quantities of a named instance (CSV)")
    rep.add_argument("table", choices=["table1", "stabilizer", "example33", "qutrit"])
    rep.set_defaults(func=_cmd_reproduce)

    # Added last, so that --output ends each leaf's option list.
    for leaf in (info, analyze, recovery, numrange, mec, evp, cat_list, cat_get, rep):
        leaf.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _load_tolerances(args.tolerances)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 1)
    try:
        with np.errstate(all="ignore"):  # a nan fails every ``not x <= bound`` verdict
            report = args.func(args, tol)
            # Commands return a JSON-able report, or reproduce its CSV text and exit code.
            text, code = report if isinstance(report, tuple) else (serialization.dumps(report, indent=2), 0)
            _emit(text, args.output)
            return code
    except (NotCorrectable, NoCodeError, NoFeasiblePartitionError,
            RecoveryVerificationError) as exc:
        return _fail(str(exc), 2)
    except UnsupportedCodeDimensionError as exc:
        return _fail(str(exc), 3)
    except (QecError, OSError, ValueError, KeyError) as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
