"""Every source file parses under the oldest Python that pyproject.toml admits,
and CI runs a leg on that version.

The parse catches syntax newer than the floor on any interpreter, so a
failure shows up here before the CI leg on the oldest version runs."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _version(text: str) -> tuple[int, int]:
    major, minor = text.split(".")
    return int(major), int(minor)


def _floor() -> tuple[int, int]:
    # tomllib is 3.11+, so the one line is read by pattern.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return _version(re.search(r'^requires-python\s*=\s*">=(\d+\.\d+)"', text, re.MULTILINE).group(1))


def test_ci_runs_a_leg_on_the_floor():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    legs = re.search(r"python-version:\s*\[([^\]]*)\]", workflow).group(1)
    assert min(_version(leg.strip().strip("\"'")) for leg in legs.split(",")) == _floor()


def test_every_source_file_parses_at_the_floor():
    files = sorted(p for top in ("src", "perfbench", "tests") for p in (ROOT / top).rglob("*.py"))
    assert len(files) >= 25
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_floor())
