"""Canonical JSON helpers and the declared console entry point."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import pytest

import hkas.cli
from hkas import ParseError, ProbabilityError
from hkas.jsonutil import (
    MAX_VALUE_DEPTH,
    dumps_canonical,
    parse_prob,
    prob_str,
    round_float,
    value_from_json,
    value_sort_key,
)


def test_parse_prob():
    assert parse_prob("1/8") == Fraction(1, 8)
    assert parse_prob("3") == Fraction(3)
    assert parse_prob(2) == Fraction(2)
    for bad in ("0/4", "-1/2", 0, -2, "1/0", "x/y", 0.5, True, None, [1, 2],
                "0.5", "1e-1", " 1/2"):
        with pytest.raises(ProbabilityError):
            parse_prob(bad)


def test_prob_str_round_trip():
    for frac in (Fraction(1, 8), Fraction(7), Fraction(2, 6)):
        assert parse_prob(prob_str(frac)) == frac
    assert prob_str(Fraction(2, 6)) == "1/3"


def test_value_codec():
    assert value_from_json(3) == 3
    assert value_from_json("x") == "x"
    assert value_from_json([["a", 0], ["b", 1]]) == (("a", 0), ("b", 1))
    # Decoded values are tuples, which json writes as arrays; a decoded
    # value decodes to itself, so the library round trip needs no copy.
    assert json.loads(json.dumps((("a", 0),))) == [["a", 0]]
    assert value_from_json((("a", 0), ("b", 1))) == (("a", 0), ("b", 1))
    for bad in (0.5, True, None, {"k": 1}):
        with pytest.raises(Exception):
            value_from_json(bad)


def test_value_depth_bound():
    def nested(depth):
        raw = 0
        for _ in range(depth):
            raw = [raw]
        return raw

    decoded = value_from_json(nested(MAX_VALUE_DEPTH))
    assert json.loads(json.dumps(decoded)) == nested(MAX_VALUE_DEPTH)
    assert value_from_json(decoded) == decoded
    with pytest.raises(ParseError):
        value_from_json(nested(MAX_VALUE_DEPTH + 1))
    with pytest.raises(ParseError):
        value_from_json((decoded,))


def test_value_sort_key_total_order():
    values = [(("b", 1),), 3, "a", 0, (("a", 0),), "b", ()]
    ordered = sorted(values, key=value_sort_key)
    assert ordered == [0, 3, "a", "b", (), (("a", 0),), (("b", 1),)]


def test_round_float():
    assert round_float(0.1234567890123456) == 0.123456789012
    assert round_float(1.0) == 1.0
    assert round_float(0.0) == 0.0


def test_dumps_canonical():
    # The document is written as given: its builder renders rationals
    # (prob_str) and rounds floats (round_float); tuples become arrays.
    doc = {"b": prob_str(Fraction(1, 3)), "a": [round_float(1.23456789012345e-5), ("x", 2)]}
    text = dumps_canonical(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == {"a": [1.23456789012e-05, ["x", 2]], "b": "1/3"}
    assert text.index('"a"') < text.index('"b"')
    assert dumps_canonical(doc) == text
    assert json.loads(dumps_canonical({"x": 1.23456789012345e-5})) == {"x": 1.23456789012345e-5}
    with pytest.raises(TypeError):
        dumps_canonical({"p": Fraction(1, 3)})


def test_dumps_canonical_is_indented_json_dumps():
    doc = {"z": [{"b": [], "a": {}}, ("x", [1, [2, "\n\u2028é"]])], "a": {"c": {"d": [0]}}}
    assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def _declared_script(name: str) -> str | None:
    """The ``[project.scripts]`` value for ``name`` in the checkout's pyproject."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    return project.get("scripts", {}).get(name)


def _is_installed(dist: str) -> bool:
    try:
        metadata.distribution(dist)
    except metadata.PackageNotFoundError:
        return False
    return True


def test_console_entry_point_declared():
    value = _declared_script("hkas")
    assert value == "hkas.cli:main"
    entry = metadata.EntryPoint(name="hkas", value=value, group="console_scripts")
    assert entry.load() is hkas.cli.main


@pytest.mark.skipif(not _is_installed("hkas"),
                    reason="hkas distribution is not installed")
def test_installed_console_script_matches_declaration():
    scripts = metadata.entry_points(group="console_scripts")
    installed = [ep.value for ep in scripts if ep.name == "hkas"]
    assert installed == [_declared_script("hkas")]


def test_module_invocation_smoke():
    # The child finds the package the suite imported, also when pytest's
    # pythonpath setting, not PYTHONPATH, put it on sys.path.
    package_root = str(Path(hkas.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hkas.cli", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "check" in proc.stdout and "validate" in proc.stdout
