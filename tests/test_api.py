"""The public API: hkas.__all__ names each export once, in sorted order,
and every name in it resolves, so a deletion leaves no stale export.
Names resolve on first use, so importing the CLI loads only the modules
that every command needs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hkas


def test_all_is_sorted_unique_and_resolves():
    names = hkas.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(hkas, name)] == []


def _run_python(code: str) -> str:
    """stdout of a fresh interpreter that finds the package the suite imported."""
    package_root = str(Path(hkas.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout


def test_the_cli_imports_only_what_every_command_needs():
    """Importing hkas.cli loads no command's own module and no
    dataclasses, whose import pulls in inspect, ast and dis."""
    loaded = set(json.loads(_run_python(
        "import json, sys\nimport hkas.cli\nprint(json.dumps(sorted(sys.modules)))")))
    assert {name for name in loaded if name.startswith("hkas")} == {
        "hkas", "hkas.checks", "hkas.cli", "hkas.dist", "hkas.errors", "hkas.graph",
        "hkas.jsonutil", "hkas.record", "hkas.scheme"}
    assert loaded.isdisjoint({"dataclasses", "inspect", "hkas.harness", "hkas.generate",
                              "hkas.expr"})


def test_star_import_and_dir_resolve_every_public_name():
    """dir(hkas) lists every public name before any is resolved, and a
    star import binds them all."""
    names, shown, unbound = json.loads(_run_python(
        "import json\nimport hkas\nshown = dir(hkas)\nfrom hkas import *\n"
        "print(json.dumps([hkas.__all__, shown, [n for n in hkas.__all__ if n not in globals()]]))"))
    assert names == hkas.__all__ and unbound == []
    assert set(names) < set(shown) and shown == sorted(shown)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hkas.no_such_name
