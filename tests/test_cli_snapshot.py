"""The CLI's bytes against the committed snapshot.

tests/data/cli_snapshot.sha256 holds, per command, the exit code and the
sha256 of stdout, stderr and any output file (see the writer script
tests/data/cli_snapshot.py beside it). This test reruns every command in
process and compares; it never rewrites the manifest.
"""

from __future__ import annotations

from conftest import cli_snapshot


def test_cli_matches_snapshot(monkeypatch, tmp_path):
    monkeypatch.delenv("HKAS_MAX_SUPPORT", raising=False)
    expected = cli_snapshot.MANIFEST.read_text().splitlines()
    actual = cli_snapshot.snapshot(tmp_path)
    changed = [f"expected {want}\n     got {got}"
               for want, got in zip(expected, actual) if want != got]
    assert len(actual) == len(expected), (len(actual), len(expected))
    assert not changed, f"{len(changed)} commands changed; first:\n{changed[0]}"
