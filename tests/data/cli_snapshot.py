"""The CLI snapshot: exit code and output digests of a fixed set of commands.

    PYTHONPATH=src python tests/data/cli_snapshot.py

rewrites cli_snapshot.sha256 beside this file from the working tree's
code. tests/test_cli_snapshot.py runs the same commands and compares
them with that file; it never writes it. Regenerate the manifest only
for a change that means to alter the CLI's bytes, and say so.

Each manifest line is

    <exit> <stdout> <stderr> <output file> <argv as JSON>

where each digest is the sha256 of those bytes, or "-" when there are
none. The commands run in process through hkas.cli.main, in a scratch
directory that holds the graph files and the malformed inputs, so every
path in an argv is relative to it. They cover every gen kind at q=2,3
on a diamond, a chain and an antichain; check in every mode, maximal
and exhaustive, as text and JSON, on each generated scheme; entropy,
including conditional mutual information; graph analyze; validate on
each shape at q=2,3 and two seeds; the exhaustive checks of a parity
leak and of a six-class DAG; and inputs that must exit 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

MANIFEST = Path(__file__).with_name("cli_snapshot.sha256")

GRAPHS = {
    "diamond": {"classes": ["r", "a", "b", "c"],
                "edges": [["r", "a"], ["r", "b"], ["a", "c"], ["b", "c"]]},
    "chain": {"classes": ["a", "b", "c", "d"],
              "edges": [["a", "b"], ["b", "c"], ["c", "d"]]},
    "antichain": {"classes": ["a", "b", "c", "d"], "edges": []},
}
# Shaped like the DAG of perfbench's exhaustive-oracle workload.
DAG6 = {"classes": ["a", "b", "c", "d", "e", "f"],
        "edges": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"], ["e", "f"]]}
MODES = ("correctness", "ki", "ski", "key-indep", "all")
# Expressions over the labels of each shape: x, y, z are its three
# smallest labels.
EXPRS = ("H(K:{x})", "H(K:{x} | S:{y})", "H(K:{x}, K:{y} | S:{z})",
         "I(K:{x} ; S:{y})", "I(K:{x} ; S:{y} | K:{z})")


def _gen_commands(shape: str, q: int) -> list[list[str]]:
    labels = sorted(GRAPHS[shape]["classes"])
    base = ["gen", "--graph", f"{shape}.json", "--q", str(q)]
    leak = {"diamond": ("a", "b"), "chain": ("b", "c"), "antichain": ("a", "b")}[shape]
    kinds = [
        ("trivial", []),
        ("leaky", ["--target", leak[0], "--leaker", leak[1]]),
        ("correlated", ["--pair", f"{labels[0]},{labels[-1]}"]),
        ("random", ["--seed", "0"]),
        ("random", ["--seed", "1"]),
    ]
    commands = []
    for kind, extra in kinds:
        seed = extra[-1] if kind == "random" else ""
        out = f"{shape}-q{q}-{kind}{seed}.json"
        commands.append(base + ["--kind", kind] + extra + ["-o", out])
    return commands


def parity_leak_scheme():
    """The scheme on the antichain {a, b, v} with uniform binary keys,
    S:a = k_a, S:b = k_b and S:v = (k_v, k_a XOR k_b): each single secret
    is independent of every other class's key, and KI at a (and at b)
    fails only for the two-member coalition {b, v} (and {a, v})."""
    from fractions import Fraction

    from hkas import AccessGraph, JointDistribution, Scheme

    rows = [({"K:a": ka, "K:b": kb, "K:v": kv, "S:a": ka, "S:b": kb, "S:v": (kv, ka ^ kb)},
             Fraction(1, 8))
            for ka in (0, 1) for kb in (0, 1) for kv in (0, 1)]
    return Scheme(graph=AccessGraph.build(["a", "b", "v"], []),
                  dist=JointDistribution.from_rows(rows))


def _exhaustive_commands() -> list[list[str]]:
    """Every check, exhaustive, as text and JSON, on the parity leak and on
    the trivial and a leaky scheme of the six-class DAG at q=2."""
    base = ["gen", "--graph", "dag6.json", "--q", "2"]
    result = [base + ["--kind", "trivial", "-o", "dag6-q2-trivial.json"],
              base + ["--kind", "leaky", "--target", "d", "--leaker", "e",
                      "-o", "dag6-q2-leaky.json"]]
    for scheme in ("parity-leak.json", "dag6-q2-trivial.json", "dag6-q2-leaky.json"):
        for extra in ([], ["--json"]):
            result.append(["check", "--scheme", scheme, "--mode", "all", "--exhaustive"]
                          + extra)
    return result


def _bad_inputs() -> dict[str, bytes]:
    """Malformed scheme files, each built from the canonical text of the
    diamond's trivial scheme at q=2."""
    from hkas import gen_trivial, graph_from_json, serialize_scheme

    canonical = serialize_scheme(gen_trivial(graph_from_json(GRAPHS["diamond"]), 2))
    doc = json.loads(canonical)
    row = doc["support"][0]

    def with_value(var: str, value: object) -> bytes:
        changed = json.loads(canonical)
        changed["support"][0]["assignment"][var] = value
        return json.dumps(changed, indent=2).encode()

    headless = dict(doc)
    del headless["graph"]
    # A graph_file that names a file would put an absolute path on stderr.
    bad_ref = dict(headless, graph_file=7)
    duplicated = dict(doc, support=doc["support"] + [row])
    heavy = json.loads(canonical)
    heavy["support"][0]["p"] = "1/2"
    deep = with_value("S:a", "DEEP").replace(b'"DEEP"', b"[" * 40 + b"0" + b"]" * 40)
    return {
        "garbled.json": b"{not json",
        "truncated.json": canonical.encode()[: len(canonical) // 2],
        "not-utf8.json": b"\xff" + canonical.encode(),
        "bom.json": b"\xef\xbb\xbf" + canonical.encode(),
        "empty-support.json": json.dumps(dict(doc, support=[])).encode(),
        "headless.json": json.dumps(headless).encode(),
        "bad-ref.json": json.dumps(bad_ref).encode(),
        "duplicate-row.json": json.dumps(duplicated).encode(),
        "heavy-row.json": json.dumps(heavy).encode(),
        "bool-value.json": with_value("K:a", True),
        "float-value.json": with_value("K:a", 1.5),
        "deep-value.json": deep,
        "extra-var.json": with_value("K:zz", 0),
        "cyclic-graph.json": json.dumps(
            {"classes": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}).encode(),
    }


def _error_commands() -> list[list[str]]:
    bad = ["garbled", "truncated", "not-utf8", "bom", "empty-support", "headless",
           "bad-ref", "duplicate-row", "heavy-row", "bool-value", "float-value",
           "deep-value", "extra-var"]
    commands = [["check", "--scheme", f"bad/{name}.json"] for name in bad]
    scheme = "diamond-q2-trivial.json"
    commands += [
        ["check", "--scheme", "missing.json"],
        ["check", "--scheme", scheme, "--graph", "bad/cyclic-graph.json"],
        ["entropy", "--scheme", scheme, "--expr", "H(K:a"],
        ["entropy", "--scheme", scheme, "--expr", "H(K:zz)"],
        ["entropy", "--scheme", scheme, "--expr", "I(K:a ; K:a)"],
        ["graph", "analyze", "--graph", "diamond.json", "--class", "zz"],
        ["graph", "analyze", "--graph", "bad/cyclic-graph.json"],
        ["gen", "--graph", "diamond.json", "--kind", "trivial", "--q", "1", "-o", "x.json"],
        ["gen", "--graph", "diamond.json", "--kind", "leaky", "--q", "2", "-o", "x.json"],
        ["gen", "--graph", "diamond.json", "--kind", "leaky", "--q", "2",
         "--target", "c", "--leaker", "r", "-o", "x.json"],
        ["gen", "--graph", "diamond.json", "--kind", "correlated", "--q", "2", "-o", "x.json"],
        ["validate", "--graph", "diamond.json", "--trials", "-1", "--q", "2"],
        ["validate", "--graph", "diamond.json", "--trials", "1", "--q", "1"],
    ]
    return commands


def commands() -> list[list[str]]:
    """Every command of the snapshot, in the order it runs."""
    result: list[list[str]] = []
    schemes: list[tuple[str, str]] = []
    for shape in GRAPHS:
        for q in (2, 3):
            for argv in _gen_commands(shape, q):
                result.append(argv)
                schemes.append((shape, argv[-1]))
    for shape, scheme in schemes:
        for mode in MODES:
            for extra in ([], ["--exhaustive"], ["--json"], ["--exhaustive", "--json"]):
                result.append(["check", "--scheme", scheme, "--mode", mode] + extra)
    for shape, scheme in schemes[::5]:
        x, y, z = sorted(GRAPHS[shape]["classes"])[:3]
        for expr in EXPRS:
            for extra in ([], ["--json"]):
                result.append(["entropy", "--scheme", scheme,
                               "--expr", expr.format(x=x, y=y, z=z)] + extra)
    result.append(["check", "--scheme", "diamond-q2-trivial.json", "--graph", "chain.json"])
    for shape in GRAPHS:
        result.append(["graph", "analyze", "--graph", f"{shape}.json", "--json"])
    for shape in GRAPHS:
        for q in ("2", "3"):
            for seed in ("0", "3"):
                for extra in ([], ["--json"]):
                    result.append(["validate", "--graph", f"{shape}.json", "--q", q,
                                   "--trials", "10", "--seed", seed] + extra)
    return result + _exhaustive_commands() + _error_commands()


def _digest(data: bytes | None) -> str:
    return hashlib.sha256(data).hexdigest() if data else "-"


def _run(argv: list[str]) -> tuple[int, str, str]:
    from hkas.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def snapshot(workdir: Path) -> list[str]:
    """The manifest lines of a fresh run in workdir, an empty directory."""
    from hkas import serialize_scheme

    for shape, doc in dict(GRAPHS, dag6=DAG6).items():
        (workdir / f"{shape}.json").write_text(json.dumps(doc))
    (workdir / "parity-leak.json").write_text(serialize_scheme(parity_leak_scheme()))
    (workdir / "bad").mkdir()
    for name, data in _bad_inputs().items():
        (workdir / "bad" / name).write_bytes(data)
    lines = []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in commands():
            code, out, err = _run(argv)
            output = None
            if argv[0] == "gen" and code == 0:
                output = Path(argv[-1]).read_bytes()
            lines.append(f"{code} {_digest(out.encode())} {_digest(err.encode())} "
                         f"{_digest(output)} {json.dumps(argv)}")
    finally:
        os.chdir(previous)
    return lines


def main() -> int:
    import tempfile

    if os.environ.get("HKAS_MAX_SUPPORT") is not None:
        print("unset HKAS_MAX_SUPPORT first: the snapshot uses the default bound",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        lines = snapshot(Path(workdir))
    MANIFEST.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} commands to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
