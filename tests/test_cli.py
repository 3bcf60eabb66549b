"""CLI surface: subcommands, exit codes, JSON determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import DATA_DIR
from hkas import HkasError, load_scheme_file
from hkas.cli import main

DIAMOND = str(DATA_DIR / "diamond.json")


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_scheme(capsys, tmp_path, kind: str, extra: list[str],
               name: str = "scheme.json") -> str:
    out = str(tmp_path / name)
    code, _stdout, stderr = run_cli(
        capsys,
        ["gen", "--graph", DIAMOND, "--kind", kind, "--q", "2", "-o", out] + extra,
    )
    assert code == 0, stderr
    return out


def test_check_trivial_all_pass(capsys, tmp_path):
    path = gen_scheme(capsys, tmp_path, "trivial", [])
    code, out, _err = run_cli(capsys, ["check", "--scheme", path])
    assert code == 0
    assert out.count("PASS") == 4
    code, out, _err = run_cli(capsys, ["check", "--scheme", path, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert {r["kind"] for r in doc["reports"]} == {
        "correctness", "ki", "ski", "key-indep"
    }


def test_check_leaky_exit_codes(capsys, tmp_path):
    path = gen_scheme(capsys, tmp_path, "leaky", ["--target", "a", "--leaker", "b"])
    code, out, _err = run_cli(capsys, ["check", "--scheme", path, "--mode", "ki"])
    assert code == 1
    assert "ki: FAIL" in out
    assert "class=a" in out
    code, _out, _err = run_cli(
        capsys, ["check", "--scheme", path, "--mode", "correctness"]
    )
    assert code == 0
    code, out, _err = run_cli(
        capsys,
        ["check", "--scheme", path, "--mode", "ki", "--exhaustive", "--json"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == "ki" and doc["passed"] is False
    assert doc["witnesses"][0]["class"] == "a"
    assert doc["witnesses"][0]["secrets"] == ["b"]


def test_check_json_reruns_identical(capsys, tmp_path):
    path = gen_scheme(capsys, tmp_path, "correlated", ["--pair", "a,r"])
    _code, first, _err = run_cli(capsys, ["check", "--scheme", path, "--json"])
    _code, second, _err = run_cli(capsys, ["check", "--scheme", path, "--json"])
    assert first == second
    assert json.loads(first)["passed"] is False


def test_check_separate_graph_file(capsys, tmp_path):
    path = gen_scheme(capsys, tmp_path, "trivial", [])
    doc = json.loads(Path(path).read_text())
    del doc["graph"]
    headless = tmp_path / "headless.json"
    headless.write_text(json.dumps(doc))
    code, _out, _err = run_cli(
        capsys, ["check", "--scheme", str(headless), "--graph", DIAMOND]
    )
    assert code == 0
    code, _out, err = run_cli(capsys, ["check", "--scheme", str(headless)])
    assert code == 2
    assert "error" in err


def test_graph_file_reference_resolution(capsys, tmp_path):
    path = gen_scheme(capsys, tmp_path, "trivial", [])
    doc = json.loads(Path(path).read_text())
    del doc["graph"]
    doc["graph_file"] = "graph-here.json"
    (tmp_path / "graph-here.json").write_text(Path(DIAMOND).read_text())
    referencing = tmp_path / "ref.json"
    referencing.write_text(json.dumps(doc))
    code, _out, _err = run_cli(capsys, ["check", "--scheme", str(referencing)])
    assert code == 0


def test_graph_analyze_human(capsys):
    code, out, _err = run_cli(capsys, ["graph", "analyze", "--graph", DIAMOND])
    assert code == 0
    assert "topological_sort: r,a,b,c" in out
    assert "well_ordered_all: c,b,a,r" in out
    assert "class a: accessible={a,c} forbidden={b,c} ancestors={r}" in out
    assert "partition_ok=true" in out


def test_graph_analyze_single_class_json(capsys):
    code, out, _err = run_cli(
        capsys, ["graph", "analyze", "--graph", DIAMOND, "--class", "a", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc["analysis"]) == ["a"]
    info = doc["analysis"]["a"]
    assert info["accessible"] == ["a", "c"]
    assert info["forbidden"] == ["b", "c"]
    assert info["ancestors"] == ["r"]
    assert info["theorem_sequence"] == ["c", "b", "a", "r"]
    code, _out, err = run_cli(
        capsys, ["graph", "analyze", "--graph", DIAMOND, "--class", "zz"]
    )
    assert code == 2
    assert "unknown class" in err


def test_graph_analyze_rejects_cycle(capsys, tmp_path):
    bad = tmp_path / "cyclic.json"
    bad.write_text(json.dumps(
        {"classes": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}
    ))
    code, _out, err = run_cli(capsys, ["graph", "analyze", "--graph", str(bad)])
    assert code == 2
    assert "cycle" in err


def test_gen_usage_errors(capsys, tmp_path):
    out = str(tmp_path / "x.json")
    base = ["gen", "--graph", DIAMOND, "--q", "2", "-o", out]
    code, _out, err = run_cli(capsys, base + ["--kind", "leaky"])
    assert code == 2 and "--target" in err
    code, _out, err = run_cli(capsys, base + ["--kind", "correlated"])
    assert code == 2 and "--pair" in err
    code, _out, err = run_cli(
        capsys,
        ["gen", "--graph", DIAMOND, "--kind", "trivial", "--q", "1", "-o", out],
    )
    assert code == 2 and "--q" in err
    code, _out, err = run_cli(
        capsys, base + ["--kind", "leaky", "--target", "c", "--leaker", "r"]
    )
    assert code == 2 and "leak" in err


def test_gen_golden_determinism(capsys, tmp_path):
    for seed, name in ((42, "golden-random-q2-s42.json"),
                       (2, "golden-random-q2-s2.json")):
        out = tmp_path / f"regen-{seed}.json"
        code, _stdout, _err = run_cli(capsys, [
            "gen", "--graph", DIAMOND, "--kind", "random",
            "--q", "2", "--seed", str(seed), "-o", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / name).read_bytes()


def test_entropy_command(capsys, tmp_path):
    path = gen_scheme(capsys, tmp_path, "leaky", ["--target", "a", "--leaker", "b"])
    code, out, _err = run_cli(
        capsys, ["entropy", "--scheme", path, "--expr", "H(K:a|S:b)"]
    )
    assert code == 0
    assert out.strip() == "0"
    code, out, _err = run_cli(
        capsys, ["entropy", "--scheme", path, "--expr", "H(K:a)", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"expr": "H(K:a)", "value": 1.0}
    code, _out, err = run_cli(
        capsys, ["entropy", "--scheme", path, "--expr", "H(K:a"]
    )
    assert code == 2
    assert "position" in err
    code, _out, err = run_cli(
        capsys, ["entropy", "--scheme", path, "--expr", "H(K:zz)"]
    )
    assert code == 2


def test_validate_command(capsys):
    argv = ["validate", "--graph", DIAMOND, "--trials", "6",
            "--seed", "3", "--q", "2", "--json"]
    code, out, _err = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["schemes"] == 20
    assert doc["discrepancies"] == 0
    assert doc["ki_pass"] + doc["ki_fail"] == 20
    assert doc["max_abs_err"] < 1e-9
    _code, again, _err = run_cli(capsys, argv)
    assert out == again
    code, out, _err = run_cli(capsys, argv[:-1])
    assert code == 0
    assert "discrepancies: 0" in out


def test_input_error_exit_codes(capsys, tmp_path):
    code, _out, err = run_cli(capsys, ["check", "--scheme", "/nope/missing.json"])
    assert code == 2 and "error" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _out, err = run_cli(capsys, ["check", "--scheme", str(garbled)])
    assert code == 2
    code, _out, err = run_cli(
        capsys, ["validate", "--graph", DIAMOND, "--trials", "-1",
                 "--seed", "1", "--q", "2"])
    assert code == 2
    code, out, err = run_cli(
        capsys, ["validate", "--graph", DIAMOND, "--trials", "1",
                 "--seed", "1", "--q", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_later_support_row_with_extra_variable(capsys, tmp_path):
    path = gen_scheme(capsys, tmp_path, "trivial", [])
    doc = json.loads(Path(path).read_text())
    doc["support"][2]["assignment"]["K:ghost"] = 0
    bad = tmp_path / "ghost.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(HkasError):
        load_scheme_file(str(bad))
    code, out, err = run_cli(capsys, ["check", "--scheme", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_errors_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["check"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["gen", "--graph", DIAMOND, "--kind", "nonsense",
              "--q", "2", "-o", "x.json"])
    assert exc_info.value.code == 2
    capsys.readouterr()
