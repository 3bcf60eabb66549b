"""CLI surface: subcommands, exit codes, JSON determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import DATA_DIR
from hkas import HkasError, TheoremViolation, load_scheme_file
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


def test_embedded_graph_warning_is_one_line(capsys, tmp_path, fallbacks):
    path = gen_scheme(capsys, tmp_path, "trivial", [])
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"classes": ["r", "a", "b", "c"], "edges": [["r", "a"]]}))
    _code, expected, _err = run_cli(capsys, ["check", "--scheme", path])
    code, out, err = run_cli(capsys, ["check", "--scheme", path, "--graph", str(other)])
    assert code == 0 and out == expected
    assert err == ("warning: scheme embeds a graph that differs from the supplied "
                   "one; using the embedded graph\n")
    # The same graph supplied beside the embedded one: no warning.
    code, out, err = run_cli(capsys, ["check", "--scheme", path, "--graph", DIAMOND])
    assert (code, out, err) == (0, expected, "")
    assert fallbacks.count == 0  # the generated file took the row template


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


def test_floats_rounded_to_12_digits_at_q3(capsys, tmp_path):
    # At q=2 every reported float is a whole number; at q=3 log2(3) and
    # the identity gaps show whether each document rounds its floats.
    path = str(tmp_path / "leaky3.json")
    code, _out, _err = run_cli(capsys, ["gen", "--graph", DIAMOND, "--kind", "leaky",
                                        "--target", "a", "--leaker", "b", "--q", "3",
                                        "-o", path])
    assert code == 0
    entropy = ["entropy", "--scheme", path, "--expr", "H(K:a)"]
    assert run_cli(capsys, entropy) == (0, "1.58496250072\n", "")
    code, out, _err = run_cli(capsys, entropy + ["--json"])
    assert code == 0 and '"value": 1.58496250072\n' in out
    assert json.loads(out)["value"] == 1.58496250072
    check = ["check", "--scheme", path, "--mode", "ki"]
    code, out, _err = run_cli(capsys, check)
    assert code == 1 and "h_key=1.58496250072 h_key_given=0\n" in out
    code, out, _err = run_cli(capsys, check + ["--json"])
    assert code == 1 and '"h_key": 1.58496250072,' in out
    assert json.loads(out)["witnesses"][0]["h_key"] == 1.58496250072
    validate = ["validate", "--graph", DIAMOND, "--q", "3", "--trials", "10", "--seed", "3"]
    code, out, _err = run_cli(capsys, validate)
    assert code == 0 and "max_abs_err: 8.881784197e-16\n" in out
    code, out, _err = run_cli(capsys, validate + ["--json"])
    assert code == 0 and '"max_abs_err": 8.881784197e-16' in out
    assert json.loads(out)["max_abs_err"] == 8.881784197e-16


def test_seed_outside_one_word_exits_2(capsys, tmp_path):
    # -5 and 2**64 - 5 would otherwise name the same scheme and corpus.
    for seed in (-1, 2 ** 64, -5):
        out = tmp_path / "refused.json"
        code, stdout, err = run_cli(capsys, ["gen", "--graph", DIAMOND, "--kind", "random",
                                             "--q", "2", "--seed", str(seed), "-o", str(out)])
        assert (code, stdout, err) == (2, "", f"error: seed must be in range(2**64), got {seed}\n")
        assert not out.exists()
        code, stdout, err = run_cli(capsys, ["validate", "--graph", DIAMOND, "--trials", "1",
                                             "--seed", str(seed), "--q", "2"])
        assert (code, stdout, err) == (2, "", f"error: seed must be in range(2**64), got {seed}\n")
    for seed in (0, 2 ** 64 - 1):
        gen_scheme(capsys, tmp_path, "random", ["--seed", str(seed)], name=f"s{seed}.json")
        code, _out, err = run_cli(capsys, ["validate", "--graph", DIAMOND, "--trials", "1",
                                           "--seed", str(seed), "--q", "2"])
        assert code == 0, err


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
    # A secret nested 900 lists deep decodes but exceeds the value depth
    # bound; at 5,000 deep the JSON decoder itself runs out of stack.
    doc = json.loads(Path(gen_scheme(capsys, tmp_path, "trivial", [])).read_text())
    doc["support"][0]["assignment"]["S:a"] = "DEEP"
    for depth in (900, 5000):
        deep = tmp_path / f"deep{depth}.json"
        deep.write_text(json.dumps(doc).replace('"DEEP"', "[" * depth + "0" + "]" * depth))
        code, out, err = run_cli(capsys, ["check", "--scheme", str(deep)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    # The decoder's own ValueErrors: an integer literal over Python's
    # 4,300-digit conversion limit, and a file that is not UTF-8.
    doc["support"][0]["assignment"]["K:a"] = "HUGE"
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc).replace('"HUGE"', "1" * 5000))
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff" + huge.read_bytes())
    for bad in (huge, not_utf8):
        code, out, err = run_cli(capsys, ["check", "--scheme", str(bad)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    # A canonical file with one byte that is not UTF-8, inside a label.
    canonical = Path(gen_scheme(capsys, tmp_path, "trivial", [], name="canonical.json"))
    canonical.write_bytes(canonical.read_bytes().replace(b'"r"', b'"\xff"', 1))
    code, out, err = run_cli(capsys, ["check", "--scheme", str(canonical)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {canonical}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


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


def test_theorem_violation_exits_1_with_one_line(capsys, monkeypatch):
    def violated(*_args):
        raise TheoremViolation("x")

    monkeypatch.setattr("hkas.harness.run_validation", violated)
    argv = ["validate", "--graph", DIAMOND, "--trials", "1", "--q", "2"]
    assert run_cli(capsys, argv) == (1, "", "theorem violation: x\n")


def test_unexpected_exception_exits_2_with_one_line(capsys, monkeypatch):
    def broken(_args):
        raise RuntimeError("internal fault\nwith a second line")

    monkeypatch.setattr("hkas.cli.cmd_check", broken)
    code, out, err = run_cli(capsys, ["check", "--scheme", "unused.json"])
    assert code == 2 and out == ""
    assert err == "error: RuntimeError: internal fault with a second line\n"

    def interrupted(_args):
        raise KeyboardInterrupt

    monkeypatch.setattr("hkas.cli.cmd_check", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["check", "--scheme", "unused.json"])
