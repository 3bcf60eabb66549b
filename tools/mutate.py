"""Mutation probe for the exact core: do the tests notice a one-token change?

Run from the checkout, for one or more modules of src/hkas:

    python3 tools/mutate.py generate record harness dist checks graph jsonutil scheme

Each mutant swaps one operator, ==/!=, </<=, >/>=, +/-, //, * (both
ways, also as +=/-= and //=/*=), and/or, is/is not or in/not in, or
flips one int constant 0/1. Mutants run one at a time in a scratch copy
of src/ and tests/: first under the module's quick tests (QUICK), then,
if they survive, under all of tests/. A run that fails, or that does
not finish within five times the unmutated run plus ten seconds (a
hang), kills the mutant. A survivor must be listed in
tools/mutants.allow as an equivalent mutant, with the reason it changes
no result. The exit status is 0 only when, for every module probed, the
survivors are exactly the mutants its allow-list entries name.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ALLOW = Path(__file__).with_name("mutants.allow")

SWAPS = {
    "==": "!=", "!=": "==", "<": "<=", "<=": "<", ">": ">=", ">=": ">",
    "+": "-", "-": "+", "//": "*", "*": "//", "and": "or", "or": "and",
    "is": "is not", "is not": "is", "in": "not in", "not in": "in",
    "+=": "-=", "-=": "+=", "//=": "*=", "*=": "//=",
}

# Test files that exercise each module quickly; every survivor is run
# again under the whole suite before it counts.
QUICK = {
    "generate": ["tests/test_generate.py", "tests/test_harness.py", "tests/test_cli.py"],
    "harness": ["tests/test_harness.py", "tests/test_cli.py"],
    "dist": ["tests/test_dist.py", "tests/test_checks.py", "tests/test_harness.py",
             "tests/test_fuzz.py"],
    "checks": ["tests/test_checks.py", "tests/test_harness.py", "tests/test_acceptance.py",
               "tests/test_cli_snapshot.py"],
    "record": ["tests/test_record.py", "tests/test_dist.py", "tests/test_graph.py"],
    "graph": ["tests/test_graph.py", "tests/test_checks.py", "tests/test_harness.py",
              "tests/test_cli.py"],
    "jsonutil": ["tests/test_jsonutil.py", "tests/test_canonical.py", "tests/test_scheme.py",
                 "tests/test_fuzz.py"],
    "scheme": ["tests/test_scheme.py", "tests/test_canonical.py", "tests/test_fuzz.py",
               "tests/test_jsonutil.py", "tests/test_cli.py"],
    "cli": ["tests/test_cli.py", "tests/test_acceptance.py", "tests/test_cli_snapshot.py"],
}


class Mutant(NamedTuple):
    line: int        # 1-based
    start: int       # character columns of the replaced text
    end: int
    old: str
    new: str

    def key(self, module: str, source: list[str]) -> tuple[str, str, str]:
        """The allow-list key: file, swap and the stripped source line."""
        return (f"{module}.py", f"{self.old} -> {self.new}",
                source[self.line - 1].strip())


def _column(line: str, byte_offset: int) -> int:
    """ast counts columns in UTF-8 bytes, tokenize in characters."""
    return len(line.encode()[:byte_offset].decode())


def find_mutants(text: str) -> list[Mutant]:
    """Every mutant of the module text, in source order."""
    lines = text.splitlines(keepends=True)
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
              if tok.type in (tokenize.OP, tokenize.NAME)]

    def start(node: ast.AST) -> tuple[int, int]:
        return node.lineno, _column(lines[node.lineno - 1], node.col_offset)

    def end(node: ast.AST) -> tuple[int, int]:
        return node.end_lineno, _column(lines[node.end_lineno - 1], node.end_col_offset)

    def operator(after: tuple[int, int], before: tuple[int, int]) -> Mutant | None:
        """The operator between two operands; brackets around them are skipped."""
        found = [tok for tok in tokens
                 if after <= tok.start and tok.end <= before and tok.string not in ("(", ")")]
        text = " ".join(tok.string for tok in found)
        if text not in SWAPS or found[0].start[0] != found[-1].end[0]:
            return None
        return Mutant(found[0].start[0], found[0].start[1], found[-1].end[1],
                      text, SWAPS[text])

    mutants = []
    for node in ast.walk(ast.parse(text)):
        spans = []
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            spans = [(end(a), start(b)) for a, b in zip(operands, operands[1:])]
        elif isinstance(node, ast.BoolOp):
            spans = [(end(a), start(b)) for a, b in zip(node.values, node.values[1:])]
        elif isinstance(node, ast.BinOp):
            spans = [(end(node.left), start(node.right))]
        elif isinstance(node, ast.AugAssign):
            spans = [(end(node.target), start(node.value))]
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in (0, 1)):
            (line, col), (_, stop) = start(node), end(node)
            if lines[line - 1][col:stop] in ("0", "1"):
                mutants.append(Mutant(line, col, stop, str(node.value),
                                      str(1 - node.value)))
        mutants += filter(None, (operator(a, b) for a, b in spans))
    return sorted(mutants)


def apply(text: str, mutant: Mutant) -> str:
    lines = text.splitlines(keepends=True)
    line = lines[mutant.line - 1]
    assert line[mutant.start:mutant.end] == mutant.old, mutant
    lines[mutant.line - 1] = line[:mutant.start] + mutant.new + line[mutant.end:]
    return "".join(lines)


def load_allow() -> dict[tuple[str, str, str], str]:
    """Allow-list lines read `file | old -> new | source line | reason`.

    An entry names every mutant with that swap on a line with that text.
    """
    allowed = {}
    for number, line in enumerate(ALLOW.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            name, swap, rest = line.split(" | ", 2)
            source, reason = rest.rsplit(" | ", 1)
        except ValueError:
            sys.exit(f"{ALLOW.name}:{number}: expected `file | old -> new | source | reason`")
        allowed[name, swap, source] = reason
    return allowed


def run_tests(work: Path, tests: list[str], timeout: float | None) -> str:
    """'pass', 'fail' or 'hang' for one pytest run in the scratch copy."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *tests]
    with subprocess.Popen(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "hang"
    # 2: a collection error; 3: an internal error, such as a SystemExit
    # raised while a test module imports; 4: conftest did not import.
    # Either way the mutant does not import, as the unmutated run, which
    # must pass, did.
    if code in (0, 1, 2, 3, 4):
        return "pass" if code == 0 else "fail"
    sys.exit(f"pytest exited {code} on {' '.join(tests)}; the probe cannot judge mutants")


def probe(module: str, work: Path, allowed: dict) -> bool:
    """Run every mutant of one module; report; True when survivors == allow-list."""
    path = work / "src" / "hkas" / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    suites = [QUICK[module], ["tests"]]
    limits = []
    for tests in suites:
        began = time.monotonic()
        if run_tests(work, tests, None) != "pass":
            sys.exit(f"{module}: the unmutated tests do not pass: {' '.join(tests)}")
        limits.append(10 + 5 * (time.monotonic() - began))
    outcomes = []
    mutants = find_mutants(text)
    try:
        for mutant in mutants:
            path.write_text(apply(text, mutant), encoding="utf-8")
            for tests, limit in zip(suites, limits):
                outcome = run_tests(work, tests, limit)
                if outcome != "pass":
                    break
            key = mutant.key(module, source)
            outcomes.append((key, outcome))
            status = {"fail": "killed", "hang": "killed (hang)"}.get(
                outcome, "allowed" if key in allowed else "SURVIVED")
            print(f"{module}.py:{mutant.line}: {mutant.old} -> {mutant.new}: {status}",
                  flush=True)
    finally:
        path.write_text(text, encoding="utf-8")
    survivors = [key for key, outcome in outcomes if outcome == "pass"]
    killed = sum(outcome == "fail" for _, outcome in outcomes)
    listed = sum(key in allowed for key in survivors)
    unexpected = sorted({key for key in survivors if key not in allowed})
    stale = sorted(key for key in allowed
                   if key[0] == f"{module}.py" and key not in survivors)
    print(f"{module}.py: {len(mutants)} mutants, {killed} killed by a failure, "
          f"{len(outcomes) - killed - len(survivors)} by a hang, "
          f"{len(survivors) - listed} survived, {listed} allow-listed")
    for key in unexpected:
        print("  survivor not on the allow-list:", " | ".join(key))
    for key in stale:
        print("  allow-list entry that no survivor matches:", " | ".join(key))
    return not unexpected and not stale


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", choices=sorted(QUICK))
    args = parser.parse_args(argv)
    allowed = load_allow()
    with tempfile.TemporaryDirectory(prefix="hkas-mutate-") as scratch:
        work = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        results = [probe(module, work, allowed) for module in args.modules]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
