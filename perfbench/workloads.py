"""Workload inputs and the answers each operation must produce.

Every workload is built from a fixed graph shape whose class labels are
drawn from the seed. The drawn labels are assigned in sorted order, so the
relabelling preserves label order: every sort, tie-break and enumeration
inside hkas visits the classes in the same structural order for every
seed, and run time does not depend on the seed while the input bytes do.

The expected answers never come from the code under test:

* check verdicts and witnesses follow from how the schemes are built.
  Every key is uniform and independent, and a secret is a function of the
  keys it spells out, so a coalition breaks a class exactly when some
  held secret spells out that class's key;
* generated files must equal a canonical document rebuilt here from the
  documented construction and the canonical JSON form;
* the validate summary is pinned to the values recorded for this
  benchmark's first baseline.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

# Graph shapes as (class count, edges between class indices, declaration
# order). Index i is given the i-th smallest drawn label.
DAG8 = (8, ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 6), (6, 7), (2, 6)),
        tuple(range(8)))
DAG6 = (6, ((0, 1), (0, 2), (1, 3), (2, 3), (4, 5)), tuple(range(6)))
# The diamond r -> a, r -> b, a -> c, b -> c, declared as r, a, b, c; in
# sorted label order a, b, c, r have indices 0..3.
DIAMOND = (4, ((3, 0), (3, 1), (0, 2), (1, 2)), (3, 0, 1, 2))

# validate summaries recorded at the first baseline, keyed by
# (q, trials, validate seed). They are invariant under the order-preserving
# relabelling. "rows" is the total support size of the corpus, the
# workload's stated size.
VALIDATE_PINS = {
    (2, 200, 7): {"schemes": 214, "ki_pass": 94, "ki_fail": 120,
                  "discrepancies": 0, "identity_checks": 3666, "rows": 3350},
    (2, 5, 7): {"schemes": 19, "ki_pass": 2, "ki_fail": 17,
                "discrepancies": 0, "identity_checks": 78, "rows": 256},
}
VALIDATE_FIELDS = ("schemes", "ki_pass", "ki_fail", "discrepancies",
                   "identity_checks")
VALIDATE_SEED = 7
TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI operation and the answer it must give.

    argv follows `python -m hkas.cli`. out_file is the file the operation
    writes, if any. An expectation left as None is not checked.
    """

    name: str
    argv: tuple[str, ...]
    rows: int
    exit_code: int
    stdout: bytes | None = None
    out_file: str | None = None
    out_sha256: str | None = None
    summary: dict | None = None


@dataclass
class Workload:
    """Inputs written to disk, the operations of one round, and the probe input."""

    ops: list[Op]
    probe_kind: str
    probe_path: str
    untimed: list[tuple[str, ...]] = field(default_factory=list)


def draw_labels(seed: int, count: int) -> list[str]:
    """count distinct four-letter labels in sorted order, drawn from seed."""
    rng = random.Random(seed)
    codes = sorted(rng.sample(range(26 ** 3), count))
    labels = []
    for code in codes:
        letters = ""
        for _ in range(3):
            code, digit = divmod(code, 26)
            letters = chr(ord("a") + digit) + letters
        labels.append("c" + letters)
    return labels


class Shape:
    """A graph shape under one labelling, with the set algebra the oracle needs."""

    def __init__(self, spec: tuple, seed: int) -> None:
        count, index_edges, order = spec
        self.labels = draw_labels(seed, count)
        self.edges = sorted((self.labels[a], self.labels[b]) for a, b in index_edges)
        self.declared = [self.labels[i] for i in order]
        succ: dict[str, set[str]] = {u: set() for u in self.labels}
        for src, dst in self.edges:
            succ[src].add(dst)
        self.accessible: dict[str, set[str]] = {}
        for u in self.labels:
            seen, stack = {u}, [u]
            while stack:
                for nxt in succ[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            self.accessible[u] = seen

    def forbidden(self, u: str) -> list[str]:
        return sorted(v for v in self.labels if u not in self.accessible[v])

    def ancestors(self, u: str) -> list[str]:
        return sorted(v for v in self.labels if v != u and u in self.accessible[v])

    def graph_doc(self) -> dict:
        return {"classes": self.declared, "edges": [list(e) for e in self.edges]}

    def members(self, leak: tuple[str, str] | None) -> dict[str, list[str]]:
        """Classes whose keys each secret spells out; leak is (target, leaker)."""
        members = {u: sorted(self.accessible[u]) for u in self.labels}
        if leak is not None:
            target, leaker = leak
            members[leaker] = sorted(set(members[leaker]) | {target})
        return members

    def scheme_text(self, q: int, leak: tuple[str, str] | None) -> str:
        """The canonical scheme file `hkas gen` must write for this shape.

        Rows come in product order of the keys over the sorted labels,
        which is the canonical row order because keys sort first.
        """
        members = self.members(leak)
        p = f"1/{q ** len(self.labels)}"
        support = []
        for combo in itertools.product(range(q), repeat=len(self.labels)):
            keys = dict(zip(self.labels, combo))
            assignment: dict[str, object] = {}
            for u in self.labels:
                assignment["K:" + u] = keys[u]
                assignment["S:" + u] = [[v, keys[v]] for v in members[u]]
            support.append({"assignment": assignment, "p": p})
        doc = {"graph": self.graph_doc(), "support": support}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def check_text(self, q: int, leak: tuple[str, str] | None,
                   exhaustive: bool) -> tuple[bytes, int]:
        """Expected `hkas check --mode all` stdout and exit code."""
        members = self.members(leak)

        def breaks(u: str, secrets: tuple[str, ...]) -> bool:
            # Held keys belong to other classes and never reveal u's key.
            return any(u in members[v] for v in secrets)

        def subsets(pool: list[str], include_empty: bool) -> list[tuple[str, ...]]:
            low = 0 if include_empty else 1
            found = [c for size in range(low, len(pool) + 1)
                     for c in itertools.combinations(pool, size)]
            return sorted(found)

        ki, ski = [], []
        for u in self.labels:
            forbidden, ancestors = self.forbidden(u), self.ancestors(u)
            if exhaustive:
                ki_hit = next((s for s in subsets(forbidden, False) if breaks(u, s)), None)
                if ki_hit is not None:
                    ki.append((u, ki_hit, ()))
                # Keys never matter, so the first failing pair holds no keys.
                ski_hit = next((s for s in subsets(forbidden, True) if breaks(u, s)), None)
                if ski_hit is not None:
                    ski.append((u, ski_hit, ()))
            else:
                if forbidden and breaks(u, tuple(forbidden)):
                    ki.append((u, tuple(forbidden), ()))
                    ski.append((u, tuple(forbidden), tuple(ancestors)))
        h_key = f"{math.log2(q):.12g}"
        lines = ["correctness: PASS"]
        for kind, witnesses in (("ki", ki), ("ski", ski)):
            lines.append(f"{kind}: {'FAIL' if witnesses else 'PASS'}")
            for u, secrets, keys in witnesses:
                lines.append(
                    f"  witness: class={u} secrets={{{','.join(secrets)}}} "
                    f"keys={{{','.join(keys)}}} h_key={h_key} h_key_given=0"
                )
        lines.append("key-indep: PASS")
        text = "\n".join(lines) + "\n"
        return text.encode(), 1 if ki or ski else 0


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def splitmix64_first(seed: int) -> int:
    """First output of splitmix64, as documented for `hkas gen --kind random`."""
    mask = (1 << 64) - 1
    z = (seed + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def uniform_seed(seed: int) -> int:
    """A `gen --kind random` seed, drawn from seed, that takes the uniform branch."""
    rng = random.Random(seed)
    while True:
        candidate = rng.randrange(1 << 32)
        if splitmix64_first(candidate) & 1:
            return candidate


def check_workload(work: Path, seed: int, spec: tuple, q: int,
                   leak: tuple[int, int], exhaustive: bool) -> Workload:
    """`check --mode all` on a trivial and a leaky scheme."""
    shape = Shape(spec, seed)
    graph = _write(work / "graph.json", json.dumps(shape.graph_doc()))
    target, leaker = shape.labels[leak[0]], shape.labels[leak[1]]
    rows = q ** len(shape.labels)
    ops, untimed = [], []
    for name, leak_pair in (("trivial", None), ("leaky", (target, leaker))):
        scheme = str(work / f"{name}.json")
        gen = ["gen", "--graph", graph, "--q", str(q), "-o", scheme]
        if leak_pair is None:
            gen += ["--kind", "trivial"]
        else:
            gen += ["--kind", "leaky", "--target", target, "--leaker", leaker]
        untimed.append(tuple(gen))
        argv = ["check", "--scheme", scheme, "--mode", "all"]
        if exhaustive:
            argv.append("--exhaustive")
        stdout, code = shape.check_text(q, leak_pair, exhaustive)
        ops.append(Op(name=name, argv=tuple(argv), rows=rows, exit_code=code,
                      stdout=stdout))
    return Workload(ops=ops, probe_kind="scheme", probe_path=str(work / "trivial.json"),
                    untimed=untimed)


def gen_workload(work: Path, seed: int, spec: tuple, q: int,
                 leak: tuple[int, int]) -> Workload:
    """`gen` trivial, leaky and random (uniform branch) on one graph."""
    shape = Shape(spec, seed)
    graph = _write(work / "graph.json", json.dumps(shape.graph_doc()))
    target, leaker = shape.labels[leak[0]], shape.labels[leak[1]]
    rows = q ** len(shape.labels)
    trivial = _sha256(shape.scheme_text(q, None))
    leaky = _sha256(shape.scheme_text(q, (target, leaker)))
    kinds = (
        ("trivial", ["--kind", "trivial"], trivial),
        ("leaky", ["--kind", "leaky", "--target", target, "--leaker", leaker], leaky),
        # The uniform branch gives every key tuple 1/q**n: the trivial scheme.
        ("random", ["--kind", "random", "--seed", str(uniform_seed(seed))], trivial),
    )
    ops = []
    for name, args, digest in kinds:
        out = str(work / f"gen-{name}.json")
        argv = ("gen", "--graph", graph, "--q", str(q), *args, "-o", out)
        ops.append(Op(name=name, argv=argv, rows=rows, exit_code=0, stdout=b"",
                      out_file=out, out_sha256=digest))
    return Workload(ops=ops, probe_kind="graph", probe_path=graph)


def validate_workload(work: Path, seed: int, q: int, trials: int) -> Workload:
    """`validate` on the diamond graph with a pinned corpus seed."""
    shape = Shape(DIAMOND, seed)
    graph = _write(work / "graph.json", json.dumps(shape.graph_doc()))
    pins = VALIDATE_PINS[(q, trials, VALIDATE_SEED)]
    argv = ("validate", "--graph", graph, "--q", str(q), "--seed", str(VALIDATE_SEED),
            "--trials", str(trials))
    summary = {name: pins[name] for name in VALIDATE_FIELDS}
    op = Op(name="validate", argv=argv, rows=pins["rows"], exit_code=0, summary=summary)
    return Workload(ops=[op], probe_kind="graph", probe_path=graph)


# Workload name -> make(work_dir, seed, tiny). tiny selects the
# self-test size, which runs the same pipeline in about a second.
WORKLOADS = {
    "check-large": lambda work, seed, tiny: check_workload(
        work, seed, DAG8, 2 if tiny else 3, (3, 5), exhaustive=False),
    "gen-write": lambda work, seed, tiny: gen_workload(
        work, seed, DAG8, 2 if tiny else 3, (3, 5)),
    "validate-corpus": lambda work, seed, tiny: validate_workload(
        work, seed, 2, 5 if tiny else 200),
    "exhaustive-oracle": lambda work, seed, tiny: check_workload(
        work, seed, DAG6, 2 if tiny else 3, (3, 4), exhaustive=True),
}


def verify(op: Op, code: int, stdout: bytes) -> list[str]:
    """Every way the operation's result differs from its expected answer."""
    problems = []
    if code != op.exit_code:
        problems.append(f"exit code {code}, expected {op.exit_code}")
    if op.stdout is not None and stdout != op.stdout:
        problems.append(f"stdout differs: {stdout[:400]!r}")
    if op.out_sha256 is not None:
        try:
            with open(op.out_file, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError as exc:
            digest = f"unreadable ({exc})"
        if digest != op.out_sha256:
            problems.append(f"{os.path.basename(op.out_file)} sha256 {digest}")
    if op.summary is not None:
        got: dict[str, str] = {}
        for line in stdout.decode("utf-8", "replace").splitlines():
            key, _, value = line.partition(": ")
            got[key] = value
        for key, want in op.summary.items():
            if got.get(key) != str(want):
                problems.append(f"{key}={got.get(key)!r}, expected {want}")
        try:
            if not float(got.get("max_abs_err", "nan")) < TOL:
                problems.append(f"max_abs_err={got.get('max_abs_err')!r}")
        except ValueError:
            problems.append(f"max_abs_err={got.get('max_abs_err')!r}")
    return problems
