"""hkas benchmark: time to a verdict from the command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; nothing needs installing. Each
operation is a fresh `python -m hkas.cli ...` process with PYTHONPATH=src,
started by this process in a closed loop (one client, one operation at a
time), and every result is compared with an answer the benchmark knows
independently (see workloads.py). The inputs are drawn from --seed and
written under .perfbench_work/, which is removed at exit.

--trace 0 measures with nothing traced and reports the end-to-end metrics:

    setup_s      median wall of a probe process that imports hkas.cli and
                 loads the workload's input (one probe before each operation)
    op_p50_s     median wall of one CLI operation, launch to exit
    rows_per_s   support rows processed per second of operation wall
    peak_rss_mb  median over operations of the child's peak RSS (os.wait4)

Times are taken on one pinned CPU and given at reference host speed:
each stretch a child runs is scaled by CAL_REF_S over the mean of the
calibration loops run on that CPU at its two ends (before and after the
child, and every SAMPLE_S while it is stopped). The host's per-CPU speed
drifts by up to 40% over seconds to minutes and the calibration tracks
that drift; the raw walls are printed as well.

--trace 1 runs one round of the workload's operations untraced and one
traced (trace_cli.py) and reports per-layer self time, call and row
counts, totalled over the traced round.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. failed counts operations whose exit code,
stdout or output file differ from the expected answer; error_rate is
failed / attempted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SELF_TEST_SECONDS = 2.0
# calibrate() takes about this long on an idle CPU of the 2.0 GHz Xeon
# host the baseline was measured on; normalised times are scaled to it.
CAL_REF_S = 0.08
# How often a timed child is paused for a calibration sample.
SAMPLE_S = 1.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HKAS_MAX_SUPPORT", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


ENV = child_env()


def _start(argv: list[str], stdout_path: str) -> int:
    """Launch `python argv` with stdout and stderr in files; return its pid."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stdout_path + ".err",
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    return os.posix_spawn(sys.executable, [sys.executable, *argv], ENV,
                          file_actions=actions)


def _wait_all(pids: list[int]) -> list[int]:
    """Reap every child and return the exit codes; on interruption kill
    and reap the rest first."""
    codes: list[int] = []
    try:
        for pid in pids:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    except BaseException:
        for pid in pids[len(codes):]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return codes


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop shaped like hkas's inner loops
    (a dict keyed by tuples, accumulating Fractions)."""
    start = time.perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(30000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(1, 1 + i % 7)
    return time.perf_counter() - start


@dataclasses.dataclass
class Sample:
    op: workloads.Op
    wall_s: float
    norm_s: float
    rss_mb: float
    problems: list[str]


class Runner:
    """Runs operations of one workload inside a private work directory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.stdout_path = str(work / "stdout.txt")
        self.cal = 0.0

    def pin(self) -> None:
        """Pin this process, and so every later child, to one CPU, then
        take the first calibration there after a warm-up one."""
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        calibrate()
        self.cal = calibrate()

    def timed(self, argv: list[str], sample: bool = True) -> tuple[float, float, int, float]:
        """Run `python argv` to completion on the pinned CPU.

        Returns (wall_s, wall at reference speed, exit code, peak RSS MB).
        With sample, every SAMPLE_S the child is stopped while calibrate()
        runs on the CPU it frees; stopped time is not counted. Each stretch
        the child ran is scaled by the mean of the calibrations at its two
        ends. A traced child is not stopped, as its spans would count the
        stops.
        Peak RSS comes from os.wait4 on the child's own pid, so it is that
        child's and not the running maximum over all children.
        """
        wall = norm = 0.0
        begun = time.perf_counter()
        pid = _start(argv, self.stdout_path)
        done = False
        try:
            with open(os.pidfd_open(pid), "rb", buffering=0) as exited:
                while True:
                    if not select.select([exited], [], [], SAMPLE_S if sample else None)[0]:
                        os.kill(pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(pid, os.WUNTRACED)
                    done = not os.WIFSTOPPED(status)
                    ran = time.perf_counter() - begun
                    cal = calibrate()
                    wall += ran
                    norm += ran * CAL_REF_S * 2 / (self.cal + cal)
                    self.cal = cal
                    if done:
                        return (wall, norm, os.waitstatus_to_exitcode(status),
                                usage.ru_maxrss / 1024.0)
                    begun = time.perf_counter()
                    os.kill(pid, signal.SIGCONT)
        finally:
            if not done:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def run_op(self, op: workloads.Op, traced_spans: str | None = None) -> Sample:
        """Run op; with traced_spans, under trace_cli.py writing spans there."""
        if traced_spans is None:
            argv = ["-m", "hkas.cli", *op.argv]
        else:
            argv = [str(HERE / "trace_cli.py"), traced_spans, op.name, *op.argv]
        wall, norm, code, rss = self.timed(argv, sample=traced_spans is None)
        with open(self.stdout_path, "rb") as handle:
            stdout = handle.read()
        return Sample(op, wall, norm, rss, workloads.verify(op, code, stdout))

    def untimed(self, commands: list[tuple[str, ...]]) -> None:
        """Run the input-generating CLI commands side by side, untimed."""
        outs = [f"{self.stdout_path}.{i}" for i in range(len(commands))]
        pids = []
        try:
            for argv, out in zip(commands, outs):
                pids.append(_start(["-m", "hkas.cli", *argv], out))
        finally:
            codes = _wait_all(pids)
        for code, out in zip(codes, outs):
            if code != 0:
                err = Path(out + ".err").read_text(errors="replace")
                raise RuntimeError(f"input generation failed ({code}): {err.strip()}")

    def probe(self, kind: str, path: str) -> tuple[float, float]:
        """(raw, normalised) wall of one set-up probe."""
        wall, norm, code, _ = self.timed([str(HERE / "probe.py"), kind, path])
        if code != 0:
            err = Path(self.stdout_path + ".err").read_text(errors="replace")
            raise RuntimeError(f"set-up probe failed ({code}): {err.strip()}")
        return wall, norm


def closed_loop(runner: Runner, load: workloads.Workload, ops: list[workloads.Op],
                seconds: float) -> tuple[list[tuple[float, float]], list[Sample]]:
    """Operations in turn, one process at a time, each after one set-up
    probe, stopping at the operation boundary nearest to `seconds`.

    Probing before every operation spreads the set-up samples over the
    whole run, as the host's speed drifts on a scale of seconds. The
    operations of one workload take about equally long, so a run that
    stops inside a round does not skew the median.
    """
    setup: list[tuple[float, float]] = []
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        setup.append(runner.probe(load.probe_kind, load.probe_path))
        samples.append(runner.run_op(ops[len(samples) % len(ops)]))
        now = time.perf_counter()
        if now - start + (now - step_start) / 2 >= seconds:
            return setup, samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup: list[tuple[float, float]], samples: list[Sample]) -> dict:
    walls = [s.norm_s for s in samples]
    return {
        "setup_s": metric(statistics.median(norm for _, norm in setup), "s"),
        "op_p50_s": metric(statistics.median(walls), "s"),
        "rows_per_s": metric(sum(s.op.rows for s in samples) / sum(walls), "1/s"),
        "peak_rss_mb": metric(statistics.median(s.rss_mb for s in samples), "MB"),
    }


# Spans whose self time is reported as "<name>.self_s". cli.main.self_s sums
# every cli.* span, and dist.other.self_s every other dist.* span.
SELF_TIMES = ("scheme.load_file", "scheme.load_scheme", "scheme.serialize_scheme",
              "jsonutil.dumps_canonical", "graph.validate_graph", "graph.accessible_set",
              "graph.forbidden_set", "graph.ancestor_set", "graph.is_well_ordered",
              "graph.theorem_sequence", "dist.from_rows", "dist.is_independent",
              "dist.is_mutually_independent", "dist.is_functionally_determined",
              "dist.entropy", "dist.conditional_entropy", "generate.gen",
              "checks.correctness", "checks.ki", "checks.ski", "checks.key_indep",
              "harness.build_corpus", "harness.verify_equivalence",
              "harness.verify_identities")
CALLS = ("graph.validate_graph", "graph.accessible_set", "graph.forbidden_set",
         "graph.ancestor_set", "graph.is_well_ordered", "graph.theorem_sequence",
         "dist.from_rows", "dist.is_independent", "dist.is_mutually_independent",
         "dist.is_functionally_determined", "dist.entropy", "dist.conditional_entropy",
         "generate.gen")
ROWS = ("dist.from_rows", "dist.is_independent", "dist.is_mutually_independent",
        "dist.is_functionally_determined", "generate.gen")


def layer_metrics(traces: list[dict], traced: list[Sample], untraced: list[Sample]) -> dict:
    """Per-layer totals over the spans of one traced round.

    Times are scaled to reference speed by the traced round's own
    normalisation factor.
    """
    traced_wall = sum(s.norm_s for s in traced)
    untraced_wall = sum(s.norm_s for s in untraced)
    scale = traced_wall / sum(s.wall_s for s in traced)
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    counts = {"groups": 0, "repeats": 0, "coalitions": 0, "witnesses": 0,
              "identity_checks": 0, "schemes": 0, "harness_ki": 0, "spans": 0}
    import_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        import_s += trace["import_s"]
        counts["spans"] += len(spans)
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])
            calls[name] = calls.get(name, 0) + 1
            parent_name = spans[parent][0] if parent >= 0 else ""
            attrs = attrs or {}
            rows[name] = rows.get(name, 0) + attrs.get("rows", 0)
            counts["groups"] += attrs.get("groups", 0)
            counts["repeats"] += attrs.get("repeats", 0)
            counts["witnesses"] += attrs.get("witnesses", 0)
            counts["schemes"] += attrs.get("schemes", 0)
            if name == "dist.is_independent" and parent_name.startswith("checks."):
                counts["coalitions"] += 1
            if name == "harness.verify_identities" and parent_name != name:
                counts["identity_checks"] += attrs.get("identity_checks", 0)
            if name == "checks.ki" and parent_name.startswith("harness."):
                counts["harness_ki"] += 1
    def self_s(names) -> dict:
        return metric(sum(self_ns.get(name, 0) for name in names) * scale / 1e9, "s")

    out: dict[str, dict] = {"cli.main.self_s": self_s(n for n in self_ns if n.startswith("cli."))}
    for name in SELF_TIMES:
        out[name + ".self_s"] = self_s([name])
    out["dist.other.self_s"] = self_s(
        n for n in self_ns if n.startswith("dist.") and n not in SELF_TIMES)
    for name in CALLS:
        out[name + ".calls"] = metric(calls.get(name, 0), "count")
    for name in ROWS:
        out[name + ".rows"] = metric(rows.get(name, 0), "count")
    out["dist.groups"] = metric(counts["groups"], "count")
    out["dist.repeat_group_share"] = metric(
        counts["repeats"] / counts["groups"] if counts["groups"] else 0.0, "ratio")
    out["checks.coalitions"] = metric(counts["coalitions"], "count")
    out["checks.witnesses"] = metric(counts["witnesses"], "count")
    out["harness.corpus_schemes"] = metric(counts["schemes"], "count")
    out["harness.identity_checks"] = metric(counts["identity_checks"], "count")
    out["harness.ki_calls_per_scheme"] = metric(
        counts["harness_ki"] / counts["schemes"] if counts["schemes"] else 0.0,
        "calls/scheme")
    out["cli.import_s"] = metric(import_s * scale / len(traces), "s")
    checks_dist = sum(ns for name, ns in self_ns.items()
                      if name.startswith(("checks.", "dist."))) * scale / 1e9
    out["trace.checks_dist_share"] = metric(checks_dist / traced_wall, "ratio")
    out["trace.spans"] = metric(counts["spans"], "count")
    out["trace.traced_wall_s"] = metric(traced_wall, "s")
    out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    return out


def traced_round(runner: Runner, ops: list[workloads.Op]) -> tuple[list[Sample], dict]:
    """One untraced and one traced round; per-layer metrics from the traced one."""
    untraced = [runner.run_op(op) for op in ops]
    traced, traces = [], []
    spans_path = str(runner.work / "spans.json")
    for op in ops:
        traced.append(runner.run_op(op, traced_spans=spans_path))
        with open(spans_path, "r", encoding="utf-8") as handle:
            traces.append(json.load(handle))
    metrics = layer_metrics(traces, traced, untraced)
    return untraced + traced, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 corrupt: bool = False) -> dict:
    """Prepare inputs, measure, and return the result object.

    corrupt replaces the first operation's expected exit code with a wrong
    one, so the self-test can show that the gate counts the mismatch.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        runner = Runner(work)
        load = workloads.WORKLOADS[name](work, seed, tiny)
        runner.untimed(load.untimed)
        runner.pin()
        ops = load.ops
        if corrupt:
            ops = [dataclasses.replace(ops[0], exit_code=ops[0].exit_code ^ 3), *ops[1:]]
        setup: list[tuple[float, float]] = []
        if trace:
            samples, metrics = traced_round(runner, ops)
        else:
            setup, samples = closed_loop(runner, load, ops, seconds)
            metrics = end_to_end(setup, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [s for s in samples if s.problems]
    for sample in failed[:5]:
        print(f"mismatch in {name}/{sample.op.name}: {'; '.join(sample.problems)}",
              file=sys.stderr)
    return {"correct": not failed, "attempted": len(samples), "failed": len(failed),
            "metrics": metrics, "walls": [(s.wall_s, s.norm_s) for s in samples],
            "probes": setup}


def report(name: str, result: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    walls, probes = result.pop("walls"), result.pop("probes")
    print(f"workload {name}: {result['attempted']} operations, "
          f"error_rate {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})")

    def pairs(values: list[tuple[float, float]]) -> str:
        return " ".join(f"{raw:.3f}/{norm:.3f}" for raw, norm in values)

    print(f"  operation walls, raw/at reference speed (s): {pairs(walls)}; "
          f"no tail percentile below 10 samples beyond it")
    if probes:
        print(f"  set-up probe walls, raw/at reference speed (s): {pairs(probes)}")
    for key, item in result["metrics"].items():
        print(f"  {key} = {item['value']:.6g} {item['unit']}")
    print(json.dumps(result, sort_keys=True))


def self_test() -> int:
    """Every workload at its tiny size, untraced and traced, plus a wrong answer."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=1, seconds=SELF_TEST_SECONDS, trace=trace,
                                  tiny=True)
            good = result["correct"] and result["attempted"] >= 1
            print(f"self-test {name} trace={int(trace)}: "
                  f"{'ok' if good else 'FAILED'} ({result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics)")
            ok = ok and good
    result = run_workload("check-large", seed=1, seconds=SELF_TEST_SECONDS,
                          trace=False, tiny=True, corrupt=True)
    caught = result["failed"] >= 1 and not result["correct"]
    print(f"self-test wrong expected answer counted in error_rate: "
          f"{'ok' if caught else 'FAILED'} ({result['failed']}/{result['attempted']})")
    ok = ok and caught
    print("self-test: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a tiny size and check the gate")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the finally blocks kill and reap a
    # child, which may be stopped for a calibration sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "hkas" / "cli.py").is_file():
        print(f"error: no hkas sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    report(args.workload, run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
