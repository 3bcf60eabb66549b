"""Command line interface.

Subcommands:

    hkas check     run security checks on a scheme file
    hkas graph     inspect an access graph (analyze)
    hkas gen       generate a scheme file from a graph
    hkas entropy   evaluate an entropy expression against a scheme
    hkas validate  run the theorem-validation corpus over a graph

Exit codes: 0 all requested checks passed, 1 a check or validation
failed (witnesses or the violation are printed), 2 bad input, usage or
any other error (one "error:" line on stderr, never a traceback). A
warning, such as an embedded graph overriding --graph, is one "warning:"
line on stderr and changes neither stdout nor the exit code.
JSON output (--json) is canonical: sorted keys, rationals as "num/den",
floats at 12 significant digits, so reruns are byte identical.

A command imports the modules that only it uses (the generators, the
expression parser, the harness) when it runs, so no command's start-up
pays for another's.

A command runs with the cyclic garbage collector off. It builds only
acyclic data (tuples, dicts, strings and Fractions), which reference
counting frees; what cycles a command leaves are the argument parser's,
a fixed few hundred objects whatever the input size, so the collector's
passes would find nothing to free. When main() is the process's entry
point (called with no argv, as the console script and `python -m
hkas.cli` do, which exit right after it), it also freezes what is alive
on its way out, so the interpreter's shutdown collection has nothing to
traverse. Called with an argv list, in process, it restores the caller's
collector state on every way out and freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import sys
import warnings

from .checks import CHECK_KINDS, run_checks
from .errors import HkasError, InvalidArgument, TheoremViolation
from .graph import AccessGraph, graph_from_json
from .jsonutil import dumps_canonical, round_float
from .scheme import CheckReport, load_json_file, load_scheme_file, write_scheme


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkas",
        description="verify hierarchical key assignment schemes given as "
                    "explicit joint distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run security checks on a scheme")
    p_check.add_argument("--scheme", required=True, help="scheme JSON file")
    p_check.add_argument("--graph", help="graph JSON file (when not embedded)")
    p_check.add_argument(
        "--mode",
        choices=[*CHECK_KINDS, "all"],
        default="all",
    )
    p_check.add_argument("--exhaustive", action="store_true",
                         help="enumerate every coalition instead of the maximal one")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_graph = sub.add_parser("graph", help="inspect access graphs")
    gsub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_analyze = gsub.add_parser("analyze", help="derived sets and orders")
    p_analyze.add_argument("--graph", required=True, help="graph JSON file")
    p_analyze.add_argument("--class", dest="cls", help="restrict to one class")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=cmd_graph_analyze)

    p_gen = sub.add_parser("gen", help="generate a scheme for a graph")
    p_gen.add_argument("--graph", required=True, help="graph JSON file")
    p_gen.add_argument("--kind", required=True,
                       choices=["trivial", "leaky", "correlated", "random"])
    p_gen.add_argument("--q", required=True, type=int,
                       help="key alphabet size, at least 2")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="PRNG seed for --kind random")
    p_gen.add_argument("--target", help="leak target class (--kind leaky)")
    p_gen.add_argument("--leaker", help="leaking class (--kind leaky)")
    p_gen.add_argument("--pair", help="correlated classes 'u,w' (--kind correlated)")
    p_gen.add_argument("-o", "--out", required=True, help="output scheme file")
    p_gen.set_defaults(func=cmd_gen)

    p_entropy = sub.add_parser("entropy", help="evaluate an entropy expression")
    p_entropy.add_argument("--scheme", required=True, help="scheme JSON file")
    p_entropy.add_argument("--expr", required=True,
                           help="e.g. \"H(K:a | S:b, S:c)\" or \"I(K:a ; S:b)\"")
    p_entropy.add_argument("--json", action="store_true")
    p_entropy.set_defaults(func=cmd_entropy)

    p_validate = sub.add_parser(
        "validate", help="validate KI/SKI equivalence and entropy identities"
    )
    p_validate.add_argument("--graph", required=True, help="graph JSON file")
    p_validate.add_argument("--trials", required=True, type=int,
                            help="number of random schemes to add to the corpus")
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.add_argument("--q", required=True, type=int,
                            help="key alphabet size, at least 2")
    p_validate.add_argument("--json", action="store_true")
    p_validate.set_defaults(func=cmd_validate)

    return parser


def _print_report(report: CheckReport) -> None:
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{report.kind}: {verdict}")
    for witness in report.witnesses:
        secrets = ",".join(witness.secrets)
        keys = ",".join(witness.keys)
        print(
            f"  witness: class={witness.cls} "
            f"secrets={{{secrets}}} keys={{{keys}}} "
            f"h_key={witness.h_key:.12g} "
            f"h_key_given={witness.h_key_given:.12g}"
        )


def cmd_check(args: argparse.Namespace) -> int:
    scheme = load_scheme_file(args.scheme, args.graph)
    reports = run_checks(scheme, args.mode, args.exhaustive)
    passed = all(report.passed for report in reports)
    if args.json:
        if len(reports) == 1:
            doc: object = reports[0].to_json()
        else:
            doc = {"passed": passed, "reports": [r.to_json() for r in reports]}
        sys.stdout.write(dumps_canonical(doc))
    else:
        for report in reports:
            _print_report(report)
    return 0 if passed else 1


def _analysis(graph: AccessGraph, label: str) -> dict:
    return {
        "accessible": sorted(graph.accessible_set(label)),
        "forbidden": sorted(graph.forbidden_set(label)),
        "ancestors": sorted(graph.ancestor_set(label)),
        "partition_ok": graph.partition_check(label),
        "theorem_sequence": list(graph.theorem_sequence(label)),
    }


def cmd_graph_analyze(args: argparse.Namespace) -> int:
    graph = graph_from_json(load_json_file(args.graph))
    targets = sorted(graph.classes) if args.cls is None else [args.cls]
    doc = {
        "classes": list(graph.classes),
        "topological_sort": list(graph.topological_sort()),
        "well_ordered_all": list(graph.well_ordered_all()),
        "analysis": {label: _analysis(graph, label) for label in targets},
    }
    if args.json:
        sys.stdout.write(dumps_canonical(doc))
        return 0
    print("topological_sort: " + ",".join(doc["topological_sort"]))
    print("well_ordered_all: " + ",".join(doc["well_ordered_all"]))
    for label in targets:
        info = doc["analysis"][label]
        print(
            f"class {label}: "
            f"accessible={{{','.join(info['accessible'])}}} "
            f"forbidden={{{','.join(info['forbidden'])}}} "
            f"ancestors={{{','.join(info['ancestors'])}}} "
            f"partition_ok={str(info['partition_ok']).lower()} "
            f"theorem_sequence={','.join(info['theorem_sequence'])}"
        )
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .generate import gen_correlated, gen_leaky, gen_random_correct, gen_trivial

    if args.q < 2:
        raise InvalidArgument("--q must be at least 2")
    graph = graph_from_json(load_json_file(args.graph))
    if args.kind == "trivial":
        scheme = gen_trivial(graph, args.q)
    elif args.kind == "leaky":
        if not args.target or not args.leaker:
            raise InvalidArgument("--kind leaky needs --target and --leaker")
        scheme = gen_leaky(graph, args.q, args.target, args.leaker)
    elif args.kind == "correlated":
        if not args.pair or args.pair.count(",") != 1:
            raise InvalidArgument("--kind correlated needs --pair u,w")
        u, w = (part.strip() for part in args.pair.split(","))
        scheme = gen_correlated(graph, args.q, u, w)
    else:
        scheme = gen_random_correct(graph, args.q, args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        write_scheme(scheme, handle)
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    from .expr import evaluate_entropy_expr

    scheme = load_scheme_file(args.scheme)
    value = evaluate_entropy_expr(scheme, args.expr)
    if args.json:
        sys.stdout.write(dumps_canonical({"expr": args.expr, "value": round_float(value)}))
    else:
        print(f"{value:.12g}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .harness import run_validation

    graph = graph_from_json(load_json_file(args.graph))
    summary = run_validation(graph, args.q, args.trials, args.seed)
    if args.json:
        summary["max_abs_err"] = round_float(summary["max_abs_err"])
        sys.stdout.write(dumps_canonical(summary))
    else:
        for field in ("schemes", "ki_pass", "ki_fail", "discrepancies",
                      "identity_checks"):
            print(f"{field}: {summary[field]}")
        print(f"max_abs_err: {summary['max_abs_err']:.12g}")
    return 0 if summary["discrepancies"] == 0 else 1


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Run one hkas command and return its exit code.

    The cyclic collector is off while the command runs (see the module
    docstring). With no argv, main is the process's entry point: the
    collector stays off and what is alive is frozen, so the shutdown
    collection skips it. With an argv list the caller's collector state
    comes back on every way out, argparse's SystemExit included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if argv is None:
            gc.freeze()
        elif enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = _print_warning
            return args.func(args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 1
    except (HkasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # No input may end in a traceback or in exit 1, the "check failed"
        # code; KeyboardInterrupt is not an Exception and still propagates.
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
