"""Run one hkas CLI operation with a span around each public function.

    python perfbench/trace_cli.py SPANS_OUT OP_ID [hkas cli arguments...]

Wrappers are installed on the module attributes that hkas looks up at
call time (hkas.cli.*, hkas.scheme.*, hkas.checks.check_*, hkas.harness.*)
and on the JointDistribution and AccessGraph methods; hkas itself is not
modified, and a function a later version no longer has is skipped. Spans
are kept in memory and written as JSON to SPANS_OUT when the operation
ends:

    {"op": OP_ID, "import_s": float,
     "spans": [[name, start_ns, end_ns, parent, attrs], ...]}

Every span belongs to operation OP_ID. parent is the index of the
enclosing span, or -1. attrs is null or an object of counts: "rows"
(support rows of the distribution a call ran on or produced), "groups"
and "repeats" (variable groups passed to a distribution predicate from
outside the dist layer, and how many of them were already passed for the
same distribution in this operation), "witnesses", "identity_checks" and
"schemes".
"""

import functools
import inspect
import json
import sys
import time

perf_ns = time.perf_counter_ns

_t0 = perf_ns()
import hkas.cli  # noqa: E402
IMPORT_NS = perf_ns() - _t0

import hkas.checks  # noqa: E402
import hkas.graph  # noqa: E402
import hkas.harness  # noqa: E402
import hkas.scheme  # noqa: E402
from hkas.dist import JointDistribution  # noqa: E402
from hkas.graph import AccessGraph  # noqa: E402

# Distribution predicates and the parameters that carry variable groups.
GROUP_ARGS = {
    "entropy": ("variables",),
    "conditional_entropy": ("targets", "givens"),
    "is_functionally_determined": ("targets", "givens"),
    "is_independent": ("left", "right"),
    "is_mutually_independent": ("groups",),
}
OTHER_DIST_METHODS = ("marginal", "rows")
GRAPH_METHODS = ("accessible_set", "forbidden_set", "ancestor_set", "partition_check",
                 "topological_sort", "is_well_ordered", "well_ordered_all",
                 "theorem_sequence")
GENERATORS = ("gen_trivial", "gen_leaky", "gen_correlated", "gen_random_correct")
CHECKS = {"check_correctness": "checks.correctness", "check_ki": "checks.ki",
          "check_ski": "checks.ski", "check_key_independence": "checks.key_indep"}
VERIFIERS = ("verify_independence_sum", "verify_conditional_identities",
             "verify_main_theorem_sequence")

support_size = JointDistribution.support_size


class Recorder:
    """Spans of one operation, plus the group history behind repeat counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.seen_groups: set = set()

    def wrap(self, name, fn, before=None, after=None):
        """fn inside a span called name.

        before(args, kwargs) -> (args, kwargs, attrs) runs ahead of the
        span; after(result) -> attrs adds counts taken from the result.
        """
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if before is not None:
                args, kwargs, attrs = before(args, kwargs)
            record = [name, 0, 0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_ns()
                stack.pop()
            if after is not None:
                record[4] = {**(record[4] or {}), **after(result)}
            return result

        return traced

    def group_counter(self, fn, params):
        """A before-hook that materialises and counts the variable groups."""
        signature = inspect.signature(fn)

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            groups = []
            for param in params:
                if param == "groups":
                    value = [list(group) for group in bound.arguments[param]]
                    groups.extend(value)
                else:
                    value = list(bound.arguments[param])
                    groups.append(value)
                bound.arguments[param] = value
            dist = bound.arguments["self"]
            attrs = {"rows": support_size(dist)}
            parent = self.stack[-1] if self.stack else -1
            if parent < 0 or not self.spans[parent][0].startswith("dist."):
                keys = [(id(dist), frozenset(group)) for group in groups if group]
                attrs["groups"] = len(keys)
                attrs["repeats"] = sum(key in self.seen_groups for key in keys)
                self.seen_groups.update(keys)
            return bound.args, bound.kwargs, attrs

        return before


def _patch(rec, owner, attr, name, before=None, after=None, static=False):
    fn = getattr(owner, attr, None)
    if fn is None:
        return
    traced = rec.wrap(name, fn, before, after)
    setattr(owner, attr, staticmethod(traced) if static else traced)


def _rows_of(result):
    return {"rows": support_size(result)}


def _scheme_rows(result):
    return {"rows": support_size(result.dist)}


def _witnesses(result):
    return {"witnesses": len(result.witnesses)}


def install(rec: Recorder) -> None:
    """Wrap every traced function at the attributes its callers read."""
    cli, scheme, harness = hkas.cli, hkas.scheme, hkas.harness
    for attr in dir(cli):
        if attr.startswith("cmd_"):
            _patch(rec, cli, attr, "cli." + attr)
    for owner in (cli, scheme):
        _patch(rec, owner, "load_json_file", "scheme.load_file")
        _patch(rec, owner, "graph_from_json", "graph.graph_from_json")
        _patch(rec, owner, "dumps_canonical", "jsonutil.dumps_canonical")
    _patch(rec, cli, "load_scheme_file", "scheme.load_file")
    _patch(rec, scheme, "load_scheme", "scheme.load_scheme")
    for owner in (cli, harness):
        _patch(rec, owner, "serialize_scheme", "scheme.serialize_scheme")
        for attr in GENERATORS:
            _patch(rec, owner, attr, "generate.gen", after=_scheme_rows)
    for owner in (hkas.graph, scheme):
        _patch(rec, owner, "validate_graph", "graph.validate_graph")
    for method in GRAPH_METHODS:
        _patch(rec, AccessGraph, method, "graph." + method)
    _patch(rec, JointDistribution, "from_rows", "dist.from_rows", after=_rows_of,
           static=True)
    for method, params in GROUP_ARGS.items():
        fn = getattr(JointDistribution, method, None)
        if fn is not None:
            _patch(rec, JointDistribution, method, "dist." + method,
                   before=rec.group_counter(fn, params))
    for method in OTHER_DIST_METHODS:
        _patch(rec, JointDistribution, method, "dist." + method)
    for owner in (hkas.checks, harness):
        for attr, name in CHECKS.items():
            _patch(rec, owner, attr, name, after=_witnesses)
    _patch(rec, cli, "run_checks", "checks.run_checks")
    _patch(rec, cli, "run_validation", "harness.run_validation")
    _patch(rec, harness, "build_corpus", "harness.build_corpus",
           after=lambda corpus: {"schemes": len(corpus)})
    _patch(rec, harness, "verify_equivalence", "harness.verify_equivalence")
    for attr in VERIFIERS:
        _patch(rec, harness, attr, "harness.verify_identities",
               after=lambda report: {"identity_checks": report["identity_checks"]})


def main(argv: list[str]) -> int:
    out_path, op_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder()
    install(rec)
    try:
        return rec.wrap("cli.main", hkas.cli.main)(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"op": op_id, "import_s": IMPORT_NS / 1e9, "spans": rec.spans},
                      handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
