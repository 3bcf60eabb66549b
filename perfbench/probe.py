"""Set-up probe: import the CLI and load one workload input, then exit.

    python perfbench/probe.py scheme PATH   load a scheme file
    python perfbench/probe.py graph PATH    load a graph file

The benchmark times this process from launch to exit as `setup_s`, so
work moved from an operation into import or load shows there.
"""

import json
import sys

import hkas
import hkas.cli  # noqa: F401  (the import a CLI user pays for)


def main(kind: str, path: str) -> None:
    if kind == "scheme":
        hkas.load_scheme_file(path)
    elif kind == "graph":
        with open(path, "r", encoding="utf-8") as handle:
            hkas.graph_from_json(json.load(handle))
    else:
        raise SystemExit(f"unknown probe kind {kind!r}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
