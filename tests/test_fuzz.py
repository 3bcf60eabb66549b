"""Seeded fuzz of the scheme loader through the CLI.

Mutants of the golden scheme files are checked in process. Each must
end in exit 0 or 1 with nothing on stderr, or in exit 2 with exactly
one "error:" line, and the library then raises a typed HkasError; a
traceback fails. A mutant that loads must re-serialise to the reference
encoder's bytes.
"""

from __future__ import annotations

import json

import pytest

from conftest import DATA_DIR, reference_serialize_scheme
from hkas import HkasError, SplitMix64, load_scheme_file, serialize_scheme
from hkas.cli import main

GOLDENS = ("golden-random-q2-s42.json", "golden-random-q2-s2.json")
MUTANTS = 400
REPLACEMENTS = (1.5, True, None, [], {}, [[[0]]])


def _overwrite(rng: SplitMix64, text: bytes) -> bytes:
    data = bytearray(text)
    for _ in range(1 + rng.next_below(4)):
        data[rng.next_below(len(data))] = rng.next_below(256)
    return bytes(data)


def _truncate(rng: SplitMix64, text: bytes) -> bytes:
    return text[:rng.next_below(len(text))]


def _replace_value(rng: SplitMix64, text: bytes) -> bytes:
    doc = json.loads(text)
    row = doc["support"][rng.next_below(len(doc["support"]))]
    slots = [(row["assignment"], var) for var in sorted(row["assignment"])]
    slots.append((row, "p"))
    owner, key = slots[rng.next_below(len(slots))]
    owner[key] = REPLACEMENTS[rng.next_below(len(REPLACEMENTS))]
    return json.dumps(doc, indent=2).encode()


MUTATIONS = (_overwrite, _truncate, _replace_value)


def test_mutated_goldens_load_or_fail_cleanly(capsys, tmp_path):
    rng = SplitMix64(2014)
    goldens = [(DATA_DIR / name).read_bytes() for name in GOLDENS]
    path = tmp_path / "mutant.json"
    codes = {0: 0, 1: 0, 2: 0}
    for index in range(MUTANTS):
        golden = goldens[rng.next_below(len(goldens))]
        mutant = MUTATIONS[rng.next_below(len(MUTATIONS))](rng, golden)
        path.write_bytes(mutant)
        code = main(["check", "--scheme", str(path)])
        out, err = capsys.readouterr()
        context = f"mutant {index}: exit {code}, stderr {err!r}"
        assert code in codes, context
        codes[code] += 1
        if code == 2:
            assert out == "" and err.startswith("error:"), context
            assert err.count("\n") == 1, context
            with pytest.raises(HkasError):
                load_scheme_file(str(path))
            continue
        assert err == "", context
        scheme = load_scheme_file(str(path))
        assert serialize_scheme(scheme) == reference_serialize_scheme(scheme), context
    # Every outcome shows up, so the mutations reach past the decoder.
    assert all(codes.values()), codes

