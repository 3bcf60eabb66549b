"""The frozen-record base behaves as the frozen dataclasses it replaced:
construction, validation, ==, hash, repr and immutability, checked
against a frozen dataclass twin of each record class."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from conftest import make_diamond
from hkas import (
    AccessGraph,
    CheckReport,
    DuplicateLabel,
    EntropyExpr,
    JointDistribution,
    Scheme,
    Witness,
    check_ki,
    gen_leaky,
    parse_entropy_expr,
)
from hkas.record import Record


def _twin(cls: type) -> type:
    """A frozen dataclass with the name and fields of a record class."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)


def _examples() -> list[Record]:
    scheme = gen_leaky(make_diamond(), 2, "a", "b")
    report = check_ki(scheme)
    assert report.witnesses
    return [scheme.graph, scheme.dist, scheme, report.witnesses[0], report,
            parse_entropy_expr("I(K:a ; S:b | S:c)")]


def test_each_record_class_is_a_record_with_its_fields_in_order():
    assert [cls._fields for cls in (AccessGraph, JointDistribution, Scheme, Witness,
                                    CheckReport, EntropyExpr)] == [
        ("classes", "edges"),
        ("variables", "decoding", "codes", "weights"),
        ("graph", "dist"),
        ("cls", "secrets", "keys", "h_key", "h_key_given"),
        ("kind", "passed", "witnesses"),
        ("kind", "groups"),
    ]
    assert all(isinstance(record, Record) for record in _examples())


def test_records_repr_and_hash_as_the_frozen_dataclasses_did():
    for record in _examples():
        values = [getattr(record, name) for name in record._fields]
        twin = _twin(type(record))(*values)
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        assert record != twin and twin != record
        assert type(record)(*values) == record


def test_witness_repr_reads_as_the_dataclass_wrote_it():
    witness = Witness("a", ("S:b", "S:c"), ("K:r",), 1.0, 0.5)
    assert repr(witness) == ("Witness(cls='a', secrets=('S:b', 'S:c'), keys=('K:r',), "
                             "h_key=1.0, h_key_given=0.5)")


class _Pair(Record):
    left: int
    right: int


class _OtherPair(Record):
    left: int
    right: int


class _SubPair(_Pair):
    pass


def test_equality_and_hash_read_the_fields_and_the_exact_class():
    assert _Pair(1, 2) == _Pair(1, 2) and hash(_Pair(1, 2)) == hash(_Pair(1, 2))
    assert _Pair(1, 2) != _Pair(2, 1)
    assert _Pair(1, 2) != _OtherPair(1, 2) and _OtherPair(1, 2) != _Pair(1, 2)
    assert _SubPair._fields == ("left", "right")
    assert _SubPair(1, 2) != _Pair(1, 2) and _Pair(1, 2) != _SubPair(1, 2)
    assert len({_Pair(1, 2), _Pair(1, 2), _OtherPair(1, 2)}) == 2
    assert repr(_SubPair(1, 2)) == "_SubPair(left=1, right=2)"


def test_construction_by_position_and_keyword():
    want = Witness("a", ("S:b",), (), 1.0, 0.5)
    assert Witness(cls="a", secrets=("S:b",), keys=(), h_key=1.0, h_key_given=0.5) == want
    assert Witness("a", ("S:b",), h_key_given=0.5, keys=(), h_key=1.0) == want
    assert list(vars(want)) == list(Witness._fields)
    with pytest.raises(TypeError, match=r"^Witness\(\) missing required arguments: "
                                        r"h_key, h_key_given$"):
        Witness("a", ("S:b",), ())
    with pytest.raises(TypeError, match=r"missing required arguments: cls$"):
        Witness(secrets=(), keys=(), h_key=1.0, h_key_given=0.5)
    with pytest.raises(TypeError, match=r"takes 5 arguments but 6 were given$"):
        Witness("a", (), (), 1.0, 0.5, 0.0)
    with pytest.raises(TypeError, match=r"got multiple values for argument 'h_key'$"):
        Witness("a", (), (), 1.0, 0.5, h_key=1.0)
    with pytest.raises(TypeError, match=r"got an unexpected keyword argument 'name'$"):
        Witness("a", (), (), 1.0, 0.5, name="b")
    with pytest.raises(TypeError, match=r"unexpected keyword argument 'kind'$"):
        _Pair(1, kind=2)


def test_post_init_validates_every_construction():
    with pytest.raises(DuplicateLabel):
        AccessGraph(("a", "a"), frozenset())
    with pytest.raises(DuplicateLabel):
        AccessGraph(classes=("a", "a"), edges=frozenset())


def test_records_are_frozen_and_keep_cached_views_out_of_eq_hash_and_repr():
    graph = make_diamond()
    before = repr(graph)
    for name in ("classes", "edges", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(graph, name, ())
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(graph, name)
    # caches the reachability masks and the label order in the instance __dict__
    assert graph.accessible_set("r")
    assert "_masks" in vars(graph) and "_labels" in vars(graph)
    assert repr(graph) == before
    assert graph == make_diamond() and hash(graph) == hash(make_diamond())


def test_records_pickle_to_equal_records():
    for record in _examples():
        assert pickle.loads(pickle.dumps(record)) == record
