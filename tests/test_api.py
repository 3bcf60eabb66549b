"""The public API: hkas.__all__ names each export once, in sorted order,
and every name in it resolves, so a deletion leaves no stale export."""

from __future__ import annotations

import hkas


def test_all_is_sorted_unique_and_resolves():
    names = hkas.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(hkas, name)] == []
