"""The package's public names: ``__all__`` lists each export once, and each resolves."""

from __future__ import annotations

from collections import Counter

import moserpack


def test_star_import_resolves_every_export_once():
    names = moserpack.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    namespace: dict = {}
    # A stale name in __all__ makes the star import itself raise AttributeError.
    exec("from moserpack import *", namespace)
    assert [n for n in names if n not in namespace] == []
    assert all(namespace[n] is getattr(moserpack, n) for n in names)
