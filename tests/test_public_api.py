"""The package's public names: ``__all__`` lists each export once, each resolves,
and the public float helpers reject non-finite input."""

from __future__ import annotations

import math
from collections import Counter

import pytest

import moserpack
from moserpack import (
    Instance,
    circumference_admits,
    delta_of_V,
    find_small_index,
    midpoint_area_bound,
)


def test_star_import_resolves_every_export_once():
    names = moserpack.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    namespace: dict = {}
    # A stale name in __all__ makes the star import itself raise AttributeError.
    exec("from moserpack import *", namespace)
    assert [n for n in names if n not in namespace] == []
    assert all(namespace[n] is getattr(moserpack, n) for n in names)


#: A valid call of each helper; every float argument in turn is made non-finite.
VALID_CALLS = [
    (circumference_admits, (1.2, 1.0, 3.0, 0.1)),
    (delta_of_V, (1.5, 0.5)),
    (midpoint_area_bound, (1.5, 300, 0.1, 0.001)),
    (find_small_index, (Instance((0.5, 0.1)), 0.5, 0, 3)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("func, args, pos", [
    pytest.param(f, args, i, id=f"{f.__name__}-arg{i}")
    for f, args in VALID_CALLS for i, a in enumerate(args) if isinstance(a, float)
])
def test_helpers_reject_non_finite_float_arguments(func, args, pos, bad):
    func(*args)
    with pytest.raises(ValueError):
        func(*args[:pos], bad, *args[pos + 1:])
