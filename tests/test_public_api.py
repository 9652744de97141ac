"""The package's public names: ``__all__`` lists each export once, each resolves,
README's Public API section lists exactly these names, and the public float
helpers reject non-finite input."""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path

import pytest

import moserpack
from moserpack import Instance, circumference_admits, midpoint_area_bound
from moserpack.constants import delta_of_V, find_small_index


def test_star_import_resolves_every_export_once():
    names = moserpack.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    namespace: dict = {}
    # A stale name in __all__ makes the star import itself raise AttributeError.
    exec("from moserpack import *", namespace)
    assert [n for n in names if n not in namespace] == []
    assert all(namespace[n] is getattr(moserpack, n) for n in names)


def readme_public_api() -> list[str]:
    """Each bare `identifier` in README's "Public API" section; dotted paths
    such as `moserpack.geometry` are not names."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`([A-Za-z_]\w*)`", section)


def test_all_matches_readme_public_api():
    documented = readme_public_api()
    assert len(documented) == 38
    assert sorted(documented) == sorted(moserpack.__all__)


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
