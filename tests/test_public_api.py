"""The package's public names: ``__all__`` lists each export once, each resolves,
README's Public API section lists exactly these names, and the public float
helpers, with the circumference oracle of the tests, reject non-finite input.
The constants layer imports nothing else of the package but its errors and
the value types' base, a leaf.  The 11 value types keep the equality, hash,
frozenness, repr, defaults and dict key order they had as dataclasses."""

from __future__ import annotations

import ast
import functools
import json
import math
import re
from array import array
from collections import Counter
from pathlib import Path

import pytest

import moserpack
import moserpack._value
import moserpack.constants
from moserpack import (
    ConstantsReport,
    Instance,
    PackParams,
    Packing,
    Placement,
    Rectangle,
    ReduceResult,
    VerificationReport,
    Violation,
    WhitespaceJob,
    build_report,
    midpoint_area_bound,
    report_to_dict,
    result_to_dict,
)
from moserpack.cli import cli_dispatch
from moserpack.geometry import RectilinearRegion
from moserpack.reduction import find_small_index

from conftest import circumference_admits


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
    assert len(documented) == 35
    assert sorted(documented) == sorted(moserpack.__all__)


#: A valid call of each helper; every float argument in turn is made non-finite.
VALID_CALLS = [
    (circumference_admits, (1.2, 1.0, 3.0, 0.1)),
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


def package_imports(module) -> set:
    """The package modules a module's import statements name, at module level
    or inside a function."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            if node.level or name.split(".")[0] == "moserpack":
                package.add(name)
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.split(".")[0] == "moserpack")
    return package


def test_constants_imports_only_errors_from_the_package():
    # besides the errors, the value types' base, which is a leaf: so the
    # constants layer still depends on no other layer
    assert package_imports(moserpack.constants) == {".errors", "._value"}
    assert package_imports(moserpack._value) == set()

def _packing(side: float = 0.5) -> Packing:
    return Packing(Rectangle(1.0, 1.0), array("d", [side]), array("d", [0.0]), array("d", [0.0]))


_PARAMS = {"F": 1.244, "c": 0.0725, "N0": 2, "N1": 3, "N": 9, "s1_threshold": 0.1, "toy": True}
_REPORT = {"F": "1.5", "c": "0.1", "delta_simple": "0.001", "delta_refined": None,
           "N0_simple": 9, "N0_integral": 5, "N1": 9, "N": 66, "use_integral_n0": False,
           "floor_certificates": {"N0_simple": True}}

#: Each value type: every field by keyword in field order, one field to change
#: and its other value, and whether equal objects hash (a field may not).
VALUE_TYPES = [
    (Rectangle, {"width": 1.0, "height": 2.0}, "height", 3.0, True),
    (Placement, {"side": 0.5, "x": 0.0, "y": 0.25}, "y", 0.5, True),
    (Instance, {"sides": (0.5, 0.25), "declared_total_area": None}, "sides", (0.5,), True),
    (Packing, {"rect": Rectangle(1.0, 1.0), "sides": array("d", [0.5]), "xs": array("d", [0.0]),
               "ys": array("d", [0.0])}, "xs", array("d", [0.25]), False),
    (Violation, {"kind": "overlap", "index": 1, "partner": 2, "measure": 0.5},
     "partner", 3, True),
    (VerificationReport, {"valid": False, "violations": (Violation("outside", 0),),
                          "truncated": False, "pairs_examined": 4}, "truncated", True, True),
    (RectilinearRegion, {"parts": ((0.0, 0.0, 1.0, 1.0),)}, "parts", (), True),
    (PackParams, _PARAMS, "toy", False, True),
    (ReduceResult, {"case": "b", "packing": _packing(), "params": PackParams(**_PARAMS),
                    "split_index": 2}, "case", "c", False),
    (WhitespaceJob, {"base": _packing(), "tail": Instance((0.01,)), "c": 0.07, "F": 1.2},
     "c", 0.05, False),
    (ConstantsReport, _REPORT, "N", 67, False),
]


@pytest.mark.parametrize("cls, fields, name, other, hashable", VALUE_TYPES,
                         ids=[case[0].__name__ for case in VALUE_TYPES])
def test_value_types_compare_hash_freeze_and_print_by_field(cls, fields, name, other, hashable):
    value, same = cls(**fields), cls(*fields.values())
    assert value == same
    assert value != cls(**{**fields, name: other})
    # another type with the same fields, and the field tuple itself, differ
    assert value != type("Other", (cls,), {})(**fields)
    assert value != tuple(fields.values())
    assert repr(value) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    if cls is Packing:
        assert Packing.__hash__ is None
        with pytest.raises(TypeError):
            hash(value)
        value.xs = array("d", [0.25])  # not frozen
        assert value == cls(**{**fields, name: other})
        return
    if hashable:
        assert hash(value) == hash(same)
    else:  # a field (a packing or a dict) is unhashable
        with pytest.raises(TypeError):
            hash(value)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == same


def test_value_types_keep_their_defaults_and_rules():
    assert VerificationReport(True) == VerificationReport(True, (), False, 0)
    assert VerificationReport(True).pairs_examined == 0
    # pairs_examined describes the work, not the verdict
    assert VerificationReport(True, (), False, 1) == VerificationReport(True, (), False, 2)
    assert hash(VerificationReport(True, (), False, 1)) == hash(VerificationReport(True))
    assert Violation("outside", 3) == Violation(kind="outside", index=3, partner=None, measure=0.0)
    assert RectilinearRegion().parts == ()
    assert RectilinearRegion(parts=((0.0, 0.0, 1.0, 1.0),)).parts == ((0.0, 0.0, 1.0, 1.0),)
    packing, params = _packing(), PackParams(**_PARAMS)
    assert ReduceResult("a", packing, params).split_index is None
    assert PackParams(1.5, 0.1, 1, 1, 1) == PackParams(1.5, 0.1, 1, 1, 1, 0.1, False)
    assert Instance((0.25, 0.5)).sides == (0.5, 0.25)
    assert Instance((0.25, 0.5)).declared_total_area is None
    assert isinstance(vars(Instance)["total_area"], functools.cached_property)
    inst = Instance((0.6, 0.8), declared_total_area=1.0)
    assert inst.total_area == 1.0 and vars(inst)["total_area"] == 1.0


@pytest.mark.parametrize("cls, args, kwargs, words", [
    (Violation, ("overlap",), {}, ("missing", "'index'")),
    (Violation, ("overlap", 1), {"other": 2}, ("no field", "'other'")),
    (Violation, ("overlap", 1), {"kind": "outside"}, ("twice", "'kind'")),
    (Violation, ("overlap", 1, 2, 0.5, 0), {}, ("4 fields", "5 positional")),
    (Rectangle, (1.0,), {}, ("missing", "'height'")),
    (Rectangle, (1.0, 2.0), {"depth": 2.0}, ("unexpected", "'depth'")),
    (Rectangle, (1.0, 2.0), {"width": 3.0}, ("multiple", "'width'")),
    (Rectangle, (1.0, 2.0, 3.0), {}, ("4 were given",)),
], ids=[f"{cls}-{case}" for cls in ("Violation", "Rectangle")
        for case in ("missing", "unknown", "repeated", "surplus")])
def test_value_types_refuse_a_missing_unknown_repeated_or_surplus_field(cls, args, kwargs,
                                                                         words):
    with pytest.raises(TypeError) as err:
        cls(*args, **kwargs)
    for word in (cls.__name__, *words):
        assert word in str(err.value)


def test_fields_by_name_take_the_class_defaults_around_them():
    report = VerificationReport(False, pairs_examined=3)
    assert (report.violations, report.truncated, report.pairs_examined) == ((), False, 3)
    assert Violation("overlap", 1, measure=0.5) == Violation("overlap", 1, None, 0.5)
    # a subclass made with type() keeps the fields and their defaults
    Other = type("Other", (Violation,), {})
    assert Other.__match_args__ == Violation.__match_args__
    assert repr(Other("outside", 3)) == "Other(kind='outside', index=3, partner=None, measure=0.0)"


def test_dict_forms_keep_their_key_order(tmp_path):
    report = build_report("novotny")
    assert list(report_to_dict(report)) == list(_REPORT)
    result = ReduceResult("b", _packing(), PackParams(**_PARAMS), split_index=2)
    assert list(result_to_dict(result)) == ["case", "packing", "params", "split_index"]
    assert list(result_to_dict(result)["params"]) == list(_PARAMS)
    # two overlapping squares, one of them outside
    packed = {"rect": {"w": 1.0, "h": 1.0}, "placements": [
        {"side": 0.5, "x": 0.0, "y": 0.0}, {"side": 0.8, "x": 0.25, "y": 0.25}]}
    path, out = tmp_path / "packing.json", tmp_path / "verdict.json"
    path.write_text(json.dumps(packed))
    assert cli_dispatch(["verify", "--packing", str(path), "-o", str(out)]) == 1
    verdict = json.loads(out.read_text())
    assert list(verdict) == ["valid", "violations", "truncated", "pairs_examined"]
    assert [list(v) for v in verdict["violations"]] == [["kind", "index", "partner", "measure"]] * 2
