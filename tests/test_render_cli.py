"""SVG rendering and the command line interface."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
import xml.etree.ElementTree as ET
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from moserpack import (
    Instance,
    PackParams,
    Packing,
    Placement,
    Rectangle,
    ReduceResult,
    WhitespaceJob,
    compute_c,
    instance_from_dict,
    meir_moser_pack,
    packing_from_dict,
    packing_to_dict,
    reduce_and_pack,
    render_svg,
    result_to_dict,
    verify_packing,
    whitespace_pack,
)
import moserpack.cli
from moserpack.cli import (
    _emit_json,
    _packing_pieces,
    _read_json,
    _result_pieces,
    cli_dispatch,
)

from conftest import packing_of
from test_whitespace import make_job

SVG_NS = "{http://www.w3.org/2000/svg}"


def sample_packing() -> Packing:
    big = 1 / math.sqrt(2)
    small = math.sqrt(1 / 6)
    rect = Rectangle(big + 2 * small, 2 * small)
    return packing_of(
        rect,
        [
            Placement(big, 0.0, 0.0),
            Placement(small, big, 0.0),
            Placement(small, big, small),
            Placement(small, big + small, 0.0),
        ],
    )


def svg_rects(text: str) -> list:
    """The attributes of each ``<rect>`` in an SVG text, in document order."""
    return [el.attrib for el in ET.fromstring(text).findall(f"{SVG_NS}rect")]


class TestRender:
    def test_structure(self):
        rects = svg_rects(render_svg(sample_packing(), 400.0))
        assert len(rects) == 5
        assert rects[0]["class"] == "enclosing"
        assert all(r["class"] == "prefix" for r in rects[1:])

    def test_y_axis_flip(self):
        p = packing_of(Rectangle(2.0, 1.0), [Placement(0.5, 0.25, 0.25)])
        sq = svg_rects(render_svg(p, 100.0))[1]
        # repr round-trips, so the parsed numbers are the written ones
        assert tuple(float(sq[k]) for k in ("x", "y", "width", "height")) == (
            25.0, 25.0, 50.0, 50.0)

    def test_tail_classing(self):
        rects = svg_rects(render_svg(sample_packing(), 100.0, tail_from=2))
        assert [r["class"] for r in rects[1:]] == ["prefix", "prefix", "tail", "tail"]

    def test_output_is_well_formed_svg(self):
        root = ET.fromstring(render_svg(sample_packing(), 250.0))
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("version") == "1.1"
        assert len(root.findall(f"{SVG_NS}rect")) == 5

    def test_coordinates_round_trip_exactly(self):
        packing = sample_packing()
        scale = 173.0
        root = ET.fromstring(render_svg(packing, scale))
        rects = root.findall(f"{SVG_NS}rect")[1:]
        H = float(root.get("height"))
        for p, el in zip(packing.placements, rects):
            side = float(el.get("width"))
            x = float(el.get("x"))
            y = float(el.get("y"))
            # repr round-trips: these must be bit-identical, not just close
            assert side == p.side * scale
            assert x == p.x * scale
            assert y == H - p.y * scale - side

    def test_draws_a_written_column(self):
        # The placements and the drawing are read from the columns on each
        # use, so a write to a column shows in both.
        p = sample_packing()
        p.xs[1] = 0.5
        assert p.placements[1].x == 0.5
        assert float(svg_rects(render_svg(p, 400.0))[2]["x"]) == 0.5 * 400.0

    @pytest.mark.parametrize("build, scale, tail_from, digest", [
        (sample_packing, 400.0, None,
         "dba7d414b76814e5ee05e1a394ffb9ab22c323a5a8db7ed8c8fd935147bbdf53"),
        (lambda: whitespace_pack(make_job(n_tail=20)), 250.0, 158,
         "ef89687fbdadd3bf020c45443dfa4970535fcc0149d5bfdacc476006c7087d1b"),
    ], ids=["reference", "whitespace"])
    def test_golden_bytes(self, build, scale, tail_from, digest):
        text = render_svg(build(), scale, tail_from=tail_from)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_byte_identical_across_runs(self):
        a = render_svg(sample_packing(), 400.0)
        b = render_svg(sample_packing(), 400.0)
        assert a == b

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            render_svg(sample_packing(), 0.0)

    @pytest.mark.parametrize("tail_from", [-5, -1, 5])
    def test_tail_from_outside_the_squares(self, tail_from):
        with pytest.raises(ValueError, match="tail_from"):
            render_svg(sample_packing(), 100.0, tail_from=tail_from)

    @pytest.mark.parametrize("tail_from, classes", [(0, {"tail"}), (4, {"prefix"})])
    def test_tail_from_at_either_end(self, tail_from, classes):
        rects = svg_rects(render_svg(sample_packing(), 100.0, tail_from=tail_from))
        assert {r["class"] for r in rects[1:]} == classes

    def test_number_overflowing_at_scale(self):
        p = packing_of(Rectangle(1.6, 0.8), [Placement(0.8, 0.0, 0.0)])
        assert svg_rects(render_svg(p, 1e308))[0]["height"] == repr(0.8 * 1e308)
        with pytest.raises(ValueError, match="not finite"):
            render_svg(p, 1.5e308)

    def test_non_finite_coordinate(self):
        p = sample_packing()
        p.ys[2] = math.nan
        with pytest.raises(ValueError, match="prefix rect"):
            render_svg(p, 100.0)


class TestCli:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_pack_and_verify(self, tmp_path):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.5, 0.5]})
        out = tmp_path / "packed.json"
        code = cli_dispatch(
            ["pack", "--mode", "moon-moser", "--instance", inst,
             "--rect", "1.0x1.0", "-o", str(out)]
        )
        assert code == 0
        packed = json.loads(out.read_text())
        assert len(packed["placements"]) == 2

        code = cli_dispatch(["verify", "--packing", str(out), "-o",
                             str(tmp_path / "report.json")])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["valid"] is True
        assert report["violations"] == []

    def test_verify_rejects_bad_packing(self, tmp_path):
        bad = self.write(
            tmp_path,
            "bad.json",
            {
                "rect": {"w": 1.0, "h": 1.0},
                "placements": [
                    {"side": 0.8, "x": 0.0, "y": 0.0},
                    {"side": 0.8, "x": 0.1, "y": 0.1},
                ],
            },
        )
        out = tmp_path / "report.json"
        assert cli_dispatch(["verify", "--packing", bad, "-o", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["valid"] is False
        assert report["violations"][0]["kind"] in {"overlap", "outside"}

    def overlapping_pair(self, tmp_path):
        return self.write(
            tmp_path,
            "pair.json",
            {
                "rect": {"w": 2.0, "h": 2.0},
                "placements": [
                    {"side": 1.0, "x": 0.0, "y": 0.0},
                    {"side": 1.0, "x": 0.5, "y": 0.5},
                ],
            },
        )

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-12"])
    def test_verify_rejects_bad_tol(self, tmp_path, capsys, tol):
        packing = self.overlapping_pair(tmp_path)
        assert cli_dispatch(["verify", "--packing", packing, f"--tol={tol}"]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ValueError"
        assert "tol" in err["error"]["message"]

    def test_verify_reports_pairs_examined(self, tmp_path, capsys):
        assert cli_dispatch(["verify", "--packing", self.overlapping_pair(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert report["pairs_examined"] == 1
        assert report["violations"] == [
            {"kind": "overlap", "index": 0, "partner": 1, "measure": 0.25}
        ]

    def test_verify_rejects_nan_token(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text(
            '{"rect": {"w": 1.0, "h": 1.0}, "placements": ['
            '{"side": NaN, "x": 0.0, "y": 0.0}, {"side": 0.5, "x": 0.0, "y": 0.0}]}'
        )
        assert cli_dispatch(["verify", "--packing", str(bad)]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("key", ["x", "y"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_verify_rejects_non_finite_corner_token(self, tmp_path, capsys, key, token):
        corner = {"x": "0.0", "y": "0.0", key: token}
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"rect": {"w": 1.0, "h": 1.0}, "placements": ['
            '{"side": 0.5, "x": 0.5, "y": 0.5}, '
            f'{{"side": 0.5, "x": {corner["x"]}, "y": {corner["y"]}}}]}}'
        )
        assert cli_dispatch(["verify", "--packing", str(bad)]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ValueError"
        assert "finite" in err["error"]["message"]

    def test_verify_non_object_packing_maps_to_error_json(self, tmp_path, capsys):
        bad = self.write(tmp_path, "list.json", [1, 2])
        assert cli_dispatch(["verify", "--packing", bad]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "TypeError"

    def test_pack_non_numeric_total_area_maps_to_error_json(self, tmp_path, capsys):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.5], "total_area": "x"})
        code = cli_dispatch(
            ["pack", "--mode", "moon-moser", "--instance", inst, "--rect", "1x1"]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == {"type": "ValueError",
                                "message": "total_area: expected a JSON number, got 'x'"}

    def test_usage_error_maps_to_error_json(self, capsys):
        assert cli_dispatch(["verify"]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.out)
        assert err["error"]["type"] == "ValueError"
        assert "--packing" in err["error"]["message"]
        assert captured.err == ""

    def test_calls_share_no_state(self, tmp_path, capsys):
        # one parser serves every call: a flag or a usage error of one call
        # must not reach the next
        pair = self.overlapping_pair(tmp_path)
        assert cli_dispatch(["verify", "--packing", pair, "--tol", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
        assert cli_dispatch(["verify", "--packing", pair]) == 1
        assert json.loads(capsys.readouterr().out)["valid"] is False
        assert cli_dispatch(["verify", "--tol", "0.5"]) == 1
        assert "error" in json.loads(capsys.readouterr().out)
        assert cli_dispatch(["verify", "--packing", pair, "--tol", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_dispatch(["verify", "--help"])
        assert info.value.code == 0
        assert "--packing" in capsys.readouterr().out

    def test_pack_small_s1_with_factor(self, tmp_path):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.1] * 100})
        out = tmp_path / "packed.json"
        code = cli_dispatch(
            ["pack", "--mode", "small-s1", "--instance", inst,
             "--F", "novotny", "-o", str(out)]
        )
        assert code == 0
        packed = json.loads(out.read_text())
        assert packed["rect"]["w"] == pytest.approx(math.sqrt((2 + math.sqrt(3)) / 3))

    def test_pack_small_s1_needs_factor(self, tmp_path, capsys):
        # F comes from --F alone; a square --rect is no second way to give it
        inst = self.write(tmp_path, "inst.json", {"sides": [0.1] * 100})
        out = tmp_path / "packed.json"
        side = repr(math.sqrt(1.3))
        code = cli_dispatch(
            ["pack", "--mode", "small-s1", "--instance", inst,
             "--rect", f"{side}x{side}", "-o", str(out)]
        )
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ValueError" and "--F" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("mode, flags, unread", [
        ("small-s1", ["--F", "1.3", "--rect", "5x5"], "--rect"),
        ("moon-moser", ["--rect", "1.2x1.2", "--F", "9"], "--F"),
        ("meir-moser", ["--rect", "1.2x1.2", "--F", "9"], "--F"),
    ], ids=["small-s1", "moon-moser", "meir-moser"])
    def test_pack_rejects_the_flag_its_mode_does_not_read(self, tmp_path, capsys,
                                                          mode, flags, unread):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.1] * 100})
        out = tmp_path / "packed.json"
        code = cli_dispatch(["pack", "--mode", mode, "--instance", inst, *flags,
                             "-o", str(out)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ValueError"
        assert err["message"].endswith(f"takes no {unread}"), err
        assert not out.exists()

    def test_pack_requires_rect_for_moon_moser(self, tmp_path, capsys):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.5]})
        code = cli_dispatch(["pack", "--mode", "moon-moser", "--instance", inst])
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ValueError"
        assert "--rect" in err["error"]["message"]

    def test_precondition_failure_maps_to_error_json(self, tmp_path, capsys):
        inst = self.write(tmp_path, "inst.json", {"sides": [1.0]})
        code = cli_dispatch(
            ["pack", "--mode", "moon-moser", "--instance", inst, "--rect", "1.2x1.2"]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "PreconditionViolated"

    def test_missing_file_maps_to_error_json(self, tmp_path, capsys):
        code = cli_dispatch(
            ["pack", "--mode", "moon-moser",
             "--instance", str(tmp_path / "nope.json"), "--rect", "1x2"]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert "error" in err

    def test_constants_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_dispatch(["constants", "--F", "1.37", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["N0_simple"] == 11_294_345
        assert report["N0_integral"] == 123_147
        assert report["N"] == 83_454_548
        assert report["delta_refined"] is None

    def test_constants_refined_integral(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_dispatch(
            ["constants", "--F", "1.37", "--refined", "--integral-n0", "-o", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["use_integral_n0"] is True
        assert float(report["delta_refined"]) >= float(report["delta_simple"])

    def test_whitespace_command(self, tmp_path):
        from moserpack import Instance, compute_c, meir_moser_pack

        F = (2 + math.sqrt(3)) / 3
        c = float(compute_c(F))
        base_side = math.sqrt((1 - c * c) / 158)
        base = meir_moser_pack(
            Instance((base_side,) * 158), Rectangle(math.sqrt(F), F / math.sqrt(F))
        )
        base_file = self.write(tmp_path, "base.json", packing_to_dict(base))
        tail_file = self.write(
            tmp_path, "tail.json", {"sides": [c / math.sqrt(158) * 0.9] * 20}
        )
        out = tmp_path / "full.json"
        code = cli_dispatch(
            ["whitespace", "--base", base_file, "--tail", tail_file,
             "--c", repr(c), "--F", repr(F), "-o", str(out)]
        )
        assert code == 0
        packed = json.loads(out.read_text())
        assert len(packed["placements"]) == 178

    def test_whitespace_empty_base_maps_to_error_json(self, tmp_path, capsys):
        F = (2 + math.sqrt(3)) / 3
        c = float(compute_c(F))
        base = self.write(tmp_path, "base.json",
                          {"rect": {"w": math.sqrt(F), "h": math.sqrt(F)}, "placements": []})
        tail = self.write(tmp_path, "tail.json", {"sides": [0.01]})
        code = cli_dispatch(["whitespace", "--base", base, "--tail", tail,
                             "--c", repr(c), "--F", repr(F)])
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "PreconditionViolated"
        assert "base count 0" in err["error"]["message"]

    def test_whitespace_overlapping_base_maps_to_error_json(self, tmp_path, capsys):
        # a base the job accepts, but with its first two squares overlapping
        job = make_job(n_tail=8, tail_scale=0.9)
        base = packing_to_dict(job.base)
        base["placements"][1]["x"] = 0.5 * base["placements"][1]["x"]
        base_file = self.write(tmp_path, "base.json", base)
        tail = self.write(tmp_path, "tail.json", {"sides": list(job.tail.sides)})
        out = tmp_path / "full.json"
        code = cli_dispatch(["whitespace", "--base", base_file, "--tail", tail,
                             "--c", repr(job.c), "--F", repr(job.F), "-o", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "PreconditionViolated"
        assert "base packing is not valid" in err["error"]["message"]
        assert not out.exists()

    def test_reduce_toy(self, tmp_path):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.1] * 100})
        toy = self.write(
            tmp_path, "toy.json",
            {"c": 0.07256326599821739, "N0": 4, "N1": 158, "N": 1167},
        )
        out = tmp_path / "result.json"
        code = cli_dispatch(
            ["reduce", "--instance", inst, "--F", "novotny",
             "--toy-params", toy, "-o", str(out)]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["case"] == "a"
        assert len(result["packing"]["placements"]) == 100

    def test_reduce_rejects_nan_threshold(self, tmp_path, capsys):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.1] * 100})
        toy = self.write(
            tmp_path, "toy.json",
            {"c": 0.07256326599821739, "N0": 4, "N1": 158, "N": 1167,
             "s1_threshold": math.nan},
        )
        out = tmp_path / "result.json"
        code = cli_dispatch(
            ["reduce", "--instance", inst, "--F", "novotny",
             "--toy-params", toy, "-o", str(out)]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ValueError"
        assert "s1 threshold" in err["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("sides, got", [("11", "str"), ("0550", "str"),
                                            ({"0.5": 1}, "dict")])
    def test_sides_must_be_a_json_array(self, tmp_path, capsys, sides, got):
        # read as an iterable, "11" was two unit squares, "0550" the sides
        # (5, 5, 0, 0) and the object one square of side 0.5
        with pytest.raises(ValueError, match=f"JSON array, got {got}"):
            instance_from_dict({"sides": sides})
        inst = self.write(tmp_path, "inst.json", {"sides": sides})
        assert cli_dispatch(["reduce", "--instance", inst, "--F", "novotny"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ValueError"
        assert f"JSON array, got {got}" in err["message"]

    @pytest.mark.parametrize("key, value", [("N0", 4.9), ("N1", 158.7), ("N", 1167.5),
                                            ("N0", True), ("N0", "4")])
    def test_reduce_rejects_non_integral_indices(self, tmp_path, capsys, key, value):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.1] * 100})
        raw = {"c": 0.07256326599821739, "N0": 4, "N1": 158, "N": 1167, key: value}
        toy = self.write(tmp_path, "toy.json", raw)
        out = tmp_path / "result.json"
        code = cli_dispatch(
            ["reduce", "--instance", inst, "--F", "novotny",
             "--toy-params", toy, "-o", str(out)]
        )
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ValueError"
        assert f"{key} must be an integer" in err["message"]
        assert not out.exists()

    def test_reduce_reads_a_whole_float_index_as_an_integer(self, tmp_path):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.1] * 100})
        texts = []
        for N0 in (4, 4.0):
            toy = self.write(tmp_path, "toy.json",
                             {"c": 0.07256326599821739, "N0": N0, "N1": 158, "N": 1167})
            out = tmp_path / "result.json"
            assert cli_dispatch(
                ["reduce", "--instance", inst, "--F", "novotny",
                 "--toy-params", toy, "-o", str(out)]
            ) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["params"]["N0"] == 4

    def test_reduce_integral_n0_is_not_for_toy_params(self, tmp_path, capsys):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.1] * 100})
        toy = self.write(tmp_path, "toy.json",
                         {"c": 0.07256326599821739, "N0": 4, "N1": 158, "N": 1167})
        out = tmp_path / "result.json"
        code = cli_dispatch(
            ["reduce", "--instance", inst, "--F", "novotny", "--toy-params", toy,
             "--integral-n0", "-o", str(out)]
        )
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ValueError"
        assert "--integral-n0" in err["message"]
        assert not out.exists()

    def test_reduce_integral_n0_reaches_case_b_at_paper_scale(self, tmp_path):
        # test_c10's instance and pin, through the CLI and back: the
        # integral chain splits at N0 = N1 = 491,225.
        n = 10**6
        inst = self.write(tmp_path, "inst.json", {"sides": [0.5] + [math.sqrt(0.75 / n)] * n})
        out = tmp_path / "result.json"
        assert cli_dispatch(["reduce", "--instance", inst, "--F", "novotny",
                             "--integral-n0", "-o", str(out)]) == 0
        data = _read_json(str(out))
        assert (data["case"], data["split_index"]) == ("b", 491_225)
        assert (data["params"]["N0"], data["params"]["N"]) == (491_225, 3_629_689)
        packing = packing_from_dict(data.pop("packing"))
        rows = np.column_stack([np.frombuffer(c) for c in (packing.sides, packing.xs, packing.ys)])
        assert hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest() == \
            "65be89e4ae2df59fcb9f47901a6e8bffdea847d346f0cac2f522758832d9ba19"

    def test_reduce_output_is_single_line_result_dict(self, tmp_path):
        sides = [math.sqrt((1 - k / 400) / 200.5) for k in range(400)]
        inst = self.write(tmp_path, "inst.json", {"sides": sides})
        raw = {"c": 0.07256326599821739, "N0": 4, "N1": 158, "N": 1167}
        toy = self.write(tmp_path, "toy.json", raw)
        out = tmp_path / "result.json"
        assert cli_dispatch(
            ["reduce", "--instance", inst, "--F", "novotny",
             "--toy-params", toy, "-o", str(out)]
        ) == 0
        params = PackParams.toy_params(F=(2 + math.sqrt(3)) / 3, **raw)
        expected = result_to_dict(reduce_and_pack(Instance(tuple(sides)), params))
        assert expected["case"] == "a"
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text) == expected

    def test_reduce_output_feeds_verify_and_render(self, tmp_path):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.1] * 100})
        toy = self.write(
            tmp_path, "toy.json",
            {"c": 0.07256326599821739, "N0": 4, "N1": 158, "N": 1167},
        )
        result = tmp_path / "result.json"
        assert cli_dispatch(
            ["reduce", "--instance", inst, "--F", "novotny",
             "--toy-params", toy, "-o", str(result)]
        ) == 0
        report = tmp_path / "report.json"
        assert cli_dispatch(
            ["verify", "--packing", str(result), "-o", str(report)]
        ) == 0
        assert json.loads(report.read_text())["valid"] is True
        svg = tmp_path / "result.svg"
        assert cli_dispatch(
            ["render", "--packing", str(result), "--scale", "100", "-o", str(svg)]
        ) == 0
        assert len(ET.fromstring(svg.read_text()).findall(f"{SVG_NS}rect")) == 101

    def test_render_command(self, tmp_path):
        packing_file = self.write(
            tmp_path, "packing.json", packing_to_dict(sample_packing())
        )
        out = tmp_path / "out.svg"
        code = cli_dispatch(
            ["render", "--packing", packing_file, "--scale", "400",
             "--tail-from", "1", "-o", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        root = ET.fromstring(text)
        assert len(root.findall(f"{SVG_NS}rect")) == 5

    def test_render_deterministic(self, tmp_path):
        packing_file = self.write(
            tmp_path, "packing.json", packing_to_dict(sample_packing())
        )
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli_dispatch(["render", "--packing", packing_file, "--scale", "300", "-o", str(a)])
        cli_dispatch(["render", "--packing", packing_file, "--scale", "300", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_render_rejects_non_finite_scale(self, tmp_path, capsys, scale):
        packing_file = self.write(
            tmp_path, "packing.json", packing_to_dict(sample_packing())
        )
        out = tmp_path / "out.svg"
        code = cli_dispatch(
            ["render", "--packing", packing_file, "--scale", scale, "-o", str(out)]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ValueError"
        assert "scale" in err["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("args, word", [
        (["--scale", "400", "--tail-from", "-5"], "tail_from"),
        (["--scale", "400", "--tail-from", "5"], "tail_from"),
        (["--scale", "1.5e308"], "not finite"),
    ], ids=["tail_from_negative", "tail_from_past_end", "overflowing_scale"])
    def test_render_rejects_what_it_cannot_draw(self, tmp_path, capsys, args, word):
        packing_file = self.write(
            tmp_path, "packing.json", packing_to_dict(sample_packing())
        )
        out = tmp_path / "out.svg"
        code = cli_dispatch(["render", "--packing", packing_file, *args, "-o", str(out)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ValueError"
        assert word in err["message"]
        assert not out.exists()

    def error_of(self, tmp_path, capsys, command, text):
        """The one JSON error line a command prints for the input ``text``."""
        path = tmp_path / "input.json"
        path.write_text(text)
        out = tmp_path / "out.svg"
        argv = {"verify": ["verify", "--packing", str(path)],
                "render": ["render", "--packing", str(path), "--scale", "100", "-o", str(out)],
                "reduce": ["reduce", "--instance", str(path), "--F", "novotny"]}[command]
        assert cli_dispatch(argv) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert captured.err == ""
        assert not out.exists()
        return json.loads(lines[0])["error"]

    @staticmethod
    def input_with(command, value: str) -> str:
        """An instance whose sides, or a packing whose placements, are ``value``."""
        if command == "reduce":
            return f'{{"sides": {value}}}'
        return f'{{"rect": {{"w": 1.0, "h": 1.0}}, "placements": {value}}}'

    @pytest.mark.parametrize("command", ["verify", "render", "reduce"])
    def test_integer_beyond_float_maps_to_error_json(self, tmp_path, capsys, command):
        huge = "1" * 401
        value = (f"[0.5, {huge}]" if command == "reduce"
                 else f'[{{"side": 0.5, "x": {huge}, "y": 0.0}}]')
        err = self.error_of(tmp_path, capsys, command, self.input_with(command, value))
        assert err == {"type": "OverflowError", "message": "int too large to convert to float"}

    _UNIT_PACKING = {"rect": {"w": 1.0, "h": 1.0},
                     "placements": [{"side": 1.0, "x": 0.0, "y": 0.0}]}
    _TOY = {"c": 0.5, "N0": 1, "N1": 1, "N": 2, "s1_threshold": 0.1}
    # key: the file it sits in and the path to it there
    _WIRE_NUMBERS = {
        "sides": ("instance", {"sides": [1.0, 0.0]}, ("sides", 0)),
        "total_area": ("instance", {"sides": [1.0], "total_area": 1.0}, ("total_area",)),
        "rect.w": ("packing", _UNIT_PACKING, ("rect", "w")),
        "rect.h": ("packing", _UNIT_PACKING, ("rect", "h")),
        "side": ("packing", _UNIT_PACKING, ("placements", 0, "side")),
        "x": ("packing", _UNIT_PACKING, ("placements", 0, "x")),
        "y": ("packing", _UNIT_PACKING, ("placements", 0, "y")),
        "c": ("toy", _TOY, ("c",)),
        "s1_threshold": ("toy", _TOY, ("s1_threshold",)),
    }

    @pytest.mark.parametrize("value", [True, "0.5"], ids=["true", "string"])
    @pytest.mark.parametrize("key", list(_WIRE_NUMBERS))
    def test_non_number_maps_to_error_json(self, tmp_path, capsys, key, value):
        # float() read true as 1.0 and "0.5" as 0.5, so each file packed or verified
        kind, doc, path = self._WIRE_NUMBERS[key]
        doc = json.loads(json.dumps(doc))
        *parents, last = path
        target = doc
        for step in parents:
            target = target[step]
        target[last] = value
        out = tmp_path / "out.json"
        if kind == "packing":
            argv = ["verify", "--packing", self.write(tmp_path, "packing.json", doc)]
        else:
            instance = doc if kind == "instance" else {"sides": [1.0]}
            argv = ["reduce", "--instance", self.write(tmp_path, "inst.json", instance),
                    "--F", "novotny", "-o", str(out)]
            if kind == "toy":
                argv += ["--toy-params", self.write(tmp_path, "toy.json", doc)]
        assert cli_dispatch(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "type": "ValueError", "message": f"{key}: expected a JSON number, got {value!r}"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "render", "reduce"])
    def test_deep_nesting_maps_to_error_json(self, tmp_path, capsys, command):
        depth = 10 ** 5  # a 200 KB file
        value = "[" * depth + "]" * depth
        err = self.error_of(tmp_path, capsys, command, self.input_with(command, value))
        assert err["type"] == "RecursionError"
        assert "recursion" in err["message"]

    def test_packed_output_survives_verification_round_trip(self, tmp_path):
        from moserpack import packing_from_dict

        inst = self.write(tmp_path, "inst.json", {"sides": [0.4, 0.3, 0.3, 0.2]})
        out = tmp_path / "packed.json"
        code = cli_dispatch(
            ["pack", "--mode", "meir-moser", "--instance", inst,
             "--rect", "0.8x1.0", "-o", str(out)]
        )
        assert code == 0
        packing = packing_from_dict(json.loads(out.read_text()))
        assert verify_packing(packing).valid


# Keys the CLI reads, so that arbitrary documents reach past the first lookup.
_CLI_KEYS = ["sides", "total_area", "rect", "w", "h", "placements", "side", "x", "y",
             "packing", "c", "N0", "N1", "N", "s1_threshold"]

_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.integers(-10**400, 10**400),
    st.sampled_from([0.0, -0.0, 0.25, 1.0, 1e308, -1e308, 5e-324,
                     math.nan, math.inf, -math.inf]),
    st.floats(),
)

#: Any JSON document, ``NaN`` and ``Infinity`` tokens included.
_JSON_DOCS = st.recursive(_JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.dictionaries(st.sampled_from(_CLI_KEYS) | st.text(max_size=3), kids, max_size=4),
), max_leaves=12)

#: What a retyped value becomes.
_RETYPED = st.sampled_from(["0.5", None, True, [], {}, 10**400, -0.0, 1e308,
                            math.nan, math.inf])


def _paths(doc, path=()):
    """The path of every member and item in ``doc``, outermost first."""
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def _near_valid(draw, doc):
    """``doc`` with one member or item dropped, retyped or nested one level deeper."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["drop", "retype", "nest"]))
    if action == "drop":
        del parent[key]
    elif action == "retype":
        parent[key] = draw(_RETYPED)
    else:
        parent[key] = draw(st.sampled_from([[parent[key]], {"v": parent[key]}]))
    return doc


def _valid_documents() -> dict:
    """One valid input file of each kind the CLI reads, small enough to run in milliseconds."""
    job = make_job(n_tail=8, tail_scale=0.9)
    big, small = 1 / math.sqrt(2), math.sqrt(1 / 6)
    return {
        "shelf": {"sides": [0.4, 0.3, 0.3, 0.2]},
        "small": {"sides": [0.1] * 100},
        "instance": {"sides": [big, small, small, small]},
        "params": {"c": 0.07256326599821739, "N0": 4, "N1": 158, "N": 1167,
                   "s1_threshold": 0.1},
        "packing": packing_to_dict(sample_packing()),
        "base": packing_to_dict(job.base),
        "tail": {"sides": list(job.tail.sides)},
        "c": repr(job.c),
    }


_VALID = _valid_documents()

#: Each command line, with ``{name}`` for the file of that kind.
_COMMANDS = {
    "pack moon-moser": ["pack", "--mode", "moon-moser", "--instance", "{shelf}",
                        "--rect", "0.8x1.0", "-o", "{out}"],
    "pack meir-moser": ["pack", "--mode", "meir-moser", "--instance", "{shelf}",
                        "--rect", "0.8x1.0", "-o", "{out}"],
    "pack small-s1": ["pack", "--mode", "small-s1", "--instance", "{small}",
                      "--F", "novotny", "-o", "{out}"],
    "verify": ["verify", "--packing", "{packing}"],
    "whitespace": ["whitespace", "--base", "{base}", "--tail", "{tail}",
                   "--c", _VALID["c"], "--F", "novotny", "-o", "{out}"],
    "reduce": ["reduce", "--instance", "{instance}", "--F", "novotny", "-o", "{out}"],
    "reduce toy": ["reduce", "--instance", "{instance}", "--F", "novotny",
                   "--toy-params", "{params}", "-o", "{out}"],
    "render": ["render", "--packing", "{packing}", "--scale", "100", "-o", "{out}"],
}


@st.composite
def _cli_calls(draw):
    """A command and the files it reads, one of them arbitrary or near-valid JSON."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = _COMMANDS[command]
    kinds = [a[1:-1] for a in argv if a.startswith("{") and a != "{out}"]
    docs = {kind: _VALID[kind] for kind in kinds}
    kind = draw(st.sampled_from(kinds))
    docs[kind] = draw(_JSON_DOCS | _near_valid(_VALID[kind]))
    return command, docs


class TestCliErrorContract:
    """Every subcommand, on any JSON input, exits 0 or 1 and never raises.

    On 1, stdout is one JSON line: an error with its type and message, or
    (from ``verify``) a report that calls the packing invalid.  On 0, a
    written packing is one that ``verify`` calls valid.
    """

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_cli_calls())
    def test_exit_code_and_output(self, tmp_path, call):
        command, docs = call
        names = {"out": str(tmp_path / "out")}
        for kind, doc in docs.items():
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc))
            names[kind] = str(path)
        argv = [a.format(**names) if a.startswith("{") else a for a in _COMMANDS[command]]
        (tmp_path / "out").unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_dispatch(argv)
        assert code in (0, 1)
        assert stderr.getvalue() == ""
        lines = stdout.getvalue().splitlines()
        if code == 1:
            assert len(lines) == 1
            answer = json.loads(lines[0])
            if command == "verify" and "valid" in answer:
                assert answer["valid"] is False
            else:
                assert set(answer) == {"error"}
                assert isinstance(answer["error"]["type"], str)
                assert isinstance(answer["error"]["message"], str)
            return
        if command == "verify":
            assert json.loads(lines[0])["valid"] is True
            return
        assert lines == []
        if command != "render":
            with contextlib.redirect_stdout(io.StringIO()) as verdict:
                assert cli_dispatch(["verify", "--packing", names["out"]]) == 0
            assert json.loads(verdict.getvalue())["valid"] is True


def _shelf_packing() -> Packing:
    return meir_moser_pack(Instance((0.4, 0.3, 0.3, 0.2) + (0.05,) * 40), Rectangle(1.2, 1.0))


def _glue_packing() -> Packing:
    F = (2 + math.sqrt(3)) / 3
    params = PackParams.toy_params(F=F, c=float(compute_c(F)), N0=4, N1=158, N=1167)
    tail = (math.sqrt(0.375 / 8_000),) * 8_000
    result = reduce_and_pack(Instance((0.5, 0.5, 0.25, 0.25) + tail), params)
    assert result.case == "b"
    return result.packing


def _whitespace_packing() -> Packing:
    F = (2 + math.sqrt(3)) / 3
    c = float(compute_c(F))
    base = meir_moser_pack(Instance((math.sqrt((1 - c * c) / 158),) * 158),
                           Rectangle(math.sqrt(F), F / math.sqrt(F)))
    tail = Instance((c / math.sqrt(158) * 0.9,) * 20)
    return whitespace_pack(WhitespaceJob(base, tail, c=c, F=F))


@pytest.mark.parametrize("build", [_shelf_packing, _glue_packing, _whitespace_packing],
                         ids=["shelf", "glue", "whitespace"])
def test_packing_dict_round_trip_is_exact(build):
    packing = build()
    assert packing_from_dict(packing_to_dict(packing)) == packing
    # and through the JSON text the CLI writes and reads
    assert packing_from_dict(json.loads(json.dumps(packing_to_dict(packing)))) == packing


class TestCliGoldenJson:
    """sha256 of the exact bytes each command writes.  The constants,
    reduce-then-verify and invalid-verify pins were computed before the dict
    builders became one recursive dict form of the value types; the pack,
    whitespace and case-b pins before the writer spelled each distinct float
    once."""

    @pytest.mark.parametrize("flags, digest", [
        ([], "e3d72d8b7ad27c7a12c01de45c4e517bf016e3a1e718cfc1016eb0d2777ae0a8"),
        (["--refined"], "d7c25029888e7447312de886c1f00f018b611d650c627fee2f0d859aee2d2c65"),
        (["--integral-n0"], "90cc9618470d74b222df0ad9e8aa95f907978751e7faf54b50ba28fecd78b988"),
    ], ids=["plain", "refined", "integral-n0"])
    def test_constants(self, tmp_path, flags, digest):
        out = tmp_path / "report.json"
        assert cli_dispatch(["constants", "--F", "novotny", *flags, "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_reduce_then_verify_valid(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"sides": [0.1] * 100}))
        result = tmp_path / "result.json"
        assert cli_dispatch(["reduce", "--instance", str(inst), "--F", "novotny",
                             "-o", str(result)]) == 0
        assert hashlib.sha256(result.read_bytes()).hexdigest() == (
            "c892d70d1bb8d5cc9308c182ef625f6d4fa40f8b7f6bf25ed13ec3a8e022a211")
        verdict = tmp_path / "verdict.json"
        assert cli_dispatch(["verify", "--packing", str(result), "-o", str(verdict)]) == 0
        assert hashlib.sha256(verdict.read_bytes()).hexdigest() == (
            "8ec2cbe0454457a3e0abb356872e6c1fe37e82a8616c0fe180a52168d1e2b23f")

    def test_verify_invalid(self, tmp_path):
        # square 1 sticks out by 0.3 and overlaps square 0 by 0.3 x 0.3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rect": {"w": 1.0, "h": 1.0}, "placements": [
            {"side": 0.8, "x": 0.0, "y": 0.0}, {"side": 0.8, "x": 0.5, "y": 0.5}]}))
        verdict = tmp_path / "verdict.json"
        assert cli_dispatch(["verify", "--packing", str(bad), "-o", str(verdict)]) == 1
        assert hashlib.sha256(verdict.read_bytes()).hexdigest() == (
            "64d9b05ee0e7710739f22ad2ef800fbd9195bb70f162585a559fb627758b6d68")

    def test_pack_meir_moser_distinct_sides(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"sides": [math.sqrt((1 - k / 400) / 200.5)
                                              for k in range(400)]}))
        out = tmp_path / "packed.json"
        assert cli_dispatch(["pack", "--mode", "meir-moser", "--instance", str(inst),
                             "--rect", "1.2x1.2", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f58a5028a0eb36d17b307c9946faa7ce85cade5e29f72e4e21426d294ae29bfe")

    def test_whitespace(self, tmp_path):
        F = (2 + math.sqrt(3)) / 3
        c = float(compute_c(F))
        base = meir_moser_pack(Instance((math.sqrt((1 - c * c) / 158),) * 158),
                               Rectangle(math.sqrt(F), F / math.sqrt(F)))
        base_file, tail_file = tmp_path / "base.json", tmp_path / "tail.json"
        base_file.write_text(json.dumps(packing_to_dict(base)))
        tail_file.write_text(json.dumps({"sides": [c / math.sqrt(158) * 0.9] * 20}))
        out = tmp_path / "full.json"
        assert cli_dispatch(["whitespace", "--base", str(base_file), "--tail", str(tail_file),
                             "--c", repr(c), "--F", repr(F), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9ead9f17446a076606a9df98f4e6149fd17fadf8d0381ce507803d8dbdf7520b")

    def test_reduce_case_b_8004(self, tmp_path):
        # the benchmark's glue_b8k input at seed 1: 8,004 squares, 181
        # distinct floats among the 24,012 the packing writes
        sides = [0.5, 0.5, 0.25, 0.25] + [math.sqrt(0.375 / 8_000)] * 8_000
        random.Random(1).shuffle(sides)
        inst, toy = tmp_path / "inst.json", tmp_path / "toy.json"
        inst.write_text(json.dumps({"sides": sides}))
        c = float(compute_c((2 + math.sqrt(3)) / 3))
        toy.write_text(json.dumps({"c": c, "N0": 4, "N1": 158, "N": 1167}))
        out = tmp_path / "result.json"
        assert cli_dispatch(["reduce", "--instance", str(inst), "--F", "novotny",
                             "--toy-params", str(toy), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6fa4611aa3486ca0cc34c91026970e019d76dc4e48258e13a5c545418b91c870")


#: Floats the wire must spell as json.dumps does: both zeros, subnormals,
#: the extremes, and any other finite value.
_WIRE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1,
                     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _wire_packings(draw) -> Packing:
    """A packing whose columns repeat a few values, always both zeros among
    them, inside a rectangle with float or integer edges."""
    pool = [0.0, -0.0] + draw(st.lists(_WIRE_FLOATS, max_size=5))
    n = draw(st.integers(0, 24))
    column = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    sides = [abs(s) for s in draw(column)]
    edge = st.integers(1, 9) | st.floats(min_value=1e-300, max_value=1e300)
    rect = Rectangle(draw(edge), draw(edge))
    return Packing(rect, array("d", sides), array("d", draw(column)), array("d", draw(column)))


def _written(item) -> str:
    """What the CLI writes for a packing or a ``reduce`` result."""
    pieces = (_packing_pieces if isinstance(item, Packing) else _result_pieces)(item)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit_json(pieces, None)
    return buf.getvalue()


def _writing_spells(item, monkeypatch) -> tuple:
    """What the CLI writes for ``item``, and for each list of floats it
    handed to ``json.dumps``, that list's length: the distinct floats on
    the memo branch, every float of the columns otherwise."""
    spelled, dumps = [], json.dumps

    def spy(obj, **kw):
        if isinstance(obj, list):
            spelled.append(len(obj))
        return dumps(obj, **kw)

    monkeypatch.setattr(json, "dumps", spy)
    text = _written(item)
    monkeypatch.undo()
    return text, spelled


def _column_packing(column: list) -> Packing:
    """The packing whose sides, xs and ys are the thirds of ``column``."""
    n = len(column) // 3
    return Packing(Rectangle(7, 3), array("d", column[:n]), array("d", column[n:2 * n]),
                   array("d", column[2 * n:]))


#: Number tokens as a JSON text may spell them: json's own float spellings
#: (NaN and the infinities among them), exponents in any case and sign, ones
#: that overflow to inf or underflow to a signed zero, and integers.
_NUMBER_TOKENS = st.one_of(
    st.floats().map(json.dumps),
    st.sampled_from(["1e999", "-1e999", "1E5", "-0.0", "0.0", "-0e0", "2.5e-3",
                     "1.0E+2", "1e-400", "-1e-400", "0.1", "-0"]),
    st.integers(-10**20, 10**20).map(str),
)


@st.composite
def _json_texts(draw) -> str:
    """A JSON text of nested arrays and objects whose numbers are drawn from
    a few tokens (so they repeat) or afresh (so they differ)."""
    pool = draw(st.lists(_NUMBER_TOKENS, min_size=1, max_size=6))
    leaves = st.sampled_from(pool) | _NUMBER_TOKENS | st.sampled_from(
        ["true", "false", "null", '"0.5"', '"k"'])
    keys = st.sampled_from(['"side"', '"x"', '"1e5"', '""'])
    return draw(st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=40).map(lambda xs: "[" + ", ".join(xs) + "]"),
        st.lists(st.tuples(keys, kids), max_size=6).map(
            lambda kvs: "{" + ", ".join(f"{k}: {v}" for k, v in kvs) + "}"),
    ), max_leaves=200))


def _pool_packing(distinct: int) -> Packing:
    """3,000 placements whose 9,000 floats are drawn in turn from a pool of
    ``distinct`` values."""
    rng = random.Random(distinct)
    pool = [rng.uniform(-1e3, 1e3) for _ in range(distinct)]
    column = array("d", (pool[i % distinct] for i in range(9_000)))
    return Packing(Rectangle(7, 3), array("d", map(abs, column[::3])),
                   column[1::3], column[2::3])


def _runs_packing(run: int) -> Packing:
    """3,000 placements in runs of ``run`` equal ones, so ``1 / run`` of the
    floats are distinct in the file and in any stretch of it."""
    rng = random.Random(run)
    pool = [rng.uniform(0, 1e3) for _ in range(9_000 // run)]
    column = array("d", (pool[i // (3 * run) * 3 + i % 3] for i in range(9_000)))
    return Packing(Rectangle(7, 3), column[::3], column[1::3], column[2::3])


def _read_logging_branch(path, monkeypatch) -> tuple:
    """``repr`` of what ``_read_json`` reads from ``path``, and for each
    ``json.loads`` call it made, whether that call took the memo."""
    memo_used, loads = [], json.loads

    def spy(text, **kw):
        memo_used.append("parse_float" in kw)
        return loads(text, **kw)

    monkeypatch.setattr(json, "loads", spy)
    return repr(_read_json(str(path))), memo_used


class TestJsonWire:
    """The CLI's writer and reader against the stdlib encoder and decoder
    they stand in for."""

    @settings(max_examples=300, deadline=None)
    @given(_wire_packings())
    def test_writer_matches_dumps_on_packings(self, packing):
        written = _written(packing)
        assert written == json.dumps(packing_to_dict(packing)) + "\n"
        # The wire is the identity: every bit of every column comes back,
        # so -0.0 stays apart from 0.0.
        read = packing_from_dict(json.loads(written))
        assert read.rect == packing.rect
        assert [c.tobytes() for c in (read.sides, read.xs, read.ys)] == \
            [c.tobytes() for c in (packing.sides, packing.xs, packing.ys)]

    @settings(max_examples=150, deadline=None)
    @given(_wire_packings(), st.floats(min_value=1, max_value=3, exclude_min=True),
           st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True),
           st.sampled_from(["a", "b", "c"]), st.none() | st.integers(0, 10**6))
    def test_writer_matches_dumps_on_results(self, packing, F, c, case, split):
        params = PackParams.toy_params(F=F, c=c, N0=4, N1=158, N=1167)
        result = ReduceResult(case, packing, params, split)
        assert _written(result) == json.dumps(result_to_dict(result)) + "\n"

    def test_writer_keeps_zero_signs_apart(self):
        packing = Packing(Rectangle(1, 1), array("d", [0.0, -0.0, 0.5]),
                          array("d", [-0.0, 0.0, -0.0]), array("d", [0.0, 0.0, -0.0]))
        text = _written(packing)
        assert text == json.dumps(packing_to_dict(packing)) + "\n"
        assert text.count("-0.0") == 4

    @pytest.mark.parametrize("distinct, spelled", [
        (1, 2), (60, 60), (1_500, 1_500), (2_999, 4_494), (9_000, 9_000),
    ], ids=["1", "60", "1500", "2999", "9000"])
    def test_writer_matches_dumps_at_any_share_of_repeats(self, monkeypatch, distinct,
                                                          spelled):
        # A pool of k < 9,000 values drawn in turn: the memo spells the
        # distinct floats.  A pool of 2,999 lays every value into each
        # column, and abs() gives the negative sides their own spellings:
        # 4,494 of 9,000, just under half.  A pool of 9,000 sends all 9,000
        # to json.dumps.
        result = ReduceResult("b", _pool_packing(distinct),
                              PackParams.certified("novotny"), 4)
        text, lists = _writing_spells(result, monkeypatch)
        assert text == json.dumps(result_to_dict(result)) + "\n"
        assert lists == [spelled]

    @pytest.mark.parametrize("distinct, spelled", [(149, 149), (150, 150), (151, 300)])
    def test_writer_cutoff_at_half_distinct(self, monkeypatch, distinct, spelled):
        # 300 floats, the fill repeating the first: the memo spells at most
        # 150 distinct ones, and one more sends the whole column to json.dumps.
        column = [1 + k / 7 for k in range(distinct)]
        packing = _column_packing(column + [1.0] * (300 - distinct))
        text, lists = _writing_spells(packing, monkeypatch)
        assert text == json.dumps(packing_to_dict(packing)) + "\n"
        assert lists == [spelled]

    @pytest.mark.parametrize("others, spelled", [
        ([0.5] * 40, 3), ([0.5 + k / 64 for k in range(40)], 60),
    ], ids=["memo", "plain"])
    def test_writer_keeps_zero_signs_apart_on_either_branch(self, monkeypatch, others,
                                                            spelled):
        # ten of each zero beside 40 others: 3 distinct floats among 60, or 42
        packing = _column_packing([0.0, -0.0] * 10 + others)
        text, lists = _writing_spells(packing, monkeypatch)
        assert text == json.dumps(packing_to_dict(packing)) + "\n"
        assert lists == [spelled]
        assert text.count("-0.0") == 10
        read = packing_from_dict(json.loads(text))
        assert [c.tobytes() for c in (read.sides, read.xs, read.ys)] == \
            [c.tobytes() for c in (packing.sides, packing.xs, packing.ys)]

    def test_writer_counts_long_shelves_exactly(self, monkeypatch):
        # 10^4 equal squares in 12 shelves of up to 834: 834 distinct floats
        # among 30,000.  A sample of every ninth placement reads 25 %
        # distinct; on test_c10's case b, with shelves of 1,138 squares, a
        # sample of every 976th read 57 % against 0.07 %.
        packing = meir_moser_pack(Instance((0.01,) * 10_000), Rectangle(10.05, 0.12))
        text, lists = _writing_spells(packing, monkeypatch)
        assert text == json.dumps(packing_to_dict(packing)) + "\n"
        assert lists == [834]

    @settings(max_examples=300, deadline=None)
    @given(_json_texts(), st.booleans())
    def test_reader_matches_load(self, text, memo):
        # Either branch, whatever the sample says; repr tells -0.0 from 0.0
        # and an int from a float, and spells nan.
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/doc.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(path, encoding="utf-8") as fh:
                expected = json.load(fh)
            with mock.patch.object(moserpack.cli, "_mostly_repeats", return_value=memo):
                assert repr(_read_json(path)) == repr(expected)

    @pytest.mark.parametrize("packing, memo", [
        (_pool_packing(1), True), (_pool_packing(60), True),
        (_pool_packing(1_500), False), (_pool_packing(9_000), False),
        (_runs_packing(8), True), (_runs_packing(4), False),
    ], ids=["pool-1", "pool-60", "pool-1500", "distinct", "runs-of-8", "runs-of-4"])
    def test_reader_matches_load_on_either_branch(self, tmp_path, monkeypatch,
                                                  packing, memo):
        # The reader samples eight windows of about 75 key-and-float items
        # and takes the memo where at most a fifth of them are distinct.  A
        # pool of 60 repeats across the windows, while one of 1,500 drawn
        # in turn looks half distinct.  Runs of 8 equal placements are 1/8
        # distinct and runs of 4 are 1/4, either side of that cutoff.
        path = tmp_path / "packing.json"
        path.write_text(_written(packing))
        expected = json.loads(path.read_text())
        assert _read_logging_branch(path, monkeypatch) == (repr(expected), [memo])

    @pytest.mark.parametrize("separators, indent", [((",", ":"), None), (None, 1)])
    def test_reader_without_sample_takes_json_loads(self, tmp_path, monkeypatch,
                                                    separators, indent):
        # Compact or indented json holds no ", ", so the sample is empty and
        # the reader does not risk the memo on the text.
        data = packing_to_dict(_pool_packing(9_000))
        path = tmp_path / "packing.json"
        path.write_text(json.dumps(data, separators=separators, indent=indent))
        assert _read_logging_branch(path, monkeypatch) == (repr(data), [False])

    @pytest.mark.parametrize("raw, error", [
        (b'{"sides": [0.1, 0.1, 0.1, 0.1', "JSONDecodeError"),
        (b'{"sides": [0.1, 0.2, 0.3,]}', "JSONDecodeError"),
        (b'{"sides": [0.1, 0.1, 0.1]} 0.1', "JSONDecodeError"),
        (b'{"sides": [0.1, 0.1, 0.1\xff]}', "UnicodeDecodeError"),
        (b'{"sides": [0.25, 0.5, 0.75], "\xc3": 1}', "UnicodeDecodeError"),
    ], ids=["truncated", "trailing-comma", "extra-data", "bad-byte", "cut-sequence"])
    def test_reader_errors_take_the_json_error_path(self, tmp_path, capsys, raw, error):
        inst = tmp_path / "inst.json"
        inst.write_bytes(raw)
        assert cli_dispatch(["reduce", "--instance", str(inst), "--F", "novotny"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == error
