"""SVG rendering and the command line interface."""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET

import pytest

from moserpack import (
    Instance,
    PackParams,
    Packing,
    Placement,
    Rectangle,
    packing_to_dict,
    reduce_and_pack,
    render_svg,
    result_to_dict,
    verify_packing,
)
from moserpack.cli import cli_dispatch

SVG_NS = "{http://www.w3.org/2000/svg}"


def sample_packing() -> Packing:
    big = 1 / math.sqrt(2)
    small = math.sqrt(1 / 6)
    rect = Rectangle(big + 2 * small, 2 * small)
    return Packing(
        rect,
        [
            Placement(big, 0.0, 0.0),
            Placement(small, big, 0.0),
            Placement(small, big, small),
            Placement(small, big + small, 0.0),
        ],
    )


class TestRender:
    def test_structure(self):
        doc = render_svg(sample_packing(), 400.0)
        assert len(doc.rects) == 5
        assert doc.rects[0].css_class == "enclosing"
        assert all(r.css_class == "prefix" for r in doc.rects[1:])

    def test_y_axis_flip(self):
        p = Packing(Rectangle(2.0, 1.0), [Placement(0.5, 0.25, 0.25)])
        doc = render_svg(p, 100.0)
        sq = doc.rects[1]
        assert (sq.x, sq.y, sq.width, sq.height) == (25.0, 25.0, 50.0, 50.0)

    def test_tail_classing(self):
        doc = render_svg(sample_packing(), 100.0, tail_from=2)
        classes = [r.css_class for r in doc.rects[1:]]
        assert classes == ["prefix", "prefix", "tail", "tail"]

    def test_output_is_well_formed_svg(self):
        text = render_svg(sample_packing(), 250.0).to_string()
        root = ET.fromstring(text)
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("version") == "1.1"
        assert len(root.findall(f"{SVG_NS}rect")) == 5

    def test_coordinates_round_trip_exactly(self):
        packing = sample_packing()
        scale = 173.0
        root = ET.fromstring(render_svg(packing, scale).to_string())
        rects = root.findall(f"{SVG_NS}rect")[1:]
        H = float(root.get("height"))
        for p, el in zip(packing.placements, rects):
            side = float(el.get("width"))
            x = float(el.get("x"))
            y = float(el.get("y"))
            # repr round-trips: these must be bit-identical, not just close
            assert side == p.side * scale
            assert x == (p.x - packing.rect.x) * scale
            assert y == H - (p.y - packing.rect.y) * scale - side

    def test_byte_identical_across_runs(self):
        a = render_svg(sample_packing(), 400.0).to_string()
        b = render_svg(sample_packing(), 400.0).to_string()
        assert a == b

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            render_svg(sample_packing(), 0.0)


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
        assert err["error"]["type"] == "TypeError"

    def test_usage_error_maps_to_error_json(self, capsys):
        assert cli_dispatch(["verify"]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.out)
        assert err["error"]["type"] == "ValueError"
        assert "--packing" in err["error"]["message"]
        assert captured.err == ""

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

    def test_pack_small_s1_with_square_rect(self, tmp_path):
        inst = self.write(tmp_path, "inst.json", {"sides": [0.1] * 100})
        out = tmp_path / "packed.json"
        side = repr(math.sqrt(1.3))
        code = cli_dispatch(
            ["pack", "--mode", "small-s1", "--instance", inst,
             "--rect", f"{side}x{side}", "-o", str(out)]
        )
        assert code == 0

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


class TestCliGoldenJson:
    """sha256 of the exact bytes each command writes, computed before the
    dict builders became ``dataclasses.asdict``."""

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
