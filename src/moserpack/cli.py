"""Command line interface.

Subcommands: constants, pack, verify, whitespace, reduce, render.  All
JSON goes to stdout unless ``-o`` names a file; usage errors and
package-level errors are reported as one machine-readable JSON object on
stdout with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Optional

from .constants import build_report, factor_float, report_to_dict
from .errors import MoserpackError
from .geometry import (
    EPS_GEOM,
    Packing,
    Rectangle,
    instance_from_dict,
    packing_from_dict,
    packing_to_dict,
    verify_packing,
)
from .reduction import PackParams, reduce_and_pack, result_to_dict
from .render import render_svg
from .shelf import meir_moser_pack, moon_moser_pack, small_s1_pack
from .whitespace import WhitespaceJob, whitespace_pack


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_packing(path: str) -> Packing:
    """Read a packing file, or the ``"packing"`` member of ``reduce`` output."""
    data = _read_json(path)
    return packing_from_dict(data["packing"] if "packing" in data else data)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(data: dict, out: Optional[str]) -> None:
    # Single-line JSON: ``indent`` would force json's pure-Python encoder.
    _emit(json.dumps(data) + "\n", out)


def _parse_rect(spec: str) -> Rectangle:
    try:
        w, h = spec.lower().split("x")
        return Rectangle(float(w), float(h))
    except (ValueError, TypeError):
        raise ValueError(f"--rect expects WxH, got {spec!r}") from None


def _cmd_constants(args: argparse.Namespace) -> int:
    report = build_report(
        args.F,
        refined=args.refined,
        use_integral_n0=args.integral_n0,
    )
    _emit_json(report_to_dict(report), args.output)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    inst = instance_from_dict(_read_json(args.instance))
    if args.mode == "small-s1":
        if args.F is not None:
            F = factor_float(args.F)
        elif args.rect is not None:
            r = _parse_rect(args.rect)
            if abs(r.width - r.height) > 1e-9:
                raise ValueError("small-s1 packs into a square; --rect must be WxW")
            F = r.width * r.height
        else:
            raise ValueError("small-s1 needs --F or a square --rect")
        packing = small_s1_pack(inst, F)
    else:
        if args.rect is None:
            raise ValueError(f"mode {args.mode} needs --rect WxH")
        rect = _parse_rect(args.rect)
        packer = moon_moser_pack if args.mode == "moon-moser" else meir_moser_pack
        packing = packer(inst, rect)
    _emit_json(packing_to_dict(packing), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    packing = _read_packing(args.packing)
    report = verify_packing(packing, tol=args.tol)
    _emit_json(asdict(report), args.output)
    return 0 if report.valid else 1


def _cmd_whitespace(args: argparse.Namespace) -> int:
    base = _read_packing(args.base)
    tail = instance_from_dict(_read_json(args.tail))
    job = WhitespaceJob(base, tail, c=args.c, F=factor_float(args.F))
    packing = whitespace_pack(job)
    _emit_json(packing_to_dict(packing), args.output)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    inst = instance_from_dict(_read_json(args.instance))
    if args.toy_params:
        raw = _read_json(args.toy_params)
        params = PackParams.toy_params(
            F=factor_float(args.F),
            c=float(raw["c"]),
            N0=int(raw["N0"]),
            N1=int(raw["N1"]),
            N=int(raw["N"]),
            s1_threshold=float(raw.get("s1_threshold", 0.1)),
        )
    else:
        params = PackParams.certified(args.F)
    result = reduce_and_pack(inst, params)
    _emit_json(result_to_dict(result), args.output)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    packing = _read_packing(args.packing)
    doc = render_svg(packing, args.scale, tail_from=args.tail_from)
    _emit(doc.to_string(), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors take the JSON error path."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moserpack",
        description="Square packing toolkit: shelf packers, whitespace packing, "
        "and certified reduction constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="derive the constants for a factor")
    p.add_argument("--F", required=True, help="area factor (number or 'novotny')")
    p.add_argument("--refined", action="store_true", help="include the refined edge bound")
    p.add_argument("--integral-n0", action="store_true", dest="integral_n0",
                   help="feed the integral-form N0 into the N1/N chain")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("pack", help="run one classical packer")
    p.add_argument("--mode", required=True,
                   choices=["moon-moser", "meir-moser", "small-s1"])
    p.add_argument("--instance", required=True)
    p.add_argument("--rect", help="target rectangle as WxH")
    p.add_argument("--F", help="area factor for small-s1 (number or 'novotny')")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("verify", help="check a packing file")
    p.add_argument("--packing", required=True)
    p.add_argument("--tol", type=float, default=EPS_GEOM)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("whitespace", help="pack a tail into a base packing's whitespace")
    p.add_argument("--base", required=True)
    p.add_argument("--tail", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--F", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_whitespace)

    p = sub.add_parser("reduce", help="full reduction driver")
    p.add_argument("--instance", required=True)
    p.add_argument("--F", required=True)
    p.add_argument("--toy-params", dest="toy_params",
                   help="JSON file with desk-scale c, N0, N1, N")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("render", help="render a packing as SVG")
    p.add_argument("--packing", required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--tail-from", dest="tail_from", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def cli_dispatch(argv: Optional[list[str]] = None) -> int:
    """Parse argv and run one subcommand, mapping errors to exit code 1."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (MoserpackError, ValueError, TypeError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        sys.stdout.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
            + "\n"
        )
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
