"""Command line interface.

Subcommands: constants, pack, verify, whitespace, reduce, render.  All
JSON goes to stdout unless ``-o`` names a file; usage errors and
package-level errors are reported as one machine-readable JSON object on
stdout with exit code 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from array import array
from typing import Optional

from ._value import as_dict
from .constants import build_report, factor_float, report_to_dict
from .errors import MoserpackError, PreconditionViolated
from .geometry import (
    EPS_GEOM,
    Packing,
    Rectangle,
    _number,
    instance_from_dict,
    packing_from_dict,
    verify_packing,
)
# The CLI writes results through _result_pieces, but perfbench/spans.py
# wraps moserpack.cli.result_to_dict by name, so the name stays bound here.
from .reduction import PackParams, ReduceResult, reduce_and_pack, result_to_dict
from .render import render_svg
from .shelf import meir_moser_pack, moon_moser_pack, small_s1_pack
from .whitespace import WhitespaceJob, whitespace_pack


class _FloatMemo(dict):
    """Token to ``float(token)``, each spelling parsed on its first lookup."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def _mostly_repeats(text: str) -> bool:
    """Whether at most a fifth of the items sampled from a JSON text are
    distinct.

    The sample is the items between json's ``", "`` separators in eight
    windows spread over the text, each 2 KiB or a 64th of the text; in a
    packing an item is one key and its float.  A window holds up to 25
    placements, so the sample sees the repeats a shelf lays side by side
    (its side and its y).  It misses x offsets that recur only from one
    long shelf to the next, and a pool of thousands of values scattered
    over the text.
    """
    width = min(2048, len(text) // 64)
    sample = []
    for start in range(0, len(text), len(text) // 8 or 1)[:8]:
        # the first and last item of a window may be cut
        sample += text[start:start + width].split(", ")[1:-1]
    return bool(sample) and 5 * len(set(sample)) <= len(sample)


def _read_json(path: str) -> dict:
    """``json.load`` of a file, with each distinct float token parsed once
    where repeats are common.

    A shelf packing repeats few values (a case-b ``reduce`` of 8,004 squares
    writes 181 distinct floats among 24,012).  Where
    :func:`_mostly_repeats`, json's ``parse_float`` is a memo's
    ``__getitem__``, so a repeated token is one dict lookup in C.
    Otherwise plain ``json.loads`` parses the text: each miss is a call
    into Python and keeps its token alive, and on 10**5 placements
    repeated in runs the memo stops saving memory near a fifth distinct
    and time between a fifth and a third.  Through the memo, a pool of
    thousands of values in random order is slower still.  ``float(token)`` is what json parses by
    default, so both give the same values, and the memo's keys keep
    ``-0.0`` apart from ``0.0``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if _mostly_repeats(text):
        return json.loads(text, parse_float=_FloatMemo().__getitem__)
    return json.loads(text)


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


def _spellings(column: array) -> list:
    """json's spelling of each float in ``column``, in order.

    The floats' 64-bit patterns count the distinct ones exactly, with
    ``-0.0`` apart from ``0.0`` as json spells them.  Where at most half are
    distinct, as in a shelf packing, json spells each distinct value once.
    Otherwise it spells the whole column.  On 3 * 10**5 floats the memo is
    the faster up to about 60 % distinct and the smaller up to 35 %; at one
    half it saves a fifth of the time for a fifth more memory.
    """
    bits = memoryview(column).cast("B").cast("q")
    distinct = dict.fromkeys(bits)
    if 2 * len(distinct) <= len(column):
        values = memoryview(array("q", distinct)).cast("B").cast("d").tolist()
        spelling = dict(zip(distinct, json.dumps(values)[1:-1].split(", ")))
        return list(map(spelling.__getitem__, bits))
    del distinct  # only its length was needed; free it before the text is built
    return json.dumps(column.tolist())[1:-1].split(", ")


def _packing_pieces(packing: Packing) -> list:
    """``json.dumps(packing_to_dict(packing))`` as pieces to join, spelled
    straight from the columns."""
    r = packing.rect
    head = f'{{"rect": {json.dumps({"w": r.width, "h": r.height})}, "placements": ['
    n = len(packing.sides)
    if not n:
        return [head + "]}"]
    spelled = _spellings(packing.sides + packing.xs + packing.ys)
    # json.dumps's default separators around each placement's three floats
    pieces = ['}, {"side": ', "", ', "x": ', "", ', "y": ', ""] * n
    pieces[1::6], pieces[3::6], pieces[5::6] = spelled[:n], spelled[n:2 * n], spelled[2 * n:]
    pieces[0] = head + '{"side": '
    pieces.append("}]}")
    return pieces


def _result_pieces(result: ReduceResult) -> list:
    """``json.dumps(result_to_dict(result))`` as pieces to join."""
    pieces = _packing_pieces(result.packing)
    pieces[0] = f'{{"case": {json.dumps(result.case)}, "packing": {pieces[0]}'
    pieces[-1] += f', "params": {json.dumps(as_dict(result.params))}'
    if result.split_index is not None:
        pieces[-1] += f', "split_index": {json.dumps(result.split_index)}'
    pieces[-1] += "}"
    return pieces


def _emit_json(pieces: list, out: Optional[str]) -> None:
    # One line, joined once: ``indent`` would force json's pure-Python encoder.
    pieces.append("\n")
    _emit("".join(pieces), out)


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
    _emit_json([json.dumps(report_to_dict(report))], args.output)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    # each mode reads one of --F and --rect; the other is an error, not a flag dropped
    reads, unread = ("F", "rect") if args.mode == "small-s1" else ("rect", "F")
    if getattr(args, reads) is None or getattr(args, unread) is not None:
        raise ValueError(f"mode {args.mode} needs --{reads} and takes no --{unread}")
    inst = instance_from_dict(_read_json(args.instance))
    if args.mode == "small-s1":
        packing = small_s1_pack(inst, factor_float(args.F))
    else:
        packer = moon_moser_pack if args.mode == "moon-moser" else meir_moser_pack
        packing = packer(inst, _parse_rect(args.rect))
    _emit_json(_packing_pieces(packing), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    packing = _read_packing(args.packing)
    report = verify_packing(packing, tol=args.tol)
    _emit_json([json.dumps(as_dict(report))], args.output)
    return 0 if report.valid else 1


def _cmd_whitespace(args: argparse.Namespace) -> int:
    base = _read_packing(args.base)
    # whitespace_pack trusts its base; an overlapping one would come back
    # with exit code 0 and fail `verify`
    if not verify_packing(base).valid:
        raise PreconditionViolated("base packing is not valid: `moserpack verify` lists why")
    tail = instance_from_dict(_read_json(args.tail))
    job = WhitespaceJob(base, tail, c=args.c, F=factor_float(args.F))
    _emit_json(_packing_pieces(whitespace_pack(job)), args.output)
    return 0


def _index(raw: dict, key: str):
    """``raw[key]``, a number with no fractional part read as an int (``4.0``
    becomes 4); :class:`PackParams` rejects every other value that is not an
    integer."""
    value = raw[key]
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.toy_params and args.integral_n0:
        raise ValueError("--integral-n0 selects certified parameters; "
                         "it cannot be combined with --toy-params")
    inst = instance_from_dict(_read_json(args.instance))
    if args.toy_params:
        raw = _read_json(args.toy_params)
        params = PackParams.toy_params(
            F=factor_float(args.F),
            c=_number(raw["c"], "c"),
            N0=_index(raw, "N0"),
            N1=_index(raw, "N1"),
            N=_index(raw, "N"),
            s1_threshold=_number(raw.get("s1_threshold", 0.1), "s1_threshold"),
        )
    else:
        params = PackParams.certified(args.F, use_integral_n0=args.integral_n0)
    _emit_json(_result_pieces(reduce_and_pack(inst, params)), args.output)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    packing = _read_packing(args.packing)
    _emit(render_svg(packing, args.scale, tail_from=args.tail_from), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors take the JSON error path."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` keeps no
    state in it between calls."""
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
    p.add_argument("--rect", help="target rectangle as WxH (moon-moser, meir-moser)")
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
    p.add_argument("--integral-n0", action="store_true", dest="integral_n0",
                   help="certified parameters from the integral-form N0 chain")
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
    # ArithmeticError: float() of a JSON integer beyond the largest float;
    # RecursionError: the decoder on arrays or objects nested too deep.
    except (MoserpackError, ValueError, TypeError, OSError, KeyError,
            ArithmeticError, RecursionError) as exc:
        sys.stdout.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
            + "\n"
        )
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
