"""Command-line front end: batch decisions, synthesis, descent, figures.

Every command reads JSON, writes canonical JSON (sorted keys, no spaces)
so identical inputs give byte-identical outputs, and maps failures to a
stable exit-code contract:

    0  decided
    1  parse or argument failure
    2  degenerate input (general position violated, repeated eigenvalues,
       degenerate intersection)
    3  synthesis or snap budget exhausted
    4  joint commutant is larger than the scalars

The only figure emitted is the m = 3 disk picture: the projective plane
drawn as a disk with antipodal boundary identification, frame triangles
for each flat and line/plane traces for each pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Optional

from . import __version__
from .congruence import (
    CommutantError,
    CongruenceLevel,
    enumerate_same_sign,
    min_level_v,
    signed_hit_to_json,
)
from .construct import (
    Pattern,
    SynthesisBudgetError,
    pattern_from_json,
    pattern_rank,
    pattern_to_json,
    rationalize_pattern,
    synthesize_pattern,
)
from .projlink import (
    GeneralPositionError,
    LinePlanePair,
    LinkDecision,
    arrangement_from_json,
    frame_coefficients,
    link_decision,
)
from .qkernel import QMatrix, kernel_basis, mat_from_json, rat, rat_str, vec_from_json
from .symspace import (
    IntersectionKind,
    flat_from_tau,
    intersect,
    intersection_sign,
    involution_for_pair,
    subspace_from_rho,
)

_SCHEMA = "1"


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# what reading the raw JSON numbers and shapes can raise; anything raised
# later, while the geometric objects are built, is a degenerate input
_PARSE_ERRORS = (KeyError, TypeError, ValueError, ZeroDivisionError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we keep 1
        raise _CliError(1, message)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def _envelope(kind: str, inputs, verdicts: dict) -> dict:
    return {
        "kind": kind,
        "inputs_digest": _digest(inputs),
        "verdicts": verdicts,
        "versions": {"flatlink": __version__, "schema": _SCHEMA},
    }


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _CliError(1, f"cannot read {path}: {e}")


def _write_text(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_level(spec: Optional[str]) -> tuple[int, Optional[int]]:
    """(p, n) from "p" or "p:n"; n is None when left to the level finder."""
    if spec is None:
        raise _CliError(1, "--level p[:n] is required")
    p, sep, n = spec.partition(":")
    try:
        p, n = int(p), (int(n) if sep else None)
        CongruenceLevel(p, 1 if n is None else n)  # raises on a bad p or n
        return p, n
    except ValueError as e:
        raise _CliError(1, f"bad --level {spec}: {e}")


def _read_points(arr_obj) -> list:
    points = [vec_from_json(row) for row in arr_obj["points"]]
    if arr_obj.get("m", len(points)) != len(points):
        raise ValueError("declared m does not match the point count")
    return points


# ---------------------------------------------------------------------------
# commands


def cmd_link(args) -> int:
    obj = _read_json(args.input)
    try:
        arr_obj = obj["arrangement"]
        points = _read_points(arr_obj)
        line, plane = vec_from_json(obj["line"]), vec_from_json(obj["plane"])
    except _PARSE_ERRORS as e:
        raise _CliError(1, f"bad input: {e}")
    arr = arrangement_from_json(dict(arr_obj, points=points))
    pair = LinePlanePair(line, plane)
    decision = link_decision(arr, pair)
    coeffs = frame_coefficients(arr, pair.line)
    values = [pair.plane.eval(pt) for pt in arr.points]
    verdicts = {
        "linked": decision is LinkDecision.LINKED,
        "frame_coefficients": [rat_str(c) for c in coeffs],
        "plane_values": [rat_str(v) for v in values],
    }
    _write_text(_canonical(_envelope("Link", obj, verdicts)) + "\n", args.out)
    return 0


def cmd_intersect(args) -> int:
    obj = _read_json(args.input)
    try:
        tau = mat_from_json(obj["tau"])
        if "rho" in obj:
            rho = mat_from_json(obj["rho"])
        else:
            line, plane = vec_from_json(obj["line"]), vec_from_json(obj["plane"])
    except _PARSE_ERRORS as e:
        raise _CliError(1, f"bad input: {e}")
    X = flat_from_tau(tau)
    if "rho" not in obj:
        rho = involution_for_pair(line, plane)
    Y = subspace_from_rho(rho)
    res = intersect(X, Y)
    verdicts = res.to_json()
    if res.kind is IntersectionKind.TRANSVERSE_POINT:
        verdicts["sign"] = intersection_sign(X, Y, res.point)
    _write_text(_canonical(_envelope("Intersect", obj, verdicts)) + "\n", args.out)
    return 0 if res.kind is not IntersectionKind.DEGENERATE else 2


def cmd_pattern(args) -> int:
    p = synthesize_pattern(
        args.N,
        args.m,
        thinness=rat(args.thinness),
        rotation=rat(args.rotation),
        retry_budget=args.retries,
    )
    doc = pattern_to_json(p)
    inputs = {
        "N": args.N,
        "m": args.m,
        "thinness": args.thinness,
        "rotation": args.rotation,
    }
    verdicts = {
        "N": p.N,
        "m": p.m,
        "rank": pattern_rank(p),
        "matrix": [list(row) for row in p.matrix],
    }
    if args.out:
        _write_text(_canonical(doc) + "\n", args.out)
        verdicts["out"] = args.out
        sys.stdout.write(_canonical(_envelope("Pattern", inputs, verdicts)) + "\n")
    else:
        _write_text(_canonical(doc) + "\n", None)
    if args.svg:
        if p.m == 3:
            _write_text(_pattern_svg(p), args.svg)
        else:
            print("svg emitted only for m = 3; skipped", file=sys.stderr)
    return 0


def cmd_rationalize(args) -> int:
    obj = _read_json(args.input)
    p = _load_pattern(obj)
    snapped, bound = rationalize_pattern(
        p, denom_bound=args.denoms, prime_budget=args.primes
    )
    doc = pattern_to_json(snapped)
    inputs = {"pattern": pattern_to_json(p), "denoms": args.denoms}
    verdicts = {
        "stable": True,
        "denom_bound": bound,
        "matrix": [list(row) for row in snapped.matrix],
        "frame_distances": [
            str(pf.rationalized.frame_distance) for pf in snapped.flats
        ],
    }
    if args.out:
        _write_text(_canonical(doc) + "\n", args.out)
        verdicts["out"] = args.out
        sys.stdout.write(_canonical(_envelope("Pattern", inputs, verdicts)) + "\n")
    else:
        _write_text(_canonical(doc) + "\n", None)
    return 0


def cmd_rank(args) -> int:
    obj = _read_json(args.input)
    p = _load_pattern(obj)
    verdicts = {"N": p.N, "m": p.m, "rank": pattern_rank(p)}
    _write_text(_canonical(_envelope("Pattern", obj, verdicts)) + "\n", args.out)
    return 0


def cmd_descend(args) -> int:
    obj = _read_json(args.input)
    try:
        tau = mat_from_json(obj["tau"])
        rho = mat_from_json(obj["rho"])
    except _PARSE_ERRORS as e:
        raise _CliError(1, f"bad input: {e}")
    p, n = _parse_level(args.level)
    if n is None:
        try:
            n = min_level_v(subspace_from_rho(rho).line, p)
        except ValueError:
            # a rho with no fixed line never reaches a level: the search
            # below rejects it (commutant first, exit 4; else exit 2)
            n = 1
    level = CongruenceLevel(p, n)
    hits = enumerate_same_sign(tau, rho, level, entry_bound=args.bound)
    signs = {h.sign for h in hits}
    lines = [_canonical(signed_hit_to_json(h)) for h in hits]
    summary = _envelope(
        "Descent",
        {"tau": obj["tau"], "rho": obj["rho"], "level": [level.p, level.n],
         "bound": args.bound},
        {
            "level": [level.p, level.n],
            "bound": args.bound,
            "hits": len(hits),
            "all_same_sign": len(signs) <= 1,
        },
    )
    lines.append(_canonical(summary))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _load_pattern(obj: dict) -> Pattern:
    try:
        if "matrix" not in obj and "verdicts" in obj:
            obj = obj["verdicts"]
        # read every number first: a bad one is a parse error, not degenerate
        for rec in obj["flats"]:
            mat_from_json(rec["tau"])
            if "arrangement" in rec:
                _read_points(rec["arrangement"])
        for rec in obj["subspaces"]:
            mat_from_json(rec["rho"])
            if "line" in rec:
                vec_from_json(rec["line"])
                vec_from_json(rec["plane"])
        [int(x) for row in obj["matrix"] for x in row]
    except _PARSE_ERRORS as e:
        raise _CliError(1, f"bad pattern file: {e}")
    try:
        return pattern_from_json(obj)
    except (KeyError, TypeError) as e:
        raise _CliError(1, f"bad pattern file: {e}")


# ---------------------------------------------------------------------------
# the m = 3 disk figure

_R = 270.0
_CX = _CY = 300.0
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]


def _disk_xy(v) -> tuple[float, float]:
    x, y, z = (float(t) for t in v)
    n = math.sqrt(x * x + y * y + z * z)
    x, y, z = x / n, y / n, z / n
    if z < 0:
        x, y = -x, -y
    return (_CX + _R * x, _CY - _R * y)


def _polyline(points3, steps_split=0.8) -> list[list[tuple[float, float]]]:
    """Split a sampled projective path where it wraps through the boundary."""
    runs, cur, prev = [], [], None
    for v in points3:
        xy = _disk_xy(v)
        if prev is not None and math.dist(prev, xy) > steps_split * _R:
            runs.append(cur)
            cur = []
        cur.append(xy)
        prev = xy
    if cur:
        runs.append(cur)
    return runs


def _segment_samples(a, b, steps=96):
    av = [float(x) for x in a]
    bv = [float(x) for x in b]
    out = []
    for k in range(steps + 1):
        t = k / steps
        v = [(1 - t) * x + t * y for x, y in zip(av, bv)]
        if max(abs(x) for x in v) > 1e-12:
            out.append(v)
    return out


def _path_d(run) -> str:
    return "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in run)


def _pattern_svg(p: Pattern) -> str:
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        'viewBox="0 0 600 600">',
        f'<circle cx="{_CX}" cy="{_CY}" r="{_R}" fill="none" '
        'stroke="#333" stroke-width="2"/>',
    ]
    for i, pf in enumerate(p.flats):
        if pf.arrangement is None:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        pts = [pt.rep for pt in pf.arrangement.points]
        for a in range(3):
            for b in range(a + 1, 3):
                for run in _polyline(_segment_samples(pts[a], pts[b])):
                    if len(run) > 1:
                        parts.append(
                            f'<path d="{_path_d(run)}" fill="none" '
                            f'stroke="{color}" stroke-width="1.5"/>'
                        )
        for pt in pts:
            x, y = _disk_xy(pt)
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>'
            )
        x, y = _disk_xy(pts[-1])
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="12" '
            f'fill="{color}">X{i + 1}</text>'
        )
    for j, ps in enumerate(p.subspaces):
        v = [float(x) for x in ps.subspace.line]
        # orthonormal basis of the plane's kernel, sampled over a half-turn
        w = kernel_basis(QMatrix([list(ps.subspace.plane)]))
        w1 = [float(x) for x in w[0]]
        w2 = [float(x) for x in w[1]]
        n1 = math.sqrt(sum(x * x for x in w1))
        w1 = [x / n1 for x in w1]
        dot = sum(a * b for a, b in zip(w1, w2))
        w2 = [a - dot * b for a, b in zip(w2, w1)]
        n2 = math.sqrt(sum(x * x for x in w2))
        w2 = [x / n2 for x in w2]
        samples = []
        for k in range(97):
            t = math.pi * k / 96
            samples.append(
                [math.cos(t) * a + math.sin(t) * b for a, b in zip(w1, w2)]
            )
        for run in _polyline(samples):
            if len(run) > 1:
                parts.append(
                    f'<path d="{_path_d(run)}" fill="none" stroke="#555" '
                    'stroke-width="1" stroke-dasharray="5 3"/>'
                )
        x, y = _disk_xy(v)
        parts.append(
            f'<rect x="{x - 3:.2f}" y="{y - 3:.2f}" width="6" height="6" '
            'fill="#222"/>'
        )
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y + 12:.2f}" font-size="12" '
            f'fill="#222">Y{j + 1}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="flatlink", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("link", help="decide linking for an arrangement+pair file")
    sp.add_argument("input")
    common(sp)
    sp.set_defaults(fn=cmd_link)

    sp = sub.add_parser("intersect", help="intersect a flat and a subspace")
    sp.add_argument("input")
    common(sp)
    sp.set_defaults(fn=cmd_intersect)

    sp = sub.add_parser("pattern", help="synthesize a certified pattern")
    sp.add_argument("N", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("--thinness", default="1/4")
    sp.add_argument("--rotation", default="1/2")
    sp.add_argument("--retries", type=int, default=32)
    sp.add_argument("--svg", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_pattern)

    sp = sub.add_parser("rationalize", help="snap a pattern to certified rationals")
    sp.add_argument("input")
    sp.add_argument("--denoms", type=int, default=64)
    sp.add_argument("--primes", type=int, default=25)
    common(sp)
    sp.set_defaults(fn=cmd_rationalize)

    sp = sub.add_parser("descend", help="bounded same-sign congruence run")
    sp.add_argument("input")
    sp.add_argument("--level", default=None, metavar="p[:n]")
    sp.add_argument("--bound", type=int, default=10)
    common(sp)
    sp.set_defaults(fn=cmd_descend)

    sp = sub.add_parser("rank", help="rank of a pattern's sign matrix")
    sp.add_argument("input")
    common(sp)
    sp.set_defaults(fn=cmd_rank)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _CliError as e:
        print(f"flatlink: {e}", file=sys.stderr)
        return e.code
    except SynthesisBudgetError as e:
        print(f"flatlink: {e}", file=sys.stderr)
        return 3
    except CommutantError as e:
        print(f"flatlink: {e}", file=sys.stderr)
        return 4
    except GeneralPositionError as e:
        print(f"flatlink: degenerate input: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"flatlink: degenerate input: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
