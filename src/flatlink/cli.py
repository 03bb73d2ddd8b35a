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
from fractions import Fraction
from typing import Optional

from . import __version__
from .congruence import (
    CommutantError,
    CongruenceLevel,
    SignedHit,
    descent_modulus,
    det_one_walk_size,
    enumerate_same_sign,
    min_level_v,
)
from .construct import (
    DENOM_BOUND,
    RETRY_BUDGET,
    CellWitness,
    Pattern,
    PatternFlat,
    PatternSubspace,
    SynthesisBudgetError,
    pattern_rank,
    rationalize_pattern,
    synthesize_pattern,
)
from .projlink import (
    Arrangement,
    LinePlanePair,
    LinkDecision,
    link_evidence,
)
from .qkernel import IrredCertificate, QMatrix, kernel_basis, mat_to_json, rat, rat_str
from .symspace import (
    IntersectionKind,
    flat_from_tau,
    intersect,
    involution_for_pair,
    subspace_from_pair,
    subspace_from_rho,
)

_SCHEMA = "1"


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


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


def _write_text(text: str, path: Optional[str]):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise _CliError(1, f"cannot write {path}: {e}")
    else:
        sys.stdout.write(text)


# argparse types: a value out of range is a parse error (exit 1), caught
# before any command starts


def _positive_rational(text: str) -> str:
    """A positive rational option value, kept as typed: the inputs digest
    hashes the text."""
    try:
        ok = rat(text) > 0
    except (ValueError, ZeroDivisionError):
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive rational")
    return text


def _int_at_least(low: int):
    """The argparse type of an integer option that must be >= low."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return n

    return parse


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


# ---------------------------------------------------------------------------
# reading: every input file is parsed once, numbers and shapes, into plain
# rationals; the geometric objects are built only afterwards, so a parse
# error is exit 1 and only the geometry can be degenerate (exit 2)


def _read(path: str, parse):
    """The JSON document at path and parse(document)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _CliError(1, f"cannot read {path}: {e}")
    try:
        return obj, parse(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise _CliError(1, f"bad input {path}: {e}")


def _sized(obj, n: int) -> bool:
    return isinstance(obj, list) and len(obj) == n


def _list(obj, n: int, name: str) -> list:
    if not _sized(obj, n):
        raise ValueError(f"{name} must be a list of {n}")
    return obj


def _rat(x) -> Fraction:
    """A rational entry ("3/4", "5" or 5); JSON true and false are not numbers."""
    if isinstance(x, bool):
        raise ValueError(f"{json.dumps(x)} is not a number")
    return rat(x)


def _nonzero(v: tuple, name: str) -> tuple:
    """v, which names a projective point or plane only when it is not zero."""
    if not any(v):
        raise ValueError(f"{name} must not be the zero vector")
    return v


def _vec(entries, n: int, name: str) -> tuple:
    """Exactly n rationals ("3/4", "5" or 5), not all zero, from a JSON list."""
    return _nonzero(tuple(_rat(x) for x in _list(entries, n, name)), name)


def _int(x) -> int:
    """An integer entry: any rational form ("5", 5, "10/2") of an integer."""
    q = _rat(x)
    if q.denominator != 1:
        raise ValueError(f"{x!r} is not an integer")
    return q.numerator


def _mat(rows, name: str, n: Optional[int] = None) -> QMatrix:
    """An n x n rational matrix from JSON rows; n defaults to the row count
    and is at least 2."""
    n = len(rows) if n is None else n
    if n < 2:
        raise ValueError(f"{name} must be at least 2x2")
    if not _sized(rows, n) or not all(_sized(r, n) for r in rows):
        raise ValueError(f"{name} must be {n}x{n}")
    return QMatrix([[_rat(x) for x in r] for r in rows])


def read_points(arr: dict, m: Optional[int] = None) -> tuple:
    """The points of an arrangement: m nonzero points with m coordinates each."""
    points = _mat(arr["points"], "points", m).rows
    if arr.get("m", len(points)) != len(points):
        raise ValueError("declared m does not match the point count")
    return tuple(_nonzero(p, "a point") for p in points)


def read_line_plane(obj: dict, m: int) -> tuple[tuple, tuple]:
    return _vec(obj["line"], m, "line"), _vec(obj["plane"], m, "plane")


def _read_link(obj: dict):
    points = read_points(obj["arrangement"])
    return points, read_line_plane(obj, len(points))


def _read_intersect(obj: dict):
    """tau, rho and None, or tau, None and the (line, plane) pair of rho."""
    tau = _mat(obj["tau"], "tau")
    if "rho" in obj:
        if "line" in obj or "plane" in obj:
            raise ValueError("give rho or line and plane, not both")
        return tau, _mat(obj["rho"], "rho", tau.nrows), None
    return tau, None, read_line_plane(obj, tau.nrows)


def _read_descend(obj: dict):
    tau = _mat(obj["tau"], "tau")
    return tau, _mat(obj["rho"], "rho", tau.nrows)


_LINKS = {d.value for d in LinkDecision} | {None}
# the signs a certificate cell may carry, by its oracle verdict
_SIGNS = {k.value: (None,) for k in IntersectionKind} | {"TransversePoint": (1, -1)}


def _cell(w: dict) -> CellWitness:
    c = CellWitness(link=w["link"], oracle=w["oracle"], sign=w["sign"])
    signed = c.sign in _SIGNS.get(c.oracle, ()) and not isinstance(c.sign, (bool, float))
    if c.link not in _LINKS or not signed:  # JSON true and 1.0 equal 1, but are no signs
        raise ValueError(f"bad certificate cell {json.dumps(w)}")
    return c


def read_pattern(obj: dict) -> tuple:
    """(N, m, flats, subspaces, matrix, certificate) of a pattern document.

    flats holds (tau, points or None), subspaces (rho, (line, plane) or
    None); every matrix and vector is checked against the declared m, and
    the lists and any certificate against the declared N.
    """
    N, m = obj["N"], obj["m"]
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (N, m)) or N < 1:
        raise ValueError("N and m must be integers, N >= 1")
    flats = [
        (
            _mat(rec["tau"], "tau", m),
            read_points(rec["arrangement"], m) if "arrangement" in rec else None,
        )
        for rec in _list(obj["flats"], N, "flats")
    ]
    subspaces = [
        (_mat(rec["rho"], "rho", m), read_line_plane(rec, m) if "line" in rec else None)
        for rec in _list(obj["subspaces"], N, "subspaces")
    ]
    if any(pair and involution_for_pair(*pair) != rho for rho, pair in subspaces):
        raise ValueError("a subspace's line and plane do not give its rho")
    matrix = tuple(
        tuple(_int(x) for x in _list(row, N, "a row of matrix"))
        for row in _list(obj["matrix"], N, "matrix")
    )
    rows = _list(obj["certificate"], N, "certificate") if "certificate" in obj else []
    certificate = tuple(
        tuple(_cell(w) for w in _list(row, N, "a row of certificate")) for row in rows
    )
    if certificate and matrix != tuple(
        tuple(w.sign or 0 for w in row) for row in certificate
    ):
        raise ValueError("matrix does not match the certificate's signs")
    return N, m, flats, subspaces, matrix, certificate


def _read_pattern_to_snap(obj: dict) -> tuple:
    values = read_pattern(obj)
    if any(points is None for _, points in values[2]):
        raise ValueError("every flat needs its arrangement: its frame is the snap target")
    return values


def build_pattern(N, m, flats, subspaces, matrix, certificate) -> Pattern:
    return Pattern(
        N=N,
        m=m,
        flats=tuple(
            PatternFlat(
                flat=flat_from_tau(tau),
                arrangement=None if points is None else Arrangement(points),
            )
            for tau, points in flats
        ),
        subspaces=tuple(
            PatternSubspace(
                subspace=subspace_from_rho(rho),
                pair=None if pair is None else LinePlanePair(*pair),
            )
            for rho, pair in subspaces
        ),
        matrix=matrix,
        certificate=certificate,
    )


# ---------------------------------------------------------------------------
# writing: fractions as strings, with "/q" omitted when q == 1


def _vec_to_json(v) -> list:
    return [rat_str(x) for x in v]


def arrangement_to_json(arr: Arrangement) -> dict:
    return {"m": arr.m, "points": [_vec_to_json(p.rep) for p in arr.points]}


def pair_to_json(lp: LinePlanePair) -> dict:
    return {"line": _vec_to_json(lp.line.rep), "plane": _vec_to_json(lp.plane.functional)}


def _irreducible_to_json(cert: IrredCertificate) -> dict:
    # only certified-irreducible taus are written, so the witness is the
    # prime whose reduction stays irreducible, or None
    return {
        "verdict": cert.verdict.value,
        "witness": None if cert.witness is None else {"prime": cert.witness},
        "patterns": [[p, list(d)] for p, d in cert.patterns],
    }


def pattern_to_json(p: Pattern) -> dict:
    flats = []
    for pf in p.flats:
        rec = {"tau": mat_to_json(pf.flat.tau)}
        if pf.arrangement is not None:
            rec["arrangement"] = arrangement_to_json(pf.arrangement)
        if pf.rationalized is not None:
            rt = pf.rationalized
            rec["rationalized"] = {
                "irreducible": _irreducible_to_json(rt.irred),
                "sturm_count": rt.sturm_count,
                "frame_distance": str(rt.frame_distance),
            }
        flats.append(rec)
    subs = []
    for ps in p.subspaces:
        rec = {"rho": mat_to_json(ps.subspace.rho)}
        if ps.pair is not None:
            rec.update(pair_to_json(ps.pair))
        subs.append(rec)
    return {
        "N": p.N,
        "m": p.m,
        "flats": flats,
        "subspaces": subs,
        "matrix": [list(row) for row in p.matrix],
        "certificate": [
            [{"link": w.link, "oracle": w.oracle, "sign": w.sign} for w in row]
            for row in p.certificate
        ],
    }


def signed_hit_to_json(h: SignedHit) -> dict:
    return {
        "gamma": [[int(x) for x in row] for row in h.gamma.rows],
        "point": mat_to_json(h.point.Z),
        "sign": h.sign,
    }


# ---------------------------------------------------------------------------
# commands


def _emit_pattern(doc: dict, inputs, verdicts: dict, out: Optional[str]):
    """The pattern document to stdout, or to `out` with the envelope on stdout."""
    _write_text(_canonical(doc) + "\n", out)
    if out:
        verdicts["out"] = out
        sys.stdout.write(_canonical(_envelope("Pattern", inputs, verdicts)) + "\n")


def cmd_link(args) -> int:
    obj, (points, (line, plane)) = _read(args.input, _read_link)
    arr = Arrangement(points)
    pair = LinePlanePair(line, plane)
    decision, coeffs, values = link_evidence(arr, pair)
    verdicts = {
        "linked": decision is LinkDecision.LINKED,
        "frame_coefficients": [rat_str(c) for c in coeffs],
        "plane_values": [rat_str(v) for v in values],
    }
    _write_text(_canonical(_envelope("Link", obj, verdicts)) + "\n", args.out)
    return 0


def cmd_intersect(args) -> int:
    obj, (tau, rho, pair) = _read(args.input, _read_intersect)
    X = flat_from_tau(tau)
    Y = subspace_from_rho(rho) if pair is None else subspace_from_pair(*pair)
    res = intersect(X, Y)
    verdicts = {
        "kind": res.kind.value,
        "kernel_dim": res.kernel_dim,
        "point": mat_to_json(res.point.Z) if res.point else None,
        "sign": res.sign,
    }
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
    _emit_pattern(doc, inputs, verdicts, args.out)
    if args.svg:
        if p.m == 3:
            _write_text(_pattern_svg(p), args.svg)
        else:
            print("svg emitted only for m = 3; skipped", file=sys.stderr)
    return 0


def cmd_rationalize(args) -> int:
    _, values = _read(args.input, _read_pattern_to_snap)
    p = build_pattern(*values)
    try:
        snapped, bound = rationalize_pattern(p, denom_bound=args.denoms)
    except OverflowError as e:  # the snap targets are floats
        raise _CliError(1, f"bad input {args.input}: coordinates too large for floats ({e})")
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
    _emit_pattern(doc, inputs, verdicts, args.out)
    return 0


def cmd_rank(args) -> int:
    obj, values = _read(args.input, read_pattern)
    p = build_pattern(*values)
    verdicts = {"N": p.N, "m": p.m, "rank": pattern_rank(p)}
    _write_text(_canonical(_envelope("Pattern", obj, verdicts)) + "\n", args.out)
    return 0


# the longest det-1 walk a descent may start: at m = 2 and q = 5 that is
# bound 2,499, whose descent evaluates about half a million det-1 points
_DESCENT_WALK_BUDGET = 1_000_000


def cmd_descend(args) -> int:
    obj, (tau, rho) = _read(args.input, _read_descend)
    p, n = _parse_level(args.level)
    if n is None:
        try:
            n = min_level_v(subspace_from_rho(rho).line, p)
        except ValueError:
            # a rho with no fixed line never reaches a level: the search
            # below rejects it (commutant first, exit 4; else exit 2)
            n = 1
    level = CongruenceLevel(p, n)
    walk = det_one_walk_size(tau.nrows, descent_modulus(level, args.bound), args.bound)
    if walk > _DESCENT_WALK_BUDGET:
        raise _CliError(
            1,
            f"--bound {args.bound} at level {p}:{n} walks {walk:,} row choices, "
            f"over the budget of {_DESCENT_WALK_BUDGET:,}; lower the bound or raise n",
        )
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


def _polyline(points3) -> list[list[tuple[float, float]]]:
    """Split a sampled projective path where it wraps through the boundary."""
    runs, cur, prev = [], [], None
    for v in points3:
        xy = _disk_xy(v)
        if prev is not None and math.dist(prev, xy) > 0.8 * _R:
            runs.append(cur)
            cur = []
        cur.append(xy)
        prev = xy
    if cur:
        runs.append(cur)
    return runs


def _segment_samples(a, b):
    """97 points of the segment a -> b of R^3, the one sampler of every
    projective line the figure draws. a and b are independent, so no
    point is 0."""
    av = [float(x) for x in a]
    bv = [float(x) for x in b]
    return [[(1 - k / 96) * x + k / 96 * y for x, y in zip(av, bv)] for k in range(97)]


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
        # the plane's projective line: the segments u1 -> u2 -> -u1 of a
        # kernel basis, which close up since -u1 and u1 are one point
        u1, u2 = kernel_basis(QMatrix([list(ps.subspace.plane)]))
        samples = _segment_samples(u1, u2) + _segment_samples(u2, [-x for x in u1])
        for run in _polyline(samples):
            if len(run) > 1:
                parts.append(
                    f'<path d="{_path_d(run)}" fill="none" stroke="#555" '
                    'stroke-width="1" stroke-dasharray="5 3"/>'
                )
        x, y = _disk_xy(ps.subspace.line)
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
    sp.add_argument("N", type=_int_at_least(1))
    sp.add_argument("m", type=_int_at_least(2))
    sp.add_argument("--thinness", default="1/4", type=_positive_rational)
    sp.add_argument("--rotation", default="1/2", type=_positive_rational)
    sp.add_argument("--retries", type=_int_at_least(1), default=RETRY_BUDGET)
    sp.add_argument("--svg", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_pattern)

    sp = sub.add_parser("rationalize", help="snap a pattern to certified rationals")
    sp.add_argument("input")
    sp.add_argument("--denoms", type=_int_at_least(1), default=DENOM_BOUND)
    common(sp)
    sp.set_defaults(fn=cmd_rationalize)

    sp = sub.add_parser("descend", help="bounded same-sign congruence run")
    sp.add_argument("input")
    sp.add_argument("--level", default=None, metavar="p[:n]")
    sp.add_argument("--bound", type=_int_at_least(0), default=10)
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
    except ValueError as e:
        print(f"flatlink: degenerate input: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
