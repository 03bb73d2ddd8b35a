import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import flatlink
from flatlink import cli, projlink
from flatlink.cli import (
    arrangement_to_json,
    build_pattern,
    main,
    pair_to_json,
    pattern_to_json,
    read_line_plane,
    read_pattern,
    read_points,
    signed_hit_to_json,
)
from flatlink.congruence import CongruenceLevel, enumerate_same_sign
from flatlink.construct import synthesize_pattern
from flatlink.projlink import Arrangement, LinePlanePair, frame_coefficients
from flatlink.qkernel import QMatrix, rat, rat_str
from flatlink.symspace import involution_for_pair


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


LINKED_INPUT = {
    "arrangement": {"m": 2, "points": [["1", "0"], ["0", "1"]]},
    "line": ["1", "1"],
    "plane": ["1", "1"],
}


# a one-cell pattern that `rank` accepts
SMALL_PATTERN = {
    "N": 1,
    "m": 2,
    "flats": [{"tau": [["2", "1"], ["1", "1"]]}],
    "subspaces": [{"rho": [["0", "1"], ["1", "0"]]}],
    "matrix": [[1]],
}


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_link_linked(tmp_path, capsys):
    path = _write(tmp_path / "in.json", LINKED_INPUT)
    assert main(["link", path]) == 0
    doc = _last_json(capsys)
    assert doc["kind"] == "Link"
    assert doc["verdicts"]["linked"] is True
    assert doc["versions"]["schema"] == "1"
    assert len(doc["inputs_digest"]) == 64


def test_link_not_linked(tmp_path, capsys):
    obj = dict(LINKED_INPUT, plane=["2", "-1"])
    path = _write(tmp_path / "in.json", obj)
    assert main(["link", path]) == 0
    assert _last_json(capsys)["verdicts"]["linked"] is False


def test_link_solves_for_the_frame_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(arr, L):
        calls.append(L)
        return frame_coefficients(arr, L)

    monkeypatch.setattr(projlink, "frame_coefficients", counted)
    assert main(["link", _write(tmp_path / "in.json", LINKED_INPUT)]) == 0
    assert len(calls) == 1
    verdicts = _last_json(capsys)["verdicts"]
    assert verdicts["frame_coefficients"] == ["1", "1"]
    assert verdicts["plane_values"] == ["1", "1"]


def test_link_degenerate_exit2(tmp_path):
    obj = dict(LINKED_INPUT, line=["1", "0"])  # line equals a frame point
    path = _write(tmp_path / "in.json", obj)
    assert main(["link", path]) == 2


def test_link_malformed_exit1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["link", str(path)]) == 1
    assert main(["link", str(tmp_path / "missing.json")]) == 1
    bad_point = {"arrangement": {"m": 2, "points": [["x", "0"], ["0", "1"]]}}
    path = _write(tmp_path / "in.json", dict(LINKED_INPUT, **bad_point))
    assert main(["link", path]) == 1


def test_link_declared_m_mismatch_exit1(tmp_path):
    arr = {"m": 3, "points": [["1", "0"], ["0", "1"]]}
    path = _write(tmp_path / "in.json", dict(LINKED_INPUT, arrangement=arr))
    assert main(["link", path]) == 1


def test_link_wrong_keys_exit1(tmp_path):
    path = _write(tmp_path / "in.json", {"arrangement": {"m": 2}})
    assert main(["link", path]) == 1


def test_intersect_transverse(tmp_path, capsys):
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]},
    )
    assert main(["intersect", path]) == 0
    v = _last_json(capsys)["verdicts"]
    assert v["kind"] == "TransversePoint"
    assert v["sign"] in (1, -1)


def test_intersect_degenerate_exit2(tmp_path, capsys):
    path = _write(
        tmp_path / "in.json",
        {
            "tau": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1/2"]],
            "rho": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
        },
    )
    assert main(["intersect", path]) == 2
    assert _last_json(capsys)["verdicts"]["kind"] == "Degenerate"


def test_intersect_pair_input(tmp_path, capsys):
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "line": ["1", "1"], "plane": ["1", "1"]},
    )
    assert main(["intersect", path]) == 0
    assert _last_json(capsys)["verdicts"]["kind"] == "TransversePoint"


def test_intersect_malformed_exit1(tmp_path):
    path = _write(
        tmp_path / "in.json", {"tau": "oops", "rho": [["0", "1"], ["1", "0"]]}
    )
    assert main(["intersect", path]) == 1
    path = _write(
        tmp_path / "in.json",
        {"tau": [["1/0", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]},
    )
    assert main(["intersect", path]) == 1
    # line and plane stand in place of rho, never beside it: this pair alone
    # lies in its plane (exit 2), and must not be dropped for rho's exit 0
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]],
         "line": ["1", "0"], "plane": ["0", "1"]},
    )
    assert main(["intersect", path]) == 1


@pytest.mark.parametrize(
    "command, obj",
    [
        # a 2x2 tau with a 3x3 rho
        ("intersect", {"tau": [["2", "1"], ["1", "1"]],
                       "rho": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]}),
        # a 2x3 tau
        ("intersect", {"tau": [["2", "1", "0"], ["1", "1", "0"]],
                       "rho": [["0", "1"], ["1", "0"]]}),
        # a 3-entry line and a 2-entry plane for a 3x3 tau
        ("intersect", {"tau": [["3", "1", "0"], ["1", "2", "1"], ["0", "1", "1"]],
                       "line": ["1", "1", "1"], "plane": ["1", "1"]}),
        # a plane with one entry too many for a 2x2 tau
        ("intersect", {"tau": [["2", "1"], ["1", "1"]],
                       "line": ["1", "1"], "plane": ["1", "1", "5"]}),
        # a 3-entry line for m = 2
        ("link", dict(LINKED_INPUT, line=["1", "1", "1"])),
        # 3-entry points for m = 2
        ("link", dict(LINKED_INPUT, arrangement={
            "m": 2, "points": [["1", "0", "0"], ["0", "1", "0"]]})),
        # a 1x1 tau: there is no SL_1 geometry
        ("intersect", {"tau": [["2"]], "rho": [["1"]]}),
        # tau and rho of different sizes
        ("descend", {"tau": [["2", "1"], ["1", "1"]],
                     "rho": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]}),
        # JSON booleans are not numbers
        ("intersect", {"tau": [[True, 0], [0, 2]], "rho": [[0, 1], [1, 0]]}),
        ("link", dict(LINKED_INPUT, arrangement={
            "m": 2, "points": [[True, False], [False, True]]})),
        ("rank", dict(SMALL_PATTERN, N=True)),
        ("rank", dict(SMALL_PATTERN, matrix=[[True]])),
        # a zero vector names no point or plane
        ("intersect", {"tau": [["2", "1"], ["1", "1"]], "line": ["0", "0"], "plane": ["1", "1"]}),
        ("intersect", {"tau": [["2", "1"], ["1", "1"]], "line": ["1", "1"], "plane": [0, "0/3"]}),
        ("link", dict(LINKED_INPUT, line=["0", "0"])),
        ("link", dict(LINKED_INPUT, plane=["0", "0"])),
        ("link", dict(LINKED_INPUT, arrangement={"m": 2, "points": [["0", "0"], ["0", "1"]]})),
    ],
)
def test_shape_errors_exit1(tmp_path, capsys, command, obj):
    path = _write(tmp_path / "in.json", obj)
    argv = [command, path] + (["--level", "5"] if command == "descend" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("flatlink: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_small_pattern_ranks(tmp_path, capsys):
    assert main(["rank", _write(tmp_path / "in.json", SMALL_PATTERN)]) == 0
    assert _last_json(capsys)["verdicts"] == {"N": 1, "m": 2, "rank": 1}


def test_pattern_file_shape_errors_exit1(tmp_path, capsys):
    assert main(["pattern", "2", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    flat, *rest = doc["flats"]
    sub, *others = doc["subspaces"]
    bad_docs = [
        dict(doc, m=3),  # declared m does not match the data
        dict(doc, N=3),  # declared N does not match the lists
        dict(doc, flats=[dict(flat, tau=[["1", "0", "0"]] * 3), *rest]),
        dict(doc, subspaces=[dict(sub, line=["1", "1", "1"]), *others]),
        dict(doc, matrix=[[1, 1]]),
        dict(doc, matrix=[[0.9, 1.7], [0, -1.2]]),  # floats were truncated
        dict(doc, matrix=[["1/2", 1], [0, 1]]),
    ]
    for bad in bad_docs:
        path = _write(tmp_path / "bad.json", bad)
        assert main(["rank", path]) == 1
        assert main(["rationalize", path]) == 1
        assert "Traceback" not in capsys.readouterr().err
    # exact, so rank reads them; the float snap targets cannot hold them
    arrangement = dict(flat["arrangement"])
    arrangement["points"] = [[str(10**400), "1"], *arrangement["points"][1:]]
    rho = involution_for_pair([10**400, 1], [0, 1])  # +1 line [10^400, 1]
    past_float = [
        dict(doc, flats=[dict(flat, arrangement=arrangement), *rest]),
        dict(doc, subspaces=[{"rho": [[rat_str(x) for x in r] for r in rho.rows]}, *others]),
    ]
    for bad in past_float:
        path = _write(tmp_path / "bad.json", bad)
        assert main(["rank", path]) == 0
        capsys.readouterr()
        assert main(["rationalize", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("flatlink: ")
        assert "Traceback" not in captured.err and captured.out == ""
    # a rationalized pattern keeps no arrangements, so it has no snap targets
    assert main(["rationalize", _write(tmp_path / "p.json", doc)]) == 0
    snapped = _write(tmp_path / "snapped.json", json.loads(capsys.readouterr().out))
    assert main(["rank", snapped]) == 0
    assert main(["rationalize", snapped]) == 1


def _set(path, value):
    """An edit of a pattern document: the entry at path set to value."""

    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_set(("certificate", 0), []), id="short-row"),
        pytest.param(_set(("certificate",), []), id="no-rows"),
        pytest.param(_set(("certificate", 0, 0, "link"), "maybe"), id="link-maybe"),
        pytest.param(_set(("certificate", 0, 0, "oracle"), 7), id="oracle-7"),
        pytest.param(_set(("certificate", 0, 0, "sign"), "x"), id="sign-x"),
        pytest.param(_set(("certificate", 0, 0, "sign"), True), id="sign-true"),
        # cell (0, 0) is a TransversePoint, cell (1, 0) Empty
        pytest.param(_set(("certificate", 0, 0, "sign"), None), id="transverse-unsigned"),
        pytest.param(_set(("certificate", 1, 0, "sign"), 1), id="empty-signed"),
        # a plane that does not give the record's rho
        pytest.param(_set(("subspaces", 0, "plane"), ["1", "1"]), id="pair-not-rho"),
        # the certificate's signs are [[-1, -1], [null, -1]]
        pytest.param(_set(("matrix",), [[1, 1], [1, 1]]), id="matrix-not-certificate"),
    ],
)
def test_pattern_certificate_and_pair_checked_exit1(tmp_path, capsys, edit):
    assert main(["pattern", "2", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"][0][0]["oracle"] == "TransversePoint"
    assert doc["certificate"][1][0]["oracle"] == "Empty"
    edit(doc)
    path = _write(tmp_path / "bad.json", doc)
    for command in ("rank", "rationalize"):
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("flatlink: bad input ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


def test_pattern_json_roundtrip():
    p = synthesize_pattern(2, 2)
    blob = json.dumps(pattern_to_json(p), sort_keys=True)
    q = build_pattern(*read_pattern(json.loads(blob)))
    assert q.matrix == p.matrix
    assert q.N == p.N and q.m == p.m
    assert all(x.flat.tau == y.flat.tau for x, y in zip(p.flats, q.flats))
    assert all(
        x.subspace.rho == y.subspace.rho
        for x, y in zip(p.subspaces, q.subspaces)
    )
    assert q.certificate == p.certificate


def test_arrangement_and_pair_json_round_trip():
    arr = Arrangement([[1, 0], [1, 1]])
    lp = LinePlanePair([2, 1], [1, -3])
    assert Arrangement(read_points(arrangement_to_json(arr))) == arr
    assert LinePlanePair(*read_line_plane(pair_to_json(lp), 2)) == lp
    obj = arrangement_to_json(arr)
    assert obj["m"] == 2 and obj["points"][1] == ["1", "1"]


def test_signed_hit_json():
    tau, rho = QMatrix([[2, 1], [1, 1]]), QMatrix([[0, 1], [1, 0]])
    hits = enumerate_same_sign(tau, rho, CongruenceLevel(5, 1), entry_bound=1)
    blob = json.loads(json.dumps(signed_hit_to_json(hits[0]), sort_keys=True))
    assert blob["gamma"] == [[1, 0], [0, 1]]
    assert blob["sign"] in (1, -1)
    assert isinstance(blob["point"], list)


def test_pattern_writes_file_and_envelope(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["pattern", "2", "2", "--out", str(out)]) == 0
    envelope = _last_json(capsys)
    assert envelope["verdicts"]["rank"] == 2
    doc = json.loads(out.read_text())
    assert doc["N"] == 2 and doc["m"] == 2
    assert doc["matrix"][1][0] == 0

    before = out.read_bytes()
    assert main(["pattern", "2", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == before  # byte determinism


def test_pattern_stdout_when_no_out(capsys):
    assert main(["pattern", "1", "2"]) == 0
    doc = _last_json(capsys)
    assert doc["matrix"] == [[1]] or doc["matrix"] == [[-1]]


def test_pattern_svg(tmp_path):
    out = tmp_path / "p.json"
    svg = tmp_path / "fig.svg"
    assert main(["pattern", "4", "3", "--out", str(out), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "<circle" in text and "<path" in text
    assert text.count("X4") == 1 and text.count("Y4") == 1
    assert "nan" not in text
    # each subspace's dashed traces come just before its label. Every
    # point of them, lifted back to the upper hemisphere, lies on the
    # subspace's projective line w = 0, and they run into both points
    # +-e where that line meets the boundary circle, as only the whole
    # line does, through more than 90 distinct points
    planes = [[float(rat(x)) for x in s["plane"]] for s in json.loads(out.read_text())["subspaces"]]
    points, labelled = [], 0
    for line in text.splitlines():
        if "stroke-dasharray" in line:
            d = line.split('d="')[1].split('"')[0]
            points += [(float(x), float(y)) for x, y in re.findall(r"(-?[\d.]+) (-?[\d.]+)", d)]
        elif f">Y{labelled + 1}</text>" in line:
            w = planes[labelled]
            assert len(set(points)) > 90, f"Y{labelled + 1} has {len(set(points))} trace points"
            for px, py in points:
                x, y = (px - 300) / 270, (300 - py) / 270
                v = (x, y, math.sqrt(max(0.0, 1 - x * x - y * y)))
                assert abs(sum(a * b for a, b in zip(w, v))) < 0.02 * math.hypot(*w)
            e = (-w[1] / math.hypot(w[0], w[1]), w[0] / math.hypot(w[0], w[1]))
            for s in (1, -1):
                end = (300 + s * 270 * e[0], 300 - s * 270 * e[1])
                assert min(math.dist(end, pt) for pt in points) < 10
            points, labelled = [], labelled + 1
    assert labelled == 4


@pytest.mark.parametrize("option", ["--out", "--svg"])
def test_unwritable_output_path_exit1(tmp_path, capsys, option):
    # files are written before stdout, so a failed write prints no result
    path = tmp_path / "missing" / "x"
    argv = ["pattern", "4", "3", option, str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"flatlink: cannot write {path}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_out_and_svg_naming_one_file_exit1(tmp_path, capsys):
    path = tmp_path / "x"
    for other in (path, tmp_path / "sub" / ".." / "x"):
        assert main(["pattern", "3", "3", "--out", str(path), "--svg", str(other)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "flatlink: --out and --svg name the same file\n"
        assert captured.out == ""
        assert not path.exists()


def test_pattern_svg_skipped_above_m3(tmp_path, capsys):
    svg = tmp_path / "fig.svg"
    out = tmp_path / "p.json"
    assert main(["pattern", "2", "4", "--out", str(out), "--svg", str(svg)]) == 0
    assert not svg.exists()
    assert "m = 3" in capsys.readouterr().err


def test_pattern_budget_exit3():
    # a rotation of 100 puts each plane far outside its target gap, so the
    # one attempt a budget of 1 allows fails (a budget of 0 is an argument
    # error, exit 1)
    assert main(["pattern", "2", "2", "--rotation", "100", "--retries", "1"]) == 3


def test_pattern_bad_args_exit1():
    assert main(["pattern", "2"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["pattern", "2", "2", "--thinness", "x"]) == 1
    assert main(["pattern", "2", "2", "--rotation", "1/0"]) == 1


def _assert_parse_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("flatlink: argument ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["pattern", "0", "2"],  # was exit 2
        ["pattern", "2", "1"],  # was exit 2
        ["pattern", "2", "2", "--thinness", "0"],  # was exit 2
        ["pattern", "2", "2", "--rotation", "0"],  # was exit 2
        ["pattern", "2", "2", "--rotation=-1/2"],  # was exit 2
        ["pattern", "2", "2", "--retries", "0"],  # was exit 3
        ["pattern", "2", "2", "--thinness", "1e3000000"],  # used to run for minutes
        ["pattern", "2", "2", "--rotation", "1E-2"],
        ["pattern", "2", "2", "--thinness", "1_0"],  # was 10 on Python >= 3.11
        ["pattern", "2", "2", "--thinness", "1 /4"],  # was 1/4 on Python >= 3.12
        ["pattern", "x", "3"],  # N is not an integer
    ],
)
def test_pattern_out_of_range_options_exit1(argv, capsys):
    _assert_parse_error(argv, capsys)


def test_digit_separator_in_input_exit1(tmp_path, capsys):
    # Fraction reads "2_0" as 20 from Python 3.11 on; refused on every version
    obj = {"tau": [["2_0", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]}
    assert main(["intersect", _write(tmp_path / "in.json", obj)]) == 1
    captured = capsys.readouterr()
    assert "digit separators" in captured.err
    assert captured.out == ""


def test_non_ascii_digit_in_input_exit1(tmp_path, capsys):
    # Fraction reads "\u0663" (Arabic-Indic three) as 3; this input used to exit 0
    obj = {"tau": [["\u0663", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]}
    assert main(["intersect", _write(tmp_path / "in.json", obj)]) == 1
    captured = capsys.readouterr()
    assert "only ASCII digits" in captured.err
    assert captured.out == ""


def test_exponent_notation_in_input_exit1(tmp_path, capsys):
    # an entry in exponent notation is a parse error, refused before Fraction
    # expands it (this input used to exit 0)
    obj = {"tau": [["1e300000", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]}
    assert main(["intersect", _write(tmp_path / "in.json", obj)]) == 1
    captured = capsys.readouterr()
    assert "exponent notation" in captured.err
    assert captured.out == ""


def test_rationalize_denoms_zero_exit1(tmp_path, capsys):
    # bound 0 never grows (it is multiplied by 4 each round): six rounds, exit 3
    pat = tmp_path / "p.json"
    assert main(["pattern", "2", "2", "--out", str(pat)]) == 0
    capsys.readouterr()
    _assert_parse_error(["rationalize", str(pat), "--denoms", "0"], capsys)


def test_descend_negative_bound_exit1(tmp_path, capsys):
    # an empty ball used to report zero hits and all_same_sign, exit 0
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]},
    )
    _assert_parse_error(["descend", path, "--level", "5", "--bound", "-1"], capsys)
    assert main(["descend", path, "--level", "5", "--bound", "0"]) == 0
    assert _last_json(capsys)["verdicts"]["hits"] == 0


def test_rank_cmd(tmp_path, capsys):
    out = tmp_path / "p.json"
    main(["pattern", "3", "2", "--out", str(out)])
    capsys.readouterr()
    assert main(["rank", str(out)]) == 0
    assert _last_json(capsys)["verdicts"]["rank"] == 3


def test_rank_and_rationalize_bad_number_exit1(tmp_path, capsys):
    pat = tmp_path / "p.json"
    main(["pattern", "2", "2", "--out", str(pat)])
    capsys.readouterr()
    doc = json.loads(pat.read_text())
    flat, *rest = doc["flats"]
    bad_tau = dict(flat, tau=[["x", "0"], ["0", "1"]])
    bad = _write(tmp_path / "bad.json", dict(doc, flats=[bad_tau, *rest]))
    assert main(["rank", bad]) == 1
    assert main(["rationalize", bad]) == 1
    bad_m = dict(flat, arrangement=dict(flat["arrangement"], m=5))
    bad = _write(tmp_path / "bad.json", dict(doc, flats=[bad_m, *rest]))
    assert main(["rank", bad]) == 1
    # a well-formed but degenerate tau (a scalar matrix) is still exit 2
    scalar = dict(flat, tau=[["1", "0"], ["0", "1"]])
    degenerate = _write(tmp_path / "degenerate.json", dict(doc, flats=[scalar, *rest]))
    assert main(["rank", degenerate]) == 2
    assert main(["rationalize", degenerate]) == 2


def test_rationalize_cmd(tmp_path, capsys):
    pat = tmp_path / "p.json"
    main(["pattern", "2", "2", "--out", str(pat)])
    capsys.readouterr()
    out = tmp_path / "snapped.json"
    assert main(["rationalize", str(pat), "--out", str(out)]) == 0
    envelope = _last_json(capsys)
    assert envelope["verdicts"]["stable"] is True
    assert envelope["verdicts"]["denom_bound"] >= 64
    snapped = json.loads(out.read_text())
    original = json.loads(pat.read_text())
    assert snapped["matrix"] == original["matrix"]
    assert all("rationalized" in f for f in snapped["flats"])


@pytest.mark.parametrize("shape", [("2", "3"), ("4", "4")])
@pytest.mark.parametrize("denoms", ["1", "2"])
def test_rationalize_small_denoms(shape, denoms, tmp_path, capsys):
    # at these bounds the snapped frame of some flat is singular: that round
    # fails and the bound grows (it used to exit 3 at once)
    pat = tmp_path / "p.json"
    assert main(["pattern", *shape, "--out", str(pat)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "snapped.json")
    assert main(["rationalize", str(pat), "--denoms", denoms, "--out", out]) == 0
    verdicts = _last_json(capsys)["verdicts"]
    assert verdicts["stable"] is True
    assert verdicts["denom_bound"] > int(denoms)
    assert verdicts["matrix"] == json.loads(pat.read_text())["matrix"]


def test_rationalize_exit3_when_every_round_fails(tmp_path, capsys, monkeypatch):
    from flatlink import construct

    pat = tmp_path / "p.json"
    assert main(["pattern", "2", "2", "--out", str(pat)]) == 0
    capsys.readouterr()
    bounds = []

    def singular(target, denom_bound):
        bounds.append(denom_bound)
        raise ValueError("no invertible snapped conjugator")

    monkeypatch.setattr(construct, "rationalize_tau", singular)
    assert main(["rationalize", str(pat), "--denoms", "1"]) == 3
    assert "did not restabilize" in capsys.readouterr().err
    assert bounds == [4**k for k in range(construct._MAX_ROUNDS)]


def test_rationalize_m7_m8_exit0_in_seconds(tmp_path):
    """`pattern 2 7` and `pattern 2 8` rationalize (exit 0), every flat with
    an Irreducible certificate and m Sturm roots. A base-matrix scan used to
    find nothing at m >= 7, so this runs in a subprocess with a gate."""
    outs = {m: tmp_path / f"r{m}.json" for m in (7, 8)}
    script = "import sys\nfrom flatlink.cli import main\ncodes = []\n"
    for m, out in outs.items():
        pattern = str(tmp_path / f"p{m}.json")
        script += (
            f"codes.append(main(['pattern', '2', '{m}', '--out', {pattern!r}]))\n"
            f"codes.append(main(['rationalize', {pattern!r}, '--out', {str(out)!r}]))\n"
        )
    script += "sys.exit(max(codes))\n"
    src = str(Path(flatlink.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert time.perf_counter() - t0 < 30
    assert done.returncode == 0, done.stderr
    for m, out in outs.items():
        doc = json.loads(out.read_text())
        assert doc["m"] == m and len(doc["flats"]) == 2
        for flat in doc["flats"]:
            assert flat["rationalized"]["irreducible"]["verdict"] == "Irreducible"
            assert flat["rationalized"]["sturm_count"] == m


def test_descend_cmd(tmp_path):
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]},
    )
    rep = tmp_path / "report.jsonl"
    assert main(["descend", path, "--level", "5", "--bound", "6",
                 "--out", str(rep)]) == 0
    lines = [json.loads(l) for l in rep.read_text().splitlines()]
    summary = lines[-1]
    assert summary["kind"] == "Descent"
    assert summary["verdicts"]["level"] == [5, 1]  # n from the level finder
    assert summary["verdicts"]["all_same_sign"] is True
    assert summary["verdicts"]["hits"] == len(lines) - 1 >= 1
    for hit in lines[:-1]:
        assert hit["sign"] in (1, -1)

    before = rep.read_bytes()
    assert main(["descend", path, "--level", "5", "--bound", "6",
                 "--out", str(rep)]) == 0
    assert rep.read_bytes() == before

    # a bare p = 2 takes n = 2: 2v is 0 mod 2 for every v
    assert main(["descend", path, "--level", "2", "--bound", "6",
                 "--out", str(rep)]) == 0
    summary = json.loads(rep.read_text().splitlines()[-1])
    assert summary["verdicts"]["level"] == [2, 2]


def test_descend_explicit_level_exponent(tmp_path):
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]},
    )
    rep = tmp_path / "report.jsonl"
    assert main(["descend", path, "--level", "5:2", "--bound", "6",
                 "--out", str(rep)]) == 0
    lines = [json.loads(l) for l in rep.read_text().splitlines()]
    assert lines[-1]["verdicts"]["level"] == [5, 2]
    assert lines[-1]["verdicts"]["hits"] == 1  # only the identity fits


@pytest.mark.parametrize("bound", [0, 1, 10, 30])
def test_descend_huge_level_exponent(tmp_path, capsys, bound):
    # every modulus past bound + 1 walks the same ball, so p^n is never built
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]},
    )
    args = ["descend", path, "--bound", str(bound), "--level"]
    assert main(args + ["5:2"]) == 0
    small = capsys.readouterr().out.splitlines()[:-1]
    t0 = time.perf_counter()
    assert main(args + ["5:100000000"]) == 0
    assert time.perf_counter() - t0 < 5
    assert capsys.readouterr().out.splitlines()[:-1] == small


C7_INPUT = {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]}


def test_descend_walk_over_budget_exit1(tmp_path, capsys, monkeypatch):
    # bound 100000 walks 1.6e9 row choices: refused before any is walked
    path = _write(tmp_path / "in.json", C7_INPUT)
    t0 = time.perf_counter()
    assert main(["descend", path, "--level", "5:1", "--bound", "100000"]) == 1
    assert time.perf_counter() - t0 < 5
    assert "1,600,040,000" in capsys.readouterr().err
    assert main(["descend", path, "--level", "5:1", "--bound", "400"]) == 0
    assert _last_json(capsys)["verdicts"]["hits"] == 3
    # the budget is inclusive: bound 30 at q = 5 walks 12 x 13 = 156 rows
    monkeypatch.setattr(cli, "_DESCENT_WALK_BUDGET", 156)
    assert main(["descend", path, "--level", "5:1", "--bound", "30"]) == 0
    monkeypatch.setattr(cli, "_DESCENT_WALK_BUDGET", 155)
    assert main(["descend", path, "--level", "5:1", "--bound", "30"]) == 1
    assert "156" in capsys.readouterr().err
    # the walk uses the capped modulus: 5:100000 at bound 30 walks q = 5^6
    monkeypatch.setattr(cli, "_DESCENT_WALK_BUDGET", 1)
    assert main(["descend", path, "--level", "5:100000", "--bound", "30"]) == 0


def test_descend_commutant_exit4(tmp_path):
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["1", "0"], ["0", "1"]]},
    )
    assert main(["descend", path, "--level", "5", "--bound", "3"]) == 4


@pytest.mark.parametrize(
    "tau, rho, code",
    [
        ([["1", "1"], ["0", "1"]], [["1", "0"], ["0", "1"]], 4),
        ([["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "1"]], 4),
        ([["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]], 4),
        ([["1", "1"], ["0", "1"]], [["0", "1"], ["1", "0"]], 2),
        ([["0", "-1"], ["1", "0"]], [["0", "1"], ["1", "0"]], 2),
    ],
)
def test_descend_commutant_exit4_before_degenerate_exit2(tmp_path, tau, rho, code):
    # a repeated or complex eigenvalue alone is degenerate (exit 2), but a
    # non-scalar joint commutant is found first (exit 4)
    path = _write(tmp_path / "in.json", {"tau": tau, "rho": rho})
    assert main(["descend", path, "--level", "5", "--bound", "3"]) == code


def test_descend_bad_level_before_commutant_exit1(tmp_path):
    # the commutant is not scalar (exit 4 with a good level), but the level is
    # read first: 4 is not prime
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["1", "0"], ["0", "1"]]},
    )
    assert main(["descend", path, "--level", "4", "--bound", "3"]) == 1
    assert main(["descend", path, "--level", "5:x", "--bound", "3"]) == 1
    assert main(["descend", path, "--level", "5:1:9", "--bound", "3"]) == 1


def test_descend_large_prime_level(tmp_path, capsys):
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]},
    )
    t0 = time.perf_counter()
    assert main(["descend", path, "--level", str(2**61 - 1), "--bound", "5"]) == 0
    assert time.perf_counter() - t0 < 5
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[0])["gamma"] == [[1, 0], [0, 1]]
    assert json.loads(out[-1])["verdicts"]["hits"] == 1  # only the identity
    # 2^89 - 1 is prime, but past the range where primality is decided
    assert main(["descend", path, "--level", str(2**89 - 1), "--bound", "5"]) == 1
    assert "not decided" in capsys.readouterr().err


def test_descend_missing_level_exit1(tmp_path):
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]},
    )
    assert main(["descend", path]) == 1
    assert main(["descend", path, "--level", "5:0"]) == 1


# sha256 of the exact stdout bytes of each command on README-style inputs;
# a refactor of parsing or serialization must leave every one unchanged
GOLDEN_INPUTS = {
    "link2": LINKED_INPUT,
    "link3": {
        "arrangement": {
            "m": 3,
            "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        },
        "line": ["1", "2", "3"],
        "plane": ["1", "-1", "1"],
    },
    "intersect_rho": {
        "tau": [["2", "1"], ["1", "1"]],
        "rho": [["0", "1"], ["1", "0"]],
    },
    "intersect_pair": {
        "tau": [["3", "1", "0"], ["1", "2", "1"], ["0", "1", "1"]],
        "line": ["1", "1", "1"],
        "plane": ["1", "1", "1"],
    },
    "intersect_degenerate": {
        "tau": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1/2"]],
        "rho": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
    },
    "descend": {
        "tau": [["2", "1"], ["1", "1"]],
        "rho": [["0", "1"], ["1", "0"]],
    },
}

GOLDEN = [
    ("link2", ["link", "{link2}"], 0,
     "e2f56b1a939e8a4ee87655ef9977b076d4d74ed52b9f4992d2ab765b1ee6f96c"),
    ("link3", ["link", "{link3}"], 0,
     "cf4dd8ce054370572242582b24d0319bfbdf7ec0d38165f890bff05b20b84b7d"),
    ("intersect_rho", ["intersect", "{intersect_rho}"], 0,
     "d98d966e571cd549e9a15c6d6323b1cd9aa20e34b86b726adc9ffa2bdef33b00"),
    ("intersect_pair", ["intersect", "{intersect_pair}"], 0,
     "30182ab8ed0d3dc46b306cb4d8c0579b9ec55fcab41481e6ca680f0ffeac6a1e"),
    ("intersect_degenerate", ["intersect", "{intersect_degenerate}"], 2,
     "d1ceb2e75ed2ad55b405a55be1861b8cd91a5b4547f9adb59ffed36a71475746"),
    ("pattern43", ["pattern", "4", "3"], 0,
     "994323c0e90c351f5a2e2b1b07dcd7ca66fa5b6f625141a821da22e50df88c56"),
    ("pattern22", ["pattern", "2", "2"], 0,
     "e9f1f84c371d12fcf997e938f153bea968391f130a2dd50c87e90a81413894fe"),
    ("rank", ["rank", "{pattern22}"], 0,
     "92b9039efc630e995f6a96579d040cf54913dca1f8fc41eb08d30bebb25609db"),
    ("rationalize", ["rationalize", "{pattern22}"], 0,
     "58f79990b6c08ce026f2ddbbbefb17fcb50df5f56d53f5908860829988db7a59"),
    ("rationalize43", ["rationalize", "{pattern43}"], 0,
     "9996953dc2659090ae072be9f5cf0da518cbb12ac9ee47894eb9d7d045e65600"),
    ("descend", ["descend", "{descend}", "--level", "5", "--bound", "6"], 0,
     "11fab1e9bb9605607b02e97f1dcb71e02331d1fd69f15619f26ae4282b4f6429"),
]


def test_golden_stdout(tmp_path, capsys):
    paths = {k: _write(tmp_path / f"{k}.json", v) for k, v in GOLDEN_INPUTS.items()}
    got = {}
    for name, argv, code, _ in GOLDEN:
        assert main([a.format(**paths) for a in argv]) == code, name
        out = capsys.readouterr().out
        got[name] = hashlib.sha256(out.encode()).hexdigest()
        if name in ("pattern22", "pattern43"):  # documents later rows read
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(out)
    assert got == {name: digest for name, _, _, digest in GOLDEN}


def test_commands_run_without_numpy(tmp_path):
    """numpy is a test-only oracle: the commands that snap and descend run
    with its import blocked."""
    pattern = tmp_path / "pattern.json"
    flat_and_rho = {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]}
    pair = _write(tmp_path / "in.json", flat_and_rho)
    script = f"""
import sys
sys.modules["numpy"] = None
from flatlink.cli import main
codes = [
    main(["pattern", "2", "3", "--out", {str(pattern)!r}]),
    main(["rationalize", {str(pattern)!r}]),
    main(["descend", {pair!r}, "--level", "5", "--bound", "10"]),
]
sys.exit(max(codes))
"""
    src = str(Path(flatlink.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
