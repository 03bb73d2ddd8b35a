import json

import pytest

from flatlink.cli import main


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


LINKED_INPUT = {
    "arrangement": {"m": 2, "points": [["1", "0"], ["0", "1"]]},
    "line": ["1", "1"],
    "plane": ["1", "1"],
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


def test_pattern_svg_skipped_above_m3(tmp_path, capsys):
    svg = tmp_path / "fig.svg"
    out = tmp_path / "p.json"
    assert main(["pattern", "2", "4", "--out", str(out), "--svg", str(svg)]) == 0
    assert not svg.exists()
    assert "m = 3" in capsys.readouterr().err


def test_pattern_budget_exit3():
    assert main(["pattern", "4", "3", "--retries", "0"]) == 3


def test_pattern_bad_args_exit1():
    assert main(["pattern", "2"]) == 1
    assert main(["nonsense"]) == 1


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


def test_descend_commutant_exit4(tmp_path):
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["1", "0"], ["0", "1"]]},
    )
    assert main(["descend", path, "--level", "5", "--bound", "3"]) == 4


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


def test_descend_missing_level_exit1(tmp_path):
    path = _write(
        tmp_path / "in.json",
        {"tau": [["2", "1"], ["1", "1"]], "rho": [["0", "1"], ["1", "0"]]},
    )
    assert main(["descend", path]) == 1
    assert main(["descend", path, "--level", "5:0"]) == 1
