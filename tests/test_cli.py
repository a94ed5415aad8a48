import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from gapsmith import cli
from gapsmith import pointset as ps
from gapsmith import plmap, threshold
from gapsmith import structure as st
from bruteforce import stepwise_removal
from conftest import figure1

DATA = Path(__file__).parent / "data"


def _write_set(tmp_path, s, name="s.json"):
    path = tmp_path / name
    path.write_text(s.dumps())
    return str(path)


def test_parse_args_gaps():
    cmd = cli.parse_args(["gaps", "--input", "s.json"])
    assert cmd.verb == "gaps" and cmd.input_path == "s.json"


def test_parse_args_missing_epsilon():
    with pytest.raises(cli.UsageError):
        cli.parse_args(["remove", "--mode", "epsilon", "--input", "s.json"])


def test_parse_args_zero_denominator():
    with pytest.raises(cli.UsageError):
        cli.parse_args(
            ["remove", "--mode", "epsilon", "--epsilon", "1/0", "--input", "s.json"]
        )


def test_parse_args_keeps_no_state_between_calls():
    # One parser serves every call in the process.
    assert cli._build_parser() is cli._build_parser()
    eps = cli.parse_args(["remove", "--mode", "epsilon", "--epsilon", "1/8", "--input", "x"])
    assert eps.options["epsilon"] == F(1, 8)
    with pytest.raises(cli.UsageError):
        cli.parse_args(["remove", "--mode", "bogus", "--input", "x"])
    assert cli.parse_args(["remove", "--mode", "strong", "--input", "x"]).options["epsilon"] is None
    assert cli.parse_args(["enumerate", "--n", "3", "--iso"]).options["iso"] is True
    assert cli.parse_args(["enumerate", "--n", "3"]).options["iso"] is False


def test_main_usage_exit_code():
    assert cli.main(["remove", "--mode", "epsilon", "--input", "s.json"]) == 64
    assert cli.main(["frobnicate"]) == 64
    assert cli.main([]) == 64
    for eps in ["0", "-1/8", "9" * 5000, "\u0663", "007", "-0", "2/1"]:
        argv = ["remove", "--mode", "epsilon", "--epsilon", eps, "--input", "s.json"]
        assert cli.main(argv) == 64


def test_gaps_report(tmp_path):
    inp = _write_set(tmp_path, figure1())
    out = tmp_path / "report.json"
    assert cli.main(["gaps", "--input", inp, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["bad_lengths"][0] == "1/2"
    assert {"lo": "1/2", "hi": "1", "kind": "ClosedOpen", "length": "1/2"} in payload["gaps"]


def test_remove_strong_artifacts_roundtrip(tmp_path):
    inp = _write_set(tmp_path, figure1())
    out = tmp_path / "out.json"
    trace_path = tmp_path / "trace.jsonl"
    svg = tmp_path / "diagram.svg"
    code = cli.main(
        [
            "remove", "--mode", "strong", "--input", inp,
            "--output", str(out), "--trace", str(trace_path), "--emit-diagram", str(svg),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert ps.from_json_dict(payload["final"]) == ps.pointset(ps.interval(0, 4))
    total = plmap.from_json_dict(payload["map"])
    assert total.apply(F(7, 4)) == 2
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert len(lines) == payload["steps"] == 1
    assert svg.read_text().startswith("<svg")


def test_remove_weak_trace(tmp_path):
    s = ps.pointset(
        ps.interval(0, F(1, 5), True, False),
        ps.interval(F(2, 5), F(3, 5), True, False),
        ps.interval(1, 2),
    )
    inp = _write_set(tmp_path, s)
    trace_path = tmp_path / "t.jsonl"
    out = tmp_path / "o.json"
    assert cli.main(["remove", "--mode", "weak", "--input", inp,
                     "--output", str(out), "--trace", str(trace_path)]) == 0
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert [ln["delta"] for ln in lines] == ["1/5", "1/10"]


def test_remove_weak_trace_lines_match_the_stepwise_removal(tmp_path):
    inp = _write_set(tmp_path, figure1())
    trace_path = tmp_path / "t.jsonl"
    out = tmp_path / "o.json"
    assert cli.main(["remove", "--mode", "weak", "--input", inp,
                     "--output", str(out), "--trace", str(trace_path)]) == 0
    want = [json.dumps(step.to_json_dict()) for step in stepwise_removal(figure1()).steps]
    assert len(want) == 5
    assert trace_path.read_text().splitlines() == want


def test_remove_structure_violated_exit_2(tmp_path):
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(F(3, 2), 2))
    inp = _write_set(tmp_path, s)
    assert cli.main(["remove", "--mode", "strong", "--input", inp]) == 2


def _two_bad_gaps() -> ps.PointSet:
    return ps.pointset(
        ps.interval(0, F(1, 4), True, False),
        ps.interval(F(1, 2), F(3, 4)),
        ps.interval(F(7, 4), F(15, 8), True, False),
        ps.interval(F(19, 10), 2),
    )


def test_remove_epsilon_end_to_end(tmp_path):
    inp = _write_set(tmp_path, _two_bad_gaps())
    out = tmp_path / "o.json"
    trace_path = tmp_path / "t.jsonl"
    code = cli.main(
        [
            "remove", "--mode", "epsilon", "--epsilon", "1/8", "--input", inp,
            "--output", str(out), "--trace", str(trace_path),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["eps0"] == "1/8" and payload["eps1"] == "117/2560"
    assert len(trace_path.read_text().splitlines()) == payload["steps"] == 1
    left = ps.bad_gaps(ps.from_json_dict(payload["final"]))
    assert left and all(g.length < F(1, 8) for g in left)


THRESHOLD_PAYLOAD = {
    "steps", "interval_order", "eps0", "eps1", "sup_norm_ledger", "notes",
}
PAYLOAD_KEYS = {
    "weak": {"mode", "input", "final", "map", "steps"},
    "strong": {"mode", "input", "final", "map"} | THRESHOLD_PAYLOAD,
    "epsilon": {"mode", "input", "final", "map"} | THRESHOLD_PAYLOAD,
}
THRESHOLD_LINE = {"index", "cell", "gap_original", "gap_current", "sup_norm", "plan"}
LINE_KEYS = {
    "weak": {"index", "gap_before", "current_gap", "delta", "l", "map"},
    "strong": THRESHOLD_LINE,
    "epsilon": THRESHOLD_LINE,
}
PIECE_KEYS = {"lo", "hi", "slope", "intercept", "tag"}


@pytest.mark.parametrize("mode", sorted(PAYLOAD_KEYS))
def test_remove_payload_and_trace_keys(tmp_path, mode):
    inp = _write_set(tmp_path, figure1())
    out = tmp_path / "o.json"
    trace_path = tmp_path / "t.jsonl"
    assert cli.main(["remove", "--mode", mode, "--epsilon", "1/8", "--input", inp,
                     "--output", str(out), "--trace", str(trace_path)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == PAYLOAD_KEYS[mode]
    assert set(payload["map"]) == {"pieces", "domain"}
    for piece in payload["map"]["pieces"]:
        assert set(piece) - {"tag"} == PIECE_KEYS - {"tag"}
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert lines and len(lines) == payload["steps"]
    for line in lines:
        assert set(line) == LINE_KEYS[mode]
        if mode != "weak":
            plan = line["plan"]
            assert set(plan) == {"orientation", "m", "m_prime", "notes", "pieces"}
            assert all(set(p) == PIECE_KEYS for p in plan["pieces"])


def test_internal_error_exit_70(tmp_path, monkeypatch):
    def broken(s):
        raise ps.InvariantBroken("tracked gap drifted from the image set")

    monkeypatch.setattr(threshold, "remove_strong", broken)
    inp = _write_set(tmp_path, figure1())
    assert cli.main(["remove", "--mode", "strong", "--input", inp]) == 70


def test_internal_value_error_exit_70(tmp_path, monkeypatch):
    # A ValueError raised inside a removal is a bug, not invalid input.
    def broken(outer, inner):
        raise ValueError("overlapping pieces")

    monkeypatch.setattr(plmap, "compose", broken)
    inp = _write_set(tmp_path, figure1())
    assert cli.main(["remove", "--mode", "weak", "--input", inp]) == 70


@pytest.mark.parametrize(
    "verb, body",
    [
        ("gaps", []),
        ("gaps", {"components": [{"kind": "interval", "lo": "0"}]}),
        ("gaps", {"components": [{"kind": "point", "at": 1}]}),
        ("gaps", {"components": ["point"]}),
        ("synth", {"n": 2, "strict": [[False, True]]}),
        ("synth", {"n": "two", "strict": []}),
        ("semiorder-check", {"strict": []}),
        ("synth", {"n": 2, "strict": [[False, "no"], [False, False]]}),
        ("synth", {"n": 2.9, "strict": [[False, True], [False, False]]}),
        (
            "gaps",
            {"components": [{"kind": "interval", "lo": "0", "hi": "1",
                             "lo_closed": "false", "hi_closed": True}]},
        ),
        ("gaps", {"components": [{"kind": "point", "at": "9" * 5000}]}),
    ],
)
def test_malformed_json_exit_4(tmp_path, verb, body):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert cli.main([verb, "--input", str(path)]) == 4


def test_undecodable_input_exit_4(tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"components": ["\xff"]}')
    assert cli.main(["gaps", "--input", str(latin1)]) == 4
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["gaps", "--input", str(deep)]) == 4


def test_enumerate_nonpositive_n_usage():
    assert cli.main(["enumerate", "--n", "0"]) == 64


def test_semiorder_check_verdict_is_data(tmp_path):
    rel = {
        "n": 4,
        "strict": [
            [False, True, True, False],
            [False, False, True, False],
            [False, False, False, False],
            [False, False, False, False],
        ],
    }
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(rel))
    out = tmp_path / "verdict.json"
    assert cli.main(["semiorder-check", "--input", str(path), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "violates2"


@pytest.mark.parametrize(
    "pairs, payload",
    [
        ([(0, 1), (2, 3)], {"verdict": "violates1", "witness": [0, 1, 2, 3]}),
        ([(0, 1), (1, 2), (0, 2)], {"verdict": "violates2", "witness": [0, 1, 2, 3]}),
        ([(0, 1), (1, 0)], {"verdict": "not_asymmetric", "witness": [0, 1]}),
    ],
)
def test_semiorder_check_payload(tmp_path, pairs, payload):
    strict = [[(i, j) in pairs for j in range(4)] for i in range(4)]
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"n": 4, "strict": strict}))
    out = tmp_path / "verdict.json"
    assert cli.main(["semiorder-check", "--input", str(path), "--output", str(out)]) == 0
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"


def test_synth_empty_relation(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"n": 0, "strict": []}))
    out = tmp_path / "u.json"
    assert cli.main(["synth", "--input", str(path), "--output", str(out)]) == 0
    assert json.loads(out.read_text()) == {"values": [], "certified": True}


def test_synth_certified(tmp_path):
    rel = {"n": 2, "strict": [[False, True], [False, False]]}
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(rel))
    out = tmp_path / "u.json"
    assert cli.main(["synth", "--input", str(path), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["certified"] and len(payload["values"]) == 2


def _chain(n: int, size: int) -> dict:
    """The first ``size`` of n points form a chain; the rest are isolated."""
    return {"n": n, "strict": [[i < j < size for j in range(n)] for i in range(n)]}


@pytest.mark.parametrize(
    "verb, rel, expected",
    [
        ("synth", _chain(160, 160), {"certified": True}),
        ("semiorder-check", _chain(160, 159),
         {"verdict": "violates2", "witness": [0, 1, 2, 159]}),
    ],
)
def test_large_relations_within_budget(tmp_path, verb, rel, expected):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(rel))
    out = tmp_path / "out.json"
    start = time.perf_counter()
    assert cli.main([verb, "--input", str(path), "--output", str(out)]) == 0
    assert time.perf_counter() - start < 5.0
    payload = json.loads(out.read_text())
    assert {key: payload[key] for key in expected} == expected


def test_enumerate_cap_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GAPSMITH_MAX_N", "3")
    assert cli.main(["enumerate", "--n", "4"]) == 64
    out = tmp_path / "e.json"
    assert cli.main(["enumerate", "--n", "3", "--iso", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == 5
    monkeypatch.setenv("GAPSMITH_MAX_N", "abc")
    assert cli.main(["enumerate", "--n", "3"]) == 64
    assert "GAPSMITH_MAX_N" in capsys.readouterr().err


def test_enumerate_omits_instances_past_1000(tmp_path):
    out = tmp_path / "e.json"
    assert cli.main(["enumerate", "--n", "6", "--output", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "n": 6, "up_to_iso": False, "count": 38703, "instances_omitted": True,
    }


def test_check_structure_payload(tmp_path):
    inp = _write_set(tmp_path, figure1())
    out = tmp_path / "c.json"
    assert cli.main(["check-structure", "--input", inp, "--output", str(out)]) == 0
    assert json.loads(out.read_text()) == st.check_all(figure1()).to_json_dict()


def test_certificate_failed_exit_3(tmp_path, monkeypatch):
    def failing(fmap):
        raise threshold.CertificateFailed("strict_increase", (F(0), F(1)))

    monkeypatch.setattr(threshold, "_certify", failing)
    inp = _write_set(tmp_path, figure1())
    assert cli.main(["remove", "--mode", "strong", "--input", inp]) == 3


def test_invalid_input_exit_4(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert cli.main(["gaps", "--input", str(path)]) == 4
    path2 = tmp_path / "unreduced.json"
    path2.write_text(json.dumps({"components": [{"kind": "point", "at": "2/4"}]}))
    assert cli.main(["gaps", "--input", str(path2)]) == 4


def test_missing_file_exit_74(tmp_path):
    assert cli.main(["gaps", "--input", str(tmp_path / "nope.json")]) == 74


def test_report_deterministic(tmp_path):
    inp = _write_set(tmp_path, figure1())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["report", "--input", inp, "--output", str(out1)]) == 0
    assert cli.main(["report", "--input", inp, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_text_diagram(tmp_path):
    inp = _write_set(tmp_path, figure1())
    txt = tmp_path / "d.txt"
    assert cli.main(
        ["remove", "--mode", "strong", "--input", inp, "--emit-diagram", str(txt),
         "--output", str(tmp_path / "o.json")]
    ) == 0
    body = txt.read_text()
    assert "input:" in body and "ClosedOpen" in body
