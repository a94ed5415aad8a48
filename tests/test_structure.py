import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from gapsmith import pointset as ps
from gapsmith import structure as st
from conftest import fail_corpus, figure1, figure2, figure3, figure4

DATA = Path(__file__).parent / "data"


def _main_gap(s):
    return ps.bad_gaps_biggest_first(s)[0]


def test_figure1_right_chain_drifting_singletons():
    s = figure1()
    right, left = st.analyze_gap(s, _main_gap(s))
    assert right.terminal == "exit"
    assert [(step.case, step.singleton) for step in right.steps] == [
        (st.CaseTag.A1, F(7, 4)),
        (st.CaseTag.A1, F(27, 10)),
    ]
    assert left.terminal == "exit" and left.steps == ()


def test_figure2_b113_window():
    s = figure2()
    right, left = st.analyze_gap(s, _main_gap(s))
    assert right.terminal == "b" and right.m == 1
    (step,) = right.steps
    assert step.case == st.CaseTag.B113
    assert (step.gamma_l, step.gamma_r) == (F(1, 10), F(1, 10))
    assert step.singleton == F(7, 4)


def test_figure3_left_chain_adjoints():
    s = figure3()
    gap = next(g for g in ps.bad_gaps(s) if g.lo == F(1, 2))
    right, left = st.analyze_gap(s, gap)
    assert right.terminal == "exit" and right.steps == ()
    assert [(step.case, step.singleton) for step in left.steps] == [
        (st.CaseTag.A2, F(0)),
        (st.CaseTag.A2, F(-1)),
    ]


def test_figure4_b22_window():
    s = figure4()
    right, left = st.analyze_gap(s, _main_gap(s))
    assert left.terminal == "b" and left.m == 1
    (step,) = left.steps
    assert step.case == st.CaseTag.B22 and step.singleton is None
    assert (step.gamma_l, step.gamma_r) == (F(1, 10), F(1, 10))


def test_two_points_in_window_fail():
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.point(F(1)),
        ps.point(F(8, 5)),
        ps.point(F(9, 5)),
    )
    report = st.check_all(s)
    assert not report.passed
    assert report.failure.reason == st.FailReason.SINGLETON_VIOLATION
    assert report.failure.n == 1


def test_gap_too_long_condition():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(F(3, 2), 2))
    report = st.check_all(s)
    assert not report.passed
    assert report.failure.reason == st.FailReason.GAP_TOO_LONG
    with pytest.raises(st.GapTooLong):
        st.analyze_gap(s, _main_gap(s))


def test_analyze_rejects_open_gap():
    s = ps.pointset(ps.point(F(0)), ps.interval(F(1, 2), 1))
    with pytest.raises(ps.NotBad):
        st.analyze_gap(s, ps.gaps(s)[0])


def test_report_determinism():
    s = figure1()
    a = st.check_all(s).to_json_dict()
    b = st.check_all(s).to_json_dict()
    assert json.dumps(a) == json.dumps(b)


def test_report_exact_rationals():
    report = st.check_all(figure2())
    blob = report.dumps()
    assert "0.1" not in blob  # no floats anywhere, margins stay exact
    assert '"1/10"' in blob


def test_golden_structure_reports(figure_set, request):
    name = request.node.callspec.id
    golden = json.loads((DATA / f"{name}_structure.json").read_text())
    assert st.check_all(figure_set).to_json_dict() == golden


def test_golden_sets_parse(figure_set, request):
    name = request.node.callspec.id
    golden = json.loads((DATA / f"{name}.json").read_text())
    assert ps.from_json_dict(golden) == figure_set


def test_fail_corpus_all_fail():
    for s, gap in fail_corpus():
        report = st.check_all(s)
        assert not report.passed


def test_pass_vacuous_when_no_bad_gaps():
    s = ps.pointset(ps.point(F(0)), ps.interval(F(1, 2), 1))
    assert st.check_all(s).passed


def test_occupied_translate_chain_allows_slow_drift():
    # The figure-1 secondary gap [3/2, 7/4) pins its squeeze at the left edge;
    # its flat translates carry one slowly drifting occupant each and pass.
    s = figure1()
    gap = next(g for g in ps.bad_gaps(s) if g.lo == F(3, 2))
    right, left = st.analyze_gap(s, gap)
    assert right.terminal == "b"
    assert right.steps[-1].case == st.CaseTag.B112
    assert right.notes


def test_openclosed_mirrored_tags():
    s = figure1()
    gap = next(g for g in ps.bad_gaps(s) if g.kind == ps.GapKind.OPEN_CLOSED)
    right, left = st.analyze_gap(s, gap)
    # For an open-closed gap the singleton-chain taxonomy runs on the left.
    assert left.terminal == "b"
    assert left.steps[-1].case in (st.CaseTag.B111, st.CaseTag.B112, st.CaseTag.B113, st.CaseTag.B12)


def test_b211_shape_continues_chain():
    # An isolated adjoint with a clear margin above it reports the b211 shape
    # but keeps the chain going, as the corollary folds that case into A2.
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.point(F(1)),
        ps.interval(F(9, 8), F(3, 2), True, False),
        ps.interval(2, F(9, 4)),
    )
    gap = next(g for g in ps.bad_gaps(s) if g.lo == F(3, 2))
    right, left = st.analyze_gap(s, gap)
    assert left.terminal == "exit"
    assert [step.case for step in left.steps] == [st.CaseTag.B211]
    assert left.steps[0].singleton == F(1)


def _recorded_report(name):
    return json.loads((DATA / f"{name}_structure.json").read_text())


def test_a1_chain_order_break():
    # The right chain of [0, 1/2) holds 9/8 at depth 1; the depth-2 window
    # [2, 5/2] has the A1 shape, but its member 19/8 drifts past 9/8 + 1.
    s = ps.pointset(
        ps.interval(F(-1, 2), 0, True, False),
        ps.interval(F(1, 2), 1, True, False),
        ps.point(F(9, 8)),
        ps.interval(F(3, 2), 2, False, False),
        ps.point(F(19, 8)),
        ps.interval(F(5, 2), 3, False, True),
    )
    assert st.check_all(s).to_json_dict() == _recorded_report("chain_order_a1")


def test_b211_window_is_no_terminal():
    # Right of (-7/4, -3/2] the depth-1 window [-3/4, -1/2] holds only the
    # adjoint -3/4, flush against (-1/2, 5/4): the b211 shape, which does not
    # end the chain, so it fails at depth 2, on [1/4, 1/2] inside (-1/2, 5/4).
    s = ps.pointset(
        ps.interval(F(-11, 4), F(-7, 4)),
        ps.interval(F(-3, 2), -1, False, True),
        ps.point(F(-3, 4)),
        ps.interval(F(-1, 2), F(5, 4), False, False),
    )
    assert st.check_all(s).to_json_dict() == _recorded_report("b211_terminal")
