import dataclasses
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from gapsmith import cli, plmap, threshold as th
from gapsmith import pointset as ps
from gapsmith import structure as st
from conftest import FIGURES, _cluster, figure1, figure2, random_pass_instance
from bruteforce import breaks_threshold, exists_threshold_closing_map

DATA = Path(__file__).parent / "data"


def _plan_for(s):
    gap = ps.bad_gaps_biggest_first(s)[0]
    return th.plan_gap(s, gap)


def test_plan_figure1_lambda_only():
    plan = _plan_for(figure1())
    tags = {p.tag for p in plan.pieces}
    assert not any(t.startswith("Contraction") for t in tags)
    assert {"Lambda1", "Lambda3"} <= tags
    # Expansion level 1 on the right: slope 1/(1-delta) = 2 anchored at the cell wall.
    piece = next(p for p in plan.pieces if p.lo == F(1) and p.tag == "Lambda1")
    assert piece.slope == 2 and piece.value(F(1)) == 1
    # Flats sit over the verified-empty gap translates.
    flat = next(p for p in plan.pieces if p.lo == F(3, 2))
    assert flat.slope == 0 and flat.value(F(3, 2)) == 2


def test_plan_figure2_contraction_window():
    plan = _plan_for(figure2())
    window = [p for p in plan.pieces if p.tag.startswith("Contraction") and p.lo >= F(7, 5) and p.hi <= F(21, 10)]
    assert [p.tag for p in window] == ["ContractionC1", "ContractionC2"]
    dom = window[-1].hi - window[0].lo
    img = window[-1].value(window[-1].hi) - window[0].value(window[0].lo)
    # delta + gamma_l + gamma_r of room squeezed into (gamma_l+gamma_r)/(1-delta).
    assert dom == F(1, 2) + F(1, 10) + F(1, 10)
    assert img == (F(1, 10) + F(1, 10)) * 2
    # The split point carries the dictated singleton image.
    m = plmap.PLMap(plan.pieces, figure2())
    assert m.apply(F(7, 4)) == 2


def test_plan_rejects_failed_structure():
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.point(F(1)),
        ps.point(F(8, 5)),
        ps.point(F(9, 5)),
    )
    gap = ps.bad_gaps_biggest_first(s)[0]
    right, left = st.analyze_gap(s, gap)
    failure = right.failure or left.failure
    with pytest.raises(th.StructureViolated) as err:
        th.plan_gap(s, gap)
    assert failure is not None and err.value.failure == failure


def test_apply_plan_figure1_golden():
    s = figure1()
    plan = _plan_for(s)
    fmap, img = th.apply_plan(s, plan)
    assert img == ps.pointset(ps.interval(0, 4))
    assert fmap.apply(plan.gap.lo) == fmap.apply(plan.gap.hi)


def test_apply_plan_corruption_caught():
    s = figure1()
    plan = _plan_for(s)
    pieces = list(plan.pieces)
    last = pieces[-1]
    pieces[-1] = dataclasses.replace(last, slope=last.slope * F(3, 2))
    broken = dataclasses.replace(plan, pieces=tuple(pieces))
    with pytest.raises(th.CertificateFailed) as err:
        th.apply_plan(s, broken)
    assert err.value.kind == "threshold_equivalence"
    assert breaks_threshold(plmap.PLMap(broken.pieces, s), s, err.value.witness)


def test_shift_identity_on_lambda_and_contraction_families():
    for name, builder in sorted(FIGURES.items()):
        s = builder()
        plan = _plan_for(s)
        m = plmap.PLMap(plan.pieces, s)

        def tag_at(t):
            for p in plan.pieces:
                if p.contains(t):
                    return p.tag
            return None

        for p in plan.pieces:
            family = "Lambda" if p.tag.startswith("Lambda") else "Contraction"
            for t in (p.lo, (p.lo + p.hi) / 2, p.hi):
                up = tag_at(t + 1)
                if up is not None and up.startswith(family):
                    assert m.apply(t) + 1 == m.apply(t + 1), (name, p.tag, t)


def test_remove_strong_figures_golden(figure_set, request):
    name = request.node.callspec.id
    golden = json.loads((DATA / f"{name}_final.json").read_text())
    gmap, final, trace = th.remove_strong(figure_set)
    assert final.to_json_dict() == golden
    assert not ps.bad_gaps(final)
    assert plmap.threshold_witness(plmap.atoms(gmap, figure_set)) is None
    assert plmap.increase_witness(plmap.atoms(gmap, figure_set)) is None


def _counted_chains(monkeypatch) -> list:
    calls = []
    chains = st.co_frame_chains

    def counted(*args):
        calls.append(args)
        return chains(*args)

    monkeypatch.setattr(st, "co_frame_chains", counted)
    return calls


def _cluster_pair() -> ps.PointSet:
    rng = random.Random(1)
    return ps.normalize(_cluster(rng, F(0)) + _cluster(rng, F(5, 2)))


def test_each_removal_step_analyzes_its_gap_once(monkeypatch):
    # The prologue's check_all analyzes every bad gap once; after that each
    # step runs the chains once, inside plan_gap.
    sets = [build() for _, build in sorted(FIGURES.items())] + [_cluster_pair()]
    calls = _counted_chains(monkeypatch)
    for s in sets:
        calls.clear()
        trace = th.remove_strong(s)[2]
        assert trace.steps
        assert len(calls) == len(ps.bad_gaps(s)) + len(trace.steps)


def test_structure_broken_mid_pipeline(monkeypatch, tmp_path):
    # The chains pass on the input set and fail on every image after it, so
    # the prologue passes and the second step surfaces the failure.
    s = _cluster_pair()
    chains = st.co_frame_chains

    def failing_after_first_step(t, g):
        frame, r, w, right, left = chains(t, g)
        if t != s:
            right = dataclasses.replace(
                right, terminal="fail", failure=(1, st.FailReason.SINGLETON_VIOLATION)
            )
        return frame, r, w, right, left

    monkeypatch.setattr(st, "co_frame_chains", failing_after_first_step)
    with pytest.raises(th.StructureViolated) as err:
        th.remove_strong(s)
    assert "structure broke mid-pipeline" in str(err.value)
    assert err.value.failure is not None
    assert err.value.failure.reason == st.FailReason.SINGLETON_VIOLATION
    inp = tmp_path / "s.json"
    inp.write_text(s.dumps())
    assert cli.main(["remove", "--mode", "strong", "--input", str(inp)]) == 2


def test_remove_strong_skips_a_gap_an_earlier_step_fused():
    s = ps.pointset(
        ps.interval(-1, F(-1, 8), True, False),
        ps.interval(0, F(7, 8), True, False),
        ps.interval(1, F(3, 2)),
    )
    gmap, final, trace = th.remove_strong(s)
    assert "gap at [7/8, 1] already fused; skipped" in trace.notes
    assert len(trace.steps) == len(ps.bad_gaps(s)) - 1
    assert not ps.bad_gaps(final)


def test_remove_strong_gap_free_identity():
    s = ps.pointset(ps.point(F(0)), ps.interval(F(1, 2), 1))
    gmap, final, trace = th.remove_strong(s)
    assert final == s and trace.steps == () and trace.sup_norm_ledger == ()


def test_remove_strong_blocked_unit_context():
    # A full unit of material one step right of the gap pins g(w)+1 between
    # two image values; no map exists, and the verifier says so up front.
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(1, 2))
    with pytest.raises(th.StructureViolated):
        th.remove_strong(s)
    assert not exists_threshold_closing_map(s, ps.bad_gaps(s)[0])


def test_remove_strong_half_unit_context():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(1, F(3, 2)))
    gmap, final, trace = th.remove_strong(s)
    assert final == ps.pointset(ps.interval(0, 2))
    assert exists_threshold_closing_map(s, ps.bad_gaps(s)[0])


def test_remove_epsilon_identity_when_already_fine():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(1, F(3, 2)))
    gmap, final, trace = th.remove_epsilon(s, F(3, 4))
    assert final == s and trace.steps == ()
    assert trace.eps0 == F(3, 4) and trace.eps1 is not None


def test_remove_epsilon_interval_order_by_original_size():
    s = ps.pointset(
        ps.interval(0, F(1, 4), True, False),
        ps.interval(F(1, 2), F(3, 4)),
        ps.interval(F(7, 4), F(15, 8), True, False),
        ps.interval(F(19, 10), 2),
    )
    gmap, final, trace = th.remove_epsilon(s, F(1, 100))
    assert len(trace.interval_order) >= 2
    firsts = [max(d) for d in trace.per_interval_deltas]
    assert firsts == sorted(firsts, reverse=True)
    assert all(g.length < F(1, 100) for g in ps.bad_gaps(final))


def test_remove_epsilon_partial_stop():
    s = ps.pointset(
        ps.interval(0, F(1, 4), True, False),
        ps.interval(F(11, 20), F(3, 5), True, False),
        ps.interval(F(5, 8), 1),
    )
    gmap, final, trace = th.remove_epsilon(s, F(1, 5))
    assert len(trace.steps) == 1
    left = ps.bad_gaps(final)
    assert [g.length for g in left] == [F(1, 28)]
    assert all(g.length < F(1, 5) for g in left)
    assert trace.eps1 < F(1, 5)


def test_remove_epsilon_ledger_decreasing_to_zero():
    s = ps.pointset(
        ps.interval(0, F(1, 4), True, False),
        ps.interval(F(2, 5), F(1, 2), True, False),
        ps.interval(F(3, 5), F(7, 10), True, False),
        ps.interval(F(3, 4), 1),
    )
    gmap, final, trace = th.remove_epsilon(s, F(1, 100))
    ledger = trace.sup_norm_ledger
    assert ledger == (F(3, 20), F(2, 17), F(1, 15), F(0))
    assert all(a > b for a, b in zip(ledger, ledger[1:]))


def test_budget_telescoping_within_visit():
    # Inside one cell visit the expansions telescope exactly:
    # the product of step slopes is 1/(1 - sum of visit-start lengths).
    s = ps.pointset(
        ps.interval(0, F(1, 4), True, False),
        ps.interval(F(2, 5), F(1, 2), True, False),
        ps.interval(F(3, 5), F(7, 10), True, False),
        ps.interval(F(3, 4), 1),
    )
    gmap, final, trace = th.remove_strong(s)
    by_cell: dict[int, list] = {}
    for step in trace.steps:
        by_cell.setdefault(step.cell, []).append(step)
    for cell, steps in by_cell.items():
        product = F(1)
        start_mass = F(0)
        for stp in steps:
            start_mass += stp.gap_current.length / product
            product *= max(p.slope for p in stp.map.pieces)
        assert product == 1 / (1 - start_mass)


def test_strong_weak_agreement_single_cell():
    from gapsmith import debreu

    rng = random.Random(99)
    checked = 0
    while checked < 10:
        s = random_pass_instance(rng)
        if s.span >= 1 or not ps.bad_gaps(s):
            continue
        checked += 1
        strong_final = th.remove_strong(s)[1]
        weak_final = debreu.remove_all(s).final_set
        sc = strong_final.components
        wc = weak_final.components
        assert len(sc) == len(wc)
        # One affine correspondence maps every weak endpoint to the strong one.
        w0, w1 = wc[0].lo, wc[-1].hi
        s0, s1 = sc[0].lo, sc[-1].hi
        slope = (s1 - s0) / (w1 - w0)
        for cw, cs in zip(wc, sc):
            assert s0 + slope * (cw.lo - w0) == cs.lo
            assert s0 + slope * (cw.hi - w0) == cs.hi
            assert (cw.lo_closed, cw.hi_closed) == (cs.lo_closed, cs.hi_closed)


def test_trace_records_straddler_note():
    # A second gap straddling the scheduling grid is ledgered as two parts.
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.point(F(1)),
        ps.point(F(17, 10)),
        ps.interval(F(21, 10), F(23, 10), False, True),
    )
    gmap, final, trace = th.remove_strong(s)
    assert any("straddling" in n for n in trace.notes)
    assert not ps.bad_gaps(final)
    assert plmap.threshold_witness(plmap.atoms(gmap, s)) is None


def test_trace_straddler_notes_in_cell_order():
    # Two straddlers, the larger one in the higher cell: the notes follow the
    # cells, not the biggest-first order of the gaps.
    s = ps.pointset(
        ps.interval(0, F(1, 4), True, False),
        ps.interval(F(1, 2), F(3, 4)),
        ps.interval(F(13, 4), F(69, 20), True, False),
        ps.interval(F(71, 20), F(15, 4)),
        ps.interval(F(25, 4), F(32, 5), True, False),
        ps.interval(F(33, 5), F(27, 4)),
    )
    trace = th.remove_strong(s)[2]
    assert [n.rsplit(" inside ", 1)[1] for n in trace.notes if "straddling" in n] == [
        "[69/20, 71/20]",
        "[32/5, 33/5]",
    ]
    assert trace.interval_order == (1, 8, 5)
    assert trace.per_interval_deltas == ((F(1, 4),), (F(1, 10),), (F(1, 20),))


def test_remove_strong_idempotent_on_output():
    s = figure1()
    gmap, final, trace = th.remove_strong(s)
    gmap2, final2, trace2 = th.remove_strong(final)
    assert final2 == final and trace2.steps == ()


def test_empty_set_guards():
    empty = ps.PointSet(())
    with pytest.raises(ps.EmptySet):
        st.check_all(empty)
    with pytest.raises(ps.EmptySet):
        th.remove_strong(empty)
    with pytest.raises(ps.EmptySet):
        th.remove_epsilon(empty, F(1, 4))
