"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import random
import time
from fractions import Fraction as F

from gapsmith import debreu, plmap, semiorder as so, threshold as th
from gapsmith import pointset as ps
from gapsmith import structure as st
from gapsmith.threshold import _schedule
from conftest import FIGURES, fail_corpus, random_pass_instance, random_presentation
from bruteforce import exists_threshold_closing_map, sample_points


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _debreu_corpus() -> list[ps.PointSet]:
    rng = random.Random(60321)
    return [random_presentation(rng, den=60, max_bad=8) for _ in range(200)]


def test_criterion_1_ledger_law():
    start = time.time()
    checked = 0
    for s in _debreu_corpus():
        trace = debreu.remove_all(s)
        deltas = [step.delta for step in trace.steps]
        for step in trace.steps:
            assert step.l == debreu.predicted_length(deltas, step.index)
            measured = step.current_gap.length / s.span
            assert measured == step.l
            checked += 1
    elapsed = time.time() - start
    _line(
        "criterion 1 (ledger law)",
        elapsed < 5.0,
        f"{checked} steps over 200 presentations exact in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_distance_law():
    rng = random.Random(424242)
    pairs_checked = 0
    for s in _debreu_corpus():
        trace = debreu.remove_all(s)
        samples = sample_points(s)
        width = s.span
        if len(samples) < 2 or width == 0:
            continue
        all_mass = sum((step.gap_before.length for step in trace.steps), F(0))
        for _ in range(20):
            x, y = sorted(rng.sample(samples, 2))
            measured = trace.total_map.apply(y) - trace.total_map.apply(x)
            # Step recursion: contract when the current gap separates the pair.
            cur_x, cur_y, dist = x, y, y - x
            for step in trace.steps:
                sigma = step.map.pieces[0].slope
                gap = step.current_gap
                if cur_x <= gap.lo and gap.hi <= cur_y:
                    dist = (dist - gap.length) * sigma
                else:
                    dist = dist * sigma
                cur_x, cur_y = step.map.apply(cur_x), step.map.apply(cur_y)
            assert dist == measured
            # Closed form with the original lengths.
            between = sum(
                (g.length for g in ps.bad_gaps(s) if x <= g.lo and g.hi <= y), F(0)
            )
            predicted = (y - x - between) * width / (width - all_mass)
            assert predicted == measured
            pairs_checked += 1
    _line("criterion 2 (distance law)", True, f"{pairs_checked} random pairs exact")


def test_criterion_3_weak_debreu_postconditions():
    for s in _debreu_corpus():
        trace = debreu.remove_all(s)
        final = trace.final_set
        kinds = {g.kind for g in ps.gaps(final)}
        assert ps.GapKind.CLOSED_OPEN not in kinds
        assert ps.GapKind.OPEN_CLOSED not in kinds
        assert final.sup - final.inf == s.span
        witness = plmap.increase_witness(plmap.atoms(trace.total_map, s))
        assert witness is None, witness
    _line(
        "criterion 3 (weak Debreu postconditions)",
        True,
        "zero half-open gaps, span preserved, monotone certificate on 200 presentations",
    )


def _threshold_corpus() -> list[ps.PointSet]:
    rng = random.Random(777001)
    out = [builder() for _, builder in sorted(FIGURES.items())]
    out.extend(random_pass_instance(rng) for _ in range(50))
    return out


def test_criterion_4_threshold_certificates():
    corpus = _threshold_corpus()
    for s in corpus:
        report = st.check_all(s)
        assert report.passed, report.failure
        gmap, final, trace = th.remove_strong(s)  # CertificateFailed fails the build
        assert not ps.bad_gaps(final)
        assert plmap.increase_witness(plmap.atoms(gmap, s)) is None
        assert plmap.threshold_witness(plmap.atoms(gmap, s)) is None
    _line(
        "criterion 4 (threshold certificates)",
        True,
        f"figures 1-4 plus {len(corpus) - 4} randomized Pass instances, both certificates exact",
    )


def test_criterion_5_epsilon_budget():
    corpus = _threshold_corpus()[:20]
    runs = 0
    for eps0 in (F(1, 4), F(1, 16), F(1, 64)):
        for s in corpus:
            gmap, final, trace = th.remove_epsilon(s, eps0)
            bads = ps.bad_gaps(final)
            assert all(g.length < eps0 for g in bads)
            budget = F(1)
            if ps.bad_gaps(s):
                sched = _schedule(s)
                for deltas in sched.cell_deltas.values():
                    budget *= 1 - sum(deltas, F(0))
            assert trace.eps1 is not None and trace.eps1 < eps0 * budget
            runs += 1
    _line(
        "criterion 5 (epsilon budget)",
        True,
        f"{runs} runs: biggest bad gap < eps0 and eps1 below the product budget, exact",
    )


def test_criterion_6_semiorder_oracle():
    start = time.time()
    up_to_iso = (1, 2, 5, 14, 42, 132)
    labeled = (1, 3, 19, 183, 2371, 38703)
    for n in range(1, 7):
        assert so.enumerate_semiorders(n, up_to_iso=True)[0] == up_to_iso[n - 1], n
        assert so.enumerate_semiorders(n)[0] == labeled[n - 1], n
    elapsed = time.time() - start
    _line(
        "criterion 6 (semiorder enumeration counts)",
        elapsed < 30.0,
        f"n=1..6 counts 1,2,5,14,42,132 up to isomorphism and "
        f"1,3,19,183,2371,38703 labeled in {elapsed:.2f}s (< 30s)",
    )


def test_criterion_7_synthesis_soundness():
    total = 0
    for n in range(1, 6):
        _, items = so.enumerate_semiorders(n)
        for r in items:
            rep = so.synthesize_ss(r)
            ok, witness = so.check_ss(r, rep)
            assert ok, (r, witness)
            tr = so.trace(r)
            for x in range(n):
                for y in range(n):
                    if tr[x][y]:
                        assert rep.values[x] <= rep.values[y]
            total += 1
    _line(
        "criterion 7 (synthesis soundness)",
        True,
        f"all {total} semiorders with n <= 5: representation certified and trace-monotone",
    )


def test_criterion_8_structure_soundness():
    start = time.time()
    blocked = 0
    for s, gap in fail_corpus():
        assert not st.check_all(s).passed
        assert len(sample_points(s)) <= 10
        assert not exists_threshold_closing_map(s, gap, max_den=24)
        blocked += 1
    rng = random.Random(880011)
    produced = 0
    while produced < 30:
        s = random_pass_instance(rng)
        if not ps.bad_gaps(s):
            continue
        assert st.check_all(s).passed
        gmap, final, trace = th.remove_strong(s)
        assert not ps.bad_gaps(final)
        assert plmap.threshold_witness(plmap.atoms(gmap, s)) is None
        produced += 1
    elapsed = time.time() - start
    _line(
        "criterion 8 (structure soundness)",
        elapsed < 60.0,
        f"{blocked} Fail instances confirmed map-free by the den<=24 search; "
        f"{produced} Pass instances removed, in {elapsed:.2f}s (< 60s)",
    )
