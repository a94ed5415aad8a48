"""Tests of the benchmark's own code: exact checks, generators, span arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction as F

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from gapsmith import plmap, threshold  # noqa: E402
from gapsmith import pointset as ps  # noqa: E402
from perfbench import exact, generators, run, tracing, workloads  # noqa: E402


def _verdict(comps, pieces) -> str:
    parts = exact.atoms(comps, pieces)
    try:
        exact.check_increasing(parts)
        exact.check_threshold(parts)
    except exact.CheckFailed as exc:
        return str(exc)
    return "ok"


# -- exact threshold check ------------------------------------------------------------


def test_threshold_check_rejects_sampled_certificate_counterexample():
    # S = [0, 3/8) u (7/4, 19/8] with slope 3 on the first component: x = 0 and
    # y = 11/32 satisfy y < x + 1 but f(y) = 33/32 > f(x) + 1.  No pair of the
    # package's certificate sample exposes it.
    comps = [(F(0), F(3, 8), True, False), (F(7, 4), F(19, 8), False, True)]
    pieces = [(F(0), F(3, 8), F(3), F(0)), (F(7, 4), F(19, 8), F(1), F(3, 8))]
    assert _verdict(comps, pieces) != "ok"


def test_threshold_check_accepts_identity_and_unit_translations():
    comps = [(F(0), F(1, 2), True, False), (F(1), F(3, 2), True, True),
             (F(7, 2), F(4), False, True)]
    identity = [(F(0), F(4), F(1), F(0))]
    assert _verdict(comps, identity) == "ok"
    shifted = [(F(0), F(1, 2), F(1), F(5)), (F(1), F(3, 2), F(1), F(5)),
               (F(7, 2), F(4), F(1), F(5))]
    assert _verdict(comps, shifted) == "ok"


def test_threshold_check_rejects_a_pair_moved_past_the_unit():
    comps = [(F(0), F(0), True, True), (F(1), F(3, 2), True, True)]
    assert _verdict(comps, [(F(0), F(3, 2), F(1), F(0))]) == "ok"
    # Moving [1, 3/2] up by 1/2 puts f(1) = 3/2 beyond f(0) + 1 although 1 is
    # not beyond 0 + 1.
    moved = [(F(0), F(0), F(0), F(0)), (F(1), F(3, 2), F(1), F(1, 2))]
    assert _verdict(comps, moved) != "ok"


def _grid_violation(comps, pieces, den: int) -> bool:
    """Dense-grid oracle: a violation among grid points of the set."""
    pts = []
    lo = min(c[0] for c in comps)
    hi = max(c[1] for c in comps)
    x = F(int(lo * den), den)
    while x <= hi:
        if any((a < x < b) or (x == a and ac) or (x == b and bc) for a, b, ac, bc in comps):
            pts.append(x)
        x += F(1, den)
    los = [p[0] for p in pieces]
    vals = []
    for p in pts:
        _, _, slope, intercept = exact.piece_at(pieces, los, p)
        vals.append(slope * p + intercept)
    for i, (x, fx) in enumerate(zip(pts, vals)):
        for y, fy in zip(pts[i + 1:], vals[i + 1:]):
            if fx >= fy or (x + 1 < y) != (fx + 1 < fy):
                return True
    return False


def _random_case(rng: random.Random):
    den = 8
    comps, pieces, x, value = [], [], F(0), F(0)
    for _ in range(rng.randrange(1, 4)):
        length = F(rng.randrange(1, 12), den)
        comps.append((x, x + length, rng.random() < 0.5, rng.random() < 0.5))
        slope = F(rng.randrange(1, 13), 4)
        value += F(rng.randrange(0, 9), den)
        pieces.append((x, x + length, slope, value - slope * x))
        value += slope * length
        x += length + F(rng.randrange(1, 14), den)
    return comps, pieces


def test_threshold_check_rejects_whatever_a_dense_grid_oracle_rejects():
    rng = random.Random(2024)
    rejected = 0
    for _ in range(300):
        comps, pieces = _random_case(rng)
        verdict = _verdict(comps, pieces)
        if _grid_violation(comps, pieces, den=32):
            assert verdict != "ok", (comps, pieces)
        rejected += verdict != "ok"
    assert 0 < rejected < 300


def test_strong_removal_output_passes_every_check():
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.interval(1, F(7, 5), True, True),
        ps.point(F(7, 4)),
        ps.interval(F(21, 10), 3, True, True),
    )
    gmap, final, _ = threshold.remove_strong(s)
    exact.check_removal(exact.components_of(s), exact.pieces_of(gmap),
                        exact.components_of(final), threshold=True)


def test_check_removal_rejects_a_wrong_final_set():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(1, 2, True, True))
    identity = plmap.identity(s)
    with pytest.raises(exact.CheckFailed):
        exact.check_removal(exact.components_of(s), exact.pieces_of(identity),
                            exact.components_of(s), threshold=True)


# -- generators -------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda rng: generators.weak_pool(rng, 8),
    lambda rng: generators.strong_pool(rng, 9),
    lambda rng: generators.wide_pool(rng, 6),
])
def test_generators_are_deterministic_per_seed(make):
    assert make(random.Random(5)) == make(random.Random(5))
    assert make(random.Random(5)) != make(random.Random(6))


def test_semiorder_pool_is_every_labeled_semiorder_in_seeded_order():
    a = generators.semiorder_pool(random.Random(1))
    assert len(a) == len(set(a)) == 2371
    assert a == generators.semiorder_pool(random.Random(1))
    assert a != generators.semiorder_pool(random.Random(2))


def test_weak_presentation_has_the_requested_half_open_gaps():
    rng = random.Random(3)
    for k in (12, 22, 32):
        s = generators.weak_presentation(rng, k)
        assert len(exact.half_open_gaps(exact.components_of(s))) == k == len(ps.bad_gaps(s))


def test_size_ladder_repeats_every_rung_per_cycle():
    items = generators.ladder(random.Random(0), [1, 2, 3], 7)
    assert sorted(items[:3]) == sorted(items[3:6]) == [1, 2, 3]


# -- span arithmetic ----------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_span_tree(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(tracing, "perf_counter", clock)
    tracer = tracing.Tracer()

    def leaf():
        clock.now += 4

    def inner():
        clock.now += 2
        leaf_span()
        leaf_span()

    def outer():
        clock.now += 1
        inner_span()
        same_span()  # re-entering the outer layer folds into it
        clock.now += 8

    def same():
        clock.now += 16

    leaf_span = tracer.wrap("m.leaf", leaf)
    inner_span = tracer.wrap("m.inner", inner)
    same_span = tracer.wrap("m.outer", same)
    outer_span = tracer.wrap("m.outer", outer)
    tracer.root(outer_span)
    assert tracer.self_s["m.leaf"] == 8 and tracer.calls["m.leaf"] == 2
    assert tracer.self_s["m.inner"] == 2 and tracer.calls["m.inner"] == 1
    assert tracer.self_s["m.outer"] == 1 + 16 + 8 and tracer.calls["m.outer"] == 1
    assert tracer.self_s[tracing.ROOT] == 0
    assert tracer.layer_self_s() == 35 == clock.now


def test_hook_time_is_kept_out_of_every_span(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(tracing, "perf_counter", clock)
    tracer = tracing.Tracer()

    def slow_hook(args, result):
        clock.now += 100

    tracer._hooks["m.child"] = slow_hook

    def child():
        clock.now += 3

    child_span = tracer.wrap("m.child", child)

    def parent():
        clock.now += 5
        child_span()

    tracer.root(tracer.wrap("m.parent", parent))
    assert tracer.self_s["m.child"] == 3
    assert tracer.self_s["m.parent"] == 5
    assert tracer.hook_s == 100


def test_install_wraps_cross_module_bindings_and_uninstall_restores():
    from gapsmith import debreu, pointset

    original = pointset.gaps
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pointset.gaps is not original
        s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(1, 2, True, True))
        tracer.root(lambda: debreu.remove_all(s))
    finally:
        tracer.uninstall()
    assert pointset.gaps is original
    assert tracer.calls["debreu.remove_all"] == 1
    assert tracer.calls["plmap.compose"] == 1
    assert tracer.calls["pointset.gaps"] >= 1


# -- the benchmark description --------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
