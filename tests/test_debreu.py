import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gapsmith import debreu, plmap
from gapsmith import pointset as ps
from bruteforce import stepwise_removal
from conftest import random_presentation, weak_ladder


def test_remove_one_basic():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(F(3, 5), 1))
    fmap, img = debreu.remove_one(s, ps.gaps(s)[0])
    assert [(p.slope, p.intercept) for p in fmap.pieces] == [
        (F(10, 9), F(0)),
        (F(10, 9), F(-1, 9)),
    ]
    assert img == ps.pointset(ps.interval(0, 1))


def test_remove_one_open_closed():
    s = ps.pointset(ps.point(F(0)), ps.interval(F(1, 2), 1, False, True))
    fmap, img = debreu.remove_one(s, ps.gaps(s)[0])
    assert img == ps.pointset(ps.interval(0, 1))


def test_drifted_removal_order_raises_invariant_broken(monkeypatch):
    s = ps.pointset(
        ps.interval(0, F(1, 5), True, False),
        ps.interval(F(2, 5), F(3, 5), True, False),
        ps.interval(1, 2),
    )
    # The image never advances, so the final set keeps both bad gaps.
    monkeypatch.setattr(plmap, "image", lambda m, s: s)
    with pytest.raises(ps.InvariantBroken, match="drifted"):
        debreu.remove_all(s)
    assert not issubclass(ps.InvariantBroken, ValueError)


def test_remove_one_rejects():
    s = ps.pointset(ps.interval(0, 1))
    with pytest.raises(debreu.NoSuchGap):
        debreu.remove_one(s, ps.Gap(F(2), F(3), ps.GapKind.CLOSED_OPEN))
    s2 = ps.pointset(ps.point(F(0)), ps.interval(F(1, 2), 1))
    with pytest.raises(debreu.NotBad):
        debreu.remove_one(s2, ps.gaps(s2)[0])


def test_remove_all_biggest_first():
    s = ps.pointset(
        ps.interval(0, F(1, 5), True, False),
        ps.interval(F(2, 5), F(3, 5), True, False),
        ps.interval(1, 2),
    )
    trace = debreu.remove_all(s)
    assert len(trace.steps) == 2
    assert trace.steps[0].gap_before.lo == F(3, 5)  # biggest first
    assert not ps.bad_gaps(trace.final_set)
    assert trace.final_set == ps.pointset(ps.interval(0, 2))


def test_remove_all_identity():
    s = ps.pointset(ps.interval(0, 1))
    trace = debreu.remove_all(s)
    assert trace.steps == () and trace.final_set == s
    assert trace.total_map == plmap.identity(s)
    # Only good gaps: still the one-piece identity, not a piece per component.
    good = ps.pointset(
        ps.interval(0, 1, True, False), ps.interval(F(3, 2), 2, False, True), ps.point(F(5, 2))
    )
    trace = debreu.remove_all(good)
    assert trace.steps == () and trace.total_map == plmap.identity(good)


def test_remove_all_single():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(F(3, 5), 1))
    trace = debreu.remove_all(s)
    assert len(trace.steps) == 1
    assert trace.final_set == ps.pointset(ps.interval(0, 1))


def test_remove_until():
    s = ps.pointset(
        ps.interval(0, F(1, 5), True, False),
        ps.interval(F(2, 5), F(3, 5), True, False),
        ps.interval(1, 2),
    )
    stopped = debreu.remove_until(s, F(1, 2))
    assert stopped.steps == () and stopped.final_set == s
    assert stopped.total_map == plmap.identity(s)
    # After the first fuse the remaining gap measures exactly 1/4: not < 1/4,
    # so the run continues to a second step.
    assert len(debreu.remove_until(s, F(1, 4)).steps) == 2
    with pytest.raises(ValueError):
        debreu.remove_until(s, F(0))


def test_predicted_length_first():
    assert debreu.predicted_length([F(1, 5)], 1) == F(1, 5)


def test_predicted_length_cross_checked():
    assert debreu.predicted_length([F(1, 5), F(1, 10)], 2) == F(1, 8)
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.interval(F(7, 10), F(4, 5), True, False),
        ps.interval(F(9, 10), 1),
    )
    trace = debreu.remove_all(s)
    assert trace.steps[1].l == F(1, 8)


def test_predicted_length_three_steps():
    assert debreu.predicted_length([F(1, 5), F(1, 10), F(1, 10)], 3) == F(1, 7)
    s = ps.pointset(
        ps.interval(0, F(1, 4), True, False),
        ps.interval(F(9, 20), F(11, 20), True, False),
        ps.interval(F(13, 20), F(7, 10), True, False),
        ps.interval(F(4, 5), 1),
    )
    trace = debreu.remove_all(s)
    assert [st.delta for st in trace.steps] == [F(1, 5), F(1, 10), F(1, 10)]
    assert trace.steps[2].l == F(1, 7)


def test_predicted_length_mass_guard():
    with pytest.raises(debreu.MassExceedsOne):
        debreu.predicted_length([F(1, 2), F(1, 2)], 1)


def test_predicted_distance():
    assert debreu.predicted_distance([], F(1, 2)) == F(1, 2)
    assert debreu.predicted_distance([F(1, 10)], F(1, 2)) == F(4, 9)
    with pytest.raises(debreu.DegenerateDistance):
        debreu.predicted_distance([F(1, 4), F(1, 4)], F(1, 2))


def test_predicted_distance_matches_map():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(F(3, 5), 1))
    fmap, _ = debreu.remove_one(s, ps.gaps(s)[0])
    x, y = F(1, 10), F(3, 5)
    assert fmap.apply(y) - fmap.apply(x) == debreu.predicted_distance([F(1, 10)], y - x)


def test_random_corpus_laws():
    rng = random.Random(3)
    for _ in range(40):
        s = random_presentation(rng)
        trace = debreu.remove_all(s)
        deltas = [st.delta for st in trace.steps]
        for st in trace.steps:
            assert st.l == debreu.predicted_length(deltas, st.index)
        final = trace.final_set
        assert not ps.bad_gaps(final)
        assert final.sup - final.inf == s.span
        assert plmap.increase_witness(plmap.atoms(trace.total_map, s)) is None
        again = debreu.remove_all(final)
        assert again.steps == () and again.final_set == final


@settings(max_examples=300, deadline=None)
@given(
    hs.sampled_from(("presentation", "ladder")),
    hs.integers(0, 2**32 - 1),
    hs.integers(1, 120),
)
def test_closed_form_matches_the_stepwise_removal(family, seed, eps_num):
    rng = random.Random(seed)
    s = random_presentation(rng) if family == "presentation" else weak_ladder(rng.randrange(13), seed)
    eps = F(eps_num, 60)
    for got, want in ((debreu.remove_all(s), stepwise_removal(s)),
                      (debreu.remove_until(s, eps), stepwise_removal(s, eps))):
        assert got.total_map == want.total_map
        assert got.final_set == want.final_set
        assert got.steps == want.steps
        # In a random order, so a map is built both from the previous step's
        # image and from the closed form of the earlier steps.
        touch = list(range(len(got.steps)))
        rng.shuffle(touch)
        maps = {i: got.steps[i].map for i in touch}
        assert [maps[i] for i in range(len(got.steps))] == [st.map for st in want.steps]


_COUNTED = (
    (plmap, "compose"),
    (plmap, "image"),
    (debreu, "remove_one"),
    (ps, "gaps"),
    (ps, "bad_gaps_biggest_first"),
)


def _count_calls(monkeypatch) -> dict[str, int]:
    counts = {name: 0 for _, name in _COUNTED}
    for module, name in _COUNTED:

        def counted(*args, _name=name, _real=getattr(module, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_remove_all_cost_does_not_grow_with_the_gap_count(monkeypatch):
    counts = _count_calls(monkeypatch)
    seen = []
    for k in (40, 160):
        s = weak_ladder(k)
        assert len(ps.bad_gaps(s)) == k
        for name in counts:
            counts[name] = 0
        trace = debreu.remove_all(s)
        assert len(trace.steps) == k
        assert counts["compose"] == 1 and counts["image"] <= 2
        assert counts["remove_one"] == 0
        seen.append((counts["gaps"], counts["bad_gaps_biggest_first"]))
        trace.steps[k // 2].map
        trace.steps[k // 2].map  # built once, then cached
        assert counts["remove_one"] == 1
        counts["image"] = 0
        trace.steps[k // 2 + 1].map  # fuses the image the previous fuse left
        assert counts["remove_one"] == 2 and counts["image"] == 1
    assert seen[0] == seen[1]
