"""The exact certificates of ``plmap`` against dense-grid oracles, and their cost."""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as hs

import bruteforce
from conftest import sampled_counterexample
from gapsmith import plmap
from gapsmith import pointset as ps
from gapsmith import threshold as th

_STEP = F(1, 96)
_SLOPES = [F(1), F(1), F(1), F(1, 2), F(2), F(3), F(0)]
_JUMPS = [F(0), F(0), F(0), F(1, 8), F(1, 2), F(1)]


@hs.composite
def sets_and_maps(draw):
    """A set on the 1/8 grid of [0, 4] and a map over its hull.

    Slopes are mostly 1 and jumps mostly 0, so the threshold holds in about a
    third of the draws; a flat piece now and then breaks strict increase.
    """
    coord = hs.integers(0, 32).map(lambda k: F(k, 8))
    comps = []
    for _ in range(draw(hs.integers(1, 5))):
        a, b = sorted((draw(coord), draw(coord)))
        if a == b:
            comps.append(ps.point(a))
        else:
            comps.append(ps.Component(a, b, draw(hs.booleans()), draw(hs.booleans())))
    s = ps.normalize(comps)
    lo, hi = int(s.inf * 8), int(s.sup * 8)
    inner = draw(hs.lists(hs.integers(lo, hi), max_size=5))
    cuts = sorted({s.inf, s.sup, *(F(k, 8) for k in inner)})
    spans = list(zip(cuts, cuts[1:])) or [(s.inf, s.inf)]
    value = F(0)
    pieces = []
    for a, b in spans:
        slope = draw(hs.sampled_from(_SLOPES))
        start = value + draw(hs.sampled_from(_JUMPS))
        pieces.append(plmap.AffinePiece(a, b, slope, start - slope * a))
        value = start + slope * (b - a)
    return plmap.PLMap(tuple(pieces), s), s


def _case(pieces, *comps):
    s = ps.pointset(*comps)
    return plmap.PLMap(tuple(plmap.AffinePiece(*p) for p in pieces), s), s


# Corners a random draw seldom hits: f(y) = f(x)+1 exactly at a point y beyond
# x+1; two points with one value; and x+1 inside a flat stretch at f(x)+1.
_ATTAINED_AT_POINT = _case([(F(0), F(2), F(1, 2), F(0))], ps.point(F(0)), ps.point(F(2)))
_EQUAL_POINTS = _case([(F(0), F(1, 2), F(0), F(0))], ps.point(F(0)), ps.point(F(1, 2)))
_ATTAINED_ON_FLAT = _case(
    [(F(1, 2), F(1), F(0), F(0)), (F(3, 2), F(2), F(0), F(1))],
    ps.interval(F(1, 2), 1, False, True),
    ps.interval(F(3, 2), 2, False, True),
)


@settings(max_examples=400, deadline=None)
@given(sets_and_maps())
@example(sampled_counterexample())
@example(_ATTAINED_AT_POINT)
@example(_EQUAL_POINTS)
@example(_ATTAINED_ON_FLAT)
def test_certificates_agree_with_grid_oracle(case):
    m, s = case
    witness = plmap.increase_witness(plmap.atoms(m, s))
    ok = witness is None
    assert ok or bruteforce.breaks_increase(m, s, witness)
    if bruteforce.increase_violation_on_grid(m, s, _STEP) is not None:
        assert not ok
    witness = plmap.threshold_witness(plmap.atoms(m, s))
    ok = witness is None
    assert ok or bruteforce.breaks_threshold(m, s, witness)
    if bruteforce.threshold_violation_on_grid(m, s, _STEP) is not None:
        assert not ok
    xs, fs = bruteforce.grid_members(m, s, _STEP)
    assert th.sup_norm(m) >= max(abs(fx - x) for x, fx in zip(xs, fs))


def test_certificates_do_not_compare_pairs(monkeypatch):
    # 1000 unit components three apart, each under its own translation piece:
    # both certificates hold, so every critical point is visited.
    n = 1000
    s = ps.pointset(*(ps.interval(3 * k, 3 * k + 1, k % 2 == 0, True) for k in range(n)))
    m = plmap.PLMap(
        tuple(plmap.AffinePiece(F(3 * k), F(3 * k + 1), F(1), F(k // 7)) for k in range(n)),
        s,
    )
    size = len(m.pieces) + len(s.components)
    lookups = []
    lookup = plmap.PLMap.piece_at

    def counted_lookup(self, x):
        lookups.append(x)
        return lookup(self, x)

    compared = 0
    budget = 30 * size * size.bit_length()

    def counted(op):
        def compare(a, b):
            nonlocal compared
            compared += 1
            if compared > budget:
                raise AssertionError("the certificate compares more than n log n pairs")
            return op(a, b)

        return compare

    monkeypatch.setattr(plmap.PLMap, "piece_at", counted_lookup)
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(F, name, counted(getattr(F, name)))
    expected = [
        (lambda: plmap.increase_witness(plmap.atoms(m, s)), None),
        (lambda: plmap.threshold_witness(plmap.atoms(m, s)), None),
        (lambda: th.sup_norm(m), F((n - 1) // 7)),
    ]
    for check, result in expected:
        lookups.clear()
        compared = 0
        assert check() == result
        assert len(lookups) <= 2 * size, result
