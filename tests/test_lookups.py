"""The bisected lookups of ``pointset`` and ``plmap`` against linear-scan oracles."""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as hs

import bruteforce
from gapsmith import plmap
from gapsmith import pointset as ps

_SLOPES = [F(0), F(0), F(1, 2), F(1), F(2), F(3)]
_JUMPS = [F(0), F(0), F(1, 4), F(1)]


def _grid(lo: F, hi: F, step: F):
    return hs.integers(0, int((hi - lo) / step)).map(lambda k: lo + k * step)


@hs.composite
def sets(draw):
    """Unions of intervals and points on the 1/4 grid of [0, 6].

    A coarse grid makes isolated points, touching open components and shared
    endpoints common.
    """
    coord = _grid(F(0), F(6), F(1, 4))
    comps = []
    for _ in range(draw(hs.integers(1, 7))):
        a, b = sorted((draw(coord), draw(coord)))
        if a == b:
            comps.append(ps.point(a))
        else:
            comps.append(ps.Component(a, b, draw(hs.booleans()), draw(hs.booleans())))
    return ps.normalize(comps)


@hs.composite
def maps(draw, lo: F, hi: F, step: F, domain: ps.PointSet):
    """A valid PLMap over [lo, hi] with breakpoints on the ``step`` grid.

    Neighbouring pieces share their breakpoint unless a hole is drawn between
    them; slopes include 0 and values may jump up across a breakpoint.
    """
    inner = draw(hs.lists(_grid(lo, hi, step), max_size=6))
    cuts = sorted([lo, hi, *inner])
    value = draw(_grid(F(-2), F(2), F(1, 4)))
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        if pieces and draw(hs.integers(0, 5)) == 0:
            continue  # a hole between the previous piece and the next
        slope = draw(hs.sampled_from(_SLOPES))
        start = value + draw(hs.sampled_from(_JUMPS))
        tag = draw(hs.sampled_from(["", "a", "b"]))
        pieces.append(plmap.AffinePiece(a, b, slope, start - slope * a, tag))
        value = start + slope * (b - a)
    return plmap.PLMap(tuple(pieces), domain)


def _points(s: ps.PointSet) -> list[F]:
    """Every 1/8 step of the set's hull, one step beyond it on each side."""
    lo, hi = s.inf - F(1, 8), s.sup + F(1, 8)
    return [lo + F(k, 8) for k in range(int((hi - lo) * 8) + 1)]


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the oracle and the package must fail alike
        return "raised", type(exc)


@hs.composite
def set_and_map(draw):
    s = draw(sets())
    pad = draw(hs.sampled_from([F(0), F(1, 4)]))
    return s, draw(maps(s.inf - pad, s.sup + pad, F(1, 4), s))


@hs.composite
def composable(draw):
    """An inner map on a set and an outer map over (roughly) its values."""
    s, inner = draw(set_and_map())
    values = [v for p in inner.pieces for v in (p.value(p.lo), p.value(p.hi))]
    pad = draw(hs.sampled_from([F(0), F(0), F(1, 8), F(-1, 8)]))
    lo, hi = min(values) - pad, max(values) + pad
    if lo > hi:
        lo, hi = hi, lo
    hull = ps.pointset(ps.interval(lo, hi))
    return draw(maps(lo, hi, F(1, 8), hull)), inner


_TOUCHING = ps.pointset(
    ps.interval(0, 1, False, False), ps.interval(1, 2, False, False), ps.point(3)
)
_SHARED = plmap.PLMap(
    (
        plmap.AffinePiece(F(0), F(1), F(1), F(0)),
        plmap.AffinePiece(F(1), F(2), F(0), F(2)),
        plmap.AffinePiece(F(2), F(3), F(2), F(-2)),
    ),
    _TOUCHING,
)
_HOLED = plmap.PLMap(
    (plmap.AffinePiece(F(0), F(1), F(1), F(0)), plmap.AffinePiece(F(2), F(4), F(1), F(1))),
    ps.pointset(ps.interval(0, 1), ps.interval(2, 4)),
)


@settings(max_examples=300, deadline=None)
@given(sets())
@example(_TOUCHING)
def test_pointset_queries_match_oracle(s):
    xs = _points(s)
    for x in xs:
        assert s.contains(x) == bruteforce.contains(s, x)
        assert ps.closure_gap_below(s, x) == bruteforce.closure_gap_below(s, x)
        assert ps.closure_gap_above(s, x) == bruteforce.closure_gap_above(s, x)
    for lo in xs[::3]:
        for hi in xs[::3]:
            got = ps.members_in_interval(s, lo, hi)
            assert got == bruteforce.members_in_interval(s, lo, hi)
    # Windows narrower and wider than one unit, some degenerate, on both steps.
    mid = xs[len(xs) // 2]
    windows = [(s.inf - 1, s.inf), (mid, mid + F(1, 4)), (xs[1], xs[1]), (s.sup, s.sup + F(3, 2))]
    for lo, hi in windows:
        for step in (1, -1):
            for first, last in [(0, 8), (1, 3), (-8, 0), (2, 1)]:
                dense = [
                    k for k in range(first, last + 1)
                    if bruteforce.meets_material(s, lo + step * k, hi + step * k)
                ]
                got = list(ps.translates(s, lo, hi, step, first, last))
                assert got == dense, (lo, hi, step, first, last)


@settings(max_examples=300, deadline=None)
@given(set_and_map())
@example((_TOUCHING, _SHARED))
@example((_TOUCHING, _HOLED))
def test_apply_and_image_match_oracle(case):
    s, m = case
    for x in _points(s):
        assert _outcome(m.apply, x) == _outcome(bruteforce.apply, m, x)
    assert _outcome(plmap.image, m, s) == _outcome(bruteforce.image, m, s)


@settings(max_examples=300, deadline=None)
@given(composable())
@example((_HOLED, _SHARED))
@example((_SHARED, plmap.identity(_TOUCHING)))
def test_compose_matches_oracle(case):
    outer, inner = case
    got = _outcome(plmap.compose, outer, inner)
    assert got == _outcome(bruteforce.compose, outer, inner)
