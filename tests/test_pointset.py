import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gapsmith import pointset as ps
from gapsmith.rationals import MalformedRational, parse_rational
from bruteforce import sample_points


def test_normalize_adjacent_merge():
    s = ps.normalize(
        [ps.Component(F(0), F(1, 2), True, False), ps.Component(F(1, 2), F(1), True, True)]
    )
    assert s.components == (ps.Component(F(0), F(1), True, True),)


def test_normalize_absorption():
    s = ps.normalize([ps.point(F(1)), ps.Component(F(0), F(2), True, True)])
    assert s.components == (ps.Component(F(0), F(2), True, True),)


def test_normalize_sorts():
    s = ps.normalize([ps.Component(F(1), F(2), True, False), ps.point(F(0))])
    assert s.components == (
        ps.point(F(0)),
        ps.Component(F(1), F(2), True, False),
    )


def test_normalize_keeps_true_holes():
    s = ps.normalize(
        [ps.Component(F(0), F(1), True, False), ps.Component(F(1), F(2), False, True)]
    )
    assert len(s.components) == 2


def test_contains_shared_open_endpoint_is_outside():
    s = ps.pointset(ps.interval(0, 1, True, False), ps.interval(1, 2, False, True))
    assert len(s.components) == 2
    assert not s.contains(F(1))
    assert s.contains(F(0)) and s.contains(F(2))


def test_contains_checks_one_component(monkeypatch):
    s = ps.pointset(*(ps.interval(2 * k, 2 * k + 1) for k in range(1000)))
    calls = []
    original = ps.Component.contains

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(ps.Component, "contains", counted)
    for x in (F(-1), F(0), F(1001, 2), F(1501), F(1998), F(1999), F(2000)):
        calls.clear()
        expected = any(original(c, x) for c in s.components)
        assert s.contains(x) == expected
        assert len(calls) <= 1, x


def test_malformed_component():
    with pytest.raises(ps.MalformedComponent):
        ps.Component(F(1), F(0), True, True)
    with pytest.raises(ps.MalformedComponent):
        ps.Component(F(1), F(1), True, False)


def test_gaps_open():
    s = ps.pointset(ps.point(F(0)), ps.interval(F(1, 2), 1))
    assert ps.gaps(s) == [ps.Gap(F(0), F(1, 2), ps.GapKind.OPEN)]


def test_gaps_closed_open():
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False), ps.interval(1, F(3, 2), True, False)
    )
    assert ps.gaps(s) == [ps.Gap(F(1, 2), F(1), ps.GapKind.CLOSED_OPEN)]


def test_gaps_none():
    assert ps.gaps(ps.pointset(ps.interval(0, 1))) == []


def test_gaps_empty_set():
    with pytest.raises(ps.EmptySet):
        ps.gaps(ps.PointSet(()))


def test_bad_gap_mass_single():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(F(3, 5), 1))
    total, per_gap = ps.bad_gap_mass(s)
    assert (total, per_gap) == (F(1, 10), [F(1, 10)])


def test_bad_gap_mass_nogaps():
    assert ps.bad_gap_mass(ps.pointset(ps.interval(0, 1))) == (F(0), [])


def test_bad_gap_mass_sorted_desc():
    s = ps.pointset(
        ps.interval(0, F(1, 5), True, False),
        ps.interval(F(2, 5), F(3, 5), True, False),
        ps.interval(1, 2),
    )
    total, per_gap = ps.bad_gap_mass(s)
    assert per_gap == [F(2, 5), F(1, 5)]
    assert total == F(3, 5)


def test_sample_points():
    assert sample_points(ps.pointset(ps.point(F(0)))) == [F(0)]
    assert sample_points(ps.pointset(ps.interval(0, 1))) == [
        F(0), F(1, 4), F(1, 2), F(3, 4), F(1),
    ]
    assert sample_points(ps.pointset(ps.interval(0, 1, True, False))) == [
        F(0), F(1, 4), F(1, 2), F(3, 4),
    ]


def test_json_roundtrip():
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False), ps.point(F(1)), ps.interval(F(3, 2), 2, False, True)
    )
    assert ps.loads(s.dumps()) == s


def test_json_rejects_unreduced_and_zero_den():
    with pytest.raises(MalformedRational):
        parse_rational("2/4")
    with pytest.raises(MalformedRational):
        parse_rational("1/0")
    with pytest.raises(MalformedRational):
        ps.loads(json.dumps({"components": [{"kind": "point", "at": "3/6"}]}))
    # Only the canonical text of a value parses, in ASCII digits, of any length.
    for text in ["\u0663", "007", "-0", "2/1", "0/1", "+1", "1/-2", "9" * 5000]:
        with pytest.raises(MalformedRational):
            parse_rational(text)
    assert parse_rational(" -3/4\n") == F(-3, 4) and parse_rational("0") == 0


# -- properties ----------------------------------------------------------------

_coords = hs.integers(min_value=-120, max_value=120).map(lambda p: F(p, 60))


@hs.composite
def raw_components(draw):
    out = []
    for _ in range(draw(hs.integers(1, 6))):
        a = draw(_coords)
        b = draw(_coords)
        if a > b:
            a, b = b, a
        if a == b:
            out.append(ps.point(a))
        else:
            out.append(ps.Component(a, b, draw(hs.booleans()), draw(hs.booleans())))
    return out


@settings(max_examples=120, deadline=None)
@given(raw_components())
def test_normalize_idempotent(comps):
    once = ps.normalize(comps)
    assert ps.normalize(once.components) == once


@settings(max_examples=120, deadline=None)
@given(raw_components())
def test_gap_complement_duality(comps):
    s = ps.normalize(comps)
    total = s.measure + sum((g.length for g in ps.gaps(s)), F(0))
    assert total == s.span


@settings(max_examples=120, deadline=None)
@given(raw_components())
def test_classification_soundness(comps):
    s = ps.normalize(comps)
    for g in ps.gaps(s):
        lo_in = s.contains(g.lo)
        hi_in = s.contains(g.hi)
        expected = {
            (True, True): ps.GapKind.OPEN,
            (False, False): ps.GapKind.CLOSED,
            (False, True): ps.GapKind.CLOSED_OPEN,
            (True, False): ps.GapKind.OPEN_CLOSED,
        }[(lo_in, hi_in)]
        assert g.kind == expected


@settings(max_examples=120, deadline=None)
@given(raw_components())
def test_bad_mass_matches_resorted_lengths(comps):
    s = ps.normalize(comps)
    if not s.components:
        return
    total, per_gap = ps.bad_gap_mass(s)
    assert per_gap == sorted((g.length for g in ps.bad_gaps(s)), reverse=True)
    assert total == sum((x for x in per_gap), F(0))
