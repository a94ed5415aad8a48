"""Threshold removal on the material: sparse plans and translate chains
against the dense walks over every unit cell, and cost against span."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import bruteforce
from conftest import pinned_span, random_pass_instance, random_presentation, wide_span
from gapsmith import pointset as ps
from gapsmith import structure as st
from gapsmith import threshold as th

_FAMILIES = ("presentation", "pass", "wide", "pinned")


def _draw(family: str, rng: random.Random) -> ps.PointSet:
    if family == "presentation":
        return random_presentation(rng)
    if family == "pass":
        return random_pass_instance(rng)
    build = wide_span if family == "wide" else pinned_span
    return build(rng.randrange(2, 300), rng.random() < 0.5)


def _chain_args(s: ps.PointSet, rng: random.Random) -> tuple[F, F, F]:
    """A flat [u, v] of width below one, mostly a few units below an endpoint
    of the set so that its translates land on the material, and an anchor."""
    ends = [e for c in s.components for e in (c.lo, c.hi)]
    if rng.random() < 0.7:
        u = rng.choice(ends) - rng.randrange(1, 4) + F(rng.randrange(-2, 3), 48)
    else:
        u = s.inf - 1 + F(rng.randrange(int(s.span + 2) * 48), 48)
    v = u + F(rng.randrange(1, 48), 48)
    return u, v, rng.choice([u, v, rng.choice(ends)])


@settings(max_examples=300, deadline=None)
@given(hs.sampled_from(_FAMILIES), hs.integers(0, 2**32 - 1))
def test_sparse_plans_and_translate_chains_match_the_dense_walks(family, seed):
    rng = random.Random(seed)
    s = _draw(family, rng)
    for g in ps.bad_gaps(s):
        if g.length >= 1:
            continue
        frame, r, w, right, left = st.co_frame_chains(s, g)
        pieces, notes = th._co_pieces(frame, r, w, left, right)
        dense, dense_notes = bruteforce.dense_co_pieces(frame, r, w, left, right)
        assert pieces == tuple(p for p in dense if bruteforce.meets_material(frame, p.lo, p.hi))
        assert notes == dense_notes
    for _ in range(20):
        u, v, anchor = _chain_args(s, rng)
        got = st._translate_chain_ok(s, u, v, anchor)
        assert got == bruteforce.translate_chain_walk(s, u, v, anchor), (u, v, anchor)


def _near(pieces) -> list:
    """The pieces over the components both spans share, within 3 of 0."""
    return [p for p in pieces if -3 <= p.lo and p.hi <= 3]


def _removal_counts(build, k: int, mirror: bool, monkeypatch) -> tuple:
    calls = []
    probe = ps.members_in_interval

    def counted(*args):
        calls.append(args)
        return probe(*args)

    monkeypatch.setattr(ps, "members_in_interval", counted)
    s = build(k, mirror)
    assert st.check_all(s).passed
    gmap, _, trace = th.remove_strong(s)
    monkeypatch.setattr(ps, "members_in_interval", probe)
    plans = [(len(step.plan.pieces), _near(step.plan.pieces)) for step in trace.steps]
    return len(calls), plans, _near(gmap.pieces)


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("build", [wide_span, pinned_span])
def test_threshold_removal_cost_does_not_grow_with_span(build, mirror, monkeypatch):
    # Counted, not timed: the same probes and the same plans at 10^3 and 10^9.
    small = _removal_counts(build, 10**3, mirror, monkeypatch)
    huge = _removal_counts(build, 10**9, mirror, monkeypatch)
    assert small == huge
    assert small[1] and small[2]
