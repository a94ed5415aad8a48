"""Shared fixtures: the four committed configurations and corpus generators."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from gapsmith import plmap
from gapsmith import pointset as ps


def figure1() -> ps.PointSet:
    # Drifting-singleton chain to the right of the main gap [1/2, 1).
    return ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.interval(1, F(3, 2), True, False),
        ps.point(F(7, 4)),
        ps.interval(2, F(5, 2), False, False),
        ps.point(F(27, 10)),
        ps.interval(3, F(7, 2), False, True),
    )


def figure2() -> ps.PointSet:
    # Terminal window with both margins positive and an interior singleton.
    return ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.interval(1, F(7, 5), True, True),
        ps.point(F(7, 4)),
        ps.interval(F(21, 10), 3, True, True),
    )


def figure3() -> ps.PointSet:
    # Adjoint-point chain to the left of the main gap [1/2, 1).
    return ps.pointset(
        ps.interval(-2, F(-3, 2), True, False),
        ps.interval(-1, F(-1, 2), True, False),
        ps.interval(0, F(1, 2), True, False),
        ps.interval(1, F(3, 2), True, True),
    )


def figure4() -> ps.PointSet:
    # Empty terminal window with both margins positive, left side.
    return ps.pointset(
        ps.interval(-2, F(-3, 5), True, False),
        ps.interval(F(1, 10), F(1, 2), False, False),
        ps.interval(1, F(7, 5), True, True),
    )


def sampled_counterexample():
    """S = [0, 3/8) u (7/4, 19/8] with slope 3 on the first component.

    x = 0 and y = 11/32 break x+1 < y <=> f(x)+1 < f(y), yet no pair of
    endpoints, quartiles, breakpoints and their unit translates does.
    """
    s = ps.pointset(
        ps.interval(0, F(3, 8), True, False),
        ps.interval(F(7, 4), F(19, 8), False, True),
    )
    pieces = (
        plmap.AffinePiece(F(0), F(3, 8), F(3), F(0)),
        plmap.AffinePiece(F(7, 4), F(19, 8), F(1), F(3, 8)),
    )
    return plmap.PLMap(pieces, s), s


FIGURES = {"figure1": figure1, "figure2": figure2, "figure3": figure3, "figure4": figure4}


@pytest.fixture(params=sorted(FIGURES))
def figure_set(request):
    return FIGURES[request.param]()


def random_presentation(rng: random.Random, den: int = 60, max_bad: int = 8) -> ps.PointSet:
    """Random bounded presentation on the 1/den grid with at most max_bad bad gaps."""
    while True:
        comps = []
        x = F(rng.randrange(-3 * den, 3 * den), den)
        for _ in range(rng.randrange(2, 7)):
            gap_len = F(rng.randrange(1, den), den)
            seg_len = F(rng.randrange(1, 2 * den), den)
            if comps:
                x += gap_len
            if rng.random() < 0.15:
                comps.append(ps.point(x))
            else:
                comps.append(
                    ps.Component(x, x + seg_len, rng.random() < 0.5, rng.random() < 0.5)
                )
                x += seg_len
        s = ps.normalize(comps)
        if len(s.components) >= 2 and len(ps.bad_gaps(s)) <= max_bad:
            return s


def _cluster(rng: random.Random, origin: F, den: int = 40) -> list[ps.Component]:
    """Components strictly inside [origin, origin+1) with closed outer ends,
    so a cluster never contributes a half-open gap toward its neighbors and
    every window of its internal gaps leaves the cluster's sub-unit span."""
    comps = []
    x = origin + F(rng.randrange(0, 4), den)
    budget = F(den - 8, den)
    first = True
    while budget > F(8, den):
        seg = F(rng.randrange(2, 8), den)
        hole = F(rng.randrange(1, 6), den)
        if seg + hole > budget:
            break
        comps.append(
            ps.Component(x, x + seg, True if first else rng.random() < 0.7, rng.random() < 0.5)
        )
        first = False
        x += seg + hole
        budget -= seg + hole
    comps.append(ps.Component(x, x + F(2, den), True, True))
    return comps


def _singleton_ladder(rng: random.Random) -> list[ps.Component]:
    """Main gap [1-d, 1) with an A-chain of drifting singletons to the right,
    ending in a margin window with at most one occupant and a closed tail."""
    d = F(rng.randrange(6, 13), 24)  # gap length in [1/4, 1/2]
    r = 1 - d
    comps = [ps.Component(F(0), r, True, False)]
    depth = rng.randrange(0, 3)
    prev_s = F(1)
    lo_end = F(1)  # material [lo_end, r+n) fills each chain cell
    closed_start = True  # w = 1 belongs to the set; deeper cells open at the wall
    for n in range(1, depth + 1):
        comps.append(ps.Component(lo_end, r + n, closed_start, False))
        if rng.random() < 0.7:
            span_lo = r + n
            span_hi = F(1) + n if prev_s is None else min(F(1) + n, prev_s + 1)
            num = rng.randrange(1, 8)
            s_n = span_lo + (span_hi - span_lo) * F(num, 8)
            comps.append(ps.point(s_n))
            prev_s = s_n
        else:
            prev_s = None  # a hole resets the drift constraint
        lo_end = F(1) + n
        closed_start = False
    m = depth + 1
    gl = F(rng.randrange(1, 5), 24)
    gr = F(rng.randrange(1, 5), 24)
    comps.append(ps.Component(lo_end, r + m - gl, closed_start, True))
    if rng.random() < 0.6:
        hi_cap = F(1) + m if prev_s is None else min(F(1) + m, prev_s + 1)
        if hi_cap > r + m:
            num = rng.randrange(0, 8)
            comps.append(ps.point(r + m + (hi_cap - (r + m)) * F(num, 8)))
    # Keep the tail inside the mod-1 band below 1-d so it cannot land on a
    # pinned-flat translate of the ladder's secondary gaps.
    tail = F(1) + m + gr
    comps.append(ps.Component(tail, tail + F(1, 4), True, True))
    return comps


def random_pass_instance(rng: random.Random) -> ps.PointSet:
    """Structurally-Pass families: one-cell clusters, far-apart cluster pairs,
    adjoint ladders, and singleton ladders with margin terminals (plus mirror
    images, exercising the open-closed orientation)."""
    kind = rng.randrange(4)
    if kind == 0:
        s = ps.normalize(_cluster(rng, F(0)))
    elif kind == 1:
        offset = F(rng.randrange(5, 9), 2)  # at least 5/2 of clear separation
        s = ps.normalize(_cluster(rng, F(0)) + _cluster(rng, offset))
    elif kind == 2:
        # Adjoint ladder: gap [1-d, 1) whose left unit translates are gaps.
        d = F(rng.randrange(1, 4), 8)
        depth = rng.randrange(1, 3)
        comps = [ps.Component(F(-k), F(1 - d - k), True, False) for k in range(depth + 1)]
        comps.append(ps.Component(F(1), F(3, 2), True, True))
        s = ps.normalize(comps)
    else:
        s = ps.normalize(_singleton_ladder(rng))
    if rng.random() < 0.25:
        s = ps.reflect(s)
    return s


def wide_span(k: int, mirror: bool = False) -> ps.PointSet:
    """[0, 1/2) u [1, 3/2] u [k, k+1/4], or its mirror image: one bad gap whose
    plan periods reach the far component across k empty unit cells."""
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.interval(1, F(3, 2)),
        ps.interval(k, k + F(1, 4)),
    )
    return ps.reflect(s) if mirror else s


def pinned_span(k: int, mirror: bool = False) -> ps.PointSet:
    """[0, 1/2) u [1, 3/2) u {7/4} u [k, k+1/4], or its mirror image.  The
    first right window of the gap holds 7/4 with a zero left margin (case
    B112), so the unit translates of the pinned flat [3/2, 7/4] reach k."""
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.interval(1, F(3, 2), True, False),
        ps.point(F(7, 4)),
        ps.interval(k, k + F(1, 4)),
    )
    return ps.reflect(s) if mirror else s


def weak_ladder(k: int, seed: int = 0) -> ps.PointSet:
    """Rungs on the 1/24 grid with exactly k half-open gaps between them, in
    both orientations and with tied lengths, plus one open or closed gap per
    four bad ones; a rung with both ends closed is sometimes a point."""
    rng = random.Random(seed)
    kinds = ["bad"] * k + ["good"] * (k // 4)
    rng.shuffle(kinds)
    # flags[i] = (lo_closed, hi_closed) of rung i; gap i sits after it.
    flags = [[True, True] for _ in range(len(kinds) + 1)]
    for i, kind in enumerate(kinds):
        left_in = rng.random() < 0.5
        flags[i][1] = left_in
        flags[i + 1][0] = (not left_in) if kind == "bad" else left_in
    comps = []
    x = F(rng.randrange(-48, 48), 24)
    for i, (lo_closed, hi_closed) in enumerate(flags):
        if i and lo_closed and hi_closed and rng.random() < 0.3:
            comps.append(ps.point(x))
        else:
            seg = F(rng.randrange(1, 12), 24)
            comps.append(ps.Component(x, x + seg, lo_closed, hi_closed))
            x += seg
        if i < len(kinds):
            x += F(rng.randrange(1, 6), 24)
    return ps.normalize(comps)


def fail_corpus() -> list[tuple[ps.PointSet, ps.Gap]]:
    """Provably unrepresentable instances: the target bad gap cannot be closed
    by any strictly increasing map preserving the unit threshold."""
    out = []
    # Family 1: bad gap of length >= 1.
    for j in range(10):
        shift = F(j, 24)
        s = ps.pointset(
            ps.interval(shift, shift + F(1, 4), True, False),
            ps.interval(shift + F(5, 4) + F(j, 48), shift + F(3, 2) + F(j, 48), True, True),
        )
        out.append((s, ps.bad_gaps(s)[0]))
    # Family 2: two points inside the first right window [r+1, w+1].
    for j in range(10):
        p1 = F(3, 2) + F(j + 1, 60)
        p2 = F(2) - F(j + 1, 60)
        s = ps.pointset(
            ps.interval(0, F(1, 2), True, False),
            ps.point(F(1)),
            ps.point(p1),
            ps.point(p2),
        )
        out.append((s, ps.bad_gaps(s)[0]))
    # Family 3: an interior occupant in the first left window [r-1, w-1).
    for j in range(10):
        p = F(j, 24)
        s = ps.pointset(
            ps.point(p),
            ps.interval(F(1, 2), 1, True, False),
            ps.interval(F(3, 2), 2, True, True),
        )
        target = next(g for g in ps.bad_gaps(s) if g.lo == 1)
        out.append((s, target))
    return out
