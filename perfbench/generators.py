"""Seeded input generators for the four benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data built only
from ``gapsmith.pointset`` components, so the program under test sees
generated inputs and nothing of the seed.  Input sizes are stratified: each
pool walks a fixed size ladder in seeded order, so the size mix of the ops a
run executes is the same for every seed and only the geometry changes.  That
keeps the per-run medians comparable across seeds.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

from gapsmith import pointset as ps

WEAK_DEN = 997  # prime grid: denominators stay informative and ties are absent
WEAK_GAPS = range(12, 33)  # half-open gaps per weak-dense presentation
CLUSTER_DEN = 40
WIDE_K = (200, 1200)  # far component offset of strong-wide-span
SEMIORDER_N = 5


def ladder(rng: random.Random, rungs: list, size: int) -> list:
    """``size`` items cycling through ``rungs``, each cycle in seeded order."""
    out: list = []
    while len(out) < size:
        block = list(rungs)
        rng.shuffle(block)
        out.extend(block)
    return out[:size]


# -- weak-dense -----------------------------------------------------------------


def weak_presentation(rng: random.Random, bad: int) -> ps.PointSet:
    """Intervals on the 1/997 grid with exactly ``bad`` half-open gaps.

    A fifth as many open or closed gaps are mixed in.  Gap lengths are
    distinct, so the biggest-first order has no ties.
    """
    kinds = ["bad"] * bad + ["good"] * (bad // 5)
    rng.shuffle(kinds)
    lengths = rng.sample(range(1, 400), len(kinds))
    x = F(rng.randrange(-2 * WEAK_DEN, 2 * WEAK_DEN), WEAK_DEN)
    # flags[i] = (lo_closed, hi_closed) of component i; gap i sits after it.
    flags = [[True, True] for _ in range(len(kinds) + 1)]
    for i, kind in enumerate(kinds):
        left_in = rng.random() < 0.5
        right_in = (not left_in) if kind == "bad" else left_in
        flags[i][1] = left_in
        flags[i + 1][0] = right_in
    comps = []
    for i, (lo_closed, hi_closed) in enumerate(flags):
        seg = F(rng.randrange(1, 120), WEAK_DEN)
        comps.append(ps.Component(x, x + seg, lo_closed, hi_closed))
        x += seg
        if i < len(kinds):
            x += F(lengths[i], WEAK_DEN)
    return ps.normalize(comps)


def weak_pool(rng: random.Random, size: int) -> list[ps.PointSet]:
    return [weak_presentation(rng, k) for k in ladder(rng, list(WEAK_GAPS), size)]


# -- strong-clusters --------------------------------------------------------------


def cluster(rng: random.Random, origin: F, bad: int) -> list[ps.Component]:
    """Components inside [origin, origin + 1) with exactly ``bad`` half-open gaps.

    The outer ends are closed, so the cluster contributes no half-open gap
    toward its neighbours, and every unit translate of an internal gap
    leaves the cluster.
    """
    den = CLUSTER_DEN
    kinds = ["bad"] * bad + ["good"] * rng.randrange(0, 2)
    rng.shuffle(kinds)
    flags = [[True, True] for _ in range(len(kinds) + 1)]
    for i, kind in enumerate(kinds):
        left_in = rng.random() < 0.5
        flags[i][1] = left_in
        flags[i + 1][0] = (not left_in) if kind == "bad" else left_in
    x = origin + F(rng.randrange(0, 4), den)
    comps = []
    for lo_closed, hi_closed in flags:
        seg = F(rng.randrange(1, 5), den)
        comps.append(ps.Component(x, x + seg, lo_closed, hi_closed))
        x += seg + F(rng.randrange(1, 5), den)
    return comps


def clusters(rng: random.Random, count: int) -> ps.PointSet:
    """``count`` clusters holding 1 or 2 bad gaps each, origins 5/2 to 4 apart."""
    comps: list[ps.Component] = []
    origin = F(0)
    for j in range(count):
        comps.extend(cluster(rng, origin, 1 + j % 2))
        origin += F(rng.randrange(5, 9), 2)
    return ps.normalize(comps)


def adjoint_ladder(rng: random.Random) -> ps.PointSet:
    """Gap [1-d, 1) whose left unit translates are gaps of the same shape."""
    d = F(rng.randrange(1, 4), 8)
    depth = rng.randrange(1, 4)
    comps = [ps.Component(F(-k), 1 - d - k, True, False) for k in range(depth + 1)]
    comps.append(ps.Component(F(1), F(3, 2), True, True))
    return ps.normalize(comps)


def singleton_ladder(rng: random.Random) -> ps.PointSet:
    """Gap [1-d, 1) with drifting singletons in its right translates.

    The chain ends in a margin window holding at most one point, followed by
    a closed tail inside the band below 1 - d.
    """
    d = F(rng.randrange(6, 13), 24)
    r = 1 - d
    comps = [ps.Component(F(0), r, True, False)]
    prev = F(1)  # last singleton; None after a hole resets the drift bound
    lo, lo_closed = F(1), True
    depth = rng.randrange(0, 3)
    for n in range(1, depth + 1):
        comps.append(ps.Component(lo, r + n, lo_closed, False))
        if rng.random() < 0.7:
            top = F(1) + n if prev is None else min(F(1) + n, prev + 1)
            prev = r + n + (top - r - n) * F(rng.randrange(1, 8), 8)
            comps.append(ps.point(prev))
        else:
            prev = None
        lo, lo_closed = F(1) + n, False
    m = depth + 1
    gamma_l = F(rng.randrange(1, 5), 24)
    gamma_r = F(rng.randrange(1, 5), 24)
    comps.append(ps.Component(lo, r + m - gamma_l, lo_closed, True))
    if rng.random() < 0.6:
        top = F(1) + m if prev is None else min(F(1) + m, prev + 1)
        if top > r + m:
            comps.append(ps.point(r + m + (top - r - m) * F(rng.randrange(0, 8), 8)))
    tail = F(1) + m + gamma_r
    comps.append(ps.Component(tail, tail + F(1, 4), True, True))
    return ps.normalize(comps)


# Family ladder of strong-clusters: the ROADMAP families plus 3-6 cluster sets.
# Costs step up between families, and a percentile on a step jumps between
# them from run to run.  Three-cluster sets (cost within about 10 %) take
# three of the twelve rungs, so the median falls inside them, and six-cluster
# sets take two, so the 90th percentile falls inside those.
CLUSTER_FAMILIES = ("cluster1", "adjoint", "singleton", "pair", "pair",
                    "clusters3", "clusters3", "clusters3",
                    "clusters4", "clusters5", "clusters6", "clusters6")


def strong_instance(rng: random.Random, family: str) -> ps.PointSet:
    if family == "cluster1":
        s = clusters(rng, 1)
    elif family == "pair":
        s = clusters(rng, 2)
    elif family == "adjoint":
        s = adjoint_ladder(rng)
    elif family == "singleton":
        s = singleton_ladder(rng)
    else:
        s = clusters(rng, int(family.removeprefix("clusters")))
    if rng.random() < 0.25:
        s = ps.reflect(s)
    return s


def strong_pool(rng: random.Random, size: int) -> list[ps.PointSet]:
    return [strong_instance(rng, f) for f in ladder(rng, list(CLUSTER_FAMILIES), size)]


# -- strong-wide-span ---------------------------------------------------------------


def wide_instance(k: int, mirror: bool) -> ps.PointSet:
    """[0, 1/2) u [1, 3/2] u [K, K + 1/4], or its mirror image."""
    s = ps.normalize([
        ps.Component(F(0), F(1, 2), True, False),
        ps.Component(F(1), F(3, 2), True, True),
        ps.Component(F(k), F(k) + F(1, 4), True, True),
    ])
    return ps.reflect(s) if mirror else s


def wide_pool(rng: random.Random, size: int) -> list[ps.PointSet]:
    """K on ``size`` evenly spaced values, every other one mirrored, in seeded order.

    The cost of one removal jumps by 20 % between nearby K, so the values
    are fixed and the seed only sets their order: a seeded K would move the
    median by that much from seed to seed.
    """
    lo, hi = WIDE_K
    rungs = [(lo + (hi - lo) * i // (size - 1), i % 2 == 1) for i in range(size)]
    rng.shuffle(rungs)
    return [wide_instance(k, mirror) for k, mirror in rungs]


# -- semiorder-n5 -----------------------------------------------------------------


def is_semiorder(m) -> bool:
    """Both semiorder axioms on an irreflexive asymmetric 0/1 matrix.

    No 2+2: x<y and z<t force x<t or z<y.  No 3+1: x<y<z forces every w to
    satisfy x<w or w<z.
    """
    n = len(m)
    below = [(x, y) for x in range(n) for y in range(n) if m[x][y]]
    for x, y in below:
        for z, t in below:
            if not m[x][t] and not m[z][y]:
                return False
        for y2, z in below:
            if y2 == y and any(not m[x][w] and not m[w][z] for w in range(n)):
                return False
    return True


def labeled_semiorders(n: int) -> list[tuple[tuple[bool, ...], ...]]:
    """Every semiorder on n labeled points, by brute force over 3^C(n,2) codes."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for code in itertools.product((0, 1, 2), repeat=len(pairs)):
        m = [[False] * n for _ in range(n)]
        for (i, j), c in zip(pairs, code):
            if c == 1:
                m[i][j] = True
            elif c == 2:
                m[j][i] = True
        if is_semiorder(m):
            out.append(tuple(tuple(row) for row in m))
    return out


def semiorder_pool(rng: random.Random) -> list[tuple[tuple[bool, ...], ...]]:
    """All labeled semiorders on 5 points, in seeded order."""
    pool = labeled_semiorders(SEMIORDER_N)
    rng.shuffle(pool)
    return pool
