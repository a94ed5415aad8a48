"""Independent brute-force oracles for the tests.

Semiorders: the axiom search over all n^4 quadruples, every asymmetric
relation on n points filtered by it, an isomorphism key that tries all n!
relabelings, and the trace and irreducible cuts from their set definitions.

Probe points: a few members of each component, where tests check a map or
a set pointwise.

Lookups: linear-scan versions of the point-set queries, ``PLMap.apply``,
``plmap.image`` and ``plmap.compose``, which visit every component and every
piece where the package bisects to the overlapping ones.

Certificates: the threshold and strict-increase properties of a map checked
on every point of a dense grid of the set, and the witness contract.

Weak removal: the step loop that fuses one gap at a time, composing each
two-piece map onto the total map and re-reading the current set's gaps.

Threshold plans: the plan pieces and the pinned-flat translate chain as they
were built by walking every unit cell between the gap and inf or sup.

Threshold closing maps: a finite search for a threshold-preserving closing map.

Searches monotone rational assignments (denominators up to a bound) on the
sample points of a set, under the exact pair conditions any strictly
increasing map with x+1 < y <=> g(x)+1 < g(y) must satisfy, plus the limit
conditions forced by closing the target gap (the open side's limit value is
tied to the closed endpoint's value).  The pair conditions are first
tightened by exact difference-bound propagation so the per-variable grid
domains are as small as the constraints force; the search then enumerates
the remaining grid points.  Entirely separate from the package's
construction; used to confirm impossibility on the Fail corpus.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

from gapsmith import debreu, plmap
from gapsmith import pointset as ps
from gapsmith import semiorder as so
from gapsmith import threshold as th
from gapsmith.pointset import Gap, GapKind

_INF = F(10**9)


def axiom_witness(m) -> so.Verdict:
    """The first violating quadruple of either axiom in ``itertools.product`` order."""
    rng = range(len(m))
    for x, y, z, t in itertools.product(rng, repeat=4):
        if m[x][y] and m[z][t] and not m[x][t] and not m[z][y]:
            return so.Violates1(x, y, z, t)
    for x, y, z in itertools.product(rng, repeat=3):
        if m[x][y] and m[y][z]:
            for w in rng:
                if not m[x][w] and not m[w][z]:
                    return so.Violates2(x, y, z, w)
    return so.Valid()


def trace_weak(r: so.Semiorder) -> tuple[tuple[bool, ...], ...]:
    """x trace-below y iff every z below x is below y and every z above y is above x."""
    n, m = r.n, r.strict
    return tuple(
        tuple(
            all((not m[z][x] or m[z][y]) and (not m[y][z] or m[x][z]) for z in range(n))
            for y in range(n)
        )
        for x in range(n)
    )


def irreducible_blocks(r: so.Semiorder) -> list[list[int]]:
    """Cut blocks found by testing every prefix of a trace linear extension."""
    weak = trace_weak(r)
    order = sorted(range(r.n), key=lambda x: (sum(weak[y][x] for y in range(r.n)), x))
    blocks: list[list[int]] = []
    start = 0
    for cut in range(1, r.n):
        if all(r.strict[a][b] for a in order[start:cut] for b in order[cut:]):
            blocks.append(sorted(order[start:cut]))
            start = cut
    blocks.append(sorted(order[start:]))
    return blocks


def asymmetric_relations(n: int):
    """All 3^C(n,2) asymmetric irreflexive relations on n points, as lists of rows."""
    pairs = list(itertools.combinations(range(n), 2))
    for code in itertools.product((0, 1, 2), repeat=len(pairs)):
        m = [[False] * n for _ in range(n)]
        for (i, j), c in zip(pairs, code):
            if c == 1:
                m[i][j] = True
            elif c == 2:
                m[j][i] = True
        yield m


def labeled_semiorders(n: int) -> set[tuple[tuple[bool, ...], ...]]:
    """Every semiorder on n labeled points, out of all 3^C(n,2) asymmetric relations."""
    return {
        tuple(map(tuple, m))
        for m in asymmetric_relations(n)
        if isinstance(axiom_witness(m), so.Valid)
    }


def canonical_form(strict) -> bytes:
    """Isomorphism-invariant key: the least matrix bits over all relabelings."""
    n = len(strict)
    return min(
        bytes(strict[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in itertools.permutations(range(n))
    )


# -- probe points ----------------------------------------------------------------


def sample_points(s: ps.PointSet) -> list[F]:
    """Probe points of ``s`` for tests, sorted: every point component, the
    member endpoints of each interval and its three quarter points."""
    if not s:
        raise ps.EmptySet("no samples of the empty set")
    pts: set[F] = set()
    for c in s.components:
        if c.is_point:
            pts.add(c.lo)
            continue
        if c.lo_closed:
            pts.add(c.lo)
        if c.hi_closed:
            pts.add(c.hi)
        quarter = c.length / 4
        pts.update((c.lo + quarter, c.lo + 2 * quarter, c.lo + 3 * quarter))
    return sorted(pts)


# -- lookups ---------------------------------------------------------------------


def contains(s: ps.PointSet, x: F) -> bool:
    return any(c.contains(x) for c in s.components)


def members_in_interval(s: ps.PointSet, lo: F, hi: F) -> list[F] | None:
    found: list[F] = []
    for c in s.components:
        a, b = max(c.lo, lo), min(c.hi, hi)
        if a > b:
            continue
        if a < b:
            return None
        if c.contains(a):
            found.append(a)
    return sorted(found)


def closure_gap_below(s: ps.PointSet, x: F) -> F | None:
    best = None
    for c in s.components:
        if c.lo >= x:
            break
        d = x - min(c.hi, x)
        if best is None or d < best:
            best = d
    return best


def closure_gap_above(s: ps.PointSet, x: F) -> F | None:
    best = None
    for c in reversed(s.components):
        if c.hi <= x:
            break
        d = max(c.lo, x) - x
        if best is None or d < best:
            best = d
    return best


def apply(m: plmap.PLMap, x: F) -> F:
    """Value of the rightmost piece containing ``x``."""
    for p in reversed(m.pieces):
        if p.contains(x):
            return p.value(x)
    raise plmap.OutOfDomain(f"{x} not in the map domain")


def image(m: plmap.PLMap, s: ps.PointSet) -> ps.PointSet:
    parts: list[ps.Component] = []
    for c in s.components:
        covered = c.lo
        any_piece = False
        for p in m.pieces:
            a, b = max(p.lo, c.lo), min(p.hi, c.hi)
            if a > b:
                continue
            if (not any_piece and a > c.lo) or (any_piece and a > covered):
                raise plmap.OutOfDomain(f"component {c} not fully covered")
            any_piece = True
            covered = b
            va, vb = p.value(a), p.value(b)
            if a == b:
                if c.contains(a):
                    parts.append(ps.point(va))
                continue
            lo_cl = c.lo_closed if a == c.lo else True
            hi_cl = c.hi_closed if b == c.hi else True
            if va == vb:
                parts.append(ps.point(va))
            else:
                parts.append(ps.Component(va, vb, lo_cl, hi_cl))
        if not any_piece or covered < c.hi:
            raise plmap.OutOfDomain(f"component {c} not fully covered")
    return ps.normalize(parts)


def compose(outer: plmap.PLMap, inner: plmap.PLMap) -> plmap.PLMap:
    segments = []
    for p in inner.pieces:
        for c in inner.domain_hint.components:
            a, b = max(p.lo, c.lo), min(p.hi, c.hi)
            if a <= b:
                segments.append((a, b, p))
    pieces: list[plmap.AffinePiece] = []
    for seg_lo, seg_hi, p in segments:
        v_lo, v_hi = p.value(seg_lo), p.value(seg_hi)
        if p.slope == 0 or seg_lo == seg_hi:
            try:
                w = apply(outer, v_lo)
            except plmap.OutOfDomain as exc:
                raise plmap.DomainMismatch(str(exc)) from exc
            if seg_lo < seg_hi or not pieces or pieces[-1].hi < seg_lo:
                pieces.append(plmap.AffinePiece(seg_lo, seg_hi, F(0), w, tag=p.tag))
            continue
        covered = v_lo
        first = True
        for q in outer.pieces:
            a, b = max(q.lo, v_lo), min(q.hi, v_hi)
            if a > b:
                continue
            if (first and a > v_lo) or (not first and a > covered):
                raise plmap.DomainMismatch(f"outer map has a hole inside [{v_lo}, {v_hi}]")
            first = False
            u = (a - p.intercept) / p.slope
            v = (b - p.intercept) / p.slope
            if u < v or not pieces or pieces[-1].hi < u:
                pieces.append(
                    plmap.AffinePiece(
                        u, v, q.slope * p.slope, q.slope * p.intercept + q.intercept,
                        tag=p.tag or q.tag,
                    )
                )
            covered = b
        if first or covered < v_hi:
            raise plmap.DomainMismatch(f"inner image [{v_lo}, {v_hi}] not covered")
    pieces.sort(key=lambda q: (q.lo, q.hi))
    deduped: list[plmap.AffinePiece] = []
    for q in pieces:
        if deduped and q.lo < deduped[-1].hi:
            continue
        if deduped and q.lo == q.hi == deduped[-1].hi:
            continue
        deduped.append(q)
    merged: list[plmap.AffinePiece] = []
    for q in deduped:
        last = merged[-1] if merged else None
        if (last and last.hi == q.lo and last.slope == q.slope
                and last.intercept == q.intercept):
            merged[-1] = plmap.AffinePiece(last.lo, q.hi, last.slope, last.intercept, last.tag)
        else:
            merged.append(q)
    return plmap.PLMap(tuple(merged), inner.domain_hint)


# -- certificates ----------------------------------------------------------------


def grid_members(m: plmap.PLMap, s: ps.PointSet, step: F) -> tuple[list[F], list[F]]:
    """The members of ``s`` on the ``step`` grid and their values under ``m``."""
    count = int((s.sup - s.inf) / step) + 1
    xs = [t for t in (s.inf + k * step for k in range(count)) if contains(s, t)]
    return xs, [apply(m, x) for x in xs]


def increase_violation_on_grid(m: plmap.PLMap, s: ps.PointSet, step: F) -> tuple[F, F] | None:
    """Two neighbouring grid members x < y with f(x) >= f(y)."""
    xs, fs = grid_members(m, s, step)
    for i in range(len(xs) - 1):
        if fs[i] >= fs[i + 1]:
            return xs[i], xs[i + 1]
    return None


def threshold_violation_on_grid(m: plmap.PLMap, s: ps.PointSet, step: F) -> tuple[F, F] | None:
    """A grid pair breaking x+1 < y <=> f(x)+1 < f(y), found by bisecting x+1
    into the grid and comparing f(x)+1 with the largest value at or below it
    and the smallest beyond it."""
    xs, fs = grid_members(m, s, step)
    most = list(itertools.accumulate(fs, max))
    least = list(itertools.accumulate(reversed(fs), min))[::-1]
    for x, fx in zip(xs, fs):
        j = bisect_right(xs, x + 1)
        if most[j - 1] > fx + 1 or (j < len(xs) and least[j] <= fx + 1):
            return next((x, y) for y, fy in zip(xs, fs) if (x + 1 < y) != (fx + 1 < fy))
    return None


def breaks_increase(m: plmap.PLMap, s: ps.PointSet, pair: tuple[F, F]) -> bool:
    """True iff ``pair`` is a pair of members x < y with f(x) >= f(y)."""
    x, y = pair
    return contains(s, x) and contains(s, y) and x < y and apply(m, x) >= apply(m, y)


def breaks_threshold(m: plmap.PLMap, s: ps.PointSet, pair: tuple[F, F]) -> bool:
    """True iff ``pair`` is a pair of members with x+1 < y but not f(x)+1 < f(y), or back."""
    x, y = pair
    return (
        contains(s, x)
        and contains(s, y)
        and (x + 1 < y) != (apply(m, x) + 1 < apply(m, y))
    )


# -- weak removal ------------------------------------------------------------------


def stepwise_removal(s: ps.PointSet, eps: F | None = None) -> debreu.RemovalTrace:
    """``remove_all`` (or ``remove_until(s, eps)``) by k composed fuses.

    Each step reads the biggest bad gap of the current set, fuses it with
    ``remove_one`` and composes that map onto the total map; a step's map is
    the one fused here.
    """
    width = s.span
    order = ps.bad_gaps_biggest_first(s)
    gmap = plmap.identity(s)
    current = s
    steps = []
    for n, g0 in enumerate(order, start=1):
        cur = Gap(gmap.apply(g0.lo), gmap.apply(g0.hi), g0.kind)
        if eps is not None and cur.length < eps:
            break
        if ps.bad_gaps_biggest_first(current)[0] != cur:
            raise AssertionError("removal order drifted from the original ordering")
        fmap, after = debreu.remove_one(current, cur)
        steps.append(
            debreu.RemovalStep(
                index=n,
                gap_before=g0,
                current_gap=cur,
                delta=g0.length / width,
                l=cur.length / width,
                fuse=lambda fmap=fmap: fmap,
            )
        )
        gmap = plmap.compose(fmap, gmap)
        current = after
    return debreu.RemovalTrace(tuple(steps), gmap, current)


# -- threshold plans ---------------------------------------------------------------


def meets_material(s: ps.PointSet, lo: F, hi: F) -> bool:
    """Whether [lo, hi] meets the closure of some component of ``s``."""
    return any(c.lo <= hi and lo <= c.hi for c in s.components)


def dense_co_pieces(frame, r, w, left, right):
    """``threshold._co_pieces`` as it walked every unit cell from the gap to
    inf and sup: the same pieces plus those over cells holding no material."""
    delta = w - r
    expand = 1 / (1 - delta)
    a_lo, b_hi = frame.inf, frame.sup
    trim = (1 - delta) / 2
    notes = []
    pieces = []

    def az(t):
        return th._azone_value(t, r, w, expand)

    def add(lo, hi, v_lo, v_hi, tag):
        if lo == hi:
            return
        lo2, hi2 = max(lo, a_lo), min(hi, b_hi)
        if lo2 >= hi2:
            return
        slope = (v_hi - v_lo) / (hi - lo)
        pieces.append(plmap.AffinePiece(lo2, hi2, slope, v_lo - slope * lo, tag=tag))

    m_left = left.m if left.terminal == "b" else None
    m_right = right.m if right.terminal == "b" else None
    if m_left is not None:
        gl_l, gr_l = min(left.gamma_l, trim), min(left.gamma_r, trim)
    if m_right is not None:
        gl_r, gr_r = min(right.gamma_l, trim), min(right.gamma_r, trim)
        notes.append(
            "right-side expansion strips anchored one unit up from the printed "
            "domains so that the pieces tile"
        )

    n = 0
    while True:
        cell_bot = w - 1 - n
        stretch_lo = cell_bot
        if m_left is not None and n == m_left - 1:
            stretch_lo = w - m_left + gr_l
        add(stretch_lo, r - n, az(stretch_lo), w - n, "Lambda1")
        add(r - n, w - n, F(w - n), F(w - n), "Lambda3")
        n += 1
        if m_left is not None:
            if n == m_left:
                break
        elif cell_bot <= a_lo:
            break

    if m_left is not None:
        w_lo, w_hi = r - m_left - gl_l, w - m_left + gr_l
        img_lo, img_hi = w - m_left - gl_l * expand, w - m_left + gr_l * expand
        window = []
        if left.singleton is None:
            window.append((w_lo, w_hi, img_lo, img_hi, "ContractionC"))
        else:
            s = left.singleton
            fs = az(s + 1) - 1
            if s > w_lo:
                window.append((w_lo, s, img_lo, fs, "ContractionC1"))
            if s < w_hi:
                window.append((s, w_hi, fs, img_hi, "ContractionC2"))
        for seg in window:
            add(*seg)
        period_top = r - m_left + 1 - gl_l
        period = window + [(w_hi, period_top, az(w_hi), az(period_top), "Lambda2")]
        j = 1
        while period_top - j > a_lo:
            for (u, v, vu, vv, tag) in period:
                add(u - j, v - j, vu - j, vv - j, tag)
            j += 1

    if m_right is not None or b_hi > w:
        n = 1
        while True:
            cell_bot = w + n - 1
            if m_right is None and cell_bot >= b_hi:
                break
            if m_right is not None and n == m_right:
                add(cell_bot, r + n - gl_r, az(cell_bot), az(r + n - gl_r), "Lambda1")
                break
            add(cell_bot, r + n, az(cell_bot), F(w + n), "Lambda1")
            add(r + n, w + n, F(w + n), F(w + n), "Lambda3")
            n += 1

    if m_right is not None:
        w_lo, w_hi = r + m_right - gl_r, w + m_right + gr_r
        img_lo, img_hi = w + m_right - gl_r * expand, w + m_right + gr_r * expand
        window = []
        if right.singleton is None:
            window.append((w_lo, w_hi, img_lo, img_hi, "ContractionC"))
        else:
            s = right.singleton
            fs = az(s - 1) + 1
            if s > w_lo:
                window.append((w_lo, s, img_lo, fs, "ContractionC1"))
            if s < w_hi:
                window.append((s, w_hi, fs, img_hi, "ContractionC2"))
        for seg in window:
            add(*seg)
        period_bot = w + m_right - 1 + gr_r
        period = [(period_bot, w_lo, az(period_bot), img_lo, "Lambda2")] + window
        j = 1
        while period_bot + j < b_hi:
            for (u, v, vu, vv, tag) in period:
                add(u + j, v + j, vu + j, vv + j, tag)
            j += 1

    pieces.sort(key=lambda p: (p.lo, p.hi))
    notes.extend(left.notes)
    notes.extend(right.notes)
    return tuple(pieces), tuple(dict.fromkeys(notes))


def translate_chain_walk(d: ps.PointSet, u: F, v: F, anchor: F) -> bool:
    """``structure._translate_chain_ok`` probing every unit translate up to sup."""
    q_prev = anchor
    k = 1
    while u + k <= d.sup:
        members = members_in_interval(d, u + k, v + k)
        if members is None or len(members) > 1:
            return False
        if members:
            q = members[0]
            if q_prev is not None and q > q_prev + 1:
                return False
            q_prev = q
        else:
            q_prev = None
        k += 1
    return True


def _grid(lo: F, hi: F, max_den: int) -> list[F]:
    vals = set()
    for q in range(1, max_den + 1):
        for p in range(int(lo * q) - 1, int(hi * q) + 2):
            v = F(p, q)
            if lo <= v <= hi:
                vals.add(v)
    return sorted(vals)


class _Bounds:
    def __init__(self):
        self.lo, self.hi = -_INF, _INF
        self.lo_strict = self.hi_strict = False

    def raise_lo(self, v: F, strict: bool) -> None:
        if v > self.lo:
            self.lo, self.lo_strict = v, strict
        elif v == self.lo:
            self.lo_strict = self.lo_strict or strict

    def drop_hi(self, v: F, strict: bool) -> None:
        if v < self.hi:
            self.hi, self.hi_strict = v, strict
        elif v == self.hi:
            self.hi_strict = self.hi_strict or strict


def _constraints(xs: list[F], iw: int, r: F) -> list[tuple[int, int, F, bool]]:
    """Edges (u, v, c, strict): y_v - y_u <= c (strict when flagged)."""
    k = len(xs)
    edges: list[tuple[int, int, F, bool]] = []
    for j in range(1, k):
        edges.append((j, j - 1, F(0), True))  # y_{j-1} < y_j
        for i in range(j):
            if xs[i] + 1 < xs[j]:
                edges.append((j, i, F(-1), True))  # y_i + 1 < y_j
            else:
                edges.append((i, j, F(1), False))  # y_j <= y_i + 1
    for i in range(iw):
        if xs[i] + 1 < r:
            edges.append((iw, i, F(-1), False))  # y_i + 1 <= y_w
        else:
            edges.append((i, iw, F(1), False))  # y_w <= y_i + 1
    for j in range(iw + 1, k):
        if xs[j] >= r + 1:
            edges.append((j, iw, F(-1), False))  # y_w + 1 <= y_j
        else:
            edges.append((iw, j, F(1), False))  # y_j <= y_w + 1
    return edges


def _tighten(k: int, edges) -> list[list[tuple[F, bool]]] | None:
    """All-pairs tightest difference bounds; None when infeasible."""
    dist = [[(_INF, False)] * k for _ in range(k)]
    for u in range(k):
        dist[u][u] = (F(0), False)
    for u, v, c, strict in edges:
        cur_c, cur_s = dist[u][v]
        if c < cur_c:
            dist[u][v] = (c, strict)
        elif c == cur_c and strict and not cur_s:
            dist[u][v] = (c, True)
    for mid in range(k):
        for u in range(k):
            dmu = dist[u][mid]
            if dmu[0] >= _INF:
                continue
            for v in range(k):
                dmv = dist[mid][v]
                if dmv[0] >= _INF:
                    continue
                cand = (dmu[0] + dmv[0], dmu[1] or dmv[1])
                cur = dist[u][v]
                if cand[0] < cur[0] or (cand[0] == cur[0] and cand[1] and not cur[1]):
                    dist[u][v] = cand
    for u in range(k):
        c, strict = dist[u][u]
        if c < 0 or (c == 0 and strict):
            return None
    return dist


def exists_threshold_closing_map(
    s: ps.PointSet, gap: Gap, max_den: int = 24, node_cap: int = 500_000
) -> bool:
    """True iff some grid assignment closes ``gap`` and respects the threshold."""
    if gap.kind == GapKind.OPEN_CLOSED:
        return exists_threshold_closing_map(
            ps.reflect(s),
            Gap(-gap.hi, -gap.lo, GapKind.CLOSED_OPEN),
            max_den,
            node_cap,
        )
    r, w = gap.lo, gap.hi
    xs = sample_points(s)
    iw = xs.index(w)
    k = len(xs)
    edges = _constraints(xs, iw, r)
    dist = _tighten(k, edges)
    if dist is None:
        return False  # the grid search below would exhaust with empty domains
    grid = _grid(-s.span - 2, s.span + 2, max_den)
    ys: list[F] = []
    nodes = 0

    def bounds(j: int) -> _Bounds:
        b = _Bounds()
        # Static clamps relative to y_0 = 0 from the tightened system.
        c, strict = dist[0][j]
        if c < _INF:
            b.drop_hi(c, strict)
        c, strict = dist[j][0]
        if c < _INF:
            b.raise_lo(-c, strict)
        b.raise_lo(ys[j - 1], True)
        for i in range(j):
            if xs[i] + 1 < xs[j]:
                b.raise_lo(ys[i] + 1, True)
            else:
                b.drop_hi(ys[i] + 1, False)
        if j == iw:
            for i in range(j):
                if xs[i] + 1 < r:
                    b.raise_lo(ys[i] + 1, False)
                else:
                    b.drop_hi(ys[i] + 1, False)
        elif j > iw:
            yw = ys[iw]
            if xs[j] >= r + 1:
                b.raise_lo(yw + 1, False)
            else:
                b.drop_hi(yw + 1, False)
        return b

    def search(j: int) -> bool:
        nonlocal nodes
        if j == k:
            return True
        nodes += 1
        if nodes > node_cap:
            raise RuntimeError("oracle search exceeded its node cap")
        if j == 0:
            ys.append(F(0))
            ok = search(1)
            if not ok:
                ys.pop()
            return ok
        b = bounds(j)
        a = bisect_right(grid, b.lo) if b.lo_strict else bisect_left(grid, b.lo)
        z = bisect_left(grid, b.hi) if b.hi_strict else bisect_right(grid, b.hi)
        for idx in range(a, z):
            ys.append(grid[idx])
            if search(j + 1):
                return True
            ys.pop()
        return False

    return search(0)
