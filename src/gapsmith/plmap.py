"""Strictly increasing piecewise-affine maps with exact rational coefficients.

Pieces are closed intervals in increasing order.  Neighbours may share an
endpoint, where the right-hand piece gives the value, and may leave holes
where the host set has no material.  ``apply`` bisects each map's endpoint
lists, computed once per map on first use; ``image``, ``compose`` and
``atoms`` walk the pieces and components that meet an interval with the one
overlap walk, ``pointset.overlapping``.

The two certificates, strict increase and x+1 < y <=> f(x)+1 < f(y), are
decided exactly over the whole host set, not on a sample.  Both run on its
atoms: the member points and the open stretches between consecutive piece
ends, on each of which the map is affine.  With A atoms and P pieces the
work is O(A log P).  A failing check returns a witness pair of members.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import groupby
from typing import Iterator, NamedTuple, Optional, Sequence

from . import pointset as ps
from .rationals import format_rational, parse_rational


class OutOfDomain(ValueError):
    """Point not covered by any piece."""


class DomainMismatch(ValueError):
    """Inner image escapes the outer map's domain."""


@dataclass(frozen=True)
class AffinePiece:
    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction
    tag: str = ""

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"piece with lo > hi: {self}")
        if self.slope < 0:
            raise ValueError(f"negative slope: {self}")

    def value(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def to_json_dict(self) -> dict:
        out = {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "slope": format_rational(self.slope),
            "intercept": format_rational(self.intercept),
        }
        if self.tag:
            out["tag"] = self.tag
        return out


@dataclass(frozen=True)
class PLMap:
    pieces: tuple[AffinePiece, ...]
    domain_hint: ps.PointSet

    def __post_init__(self) -> None:
        # Pieces are in order and do not overlap, so both endpoint lists are
        # sorted.  At a shared endpoint apply() takes the right-hand piece,
        # whose value there may jump above the left-hand piece's but never
        # falls below it; equal values there mean continuity.
        for a, b in zip(self.pieces, self.pieces[1:]):
            if b.lo < a.hi:
                raise ValueError(f"overlapping pieces: {a} / {b}")
            if b.value(b.lo) < a.value(a.hi):
                raise ValueError(f"decreasing across boundary at {a.hi}")

    @cached_property
    def los(self) -> list[Fraction]:
        """Lower endpoints of the pieces, non-decreasing."""
        return [p.lo for p in self.pieces]

    @cached_property
    def his(self) -> list[Fraction]:
        """Upper endpoints of the pieces, non-decreasing."""
        return [p.hi for p in self.pieces]

    @cached_property
    def domain_atoms(self) -> list[Atom]:
        """``domain_hint`` cut at every piece end (see :func:`atoms`)."""
        return atoms(self, self.domain_hint)

    def piece_at(self, x: Fraction) -> AffinePiece:
        """The piece that gives the value at ``x``."""
        # The rightmost piece starting at or before x is the only candidate:
        # any earlier piece ends at or before its start.
        i = bisect_right(self.los, x) - 1
        if i >= 0 and self.pieces[i].contains(x):
            return self.pieces[i]
        raise OutOfDomain(f"{x} not in the map domain")

    def apply(self, x: Fraction) -> Fraction:
        return self.piece_at(x).value(x)

    def to_json_dict(self) -> dict:
        return {
            "pieces": [p.to_json_dict() for p in self.pieces],
            "domain": self.domain_hint.to_json_dict(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())


def from_json_dict(obj: dict) -> PLMap:
    pieces = tuple(
        AffinePiece(
            parse_rational(p["lo"]),
            parse_rational(p["hi"]),
            parse_rational(p["slope"]),
            parse_rational(p["intercept"]),
            p.get("tag", ""),
        )
        for p in obj["pieces"]
    )
    return PLMap(pieces, ps.from_json_dict(obj["domain"]))


def loads(text: str) -> PLMap:
    return from_json_dict(json.loads(text))


def identity(s: ps.PointSet) -> PLMap:
    piece = AffinePiece(s.inf, s.sup, Fraction(1), Fraction(0), tag="Identity")
    return PLMap((piece,), s)


def compose(outer: PLMap, inner: PLMap) -> PLMap:
    """Single map equal to outer∘inner, with the refined piece partition.

    Only the closure of inner's domain_hint is composed; the outer map may
    have holes over regions the inner image never reaches.  Each inner piece
    meets the components that overlap it, and each resulting segment meets
    the outer pieces that overlap its value range.
    """
    d = inner.domain_hint
    segments = [
        (max(p.lo, c.lo), min(p.hi, c.hi), p)
        for p in inner.pieces
        for c in ps.overlapping(d.components, d.his, p.lo, p.hi)
    ]
    pieces: list[AffinePiece] = []
    try:
        for seg_lo, seg_hi, p in segments:
            v_lo, v_hi = p.value(seg_lo), p.value(seg_hi)
            if p.slope == 0 or seg_lo == seg_hi:
                w = outer.apply(v_lo)
                if seg_lo < seg_hi or not pieces or pieces[-1].hi < seg_lo:
                    pieces.append(AffinePiece(seg_lo, seg_hi, Fraction(0), w, tag=p.tag))
                continue
            for a, b, q in _cover(outer, v_lo, v_hi):
                # p maps seg_lo to v_lo and seg_hi to v_hi exactly.
                u = seg_lo if a == v_lo else (a - p.intercept) / p.slope
                v = seg_hi if b == v_hi else (b - p.intercept) / p.slope
                if u < v or not pieces or pieces[-1].hi < u:
                    pieces.append(
                        AffinePiece(
                            u,
                            v,
                            q.slope * p.slope,
                            q.slope * p.intercept + q.intercept,
                            tag=p.tag or q.tag,
                        )
                    )
    except OutOfDomain as exc:
        raise DomainMismatch(str(exc)) from exc
    pieces.sort(key=lambda q: (q.lo, q.hi))
    deduped: list[AffinePiece] = []
    for q in pieces:
        if deduped and q.lo < deduped[-1].hi:
            continue  # duplicate coverage from segments sharing an endpoint
        if deduped and q.lo == q.hi == deduped[-1].hi:
            continue
        deduped.append(q)
    merged = _coalesce(deduped)
    return PLMap(tuple(merged), inner.domain_hint)


def _coalesce(pieces: Sequence[AffinePiece]) -> list[AffinePiece]:
    out: list[AffinePiece] = []
    for p in pieces:
        if (
            out
            and out[-1].hi == p.lo
            and out[-1].slope == p.slope
            and out[-1].intercept == p.intercept
        ):
            out[-1] = replace(out[-1], hi=p.hi)
        else:
            out.append(p)
    return out


def _cover(
    m: PLMap, lo: Fraction, hi: Fraction
) -> Iterator[tuple[Fraction, Fraction, AffinePiece]]:
    """``(a, b, piece)`` in order for each piece of ``m`` meeting [lo, hi],
    [a, b] being their overlap; raises OutOfDomain where no piece covers."""
    covered, met = lo, False
    for p in ps.overlapping(m.pieces, m.his, lo, hi):
        a, b = max(p.lo, lo), min(p.hi, hi)
        if a > covered:
            break
        yield a, b, p
        covered, met = b, True
    if not met or covered < hi:
        raise OutOfDomain(f"[{lo}, {hi}] not covered by the map")


def image(m: PLMap, s: ps.PointSet) -> ps.PointSet:
    """Exact image of ``s``; raises OutOfDomain when material is uncovered."""
    parts: list[ps.Component] = []
    for c in s.components:
        for a, b, p in _cover(m, c.lo, c.hi):
            va, vb = p.value(a), p.value(b)
            if a == b:
                # Degenerate overlap at a piece boundary; only a member counts.
                if c.contains(a):
                    parts.append(ps.point(va))
                continue
            lo_cl = c.lo_closed if a == c.lo else True
            hi_cl = c.hi_closed if b == c.hi else True
            if va == vb:
                # Slope-0 piece collapses a material stretch to one point.
                parts.append(ps.point(va))
            else:
                parts.append(ps.Component(va, vb, lo_cl, hi_cl))
    return ps.normalize(parts)


# -- certificates -------------------------------------------------------------


class Atom(NamedTuple):
    """A member point of the set (lo == hi), or an open stretch (lo, hi) of it
    inside one piece; ``piece`` gives the map's value there.  ``bottom`` and
    ``top`` are the map's inf and sup on the atom: its values at lo and hi,
    limits on a stretch (whose slope is >= 0)."""

    lo: Fraction
    hi: Fraction
    piece: AffinePiece
    bottom: Fraction
    top: Fraction

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


def atoms(m: PLMap, s: ps.PointSet) -> list[Atom]:
    """``s`` cut at every piece end inside it, in increasing order.

    Raises OutOfDomain where the map does not cover ``s``.
    """

    def point(t: Fraction) -> Atom:
        p = m.piece_at(t)
        v = p.value(t)
        return Atom(t, t, p, v, v)

    out: list[Atom] = []
    for c in s.components:
        cuts = [c.lo]
        for p in ps.overlapping(m.pieces, m.his, c.lo, c.hi):
            for e in (p.lo, p.hi):
                if cuts[-1] < e < c.hi:
                    cuts.append(e)
        cuts.append(c.hi)
        if c.lo_closed:
            out.append(point(c.lo))
        for a, b in zip(cuts, cuts[1:]):
            if a < b:
                p = m.piece_at((a + b) / 2)
                out.append(Atom(a, b, p, p.value(a), p.value(b)))
                if b < c.hi or c.hi_closed:
                    out.append(point(b))
    return out


def _past_root(m: Fraction, hm: Fraction, u: Fraction, hu: Fraction) -> Fraction:
    """A point strictly between m and u where the affine h with h(m) = hm <= 0
    and h(u) = hu > 0 is positive."""
    root = m + (u - m) * hm / (hm - hu)
    return (root + u) / 2


def _where(lo: Fraction, hi: Fraction, piece: AffinePiece, c: Fraction, above: bool) -> Fraction:
    """A member of the point lo = hi, or of the open (lo, hi), where the
    piece's value is > c (above) or <= c (not above).

    One must exist: for ``above`` the value at hi exceeds c; otherwise the
    value at lo is below c, or equals c on a point or a flat stretch.
    """
    if lo == hi:
        return lo
    mid = (lo + hi) / 2
    v = piece.value(mid)
    if (v > c) if above else (v <= c):
        return mid
    if above:
        return _past_root(mid, v - c, hi, piece.value(hi) - c)
    return _past_root(mid, c - v, lo, c - piece.value(lo))


def increase_witness(parts: list[Atom]) -> Optional[tuple[Fraction, Fraction]]:
    """Decide strict increase; on failure a member pair x < y with f(x) >= f(y)."""
    for a in parts:
        if not a.is_point and a.piece.slope <= 0:
            x = (a.lo + a.hi) / 2
            return x, (x + a.hi) / 2
    for a, b in zip(parts, parts[1:]):
        # A stretch never attains its bound, so it may meet its neighbour's.
        if a.top > b.bottom or (a.top == b.bottom and a.is_point and b.is_point):
            c = (a.top + b.bottom) / 2
            return (
                _where(a.lo, a.hi, a.piece, c, above=True),
                _where(b.lo, b.hi, b.piece, c, above=False),
            )
    return None


def threshold_witness(parts: list[Atom]) -> Optional[tuple[Fraction, Fraction]]:
    """Decide x+1 < y  <=>  f(x)+1 < f(y) over all members x, y of the atoms.

    The map never decreases (PLMap rejects a falling boundary), so for a
    member x and c = f(x)+1 the property at x says: the map is at most c up
    to x+1 (its sup there is the last atom's top, or f(x+1) inside a stretch)
    and above c past x+1 (its inf there is the next atom's bottom).  The
    critical points are the atom ends and their -1 translates.  Between two
    consecutive ones x stays in one stretch and x+1 in one stretch or one
    gap, so c and both bounds are affine in x: the midpoint and the limits at
    the two ends decide the whole open interval.  Points are visited in
    increasing order, so x and x+1 are located by two forward cursors.
    """
    n = len(parts)

    def advance(j: int, z: Fraction) -> int:
        """The number of atoms at or below z, counting on from j."""
        while j < n and parts[j].hi <= z:
            j += 1
        return j

    def bounds(x: Fraction, inside: Optional[Atom], j: int):
        """(sup of f up to x+1, inf of f past x+1 or None, whether it is attained),
        where ``inside`` is the stretch holding x+1 and ``j`` atoms lie at or below it."""
        if inside is not None:
            v = inside.piece.value(x + 1)
            return v, v, inside.piece.slope == 0
        if j == n:
            return parts[j - 1].top, None, False
        above = parts[j]
        return parts[j - 1].top, above.bottom, above.is_point or above.piece.slope == 0

    def partner(x: Fraction, c: Fraction, inside: Optional[Atom], j: int):
        """A member y with (x, y) breaking the property, where c = f(x)+1, or None."""
        top, bottom, attained = bounds(x, inside, j)
        if top > c:
            if inside is not None:
                return x + 1
            below = parts[j - 1]
            return _where(below.lo, below.hi, below.piece, c, above=True)
        if bottom is not None and (bottom < c or (bottom == c and attained)):
            if inside is not None:
                return _where(x + 1, inside.hi, inside.piece, c, above=False)
            return _where(parts[j].lo, parts[j].hi, parts[j].piece, c, above=False)
        return None

    # Both runs are already sorted, so sorting merges them in linear time.
    ends = [e for a in parts for e in (a.lo, a.hi)]
    critical = [e for e, _ in groupby(sorted(ends + [e - 1 for e in ends]))]
    jx = jz = 0
    for p, q in zip(critical, critical[1:] + [None]):
        for x in (p,) if q is None else (p, (p + q) / 2):
            jx = advance(jx, x)
            if jx < n and parts[jx].lo < x:
                a = parts[jx]
            elif jx and parts[jx - 1].lo == x:
                a = parts[jx - 1]
            else:
                continue  # x is not a member
            jz = advance(jz, x + 1)
            inside = parts[jz] if jz < n and parts[jz].lo < x + 1 else None
            c = a.piece.value(x) + 1
            y = partner(x, c, inside, jz)
            if y is not None:
                return x, y
            if x == p:
                continue
            # x is the midpoint of (p, q): a violation elsewhere in (p, q) shows
            # as one of the affine excesses turning positive at p or at q.
            top, bottom, _ = bounds(x, inside, jz)
            for u in (p, q):
                top_u, bottom_u, _ = bounds(u, inside, jz)
                c_u = a.piece.value(u) + 1
                excesses = [(top - c, top_u - c_u)]
                if bottom is not None:
                    excesses.append((c - bottom, c_u - bottom_u))
                for h_x, h_u in excesses:
                    if h_u > 0:
                        w = _past_root(x, h_x, u, h_u)
                        return w, partner(w, a.piece.value(w) + 1, inside, jz)
    return None

