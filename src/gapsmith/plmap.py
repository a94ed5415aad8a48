"""Strictly increasing piecewise-affine maps with exact rational coefficients.

Pieces are closed intervals in increasing order.  Neighbours may share an
endpoint, where the right-hand piece gives the value, and may leave holes
where the host set has no material.  Lookups (``apply``, ``image``,
``compose``) bisect over each map's and each set's endpoint lists, computed
once per object on first use, and then walk only the pieces and components
that overlap.  The two certification predicates work on a finite sample of the
host set: member endpoints, quartiles, breakpoints and their unit translates.
The threshold check compares sample pairs only, so it can miss a violation
whose witness is not sampled (such as a preimage of f(p) + 1).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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

    def apply(self, x: Fraction) -> Fraction:
        # The rightmost piece starting at or before x is the only candidate:
        # any earlier piece ends at or before its start.
        i = bisect_right(self.los, x) - 1
        if i >= 0 and self.pieces[i].contains(x):
            return self.pieces[i].value(x)
        raise OutOfDomain(f"{x} not in the map domain")

    def breakpoints(self) -> list[Fraction]:
        pts: set[Fraction] = set()
        for p in self.pieces:
            pts.add(p.lo)
            pts.add(p.hi)
        return sorted(pts)

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
    the outer pieces that overlap its value range; both runs start by bisection.
    """
    comps = inner.domain_hint.components
    segments: list[tuple[Fraction, Fraction, AffinePiece]] = []
    for p in inner.pieces:
        i = bisect_left(inner.domain_hint.his, p.lo)
        while i < len(comps) and comps[i].lo <= p.hi:
            c = comps[i]
            i += 1
            segments.append((max(p.lo, c.lo), min(p.hi, c.hi), p))
    pieces: list[AffinePiece] = []
    for seg_lo, seg_hi, p in segments:
        v_lo, v_hi = p.value(seg_lo), p.value(seg_hi)
        if p.slope == 0 or seg_lo == seg_hi:
            try:
                w = outer.apply(v_lo)
            except OutOfDomain as exc:
                raise DomainMismatch(str(exc)) from exc
            if seg_lo < seg_hi or not pieces or pieces[-1].hi < seg_lo:
                pieces.append(AffinePiece(seg_lo, seg_hi, Fraction(0), w, tag=p.tag))
            continue
        # Walk the outer pieces across the value range [v_lo, v_hi].
        covered = v_lo
        first = True
        j = bisect_left(outer.his, v_lo)
        while j < len(outer.pieces) and outer.pieces[j].lo <= v_hi:
            q = outer.pieces[j]
            j += 1
            a, b = max(q.lo, v_lo), min(q.hi, v_hi)
            if (first and a > v_lo) or (not first and a > covered):
                raise DomainMismatch(f"outer map has a hole inside [{v_lo}, {v_hi}]")
            first = False
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
            covered = b
        if first or covered < v_hi:
            raise DomainMismatch(f"inner image [{v_lo}, {v_hi}] not covered")
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


def image(m: PLMap, s: ps.PointSet) -> ps.PointSet:
    """Exact image of ``s``; raises OutOfDomain when material is uncovered."""
    parts: list[ps.Component] = []
    for c in s.components:
        covered = c.lo
        any_piece = False
        j = bisect_left(m.his, c.lo)
        while j < len(m.pieces) and m.pieces[j].lo <= c.hi:
            p = m.pieces[j]
            j += 1
            a, b = max(p.lo, c.lo), min(p.hi, c.hi)
            if (not any_piece and a > c.lo) or (any_piece and a > covered):
                raise OutOfDomain(f"component {c} not fully covered")
            any_piece = True
            covered = b
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
        if not any_piece or covered < c.hi:
            raise OutOfDomain(f"component {c} not fully covered")
    return ps.normalize(parts)


def certificate_points(
    m: PLMap, s: ps.PointSet, extra: Iterable[Fraction] = ()
) -> list[Fraction]:
    pts = set(ps.sample_points(s))
    pts.update(x for x in extra if s.contains(x))
    pts.update(x for x in m.breakpoints() if s.contains(x))
    for x in list(pts):
        for shifted in (x - 1, x + 1):
            if s.contains(shifted):
                pts.add(shifted)
    return sorted(pts)


def is_strictly_increasing_on(
    m: PLMap, s: ps.PointSet, extra: Iterable[Fraction] = ()
) -> tuple[bool, Optional[tuple[Fraction, Fraction]]]:
    """Strict monotonicity over the certificate sample; witness pair on failure."""
    pts = certificate_points(m, s, extra)
    vals = [m.apply(x) for x in pts]
    for (x, fx), (y, fy) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
        if fx >= fy:
            return False, (x, y)
    return True, None


def threshold_equiv(
    m: PLMap, s: ps.PointSet, extra: Iterable[Fraction] = ()
) -> tuple[bool, Optional[tuple[Fraction, Fraction]]]:
    """Check x+1 < y  <=>  f(x)+1 < f(y) over all certificate sample pairs."""
    pts = certificate_points(m, s, extra)
    vals = [m.apply(x) for x in pts]
    k = len(pts)
    for i in range(k):
        for j in range(i + 1, k):
            before = pts[i] + 1 < pts[j]
            after = vals[i] + 1 < vals[j]
            if before != after:
                return False, (pts[i], pts[j])
    return True, None
