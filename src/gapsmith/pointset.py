"""Finite exact presentations of bounded subsets of the real line.

A set is stored as sorted, disjoint, maximally merged components (intervals
with endpoint-inclusion flags; a point is the degenerate closed interval).
Gaps are the maximal complement intervals inside [inf, sup]; a gap is *bad*
when it is half-open, i.e. exactly one of its endpoints belongs to the set.

Both endpoint lists of a normalized set are strictly increasing, so point
queries (membership, closure distances) bisect over them, and every interval
query here and in ``plmap`` and ``threshold`` is one overlap walk,
:func:`overlapping`.  Each set computes the lists once, on first use.
"""

from __future__ import annotations

import enum
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .rationals import format_rational, parse_rational


class MalformedComponent(ValueError):
    """Component with lo > hi, or a degenerate interval that is not closed."""


class EmptySet(ValueError):
    """Operation requires a nonempty point set."""


class NotBad(ValueError):
    """Gap is not half-open."""


class InvariantBroken(RuntimeError):
    """An internal invariant of a removal failed: a bug, never bad input."""


@dataclass(frozen=True, order=True)
class Component:
    """One maximal piece of the set: an interval or an isolated point."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise MalformedComponent(f"lo > hi: {self}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise MalformedComponent(f"degenerate open interval: {self}")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True


def point(at: Fraction) -> Component:
    return Component(at, at, True, True)


def interval(lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> Component:
    return Component(Fraction(lo), Fraction(hi), lo_closed, hi_closed)


class GapKind(enum.Enum):
    # Names describe the gap interval itself: the "closed" side is the one
    # the gap contains, which is therefore the side NOT in the host set.
    OPEN = "Open"
    CLOSED = "Closed"
    CLOSED_OPEN = "ClosedOpen"
    OPEN_CLOSED = "OpenClosed"


@dataclass(frozen=True)
class Gap:
    """Maximal lacuna of a point set, classified by endpoint membership."""

    lo: Fraction
    hi: Fraction
    kind: GapKind

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_bad(self) -> bool:
        return self.kind in (GapKind.CLOSED_OPEN, GapKind.OPEN_CLOSED)

    def to_json_dict(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "kind": self.kind.value,
            "length": format_rational(self.length),
        }


@dataclass(frozen=True)
class PointSet:
    """Normalized finite presentation; construct through :func:`normalize`."""

    components: tuple[Component, ...]

    def __bool__(self) -> bool:
        return bool(self.components)

    @property
    def inf(self) -> Fraction:
        if not self.components:
            raise EmptySet("empty set has no infimum")
        return self.components[0].lo

    @property
    def sup(self) -> Fraction:
        if not self.components:
            raise EmptySet("empty set has no supremum")
        return self.components[-1].hi

    @property
    def span(self) -> Fraction:
        return self.sup - self.inf

    @property
    def measure(self) -> Fraction:
        return sum((c.length for c in self.components), Fraction(0))

    @cached_property
    def los(self) -> list[Fraction]:
        """Lower endpoints of the components, increasing."""
        return [c.lo for c in self.components]

    @cached_property
    def his(self) -> list[Fraction]:
        """Upper endpoints of the components, increasing."""
        return [c.hi for c in self.components]

    def contains(self, x: Fraction) -> bool:
        # Only the first component reaching x can hold it: a later one starts
        # at or after that component's end, and a shared endpoint belongs to
        # neither side (normalize would have merged them otherwise).
        i = bisect_left(self.his, x)
        return i < len(self.components) and self.components[i].contains(x)

    def to_json_dict(self) -> dict:
        out = []
        for c in self.components:
            if c.is_point:
                out.append({"kind": "point", "at": format_rational(c.lo)})
            else:
                out.append(
                    {
                        "kind": "interval",
                        "lo": format_rational(c.lo),
                        "hi": format_rational(c.hi),
                        "lo_closed": c.lo_closed,
                        "hi_closed": c.hi_closed,
                    }
                )
        return {"components": out}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())


def _joinable(a: Component, b: Component) -> bool:
    # b.lo >= a.lo by sort order; union is one interval iff they overlap or
    # touch with at least one side closed at the shared endpoint.
    if b.lo < a.hi:
        return True
    return b.lo == a.hi and (a.hi_closed or b.lo_closed)


def _merge(a: Component, b: Component) -> Component:
    lo_closed = a.lo_closed or (b.lo == a.lo and b.lo_closed)
    if b.hi > a.hi:
        hi, hi_closed = b.hi, b.hi_closed
    elif b.hi < a.hi:
        hi, hi_closed = a.hi, a.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed or b.hi_closed
    return Component(a.lo, hi, lo_closed, hi_closed)


def normalize(raw: Iterable[Component]) -> PointSet:
    """Sorted, disjoint, maximally merged presentation of the union."""
    items = sorted(raw, key=lambda c: (c.lo, not c.lo_closed, c.hi))
    merged: list[Component] = []
    for c in items:
        if merged and _joinable(merged[-1], c):
            merged[-1] = _merge(merged[-1], c)
        else:
            merged.append(c)
    return PointSet(tuple(merged))


def pointset(*comps: Component) -> PointSet:
    return normalize(comps)


def gaps(s: PointSet) -> list[Gap]:
    """All maximal lacunae of ``s`` in increasing order, with kinds."""
    if not s:
        raise EmptySet("no gaps in the empty set")
    out: list[Gap] = []
    for prev, nxt in zip(s.components, s.components[1:]):
        lo_in_gap = not prev.hi_closed
        hi_in_gap = not nxt.lo_closed
        kind = {
            (False, False): GapKind.OPEN,
            (True, True): GapKind.CLOSED,
            (True, False): GapKind.CLOSED_OPEN,
            (False, True): GapKind.OPEN_CLOSED,
        }[(lo_in_gap, hi_in_gap)]
        out.append(Gap(prev.hi, nxt.lo, kind))
    return out


def bad_gaps(s: PointSet) -> list[Gap]:
    return [g for g in gaps(s) if g.is_bad]


def bad_gaps_biggest_first(s: PointSet) -> list[Gap]:
    """Bad gaps in removal order: non-increasing length, leftmost first."""
    return sorted(bad_gaps(s), key=lambda g: (-g.length, g.lo))


def bad_gap_mass(s: PointSet) -> tuple[Fraction, list[Fraction]]:
    """Total bad-gap length and the individual lengths, non-increasing."""
    per_gap = [g.length for g in bad_gaps_biggest_first(s)]
    return sum(per_gap, Fraction(0)), per_gap


def reflect(s: PointSet) -> PointSet:
    """Mirror image -S; OpenClosed analyses run on it as ClosedOpen ones."""
    return normalize(
        Component(-c.hi, -c.lo, c.hi_closed, c.lo_closed) for c in s.components
    )


# -- the overlap walk and the window probes -----------------------------------


def overlapping(
    items: Sequence, his: Sequence[Fraction], lo: Fraction, hi: Fraction
) -> Iterator:
    """The items of a sorted run (components or pieces, meeting at most at an
    endpoint, with upper ends ``his``) that meet [lo, hi], in order: one
    bisection to the first reaching ``lo``, then on while they start by ``hi``."""
    i, n = bisect_left(his, lo), len(items)
    while i < n and items[i].lo <= hi:
        yield items[i]
        i += 1


def translates(
    s: PointSet, lo: Fraction, hi: Fraction, step: int, first: int, last: int
) -> Iterator[int]:
    """The ascending k in [first, last] for which the translate
    [lo + step*k, hi + step*k] (step +1 or -1) meets the closure of ``s``.

    Each component meets one run of k, read off its endpoints, and only the
    components that meet the translates are walked (backward for step -1),
    so the cost follows the material, not the span.
    """
    if step > 0:
        near = overlapping(s.components, s.his, lo + first, hi + last)
    else:
        near = reversed(list(overlapping(s.components, s.his, lo - last, hi - first)))
    k = first
    for c in near:
        if step > 0:
            a, b = math.ceil(c.lo - hi), math.floor(c.hi - lo)
        else:
            a, b = math.ceil(lo - c.hi), math.floor(hi - c.lo)
        a, b = max(a, k), min(b, last)
        if a > last:
            return
        yield from range(a, b + 1)
        k = max(k, b + 1)


def members_in_interval(
    s: PointSet, lo: Fraction, hi: Fraction
) -> Optional[list[Fraction]]:
    """Member points of ``s`` inside [lo, hi]; None when uncountably many."""
    found: list[Fraction] = []
    for c in overlapping(s.components, s.his, lo, hi):
        a, b = max(c.lo, lo), min(c.hi, hi)
        if a > b:
            continue
        if a < b:
            return None
        if c.contains(a):
            found.append(a)
    return found


def closure_gap_below(s: PointSet, x: Fraction) -> Optional[Fraction]:
    """Distance from ``x`` down to the closure of ``s`` below ``x`` (None if no mass below)."""
    # The last component starting below x reaches highest below it.
    i = bisect_left(s.los, x)
    if i == 0:
        return None
    return x - min(s.components[i - 1].hi, x)


def closure_gap_above(s: PointSet, x: Fraction) -> Optional[Fraction]:
    """Distance from ``x`` up to the closure of ``s`` above ``x`` (None if no mass above)."""
    # The first component ending above x reaches lowest above it.
    i = bisect_right(s.his, x)
    if i == len(s.components):
        return None
    return max(s.components[i].lo, x) - x


# -- JSON ---------------------------------------------------------------------


def component_from_json(obj: dict) -> Component:
    kind = obj.get("kind")
    if kind == "point":
        at = parse_rational(obj["at"])
        return Component(at, at, True, True)
    if kind == "interval":
        flags = obj["lo_closed"], obj["hi_closed"]
        if not all(isinstance(f, bool) for f in flags):
            raise MalformedComponent(f"lo_closed and hi_closed must be true or false: {flags!r}")
        return Component(parse_rational(obj["lo"]), parse_rational(obj["hi"]), *flags)
    raise MalformedComponent(f"unknown component kind: {kind!r}")


def from_json_dict(obj: dict) -> PointSet:
    return normalize(component_from_json(c) for c in obj["components"])


def loads(text: str) -> PointSet:
    return from_json_dict(json.loads(text))
