"""Constructive removal of half-open gaps by two-piece affine maps.

Each step fuses the current biggest bad gap with a map that is the identity
shape rescaled: below the gap ``x -> x/(1-d)``, above it ``x -> (x-d)/(1-d)``
(in span-normalized coordinates), so the span is preserved and every other
gap is stretched by the same factor.  The removal order of the original gaps
is therefore invariant under the steps, and the length ledgers below hold
with exact rational equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import plmap
from . import pointset as ps
from .pointset import EmptySet, Gap, InvariantBroken, NotBad, PointSet
from .rationals import format_rational


class NoSuchGap(ValueError):
    """Interval is not a gap of the host set."""


class MassExceedsOne(ValueError):
    """Normalized gap lengths sum to 1 or more."""


class DegenerateDistance(ValueError):
    """Removed mass between the pair is at least their distance."""


@dataclass(frozen=True)
class RemovalStep:
    """One fusion step.

    ``delta`` and ``l`` are span-normalized (fractions of sup-inf), so the
    ledger law l = delta / (1 - sum of previous deltas) is an exact identity;
    ``gap_before`` keeps the gap in the caller's original coordinates and
    ``current_gap`` its position at removal time.
    """

    index: int
    gap_before: Gap
    current_gap: Gap
    delta: Fraction
    l: Fraction
    map: plmap.PLMap

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "gap_before": self.gap_before.to_json_dict(),
            "current_gap": self.current_gap.to_json_dict(),
            "delta": format_rational(self.delta),
            "l": format_rational(self.l),
            "map": self.map.to_json_dict(),
        }


@dataclass(frozen=True)
class RemovalTrace:
    steps: tuple[RemovalStep, ...]
    total_map: plmap.PLMap
    final_set: PointSet

    def to_json_dict(self) -> dict:
        return {"steps": len(self.steps)}


def remove_one(s: PointSet, g: Gap) -> tuple[plmap.PLMap, PointSet]:
    """Fuse the single bad gap ``g``; returns the two-piece map and the image."""
    if g not in ps.gaps(s):
        raise NoSuchGap(f"{g} is not a gap of the set")
    if not g.is_bad:
        raise NotBad(f"{g} is not half-open")
    lo, hi, width = s.inf, s.sup, s.span
    d = g.length
    sigma = width / (width - d)
    shift = lo * (1 - sigma)
    lower = plmap.AffinePiece(lo, g.lo, sigma, shift)
    upper = plmap.AffinePiece(g.hi, hi, sigma, shift - d * sigma)
    fmap = plmap.PLMap((lower, upper), s)
    return fmap, plmap.image(fmap, s)


def _run(s: PointSet, stop: Callable[[Fraction], bool]) -> RemovalTrace:
    if not s:
        raise EmptySet("nothing to remove from the empty set")
    width = s.span
    total_mass, _ = ps.bad_gap_mass(s)
    if total_mass >= width > 0:
        raise InvariantBroken("bad mass must stay below the span")
    order = ps.bad_gaps_biggest_first(s)
    gmap = plmap.identity(s)
    current = s
    steps: list[RemovalStep] = []
    for n, g0 in enumerate(order, start=1):
        cur = Gap(gmap.apply(g0.lo), gmap.apply(g0.hi), g0.kind)
        if stop(cur.length):
            break
        if ps.bad_gaps_biggest_first(current)[0] != cur:
            raise InvariantBroken("removal order drifted from the original ordering")
        fmap, current = remove_one(current, cur)
        steps.append(
            RemovalStep(
                index=n,
                gap_before=g0,
                current_gap=cur,
                delta=g0.length / width,
                l=cur.length / width,
                map=fmap,
            )
        )
        gmap = plmap.compose(fmap, gmap)
    return RemovalTrace(tuple(steps), gmap, current)


def remove_all(s: PointSet) -> RemovalTrace:
    """Fuse every bad gap, biggest first (leftmost on ties)."""
    return _run(s, lambda _cur: False)


def remove_until(s: PointSet, eps: Fraction) -> RemovalTrace:
    """Prefix of remove_all stopping once the biggest bad gap is below ``eps``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _run(s, lambda cur: cur < eps)


def predicted_length(deltas: list[Fraction], n: int) -> Fraction:
    """Length of the n-th biggest gap at its removal time: d_n / (1 - sum d_k, k<n)."""
    if not 1 <= n <= len(deltas):
        raise IndexError(f"step {n} outside 1..{len(deltas)}")
    if sum(deltas, Fraction(0)) >= 1:
        raise MassExceedsOne("normalized gap lengths must sum below 1")
    return deltas[n - 1] / (1 - sum(deltas[: n - 1], Fraction(0)))


def predicted_distance(deltas_between: list[Fraction], d0: Fraction) -> Fraction:
    """Distance after removing the listed gaps, all lying between the pair."""
    mass = sum(deltas_between, Fraction(0))
    if mass >= d0:
        raise DegenerateDistance(f"removed mass {mass} >= distance {d0}")
    if mass >= 1:
        raise MassExceedsOne("normalized gap lengths must sum below 1")
    return (d0 - mass) / (1 - mass)
