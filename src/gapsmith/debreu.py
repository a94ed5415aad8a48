"""Weak removal of half-open gaps (Debreu's Open Gap Lemma), in closed form.

Step n fuses the n-th biggest bad gap (leftmost on ties) with the two-piece
map that is the identity rescaled: below the gap ``x -> x/(1-d)``, above it
``x -> (x-d)/(1-d)`` (in span-normalized coordinates), so the span is kept
and every other gap is stretched by the same factor.  The removal order of
the original gaps is therefore invariant, and the composed map of the first
n steps is given by the distance law:

    g(x) = inf + (x - inf - B(x)) * W / (W - M)

with W the span, M the removed mass and B(x) the removed mass below x.  So a
removal takes the biggest-first order once, reads each step's current gap off
a prefix-sum (Fenwick) tree of the removed mass by left-to-right rank, and
builds the total map as one collapse (slope 1 per component, the removed mass
below it taken out) followed by one rescale.  The steps cost O(k log k) for k
bad gaps and the total map O(n log n) for n components, with denominators
that do not grow with k.  A step's own two-piece map is built only when
something asks for it (the distance recursion, the CLI trace and diagram),
from the set just before that step: the image left by the previous step's
map when that one was built, else the closed form of the earlier steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Collection

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
    ``current_gap`` its position at removal time.  ``fuse`` builds the step's
    two-piece ``map``, which is done once, on first use.  Both are left out
    of ==, hash and repr: the other fields and the source set determine them.
    """

    index: int
    gap_before: Gap
    current_gap: Gap
    delta: Fraction
    l: Fraction
    fuse: Callable[[], plmap.PLMap] = field(compare=False, repr=False)

    @cached_property
    def map(self) -> plmap.PLMap:
        return self.fuse()

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


def _collapse(s: PointSet, removed: Collection[Fraction]) -> plmap.PLMap:
    """Slope-1 piece per component, lowered by the removed mass below it;
    ``removed`` holds the lower ends of the removed gaps."""
    pieces = []
    below = Fraction(0)
    for prev, c in zip((None,) + s.components, s.components):
        if prev is not None and prev.hi in removed:
            below += c.lo - prev.hi
        pieces.append(plmap.AffinePiece(c.lo, c.hi, Fraction(1), -below, tag="Identity"))
    return plmap.PLMap(tuple(pieces), s)


def _rescale(squeezed: PointSet, width: Fraction) -> plmap.PLMap:
    """One affine piece fixing inf that stretches ``squeezed`` back to ``width``."""
    lo = squeezed.inf
    sigma = width / squeezed.span
    return plmap.PLMap((plmap.AffinePiece(lo, squeezed.sup, sigma, lo * (1 - sigma)),), squeezed)


def _squeeze(s: PointSet, removed: Collection[Fraction]) -> tuple[plmap.PLMap, plmap.PLMap]:
    """The collapse and rescale maps whose composition removes ``removed``;
    the rescale is defined on the collapsed image of ``s``."""
    collapse = _collapse(s, removed)
    return collapse, _rescale(plmap.image(collapse, s), s.span)


class _Fenwick:
    """Prefix sums of removed gap lengths over left-to-right ranks."""

    def __init__(self, size: int) -> None:
        self.tree = [Fraction(0)] * (size + 1)

    def add(self, rank: int, value: Fraction) -> None:
        i = rank + 1
        while i < len(self.tree):
            self.tree[i] += value
            i += i & -i

    def below(self, rank: int) -> Fraction:
        """Sum over the ranks < ``rank``."""
        total = Fraction(0)
        i = rank
        while i > 0:
            total += self.tree[i]
            i -= i & -i
        return total


def _run(s: PointSet, stop: Callable[[Fraction], bool]) -> RemovalTrace:
    if not s:
        raise EmptySet("nothing to remove from the empty set")
    lo, width = s.inf, s.span
    order = ps.bad_gaps_biggest_first(s)
    if sum((g.length for g in order), Fraction(0)) >= width > 0:
        raise InvariantBroken("bad mass must stay below the span")
    left_to_right = sorted(order, key=lambda g: g.lo)
    rank = {g.lo: r for r, g in enumerate(left_to_right)}
    fenwick = _Fenwick(len(order))
    mass = Fraction(0)
    # The set after step n, kept when step n's map is built: the trace and
    # the diagram ask for the maps in order, so each chains on the last.
    after: dict[int, PointSet] = {0: s}

    def fuse(n: int, cur: Gap) -> plmap.PLMap:
        prior = after.get(n - 1)
        if prior is None:
            _, rescale = _squeeze(s, {g.lo for g in order[: n - 1]})
            prior = plmap.image(rescale, rescale.domain_hint)
        fmap, after[n] = remove_one(prior, cur)
        return fmap

    steps: list[RemovalStep] = []
    for n, g0 in enumerate(order, start=1):
        # Distance law: the gap's lower end sits the removed mass below it
        # lower, and everything is stretched by width / (width - mass).
        sigma = width / (width - mass)
        cur_lo = lo + (g0.lo - lo - fenwick.below(rank[g0.lo])) * sigma
        cur = Gap(cur_lo, cur_lo + g0.length * sigma, g0.kind)
        if stop(cur.length):
            break
        steps.append(
            RemovalStep(
                index=n,
                gap_before=g0,
                current_gap=cur,
                delta=g0.length / width,
                l=cur.length / width,
                fuse=partial(fuse, n, cur),
            )
        )
        fenwick.add(rank[g0.lo], g0.length)
        mass += g0.length
    if not steps:
        return RemovalTrace((), plmap.identity(s), s)
    gone = {g.lo for g in order[: len(steps)]}
    collapse, rescale = _squeeze(s, gone)
    total = plmap.compose(rescale, collapse)
    final = plmap.image(total, s)
    kept = [
        Gap(total.apply(g.lo), total.apply(g.hi), g.kind)
        for g in left_to_right
        if g.lo not in gone
    ]
    if (final.inf, final.sup) != (s.inf, s.sup) or ps.bad_gaps(final) != kept:
        raise InvariantBroken("removal order drifted from the original ordering")
    return RemovalTrace(tuple(steps), total, final)


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
