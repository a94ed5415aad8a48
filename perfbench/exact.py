"""The benchmark's own exact output checks.

These decide, over the whole continuum of a set, the properties the removal
outputs must have.  They share no code with the package's certificates: the
package's ``threshold_equiv`` samples finitely many pairs and can miss a
violation, so it is never used to judge an output here.

Sets are lists of components ``(lo, hi, lo_closed, hi_closed)`` and maps are
lists of pieces ``(lo, hi, slope, intercept)`` sorted by ``lo``, all exact
``Fraction`` values.  A map is evaluated as the package defines it: ``x``
takes the value of the last piece starting at or below ``x``, which must
reach ``x``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Optional


class CheckFailed(Exception):
    """An output violates a property the benchmark checks."""


class Atom(NamedTuple):
    """A point of the set, or an open stretch on which the map is affine."""

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction
    is_point: bool

    def at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    @property
    def key(self) -> tuple[Fraction, int]:
        # A point sorts before the open stretch starting at it.
        return (self.lo, 0 if self.is_point else 1)


def components_of(pointset) -> list[tuple]:
    return [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in pointset.components]


def pieces_of(plmap) -> list[tuple]:
    return [(p.lo, p.hi, p.slope, p.intercept) for p in plmap.pieces]


def piece_at(pieces: list[tuple], los: list[Fraction], x: Fraction) -> tuple:
    """The piece that defines the map at ``x``; raises where it is undefined."""
    i = bisect_right(los, x) - 1
    if i < 0 or pieces[i][1] < x:
        raise CheckFailed(f"map undefined at {x}")
    return pieces[i]


def atoms(comps: list[tuple], pieces: list[tuple]) -> list[Atom]:
    """Split the set at every piece end; raises if the map misses any of it."""
    los = [p[0] for p in pieces]

    def value(x: Fraction) -> Fraction:
        _, _, slope, intercept = piece_at(pieces, los, x)
        return slope * x + intercept

    ends = sorted({e for p in pieces for e in p[:2]})
    out: list[Atom] = []
    for lo, hi, lo_closed, hi_closed in comps:
        cuts = [e for e in ends if lo < e < hi]
        bounds = [lo] + cuts + [hi]
        for t in bounds:
            member = (lo < t < hi) or (t == lo and lo_closed) or (t == hi and hi_closed)
            if member and not (out and out[-1].is_point and out[-1].lo == t):
                out.append(Atom(t, t, Fraction(0), value(t), True))
        for a, b in zip(bounds, bounds[1:]):
            if a == b:
                continue
            _, _, slope, intercept = piece_at(pieces, los, (a + b) / 2)
            out.append(Atom(a, b, slope, intercept, False))
    out.sort(key=lambda atom: atom.key)
    return out


def _sup(atom: Atom) -> tuple[Fraction, bool]:
    return atom.at(atom.hi), atom.is_point


def _inf(atom: Atom) -> tuple[Fraction, bool]:
    return atom.at(atom.lo), atom.is_point


def check_increasing(parts: list[Atom]) -> None:
    """Strict increase over the whole set, not over a sample."""
    for atom in parts:
        if not atom.is_point and atom.slope <= 0:
            raise CheckFailed(f"not increasing on ({atom.lo}, {atom.hi})")
    for a, b in zip(parts, parts[1:]):
        (top, top_attained), (bottom, bottom_attained) = _sup(a), _inf(b)
        if top > bottom or (top == bottom and top_attained and bottom_attained):
            raise CheckFailed(f"not increasing between {a.hi} and {b.lo}")


class _Cut:
    """Where z falls among the atoms: the map's sup at or below z, inf above."""

    def __init__(self, parts: list[Atom], keys: list, z: Fraction):
        i = bisect_right(keys, (z, 0)) - 1
        self.inside: Optional[Atom] = None
        self.sup_below: Optional[Fraction] = None
        self.inf_above: Optional[tuple[Fraction, bool]] = None
        if i >= 0:
            atom = parts[i]
            if not atom.is_point and z < atom.hi:
                self.inside = atom
                self.sup_below = atom.at(z)
                self.inf_above = (atom.at(z), False)
                return
            self.sup_below = _sup(atom)[0]
        if i + 1 < len(parts):
            self.inf_above = _inf(parts[i + 1])


def check_threshold(parts: list[Atom]) -> None:
    """Decide x+1 < y  <=>  f(x)+1 < f(y) for all x, y in the set.

    Requires ``check_increasing`` to have passed.  For a member x let
    c = f(x)+1; the property holds at x iff every member y <= x+1 has
    f(y) <= c and every member y > x+1 has f(y) > c.  Between consecutive
    critical points (atom ends and their -1 translates) both x and x+1 stay
    inside one atom or gap, so the two bounds are affine in x and are checked
    at the interval ends; each critical point is checked on its own.
    """
    keys = [atom.key for atom in parts]
    ends = {e for atom in parts for e in (atom.lo, atom.hi)}
    critical = sorted(ends | {e - 1 for e in ends})

    def holding(x: Fraction) -> Optional[Atom]:
        i = bisect_right(keys, (x, 0)) - 1
        if i < 0:
            return None
        atom = parts[i]
        if atom.is_point:
            return atom if atom.lo == x else None
        return atom if x < atom.hi else None

    def check_at(x: Fraction, atom: Atom) -> None:
        c = atom.at(x) + 1
        cut = _Cut(parts, keys, x + 1)
        if cut.sup_below is not None and cut.sup_below > c:
            raise CheckFailed(f"threshold violated below {x}+1 (x = {x})")
        if cut.inf_above is not None:
            low, attained = cut.inf_above
            if low < c or (low == c and attained):
                raise CheckFailed(f"threshold violated above {x}+1 (x = {x})")

    for x in critical:
        atom = holding(x)
        if atom is not None:
            check_at(x, atom)
    for p, q in zip(critical, critical[1:]):
        mid = (p + q) / 2
        atom = holding(mid)
        if atom is None:
            continue
        cut = _Cut(parts, keys, mid + 1)
        if cut.inside is not None:
            # x+1 and x both move inside affine stretches: f(x+1) = f(x)+1 throughout.
            for t in (p, q):
                if cut.inside.at(t + 1) != atom.at(t) + 1:
                    raise CheckFailed(f"threshold violated near {t} (unit shift)")
            continue
        if cut.sup_below is not None and atom.at(p) + 1 < cut.sup_below:
            raise CheckFailed(f"threshold violated just above {p}")
        if cut.inf_above is not None and atom.at(q) + 1 > cut.inf_above[0]:
            raise CheckFailed(f"threshold violated just below {q}")


def image(parts: list[Atom]) -> list[tuple]:
    """Merged components of the image of the set (requires strict increase)."""
    out: list[list] = []
    for atom in parts:
        lo, hi = atom.at(atom.lo), atom.at(atom.hi)
        closed = atom.is_point
        if out and out[-1][1] == lo and (out[-1][3] or closed):
            out[-1][1], out[-1][3] = hi, closed
        else:
            out.append([lo, hi, closed, closed])
    return [tuple(c) for c in out]


def half_open_gaps(comps: list[tuple]) -> list[tuple[Fraction, Fraction]]:
    """(lo, hi) of every gap with exactly one endpoint in the set."""
    return [
        (a[1], b[0])
        for a, b in zip(comps, comps[1:])
        if a[3] != b[2]
    ]


def check_removal(comps: list[tuple], pieces: list[tuple], final: list[tuple],
                  threshold: bool, eps0: Optional[Fraction] = None) -> list[Atom]:
    """Checks shared by every removal: the map, its image and its gaps."""
    parts = atoms(comps, pieces)
    check_increasing(parts)
    if threshold:
        check_threshold(parts)
    img = image(parts)
    if img != list(final):
        raise CheckFailed("returned final set is not the image of the input")
    for lo, hi in half_open_gaps(img):
        if eps0 is None or hi - lo >= eps0:
            raise CheckFailed(f"half-open gap ({lo}, {hi}) remains")
    return parts


def den_bits(values) -> int:
    return max((Fraction(v).denominator.bit_length() for v in values), default=1)
