"""Gap removal that preserves the unit threshold: x+1 < y  <=>  g(x)+1 < g(y).

A single bad gap [r, w) of length d < 1 is fused by a map assembled from
four affine families on the unit grid anchored at w:

* expansion pieces of slope 1/(1-d) that stretch each translate of the
  material slice onto its full unit cell while the structural chain holds
  (``Lambda1``), or between squeeze windows beyond it (``Lambda2``);
* flat pieces over the verified-empty gap translates (``Lambda3``);
* squeeze pieces over each terminal window, shrinking d + gamma_l + gamma_r
  of room into the (gamma_l+gamma_r)-sized image slot the expansions leave
  (``ContractionC``; split at a window singleton into C1/C2 with the
  singleton's image dictated by the unit-shift identity).

Beyond the terminal depth the families repeat with period one, so the
threshold relation is preserved against arbitrary deep structure.  A plan is
read off one run of the structural chains around its gap, and a failing
chain raises StructureViolated before any piece is built.  Plans and
step maps have pieces only where they meet the closure of the set, on the
unit cells holding material, and holes elsewhere: the cells are read off the
component endpoints and the empty ones are jumped over, so the cost of a plan
follows the material, not the span.  The scheduler likewise visits only the
one or two cells each bad gap overlaps.  Every
produced map is certified exactly (strict increase, then threshold
equivalence, over the whole set); a failed certificate aborts with a witness
pair.  The ledger's ``sup_norm`` is the exact sup of |f(t) - t| over the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import plmap
from . import pointset as ps
from . import structure as st
from .pointset import EmptySet, Gap, GapKind, InvariantBroken, PointSet
from .rationals import format_rational


class StructureViolated(RuntimeError):
    """Structural preconditions fail; no threshold-preserving map is built."""

    def __init__(self, failure, note: str = ""):
        self.failure = failure
        self.note = note
        super().__init__(f"{note or 'structure check failed'}: {failure}")


class CertificateFailed(RuntimeError):
    """A hard postcondition certificate failed; carries the witness pair."""

    def __init__(self, kind: str, witness):
        self.kind = kind
        self.witness = witness
        super().__init__(f"{kind} certificate failed at {witness}")


def _certify(fmap: plmap.PLMap) -> None:
    """Both hard postconditions on the map's domain, strict increase first;
    raise on the first failure."""
    parts = fmap.domain_atoms
    witness = plmap.increase_witness(parts)
    if witness is not None:
        raise CertificateFailed("strict_increase", witness)
    witness = plmap.threshold_witness(parts)
    if witness is not None:
        raise CertificateFailed("threshold_equivalence", witness)


@dataclass(frozen=True)
class ThresholdPlan:
    gap: Gap
    orientation: str  # "closed_open" | "open_closed"
    m: Optional[int]  # left-chain terminal depth (None: chain left the span)
    m_prime: Optional[int]  # right-chain terminal depth
    pieces: tuple[plmap.AffinePiece, ...]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "orientation": self.orientation,
            "m": self.m,
            "m_prime": self.m_prime,
            "notes": list(self.notes),
            "pieces": [p.to_json_dict() for p in self.pieces],
        }


@dataclass(frozen=True)
class ThresholdStep:
    index: int
    cell: int
    gap_original: Gap
    gap_current: Gap
    plan: ThresholdPlan
    map: plmap.PLMap
    sup_norm: Fraction

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "cell": self.cell,
            "gap_original": self.gap_original.to_json_dict(),
            "gap_current": self.gap_current.to_json_dict(),
            "sup_norm": format_rational(self.sup_norm),
            "plan": self.plan.to_json_dict(),
        }


@dataclass(frozen=True)
class ScheduleTrace:
    interval_order: tuple[int, ...]
    per_interval_deltas: tuple[tuple[Fraction, ...], ...]
    eps0: Optional[Fraction]
    eps1: Optional[Fraction]
    sup_norm_ledger: tuple[Fraction, ...]
    steps: tuple[ThresholdStep, ...]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        """The removal payload fields; the steps go one per trace line."""
        return {
            "steps": len(self.steps),
            "interval_order": list(self.interval_order),
            "eps0": None if self.eps0 is None else format_rational(self.eps0),
            "eps1": None if self.eps1 is None else format_rational(self.eps1),
            "sup_norm_ledger": [format_rational(x) for x in self.sup_norm_ledger],
            "notes": list(self.notes),
        }


def _azone_value(t: Fraction, r: Fraction, w: Fraction, expand: Fraction) -> Fraction:
    """Value of the ambient expansion/flat family at t, ignoring squeeze windows."""
    if t >= w:
        n = math.ceil(t - w)
        if n == 0:
            return w
        base = w + n - 1
        if t <= r + n:
            return base + expand * (t - base)
        return Fraction(w + n)
    n = math.ceil(w - t) - 1
    base = w - 1 - n
    if t <= r - n:
        return base + expand * (t - base)
    return Fraction(w - n)


def _co_pieces(
    frame: PointSet, r: Fraction, w: Fraction, left: st.ChainInfo, right: st.ChainInfo
) -> tuple[tuple[plmap.AffinePiece, ...], tuple[str, ...]]:
    delta = w - r
    expand = 1 / (1 - delta)
    a_lo, b_hi = frame.inf, frame.sup
    trim = (1 - delta) / 2
    notes: list[str] = []
    pieces: list[plmap.AffinePiece] = []

    def az(t: Fraction) -> Fraction:
        return _azone_value(t, r, w, expand)

    def add(lo, hi, v_lo, v_hi, tag) -> None:
        # Only pieces meeting the closure of the material are kept: nothing
        # reads a map elsewhere (see plmap), and the rest leave holes.
        if lo == hi:
            return
        lo2, hi2 = max(lo, a_lo), min(hi, b_hi)
        near = ps.overlapping(frame.components, frame.his, lo2, hi2)
        if lo2 >= hi2 or next(near, None) is None:
            return
        slope = (v_hi - v_lo) / (hi - lo)
        pieces.append(plmap.AffinePiece(lo2, hi2, slope, v_lo - slope * lo, tag=tag))

    def squeeze(k: int, chain: st.ChainInfo) -> tuple:
        """The terminal window at depth |k| (k < 0 left, k > 0 right): its
        ends, the image of its low end, and its squeeze segments."""
        gl, gr = min(chain.gamma_l, trim), min(chain.gamma_r, trim)
        lo, hi = r + k - gl, w + k + gr
        img_lo, img_hi = w + k - gl * expand, w + k + gr * expand
        s = chain.singleton
        if s is None:
            return lo, hi, img_lo, [(lo, hi, img_lo, img_hi, "ContractionC")]
        t = 1 if k > 0 else -1
        fs = az(s - t) + t
        segments = []
        if s > lo:
            segments.append((lo, s, img_lo, fs, "ContractionC1"))
        if s < hi:
            segments.append((s, hi, fs, img_hi, "ContractionC2"))
        return lo, hi, img_lo, segments

    m_left = left.m if left.terminal == "b" else None
    m_right = right.m if right.terminal == "b" else None
    if m_left is not None:
        lw_lo, lw_hi, _, left_window = squeeze(-m_left, left)
    if m_right is not None:
        rw_lo, rw_hi, rw_img_lo, right_window = squeeze(m_right, right)
        notes.append(
            "right-side expansion strips anchored one unit up from the printed "
            "domains so that the pieces tile"
        )

    # Left expansion zone, cells [w-1-n, w-n], including the base cell n = 0
    # whose flat is the gap itself; it reaches the terminal depth or inf.
    last = m_left - 1 if m_left is not None else max(0, math.ceil(w - 1 - a_lo))
    for n in ps.translates(frame, w - 1, w, -1, 0, last):
        stretch_lo = w - 1 - n
        if m_left is not None and n == m_left - 1:
            stretch_lo = lw_hi
        add(stretch_lo, r - n, az(stretch_lo), w - n, "Lambda1")
        add(r - n, w - n, Fraction(w - n), Fraction(w - n), "Lambda3")

    if m_left is not None:
        for seg in left_window:
            add(*seg)
        # The period [lw_lo, lw_lo + 1] repeats down to inf.
        period_top = lw_lo + 1
        period = left_window + [(lw_hi, period_top, az(lw_hi), az(period_top), "Lambda2")]
        for j in ps.translates(frame, lw_lo, period_top, -1, 1, math.ceil(period_top - a_lo) - 1):
            for (u, v, vu, vv, tag) in period:
                add(u - j, v - j, vu - j, vv - j, tag)

    # Right expansion zone, cells [w+n-1, w+n], up to the terminal depth or sup.
    last = m_right if m_right is not None else math.ceil(b_hi - w + 1) - 1
    for n in ps.translates(frame, w - 1, w, 1, 1, last):
        cell_bot = w + n - 1
        if n == m_right:
            add(cell_bot, rw_lo, az(cell_bot), az(rw_lo), "Lambda1")
        else:
            add(cell_bot, r + n, az(cell_bot), Fraction(w + n), "Lambda1")
            add(r + n, w + n, Fraction(w + n), Fraction(w + n), "Lambda3")

    if m_right is not None:
        for seg in right_window:
            add(*seg)
        # The period [period_bot, period_bot + 1] repeats up to sup.
        period_bot = rw_hi - 1
        period = [(period_bot, rw_lo, az(period_bot), rw_img_lo, "Lambda2")] + right_window
        for j in ps.translates(frame, period_bot, rw_hi, 1, 1, math.ceil(b_hi - period_bot) - 1):
            for (u, v, vu, vv, tag) in period:
                add(u + j, v + j, vu + j, vv + j, tag)

    pieces.sort(key=lambda p: (p.lo, p.hi))
    notes.extend(left.notes)
    notes.extend(right.notes)
    return tuple(pieces), tuple(dict.fromkeys(notes))


def _reflect_pieces(
    pieces: tuple[plmap.AffinePiece, ...]
) -> tuple[plmap.AffinePiece, ...]:
    out = [
        plmap.AffinePiece(-p.hi, -p.lo, p.slope, -p.intercept, tag=p.tag)
        for p in pieces
    ]
    return tuple(sorted(out, key=lambda p: (p.lo, p.hi)))


def plan_gap(s: PointSet, g: Gap) -> ThresholdPlan:
    """Piece tiling that fuses ``g`` while preserving the unit threshold.

    Runs the chain analysis around ``g`` once: a failing chain raises
    StructureViolated with its failure (right before left), and otherwise
    the pieces are read off the same chains.
    """
    frame, r, w, co_right, co_left = st.co_frame_chains(s, g)
    right, left = st.gap_contexts(g, co_right, co_left)
    for c in (right, left):
        if c.failure is not None:
            raise StructureViolated(c.failure)
    pieces, notes = _co_pieces(frame, r, w, co_left, co_right)
    if g.kind == GapKind.OPEN_CLOSED:
        pieces = _reflect_pieces(pieces)
        notes = notes + ("open-closed gap handled by the mirrored construction",)
        orientation = "open_closed"
    else:
        orientation = "closed_open"
    return ThresholdPlan(g, orientation, left.m, right.m, pieces, notes)


def apply_plan(s: PointSet, plan: ThresholdPlan) -> tuple[plmap.PLMap, PointSet]:
    """Apply the plan; a failed certificate raises CertificateFailed."""
    fmap = plmap.PLMap(plan.pieces, s)
    img = plmap.image(fmap, s)
    _certify(fmap)
    if fmap.apply(plan.gap.lo) != fmap.apply(plan.gap.hi):
        raise CertificateFailed("gap_not_closed", (plan.gap.lo, plan.gap.hi))
    return fmap, img


def sup_norm(fmap: plmap.PLMap) -> Fraction:
    """Exact sup of |f(t) - t| over the map's domain.

    On each atom f(t) - t is affine, so its absolute value peaks at an end
    (a limit at an open one).
    """
    return max(max(abs(a.bottom - a.lo), abs(a.top - a.hi)) for a in fmap.domain_atoms)


def _closed_end(g: Gap) -> Fraction:
    return g.hi if g.kind == GapKind.CLOSED_OPEN else g.lo


def _cell_of(anchor: Fraction, g: Gap) -> int:
    """The k of the unit cell [anchor + k - 2, anchor + k - 1] holding the
    stretch of ``g`` next to its end in the set."""
    x = _closed_end(g) - anchor
    if g.kind == GapKind.CLOSED_OPEN:
        return math.ceil(x) + 1
    return math.floor(x) + 2


@dataclass
class _Removal:
    """One threshold removal in progress: the unit-cell schedule of the bad
    gaps, then the running total map and image, the steps, ledger and notes."""

    anchor: Fraction
    cell_order: list[int]
    cell_gaps: dict[int, list[Gap]]
    cell_deltas: dict[int, list[Fraction]]
    notes: list[str]
    gmap: plmap.PLMap
    current: PointSet
    steps: list[ThresholdStep] = field(default_factory=list)
    ledger: list[Fraction] = field(default_factory=list)
    visited: list[int] = field(default_factory=list)

    def longest(self, originals: list[Gap], floor: Fraction) -> Optional[Gap]:
        """The original gap now longest (leftmost on ties) if it reaches ``floor``."""
        now = {g: self.gmap.apply(g.hi) - self.gmap.apply(g.lo) for g in originals}
        live = [g for g in originals if now[g] >= floor]
        return max(live, key=lambda g: (now[g], -g.lo), default=None)

    def step(self, g0: Gap, cell: int) -> bool:
        """Fuse the original gap ``g0``; False if it is already fused."""
        lo, hi = self.gmap.apply(g0.lo), self.gmap.apply(g0.hi)
        if lo == hi:
            return False
        cur_gap = Gap(lo, hi, g0.kind)
        if cur_gap not in ps.gaps(self.current):
            raise InvariantBroken("tracked gap drifted from the image set")
        try:
            plan = plan_gap(self.current, cur_gap)
        except StructureViolated as e:
            raise StructureViolated(
                e.failure, note="structure broke mid-pipeline; surfacing as a finding"
            ) from e
        fmap, nxt = apply_plan(self.current, plan)
        norm = sup_norm(fmap)
        self.current = nxt
        self.gmap = plmap.compose(fmap, self.gmap)
        self.ledger.append(norm)
        self.steps.append(
            ThresholdStep(len(self.steps) + 1, cell, g0, cur_gap, plan, fmap, norm)
        )
        return True

    def finish(self, eps0=None, eps1=None) -> tuple:
        """Certify the total map, close the ledger and build the trace."""
        for g in ps.bad_gaps(self.current):
            if eps0 is None or g.length >= eps0:
                raise InvariantBroken(f"removal left the bad gap {g}")
        _certify(self.gmap)
        self.ledger.append(Fraction(0))
        trace = ScheduleTrace(
            interval_order=tuple(self.visited),
            per_interval_deltas=tuple(
                tuple(self.cell_deltas.get(k, ())) for k in self.visited
            ),
            eps0=eps0,
            eps1=eps1,
            sup_norm_ledger=tuple(self.ledger),
            steps=tuple(self.steps),
            notes=tuple(dict.fromkeys(self.notes)),
        )
        return self.gmap, self.current, trace


def _schedule(s: PointSet) -> _Removal:
    """Assign the bad gaps of ``s`` to unit cells; the removal starts here."""
    bads = ps.bad_gaps_biggest_first(s)
    anchor = _closed_end(bads[0])
    cell_gaps: dict[int, list[Gap]] = {}
    for g in bads:
        cell_gaps.setdefault(_cell_of(anchor, g), []).append(g)
    # A bad gap is shorter than one unit, so it overlaps one cell or two:
    # those whose interior it meets.  Cells hit by no gap stay unvisited.
    hits: list[tuple[int, int, Fraction]] = []
    for i, g in enumerate(bads):
        for k in range(math.floor(g.lo - anchor) + 2, math.ceil(g.hi - anchor) + 2):
            hits.append((k, i, min(g.hi, anchor + k - 1) - max(g.lo, anchor + k - 2)))
    notes: list[str] = []
    cell_deltas: dict[int, list[Fraction]] = {}
    for k, i, overlap in sorted(hits):
        g = bads[i]
        cell_deltas.setdefault(k, []).append(overlap)
        if overlap < g.length:
            notes.append(
                "straddling gap ledgered as two consecutive bad gaps "
                f"at the grid point inside [{g.lo}, {g.hi}]"
            )
    for parts in cell_deltas.values():
        parts.sort(reverse=True)
    order = sorted(
        cell_gaps, key=lambda k: (-max(g.length for g in cell_gaps[k]), k)
    )
    return _Removal(anchor, order, cell_gaps, cell_deltas, notes, plmap.identity(s), s)


def _prologue(s: PointSet) -> list[Gap]:
    """Checks shared by both removals; returns the bad gaps, biggest first."""
    if not s:
        raise EmptySet("nothing to remove from the empty set")
    report = st.check_all(s)
    if not report.passed:
        raise StructureViolated(report.failure)
    return ps.bad_gaps_biggest_first(s)


def _identity_trace(s: PointSet, eps0=None, eps1=None) -> tuple:
    return plmap.identity(s), s, ScheduleTrace((), (), eps0, eps1, (), (), ())


def remove_strong(s: PointSet) -> tuple[plmap.PLMap, PointSet, ScheduleTrace]:
    """Remove every bad gap while preserving the unit threshold exactly."""
    if not _prologue(s):
        return _identity_trace(s)
    run = _schedule(s)
    for k in run.cell_order:
        run.visited.append(k)
        for g0 in sorted(run.cell_gaps[k], key=lambda g: (-g.length, g.lo)):
            if not run.step(g0, k):
                run.notes.append(f"gap at [{g0.lo}, {g0.hi}] already fused; skipped")
    return run.finish()


def remove_epsilon(
    s: PointSet, eps0: Fraction
) -> tuple[plmap.PLMap, PointSet, ScheduleTrace]:
    """Shrink every bad gap below ``eps0`` while preserving the unit threshold."""
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    bads = _prologue(s)
    if not bads:
        return _identity_trace(s, eps0=eps0, eps1=eps0 / 2)
    run = _schedule(s)
    budget = Fraction(1)
    for deltas in run.cell_deltas.values():
        factor = 1 - sum(deltas, Fraction(0))
        if factor <= 0:
            raise StructureViolated(None, note="a unit cell is entirely bad gaps")
        budget *= factor
    eps1 = eps0 * budget / 2
    if bads[0].length < eps0:
        return _identity_trace(s, eps0=eps0, eps1=eps1)
    for k in run.cell_order:
        run.visited.append(k)
        while (g := run.longest(run.cell_gaps[k], eps1)) is not None:
            run.step(g, k)
    # Budget safety: the per-cell stop bound uses the original masses, so a
    # heavily re-stretched residue could in principle still reach eps0.
    while (g := run.longest(bads, eps0)) is not None:
        cell = _cell_of(run.anchor, g)
        run.visited.append(cell)
        run.notes.append("budget safety pass revisited a cell")
        run.step(g, cell)
    return run.finish(eps0, eps1)
