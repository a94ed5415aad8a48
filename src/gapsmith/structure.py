"""Structural verifier for the image set around each bad gap.

For a half-open gap [r, w) the unit translates of the gap interval are probed
in both directions.  Away from the closed side the window may keep being a
gap holding at most the adjoint point (A-steps); toward the closed side it
may hold one drifting singleton per depth.  The chain terminates either by
leaving the span or at a B-step: a window that, extended by the maximal
gamma margins to the nearest material on each side, still holds at most one
point.  Deeper structure is then unconstrained except where a zero margin
pins the squeeze to an endpoint; those windows' unit translates may carry at
most one occupant each, drifting down by at most one per step.

All arithmetic is exact; there is no tolerance anywhere in this module.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import pointset as ps
from .pointset import EmptySet, Gap, GapKind, NotBad, PointSet
from .rationals import format_rational

GAMMA_CAP = Fraction(1, 2)


class GapTooLong(ValueError):
    """Bad gap of length 1 or more; no threshold map can close it."""


class CaseTag(enum.Enum):
    A1 = "A1"
    B111 = "B111"
    B112 = "B112"
    B113 = "B113"
    B12 = "B12"
    A2 = "A2"
    B211 = "B211"
    B212 = "B212"
    B22 = "B22"


class FailReason(enum.Enum):
    GAP_TOO_LONG = "gap_too_long"
    SINGLETON_VIOLATION = "singleton_violation"
    CHAIN_ORDER = "chain_order"
    INTERIOR_SINGLETON = "interior_singleton"
    FLAT_TRANSLATE_OCCUPIED = "flat_translate_occupied"


@dataclass(frozen=True)
class StepReport:
    n: int
    case: CaseTag
    singleton: Optional[Fraction]
    gamma_l: Fraction
    gamma_r: Fraction

    def to_json_dict(self) -> dict:
        d: dict = {"n": self.n, "case": self.case.value}
        if self.singleton is not None:
            d["singleton"] = format_rational(self.singleton)
        d["gamma_l"] = format_rational(self.gamma_l)
        d["gamma_r"] = format_rational(self.gamma_r)
        return d


@dataclass(frozen=True)
class Failure:
    gap: Gap
    direction: str
    n: int
    reason: FailReason

    def to_json_dict(self) -> dict:
        return {
            "gap": self.gap.to_json_dict(),
            "direction": self.direction,
            "n": self.n,
            "reason": self.reason.value,
        }


@dataclass(frozen=True)
class ChainInfo:
    """One direction of the analysis, in the frame where the gap is [r, w)."""

    steps: tuple[StepReport, ...]
    terminal: str  # "b" | "exit" | "fail"
    m: Optional[int]
    gamma_l: Optional[Fraction]
    gamma_r: Optional[Fraction]
    singleton: Optional[Fraction]
    failure: Optional[tuple[int, FailReason]]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class GapContext:
    gap: Gap
    r: Fraction
    ua: Fraction
    direction: str  # "right" | "left" in the set's own orientation
    steps: tuple[StepReport, ...]
    terminal: str
    m: Optional[int]
    failure: Optional[Failure]
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        d: dict = {
            "direction": self.direction,
            "r": format_rational(self.r),
            "ua": format_rational(self.ua),
            "terminal": self.terminal,
        }
        if self.m is not None:
            d["m"] = self.m
        d["steps"] = [s.to_json_dict() for s in self.steps]
        if self.failure is not None:
            d["failure"] = self.failure.to_json_dict()
        if self.notes:
            d["notes"] = list(self.notes)
        return d


@dataclass(frozen=True)
class StructureReport:
    per_gap: tuple[GapContext, ...]
    verdict: str  # "pass" | "fail"
    failure: Optional[Failure]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        grouped: dict = {}
        order: list[Gap] = []
        for ctx in self.per_gap:
            key = (ctx.gap.lo, ctx.gap.hi)
            if key not in grouped:
                grouped[key] = {"gap": ctx.gap.to_json_dict(), "contexts": []}
                order.append(key)
            grouped[key]["contexts"].append(ctx.to_json_dict())
        return {
            "verdict": self.verdict,
            "failure": self.failure.to_json_dict() if self.failure else None,
            "gaps": [grouped[k] for k in order],
            "notes": list(self.notes),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())


@dataclass(frozen=True)
class _Probe:
    lo: Fraction
    hi: Fraction
    members: Optional[list[Fraction]]
    gamma_l: Fraction
    gamma_r: Fraction
    prev_singleton: Optional[Fraction]


def _gammas(d: PointSet, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    gl = ps.closure_gap_below(d, lo)
    gr = ps.closure_gap_above(d, hi)
    gl = GAMMA_CAP if gl is None else min(gl, GAMMA_CAP)
    gr = GAMMA_CAP if gr is None else min(gr, GAMMA_CAP)
    return gl, gr


def _translate_chain_ok(
    d: PointSet, u: Fraction, v: Fraction, anchor: Fraction
) -> bool:
    """Unit translates [u+k, v+k], k >= 1, of a pinned flat [u, v]: at most one
    occupant each, drifting by at most +1 per step relative to the previous
    occupant; an empty translate resets the drift.

    Only the translates that meet material are probed, as ``ps.translates``
    walks them, so the cost follows the components past the flat, not the
    span.
    """
    q_prev: Optional[Fraction] = anchor
    k_prev = 0
    for k in ps.translates(d, u, v, 1, 1, math.floor(d.sup - u)):
        if k != k_prev + 1:
            q_prev = None  # the translates skipped were empty
        members = ps.members_in_interval(d, u + k, v + k)
        if members is None or len(members) > 1:
            return False
        if members:
            q = members[0]
            if q_prev is not None and q > q_prev + 1:
                return False
            q_prev = q
        else:
            q_prev = None
        k_prev = k
    return True


# A B-validity test returns the terminal's (tag, singleton, notes), or None
# when the probe is no B-step.
_BStep = Optional[tuple[CaseTag, Optional[Fraction], tuple[str, ...]]]


def _b_valid_right(d: PointSet, probe: _Probe) -> _BStep:
    members = probe.members
    if members is None or len(members) > 1 or probe.gamma_l + probe.gamma_r == 0:
        return None
    if not members:
        return CaseTag.B12, None, ()
    s = members[0]
    if probe.prev_singleton is not None and s > probe.prev_singleton + 1:
        return None
    notes: list[str] = []
    for pinned, u, v in ((probe.gamma_l == 0, probe.lo, s), (probe.gamma_r == 0, s, probe.hi)):
        if pinned and u < v:
            if not _translate_chain_ok(d, u, v, s):
                return None
            notes.append(
                "case (ci) continuation read as occupancy chain on translates of "
                f"[{format_rational(u)}, {format_rational(v)}]"
            )
    if probe.gamma_r == 0:
        tag = CaseTag.B111
    elif probe.gamma_l == 0:
        tag = CaseTag.B112
    else:
        tag = CaseTag.B113
    return tag, s, tuple(notes)


def _b_valid_left(probe: _Probe) -> _BStep:
    members = probe.members
    if members is None or len(members) > 1 or probe.gamma_l + probe.gamma_r == 0:
        return None
    if not members:
        return CaseTag.B22, None, ()
    # The corollary admits only the adjoint point here, and only with a margin
    # below it: gamma_l == 0 is the b211 shape, which belongs to the A-chain
    # (the condition min(gamma_l, (1 - delta)/2) == 0, as delta < 1).
    if members[0] < probe.hi or probe.gamma_l == 0:
        return None
    return CaseTag.B212, members[0], ()


def _terminal(
    probes: list[_Probe],
    a_steps: list[StepReport],
    n: int,
    reason: FailReason,
    b_valid: Callable[[_Probe], _BStep],
) -> ChainInfo:
    """End a chain at its deepest B-valid probe.  Without one the chain fails
    at depth ``n`` with ``reason``, the reason its walk broke."""
    for m in range(len(probes), 0, -1):
        probe = probes[m - 1]
        b_step = b_valid(probe)
        if b_step is not None:
            tag, s, notes = b_step
            steps = tuple(a_steps[: m - 1]) + (
                StepReport(m, tag, s, probe.gamma_l, probe.gamma_r),
            )
            return ChainInfo(
                steps, "b", m, probe.gamma_l, probe.gamma_r, s, None, notes
            )
    return ChainInfo(tuple(a_steps), "fail", None, None, None, None, (n, reason))


def _chain_right(d: PointSet, r: Fraction, w: Fraction) -> ChainInfo:
    a_steps: list[StepReport] = []
    probes: list[_Probe] = []
    prev: Optional[Fraction] = w
    n = 1
    while True:
        lo, hi = r + n, w + n
        if lo >= d.sup:
            return ChainInfo(tuple(a_steps), "exit", None, None, None, None, None)
        members = ps.members_in_interval(d, lo, hi)
        gl, gr = _gammas(d, lo, hi)
        probes.append(_Probe(lo, hi, members, gl, gr, prev))
        if members is not None and len(members) <= 1 and gl == 0 and gr == 0:
            s = members[0] if members else None
            if s is not None and prev is not None and s > prev + 1:
                reason = FailReason.CHAIN_ORDER
                break
            a_steps.append(StepReport(n, CaseTag.A1, s, gl, gr))
            prev = s
            n += 1
            continue
        if members is None or len(members) > 1:
            reason = FailReason.SINGLETON_VIOLATION
        elif members and prev is not None and members[0] > prev + 1:
            reason = FailReason.CHAIN_ORDER
        else:
            # At most one member, in chain order, margins not both zero: as a
            # terminal this probe fails only on an occupied flat translate,
            # and the chain fails with its reason when no probe is B-valid.
            reason = FailReason.FLAT_TRANSLATE_OCCUPIED
        break
    return _terminal(probes, a_steps, n, reason, lambda p: _b_valid_right(d, p))


def _chain_left(d: PointSet, r: Fraction, w: Fraction) -> ChainInfo:
    a_steps: list[StepReport] = []
    probes: list[_Probe] = []
    n = 1
    while True:
        lo, hi = r - n, w - n
        if hi <= d.inf:
            return ChainInfo(tuple(a_steps), "exit", None, None, None, None, None)
        members = ps.members_in_interval(d, lo, hi)
        gl, gr = _gammas(d, lo, hi)
        probes.append(_Probe(lo, hi, members, gl, gr, None))
        interior_free = members is not None and all(q == hi for q in members)
        if interior_free:
            s = members[0] if members else None
            if s is not None and gl == 0 and gr > 0:
                tag = CaseTag.B211  # b211 shape; the corollary folds it into A2
            else:
                tag = CaseTag.A2
            a_steps.append(StepReport(n, tag, s, gl, gr))
            n += 1
            continue
        if members is None or len(members) > 1:
            reason = FailReason.SINGLETON_VIOLATION
        else:
            reason = FailReason.INTERIOR_SINGLETON
        break
    return _terminal(probes, a_steps, n, reason, _b_valid_left)


def _reflect_chain(info: ChainInfo) -> ChainInfo:
    steps = tuple(
        StepReport(
            s.n,
            s.case,
            -s.singleton if s.singleton is not None else None,
            s.gamma_r,
            s.gamma_l,
        )
        for s in info.steps
    )
    return ChainInfo(
        steps,
        info.terminal,
        info.m,
        info.gamma_r,
        info.gamma_l,
        -info.singleton if info.singleton is not None else None,
        info.failure,
        info.notes,
    )


def co_frame_chains(
    s: PointSet, g: Gap
) -> tuple[PointSet, Fraction, Fraction, ChainInfo, ChainInfo]:
    """Reflect OpenClosed gaps and run both chains in the [r, w) frame.

    Returns (frame set, r, w, right chain, left chain) in that frame.
    """
    if not g.is_bad:
        raise NotBad(f"{g} is not half-open")
    if g.length >= 1:
        raise GapTooLong(f"{g} has length >= 1")
    if g.kind == GapKind.CLOSED_OPEN:
        frame = s
        r, w = g.lo, g.hi
    else:
        frame = ps.reflect(s)
        r, w = -g.hi, -g.lo
    return frame, r, w, _chain_right(frame, r, w), _chain_left(frame, r, w)


def gap_contexts(
    g: Gap, co_right: ChainInfo, co_left: ChainInfo
) -> tuple[GapContext, GapContext]:
    """The chains ``co_frame_chains`` ran for ``g``, as (right, left) contexts
    in the set's own orientation."""
    if g.kind == GapKind.CLOSED_OPEN:
        r, ua = g.lo, g.hi
        right_info, left_info = co_right, co_left
    else:
        r, ua = g.hi, g.lo
        right_info = _reflect_chain(co_left)
        left_info = _reflect_chain(co_right)

    def ctx(direction: str, info: ChainInfo) -> GapContext:
        failure = None
        if info.failure is not None:
            failure = Failure(g, direction, info.failure[0], info.failure[1])
        return GapContext(
            gap=g,
            r=r,
            ua=ua,
            direction=direction,
            steps=info.steps,
            terminal=info.terminal,
            m=info.m,
            failure=failure,
            notes=info.notes,
        )

    return ctx("right", right_info), ctx("left", left_info)


def analyze_gap(s: PointSet, g: Gap) -> tuple[GapContext, GapContext]:
    """Both direction chains for one bad gap, as (right, left) contexts."""
    _, _, _, co_right, co_left = co_frame_chains(s, g)
    return gap_contexts(g, co_right, co_left)


def check_all(s: PointSet) -> StructureReport:
    """Analyze every bad gap in biggest-first order; Pass iff none fails."""
    if not s:
        raise EmptySet("nothing to check in the empty set")
    contexts: list[GapContext] = []
    first_failure: Optional[Failure] = None
    notes: list[str] = []
    for g in ps.bad_gaps_biggest_first(s):
        if g.length >= 1:
            failure = Failure(g, "both", 0, FailReason.GAP_TOO_LONG)
            contexts.append(GapContext(g, g.lo, g.hi, "right", (), "fail", None, failure))
            if first_failure is None:
                first_failure = failure
            continue
        right, left = analyze_gap(s, g)
        contexts.extend((right, left))
        for ctx in (right, left):
            notes.extend(ctx.notes)
            if ctx.failure is not None and first_failure is None:
                first_failure = ctx.failure
    verdict = "pass" if first_failure is None else "fail"
    return StructureReport(tuple(contexts), verdict, first_failure, tuple(dict.fromkeys(notes)))
