"""Finite semiorders: axioms, trace, Scott-Suppes values under threshold 1.

Verdicts, the trace and the irreducible cuts come from one O(n^2) pass that
reads the relation's threshold shape off its predecessor and successor
counts; only a failed check searches, in O(n^3) over row bitsets, for the
first violating quadruple.

Representations are synthesized as integers under the threshold k = 2n by
one Bellman-Ford solve of difference constraints: x < y forces
u(y) - u(x) >= k + 1, incomparability forces |u(y) - u(x)| <= k, and the
trace order is imposed so the output is trace-monotone (equal values inside
each trace class).  Dividing by k gives exact rational values under
threshold 1.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .rationals import format_rational

Matrix = tuple[tuple[bool, ...], ...]


class NotAsymmetric(ValueError):
    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"relation not asymmetric/irreflexive at ({i}, {j})")


class NotASemiorder(ValueError):
    """Relation violates one of the two semiorder axioms."""


class SynthesisFailed(RuntimeError):
    """No certified representation; ``witness`` is the failing pair, if any."""

    def __init__(self, message: str, witness: Optional[tuple[int, int]] = None):
        self.witness = witness
        super().__init__(message)


class TooLarge(ValueError):
    """Enumeration beyond the bound GAPSMITH_MAX_N, or that bound is malformed."""


def _as_matrix(strict) -> Matrix:
    return tuple(tuple(bool(v) for v in row) for row in strict)


@dataclass(frozen=True)
class Semiorder:
    n: int
    strict: Matrix

    def __post_init__(self) -> None:
        if len(self.strict) != self.n or any(len(r) != self.n for r in self.strict):
            raise ValueError("relation matrix has the wrong shape")
        for i in range(self.n):
            if self.strict[i][i]:
                raise NotAsymmetric(i, i)
            for j in range(i + 1, self.n):
                if self.strict[i][j] and self.strict[j][i]:
                    raise NotAsymmetric(i, j)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "strict": [list(row) for row in self.strict]}


def semiorder(n: int, pairs: Iterable[tuple[int, int]]) -> Semiorder:
    m = [[False] * n for _ in range(n)]
    for x, y in pairs:
        m[x][y] = True
    return Semiorder(n, _as_matrix(m))


def from_json_dict(obj: dict) -> Semiorder:
    """A relation from JSON: ``n`` an integer, every ``strict`` entry a boolean."""
    n, strict = obj["n"], obj["strict"]
    if type(n) is not int or not all(isinstance(v, bool) for row in strict for v in row):
        raise TypeError("n must be an integer and every strict entry true or false")
    return Semiorder(n, _as_matrix(strict))


@dataclass(frozen=True)
class SSRep:
    """Utility values under the fixed threshold 1."""

    values: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {"values": [format_rational(v) for v in self.values]}


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class Valid:
    kind: str = "valid"

    def to_json_dict(self) -> dict:
        return {"verdict": self.kind}


@dataclass(frozen=True)
class Violates1:
    x: int
    y: int
    z: int
    t: int
    kind: str = "violates1"

    def to_json_dict(self) -> dict:
        return {"verdict": self.kind, "witness": [self.x, self.y, self.z, self.t]}


@dataclass(frozen=True)
class Violates2:
    x: int
    y: int
    z: int
    w: int
    kind: str = "violates2"

    def to_json_dict(self) -> dict:
        return {"verdict": self.kind, "witness": [self.x, self.y, self.z, self.w]}


Verdict = Union[Valid, Violates1, Violates2]


def check_axioms(strict) -> Verdict:
    """Semiorder axioms on an asymmetric irreflexive matrix, with witnesses."""
    m = _as_matrix(strict)
    Semiorder(len(m), m)  # raises NotAsymmetric
    return Valid() if _shape(m) else _witness(m)


_Shape = tuple[list[int], list[int], list[int], list[int]]


def _shape(m: Matrix) -> Optional[_Shape]:
    """(pred counts, succ counts, order, f) in O(n^2), or None off semiorders.

    Exactly the semiorders, listed in trace order, are x_i < x_j iff j >= f(i)
    with f non-decreasing (Wine & Freund 1957).  Their pred and succ sets are
    nested, so sorting by (pred, -succ, index) gives f(i) = n - succ(order[i]).
    """
    n = len(m)
    succ = [sum(row) for row in m]
    pred = [sum(col) for col in zip(*m)]
    order = sorted(range(n), key=lambda x: (pred[x], -succ[x], x))
    f = [n - succ[x] for x in order]
    if any(a > b for a, b in zip(f, f[1:])):
        return None
    if not all(m[x][y] for x, fx in zip(order, f) for y in order[fx:]):
        return None
    return pred, succ, order, f


def _witness(m: Matrix) -> Verdict:
    """The first violating quadruple in ``itertools.product`` order, in O(n^3):
    over row and column bitsets, the last index is the lowest bit of one mask."""
    n = len(m)
    succ = [sum(1 << t for t in range(n) if m[x][t]) for x in range(n)]
    pred = [sum(1 << w for w in range(n) if m[w][z]) for z in range(n)]
    below = [(x, y) for x in range(n) for y in range(n) if m[x][y]]
    for x, y in below:
        for z in range(n):
            bits = succ[z] & ~succ[x]
            if bits and not m[z][y]:
                return Violates1(x, y, z, (bits & -bits).bit_length() - 1)
    for x, y in below:
        for z in range(n):
            bits = ~succ[x] & ~pred[z] & ((1 << n) - 1)
            if bits and m[y][z]:
                return Violates2(x, y, z, (bits & -bits).bit_length() - 1)
    return Valid()


def _require_semiorder(r: Semiorder) -> _Shape:
    shape = _shape(r.strict)
    if shape is None:
        raise NotASemiorder(f"axiom violation: {_witness(r.strict)}")
    return shape


def trace(r: Semiorder) -> Matrix:
    """The weak trace matrix: [x][y] iff pred(x) lies in pred(y) and succ(x)
    contains succ(y), that is, x is trace-below or trace-equivalent to y.

    Both are nested in a semiorder, so counts decide; others raise NotASemiorder.
    """
    pred, succ, _, _ = _require_semiorder(r)
    return tuple(
        tuple(px <= py and sx >= sy for py, sy in zip(pred, succ))
        for px, sx in zip(pred, succ)
    )


def check_ss(r: Semiorder, u: SSRep) -> tuple[bool, Optional[tuple[int, int]]]:
    """x < y  <=>  u(x)+1 < u(y), over all ordered pairs; witness on failure."""
    if len(u.values) != r.n:
        raise ValueError("value count does not match the ground set")
    values = u.values
    for x, row in enumerate(r.strict):
        above = values[x] + 1
        for y, v in enumerate(values):
            if x != y and row[y] != (above < v):
                return False, (x, y)
    return True, None


def synthesize_ss(r: Semiorder) -> SSRep:
    """Trace-monotone rational representation via one shortest-path solve.

    Every finite semiorder on n points has an integer representation with a
    threshold of at most n - 2 (Pirlot 1990), so integers under threshold
    k = 2n always exist; dividing them by k gives values under threshold 1.
    """
    weak = trace(r)
    n = r.n
    k = 2 * n
    edges: list[tuple[int, int, int]] = []
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if r.strict[x][y]:
                edges.append((y, x, -(k + 1)))  # u_x <= u_y - k - 1
            else:
                edges.append((x, y, k))  # u_y <= u_x + k
            if weak[x][y]:
                edges.append((y, x, 0))  # u_x <= u_y
    dist = [0] * n
    for _ in range(n + 1):
        changed = False
        for a, b, wgt in edges:
            if dist[a] + wgt < dist[b]:
                dist[b] = dist[a] + wgt
                changed = True
        if not changed:
            break
    else:
        raise SynthesisFailed(f"negative cycle under threshold {k} on a valid semiorder")
    low = min(dist, default=0)
    rep = SSRep(tuple(Fraction(v - low, k) for v in dist))
    ok, witness = check_ss(r, rep)
    if not ok:
        raise SynthesisFailed(
            f"solver produced an invalid representation: {witness}", witness
        )
    return rep


# -- irreducible decomposition and gluing --------------------------------------


def irreducible_blocks(r: Semiorder) -> list[list[int]]:
    """Element blocks of the finest cut decomposition, in order.

    In trace order x_i < x_j iff j >= f(i), with f non-decreasing, so every
    element before position c lies below every element from c on exactly
    when f(c - 1) <= c.
    """
    _, _, order, f = _require_semiorder(r)
    blocks: list[list[int]] = []
    start = 0
    for cut in range(1, r.n):
        if f[cut - 1] <= cut:
            blocks.append(sorted(order[start:cut]))
            start = cut
    blocks.append(sorted(order[start:]))
    return blocks


def _induced(r: Semiorder, elements: Sequence[int]) -> Semiorder:
    return Semiorder(len(elements), tuple(
        tuple(r.strict[a][b] for b in elements) for a in elements
    ))


def irreducible_components(r: Semiorder) -> list[Semiorder]:
    """Sub-semiorders whose cut concatenation reconstructs the relation."""
    return [_induced(r, block) for block in irreducible_blocks(r)]


def concat_semiorders(parts: Sequence[Semiorder]) -> Semiorder:
    """Disjoint union with every earlier-part element below every later one."""
    cells = [(i, a) for i, p in enumerate(parts) for a in range(p.n)]
    return Semiorder(len(cells), tuple(
        tuple(i < j or (i == j and parts[i].strict[a][b]) for j, b in cells)
        for i, a in cells
    ))


def glue(parts: Sequence[tuple[Semiorder, SSRep]]) -> SSRep:
    """Left-fold of the two-block gluing: later values shift by sup-inf+2."""
    if not parts:
        raise ValueError("nothing to glue")
    values = list(parts[0][1].values)
    for _, rep in parts[1:]:
        shift = max(values) - min(rep.values) + 2
        values.extend(v + shift for v in rep.values)
    return SSRep(tuple(values))


# -- exhaustive enumeration -----------------------------------------------------


def _max_n() -> int:
    raw = os.environ.get("GAPSMITH_MAX_N", "6")
    try:
        return int(raw)
    except ValueError:
        raise TooLarge(f"GAPSMITH_MAX_N must be an integer, got {raw!r}") from None


def _shapes(n: int) -> list[tuple[int, ...]]:
    """Every non-decreasing f on 0..n-1 with i < f(i) <= n (Catalan many)."""
    fs: list[tuple[int, ...]] = [()]
    for i in range(n):
        fs = [f + (v,) for f in fs
              for v in range(max(f[-1] if f else 0, i + 1), n + 1)]
    return fs


def enumerate_semiorders(
    n: int, up_to_iso: bool = False
) -> tuple[int, list[Semiorder]]:
    """All semiorders on n labeled points, or one per isomorphism class.

    Listing the elements of a semiorder in trace order, x < y iff y lies at or
    beyond a non-decreasing threshold f(x) > x; distinct f give non-isomorphic
    shapes (Wine & Freund 1957).  The labeled semiorders are the distinct
    relabelings of the shapes.
    """
    if n > _max_n():
        raise TooLarge(f"n={n} above the enumeration cap {_max_n()}")
    if n < 1:
        raise ValueError("n must be positive")
    rng = range(n)
    found = [tuple(tuple(j >= f[i] for j in rng) for i in rng) for f in _shapes(n)]
    if not up_to_iso:
        found = list(dict.fromkeys(
            tuple(tuple(m[a][b] for b in perm) for a in perm)
            for m in found
            for perm in itertools.permutations(rng)
        ))
    out = [Semiorder(n, m) for m in found]
    return len(out), out
