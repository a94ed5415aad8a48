"""The four workloads: inputs, one operation kind each, and output checks.

A workload builds a pool of inputs from the seed (that is set-up), then
cycles through a fixed list of tasks.  Every task but the semiorder
enumerations is one operation on one pool input.  The first output of each
input is checked in full as soon as it appears, outside the timed
operations, and every later output of the same input must equal it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from gapsmith import cli, debreu, semiorder, structure, threshold
from gapsmith import pointset as ps

from perfbench import exact
from perfbench import generators as gen

EPS0 = Fraction(1, 8)
REPORT, OUT, TRACE = "report.json", "out.json", "trace.jsonl"


@dataclass
class Task:
    run: Callable[[], object]
    key: object  # outputs with the same key must be equal
    counted: bool = True  # False: inside the timed phase but not an operation


@dataclass
class Checked:
    """What the full check of one output found."""

    pieces: float  # per input of the operation
    den_bits: int


class Workload:
    name = ""
    whole_passes = False  # stop the timed phase only at the end of a pass

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tasks: list[Task] = []

    def build(self) -> None:
        """Generate the inputs and the task list (set-up)."""
        raise NotImplementedError

    def fingerprint(self, key, output) -> object:
        """A hashable value that is equal for equal outputs of input ``key``."""
        return output

    def check(self, key, output) -> Checked:
        """Full check of one output; raises exact.CheckFailed."""
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(self.workdir))


# -- weak-dense ------------------------------------------------------------------


class WeakDense(Workload):
    name = "weak-dense"
    POOL = 16 * len(gen.WEAK_GAPS)  # more than a run reaches; each input runs once

    def build(self) -> None:
        self.pool = gen.weak_pool(self.rng, self.POOL)
        self.tasks = [Task(lambda s=s: debreu.remove_all(s), i)
                      for i, s in enumerate(self.pool)]

    def check(self, key, trace) -> Checked:
        s = self.pool[key]
        comps = exact.components_of(s)
        pieces = exact.pieces_of(trace.total_map)
        final = exact.components_of(trace.final_set)
        parts = exact.check_removal(comps, pieces, final, threshold=False)
        lo, hi = s.inf, s.sup
        if final[0][0] != lo or final[-1][1] != hi:
            raise exact.CheckFailed("span not preserved")
        width = hi - lo
        bad = exact.half_open_gaps(comps)
        order = sorted(bad, key=lambda g: (-(g[1] - g[0]), g[0]))
        if len(trace.steps) != len(order):
            raise exact.CheckFailed(f"{len(trace.steps)} steps for {len(order)} bad gaps")
        removed = Fraction(0)
        for step, (g_lo, g_hi) in zip(trace.steps, order):
            d = (g_hi - g_lo) / width
            law = d / (1 - removed)
            current = step.current_gap.hi - step.current_gap.lo
            if step.delta != d or step.l != law or current != law * width:
                raise exact.CheckFailed(f"ledger law broken at step {step.index}")
            removed += d
        # Distance law in closed form: g(x) = inf + (x - inf - B(x)) W / (W - M).
        mass = sum((g_hi - g_lo for g_lo, g_hi in bad), Fraction(0))
        scale = width / (width - mass)
        below = Fraction(0)
        gaps_left = sorted(bad)
        for atom in parts:
            while gaps_left and gaps_left[0][1] <= atom.lo:
                g_lo, g_hi = gaps_left.pop(0)
                below += g_hi - g_lo
            for x in (atom.lo, atom.hi):
                if atom.at(x) != lo + (x - lo - below) * scale:
                    raise exact.CheckFailed(f"distance law broken at {x}")
        return Checked(len(pieces), _bits(pieces, final))


# -- strong-clusters ---------------------------------------------------------------


class StrongClusters(Workload):
    name = "strong-clusters"
    POOL = 480  # 40 cycles of the family ladder

    def build(self) -> None:
        self.pool = gen.strong_pool(self.rng, self.POOL)
        self.tasks = [Task(lambda s=s: self.operate(s), i) for i, s in enumerate(self.pool)]

    @staticmethod
    def operate(s: ps.PointSet):
        report = structure.check_all(s)
        strong = threshold.remove_strong(s)
        epsilon = threshold.remove_epsilon(s, EPS0)
        return report.passed, strong[:2], epsilon[:2]

    def check(self, key, output) -> Checked:
        passed, (strong_map, strong_final), (eps_map, eps_final) = output
        if not passed:
            raise exact.CheckFailed("structure check rejected a Pass family")
        comps = exact.components_of(self.pool[key])
        pieces, finals = [], []
        for m, final, eps in ((strong_map, strong_final, None), (eps_map, eps_final, EPS0)):
            pieces += exact.pieces_of(m)
            finals += exact.components_of(final)
            exact.check_removal(comps, exact.pieces_of(m), exact.components_of(final),
                                threshold=True, eps0=eps)
        return Checked(len(pieces), _bits(pieces, finals))


# -- strong-wide-span ------------------------------------------------------------


class StrongWideSpan(Workload):
    name = "strong-wide-span"
    whole_passes = True  # every run measures each K the same number of times
    POOL = 40

    def build(self) -> None:
        self.pool = gen.wide_pool(self.rng, self.POOL)
        os.makedirs(self.workdir, exist_ok=True)
        self.tasks = []
        for i, s in enumerate(self.pool):
            path = self.path(f"{i}-in.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(s.dumps())
            report = ["report", "--input", path, "--output", self.path(REPORT)]
            remove = ["remove", "--mode", "strong", "--input", path,
                      "--output", self.path(OUT), "--trace", self.path(TRACE)]
            self.tasks.append(Task(lambda a=report, b=remove: (cli.main(a), cli.main(b)), i))

    def path(self, leaf: str) -> str:
        return os.path.join(self.workdir, leaf)

    # Every operation writes the same three files; they are read back before
    # the next operation starts.

    def fingerprint(self, key, codes):
        digest = hashlib.sha256()
        for leaf in (REPORT, OUT, TRACE):
            with open(self.path(leaf), "rb") as fh:
                digest.update(fh.read())
        return codes, digest.hexdigest()

    def bytes_out(self, key) -> int:
        return sum(os.path.getsize(self.path(leaf)) for leaf in (REPORT, OUT, TRACE))

    def check(self, key, codes) -> Checked:
        if codes != (0, 0):
            raise exact.CheckFailed(f"exit codes {codes}")
        with open(self.path(REPORT), encoding="utf-8") as fh:
            if json.load(fh)["structure"]["verdict"] != "pass":
                raise exact.CheckFailed("structure verdict is not pass")
        with open(self.path(OUT), encoding="utf-8") as fh:
            payload = json.load(fh)
        pieces = [tuple(Fraction(p[k]) for k in ("lo", "hi", "slope", "intercept"))
                  for p in payload["map"]["pieces"]]
        final = [_component(c) for c in payload["final"]["components"]]
        exact.check_removal(exact.components_of(self.pool[key]), pieces, final, threshold=True)
        with open(self.path(TRACE), encoding="utf-8") as fh:
            if sum(1 for _ in fh) != payload["steps"]:
                raise exact.CheckFailed("trace line count differs from the step count")
        return Checked(len(pieces), _bits(pieces, final))


def _component(obj: dict) -> tuple:
    if obj["kind"] == "point":
        at = Fraction(obj["at"])
        return (at, at, True, True)
    return (Fraction(obj["lo"]), Fraction(obj["hi"]), obj["lo_closed"], obj["hi_closed"])


# -- semiorder-n5 -------------------------------------------------------------------


LABELED, UP_TO_ISO = "labeled", "iso"


class SemiorderN5(Workload):
    name = "semiorder-n5"
    whole_passes = True

    # One operation runs the pipeline on this many consecutive relations.  One
    # relation takes about 1 ms, below the time scale on which the host's
    # speed wobbles, and its 90th percentile moved 11 % between runs.
    BLOCK = 16

    def build(self) -> None:
        n = gen.SEMIORDER_N
        self.pool = gen.semiorder_pool(self.rng)
        self.tasks = [
            Task(lambda: semiorder.enumerate_semiorders(n), LABELED, counted=False),
            Task(lambda: semiorder.enumerate_semiorders(n, up_to_iso=True), UP_TO_ISO,
                 counted=False),
        ]
        for start in range(0, len(self.pool), self.BLOCK):
            block = self.pool[start:start + self.BLOCK]
            self.tasks.append(Task(lambda b=block: [self.operate(m) for m in b], start))

    @staticmethod
    def operate(matrix):
        verdict = semiorder.check_axioms(matrix)
        rel = semiorder.Semiorder(len(matrix), matrix)
        rep = semiorder.synthesize_ss(rel)
        certified, _ = semiorder.check_ss(rel, rep)
        parts = semiorder.irreducible_components(rel)
        glued = semiorder.glue([(p, semiorder.synthesize_ss(p)) for p in parts])
        return verdict.kind, certified, rep.values, tuple(p.strict for p in parts), glued.values

    def fingerprint(self, key, output):
        if key in (LABELED, UP_TO_ISO):
            count, items = output
            return count, tuple(r.strict for r in items)
        return tuple(output)

    def check(self, key, output) -> Checked:
        if key in (LABELED, UP_TO_ISO):
            count, items = output
            expected = {LABELED: 2371, UP_TO_ISO: 42}[key]
            if count != expected or len(items) != expected:
                raise exact.CheckFailed(f"{key} enumeration found {count}, expected {expected}")
            if not all(gen.is_semiorder(r.strict) for r in items):
                raise exact.CheckFailed(f"{key} enumeration returned a non-semiorder")
            if key == LABELED and {r.strict for r in items} != set(self.pool):
                raise exact.CheckFailed("labeled enumeration differs from the brute force")
            return Checked(0, 1)
        components, bits = 0, 1
        for matrix, (kind, certified, values, parts, glued) in zip(self.pool[key:], output):
            if kind != "valid" or not certified:
                raise exact.CheckFailed("semiorder not accepted")
            _pair_check(matrix, values)
            if sum(len(p) for p in parts) != len(matrix):
                raise exact.CheckFailed("components do not cover the ground set")
            _pair_check(_concat(parts), glued)
            components += len(parts)
            bits = max(bits, exact.den_bits(values + glued))
        return Checked(components / len(output), bits)


def _pair_check(matrix, values) -> None:
    """x < y  <=>  u(x) + 1 < u(y) for every ordered pair."""
    n = len(matrix)
    if len(values) != n:
        raise exact.CheckFailed("value vector has the wrong length")
    for x in range(n):
        for y in range(n):
            if x != y and bool(matrix[x][y]) != (values[x] + 1 < values[y]):
                raise exact.CheckFailed(f"values violate the pair ({x}, {y})")


def _concat(parts) -> list[list[bool]]:
    """Blocks in order, every earlier block entirely below every later one."""
    n = sum(len(p) for p in parts)
    m = [[False] * n for _ in range(n)]
    offset = 0
    for p in parts:
        k = len(p)
        for a in range(k):
            for b in range(k):
                m[offset + a][offset + b] = p[a][b]
            for b in range(offset + k, n):
                m[offset + a][b] = True
        offset += k
    return m


def _bits(pieces, comps) -> int:
    return exact.den_bits([v for p in pieces for v in p] + [v for c in comps for v in c[:2]])


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (WeakDense, StrongClusters, StrongWideSpan, SemiorderN5)
}
