"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` replaces every public function of every ``gapsmith``
module, plus ``PLMap.apply`` and ``PointSet.contains``, with a wrapper that
records a span.  It patches each module attribute that refers to the
original, so calls through ``from .x import f`` bindings are caught too.
``uninstall`` restores the originals.  Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of its child spans.
A call that re-enters the span it is already inside (``bad_gaps`` calling
``gaps``, ``plmap.apply`` calling ``PLMap.apply``) is folded into that span,
so ``calls`` counts outermost entries of a layer.  Counter hooks run after
a span has been timed; their cost is kept out of every span and reported as
``hook_s``.
"""

from __future__ import annotations

import importlib
import inspect
import math
from collections import defaultdict
from time import perf_counter

from perfbench.exact import den_bits

MODULES = ("rationals", "pointset", "plmap", "debreu", "structure",
           "threshold", "semiorder", "diagram", "cli")

# Function names recorded under one layer name.
GROUPS = {
    "pointset.bad_gaps": "pointset.gaps",
    "pointset.bad_gaps_biggest_first": "pointset.gaps",
    "pointset.bad_gap_mass": "pointset.gaps",
    "pointset.closure_gap_below": "pointset.closure_gap",
    "pointset.closure_gap_above": "pointset.closure_gap",
}

ROOT = "op"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.hook_s = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "plmap.compose": self._on_compose,
            "plmap.certificate_points": self._on_certificate_points,
            "pointset.members_in_interval": self._on_members_in_interval,
            "threshold.plan_gap": self._on_plan_gap,
            "pointset.unit_partition": self._on_unit_partition,
            "semiorder.canonical_form": self._on_canonical_form,
            "semiorder.enumerate_semiorders": self._on_enumerate,
        }

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                hook(args, result)
                extra = perf_counter() - end
                self.hook_s += extra
                if stack:
                    stack[-1][2] += extra
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn):
        """Run ``fn`` as one benchmark operation, the parent of its spans."""
        return self.wrap(ROOT, fn)()

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("gapsmith")
        layers = {m: importlib.import_module(f"gapsmith.{m}") for m in MODULES}
        originals: dict[int, object] = {}
        for short, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                originals[id(obj)] = self.wrap(GROUPS.get(name, name), obj)
        for mod in (package, *layers.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        plmap, pointset = layers["plmap"], layers["pointset"]
        self._patch(plmap.PLMap, "apply", self.wrap("plmap.apply", plmap.PLMap.apply))
        self._patch(pointset.PointSet, "contains",
                    self.wrap("pointset.contains", pointset.PointSet.contains))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- counter hooks ----------------------------------------------------------

    def _on_compose(self, args, result) -> None:
        self.counts["plmap.compose.pieces_out"] += len(result.pieces)
        bits = den_bits(v for p in result.pieces
                        for v in (p.lo, p.hi, p.slope, p.intercept))
        if bits > self.maxima["plmap.den_bits_max"]:
            self.maxima["plmap.den_bits_max"] = bits

    def _on_certificate_points(self, args, result) -> None:
        k = len(result)
        self.counts["plmap.certificate_points.points"] += k
        if self.stack and self.stack[-1][0] == "plmap.threshold_equiv":
            self.counts["plmap.threshold_equiv.pairs"] += k * (k - 1) // 2

    def _on_members_in_interval(self, args, result) -> None:
        if any(frame[0].startswith("structure.") for frame in self.stack):
            self.counts["structure.probes"] += 1

    def _on_plan_gap(self, args, result) -> None:
        self.counts["threshold.plan_pieces"] += len(result.pieces)

    def _on_unit_partition(self, args, result) -> None:
        self.counts["pointset.unit_partition.cells"] += len(result.intervals)

    def _on_canonical_form(self, args, result) -> None:
        self.counts["semiorder.canonical_form.perms"] += math.factorial(args[0].n)

    def _on_enumerate(self, args, result) -> None:
        n = args[0]
        self.counts["semiorder.candidates"] += 3 ** (n * (n - 1) // 2)
        self.counts["semiorder.found"] += result[0]

    # -- summary -----------------------------------------------------------------

    def layer_self_s(self) -> float:
        """Self time of every package span, the benchmark's root excluded."""
        return sum(v for k, v in self.self_s.items() if k != ROOT)
