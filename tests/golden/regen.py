"""Record the golden corpus: CLI outputs on committed inputs.

Each input is run through ``gapsmith.cli.main`` in-process, for every verb
of its kind:

* sets: ``report``, ``check-structure`` and ``remove --trace`` in the modes
  strong, epsilon (``--epsilon 1/8``) and weak;
* relations: ``semiorder-check`` and ``synth``.

``manifest.jsonl`` holds one row per input: for each verb, the exit code,
the first line of stderr and the SHA-256 of stdout and of the trace (null
when no trace was written).  The figures and the counterexamples also keep
their full stdout and trace bytes under ``full/``, so that a change shows as
a readable diff.

The inputs are committed in ``inputs/``, so the corpus does not move when a
generator changes.  A set is one line ``name group components``, written
``[lo,hi)``-style with ``{x}`` for a point; a relation is one line
``name group rows``, each row a string of 0/1.  ``--inputs`` rebuilds both
files from the seeded generators of ``tests/conftest.py`` and
``perfbench/generators.py`` before recording.

Run from the repository root; it needs no network::

    PYTHONPATH=src python3 tests/golden/regen.py [--inputs]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

from gapsmith import cli
from gapsmith import pointset as ps
from gapsmith import structure as st

HERE = Path(__file__).resolve().parent
SETS = HERE / "inputs" / "sets.txt"
RELATIONS = HERE / "inputs" / "relations.txt"
MANIFEST = HERE / "manifest.jsonl"
FULL = HERE / "full"
FULL_GROUPS = ("figures", "counterexamples")

SET_VERBS = {
    "report": ["report"],
    "check-structure": ["check-structure"],
    "remove-strong": ["remove", "--mode", "strong"],
    "remove-epsilon": ["remove", "--mode", "epsilon", "--epsilon", "1/8"],
    "remove-weak": ["remove", "--mode", "weak"],
}
RELATION_VERBS = {"semiorder-check": ["semiorder-check"], "synth": ["synth"]}


# -- the compact input notation ---------------------------------------------------


def format_set(obj: dict) -> str:
    out = []
    for c in obj["components"]:
        if c["kind"] == "point":
            out.append("{" + c["at"] + "}")
        else:
            lo, hi = "[" if c["lo_closed"] else "(", "]" if c["hi_closed"] else ")"
            out.append(f"{lo}{c['lo']},{c['hi']}{hi}")
    return " ".join(out)


def parse_set(text: str) -> dict:
    comps = []
    for tok in text.split():
        if tok[0] == "{":
            comps.append({"kind": "point", "at": tok[1:-1]})
        else:
            lo, hi = tok[1:-1].split(",")
            comps.append({"kind": "interval", "lo": lo, "hi": hi,
                          "lo_closed": tok[0] == "[", "hi_closed": tok[-1] == "]"})
    return {"components": comps}


def read_inputs() -> list[dict]:
    """Every committed input as {name, group, kind, data}, sets first."""
    rows = []
    with open(SETS, encoding="utf-8") as fh:
        for line in fh:
            name, group, text = line.rstrip("\n").split(" ", 2)
            rows.append({"name": name, "group": group, "kind": "set", "data": parse_set(text)})
    with open(RELATIONS, encoding="utf-8") as fh:
        for line in fh:
            name, group, *strict = line.split()
            data = {"n": len(strict), "strict": [[c == "1" for c in row] for row in strict]}
            rows.append({"name": name, "group": group, "kind": "relation", "data": data})
    return rows


# -- running the verbs --------------------------------------------------------------


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def run_input(row: dict, workdir: str) -> dict[str, tuple[list, bytes, bytes | None]]:
    """verb -> ([exit, stderr line, stdout SHA, trace SHA], stdout, trace) on one input."""
    inp = os.path.join(workdir, "input.json")
    trace = os.path.join(workdir, "trace.jsonl")
    with open(inp, "w", encoding="utf-8") as fh:
        json.dump(row["data"], fh)
    verbs = SET_VERBS if row["kind"] == "set" else RELATION_VERBS
    out = {}
    for verb, argv in verbs.items():
        argv = [*argv, "--input", inp]
        if argv[0] == "remove":
            argv += ["--trace", trace]
        with contextlib.suppress(FileNotFoundError):
            os.remove(trace)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out_bytes = stdout.getvalue().encode()
        trace_bytes = Path(trace).read_bytes() if os.path.exists(trace) else None
        first_err = stderr.getvalue().partition("\n")[0]
        out[verb] = [code, first_err, _sha(out_bytes), _sha(trace_bytes)], out_bytes, trace_bytes
    return out


def full_paths(name: str, verb: str) -> tuple[Path, Path]:
    return FULL / f"{name}.{verb}.out", FULL / f"{name}.{verb}.trace"


def record() -> None:
    rows = []
    FULL.mkdir(exist_ok=True)
    for path in FULL.iterdir():
        path.unlink()
    with tempfile.TemporaryDirectory() as workdir:
        for row in read_inputs():
            runs = run_input(row, workdir)
            rows.append({"input": row["name"], **{v: r[0] for v, r in runs.items()}})
            if row["group"] not in FULL_GROUPS:
                continue
            for verb, (_, out_bytes, trace_bytes) in runs.items():
                out_path, trace_path = full_paths(row["name"], verb)
                out_path.write_bytes(out_bytes)
                if trace_bytes is not None:
                    trace_path.write_bytes(trace_bytes)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")


# -- building the inputs from the seeded generators ---------------------------------


def _counterexamples():
    """Sets whose structure verdict disagrees with removability: two false
    Fails (a certified map exists) and one false Pass (the removal stops)."""
    return {
        "false-fail-left": ps.pointset(
            ps.interval(F(-7, 2), -2, False, False),
            ps.interval(F(-3, 2), -1, False, False),
            ps.point(F(-1, 2)),
        ),
        "false-fail-right": ps.pointset(
            ps.interval(0, F(1, 4), True, False),
            ps.interval(F(3, 4), F(5, 4), True, False),
            ps.point(F(7, 4)),
            ps.interval(3, F(17, 4)),
        ),
        "false-pass": ps.pointset(
            ps.interval(-1, F(-2, 3), True, False),
            ps.point(F(-1, 3)),
            ps.interval(0, F(1, 3), False, False),
            ps.interval(1, F(8, 3), False, False),
        ),
    }


def _presentations(random_presentation):
    """Random presentations bringing every Fail reason that the chains report:
    the first draws of two seeded streams, on the 1/60 and the 1/4 grid, then
    later 1/4-grid draws while one of their reasons has fewer than five sets."""

    def reasons(s):
        return {c.failure.reason.value for c in st.check_all(s).per_gap if c.failure}

    rng = random.Random(11)
    out = [random_presentation(rng) for _ in range(60)]
    rng = random.Random(11)
    coarse = [random_presentation(rng, den=4) for _ in range(2000)]
    out += coarse[:30]
    seen = Counter(r for s in out for r in reasons(s))
    for s in coarse[30:]:
        new = reasons(s)
        if any(seen[r] < 5 for r in new):
            out.append(s)
            seen.update(new)
    return out


def _relations(n: int, keep):
    """Every irreflexive asymmetric relation on n labeled points that ``keep``
    accepts, as rows of 0/1."""
    pairs = list(itertools.combinations(range(n), 2))
    for code in itertools.product(range(3), repeat=len(pairs)):
        m = [[False] * n for _ in range(n)]
        for (i, j), c in zip(pairs, code):
            if c:
                x, y = (i, j) if c == 1 else (j, i)
                m[x][y] = True
        if keep(m):
            yield ["".join("1" if v else "0" for v in row) for row in m]


def build_inputs() -> None:
    sys.path[:0] = [str(HERE.parent), str(HERE.parents[1])]
    import conftest
    from perfbench import generators as gen

    sets = [(name, "figures", build()) for name, build in sorted(conftest.FIGURES.items())]
    sets += [(name, "counterexamples", s) for name, s in _counterexamples().items()]
    fails = conftest.fail_corpus()  # one of each family: too long, two points, interior
    sets += [(f"fail-{i}", "fails", fails[j][0]) for i, j in enumerate((0, 10, 20), 1)]
    pools = (
        ("strong", gen.strong_pool(random.Random(1), 120)),
        ("wide", gen.wide_pool(random.Random(1), 40)),
        ("weak", gen.weak_pool(random.Random(7), 40)),
        ("presentation", _presentations(conftest.random_presentation)),
    )
    for group, pool in pools:
        sets += [(f"{group}-{i:03d}", group, s) for i, s in enumerate(pool)]
    SETS.parent.mkdir(exist_ok=True)
    with open(SETS, "w", encoding="utf-8") as fh:
        for name, group, s in sets:
            fh.write(f"{name} {group} {format_set(s.to_json_dict())}\n")
    # Every relation on up to 3 points, and every semiorder on 4.
    with open(RELATIONS, "w", encoding="utf-8") as fh:
        for n in range(1, 5):
            keep = gen.is_semiorder if n == 4 else (lambda m: True)
            for i, rows in enumerate(_relations(n, keep)):
                fh.write(f"rel{n}-{i:03d} relations {' '.join(rows)}\n")


if __name__ == "__main__":
    if "--inputs" in sys.argv[1:]:
        build_inputs()
    record()
