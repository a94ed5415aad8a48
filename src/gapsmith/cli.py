"""Command-line surface: gaps, structure checks, removals, semiorder tools.

Exit codes: 0 success (verdicts are data), 2 structure violation blocking a
removal, 3 certificate failure, 4 invalid input, 64 usage error, 70 internal
error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import debreu, diagram, plmap, semiorder, threshold
from . import pointset as ps
from . import structure as st
from .rationals import MalformedRational, format_rational, parse_rational

EX_OK = 0
EX_STRUCTURE = 2
EX_CERTIFICATE = 3
EX_INPUT = 4
EX_USAGE = 64
EX_SOFTWARE = 70
EX_IO = 74


class UsageError(ValueError):
    pass


class InvalidInput(ValueError):
    """An input file whose JSON does not describe a set or a relation."""


# Failures that mean the input is at fault (exit 4).  Anything else raised
# past the parse boundary is a bug in the program (exit 70).
_INPUT_ERRORS = (
    InvalidInput,
    MalformedRational,
    ps.MalformedComponent,
    ps.EmptySet,
    ps.NotBad,
    st.GapTooLong,
    semiorder.NotASemiorder,
    semiorder.NotAsymmetric,
    json.JSONDecodeError,
)


@dataclass
class Command:
    verb: str
    options: dict = field(default_factory=dict)
    input_path: Optional[str] = None
    output_path: Optional[str] = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


@functools.cache  # built once per process; a parse keeps no state in it
def _build_parser() -> _Parser:
    parser = _Parser(prog="gapsmith")
    sub = parser.add_subparsers(dest="verb")

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True)
        p.add_argument("--output")

    common(sub.add_parser("gaps"))
    common(sub.add_parser("check-structure"))
    p_remove = sub.add_parser("remove")
    common(p_remove)
    p_remove.add_argument("--mode", choices=["weak", "epsilon", "strong"], required=True)
    p_remove.add_argument("--epsilon")
    p_remove.add_argument("--trace")
    p_remove.add_argument("--emit-diagram", dest="emit_diagram")
    common(sub.add_parser("semiorder-check"))
    common(sub.add_parser("synth"))
    p_enum = sub.add_parser("enumerate")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--iso", action="store_true")
    p_enum.add_argument("--output")
    common(sub.add_parser("report"))
    return parser


def parse_args(argv: list[str]) -> Command:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.verb is None:
        raise UsageError("a subcommand is required")
    options = {k: v for k, v in vars(ns).items() if k not in ("verb", "input", "output")}
    if ns.verb == "remove":
        if ns.mode == "epsilon":
            if ns.epsilon is None:
                raise UsageError("--epsilon is required for --mode epsilon")
            try:
                eps = parse_rational(ns.epsilon)
            except MalformedRational as exc:
                raise UsageError(str(exc)) from exc
            if eps <= 0:
                raise UsageError("--epsilon must be positive")
            options["epsilon"] = eps
    if ns.verb == "enumerate" and ns.n < 1:
        raise UsageError("--n must be positive")
    return Command(
        verb=ns.verb,
        options=options,
        input_path=getattr(ns, "input", None),
        output_path=ns.output,
    )


def _load(path: str, parse):
    """``parse`` applied to the JSON in ``path``; malformed content is InvalidInput."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except _INPUT_ERRORS:
            raise
        except (AttributeError, LookupError, RecursionError, TypeError, ValueError) as exc:
            raise InvalidInput(f"{path}: {type(exc).__name__}: {exc}") from exc


def _emit(payload: dict, output_path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gap_report(s: ps.PointSet) -> dict:
    total, per_gap = ps.bad_gap_mass(s)
    return {
        "set": s.to_json_dict(),
        "gaps": [g.to_json_dict() for g in ps.gaps(s)],
        "bad_total": format_rational(total),
        "bad_lengths": [format_rational(x) for x in per_gap],
    }


def _stages(s: ps.PointSet, maps) -> list[tuple[str, ps.PointSet]]:
    stages = [("input", s)]
    current = s
    for i, m in enumerate(maps, start=1):
        current = plmap.image(m, current)
        stages.append((f"step {i}", current))
    return stages


def _run_remove(cmd: Command, s: ps.PointSet) -> int:
    mode = cmd.options["mode"]
    if mode == "weak":
        trace = debreu.remove_all(s)
        total, final = trace.total_map, trace.final_set
    elif mode == "epsilon":
        total, final, trace = threshold.remove_epsilon(s, cmd.options["epsilon"])
    else:
        total, final, trace = threshold.remove_strong(s)
    if cmd.options.get("trace"):
        with open(cmd.options["trace"], "w", encoding="utf-8") as fh:
            for step in trace.steps:
                fh.write(json.dumps(step.to_json_dict()) + "\n")
    if cmd.options.get("emit_diagram"):
        stages = _stages(s, [step.map for step in trace.steps])
        diagram.write_diagram(cmd.options["emit_diagram"], stages)
    payload = {
        "mode": mode,
        "input": s.to_json_dict(),
        "final": final.to_json_dict(),
        "map": total.to_json_dict(),
        **trace.to_json_dict(),
    }
    _emit(payload, cmd.output_path)
    return EX_OK


def execute(cmd: Command) -> int:
    if cmd.verb in ("gaps", "check-structure", "remove", "report"):
        s = _load(cmd.input_path, ps.from_json_dict)
        if not s:
            raise ps.EmptySet("input set is empty")
        if cmd.verb == "gaps":
            _emit(_gap_report(s), cmd.output_path)
            return EX_OK
        if cmd.verb == "check-structure":
            _emit(st.check_all(s).to_json_dict(), cmd.output_path)
            return EX_OK
        if cmd.verb == "report":
            payload = _gap_report(s)
            payload["structure"] = st.check_all(s).to_json_dict()
            _emit(payload, cmd.output_path)
            return EX_OK
        return _run_remove(cmd, s)

    if cmd.verb == "semiorder-check":
        try:
            rel = _load(cmd.input_path, semiorder.from_json_dict)
        except semiorder.NotAsymmetric as exc:
            _emit({"verdict": "not_asymmetric", "witness": list(exc.pair)}, cmd.output_path)
            return EX_OK
        _emit(semiorder.check_axioms(rel.strict).to_json_dict(), cmd.output_path)
        return EX_OK

    if cmd.verb == "synth":
        rel = _load(cmd.input_path, semiorder.from_json_dict)
        # synthesize_ss raises SynthesisFailed unless check_ss passes its result.
        rep = semiorder.synthesize_ss(rel)
        _emit({**rep.to_json_dict(), "certified": True}, cmd.output_path)
        return EX_OK

    if cmd.verb == "enumerate":
        n = cmd.options["n"]
        try:
            count, items = semiorder.enumerate_semiorders(n, up_to_iso=cmd.options["iso"])
        except semiorder.TooLarge as exc:
            raise UsageError(str(exc)) from exc
        payload = {"n": n, "up_to_iso": cmd.options["iso"], "count": count}
        if cmd.options["iso"] or count <= 1000:
            payload["instances"] = [r.to_json_dict() for r in items]
        else:
            payload["instances_omitted"] = True
        _emit(payload, cmd.output_path)
        return EX_OK

    raise UsageError(f"unknown verb {cmd.verb!r}")


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cmd = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return execute(cmd)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except threshold.StructureViolated as exc:
        print(f"structure violated: {exc}", file=sys.stderr)
        return EX_STRUCTURE
    except threshold.CertificateFailed as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EX_CERTIFICATE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EX_IO
    except _INPUT_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EX_INPUT
    except Exception as exc:  # ps.InvariantBroken or any other bug
        import traceback  # imported here to keep it off the start-up path

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
