"""Command line front end.

Four modes: solve a program, emit its grounding, check a candidate model
read from JSON, or translate a classical program into the probability
syntax.  Text output is the default; --json switches the solve and check
modes to a machine-readable form with rationals serialized as strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from .classical import parse_classical, translate_dlp
from .errors import DhppError
from .grounder import GroundProgram, ground_program
from .model import PInterpretation, ProbInterval, Program
from .parser import parse_formula, parse_program
from .solver import _explain, enumerate_answer_sets

MODES = ("solve", "ground-only", "check-model", "translate-dlp")


@dataclass
class RunConfig:
    mode: str = "solve"
    inputs: list[str] = field(default_factory=list)
    limit: int | None = None
    strategies: str | None = None
    json_output: bool = False
    max_ground: int = 100_000
    model: str | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_ground <= 0:
            raise ValueError("max_ground must be positive")
        if self.limit is not None and self.limit <= 0:
            raise ValueError("limit must be positive")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_program(config: RunConfig) -> Program:
    # one program, as if the files were concatenated: a later file, or the
    # strategies file, changes a strategy only with a directive stating it
    merged = Program(rules=[])
    for path in config.inputs:
        parse_program(_read(path), filename=path, into=merged)
    if config.strategies:
        count = len(merged.rules)
        parse_program(_read(config.strategies), filename=config.strategies, into=merged)
        if len(merged.rules) > count:
            raise DhppError(f"{config.strategies}: strategy files take directives only")
    return merged


def _ground(config: RunConfig) -> GroundProgram:
    program = _load_program(config)
    return ground_program(program, max_rules=config.max_ground)


def _interval_json(formula, value: ProbInterval) -> dict:
    return {
        "formula": str(formula),
        "text": str(formula),
        "lo": str(value.lo),
        "hi": str(value.hi),
    }


# what each entry of a model file's "formulae" list must be
_ENTRY = 'an object with "formula" or "text", "lo" and "hi"'


def _load_model(path: str) -> PInterpretation:
    pairs = []
    try:
        data = json.loads(_read(path))
        entries = data.get("formulae") if isinstance(data, dict) else None
        if not isinstance(entries, list):
            raise ValueError(f'"formulae" must be a list, each entry {_ENTRY}')
        for n, entry in enumerate(entries):
            text = (entry.get("text") or entry.get("formula")) if isinstance(entry, dict) else None
            if text is None or not {"lo", "hi"} <= entry.keys():
                raise ValueError(f"formulae[{n}] must be {_ENTRY}")
            formula = parse_formula(text)
            value = ProbInterval(entry["lo"], entry["hi"])
            pairs.append((formula, value))
        return PInterpretation.from_pairs(pairs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DhppError(f"bad model file {path}: {exc}") from exc


def _run_solve(config: RunConfig, gp: GroundProgram, out: TextIO) -> int:
    result = enumerate_answer_sets(gp, limit=config.limit, seed=config.seed)
    if config.json_output:
        payload = {
            "answer_sets": [
                {"formulae": [_interval_json(f, v) for f, v in h.entries]}
                for h in result.interpretations
            ],
            "count": len(result.interpretations),
            "truncated": result.truncated,
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        for n, h in enumerate(result.interpretations, start=1):
            out.write(f"answer set {n}:\n")
            for formula, value in h.entries:
                out.write(f"  {formula} : {value}\n")
            if not h.entries:
                out.write("  (empty)\n")
        if result.truncated:
            out.write(f"(stopped after {config.limit} answer sets)\n")
        if not result.interpretations:
            out.write("no answer sets\n")
        else:
            plural = "s" if len(result.interpretations) != 1 else ""
            out.write(f"{len(result.interpretations)} answer set{plural}\n")
    return 0 if result.interpretations else 1


def _run_check(config: RunConfig, gp: GroundProgram, out: TextIO) -> int:
    if not config.model:
        raise DhppError("check-model needs --model FILE")
    report, reason = _explain(gp, _load_model(config.model))
    verdict = reason is None
    if config.json_output:
        payload = {
            "p_model": report.satisfied,
            "answer_set": verdict,
            "rules_satisfied": sum(report.rule_verdicts),
            "rules_total": len(report.rule_verdicts),
            "failure": reason,
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
        return 0 if verdict else 1
    rules_ok = sum(report.rule_verdicts)
    out.write(f"rules satisfied: {rules_ok}/{len(report.rule_verdicts)}\n")
    if not report.satisfied:
        out.write(f"not a p-model: {reason}\n")
        return 1
    out.write("p-model: yes\n")
    if verdict:
        out.write("answer set: yes\n")
        return 0
    out.write(f"answer set: no ({reason})\n")
    return 1


def run(config: RunConfig, out: TextIO | None = None, err: TextIO | None = None) -> int:
    # resolved late so callers may swap sys.stdout after import
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        if not config.inputs:
            raise DhppError("no input files")
        if config.mode == "translate-dlp":
            classical = parse_classical(_read(config.inputs[0]), config.inputs[0])
            for path in config.inputs[1:]:
                classical.rules.extend(parse_classical(_read(path), path).rules)
            out.write(str(translate_dlp(classical)))
            return 0
        gp = _ground(config)
        if config.mode == "ground-only":
            out.write(str(gp))
            return 0
        if config.mode == "check-model":
            return _run_check(config, gp, out)
        return _run_solve(config, gp, out)
    except (DhppError, OSError) as exc:
        err.write(f"error: {_error_text(exc)}\n")
        return 2


def _error_text(exc: Exception) -> str:
    """The error's message, led by FILE:LINE:COL: when reading the program
    gave it a source position its message does not start with already."""
    text = str(exc)
    if getattr(exc, "line", None) is None:
        return text
    where = f"{exc.filename}:{exc.line}:{exc.col}: "
    return text if text.startswith(where) else where + text


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dhpp",
        description="Ground, solve, check, and translate probability logic programs.",
    )
    ap.add_argument("inputs", nargs="+", metavar="FILE", help="program file(s)")
    ap.add_argument("--mode", choices=MODES, default="solve")
    ap.add_argument("--limit", type=int, default=None, metavar="N",
                    help="stop after N answer sets")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--strategies", metavar="FILE", default=None,
                    help="directive file overriding the program's strategy assignment")
    ap.add_argument("--max-ground", type=int, default=100_000, metavar="N",
                    help="cap on ground rules and derivable atoms")
    ap.add_argument("--model", metavar="FILE", default=None,
                    help="candidate model JSON for check-model")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    seed_text = os.environ.get("DHPP_SEED")
    try:
        seed = int(seed_text) if seed_text else None
    except ValueError:
        print(f"error: DHPP_SEED must be an integer, got {seed_text!r}", file=sys.stderr)
        return 2
    try:
        config = RunConfig(
            mode=args.mode,
            inputs=args.inputs,
            limit=args.limit,
            strategies=args.strategies,
            json_output=args.json,
            max_ground=args.max_ground,
            model=args.model,
            seed=seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
