"""Command-line driver: check, enumerate, and explain litmus tests.

Exit codes for ``check``: 0 if the exists outcome is forbidden under the
chosen axioms, 1 if allowed, 2 on any error. The enumeration cap can be
overridden with the AXCAT_MAX_EVENTS environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from typing import Iterator, Optional

from .axioms import (
    ARCHITECTURES,
    AxiomVerdict,
    Witness,
    find_forbidden_patterns,
    sc_full,
    sc_per_location_1,
)
from .collapse import collapse_cycle
from .enumeration import (
    DEFAULT_MAX_EVENTS,
    AxiomSet,
    CandidateResult,
    Condition,
    LitmusTest,
    Outcome,
    candidate_results,
    check_table,
)
from .execution import execution_to_dict
from .parser import parse_litmus, parse_outcome_binding

SCHEMA_VERSION = 1


class CliError(Exception):
    pass


def _max_events() -> int:
    raw = os.environ.get("AXCAT_MAX_EVENTS")
    if raw is None:
        return DEFAULT_MAX_EVENTS
    try:
        cap = int(raw)
    except ValueError:
        raise CliError(f"AXCAT_MAX_EVENTS must be an integer, got {raw!r}")
    if cap < 0:
        raise CliError(f"AXCAT_MAX_EVENTS must not be negative, got {raw!r}")
    return cap


def _load_test(path: str) -> LitmusTest:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_litmus(fh.read())
    except OSError as err:
        raise CliError(str(err))
    except ValueError as err:
        raise CliError(f"{path}: {err}")


def _axiom_set(axioms: str, arch: Optional[str]) -> AxiomSet:
    if arch is not None and axioms != "framework":
        raise CliError(f"--arch applies only to --axioms framework, not {axioms!r}")
    if axioms == "sc":
        return AxiomSet.sc()
    if axioms == "scpl":
        return AxiomSet.sc_per_location_only()
    if axioms == "framework":
        name = arch or "sc-arch"
        if name not in ARCHITECTURES:
            raise CliError(
                f"unknown architecture {name!r}; known: {', '.join(sorted(ARCHITECTURES))}"
            )
        return AxiomSet.framework(ARCHITECTURES[name])
    raise CliError(f"unknown axiom set {axioms!r}")


def _sc_and_scpl_results(
    test: LitmusTest, where: Optional[Condition] = None
) -> Iterator[CandidateResult]:
    """Each candidate (matching ``where``, if given) with its FullSC and
    ScPerLocation1 verdicts, in that order: the two models ``enumerate`` and
    ``explain`` print."""
    both = AxiomSet("sc+scpl", (sc_full, sc_per_location_1))
    return candidate_results(test, both, _max_events(), where)


def _witness_dict(witness: Optional[Witness]) -> Optional[dict]:
    return None if witness is None else {"kind": witness.kind, **vars(witness)}


def _verdict_dict(v: AxiomVerdict) -> dict:
    return {"axiom": v.axiom.value, "holds": v.holds, "witness": _witness_dict(v.witness)}


def _outcome_dict(outcome) -> dict:
    return {
        "registers": {f"P{p}:{r}": v for (p, r), v in outcome.registers},
        "memory": dict(outcome.final_memory),
    }


def _emit_json(payload: dict) -> None:
    """Write ``payload`` as it is encoded, never holding the whole document,
    in batches of chunks: one write per chunk costs about 10% more CPU."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while batch := list(islice(chunks, 4096)):
        sys.stdout.write("".join(batch))
    sys.stdout.write("\n")


def _cmd_check(args: argparse.Namespace) -> int:
    test = _load_test(args.file)
    if test.condition is None:
        raise CliError("check requires an 'exists' condition in the litmus file")
    axiom_set = _axiom_set(args.axioms, args.arch)
    table = check_table(test, axiom_set, _max_events())
    allowed = any(ok for o, ok in table if test.condition.matches(o))
    result = "allowed" if allowed else "forbidden"

    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "test": test.name,
            "axioms": axiom_set.name,
            "condition": str(test.condition),
            "result": result,
            "outcomes": [
                {
                    "outcome": _outcome_dict(o),
                    "allowed": ok,
                    "matches_condition": test.condition.matches(o),
                }
                for o, ok in table
            ],
        }
        _emit_json(payload)
    else:
        print(f"test {test.name}: exists ({test.condition})")
        print(f"axioms: {axiom_set.name}")
        for o, ok in table:
            marker = "*" if test.condition.matches(o) else " "
            print(f" {marker} {o.label()} -> {'allowed' if ok else 'forbidden'}")
        print(f"result: {result}")
    return 1 if allowed else 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.dump_executions and not args.json:
        raise CliError("--dump-executions requires --json")
    test = _load_test(args.file)
    count, candidates = 0, []
    verdicts: dict[Outcome, tuple[bool, bool]] = {}  # outcome -> (sc allowed, scpl allowed)
    for cand in _sc_and_scpl_results(test):
        count += 1
        sc, scpl = cand.verdicts
        sc_ok, scpl_ok = verdicts.get(cand.outcome, (False, False))
        verdicts[cand.outcome] = (sc_ok or sc.holds, scpl_ok or scpl.holds)
        if args.json:
            entry = {
                "index": cand.index,
                "outcome": _outcome_dict(cand.outcome),
                "verdicts": [_verdict_dict(v) for v in cand.verdicts],
            }
            if args.dump_executions:
                entry["execution"] = execution_to_dict(cand.execution)
            candidates.append(entry)
    table = sorted(verdicts.items(), key=lambda kv: kv[0].label())

    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "test": test.name,
            "candidate_count": count,
            "outcomes": [
                {
                    "outcome": _outcome_dict(o),
                    "allowed_sc": sc_ok,
                    "allowed_scpl": scpl_ok,
                }
                for o, (sc_ok, scpl_ok) in table
            ],
            "candidates": candidates,
        }
        _emit_json(payload)
    else:
        print(f"test {test.name}: {count} candidate executions")
        for o, (sc_ok, scpl_ok) in table:
            print(
                f"  {o.label()} -> sc: {'allowed' if sc_ok else 'forbidden'},"
                f" scpl: {'allowed' if scpl_ok else 'forbidden'}"
            )
    return 0


def _explain_candidate(cand: CandidateResult) -> list[str]:
    full, loc = cand.verdicts
    if full.holds:
        return ["    sequentially consistent (no cycle in po with com)"]
    lines = [
        "    violates sequential consistency; cycle: "
        + " -> ".join(str(n) for n in full.witness.nodes)
    ]
    if loc.holds:
        lines.append("    SC-Per-Location holds")
        return lines
    e = cand.execution
    pair = collapse_cycle(e, loc.witness)
    lines.append(
        f"    violates SC-Per-Location; witness pair: {pair.x} ->pol {pair.y},"
        f" {pair.y} ->com+ {pair.x}"
    )
    for inst in find_forbidden_patterns(e):
        lines.append(f"    pattern {inst.pattern}: {inst.first} ->pol {inst.second}")
    return lines


def _cmd_explain(args: argparse.Namespace) -> int:
    test = _load_test(args.file)
    try:
        binding = parse_outcome_binding(args.outcome, test)
    except ValueError as err:
        raise CliError(f"bad --outcome binding: {err}")
    matching = list(_sc_and_scpl_results(test, binding))
    print(f"test {test.name}: outcome {binding}")
    if not matching:
        print("no candidate execution produces this outcome")
        return 0
    for cand in matching:
        status = "passes" if cand.verdicts[0].holds else "fails"
        print(f"  candidate {cand.index} ({cand.outcome.label()}) {status} full SC")
        for line in _explain_candidate(cand):
            print(line)
    if any(c.verdicts[0].holds for c in matching):
        print("verdict: allowed under sequential consistency")
    else:
        print("verdict: forbidden under sequential consistency")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axcat", description="axiomatic weak-memory litmus checker"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide whether the exists outcome is allowed")
    check.add_argument("file")
    check.add_argument("--axioms", choices=("sc", "scpl", "framework"), default="sc")
    check.add_argument("--arch", default=None)
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=_cmd_check)

    enum = sub.add_parser("enumerate", help="enumerate all candidate executions")
    enum.add_argument("file")
    enum.add_argument("--json", action="store_true")
    enum.add_argument("--dump-executions", action="store_true")
    enum.set_defaults(func=_cmd_enumerate)

    explain = sub.add_parser("explain", help="explain why an outcome is forbidden")
    explain.add_argument("file")
    explain.add_argument("--outcome", required=True)
    explain.set_defaults(func=_cmd_explain)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
