"""Command-line driver: check, enumerate, and explain litmus tests.

Exit codes for ``check``: 0 if the exists outcome is forbidden under the
chosen axioms, 1 if allowed, 2 on any error. The enumeration cap can be
overridden with the AXCAT_MAX_EVENTS environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator, Optional

from .axioms import ARCHITECTURES, find_forbidden_patterns, sc_full, sc_per_location_1
from .collapse import collapse_cycle
from .enumeration import (
    DEFAULT_MAX_EVENTS,
    AxiomSet,
    CandidateResult,
    Condition,
    LitmusTest,
    Outcome,
    candidate_count,
    candidate_results,
    check_table,
    outcome_space,
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


# Both JSON schemas are written directly, as ``json.JSONEncoder(indent=2,
# sort_keys=True)`` plus a newline writes them. Neither top-level list is ever
# empty: every product of choices has an item.

_LITERALS = {None: "null", True: "true", False: "false"}


def _encode(value, indent: str) -> str:
    """``value``, made of dicts with str keys, lists, tuples, str, int, bool
    and None, as the encoder writes it nested at ``indent``."""
    if isinstance(value, str):
        return _quote(value)
    if not isinstance(value, (dict, list, tuple)):
        return _LITERALS[value] if value is None or isinstance(value, bool) else int.__repr__(value)
    inner, brackets = indent + "  ", "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, dict):
        items = [f"{_quote(k)}: {_encode(v, inner)}" for k, v in sorted(value.items())]
    else:
        items = [_encode(v, inner) for v in value]
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _item_template(test: LitmusTest, keys: tuple[str, ...]) -> Callable[..., str]:
    """``item(outcome, *fields)``: an object in a top-level list with the
    sorted ``keys``, each given by its JSON text in ``fields`` except
    ``"outcome"``, from one ``%`` template made here. Registers go in key
    order, not in ``register_slots`` order: ``"P10:r0"`` < ``"P2:r0"``."""
    names = [f"P{p}:{r}" for (p, r), _ in test.register_slots]
    order = sorted(range(len(names)), key=names.__getitem__)

    def obj(keys: list[str]) -> str:
        fields = ",\n".join(f"          {_quote(k).replace('%', '%%')}: %d" for k in keys)
        return "{\n" + fields + "\n        }" if keys else "{}"

    memory, registers = obj(test.addresses()), obj([names[i] for i in order])
    outcome = f'{{\n        "memory": {memory},\n        "registers": {registers}\n      }}'
    fields = ",\n".join(f'      "{k}": ' + (outcome if k == "outcome" else "%s") for k in keys)
    template, at = "    {\n" + fields + "\n    }", keys.index("outcome")

    def item(o: Outcome, *fields: object) -> str:
        regs = o.registers
        values = (*[v for _, v in o.final_memory], *[regs[i][1] for i in order])
        return template % (*fields[:at], *values, *fields[at:])

    return item


def _cmd_check(args: argparse.Namespace) -> int:
    test = _load_test(args.file)
    if test.condition is None:
        raise CliError("check requires an 'exists' condition in the litmus file")
    axiom_set = _axiom_set(args.axioms, args.arch)
    table = check_table(test, axiom_set, _max_events())
    rows = [(o, ok, test.condition.matches(o)) for o, ok in table]
    allowed = any(ok and match for _, ok, match in rows)
    result = "allowed" if allowed else "forbidden"

    if args.json:
        row = _item_template(test, ("allowed", "matches_condition", "outcome"))
        items = ",\n".join(row(o, _LITERALS[ok], _LITERALS[match]) for o, ok, match in rows)
        sys.stdout.write(
            f'{{\n  "axioms": {_quote(axiom_set.name)},\n'
            f'  "condition": {_quote(str(test.condition))},\n'
            f'  "outcomes": [\n{items}\n  ],\n  "result": "{result}",\n'
            f'  "schema": {SCHEMA_VERSION},\n  "test": {_quote(test.name)}\n}}\n'
        )
    else:
        print(f"test {test.name}: exists ({test.condition})")
        print(f"axioms: {axiom_set.name}")
        for o, ok, match in rows:
            marker = "*" if match else " "
            print(f" {marker} {o.label()} -> {'allowed' if ok else 'forbidden'}")
        print(f"result: {result}")
    return 1 if allowed else 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    """With ``--json``, each candidate's entry is written as it is made and
    none is kept; every error is raised before the first byte."""
    if args.dump_executions and not args.json:
        raise CliError("--dump-executions requires --json")
    test = _load_test(args.file)
    count = candidate_count(test, _max_events())
    if args.json:
        keys = ("execution",) * args.dump_executions + ("index", "outcome", "verdicts")
        entry = _item_template(test, keys)
        sys.stdout.write(f'{{\n  "candidate_count": {count},\n  "candidates": [\n')
    verdicts: dict[Outcome, tuple[bool, bool]] = {}  # outcome -> (sc allowed, scpl allowed)
    for cand in _sc_and_scpl_results(test):
        sc, scpl = cand.verdicts
        sc_ok, scpl_ok = verdicts.get(cand.outcome, (False, False))
        verdicts[cand.outcome] = (sc_ok or sc.holds, scpl_ok or scpl.holds)
        if args.json:
            checks = [
                dict(axiom=v.axiom.value, holds=v.holds, witness=w and {"kind": w.kind, **vars(w)})
                for v in cand.verdicts for w in [v.witness]
            ]
            fields = (cand.index, _encode(checks, "      "))
            if args.dump_executions:
                fields = (_encode(execution_to_dict(cand.execution), "      "), *fields)
            sys.stdout.write((",\n" if cand.index else "") + entry(cand.outcome, *fields))
    table = [(o, *verdicts[o]) for o in outcome_space(test)]

    if args.json:
        row = _item_template(test, ("allowed_sc", "allowed_scpl", "outcome"))
        items = ",\n".join(row(o, _LITERALS[sc], _LITERALS[scpl]) for o, sc, scpl in table)
        sys.stdout.write(
            f'\n  ],\n  "outcomes": [\n{items}\n  ],\n'
            f'  "schema": {SCHEMA_VERSION},\n  "test": {_quote(test.name)}\n}}\n'
        )
    else:
        print(f"test {test.name}: {count} candidate executions")
        for o, sc_ok, scpl_ok in table:
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone: send stdout to devnull, so the flush at exit cannot fail.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
