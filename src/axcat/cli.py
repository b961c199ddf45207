"""Command-line driver: check, enumerate, and explain litmus tests.

Exit codes for ``check``: 0 if the exists outcome is forbidden under the
chosen axioms, 1 if allowed, 2 on any error. The enumeration cap can be
overridden with the AXCAT_MAX_EVENTS environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional

from .axioms import ARCHITECTURES, AxiomVerdict, find_forbidden_patterns, sc_full, sc_per_location_1
from .collapse import collapse_cycle
from .enumeration import (
    DEFAULT_MAX_EVENTS,
    AxiomSet,
    CandidateResult,
    LitmusTest,
    Outcome,
    candidate_count,
    candidate_results,
    check_table,
)
from .execution import Event
from .parser import parse_litmus, parse_outcome_binding
from .relation import Relation, bits

SCHEMA_VERSION = 1

# The two models ``enumerate --json`` and ``explain`` print per candidate,
# FullSC's verdict first.
_SC_AND_SCPL = AxiomSet("sc+scpl", (sc_full, sc_per_location_1))


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


# Both JSON schemas are written directly, as ``json.JSONEncoder(indent=2,
# sort_keys=True)`` plus a newline writes them. Neither top-level list is ever
# empty: every product of choices has an item.

_LITERALS = {None: "null", True: "true", False: "false"}


def _nested(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A list (``brackets="{}"``: object) at ``indent`` of ``items`` written one level deeper."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _object(indent: str, **fields: object) -> str:
    """An object at ``indent`` of each field's JSON text, in the (sorted) order given."""
    return _nested([f'"{k}": {v}' for k, v in fields.items()], indent, "{}")


def _item_template(test: LitmusTest, keys: tuple[str, ...]) -> Callable[..., str]:
    """``item(outcome, *fields)``: an object in a top-level list with the
    sorted ``keys``, each given by its JSON text in ``fields`` except
    ``"outcome"``, from one ``%`` template made here. Registers go in key
    order, not in ``register_slots`` order: ``"P10:r0"`` < ``"P2:r0"``."""
    names = [f"P{p}:{r}" for (p, r), _ in test.register_slots]
    order = sorted(range(len(names)), key=names.__getitem__)

    def obj(keys: list[str]) -> str:
        return _nested([f"{_quote(k).replace('%', '%%')}: %d" for k in keys], " " * 8, "{}")

    memory, registers = obj(test.addresses()), obj([names[i] for i in order])
    outcome = _object(" " * 6, memory=memory, registers=registers)
    fields = [f'"{k}": ' + (outcome if k == "outcome" else "%s") for k in keys]
    template, at = "    " + _nested(fields, "    ", "{}"), keys.index("outcome")

    def item(o: Outcome, *fields: object) -> str:
        regs = o.registers
        values = (*[v for _, v in o.final_memory], *[regs[i][1] for i in order])
        return template % (*fields[:at], *values, *fields[at:])

    return item


def _entry_writer(test: LitmusTest, dump: bool) -> Callable[[CandidateResult], str]:
    """``write(cand)``: a candidate's ``enumerate --json`` entry, from texts
    made once per program: each pair's here, each event's, ``po``'s and
    verdict's on first use. Per candidate, only ``co`` and ``rf`` are joined
    from their rows. FullSC's and ScPerLocation1's witnesses are cycles."""
    entry = _item_template(test, ("execution",) * dump + ("index", "outcome", "verdicts"))
    n = len(test.addresses()) + test.event_count()  # an init write per address
    pair = [[_nested([str(x), str(y)], " " * 10) for y in range(n)] for x in range(n)]

    def pairs(r: Relation) -> str:
        return _nested([pair[x][y] for x, row in enumerate(r.rows) for y in bits(row)], " " * 8)

    po = cache(pairs)

    @cache
    def event(ev: Event) -> str:
        addr, kind = _quote(ev.addr), _quote(ev.kind)
        return _object(" " * 10, addr=addr, id=ev.id, kind=kind, proc=ev.proc, value=ev.value)

    @cache
    def verdict(v: AxiomVerdict) -> str:
        w, axiom, holds = v.witness, _quote(v.axiom.value), _LITERALS[v.holds]
        nodes = w and _nested(list(map(str, w.nodes)), " " * 12)
        witness = "null" if w is None else _object(" " * 10, kind=_quote(w.kind), nodes=nodes)
        return _object(" " * 8, axiom=axiom, holds=holds, witness=witness)

    def write(cand: CandidateResult) -> str:
        verdicts = _nested(list(map(verdict, cand.verdicts)), " " * 6)
        if not dump:
            return entry(cand.outcome, cand.index, verdicts)
        e = cand.execution
        events = _nested(list(map(event, e.events)), " " * 8)
        execution = _object(" " * 6, co=pairs(e.co), events=events, po=po(e.po), rf=pairs(e.rf))
        return entry(cand.outcome, execution, cand.index, verdicts)

    return write


def _cmd_check(args: argparse.Namespace) -> int:
    test = _load_test(args.file)
    if test.condition is None:
        raise CliError("check requires an 'exists' condition in the litmus file")
    axiom_set = _axiom_set(args.axioms, args.arch)
    table = check_table(test, axiom_set, max_events=_max_events())
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
    """The outcome table is ``check_table``'s under both models at once, from
    one pass over the SC-Per-Location-consistent candidates. With
    ``--json``, each candidate's entry is written as it is made and none is
    kept; every error is raised before the first byte."""
    if args.dump_executions and not args.json:
        raise CliError("--dump-executions requires --json")
    test = _load_test(args.file)
    cap = _max_events()
    count = candidate_count(test, cap)
    table = check_table(test, AxiomSet.sc(), AxiomSet.sc_per_location_only(), max_events=cap)

    if args.json:
        entry = _entry_writer(test, args.dump_executions)
        sys.stdout.write(f'{{\n  "candidate_count": {count},\n  "candidates": [\n')
        for cand in candidate_results(test, _SC_AND_SCPL, cap):
            sys.stdout.write((",\n" if cand.index else "") + entry(cand))
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
    cap = _max_events()
    # Raises every error before the first line.
    results = candidate_results(test, _SC_AND_SCPL, cap, binding)
    print(f"test {test.name}: outcome {binding}")
    allowed = None  # until a candidate matches
    for cand in results:
        allowed = allowed or cand.verdicts[0].holds
        status = "passes" if cand.verdicts[0].holds else "fails"
        head = f"  candidate {cand.index} ({cand.outcome.label()}) {status} full SC"
        print(head, *_explain_candidate(cand), sep="\n")
    if allowed is None:
        print("no candidate execution produces this outcome")
    else:
        print(f"verdict: {'allowed' if allowed else 'forbidden'} under sequential consistency")
    return 0


@cache  # one parser per process; callers must not mutate it
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
