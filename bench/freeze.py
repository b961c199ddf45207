"""Regenerate the suite pool and the frozen framework answers.

    python3 bench/freeze.py

The pool is a seeded draw of small
multi-address programs (2-4 processes, 2-3 addresses, 4-8 events, at most
2 writes per address), built as axcat ``LitmusTest`` objects, emitted with
``print_litmus`` and re-parsed with ``parse_litmus``. The framework verdicts
of the pool, the shipped tests, the classics and W4R4 are then taken from
the current checker and frozen, because the oracle has no independent
semantics for the sample architectures. Before writing, every program's
``sc`` and ``scpl`` tables from the checker are compared with the oracle's,
and its candidate list length with the closed-form count.
"""

from __future__ import annotations

import json
import random
import sys

import oracle
import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

from axcat import (  # noqa: E402
    ARCHITECTURES,
    AxiomSet,
    LitmusTest,
    ReadInstr,
    WriteInstr,
    allowed_outcomes,
    parse_litmus,
    print_litmus,
)
from axcat.enumeration import Condition, MemoryBinding, RegisterBinding  # noqa: E402

POOL_SEED = 14061563
POOL_SIZE = 1000
ADDRS = ("x", "y", "z")


def gen_test(rng: random.Random, name: str) -> LitmusTest:
    while True:
        n_procs = rng.randint(2, 4)
        addrs = ADDRS[: rng.randint(2, 3)]
        n_events = rng.randint(max(4, n_procs), 8)
        owners = list(range(n_procs)) + [rng.randrange(n_procs) for _ in range(n_events - n_procs)]
        rng.shuffle(owners)
        procs: list[list] = [[] for _ in range(n_procs)]
        writes = {a: [] for a in addrs}
        reads = []
        for proc in owners:
            addr = rng.choice(addrs)
            if len(writes[addr]) < 2 and rng.random() < 0.5:
                value = sum(map(len, writes.values())) + 1
                writes[addr].append(value)
                procs[proc].append(WriteInstr(addr, value))
            else:
                reg = f"r{len(reads)}"
                reads.append((proc, reg, addr))
                procs[proc].append(ReadInstr(addr, reg))
        used = sorted({i.addr for p in procs for i in p})
        if reads and len(used) >= 2:
            break
    terms = []
    for proc, reg, addr in rng.sample(reads, min(len(reads), rng.randint(1, 3))):
        terms.append(RegisterBinding(proc, reg, rng.choice([0, *writes[addr]])))
    if rng.random() < 0.2:
        addr = rng.choice(used)
        terms.append(MemoryBinding(addr, rng.choice(writes[addr] or [0])))
    return LitmusTest(
        name=name,
        processes=tuple(tuple(p) for p in procs),
        initial=tuple((a, 0) for a in used),
        condition=Condition(tuple(terms)),
    )


def table(report) -> frozenset:
    """The (outcome key, allowed) pairs of an ``allowed_outcomes`` report."""
    return frozenset(
        (oracle.key_of({"registers": {f"P{p}:{r}": v for (p, r), v in o.registers}, "memory": dict(o.final_memory)}), ok)
        for o, ok in report.summary
    )


def freeze_program(text: str) -> dict[str, str]:
    test = parse_litmus(text)
    prog = oracle.parse_program(text)
    for axioms, axiom_set in (("sc", AxiomSet.sc()), ("scpl", AxiomSet.sc_per_location_only())):
        report = allowed_outcomes(test, axiom_set)
        if len(report.candidates) != oracle.candidate_count(prog):
            raise SystemExit(f"{prog.name}: closed-form count disagrees with the checker")
        if table(report) != oracle.outcome_table(prog, oracle.allowed(prog, axioms)):
            raise SystemExit(f"{prog.name}: oracle disagrees with the checker under {axioms}")
    masks = {}
    for arch in workloads.FRAMEWORK_ARCHS:
        report = allowed_outcomes(test, AxiomSet.framework(ARCHITECTURES[arch]))
        masks[arch] = oracle.table_mask(prog, frozenset(k for k, ok in table(report) if ok))
    return masks


def main() -> None:
    rng = random.Random(POOL_SEED)
    pool = {}
    for i in range(POOL_SIZE):
        test = gen_test(rng, f"S{i:04d}")
        text = print_litmus(test)
        if parse_litmus(text) != test:
            raise SystemExit(f"{test.name}: print_litmus does not round-trip")
        pool[test.name] = text
    fixed = {s.program.name: s.text for s in workloads.fixed_suite_sources()}
    fixed["W4R4"] = (workloads.CORPUS / "W4R4.litmus").read_text(encoding="utf-8")
    frozen = {name: freeze_program(text) for name, text in {**fixed, **pool}.items()}

    workloads.POOL_FILE.write_text(
        json.dumps(
            {
                "generator": {
                    "seed": POOL_SEED,
                    "size": POOL_SIZE,
                    "processes": [2, 4],
                    "addresses": [2, 3],
                    "events": [4, 8],
                    "max_writes_per_address": 2,
                },
                "programs": pool,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    workloads.FROZEN_FILE.write_text(
        json.dumps({"framework": frozen}, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"froze {len(pool)} pool programs and {len(fixed)} fixed ones")


if __name__ == "__main__":
    main()
