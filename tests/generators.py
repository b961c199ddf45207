"""Random and exhaustive well-formed execution generation, the plain
forms tests compare executions and outcomes in, the reference order of a
program's choices (``product_choices``), and the reference outcome match
(``matches``).

Both generators mirror the enumerator's choice points: pick an event
skeleton, then a coherence permutation per address and an rf source per
read, so every well-formed shape is reachable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from axcat.enumeration import (
    ChoiceSpace,
    Condition,
    LitmusTest,
    Outcome,
    ReadInstr,
    RegisterBinding,
    SkeletonEvent,
    WriteInstr,
)
from axcat.execution import READ, WRITE, Execution
from axcat.relation import Relation

EXHAUSTIVE_MAX = 5


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_events: int = 8
    max_procs: int = 3
    max_addrs: int = 3

    def __post_init__(self) -> None:
        if self.max_events < 0:
            raise ValueError("max_events must be >= 0")
        if self.max_procs < 1 or self.max_addrs < 1:
            raise ValueError("max_procs and max_addrs must be >= 1")


def gen_execution(cfg: GenConfig, rng: Optional[random.Random] = None) -> Execution:
    """One random well-formed execution; deterministic given cfg.seed."""
    rng = rng if rng is not None else random.Random(cfg.seed)
    n_procs = rng.randint(1, cfg.max_procs)
    n_addrs = rng.randint(1, cfg.max_addrs)
    addrs = [f"a{i}" for i in range(n_addrs)]
    n_events = rng.randint(0, cfg.max_events)

    skeleton: list[SkeletonEvent] = []
    next_value = 1
    for _ in range(n_events):
        proc = rng.randrange(n_procs)
        addr = rng.choice(addrs)
        if rng.random() < 0.5:
            skeleton.append((proc, READ, addr, None))
        else:
            skeleton.append((proc, WRITE, addr, next_value))
            next_value += 1

    space = ChoiceSpace(skeleton, {a: 0 for a in addrs})
    chains = []
    for a in addrs:
        order = list(space.writes_at[a])
        rng.shuffle(order)
        # Init writes take ids 0..A-1 in sorted address order: a10 before a2.
        chains.append((sorted(addrs).index(a), *order))
    sources = [rng.choice(choices) for choices in space.rf_sources]
    return space.candidate(co_of(len(addrs) + n_events, chains), sources)


def co_of(n: int, chains: Iterable[Sequence[int]]) -> Relation:
    """co over ``n`` events, as pairs: each write of each chain before every
    later write of that chain."""
    return Relation(n, (pair for chain in chains for pair in combinations(chain, 2)))


def product_choices(t: LitmusTest) -> Iterator[tuple[Relation, tuple[int, ...]]]:
    """Every ``(co, sources)`` choice of ``t``, from the program text alone,
    in the order ``ChoiceSpace.choices`` indexes them: the product of every
    address's co orders (its init write, then a permutation of its writes;
    the first address slowest) with every read's rf sources (its address's
    init write, then its writes). Init writes take ids 0..A-1 in sorted
    address order, and program events follow in process order."""
    addrs = t.addresses()
    instrs = [instr for proc in t.processes for instr in proc]
    ids = list(enumerate(instrs, len(addrs)))
    writes_at = [[i for i, w in ids if isinstance(w, WriteInstr) and w.addr == a] for a in addrs]
    sources = [
        (addrs.index(r.addr), *writes_at[addrs.index(r.addr)])
        for r in instrs
        if isinstance(r, ReadInstr)
    ]
    n = len(ids) + len(addrs)
    for pick, rf in product(product(*map(permutations, writes_at)), product(*sources)):
        yield co_of(n, ((a, *order) for a, order in enumerate(pick))), rf


def gen_executions(cfg: GenConfig) -> Iterator[Execution]:
    """Infinite deterministic stream seeded by cfg.seed."""
    rng = random.Random(cfg.seed)
    while True:
        yield gen_execution(cfg, rng)


def _growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Canonical labelings: each label appears in order of first use."""
    if n == 0:
        yield ()
        return

    def rec(prefix: list[int], maxv: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(maxv + 2):
            prefix.append(v)
            yield from rec(prefix, max(maxv, v))
            prefix.pop()

    yield from rec([], -1)


def exhaustive_executions(max_events: int) -> Iterator[Execution]:
    """Every well-formed execution up to canonical relabeling of processes
    and addresses, with at most max_events program events."""
    if max_events > EXHAUSTIVE_MAX:
        raise ValueError(f"exhaustive bound is capped at {EXHAUSTIVE_MAX}")
    for n in range(max_events + 1):
        for procs in _growth_strings(n):
            for addr_labels in _growth_strings(n):
                addrs = [f"a{j}" for j in addr_labels]
                initial = {a: 0 for a in sorted(set(addrs))}
                for kinds in product((READ, WRITE), repeat=n):
                    skeleton: list[SkeletonEvent] = []
                    for i in range(n):
                        value = len(initial) + i + 1 if kinds[i] == WRITE else None
                        skeleton.append((procs[i], kinds[i], addrs[i], value))
                    space = ChoiceSpace(skeleton, initial)
                    yield from (space.candidate(*choice) for _, choice in space.choices())


def execution_to_dict(e: Execution) -> dict:
    """The reference form of an execution: each event's fields, and po, co
    and rf as sorted pairs."""
    return {
        "events": [
            {"id": ev.id, "proc": ev.proc, "kind": ev.kind, "addr": ev.addr, "value": ev.value}
            for ev in e.events
        ],
        "po": sorted(e.po.pairs),
        "co": sorted(e.co.pairs),
        "rf": sorted(e.rf.pairs),
    }


def make_outcome(registers: Mapping[tuple[int, str], int], memory: Mapping[str, int]) -> Outcome:
    """The outcome with these register and memory values, each part sorted
    by key, as ``outcome_of`` orders them."""
    return Outcome(tuple(sorted(registers.items())), tuple(sorted(memory.items())))


def matches(condition: Condition, outcome: Outcome) -> bool:
    """Whether ``outcome`` has each of ``condition``'s terms: the reference
    for ``matching_rows``."""
    return all(
        ((t.proc, t.register), t.value) in outcome.registers
        if isinstance(t, RegisterBinding)
        else (t.addr, t.value) in outcome.final_memory
        for t in condition.terms
    )
