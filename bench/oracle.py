"""Independent verdict oracle for the benchmark.

Nothing here imports axcat. Programs are read by a small parser of the
litmus format, and every answer comes from a different principle than the
checker's own enumerate-then-filter path:

* ``sc``: an interleaving interpreter. The outcomes reachable by running
  the processes' instructions in some interleaving on one shared memory are
  exactly the outcomes allowed under full SC.
* ``scpl``: ``pol ∪ com`` only relates events on one address, so an outcome
  is allowed iff, for every address, its restriction to that address is
  reachable by interleaving the processes' accesses to that address alone.
  The allowed set is the product of the per-address interleaving outcomes.
* The outcome table (every outcome with a candidate, allowed or not) and
  the candidate count are closed forms: co orders and rf sources are chosen
  independently, so both are products over addresses and reads.

Outcomes are compared as keys ``(registers, memory)``, each a sorted tuple
of ``(name, value)`` pairs with register names written ``P<proc>:<reg>``,
the same shape as the checker's JSON.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, prod
from typing import Iterable, Union

OutcomeKey = tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]


@dataclass(frozen=True)
class Write:
    addr: str
    value: int


@dataclass(frozen=True)
class Read:
    addr: str
    reg: str


Instr = Union[Write, Read]


@dataclass(frozen=True)
class RegTerm:
    proc: int
    reg: str
    value: int


@dataclass(frozen=True)
class MemTerm:
    addr: str
    value: int


Term = Union[RegTerm, MemTerm]


@dataclass(frozen=True)
class Program:
    name: str
    procs: tuple[tuple[Instr, ...], ...]
    init: tuple[tuple[str, int], ...] = ()
    cond: tuple[Term, ...] = ()

    def addresses(self) -> list[str]:
        addrs = {a for a, _ in self.init}
        addrs.update(i.addr for p in self.procs for i in p)
        return sorted(addrs)

    def init_value(self, addr: str) -> int:
        return dict(self.init).get(addr, 0)

    def event_count(self) -> int:
        return sum(len(p) for p in self.procs)

    def reads(self) -> list[tuple[int, Read]]:
        return [(p, i) for p, instrs in enumerate(self.procs) for i in instrs if isinstance(i, Read)]

    def write_values(self, addr: str) -> list[int]:
        return [i.value for p in self.procs for i in p if isinstance(i, Write) and i.addr == addr]

    def matches(self, key: OutcomeKey) -> bool:
        regs, mem = dict(key[0]), dict(key[1])
        for t in self.cond:
            got = regs.get(f"P{t.proc}:{t.reg}") if isinstance(t, RegTerm) else mem.get(t.addr)
            if got != t.value:
                return False
        return True

    def cond_text(self) -> str:
        """The condition in the checker's ``--outcome`` binding syntax."""
        parts = [
            f"P{t.proc}:{t.reg}={t.value}" if isinstance(t, RegTerm) else f"{t.addr}={t.value}"
            for t in self.cond
        ]
        return " /\\ ".join(parts)


# --- parsing ------------------------------------------------------------------

_TEST_RE = re.compile(r"^\s*test\s+(\w+)\s*;")
_INIT_RE = re.compile(r"\binit\s*\{([^}]*)\}")
_PROC_RE = re.compile(r"\bP(\d+)\s*:\s*\{([^}]*)\}")
_EXISTS_RE = re.compile(r"\bexists\s*\((.*)\)\s*;")


def parse_program(text: str) -> Program:
    """Parse the litmus format (see axcat's README) without using axcat."""
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    m = _TEST_RE.search(text)
    if m is None:
        raise ValueError("missing 'test <name>;' header")
    name = m.group(1)
    init: list[tuple[str, int]] = []
    m = _INIT_RE.search(text)
    if m is not None:
        for item in filter(None, (s.strip() for s in m.group(1).split(";"))):
            addr, value = (s.strip() for s in item.split("="))
            init.append((addr, int(value)))
    procs = []
    for index, (label, body) in enumerate(_PROC_RE.findall(text)):
        if int(label) != index:
            raise ValueError(f"expected process P{index}, got P{label}")
        instrs: list[Instr] = []
        for item in filter(None, (s.strip() for s in body.split(";"))):
            dst, src = (s.strip() for s in item.split("<-"))
            instrs.append(Read(src, dst) if dst.startswith("r") else Write(dst, int(src)))
        procs.append(tuple(instrs))
    cond: list[Term] = []
    m = _EXISTS_RE.search(text)
    if m is not None:
        for item in m.group(1).split("/\\"):
            lhs, value = (s.strip() for s in item.split("="))
            if ":" in lhs:
                proc, reg = lhs.split(":")
                cond.append(RegTerm(int(proc[1:]), reg.strip(), int(value)))
            else:
                cond.append(MemTerm(lhs, int(value)))
    return Program(name, tuple(procs), tuple(init), tuple(cond))


# --- closed forms -------------------------------------------------------------


def candidate_count(p: Program) -> int:
    """Π over addresses of |W_a|!, times Π over reads of (|W_addr(r)| + 1)."""
    co = prod(factorial(len(p.write_values(a))) for a in p.addresses())
    rf = prod(len(p.write_values(r.addr)) + 1 for _, r in p.reads())
    return co * rf


def _key(regs: Iterable[tuple[str, int]], mem: Iterable[tuple[str, int]]) -> OutcomeKey:
    return tuple(sorted(regs)), tuple(sorted(mem))


def outcome_space(p: Program) -> frozenset[OutcomeKey]:
    """Every outcome some candidate produces: each read sees init or any
    write to its address, and each address ends on any of its writes (on
    its initial value when it has none)."""
    reads = p.reads()
    addrs = p.addresses()
    read_vals = [[p.init_value(r.addr), *p.write_values(r.addr)] for _, r in reads]
    final_vals = [p.write_values(a) or [p.init_value(a)] for a in addrs]
    names = [f"P{proc}:{r.reg}" for proc, r in reads]
    return frozenset(
        _key(zip(names, rv), zip(addrs, fv))
        for rv in product(*read_vals)
        for fv in product(*final_vals)
    )


def matching_candidate_count(p: Program) -> int:
    """Number of candidates whose outcome satisfies the exists condition."""
    want_reg = {(t.proc, t.reg): t.value for t in p.cond if isinstance(t, RegTerm)}
    want_mem = {t.addr: t.value for t in p.cond if isinstance(t, MemTerm)}
    total = 1
    for proc, r in p.reads():
        sources = [p.init_value(r.addr), *p.write_values(r.addr)]
        want = want_reg.get((proc, r.reg))
        total *= len(sources) if want is None else sources.count(want)
    for a in p.addresses():
        writes = p.write_values(a)
        want = want_mem.get(a)
        if not writes:
            total *= 1 if want is None or want == p.init_value(a) else 0
        elif want is None:
            total *= factorial(len(writes))
        else:
            # the co-last write carries the final value
            total *= writes.count(want) * factorial(len(writes) - 1)
    return total


# --- interleaving semantics ---------------------------------------------------


def sc_outcomes(p: Program) -> frozenset[OutcomeKey]:
    """Final states of every interleaving of the processes on one memory."""
    addrs = p.addresses()
    start_mem = tuple(p.init_value(a) for a in addrs)
    slot = {a: i for i, a in enumerate(addrs)}
    procs = p.procs
    out: set[OutcomeKey] = set()
    seen: set = set()
    stack = [(tuple(0 for _ in procs), start_mem, ())]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        pcs, mem, regs = state
        done = True
        for proc, pc in enumerate(pcs):
            if pc == len(procs[proc]):
                continue
            done = False
            instr = procs[proc][pc]
            next_pcs = pcs[:proc] + (pc + 1,) + pcs[proc + 1 :]
            if isinstance(instr, Write):
                k = slot[instr.addr]
                next_mem = mem[:k] + (instr.value,) + mem[k + 1 :]
                stack.append((next_pcs, next_mem, regs))
            else:
                value = mem[slot[instr.addr]]
                stack.append((next_pcs, mem, regs + ((f"P{proc}:{instr.reg}", value),)))
        if done:
            out.add(_key(regs, zip(addrs, mem)))
    return frozenset(out)


def _restrict(p: Program, addr: str) -> Program:
    procs = tuple(tuple(i for i in instrs if i.addr == addr) for instrs in p.procs)
    return Program(p.name, procs, ((addr, p.init_value(addr)),))


def scpl_outcomes(p: Program) -> frozenset[OutcomeKey]:
    """Product over addresses of the per-address interleaving outcomes."""
    per_addr = [sc_outcomes(_restrict(p, a)) for a in p.addresses()]
    return frozenset(
        _key(
            (r for part in parts for r in part[0]),
            (m for part in parts for m in part[1]),
        )
        for parts in product(*per_addr)
    )


def allowed(p: Program, axioms: str) -> frozenset[OutcomeKey]:
    if axioms == "sc":
        return sc_outcomes(p)
    if axioms == "scpl":
        return scpl_outcomes(p)
    raise ValueError(f"the oracle decides sc and scpl, not {axioms!r}")


def outcome_table(p: Program, allowed_set: frozenset[OutcomeKey]) -> frozenset[tuple[OutcomeKey, bool]]:
    return frozenset((k, k in allowed_set) for k in outcome_space(p))


def verdict(p: Program, allowed_set: frozenset[OutcomeKey]) -> str:
    return "allowed" if any(p.matches(k) for k in allowed_set) else "forbidden"


# --- counting SC-per-location-consistent candidates ---------------------------


def _acyclic(n: int, edges: list[tuple[int, int]]) -> bool:
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for x, y in edges:
        succ[x].append(y)
        indeg[y] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == n


def _scpl_count_at(p: Program, addr: str) -> int:
    """Co orders and rf choices at one address with pol ∪ com acyclic.

    Node 0 is the init write; program accesses to ``addr`` follow.
    """
    accesses = [(proc, i) for proc, instrs in enumerate(p.procs) for i in instrs if i.addr == addr]
    n = len(accesses) + 1
    writes = [k + 1 for k, (_, i) in enumerate(accesses) if isinstance(i, Write)]
    reads = [k + 1 for k, (_, i) in enumerate(accesses) if isinstance(i, Read)]
    pol = [
        (a + 1, b + 1)
        for a in range(len(accesses))
        for b in range(a + 1, len(accesses))
        if accesses[a][0] == accesses[b][0]
    ]
    count = 0
    for order in permutations(writes):
        co_seq = (0, *order)
        co = [(co_seq[i], co_seq[j]) for i in range(len(co_seq)) for j in range(i + 1, len(co_seq))]
        after = {w: co_seq[k + 1 :] for k, w in enumerate(co_seq)}
        for sources in product(co_seq, repeat=len(reads)):
            rf = list(zip(sources, reads))
            fr = [(r, w2) for w, r in rf for w2 in after[w]]
            if _acyclic(n, pol + co + rf + fr):
                count += 1
    return count


def scpl_consistent_count(p: Program) -> int:
    """Candidates with ``pol ∪ com`` acyclic: a product over addresses,
    because the relation never links two addresses."""
    return prod(_scpl_count_at(p, a) for a in p.addresses())


# --- reading the checker's output ---------------------------------------------


def key_of(outcome: dict) -> OutcomeKey:
    """Outcome key of one ``{"registers": ..., "memory": ...}`` JSON object."""
    return _key(outcome["registers"].items(), outcome["memory"].items())


def table_mask(p: Program, allowed_set: frozenset[OutcomeKey]) -> str:
    """Allowed outcomes as a hex bitmask over ``sorted(outcome_space(p))``."""
    bits = sum(1 << i for i, k in enumerate(sorted(outcome_space(p))) if k in allowed_set)
    return format(bits, "x")


def allowed_from_mask(p: Program, mask: str) -> frozenset[OutcomeKey]:
    bits = int(mask, 16)
    return frozenset(k for i, k in enumerate(sorted(outcome_space(p))) if bits >> i & 1)
