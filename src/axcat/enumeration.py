"""Litmus programs and candidate-execution enumeration.

A candidate execution fixes one coherence order per address and one rf
source per read, with read values taken from the chosen source so
well-formedness holds by construction. ``ChoiceSpace`` states these
choice points' options once, and ``ChoiceSpace.choices`` is the one
indexed stream over their product: ``candidate_results`` and
``allowed_outcomes`` range over all of it, failing choices included
(``enumerate --json`` prints each, and the exhaustive pass is the
reference the others are tested against), or, given ``explain``'s outcome
binding, over only the choices that match it.
``outcome_space`` gives every outcome table's rows, in closed form and in
``label()`` order. ``check_table`` folds candidates into one verdict per
outcome and axiom set, in one pass, and gives ``check`` and ``enumerate``
their tables. It builds only the candidates that satisfy SC-Per-Location
when every axiom set implies it, because no other candidate can pass;
those are a product over addresses of per-address choices
(``ChoiceSpace.consistent_choices``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import permutations, product
from math import factorial, prod
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .axioms import (
    Architecture,
    AxiomVerdict,
    no_thin_air,
    observation,
    propagation,
    sc_full,
    sc_per_location_1,
)
from .execution import (
    INIT_PROC,
    READ,
    WRITE,
    DerivedRelations,
    Event,
    Execution,
    derive,
)
from .relation import Relation

DEFAULT_MAX_EVENTS = 8


class CapExceededError(ValueError):
    """Program exceeds the enumeration event cap."""


@dataclass(frozen=True)
class WriteInstr:
    addr: str
    value: int


@dataclass(frozen=True)
class ReadInstr:
    addr: str
    register: str


Instruction = Union[WriteInstr, ReadInstr]


@dataclass(frozen=True)
class RegisterBinding:
    proc: int
    register: str
    value: int

    def __str__(self) -> str:
        return f"P{self.proc}:{self.register}={self.value}"


@dataclass(frozen=True)
class MemoryBinding:
    addr: str
    value: int

    def __str__(self) -> str:
        return f"{self.addr}={self.value}"


ConditionTerm = Union[RegisterBinding, MemoryBinding]


@dataclass(frozen=True)
class Condition:
    terms: tuple[ConditionTerm, ...]

    def matches(self, outcome: "Outcome") -> bool:
        return all(
            ((t.proc, t.register), t.value) in outcome.registers
            if isinstance(t, RegisterBinding)
            else (t.addr, t.value) in outcome.final_memory
            for t in self.terms
        )

    def __str__(self) -> str:
        return " /\\ ".join(str(t) for t in self.terms)


@dataclass(frozen=True)
class LitmusTest:
    name: str
    processes: tuple[tuple[Instruction, ...], ...]
    initial: tuple[tuple[str, int], ...] = ()
    condition: Optional[Condition] = None

    def addresses(self) -> list[str]:
        addrs = {a for a, _ in self.initial}
        for proc in self.processes:
            for instr in proc:
                addrs.add(instr.addr)
        return sorted(addrs)

    def initial_value(self, addr: str) -> int:
        for a, v in self.initial:
            if a == addr:
                return v
        return 0

    def event_count(self) -> int:
        return sum(len(p) for p in self.processes)

    @cached_property
    def register_slots(self) -> tuple[tuple[tuple[int, str], int], ...]:
        """``((proc, register), k)`` per register read, sorted by
        ``(proc, register)``: the ``k``-th program event, counted in process
        order, is the last read into that register and gives its value."""
        slots: dict[tuple[int, str], int] = {}
        k = 0
        for proc, instrs in enumerate(self.processes):
            for instr in instrs:
                if isinstance(instr, ReadInstr):
                    slots[(proc, instr.register)] = k
                k += 1
        return tuple(sorted(slots.items()))


class Outcome(NamedTuple):
    registers: tuple[tuple[tuple[int, str], int], ...]
    final_memory: tuple[tuple[str, int], ...]

    def label(self) -> str:
        parts = [f"P{p}:{r}={v}" for (p, r), v in self.registers]
        parts += [f"{a}={v}" for a, v in self.final_memory]
        return "; ".join(parts)


# --- candidate construction -------------------------------------------------

# A skeleton fixes the program events (proc, kind, addr, value-or-None for
# reads) but not co or rf. Init writes are added per address.

SkeletonEvent = tuple[int, str, str, Optional[int]]


class ChoiceSpace:
    """What one skeleton fixes, built once: event ids, the init and write
    events, po, and the choice points, which are a coherence order per
    address (``writes_at``) and an rf source per read (``rf_sources``),
    with their option counts (``sizes``). An address's co chains are made
    only while they are walked (``_chains``): 8 writes at one address have
    40,320.

    Event ids: init writes get 0..A-1 in sorted address order, program
    events follow in skeleton order.
    """

    def __init__(self, skeleton: Sequence[SkeletonEvent], initial: Mapping[str, int]) -> None:
        self.addrs = tuple(sorted(initial))
        self._init_id = {a: i for i, a in enumerate(self.addrs)}
        base = len(self.addrs)
        n = base + len(skeleton)

        self._values: dict[int, int] = {self._init_id[a]: initial[a] for a in self.addrs}
        # Read events here are placeholders: each candidate replaces them.
        self._events = [
            Event(self._init_id[a], INIT_PROC, WRITE, a, initial[a]) for a in self.addrs
        ]
        self.writes_at: dict[str, tuple[int, ...]] = {a: () for a in self.addrs}
        chains: dict[int, list[int]] = {}
        for i, (proc, kind, addr, value) in enumerate(skeleton):
            eid = base + i
            chains.setdefault(proc, []).append(eid)
            if kind == WRITE:
                self._values[eid] = value  # type: ignore[assignment]
                self.writes_at[addr] += (eid,)
            self._events.append(Event(eid, proc, kind, addr, 0 if value is None else value))
        reads = [ev for ev in self._events if ev.is_read]
        self.reads = tuple(ev.id for ev in reads)
        self.rf_sources = tuple((self._init_id[ev.addr], *self.writes_at[ev.addr]) for ev in reads)
        # Each point's option count in closed form: (writes)! per address, sources per read.
        self.sizes = (
            *(factorial(len(ws)) for ws in self.writes_at.values()),
            *map(len, self.rf_sources),
        )
        # Per read, the read event each source gives it, made on first use.
        self._read_events: tuple[tuple[Event, dict[int, Event]], ...] = tuple(
            (ev, {}) for ev in reads
        )

        self._empty = Relation(n)
        self.po = self._empty.with_rows(_chain_rows(n, chains.values()))
        # Candidates differ only in read values, co and rf, which neither the
        # layout nor pol depends on, so they all share this placeholder's, and
        # none has violations: each is well-formed by construction.
        shared = Execution(tuple(self._events), self.po, self._empty, self._empty)
        self._shared = {"layout": shared.layout, "pol": shared.pol, "violations": ()}

    def candidate(self, co: Relation, sources: Sequence[int]) -> Execution:
        """The execution with coherence ``co`` in which the k-th read takes
        its value from write ``sources[k]``, as ``choices`` gives them:
        candidates are never validated."""
        events = list(self._events)
        rf = [0] * len(events)
        for (read, made), w in zip(self._read_events, sources, strict=True):
            ev = made.get(w)
            if ev is None:
                # Sources that are themselves reads never occur in
                # well-formed choices.
                ev = made[w] = replace(read, value=self._values[w])
            events[read.id] = ev
            rf[w] |= 1 << read.id
        e = Execution(tuple(events), self.po, co, self._empty.with_rows(rf))
        e.__dict__.update(self._shared)  # fills the cached properties
        return e

    def _chains(self, i: int) -> Iterator[tuple[int, ...]]:
        """The ``i``-th address's co chains, as they are walked: its init
        write first, then one order of its program writes per chain."""
        a = self.addrs[i]
        return ((self._init_id[a], *order) for order in permutations(self.writes_at[a]))

    def choices(
        self, terms: Iterable[tuple[object, int]] = ()
    ) -> Iterator[tuple[int, tuple[Relation, tuple[int, ...]]]]:
        """Each ``(index, (co, sources))`` choice, as ``candidate`` takes
        them, in index order: the product of each address's co chains, then
        each read's sources, the first slowest, so a choice's index is the
        mixed-radix number of its option positions, each point weighing the
        product of the ``sizes`` after it. With ``terms``, only the
        choices whose candidate has each ``(key, value)``: a read's event id
        fixes the value it reads, an address its co-last write's (init's if
        it has no program write), and any other key leaves no choice. Each
        term narrows one point's options as they are walked, so a bound
        address holds only its matching chains, an unbound one all of them
        during this call, and no choice outside the product of the narrowed
        points is visited."""
        at = len(self.addrs)
        options: list = [self._chains(i) for i in range(at)] + list(self.rf_sources)
        weights = [prod(self.sizes[i + 1 :]) for i in range(len(self.sizes))]
        offsets = [range(0, size * w, w) for size, w in zip(self.sizes, weights)]
        point = {key: i for i, key in enumerate((*self.addrs, *self.reads))}
        for key, value in terms:
            if (i := point.get(key)) is None:
                return
            pairs = zip(offsets[i], options[i])
            kept = [(k, o) for k, o in pairs if self._values[o[-1] if i < at else o] == value]
            offsets[i], options[i] = [k for k, _ in kept], [o for _, o in kept]
        # The reads' picks are the same under every co pick: made once.
        picks = list(zip(map(sum, product(*offsets[at:])), product(*options[at:])))
        n = len(self._events)
        for first, chains in zip(map(sum, product(*offsets[:at])), product(*options[:at])):
            co = self._empty.with_rows(_chain_rows(n, chains))
            for offset, sources in picks:
                yield first + offset, (co, sources)

    def consistent_choices(self) -> Iterator[tuple[Relation, tuple[int, ...]]]:
        """The ``(co, sources)`` choices, as ``candidate`` takes them, whose
        candidates satisfy SC-Per-Location: pol ∪ co ∪ rf ∪ fr is acyclic.
        Every edge of that union joins two events at one address, so these
        are the product over addresses of each address's consistent
        choices."""
        n = len(self._events)
        for picks in product(*map(self._consistent_at, range(len(self.addrs)))):
            co = [0] * n
            sources = [0] * len(self.reads)
            for rows, chosen in picks:
                co = list(map(or_, co, rows))
                for k, w in chosen:
                    sources[k] = w
            yield self._empty.with_rows(co), tuple(sources)

    def _consistent_at(self, i: int) -> list[tuple[list[int], tuple[tuple[int, int], ...]]]:
        """Each co chain of the ``i``-th address with each choice of sources
        for its reads under which pol ∪ co ∪ rf ∪ fr at that address is
        acyclic, as (co rows, ((read index k, source), ...)). Sources are
        picked read by read, and a partial choice is dropped as soon as it
        has a cycle: more edges only add cycles. A co chain against pol has
        one already."""
        n = len(self._events)
        at = sum(1 << ev.id for ev in self._events if ev.addr == self.addrs[i])
        pol = [row & at for row in self._shared["pol"].rows]
        sources = zip(self.reads, self.rf_sources)
        reads = [(k, r, ws) for k, (r, ws) in enumerate(sources) if at >> r & 1]
        out = []
        for chain in self._chains(i):
            co = _chain_rows(n, [chain])
            base = list(map(or_, pol, co))
            partial = [(base, ())] if self._empty.with_rows(base).is_acyclic() else []
            for k, r, ws in reads:
                grown = []
                for rows, chosen in partial:
                    for w in ws:
                        new = rows.copy()
                        new[w] |= 1 << r  # rf
                        new[r] |= co[w]  # fr: to every write co-after the source
                        if self._empty.with_rows(new).is_acyclic():
                            grown.append((new, (*chosen, (k, w))))
                partial = grown
            out += ((co, chosen) for _, chosen in partial)
        return out


def _chain_rows(n: int, chains: Iterable[Sequence[int]]) -> list[int]:
    """Rows relating each id of each chain to every later id of that chain."""
    rows = [0] * n
    for chain in chains:
        later = 0
        for x in reversed(chain):
            rows[x] |= later
            later |= 1 << x
    return rows


def _skeleton_of(t: LitmusTest, max_events: int) -> tuple[list[SkeletonEvent], dict[str, int]]:
    if not t.processes:
        raise ValueError("litmus test has no processes")
    if t.event_count() > max_events:
        raise CapExceededError(f"program has {t.event_count()} events, cap is {max_events}")
    skeleton: list[SkeletonEvent] = []
    for proc, instrs in enumerate(t.processes):
        for instr in instrs:
            if isinstance(instr, WriteInstr):
                skeleton.append((proc, WRITE, instr.addr, instr.value))
            else:
                skeleton.append((proc, READ, instr.addr, None))
    initial = {a: t.initial_value(a) for a in t.addresses()}
    return skeleton, initial


def candidate_count(t: LitmusTest, max_events: int = DEFAULT_MAX_EVENTS) -> int:
    """How many candidates ``candidate_results`` yields for ``t``, in closed
    form: every order of each address's writes times every source of each
    read. Raises what ``candidate_results`` raises, but at once."""
    return prod(ChoiceSpace(*_skeleton_of(t, max_events)).sizes)


def enumerate_candidates(t: LitmusTest, max_events: int = DEFAULT_MAX_EVENTS) -> list[Execution]:
    """Every candidate execution of the program, one per
    ``ChoiceSpace.choices()`` choice, in index order. Each is well-formed by
    construction, so none is filtered out."""
    space = ChoiceSpace(*_skeleton_of(t, max_events))
    return [space.candidate(co, sources) for _, (co, sources) in space.choices()]


def outcome_of(t: LitmusTest, e: Execution) -> Outcome:
    """Final register and memory state of one candidate of ``t``: each
    register holds its read's value, each address its co-maximal write's
    value. The candidate lists its events by id, init writes first, as
    ``ChoiceSpace`` builds them, so both parts come out in key order
    without a sort: registers in ``register_slots`` order, addresses in the
    layout's."""
    events = e.events
    base = len(events) - t.event_count()
    co_sources = sum(1 << k for k, row in enumerate(e.co.rows) if row)
    memory = []
    for a, writes in e.layout.locations:
        co_max = writes & ~co_sources
        if not co_max or co_max & (co_max - 1):
            raise ValueError(f"no unique co-maximal write at {a}")
        memory.append((a, events[co_max.bit_length() - 1].value))
    return Outcome(
        tuple((slot, events[base + k].value) for slot, k in t.register_slots), tuple(memory)
    )


def outcome_space(t: LitmusTest) -> Iterator[Outcome]:
    """Every outcome some candidate of ``t`` produces, in closed form, in
    ``label()`` order: a register holds any value written at its read's
    address, the initial one included, and an address ends with any value a
    program write gives it, or with its initial value if none does.
    Candidates make these choices independently, so the outcomes are the
    product of these slots, registers then addresses as ``label()`` lists
    them. Each slot's values are sorted by their label piece followed by
    ``;``, except in the last slot: ``label()`` joins pieces with ``"; "``,
    and ``;`` sorts after every digit (``x=10; …`` before ``x=1; …``)."""
    instrs = [instr for proc in t.processes for instr in proc]
    written: dict[str, set[int]] = {a: set() for a in t.addresses()}
    for instr in instrs:
        if isinstance(instr, WriteInstr):
            written[instr.addr].add(instr.value)
    slots = [
        (slot, written[instrs[k].addr] | {t.initial_value(instrs[k].addr)})
        for slot, k in t.register_slots
    ]
    slots += [(a, vs or {t.initial_value(a)}) for a, vs in written.items()]
    keys = [lambda v: f"{v};"] * (len(slots) - 1) + [str]
    columns = [[(slot, v) for v in sorted(vs, key=key)] for (slot, vs), key in zip(slots, keys)]
    r = len(t.register_slots)
    for row in product(*columns):
        yield Outcome(row[:r], row[r:])


# --- axiom sets and reports -------------------------------------------------


Check = Callable[[Execution, DerivedRelations], AxiomVerdict]


@dataclass(frozen=True)
class AxiomSet:
    """A model: a name and an ordered tuple of checks. A candidate is
    allowed when every check holds."""

    name: str
    checks: tuple[Check, ...]

    @classmethod
    def sc(cls) -> "AxiomSet":
        return cls("sc", (sc_full,))

    @classmethod
    def sc_per_location_only(cls) -> "AxiomSet":
        return cls("scpl", (sc_per_location_1,))

    @classmethod
    def framework(cls, architecture: Architecture) -> "AxiomSet":
        return cls(
            f"framework({architecture.name})",
            (
                sc_per_location_1,
                lambda e, d: no_thin_air(e, architecture, d),
                lambda e, d: observation(e, architecture, d),
                lambda e, d: propagation(e, architecture, d),
            ),
        )

    def verdicts(self, e: Execution) -> list[AxiomVerdict]:
        d = derive(e)
        return [check(e, d) for check in self.checks]


@dataclass(frozen=True)
class CandidateResult:
    index: int
    execution: Execution
    outcome: Outcome
    verdicts: tuple[AxiomVerdict, ...]

    @property
    def passes(self) -> bool:
        return all(v.holds for v in self.verdicts)


@dataclass(frozen=True)
class EnumerationReport:
    candidates: tuple[CandidateResult, ...]
    summary: tuple[tuple[Outcome, bool], ...]

    def allowed(self) -> set[Outcome]:
        return {o for o, ok in self.summary if ok}

    def outcomes(self) -> set[Outcome]:
        return {o for o, _ in self.summary}


def candidate_results(
    t: LitmusTest,
    axiom_set: AxiomSet,
    max_events: int = DEFAULT_MAX_EVENTS,
    where: Optional[Condition] = None,
) -> Iterator[CandidateResult]:
    """Each candidate with its outcome and verdicts, one at a time: a caller
    that keeps no result holds one candidate, not all of them. With
    ``where``, only the candidates whose outcome matches it, still indexed
    among all candidates: only they are built (``ChoiceSpace.choices``).
    Raises what ``candidate_count`` raises when called, not at the first
    result."""
    space = ChoiceSpace(*_skeleton_of(t, max_events))
    read = {slot: len(space.addrs) + k for slot, k in t.register_slots}
    terms = [
        (read.get((b.proc, b.register)) if isinstance(b, RegisterBinding) else b.addr, b.value)
        for b in (() if where is None else where.terms)
    ]

    def results() -> Iterator[CandidateResult]:
        for i, (co, sources) in space.choices(terms):
            e = space.candidate(co, sources)
            yield CandidateResult(i, e, outcome_of(t, e), tuple(axiom_set.verdicts(e)))

    return results()


def outcome_table(pairs: Iterable[tuple[Outcome, bool]]) -> tuple[tuple[Outcome, bool], ...]:
    """Fold (outcome, candidate allowed) pairs into one row per outcome,
    ordered by label: an outcome is allowed iff some candidate that produces
    it is allowed."""
    allowed: dict[Outcome, bool] = {}
    for outcome, ok in pairs:
        allowed[outcome] = allowed.get(outcome, False) or ok
    return tuple(sorted(allowed.items(), key=lambda kv: kv[0].label()))


def allowed_outcomes(
    t: LitmusTest, axiom_set: AxiomSet, max_events: int = DEFAULT_MAX_EVENTS
) -> EnumerationReport:
    """Every candidate with its verdicts, kept, and the outcome table."""
    results = tuple(candidate_results(t, axiom_set, max_events))
    return EnumerationReport(results, outcome_table((r.outcome, r.passes) for r in results))


def check_table(
    t: LitmusTest, *axiom_sets: AxiomSet, max_events: int = DEFAULT_MAX_EVENTS
) -> tuple[tuple, ...]:
    """One ``(outcome, ok_1, ..., ok_k)`` row per row of ``outcome_space``,
    from one pass over the candidates: ``ok_i`` is whether some candidate
    that produces the outcome passes ``axiom_sets[i]``, so with one set the
    rows are ``allowed_outcomes(t, axiom_set).summary``. When every set
    implies SC-Per-Location, that is when ``sc_full`` (as pol ⊆ po) or
    ``sc_per_location_1`` is among its checks, only the candidates that
    satisfy it can pass, so only they are built, and ``sc_per_location_1``
    is not run on them; otherwise every candidate is built. A set does not
    check a candidate whose outcome it already allows, and a set with no
    check left (``scpl``) checks none: it allows each built candidate's
    outcome."""
    space = ChoiceSpace(*_skeleton_of(t, max_events))
    if all(sc_full in s.checks or sc_per_location_1 in s.checks for s in axiom_sets):
        choices = space.consistent_choices()
        axiom_sets = tuple(
            replace(s, checks=tuple(c for c in s.checks if c is not sc_per_location_1))
            for s in axiom_sets
        )
    else:
        choices = (choice for _, choice in space.choices())
    columns = [(s, set()) for s in axiom_sets]
    for co, sources in choices:
        e = space.candidate(co, sources)
        outcome = outcome_of(t, e)
        for s, allowed in columns:
            if outcome not in allowed and (not s.checks or all(v.holds for v in s.verdicts(e))):
                allowed.add(outcome)
    rows = list(outcome_space(t))
    return tuple(zip(rows, *(map(allowed.__contains__, rows) for _, allowed in columns)))
