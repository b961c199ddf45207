"""Axiom checks: full SC, both SC-Per-Location formulations, the five
prohibited coherence patterns, and the three architecture-parameterized
requirements (No Thin Air, Observation, Propagation).

Each check takes an execution and returns an ``AxiomVerdict``; a failing
verdict's witness is one of the ``Witness`` types, each tagged with its JSON
``kind``."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, NamedTuple, Optional, Union

from .collapse import WitnessPair
from .execution import DerivedRelations, Execution, derive
from .relation import CycleWitness, Relation, bits


class Axiom(Enum):
    FULL_SC = "FullSC"
    SC_PER_LOCATION_1 = "ScPerLocation1"
    SC_PER_LOCATION_2 = "ScPerLocation2"
    NO_THIN_AIR = "NoThinAir"
    OBSERVATION = "Observation"
    PROPAGATION = "Propagation"


class ArchitectureResult(NamedTuple):
    ppo: Relation
    fence: Relation
    prop: Relation

    def check_against(self, e: Execution) -> None:
        if not self.ppo.issubset(e.po):
            raise ValueError("architecture produced ppo not contained in po")
        writes = e.layout.writes
        if any(row and (row | 1 << x) & ~writes for x, row in enumerate(self.prop.rows)):
            raise ValueError("architecture produced prop relating non-writes")


@dataclass(frozen=True)
class Architecture:
    name: str
    derive: Callable[[Execution], ArchitectureResult]

    def result_for(self, e: Execution) -> ArchitectureResult:
        result = self.derive(e)
        result.check_against(e)
        return result


# Pattern names: one per prohibited coherence shape, keyed by the
# communication edge that opposes the same-address program-order edge.
CO_WW = "CoWW"
CO_RW_RF = "CoRW-rf"
CO_WR_FR = "CoWR-fr"
CO_RW_CORF = "CoRW-corf"
CO_RR_FRRF = "CoRR-frrf"


@dataclass(frozen=True)
class PatternInstance:
    kind: ClassVar[str] = "pattern"
    pattern: str
    first: int  # first ->pol second
    second: int  # second ->(back edge) first


@dataclass(frozen=True)
class EventWitness:
    """An event that lies on a cycle an irreflexivity check forbids."""

    kind: ClassVar[str] = "event"
    id: int


Witness = Union[CycleWitness, WitnessPair, EventWitness, PatternInstance]


class AxiomVerdict:
    """Whether an axiom holds, and the witness of a failure.

    A verdict made by ``deferred`` computes its witness when ``witness`` is
    first read, so checks that only need ``holds`` never pay for it."""

    __slots__ = ("axiom", "holds", "_witness", "_find")

    def __init__(self, axiom: Axiom, holds: bool, witness: Optional[Witness] = None) -> None:
        self.axiom, self.holds, self._witness = axiom, holds, witness
        self._find: Optional[Callable[[], Optional[Witness]]] = None

    @classmethod
    def deferred(
        cls, axiom: Axiom, holds: bool, find: Callable[[], Optional[Witness]]
    ) -> "AxiomVerdict":
        verdict = cls(axiom, holds)
        verdict._find = find
        return verdict

    @property
    def witness(self) -> Optional[Witness]:
        if self._find is not None:
            self._witness, self._find = self._find(), None
        return self._witness

    def _key(self) -> tuple:
        return (self.axiom, self.holds, self.witness)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AxiomVerdict):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"AxiomVerdict(axiom={self.axiom!r}, holds={self.holds!r}, witness={self.witness!r})"
        )


def _acyclicity_verdict(axiom: Axiom, rel: Relation) -> AxiomVerdict:
    if rel.is_acyclic():
        return AxiomVerdict(axiom, True)
    return AxiomVerdict.deferred(axiom, False, rel.find_cycle)


# These five checks still take ``derived``, which keeps ``derive`` at the 4
# calls per sc-arch candidate that bench/test_bench.py pins (one in
# ``AxiomSet.verdicts``, one in each ``_sc_arch_result``); ``derive`` is
# memoized, so it saves no work. ROADMAP item 3 drops it. ``check_table``
# skips ``sc_per_location_1``: every candidate it builds satisfies it.


def sc_full(e: Execution, derived: Optional[DerivedRelations] = None) -> AxiomVerdict:
    d = derived if derived is not None else derive(e)
    return _acyclicity_verdict(Axiom.FULL_SC, e.po.union(d.com))


def sc_per_location_1(
    e: Execution, derived: Optional[DerivedRelations] = None
) -> AxiomVerdict:
    d = derived if derived is not None else derive(e)
    return _acyclicity_verdict(Axiom.SC_PER_LOCATION_1, e.pol.union(d.com))


def sc_per_location_2(e: Execution) -> AxiomVerdict:
    d = derive(e)
    for x, y in sorted(e.pol.pairs):
        if (y, x) in d.com_plus:
            return AxiomVerdict(Axiom.SC_PER_LOCATION_2, False, WitnessPair(x, y))
    return AxiomVerdict(Axiom.SC_PER_LOCATION_2, True)


def find_forbidden_patterns(e: Execution) -> list[PatternInstance]:
    """Every instance of the five prohibited shapes, deterministically ordered."""
    d = derive(e)
    shapes = (
        (CO_WW, e.co),
        (CO_RW_RF, e.rf),
        (CO_WR_FR, d.fr),
        (CO_RW_CORF, e.co.compose(e.rf)),
        (CO_RR_FRRF, d.fr.compose(e.rf)),
    )
    out = []
    for x, y in sorted(e.pol.pairs):
        for name, rel in shapes:
            if (y, x) in rel:
                out.append(PatternInstance(name, x, y))
    return out


def happens_before(result: ArchitectureResult, d: DerivedRelations) -> Relation:
    """ppo ∪ fence ∪ rfe."""
    rows = zip(result.ppo.rows, result.fence.rows, d.rfe.rows, strict=True)
    return d.rfe.with_rows([p | f | r for p, f, r in rows])


def no_thin_air(
    e: Execution, a: Architecture, derived: Optional[DerivedRelations] = None
) -> AxiomVerdict:
    d = derived if derived is not None else derive(e)
    hb = happens_before(a.result_for(e), d)
    return _acyclicity_verdict(Axiom.NO_THIN_AIR, hb)


def observation(
    e: Execution, a: Architecture, derived: Optional[DerivedRelations] = None
) -> AxiomVerdict:
    """fre;prop;hb* is irreflexive. The witness is the least x that reaches
    itself from (fre;prop)[x] in zero or more hb steps."""
    d = derived if derived is not None else derive(e)
    result = a.result_for(e)
    hb = happens_before(result, d).rows
    for x, seen in enumerate(d.fre.compose(result.prop).rows):
        frontier = seen
        while frontier and not seen >> x & 1:
            reach = 0
            for y in bits(frontier):
                reach |= hb[y]
            frontier = reach & ~seen
            seen |= frontier
        if seen >> x & 1:
            return AxiomVerdict(Axiom.OBSERVATION, False, EventWitness(x))
    return AxiomVerdict(Axiom.OBSERVATION, True)


def propagation(
    e: Execution, a: Architecture, derived: Optional[DerivedRelations] = None
) -> AxiomVerdict:
    if derived is None:
        derive(e)  # reads no derived relation, but validates like the other checks
    result = a.result_for(e)
    return _acyclicity_verdict(Axiom.PROPAGATION, e.co.union(result.prop))


# Sample architectures. The framework defines only the interface
# (ppo contained in po, fence arbitrary, prop over writes); these two
# instances are schematic illustrations, not models of any real ISA.


def _sc_arch_result(e: Execution) -> ArchitectureResult:
    # prop is schematically co ∪ (com+ ∩ W×W). By the com+ rewrite
    # (com ∪ co;rf ∪ fr;rf), only co relates two writes, so that is co.
    derive(e)  # validates a hand-built execution
    return ArchitectureResult(ppo=e.po, fence=e.po.with_rows((0,) * len(e.po.rows)), prop=e.co)


def _sb_arch_result(e: Execution) -> ArchitectureResult:
    writes, reads = e.layout.writes, e.layout.reads
    # A store buffer lets a later read overtake an earlier write.
    ppo = [row & ~reads if writes >> x & 1 else row for x, row in enumerate(e.po.rows)]
    return ArchitectureResult(e.po.with_rows(ppo), e.po.with_rows((0,) * len(ppo)), e.co)


SC_ARCH = Architecture("sc-arch", _sc_arch_result)
SB_ARCH = Architecture("sb-arch", _sb_arch_result)

ARCHITECTURES: dict[str, Architecture] = {a.name: a for a in (SC_ARCH, SB_ARCH)}
