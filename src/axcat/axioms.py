"""Axiom checks: full SC, both SC-Per-Location formulations, the five
prohibited coherence patterns, and the three architecture-parameterized
requirements (No Thin Air, Observation, Propagation)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .execution import DerivedRelations, Execution, derive
from .relation import CycleWitness, Relation


class Axiom(Enum):
    FULL_SC = "FullSC"
    SC_PER_LOCATION_1 = "ScPerLocation1"
    SC_PER_LOCATION_2 = "ScPerLocation2"
    FIVE_PATTERNS = "FivePatterns"
    NO_THIN_AIR = "NoThinAir"
    OBSERVATION = "Observation"
    PROPAGATION = "Propagation"


@dataclass(frozen=True)
class ArchitectureResult:
    ppo: Relation
    fence: Relation
    prop: Relation

    def check_against(self, e: Execution) -> None:
        if not self.ppo.issubset(e.po):
            raise ValueError("architecture produced ppo not contained in po")
        writes = e.layout.writes
        if self.prop.restrict(writes, writes) != self.prop:
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
PATTERN_NAMES = (CO_WW, CO_RW_RF, CO_WR_FR, CO_RW_CORF, CO_RR_FRRF)


@dataclass(frozen=True)
class PatternInstance:
    pattern: str
    first: int  # first ->pol second
    second: int  # second ->(back edge) first


class AxiomVerdict:
    """Whether an axiom holds, and the witness of a failure.

    A verdict made by ``deferred`` computes its witness when ``witness`` is
    first read, so checks that only need ``holds`` never pay for it."""

    __slots__ = ("axiom", "holds", "_witness", "_find")

    def __init__(self, axiom: Axiom, holds: bool, witness: object = None) -> None:
        self.axiom, self.holds, self._witness = axiom, holds, witness
        self._find: Optional[Callable[[], object]] = None

    @classmethod
    def deferred(cls, axiom: Axiom, holds: bool, find: Callable[[], object]) -> "AxiomVerdict":
        verdict = cls(axiom, holds)
        verdict._find = find
        return verdict

    @property
    def witness(self) -> object:
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


def sc_full(e: Execution, derived: Optional[DerivedRelations] = None) -> AxiomVerdict:
    d = derived if derived is not None else derive(e)
    return _acyclicity_verdict(Axiom.FULL_SC, e.po.union(d.com))


def sc_per_location_1(
    e: Execution, derived: Optional[DerivedRelations] = None
) -> AxiomVerdict:
    d = derived if derived is not None else derive(e)
    return _acyclicity_verdict(Axiom.SC_PER_LOCATION_1, d.pol.union(d.com))


def sc_per_location_2(
    e: Execution, derived: Optional[DerivedRelations] = None
) -> AxiomVerdict:
    d = derived if derived is not None else derive(e)
    for x, y in sorted(d.pol.pairs):
        if (y, x) in d.com_plus:
            return AxiomVerdict(Axiom.SC_PER_LOCATION_2, False, (x, y))
    return AxiomVerdict(Axiom.SC_PER_LOCATION_2, True)


def find_forbidden_patterns(
    e: Execution, derived: Optional[DerivedRelations] = None
) -> list[PatternInstance]:
    """Every instance of the five prohibited shapes, deterministically ordered."""
    d = derived if derived is not None else derive(e)
    shapes = (
        (CO_WW, e.co),
        (CO_RW_RF, e.rf),
        (CO_WR_FR, d.fr),
        (CO_RW_CORF, e.co.compose(e.rf)),
        (CO_RR_FRRF, d.fr.compose(e.rf)),
    )
    out = []
    for x, y in sorted(d.pol.pairs):
        for name, rel in shapes:
            if (y, x) in rel:
                out.append(PatternInstance(name, x, y))
    return out


def five_patterns(
    e: Execution, derived: Optional[DerivedRelations] = None
) -> AxiomVerdict:
    instances = find_forbidden_patterns(e, derived)
    return AxiomVerdict(
        Axiom.FIVE_PATTERNS, not instances, instances[0] if instances else None
    )


def happens_before(result: ArchitectureResult, d: DerivedRelations) -> Relation:
    return result.ppo.union(result.fence).union(d.rfe)


def no_thin_air(
    e: Execution, a: Architecture, derived: Optional[DerivedRelations] = None
) -> AxiomVerdict:
    d = derived if derived is not None else derive(e)
    hb = happens_before(a.result_for(e), d)
    return _acyclicity_verdict(Axiom.NO_THIN_AIR, hb)


def observation(
    e: Execution, a: Architecture, derived: Optional[DerivedRelations] = None
) -> AxiomVerdict:
    d = derived if derived is not None else derive(e)
    result = a.result_for(e)
    hb_star = happens_before(result, d).reflexive_transitive_closure()
    chained = d.fre.compose(result.prop).compose(hb_star)
    if chained.is_irreflexive():
        return AxiomVerdict(Axiom.OBSERVATION, True)
    return AxiomVerdict(Axiom.OBSERVATION, False, min(x for x, y in chained.pairs if x == y))


def propagation(
    e: Execution, a: Architecture, derived: Optional[DerivedRelations] = None
) -> AxiomVerdict:
    result = a.result_for(e)
    return _acyclicity_verdict(Axiom.PROPAGATION, e.co.union(result.prop))


def check_all(
    e: Execution, a: Architecture, derived: Optional[DerivedRelations] = None
) -> list[AxiomVerdict]:
    """Full SC, SC-Per-Location, the pattern scan, and the three
    architecture axioms, in a fixed order."""
    d = derived if derived is not None else derive(e)
    return [
        sc_full(e, d),
        sc_per_location_1(e, d),
        five_patterns(e, d),
        no_thin_air(e, a, d),
        observation(e, a, d),
        propagation(e, a, d),
    ]


# Sample architectures. The framework defines only the interface
# (ppo contained in po, fence arbitrary, prop over writes); these two
# instances are schematic illustrations, not models of any real ISA.


def _sc_arch_result(e: Execution) -> ArchitectureResult:
    d = derive(e)
    writes = e.layout.writes
    prop = e.co.union(d.com_plus.restrict(writes, writes))
    return ArchitectureResult(ppo=e.po, fence=Relation.of(e.universe), prop=prop)


def _sb_arch_result(e: Execution) -> ArchitectureResult:
    layout = e.layout
    # A store buffer lets a later read overtake an earlier write.
    ppo = e.po.difference(e.po.restrict(layout.writes, layout.reads))
    return ArchitectureResult(ppo=ppo, fence=Relation.of(e.universe), prop=e.co)


SC_ARCH = Architecture("sc-arch", _sc_arch_result)
SB_ARCH = Architecture("sb-arch", _sb_arch_result)

ARCHITECTURES: dict[str, Architecture] = {a.name: a for a in (SC_ARCH, SB_ARCH)}
