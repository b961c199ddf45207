"""Axiomatic weak-memory litmus checker: event-graph executions,
communication relations, consistency axioms, and candidate enumeration."""

from .axioms import (
    ARCHITECTURES,
    SB_ARCH,
    SC_ARCH,
    Architecture,
    ArchitectureResult,
    Axiom,
    AxiomVerdict,
    EventWitness,
    PatternInstance,
    Witness,
    find_forbidden_patterns,
    no_thin_air,
    observation,
    propagation,
    sc_full,
    sc_per_location_1,
    sc_per_location_2,
)
from .collapse import CaseTag, WitnessPair, collapse_cycle, totality_case
from .enumeration import (
    AxiomSet,
    CandidateResult,
    Condition,
    EnumerationReport,
    LitmusTest,
    MemoryBinding,
    Outcome,
    ReadInstr,
    RegisterBinding,
    WriteInstr,
    allowed_outcomes,
    enumerate_candidates,
    outcome_of,
)
from .execution import (
    INIT_PROC,
    READ,
    WRITE,
    DerivedRelations,
    Event,
    Execution,
    WellFormednessViolation,
    com_plus_rewrite,
    derive,
    execution_from_dict,
    execution_from_json,
    execution_to_dict,
    execution_to_json,
    make_execution,
    rf_inv,
    validate,
)
from .generators import GenConfig, exhaustive_executions, gen_execution, gen_executions
from .parser import LitmusSyntaxError, parse_litmus, parse_outcome_binding, print_litmus
from .relation import CycleWitness, Relation

__version__ = "0.1.0"
