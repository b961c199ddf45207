from collections import Counter

import pytest

from axcat import (
    ARCHITECTURES,
    INIT_PROC,
    READ,
    SB_ARCH,
    SC_ARCH,
    WRITE,
    Architecture,
    ArchitectureResult,
    Axiom,
    AxiomSet,
    AxiomVerdict,
    CycleWitness,
    Event,
    Relation,
    WitnessPair,
    derive,
    find_forbidden_patterns,
    make_execution,
    no_thin_air,
    observation,
    propagation,
    sc_full,
    sc_per_location_1,
    sc_per_location_2,
)
from axcat.axioms import EventWitness, happens_before

from conftest import execution_check
from relation_algebra import (
    difference,
    inverse,
    reflexive_transitive_closure,
    restrict,
    validates_against,
)
from test_execution import sb_execution


def single_process_execution():
    events = [
        Event(0, INIT_PROC, WRITE, "x", 0),
        Event(1, 0, WRITE, "x", 1),
        Event(2, 0, READ, "x", 1),
    ]
    return make_execution(events, po=[(1, 2)], co=[(0, 1)], rf=[(1, 2)])


def coww_execution():
    """Same process writes x twice, co opposing po."""
    events = [Event(0, 0, WRITE, "x", 1), Event(1, 0, WRITE, "x", 2)]
    return make_execution(events, po=[(0, 1)], co=[(1, 0)])


def corw_corf_execution():
    """r ->pol w1, w1 ->co w2 ->rf r: the co;rf pattern."""
    events = [
        Event(0, 0, READ, "x", 3),
        Event(1, 0, WRITE, "x", 1),
        Event(2, 1, WRITE, "x", 3),
    ]
    return make_execution(events, po=[(0, 1)], co=[(1, 2)], rf=[(2, 0)])


NULL_ARCH = Architecture(
    "null",
    lambda e: ArchitectureResult(
        Relation(len(e.events)), Relation(len(e.events)), Relation(len(e.events))
    ),
)

# prop = co⁻¹: a valid prop (writes only) that Observation often fails on.
CO_INVERSE_ARCH = Architecture(
    "co-inverse",
    lambda e: ArchitectureResult(e.po, Relation(len(e.events)), inverse(e.co)),
)


def observation_by_closure(e, arch):
    """Observation as it is defined: fre;prop;hb* is irreflexive, with hb*
    the reflexive-transitive closure of ppo ∪ fence ∪ rfe. Returns the
    verdict and the witness, the least event on the diagonal, and the
    number of events on the diagonal."""
    d = derive(e)
    result = arch.result_for(e)
    hb = result.ppo.union(result.fence).union(d.rfe)
    chained = d.fre.compose(result.prop).compose(reflexive_transitive_closure(hb))
    diagonal = [x for x in range(len(e.events)) if (x, x) in chained]
    witness = EventWitness(diagonal[0]) if diagonal else None
    return not diagonal, witness, len(diagonal)


OBSERVATION_ARCHS = (SC_ARCH, SB_ARCH, NULL_ARCH, CO_INVERSE_ARCH)


@execution_check
def observation_against_the_closure(e, _):
    """Per architecture of ``OBSERVATION_ARCHS``: whether ``observation``
    gives the closure's verdict and witness, and whether several events are
    on the closure's diagonal."""
    out = []
    for arch in OBSERVATION_ARCHS:
        holds, witness, on_diagonal = observation_by_closure(e, arch)
        verdict = observation(e, arch)
        out.append(((verdict.holds, verdict.witness) == (holds, witness), on_diagonal > 1))
    return tuple(out)


class TestFullSc:
    def test_single_process_holds(self):
        assert sc_full(single_process_execution()).holds

    def test_sb_both_stale_reads_fails_with_four_cycle(self):
        verdict = sc_full(sb_execution(0, 0))
        assert not verdict.holds
        assert verdict.witness.nodes == (2, 3, 4, 5)

    def test_sb_other_outcomes_hold(self):
        for r0, r1 in [(0, 1), (1, 0), (1, 1)]:
            assert sc_full(sb_execution(r0, r1)).holds


class TestScPerLocation:
    def test_empty_execution_holds(self):
        e = make_execution([])
        assert sc_per_location_1(e).holds
        assert sc_per_location_2(e).holds

    def test_all_sb_outcomes_hold(self):
        for r0 in (0, 1):
            for r1 in (0, 1):
                e = sb_execution(r0, r1)
                assert sc_per_location_1(e).holds
                assert sc_per_location_2(e).holds

    def test_coww_fails_both(self):
        e = coww_execution()
        v1, v2 = sc_per_location_1(e), sc_per_location_2(e)
        assert not v1.holds and not v2.holds
        assert validates_against(v1.witness, e.pol.union(derive(e).com))
        assert v2.witness == WitnessPair(0, 1)

    def test_corf_pattern_fails_with_pair(self):
        verdict = sc_per_location_2(corw_corf_execution())
        assert not verdict.holds
        assert verdict.witness == WitnessPair(0, 1)


class TestPatterns:
    def test_empty(self):
        assert find_forbidden_patterns(make_execution([])) == []

    def test_coww_instance(self):
        instances = find_forbidden_patterns(coww_execution())
        assert [(i.pattern, i.first, i.second) for i in instances] == [("CoWW", 0, 1)]

    def test_corw_corf_instance(self):
        instances = find_forbidden_patterns(corw_corf_execution())
        assert [(i.pattern, i.first, i.second) for i in instances] == [
            ("CoRW-corf", 0, 1)
        ]


class TestArchitectureAxioms:
    def test_empty_execution_all_hold(self):
        e = make_execution([])
        for arch in (SC_ARCH, SB_ARCH, NULL_ARCH):
            assert no_thin_air(e, arch).holds
            assert observation(e, arch).holds
            assert propagation(e, arch).holds

    def test_sb_stale_reads_under_sc_arch(self):
        # full SC fails, all framework axioms hold
        e = sb_execution(0, 0)
        assert not sc_full(e).holds
        assert no_thin_air(e, SC_ARCH).holds
        assert observation(e, SC_ARCH).holds
        assert propagation(e, SC_ARCH).holds

    def test_sb_hb_has_no_cycle_when_reads_are_stale(self):
        e = sb_execution(0, 0)
        d = derive(e)
        hb = happens_before(SC_ARCH.result_for(e), d)
        assert hb.pairs == e.po.pairs | d.rfe.pairs
        assert hb.is_acyclic()

    def test_no_cross_process_fr_observation_holds(self):
        assert observation(single_process_execution(), SC_ARCH).holds

    def test_empty_prop_observation_always_holds(self, random_corpus):
        for e, _ in random_corpus[:200]:
            assert observation(e, NULL_ARCH).holds

    def test_propagation_with_empty_prop(self, random_corpus):
        for e, _ in random_corpus[:200]:
            assert propagation(e, NULL_ARCH).holds

    def test_propagation_fails_on_co_opposing_prop(self):
        def opposing(e):
            return ArchitectureResult(
                Relation(len(e.events)),
                Relation(len(e.events)),
                inverse(e.co),
            )

        arch = Architecture("co-opposed", opposing)
        events = [Event(0, 0, WRITE, "x", 1), Event(1, 0, WRITE, "x", 2)]
        e = make_execution(events, po=[(0, 1)], co=[(0, 1)])
        assert not propagation(e, arch).holds

    def test_propagation_prop_equals_co(self, random_corpus):
        for e, _ in random_corpus[:200]:
            assert propagation(e, SB_ARCH).holds

    def test_ill_formed_execution_rejected_without_derived(self):
        # The read has no rf source; deriving on the caller's behalf validates.
        e = make_execution([Event(0, INIT_PROC, WRITE, "x", 0), Event(1, 0, READ, "x", 0)])
        for arch in (SC_ARCH, SB_ARCH):
            for check in (no_thin_air, observation, propagation):
                with pytest.raises(ValueError, match="ill-formed: read-without-rf-source"):
                    check(e, arch)

    def test_ppo_subset_enforced(self):
        bad = Architecture(
            "bad",
            lambda e: ArchitectureResult(
                inverse(e.po), Relation(len(e.events)), Relation(len(e.events))
            ),
        )
        with pytest.raises(ValueError):
            no_thin_air(sb_execution(0, 0), bad)

    def test_prop_writes_only_enforced(self):
        # rf leaves writes for reads; its inverse leaves reads for writes.
        e = sb_execution(0, 0)
        for prop in (e.rf, inverse(e.rf)):
            bad = Architecture(
                "bad",
                lambda e, prop=prop: ArchitectureResult(
                    Relation(len(e.events)), Relation(len(e.events)), prop
                ),
            )
            with pytest.raises(ValueError, match="prop relating non-writes"):
                propagation(e, bad)

    def test_sb_arch_and_hb_equal_their_definitions(self, full_corpus):
        """sb-arch's ppo is po without its W×R pairs, and hb is ppo ∪ fence ∪
        rfe under both shipped architectures, on every execution with at
        most 4 program events and on the random corpus."""
        for e, d in full_corpus:
            writes, reads = e.layout.writes, e.layout.reads
            result = SB_ARCH.result_for(e)
            assert result.ppo == difference(e.po, restrict(e.po, writes, reads))
            for result in (result, SC_ARCH.result_for(e)):
                hb = happens_before(result, d)
                assert hb == result.ppo.union(result.fence).union(d.rfe)

    def test_observation_equals_the_closure_definition(self, corpus_walk):
        """The reachability search gives the verdict and the witness (the
        least event on the diagonal of fre;prop;hb*) that the closure gives,
        under both shipped architectures, an empty one and prop = co⁻¹, on
        every execution of ``full_corpus``. Under each architecture but the
        empty one, some failures have several events on the diagonal, so a
        witness other than the least would show."""
        several = Counter()
        for per_arch, count in corpus_walk[observation_against_the_closure].items():
            for arch, (agrees, many) in zip(OBSERVATION_ARCHS, per_arch):
                assert agrees, arch.name
                several[arch.name] += many * count
        assert min(several[a.name] for a in (SC_ARCH, SB_ARCH, CO_INVERSE_ARCH)) >= 40

    def test_observation_counts_zero_hb_steps(self):
        """hb* includes zero steps. A prop that check_against accepts ends
        at a write, never at the read fre starts from, so only a prop from
        writes back to reads, used here without that check, has a pair
        (x, x) in fre;prop itself: SB's stale reads, with empty hb."""

        class Unchecked(Architecture):
            def result_for(self, e):
                return self.derive(e)

        def back_to_reads(e):
            empty = Relation(len(e.events))
            return ArchitectureResult(empty, empty, inverse(derive(e).fre))

        e = sb_execution(0, 0)
        arch = Unchecked("back-to-reads", back_to_reads)
        holds, witness, _ = observation_by_closure(e, arch)
        assert (holds, witness) == (False, EventWitness(3))
        verdict = observation(e, arch)
        assert (verdict.holds, verdict.witness) == (holds, witness)

    def test_observation_triple_loop_oracle(self, random_corpus):
        for e, d in random_corpus[:500]:
            for arch in (SC_ARCH, SB_ARCH):
                result = arch.result_for(e)
                hb_star = reflexive_transitive_closure(happens_before(result, d))
                cyclic = any(
                    (x, y) in d.fre.pairs
                    and (y, z) in result.prop.pairs
                    and (z, x) in hb_star.pairs
                    for x, y in d.fre.pairs
                    for y2, z in result.prop.pairs
                    if y == y2
                )
                assert observation(e, arch, d).holds == (not cyclic)


class TestAxiomSet:
    def test_framework_check_order_and_labels(self):
        verdicts = AxiomSet.framework(SC_ARCH).verdicts(make_execution([]))
        assert all(v.holds for v in verdicts)
        assert [v.axiom.value for v in verdicts] == [
            "ScPerLocation1",
            "NoThinAir",
            "Observation",
            "Propagation",
        ]
        sets = (AxiomSet.sc(), AxiomSet.sc_per_location_only(), AxiomSet.framework(SB_ARCH))
        assert [s.name for s in sets] == ["sc", "scpl", "framework(sb-arch)"]

    def test_false_verdict_witnesses_revalidate(self, random_corpus):
        for e, d in random_corpus[:500]:
            verdict = sc_per_location_1(e, d)
            if not verdict.holds:
                assert validates_against(verdict.witness, e.pol.union(d.com))
            full = sc_full(e, d)
            if not full.holds:
                assert validates_against(full.witness, e.po.union(d.com))


def test_architecture_registry():
    assert set(ARCHITECTURES) == {"sc-arch", "sb-arch"}


class TestDeferredWork:
    def test_witness_found_on_first_read_only(self):
        calls = []

        def find():
            calls.append(1)
            return CycleWitness((0, 1))

        v = AxiomVerdict.deferred(Axiom.FULL_SC, False, find)
        assert not v.holds and calls == []
        assert v.witness == CycleWitness((0, 1))
        assert v.witness == CycleWitness((0, 1))
        assert calls == [1]
        assert v == AxiomVerdict(Axiom.FULL_SC, False, CycleWitness((0, 1)))

    def test_com_plus_computed_on_first_use(self):
        d = derive(sb_execution(0, 0))
        assert "com_plus" not in vars(d)
        assert d.com_plus == d.com.transitive_closure()
        assert "com_plus" in vars(d)
