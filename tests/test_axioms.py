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
from axcat.axioms import happens_before

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
        Relation(e.universe), Relation(e.universe), Relation(e.universe)
    ),
)


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
        assert v1.witness.validates_against(e.pol.union(derive(e).com))
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

    def test_empty_iff_sc_per_location_2(self, random_corpus):
        for e, d in random_corpus[:2000]:
            empty = not find_forbidden_patterns(e)
            assert empty == sc_per_location_2(e).holds


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
                Relation(e.universe),
                Relation(e.universe),
                e.co.inverse(),
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
                e.po.inverse(), Relation(e.universe), Relation(e.universe)
            ),
        )
        with pytest.raises(ValueError):
            no_thin_air(sb_execution(0, 0), bad)

    def test_prop_writes_only_enforced(self):
        bad = Architecture(
            "bad",
            lambda e: ArchitectureResult(
                Relation(e.universe), Relation(e.universe), e.rf
            ),
        )
        with pytest.raises(ValueError):
            propagation(sb_execution(0, 0), bad)

    def test_observation_triple_loop_oracle(self, random_corpus):
        for e, d in random_corpus[:500]:
            for arch in (SC_ARCH, SB_ARCH):
                result = arch.result_for(e)
                hb_star = happens_before(result, d).reflexive_transitive_closure()
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
                assert verdict.witness.validates_against(e.pol.union(d.com))
            full = sc_full(e, d)
            if not full.holds:
                assert full.witness.validates_against(e.po.union(d.com))


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
