import dataclasses
from collections import Counter
from itertools import islice

import pytest
from conftest import execution_check
from generators import GenConfig, gen_executions
from reference_validate import validate as reference_validate
from relation_algebra import inverse

from axcat import (
    INIT_PROC,
    READ,
    SB_ARCH,
    SC_ARCH,
    WRITE,
    CycleWitness,
    Event,
    Relation,
    collapse_cycle,
    com_plus_rewrite,
    derive,
    find_forbidden_patterns,
    make_execution,
    no_thin_air,
    observation,
    propagation,
    rf_inv,
    sc_full,
    sc_per_location_1,
    sc_per_location_2,
    totality_case,
    validate,
)


def location_graph():
    """Three writes and four reads at one location: w1 < w2 < w3 in co,
    r11 and r12 read w1, r21 reads w2, r31 reads w3."""
    events = [
        Event(0, 0, WRITE, "m", 1),
        Event(1, 1, WRITE, "m", 2),
        Event(2, 2, WRITE, "m", 3),
        Event(3, 3, READ, "m", 1),
        Event(4, 4, READ, "m", 1),
        Event(5, 5, READ, "m", 2),
        Event(6, 6, READ, "m", 3),
    ]
    return make_execution(
        events,
        co=[(0, 1), (1, 2), (0, 2)],
        rf=[(0, 3), (0, 4), (1, 5), (2, 6)],
    )


def sb_execution(r0: int, r1: int):
    """The two-process store-buffer program with explicit init writes.

    r0 and r1 pick each read's source: 0 means the init write, 1 the other
    process's write.
    """
    events = [
        Event(0, INIT_PROC, WRITE, "x", 0),
        Event(1, INIT_PROC, WRITE, "y", 0),
        Event(2, 0, WRITE, "x", 1),
        Event(3, 0, READ, "y", r0),
        Event(4, 1, WRITE, "y", 1),
        Event(5, 1, READ, "x", r1),
    ]
    rf = [(1, 3) if r0 == 0 else (4, 3), (0, 5) if r1 == 0 else (2, 5)]
    return make_execution(events, po=[(2, 3), (4, 5)], co=[(0, 2), (1, 4)], rf=rf)


class TestValidate:
    def test_empty_execution(self):
        assert validate(make_execution([])) == []

    def test_sb_execution_well_formed(self):
        for r0 in (0, 1):
            for r1 in (0, 1):
                assert validate(sb_execution(r0, r1)) == []

    def test_location_graph_well_formed(self):
        assert validate(location_graph()) == []

    def test_duplicate_rf_source(self):
        events = [
            Event(0, 0, WRITE, "x", 0),
            Event(1, 1, WRITE, "x", 0),
            Event(2, 2, READ, "x", 0),
        ]
        e = make_execution(events, co=[(0, 1)], rf=[(0, 2), (1, 2)])
        assert "duplicate-rf-source" in {v.code for v in validate(e)}

    def test_read_without_source(self):
        e = make_execution([Event(0, 0, READ, "x", 0)])
        assert {v.code for v in validate(e)} == {"read-without-rf-source"}

    def test_co_not_total(self):
        events = [Event(0, 0, WRITE, "x", 1), Event(1, 1, WRITE, "x", 2)]
        e = make_execution(events)
        assert "co-not-total" in {v.code for v in validate(e)}

    def test_po_not_total(self):
        events = [Event(0, 0, WRITE, "x", 1), Event(1, 0, WRITE, "y", 2)]
        e = make_execution(events, co=[])
        assert "po-not-total" in {v.code for v in validate(e)}

    def test_po_cross_process(self):
        events = [Event(0, 0, WRITE, "x", 1), Event(1, 1, WRITE, "y", 2)]
        e = make_execution(events, po=[(0, 1)])
        assert "po-cross-process" in {v.code for v in validate(e)}

    def test_rf_value_mismatch(self):
        events = [Event(0, 0, WRITE, "x", 1), Event(1, 1, READ, "x", 2)]
        e = make_execution(events, rf=[(0, 1)])
        assert "rf-value-mismatch" in {v.code for v in validate(e)}

    def test_init_writes_exempt_from_po_totality(self):
        events = [Event(0, INIT_PROC, WRITE, "x", 0), Event(1, INIT_PROC, WRITE, "y", 0)]
        assert validate(make_execution(events)) == []

    def test_event_ids_are_positions(self):
        e = make_execution([Event(1, 0, WRITE, "x", 1), Event(2, 0, WRITE, "x", 2)])
        assert [(v.code, v.events) for v in validate(e)] == [
            ("event-id-not-position", (1,)),
            ("event-id-not-position", (2,)),
        ]

    def test_relation_sizes_are_the_event_count(self):
        events = [Event(0, INIT_PROC, WRITE, "x", 0), Event(1, INIT_PROC, WRITE, "y", 0)]
        e = make_execution(events)
        for label in ("po", "co", "rf"):
            for n in (1, 3):
                bad = dataclasses.replace(e, **{label: Relation(n)})
                assert [(v.code, v.message) for v in validate(bad)] == [
                    ("relation-size-mismatch", f"{label} has {n} rows for 2 events")
                ]


def _report(violations):
    return Counter((v.code, v.events, v.message) for v in violations)


class TestValidateAgainstReference:
    """The row-based validate reports exactly what the pair-based
    reference does, violation for violation."""

    def test_every_single_pair_toggle(self):
        cfg = GenConfig(seed=2014, max_events=4, max_procs=2, max_addrs=2)
        codes = Counter()
        for e in islice(gen_executions(cfg), 80):
            ids = range(len(e.events))
            for label in ("po", "co", "rf"):
                rel = getattr(e, label)
                for x in ids:
                    for y in ids:
                        toggled = Relation(len(ids), rel.pairs ^ {(x, y)})
                        bad = dataclasses.replace(e, **{label: toggled})
                        expected = _report(reference_validate(bad))
                        assert _report(validate(bad)) == expected, (label, x, y, bad)
                        codes.update(code for code, _, _ in expected)
        assert set(codes) >= {
            "po-reflexive",
            "po-not-transitive",
            "po-not-total",
            "po-cross-process",
            "co-reflexive",
            "co-not-transitive",
            "co-not-total",
            "co-non-write",
            "co-addr-mismatch",
            "rf-source-not-write",
            "rf-target-not-read",
            "rf-addr-mismatch",
            "rf-value-mismatch",
            "read-without-rf-source",
            "duplicate-rf-source",
        }

    def test_event_perturbations(self):
        cfg = GenConfig(seed=7, max_events=6, max_procs=3, max_addrs=2)
        for e in islice(gen_executions(cfg), 150):
            for k, ev in enumerate(e.events):
                flipped = READ if ev.is_write else WRITE
                for changed in (
                    dataclasses.replace(ev, kind=flipped),
                    dataclasses.replace(ev, value=ev.value + 1),
                    dataclasses.replace(ev, proc=ev.proc + 1),
                    dataclasses.replace(ev, addr=ev.addr + "'"),
                    dataclasses.replace(ev, id=e.events[0].id),
                    dataclasses.replace(ev, id=len(e.events)),
                ):
                    events = (*e.events[:k], changed, *e.events[k + 1 :])
                    bad = dataclasses.replace(e, events=events)
                    assert _report(validate(bad)) == _report(reference_validate(bad)), bad


class TestRfInv:
    def test_location_graph(self):
        e = location_graph()
        assert rf_inv(e, 3) == 0
        assert rf_inv(e, 5) == 1

    def test_read_of_initial_value(self):
        e = sb_execution(0, 0)
        assert rf_inv(e, 3) == 1  # init write of y

    def test_rejects_write(self):
        with pytest.raises(ValueError):
            rf_inv(location_graph(), 0)

    def test_property_over_random(self, random_corpus):
        for e, _ in random_corpus[:500]:
            for r in (ev for ev in e.events if ev.is_read):
                assert (rf_inv(e, r.id), r.id) in e.rf.pairs


@execution_check
def derived_relations_off_their_definitions(e, d):
    """The names of ``derive``'s relations that differ from their definitions."""
    cross = e.layout.cross_process
    fr = inverse(e.rf).compose(e.co)
    defined = {
        "fr": fr,
        "com": e.co.union(e.rf).union(fr),
        "rfe": e.rf.intersection(cross),
        "fre": fr.intersection(cross),
    }
    return tuple(name for name, r in defined.items() if getattr(d, name) != r)


class TestDerive:
    def test_fr_empty_without_reads(self):
        events = [Event(0, 0, WRITE, "x", 1), Event(1, 0, WRITE, "x", 2)]
        e = make_execution(events, po=[(0, 1)], co=[(0, 1)])
        assert derive(e).fr.pairs == frozenset()

    def test_location_graph_fr(self):
        d = derive(location_graph())
        assert d.fr.pairs == {(3, 1), (3, 2), (4, 1), (4, 2), (5, 2)}
        assert (3, 1) in d.fr.pairs and (3, 2) in d.fr.pairs

    def test_location_graph_com_is_union(self):
        e = location_graph()
        d = derive(e)
        assert d.com.pairs == e.co.pairs | e.rf.pairs | d.fr.pairs

    def test_sb_pol_empty(self):
        # each process touches two distinct addresses in po
        assert sb_execution(0, 0).pol.pairs == frozenset()

    def test_location_graph_pol_empty_po(self):
        assert location_graph().pol.pairs == frozenset()

    def test_pol_is_the_executions_own(self, random_corpus):
        # pol lives on the execution only; derived relations do not carry it.
        for e, d in random_corpus[:300]:
            ev = e.events
            assert not hasattr(d, "pol")
            assert e.pol.pairs == {(x, y) for x, y in e.po.pairs if ev[x].addr == ev[y].addr}

    def test_rejects_ill_formed(self):
        e = make_execution([Event(0, 0, READ, "x", 0)])
        with pytest.raises(ValueError):
            derive(e)

    def test_ill_formed_raises_on_every_call(self):
        # Every function that derives on its own must refuse, and refuse
        # again: a failure is never stored as valid. In the first execution
        # the read has two rf sources, the second numbers its events from 1,
        # and the third's co has a row too many.
        events = [
            Event(0, INIT_PROC, WRITE, "x", 0),
            Event(1, 0, WRITE, "x", 0),
            Event(2, 1, READ, "x", 0),
        ]
        renumbered = [dataclasses.replace(ev, id=ev.id + 1) for ev in events]
        well_formed = make_execution(events, co=[(0, 1)], rf=[(0, 2)])
        cases = [
            (make_execution(events, co=[(0, 1)], rf=[(0, 2), (1, 2)]), "duplicate-rf-source"),
            (make_execution(renumbered), "; ".join(["event-id-not-position"] * 3)),
            (dataclasses.replace(well_formed, co=Relation(4)), "relation-size-mismatch"),
        ]
        calls = [
            derive,
            com_plus_rewrite,
            sc_full,
            sc_per_location_1,
            sc_per_location_2,
            find_forbidden_patterns,
            lambda e: collapse_cycle(e, CycleWitness((1, 2))),
            lambda e: totality_case(e, 0, 1),
        ]
        for arch in (SC_ARCH, SB_ARCH):
            for check in (no_thin_air, observation, propagation):
                calls.append(lambda e, check=check, arch=arch: check(e, arch))
        for e, codes in cases:
            for call in calls:
                for _ in range(2):
                    with pytest.raises(ValueError, match=f"^execution is ill-formed: {codes}$"):
                        call(e)

    def test_one_pass_equals_the_definitions(self, corpus_walk):
        """``derive`` builds its relations in one pass over the rows; they
        equal the definitions fr = rf⁻¹;co, com = co ∪ rf ∪ fr, rfe = rf ∩
        cross_process and fre = fr ∩ cross_process on all of ``full_corpus``."""
        tally = corpus_walk[derived_relations_off_their_definitions]
        assert set(tally) == {()}, tally

    def test_rfe_fre_cross_process_only(self, random_corpus):
        for e, d in random_corpus[:300]:
            ev = e.events
            for x, y in d.rfe.pairs:
                assert ev[x].proc != ev[y].proc
            for x, y in d.fre.pairs:
                assert ev[x].proc != ev[y].proc
            assert d.rfe.pairs <= e.rf.pairs
            assert d.fre.pairs <= d.fr.pairs


class TestComPlusRewrite:
    def test_no_reads_equals_co(self):
        events = [Event(0, 0, WRITE, "x", 1), Event(1, 0, WRITE, "x", 2)]
        e = make_execution(events, po=[(0, 1)], co=[(0, 1)])
        assert com_plus_rewrite(e).pairs == e.co.pairs

    def test_location_graph_co_rf_pair(self):
        e = location_graph()
        assert (0, 5) in com_plus_rewrite(e).pairs  # w1 ->co w2 ->rf r21

    def test_type_discipline(self, random_corpus):
        for e, d in random_corpus[:300]:
            ev = e.events
            for x, y in d.fr.pairs:
                assert ev[x].is_read and ev[y].is_write
            for x, y in e.co.compose(e.rf).pairs:
                assert ev[x].is_write and ev[y].is_read
            for x, y in d.fr.compose(e.rf).pairs:
                assert ev[x].is_read and ev[y].is_read
