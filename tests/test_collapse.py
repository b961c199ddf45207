import pytest

from axcat import (
    CaseTag,
    CycleWitness,
    Event,
    READ,
    WRITE,
    collapse_cycle,
    derive,
    make_execution,
    rf_inv,
    sc_per_location_1,
    totality_case,
)

from test_execution import location_graph, sb_execution


def two_cycle_execution():
    """x ->pol p and p ->com x (a CoWW shape)."""
    events = [Event(0, 0, WRITE, "x", 1), Event(1, 0, WRITE, "x", 2)]
    return make_execution(events, po=[(0, 1)], co=[(1, 0)])


def three_cycle_execution():
    """x ->com+ p1 ->pol p2 ->com+ x: the inner-pair collapse case.

    p1 = a read of w2, p2 = a write po-after p1; co puts p2 before w2 so
    p2 ->com+ p1 via co;rf, and x = w2 reaches p1 via rf.
    """
    events = [
        Event(0, 1, WRITE, "x", 2),  # x: w2
        Event(1, 0, READ, "x", 2),  # p1, reads w2
        Event(2, 0, WRITE, "x", 1),  # p2, po-after p1
    ]
    return make_execution(events, po=[(1, 2)], co=[(2, 0)], rf=[(0, 1)])


class TestCollapseCycle:
    def test_two_cycle_direct(self):
        e = two_cycle_execution()
        pair = collapse_cycle(e, CycleWitness((0, 1)))
        assert (pair.x, pair.y) == (0, 1)

    def test_two_cycle_reversed_start(self):
        e = two_cycle_execution()
        pair = collapse_cycle(e, CycleWitness((1, 0)))
        assert (pair.x, pair.y) == (0, 1)

    def test_three_cycle_inner_pair(self):
        e = three_cycle_execution()
        d = derive(e)
        # 0 ->com+ 1 (rf), 1 ->pol 2 (po, same addr), 2 ->com+ 0 (co)
        assert (0, 1) in d.com_plus.pairs
        assert (1, 2) in e.pol.pairs
        assert (2, 0) in d.com_plus.pairs
        pair = collapse_cycle(e, CycleWitness((0, 1, 2)))
        assert (pair.x, pair.y) == (1, 2)

    def test_invalid_cycle_rejected(self):
        e = two_cycle_execution()
        with pytest.raises(ValueError):
            collapse_cycle(e, CycleWitness((0,)))

    def test_witness_revalidates_on_corpus(self, full_corpus):
        checked = 0
        for e, d in full_corpus:
            verdict = sc_per_location_1(e, d)
            if verdict.holds:
                continue
            pair = collapse_cycle(e, verdict.witness)
            assert (pair.x, pair.y) in e.pol.pairs
            assert (pair.y, pair.x) in d.com_plus.pairs
            checked += 1
        assert checked > 0

    def test_recursion_bounded_by_cycle_length(self):
        # a long cycle still terminates and yields a valid pair
        e = three_cycle_execution()
        pair = collapse_cycle(e, CycleWitness((0, 1, 2, 0, 1, 2)[:3]))
        assert (pair.x, pair.y) in e.pol.pairs


class TestTotalityCase:
    def test_equal_writes(self):
        # com+ is irreflexive, so the equal-writes case fires
        e = two_cycle_execution()
        assert totality_case(e, 0, 0) == CaseTag.EQUAL_WRITES

    def test_same_rf_source(self):
        e = location_graph()
        assert totality_case(e, 4, 5) == CaseTag.SAME_RF_SOURCE

    def test_com_forward_and_backward(self):
        e = location_graph()
        assert totality_case(e, 1, 2) == CaseTag.COM_FORWARD
        assert totality_case(e, 7, 1) == CaseTag.COM_BACKWARD

    def test_address_mismatch_rejected(self):
        e = sb_execution(0, 0)
        with pytest.raises(ValueError):
            totality_case(e, 2, 4)

    def test_every_same_address_pair_classifies(self, random_corpus):
        for e, _ in random_corpus[:1500]:
            events = sorted(e.events, key=lambda ev: ev.id)
            for a in events:
                for b in events:
                    if a.addr == b.addr:
                        tag = totality_case(e, a.id, b.id)
                        assert isinstance(tag, CaseTag)
