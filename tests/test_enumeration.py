from dataclasses import replace
from itertools import permutations, product

import pytest

from axcat import (
    INIT_PROC,
    Event,
    AxiomSet,
    LitmusTest,
    Outcome,
    ReadInstr,
    Relation,
    WriteInstr,
    allowed_outcomes,
    enumerate_candidates,
    make_execution,
    outcome_of,
    validate,
)
from axcat.enumeration import CapExceededError, build_candidate, iter_candidates
from axcat.execution import READ, WRITE


def sb_test():
    return LitmusTest(
        name="SB",
        processes=(
            (WriteInstr("x", 1), ReadInstr("y", "r0")),
            (WriteInstr("y", 1), ReadInstr("x", "r1")),
        ),
        initial=(("x", 0), ("y", 0)),
    )


def sb_outcome(r0, r1):
    return Outcome.make({(0, "r0"): r0, (1, "r1"): r1}, {"x": 1, "y": 1})


class TestEnumerateCandidates:
    def test_single_write_one_candidate(self):
        t = LitmusTest("t", ((WriteInstr("x", 1),),))
        cands = enumerate_candidates(t)
        assert len(cands) == 1
        assert validate(cands[0]) == []

    def test_sb_four_candidates(self):
        cands = enumerate_candidates(sb_test())
        assert len(cands) == 4
        assert all(validate(e) == [] for e in cands)

    def test_write_then_read_two_candidates(self):
        t = LitmusTest("t", ((WriteInstr("x", 1), ReadInstr("x", "r0")),))
        cands = enumerate_candidates(t)
        assert len(cands) == 2
        values = sorted(outcome_of(t, e).register(0, "r0") for e in cands)
        assert values == [0, 1]

    def test_outcome_needs_a_unique_co_maximal_write(self):
        t = sb_test()
        e = enumerate_candidates(t)[0]
        assert outcome_of(t, e).memory("x") == 1
        unordered = replace(e, co=Relation(e.universe))
        with pytest.raises(ValueError, match="no unique co-maximal write at x"):
            outcome_of(t, unordered)

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            enumerate_candidates(LitmusTest("t", ()))

    def test_cap(self):
        t = LitmusTest("t", (tuple(WriteInstr(f"a{i}", 1) for i in range(9)),))
        with pytest.raises(CapExceededError):
            enumerate_candidates(t)
        assert len(enumerate_candidates(t, max_events=9)) == 1

    def test_count_matches_choice_point_product(self):
        # 2 writes + 2 reads at one address: 2! co orders x 3^2 rf choices
        t = LitmusTest(
            "t",
            (
                (WriteInstr("x", 1), ReadInstr("x", "r0")),
                (WriteInstr("x", 2), ReadInstr("x", "r1")),
            ),
        )
        assert len(enumerate_candidates(t)) == 2 * 9

    def test_deterministic_order(self):
        a = enumerate_candidates(sb_test())
        b = enumerate_candidates(sb_test())
        assert a == b


class TestIterCandidates:
    def test_closed_form_count(self):
        # 2 writes + 1 read, one address: 2! co orders x 3 rf sources
        skeleton = [
            (0, WRITE, "x", 1),
            (0, WRITE, "x", 2),
            (0, READ, "x", None),
        ]
        assert sum(1 for _ in iter_candidates(skeleton, {"x": 0})) == 6

    @pytest.mark.parametrize(
        "skeleton, initial",
        [
            (
                [
                    (0, WRITE, "x", 1),
                    (0, READ, "y", None),
                    (1, WRITE, "y", 2),
                    (1, READ, "x", None),
                ],
                {"x": 0, "y": 0},
            ),
            (
                [
                    (0, WRITE, "x", 1),
                    (0, READ, "x", None),
                    (1, WRITE, "x", 2),
                    (1, READ, "x", None),
                    (2, WRITE, "x", 3),
                ],
                {"x": 5},
            ),
            (
                [
                    (1, READ, "b", None),
                    (0, WRITE, "a", 1),
                    (1, WRITE, "b", 2),
                    (0, WRITE, "b", 3),
                    (0, READ, "a", None),
                ],
                {"a": 0, "b": 7},
            ),
        ],
    )
    def test_each_candidate_is_build_candidate_of_its_choice(self, skeleton, initial):
        # The choice points, derived here independently of the enumerator:
        # init writes take ids 0..A-1 in sorted address order.
        addrs = sorted(initial)
        base = len(addrs)
        writes_at = {a: [] for a in addrs}
        reads = []
        for i, (_, kind, addr, _) in enumerate(skeleton):
            if kind == WRITE:
                writes_at[addr].append(base + i)
            else:
                reads.append((base + i, addr))
        expected = []
        for co_pick in product(*(permutations(writes_at[a]) for a in addrs)):
            co_order = dict(zip(addrs, co_pick))
            for rf_pick in product(*([addrs.index(a), *writes_at[a]] for _, a in reads)):
                rf_choice = {r: w for (r, _), w in zip(reads, rf_pick)}
                expected.append(build_candidate(skeleton, initial, co_order, rf_choice))
        assert list(iter_candidates(skeleton, initial)) == expected
        assert all(validate(e) == [] for e in expected)

    def test_build_candidate_matches_hand_built_execution(self):
        skeleton = [(0, WRITE, "x", 1), (0, READ, "x", None), (1, READ, "x", None)]
        e = build_candidate(skeleton, {"x": 0}, {"x": [1]}, {2: 1, 3: 0})
        assert e == make_execution(
            [
                Event(0, INIT_PROC, WRITE, "x", 0),
                Event(1, 0, WRITE, "x", 1),
                Event(2, 0, READ, "x", 1),
                Event(3, 1, READ, "x", 0),
            ],
            po=[(1, 2)],
            co=[(0, 1)],
            rf=[(1, 2), (0, 3)],
        )


class TestAllowedOutcomes:
    def test_sb_under_sc(self):
        report = allowed_outcomes(sb_test(), AxiomSet.sc())
        assert report.allowed() == {
            sb_outcome(0, 1),
            sb_outcome(1, 0),
            sb_outcome(1, 1),
        }
        assert sb_outcome(0, 0) in report.outcomes()

    def test_sb_under_sc_per_location(self):
        report = allowed_outcomes(sb_test(), AxiomSet.sc_per_location_only())
        assert report.allowed() == {sb_outcome(r0, r1) for r0 in (0, 1) for r1 in (0, 1)}

    def test_single_write_allowed_everywhere(self):
        t = LitmusTest("t", ((WriteInstr("x", 7),),))
        for axiom_set in (AxiomSet.sc(), AxiomSet.sc_per_location_only()):
            report = allowed_outcomes(t, axiom_set)
            assert report.allowed() == {Outcome.make({}, {"x": 7})}

    def test_sc_monotone_under_weakening(self):
        tests = [
            sb_test(),
            LitmusTest(
                "t",
                (
                    (WriteInstr("x", 1), ReadInstr("x", "r0")),
                    (WriteInstr("x", 2),),
                ),
            ),
        ]
        for t in tests:
            sc = allowed_outcomes(t, AxiomSet.sc()).allowed()
            scpl = allowed_outcomes(t, AxiomSet.sc_per_location_only()).allowed()
            assert sc <= scpl

    def test_nonzero_initial_values(self):
        t = LitmusTest(
            "t",
            ((ReadInstr("x", "r0"),),),
            initial=(("x", 5),),
        )
        report = allowed_outcomes(t, AxiomSet.sc())
        assert report.allowed() == {Outcome.make({(0, "r0"): 5}, {"x": 5})}
