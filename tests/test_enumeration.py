import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from itertools import permutations, product
from math import factorial, prod

import pytest

from axcat import (
    INIT_PROC,
    SB_ARCH,
    SC_ARCH,
    Event,
    AxiomSet,
    Condition,
    LitmusTest,
    MemoryBinding,
    Outcome,
    ReadInstr,
    Relation,
    WriteInstr,
    allowed_outcomes,
    enumerate_candidates,
    make_execution,
    no_thin_air,
    outcome_of,
    outcome_table,
    parse_litmus,
    print_litmus,
    validate,
)
from axcat.cli import _outcome_dict, main
from axcat.enumeration import (
    DEFAULT_MAX_EVENTS,
    CapExceededError,
    ChoiceSpace,
    _skeleton_of,
    candidate_results,
    check_table,
    iter_candidates,
    outcome_space,
)
from axcat.execution import READ, WRITE

from conftest import BENCH_CORPUS_DIR, LITMUS_DIR


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
        values = sorted(dict(outcome_of(t, e).registers)[(0, "r0")] for e in cands)
        assert values == [0, 1]

    def test_outcome_needs_a_unique_co_maximal_write(self):
        t = sb_test()
        e = enumerate_candidates(t)[0]
        assert dict(outcome_of(t, e).final_memory)["x"] == 1
        unordered = replace(e, co=Relation(len(e.events)))
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
        space = ChoiceSpace(skeleton, initial)
        assert space.reads == tuple(r for r, _ in reads)
        expected = []
        for co_pick in product(*(permutations(writes_at[a]) for a in addrs)):
            co = space.coherence(dict(zip(addrs, co_pick)))
            for rf_pick in product(*([addrs.index(a), *writes_at[a]] for _, a in reads)):
                expected.append(space.candidate(co, rf_pick))
        assert list(iter_candidates(skeleton, initial)) == expected
        assert all(validate(e) == [] for e in expected)

    def test_build_candidate_matches_hand_built_execution(self):
        skeleton = [(0, WRITE, "x", 1), (0, READ, "x", None), (1, READ, "x", None)]
        space = ChoiceSpace(skeleton, {"x": 0})
        e = space.candidate(space.coherence({"x": [1]}), [1, 0])  # reads 2 and 3
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


def closed_form_count(t):
    """Pi_addr |W_a|! * Pi_read (|W_addr(r)| + 1), from the program text."""
    instrs = [i for p in t.processes for i in p]
    writes = Counter(i.addr for i in instrs if isinstance(i, WriteInstr))
    count = prod(factorial(k) for k in writes.values())
    return count * prod(writes[i.addr] + 1 for i in instrs if isinstance(i, ReadInstr))


def random_program(rng, n_addrs):
    """Up to 8 events on at most 3 of ``n_addrs`` initialised addresses. At
    most two writes per address caps a program at 1,458 candidates (two
    writes and six reads at one address)."""
    addrs = [f"a{i}" for i in range(n_addrs)]
    used = rng.sample(addrs, min(3, n_addrs))
    processes = [[] for _ in range(rng.randint(1, 4))]
    written = Counter()
    for k in range(rng.randint(1, 8)):
        addr = rng.choice(used)
        proc = rng.choice(processes)
        if written[addr] < 2 and rng.random() < 0.5:
            written[addr] += 1
            proc.append(WriteInstr(addr, k + 1))
        else:
            proc.append(ReadInstr(addr, f"r{k}"))
    initial = tuple((a, rng.randint(0, 3)) for a in addrs)
    return LitmusTest("random", tuple(tuple(p) for p in processes if p), initial)


def test_candidates_are_well_formed_by_construction():
    """The enumerator filters nothing: every co/rf choice is one candidate,
    and every candidate is well-formed. Programs with more than 10
    addresses have names whose sorted order is not numeric (a10 < a2)."""
    programs = [parse_litmus(path.read_text()) for path in sorted(LITMUS_DIR.glob("*.litmus"))]
    rng = random.Random(20261018)
    for k in range(150):
        n_addrs = rng.randint(11, 12) if k % 3 == 0 else rng.randint(1, 3)
        programs.append(random_program(rng, n_addrs))
    for t in programs:
        cands = enumerate_candidates(t)
        assert len(cands) == closed_form_count(t), t
        assert all(validate(e) == [] for e in cands), t


def reference_outcome(t, e):
    """The outcome read off ``e.rf`` and ``e.co.pairs`` alone: each register
    takes the value its read's rf source wrote (the last read into it wins),
    and each address its co-maximal write's value."""
    source = {r: w for w, r in e.rf.pairs}
    eid = len(e.events) - t.event_count()  # program events follow the init writes
    registers = {}
    for proc, instrs in enumerate(t.processes):
        for instr in instrs:
            if isinstance(instr, ReadInstr):
                registers[(proc, instr.register)] = e.events[source[eid]].value
            eid += 1
    overwritten = {w for w, _ in e.co.pairs}
    co_max = [ev for ev in e.events if ev.is_write and ev.id not in overwritten]
    memory = {ev.addr: ev.value for ev in co_max}
    assert len(memory) == len(co_max)
    return Outcome.make(registers, memory)


def test_outcomes_come_out_in_canonical_order():
    """``outcome_of`` builds its tuples in ``Outcome.make``'s sorted order
    without sorting; an order slip would split one final state into two
    table rows. Registers read out of sorted order (r9 before r10), a
    register read twice, and more than 10 addresses (a10 < a2) cover the
    string orders."""
    paths = sorted(LITMUS_DIR.glob("*.litmus")) + sorted(BENCH_CORPUS_DIR.glob("*.litmus"))
    programs = [parse_litmus(path.read_text()) for path in paths]
    programs.append(
        LitmusTest(
            "regs",
            (
                (ReadInstr("x", "r9"), WriteInstr("y", 1), ReadInstr("y", "r10")),
                (
                    WriteInstr("x", 2),
                    ReadInstr("y", "r1"),
                    ReadInstr("x", "r1"),
                    ReadInstr("y", "r0"),
                ),
            ),
        )
    )
    rng = random.Random(20261020)
    for k in range(60):
        programs.append(random_program(rng, rng.randint(11, 12) if k % 3 == 0 else 3))
    for t in programs:
        for e in iter_candidates(*_skeleton_of(t, DEFAULT_MAX_EVENTS)):
            o = outcome_of(t, e)
            assert o == Outcome.make(dict(o.registers), dict(o.final_memory)), t.name
            assert o == reference_outcome(t, e), t.name


def test_where_yields_the_matching_subsequence():
    """``candidate_results(..., where=c)`` yields exactly the results of the
    unfiltered pass whose outcome matches ``c``, with the same indices."""
    axiom_sets = (
        AxiomSet.sc(),
        AxiomSet.sc_per_location_only(),
        AxiomSet.framework(SC_ARCH),
        AxiomSet.framework(SB_ARCH),
    )
    for path in sorted(LITMUS_DIR.glob("*.litmus")):
        t = parse_litmus(path.read_text())
        for axiom_set in axiom_sets:
            every = list(candidate_results(t, axiom_set))
            kept = [r for r in every if t.condition.matches(r.outcome)]
            assert 0 < len(kept) < len(every), (t.name, axiom_set.name)
            assert list(candidate_results(t, axiom_set, where=t.condition)) == kept


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


def cli_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) in (0, 1)
    return json.loads(out.getvalue())


def test_cli_tables_equal_allowed_outcomes_summaries(tmp_path):
    """``enumerate`` and ``check`` print the outcome table that
    ``allowed_outcomes`` reports: same outcomes, same order, same verdicts,
    for each column of ``enumerate`` and under each axiom set of ``check``.
    One exhaustive pass runs every set's checks; set k owns a slice of
    them, and its ``outcome_table`` is its ``allowed_outcomes`` summary."""
    programs = [parse_litmus(path.read_text()) for path in sorted(LITMUS_DIR.glob("*.litmus"))]
    rng = random.Random(20261019)
    for _ in range(50):
        t = random_program(rng, rng.randint(1, 3))
        a = t.addresses()[0]
        programs.append(replace(t, condition=Condition((MemoryBinding(a, t.initial_value(a)),))))
    axiom_sets = {
        ("sc",): AxiomSet.sc(),
        ("scpl",): AxiomSet.sc_per_location_only(),
        ("framework", "--arch", "sc-arch"): AxiomSet.framework(SC_ARCH),
        ("framework", "--arch", "sb-arch"): AxiomSet.framework(SB_ARCH),
    }
    every = AxiomSet("every", tuple(c for s in axiom_sets.values() for c in s.checks))
    for k, t in enumerate(programs):
        path = tmp_path / f"p{k}.litmus"
        path.write_text(print_litmus(t))
        t = parse_litmus(path.read_text())
        results = list(candidate_results(t, every))
        summaries, first = {}, 0
        for args, axiom_set in axiom_sets.items():
            end = first + len(axiom_set.checks)
            table = outcome_table(
                (r.outcome, all(v.holds for v in r.verdicts[first:end])) for r in results
            )
            summaries[args] = [(_outcome_dict(o), ok) for o, ok in table]
            first = end
            rows = cli_json("check", str(path), "--json", "--axioms", *args)["outcomes"]
            assert [(r["outcome"], r["allowed"]) for r in rows] == summaries[args], (t, args)
        rows = cli_json("enumerate", str(path), "--json")["outcomes"]
        for column, args in (("allowed_sc", ("sc",)), ("allowed_scpl", ("scpl",))):
            assert [(r["outcome"], r[column]) for r in rows] == summaries[args], (t, column)


# --- check: SC-Per-Location-consistent candidates only ------------------------

AXIOM_SETS = (
    AxiomSet.sc(),
    AxiomSet.sc_per_location_only(),
    AxiomSet.framework(SC_ARCH),
    AxiomSet.framework(SB_ARCH),
)
# Implies no SC-Per-Location, so ``check_table`` must fold every candidate.
NO_THIN_AIR_ONLY = AxiomSet("nta(sb-arch)", (lambda e, d: no_thin_air(e, SB_ARCH, d),))


def suite_pool():
    return json.loads((BENCH_CORPUS_DIR / "suite_pool.json").read_text())["programs"]


def test_check_table_equals_the_exhaustive_table(monkeypatch):
    """``check_table`` gives the exhaustive ``outcome_table`` under the four
    shipped axiom sets, which examine only SC-Per-Location-consistent
    candidates, and under one that does not imply SC-Per-Location, which
    takes the exhaustive path. W4R4 and W6R2 are left to CI for time."""
    paths = sorted(LITMUS_DIR.glob("*.litmus")) + [
        p for p in sorted(BENCH_CORPUS_DIR.glob("*.litmus")) if p.stem not in ("W4R4", "W6R2")
    ]
    programs = [parse_litmus(p.read_text()) for p in paths]
    pool = suite_pool()
    programs += [parse_litmus(pool[name]) for name in sorted(pool)[::20]]
    rng = random.Random(20261021)
    programs += [random_program(rng, rng.randint(1, 3)) for _ in range(15)]
    pruned = 0
    original = ChoiceSpace.consistent_choices

    def spy(self):
        nonlocal pruned
        pruned += 1
        return original(self)

    monkeypatch.setattr(ChoiceSpace, "consistent_choices", spy)
    axiom_sets = (*AXIOM_SETS, NO_THIN_AIR_ONLY)
    # One exhaustive pass runs every set's checks; set k owns a slice of them.
    every = AxiomSet("every", tuple(check for s in axiom_sets for check in s.checks))
    for t in programs:
        results = list(candidate_results(t, every))
        first = 0
        for axiom_set in axiom_sets:
            end = first + len(axiom_set.checks)
            want = outcome_table(
                (r.outcome, all(v.holds for v in r.verdicts[first:end])) for r in results
            )
            pruned = 0
            assert check_table(t, axiom_set) == want, (t.name, axiom_set.name)
            assert pruned == (axiom_set is not NO_THIN_AIR_ONLY), (t.name, axiom_set.name)
            first = end


def test_check_builds_only_consistent_candidates(monkeypatch):
    """``check`` builds exactly the SC-Per-Location-consistent candidates:
    34 of 15,000 on W4R4, 34 of 1,200 on TWO8, 434 of 35,280 on W6R2. It
    checks only those whose outcome is not yet allowed: 22 on W4R4 under
    every shipped set, 31 on W6R2 under ``sc``."""
    built = checked = 0
    candidate, verdicts = ChoiceSpace.candidate, AxiomSet.verdicts

    def spy_candidate(self, co, sources):
        nonlocal built
        built += 1
        return candidate(self, co, sources)

    def spy_verdicts(self, e):
        nonlocal checked
        checked += 1
        return verdicts(self, e)

    monkeypatch.setattr(ChoiceSpace, "candidate", spy_candidate)
    monkeypatch.setattr(AxiomSet, "verdicts", spy_verdicts)
    shipped = (["sc"], ["scpl"], ["framework"], ["framework", "--arch", "sb-arch"])
    cases = [("W4R4", args, 34, 22) for args in shipped]
    cases += [("TWO8", ["framework", "--arch", "sb-arch"], 34, 20), ("W6R2", ["sc"], 434, 31)]
    for name, args, want_built, want_checked in cases:
        built = checked = 0
        path = BENCH_CORPUS_DIR / f"{name}.litmus"
        with redirect_stdout(io.StringIO()):
            assert main(["check", str(path), "--axioms", *args]) in (0, 1)
        assert (built, checked) == (want_built, want_checked), (name, args)
    two8 = parse_litmus((BENCH_CORPUS_DIR / "TWO8.litmus").read_text())
    report = allowed_outcomes(two8, AxiomSet.sc_per_location_only())
    assert sum(r.passes for r in report.candidates) == 34


def test_outcome_space_is_every_candidates_outcome():
    """The closed-form outcome set is the set of outcomes the candidates
    produce, with no outcome twice, on the shipped programs, the corpus and
    edge cases: an address read but never written, one only in ``init``, a
    register read twice (the last read wins), and two writes of one value."""
    paths = sorted(LITMUS_DIR.glob("*.litmus")) + sorted(BENCH_CORPUS_DIR.glob("*.litmus"))
    programs = [parse_litmus(p.read_text()) for p in paths]
    never_written = LitmusTest("unwritten", ((ReadInstr("z", "r0"),),), (("w", 5),))
    twice = LitmusTest(
        "twice",
        ((ReadInstr("x", "r0"), ReadInstr("y", "r0")), (WriteInstr("x", 1), WriteInstr("y", 2))),
    )
    same_value = LitmusTest(
        "same-value",
        ((WriteInstr("x", 1), ReadInstr("x", "r0")), (WriteInstr("x", 1),)),
        (("x", 1),),
    )
    for t in (*programs, never_written, twice, same_value):
        closed = list(outcome_space(t))
        assert len(set(closed)) == len(closed), t.name
        assert set(closed) == {outcome_of(t, e) for e in enumerate_candidates(t)}, t.name
    assert list(outcome_space(never_written)) == [Outcome.make({(0, "r0"): 0}, {"w": 5, "z": 0})]
    assert {dict(o.registers)[(0, "r0")] for o in outcome_space(twice)} == {0, 2}
    assert list(outcome_space(same_value)) == [Outcome.make({(0, "r0"): 1}, {"x": 1})]


def test_outcome_space_is_in_label_order():
    """``outcome_space`` yields its outcomes in ``label()`` order, the order
    every printed table uses, on the shipped programs, the corpus, the whole
    suite pool and edge cases: 1 and 10 (and -1 and -10) in a slot that is
    not last, where ``x=10; …`` sorts before ``x=1; …``, and in the last
    slot; an address with no writes; a program with no registers."""
    paths = sorted(LITMUS_DIR.glob("*.litmus")) + sorted(BENCH_CORPUS_DIR.glob("*.litmus"))
    programs = [parse_litmus(p.read_text()) for p in paths]
    programs += [parse_litmus(text) for text in suite_pool().values()]
    for one, ten in ((1, 10), (-1, -10)):
        p0 = (WriteInstr("x", one), WriteInstr("y", ten))
        p1 = (WriteInstr("x", ten), WriteInstr("y", one))
        reads = (ReadInstr("x", "r0"), ReadInstr("y", "r1"))
        programs.append(LitmusTest(f"tens{one}", (p0 + reads, p1)))
        programs.append(LitmusTest(f"no-registers{one}", (p0, p1)))
    programs.append(LitmusTest("unwritten", ((ReadInstr("z", "r0"),),), (("w", 5),)))
    for t in programs:
        closed = list(outcome_space(t))
        assert closed == sorted(closed, key=Outcome.label), t.name
