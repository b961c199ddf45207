import importlib.util
import json
import random
import re
import sys
import tracemalloc
from collections import Counter
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
    RegisterBinding,
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
    sc_per_location_1,
    validate,
)
from axcat.enumeration import (
    DEFAULT_MAX_EVENTS,
    CapExceededError,
    ChoiceSpace,
    _skeleton_of,
    candidate_count,
    candidate_results,
    check_table,
    outcome_space,
)
from axcat.execution import READ, WRITE

from conftest import (
    BENCH_CORPUS_DIR,
    LITMUS_DIR,
    SHIPPED_PROGRAMS,
    count_calls,
    run_cli,
    sb_outcome,
)
from generators import co_of, make_outcome, product_choices


def sb_test():
    return LitmusTest(
        name="SB",
        processes=(
            (WriteInstr("x", 1), ReadInstr("y", "r0")),
            (WriteInstr("y", 1), ReadInstr("x", "r1")),
        ),
        initial=(("x", 0), ("y", 0)),
    )


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


class TestChoiceSpace:
    def test_closed_form_count(self):
        # 2 writes + 1 read, one address: 2! co orders x 3 rf sources
        skeleton = [
            (0, WRITE, "x", 1),
            (0, WRITE, "x", 2),
            (0, READ, "x", None),
        ]
        assert sum(1 for _ in ChoiceSpace(skeleton, {"x": 0}).choices()) == 6

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
    def test_choices_are_the_product_of_co_orders_and_rf_sources(self, skeleton, initial):
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
        n = base + len(skeleton)
        for co_pick in product(*(permutations(writes_at[a]) for a in addrs)):
            co = co_of(n, ((i, *order) for i, order in enumerate(co_pick)))
            for rf_pick in product(*([addrs.index(a), *writes_at[a]] for _, a in reads)):
                expected.append(space.candidate(co, rf_pick))
        assert [space.candidate(*choice) for _, choice in space.choices()] == expected
        assert all(validate(e) == [] for e in expected)

    def test_candidate_is_the_hand_built_execution(self):
        skeleton = [(0, WRITE, "x", 1), (0, READ, "x", None), (1, READ, "x", None)]
        space = ChoiceSpace(skeleton, {"x": 0})
        e = space.candidate(Relation(4, [(0, 1)]), [1, 0])  # reads 2 and 3
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
    return make_outcome(registers, memory)


# Edge programs of the outcome walk: an address read but never written, one
# only in ``init``; a register read twice (the last read wins); two writes of
# one value.
NEVER_WRITTEN = LitmusTest("unwritten", ((ReadInstr("z", "r0"),),), (("w", 5),))
READ_TWICE = LitmusTest(
    "twice",
    ((ReadInstr("x", "r0"), ReadInstr("y", "r0")), (WriteInstr("x", 1), WriteInstr("y", 2))),
)
SAME_VALUE = LitmusTest(
    "same-value",
    ((WriteInstr("x", 1), ReadInstr("x", "r0")), (WriteInstr("x", 1),)),
    (("x", 1),),
)


@pytest.fixture(scope="module")
def outcome_walk():
    """One walk over each program's candidates: ``(t, pairs, closed)`` with
    ``pairs`` the set of ``(outcome_of, reference_outcome)`` over its
    candidates and ``closed`` the list ``outcome_space(t)`` yields. On the
    shipped programs, 60 random ones, the edge programs above, and registers
    read out of sorted order (r9 before r10) and read twice; the random ones
    with more than 10 addresses have a10 < a2."""
    programs = [parse_litmus(path.read_text()) for path in SHIPPED_PROGRAMS]
    regs = LitmusTest(
        "regs",
        (
            (ReadInstr("x", "r9"), WriteInstr("y", 1), ReadInstr("y", "r10")),
            (WriteInstr("x", 2), ReadInstr("y", "r1"), ReadInstr("x", "r1"), ReadInstr("y", "r0")),
        ),
    )
    programs += [regs, NEVER_WRITTEN, READ_TWICE, SAME_VALUE]
    rng = random.Random(20261020)
    for k in range(60):
        programs.append(random_program(rng, rng.randint(11, 12) if k % 3 == 0 else 3))
    walk = []
    for t in programs:
        space = ChoiceSpace(*_skeleton_of(t, DEFAULT_MAX_EVENTS))
        pairs = set()
        for _, choice in space.choices():
            e = space.candidate(*choice)
            pairs.add((outcome_of(t, e), reference_outcome(t, e)))
        walk.append((t, pairs, list(outcome_space(t))))
    return walk


def test_outcomes_come_out_in_canonical_order(outcome_walk):
    """Each candidate's ``outcome_of`` is its ``reference_outcome``, its
    tuples built in ``make_outcome``'s sorted order without a sort: an order
    slip would split one final state into two table rows."""
    for t, pairs, _ in outcome_walk:
        for o, reference in pairs:
            assert o == make_outcome(dict(o.registers), dict(o.final_memory)), t.name
            assert o == reference, t.name


def test_outcome_space_is_every_candidates_outcome(outcome_walk):
    """The closed-form outcome set is the set of outcomes the candidates
    produce, with no outcome twice."""
    for t, pairs, closed in outcome_walk:
        assert len(set(closed)) == len(closed), t.name
        assert set(closed) == {o for o, _ in pairs}, t.name
    assert list(outcome_space(NEVER_WRITTEN)) == [make_outcome({(0, "r0"): 0}, {"w": 5, "z": 0})]
    assert {dict(o.registers)[(0, "r0")] for o in outcome_space(READ_TWICE)} == {0, 2}
    assert list(outcome_space(SAME_VALUE)) == [make_outcome({(0, "r0"): 1}, {"x": 1})]


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
            assert report.allowed() == {make_outcome({}, {"x": 7})}

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
        assert report.allowed() == {make_outcome({(0, "r0"): 5}, {"x": 5})}


def outcome_dict(o):
    """An outcome as the JSON outputs write it."""
    return {
        "registers": {f"P{p}:{r}": v for (p, r), v in o.registers},
        "memory": dict(o.final_memory),
    }


# A row of text ``enumerate``: the outcome's label, then its sc and scpl verdicts.
ENUMERATE_ROW = re.compile(r"  (.+) -> sc: (allowed|forbidden), scpl: (allowed|forbidden)")


@pytest.fixture(scope="module")
def table_programs():
    """The shipped programs, and 50 random ones with a condition on one address."""
    programs = [parse_litmus(path.read_text()) for path in sorted(LITMUS_DIR.glob("*.litmus"))]
    rng = random.Random(20261019)
    for _ in range(50):
        t = random_program(rng, rng.randint(1, 3))
        a = t.addresses()[0]
        programs.append(replace(t, condition=Condition((MemoryBinding(a, t.initial_value(a)),))))
    return programs


def test_cli_tables_equal_allowed_outcomes_summaries(tmp_path, table_programs):
    """``enumerate`` and ``check`` print the outcome table that
    ``allowed_outcomes`` reports: same outcomes, same order, same verdicts,
    for each column of ``enumerate`` (text and JSON) and under each axiom set
    of ``check``. One exhaustive pass runs every set's checks; set k owns a
    slice of them, and its ``outcome_table`` is its ``allowed_outcomes``
    summary."""
    axiom_sets = {
        ("sc",): AxiomSet.sc(),
        ("scpl",): AxiomSet.sc_per_location_only(),
        ("framework", "--arch", "sc-arch"): AxiomSet.framework(SC_ARCH),
        ("framework", "--arch", "sb-arch"): AxiomSet.framework(SB_ARCH),
    }
    every = AxiomSet("every", tuple(c for s in axiom_sets.values() for c in s.checks))
    for k, t in enumerate(table_programs):
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
            summaries[args] = table
            first = end
            code, out, _ = run_cli("check", str(path), "--json", "--axioms", *args)
            assert code in (0, 1), (t, args)
            rows = json.loads(out)["outcomes"]
            expected = [(outcome_dict(o), ok) for o, ok in table]
            assert [(r["outcome"], r["allowed"]) for r in rows] == expected, (t, args)
        code, out, _ = run_cli("enumerate", str(path), "--json")
        assert code == 0, t
        rows = json.loads(out)["outcomes"]
        code, out, _ = run_cli("enumerate", str(path))
        assert code == 0, t
        text = [ENUMERATE_ROW.fullmatch(line).groups() for line in out.splitlines()[1:]]
        for k, (column, args) in enumerate((("allowed_sc", ("sc",)), ("allowed_scpl", ("scpl",)))):
            expected = [(outcome_dict(o), ok) for o, ok in summaries[args]]
            assert [(r["outcome"], r[column]) for r in rows] == expected, (t, column)
            expected = [(o.label(), ok) for o, ok in summaries[args]]
            assert [(r[0], r[1 + k] == "allowed") for r in text] == expected, (t, args)


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


# Two writes of one value, whose outcomes merge; and an address, z, that no
# process writes, so its init write is always its co-last write.
SHARED_VALUE = (
    "test SHARED;\ninit { x=0; y=0; }\nP0: { x <- 1; r0 <- y; x <- 2; }\n"
    "P1: { y <- 1; x <- 1; r1 <- x; }\nexists (P0:r0=0 /\\ P1:r1=1);\n"
)
UNWRITTEN = (
    "test UNWRITTEN;\ninit { x=0; z=5; }\nP0: { x <- 1; r0 <- z; }\n"
    "P1: { r1 <- x; r2 <- z; }\nexists (P1:r1=1 /\\ z=5);\n"
)
# One exhaustive pass runs every set's checks; set k owns a slice of them.
ALL_CHECKS = AxiomSet(
    "every", tuple(check for s in (*AXIOM_SETS, NO_THIN_AIR_ONLY) for check in s.checks)
)


@pytest.fixture(scope="session")
def exhaustive_results():
    """``(t, every candidate's result under ALL_CHECKS)`` for the shipped
    programs, the corpus but W4R4 and W6R2 (``tests/full/`` takes those and
    the whole pool), every 20th suite-pool program, the two edge programs
    above and 15 random ones (``random`` names them)."""
    paths = [p for p in SHIPPED_PROGRAMS if p.stem not in ("W4R4", "W6R2")]
    programs = [parse_litmus(p.read_text()) for p in paths]
    pool = suite_pool()
    programs += [parse_litmus(pool[name]) for name in sorted(pool)[::20]]
    programs += [parse_litmus(SHARED_VALUE), parse_litmus(UNWRITTEN)]
    rng = random.Random(20261021)
    programs += [random_program(rng, rng.randint(1, 3)) for _ in range(15)]
    return [(t, list(candidate_results(t, ALL_CHECKS))) for t in programs]


def test_check_table_equals_the_exhaustive_table(monkeypatch, exhaustive_results):
    """``check_table`` gives the exhaustive ``outcome_table`` under the four
    shipped axiom sets, which examine only SC-Per-Location-consistent
    candidates, and under one that does not imply SC-Per-Location, which
    takes the exhaustive path. Given several sets, it gives each set's
    table as one column, from one pass: the pruned one for the four
    shipped sets, the exhaustive one once a set does not imply
    SC-Per-Location."""
    pruned = count_calls(monkeypatch, ChoiceSpace, "consistent_choices")
    axiom_sets = (*AXIOM_SETS, NO_THIN_AIR_ONLY)
    for t, results in exhaustive_results:
        want, first = {}, 0
        for axiom_set in axiom_sets:
            end = first + len(axiom_set.checks)
            want[axiom_set.name] = outcome_table(
                (r.outcome, all(v.holds for v in r.verdicts[first:end])) for r in results
            )
            first = end
        # Each set alone, then the four shipped sets in one pass, then all five.
        for sets in (*((s,) for s in axiom_sets), AXIOM_SETS, axiom_sets):
            names = [s.name for s in sets]
            pruned.clear()
            rows = check_table(t, *sets)
            assert {len(row) for row in rows} == {1 + len(sets)}, (t.name, names)
            for k, s in enumerate(sets, 1):
                column = tuple((row[0], row[k]) for row in rows)
                assert column == want[s.name], (t.name, names, s.name)
            assert len(pruned) == (NO_THIN_AIR_ONLY not in sets), (t.name, names)


def binding(slot, v):
    return RegisterBinding(*slot, v) if isinstance(slot, tuple) else MemoryBinding(slot, v)


def test_where_yields_the_matching_subsequence(exhaustive_results):
    """``candidate_results(..., where=c)`` builds only the candidates whose
    outcome matches ``c``, from the choice points ``c`` narrows, and yields
    exactly the results of the exhaustive pass that match ``c``. Under the
    exists condition, with the first and the last slot each bound to two
    values at once, and with a register or an address that the program does
    not have, they are the same ``(index, execution, outcome,
    verdicts)``, the verdicts being those of all four shipped axiom sets
    (and No Thin Air) together. Each register and address is also bound
    alone to each value of its ``outcome_space`` column and to one that no
    write gives. Those streams of one slot together rebuild every
    candidate, so for time they carry only ``sc``'s verdict, the cheapest,
    and are compared on ``(index, co, rf, outcome, verdict)``."""
    sc = AxiomSet.sc()

    def key(r):
        return r.index, r.execution.co.rows, r.execution.rf.rows, r.outcome, r.verdicts[:1]

    for t, results in exhaustive_results:
        if t.name == "random":
            continue
        slots = [*(slot for slot, _ in t.register_slots), *t.addresses()]
        ends = dict.fromkeys((slots[0], slots[-1]))
        whole = [t.condition] + [Condition((binding(s, 1), binding(s, 2))) for s in ends]
        # Slots no outcome has, as only a hand-built condition names them.
        whole += [Condition((binding((0, "r_unread"), 0),)), Condition((binding("unused", 0),))]
        for c in whole:
            kept = [r for r in results if c.matches(r.outcome)]
            assert list(candidate_results(t, ALL_CHECKS, where=c)) == kept, (t.name, str(c))
        # What a single-slot binding matches: the results with that value there.
        finals = [dict((*r.outcome.registers, *r.outcome.final_memory)) for r in results]
        column = {slot: set() for slot in slots}
        for o in outcome_space(t):
            for slot, v in (*o.registers, *o.final_memory):
                column[slot].add(v)
        for slot, values in column.items():
            kept = {}
            for r, final in zip(results, finals):
                kept.setdefault(final[slot], []).append(key(r))
            assert kept.keys() == values, (t.name, slot)
            for v in (*sorted(values), max(values) + 1):
                c = Condition((binding(slot, v),))
                got = list(map(key, candidate_results(t, sc, where=c)))
                assert got == kept.get(v, []), (t.name, str(c))


def test_choices_are_indexed_in_product_order(exhaustive_results):
    """The unfiltered stream, on which ``where`` narrows and indexes its
    matches, is ``enumerate`` over ``product_choices``, the product of
    every address's co orders with every read's rf sources derived from
    the program text, and its indices are ``range(candidate_count(t))``."""
    for t, _ in exhaustive_results:
        space = ChoiceSpace(*_skeleton_of(t, DEFAULT_MAX_EVENTS))
        got = [(i, co.rows, rf) for i, (co, rf) in space.choices()]
        want = [(i, co.rows, rf) for i, (co, rf) in enumerate(product_choices(t))]
        assert got == want, t.name
        assert [i for i, _, _ in got] == list(range(candidate_count(t))), t.name


def bench_oracle():
    """``bench/oracle.py``, which imports no axcat code, as a module."""
    spec = importlib.util.spec_from_file_location("oracle", BENCH_CORPUS_DIR.parent / "oracle.py")
    oracle = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def test_consistent_choices_are_the_scpl_passing_product_choices(exhaustive_results):
    """``consistent_choices`` yields, each once, the choices of
    ``product_choices`` whose candidate passes ``sc_per_location_1`` in the
    exhaustive pass, and as many as ``bench/oracle.py`` counts from the
    program text."""
    oracle = bench_oracle()
    scpl = ALL_CHECKS.checks.index(sc_per_location_1)
    for t, results in exhaustive_results:
        space = ChoiceSpace(*_skeleton_of(t, DEFAULT_MAX_EVENTS))
        got = [(co.rows, rf) for co, rf in space.consistent_choices()]
        passing = zip(product_choices(t), results, strict=True)
        want = {(co.rows, rf) for (co, rf), r in passing if r.verdicts[scpl].holds}
        assert len(set(got)) == len(got) and set(got) == want, t.name
        program = oracle.parse_program(print_litmus(t))
        assert len(got) == oracle.scpl_consistent_count(program), t.name


def test_check_builds_only_consistent_candidates(monkeypatch):
    """``check`` builds exactly the SC-Per-Location-consistent candidates:
    34 of 15,000 on W4R4, 34 of 1,200 on TWO8, 434 of 35,280 on W6R2. It
    checks only those whose outcome is not yet allowed: 22 on W4R4 under
    ``sc`` and both framework sets, 31 on W6R2 under ``sc``. Under ``scpl``
    it checks none, because every candidate it builds satisfies the one
    check."""
    built = count_calls(monkeypatch, ChoiceSpace, "candidate")
    checked = count_calls(monkeypatch, AxiomSet, "verdicts")
    shipped = (["sc"], ["scpl"], ["framework"], ["framework", "--arch", "sb-arch"])
    cases = [("W4R4", args, 34, 0 if args == ["scpl"] else 22) for args in shipped]
    cases += [("TWO8", ["framework", "--arch", "sb-arch"], 34, 20), ("W6R2", ["sc"], 434, 31)]
    for name, args, want_built, want_checked in cases:
        built.clear()
        checked.clear()
        path = BENCH_CORPUS_DIR / f"{name}.litmus"
        assert run_cli("check", str(path), "--axioms", *args)[0] in (0, 1)
        assert (len(built), len(checked)) == (want_built, want_checked), (name, args)
    two8 = parse_litmus((BENCH_CORPUS_DIR / "TWO8.litmus").read_text())
    report = allowed_outcomes(two8, AxiomSet.sc_per_location_only())
    assert sum(r.passes for r in report.candidates) == 34


def test_check_holds_co_chains_only_while_it_walks_them():
    """4 + 3 writes at one address have 5,040 co chains, 35 of them in
    program order. ``check_table`` keeps only those 35: its allocations
    peak under 0.1 MB, where keeping every chain takes about 0.58 MB. Bound
    to ``x=1``, the address keeps only the 720 chains that end in the write
    of 1: ``candidate_results`` walks their 720 candidates with allocations
    under 0.3 MB, where keeping every chain takes about 0.65 MB."""
    w4, w3 = (tuple(WriteInstr("x", v) for v in vs) for vs in ((1, 2, 3, 4), (5, 6, 7)))
    t, x_is_1 = LitmusTest("W4W3", (w4, w3)), Condition((MemoryBinding("x", 1),))
    for walk, bound in (
        (lambda: check_table(t, AxiomSet.sc()), 100_000),
        (lambda: sum(1 for _ in candidate_results(t, AxiomSet.sc(), where=x_is_1)), 300_000),
    ):
        tracemalloc.start()
        try:
            walk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (bound, peak)


def test_outcome_space_is_in_label_order():
    """``outcome_space`` yields its outcomes in ``label()`` order, the order
    every printed table uses, on the shipped programs, the corpus, the whole
    suite pool and edge cases: 1 and 10 (and -1 and -10) in a slot that is
    not last, where ``x=10; …`` sorts before ``x=1; …``, and in the last
    slot; an address with no writes; a program with no registers."""
    programs = [parse_litmus(p.read_text()) for p in SHIPPED_PROGRAMS]
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
