"""Tests of the benchmark itself: closed forms, oracle, corpus and tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout

import pytest

import freeze
import oracle
import reference
import run
import tracer
import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

import axcat.cli  # noqa: E402
from axcat import (  # noqa: E402
    ARCHITECTURES,
    AxiomSet,
    allowed_outcomes,
    enumerate_candidates,
    outcome_of,
    parse_litmus,
    print_litmus,
)

FIXED = ["W4R4", "W6R2", "TWO8"]


def fixed_sources() -> list[workloads.Source]:
    return workloads.fixed_suite_sources() + [
        workloads.load_source(workloads.CORPUS / f"{n}.litmus") for n in FIXED
    ]


def pool_programs() -> list[tuple[str, oracle.Program]]:
    return [(text, oracle.parse_program(text)) for text in workloads.load_pool().values()]


def test_closed_form_count_matches_enumeration_on_every_corpus_program():
    for text, prog in [(s.text, s.program) for s in fixed_sources()] + pool_programs():
        assert oracle.candidate_count(prog) == len(enumerate_candidates(parse_litmus(text))), prog.name


def test_worst8_sizes():
    counts = {
        n: oracle.candidate_count(oracle.parse_program((workloads.CORPUS / f"{n}.litmus").read_text()))
        for n in FIXED
    }
    assert counts == {"W4R4": 15000, "W6R2": 35280, "TWO8": 1200}


def test_oracle_agrees_with_goldens():
    assert run.check_oracle_against_goldens() == []


@pytest.mark.parametrize("axioms", ["sc", "scpl"])
def test_oracle_agrees_with_checker(axioms):
    axiom_set = AxiomSet.sc() if axioms == "sc" else AxiomSet.sc_per_location_only()
    sample = [(s.text, s.program) for s in workloads.fixed_suite_sources()] + pool_programs()[::10]
    for text, prog in sample:
        report = allowed_outcomes(parse_litmus(text), axiom_set)
        assert freeze.table(report) == oracle.outcome_table(prog, oracle.allowed(prog, axioms)), prog.name


def test_frozen_framework_answers_match_checker_on_fixed_programs():
    frozen = workloads.load_frozen()
    for source in workloads.fixed_suite_sources():
        prog = source.program
        for arch in workloads.FRAMEWORK_ARCHS:
            report = allowed_outcomes(parse_litmus(source.text), AxiomSet.framework(ARCHITECTURES[arch]))
            allowed = frozenset(k for k, ok in freeze.table(report) if ok)
            assert oracle.table_mask(prog, allowed) == frozen[prog.name][arch], (prog.name, arch)


def test_matching_and_scpl_counts_match_enumeration():
    for source in workloads.fixed_suite_sources() + [workloads.load_source(workloads.CORPUS / "TWO8.litmus")]:
        test, prog = parse_litmus(source.text), source.program
        cands = enumerate_candidates(test)
        matching = sum(1 for e in cands if prog.matches(_key(outcome_of(test, e))))
        assert oracle.matching_candidate_count(prog) == matching, prog.name
        report = allowed_outcomes(test, AxiomSet.sc_per_location_only())
        assert oracle.scpl_consistent_count(prog) == sum(c.passes for c in report.candidates)


def test_scpl_pass_share_of_w4r4():
    prog = oracle.parse_program((workloads.CORPUS / "W4R4.litmus").read_text())
    assert (oracle.scpl_consistent_count(prog), oracle.candidate_count(prog)) == (34, 15000)


def _key(outcome) -> oracle.OutcomeKey:
    return tuple(sorted((f"P{p}:{r}", v) for (p, r), v in outcome.registers)), tuple(
        sorted(outcome.final_memory)
    )


def test_pool_respects_generator_bounds():
    for text, prog in pool_programs():
        assert print_litmus(parse_litmus(text)) == text
        assert 2 <= len(prog.procs) <= 4 and all(prog.procs)
        assert 2 <= len(prog.addresses()) <= 3
        assert 4 <= prog.event_count() <= 8
        assert all(len(prog.write_values(a)) <= 2 for a in prog.addresses())


def test_suite_draw_is_seeded_and_stratified():
    pool = workloads.load_pool()
    a, b = workloads.draw_suite(7, pool), workloads.draw_suite(7, pool)
    assert a == b and len(set(a)) == workloads.SUITE_DRAW
    assert a != workloads.draw_suite(8, pool)
    sizes = lambda names: sum(oracle.candidate_count(oracle.parse_program(pool[n])) for n in names)
    totals = [sizes(workloads.draw_suite(s, pool)) for s in range(5)]
    assert max(totals) / min(totals) < 1.05


def test_workload_commands():
    w = workloads.build("worst8", 0)
    assert [(c.program, c.axioms) for c in w.commands] == [
        ("W4R4", "sc"),
        ("W4R4", "scpl"),
        ("W4R4", "sb-arch"),
        ("W4R4", "sc-arch"),
        ("W6R2", "sc"),
    ]
    suite = workloads.build("suite", 3)
    assert len(suite.programs) == 11 + workloads.SUITE_DRAW
    pairs = {(c.program, c.axioms) for c in suite.commands}
    assert len(suite.commands) == len(pairs) == 4 * len(suite.programs)
    assert suite.commands == workloads.build("suite", 3).commands
    order = [c.program for c in suite.commands]
    assert order != sorted(order, key=list(suite.programs).index)  # shuffled, not grouped
    dump = workloads.build("enumerate-dump", 3)
    assert [(c.kind, c.program) for c in dump.commands] == [
        ("enumerate", "TWO8"),
        ("explain", "TWO8"),
    ]


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = axcat.cli.main(argv)  # looked up per call, so a tracer's wrapper is used
    return code, out.getvalue()


def _sb() -> tuple[str, oracle.Program]:
    path = workloads.ROOT / "litmus" / "sb.litmus"
    return str(path), oracle.parse_program(path.read_text())


@pytest.mark.parametrize("axioms", list(workloads.AXIOM_ARGS))
def test_check_output_accepted_and_corruption_caught(axioms):
    path, prog = _sb()
    code, text = _cli(workloads.Command("check", "SB", axioms).argv(path, ""))
    assert run.check_check(prog, axioms, code, text) == ""
    payload = json.loads(text)
    payload["outcomes"][0]["allowed"] = not payload["outcomes"][0]["allowed"]
    assert run.check_check(prog, axioms, code, json.dumps(payload)) != ""


def test_enumerate_and_explain_outputs_accepted_and_corruption_caught():
    path, prog = _sb()
    code, text = _cli(["enumerate", path, "--json", "--dump-executions"])
    assert run.check_enumerate(prog, code, text) == ""
    payload = json.loads(text)
    payload["candidates"].pop()
    assert "candidates" in run.check_enumerate(prog, code, json.dumps(payload))
    code, text = _cli(["explain", path, "--outcome", prog.cond_text()])
    assert run.check_explain(prog, code, text) == ""
    assert run.check_explain(prog, code, text.replace("forbidden", "allowed")) != ""


def test_tracer_counts_calls_and_restores_originals():
    path, _ = _sb()
    original = axcat.execution.derive
    tr = tracer.Tracer(seed=1)
    tr.install()
    assert axcat.enumeration.derive is not original and axcat.axioms.derive is not original
    tr.recording = True
    try:
        tr.begin_command()
        code, _ = _cli(["check", path, "--axioms", "framework", "--arch", "sc-arch"])
    finally:
        tr.uninstall()
    assert code in (0, 1)
    assert axcat.execution.derive is original and axcat.enumeration.derive is original
    s = tr.summary()
    assert s.get("execution.derive").calls == 4 * 4  # 4 candidates, 4 calls each
    assert s.get("axioms.Architecture.result_for").calls == 3 * 4
    assert s.get("no.such.function").calls == 0
    assert s.per_command_calls[0]["cli.main"] == 1
    main_stats = s.get("cli.main")
    assert 0 < main_stats.self_s <= main_stats.incl_s
    replayed = tracer.replay(tr.samples)
    assert replayed.us_per_call["find_cycle"] > 0 and replayed.inputs["union"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    w = workloads.build("worst8", 0)
    one_pass = [[{"cmd": i, "s": 1.0, "unit_s": 0.004} for i in range(len(w.commands))]]
    e2e = run.end_to_end(w, {"passes": one_pass, "maxrss_kb": 1024}, 0.1, 0.002)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(v > 0 for v, _ in e2e.values())
    # times are scaled by the nominal over the measured reference unit
    assert e2e["wall_s"][0] == pytest.approx(len(w.commands) * 0.003 / 0.004)
    assert e2e["setup_s"][0] == pytest.approx(0.1 * 0.003 / 0.002)
    # a program whose layers are never called still reports every metric, as zero
    idle = {
        "passes": one_pass,
        "reference": [],
        "alloc_peak_bytes": 0,
        "spans": 0,
        "stats": {},
        "per_command_calls": [{} for _ in w.commands],
        "counters": {},
        "replay": {"us_per_call": {}, "inputs": {}, "mean_ids": 0.0},
    }
    layers = run.per_layer(w, idle, {"W4R4": 34, "W6R2": 434})
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert {u for _, u in layers.values()} <= {m["unit"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[n] == u for n, (_, u) in {**e2e, **layers}.items())


def test_reference_unit_is_fixed_work():
    assert reference.reference_unit() == reference.reference_unit()
    meter = reference.Meter()
    meter.sample()
    meter.sample()
    (s0, e0), (s1, e1) = meter.spans
    assert e0 <= s1 and meter.unit_s() == pytest.approx((e0 - s0 + e1 - s1) / 2)


def test_meter_samples_during_a_call_and_takes_it_off():
    meter = reference.Meter()
    with meter.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        t1 = time.perf_counter()
    assert len(meter.spans) >= 3
    assert meter.within(t0, t1) == pytest.approx(meter.unit_s() * len(meter.spans))
    assert meter.unit_near(t0, t1) == pytest.approx(meter.unit_s())
    assert meter.unit_near(t1 + 10, t1 + 11) == meter.unit_s()  # no unit near: the mean
    assert meter.within(t1, t1 + 1) == 0.0
