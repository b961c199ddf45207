"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from pathlib import Path

import pytest

from axcat import (
    AxiomSet,
    allowed_outcomes,
    collapse_cycle,
    com_plus_rewrite,
    find_forbidden_patterns,
    parse_litmus,
    sc_per_location_1,
    sc_per_location_2,
    totality_case,
)

from conftest import execution_check, litmus_path, run_cli, sb_outcome
from generators import matches
from relation_algebra import is_irreflexive, restrict
from test_relation import all_relations, closure_oracle, random_relation

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

LITMUS_FILES = (
    "sb.litmus",
    "coww.litmus",
    "corw_rf.litmus",
    "cowr_fr.litmus",
    "corw_corf.litmus",
    "corr_frrf.litmus",
)

PATTERN_OF = {
    "coww.litmus": "CoWW",
    "corw_rf.litmus": "CoRW-rf",
    "cowr_fr.litmus": "CoWR-fr",
    "corw_corf.litmus": "CoRW-corf",
    "corr_frrf.litmus": "CoRR-frrf",
}


def report(number: int, ok: bool, text: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def sb_test():
    return parse_litmus(litmus_path("sb.litmus").read_text())


def test_criterion_1_sb_under_full_sc(sb_test):
    start = time.perf_counter()
    allowed = allowed_outcomes(sb_test, AxiomSet.sc()).allowed()
    elapsed = time.perf_counter() - start
    expected = {sb_outcome(0, 1), sb_outcome(1, 0), sb_outcome(1, 1)}
    ok = allowed == expected and sb_outcome(0, 0) not in allowed and elapsed < 1.0
    report(1, ok, f"SB under SC allows exactly 3 outcomes, forbids (0,0) [{elapsed:.3f}s]")


def test_criterion_2_sb_under_sc_per_location(sb_test):
    start = time.perf_counter()
    allowed = allowed_outcomes(sb_test, AxiomSet.sc_per_location_only()).allowed()
    elapsed = time.perf_counter() - start
    expected = {sb_outcome(r0, r1) for r0 in (0, 1) for r1 in (0, 1)}
    ok = allowed == expected and elapsed < 1.0
    report(2, ok, f"SB under SC-Per-Location allows all 4 outcomes [{elapsed:.3f}s]")


def test_criterion_3_equivalence_theorem(full_corpus):
    start = time.perf_counter()
    mismatches = sum(
        1
        for e, d in full_corpus
        if sc_per_location_1(e, d).holds != sc_per_location_2(e).holds
    )
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(
        3,
        ok,
        f"SC-Per-Location definitions agree on {len(full_corpus)} executions "
        f"({mismatches} mismatches) [{elapsed:.1f}s]",
    )


def test_criterion_4_com_plus_rewrite(full_corpus):
    mismatches = sum(
        1 for e, d in full_corpus if com_plus_rewrite(e).pairs != d.com_plus.pairs
    )
    report(4, mismatches == 0, f"com+ rewrite equals closure ({mismatches} mismatches)")


@execution_check
def sc_arch_prop_is_co(e, d):
    # By the rewrite com+ = com ∪ co;rf ∪ fr;rf, and since rf ends at a read
    # and fr starts at one, co is the only part that relates two writes.
    return e.co.union(restrict(d.com_plus, e.layout.writes, e.layout.writes)) == e.co


def test_criterion_4_sc_arch_prop_is_co(corpus_walk):
    mismatches = corpus_walk[sc_arch_prop_is_co][False]
    report(4, mismatches == 0, f"co ∪ (com+ ∩ W×W) equals co ({mismatches} mismatches)")


def test_criterion_5_com_plus_irreflexive(full_corpus):
    violations = sum(1 for _, d in full_corpus if not is_irreflexive(d.com_plus))
    report(5, violations == 0, f"com+ irreflexive ({violations} violations)")


def test_criterion_6_totality(full_corpus):
    failures = 0
    pairs = 0
    for e, _ in full_corpus:
        for a in e.events:
            for b in e.events:
                if a.addr != b.addr:
                    continue
                pairs += 1
                try:
                    totality_case(e, a.id, b.id)
                except RuntimeError:
                    failures += 1
    report(6, failures == 0, f"totality classified {pairs} pairs ({failures} failures)")


def test_criterion_7_five_pattern_characterization(full_corpus):
    mismatches = sum(
        1
        for e, _ in full_corpus
        if bool(find_forbidden_patterns(e)) == sc_per_location_2(e).holds
    )
    report(7, mismatches == 0, f"patterns empty iff SC-Per-Location-2 ({mismatches} mismatches)")


def test_criterion_8_collapse_soundness(full_corpus):
    failures = 0
    collapsed = 0
    for e, d in full_corpus:
        verdict = sc_per_location_1(e, d)
        if verdict.holds:
            continue
        collapsed += 1
        pair = collapse_cycle(e, verdict.witness)
        if (pair.x, pair.y) not in e.pol.pairs or (pair.y, pair.x) not in d.com_plus.pairs:
            failures += 1
    ok = failures == 0 and collapsed > 0
    report(8, ok, f"collapse witness revalidated on {collapsed} cyclic executions")


def test_criterion_9_closure_oracle():
    start = time.perf_counter()
    mismatches = 0
    for n in range(4):
        for rel in all_relations(n):
            if rel.transitive_closure().pairs != closure_oracle(rel):
                mismatches += 1
    rng = random.Random(99)
    for _ in range(1000):
        rel = random_relation(rng, max_nodes=8)
        if rel.transitive_closure().pairs != closure_oracle(rel):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(9, ok, f"closure matches matrix-power oracle ({mismatches} mismatches) [{elapsed:.1f}s]")


def test_criterion_10_coherence_patterns():
    bad = []
    for name, pattern in PATTERN_OF.items():
        test = parse_litmus(litmus_path(name).read_text())
        report_scpl = allowed_outcomes(test, AxiomSet.sc_per_location_only())
        matching = [
            c for c in report_scpl.candidates if matches(test.condition, c.outcome)
        ]
        forbidden = matching and not any(c.passes for c in matching)
        tags = {
            inst.pattern
            for c in matching
            for inst in find_forbidden_patterns(c.execution)
        }
        if not forbidden or pattern not in tags:
            bad.append(name)
    report(10, not bad, f"five coherence tests forbidden with correct tags {bad or ''}")


def test_criterion_11_cli_golden():
    unstable = []
    for name in LITMUS_FILES:
        path = str(litmus_path(name))
        condition = str(parse_litmus(litmus_path(name).read_text()).condition)
        for label, suffix, args in (
            ("check", ".json", ["check", path, "--axioms", "sc", "--json"]),
            ("enumerate", ".json", ["enumerate", path, "--json"]),
            ("enumerate", ".txt", ["enumerate", path]),
            ("explain", ".txt", ["explain", path, "--outcome", condition]),
        ):
            first, second = run_cli(*args), run_cli(*args)
            if first != second:
                unstable.append(f"{label}{suffix} {name}")
                continue
            golden = GOLDEN_DIR / f"{label}_{Path(name).stem}{suffix}"
            if golden.read_bytes().decode() != first[1]:
                unstable.append(f"{label}{suffix} {name} (golden drift)")
    report(11, not unstable, f"CLI output byte-stable {unstable or ''}")
