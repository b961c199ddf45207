"""The JSON writer: both schemas byte for byte as
``json.JSONEncoder(indent=2, sort_keys=True)`` plus a newline writes them,
``enumerate --json`` streamed under its closed-form candidate count, each
dumped entry equal to its candidate's reference form, and no partial output
or traceback on errors and closed pipes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from axcat import (
    AxiomSet,
    WriteInstr,
    candidate_count,
    candidate_results,
    parse_litmus,
    sc_full,
    sc_per_location_1,
)

from conftest import BENCH_CORPUS_DIR, SHIPPED_PROGRAMS, run_cli
from generators import execution_to_dict

SRC = Path(__file__).resolve().parent.parent / "src"

AXIOM_ARGS = (
    ["--axioms", "sc"],
    ["--axioms", "scpl"],
    ["--axioms", "framework", "--arch", "sc-arch"],
    ["--axioms", "framework", "--arch", "sb-arch"],
)

# Programs whose outcome objects are easy to get wrong.
EDGE_PROGRAMS = {
    # No registers: "registers": {}.
    "noreg": "test NOREG;\nP0: { x <- 1; }\nP1: { x <- 2; }\nexists (x=1);\n",
    # y is only read and z is only in init.
    "onlyread": (
        "test ONLYREAD;\ninit { y=0; z=7; }\nP0: { r0 <- y; x <- 1; }\n"
        "P1: { r1 <- x; }\nexists (P0:r0=0 /\\ z=7);\n"
    ),
    "negative": (
        "test NEG;\ninit { x=-1; }\nP0: { x <- -2; r0 <- x; }\nP1: { x <- -10; r1 <- x; }\n"
        "exists (P0:r0=-2 /\\ x=-10);\n"
    ),
    # As strings "P10:r0" < "P2:r10" < "P2:r2", the reverse of slot order.
    "p10": (
        "test P10;\nP0: { }\nP1: { }\nP2: { r2 <- y; r10 <- x; }\n"
        + "".join(f"P{i}: {{ }}\n" for i in range(3, 9))
        + "P9: { x <- 1; }\nP10: { r0 <- x; y <- -1; }\n"
        "exists (P10:r0=1 /\\ P2:r10=0);\n"
    ),
}

# Their exhaustive enumerations take seconds each; the full-corpora run in
# tests/full/ enumerates them.
ENUMERATE_SKIPPED = {"W4R4", "W6R2"}


def encoder_document(out: str) -> dict:
    """The document ``out`` holds, once ``out`` is checked to be exactly what
    the standard encoder writes for it (piece by piece: ``json.dumps`` would
    hold every piece of W6R2's 130 MB dump at once)."""
    doc = json.loads(out)
    written = io.StringIO()
    json.dump(doc, written, indent=2, sort_keys=True)
    written.write("\n")
    assert out == written.getvalue()
    return doc


@pytest.fixture(scope="module")
def programs(tmp_path_factory) -> list[Path]:
    """Every ``litmus/`` and ``bench/corpus/`` program, and the edge ones."""
    edge = tmp_path_factory.mktemp("edge")
    paths = list(SHIPPED_PROGRAMS)
    for name, text in EDGE_PROGRAMS.items():
        path = edge / f"{name}.litmus"
        path.write_text(text)
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def enumerated(programs) -> list[Path]:
    """Every program but ``ENUMERATE_SKIPPED``."""
    return [path for path in programs if path.stem not in ENUMERATE_SKIPPED]


def test_edge_programs_are_what_they_claim():
    p10 = parse_litmus(EDGE_PROGRAMS["p10"])
    assert len(p10.processes) == 11 and p10.event_count() == 5
    assert [slot for slot, _ in p10.register_slots] == [(2, "r10"), (2, "r2"), (10, "r0")]
    assert parse_litmus(EDGE_PROGRAMS["noreg"]).register_slots == ()
    onlyread = parse_litmus(EDGE_PROGRAMS["onlyread"])
    written = {i.addr for p in onlyread.processes for i in p if isinstance(i, WriteInstr)}
    assert onlyread.addresses() == ["x", "y", "z"] and written == {"x"}


def test_check_json_is_the_encoders(programs):
    for path in programs:
        for axioms in AXIOM_ARGS:
            code, out, err = run_cli("check", str(path), "--json", *axioms)
            assert code in (0, 1) and err == "", (path.name, axioms)
            doc = encoder_document(out)
            assert doc["result"] == ("allowed" if code else "forbidden")


def test_enumerate_json_is_the_encoders_and_streams_the_closed_form_count(enumerated):
    """``enumerate --json`` writes what the encoder writes: the closed-form
    candidate count, then that many entries in index order, none with an
    ``execution``."""
    for path in enumerated:
        code, out, err = run_cli("enumerate", str(path), "--json")
        assert code == 0 and err == "", path.name
        doc = encoder_document(out)
        candidates = doc["candidates"]
        count = candidate_count(parse_litmus(path.read_text()))
        assert doc["candidate_count"] == count == len(candidates), path.name
        assert [c["index"] for c in candidates] == list(range(count))
        assert all("execution" not in c for c in candidates), path.name


def test_dumped_entries_are_their_candidates(enumerated):
    """``enumerate --json --dump-executions`` writes what the encoder writes,
    under the closed-form candidate count, and entry ``i`` holds the ``i``-th
    candidate's ``execution_to_dict`` and its FullSC and ScPerLocation1
    verdicts, witnesses included."""
    both = AxiomSet("sc+scpl", (sc_full, sc_per_location_1))
    for path in enumerated:
        t = parse_litmus(path.read_text())
        code, out, err = run_cli("enumerate", str(path), "--json", "--dump-executions")
        assert code == 0 and err == "", path.name
        doc = encoder_document(out)
        candidates = doc["candidates"]
        assert doc["candidate_count"] == candidate_count(t) == len(candidates), path.name
        for entry, cand in zip(candidates, candidate_results(t, both), strict=True):
            assert entry["index"] == cand.index, path.name
            execution = json.loads(json.dumps(execution_to_dict(cand.execution)))
            assert entry["execution"] == execution, (path.name, cand.index)
            verdicts = [
                (v.axiom.value, v.holds, w and {"kind": w.kind, "nodes": list(w.nodes)})
                for v in cand.verdicts
                for w in [v.witness]
            ]
            got = [(v["axiom"], v["holds"], v["witness"]) for v in entry["verdicts"]]
            assert got == verdicts, (path.name, cand.index)


@pytest.mark.parametrize("extra", [[], ["--dump-executions"]])
def test_enumerate_json_writes_nothing_on_error(monkeypatch, extra):
    """The event cap is checked before the first byte of the document."""
    monkeypatch.setenv("AXCAT_MAX_EVENTS", "2")
    code, out, err = run_cli("enumerate", str(BENCH_CORPUS_DIR / "TWO8.litmus"), "--json", *extra)
    assert code == 2
    assert out == ""
    assert err == "error: program has 8 events, cap is 2\n"


def test_explain_writes_nothing_on_error(monkeypatch):
    """``explain`` streams its candidates, but checks the event cap before
    its first line, also for a binding that leaves no choice to build
    (no write gives ``5``; ``x`` cannot end with two values). Under the cap, such a
    binding is reported as produced by no candidate."""
    path = str(BENCH_CORPUS_DIR / "TWO8.litmus")
    for binding in ("x=1", "x=5", "x=1 /\\ x=2", "P0:r0=5 /\\ y=1"):
        monkeypatch.setenv("AXCAT_MAX_EVENTS", "2")
        code, out, err = run_cli("explain", path, "--outcome", binding)
        assert code == 2
        assert out == ""
        assert err == "error: program has 8 events, cap is 2\n"
        if binding == "x=1":
            continue
        monkeypatch.delenv("AXCAT_MAX_EVENTS")
        assert run_cli("explain", path, "--outcome", binding) == (
            0,
            f"test TWO8: outcome {binding}\nno candidate execution produces this outcome\n",
            "",
        )


@pytest.mark.parametrize(
    "command, read",
    [
        # Closed before the first write: check's few rows wait in stdout's
        # buffer, and flushing it fails.
        (["check", "{p10}", "--json"], 0),
        # Closed mid-stream: enumerate has written some entries, and a later
        # write fails.
        (["enumerate", str(BENCH_CORPUS_DIR / "TWO8.litmus"), "--json", "--dump-executions"], 4096),
    ],
)
def test_closed_stdout_exits_2_without_traceback(tmp_path, command, read):
    p10 = tmp_path / "p10.litmus"
    p10.write_text(EDGE_PROGRAMS["p10"])
    argv = [arg.format(p10=p10) for arg in command]
    # stdout block-buffered, as it is by default on a pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "axcat.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if read:
        assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == ""
