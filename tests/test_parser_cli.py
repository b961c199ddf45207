import argparse
import json
import sys
import weakref

import pytest

from axcat import (
    INIT_PROC,
    READ,
    WRITE,
    AxiomSet,
    CycleWitness,
    Event,
    EventWitness,
    LitmusSyntaxError,
    MemoryBinding,
    PatternInstance,
    ReadInstr,
    RegisterBinding,
    Relation,
    WitnessPair,
    WriteInstr,
    allowed_outcomes,
    enumerate_candidates,
    make_execution,
    outcome_of,
    parse_litmus,
    parse_outcome_binding,
    print_litmus,
)
from axcat import cli, enumeration, execution

from conftest import BENCH_CORPUS_DIR, count_calls, litmus_path, run_cli

SB_TEXT = """\
test SB;
init { x=0; y=0; }
P0: { x <- 1; r0 <- y; }
P1: { y <- 1; r1 <- x; }
exists (P0:r0=0 /\\ P1:r1=0);
"""

DUPINIT_TEXT = """\
test dupinit;
init { x=0; x=5; }
P0: { r0 <- x; }
exists (P0:r0=5);
"""


INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
BIG = "9" * (INT_DIGIT_LIMIT + 1)


def witness_dict(witness):
    """A witness as ``enumerate --json`` writes it: its kind, then its fields."""
    return None if witness is None else {"kind": witness.kind, **vars(witness)}


class TestParser:
    def test_sb(self):
        t = parse_litmus(SB_TEXT)
        assert t.name == "SB"
        assert t.processes == (
            (WriteInstr("x", 1), ReadInstr("y", "r0")),
            (WriteInstr("y", 1), ReadInstr("x", "r1")),
        )
        assert t.initial == (("x", 0), ("y", 0))
        assert t.condition is not None
        assert t.condition.terms == (
            RegisterBinding(0, "r0", 0),
            RegisterBinding(1, "r1", 0),
        )

    def test_empty_process_block(self):
        t = parse_litmus("test t;\nP0: { }\n")
        assert t.processes == ((),)

    def test_memory_condition_term(self):
        t = parse_litmus("test t;\ninit { x=0; }\nP0: { x <- 1; }\nexists (x=1);\n")
        assert t.condition.terms == (MemoryBinding("x", 1),)

    def test_round_trip_identity(self):
        for text in [SB_TEXT]:
            t = parse_litmus(text)
            assert parse_litmus(print_litmus(t)) == t
        for name in (
            "sb.litmus",
            "coww.litmus",
            "corw_rf.litmus",
            "cowr_fr.litmus",
            "corw_corf.litmus",
            "corr_frrf.litmus",
        ):
            t = parse_litmus(litmus_path(name).read_text())
            assert parse_litmus(print_litmus(t)) == t

    def test_malformed_write_reports_position(self):
        with pytest.raises(LitmusSyntaxError) as exc:
            parse_litmus("test t;\nP0: { x <- ; }\n")
        assert exc.value.line == 2

    def test_duplicate_register(self):
        with pytest.raises(LitmusSyntaxError, match="duplicate register"):
            parse_litmus("test t;\nP0: { r0 <- x; r0 <- y; }\n")

    def test_unknown_process_in_condition(self):
        with pytest.raises(LitmusSyntaxError, match="unknown process"):
            parse_litmus("test t;\nP0: { r0 <- x; }\nexists (P1:r0=0);\n")

    def test_unknown_register_in_condition(self):
        with pytest.raises(LitmusSyntaxError, match="no register"):
            parse_litmus("test t;\nP0: { r0 <- x; }\nexists (P0:r9=0);\n")

    def test_unknown_address_in_condition(self):
        with pytest.raises(LitmusSyntaxError, match="unknown address"):
            parse_litmus("test t;\nP0: { x <- 1; }\nexists (z=1);\n")

    def test_duplicate_init_entry_reports_second_entry(self):
        with pytest.raises(LitmusSyntaxError, match="duplicate init entry for 'x'") as exc:
            parse_litmus(DUPINIT_TEXT)
        assert (exc.value.line, exc.value.column) == (2, 13)

    def test_process_indices_must_be_sequential(self):
        with pytest.raises(LitmusSyntaxError, match="expected process P0"):
            parse_litmus("test t;\nP1: { x <- 1; }\n")

    def test_comments_ignored(self):
        t = parse_litmus("# a comment\ntest t;\nP0: { x <- 1; } # trailing\n")
        assert t.name == "t"

    def test_outcome_binding(self):
        t = parse_litmus(SB_TEXT)
        cond = parse_outcome_binding("P0:r0=1 /\\ x=1", t)
        assert cond.terms == (RegisterBinding(0, "r0", 1), MemoryBinding("x", 1))


class TestCli:
    def test_check_sb_sc_forbidden(self):
        code, out, _ = run_cli("check", str(litmus_path("sb.litmus")), "--axioms", "sc")
        assert code == 0
        assert "result: forbidden" in out

    def test_check_sb_scpl_allowed(self):
        code, out, _ = run_cli(
            "check", str(litmus_path("sb.litmus")), "--axioms", "scpl"
        )
        assert code == 1
        assert "result: allowed" in out

    def test_check_framework(self):
        for arch in ("sc-arch", "sb-arch"):
            code, out, _ = run_cli(
                "check",
                str(litmus_path("sb.litmus")),
                "--axioms",
                "framework",
                "--arch",
                arch,
            )
            assert code in (0, 1)

    def test_check_json_schema(self):
        code, out, _ = run_cli(
            "check", str(litmus_path("sb.litmus")), "--axioms", "sc", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["result"] == "forbidden"
        assert len(payload["outcomes"]) == 4

    def test_unknown_arch_exit_2(self):
        code, _, err = run_cli(
            "check",
            str(litmus_path("sb.litmus")),
            "--axioms",
            "framework",
            "--arch",
            "nope",
        )
        assert code == 2
        assert "unknown architecture" in err

    @pytest.mark.parametrize("axioms", ["sc", "scpl"])
    @pytest.mark.parametrize("arch", ["sb-arch", "bogus"])
    def test_arch_without_framework_exit_2(self, axioms, arch):
        code, out, err = run_cli(
            "check", str(litmus_path("sb.litmus")), "--axioms", axioms, "--arch", arch
        )
        assert code == 2
        assert out == ""
        assert "--arch applies only to --axioms framework" in err

    def test_parse_failure_exit_2(self, tmp_path):
        bad = tmp_path / "bad.litmus"
        bad.write_text("test t;\nP0: { x <- ; }\n")
        code, _, err = run_cli("check", str(bad))
        assert code == 2
        assert "error:" in err

    def test_missing_condition_exit_2(self, tmp_path):
        f = tmp_path / "nocond.litmus"
        f.write_text("test t;\nP0: { x <- 1; }\n")
        code, _, err = run_cli("check", str(f))
        assert code == 2

    def test_cap_exceeded_exit_2(self, tmp_path, monkeypatch):
        f = tmp_path / "big.litmus"
        body = " ".join(f"a{i} <- 1;" for i in range(9))
        f.write_text(f"test t;\nP0: {{ {body} }}\nexists (a0=1);\n")
        code, _, err = run_cli("check", str(f))
        assert code == 2
        monkeypatch.setenv("AXCAT_MAX_EVENTS", "9")
        code, _, _ = run_cli("check", str(f))
        assert code == 1

    def test_negative_cap_exit_2(self, monkeypatch):
        monkeypatch.setenv("AXCAT_MAX_EVENTS", "-1")
        code, out, err = run_cli("check", str(litmus_path("sb.litmus")))
        assert code == 2
        assert out == ""
        assert "AXCAT_MAX_EVENTS must not be negative" in err

    def test_duplicate_init_entry_exit_2(self, tmp_path):
        f = tmp_path / "dupinit.litmus"
        f.write_text(DUPINIT_TEXT)
        code, out, err = run_cli("check", str(f))
        assert code == 2
        assert out == ""
        assert "2:13: duplicate init entry for 'x'" in err

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() converts any number of digits")
    @pytest.mark.parametrize(
        "text, where",
        [
            (f"test A;\nP0: {{ x <- {BIG}; }}\nexists (x=1);\n", "2:12"),
            (f"test A;\ninit {{ x={BIG}; }}\nP0: {{ r0 <- x; }}\nexists (x=0);\n", "2:10"),
            (f"test A;\nP0: {{ x <- 1; }}\nexists (x={BIG});\n", "3:11"),
            (f"test A;\nP{BIG}: {{ x <- 1; }}\n", "2:1"),
            (f"test A;\nP0: {{ r0 <- x; }}\nexists (P{BIG}:r0=0);\n", "3:9"),
            (None, "1:3"),
        ],
        ids=["write", "init", "condition", "process-label", "condition-process", "outcome"],
    )
    def test_too_many_digits_reports_position(self, tmp_path, text, where):
        if text is None:
            args = ("explain", str(litmus_path("coww.litmus")), "--outcome", f"x={BIG}")
        else:
            f = tmp_path / "big.litmus"
            f.write_text(text)
            args = ("check", str(f))
        code, out, err = run_cli(*args)
        assert code == 2
        assert out == ""
        assert f" {where}: integer has more than {INT_DIGIT_LIMIT} digits\n" in err

    def test_enumerate_single_instruction(self, tmp_path):
        f = tmp_path / "one.litmus"
        f.write_text("test one;\nP0: { x <- 1; }\n")
        code, out, _ = run_cli("enumerate", str(f), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["candidate_count"] == 1

    def test_enumerate_dump_executions(self):
        code, out, _ = run_cli(
            "enumerate", str(litmus_path("sb.litmus")), "--json", "--dump-executions"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["candidates"]) == 4
        assert all("execution" in c for c in payload["candidates"])

    def test_dump_executions_requires_json(self):
        code, out, err = run_cli("enumerate", str(litmus_path("sb.litmus")), "--dump-executions")
        assert code == 2
        assert out == ""
        assert "--dump-executions requires --json" in err

    def test_explain_sb(self):
        code, out, _ = run_cli(
            "explain",
            str(litmus_path("sb.litmus")),
            "--outcome",
            "P0:r0=0 /\\ P1:r1=0",
        )
        assert code == 0
        assert "cycle:" in out
        assert "forbidden under sequential consistency" in out

    def test_explain_scpl_witness_pair(self):
        code, out, _ = run_cli(
            "explain", str(litmus_path("coww.litmus")), "--outcome", "x=1"
        )
        assert code == 0
        assert "witness pair" in out
        assert "pattern CoWW" in out

    @pytest.mark.parametrize(
        "text, where", [("x=1); garbage", "1:4"), ("x=", "1:3"), ("x=1 x=1", "1:5")]
    )
    def test_explain_rejects_bad_outcome(self, text, where):
        code, out, err = run_cli("explain", str(litmus_path("coww.litmus")), "--outcome", text)
        assert code == 2
        assert out == ""
        assert f"bad --outcome binding: {where}:" in err

    def test_explain_allowed_outcome(self):
        code, out, _ = run_cli(
            "explain",
            str(litmus_path("sb.litmus")),
            "--outcome",
            "P0:r0=1 /\\ P1:r1=1",
        )
        assert code == 0
        assert "allowed under sequential consistency" in out

    def test_witness_json_shapes(self):
        shapes = [
            (CycleWitness((2, 3, 4, 5)), {"kind": "cycle", "nodes": [2, 3, 4, 5]}),
            (WitnessPair(0, 1), {"kind": "pair", "x": 0, "y": 1}),
            (EventWitness(3), {"kind": "event", "id": 3}),
            (
                PatternInstance("CoWW", 0, 1),
                {"kind": "pattern", "pattern": "CoWW", "first": 0, "second": 1},
            ),
        ]
        for witness, expected in shapes:
            assert json.loads(json.dumps(witness_dict(witness))) == expected
        assert witness_dict(None) is None


def test_cli_never_validates(monkeypatch):
    """Enumerated candidates are well-formed by construction, so no command
    re-validates them."""
    original = execution.validate

    def refuse(e):
        raise AssertionError("validate called")

    bindings = [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "axcat" and getattr(module, "validate", None) is original
    ]
    assert execution in bindings
    for module in bindings:
        monkeypatch.setattr(module, "validate", refuse)

    sb = str(litmus_path("sb.litmus"))
    for axioms in (
        ["sc"],
        ["scpl"],
        ["framework", "--arch", "sc-arch"],
        ["framework", "--arch", "sb-arch"],
    ):
        code, _, err = run_cli("check", sb, "--axioms", *axioms)
        assert code in (0, 1), err
    code, _, err = run_cli("enumerate", sb, "--json", "--dump-executions")
    assert code == 0, err
    code, _, err = run_cli("explain", sb, "--outcome", "P0:r0=0 /\\ P1:r1=0")
    assert code == 0, err


def test_commands_hold_at_most_two_candidates(monkeypatch, tmp_path):
    """``check``, ``enumerate`` and ``explain`` fold candidates one at a
    time: the one being built and the one just checked are alive, never all
    of them; ``explain`` also keeps the last matching one it printed.
    ``check``, under axiom sets that imply SC-Per-Location, builds only the
    22 candidates that satisfy it, and text ``enumerate`` builds them once
    for both models, from one ``check_table`` pass. ``explain`` builds only
    the 6 candidates whose outcome matches its binding, and ``enumerate
    --json`` builds the table's 22, then all 96 for its entries."""
    original = enumeration.ChoiceSpace.candidate
    alive: list[weakref.ref] = []
    most = 0

    def spy(self, co, sources):
        nonlocal most
        e = original(self, co, sources)
        alive.append(weakref.ref(e))
        most = max(most, sum(ref() is not None for ref in alive))
        return e

    monkeypatch.setattr(enumeration.ChoiceSpace, "candidate", spy)
    path = tmp_path / "w3r2.litmus"
    path.write_text(
        "test W3R2;\ninit { x=0; }\n"
        "P0: { x <- 1; r0 <- x; }\nP1: { x <- 2; r1 <- x; }\nP2: { x <- 3; }\n"
        "exists (P0:r0=2 /\\ P1:r1=1);\n"
    )
    t = parse_litmus(path.read_text())
    report = allowed_outcomes(t, AxiomSet.sc_per_location_only())
    consistent = sum(r.passes for r in report.candidates)
    matching = sum(t.condition.matches(r.outcome) for r in report.candidates)
    assert (consistent, matching) == (22, 6)
    every = 3 * 2 * 4 * 4
    for command, built in (
        (["check", "--axioms", "sc"], consistent),
        (["check", "--axioms", "scpl"], consistent),
        (["check", "--axioms", "framework", "--arch", "sc-arch"], consistent),
        (["check", "--axioms", "framework", "--arch", "sb-arch"], consistent),
        (["enumerate"], consistent),
        (["enumerate", "--json"], every + consistent),
        (["enumerate", "--json", "--dump-executions"], every + consistent),
        (["explain", "--outcome", str(t.condition)], matching),
    ):
        alive.clear()
        most = 0
        code, _, err = run_cli(*command, str(path))
        assert code in (0, 1), err
        assert len(alive) == built, command
        assert most <= (3 if command[0] == "explain" else 2), (command, most)


def test_explain_derives_only_matching_candidates(monkeypatch):
    """``explain`` narrows each choice point by ``--outcome`` before it
    builds a candidate: on TWO8 it builds and derives the 24 matching
    candidates, not all 1,200."""
    path = BENCH_CORPUS_DIR / "TWO8.litmus"
    t = parse_litmus(path.read_text())
    candidates = enumerate_candidates(t)
    matching = sum(t.condition.matches(outcome_of(t, e)) for e in candidates)
    derived = count_calls(monkeypatch, enumeration, "derive")
    built = count_calls(monkeypatch, enumeration.ChoiceSpace, "candidate")
    code, out, err = run_cli("explain", str(path), "--outcome", str(t.condition))
    assert code == 0, err
    assert len(built) == len(derived) == matching == out.count("  candidate ") == 24
    assert len(candidates) == 1200


def test_each_execution_is_derived_once(monkeypatch):
    """``derive`` builds one ``DerivedRelations`` per execution and returns it
    on every later call: under sc-arch the candidate loop and the three
    ``result_for`` calls share it, and so do ``explain``'s checks and its
    witness rendering. Observation closes no relation, and ``check`` runs
    no SC-Per-Location check on the candidates it builds, so SB under
    sc-arch computes no closure."""
    built = count_calls(monkeypatch, execution, "DerivedRelations")
    closures = count_calls(monkeypatch, Relation, "transitive_closure")
    sb = litmus_path("sb.litmus")
    candidates = enumerate_candidates(parse_litmus(sb.read_text()))
    assert len(candidates) == 4
    code, _, err = run_cli("check", str(sb), "--axioms", "framework", "--arch", "sc-arch")
    assert code == 1, err
    assert len(built) == len(candidates)
    assert closures == []

    e = candidates[0]
    assert execution.derive(e) is execution.derive(e)
    hand_built = make_execution(
        [Event(0, INIT_PROC, WRITE, "x", 0), Event(1, 0, READ, "x", 0)], rf=[(0, 1)]
    )
    assert execution.derive(hand_built) is execution.derive(hand_built)

    built.clear()
    path = BENCH_CORPUS_DIR / "TWO8.litmus"
    t = parse_litmus(path.read_text())
    code, out, err = run_cli("explain", str(path), "--outcome", str(t.condition))
    assert code == 0, err
    assert len(built) == out.count("  candidate ") == 24


def test_reused_parser_carries_no_state(monkeypatch, tmp_path):
    """``main`` builds its parser once per process: every later call reuses
    it, and prints and returns what a call on a fresh parser does. The
    sequence runs twice: each success, then every argparse and ``CliError``
    exit, with ``check --json`` before plain ``check`` so that a default
    left on the shared parser would show."""
    sb, coww = str(litmus_path("sb.litmus")), str(litmus_path("coww.litmus"))
    bad, no_exists = tmp_path / "bad.litmus", tmp_path / "no_exists.litmus"
    bad.write_text("test A;\nP0: { x <- ; }\n")
    no_exists.write_text("test B;\nP0: { x <- 1; }\n")
    commands = [
        ["check", sb, "--json", "--axioms", "framework", "--arch", "sb-arch"],
        *(["check", sb, "--axioms", *a] for a in (["sc"], ["scpl"], ["framework"])),
        ["check", sb],
        ["enumerate", sb, "--json", "--dump-executions"],
        ["enumerate", sb],
        ["explain", sb, "--outcome", "P0:r0=0 /\\ P1:r1=0"],
        ["explain", coww, "--outcome", "x=1"],
        [],
        ["-h"],
        ["check", "-h"],
        ["bogus", sb],
        ["check"],
        ["check", sb, "--axioms", "bogus"],
        ["check", sb, "--bogus"],
        ["explain", sb],
        ["check", str(tmp_path / "missing.litmus")],
        ["check", str(bad)],
        ["check", str(no_exists)],
        ["check", sb, "--arch", "sb-arch"],
        ["check", sb, "--axioms", "framework", "--arch", "bogus"],
        ["enumerate", sb, "--dump-executions"],
        ["explain", sb, "--outcome", "x="],
    ]
    sequence = [(None, argv) for argv in commands] + [
        ("bogus", ["check", sb]),
        ("-1", ["enumerate", sb, "--json"]),
        ("2", ["explain", sb, "--outcome", "x=1"]),
    ]

    def run(cap, argv):
        with monkeypatch.context() as m:
            if cap is not None:
                m.setenv("AXCAT_MAX_EVENTS", cap)
            return run_cli(*argv)

    monkeypatch.delenv("AXCAT_MAX_EVENTS", raising=False)
    fresh = []
    for cap, argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run(cap, argv))
    assert [code for code, _, _ in fresh] == [1, 0, 1, 1, 0, 0, 0, 0, 0, 2, 0, 0] + [2] * 15

    built = count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    cli.build_parser.cache_clear()
    for i, (cap, argv) in enumerate(sequence * 2):
        built.clear()
        assert run(cap, argv) == fresh[i % len(sequence)], argv
        assert bool(built) == (i == 0), argv
