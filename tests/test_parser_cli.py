import io
import json
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest

from axcat import (
    INIT_PROC,
    READ,
    WRITE,
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
    enumerate_candidates,
    make_execution,
    outcome_of,
    parse_litmus,
    parse_outcome_binding,
    print_litmus,
)
from axcat import enumeration, execution
from axcat.cli import _witness_dict, main

from conftest import BENCH_CORPUS_DIR, litmus_path

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


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


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
            assert json.loads(json.dumps(_witness_dict(witness))) == expected
        assert _witness_dict(None) is None


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


def test_check_holds_at_most_two_candidates(monkeypatch, tmp_path):
    """``check`` folds candidates into the outcome table one at a time: the
    one being built and the one just checked are alive, never all 96."""
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
    for axioms in (
        ["sc"],
        ["scpl"],
        ["framework", "--arch", "sc-arch"],
        ["framework", "--arch", "sb-arch"],
    ):
        alive.clear()
        most = 0
        code, _, err = run_cli("check", str(path), "--axioms", *axioms)
        assert code in (0, 1), err
        assert len(alive) == 3 * 2 * 4 * 4
        assert most <= 2, (axioms, most)


def test_explain_derives_only_matching_candidates(monkeypatch):
    """``explain`` matches each candidate's outcome against ``--outcome``
    first: on TWO8 it derives the 24 matching candidates, not all 1,200."""
    original = enumeration.derive
    calls = 0

    def counting(e):
        nonlocal calls
        calls += 1
        return original(e)

    monkeypatch.setattr(enumeration, "derive", counting)
    path = BENCH_CORPUS_DIR / "TWO8.litmus"
    t = parse_litmus(path.read_text())
    candidates = enumerate_candidates(t)
    matching = sum(t.condition.matches(outcome_of(t, e)) for e in candidates)
    code, out, err = run_cli("explain", str(path), "--outcome", str(t.condition))
    assert code == 0, err
    assert calls == matching == out.count("  candidate ")
    assert 0 < matching < len(candidates) == 1200


def test_each_execution_is_derived_once(monkeypatch):
    """``derive`` builds one ``DerivedRelations`` per execution and returns it
    on every later call: under sc-arch the candidate loop and the three
    ``result_for`` calls share it, and so do ``explain``'s checks and its
    witness rendering."""
    built = closures = 0
    original_derived = execution.DerivedRelations
    original_closure = Relation.transitive_closure

    def counting_derived(**fields):
        nonlocal built
        built += 1
        return original_derived(**fields)

    def counting_closure(self):
        nonlocal closures
        closures += 1
        return original_closure(self)

    monkeypatch.setattr(execution, "DerivedRelations", counting_derived)
    monkeypatch.setattr(Relation, "transitive_closure", counting_closure)
    sb = litmus_path("sb.litmus")
    candidates = enumerate_candidates(parse_litmus(sb.read_text()))
    assert len(candidates) == 4
    code, _, err = run_cli("check", str(sb), "--axioms", "framework", "--arch", "sc-arch")
    assert code == 1, err
    assert built == len(candidates)
    assert closures <= 2 * len(candidates)

    e = candidates[0]
    assert execution.derive(e) is execution.derive(e)
    hand_built = make_execution(
        [Event(0, INIT_PROC, WRITE, "x", 0), Event(1, 0, READ, "x", 0)], rf=[(0, 1)]
    )
    assert execution.derive(hand_built) is execution.derive(hand_built)

    built = 0
    path = BENCH_CORPUS_DIR / "TWO8.litmus"
    t = parse_litmus(path.read_text())
    code, out, err = run_cli("explain", str(path), "--outcome", str(t.condition))
    assert code == 0, err
    assert built == out.count("  candidate ") == 24
