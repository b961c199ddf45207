"""The tier-1 differential tests on the full corpora of this directory's
``conftest.py``, and the checks of ``axcat`` as a command. Run with
``python -m pytest -q tests/full/full_corpora.py``; the name does not match
``test_*.py``, so the tier-1 run never collects it."""

import subprocess
import sys

from conftest import BENCH_CORPUS_DIR, LITMUS_DIR, run_cli

from axcat import parse_litmus

# pytest runs these in this order. The JSON tests go first: W6R2's 130 MB
# dump is gone before the exhaustive results take their 0.45 GB.
from test_json_output import (
    test_check_json_is_the_encoders,
    test_dumped_entries_are_their_candidates,
    test_enumerate_json_is_the_encoders_and_streams_the_closed_form_count,
)
from test_acceptance import test_criterion_4_sc_arch_prop_is_co
from test_axioms import TestArchitectureAxioms as Axioms
from test_enumeration import (
    test_check_table_equals_the_exhaustive_table,
    test_choices_are_indexed_in_product_order,
    test_cli_tables_equal_allowed_outcomes_summaries,
    test_consistent_choices_are_the_scpl_passing_product_choices,
    test_where_yields_the_matching_subsequence,
)
from test_execution import TestDerive as Derive


class TestDerive:
    test_one_pass_equals_the_definitions = Derive.test_one_pass_equals_the_definitions


class TestArchitectureAxioms:
    test_observation_equals_the_closure_definition = (
        Axioms.test_observation_equals_the_closure_definition
    )


def test_in_process_main_equals_the_command(monkeypatch, tmp_path):
    """``main`` run in this process exits with the code and writes the bytes
    that the command does, on 81 commands run twice here: every ``litmus/``
    program under each axiom set, text and JSON, ``enumerate`` text and
    JSON, and ``explain`` of its condition; then the 13 exit-2 paths and the
    2 ``-h`` ones. The command runs ``python -m axcat.cli`` in a child with
    this environment: the installed package, or ``src/`` where
    ``PYTHONPATH`` names it."""
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps -h to, in both
    monkeypatch.delenv("AXCAT_MAX_EVENTS", raising=False)
    axiom_args = (
        ["sc"],
        ["scpl"],
        ["framework", "--arch", "sc-arch"],
        ["framework", "--arch", "sb-arch"],
    )
    runs = []
    for program in sorted(LITMUS_DIR.glob("*.litmus")):
        path, condition = str(program), str(parse_litmus(program.read_text()).condition)
        for axioms in axiom_args:
            runs += [["check", path, *json, "--axioms", *axioms] for json in ([], ["--json"])]
        runs += [["enumerate", path], ["enumerate", path, "--json"]]
        runs.append(["explain", path, "--outcome", condition])
    sb = str(LITMUS_DIR / "sb.litmus")
    bad, no_exists = tmp_path / "bad.litmus", tmp_path / "no_exists.litmus"
    bad.write_text("test A;\nP0: { x <- ; }\n")
    no_exists.write_text("test B;\nP0: { x <- 1; }\n")
    runs += [["-h"], ["check", "-h"]]
    runs += [  # each exits 2
        [], ["bogus", sb], ["check"], ["check", sb, "--axioms", "bogus"],
        ["check", sb, "--bogus"], ["explain", sb], ["check", str(tmp_path / "missing.litmus")],
        ["check", str(bad)], ["check", str(no_exists)], ["check", sb, "--arch", "sb-arch"],
        ["check", sb, "--axioms", "framework", "--arch", "bogus"],
        ["enumerate", sb, "--dump-executions"], ["explain", sb, "--outcome", "x="],
    ]
    assert len(runs) == 81
    script = [
        subprocess.run([sys.executable, "-m", "axcat.cli", *argv], capture_output=True)
        for argv in runs
    ]
    want = [(p.returncode, p.stdout, p.stderr) for p in script]
    assert [code for code, _, _ in want[-15:]] == [0] * 2 + [2] * 13
    differ = []
    for round in (1, 2):
        for argv, command in zip(runs, want):
            code, out, err = run_cli(*argv)
            if (code, out.encode(), err.encode()) != command:
                differ.append((round, " ".join(argv)))
    assert differ == []


# Linux counts in a child's peak RSS the memory of the process that spawned
# it, up to its exec, and this process holds the corpora. So a small Python
# process spawns each command, with stdout to /dev/null, and prints its exit
# code and peak.
PEAK_OF = """
import os, sys
argv = [sys.executable, "-m", "axcat.cli", *sys.argv[1:]]
null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ, file_actions=null), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)
"""


def test_check_enumerate_and_explain_hold_one_candidate_at_a_time():
    """Each command's peak RSS stays under its bound, in MB, on 8-event
    programs. Kept in a list, W6R2's 35,280 candidates take ``enumerate``
    to about 115 MB."""
    w6r2, two8 = str(BENCH_CORPUS_DIR / "W6R2.litmus"), str(BENCH_CORPUS_DIR / "TWO8.litmus")
    over = []
    for bound, codes, *argv in [
        (40, (0, 1), "check", w6r2),
        (40, (0,), "enumerate", two8, "--json", "--dump-executions"),
        (40, (0,), "enumerate", w6r2, "--json", "--dump-executions"),
        (25, (0,), "explain", w6r2, "--outcome", "x=1"),
    ]:
        p = subprocess.run([sys.executable, "-c", PEAK_OF, *argv], capture_output=True, text=True)
        code, rss_mb = p.stdout.split()
        shown = " ".join(argv)
        print(f"axcat {shown}: exit {code}, peak RSS {float(rss_mb):.1f} MB (bound {bound} MB)")
        if int(code) not in codes or float(rss_mb) > bound:
            over.append((argv, code, rss_mb, p.stderr))
    assert over == []
