from __future__ import annotations

import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import pytest

from axcat import derive
from axcat.cli import main
from generators import GenConfig, exhaustive_executions, gen_executions, make_outcome

LITMUS_DIR = Path(__file__).resolve().parent.parent / "litmus"
BENCH_CORPUS_DIR = LITMUS_DIR.parent / "bench" / "corpus"
# Every program the repository ships: ``litmus/``, then the benchmark's.
SHIPPED_PROGRAMS = (
    *sorted(LITMUS_DIR.glob("*.litmus")),
    *sorted(BENCH_CORPUS_DIR.glob("*.litmus")),
)

RANDOM_CORPUS_SIZE = 10_000
EXHAUSTIVE_BOUND = 4


@pytest.fixture(scope="session")
def exhaustive_corpus():
    """Every execution with at most 4 program events, with derived relations."""
    return [(e, derive(e)) for e in exhaustive_executions(EXHAUSTIVE_BOUND)]


@pytest.fixture(scope="session")
def random_corpus():
    """10^4 random executions at 8 program events, with derived relations."""
    cfg = GenConfig(seed=20260823, max_events=8, max_procs=3, max_addrs=3)
    return [
        (e, derive(e))
        for e in islice(gen_executions(cfg), RANDOM_CORPUS_SIZE)
    ]


@pytest.fixture(scope="session")
def full_corpus(exhaustive_corpus, random_corpus):
    return exhaustive_corpus + random_corpus


# The checks ``corpus_walk`` runs, in the order their modules register them.
EXECUTION_CHECKS = []


def execution_check(check):
    """Register ``check(e, d)`` with ``corpus_walk``, which runs it on every
    execution of ``full_corpus`` in one walk with every other registered
    check. A test reads what it returned as ``corpus_walk[check]``."""
    EXECUTION_CHECKS.append(check)
    return check


def walk_corpus(corpus) -> dict:
    """Each registered check on every ``(e, d)`` of ``corpus``, in one pass:
    per check, a ``Counter`` of the values it returned."""
    tallies = {check: Counter() for check in EXECUTION_CHECKS}
    for e, d in corpus:
        for check, tally in tallies.items():
            tally[check(e, d)] += 1
    return tallies


@pytest.fixture(scope="session")
def corpus_walk(full_corpus):
    return walk_corpus(full_corpus)


def litmus_path(name: str) -> Path:
    return LITMUS_DIR / name


def sb_outcome(r0, r1):
    """An outcome of SB (``litmus/sb.litmus``): its two reads' values."""
    return make_outcome({(0, "r0"): r0, (1, "r1"): r1}, {"x": 1, "y": 1})


def run_cli(*argv: str) -> tuple[int, str, str]:
    """``axcat *argv`` in this process: the exit code, whether ``main``
    returns it or argparse exits with it, then stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so that each call appends ``None`` to the list
    returned: its length is the count, and it keeps no argument alive."""
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls
