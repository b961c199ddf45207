from __future__ import annotations

from itertools import islice
from pathlib import Path

import pytest

from axcat import GenConfig, derive, exhaustive_executions, gen_executions

LITMUS_DIR = Path(__file__).resolve().parent.parent / "litmus"
BENCH_CORPUS_DIR = LITMUS_DIR.parent / "bench" / "corpus"

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


def litmus_path(name: str) -> Path:
    return LITMUS_DIR / name
