"""The full corpora, in place of the tier-1 samples of the same names, for
the tests ``full_corpora.py`` imports. Each checks its size, so a change
that drops programs or executions fails instead of shrinking the run. The
executions come only through ``corpus_walk``, not ``full_corpus``: a test
over them reads the tally of a check registered with ``execution_check``.
As a package, this file is ``full.conftest``: ``conftest`` stays the
tier-1 one."""

import pytest

from axcat import candidate_results, derive, parse_litmus
from conftest import BENCH_CORPUS_DIR, walk_corpus
from generators import exhaustive_executions
from test_enumeration import ALL_CHECKS, suite_pool

EIGHT_EVENT = [BENCH_CORPUS_DIR / f"{name}.litmus" for name in ("W4R4", "W6R2", "TWO8")]


@pytest.fixture(scope="session")
def programs(tmp_path_factory):
    """Every suite-pool program, written out, then W4R4 and W6R2."""
    pool = tmp_path_factory.mktemp("pool")
    for name, text in suite_pool().items():
        (pool / f"{name}.litmus").write_text(text)
    paths = sorted(pool.iterdir()) + EIGHT_EVENT[:2]
    assert len(paths) == 1_002
    return paths


@pytest.fixture(scope="session")
def enumerated(programs):
    """Every program: W4R4 and W6R2 are enumerated too."""
    return programs


@pytest.fixture(scope="session")
def table_programs():
    """W4R4, W6R2 and TWO8."""
    return [parse_litmus(path.read_text()) for path in EIGHT_EVENT]


@pytest.fixture(scope="session")
def exhaustive_results(programs):
    """Each program's results under ALL_CHECKS, then TWO8's: 98,315
    candidates, 0.45 GB."""
    tests = [parse_litmus(path.read_text()) for path in programs + EIGHT_EVENT[2:]]
    results = [(t, list(candidate_results(t, ALL_CHECKS))) for t in tests]
    assert sum(len(r) for _, r in results) == 98_315
    return results


def walk_executions():
    """Every execution with at most 5 program events, with derived relations."""
    count = 0
    for count, e in enumerate(exhaustive_executions(5), 1):
        yield e, derive(e)
    assert count == 588_016, count


@pytest.fixture(scope="session")
def corpus_walk():
    """One walk: 588,016 executions are too many to keep, so every
    registered check runs on each as it is made."""
    return walk_corpus(walk_executions())
