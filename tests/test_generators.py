import hashlib
import json
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import (
    GenConfig,
    execution_to_dict,
    exhaustive_executions,
    gen_execution,
    gen_executions,
)

from axcat import validate


class TestGenConfig:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            GenConfig(max_procs=0)


class TestGenExecution:
    def test_deterministic_for_fixed_seed(self):
        cfg = GenConfig(seed=42)
        assert gen_execution(cfg) == gen_execution(cfg)
        a = list(islice(gen_executions(cfg), 20))
        b = list(islice(gen_executions(cfg), 20))
        assert a == b

    def test_zero_event_floor_validates(self):
        cfg = GenConfig(seed=3, max_events=0)
        assert validate(gen_execution(cfg)) == []

    def test_samples_validate(self):
        cfg = GenConfig(seed=11, max_events=8)
        for e in islice(gen_executions(cfg), 500):
            assert validate(e) == []

    def test_many_addresses_validate(self):
        # init ids follow sorted address order, where a10 comes before a2
        cfg = GenConfig(seed=5, max_events=8, max_procs=4, max_addrs=12)
        for e in islice(gen_executions(cfg), 300):
            assert validate(e) == []

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_any_seed_validates(self, seed):
        e = gen_execution(GenConfig(seed=seed, max_events=6, max_procs=4, max_addrs=2))
        assert validate(e) == []


class TestExhaustive:
    def test_bound_guard(self):
        with pytest.raises(ValueError):
            list(exhaustive_executions(6))

    def test_bound_one(self):
        execs = list(exhaustive_executions(1))
        # the empty execution, one lone write, and one read of the init write
        assert len(execs) == 3
        assert all(validate(e) == [] for e in execs)

    def test_bound_two_includes_both_co_orders(self):
        seen = set()
        for e in exhaustive_executions(2):
            writes = [ev for ev in e.events if ev.is_write and ev.proc != -1]
            if len(writes) == 2 and len({w.addr for w in writes}) == 1:
                a, b = writes
                seen.add((a.id, b.id) in e.co.pairs)
        assert seen == {True, False}

    def test_every_yielded_execution_validates(self, exhaustive_corpus):
        for e, _ in exhaustive_corpus:
            assert validate(e) == []

    def test_stream_is_deterministic(self):
        a = list(exhaustive_executions(2))
        b = list(exhaustive_executions(2))
        assert a == b


def _fingerprint(corpus):
    h = hashlib.sha256()
    for e, _ in corpus:
        h.update(json.dumps(execution_to_dict(e)).encode())
    return len(corpus), h.hexdigest()


def test_corpora_are_pinned(exhaustive_corpus, random_corpus):
    """The session corpora, execution by execution in order: a change to a
    generator that drops, adds or reorders executions shows here, not as a
    silently smaller sweep in the tests that read them."""
    assert _fingerprint(exhaustive_corpus) == (
        13_780,
        "b2c07ee1932f74ead54fce1d4cd317180e7f449e849fd915a0f45f505e5a8bad",
    )
    assert _fingerprint(random_corpus) == (
        10_000,
        "506ec0d06cfb1d4d87c92d024dcd5312a7c89db73822403439cb08588a935a1e",
    )
