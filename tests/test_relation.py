import random
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from axcat import CycleWitness, Relation

from relation_algebra import (
    difference,
    inverse,
    is_irreflexive,
    reflexive_transitive_closure,
    restrict,
    validates_against,
)


def closure_oracle(rel: Relation) -> frozenset:
    """Independent oracle: sum of boolean matrix powers M^1 .. M^n."""
    n = len(rel.rows)
    if n == 0:
        return frozenset()
    m = np.zeros((n, n), dtype=bool)
    for x, y in rel.pairs:
        m[x, y] = True
    acc = m.copy()
    power = m.copy()
    for _ in range(n - 1):
        power = (power.astype(int) @ m.astype(int)) > 0
        acc |= power
    return frozenset((i, j) for i in range(n) for j in range(n) if acc[i, j])


def all_relations(n: int):
    cells = list(product(range(n), repeat=2))
    for mask in range(1 << len(cells)):
        pairs = frozenset(cells[i] for i in range(len(cells)) if mask >> i & 1)
        yield Relation(n, pairs)


def least_shortest_cycle(rel: Relation):
    """Brute-force oracle for find_cycle: over every simple cycle written
    from its least node, the lexicographically least of the shortest."""
    ids = range(len(rel.rows))
    for length in range(1, len(ids) + 1):
        found = [
            (first, *rest)
            for first in ids
            for rest in permutations([v for v in ids if v > first], length - 1)
            if all(
                (a, b) in rel.pairs
                for a, b in zip((first, *rest), (*rest, first))
            )
        ]
        if found:
            return CycleWitness(min(found))
    return None


def random_relation(rng: random.Random, max_nodes: int = 8) -> Relation:
    n = rng.randint(0, max_nodes)
    pairs = set()
    if n:
        for _ in range(rng.randint(0, n * n)):
            pairs.add((rng.randrange(n), rng.randrange(n)))
    return Relation(n, frozenset(pairs))


relations = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: random_relation(random.Random(seed), max_nodes=6)
)


class TestBasicOps:
    def test_union_empty(self):
        empty = Relation(2)
        assert empty.union(empty).pairs == frozenset()

    def test_union_disjoint(self):
        a = Relation(3, {(0, 1)})
        b = Relation(3, {(1, 2)})
        assert a.union(b).pairs == {(0, 1), (1, 2)}

    def test_union_universe_mismatch(self):
        with pytest.raises(ValueError):
            Relation(1).union(Relation(2))
        with pytest.raises(ValueError):
            Relation(2).union(Relation(3))

    def test_compose_empty_left(self):
        empty = Relation(3)
        anything = Relation(3, {(0, 1), (1, 2)})
        assert empty.compose(anything).pairs == frozenset()

    def test_compose_chain(self):
        a = Relation(3, {(0, 1)})
        b = Relation(3, {(1, 2)})
        assert a.compose(b).pairs == {(0, 2)}

    def test_compose_universe_mismatch(self):
        with pytest.raises(ValueError):
            Relation(1).compose(Relation(2))

    def test_inverse(self):
        assert inverse(Relation(2)).pairs == frozenset()
        assert inverse(Relation(2, {(0, 1)})).pairs == {(1, 0)}

    def test_pair_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            Relation(1, {(0, 1)})
        with pytest.raises(ValueError):
            Relation(2, {(0, 2)})
        with pytest.raises(ValueError):
            Relation(2, {(-1, 0)})

    def test_rows_over_sorted_universe(self):
        r = Relation(3, {(0, 2), (2, 1)})
        assert r.rows == (0b100, 0b000, 0b010)
        assert r.pairs == {(0, 2), (2, 1)}
        assert (2, 1) in r and (1, 2) not in r and (7, 0) not in r and (0, -1) not in r
        assert (5, 0) not in Relation(2)

    def test_with_rows_keeps_universe(self):
        r = Relation(3)
        assert r.with_rows((0b010, 0, 0)) == Relation(3, {(0, 1)})

    def test_equality_and_hash(self):
        a = Relation(2, {(0, 1)})
        b = Relation(2, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Relation(3, {(0, 1)})
        assert a != Relation(2, {(1, 0)})

    def test_intersection_difference_subset(self):
        a = Relation(3, {(0, 1), (1, 2)})
        b = Relation(3, {(1, 2), (2, 0)})
        assert a.intersection(b).pairs == {(1, 2)}
        assert difference(a, b).pairs == {(0, 1)}
        assert a.intersection(b).issubset(a)
        assert not a.issubset(b)
        with pytest.raises(ValueError):
            a.issubset(Relation(2))

    def test_restrict(self):
        r = Relation(3, {(0, 1), (0, 2), (2, 0), (1, 1)})
        # domain {0, 1}, range {1, 2}, as bitmasks over the events
        assert restrict(r, 0b011, 0b110).pairs == {(0, 1), (0, 2), (1, 1)}


class TestClosure:
    def test_closure_empty(self):
        assert Relation(2).transitive_closure().pairs == frozenset()

    def test_closure_chain(self):
        r = Relation(3, {(0, 1), (1, 2)})
        assert r.transitive_closure().pairs == {(0, 1), (1, 2), (0, 2)}

    def test_closure_adds_no_spurious_reflexive_pairs(self):
        r = Relation(3, {(0, 1), (1, 2)})
        assert is_irreflexive(r.transitive_closure())

    def test_rtc_identity_on_empty(self):
        assert reflexive_transitive_closure(Relation(2)).pairs == {(0, 0), (1, 1)}

    def test_rtc_single_edge(self):
        r = Relation(2, {(0, 1)})
        assert reflexive_transitive_closure(r).pairs == {(0, 0), (1, 1), (0, 1)}

    def test_oracle_random(self):
        rng = random.Random(7)
        for _ in range(1000):
            rel = random_relation(rng)
            assert rel.transitive_closure().pairs == closure_oracle(rel)


class TestCycles:
    def test_empty_acyclic(self):
        assert Relation(0).is_acyclic()
        assert Relation(0).find_cycle() is None

    def test_two_cycle(self):
        r = Relation(2, {(0, 1), (1, 0)})
        assert not r.is_acyclic()
        assert r.find_cycle() == CycleWitness((0, 1))

    def test_self_loop(self):
        r = Relation(1, {(0, 0)})
        assert not is_irreflexive(r)
        assert r.find_cycle() == CycleWitness((0,))

    def test_irreflexive(self):
        assert is_irreflexive(Relation(2, {(0, 1)}))
        assert not is_irreflexive(Relation(1, {(0, 0)}))

    def test_find_cycle_oracle_exhaustive_small(self):
        for n in range(4):
            for rel in all_relations(n):
                assert rel.find_cycle() == least_shortest_cycle(rel), rel

    def test_find_cycle_oracle_random(self):
        rng = random.Random(1406)
        for _ in range(4000):
            n = rng.randint(1, 7)
            density = rng.choice((0.1, 0.2, 0.35, 0.6))
            pairs = [(x, y) for x in range(n) for y in range(n) if rng.random() < density]
            rel = Relation(n, pairs)
            assert rel.find_cycle() == least_shortest_cycle(rel), rel


@given(relations)
def test_closure_idempotent(r):
    once = r.transitive_closure()
    assert once.transitive_closure().pairs == once.pairs


@given(relations)
def test_rtc_is_closure_plus_identity(r):
    expected = r.transitive_closure().pairs | {(v, v) for v in range(len(r.rows))}
    assert reflexive_transitive_closure(r).pairs == expected


@given(relations)
def test_inverse_involution(r):
    assert inverse(inverse(r)) == r


@given(relations)
def test_acyclic_iff_no_cycle_found(r):
    cycle = r.find_cycle()
    assert r.is_acyclic() == (cycle is None)
    if cycle is not None:
        assert validates_against(cycle, r)
        assert cycle.nodes[0] == min(cycle.nodes)


@given(relations)
def test_acyclic_implies_closure_irreflexive(r):
    if r.is_acyclic():
        assert is_irreflexive(r.transitive_closure())


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compose_associative(seed):
    rng = random.Random(seed)
    a = random_relation(rng, max_nodes=5)
    n = len(a.rows)

    def more():
        pairs = set()
        for _ in range(rng.randint(0, n * n)):
            pairs.add((rng.randrange(n), rng.randrange(n)))
        return Relation(n, frozenset(pairs))

    if not n:
        return
    b, c = more(), more()
    assert a.compose(b).compose(c) == a.compose(b.compose(c))
