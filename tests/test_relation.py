import random
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from axcat import CycleWitness, Relation


def closure_oracle(rel: Relation) -> frozenset:
    """Independent oracle: sum of boolean matrix powers M^1 .. M^n."""
    ids = sorted(rel.universe)
    n = len(ids)
    if n == 0:
        return frozenset()
    index = {v: i for i, v in enumerate(ids)}
    m = np.zeros((n, n), dtype=bool)
    for x, y in rel.pairs:
        m[index[x], index[y]] = True
    acc = m.copy()
    power = m.copy()
    for _ in range(n - 1):
        power = (power.astype(int) @ m.astype(int)) > 0
        acc |= power
    return frozenset(
        (ids[i], ids[j]) for i in range(n) for j in range(n) if acc[i, j]
    )


def all_relations(n: int, universe=None):
    ids = sorted(universe) if universe is not None else list(range(n))
    cells = list(product(ids, repeat=2))
    for mask in range(1 << len(cells)):
        pairs = frozenset(cells[i] for i in range(len(cells)) if mask >> i & 1)
        yield Relation(ids, pairs)


def least_shortest_cycle(rel: Relation):
    """Brute-force oracle for find_cycle: over every simple cycle written
    from its least node, the lexicographically least of the shortest."""
    ids = sorted(rel.universe)
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
    universe = frozenset(range(n))
    pairs = set()
    if n:
        for _ in range(rng.randint(0, n * n)):
            pairs.add((rng.randrange(n), rng.randrange(n)))
    return Relation(universe, frozenset(pairs))


relations = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: random_relation(random.Random(seed), max_nodes=6)
)


def same_universe_pair(seed: int):
    rng = random.Random(seed)
    a = random_relation(rng, max_nodes=6)
    pairs = set()
    n = len(a.universe)
    if n:
        for _ in range(rng.randint(0, n * n)):
            pairs.add((rng.randrange(n), rng.randrange(n)))
    return a, Relation(a.universe, frozenset(pairs))


class TestBasicOps:
    def test_union_empty(self):
        empty = Relation({1, 2})
        assert empty.union(empty).pairs == frozenset()

    def test_union_disjoint(self):
        u = {1, 2, 3}
        a = Relation(u, {(1, 2)})
        b = Relation(u, {(2, 3)})
        assert a.union(b).pairs == {(1, 2), (2, 3)}

    def test_union_universe_mismatch(self):
        with pytest.raises(ValueError):
            Relation({1}).union(Relation({1, 2}))

    def test_compose_empty_left(self):
        u = {1, 2, 3}
        empty = Relation(u)
        anything = Relation(u, {(1, 2), (2, 3)})
        assert empty.compose(anything).pairs == frozenset()

    def test_compose_chain(self):
        u = {1, 2, 3}
        a = Relation(u, {(1, 2)})
        b = Relation(u, {(2, 3)})
        assert a.compose(b).pairs == {(1, 3)}

    def test_compose_universe_mismatch(self):
        with pytest.raises(ValueError):
            Relation({1}).compose(Relation({2}))

    def test_inverse(self):
        assert Relation({1, 2}).inverse().pairs == frozenset()
        assert Relation({1, 2}, {(1, 2)}).inverse().pairs == {(2, 1)}

    def test_pair_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            Relation({1}, {(1, 2)})

    def test_rows_over_sorted_universe(self):
        r = Relation({5, 1, 2}, {(1, 5), (5, 2)})
        assert r.ids == (1, 2, 5)
        assert r.rows == (0b100, 0b000, 0b010)
        assert r.pairs == {(1, 5), (5, 2)}
        assert (5, 2) in r and (2, 5) not in r and (7, 1) not in r

    def test_with_rows_keeps_universe(self):
        r = Relation({1, 2, 5})
        assert r.with_rows((0b010, 0, 0)) == Relation({1, 2, 5}, {(1, 2)})

    def test_equality_and_hash(self):
        a = Relation({1, 2}, {(1, 2)})
        b = Relation([2, 1], [(1, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != Relation({1, 2, 3}, {(1, 2)})
        assert a != Relation({1, 2}, {(2, 1)})

    def test_intersection_difference_subset(self):
        u = {1, 2, 3}
        a = Relation(u, {(1, 2), (2, 3)})
        b = Relation(u, {(2, 3), (3, 1)})
        assert a.intersection(b).pairs == {(2, 3)}
        assert a.difference(b).pairs == {(1, 2)}
        assert a.intersection(b).issubset(a)
        assert not a.issubset(b)
        with pytest.raises(ValueError):
            a.issubset(Relation({1, 2}))

    def test_restrict(self):
        r = Relation({1, 2, 5}, {(1, 2), (1, 5), (5, 1), (2, 2)})
        # domain {1, 2}, range {2, 5}, as bitmasks over the ids (1, 2, 5)
        assert r.restrict(0b011, 0b110).pairs == {(1, 2), (1, 5), (2, 2)}


class TestClosure:
    def test_closure_empty(self):
        assert Relation({1, 2}).transitive_closure().pairs == frozenset()

    def test_closure_chain(self):
        r = Relation({1, 2, 3}, {(1, 2), (2, 3)})
        assert r.transitive_closure().pairs == {(1, 2), (2, 3), (1, 3)}

    def test_closure_adds_no_spurious_reflexive_pairs(self):
        r = Relation({1, 2, 3}, {(1, 2), (2, 3)})
        assert r.transitive_closure().is_irreflexive()

    def test_rtc_identity_on_empty(self):
        assert Relation({1, 2}).reflexive_transitive_closure().pairs == {
            (1, 1),
            (2, 2),
        }

    def test_rtc_single_edge(self):
        r = Relation({1, 2}, {(1, 2)})
        assert r.reflexive_transitive_closure().pairs == {(1, 1), (2, 2), (1, 2)}

    def test_oracle_exhaustive_small(self):
        for n in range(4):
            for rel in all_relations(n):
                assert rel.transitive_closure().pairs == closure_oracle(rel)

    def test_oracle_random(self):
        rng = random.Random(7)
        for _ in range(1000):
            rel = random_relation(rng)
            assert rel.transitive_closure().pairs == closure_oracle(rel)


class TestCycles:
    def test_empty_acyclic(self):
        assert Relation(set()).is_acyclic()
        assert Relation(set()).find_cycle() is None

    def test_two_cycle(self):
        r = Relation({1, 2}, {(1, 2), (2, 1)})
        assert not r.is_acyclic()
        assert r.find_cycle() == CycleWitness((1, 2))

    def test_self_loop(self):
        r = Relation({1}, {(1, 1)})
        assert not r.is_irreflexive()
        assert r.find_cycle() == CycleWitness((1,))

    def test_irreflexive(self):
        assert Relation({1, 2}, {(1, 2)}).is_irreflexive()
        assert not Relation({1}, {(1, 1)}).is_irreflexive()

    def test_witness_canonical_rotation(self):
        w = CycleWitness.canonical((5, 2, 9))
        assert w.nodes == (2, 9, 5)

    def test_find_cycle_oracle_exhaustive_small(self):
        universes = [set(), {0}, {0, 1}, {0, 1, 2}, {1, 2, 5}, {3, 7}]
        for u in universes:
            for rel in all_relations(len(u), u):
                assert rel.find_cycle() == least_shortest_cycle(rel), rel

    def test_find_cycle_oracle_random(self):
        rng = random.Random(1406)
        for _ in range(4000):
            size = rng.randint(1, 7)
            universe = rng.sample(range(12), size)
            density = rng.choice((0.1, 0.2, 0.35, 0.6))
            pairs = [(x, y) for x in universe for y in universe if rng.random() < density]
            rel = Relation(universe, pairs)
            assert rel.find_cycle() == least_shortest_cycle(rel), rel


@given(relations)
def test_closure_idempotent(r):
    once = r.transitive_closure()
    assert once.transitive_closure().pairs == once.pairs


@given(relations)
def test_rtc_is_closure_plus_identity(r):
    expected = r.transitive_closure().pairs | {(v, v) for v in r.universe}
    assert r.reflexive_transitive_closure().pairs == expected


@given(relations)
def test_inverse_involution(r):
    assert r.inverse().inverse() == r


@given(relations)
def test_acyclic_iff_no_cycle_found(r):
    cycle = r.find_cycle()
    assert r.is_acyclic() == (cycle is None)
    if cycle is not None:
        assert cycle.validates_against(r)
        assert cycle.nodes[0] == min(cycle.nodes)


@given(relations)
def test_acyclic_implies_closure_irreflexive(r):
    if r.is_acyclic():
        assert r.transitive_closure().is_irreflexive()


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compose_associative(seed):
    rng = random.Random(seed)
    a = random_relation(rng, max_nodes=5)
    n = len(a.universe)

    def more():
        pairs = set()
        for _ in range(rng.randint(0, n * n)):
            pairs.add((rng.randrange(n), rng.randrange(n)))
        return Relation(a.universe, frozenset(pairs))

    if not n:
        return
    b, c = more(), more()
    assert a.compose(b).compose(c) == a.compose(b.compose(c))
