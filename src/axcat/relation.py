"""Finite binary relations over integer event ids, stored as bit matrices.

A relation holds one row bitmask per element of its sorted universe: bit
``j`` of ``rows[i]`` is set iff ``(ids[i], ids[j])`` is in the relation.
Every operation is integer arithmetic on rows; ``pairs`` is a derived view
for JSON, tests and witness checks. Everything downstream (communication
relations, axioms, witnesses) is built out of these. Relations are
immutable and carry their universe explicitly so the identity relation is
well-defined.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import and_, or_
from typing import ClassVar, Iterable, Optional, Sequence

Pair = tuple[int, int]


@lru_cache(maxsize=1 << 12)
def bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@lru_cache(maxsize=128)
def _units(n: int) -> tuple[int, ...]:
    """The diagonal of an n-element universe: row i holds only bit i."""
    return tuple(1 << i for i in range(n))


@dataclass(frozen=True)
class CycleWitness:
    """A directed cycle, stored with the minimal id first so output is stable."""

    kind: ClassVar[str] = "cycle"
    nodes: tuple[int, ...]

    @classmethod
    def canonical(cls, nodes: Iterable[int]) -> "CycleWitness":
        nodes = tuple(nodes)
        if not nodes:
            raise ValueError("a cycle witness needs at least one node")
        k = nodes.index(min(nodes))
        return cls(nodes[k:] + nodes[:k])

    def validates_against(self, relation: "Relation") -> bool:
        n = self.nodes
        return all((n[i], n[(i + 1) % len(n)]) in relation for i in range(len(n)))


class Relation:
    """An immutable relation: ``universe``, its sorted ``ids``, and ``rows``."""

    __slots__ = ("universe", "ids", "rows", "_pairs")

    universe: frozenset[int]
    ids: tuple[int, ...]
    rows: tuple[int, ...]

    def __init__(self, universe: Iterable[int], pairs: Iterable[Pair] = ()) -> None:
        universe = frozenset(universe)
        ids = tuple(sorted(universe))
        index = {v: i for i, v in enumerate(ids)}
        rows = [0] * len(ids)
        for x, y in pairs:
            if x not in index or y not in index:
                raise ValueError(f"pair ({x}, {y}) mentions ids outside the universe")
            rows[index[x]] |= 1 << index[y]
        self.universe, self.ids, self.rows = universe, ids, tuple(rows)
        self._pairs = None

    def with_rows(self, rows: Sequence[int]) -> "Relation":
        """A relation over this one's universe with the given rows, which are
        trusted: one per id, with no bit at or above ``len(ids)``."""
        return self._with(tuple(rows))

    def _with(self, rows: tuple[int, ...]) -> "Relation":
        """``with_rows`` for rows an operation has just built."""
        r = Relation.__new__(Relation)
        r.universe, r.ids, r.rows, r._pairs = self.universe, self.ids, rows, None
        return r

    @property
    def pairs(self) -> frozenset[Pair]:
        """The pairs, as a frozenset built on first read."""
        if self._pairs is None:
            ids = self.ids
            self._pairs = frozenset(
                (ids[i], ids[j]) for i, row in enumerate(self.rows) for j in bits(row)
            )
        return self._pairs

    def __contains__(self, pair: Pair) -> bool:
        x, y = pair
        try:
            i, j = self.ids.index(x), self.ids.index(y)
        except ValueError:
            return False
        return bool(self.rows[i] >> j & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.rows == other.rows and self.universe == other.universe

    def __hash__(self) -> int:
        return hash((self.universe, self.rows))

    def __repr__(self) -> str:
        return f"Relation(universe={sorted(self.universe)}, pairs={sorted(self.pairs)})"

    def _require_same_universe(self, other: "Relation") -> None:
        if self.ids is not other.ids and self.ids != other.ids:
            raise ValueError("relations are over different universes")

    def union(self, other: "Relation") -> "Relation":
        self._require_same_universe(other)
        return self._with(tuple(map(or_, self.rows, other.rows)))

    def intersection(self, other: "Relation") -> "Relation":
        self._require_same_universe(other)
        return self._with(tuple(map(and_, self.rows, other.rows)))

    def difference(self, other: "Relation") -> "Relation":
        self._require_same_universe(other)
        return self._with(tuple([a & ~b for a, b in zip(self.rows, other.rows)]))

    def issubset(self, other: "Relation") -> bool:
        self._require_same_universe(other)
        return not any(a & ~b for a, b in zip(self.rows, other.rows))

    def restrict(self, domain: int, range_: int) -> "Relation":
        """The pairs whose source is in ``domain`` and target in ``range_``
        (both bitmasks over the universe)."""
        return self._with(
            tuple([row & range_ if domain >> i & 1 else 0 for i, row in enumerate(self.rows)])
        )

    def compose(self, other: "Relation") -> "Relation":
        """Sequencing: (x, y) iff some p has (x, p) here and (p, y) in other."""
        self._require_same_universe(other)
        succ = other.rows
        out = []
        for row in self.rows:
            acc = 0
            for j in bits(row):
                acc |= succ[j]
            out.append(acc)
        return self._with(tuple(out))

    def inverse(self) -> "Relation":
        out = [0] * len(self.rows)
        for i, row in enumerate(self.rows):
            bit = 1 << i
            for j in bits(row):
                out[j] |= bit
        return self._with(tuple(out))

    def transitive_closure(self) -> "Relation":
        """Smallest transitive superset; adds no reflexive pairs beyond cycles."""
        rows = list(self.rows)
        n = len(rows)
        for k in range(n):
            bit, rk = 1 << k, rows[k]
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= rk
        return self._with(tuple(rows))

    def reflexive_transitive_closure(self) -> "Relation":
        closed = self.transitive_closure().rows
        return self._with(tuple(map(or_, closed, _units(len(closed)))))

    def is_irreflexive(self) -> bool:
        return not any(map(and_, self.rows, _units(len(self.rows))))

    def _cyclic_core(self) -> int:
        """What is left after repeatedly removing nodes with no successor
        left: empty iff the relation is acyclic, and every cycle lies in it."""
        rows = self.rows
        alive = (1 << len(rows)) - 1
        while alive:
            sinks = 0
            for i in bits(alive):
                if not rows[i] & alive:
                    sinks |= 1 << i
            if not sinks:
                break
            alive ^= sinks
        return alive

    def is_acyclic(self) -> bool:
        return not self._cyclic_core()

    def find_cycle(self) -> Optional[CycleWitness]:
        """The lexicographically least canonical cycle among the shortest
        cycles, or None if acyclic."""
        core = self._cyclic_core()
        if not core:
            return None
        rows = self.rows
        # The least node through which a shortest cycle runs is the first
        # node of the answer: frontier expansion from each core node, cut
        # off at the shortest length found so far.
        best, start = len(rows) + 1, -1
        for i in bits(core):
            bit = 1 << i
            seen = frontier = bit
            length = 1
            while frontier and length < best:
                reach = 0
                for j in bits(frontier):
                    reach |= rows[j]
                if reach & bit:
                    best, start = length, i
                    break
                frontier = reach & ~seen
                seen |= frontier
                length += 1
        # BFS with ascending successors reaches every node along its
        # lexicographically least shortest path from ``start``.
        parent = {start: start}
        queue = deque([start])
        while True:
            u = queue.popleft()
            if rows[u] >> start & 1:
                path = [u]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return CycleWitness(tuple(self.ids[p] for p in reversed(path)))
            for v in bits(rows[u]):
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
