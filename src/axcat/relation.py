"""Finite binary relations over events ``0..n-1``, stored as bit matrices.

Event ``x`` is bit ``x``: a relation over ``n`` events is ``n`` row
bitmasks, and bit ``y`` of ``rows[x]`` is set iff ``(x, y)`` is in it.
Every operation is integer arithmetic on rows; ``pairs`` is a derived view
for JSON, tests and witness checks. Everything downstream (communication
relations, axioms, witnesses) is built out of these. Relations are
immutable and carry their size ``n``, so the identity relation is defined.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import and_, or_
from typing import ClassVar, Iterable, Optional

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


@dataclass(frozen=True)
class CycleWitness:
    """A directed cycle, stored with the minimal id first so output is stable."""

    kind: ClassVar[str] = "cycle"
    nodes: tuple[int, ...]


class Relation:
    """An immutable relation over ``0..n-1``: one row bitmask per element."""

    __slots__ = ("rows", "_pairs")

    rows: tuple[int, ...]

    def __init__(self, n: int, pairs: Iterable[Pair] = ()) -> None:
        rows = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) is outside 0..{n - 1}")
            rows[x] |= 1 << y
        self.rows, self._pairs = tuple(rows), None

    def with_rows(self, rows: Iterable[int]) -> "Relation":
        """A relation of this one's size with the given rows, which are
        trusted: ``n`` of them, with no bit at or above ``n``."""
        r = Relation.__new__(Relation)
        r.rows, r._pairs = tuple(rows), None
        return r

    @property
    def pairs(self) -> frozenset[Pair]:
        """The pairs, as a frozenset built on first read."""
        if self._pairs is None:
            self._pairs = frozenset((x, y) for x, row in enumerate(self.rows) for y in bits(row))
        return self._pairs

    def __contains__(self, pair: Pair) -> bool:
        x, y = pair
        return 0 <= x < len(self.rows) and y >= 0 and bool(self.rows[x] >> y & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Relation({len(self.rows)}, {sorted(self.pairs)})"

    def _require_same_size(self, other: "Relation") -> None:
        if len(self.rows) != len(other.rows):
            raise ValueError("relations are of different sizes")

    def union(self, other: "Relation") -> "Relation":
        self._require_same_size(other)
        return self.with_rows(map(or_, self.rows, other.rows))

    def intersection(self, other: "Relation") -> "Relation":
        self._require_same_size(other)
        return self.with_rows(map(and_, self.rows, other.rows))

    def issubset(self, other: "Relation") -> bool:
        self._require_same_size(other)
        return not any(a & ~b for a, b in zip(self.rows, other.rows))

    def compose(self, other: "Relation") -> "Relation":
        """Sequencing: (x, y) iff some p has (x, p) here and (p, y) in other."""
        self._require_same_size(other)
        succ = other.rows
        out = []
        for row in self.rows:
            acc = 0
            for j in bits(row):
                acc |= succ[j]
            out.append(acc)
        return self.with_rows(out)

    def transitive_closure(self) -> "Relation":
        """Smallest transitive superset; adds no reflexive pairs beyond cycles."""
        rows = list(self.rows)
        n = len(rows)
        for k in range(n):
            bit, rk = 1 << k, rows[k]
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= rk
        return self.with_rows(rows)

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
                return CycleWitness(tuple(reversed(path)))
            for v in bits(rows[u]):
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
