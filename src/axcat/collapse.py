"""Shrinking a cycle in pol with com+ down to a single offending pair.

This is the constructive half of the equivalence between the two
SC-Per-Location formulations: any cycle in pol together with com+ can be
collapsed, by repeated shortening, to a pair (x, y) with x ->pol y and
y ->com+ x.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Sequence

from .execution import Execution, derive, rf_inv
from .relation import CycleWitness


@dataclass(frozen=True)
class WitnessPair:
    """x ->pol y and y ->com+ x: the pairwise form of an SC-Per-Location failure."""

    kind: ClassVar[str] = "pair"
    x: int
    y: int


class CaseTag(Enum):
    COM_FORWARD = "com-forward"
    EQUAL_WRITES = "equal-writes"
    SAME_RF_SOURCE = "same-rf-source"
    COM_BACKWARD = "com-backward"


def totality_case(e: Execution, x: int, y: int) -> CaseTag:
    """Classify a same-address pair; some case always applies."""
    by_id = e.by_id
    if x not in by_id or y not in by_id:
        raise ValueError("event id not in execution")
    ex, ey = by_id[x], by_id[y]
    if ex.addr != ey.addr:
        raise ValueError(f"events {x} and {y} have different addresses")
    d = derive(e)
    if (x, y) in d.com_plus:
        return CaseTag.COM_FORWARD
    if ex.is_write and ey.is_write and x == y:
        return CaseTag.EQUAL_WRITES
    if ex.is_read and ey.is_read and rf_inv(e, x) == rf_inv(e, y):
        return CaseTag.SAME_RF_SOURCE
    if (y, x) in d.com_plus:
        return CaseTag.COM_BACKWARD
    raise RuntimeError(f"totality failed for same-address pair ({x}, {y})")


def collapse_cycle(e: Execution, cycle: CycleWitness) -> WitnessPair:
    """Collapse a cycle in pol with com+ to a witness pair.

    Accepts cycles in pol with plain com as well, since com is contained
    in com+. Each recursive step strictly shortens the cycle.
    """
    com_plus, pol = derive(e).com_plus, e.pol
    pc = pol.union(com_plus)

    def pathp(path: Sequence[int], x: int, y: int) -> bool:
        cur = x
        for node in path:
            if (cur, node) not in pc:
                return False
            cur = node
        return (cur, y) in pc

    def cyclep(path: Sequence[int], x: int) -> bool:
        return pathp(path, x, x)

    nodes = cycle.nodes
    x, rest = nodes[0], list(nodes[1:])
    if not cyclep(rest, x):
        raise ValueError("cycle does not validate against pol and com+")

    def collapse(path: list[int], x: int) -> WitnessPair:
        if len(path) == 1:
            p = path[0]
            return WitnessPair(x, p) if (x, p) in pol else WitnessPair(p, x)
        p1, p2, rst = path[0], path[1], path[2:]
        if cyclep([p2] + rst, x):
            return collapse([p2] + rst, x)
        if cyclep(rst, x):
            return collapse(rst, x)
        if cyclep([p2], p1):
            return collapse([p2], p1)
        # The totality case split guarantees the two-cycle through p1 remains.
        return collapse([p1], x)

    pair = collapse(rest, x)
    if (pair.x, pair.y) not in pol or (pair.y, pair.x) not in com_plus:
        raise RuntimeError("collapse produced an invalid witness pair")
    return pair
