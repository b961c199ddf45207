"""Relation algebra that only the tests use, as functions over a
``Relation``'s rows: no ``axcat`` code computes any of these."""

from axcat import CycleWitness, Relation
from axcat.relation import bits


def difference(a: Relation, b: Relation) -> Relation:
    return a.with_rows(x & ~y for x, y in zip(a.rows, b.rows, strict=True))


def restrict(r: Relation, domain: int, range_: int) -> Relation:
    """The pairs of ``r`` whose source is in ``domain`` and target in
    ``range_`` (both bitmasks over the events)."""
    return r.with_rows(row & range_ if domain >> i & 1 else 0 for i, row in enumerate(r.rows))


def inverse(r: Relation) -> Relation:
    out = [0] * len(r.rows)
    for i, row in enumerate(r.rows):
        bit = 1 << i
        for j in bits(row):
            out[j] |= bit
    return r.with_rows(out)


def reflexive_transitive_closure(r: Relation) -> Relation:
    return r.with_rows(row | 1 << i for i, row in enumerate(r.transitive_closure().rows))


def is_irreflexive(r: Relation) -> bool:
    return not any(row >> i & 1 for i, row in enumerate(r.rows))


def validates_against(cycle: CycleWitness, r: Relation) -> bool:
    """Each node of ``cycle`` relates in ``r`` to the next, the last to the first."""
    n = cycle.nodes
    return all((n[i], n[(i + 1) % len(n)]) in r for i in range(len(n)))
