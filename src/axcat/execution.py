"""The execution tuple (events, po, co, rf) and its derived relations.

Initial values are modeled as explicit init writes (process ``INIT_PROC``,
value from the program's initial state, co-minimal at their address, and
unordered by po against everything). Ill-formed executions are
representable, so hand-built ones can be checked: ``validate`` lists every
violation, and ``derive`` raises on any. Enumerated candidates are
well-formed by construction and are not re-validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .relation import Relation, bits

READ = "R"
WRITE = "W"

# Process index reserved for initial-value writes; po totality is not
# required for this pseudo-process.
INIT_PROC = -1


@dataclass(frozen=True)
class Event:
    id: int
    proc: int
    kind: str
    addr: str
    value: int

    def __post_init__(self) -> None:
        if self.kind not in (READ, WRITE):
            raise ValueError(f"event kind must be {READ!r} or {WRITE!r}, got {self.kind!r}")

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE


@dataclass(frozen=True)
class WellFormednessViolation:
    code: str
    events: tuple[int, ...]
    message: str


class EventLayout(NamedTuple):
    """What the events say about pairs of events, as bitmasks over their
    sorted ids (bit ``i`` stands for the ``i``-th smallest id)."""

    writes: int
    reads: int
    same_address: Relation  # (x, y) with equal addresses, x == y included
    cross_process: Relation  # (x, y) of different processes
    processes: tuple[tuple[int, int], ...]  # (proc, members) per non-init process
    locations: tuple[tuple[str, int], ...]  # (addr, writes there) per written address


def event_layout(events: Iterable[Event]) -> EventLayout:
    """The layout of some events; the last event wins for a repeated id."""
    by_id = {ev.id: ev for ev in events}
    ids = sorted(by_id)
    evs = [by_id[x] for x in ids]
    writes = reads = 0
    at: dict[str, int] = {}
    of: dict[int, int] = {}
    for i, ev in enumerate(evs):
        bit = 1 << i
        if ev.is_write:
            writes |= bit
        else:
            reads |= bit
        at[ev.addr] = at.get(ev.addr, 0) | bit
        of[ev.proc] = of.get(ev.proc, 0) | bit
    base = Relation(ids)
    everyone = (1 << len(ids)) - 1
    return EventLayout(
        writes,
        reads,
        base.with_rows([at[ev.addr] for ev in evs]),
        base.with_rows([everyone & ~of[ev.proc] for ev in evs]),
        tuple((p, m) for p, m in sorted(of.items()) if p != INIT_PROC),
        tuple((a, m & writes) for a, m in sorted(at.items()) if m & writes),
    )


@dataclass(frozen=True)
class Execution:
    events: tuple[Event, ...]
    po: Relation
    co: Relation
    rf: Relation

    @cached_property
    def by_id(self) -> dict[int, Event]:
        return {e.id: e for e in self.events}

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(e.id for e in self.events)

    @cached_property
    def layout(self) -> EventLayout:
        return event_layout(self.events)

    @cached_property
    def pol(self) -> Relation:
        """po between events at the same address."""
        return self.po.intersection(self.layout.same_address)

    @cached_property
    def violations(self) -> tuple[WellFormednessViolation, ...]:
        """``validate``'s list; ``ChoiceSpace`` records none on its candidates."""
        return tuple(validate(self))


def make_execution(
    events: Iterable[Event],
    po: Iterable[tuple[int, int]] = (),
    co: Iterable[tuple[int, int]] = (),
    rf: Iterable[tuple[int, int]] = (),
) -> Execution:
    """Build an Execution with each relation's universe set to the event ids."""
    events = tuple(events)
    universe = frozenset(e.id for e in events)
    return Execution(
        events,
        Relation(universe, po),
        Relation(universe, co),
        Relation(universe, rf),
    )


def _check_strict_order(
    rel: Relation, label: str, out: list[WellFormednessViolation]
) -> None:
    """Report where ``rel`` is not a strict order."""
    ids, rows = rel.ids, rel.rows
    for i, row in enumerate(rows):
        if row >> i & 1:
            out.append(
                WellFormednessViolation(
                    f"{label}-reflexive", (ids[i],), f"{label} relates {ids[i]} to itself"
                )
            )
    for i, row in enumerate(rows):
        for j in bits(row):
            for k in bits(rows[j] & ~row & ~(1 << i)):
                x, y, z = ids[i], ids[j], ids[k]
                out.append(
                    WellFormednessViolation(
                        f"{label}-not-transitive",
                        (x, y, z),
                        f"{label} has {x}->{y}->{z} but not {x}->{z}",
                    )
                )


def _unordered(rel: Relation, members: int) -> list[tuple[int, int]]:
    """Pairs x < y of ``members`` (a bitmask) related in neither direction."""
    rows = rel.rows
    return [
        (rel.ids[i], rel.ids[j])
        for i in bits(members)
        for j in bits(members & ~rows[i] & -(2 << i))
        if not rows[j] >> i & 1
    ]


def validate(e: Execution) -> list[WellFormednessViolation]:
    """All well-formedness clauses, one machine-readable violation per break."""
    out: list[WellFormednessViolation] = []

    by_id = e.by_id
    seen: set[int] = set()
    for ev in e.events:
        if ev.id in seen:
            out.append(
                WellFormednessViolation(
                    "duplicate-event-id", (ev.id,), f"event id {ev.id} used twice"
                )
            )
        seen.add(ev.id)
    ids = frozenset(by_id)

    for label, rel in (("po", e.po), ("co", e.co), ("rf", e.rf)):
        if rel.universe != ids:
            out.append(
                WellFormednessViolation(
                    f"{label}-universe-mismatch",
                    (),
                    f"{label} universe differs from the event id set",
                )
            )
            return out  # nothing else is meaningful

    # From here on bit positions agree across po, co, rf and the layout.
    order = e.po.ids
    layout = e.layout
    writes, reads = layout.writes, layout.reads
    same_address, cross_process = layout.same_address.rows, layout.cross_process.rows

    # po: same-process only, strict total order per (non-init) process
    for i, row in enumerate(e.po.rows):
        for j in bits(row & cross_process[i]):
            out.append(
                WellFormednessViolation(
                    "po-cross-process",
                    (order[i], order[j]),
                    "po relates events of different processes",
                )
            )
    _check_strict_order(e.po, "po", out)
    for p, members in layout.processes:
        for x, y in _unordered(e.po, members):
            out.append(
                WellFormednessViolation(
                    "po-not-total", (x, y), f"events {x}, {y} of process {p} are po-unordered"
                )
            )

    # co: writes only, equal address, strict total order per address
    for i, row in enumerate(e.co.rows):
        bad = row & ~(writes & same_address[i]) if writes >> i & 1 else row
        for j in bits(bad):
            if writes >> i & 1 and writes >> j & 1:
                out.append(
                    WellFormednessViolation(
                        "co-addr-mismatch",
                        (order[i], order[j]),
                        "co relates writes to different addresses",
                    )
                )
            else:
                out.append(
                    WellFormednessViolation(
                        "co-non-write", (order[i], order[j]), "co endpoint is not a write"
                    )
                )
    _check_strict_order(e.co, "co", out)
    for a, members in layout.locations:
        for x, y in _unordered(e.co, members):
            out.append(
                WellFormednessViolation(
                    "co-not-total", (x, y), f"writes {x}, {y} at {a} are co-unordered"
                )
            )

    # rf: write -> read, equal address, matching value, unique per read
    sources: dict[int, list[int]] = {j: [] for j in bits(reads)}
    for i, row in enumerate(e.rf.rows):
        for j in bits(row):
            w, r = order[i], order[j]
            if not writes >> i & 1:
                out.append(
                    WellFormednessViolation(
                        "rf-source-not-write", (w, r), "rf source is not a write"
                    )
                )
                continue
            if not reads >> j & 1:
                out.append(
                    WellFormednessViolation(
                        "rf-target-not-read", (w, r), "rf target is not a read"
                    )
                )
                continue
            if not same_address[i] >> j & 1:
                out.append(
                    WellFormednessViolation(
                        "rf-addr-mismatch", (w, r), "rf relates different addresses"
                    )
                )
            written, read = by_id[w].value, by_id[r].value
            if written != read:
                out.append(
                    WellFormednessViolation(
                        "rf-value-mismatch",
                        (w, r),
                        f"read {r} has value {read}, its source wrote {written}",
                    )
                )
            sources[j].append(w)
    for j, ws in sources.items():
        r = order[j]
        if not ws:
            out.append(
                WellFormednessViolation(
                    "read-without-rf-source", (r,), f"read {r} has no rf source"
                )
            )
        elif len(ws) > 1:
            out.append(
                WellFormednessViolation(
                    "duplicate-rf-source",
                    (r, *ws),
                    f"read {r} has {len(ws)} rf sources",
                )
            )
    return out


def rf_inv(e: Execution, r: int) -> int:
    """The unique write a read takes its value from."""
    ev = e.by_id.get(r)
    if ev is None or not ev.is_read:
        raise ValueError(f"event {r} is not a read of this execution")
    ws = [w for w, rr in e.rf.pairs if rr == r]
    if len(ws) != 1:
        raise ValueError(f"read {r} has {len(ws)} rf sources; execution is ill-formed")
    return ws[0]


@dataclass(frozen=True)
class DerivedRelations:
    fr: Relation
    com: Relation
    rfe: Relation
    fre: Relation

    @cached_property
    def com_plus(self) -> Relation:
        """com's transitive closure, computed on first use."""
        return self.com.transitive_closure()


def derive(e: Execution) -> DerivedRelations:
    """All communication relations of a well-formed execution. The first
    call builds them and stores them on ``e``; every later call returns that
    same object. An ill-formed execution raises on every call."""
    d = e.__dict__.get("derived")
    if d is None:
        if e.violations:
            raise ValueError(
                "execution is ill-formed: " + "; ".join(v.code for v in e.violations)
            )
        cross_process = e.layout.cross_process
        fr = e.rf.inverse().compose(e.co)
        d = e.__dict__["derived"] = DerivedRelations(
            fr=fr,
            com=e.co.union(e.rf).union(fr),
            rfe=e.rf.intersection(cross_process),
            fre=fr.intersection(cross_process),
        )
    return d


def com_plus_rewrite(e: Execution) -> Relation:
    """com extended by co;rf and fr;rf; provably equal to com's closure."""
    d = derive(e)
    return d.com.union(e.co.compose(e.rf)).union(d.fr.compose(e.rf))


def execution_to_dict(e: Execution) -> dict:
    return {
        "events": [
            {"id": ev.id, "proc": ev.proc, "kind": ev.kind, "addr": ev.addr, "value": ev.value}
            for ev in sorted(e.events, key=lambda ev: ev.id)
        ],
        "po": sorted(e.po.pairs),
        "co": sorted(e.co.pairs),
        "rf": sorted(e.rf.pairs),
    }

