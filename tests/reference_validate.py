"""A pair-based ``validate``: the reference for the row-based one.

``axcat.execution.validate`` works on bit rows; ``test_execution`` checks
that both report the same violations on perturbed executions.
"""

from __future__ import annotations

from axcat import INIT_PROC, Event, Execution, WellFormednessViolation
from axcat.relation import Relation


def _check_strict_order(
    rel: Relation, label: str, out: list[WellFormednessViolation]
) -> None:
    for x, y in rel.pairs:
        if x == y:
            out.append(
                WellFormednessViolation(f"{label}-reflexive", (x,), f"{label} relates {x} to itself")
            )
    pairs = rel.pairs
    for x, y in pairs:
        for y2, z in pairs:
            if y == y2 and (x, z) not in pairs and x != z:
                out.append(
                    WellFormednessViolation(
                        f"{label}-not-transitive",
                        (x, y, z),
                        f"{label} has {x}->{y}->{z} but not {x}->{z}",
                    )
                )


def validate(e: Execution) -> list[WellFormednessViolation]:
    """All well-formedness clauses, one machine-readable violation per break."""
    out: list[WellFormednessViolation] = []

    n = len(e.events)
    for i, ev in enumerate(e.events):
        if ev.id != i:
            out.append(
                WellFormednessViolation(
                    "event-id-not-position", (ev.id,), f"event {i} has id {ev.id}"
                )
            )
    for label, rel in (("po", e.po), ("co", e.co), ("rf", e.rf)):
        if len(rel.rows) != n:
            out.append(
                WellFormednessViolation(
                    "relation-size-mismatch",
                    (),
                    f"{label} has {len(rel.rows)} rows for {n} events",
                )
            )
    if out:
        return out  # nothing else is meaningful
    by_id: dict[int, Event] = {ev.id: ev for ev in e.events}

    # po: same-process only, strict total order per (non-init) process
    for x, y in e.po.pairs:
        if by_id[x].proc != by_id[y].proc:
            out.append(
                WellFormednessViolation(
                    "po-cross-process", (x, y), f"po relates events of different processes"
                )
            )
    _check_strict_order(e.po, "po", out)
    procs = {ev.proc for ev in e.events if ev.proc != INIT_PROC}
    for p in procs:
        members = sorted(ev.id for ev in e.events if ev.proc == p)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if (x, y) not in e.po.pairs and (y, x) not in e.po.pairs:
                    out.append(
                        WellFormednessViolation(
                            "po-not-total",
                            (x, y),
                            f"events {x}, {y} of process {p} are po-unordered",
                        )
                    )

    # co: writes only, equal address, strict total order per address
    for x, y in e.co.pairs:
        if not (by_id[x].is_write and by_id[y].is_write):
            out.append(
                WellFormednessViolation("co-non-write", (x, y), "co endpoint is not a write")
            )
        elif by_id[x].addr != by_id[y].addr:
            out.append(
                WellFormednessViolation(
                    "co-addr-mismatch", (x, y), "co relates writes to different addresses"
                )
            )
    _check_strict_order(e.co, "co", out)
    addrs = {ev.addr for ev in e.events if ev.is_write}
    for a in addrs:
        members = sorted(ev.id for ev in e.events if ev.is_write and ev.addr == a)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if (x, y) not in e.co.pairs and (y, x) not in e.co.pairs:
                    out.append(
                        WellFormednessViolation(
                            "co-not-total",
                            (x, y),
                            f"writes {x}, {y} at {a} are co-unordered",
                        )
                    )

    # rf: write -> read, equal address, matching value, unique per read
    sources: dict[int, list[int]] = {ev.id: [] for ev in e.events if ev.is_read}
    for w, r in e.rf.pairs:
        if not by_id[w].is_write:
            out.append(
                WellFormednessViolation("rf-source-not-write", (w, r), "rf source is not a write")
            )
            continue
        if not by_id[r].is_read:
            out.append(
                WellFormednessViolation("rf-target-not-read", (w, r), "rf target is not a read")
            )
            continue
        if by_id[w].addr != by_id[r].addr:
            out.append(
                WellFormednessViolation(
                    "rf-addr-mismatch", (w, r), "rf relates different addresses"
                )
            )
        if by_id[w].value != by_id[r].value:
            out.append(
                WellFormednessViolation(
                    "rf-value-mismatch",
                    (w, r),
                    f"read {r} has value {by_id[r].value}, its source wrote {by_id[w].value}",
                )
            )
        sources[r].append(w)
    for r, ws in sources.items():
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
                    (r, *sorted(ws)),
                    f"read {r} has {len(ws)} rf sources",
                )
            )
    return out
