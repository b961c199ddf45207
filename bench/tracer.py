"""Span tracing of axcat's layers from outside the program.

``Tracer.install`` wraps every public function of the layer modules, and
every public method of the classes they define, at every module-level name
that binds it (``derive`` is bound in ``execution``, ``enumeration``,
``axioms``, ``collapse``, ``cli`` and the package). Each call made while
recording appends one span (name, start, end, parent) to in-memory arrays;
``summary`` turns them into per-name calls, inclusive time and self time.
A function that the program no longer has, or no longer calls, reports zero.

Some wrappers also observe results: rejected ``validate`` calls, and a
seeded reservoir sample of the relations that the ``Relation`` primitives
are called on, which ``replay`` later times without the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import random
import time
import types
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

LAYERS = ("parser", "enumeration", "execution", "relation", "axioms", "collapse", "cli")

# Calls of these names are timed as one unit: a span counts towards the
# group's inclusive time only when no other member is open around it.
GROUPS = {
    "enumeration.enumerate_candidates": "enumeration.generate",
    "enumeration.iter_candidates": "enumeration.generate",
}

REPLAYED = ("find_cycle", "is_acyclic", "transitive_closure", "compose", "union")
# Calls whose receiver is a relation tested for cycles; their samples feed
# the find_cycle / is_acyclic / transitive_closure replays.
ACYCLICITY_INPUTS = ("find_cycle", "is_acyclic")
SAMPLE_SIZE = 48
# Wall time each primitive's replay loops over its samples.
REPLAY_BUDGET_S = 0.25


@dataclass
class NameStats:
    calls: int = 0
    incl_s: float = 0.0  # outermost spans of the name (or its group) only
    self_s: float = 0.0


@dataclass
class Summary:
    stats: dict[str, NameStats]
    per_command_calls: list[dict[str, int]]
    spans: int

    def get(self, name: str) -> NameStats:
        return self.stats.get(name, NameStats())


class Tracer:
    """Spans and counters of one traced run; ``recording`` switches them on."""

    def __init__(self, seed: int) -> None:
        self.names: list[str] = []
        self.recording = False
        self.counters: dict[str, int] = {}
        self.samples: dict[str, list[tuple]] = {}
        self._ids: dict[str, int] = {}
        self._keys: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.command_starts: list[int] = []
        self._seen: dict[str, int] = {}
        self._rng = random.Random(seed)
        self._restore: list[tuple[object, str, object]] = []

    # --- wrapping -------------------------------------------------------------

    def _intern(self, name: str) -> tuple[int, int]:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        key = GROUPS.get(name, name)
        if key not in self._keys:
            self._keys[key] = len(self._depth)
            self._depth.append(0)
        return self._ids[name], self._keys[key]

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        nid, kid = self._intern(name)
        tracer = self
        stack, depth = self._stack, self._depth
        s_name, s_parent, s_outer = self.span_name, self.span_parent, self.span_outer
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_outer.append(depth[kid] == 0)
            s_end.append(0.0)
            depth[kid] += 1
            stack.append(idx)
            s_start.append(clock())
            return idx

        def close_span(idx: int) -> None:
            s_end[idx] = clock()
            stack.pop()
            depth[kid] -= 1

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.recording:
                        yield from it
                        return
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if observe is not None:
                observe(args, result, s_parent[idx])
            return result

        return wrapper

    def _observer(self, name: str) -> Optional[Callable]:
        method = name.rsplit(".", 1)[-1]
        if name == "execution.validate":
            return lambda args, result, parent: self._count("validate.rejects", bool(result))
        if name.startswith("relation.Relation.") and method in REPLAYED:

            def sample(args, result, parent):
                caller = self.names[self.span_name[parent]] if parent >= 0 else "-"
                self._sample(f"{method}@{caller}", args)

            return sample
        return None

    def _count(self, key: str, hit: bool) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(hit)
        self.counters[key + ".of"] = self.counters.get(key + ".of", 0) + 1

    def _sample(self, bucket: str, args: tuple) -> None:
        seen = self._seen.get(bucket, 0) + 1
        self._seen[bucket] = seen
        kept = self.samples.setdefault(bucket, [])
        if len(kept) < SAMPLE_SIZE:
            kept.append(args)
        else:
            j = self._rng.randrange(seen)
            if j < SAMPLE_SIZE:
                kept[j] = args

    def install(self) -> None:
        """Wrap the layers; originals come back with ``uninstall``."""
        package = importlib.import_module("axcat")
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"axcat.{layer}")
            except ModuleNotFoundError:
                continue  # a layer the program no longer has reports zero
        wrapped: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[id(value)] = self.wrap(name, value, self._observer(name))
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for mattr, mvalue in list(vars(value).items()):
                        if mattr.startswith("_") or not isinstance(mvalue, types.FunctionType):
                            continue
                        name = f"{layer}.{attr}.{mattr}"
                        self._restore.append((value, mattr, mvalue))
                        setattr(value, mattr, self.wrap(name, mvalue, self._observer(name)))
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrapped:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        self.recording = False
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def begin_command(self) -> None:
        self.command_starts.append(len(self.span_start))

    # --- summary --------------------------------------------------------------

    def summary(self) -> Summary:
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        stats = {name: NameStats() for name in self.names}
        by_id = [stats[name] for name in self.names]
        names, outer = self.span_name, self.span_outer
        for i in range(n):
            s = by_id[names[i]]
            dur = ends[i] - starts[i]
            s.calls += 1
            s.self_s += dur - child[i]
            if outer[i]:
                s.incl_s += dur
        bounds = [*self.command_starts, n]
        per_command = []
        for lo, hi in zip(bounds, bounds[1:]):
            counts: dict[str, int] = {}
            for i in range(lo, hi):
                name = self.names[names[i]]
                counts[name] = counts.get(name, 0) + 1
            per_command.append(counts)
        return Summary(stats, per_command, n)


@dataclass
class ReplayResult:
    us_per_call: dict[str, float]
    inputs: dict[str, int]
    mean_ids: float


def replay(samples: dict[str, list[tuple]]) -> ReplayResult:
    """Time each Relation primitive on the sampled real calls.

    ``find_cycle``, ``is_acyclic`` and ``transitive_closure`` run on the
    relations the program tested for cycles (``po ∪ com`` from ``sc_full``,
    ``pol ∪ com`` from ``sc_per_location_1``, ``hb`` from ``no_thin_air``,
    and so on); ``compose`` and ``union`` replay their sampled arguments.
    Call the primitives only after ``uninstall``.
    """
    acyclicity = [
        args[:1]
        for bucket, kept in sorted(samples.items())
        if bucket.split("@")[0] in ACYCLICITY_INPUTS
        for args in kept
    ]
    inputs = {
        "find_cycle": acyclicity,
        "is_acyclic": acyclicity,
        "transitive_closure": acyclicity,
        "compose": [a for b, kept in sorted(samples.items()) if b.startswith("compose@") for a in kept],
        "union": [a for b, kept in sorted(samples.items()) if b.startswith("union@") for a in kept],
    }
    us: dict[str, float] = {}
    for method, calls in inputs.items():
        bound = [(getattr(args[0], method, None), args[1:]) for args in calls]
        bound = [(fn, rest) for fn, rest in bound if fn is not None]
        if not bound:
            us[method] = 0.0
            continue
        done = 0
        t0 = time.perf_counter()
        while True:
            for fn, rest in bound:
                fn(*rest)
            done += len(bound)
            elapsed = time.perf_counter() - t0
            if elapsed >= REPLAY_BUDGET_S:
                break
        us[method] = elapsed / done * 1e6
    sizes = [len(getattr(args[0], "universe", ())) for args in acyclicity]
    return ReplayResult(
        us, {m: len(c) for m, c in inputs.items()}, sum(sizes) / len(sizes) if sizes else 0.0
    )
