"""The benchmark's workloads: which programs, and which CLI commands on them.

A workload is one pass: a fixed list of commands, each an ``argv`` for
``axcat.cli.main``. Runs repeat passes (see ``worker.py``).

* ``worst8``: the 8-event one-address worst cases. Nearly every candidate
  breaks SC-per-location, so candidate generation, ``derive``,
  ``find_cycle`` and the framework's repeated architecture work dominate.
  The programs are fixed; the seed does not change them.
* ``suite``: the shipped tests, five classics, and 200 small programs drawn
  from a frozen pool of generated ones, each checked under all four axiom
  sets. Per-command overhead and the framework axioms dominate, and about a
  quarter of the candidates pass SC-per-location (under 1% on ``worst8``),
  so pruning has little to cut. The seed picks the 200 programs: one from each of 200 strata of the
  pool sorted by candidate count, so every seed draws the same size mix.
  The seed also shuffles the order of the commands.
* ``enumerate-dump``: exhaustive ``enumerate --json --dump-executions`` on
  a two-address 8-event program (1,200 candidates), plus ``explain`` of its
  ``exists`` outcome. A pass takes about a second, so a run repeats it many
  times. Fixed program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import oracle

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "corpus"
POOL_FILE = CORPUS / "suite_pool.json"
FROZEN_FILE = CORPUS / "frozen.json"

WORKLOADS = ("worst8", "suite", "enumerate-dump")

AXIOM_ARGS = {
    "sc": ["--axioms", "sc"],
    "scpl": ["--axioms", "scpl"],
    "sb-arch": ["--axioms", "framework", "--arch", "sb-arch"],
    "sc-arch": ["--axioms", "framework", "--arch", "sc-arch"],
}
FRAMEWORK_ARCHS = ("sb-arch", "sc-arch")

CLASSIC_FILES = ("IRIW", "MP", "LB", "2p2w", "WRC")
SUITE_DRAW = 200


@dataclass(frozen=True)
class Command:
    kind: str  # "check" | "enumerate" | "explain"
    program: str  # key into Workload.programs
    axioms: Optional[str] = None  # a key of AXIOM_ARGS, for "check"

    def label(self) -> str:
        return " ".join(filter(None, (self.kind, self.program, self.axioms)))

    def argv(self, path: str, cond_text: str) -> list[str]:
        if self.kind == "check":
            return ["check", path, *AXIOM_ARGS[self.axioms], "--json"]
        if self.kind == "enumerate":
            return ["enumerate", path, "--json", "--dump-executions"]
        return ["explain", path, "--outcome", cond_text]


@dataclass(frozen=True)
class Source:
    program: oracle.Program
    text: str
    path: Optional[str]  # litmus file relative to ROOT; None until written out


@dataclass(frozen=True)
class Workload:
    name: str
    programs: dict[str, Source]
    commands: tuple[Command, ...]


def load_source(path: Path) -> Source:
    text = path.read_text(encoding="utf-8")
    return Source(oracle.parse_program(text), text, str(path.relative_to(ROOT)))


def shipped_paths() -> list[Path]:
    return sorted((ROOT / "litmus").glob("*.litmus"))


def fixed_suite_sources() -> list[Source]:
    """The shipped tests and the classics, in a fixed order."""
    return [load_source(p) for p in shipped_paths()] + [
        load_source(CORPUS / f"{name}.litmus") for name in CLASSIC_FILES
    ]


def load_pool() -> dict[str, str]:
    return json.loads(POOL_FILE.read_text(encoding="utf-8"))["programs"]


def load_frozen() -> dict[str, dict[str, str]]:
    """Framework answers frozen by ``freeze.py``: program name to
    ``{arch: hex mask of allowed outcomes}`` (see ``oracle.table_mask``)."""
    return json.loads(FROZEN_FILE.read_text(encoding="utf-8"))["framework"]


def draw_suite(seed: int, pool: dict[str, str]) -> list[str]:
    """One pool program from each of ``SUITE_DRAW`` strata of equal size, the
    pool being sorted by candidate count."""
    ranked = sorted(pool, key=lambda n: (oracle.candidate_count(oracle.parse_program(pool[n])), n))
    width = len(ranked) // SUITE_DRAW
    rng = random.Random(seed)
    return [rng.choice(ranked[i * width : (i + 1) * width]) for i in range(SUITE_DRAW)]


def build(name: str, seed: int) -> Workload:
    if name == "worst8":
        w4r4, w6r2 = load_source(CORPUS / "W4R4.litmus"), load_source(CORPUS / "W6R2.litmus")
        commands = [Command("check", "W4R4", a) for a in AXIOM_ARGS]
        commands.append(Command("check", "W6R2", "sc"))
        return Workload(name, {"W4R4": w4r4, "W6R2": w6r2}, tuple(commands))
    if name == "suite":
        sources = fixed_suite_sources()
        pool = load_pool()
        for pname in draw_suite(seed, pool):
            text = pool[pname]
            sources.append(Source(oracle.parse_program(text), text, None))
        programs = {s.program.name: s for s in sources}
        commands = [Command("check", n, a) for n in programs for a in AXIOM_ARGS]
        # Spread every size over the whole pass, so no percentile is timed
        # in one stretch of it while the host's speed drifts.
        random.Random(f"order-{seed}").shuffle(commands)
        return Workload(name, programs, tuple(commands))
    if name == "enumerate-dump":
        programs = {"TWO8": load_source(CORPUS / "TWO8.litmus")}
        commands = (Command("enumerate", "TWO8"), Command("explain", "TWO8"))
        return Workload(name, programs, commands)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
