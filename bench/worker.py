"""One workload in a fresh single-threaded process.

    python3 bench/worker.py PLAN.json

``run.py`` writes the plan and reads back ``result.json`` from the plan's
``out_dir``. Each command goes through ``axcat.cli.main(argv)`` in-process,
as the ``axcat`` script would run it, with stdout and stderr captured,
one command at a time.

Without tracing, one whole pass always runs; after it, commands go on in
pass order while the time so far plus that command's previous time still
fits in the plan's ``seconds``, so the last pass may stop part way; a
``reference.Meter`` measures the host's speed all the while. With
tracing, a prefix of the first pass runs untraced as the overhead
reference, then one pass runs traced, then one ``check --axioms sc`` of
the first program runs under ``tracemalloc``, and finally the sampled
``Relation`` calls are replayed.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import reference
import tracer as tracing

# A traced run's reference prefix covers at least this much untraced time.
REFERENCE_S = 2.0


def run_command(main, argv: list[str], out_path: Path, meter: reference.Meter | None = None) -> dict:
    """Run one CLI command with stdout and stderr captured in memory, then
    save what it printed to ``out_path``. Only the call itself is timed,
    less the reference units ``meter`` ran during it; a full garbage
    collection first gives every command the same clean heap."""
    gc.collect()
    captured = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = captured
    error = None
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc()
    t1 = time.perf_counter()
    sys.stdout, sys.stderr = saved
    elapsed = t1 - t0 - (meter.within(t0, t1) if meter is not None else 0.0)
    out_path.write_text(captured.getvalue(), encoding="utf-8")
    return {"s": elapsed, "code": code, "error": error, "out": out_path.name, "span": (t0, t1)}


def run_pass(main, commands: list[list[str]], out_dir: Path, tag: str, before=None) -> list[dict]:
    results = []
    for i, argv in enumerate(commands):
        if before is not None:
            before()
        results.append({"cmd": i, **run_command(main, argv, out_dir / f"{tag}_c{i}.out")})
    return results


def untraced(main, plan: dict, out_dir: Path) -> dict:
    commands = plan["commands"]
    meter = reference.Meter()
    passes: list[list[dict]] = []
    last = [0.0] * len(commands)
    t0 = time.perf_counter()
    k = 0  # commands run so far
    with meter.sampling():
        while k < len(commands) or time.perf_counter() - t0 + last[k % len(commands)] <= plan["seconds"]:
            i = k % len(commands)
            if i == 0:
                passes.append([])
            r = run_command(main, commands[i], out_dir / f"p{len(passes) - 1}_c{i}.out", meter)
            passes[-1].append({"cmd": i, **r})
            last[i] = r["s"]
            k += 1
    for r in (r for p in passes for r in p):
        r["unit_s"] = meter.unit_near(*r["span"])
    return {
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "unit_s": meter.unit_s(),
        "units": len(meter.spans),
    }


def traced(main, plan: dict, out_dir: Path) -> dict:
    commands = plan["commands"]
    prefix = []
    while len(prefix) < len(commands) and sum(r["s"] for r in prefix) < REFERENCE_S:
        i = len(prefix)
        prefix.append({"cmd": i, **run_command(main, commands[i], out_dir / f"ref_c{i}.out")})

    tr = tracing.Tracer(seed=plan["seed"])
    tr.install()
    tr.recording = True
    try:
        traced_pass = run_pass(main, commands, out_dir, "p0", before=tr.begin_command)
    finally:
        tr.uninstall()
    summary = tr.summary()

    tracemalloc.start()
    try:
        alloc = run_command(main, plan["alloc_probe"], out_dir / "alloc.out")
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    replayed = tracing.replay(tr.samples)
    return {
        "passes": [traced_pass],
        "reference": prefix,
        "alloc": alloc,
        "alloc_peak_bytes": alloc_peak,
        "spans": summary.spans,
        "stats": {n: vars(s) for n, s in summary.stats.items()},
        "per_command_calls": summary.per_command_calls,
        "counters": tr.counters,
        "replay": vars(replayed),
    }


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import axcat.cli

    def cli_main(argv: list[str]) -> int:
        # looked up per call, so the tracer's wrapper of ``main`` is seen
        return axcat.cli.main(argv)

    out_dir = Path(plan["out_dir"])
    result = traced(cli_main, plan, out_dir) if plan["trace"] else untraced(cli_main, plan, out_dir)
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
