"""axcat benchmark: end-to-end and per-layer metrics with checked verdicts.

    python3 bench/run.py --workload worst8|suite|enumerate-dump \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the checkout's
``src/`` is imported, nothing is installed. Each run:

1. measures ``setup_s``: the median wall time of a fresh interpreter
   running ``import axcat``, over several launches made half before and
   half after the workload;
2. runs the workload (``workloads.py``) in a fresh single-threaded worker
   process (``worker.py``), one command at a time through
   ``axcat.cli.main``, repeating passes for ``--seconds``; each command's
   time is its mean over its runs;
3. scales every time metric to one nominal host speed, measured by
   ``reference.py`` after each launch and while the commands run, and
   prints the times as measured and the speed beside them;
4. checks every command's output: ``sc`` and ``scpl`` answers against the
   independent oracle (``oracle.py``), framework answers against those
   frozen from the seed commit (``corpus/frozen.json``), ``enumerate`` for
   exhaustiveness and its outcome table, ``explain`` for its verdict and
   candidate count. The oracle itself is first checked against
   ``tests/golden/check_*.json``;
5. prints every metric with its unit, then, as the last line, one JSON
   object ``{"correct", "attempted", "failed", "metrics"}``: the
   end-to-end metrics with ``--trace 0``, the per-layer ones with
   ``--trace 1``.

Verdicts are compared as the verdict plus the set of (outcome, allowed)
pairs, never as bytes, so a schema change of the JSON is not a failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import lru_cache
from pathlib import Path

import oracle
import reference
import workloads
from tracer import LAYERS
from workloads import ROOT, Command, Workload

BENCH = Path(__file__).resolve().parent
TMP = ROOT / ".bench_tmp"
# Launches timed for setup_s, half before the workload and half after it.
SETUP_LAUNCHES = 16
# Reference units timed after each launch, for the host's speed.
UNITS_PER_LAUNCH = 3
# Whole-run limit: the worker is stopped if the run would pass this.
RUN_LIMIT_S = 170.0

AXIOM_FUNCS = ("sc_full", "sc_per_location_1", "no_thin_air", "observation", "propagation")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(launches: int, meter: reference.Meter) -> list[float]:
    """Wall times of fresh interpreters running ``import axcat``, after one
    untimed launch; ``meter`` measures the host's speed after each."""
    cmd = [sys.executable, "-c", "import axcat"]
    env = child_env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
        for _ in range(UNITS_PER_LAUNCH):
            meter.sample()
    return times


def percentile(values: list[float], q: float) -> float:
    """Percentile by linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# --- checking outputs ---------------------------------------------------------


@lru_cache(maxsize=None)
def _frozen() -> dict[str, dict[str, str]]:
    return workloads.load_frozen()


@lru_cache(maxsize=None)
def expected_allowed(prog: oracle.Program, axioms: str) -> frozenset:
    if axioms in workloads.FRAMEWORK_ARCHS:
        return oracle.allowed_from_mask(prog, _frozen()[prog.name][axioms])
    return oracle.allowed(prog, axioms)


def check_check(prog: oracle.Program, axioms: str, code, text: str) -> str:
    payload = json.loads(text)
    allowed = expected_allowed(prog, axioms)
    want = oracle.verdict(prog, allowed)
    if payload["result"] != want:
        return f"result {payload['result']}, expected {want}"
    if code != (1 if want == "allowed" else 0):
        return f"exit code {code} for a {want} outcome"
    got = frozenset((oracle.key_of(o["outcome"]), o["allowed"]) for o in payload["outcomes"])
    if got != oracle.outcome_table(prog, allowed):
        return "outcome table differs"
    return ""


def _dump_outcome(prog: oracle.Program, execution: dict) -> oracle.OutcomeKey:
    """Registers and final memory of one dumped execution."""
    addrs = prog.addresses()
    events = sorted(execution["events"], key=lambda ev: ev["id"])
    program_events = events[len(addrs) :]
    regs = []
    k = 0
    for proc, instrs in enumerate(prog.procs):
        for instr in instrs:
            if isinstance(instr, oracle.Read):
                regs.append((f"P{proc}:{instr.reg}", program_events[k]["value"]))
            k += 1
    co_sources = {x for x, _ in execution["co"]}
    mem = [
        (ev["addr"], ev["value"])
        for ev in events
        if ev["kind"] == "W" and ev["id"] not in co_sources
    ]
    return tuple(sorted(regs)), tuple(sorted(mem))


def check_enumerate(prog: oracle.Program, code, text: str) -> str:
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(text)
    want = oracle.candidate_count(prog)
    cands = payload["candidates"]
    if payload["candidate_count"] != want or len(cands) != want:
        return f"{payload['candidate_count']} candidates ({len(cands)} rendered), expected {want}"
    seen = set()
    for cand in cands:
        ex = cand["execution"]
        seen.add((tuple(map(tuple, ex["co"])), tuple(map(tuple, ex["rf"]))))
        if _dump_outcome(prog, ex) != oracle.key_of(cand["outcome"]):
            return f"candidate {cand['index']}: outcome does not follow from its execution"
    if len(seen) != want:
        return f"{len(seen)} distinct executions, expected {want}"
    sc, scpl = expected_allowed(prog, "sc"), expected_allowed(prog, "scpl")
    got = frozenset(
        (oracle.key_of(o["outcome"]), o["allowed_sc"], o["allowed_scpl"]) for o in payload["outcomes"]
    )
    if got != frozenset((k, k in sc, k in scpl) for k in oracle.outcome_space(prog)):
        return "outcome table differs"
    return ""


def check_explain(prog: oracle.Program, code, text: str) -> str:
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    listed = sum(1 for line in lines if line.startswith("  candidate "))
    want_listed = oracle.matching_candidate_count(prog)
    if listed != want_listed:
        return f"{listed} candidates listed, expected {want_listed}"
    if want_listed == 0:
        return ""
    want = oracle.verdict(prog, expected_allowed(prog, "sc"))
    if not lines or lines[-1] != f"verdict: {want} under sequential consistency":
        return f"last line {lines[-1] if lines else ''!r}, expected a {want} verdict"
    return ""


def check_output(w: Workload, cmd: Command, result: dict, out_dir: Path) -> str:
    """Empty string if the command's output is right, else the reason."""
    if result["error"] is not None:
        return result["error"].strip().splitlines()[-1]
    path = out_dir / result["out"]
    text = path.read_text(encoding="utf-8")
    prog = w.programs[cmd.program].program
    try:
        if cmd.kind == "check":
            return check_check(prog, cmd.axioms, result["code"], text)
        if cmd.kind == "enumerate":
            return check_enumerate(prog, result["code"], text)
        return check_explain(prog, result["code"], text)
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable output ({type(err).__name__}: {err})"
    finally:
        path.unlink()


def check_oracle_against_goldens() -> list[str]:
    """Disagreements between the oracle and ``tests/golden/check_*.json``."""
    problems = []
    goldens = sorted((ROOT / "tests" / "golden").glob("check_*.json"))
    if not goldens:
        return ["no tests/golden/check_*.json found"]
    for path in goldens:
        golden = json.loads(path.read_text(encoding="utf-8"))
        litmus = ROOT / "litmus" / f"{path.stem[len('check_'):]}.litmus"
        prog = oracle.parse_program(litmus.read_text(encoding="utf-8"))
        axioms = golden["axioms"]
        if axioms not in ("sc", "scpl"):
            continue
        allowed = oracle.allowed(prog, axioms)
        table = frozenset((oracle.key_of(o["outcome"]), o["allowed"]) for o in golden["outcomes"])
        if golden["result"] != oracle.verdict(prog, allowed) or table != oracle.outcome_table(prog, allowed):
            problems.append(f"oracle disagrees with {path.name}")
    return problems


# --- metrics ------------------------------------------------------------------


def command_means(w: Workload, res: dict, scaled: bool = False) -> list[float]:
    """Each command's mean time over the whole run, so every stretch of the
    run weighs the same in each figure: as measured, or ``scaled`` to the
    nominal host speed by the reference units timed near each of its runs."""
    samples: dict[int, list[float]] = {}
    for r in (r for p in res["passes"] for r in p):
        scale = reference.NOMINAL_UNIT_S / r["unit_s"] if scaled else 1.0
        samples.setdefault(r["cmd"], []).append(r["s"] * scale)
    return [statistics.fmean(samples[i]) for i in range(len(w.commands))]


def end_to_end(w: Workload, res: dict, setup_s: float, setup_unit_s: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, every time scaled to the nominal host speed:
    ``setup_s`` by the reference units timed after the launches, each
    command's time by those timed while it ran."""
    cands = sum(oracle.candidate_count(w.programs[c.program].program) for c in w.commands)
    times = command_means(w, res, scaled=True)
    wall = sum(times)
    times_ms = [t * 1e3 for t in times]
    return {
        "setup_s": (setup_s * reference.NOMINAL_UNIT_S / setup_unit_s, "s"),
        "wall_s": (wall, "s"),
        "cand_per_s": (cands / wall, "cand/s"),
        "check_ms.p50": (percentile(times_ms, 0.50), "ms"),
        "check_ms.p95": (percentile(times_ms, 0.95), "ms"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024, "MB"),
    }


def src_lines() -> dict[str, int]:
    src = ROOT / "src" / "axcat"
    return {
        name: len((src / f"{name}.py").read_text(encoding="utf-8").splitlines())
        if (src / f"{name}.py").exists()
        else 0
        for name in LAYERS
    }


def per_layer(w: Workload, res: dict, scpl_counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    stats = res["stats"]
    progs = [w.programs[c.program].program for c in w.commands]
    space = [oracle.candidate_count(p) for p in progs]
    cands = sum(space)

    def st(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    def per_cand_us(name: str) -> tuple[float, str]:
        return (st(name, "incl_s") * 1e6 / cands, "us/cand")

    def per_call_us(name: str) -> tuple[float, str]:
        calls = st(name, "calls")
        return (st(name, "incl_s") * 1e6 / calls if calls else 0.0, "us")

    def calls_per_cand(name: str, only: str | None = None) -> tuple[float, str]:
        picked = [i for i, c in enumerate(w.commands) if only is None or c.axioms == only]
        base = sum(space[i] for i in picked)
        calls = sum(res["per_command_calls"][i].get(name, 0) for i in picked)
        return (calls / base if base else 0.0, "calls/cand")

    counters = res["counters"]

    def ratio(key: str) -> tuple[float, str]:
        total = counters.get(key + ".of", 0)
        return (counters.get(key, 0) / total if total else 0.0, "ratio")

    built = st("enumeration.build_candidate", "calls")
    useful = sum(scpl_counts[c.program] for c in w.commands)
    gen = (
        st("enumeration.enumerate_candidates", "incl_s") + st("enumeration.iter_candidates", "incl_s")
    ) * 1e6 / cands
    m: dict[str, tuple[float, str]] = {
        "parser.parse_us": per_call_us("parser.parse_litmus"),
        "enumeration.generate_us_per_cand": (gen, "us/cand"),
        "enumeration.outcome_us_per_cand": per_cand_us("enumeration.outcome_of"),
        "enumeration.report_self_us_per_cand": (
            st("enumeration.allowed_outcomes", "self_s") * 1e6 / cands,
            "us/cand",
        ),
        "enumeration.cands_built": (built, "count"),
        "enumeration.scpl_pass_ratio": (useful / built if built else 0.0, "ratio"),
        "enumeration.alloc_peak_mb": (res["alloc_peak_bytes"] / 2**20, "MB"),
        "execution.derive_us_per_cand": per_cand_us("execution.derive"),
        "execution.derive_calls_per_cand": calls_per_cand("execution.derive"),
        "execution.derive_calls_per_cand_sc_arch": calls_per_cand("execution.derive", "sc-arch"),
        "execution.validate_us_per_cand": per_cand_us("execution.validate"),
        "execution.validate_reject_ratio": ratio("validate.rejects"),
    }
    for fn in AXIOM_FUNCS:
        m[f"axioms.{fn}_us_per_cand"] = per_cand_us(f"axioms.{fn}")
    m["axioms.result_for_us_per_cand"] = per_cand_us("axioms.Architecture.result_for")
    m["axioms.result_for_calls_per_cand"] = calls_per_cand("axioms.Architecture.result_for")
    m["axioms.result_for_calls_per_cand_sc_arch"] = calls_per_cand(
        "axioms.Architecture.result_for", "sc-arch"
    )
    replay = res["replay"]
    for method in ("find_cycle", "is_acyclic", "transitive_closure", "compose", "union"):
        m[f"relation.{method}_us"] = (replay["us_per_call"].get(method, 0.0), "us")
    m["collapse.collapse_cycle_us"] = per_call_us("collapse.collapse_cycle")
    m["cli.render_us_per_cand"] = (st("cli.main", "self_s") * 1e6 / cands, "us/cand")
    for layer in LAYERS:
        self_s = sum(s["self_s"] for n, s in stats.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_us_per_cand"] = (self_s * 1e6 / cands, "us/cand")
    lines = src_lines()
    for layer in LAYERS:
        m[f"src.{layer}.lines"] = (lines[layer], "lines")
    ref = res["reference"]
    ref_s = sum(r["s"] for r in ref)
    traced_s = sum(res["passes"][0][r["cmd"]]["s"] for r in ref)
    m["trace.overhead_ratio"] = (traced_s / ref_s if ref_s else 0.0, "ratio")
    return m


# --- the run ------------------------------------------------------------------


def prepare(w: Workload, out_dir: Path) -> dict[str, str]:
    """Write generated programs out; return each program's litmus path."""
    prog_dir = out_dir / "programs"
    prog_dir.mkdir()
    paths = {}
    for name, src in w.programs.items():
        if src.path is None:
            file = prog_dir / f"{name}.litmus"
            file.write_text(src.text, encoding="utf-8")
            paths[name] = str(file.relative_to(ROOT))
        else:
            paths[name] = src.path
    return paths


def argv_of(w: Workload, cmd: Command, paths: dict[str, str]) -> list[str]:
    return cmd.argv(paths[cmd.program], w.programs[cmd.program].program.cond_text())


def run_worker(plan: dict, out_dir: Path, deadline: float) -> dict:
    plan_path = out_dir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: the workload did not finish within {RUN_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(out + err)
        raise SystemExit(f"error: the worker exited with code {proc.returncode}")
    return json.loads((out_dir / "result.json").read_text(encoding="utf-8"))


def report(
    args,
    w: Workload,
    res: dict,
    setup: tuple[float, float],
    scpl_counts: dict[str, int],
    failures: list[str],
    oracle_problems: list[str],
    attempted: int,
) -> None:
    """Human-readable context printed ahead of the metrics. ``failures`` are
    wrong command outputs, the base of ``check_fail_ratio``; oracle
    disagreements with ``tests/golden`` are reported apart from them.
    ``setup`` is the median launch time and the mean reference unit time
    around the launches, both as measured."""
    total = sum(oracle.candidate_count(w.programs[c.program].program) for c in w.commands)
    useful = sum(scpl_counts[c.program] for c in w.commands)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"{len(w.programs)} programs, {len(w.commands)} commands per pass, {len(res['passes'])} passes")
    print(f"candidates per pass {total} (closed form), scpl-consistent {useful}, share {useful / total:.4f}")
    if len(w.programs) <= 4:
        for name, count in scpl_counts.items():
            print(f"  {name}: {count} of {oracle.candidate_count(w.programs[name].program)} candidates pass scpl")
        for r in res["passes"][0]:
            print(f"  {w.commands[r['cmd']].label()}: {r['s']:.3f} s")
    for msg in oracle_problems + failures[:20]:
        print(f"FAIL {msg}")
    print(f"check_fail_ratio {len(failures) / attempted:.6f} ({len(failures)} of {attempted} commands)")
    print(f"oracle vs tests/golden: {len(oracle_problems)} disagreements")
    if args.trace:
        replay = res["replay"]
        print(f"relation replay: {replay['inputs']} sampled calls, mean {replay['mean_ids']:.2f} ids")
        print(f"traced spans {res['spans']}; highest self time:")
        for name, s in sorted(res["stats"].items(), key=lambda kv: -kv[1]["self_s"])[:12]:
            print(f"  {name:45s} calls {s['calls']:>9d}  self {s['self_s']:8.3f} s")
    else:
        runs = sum(len(p) for p in res["passes"])
        print(f"check_ms over {len(w.commands)} commands, each the mean of its runs ({runs} runs in all)")
        times_ms = [t * 1e3 for t in command_means(w, res)]
        print(
            f"host speed: reference unit {setup[1] * 1e3:.3f} ms around set-up,"
            f" {res['unit_s'] * 1e3:.3f} ms in the workload ({res['units']} units);"
            f" the metrics are scaled to {reference.NOMINAL_UNIT_S * 1e3:.3f} ms"
        )
        print(
            f"as measured: setup_s {setup[0]:.6g} s, wall_s {sum(times_ms) / 1e3:.6g} s,"
            f" check_ms.p50 {percentile(times_ms, 0.50):.6g} ms,"
            f" check_ms.p95 {percentile(times_ms, 0.95):.6g} ms"
        )


def checkout_problems() -> list[str]:
    needed = [ROOT / "src" / "axcat" / "cli.py", ROOT / "litmus", ROOT / "tests" / "golden"]
    return [f"missing {p.relative_to(ROOT)}" for p in needed if not p.exists()]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    problems = checkout_problems()
    if problems:
        print("error: not an axcat checkout: " + "; ".join(problems), file=sys.stderr)
        return 2

    w = workloads.build(args.workload, args.seed)
    oracle_problems = check_oracle_against_goldens()
    setup_meter = reference.Meter()
    setup_times = time_setup(SETUP_LAUNCHES // 2, setup_meter)

    TMP.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    try:
        paths = prepare(w, out_dir)
        probe_cmd = Command("check", next(iter(w.programs)), "sc")
        plan = {
            "src": str(ROOT / "src"),
            "out_dir": str(out_dir),
            "seconds": args.seconds,
            "seed": args.seed,
            "trace": bool(args.trace),
            "commands": [argv_of(w, cmd, paths) for cmd in w.commands],
            "alloc_probe": argv_of(w, probe_cmd, paths),
        }
        res = run_worker(plan, out_dir, deadline)

        checked = [(w.commands[r["cmd"]], r) for p in res["passes"] for r in p]
        checked += [(w.commands[r["cmd"]], r) for r in res.get("reference", [])]
        if "alloc" in res:
            checked.append((probe_cmd, res["alloc"]))
        failures = []
        for cmd, r in checked:
            why = check_output(w, cmd, r, out_dir)
            if why:
                failures.append(f"{cmd.label()}: {why}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it

    setup_times += time_setup(SETUP_LAUNCHES - SETUP_LAUNCHES // 2, setup_meter)
    setup = (statistics.median(setup_times), setup_meter.unit_s())
    scpl_counts = {n: oracle.scpl_consistent_count(s.program) for n, s in w.programs.items()}
    metrics = per_layer(w, res, scpl_counts) if args.trace else end_to_end(w, res, *setup)
    report(args, w, res, setup, scpl_counts, failures, oracle_problems, len(checked))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures and not oracle_problems,
                "attempted": len(checked),
                "failed": len(failures),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
