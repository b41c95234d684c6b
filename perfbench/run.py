"""Benchmark of ampgraph: time to a fully checked verdict, per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cw-ladder --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the same workload with every public ampgraph callable wrapped in a span
and prints the per-layer metrics.  Every output is checked against answers
computed without ampgraph (see ``oracle.py``).  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; details
(per-input rows, spans, tail percentile, raw times, missing wrap targets) go
to ``perfbench/out/``.  ``--negative-control`` skews one expected answer so
the checks can be seen to fail.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from spans import Recorder, combine, scale
from workloads import WORKLOADS, CliCold, Program, child_env, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh-interpreter set-ups measured per run; setup_s is their median.
SETUP_REPEATS = 5
#: Repeats of each cold-start probe in the traced run.
PROBE_REPEATS = 5
#: In-process passes over the CLI mix in a traced cli-cold run.
CLI_TRACED_PAIRS = 10
#: A run stops starting passes after this many times ``--seconds``, so a
#: slow spell of the machine cannot stretch it without bound.
CAP = 1.5
#: Seconds :func:`reference_loop` takes on an uncontended 2-vCPU x86-64 container.
REF_SECONDS = 0.0025


# -- time at reference speed ---------------------------------------------------
#
# The machines this runs on share cores with other tenants, and their speed
# changes by up to 1.8x for seconds to minutes at a time.  Every time below is
# therefore rescaled to the speed of a fixed pure-Python loop timed right
# before and right after the measured call: raw * REF_SECONDS / loop time.


def reference_loop() -> int:
    """Dictionary, tuple and sort work much like ampgraph's inner loops."""
    acc: dict = {}
    for i in range(10000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i * 3
    return len(sorted(acc.items(), key=lambda kv: (kv[1], kv[0])))


def loop_seconds() -> float:
    """The fastest of three reference loops: the machine's speed just now."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best


def timed(fn, *args):
    """Call ``fn(*args)``: (result, traceback or None, scaled seconds, raw seconds)."""
    before = loop_seconds()
    start = perf_counter()
    try:
        out, err = fn(*args), None
    except Exception:  # a crash is a failed item; the caller keeps measuring
        out, err = None, traceback.format_exc(limit=3)
    raw = perf_counter() - start
    return out, err, raw * 2 * REF_SECONDS / (before + loop_seconds()), raw


def passes_for(workload, seconds: int) -> int:
    """Passes per run, fixed by ``--seconds`` alone.

    The pass count is not decided by the clock, so every run of a workload
    takes the same number of samples and the tail percentile always lands
    on the same rank.  ``pass_seconds`` is a pass's raw time on the
    reference container, so a run lasts about ``--seconds`` there.
    """
    return max(1, round(seconds / workload.pass_seconds))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With fewer than 21 samples
    that percentile would not lie above the median, so the maximum is
    returned instead, as percentile 100.
    """
    xs = sorted(samples)
    idx = len(xs) - 11 if len(xs) >= 21 else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs)


class Tally:
    """Items attempted and failed, with the first few faults for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def record(self, name: str, faults: list[str]) -> None:
        self.attempted += 1
        if faults:
            self.failed += 1
            if len(self.faults) < 20:
                self.faults.append(f"{name}: {'; '.join(faults)}")


def run_pass(wl, items, run, rng: random.Random, tally: Tally) -> dict[str, tuple[float, float]]:
    """One pass over every item in seeded random order: name -> (scaled, raw) seconds."""
    order = list(items)
    rng.shuffle(order)
    times = {}
    for item in order:
        # Every item starts on a collected heap, whatever ran before it.
        gc.collect()
        out, err, scaled, raw = timed(run, item)
        times[item.name] = (scaled, raw)
        tally.record(item.name, [err] if err else wl.check(item, out))
        del out
    return times


def pass_total(times: dict) -> tuple[float, float]:
    """(scaled, raw) seconds of a whole pass."""
    return sum(s for s, _ in times.values()), sum(r for _, r in times.values())


def spawn_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it reports set-up done."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up child failed")
    return elapsed


def time_setup(name: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter, at reference speed."""
    elapsed, err, scaled, raw = timed(spawn_setup, name, seed)
    if err:
        raise RuntimeError(err)
    return elapsed * scaled / raw


def metric_table(key: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def untraced(args, wl, items, tally) -> tuple[dict, dict]:
    setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    rng = random.Random(args.seed)
    samples: dict[str, list[tuple[float, float]]] = {item.name: [] for item in items}
    start = perf_counter()
    for _ in range(passes_for(wl, args.seconds)):
        for name, t in run_pass(wl, items, wl.run, rng, tally).items():
            samples[name].append(t)
        if perf_counter() - start > CAP * args.seconds:
            break
    if isinstance(wl, CliCold):
        peak_kib = wl.peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # An input's latency is its median over the passes of this run.
    latency = {k: statistics.median(s for s, _ in v) for k, v in samples.items()}
    tail_value, pct, count = tail(list(latency.values()))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latency.values()),
        "peak_rss_mb": peak_kib / 1024,
        "item_p50_s": statistics.median(latency.values()),
        "item_tail_s": tail_value,
    }
    detail = {
        "setup_samples": setups, "tail_percentile": pct, "samples": count,
        "raw_wall_s": sum(statistics.median(r for _, r in xs) for xs in samples.values()),
        "item_median_s": latency,
    }
    return values, detail


def cold_start_probes() -> dict:
    """Interpreter start, ``import ampgraph``, and numpy's share of that import."""

    def child(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, check=True)

    def numpy_seconds(stderr: str) -> float:
        rows = [line.split("|") for line in stderr.splitlines() if line.startswith("import time:")]
        return sum(int(r[1]) for r in rows if len(r) == 3 and r[2].strip() == "numpy") / 1e6

    timed_import = ("import time; t = time.perf_counter(); import ampgraph; "
                    "print(time.perf_counter() - t)")
    interp, imports, numpy = [], [], []
    for _ in range(PROBE_REPEATS):
        runs = [timed(child, *argv) for argv in (
            ("-c", "pass"), ("-c", timed_import), ("-X", "importtime", "-c", "import ampgraph"))]
        for _, err, _, _ in runs:
            if err:
                raise RuntimeError(err)
        (_, _, scaled, _), (out, _, s_imp, r_imp), (prof, _, s_np, r_np) = runs
        interp.append(scaled)
        # The import probes report their own share of the child's life.
        imports.append(float(out.stdout) * s_imp / r_imp)
        numpy.append(numpy_seconds(prof.stderr) * s_np / r_np)
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(imports),
            "cli.import_numpy_s": statistics.median(numpy)}


def traced(args, wl, items, warm, tally) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer values from the traced ones."""
    warm_rec, warm_factor = warm
    run = wl.run
    pairs = math.ceil(passes_for(wl, args.seconds) / 2)
    if isinstance(wl, CliCold):
        run, pairs = wl.run_inprocess, CLI_TRACED_PAIRS
    values = cold_start_probes()
    rng = random.Random(args.seed)
    plain, recs, traced_times = [], [], []
    for i in range(pairs):
        # Alternate which side of a pair runs first, so drift hits both.
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_side:
                rec = Recorder()
                with rec.installed():
                    traced_times.append(run_pass(wl, items, run, rng, tally))
                recs.append(rec)
            else:
                plain.append(run_pass(wl, items, run, rng, tally))
    per_pass = []
    for rec, times in zip(recs, traced_times):
        scaled, raw = pass_total(times)
        per_pass.append(scale(rec.metrics(), scaled / raw))
    layer, unstable = combine(scale(warm_rec.metrics(), warm_factor), per_pass)
    values.update(layer)
    plain_s = statistics.median(pass_total(t)[0] for t in plain)
    traced_s = statistics.median(pass_total(t)[0] for t in traced_times)
    values["trace.overhead_s"] = traced_s - plain_s
    rows = [{"item": item.name, "vertices": item.facts.get("vertices"),
             "families": item.facts.get("families"),
             "seconds": statistics.median(t[item.name][0] for t in plain),
             "traced_seconds": statistics.median(t[item.name][0] for t in traced_times)}
            for item in items]
    coverage = [r.top_level_seconds() / pass_total(t)[1] for r, t in zip(recs, traced_times)]
    detail = {"missing_targets": warm_rec.missing, "unstable_counts": unstable,
              "untraced_wall_s": plain_s, "traced_wall_s": traced_s,
              "top_level_span_share": coverage, "rows": rows,
              "warm_up": scale(warm_rec.metrics(), warm_factor)}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
        for label, rec in [("warm-up", warm_rec)] + [(f"pass{i}", r) for i, r in enumerate(recs)]:
            for sid, parent, name, start, end in rec.spans:
                fh.write(json.dumps({"pass": label, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
    return values, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true",
                    help="skew one expected answer; the run must then report failures")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    prog = Program()
    wl = WORKLOADS[args.workload](prog, args.seed)
    items = wl.items()
    if args.setup_only:
        warm_up(prog)
        print("ready", flush=True)
        return 0
    warm_rec = Recorder()
    with warm_rec.installed() if args.trace else nullcontext():
        warm, err, scaled, raw = timed(warm_up, prog)
    if err:
        raise RuntimeError(f"warm-up failed:\n{err}")
    if isinstance(wl, CliCold):
        wl.expected.update(warm)
    if args.negative_control:
        items[-1].skew = 1

    tally = Tally()
    if args.trace:
        values, detail = traced(args, wl, items, (warm_rec, scaled / raw), tally)
    else:
        values, detail = untraced(args, wl, items, tally)
    table = metric_table("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}

    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, attempted=tally.attempted, failed=tally.failed,
                  faults=tally.faults, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in table:
        print(f"  {name:40s} {values[name]:14.6f} {unit}")
    print(f"  {'fail_ratio':40s} {tally.failed / max(tally.attempted, 1):14.6f} "
          f"({tally.failed} of {tally.attempted} attempted)")
    if "tail_percentile" in detail:
        print(f"  item_tail_s is p{detail['tail_percentile']:.1f} of {detail['samples']} inputs")
    for key in ("missing_targets", "unstable_counts"):
        for name in detail.get(key, []):
            print(f"  {key.replace('_', ' ')}: {name}")
    for fault in tally.faults:
        print(f"  FAIL {fault}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "ampgraph" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no ampgraph sources or fixtures under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    # One CPU for this process and every child it starts, so the reference
    # loop always measures the CPU the timed work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
