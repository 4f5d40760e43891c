"""Benchmark for twogen: four workloads, timed end to end and traced per layer.

usage: python3 bench/run.py [--workload derive|sweep|census|cli|all]
                            [--seed N] [--seconds S] [--trace 0|1]

The source tree is found next to this directory, so it runs from anywhere.
Each pass of a workload runs in a fresh worker process (see worker.py);
passes repeat until --seconds are over and there are at least MIN_PASSES of
each kind.  Metric names and units come from BENCHMARK.json:

  --trace 0  untraced passes; prints the end_to_end metrics.  Each item's
             time is the median over the passes, run_s and cpu_s are sums
             over the items, setup_s is the median over every process set up.
  --trace 1  alternates untraced and traced passes; prints the per_layer
             metrics (call counts and self times, medians over the traced
             passes) and trace_overhead_s = traced run_s - untraced run_s.

Times are reported at a reference machine speed: a shared 2-core VM drifts by
up to 2x within minutes, so the worker runs a fixed pure-Python kernel
every quarter second and each time is multiplied by
REFERENCE_CAL_S / (the kernel's time around it).  The report lines show the
unscaled run time too.

Every item's output is checked (see workloads.py and expected.json).  The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the exit code is 1 if any check failed, 2 on a usage error or
when the twogen sources are missing.  `--workload all` (the default) runs the
four in turn and prefixes each metric with its workload.  Spans of the last
traced pass go to .bench_out/trace-<workload>.json; scratch files live in
.bench_work/ and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("derive", "sweep", "census", "cli")
MIN_PASSES = 3  # per-item medians need three passes to drop one slow pass
SETUP_ONLY_PER_PASS = 2  # set-up-only processes before each untraced pass
PASS_TIMEOUT_S = 150
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 50)
# Seconds the worker's speed kernel takes on the reference machine (2-core
# Xeon at 2.0 GHz, Python 3.11.7, idle).  Every time is reported at that
# speed: scaled by REFERENCE_CAL_S / the kernel's time around the measurement.
REFERENCE_CAL_S = 0.015


class PassFailed(RuntimeError):
    pass


def tail_latency(values: list[float]) -> tuple[float, str]:
    """The highest of TAIL_PERCENTILES with at least ten values beyond it,
    by nearest rank; the maximum when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return ordered[math.ceil(p / 100 * n) - 1], f"p{p}"
    return ordered[-1], "max"


def spawn(workload: str, seed: int, mode: str, work_dir: Path) -> tuple[float, dict | None]:
    """Start one worker; return (seconds until it was ready, scaled to the
    reference speed, and its result)."""
    work_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode, str(work_dir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        cal = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "ready" or not cal.startswith("cal "):
        raise PassFailed(f"{workload} worker ({mode}) exited with code {code}")
    setup_s *= REFERENCE_CAL_S / float(cal.split()[1])
    return setup_s, json.loads(rest.splitlines()[-1]) if mode != "setup" else None


def check_items(workload: str, items: list, expected: dict) -> list[str]:
    """Errors of the pass: failed invariants and outputs that differ from
    the reference recorded in expected.json."""
    reference = expected.get(workload, {})
    errors = []
    for key, _, _, _, fingerprint, error in items:
        if error is None and fingerprint is not None and reference.get(key) != fingerprint:
            error = "output differs from expected.json"
        if error is not None:
            errors.append(f"{workload} {key}: {error}")
    return errors


def run_workload(workload: str, seed: int, seconds: int, trace: bool, expected: dict) -> dict:
    """Run passes for `seconds`, and at least MIN_PASSES of each mode;
    return samples, counts and errors."""
    scratch = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    counter = iter(range(1 << 30))

    def fresh_dir() -> Path:
        return scratch / str(next(counter))

    run = {"setup_s": [], "passes": {"plain": [], "traced": []}, "attempted": 0, "errors": []}
    try:
        spawn(workload, seed, "setup", fresh_dir())  # warm-up: byte-code and file caches
        modes = ("plain", "traced") if trace else ("plain",)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(run["passes"]["plain"]) < MIN_PASSES:
            for mode in modes:
                if mode == "plain" and not trace:
                    for _ in range(SETUP_ONLY_PER_PASS):
                        run["setup_s"].append(spawn(workload, seed, "setup", fresh_dir())[0])
                work_dir = fresh_dir()
                setup_s, result = spawn(workload, seed, mode, work_dir)
                run["setup_s"].append(setup_s)
                run["passes"][mode].append(result)
                run["attempted"] += len(result["items"])
                run["errors"] += check_items(workload, result["items"], expected)
                if mode == "traced":
                    out = ROOT / ".bench_out"
                    out.mkdir(exist_ok=True)
                    shutil.move(work_dir / "trace.json", out / f"trace-{workload}.json")
    except (PassFailed, subprocess.SubprocessError, OSError, ValueError) as exc:
        run["attempted"] += 1
        run["errors"].append(f"{workload}: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.parent.rmdir()
    return run


def item_medians(passes: list[dict], field: int, scaled: bool = True) -> list[float]:
    """Each item's time (at the reference speed), median over the passes.
    Every pass of a run runs the same items in the same order."""
    columns = zip(
        *(
            [r[field] * (REFERENCE_CAL_S / r[3] if scaled else 1) for r in result["items"]]
            for result in passes
        )
    )
    return [statistics.median(column) for column in columns]


def end_to_end(run: dict) -> tuple[dict, dict]:
    """Metric values and, for the report, how each was sampled."""
    passes = run["passes"]["plain"]
    latency_ms = [seconds * 1e3 for seconds in item_medians(passes, 1)]
    tail, tail_name = tail_latency(latency_ms)
    values = {
        "setup_s": statistics.median(run["setup_s"]),
        "run_s": sum(latency_ms) / 1e3,
        "cpu_s": sum(item_medians(passes, 2)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "call_p50_ms": statistics.median(latency_ms),
        "call_tail_ms": tail,
    }
    per_item = f"{len(latency_ms)} items, each the median of {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(run['setup_s'])} processes",
        "run_s": f"sum over {per_item}; unscaled {sum(item_medians(passes, 1, False)):.3f} s",
        "cpu_s": f"sum over {per_item}",
        "peak_rss_mb": f"median of {len(passes)} passes",
        "call_p50_ms": f"p50 of {per_item}",
        "call_tail_ms": f"{tail_name} of {per_item}",
    }
    return values, notes


def per_layer(run: dict) -> tuple[dict, dict]:
    traced = run["passes"]["traced"]
    values = {}
    for name in traced[0]["layers"]:
        scale = [REFERENCE_CAL_S / r["cal_s"] if name.endswith("_s") else 1 for r in traced]
        values[name] = statistics.median(r["layers"][name] * k for r, k in zip(traced, scale))
    plain_s = sum(item_medians(run["passes"]["plain"], 1))
    traced_s = sum(item_medians(traced, 1))
    values["trace_overhead_s"] = traced_s - plain_s
    notes = dict.fromkeys(values, f"median of {len(traced)} traced passes")
    notes["trace_overhead_s"] = f"traced run_s {traced_s:.3f} s - untraced run_s {plain_s:.3f} s"
    return values, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "twogen" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no twogen source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    metrics, attempted, errors = {}, 0, []
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace), expected)
        attempted += run["attempted"]
        errors += run["errors"]
        if errors:
            continue
        values, notes = per_layer(run) if args.trace else end_to_end(run)
        prefix = f"{workload}." if args.workload == "all" else ""
        for metric in wanted:
            name, unit = metric["name"], metric["unit"]
            print(f"{workload:6} {name:40} {values[name]:14.6f} {unit:6} ({notes[name]})")
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    for error in errors:
        print(f"FAILED {error}")
    result = {
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": len(errors),
        "metrics": metrics if not errors else {},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
