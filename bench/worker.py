"""One pass of one workload, in a fresh process.

usage: worker.py WORKLOAD SEED MODE WORK_DIR

MODE is `setup` (set up, then exit), `plain` (one untraced pass) or `traced`
(one pass with the layer wrappers installed).  The worker prints `ready`
once set-up is done, then `cal <seconds>`, one run of the speed kernel
(see `calibrate`), and, after a pass, a JSON line with the item timings,
check results and resource use.  A traced pass also writes its spans to
WORK_DIR/trace.json.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

CAL_LOOPS = 200_000
CAL_INTERVAL_S = 0.25  # items between two kernel runs share their speed


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel: the machine's current speed.

    The host's speed drifts by up to 2x over minutes; every timing is later
    scaled by how long this kernel took around it (see run.py)."""
    start = time.perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x += i * i
    return time.perf_counter() - start


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_items(items, tracer, cal_s: float):
    """Run and check each item; record
    [key, seconds, cpu_s, kernel seconds around it, fingerprint, error]."""
    records = []
    pending = []  # records since the last kernel run
    last_cal = time.perf_counter()
    cal_runs = [cal_s]
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = item.key
        fingerprint = None
        cpu = _cpu_s()
        start = time.perf_counter()
        try:
            output = item.work()
        except Exception as exc:  # a failed item is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = None
        seconds = time.perf_counter() - start
        cpu = _cpu_s() - cpu
        if error is None:
            try:
                fingerprint, error = item.check(output)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            del output
        record = [item.key, seconds, cpu, None, fingerprint, error]
        records.append(record)
        pending.append(record)
        if time.perf_counter() - last_cal >= CAL_INTERVAL_S or index == len(items) - 1:
            cal_runs.append(calibrate())
            for waiting in pending:
                waiting[3] = (cal_runs[-2] + cal_runs[-1]) / 2
            pending = []
            last_cal = time.perf_counter()
    return records, statistics.median(cal_runs)


def main(argv: list[str]) -> None:
    name, seed, mode, work_dir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    traced = mode == "traced"
    child_traces: list[Path] = []

    def launcher(args, item):
        trace_args = ()
        if traced and item != "setup":
            path = work_dir / f"spans-{item}.json"
            child_traces.append(path)
            trace_args = ("--trace", str(path), str(item))
        return workloads.run_twogen(args, trace_args=trace_args)

    items = workloads.WORKLOADS[name](seed, work_dir, launcher)
    tracer = None
    if traced and name != "cli":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    print("ready", flush=True)
    cal_s = calibrate()
    print(f"cal {cal_s!r}", flush=True)
    if mode == "setup":
        return

    records, pass_cal_s = run_items(items, tracer, cal_s)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    result = {"items": records, "cal_s": pass_cal_s, "peak_rss_mb": usage.ru_maxrss / 1024}

    if traced:
        if tracer is not None:
            spans, counters = tracer.spans, tracer.counters
        else:
            spans, counters = tracing.merge(tracing.read(path) for path in child_traces)
        layers = tracing.summary(spans, counters)
        layers["cli.process_s"] = 0.0
        if name == "cli":
            main_ns = sum(s[2] - s[1] for s in spans if s[0] == "cli.main" and s[3] < 0)
            layers["cli.process_s"] = sum(r[1] for r in records) - main_ns / 1e9
        result["layers"] = layers
        tracing.write(work_dir / "trace.json", spans, counters)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
