"""Stage-timed benchmark of the fieldimpact engine.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 32 --trace 0

``slices`` and ``rules`` first write their generated inputs in a child
process (``worlds.py``), once per run and untimed. ``--trace 0`` then sets
the workload up ``SETUPS`` times (``setup_s`` is the median), runs timed
passes for ``--seconds`` and reports the end-to-end metrics. ``--trace 1``
sets up once with wrappers installed, runs untraced and traced passes in
alternation for ``--seconds``, and reports the per-layer metrics and the
last traced pass's spans. Both modes check every pass's outputs. The metric names and units
come from ``BENCHMARK.json``; the last line of standard output is one
JSON object with the result.
Inputs are generated from ``--seed`` under ``.perfbench_work/`` in the
repository root, which is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "fieldimpact" / "__init__.py").is_file():
        print(f"error: engine sources not found under {src}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            report = traced_run(WORKLOADS[args.workload], args, work, declared["per_layer"])
        else:
            report = timed_run(WORKLOADS[args.workload], args, work, declared["end_to_end"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print_report(args, report)
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(wl, seconds: float, tracer=None):
    """Run whole passes while the next one is expected to end in time.

    With a tracer, untraced and traced passes alternate in the order
    U T T U U T ..., and the run ends after an even number of passes, so
    a slow period of the machine falls on both kinds alike.
    Returns (untraced durations, traced durations, PassLogs, per-pass
    trace values, peak RSS after the first pass). At least one pass runs;
    a pass that raises ends the measurement.
    """
    from layers import install
    from workloads import PassLog

    durations = {False: [], True: []}
    logs, values = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(logs) % 4 in (1, 2)
        log = PassLog(wl.steps)
        with install(tracer) if traced else nullcontext():
            t0 = time.perf_counter()
            try:
                wl.run_pass(log)
            except Exception as exc:  # counted as failed steps, reported below
                log.abort(exc)
            durations[traced].append(time.perf_counter() - t0)
        if traced:
            values.append(tracer.collect())
        if not log.aborted:
            wl.check(log)
        logs.append(log)
        if len(logs) == 1:
            rss = peak_rss_mb()
        elapsed = time.perf_counter() - start
        typical = statistics.median(durations[False] + durations[True])
        paired = tracer is None or len(logs) % 2 == 0
        if log.aborted or (paired and elapsed + typical > seconds):
            return durations[False], durations[True], logs, values, rss


def write_inputs(workload, seed: int, where: Path) -> Path | None:
    """Write a workload's generated inputs in a child process, untimed.

    The generators' own time and memory then stay out of ``setup_s`` and
    ``peak_rss_mb`` of this process.
    """
    if not workload.generated_inputs:
        return None
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worlds.py")),
         "--workload", workload.name, "--seed", str(seed), "--out", str(where)],
        check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    return where


def set_up(workload, args, where: Path, inputs: Path | None, tracer=None):
    wl = workload(args.seed, where, inputs, tracer)
    wl.setup()
    return wl


def timed_run(workload, args, work: Path, metrics) -> dict:
    inputs = write_inputs(workload, args.seed, work / "inputs")
    setup_times = []
    wl = None
    for k in range(SETUPS):
        if wl is not None:
            shutil.rmtree(wl.work)
            wl = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        wl = set_up(workload, args, work / f"setup{k}", inputs)
        setup_times.append(time.perf_counter() - t0)
    durations, _, logs, _, rss = run_passes(wl, args.seconds)
    pass_s = statistics.median(durations)
    values = {
        "pass_s": pass_s,
        "records_per_s": wl.n_records / pass_s,
        "setup_s": statistics.median(setup_times),
        # Later passes only add allocator growth that a one-pass run never
        # sees, and how many run depends on the machine's speed.
        "peak_rss_mb": rss,
    }
    return finish(wl, logs, metrics, values, durations, setup_times)


def traced_run(workload, args, work: Path, metrics) -> dict:
    from layers import install
    from tracing import Tracer

    inputs = write_inputs(workload, args.seed, work / "inputs")
    tracer = Tracer()
    with install(tracer):
        wl = set_up(workload, args, work / "setup0", inputs, tracer)
    at_setup = tracer.collect()
    plain, durations, logs, per_pass, _ = run_passes(wl, args.seconds, tracer)

    values = dict(at_setup)
    seen = {name for found in per_pass for name in found}
    for name in seen:
        values[name] = statistics.median(found.get(name, 0.0) for found in per_pass)
    t1, t2 = values.get("reconcile.reconcile_s", 0.0), values.get("reconcile.reconcile_s.t2", 0.0)
    values["reconcile.thread_speedup"] = t1 / t2 if t1 > 0 and t2 > 0 else 0.0
    if plain and durations:
        values["trace.overhead_s"] = statistics.median(durations) - statistics.median(plain)
    report = finish(wl, logs, metrics, values, durations, [])
    report["untraced"] = plain
    report["spans"] = tracer.last_spans
    return report


def finish(wl, logs, metrics, values, durations, setup_times) -> dict:
    attempted = sum(len(log.steps) for log in logs)
    failures = [f"pass {i + 1} {step}: {why}"
                for i, log in enumerate(logs) for step, why in log.failed.items()]
    digests = wl.digests() if not logs[-1].aborted else {}
    return {
        "workload": wl.name,
        "n_records": wl.n_records,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "durations": durations,
        "setup_times": setup_times,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in metrics},
    }


def print_report(args, report) -> None:
    mode = "traced" if args.trace else "timed"
    print(f"workload {report['workload']}, seed {args.seed}, {mode}, "
          f"{report['n_records']} input records")
    for label, times in ((f"{mode} passes", report["durations"]),
                         ("untraced passes", report.get("untraced", [])),
                         ("set-ups", report["setup_times"])):
        if times:
            print(f"  {len(times)} {label} (s): " + " ".join(f"{t:.3f}" for t in times))
    for name, m in report["metrics"].items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    ratio = report["failed"] / report["attempted"]
    print(f"  {'fail_ratio':<42} {ratio:>16.6g} ratio "
          f"({report['failed']}/{report['attempted']} operations)")
    spans = report.get("spans", [])
    if spans:
        print("  spans of the last traced pass (start and duration in s, parent index):")
    for i, (name, start, end, parent) in enumerate(spans):
        print(f"    {i:>3} {name:<40} {start - spans[0][1]:>9.4f} {end - start:>9.4f} {parent}")
    for line in report["failures"][:20]:
        print(f"  FAILED {line}")
    for name, digest in sorted(report["digests"].items()):
        print(f"  sha256 {digest}  {name}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    sys.exit(main())
