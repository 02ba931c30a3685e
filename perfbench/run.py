"""fneighbors benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mu-circle --seed 0 --seconds 15 --trace 0

Workloads (see workloads.py): mu-circle, sweep-s2, certs-s2, cover-witness,
or `all`, which runs each of them in a fresh process and prints a table.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over three fresh processes of the set-up: importing
               fneighbors, building the domains and covers, and one
               warm-up item on a small input (first Qhull and HiGHS calls)
  run_s        wall time to finish the workload's fixed item list
  items_per_s  items finished per second of run_s
  peak_rss_mb  peak resident memory of the process, read before the checks
--trace 1 runs the item list once untraced and once traced, and reports the
per-layer metrics of the traced run (spans recorded by spans.py) plus the
tracing overhead, traced run_s minus untraced run_s.

The item list is fixed by --seed and --seconds, so two runs with the same
arguments do the same work and must give the same result digest.  Outputs
are checked after the timed region.  The line before the last one is a
JSON record with the digest, ops_failed_frac (items failing their output
checks over items attempted), the failure notes, per-call latencies and the
environment; the last line is the result the metrics are read from.

Every workload runs on one thread (`--threads 1` where the CLI has it):
trials run on Python threads, which the GIL serializes, so more threads only
add contention (on a 2-core x86 machine the S^2 sweep took 4.4 s at
--threads 1 against 4.9 s at --threads 2, and the cube sweep 2.0 s against
2.8 s).  BLAS threads are pinned to 1 unless already set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
NAMES = ("mu-circle", "sweep-s2", "certs-s2", "cover-witness")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
THREADS_NOTE = ("every workload runs at --threads 1: trials run on Python "
                "threads that the GIL serializes, so --threads 2 was slower "
                "on a 2-core machine (S^2 sweep 4.9 s vs 4.4 s, cube sweep "
                "2.8 s vs 2.0 s)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs and two items (determinism self-test)")
    p.add_argument("--spans", help="traced run: write every span as JSON here")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used internally)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_workloads():
    """Import the program from this checkout's src/ (never from an
    installed copy); fails when the checkout holds no program."""
    if not (SRC / "fneighbors" / "__init__.py").is_file():
        raise SystemExit(f"error: no fneighbors package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fneighbors
    import workloads

    if SRC not in Path(fneighbors.__file__).resolve().parents:
        raise SystemExit(f"error: fneighbors imported from {fneighbors.__file__}")
    return workloads


def timed_setup(args, workdir: Path):
    start = time.perf_counter()
    wl = import_workloads().WORKLOADS[args.workload](
        args.seed, args.seconds, args.tiny, workdir)
    wl.setup()
    return wl, time.perf_counter() - start


def setup_sample(args) -> float:
    """Set-up time of one fresh process running this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "seed": args.seed, "seconds": args.seconds, "tiny": args.tiny,
            "threads": 1, "threads_note": THREADS_NOTE}


def latency(calls) -> dict:
    """Median and p90 of the per-call wall times by CLI subcommand, with
    the sample count (p90 needs at least ten samples beyond it to mean
    much; with fewer calls it is shown for reference only)."""
    out = {}
    for tag in sorted({c.tag for c in calls}):
        d = [c.seconds for c in calls if c.tag == tag]
        p90 = statistics.quantiles(d, n=10, method="inclusive")[8] if len(d) > 1 else d[0]
        out[tag] = {"median_s": statistics.median(d), "p90_s": p90, "count": len(d)}
    return out


def reference_s() -> float:
    """Median of three timings of a fixed pure-Python loop: a reading of
    machine speed taken next to the timed run, to tell drift of a shared
    machine from a change of the program.  Not a metric."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_value(tracer, name: str, extra: dict) -> float:
    """Value of one per-layer metric of BENCHMARK.json from the tracer."""
    if name in extra:
        return extra[name]
    label, _, stat = name.rpartition(".")
    if stat == "calls":
        return tracer.calls.get(label, 0)
    if stat == "self_s":
        return tracer.self_s.get(label, 0.0)
    if stat in ("p50_ms", "p90_ms"):
        return tracer.percentile_ms(label, int(stat[1:3]))
    return tracer.counters.get(name, 0)


def ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def metric_block(kind: str, values: dict) -> dict:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[kind]}


def run_untraced(args, workdir: Path):
    wl, own_setup = timed_setup(args, workdir)
    samples = [own_setup] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    ref_before = reference_s()
    start = time.perf_counter()
    calls = wl.run("run")
    run_s = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_after = reference_s()
    outcome = wl.check(calls)
    values = {"setup_s": statistics.median(samples), "run_s": run_s,
              "items_per_s": outcome.items / run_s, "peak_rss_mb": peak_mb}
    info = {"setup_samples_s": samples, "latency": latency(calls),
            "machine_ref_s": [ref_before, ref_after]}
    return wl, outcome, metric_block("end_to_end", values), info


def run_traced(args, workdir: Path):
    import spans

    wl, _ = timed_setup(args, workdir)
    start = time.perf_counter()
    plain = wl.run("plain")
    plain_s = time.perf_counter() - start

    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        start = time.perf_counter()
        traced = wl.run("traced")
        traced_s = time.perf_counter() - start
    finally:
        tracer.active = False
        tracer.uninstall()

    tracer.count("cli.report_bytes", sum(c.out.stat().st_size for c in traced))
    outcome = wl.check(traced)
    plain_outcome = wl.check(plain)
    if plain_outcome.digest() != outcome.digest():
        outcome.refute("traced and untraced runs gave different results", 0)

    c = tracer.counters
    extra = {
        "neighbors.lp_yes_ratio": ratio(c.get("neighbors.pair_is_neighbor_fast.yes", 0),
                                        tracer.calls.get("neighbors.pair_is_neighbor_fast", 0)),
        "witness.ok_ratio": ratio(c.get("witness.witness_point.ok", 0),
                                  tracer.calls.get("witness.witness_point", 0)),
        "trace.overhead_s": traced_s - plain_s,
        "trace.spans": len(tracer.spans),
    }
    spec = json.loads(SPEC.read_text())
    values = {m["name"]: layer_value(tracer, m["name"], extra)
              for m in spec["per_layer"]}
    layers = tracer.layer_table()
    info = {"untraced_run_s": plain_s, "traced_run_s": traced_s,
            "absent": tracer.absent, "counters": dict(sorted(c.items())),
            "layers": layers,
            "self_share_of_run": {k: v["self_s"] / traced_s
                                  for k, v in layers.items()},
            "latency": latency(traced)}
    if args.spans:
        Path(args.spans).write_text(json.dumps(
            [{"id": i, "parent": p, "name": n, "start": s, "end": e}
             for i, p, n, s, e in tracer.spans]))
    return wl, outcome, metric_block("per_layer", values), info


def run_one(args) -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.setup_only:
            _, setup_s = timed_setup(args, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runner = run_traced if args.trace else run_untraced
        wl, outcome, metrics, info = runner(args, workdir)
    record = {"workload": wl.name, "trace": args.trace,
              "digest": outcome.digest(),
              "ops_failed_frac": {"value": ratio(outcome.failed, outcome.items),
                                  "unit": "ratio"},
              "items_failed": outcome.failed,
              "failures": outcome.failures, "wrong": outcome.wrong,
              **info, "env": environment(args)}
    print(json.dumps({"perfbench": record}))
    # "failed" counts broken items (errors, refuted claims); items that only
    # miss their goal, such as a search without a witness, are in the record
    print(json.dumps({"correct": not outcome.wrong, "attempted": outcome.items,
                      "failed": outcome.broken, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table."""
    records = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: workload {name} exited with {done.returncode}")
        record, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
        records.append((name, record, result))
        print(f"== {name}  digest {record['digest']}  correct {result['correct']}  "
              f"items failed {record['items_failed']}/{result['attempted']}  "
              f"broken {result['failed']}")
        metrics = dict(result["metrics"])
        if not args.trace:
            metrics["ops_failed_frac"] = record["ops_failed_frac"]
        for metric, v in metrics.items():
            print(f"   {metric:<44} {v['value']:>14.6g} {v['unit']}")
        for note in record["failures"] + record["wrong"]:
            print(f"   ! {note}")
    print(json.dumps({
        "correct": all(r["correct"] for _, _, r in records),
        "attempted": sum(r["attempted"] for _, _, r in records),
        "failed": sum(r["failed"] for _, _, r in records),
        "metrics": {f"{name}.{k}": v for name, _, r in records
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
