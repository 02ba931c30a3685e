"""Determinism self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload twice with `--trace 1 --tiny`, each time in a fresh
process, and requires of each pair:
  - both runs correct,
  - identical result digests,
  - identical counts: every per-layer metric counted in calls or bytes,
    every span label's call count and every counter of the trace.
It also requires that no file of the checkout changed, apart from the
benchmark's own scratch directories and Python bytecode caches (a workload
must never rewrite a tracked file such as acceptance_report.txt).
The spans of every traced run are written out and must nest: each span lies
inside the interval of the span that caused it, and the per-label self
times add up to the time covered by the top-level spans.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
NAMES = ("mu-circle", "sweep-s2", "certs-s2", "cover-witness")
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".bench_build"}
EXACT_UNITS = {"count", "bytes"}


def snapshot() -> dict[str, str]:
    out = {}
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if any(p in SKIP_DIRS or p.startswith(".perfbench-") for p in rel.parts):
            continue
        if path.is_file():
            out[str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def traced_run(name: str) -> tuple[dict, dict, list]:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        spans_file = Path(tmp) / "spans.json"
        cmd = [sys.executable, str(RUN), "--workload", name, "--seed", "0",
               "--seconds", "1", "--trace", "1", "--tiny",
               "--spans", str(spans_file)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{name}: benchmark exited with {done.returncode}")
        spans = json.loads(spans_file.read_text())
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1]), spans


def span_problems(record: dict, spans: list) -> list[str]:
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["parent"] != -1 and (parent is None or s["start"] < parent["start"]
                                  or s["end"] > parent["end"]):
            problems.append(f"span {s['id']} ({s['name']}) outside its parent")
            break
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] == -1)
    selfs = sum(v["self_s"] for v in record["layers"].values())
    if abs(roots - selfs) > 1e-6 * max(roots, 1.0):
        problems.append(f"self times add to {selfs} s, top-level spans to {roots} s")
    return problems


def counts(record: dict, result: dict) -> dict:
    exact = {k: v["value"] for k, v in result["metrics"].items()
             if v["unit"] in EXACT_UNITS}
    calls = {f"span:{k}": v["calls"] for k, v in record["layers"].items()}
    return {**exact, **calls, **record["counters"]}


def main() -> int:
    before = snapshot()
    ok = True
    for name in NAMES:
        (rec_a, res_a, spans_a), (rec_b, res_b, _) = traced_run(name), traced_run(name)
        problems = span_problems(rec_a, spans_a)
        if not (res_a["correct"] and res_b["correct"]):
            problems.append(f"incorrect: {rec_a['wrong'] + rec_b['wrong']}")
        if rec_a["digest"] != rec_b["digest"]:
            problems.append(f"digests {rec_a['digest']} != {rec_b['digest']}")
        ca, cb = counts(rec_a, res_a), counts(rec_b, res_b)
        diff = sorted(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))
        if diff:
            problems.append(f"counts differ: {diff}")
        ok = ok and not problems
        print(f"{name:<14} digest {rec_a['digest']}  {len(ca)} counts  "
              f"{'ok' if not problems else 'FAIL: ' + '; '.join(problems)}")
    after = snapshot()
    changed = sorted(k for k in before.keys() | after.keys()
                     if before.get(k) != after.get(k))
    if changed:
        ok = False
        print(f"files changed by the benchmark: {changed}")
    else:
        print(f"no file of the checkout changed ({len(before)} files)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
