"""Paired A/B runs of the benchmark: a git ref against the working tree.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --ref HEAD --workload mu-circle --pairs 10 \
        --out BENCH_6.json

Both sides run from copies made the same way, `git archive <tree> | tar
-x`, into two sibling temporary directories: the ref's tree, and a tree
of the working tree's files written from a throwaway index
(GIT_INDEX_FILE, `git add -A`, `git write-tree`), so that modified and
new files are included, ignored ones are not, and the real index is left
untouched.  Pair p (p = 1, 2, ...) runs `python3 perfbench/run.py
--workload W --seed F+p-1 --seconds S --trace 0` once on each side, and
alternates which side runs first (the ref on odd pairs).  F is
--first-seed (default 1): a later F gives a series on seeds not used
while a change was written, as a claim must also hold there.  S is
BENCHMARK.json's run_seconds, the same on both sides.  Each side runs the
perfbench of its own copy, so both use the benchmark as it is in that
tree.

Each invocation appends one series per workload to --out: its labels (ref,
ref commit, the working tree's commit and whether its tracked files
differed from it, with a hash of that diff, run length and machine), every
pair's end-to-end metrics, digest and correctness per side, and per metric
each side's median and quartiles, the number of pairs the working tree
won (ties count for neither side) and three verdicts:

- gain: the working tree won at least nine tenths of the pairs, and its
  median beats the ref's by more than the ref's interquartile spread
  (q3 - q1);
- within_bound: the working tree's median is worse than the ref's by at
  most BENCHMARK.json's bound for the metric, taken relative to the ref's
  median;
- unresolved: the ref's own interquartile spread is wider than that
  bound, so the series cannot tell a change within the bound from one
  beyond it, unless every working-tree run beats every ref run.

Each series also gives each side's failed share (failed items over
attempted items, summed over its runs) and a failed_share_not_worse
verdict: the working tree's share is at most the ref's.  It counts the
loaded pairs too: those where either side's smaller machine_ref_s
reading (perfbench times a fixed reference loop before and after each
run) is more than 1.2 times the smallest reading of the series, so that
the machine was busier during that side's whole run; one high reading
beside a quiet one is a lone spike and counts for nothing.  The count
only shows load; no pair is dropped or run again for it, and no verdict
reads it.

After each workload one line per metric is printed: the medians and
quartiles, the pairs won and the verdict (gain, unresolved, within_bound
or beyond_bound, in that order of precedence), then one line with the
digests, correctness, failed shares and loaded pairs.

Series already in the file are kept as they are, so the record holds
every run made.  Nothing under perfbench/
is read or written except by running it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--ref", required=True, help="git ref to compare against")
    p.add_argument("--workload", required=True, action="append",
                   help="perfbench workload (repeat for several)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1,
                   help="workload seed of the first pair (default 1)")
    p.add_argument("--out", required=True, help="JSON file to write or extend")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    if args.first_seed < 0:
        p.error("--first-seed must be >= 0")
    return args


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(ref: str, dest: Path) -> None:
    """The files of a commit or tree, unpacked into dest."""
    archive = subprocess.Popen(["git", "archive", ref], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {ref} failed")


def snapshot(dest: Path) -> None:
    """The working tree's files, as `git add -A` sees them, unpacked into
    dest; the tree is written from a throwaway index."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
        tree = subprocess.run(["git", "write-tree"], cwd=ROOT, env=env,
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    extract(tree, dest)


def working_tree() -> dict:
    """The working tree's commit, and the sha256 of its diff against it
    over tracked files (None when they match the commit)."""
    diff = subprocess.run(["git", "diff", "--binary", "HEAD"], cwd=ROOT,
                          check=True, capture_output=True).stdout
    return {"commit": git("rev-parse", "HEAD"),
            "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in checkout: its metrics and record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"with {done.returncode}")
    record, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digest": record["digest"], "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "machine_ref_s": record.get("machine_ref_s")}


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric (BENCHMARK.json entries: name, better, bound),
    each side's spread, the pairs the change won and the three verdicts;
    plus whether every pair had equal digests and correct runs, each
    side's failed share with whether the change's is no larger, and the
    number of loaded pairs (see the module docstring)."""
    out = {}
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        ref = [p["ref"]["metrics"][name] for p in pairs]
        new = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (r - c) > 0 for r, c in zip(ref, new))
        ref_s, new_s = spread(ref), spread(new)
        drop = sign * (ref_s["median"] - new_s["median"])
        ref_iqr = ref_s["q3"] - ref_s["q1"]
        allowed = metric["bound"] * abs(ref_s["median"])
        beats_all = (max(new) < min(ref) if direction == "lower"
                     else min(new) > max(ref))
        out[name] = {"ref": ref_s, "change": new_s, "better": direction,
                     "change_wins": wins, "pairs": len(pairs),
                     "gain": wins >= 0.9 * len(pairs) and drop > ref_iqr,
                     "within_bound": -drop <= allowed,
                     "unresolved": ref_iqr > allowed and not beats_all}
    out["digests_equal"] = all(p["ref"]["digest"] == p["change"]["digest"]
                               for p in pairs)
    out["all_correct"] = all(p[side]["correct"] for p in pairs
                             for side in ("ref", "change"))
    share = {}
    for side in ("ref", "change"):
        attempted = sum(p[side]["attempted"] for p in pairs)
        share[side] = (sum(p[side]["failed"] for p in pairs) / attempted
                       if attempted else 0.0)
    out["failed_share"] = share
    out["failed_share_not_worse"] = share["change"] <= share["ref"]
    # each side's smaller reading: one lone spike does not load a side
    quiet = [[min(p[side]["machine_ref_s"]) for side in ("ref", "change")
              if p[side].get("machine_ref_s")] for p in pairs]
    smallest = min((r for pair in quiet for r in pair), default=float("inf"))
    out["loaded_pairs"] = sum(max(pair, default=0.0) > 1.2 * smallest
                              for pair in quiet)
    return out


def run_pairs(dirs: dict, workload: str, seeds, seconds: int) -> list[dict]:
    """One pair per seed, the ref first on odd pairs (the 1st, 3rd, ...)."""
    pairs = []
    for p, seed in enumerate(seeds):
        order = ["ref", "change"] if p % 2 == 0 else ["change", "ref"]
        row = {"seed": seed, "first": order[0]}
        for side in order:
            start = time.perf_counter()
            row[side] = run_bench(dirs[side], workload, seed, seconds)
            row[side]["wall_s"] = time.perf_counter() - start
        pairs.append(row)
        print(f"{workload} seed {seed}: run_s "
              f"{row['ref']['metrics']['run_s']:.3f} -> "
              f"{row['change']['metrics']['run_s']:.3f}", flush=True)
    return pairs


def verdict_lines(workload: str, summary: dict, metrics: list[dict]
                  ) -> list[str]:
    """The printed verdict table of one series: a line per metric, then
    the digests, correctness and failed shares."""
    lines = []
    for metric in metrics:
        row = summary[metric["name"]]
        verdict = next((v for v in ("gain", "unresolved", "within_bound")
                        if row[v]), "beyond_bound")
        ref, new = row["ref"], row["change"]
        lines.append(
            f"{workload} {metric['name']}: {ref['median']:.4g} "
            f"({ref['q1']:.4g}-{ref['q3']:.4g}) -> {new['median']:.4g} "
            f"({new['q1']:.4g}-{new['q3']:.4g}), "
            f"{row['change_wins']}/{row['pairs']} won, {verdict}")
    share = summary["failed_share"]
    lines.append(f"{workload}: digests equal {summary['digests_equal']}, "
                 f"all correct {summary['all_correct']}, failed share "
                 f"{share['ref']:.3g} -> {share['change']:.3g}, loaded pairs "
                 f"{summary['loaded_pairs']}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out_path = Path(args.out)
    doc = (json.loads(out_path.read_text()) if out_path.exists()
           else {"workloads": {}})
    if set(doc) != {"workloads"}:
        raise SystemExit(f"error: {out_path} is not a record of this tool")
    labels = {"ref": args.ref, "ref_commit": git("rev-parse", args.ref),
              "change": working_tree(), "seconds": seconds,
              "first_seed": args.first_seed,
              "machine": {"python": platform.python_version(),
                          "machine": platform.machine(),
                          "cpus_usable": len(os.sched_getaffinity(0))}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {"ref": Path(tmp) / "ref", "change": Path(tmp) / "change"}
        for path in dirs.values():
            path.mkdir()
        extract(args.ref, dirs["ref"])
        snapshot(dirs["change"])
        seeds = range(args.first_seed, args.first_seed + args.pairs)
        for workload in args.workload:
            pairs = run_pairs(dirs, workload, seeds, seconds)
            summary = summarize(pairs, spec["end_to_end"])
            doc["workloads"].setdefault(workload, []).append(
                {**labels, "pairs": pairs, "summary": summary})
            out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            print("\n".join(verdict_lines(workload, summary,
                                          spec["end_to_end"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
