"""Resident memory after each stage of one S^2 certificate dump and of one
S^2 sweep trial.

Usage, from the root of a checkout:

    python3 tools/mem_stages.py --samples 4096 --seed 1

Each run goes in a fresh process, so that its peak starts from nothing:

- neighbors: what `neighbors --domain sphere --n 2 --samples N --seed S
  --map M --dump-certs --out /dev/null` does, stage by stage, M being the
  `sphere_harmonic` map into R^3 with seed [S, 1000] (the first map of the
  certs-s2 benchmark workload): import (fneighbors.cli), domain (samples
  and images), prelude (neighbors._clusters), Qhull
  (neighbors._triangulation), graph (neighbors._full_graph and
  extremal_pair) and writer (the report with its certificate list,
  written to /dev/null);
- verify-sphere: import, domain (the samples) and one trial of
  `verify-sphere --n 2 --m-out 3 --samples N --seed S --trials 1`.

After each stage one line gives VmHWM (the peak resident set so far) and
VmRSS (the resident set now) in MiB, as /proc/self/status reports them;
perfbench's peak_rss_mb reads the same peak (ru_maxrss).  Only
/proc/self/status is read, so the tool runs on Linux only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

RUNS = ("neighbors", "verify-sphere")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _memory() -> tuple[float, float]:
    """(VmHWM, VmRSS) of this process in MiB."""
    kib = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                kib[key] = int(value.split()[0])
    return kib["VmHWM"] / 1024.0, kib["VmRSS"] / 1024.0


def _stage(run: str, name: str) -> None:
    hwm, rss = _memory()
    print(f"{run:<14} {name:<8} {hwm:8.1f} {rss:8.1f}", flush=True)


def _neighbors(samples: int, seed: int) -> None:
    import fneighbors.cli as cli
    _stage("neighbors", "import")
    from fneighbors import neighbors as nb
    from fneighbors.domains import sample_sphere
    from fneighbors.maps import evaluate, map_to_json, random_map
    domain = sample_sphere(2, samples, seed=seed, scheme="quasi_uniform")
    spec = random_map("sphere_harmonic", 3, seed=[seed, 1000], d_in=3)
    images = evaluate(spec, domain)
    _stage("neighbors", "domain")
    prelude = nb._clusters(images)
    _stage("neighbors", "prelude")
    tri = nb._triangulation(prelude)
    _stage("neighbors", "Qhull")
    graph = nb._full_graph(images, domain, prelude, tri, nb.EPS_INSIDE_REL)
    del tri
    pair, df, cert = nb.extremal_pair(graph, domain)
    _stage("neighbors", "graph")
    report = {"command": "neighbors", "map": map_to_json(spec),
              "n_samples": len(domain), "n_certificates": len(graph),
              "df": float(df), "extremal_pair": list(pair),
              "extremal_certificate": cert.to_json(), "certificates": graph}
    cli._write_report(report, "/dev/null")
    _stage("neighbors", "writer")


def _verify_sphere(samples: int, seed: int) -> None:
    from fneighbors import muopt
    _stage("verify-sphere", "import")
    from fneighbors.domains import sample_sphere
    sample_sphere(2, samples, seed=seed, scheme="quasi_uniform")
    _stage("verify-sphere", "domain")
    muopt.verify_sphere_bound(2, 3, trials=1, n_samples=samples, seed=seed)
    _stage("verify-sphere", "trial")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("run", nargs="?", choices=RUNS,
                   help="one run in this process (default: each in a "
                        "fresh process)")
    args = p.parse_args(argv)
    if args.run == "neighbors":
        _neighbors(args.samples, args.seed)
    elif args.run == "verify-sphere":
        _verify_sphere(args.samples, args.seed)
    else:
        print(f"{'run':<14} {'stage':<8} {'VmHWM':>8} {'VmRSS':>8}  (MiB)",
              flush=True)
        # one BLAS thread unless set, as perfbench runs
        env = {**{k: "1" for k in BLAS_VARS}, **os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for run in RUNS:
            subprocess.run([sys.executable, __file__, "--samples",
                            str(args.samples), "--seed", str(args.seed), run],
                           check=True, env=env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
