"""The four benchmark workloads.

Each workload is a fixed list of CLI invocations (`fneighbors.cli.main`
with `--out` into the run's scratch directory), made from the workload seed
and sized from the requested run length.  `run` executes the list as a
closed loop on one thread: the next invocation starts only after the
previous one returned.  `check` then judges every item against checks that
do not trust the program's own verdicts, and collects the deterministic
outputs that make up the result digest.

An item fails its output check when it does not deliver what the workload
asks of it, for example a witness search that ends in `no-witness-found`;
these make up ops_failed_frac.  An item is broken when the program errs
(exit code 3) or claims something an independent check refutes (a
certificate that does not hold, a D_f below a proven bound).  A broken item
is also failed, and any refuted claim makes the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fneighbors.cli
from fneighbors.domains import (
    cube_boundary_cover,
    regular_triangulation_cover,
    sample_sphere,
)
from fneighbors.geometry import Sphere
from fneighbors.maps import (
    discretization_allowance,
    evaluate,
    map_from_json,
    map_to_json,
    random_map,
)
from fneighbors.neighbors import (
    NeighborCertificate,
    check_certificate,
    compute_df,
    neighbor_graph,
)
from fneighbors.witness import witness_slack

# The proven separation bounds sqrt((n+2)/n), written out here so the
# checks do not depend on the program's own geometry.separation_bound.
CIRCLE_BOUND = math.sqrt(3.0)
SPHERE_BOUND = math.sqrt(2.0)
# witness residual gate, relative to the image diameter (WitnessConfig default)
WITNESS_GATE_REL = 1e-3
# certificates re-validated per dumped report, besides the extremal one
CERT_SAMPLE = 32

# Seconds per item at the parent commit on a 2-core x86 machine.  They only
# size the fixed item list so that one run lasts about --seconds there; a
# faster program finishes the same list sooner.
MU_EVAL_S = 0.033
SWEEP_MAP_S = 1.0
CERT_MAP_S = 2.4
CUBE_TRIAL_S = 0.45
S2_SEARCH_S = 0.9
# Cube trials cost 0.2-1.3 s each depending on the map, S^2 searches
# 0.5-1.35 s, so a few cube trials and many S^2 searches keep the spread of
# run_s across seeds small.
CUBE_TRIALS = 3

# small inputs for the warm-up item of every set-up, and for --tiny runs
SMALL_N = 256


def run_cli(args: list[str], out: Path) -> int:
    """One closed-loop item: the CLI exactly as a user calls it.  Its
    one-line summary on stdout is discarded; the report goes to `out`."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fneighbors.cli.main([*args, "--out", str(out)])


def f12(value: float) -> str:
    """Digest form of a float: 12 significant digits, so last-bit
    differences from a reordered sum do not change the digest."""
    return f"{float(value):.12g}"


@dataclass
class Call:
    tag: str
    args: list[str]
    out: Path
    code: int
    seconds: float


@dataclass
class Outcome:
    items: int = 0
    failed: int = 0
    broken: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    results: list = field(default_factory=list)

    def fail(self, note: str, n: int = 1) -> None:
        self.failed += n
        self.failures.append(note)

    def refute(self, note: str, n: int = 1) -> None:
        """A refuted claim; n is the number of items it breaks (0 for a
        claim about the run as a whole)."""
        self.failed += n
        self.broken += n
        self.wrong.append(note)

    def digest(self) -> str:
        text = json.dumps(self.results, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.workdir = workdir
        self.calls: list[tuple[str, list[str]]] = []
        self.warmup: list[tuple[str, list[str]]] = []

    def count(self, item_s: float) -> int:
        return 2 if self.tiny else max(1, round(self.seconds / item_s))

    def build(self) -> None:
        """Make domains, covers and the item list (set-up, untimed parts
        of the checks included)."""
        raise NotImplementedError

    def setup(self) -> None:
        self.build()
        for call in self.execute(self.warmup, "warmup"):
            if call.code not in (0, 1):
                raise RuntimeError(f"{self.name}: warm-up {call.tag} exited "
                                   f"with {call.code}")

    def execute(self, calls, prefix: str) -> list[Call]:
        done = []
        for k, (tag, args) in enumerate(calls):
            out = self.workdir / f"{prefix}-{k}.json"
            start = time.perf_counter()
            code = run_cli(args, out)
            done.append(Call(tag, args, out, code, time.perf_counter() - start))
        return done

    def run(self, prefix: str) -> list[Call]:
        return self.execute(self.calls, prefix)

    def check(self, calls: list[Call]) -> Outcome:
        raise NotImplementedError


def _report(call: Call) -> dict:
    return json.loads(call.out.read_text())


def _internal(outcome: Outcome, call: Call, n: int = 1) -> bool:
    """Exit codes 0 (pass) and 1 (property violation, report written) are
    program answers; anything else is an internal failure of n items."""
    if call.code in (0, 1):
        return False
    outcome.refute(f"{call.tag}: exit code {call.code}", n)
    return True


class MuCircle(Workload):
    name = "mu-circle"

    def build(self):
        n = 64 if self.tiny else 512
        # Short restarts always exhaust their budget (Nelder-Mead in 14
        # parameters cannot meet its tolerances in ~50 evaluations), which
        # keeps the evaluation count, and so run_s, the same for every seed.
        if self.tiny:
            probes, restarts, budget = 4, 1, 8
        else:
            probes, restarts = 32, 8
            budget = max(20, round((self.seconds / MU_EVAL_S - probes) / restarts))
        self.planned_evals = probes + restarts * budget
        self.dense = sample_sphere(1, 2 * n, seed=self.seed, scheme="quasi_uniform")
        base = ["mu", "--n", "1", "--m-out", "2", "--family", "circle_fourier",
                "--degree", "3", "--samples", str(n), "--seed", str(self.seed)]
        self.calls = [("mu", [*base, "--probes", str(probes), "--restarts",
                              str(restarts), "--budget", str(budget)])]
        self.warmup = [("mu", [*base, "--probes", "1", "--restarts", "0"])]

    def check(self, calls):
        # one mu run: when it is refuted, every evaluation in it is broken
        outcome = Outcome(items=self.planned_evals)
        (call,) = calls
        if _internal(outcome, call, self.planned_evals):
            return outcome
        rep = _report(call)
        if call.code != 0:
            # BoundViolationError: a certified D_f below a proven bound
            outcome.refute(f"mu: {rep.get('violation')}", self.planned_evals)
            return outcome
        est = rep["result"]
        evals = outcome.items = int(est["settings"]["evals"])
        spec = map_from_json(est["best_map"])
        images = evaluate(spec, self.dense)
        allowance = discretization_allowance(images, self.dense)
        again = compute_df(neighbor_graph(images, self.dense), self.dense)
        bad = []
        if est["best_df"] < CIRCLE_BOUND - allowance:
            bad.append(f"best_df {est['best_df']!r} below sqrt(3) - {allowance!r}")
        if again != est["best_df"]:
            bad.append(f"best_df {est['best_df']!r} does not reproduce ({again!r})")
        if bad:
            outcome.refute(f"mu: {'; '.join(bad)}", evals)
        outcome.results = {"best_df": f12(est["best_df"]),
                           "best_map": [f12(p) for p in spec.params],
                           "evals": evals,
                           "trace": [[i, f12(v)] for i, v in est["trace"]]}
        return outcome


class SweepS2(Workload):
    name = "sweep-s2"

    def build(self):
        n = SMALL_N if self.tiny else 4096
        self.trials = self.count(SWEEP_MAP_S)
        self.domain = sample_sphere(2, n, seed=self.seed, scheme="quasi_uniform")
        base = ["verify-sphere", "--n", "2", "--m-out", "3", "--seed",
                str(self.seed), "--threads", "1"]
        self.calls = [("verify-sphere", [*base, "--samples", str(n),
                                         "--trials", str(self.trials)])]
        self.warmup = [("verify-sphere", [*base, "--samples", str(SMALL_N),
                                          "--trials", "1"])]

    def check(self, calls):
        outcome = Outcome(items=self.trials)
        (call,) = calls
        if _internal(outcome, call, self.trials):
            return outcome
        rep = _report(call)
        if rep.get("result") is None:
            outcome.refute(f"verify-sphere: {rep.get('violation')}", self.trials)
            return outcome
        if not rep["all_ok"]:
            outcome.refute("verify-sphere: all_ok is false", 0)
        rows = rep["result"]["trials"]
        if len(rows) != self.trials:
            outcome.refute(f"verify-sphere: {len(rows)} trial rows", 0)
        for row in rows:
            images = evaluate(map_from_json(row["map"]), self.domain)
            allowance = discretization_allowance(images, self.domain)
            i, j = row["extremal_pair"]
            bad = []
            if row["df"] < SPHERE_BOUND - allowance:
                bad.append(f"df {row['df']!r} below sqrt(2) - {allowance!r}")
            if abs(self.domain.rho(i, j) - row["df"]) > 1e-12:
                bad.append("df is not the distance of the extremal pair")
            if bad:
                outcome.refute(f"trial {row['trial']}: {'; '.join(bad)}")
            outcome.results.append([f12(row["df"]), [i, j],
                                    row["n_certificates"]])
        return outcome


def _cert_from_json(doc: dict) -> NeighborCertificate:
    w = doc["witness"]
    if not isinstance(w, str):
        w = Sphere(center=np.asarray(w["center"], dtype=float),
                   radius=float(w["radius"]))
    return NeighborCertificate(indices=tuple(doc["indices"]), witness=w,
                               slack=doc["slack"],
                               pair_distance=doc["pair_distance"])


class CertsS2(Workload):
    name = "certs-s2"

    def build(self):
        n = SMALL_N if self.tiny else 4096
        self.domain = sample_sphere(2, n, seed=self.seed, scheme="quasi_uniform")
        self.specs = [random_map("sphere_harmonic", 3, seed=[self.seed, 1000 + t],
                                 d_in=3) for t in range(self.count(CERT_MAP_S))]
        base = ["neighbors", "--domain", "sphere", "--n", "2", "--seed",
                str(self.seed), "--dump-certs"]
        self.calls = [("neighbors", [*base, "--samples", str(n),
                                     "--map", map_to_json(s)])
                      for s in self.specs]
        self.warmup = [("neighbors", [*base, "--samples", str(SMALL_N),
                                      "--map", map_to_json(self.specs[0])])]

    def check(self, calls):
        outcome = Outcome(items=len(calls))
        for t, (call, spec) in enumerate(zip(calls, self.specs)):
            if _internal(outcome, call):
                continue
            rep = _report(call)
            certs = rep["certificates"]
            images = evaluate(spec, self.domain)
            i, j = rep["extremal_pair"]
            rng = np.random.default_rng([self.seed, t, 17])
            sample = rng.choice(len(certs), size=min(CERT_SAMPLE, len(certs)),
                                replace=False)
            extremal = rep["extremal_certificate"]
            bad = []
            if len(certs) != rep["n_certificates"]:
                bad.append("n_certificates does not match the dump")
            if abs(self.domain.rho(i, j) - rep["df"]) > 1e-12:
                bad.append("df is not the distance of the extremal pair")
            if not {i, j} <= set(extremal["indices"]):
                bad.append("extremal certificate does not hold the pair")
            for doc in [extremal, *(certs[k] for k in sorted(sample))]:
                if not check_certificate(_cert_from_json(doc), images, self.domain):
                    bad.append(f"certificate {doc['indices'][:4]} fails its check")
            if bad:
                outcome.refute(f"map {t}: {'; '.join(bad)}")
            indices = json.dumps([c["indices"] for c in certs]).encode()
            outcome.results.append([f12(rep["df"]), [i, j], rep["n_certificates"],
                                    hashlib.sha256(indices).hexdigest()[:16]])
        return outcome


class CoverWitness(Workload):
    name = "cover-witness"

    def build(self):
        n = SMALL_N if self.tiny else 2048
        self.trials = 2 if self.tiny else CUBE_TRIALS
        count = self.count(S2_SEARCH_S) if self.tiny else max(
            1, round((self.seconds - CUBE_TRIALS * CUBE_TRIAL_S) / S2_SEARCH_S))
        self.cube, _ = cube_boundary_cover(2, n, seed=self.seed)
        self.sphere = sample_sphere(2, n, seed=self.seed, scheme="quasi_uniform")
        self.cover = regular_triangulation_cover(self.sphere)
        # The S^2 searches are a fixed panel: maps [7, k] with witness seed
        # 0, where [7, 1] is known to end in no-witness-found.  Search cost
        # swings 0.5-1.35 s with the map and the probe seed, so a seeded
        # panel would spread run_s across seeds; the workload seed drives
        # the cube trials (maps, samples, probes) and the cube degree run.
        self.specs = [random_map("sphere_harmonic", 3, seed=[7, k], d_in=3)
                      for k in range(count)]
        seed = ["--seed", str(self.seed)]
        cube = ["verify-cube", "--n", "2", *seed, "--threads", "1"]
        witness = ["witness", "--domain", "sphere", "--n", "2", "--seed", "0"]
        self.calls = [("verify-cube", [*cube, "--samples", str(n),
                                       "--trials", str(self.trials)])]
        self.calls += [("witness", [*witness, "--samples", str(n),
                                    "--map", map_to_json(s)]) for s in self.specs]
        # one nerve-map degree classification per cover
        self.calls += [("degree", ["degree", "--domain", kind, "--n", "2",
                                   "--samples", str(n), *seed])
                       for kind in ("cube", "sphere")]
        self.warmup = [("verify-cube", [*cube, "--samples", str(SMALL_N),
                                        "--trials", "1"]),
                       ("witness", [*witness, "--samples", str(SMALL_N),
                                    "--map", map_to_json(self.specs[0])])]

    @staticmethod
    def _gate(images: np.ndarray) -> float:
        return WITNESS_GATE_REL * float(np.linalg.norm(images.max(axis=0) -
                                                       images.min(axis=0)))

    def _check_cube(self, call: Call, outcome: Outcome) -> None:
        outcome.items += self.trials
        if _internal(outcome, call, self.trials):
            return
        rep = _report(call)
        if rep.get("result") is None:
            # WitnessNotFoundError aborted the sweep
            outcome.fail(f"verify-cube: {rep.get('violation')}", self.trials)
            return
        for row in rep["result"]["trials"]:
            images = evaluate(map_from_json(row["map"]), self.cube)
            i, j = row["pair"]
            lo, hi = row["faces"]
            axis = int(lo.rsplit("-", 1)[1])
            on_faces = (hi == f"max-face-{axis}" and
                        abs(self.cube.samples[i][axis]) <= 1e-9 and
                        abs(self.cube.samples[j][axis] - 1.0) <= 1e-9)
            if not on_faces:
                outcome.refute(f"cube trial {row['trial']}: pair {[i, j]} "
                               f"is not on faces {row['faces']}")
            elif row["lp_verdict"] != "yes" or row["residual"] > self._gate(images):
                outcome.fail(f"cube trial {row['trial']}: lp {row['lp_verdict']}, "
                             f"residual {row['residual']:.3e}")
            outcome.results.append(["cube", [i, j], [lo, hi], row["lp_verdict"]])

    def _check_witness(self, k: int, call: Call, outcome: Outcome) -> None:
        # judged by result.status: the CLI reports ok for no-witness-found
        outcome.items += 1
        if _internal(outcome, call):
            return
        res = _report(call)["result"]
        images = evaluate(self.specs[k], self.sphere)
        gate = self._gate(images)
        if res["status"] == "ok":
            slack = witness_slack(np.asarray(res["point"]), images, self.cover)
            if slack > gate:
                outcome.refute(f"witness map [7, {k}]: status ok but slack "
                               f"{slack:.3e} above {gate:.3e}")
        else:
            outcome.fail(f"witness map [7, {k}]: {res['status']}, residual "
                         f"{res['residual']:.3e}")
        outcome.results.append(["witness", res["status"], res["chosen"]])

    def check(self, calls):
        outcome = Outcome()
        cube, *rest = calls
        self._check_cube(cube, outcome)
        for k, call in enumerate(rest[:len(self.specs)]):
            self._check_witness(k, call, outcome)
        for call in rest[len(self.specs):]:
            if _internal(outcome, call, 0):
                continue
            cert = _report(call)["result"]
            if cert["verdict"] == "null_homotopic":
                outcome.refute(f"{call.args[2]} cover classified null-homotopic", 0)
            outcome.results.append(["degree", cert["degree"], cert["verdict"]])
        return outcome


WORKLOADS = {w.name: w for w in (MuCircle, SweepS2, CertsS2, CoverWitness)}
