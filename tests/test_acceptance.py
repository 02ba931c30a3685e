"""Acceptance suite: the ten package-level criteria, one test each.

Every test emits a single line "criterion NN: PASS/FAIL - detail"; the
lines are also appended to acceptance_report.txt at the repository root so
they stay visible when pytest captures stdout.  Stated runtime caps are
asserted alongside the numeric tolerances.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from fneighbors.cli import main as cli_main
from fneighbors.domains import (
    CoverAssignment,
    regular_triangulation_cover,
    sample_sphere,
)
from fneighbors.geometry import (
    angle_from_chord,
    angular_diameter,
    chord_from_angle,
    dekster_lhs,
    min_enclosing_ball_angular,
    regular_edge_lengths,
    regular_simplex_vertices,
    separation_bound,
)
from fneighbors.homotopy import certify_cover
from fneighbors.maps import MapSpec, evaluate, random_map
from fneighbors.muopt import (
    OptimizerConfig,
    estimate_mu,
    verify_borsuk_ulam,
    verify_cube_faces,
    verify_sphere_bound,
)
from fneighbors.neighbors import (
    compute_df,
    neighbor_graph,
    pair_is_neighbor_fast,
    pair_is_neighbor_oracle,
)
from fneighbors.witness import witness_point

REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"

SQRT3 = math.sqrt(3.0)
SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    REPORT_PATH.unlink(missing_ok=True)
    yield


def _record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    with REPORT_PATH.open("a") as fh:
        fh.write(line + "\n")
    assert ok, line


def test_criterion_01_circle_lower_bound():
    t0 = time.perf_counter()
    domain = sample_sphere(1, 2048, seed=0, scheme="quasi_uniform")
    worst = math.inf
    for t in range(20):
        spec = random_map("circle_fourier", m_out=2, seed=[9100, t],
                          degree=(t % 4) + 1)  # truncation orders 1..4
        images = evaluate(spec, domain)
        df = compute_df(neighbor_graph(images, domain), domain)
        worst = min(worst, df)
    elapsed = time.perf_counter() - t0
    ok = worst >= SQRT3 - 0.05 and elapsed <= 60.0
    _record(1, ok, f"20 random circle maps (K<=4, N=2048): min certified "
                   f"D_f {worst:.4f} >= {SQRT3 - 0.05:.4f}; "
                   f"{elapsed:.1f}s <= 60s")


def test_criterion_02_sphere_lower_bound():
    t0 = time.perf_counter()
    report = verify_sphere_bound(2, 3, trials=10, n_samples=4096, seed=0)
    worst = min(r["df"] for r in report["trials"])
    elapsed = time.perf_counter() - t0
    ok = (report["all_ok"] and worst >= SQRT2 - 0.08
          and len(report["trials"]) == 10 and elapsed <= 300.0)
    _record(2, ok, f"10 random quadratic maps S^2 -> R^3 (N=4096): min "
                   f"certified D_f {worst:.4f} >= {SQRT2 - 0.08:.4f}; "
                   f"{elapsed:.1f}s <= 300s")


def test_criterion_03_mu_bracket_circle():
    t0 = time.perf_counter()
    domain = sample_sphere(1, 512, seed=0, scheme="quasi_uniform")
    est = estimate_mu(domain, "circle_fourier", 2,
                      OptimizerConfig(n_restarts=8, budget=2000, degree=3,
                                      seed=0))
    elapsed = time.perf_counter() - t0
    ok = (SQRT3 - 0.05 <= est.best_df <= SQRT3 + 0.05 and elapsed <= 600.0)
    _record(3, ok, f"optimizer bracket over degree-3 circle maps: best "
                   f"certified D_f {est.best_df:.4f} within sqrt(3) +/- "
                   f"0.05 = [{SQRT3 - 0.05:.4f}, {SQRT3 + 0.05:.4f}]; "
                   f"{elapsed:.1f}s <= 600s")


def test_criterion_04_coincidence_regime():
    report = verify_borsuk_ulam(trials=10, n_samples=2048, seed=0, m_out=1)
    min_rho = min(r["rho"] for r in report["trials"])
    worst_gap = max(r["image_gap"] for r in report["trials"])
    ok = report["all_ok"] and min_rho >= 2.0 - 0.05
    _record(4, ok, f"10 random maps S^1 -> R^1: coincidence pair at rho "
                   f"{min_rho:.4f} >= 1.95 every trial (max image gap "
                   f"{worst_gap:.2e} within allowance)")


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    contradictions = 0
    definite = 0
    total = 500
    for trial in range(total):
        rng = np.random.default_rng([9500, trial])
        npts = int(rng.integers(4, 13))
        m = int(rng.integers(2, 4))
        images = rng.uniform(-1.0, 1.0, size=(npts, m)) * rng.uniform(0.5, 2.0)
        if trial % 2 == 0:
            images = np.round(images, 1)  # cosphere/collinear degeneracies
        if trial % 11 == 3:
            images[int(rng.integers(npts))] = images[int(rng.integers(npts))]
        perm = rng.permutation(npts)
        i, j = int(perm[0]), int(perm[1])
        expected, _ = pair_is_neighbor_oracle(i, j, images)
        verdict, _ = pair_is_neighbor_fast(i, j, images)
        if verdict in ("yes", "no"):
            definite += 1
            if (verdict == "yes") != expected:
                contradictions += 1
    elapsed = time.perf_counter() - t0
    coverage = definite / total
    ok = contradictions == 0 and coverage >= 0.98 and elapsed <= 60.0
    _record(5, ok, f"500 small instances (<=12 pts, m in 2..3): "
                   f"{contradictions} fast/oracle contradictions, definite "
                   f"coverage {coverage:.1%} >= 98%; {elapsed:.1f}s <= 60s")


def test_criterion_06_witness_search():
    dom2 = sample_sphere(2, 500, seed=0, scheme="quasi_uniform")
    cov2 = regular_triangulation_cover(dom2)
    im2 = evaluate(MapSpec(family="identity_embed", m_out=3, params=()), dom2)
    rep2 = witness_point(dom2, cov2, im2)
    center_err = float(np.linalg.norm(rep2.point))
    ok_sphere = (center_err <= 1e-6 and abs(rep2.radius - 1.0) <= 1e-6
                 and rep2.residual <= 1e-6)

    dom1 = sample_sphere(1, 2048, seed=0, scheme="quasi_uniform")
    cov1 = regular_triangulation_cover(dom1)
    worst_resid = 0.0
    triples_ok = True
    for t in range(5):
        spec = random_map("circle_fourier", m_out=2, seed=[9600, t])
        images = evaluate(spec, dom1)
        rep = witness_point(dom1, cov1, images)
        worst_resid = max(worst_resid, rep.residual)
        for a, b in itertools.combinations(rep.chosen, 2):
            verdict, _ = pair_is_neighbor_fast(int(a), int(b), images)
            triples_ok = triples_ok and verdict == "yes"
    ok = ok_sphere and worst_resid <= 1e-3 and triples_ok
    _record(6, ok, f"identity sphere witness at |w| = {center_err:.1e} <= "
                   f"1e-6, R = 1 +/- {abs(rep2.radius - 1):.1e}; 5 random "
                   f"circle maps on the 3-arc cover: max residual "
                   f"{worst_resid:.1e} <= 1e-3, extracted triples pairwise "
                   f"certified: {triples_ok}")


def test_criterion_07_cover_certification():
    dom1 = sample_sphere(1, 1024, seed=0, scheme="quasi_uniform")
    cert1 = certify_cover(dom1, regular_triangulation_cover(dom1))
    windings = {e.degree for e in cert1.estimates}
    ok_circle = (cert1.verdict == "non_null_homotopic"
                 and cert1.degree is not None and abs(cert1.degree) == 1
                 and windings == {cert1.degree})

    dom2 = sample_sphere(2, 1024, seed=0, scheme="quasi_uniform")
    cert2 = certify_cover(dom2, regular_triangulation_cover(dom2))
    raw_err = max(abs(e.raw_sum - round(e.raw_sum)) for e in cert2.estimates)
    ok_sphere = (cert2.verdict == "non_null_homotopic"
                 and cert2.degree is not None and abs(cert2.degree) == 1
                 and raw_err <= 0.05)

    dom_d = sample_sphere(1, 256, seed=0, scheme="quasi_uniform")
    theta = np.arctan2(dom_d.samples[:, 1], dom_d.samples[:, 0])
    membership = np.zeros((len(dom_d), 3), dtype=bool)
    membership[:, 0] = True  # one arc covering the whole circle
    membership[:, 1] = (theta > 0.5) & (theta < 0.7)
    membership[:, 2] = (theta > 1.0) & (theta < 1.2)
    cert_d = certify_cover(dom_d, CoverAssignment(
        membership=membership, names=("big", "patch-a", "patch-b")))
    ok_null = cert_d.verdict == "null_homotopic" and cert_d.degree == 0

    ok = ok_circle and ok_sphere and ok_null
    _record(7, ok, f"3-arc cover |winding| = {abs(cert1.degree or 0)} "
                   f"(exact); 4-face sphere cover |degree| = "
                   f"{abs(cert2.degree or 0)} with raw sums within "
                   f"{raw_err:.3f} <= 0.05 of an integer; degenerate cover "
                   f"degree {cert_d.degree} = 0")


def test_criterion_08_cube_disjoint_faces():
    report = verify_cube_faces(2, trials=10, n_samples=2048, seed=0)
    faces_ok = report["all_ok"]
    # re-derive the sampled boundary to check the pair really straddles
    # the two opposite faces of the reported axis
    from fneighbors.domains import cube_boundary_cover

    domain, _ = cube_boundary_cover(2, 2048, seed=0)
    worst_resid = max(r["residual"] for r in report["trials"])
    for row in report["trials"]:
        axis = int(row["faces"][0].rsplit("-", 1)[1])
        lo, hi = row["pair"]
        faces_ok = (faces_ok
                    and domain.samples[lo][axis] <= 1e-9
                    and domain.samples[hi][axis] >= 1.0 - 1e-9
                    and row["lp_verdict"] == "yes")
    ok = faces_ok and len(report["trials"]) == 10
    _record(8, ok, f"10 random quadratic maps on the square boundary "
                   f"(N=2048): certified pair on opposite faces every run "
                   f"(max witness residual {worst_resid:.1e}, LP "
                   f"cross-check all yes)")


def test_criterion_09_formula_suite():
    t0 = time.perf_counter()
    max_roundtrip = 0.0
    max_violation = 0.0
    checked_sets = 0
    for trial in range(1000):
        rng = np.random.default_rng([9900, trial])
        theta = float(rng.uniform(0.0, math.pi))
        back = angle_from_chord(chord_from_angle(theta))
        max_roundtrip = max(max_roundtrip, abs(back - theta))
        # random set in an open hemisphere cap: circumradius/diameter
        # inequality must hold with the closed-form left side
        cap = float(rng.uniform(0.2, 1.3))
        count = int(rng.integers(3, 11))
        tilts = rng.uniform(0.0, cap, size=count)
        phis = rng.uniform(0.0, 2.0 * math.pi, size=count)
        pts = np.column_stack([np.sin(tilts) * np.cos(phis),
                               np.sin(tilts) * np.sin(phis),
                               np.cos(tilts)])
        _, circ_a = min_enclosing_ball_angular(pts)
        diam_a = angular_diameter(pts)
        max_violation = max(max_violation, dekster_lhs(2, circ_a) - diam_a)
        checked_sets += 1
    closed_ok = True
    for n in range(1, 9):
        d_eu, d_ang = regular_edge_lengths(n)
        closed_ok &= abs(d_eu - math.sqrt(2.0 * (n + 2) / (n + 1))) <= 1e-12
        closed_ok &= abs(chord_from_angle(d_ang) - d_eu) <= 1e-12
        verts = regular_simplex_vertices(n)
        gram = verts @ verts.T
        off = gram[~np.eye(len(verts), dtype=bool)]
        closed_ok &= np.allclose(np.diag(gram), 1.0, atol=1e-9)
        closed_ok &= np.allclose(off, -1.0 / (n + 1), atol=1e-9)
        closed_ok &= separation_bound(n) <= d_eu + 1e-12
    closed_ok &= abs(separation_bound(1) - SQRT3) <= 1e-12
    closed_ok &= abs(separation_bound(2) - SQRT2) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = (max_roundtrip <= 1e-6 and max_violation <= 1e-6
          and checked_sets == 1000 and closed_ok)
    _record(9, ok, f"1000 random sets: chord/angle roundtrip error "
                   f"{max_roundtrip:.1e} <= 1e-6, circumradius/diameter "
                   f"inequality violation {max_violation:.1e} <= 1e-6; "
                   f"closed forms exact for n = 1..8 ({elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    paths = {k: tmp_path / f"{k}.json" for k in
             ("s1", "s8", "c1", "c8", "n1", "n2")}
    codes = [
        cli_main(["verify-sphere", "--trials", "6", "--samples", "1024",
                  "--seed", "3", "--threads", "1", "--out", str(paths["s1"])]),
        cli_main(["verify-sphere", "--trials", "6", "--samples", "1024",
                  "--seed", "3", "--threads", "8", "--out", str(paths["s8"])]),
        cli_main(["verify-cube", "--trials", "4", "--samples", "1024",
                  "--seed", "3", "--threads", "1", "--out", str(paths["c1"])]),
        cli_main(["verify-cube", "--trials", "4", "--samples", "1024",
                  "--seed", "3", "--threads", "8", "--out", str(paths["c8"])]),
        cli_main(["neighbors", "--samples", "512", "--seed", "7",
                  "--dump-certs", "--out", str(paths["n1"])]),
        cli_main(["neighbors", "--samples", "512", "--seed", "7",
                  "--dump-certs", "--out", str(paths["n2"])]),
    ]
    sphere_same = paths["s1"].read_bytes() == paths["s8"].read_bytes()
    cube_same = paths["c1"].read_bytes() == paths["c8"].read_bytes()
    repeat_same = paths["n1"].read_bytes() == paths["n2"].read_bytes()
    parsed = json.loads(paths["s1"].read_text())  # reports stay valid JSON
    ok = (all(c == 0 for c in codes) and sphere_same and cube_same
          and repeat_same and parsed["command"] == "verify-sphere")
    _record(10, ok, f"byte-identical reports: verify-sphere --threads 1 vs "
                    f"8: {sphere_same}; verify-cube --threads 1 vs 8: "
                    f"{cube_same}; repeated neighbors run: {repeat_same}")
