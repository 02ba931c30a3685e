"""Which branches of the neighbor graph's Delaunay path real inputs reach.

Usage, from the root of a checkout:

    python3 tools/probe_graph_paths.py

Each input of a seeded panel goes through the graph path's own steps
(neighbors._clusters, _triangulation, _circumballs, _local_clearance and
_delaunay_edge_certs), at every scale of SCALES.  The panel holds:

- jittered 2-D and 3-D lattices, jitter 0 to 1e-6 of the spacing
- S^1 -> R^2, S^1 -> R^3 and S^2 -> R^3 maps rounded to 1, 2 and 3
  decimals
- near-cocircular arcs and near-spheres, moved radially by up to 3 tau_on
- nearly flat sets in R^3, whose thin axis (1e-8 to 1e-6 of the
  diameter) survives the affine reduction

One line per input and scale gives the path taken (single, line, cosphere,
delaunay, or qhull-error), the Delaunay edges, whether Delaunay's lemma
proved the balls empty (else the KD-tree query ran), the edges that no
incident ball certifies at the default eps_inside (which go to the LP)
and at eps_inside 0, a hash of the certified edge set, which should not
depend on the scale, and a hash of the certified edges each with the
sorted vertices of the simplex whose ball it picked.  The last line
gives the totals; scale_dependent_picks counts the inputs whose edge
set is the same at every scale but whose picks are not.  The output is
a function of the panel only: no timings, so two runs print the same
bytes.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scipy.spatial import QhullError  # noqa: E402

from fneighbors import neighbors  # noqa: E402
from fneighbors.domains import sample_sphere  # noqa: E402
from fneighbors.maps import evaluate, random_map  # noqa: E402

SCALES = (1e-150, 1e-13, 1.0, 1e80, 1e150)
MAX_SAMPLES = 4096


def _lattice(dim: int, side: int, jitter: float, rng) -> np.ndarray:
    axes = np.meshgrid(*[np.arange(side, dtype=float)] * dim, indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=1)
    return pts + jitter * rng.uniform(-1.0, 1.0, size=pts.shape)


def _map(n: int, m_out: int, samples: int, seed: int) -> np.ndarray:
    domain = sample_sphere(n, samples, seed=0, scheme="quasi_uniform")
    family = "circle_fourier" if n == 1 else "sphere_harmonic"
    return evaluate(random_map(family, m_out, seed=[seed, 1000], d_in=n + 1),
                    domain)


def panel(max_samples: int = MAX_SAMPLES):
    """(name, images) of every input, none above max_samples images."""
    rng = np.random.default_rng(20)
    small, large = min(256, max_samples), max_samples
    for dim in (2, 3):
        for size in sorted({small, large}):
            side = int(round(size ** (1.0 / dim)))
            for jitter in (0.0, 1e-15, 1e-12, 1e-9, 1e-6):
                yield (f"lattice-{dim}d side={side} jitter={jitter:g}",
                       _lattice(dim, side, jitter, rng))
    for n, m_out in ((1, 2), (1, 3), (2, 3)):
        samples = min(1024 if n == 1 else 4096, max_samples)
        for seed in (0, 1):
            images = _map(n, m_out, samples, seed)
            for decimals in (1, 2, 3):
                yield (f"rounded S^{n}->R^{m_out} N={samples} map=[{seed},1000]"
                       f" decimals={decimals}", np.round(images, decimals))
    samples = min(512, max_samples)
    for arc in (2.0 * math.pi, math.pi, 0.3):
        t = np.linspace(0.0, arc, samples, endpoint=arc < 2.0 * math.pi)
        circle = np.column_stack([np.cos(t), np.sin(t)])
        tau_on = neighbors.TAU_ON_REL * neighbors.image_diameter(circle)
        for moved in (0.9, 0.999, 3.0):
            sign = rng.choice([-1.0, 1.0], size=samples)
            yield (f"arc angle={arc:.4g} N={samples} moved={moved}tau_on",
                   circle * (1.0 + moved * tau_on * sign)[:, None])
    sphere = sample_sphere(2, min(2048, max_samples), seed=0,
                           scheme="quasi_uniform").samples
    for moved in (0.5, 0.999, 3.0):
        tau_on = neighbors.TAU_ON_REL * neighbors.image_diameter(sphere)
        noise = moved * tau_on * rng.uniform(-1.0, 1.0, size=len(sphere))
        yield (f"near-sphere N={len(sphere)} moved={moved}tau_on",
               sphere * (1.0 + noise)[:, None])
    samples = min(1024, max_samples)
    for thin in (1e-8, 1e-7, 1e-6):
        t = rng.uniform(0.0, 2.0 * math.pi, size=samples)
        ellipse = np.column_stack([np.cos(t), 0.5 * np.sin(t),
                                   thin * rng.standard_normal(samples)])
        yield f"flat ellipse N={samples} thin={thin:g}", ellipse
        disk = rng.uniform(-1.0, 1.0, size=(samples, 3))
        disk[:, 2] *= thin
        yield f"flat disk N={samples} thin={thin:g}", disk


def probe(images: np.ndarray) -> dict:
    """The graph path's branches on one input."""
    row = {"path": "delaunay", "edges": 0, "lemma": "-", "failed": 0,
           "failed_at_eps0": 0, "qhull_error": 0, "edges_hash": "-",
           "picks_hash": "-"}
    cl = neighbors._clusters(images)
    if cl.reduced is None:
        return {**row, "path": "single"}
    if cl.sphere is not None:
        return {**row, "path": "cosphere"}
    if cl.reduced.shape[1] == 1:
        return {**row, "path": "line"}
    try:
        tri = neighbors._triangulation(cl)
    except QhullError:
        return {**row, "path": "qhull-error", "qhull_error": 1}
    live, centers, radii, _ = neighbors._circumballs(cl.reduced, tri,
                                                     cl.tau_on)
    lemma = neighbors._local_clearance(cl.reduced, tri, centers, radii)
    eps_inside = neighbors.EPS_INSIDE_REL * cl.diam
    (lo, hi, ball, *_), failed = neighbors._delaunay_edge_certs(
        cl.reduced, tri, eps_inside, cl.tau_on)
    at_zero = neighbors._delaunay_edge_certs(cl.reduced, tri, 0.0,
                                             cl.tau_on)[1]
    edges = sorted([*zip(lo.tolist(), hi.tolist()), *failed])
    picks = np.column_stack([lo, hi, np.sort(tri.simplices[live[ball]],
                                             axis=1)])
    return {**row, "edges": len(edges),
            "lemma": "ok" if lemma is not None else "kd",
            "failed": len(failed), "failed_at_eps0": len(at_zero),
            "edges_hash": _digest(edges), "picks_hash": _digest(picks)}


def _digest(rows) -> str:
    """A short hash of integer rows."""
    data = np.asarray(rows, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:12]


def lines(max_samples: int = MAX_SAMPLES):
    """The report, line by line."""
    totals = dict.fromkeys(("runs", "qhull_error", "lemma_kd",
                            "with_failed", "failed", "with_failed_at_eps0",
                            "failed_at_eps0", "scale_dependent",
                            "scale_dependent_picks"), 0)
    for name, images in panel(max_samples):
        hashes, pick_hashes = set(), set()
        for scale in SCALES:
            row = probe(images * scale)
            hashes.add(row["edges_hash"])
            pick_hashes.add(row["picks_hash"])
            totals["runs"] += 1
            totals["qhull_error"] += row["qhull_error"]
            totals["lemma_kd"] += row["lemma"] == "kd"
            totals["with_failed"] += row["failed"] > 0
            totals["failed"] += row["failed"]
            totals["with_failed_at_eps0"] += row["failed_at_eps0"] > 0
            totals["failed_at_eps0"] += row["failed_at_eps0"]
            yield f"{name} scale={scale:g}: " + " ".join(
                f"{k}={v}" for k, v in row.items())
        totals["scale_dependent"] += len(hashes) > 1
        totals["scale_dependent_picks"] += (len(hashes) == 1
                                            and len(pick_hashes) > 1)
    yield "totals: " + " ".join(f"{k}={v}" for k, v in totals.items())


def main() -> int:
    for line in lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
