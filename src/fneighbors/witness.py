"""Witness-point search over a covered domain.

Given a cover C_1..C_k of the sampled domain and the image points, a
witness point w is a target-space location whose distance to every
element's image equals its distance to the whole image set: the ball
B_R(w) with R = d(w, f(X)) then touches each f(C_j) without containing
any image, so the touching samples form a certified f-neighbor tuple.

The witness slack slack(x) = max_j d(x, f(C_j)) - d(x, f(X)) is
nonnegative everywhere and zero exactly at witness points.  On samples an
exact witness is the center of an empty ball with an image of every
element on its sphere, so the search scans the live circumballs of the
Delaunay simplices of the images (neighbors._circumballs): a rainbow
simplex, whose vertices touch every element, has slack 0, and outside a
cospherical cell no other empty ball does.  When a rainbow ball is live,
only the centers of rainbow simplices and of cells' simplices are kept,
a handful of the thousands in the triangulation.
The images are first clustered, reduced and tested for a common sphere by
the prelude that neighbor_graph uses (neighbors._clusters); when they are
cospherical, the sphere's center is the one circumcenter and nothing is
triangulated.
Coincident images add their common point, the radius-0 witness of a
coincident tuple (with a live rainbow ball, only clusters that touch
every element).  When no simplex is rainbow, which is the rule when the
cover has more elements than a simplex has vertices, every circumcenter
is a candidate, the best is only an approximate witness and the relative
residual gate decides.  The slack at every candidate comes from one
per-element distance pass (CoverAssignment.distances).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import CoverAssignment, SampledDomain, cube_max_faces
from .neighbors import (
    _cell_mask,
    _circumballs,
    _clusters,
    _line_pairs,
    _triangulation,
    image_diameter,
)

__all__ = [
    "WitnessReport",
    "WitnessNotFoundError",
    "witness_slack",
    "witness_point",
    "disjoint_faces_check",
    "DisjointFacesResult",
]


# the default residual gate of witness_point (--eps-witness, the
# eps_witness_rel keyword), relative to the image diameter
EPS_WITNESS_REL = 1e-3


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the witness search.

    chosen holds one sample index per cover element: the member whose image
    is closest to the sphere of radius `radius` around `point` (ties go to
    the lowest index).  status is "ok" when the residual passes the
    relative acceptance gate, else "no-witness-found".
    """

    status: str
    point: np.ndarray
    radius: float
    residual: float
    chosen: tuple[int, ...]
    element_names: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "point": [float(v) for v in self.point],
            "radius": float(self.radius),
            "residual": float(self.residual),
            "chosen": [int(i) for i in self.chosen],
            "element_names": list(self.element_names),
        }


class WitnessNotFoundError(RuntimeError):
    """Raised by consumers that cannot proceed without a witness."""

    def __init__(self, report: WitnessReport):
        super().__init__(f"witness search residual {report.residual:.3e} "
                         "exceeded the acceptance gate")
        self.report = report


def witness_slack(x: np.ndarray, images: np.ndarray,
                  cover: CoverAssignment) -> float:
    """max_j d(x, images of C_j) - d(x, all images); zero exactly at
    witness points.  The direct form, for one point; witness_point
    evaluates the slack at all its candidates with _candidate_slack."""
    x = np.asarray(x, dtype=float)
    d = np.linalg.norm(images - x, axis=1)
    worst = max(float(d[cover.membership[:, j]].min())
                for j in range(cover.element_count))
    return worst - float(d.min())


def _nearest_members(dists: np.ndarray, cover: CoverAssignment,
                     radius: float) -> tuple[int, ...]:
    """Per element, the member index minimizing |d_i - radius| (lowest
    index on ties: np.argmin picks the first, and element indices ascend)."""
    out = []
    for j in range(cover.element_count):
        members = np.flatnonzero(cover.membership[:, j])
        out.append(int(members[np.argmin(np.abs(dists[members] - radius))]))
    return tuple(out)


def _candidate_centers(images: np.ndarray,
                       cover: CoverAssignment) -> np.ndarray:
    """The candidate centers for the coincidence-cluster representatives
    of neighbors._clusters (each cluster's lowest member): the
    circumcenters of the simplices of neighbors._triangulation
    (midpoints of consecutive values when their affine hull is a line,
    the center of their sphere when they are cospherical), followed by the
    cluster images themselves.  The circumcenters are those of the live
    balls of neighbors._circumballs.

    A simplex is rainbow when the clusters of its vertices touch every
    cover element.  When some live ball is rainbow, only the rainbow
    simplices and those of cospherical cells (_cell_mask) give
    circumcenters: the slack at an empty ball's center is 0 only when its
    sphere holds an image of every element, which outside a cell makes
    its own simplex rainbow.  By the same rule only the clusters that
    touch every element give images: an image's slack is 0 only when its
    cluster does.  Otherwise every live circumcenter and every cluster
    image is a candidate.  The kept candidates stay in the order of the
    full list."""
    cl = _clusters(images)
    reps = images[cl.members[cl.start]]
    if cl.reduced is None:  # a single cluster
        return reps
    if cl.sphere is not None:
        centers = cl.sphere.center[None, :]
    elif cl.reduced.shape[1] == 1:
        centers = _line_pairs(cl.reduced[:, 0])[4]
    else:
        tri = _triangulation(cl)
        # the elements each cluster touches, gathered one vertex at a time
        touch = np.logical_or.reduceat(cover.membership[cl.members], cl.start)
        seen = np.zeros((len(tri.simplices), cover.element_count), dtype=bool)
        for vertex in tri.simplices.T:
            seen |= touch[vertex]
        # balls are computed per simplex: those of the rainbow and cell
        # simplices first, every simplex's only when no rainbow ball is live
        rainbow = seen.all(axis=1)
        rows = np.flatnonzero(rainbow | _cell_mask(tri))
        live, centers = _circumballs(cl.reduced, tri, cl.tau_on, rows)[:2]
        if rainbow[live].any():
            reps = reps[touch.all(axis=1)]
        else:
            centers = _circumballs(cl.reduced, tri, cl.tau_on)[1]
    return np.vstack([cl.embed(centers), reps])


def _candidate_slack(candidates: np.ndarray, images: np.ndarray,
                     cover: CoverAssignment) -> tuple[np.ndarray, np.ndarray]:
    """(slack, nearest) at every candidate from one CoverAssignment.distances
    pass: every image lies in some element, and a KD-tree query computes a
    pair distance the same in any tree, so the least is the nearest."""
    dist = cover.distances(images, candidates)
    nearest = dist.min(axis=1)
    return dist.max(axis=1) - nearest, nearest


def witness_point(domain: SampledDomain, cover: CoverAssignment,
                  images: np.ndarray, *,
                  eps_witness_rel: float = EPS_WITNESS_REL) -> WitnessReport:
    """The candidate center of least witness slack.

    Candidates are the Delaunay circumcenters (only those of rainbow
    simplices and cospherical cells when a rainbow simplex exists; the
    sphere's center on cospherical images) and cluster images of
    _candidate_centers, and the first minimizer of the slack
    (_candidate_slack) wins.  A rainbow simplex (one whose vertices touch
    every element) gives slack 0 up to rounding.  With none, which is the
    rule when the cover has more elements than a simplex has vertices
    (image dimension plus one), every circumcenter is scanned and the
    minimizer is only an approximate witness.  All-coincident images
    form one cluster, whose image is the one candidate: the radius-0
    witness.  The residual gate is relative to the image diameter.
    """
    images = np.asarray(images, dtype=float)
    if len(images) != len(domain):
        raise ValueError("images must align with domain samples")
    names = tuple(cover.names)
    candidates = _candidate_centers(images, cover)
    slack, nearest = _candidate_slack(candidates, images, cover)
    best = int(np.argmin(slack))
    best_x = candidates[best]

    radius = float(nearest[best])
    dists = np.linalg.norm(images - best_x, axis=1)
    chosen = _nearest_members(dists, cover, radius)
    residual = float(slack[best])
    gate = eps_witness_rel * image_diameter(images)
    status = "ok" if residual <= gate else "no-witness-found"
    return WitnessReport(status=status, point=best_x.copy(), radius=radius,
                         residual=residual, chosen=chosen, element_names=names)


@dataclass(frozen=True)
class DisjointFacesResult:
    """A neighbor pair straddling two disjoint cube faces.

    pair = (sample on the min-face, sample on the opposite max-face);
    faces names the two faces; report is the underlying witness report.
    """

    pair: tuple[int, int]
    faces: tuple[str, str]
    report: WitnessReport

    def to_json(self) -> dict:
        return {"pair": [int(self.pair[0]), int(self.pair[1])],
                "faces": list(self.faces),
                "report": self.report.to_json()}


def disjoint_faces_check(domain: SampledDomain, cover: CoverAssignment,
                         images: np.ndarray, *,
                         eps_witness_rel: float = EPS_WITNESS_REL) -> DisjointFacesResult:
    """Extract a neighbor pair on opposite cube faces from the witness tuple.

    Expects the cube-boundary cover (m min-face elements plus the max-face
    union).  The point chosen from the union element lies on some max face
    {x_axis = 1}; the lowest such axis selects the min-face partner, giving
    a pair on the two disjoint faces of that axis.  Raises
    WitnessNotFoundError when the witness search does not converge.
    """
    if domain.kind != "cube_boundary":
        raise ValueError("expects a cube_boundary domain")
    if cover.names[-1] != "max-union":
        raise ValueError("expects the cube-boundary cover (max-union last)")
    report = witness_point(domain, cover, images,
                           eps_witness_rel=eps_witness_rel)
    if report.status != "ok":
        raise WitnessNotFoundError(report)
    p_last = report.chosen[-1]
    axes = cube_max_faces(domain.samples[p_last][None, :])[0]
    axis = int(axes[0])
    pair = (report.chosen[axis], p_last)
    return DisjointFacesResult(pair=pair,
                               faces=(f"min-face-{axis}", f"max-face-{axis}"),
                               report=report)
