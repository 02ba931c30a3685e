"""Witness-point search over a covered domain.

Given a cover C_1..C_k of the sampled domain and the image points, a
witness point w is a target-space location whose distance to every
element's image equals its distance to the whole image set: the ball
B_R(w) with R = d(w, f(X)) then touches each f(C_j) without containing
any image, so the touching samples form a certified f-neighbor tuple.

The witness slack slack(x) = max_j d(x, f(C_j)) - d(x, f(X)) is
nonnegative everywhere and zero exactly at witness points.  On samples an
exact witness is the center of an empty ball with an image of every
element on its sphere.  After the prelude that neighbor_graph uses
(neighbors._clusters: coincidence clusters, affine reduction, cosphere
test) the search builds one in three cases: the one cluster's image when
all images coincide (the radius-0 witness), the center of the images'
sphere when they are cospherical (nothing is triangulated), and else the
circumcenter of the first live rainbow simplex of their Delaunay
triangulation (neighbors._triangulation), one whose vertices' clusters
touch every element.  The contacts are members that the construction
puts on the sphere, so no distance, and no rounding, picks them.  In no
case, which is the rule when the cover has more elements than a simplex
has vertices, every live circumcenter and cluster image is scanned with
one per-element distance pass (CoverAssignment.distances): the best is
only an approximate witness and the relative residual gate decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .check import image_diameter
from .domains import CoverAssignment, SampledDomain, cube_max_faces
from .neighbors import _circumballs, _clusters, _line_pairs, _triangulation

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

    chosen holds one sample index per cover element.  For an exact
    witness it is the element's lowest-index member among the samples
    that the construction puts on the sphere (see witness_point); after
    the scan it is the member whose image is closest to the sphere of
    radius `radius` around `point` (ties go to the lowest index).  status
    is "ok" when the residual passes the relative acceptance gate, else
    "no-witness-found".
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
    witness points.  The direct form, for one point: witness_point's
    residual at an exact witness; its scan evaluates the slack at all
    candidates at once with _candidate_slack."""
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


def _exact_or_candidates(images: np.ndarray, cover: CoverAssignment):
    """(point, on) for an exact witness, on marking the samples that its
    construction puts on the sphere: every sample for a single cluster or
    cospherical images, else the members of the vertices' clusters of the
    first live rainbow simplex, in simplex order.  Otherwise (a line, or
    no live rainbow ball) (candidates, None): every live circumcenter, or
    the midpoints of consecutive values on a line, then the clusters'
    images."""
    cl = _clusters(images)
    if cl.reduced is None:  # a single cluster
        return images[cl.members[0]], np.ones(len(images), dtype=bool)
    if cl.sphere is not None:
        return cl.embed(cl.sphere.center), np.ones(len(images), dtype=bool)
    reps = images[cl.members[cl.start]]
    if cl.reduced.shape[1] == 1:
        centers = _line_pairs(cl.reduced[:, 0])[4]
    else:
        tri = _triangulation(cl)
        # the elements each cluster touches, gathered one vertex at a time
        touch = np.logical_or.reduceat(cover.membership[cl.members], cl.start)
        seen = np.zeros((len(tri.simplices), cover.element_count), dtype=bool)
        for vertex in tri.simplices.T:
            seen |= touch[vertex]
        # the rainbow simplices' balls first, every simplex's for the scan
        rainbow = np.flatnonzero(seen.all(axis=1))
        live, centers = _circumballs(cl.reduced, tri, cl.tau_on, rainbow)[:2]
        if len(live):
            cluster = np.repeat(np.arange(len(cl.sizes)), cl.sizes)
            on = np.zeros(len(images), dtype=bool)
            on[cl.members[np.isin(cluster, tri.simplices[live[0]])]] = True
            return cl.embed(centers[0]), on
        centers = _circumballs(cl.reduced, tri, cl.tau_on)[1]
    return np.vstack([cl.embed(centers), reps]), None


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
    """The exact witness of _exact_or_candidates, else the scanned
    candidate of least slack (_candidate_slack, the first minimizer).

    At an exact witness chosen[j] is the lowest-index member of element j
    that the construction puts on the sphere, radius the nearest-image
    distance and residual the witness_slack.  After the scan chosen holds
    each element's member nearest the sphere (_nearest_members).  The
    residual gate is relative to the image diameter.
    """
    images = np.asarray(images, dtype=float)
    if len(images) != len(domain):
        raise ValueError("images must align with domain samples")
    point, on = _exact_or_candidates(images, cover)
    if on is None:
        slack, nearest = _candidate_slack(point, images, cover)
        best = int(np.argmin(slack))
        point = point[best]
        radius, residual = float(nearest[best]), float(slack[best])
        dists = np.linalg.norm(images - point, axis=1)
        chosen = _nearest_members(dists, cover, radius)
    else:
        radius = float(np.linalg.norm(images - point, axis=1).min())
        residual = witness_slack(point, images, cover)
        chosen = tuple(int(np.flatnonzero(on & member)[0])
                       for member in cover.membership.T)
    gate = eps_witness_rel * image_diameter(images)
    status = "ok" if residual <= gate else "no-witness-found"
    return WitnessReport(status=status, point=point.copy(), radius=radius,
                         residual=residual, chosen=chosen,
                         element_names=tuple(cover.names))


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
    a pair on the two disjoint faces of that axis.  With a live rainbow
    simplex both come from its vertices' clusters (see witness_point), so
    the pair is read off the triangulation.  Raises WitnessNotFoundError
    when the witness search does not converge.
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
