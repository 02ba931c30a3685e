"""Partition-of-unity maps from covers, and degree-based cover certification.

A cover C_1..C_k of the domain with empty common intersection induces a map
into the boundary of the standard (k-1)-simplex: thicken each element by
r_thick, take the hat functions g_i(x) = max(0, r_thick - dist to the
nearest sample labeled i) and normalize.  Since no point is within r_thick
of every element, each output has a zero coordinate, so after central
projection the values land on a sphere of dimension k-2.  When the domain
dimension equals k-2 the homotopy class of that map is its degree, which a
winding number (loops) or a signed spherical-area sum (meshes) computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.spatial import ConvexHull

from .domains import FACET_TOL, CoverAssignment, SampledDomain

__all__ = [
    "PartitionOfUnity",
    "HomotopyEstimate",
    "CoverCertificate",
    "CoverDegenerateError",
    "InteriorHitError",
    "UndersampledError",
    "covering_scale",
    "build_partition",
    "h_map",
    "project_to_sphere",
    "degree_estimate",
    "certify_cover",
]


class CoverDegenerateError(ValueError):
    """Thickening admits no valid partition (too small to cover, or so
    large that every element reaches some common point)."""


class InteriorHitError(ValueError):
    """A partition value is strictly positive in every coordinate, so the
    simplex-boundary map is undefined there."""


class UndersampledError(ValueError):
    """A single step of the image loop/mesh subtends too large an angle
    for the degree sum to be trustworthy."""


@dataclass(frozen=True)
class PartitionOfUnity:
    """Per-sample barycentric weights over the cover elements.

    values has one row per sample, one column per element; rows are
    nonnegative and sum to 1, and a positive entry means the sample lies
    within the thickening radius of that element.
    """

    values: np.ndarray
    r_thick: float


@dataclass(frozen=True)
class HomotopyEstimate:
    """Integer degree with its pre-rounding sum and a confidence score
    confidence = max(0, 1 - 2 |raw_sum - degree|)."""

    degree: int
    confidence: float
    raw_sum: float

    def to_json(self) -> dict:
        return {"degree": int(self.degree), "confidence": float(self.confidence),
                "raw_sum": float(self.raw_sum)}


@dataclass(frozen=True)
class CoverCertificate:
    """certify_cover outcome: verdict is one of non_null_homotopic,
    null_homotopic, inconclusive."""

    verdict: str
    degree: int | None
    confidence: float
    reason: str
    r_thick_values: tuple[float, ...]
    estimates: tuple[HomotopyEstimate, ...] = field(default=())

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "degree": None if self.degree is None else int(self.degree),
                "confidence": float(self.confidence),
                "reason": self.reason,
                "r_thick_values": [float(v) for v in self.r_thick_values],
                "estimates": [e.to_json() for e in self.estimates]}


def covering_scale(dist: np.ndarray) -> float:
    """Smallest radius at which some sample is within reach of every
    element, from the sample-to-element distances
    cover.distances(domain.samples, domain.samples): the thickening
    degeneracy threshold.  Admissible r_thick must stay strictly below
    this."""
    return float(dist.max(axis=1).min())


def build_partition(dist: np.ndarray, r_thick: float) -> PartitionOfUnity:
    """Hat-function partition subordinate to the r_thick-thickened cover.

    g_i(x) = max(0, r_thick - dist(x, samples of C_i)), normalized per
    sample, with dist the sample-to-element distances
    cover.distances(domain.samples, domain.samples).  Raises
    CoverDegenerateError when some sample has no positive hat (r_thick too
    small for the labeling) or positive hats for every element (thickened
    sets share a point, so the simplex-boundary map cannot exist).
    """
    if r_thick <= 0.0:
        raise ValueError("r_thick must be positive")
    g = np.maximum(0.0, r_thick - dist)
    sums = g.sum(axis=1)
    if np.any(sums <= 0.0):
        raise CoverDegenerateError("some sample has no element within r_thick")
    if np.any(np.all(g > 0.0, axis=1)):
        raise CoverDegenerateError(
            "thickened elements all intersect; shrink r_thick")
    return PartitionOfUnity(values=g / sums[:, None], r_thick=float(r_thick))


def h_map(pou: PartitionOfUnity) -> np.ndarray:
    """Barycentric values as points of the simplex boundary: with vertices
    at the standard basis, the map is the weight vector itself.  Raises
    InteriorHitError when a row has no zero coordinate."""
    values = pou.values
    if np.any(np.all(values > 0.0, axis=1)):
        raise InteriorHitError("a sample maps into the open simplex")
    return values.copy()


def project_to_sphere(h_values: np.ndarray) -> np.ndarray:
    """Central projection of simplex-boundary points to the unit sphere
    around the barycenter, expressed in a fixed orthonormal basis of the
    sum-zero hyperplane (so k weights become k-1 coordinates)."""
    h_values = np.asarray(h_values, dtype=float)
    k = h_values.shape[1]
    basis = null_space(np.ones((1, k)))  # (k, k-1), deterministic SVD basis
    y = (h_values - 1.0 / k) @ basis
    norms = np.linalg.norm(y, axis=1)
    if np.any(norms <= 0.0):
        raise InteriorHitError("a value sits at the barycenter")
    return y / norms[:, None]


def degree_estimate(points: np.ndarray, x_dim: int,
                    triangles: np.ndarray | None = None) -> HomotopyEstimate:
    """Degree of a sampled map into S^1 or S^2.

    x_dim=1: `points` is an ordered loop of unit 2-vectors; the winding
    number is the sum of wrapped turning increments over 2 pi.  x_dim=2:
    `points` are unit 3-vectors at the vertices of the oriented `triangles`
    mesh; the degree is the sum of signed spherical triangle areas (the
    two-argument arctangent form) over 4 pi.  Raises UndersampledError when
    any increment or triangle reaches angular size pi/2.
    """
    points = np.asarray(points, dtype=float)
    if x_dim == 1:
        theta = np.arctan2(points[:, 1], points[:, 0])
        inc = np.diff(theta, append=theta[:1])
        inc = (inc + math.pi) % (2.0 * math.pi) - math.pi
        if np.any(np.abs(inc) >= 0.5 * math.pi):
            raise UndersampledError("a loop step turns by pi/2 or more")
        raw = float(inc.sum() / (2.0 * math.pi))
    elif x_dim == 2:
        if triangles is None:
            raise ValueError("x_dim=2 requires a triangle mesh")
        a = points[triangles[:, 0]]
        b = points[triangles[:, 1]]
        c = points[triangles[:, 2]]
        dots = np.minimum(np.minimum((a * b).sum(1), (b * c).sum(1)),
                          (c * a).sum(1))
        if np.any(dots <= 0.0):
            raise UndersampledError("an image triangle spans pi/2 or more")
        numer = np.einsum("ij,ij->i", a, np.cross(b, c))
        denom = 1.0 + (a * b).sum(1) + (b * c).sum(1) + (c * a).sum(1)
        omega = 2.0 * np.arctan2(numer, denom)
        raw = float(omega.sum() / (4.0 * math.pi))
    else:
        raise ValueError("degree is computed for x_dim in {1, 2} only")
    degree = int(round(raw))
    confidence = max(0.0, 1.0 - 2.0 * abs(raw - degree))
    return HomotopyEstimate(degree=degree, confidence=confidence, raw_sum=raw)


def _loop_order(domain: SampledDomain) -> np.ndarray:
    """Index order tracing the domain loop once counterclockwise."""
    pts = domain.samples
    if domain.kind == "sphere" and domain.dim == 1:
        return np.argsort(np.arctan2(pts[:, 1], pts[:, 0]), kind="stable")
    if domain.kind == "cube_boundary" and domain.dim == 2:
        x0, x1 = pts[:, 0], pts[:, 1]
        t = np.empty(len(pts))
        bottom = x1 <= FACET_TOL
        right = (x0 >= 1.0 - FACET_TOL) & ~bottom
        top = (x1 >= 1.0 - FACET_TOL) & ~bottom & ~right
        left = ~(bottom | right | top)
        t[bottom] = x0[bottom]
        t[right] = 1.0 + x1[right]
        t[top] = 3.0 - x0[top]
        t[left] = 4.0 - x1[left]
        return np.argsort(t, kind="stable")
    raise ValueError("no loop structure for this domain")


def _surface_mesh(domain: SampledDomain) -> np.ndarray:
    """Outward-oriented triangles over the samples of S^2 or of the 3-cube
    boundary: the convex hull of the samples, those of the cube projected
    centrally onto the unit sphere about its center first (the hull of the
    raw cube samples has only the 8 corners as vertices)."""
    pts = domain.samples
    if domain.kind == "cube_boundary":
        pts = pts - 0.5
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    hull = ConvexHull(pts)
    tri = hull.simplices.copy()
    a, b, c = (pts[tri[:, k]] for k in range(3))
    centroid = pts.mean(axis=0)
    normals = np.cross(b - a, c - a)
    inward = np.einsum("ij,ij->i", normals, (a + b + c) / 3.0 - centroid) < 0.0
    tri[inward] = tri[inward][:, [0, 2, 1]]
    return tri


def certify_cover(domain: SampledDomain, cover: CoverAssignment,
                  r_thick: float | None = None) -> CoverCertificate:
    """Degree-based cover classification in the equal-dimension case.

    Requires cover size = domain dimension + 2, the only case where the
    target sphere's homotopy classes are integers.  Runs the partition and
    degree pipeline at three thickening radii (0.5, 0.6, 0.75 of the
    degeneracy threshold; or just the given r_thick) and demands agreement:
    the homotopy class must not depend on the partition chosen.  The
    threshold and every partition read one sample-to-element distance
    matrix.
    """
    k = cover.element_count
    if domain.kind == "sphere":
        x_dim = domain.dim
    elif domain.kind == "cube_boundary":
        x_dim = domain.dim - 1
    else:
        x_dim = -1
    if x_dim not in (1, 2) or k != x_dim + 2:
        return CoverCertificate(verdict="inconclusive", degree=None,
                                confidence=0.0,
                                reason="dimension mismatch: need cover size "
                                       "= domain dim + 2 with dim 1 or 2",
                                r_thick_values=())

    dist = cover.distances(domain.samples, domain.samples)
    if r_thick is not None:
        r_values = (float(r_thick),)
    else:
        scale = covering_scale(dist)
        r_values = tuple(f * scale for f in (0.5, 0.6, 0.75))

    estimates: list[HomotopyEstimate] = []
    used: list[float] = []
    failures: list[str] = []
    if x_dim == 1:
        order = _loop_order(domain)
        mesh = None
    else:
        order = None
        mesh = _surface_mesh(domain)
    for r in r_values:
        try:
            pou = build_partition(dist, r)
            values = project_to_sphere(h_map(pou))
            if x_dim == 1:
                est = degree_estimate(values[order], 1)
            else:
                est = degree_estimate(values, 2, triangles=mesh)
        except (CoverDegenerateError, InteriorHitError, UndersampledError) as e:
            failures.append(f"r={r:.6g}: {e}")
            continue
        estimates.append(est)
        used.append(r)

    if not estimates:
        return CoverCertificate(verdict="inconclusive", degree=None,
                                confidence=0.0,
                                reason="; ".join(failures) or "no estimate",
                                r_thick_values=tuple(r_values))
    degrees = {e.degree for e in estimates}
    confidence = min(e.confidence for e in estimates)
    if len(degrees) > 1:
        return CoverCertificate(verdict="inconclusive", degree=None,
                                confidence=confidence,
                                reason=f"degree estimates disagree: {sorted(degrees)}",
                                r_thick_values=tuple(used),
                                estimates=tuple(estimates))
    degree = degrees.pop()
    if confidence < 0.9:
        verdict, reason = "inconclusive", "confidence below 0.9"
    elif degree != 0:
        verdict, reason = "non_null_homotopic", "nonzero degree"
    else:
        verdict, reason = "null_homotopic", "degree 0 classifies completely here"
    return CoverCertificate(verdict=verdict, degree=degree,
                            confidence=confidence, reason=reason,
                            r_thick_values=tuple(used),
                            estimates=tuple(estimates))
