"""Sphere geometry primitives: circumspheres, chord/angle conversions,
regular-simplex edge lengths, the separation lower bound, and smallest
enclosing angular balls.

The smallest enclosing cap is exact: by minimax duality its center is the
direction of the least-distance point of {u : <p_i, u> >= 1}, which one
NNLS solve gives (Lawson and Hanson 1974, ch. 23).  Sets that fit only in a
closed hemisphere recurse on the orthogonal complement of the NNLS support
(circ_a = pi/2); sets that fit in none raise NotInHemisphereError.

Conventions: points are rows of float64 arrays; spheres in R^m are
(center, radius) with radius >= 0; angular quantities are radians on the
unit sphere S^n embedded in R^{n+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

__all__ = [
    "Sphere",
    "NotInHemisphereError",
    "circumsphere",
    "fit_sphere",
    "chord_from_angle",
    "angle_from_chord",
    "regular_edge_lengths",
    "separation_bound",
    "dekster_lhs",
    "regular_simplex_vertices",
    "min_enclosing_ball_angular",
    "angular_diameter",
]

# Relative tolerances for rank decisions, on-sphere residuals and unit-norm
# validation.  Callers may override per call; these are the documented defaults.
TAU_RANK = 1e-9
TAU_SPHERE = 1e-9
TAU_UNIT = 1e-9


class NotInHemisphereError(ValueError):
    """Raised when a point set does not fit in a closed hemisphere."""


@dataclass(frozen=True)
class Sphere:
    """A sphere in R^m given by center and radius (radius >= 0)."""

    center: np.ndarray
    radius: float

    def margins(self, points: np.ndarray) -> np.ndarray:
        """Signed clearance |y - center| - radius for each row y.

        Positive means strictly outside the closed ball, zero on the sphere,
        negative strictly inside.
        """
        d = np.linalg.norm(np.atleast_2d(points) - self.center, axis=1)
        return d - self.radius

    def to_json(self) -> dict:
        return {"center": [float(v) for v in self.center], "radius": float(self.radius)}


def circumsphere(points: np.ndarray, tau_rank: float = TAU_RANK) -> Sphere | None:
    """Smallest sphere passing through all k given points, 2 <= k <= m+1.

    The center is found in the affine hull of the points: translate so the
    first point is the origin and solve the Gram system G beta = d/2 with
    G = U U^T, U the matrix of difference vectors.  Returns None when the
    Gram system is singular at relative tolerance tau_rank (affinely
    dependent input, e.g. collinear triples).

    Two coincident points are allowed and give the degenerate radius-0 sphere.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two points")
    if pts.shape[0] > pts.shape[1] + 1:
        raise ValueError("at most m+1 points in R^m")
    p0 = pts[0]
    u = pts[1:] - p0
    if pts.shape[0] == 2 and np.all(u == 0.0):
        return Sphere(center=p0.copy(), radius=0.0)
    g = u @ u.T
    d = 0.5 * np.einsum("ij,ij->i", u, u)
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] <= tau_rank * max(sv[0], 1e-300):
        return None
    beta = np.linalg.solve(g, d)
    center = p0 + beta @ u
    radii = np.linalg.norm(pts - center, axis=1)
    radius = float(radii.mean())
    return Sphere(center=center, radius=radius)


def fit_sphere(points: np.ndarray) -> tuple[Sphere | None, float]:
    """Least-squares sphere through a point cloud of any size.

    Linearizes |y - c|^2 = r^2 into 2<y, c> + (r^2 - |c|^2) = |y|^2 and
    solves in the least-squares sense.  Returns (sphere, worst absolute
    on-sphere residual); (None, inf) when the fitted squared radius is not
    positive (e.g. all points coincident).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = pts.shape
    a = np.hstack([2.0 * pts, np.ones((n, 1))])
    b = (pts ** 2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    center = sol[:m]
    r2 = sol[m] + center @ center
    if r2 <= 0.0:
        return None, math.inf
    r = math.sqrt(r2)
    resid = np.abs(np.linalg.norm(pts - center, axis=1) - r)
    return Sphere(center=center, radius=float(r)), float(resid.max())


def chord_from_angle(theta: float) -> float:
    """Euclidean chord length subtended by angle theta on the unit sphere."""
    return 2.0 * math.sin(0.5 * theta)


def angle_from_chord(c: float) -> float:
    """Inverse of chord_from_angle on [0, pi]; rejects chords outside [0, 2]."""
    if c < 0.0 or c > 2.0 + 1e-12:
        raise ValueError(f"chord {c} outside [0, 2]")
    return 2.0 * math.asin(min(1.0, 0.5 * c))


def regular_edge_lengths(n: int) -> tuple[float, float]:
    """Edge lengths (Euclidean, angular) of the regular (n+1)-simplex
    inscribed in the unit n-sphere.

    The Euclidean value is sqrt(2(n+2)/(n+1)); the angular value is
    2*arcsin(sqrt((n+2)/(2(n+1)))), and chord_from_angle maps one to the
    other exactly.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    d_eu = math.sqrt(2.0 * (n + 2) / (n + 1))
    d_ang = 2.0 * math.asin(math.sqrt((n + 2) / (2.0 * (n + 1))))
    return d_eu, d_ang


def separation_bound(n: int) -> float:
    """Guaranteed lower bound sqrt((n+2)/n) on the largest intrinsic
    separation among neighbor pairs of a map defined on S^n."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return math.sqrt((n + 2) / n)


def dekster_lhs(n: int, circ_a: float) -> float:
    """Left side 2*arcsin(sqrt((n+1)/(2n)) * sin(circ_a)) of the
    circumradius/diameter inequality on S^n, n >= 2.

    circ_a is the angular circumradius of a compact set contained in an
    open hemisphere, so circ_a in [0, pi/2).
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    if not 0.0 <= circ_a <= 0.5 * math.pi:
        raise ValueError("circ_a must lie in [0, pi/2]")
    arg = math.sqrt((n + 1) / (2.0 * n)) * math.sin(circ_a)
    if arg > 1.0 + 1e-12:
        raise ValueError("arcsin argument exceeds 1")
    return 2.0 * math.asin(min(1.0, arg))


def regular_simplex_vertices(n: int) -> np.ndarray:
    """Vertices of the regular (n+1)-simplex inscribed in S^n, as an
    (n+2, n+1) array of unit rows with the first vertex at the north pole
    (0, ..., 0, 1).  Pairwise dot products are -1/(n+1); construction is
    the standard recursion and fully deterministic.
    """
    if n == 0:
        return np.array([[1.0], [-1.0]])
    sub = regular_simplex_vertices(n - 1)  # (n+1, n), pairwise dots -1/n
    c = -1.0 / (n + 1)
    s = math.sqrt(1.0 - c * c)
    top = np.zeros(n + 1)
    top[-1] = 1.0
    rest = np.hstack([s * sub, np.full((n + 1, 1), c)])
    return np.vstack([top[None, :], rest])


def _hemisphere_center(pts: np.ndarray) -> tuple[np.ndarray, bool]:
    """Center of the smallest cap around the unit rows of pts, and whether
    the cap lies in an open hemisphere (see min_enclosing_ball_angular)."""
    npts, d = pts.shape
    e = np.vstack([pts.T, np.ones(npts)])
    f = np.zeros(d + 1)
    f[d] = 1.0
    v, rnorm = nnls(e, f)
    support = pts[v > 0.0]
    # rnorm = c / sqrt(1 + c^2) with c = cos(circ_a), and the support's
    # smallest singular value is at most c sqrt(d): below 1e-12 an open set
    # also fails the rank test at TAU_RANK and gets circ_a = pi/2 - O(c).
    if rnorm > 1e-12:
        # The center is the direction of the least-distance point
        # -r[:d] / r[d], r = e v - f.  r[d] = sum(v) - 1 is about -c^2 and
        # may round to 0, so take r[:d] = pts^T v.  NNLS optimality makes it
        # orthogonal to the support's affine hull; projecting its rounding
        # error off that hull keeps circ_a exact when c is small.
        x = pts.T @ v
        diffs = (support[1:] - support[0]).T
        x -= diffs @ np.linalg.lstsq(diffs, x, rcond=None)[0]
        return x / np.linalg.norm(x), True
    _, sv, vt = np.linalg.svd(support)
    basis = vt[int(np.sum(sv > TAU_RANK * sv[0])):]
    if basis.shape[0] == 0:
        raise NotInHemisphereError("point set does not fit in a closed hemisphere")
    proj = pts @ basis.T
    norms = np.linalg.norm(proj, axis=1)
    keep = norms > TAU_RANK
    if not keep.any():
        return basis[0], False
    center, _ = _hemisphere_center(proj[keep] / norms[keep, None])
    return center @ basis, False


def min_enclosing_ball_angular(
    points: np.ndarray,
    tau_unit: float = TAU_UNIT,
) -> tuple[np.ndarray, float]:
    """Smallest angular ball enclosing unit vectors on S^n.

    Returns (center, circ_a) with center a unit vector and circ_a the
    angular radius.  By minimax duality, max_{|u|<=1} min_i <u, p_i> equals
    the distance from 0 to conv(P), and the optimal center is the direction
    of the least-distance point of {u : <p_i, u> >= 1}.  One NNLS solve
    (Lawson and Hanson, ch. 23) gives that point exactly; circ_a is then
    the largest angle from the center.

    When the points fit only in a closed hemisphere (0 in conv(P)), the
    NNLS residual is zero and the support of its solution sums to 0 with
    positive weights, so every center is orthogonal to that support.  The
    points are projected onto the orthogonal complement, those that
    project to 0 are dropped, and the search recurses on the rest; the
    result has circ_a = pi/2.  Raises NotInHemisphereError when the
    complement is {0}, i.e. no closed hemisphere contains the points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty 2-d point array")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > 10 * tau_unit * np.maximum(norms, 1.0)):
        raise ValueError("points must be unit vectors")
    if pts.shape[0] == 1:
        return pts[0].copy(), 0.0
    center, is_open = _hemisphere_center(pts)
    if not is_open:
        return center, 0.5 * math.pi
    return center, float(np.arccos(np.clip(pts @ center, -1.0, 1.0).min()))


def angular_diameter(points: np.ndarray) -> float:
    """Largest pairwise angle among unit vectors (brute force)."""
    pts = np.asarray(points, dtype=float)
    dots = np.clip(pts @ pts.T, -1.0, 1.0)
    return float(np.arccos(dots.min()))
