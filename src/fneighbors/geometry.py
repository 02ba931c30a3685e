"""Sphere geometry primitives: circumspheres, the affine reduction of a
point set, chord/angle conversions, regular-simplex edge lengths, the
separation lower bound, and smallest enclosing angular balls.

The smallest enclosing cap is exact: by minimax duality its center is the
direction of the least-distance point of {u : <p_i, u> >= 1}, which one
NNLS solve gives (Lawson and Hanson 1974, ch. 23).  For a set in an open
hemisphere, Welzl's recursion seeded with that center's order fixes the
support, so caps of any size keep their digits.  Sets that fit only in a
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
from scipy.spatial.distance import pdist

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

# Relative tolerances for rank decisions and unit-norm validation.
TAU_RANK = 1e-9
TAU_UNIT = 1e-9


def _affine_reduce(images: np.ndarray):
    """Project points onto their affine hull.  Returns (reduced, embed, s):
    reduced = U S has centered, orthogonal columns whose norms are s, the
    kept singular values, and embed maps reduced centers back to ambient
    coordinates."""
    center = images.mean(axis=0)
    shifted = images - center
    _, s, vt = np.linalg.svd(shifted, full_matrices=False)
    if s.size == 0 or s[0] < 1e-300:
        rank = 0
    else:
        rank = int(np.sum(s > TAU_RANK * s[0]))
    rank = max(rank, 1)
    basis = vt[:rank]

    def embed(point: np.ndarray) -> np.ndarray:
        return center + point @ basis

    return shifted @ basis.T, embed, s[:rank]


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


def circumsphere(points: np.ndarray) -> Sphere | None:
    """Smallest sphere passing through all k given points, 2 <= k <= m+1.

    The center is found in the affine hull of the points: translate so the
    first point is the origin and solve the Gram system G beta = d/2 with
    G = U U^T, U the matrix of difference vectors.  Returns None when the
    Gram system is singular at relative tolerance TAU_RANK (affinely
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
    if sv[-1] <= TAU_RANK * max(sv[0], 1e-300):
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
    positive (e.g. all points coincident).  neighbors._clusters solves the
    same fit in closed form, and the tests compare the two.
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


def _cap_through(edge: tuple[np.ndarray, ...]) -> np.ndarray:
    """Center of the smallest cap with the direction of every point of edge
    on its boundary: the first direction projected off the span of the
    differences to the others.  Each difference q/|q| - p/|p| is taken as
    (q - p)/|q| plus the norms' gap from <q - p, q + p>, so it keeps its
    digits when the points are close."""
    p, norm_p = edge[0], np.linalg.norm(edge[0])
    x = p / norm_p
    if len(edge) > 1:
        q = np.array(edge[1:])
        norm_q = np.linalg.norm(q, axis=1)
        gap = np.einsum("ij,ij->i", q - p, q + p)  # |q|^2 - |p|^2
        diffs = ((q - p) / norm_q[:, None]
                 - np.outer(gap / (norm_q * (norm_q + norm_p)), x)).T
        # one pass leaves O(eps) along the differences, which tilts a
        # short x (circ_a near pi/2) by O(eps / |x|); a second removes it
        for _ in range(2):
            x = x - diffs @ np.linalg.lstsq(diffs, x, rcond=None)[0]
    return x / np.linalg.norm(x)


def _smallest_cap(pts: np.ndarray, edge: tuple = ()) -> np.ndarray:
    """Welzl's recursion for caps in an open hemisphere: the center of the
    smallest cap holding the directions of the rows of pts with those of
    edge on its boundary.  A cap's boundary is fixed by d points, d =
    pts.shape[1]."""
    first = edge[0] if edge else pts[0]
    center = _cap_through(edge or (first,))
    if len(edge) == pts.shape[1]:
        return center
    reach = np.linalg.norm(first - center)
    k = 0
    while True:
        chords = np.linalg.norm(pts[k:] - center, axis=1)
        out = np.flatnonzero(chords > reach * (1.0 + 1e-12))
        if not out.size:
            return center
        k += int(out[0])
        center = _smallest_cap(pts[:k], (*edge, pts[k]))
        reach = np.linalg.norm(pts[k] - center)
        k += 1


def _hemisphere_center(pts: np.ndarray) -> tuple[np.ndarray, bool]:
    """Center of the smallest cap around the unit rows of pts, and whether
    the cap lies in an open hemisphere (see min_enclosing_ball_angular)."""
    from scipy.optimize import nnls

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
        # The NNLS center is the direction of the least-distance point, but
        # near a tiny cap its support is below rounding: the norms it
        # compares differ by O(circ_a^2).  Its order, farthest first, seeds
        # the exact support search.
        x = pts.T @ v
        far = np.argsort(-np.linalg.norm(pts - x / np.linalg.norm(x), axis=1),
                         kind="stable")
        return _smallest_cap(pts[far]), True
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


def min_enclosing_ball_angular(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest angular ball enclosing unit vectors on S^n.

    Returns (center, circ_a) with center a unit vector and circ_a the
    angular radius.  By minimax duality, max_{|u|<=1} min_i <u, p_i> equals
    the distance from 0 to conv(P), and the optimal center is the direction
    of the least-distance point of {u : <p_i, u> >= 1}.  One NNLS solve
    (Lawson and Hanson, ch. 23) gives that point and tells which
    hemisphere case holds.  On a cap of angle t the norms it compares
    differ by O(t^2), so its support is lost to rounding below t ~ 1e-8;
    for an open cap, Welzl's recursion over the points, farthest from the
    NNLS center first, finds the exact support from differences of
    directions.  circ_a = 2 asin(max_i |c - p_i| / 2), the chord form
    (no arccos of a dot near 1), and is 0.0 when all points are equal.

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
    if np.any(np.abs(norms - 1.0) > 10 * TAU_UNIT * np.maximum(norms, 1.0)):
        raise ValueError("points must be unit vectors")
    if (pts == pts[0]).all():
        return pts[0].copy(), 0.0
    center, is_open = _hemisphere_center(pts)
    if not is_open:
        return center, 0.5 * math.pi
    # the chord form: arccos of a dot near 1 loses half the digits
    chord = np.linalg.norm(pts - center, axis=1).max()
    return center, float(2.0 * np.arcsin(0.5 * chord))


def angular_diameter(points: np.ndarray) -> float:
    """Largest pairwise angle among unit vectors (brute force), in the
    chord form 2 asin(max |p_i - p_j| / 2), which keeps the digits of
    small angles that the arccos of a dot near 1 loses."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return angle_from_chord(float(pdist(pts).max(initial=0.0)))
