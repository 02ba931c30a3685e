"""Neighbor-pair detection on image point sets.

Two domain samples form an f-neighbor pair when some sphere passes through
both of their images with no other image strictly inside (points exactly on
the sphere are allowed); coinciding images are the radius-0 branch of the
same notion.  The predicate is equivalent to "the closed Voronoi cells of
the two images intersect", which after the paraboloid lifting becomes a
linear feasibility problem: pair_is_neighbor_fast solves that LP for one
pair.

Images that are not cospherical take one candidate path in any reduced
dimension of 2 or more, a Delaunay triangulation: every Delaunay edge is
certified by the last of its incident-simplex circumballs that certifies
it (a pick that rounding cannot move), and every f-neighbor
pair is an edge or lies in a cospherical cell, which becomes one tuple;
every ball is read from Qhull's lifted hyperplanes, then checked.  It
all runs on the images scaled by a power of two to a diameter in [1/2,
1), so neither Qhull nor a tolerance sees the map's scale.  The
triangulation can be large: a closed curve in R^4 or R^5 is nearly
neighborly, like the cyclic polytopes, so a good share of all pairs are
edges and, in R^5, the simplices grow as N^3.
When every sample is a vertex, every ball is live and each interior
facet's apex clears the ball across it by a margin, Delaunay's lemma
proves all circumballs empty from the simplices' neighbors alone;
otherwise one _clearance query over every ball's center does it.
neighbor_span, which reads D_f only, certifies just the longest Delaunay
edge when there is no cell, with direct distances from its few balls, and
clusters coincident images by a sort unless two lie close along every
axis: on generic images it builds no KD-tree and no hash table.
The graph comes back as one NeighborGraph: columns over the certified
pairs (indices, witness ball, slack, intrinsic distance) and over the
tuples (coincidence clusters, and the cells or the one tuple of
cospherical images) on one table of witness balls, so D_f is an argmax
over the distance columns.  What a certificate is and when it is
accepted is the check module's.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import Delaunay, cKDTree

from .check import (
    EPS_COINCIDE_REL,
    EPS_INSIDE_REL,
    TAU_ON_REL,
    NeighborCertificate,
    NeighborGraph,
    _extent,
    _ints,
    check_certificate,
    check_graph,
    image_diameter,
    pair_is_neighbor_oracle,
)
from .domains import SampledDomain
from .geometry import Sphere, _affine_reduce

__all__ = [
    "ImageScaleError",
    "NeighborCertificate",
    "NeighborGraph",
    "pair_is_neighbor_oracle",
    "pair_is_neighbor_fast",
    "neighbor_graph",
    "neighbor_span",
    "compute_df",
    "extremal_pair",
    "check_certificate",
    "check_graph",
    "image_diameter",
]

LP_BOX = 1e6  # half-width of the LP's box on the scaled center (_lp_pair)
LP_TOL = 1e-9  # linprog's relative feasibility and multiplier tolerance
CROSS_PAIR_CAP = 64  # member pairs past which a cluster pair keeps its farthest


class ImageScaleError(ValueError):
    """Images from which no tolerance can be scaled: some image is not
    finite, the square of their bounding-box diagonal overflows, or the
    diagonal is below the smallest normal float."""


def linprog(g: np.ndarray, h: np.ndarray, basis) -> np.ndarray | None:
    """The vertex x minimizing x[-1] subject to g x <= h, or None.

    The simplex method on the dual, min h.y subject to g^T y = -e_d and
    y >= 0, started from basis: d rows of g whose multipliers are >= 0.
    A basis B has the vertex x = g_B^-1 h_B and the multipliers y =
    -g_B^-T e_d.  A row is violated when g x - h exceeds LP_TOL (1 + |h|
    + |g| |x|), and the excess is by how much.  Each pivot enters a
    violated row r and leaves, among the basis rows whose multipliers
    reach 0 first as y_r grows, the lowest-index one.  r is the row of
    largest excess, or the lowest-index violated row after a degenerate
    pivot (one that moves no multiplier): every pivot of a cycle of bases
    would be degenerate and so follow Bland's rule, which cannot cycle in
    exact arithmetic.  A basis row may leave only if its entry of g_r
    g_B^-1 exceeds LP_TOL times the entry's magnitude bound |g_r|
    |g_B^-1|, so no pivot is on rounding noise.  x comes back when no row
    is violated and no multiplier is below -LP_TOL; None when a multiplier
    is, when no row can leave (g x <= h is infeasible) or after 50 pivots
    per row."""
    basis, bland = list(basis), False
    mag = np.abs(g)
    for _ in range(50 * len(g)):
        inv = np.linalg.inv(g[basis])
        x = inv @ h[basis]
        y = -inv[-1]  # the multipliers: g_B^T y = -e_d
        excess = g @ x - h - LP_TOL * (1.0 + np.abs(h) + mag @ np.abs(x))
        violated = np.flatnonzero(excess > 0.0)
        if not len(violated):
            return x if (y >= -LP_TOL).all() else None
        r = int(violated[0] if bland else np.argmax(excess))
        w = g[r] @ inv  # entering y_r by t moves y_B by -t w
        pos = np.flatnonzero(w > LP_TOL * (mag[r] @ np.abs(inv)))
        if not len(pos):  # the primal is infeasible
            return None
        ratio = np.maximum(y[pos], 0.0) / w[pos]
        step = ratio.min()
        basis[min(pos[ratio == step], key=basis.__getitem__)] = r
        bland = step == 0.0
    return None


def _lp_pair(a: np.ndarray, b: np.ndarray, others: np.ndarray, box: float):
    """LP feasibility for the lifted empty-sphere predicate.

    Minimizes the largest normalized violation s of the bisector-halfspace
    constraints 2<c, y-a> <= |y|^2 - |a|^2 over centers c on the bisector
    of a and b inside a box of half-width `box` (scaled units).  The
    bisector is c = c0 + Q t, with Q an orthonormal basis of the
    complement of the unit normal e, so linprog solves for (t, s) over
    one row [n Q, -1] per other image (n its unit direction from a) and
    the box rows +-[Q_i, 0].  Its start is the first image row and, for
    every coordinate but the one where |e| is largest, the box row whose
    sign makes its multiplier >= 0.  s* <= 0 certifies a center c whose
    sphere through a and b has no constraint point strictly inside.
    Returns (status, s*, c) in the caller's scaled frame; with no other
    image than duplicates of a, or when linprog returns None, the status
    is "failed".
    """
    m = len(a)
    u = others - a
    nu = np.sqrt(np.vecdot(u, u))
    # a duplicate of a is on any sphere through a, never inside
    keep = nu >= 1e-14
    u, nu, y = u[keep], nu[keep], others[keep]
    if not len(y):
        return "failed", math.inf, None
    ub = b - a
    nb = np.linalg.norm(ub)
    e = ub / nb
    c0 = (b @ b - a @ a) / (2.0 * nb) * e
    q = np.linalg.qr(e[:, None], mode="complete")[0][:, 1:]
    n = u / nu[:, None]
    nq = n @ q
    zero = np.zeros((m, 1))
    g = np.block([[nq, np.full((len(y), 1), -1.0)], [q, zero], [-q, zero]])
    h = np.concatenate([(np.vecdot(y, y) - a @ a) / (2.0 * nu) - n @ c0,
                        box - c0, box + c0])
    free = np.delete(np.arange(m), np.argmax(np.abs(e)))
    z = np.linalg.solve(q[free].T, -nq[0])
    start = [0, *(len(y) + i + m * (zi < 0) for i, zi in zip(free, z))]
    x = linprog(g, h, start)
    if x is None:
        return "failed", math.inf, None
    return "ok", float(x[-1]), c0 + q @ x[:-1]


def _build_certificate(i, j, images, center, eps_inside, domain=None,
                       nearest=None):
    """The certificate of the pair (i, j) on the sphere about center at
    their mean distance, or None when another image lies deeper inside
    than eps_inside or the slack is not finite (an overflowing ball).
    nearest, when the caller has it, is the distance from center to the
    nearest image other than i and j: the clearance at radius 0."""
    a, b = images[i], images[j]
    with np.errstate(over="ignore", invalid="ignore"):
        r = 0.5 * (np.linalg.norm(a - center) + np.linalg.norm(b - center))
        if nearest is None and len(images) > 2:
            nearest = _clearance(images, center[None], np.zeros(1),
                                 np.array([[i, j]]))[0]
        slack = float(nearest - r) if len(images) > 2 else 0.0
    if not -eps_inside <= slack < math.inf:
        return None
    rho = domain.rho(i, j) if domain is not None else 0.0
    sphere = Sphere(center=np.asarray(center, dtype=float), radius=float(r))
    return NeighborCertificate(indices=(min(i, j), max(i, j)), witness=sphere,
                               slack=slack, pair_distance=rho)


def pair_is_neighbor_fast(i: int, j: int, images: np.ndarray, *,
                          eps_inside_rel: float = EPS_INSIDE_REL,
                          domain: SampledDomain | None = None):
    """Scalable verdict for one pair: "yes"/"no"/"uncertain" plus a
    certificate for yes verdicts.

    Pipeline: coincidence test, then the Gabriel midpoint ball, then the
    lifted LP (see _lp_pair), solved exactly at a vertex by linprog's
    dual simplex.  "no" means the LP optimum s* exceeds eps_inside_rel.
    s* is the least, over centers on the bisector in the LP's box, of a
    center's largest distance past the bisector of a member and another
    image, not an image's depth inside the sphere, which certificates are
    judged by.  So a "no" is no refutation in the certificates' units: a
    ball about the LP's own center can still pass _build_certificate.
    "uncertain" appears when the LP fails (linprog returns None, or every
    other image duplicates images[i]) or when an optimum
    within eps_inside_rel yields no certificate.  The verdict is for the
    images as given, not for their projection onto the affine hull that
    neighbor_graph answers for.
    """
    images = np.asarray(images, dtype=float)
    npts, m = images.shape
    diam = image_diameter(images)
    eps_coincide = EPS_COINCIDE_REL * diam
    eps_inside = eps_inside_rel * diam

    a, b = images[i], images[j]
    gap = float(np.linalg.norm(a - b))
    if gap <= eps_coincide:  # also every pair of a zero-diameter image set
        rho = domain.rho(i, j) if domain is not None else 0.0
        cert = NeighborCertificate(indices=(min(i, j), max(i, j)),
                                   witness="coincidence", slack=gap,
                                   pair_distance=rho)
        return "yes", cert

    mid = 0.5 * (a + b)
    # the Gabriel ball, measured once at radius 0 and shared with its
    # certificate; with two images its clearance is inf
    nearest = _clearance(images, mid[None], np.zeros(1), np.array([[i, j]]))[0]
    if nearest - 0.5 * gap >= -eps_inside:
        cert = _build_certificate(i, j, images, mid, eps_inside, domain,
                                  nearest)
        if cert is not None:
            return "yes", cert

    # scaled frame centered at the pair midpoint
    scale = max(diam, 1e-300)
    shift = mid
    sa = (a - shift) / scale
    sb = (b - shift) / scale
    mask = np.ones(npts, dtype=bool)
    mask[[i, j]] = False
    so = (images[mask] - shift) / scale
    status, sstar, c_scaled = _lp_pair(sa, sb, so, LP_BOX)
    if status != "ok":
        return "uncertain", None
    if sstar <= eps_inside_rel:
        center = c_scaled * scale + shift
        cert = _build_certificate(i, j, images, center, eps_inside, domain)
        if cert is not None:
            return "yes", cert
        return "uncertain", None
    return "no", None


def _coincidence_labels(images: np.ndarray, eps: float) -> np.ndarray:
    """Cluster label per sample: samples whose images coincide within eps
    (transitively) share one.  Labels count up in the order of each
    cluster's lowest member, as connected_components visits the nodes in
    index order.

    Two images within eps are within eps along every axis, so when the
    images sorted along their widest bounding-box axis are all more than
    2 eps apart, every sample is its own cluster and no tree is built (the
    factor 2 keeps the rounding of squared distances from mattering).
    Otherwise a KD-tree lists the pairs within eps, on the images scaled
    by the power of two that takes eps into [1/2, 1): exactly, and so
    that squared distances near eps do not underflow."""
    n = len(images)
    if n < 2:
        return np.arange(n)
    axis = int(_extent(images).argmax())
    x = np.sort(images[:, axis])
    if (x[1:] - x[:-1] > 2.0 * eps).all():
        return np.arange(n)
    k = -math.frexp(eps)[1]
    links = cKDTree(np.ldexp(images, k)).query_pairs(math.ldexp(eps, k),
                                                     output_type="ndarray")
    if not len(links):  # close along the axis, but no pair within eps
        return np.arange(n)
    from scipy.sparse.csgraph import connected_components

    adjacency = coo_matrix((np.ones(len(links)), (links[:, 0], links[:, 1])),
                           shape=(n, n))
    return connected_components(adjacency, directed=False)[1]


def _line_pairs(values: np.ndarray):
    """Neighbor pairs for 1-d images: consecutive distinct values (the
    unique sphere through two reals is the pair {lo, hi}, its inside the
    open interval).  Returns candidate columns (lo, hi, ball, slack,
    centers, radii), pair k on ball k; the nearest other value to a pair
    is the next one out on either side."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    centers = 0.5 * (v[:-1] + v[1:])
    radii = 0.5 * (v[1:] - v[:-1])
    outer = np.r_[-np.inf, v, np.inf]  # pair k's neighbors: outer[k], outer[k + 3]
    slack = (np.minimum(np.abs(outer[:-3] - centers), np.abs(outer[3:] - centers))
             - radii) if len(v) > 2 else np.zeros(len(centers))
    i, j = order[:-1], order[1:]
    return (np.minimum(i, j), np.maximum(i, j), np.arange(len(radii)), slack,
            centers[:, None], radii)


# Leaf size of the KD-tree behind _clearance, which proves every live
# circumball empty on the full graph's fallback path, when Delaunay's
# lemma does not apply (see _local_clearance).  On 6 S^2 ->
# R^3 maps with 4096 samples, querying the circumcenters of all live
# simplices took 0.65-0.68 s at 32, against 0.82-0.88 s at scipy's default
# of 16 and 0.70-0.78 s at 64 (2-vCPU VM).  The clearances do not depend
# on it (see _clearance).
CLEARANCE_LEAFSIZE = 32

# Balls times points up to which _clearance measures every distance
# instead of querying a KD-tree, the measured crossover (2-vCPU VM): at
# 512 points, 32 balls took 103 us direct against 131 us by tree; at
# 4096, 8 balls 283 against 1,101 us and 16 balls 2,008 against 1,042 us.
CLEARANCE_DIRECT_MAX = 2**15

# Smallest margin, relative to the point set's diameter, by which the apex
# across every interior facet must clear a circumball for Delaunay's lemma
# to prove all of them empty (see _local_clearance).
LOCAL_DELAUNAY_TAU = 1e-11


def _lifted_balls(tri, rows):
    """Centers and radii of the circumspheres of tri.simplices[rows] from
    their rows (n_x, n_z, offset) of tri.equations.  Qhull lifts x to (x,
    s |x|^2 + t), s = tri.paraboloid_scale and t = paraboloid_shift, so
    the center is -n_x / (2 s n_z) and the squared radius |c|^2 - (n_z t
    + offset) / (n_z s); a vertical hyperplane gives no finite ball."""
    eq = tri.equations[rows]
    nz, s = eq[:, -2], tri.paraboloid_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        centers = eq[:, :-2] / (-2.0 * s * nz[:, None])
        return centers, np.sqrt(np.vecdot(centers, centers) - (
            nz * tri.paraboloid_shift + eq[:, -1]) / (nz * s))


def _on_ball(spread: np.ndarray, radii, tau_on: float):
    """Whether each ball's largest absolute member margin, spread, widened
    by the spacing of floats at the radius, is within tau_on: a sliver's
    ball is too large to show its vertices on it to that precision."""
    return spread + np.spacing(radii) <= tau_on


def _vertex_margins(pts: np.ndarray, splx: np.ndarray, centers: np.ndarray,
                    radii: np.ndarray) -> np.ndarray:
    """margin[s, v], the signed distance of vertex v of simplex splx[s]
    from the ball (centers[s], radii[s]), computed one vertex column at a
    time into one output whose columns are contiguous (a transposed
    array), so that no (vertex, simplex, axis) temporary is built and
    _on_ball reduces long rows."""
    margin = np.empty(splx.shape[::-1])
    for v, row in enumerate(margin):
        diff = pts.take(splx[:, v], axis=0)
        diff -= centers
        np.einsum("sk,sk->s", diff, diff, out=row)
    np.sqrt(margin, out=margin)
    margin -= radii
    return margin.T


def _circumballs(pts: np.ndarray, tri, tau_on: float, rows=slice(None)):
    """The live balls (_on_ball) among the circumballs (_lifted_balls) of
    tri.simplices[rows], all of them by default, over the points pts Qhull
    triangulated: (live, centers, radii, margin), live the simplices'
    indices and margin[s, v] the signed distance of vertex v of simplex
    live[s] from sphere s, in our own arithmetic (rounding error only).
    Their clearances come from _clearance."""
    centers, radii = _lifted_balls(tri, rows)
    with np.errstate(invalid="ignore"):
        margin = _vertex_margins(pts, tri.simplices[rows], centers, radii)
    live = _on_ball(np.abs(margin).max(axis=1), radii, tau_on)
    # each copy replaces its source, so one column set is doubled at a time
    margin = margin.T.compress(live, axis=1).T
    centers = centers.compress(live, axis=0)
    return (np.arange(len(tri.simplices))[rows][live], centers, radii[live],
            margin)


def _clearance(pts: np.ndarray, centers: np.ndarray, radii: np.ndarray,
               members: np.ndarray) -> np.ndarray:
    """Clearance of each ball (centers[b], radii[b]): the distance from its
    center to the nearest point of pts not in members[b] (any (B, k) index
    array; a ragged set is padded with one of its members), minus its
    radius.  Up to CLEARANCE_DIRECT_MAX balls times points every distance
    is summed axis by axis (np.vecdot rounds otherwise); past it one
    KD-tree query takes each center's k + 1 nearest, which hold the
    nearest non-member whichever equidistant points the tree returns.  In
    up to 7 dimensions the sum is cKDTree's, so the branches agree bit for
    bit, at any leaf size; from 8 on cKDTree sums in four interleaved
    accumulators, and they may differ in the last bits."""
    npts = len(pts)
    if len(centers) * npts <= CLEARANCE_DIRECT_MAX:
        # one coordinate per row: each operation runs along all the points
        diff = np.ascontiguousarray(pts.T) - centers[:, :, None]
        dist = np.sqrt((diff * diff).sum(axis=1))
        dist[np.arange(len(members))[:, None], members] = np.inf
        return dist.min(axis=1) - radii
    tree = cKDTree(pts, leafsize=CLEARANCE_LEAFSIZE)
    dists, nbrs = tree.query(centers, k=min(members.shape[1] + 1, npts))
    # one member column at a time: no (ball, neighbor, member) temporary
    for col in members.T:
        dists[nbrs == col[:, None]] = np.inf
    return dists.min(axis=1) - radii


def _local_clearance(pts: np.ndarray, tri, centers: np.ndarray,
                     radii: np.ndarray) -> np.ndarray | None:
    """Clearance of every circumball of the triangulation tri of pts,
    proven from the simplices' neighbors alone by Delaunay's lemma, or
    None when the lemma's hypotheses fail.

    tri carries simplices, neighbors (neighbors[s, k] is the simplex
    across the facet of s opposite its vertex k, -1 on the hull) and
    coplanar (the points Qhull left out of the triangulation), as scipy's
    Delaunay does; centers and radii are the circumballs of _circumballs,
    one per simplex.  The apex of the neighbor t across facet k of s is
    simplices[t].sum() - simplices[s].sum() + simplices[s, k], and its
    margin |q - c_s| - r_s is computed as the vertex margins are.  The
    lemma applies when every point is a vertex (coplanar is empty), every
    ball is live, and every apex margin, from both sides of every
    interior facet, is at least LOCAL_DELAUNAY_TAU times the diameter.
    Each ball's clearance is then its smallest apex margin (inf with no
    interior facet).

    Why each ball is then empty (Delaunay 1934; Edelsbrunner, Geometry and
    Topology for Mesh Generation, 2001).  Let pi_s(x) = |x - c_s|^2 -
    r_s^2, the power of x with respect to ball s.  For simplices s and t
    across a facet F, pi_s - pi_t is affine and vanishes at the vertices
    of F, so on its hyperplane H; at the apex q of t it equals pi_s(q) >
    0, so pi_s > pi_t on q's side of H.

    - No folds.  Both balls pass through the vertices of F, so on either
      side of H one of them holds the other's part.  Were s and t on one
      side of H, the apex of one would lie in the other's ball, at a
      margin <= 0; the two-sided test rules that out.  So every interior
      facet has its two simplices on opposite sides, and as Qhull's
      simplices cover the hull of pts, they form a triangulation of it.
    - The walk.  For a point p that is not a vertex of s, walk the
      segment from a generic point of s to p.  It crosses the simplices
      s = s_0, s_1, ..., s_m, the last having p as a vertex (every point
      is a vertex), each step through a facet with p on the far side.  So
      pi_s(p) > pi_s_1(p) > ... > pi_s_m(p) = 0: p lies outside ball s.
    - Rounding.  The margins carry the error of the balls.  Against
      circumcenters in np.longdouble, on the 15 S^2 -> R^3 maps [s,
      1000..1004], s = 1..3, with 4096 samples, the apex margins below
      1e-7 of the diameter erred by at most 1.4e-14 of it (2.4e-14 with
      solved centers), and the larger ones by at most 1.5e-7 of
      themselves.  So a margin computed at tau or more, 720 times that
      floor, is truly positive; the smallest margin on those maps was
      1.75e-10 of the diameter.  tau also lies five orders of magnitude
      below eps_inside_rel, the depth to which certificates are held.

    The apex margins bound a ball's clearance from above only (a point
    beside a vertex may come closer than every apex).  That changes
    neither the picks nor the slacks.  The picks: a ball certifies an
    edge only if its clearance passes, and both clearances do, since the
    KD-tree one is that of a ball proven empty, below 0 by rounding at
    most, far less than eps_inside.  The slacks: an edge's slack is
    min(clearance, u), u being the smallest margin of its simplex's other
    vertices, which is rounding (at most 1.6e-12 of the diameter on the
    maps above, each below 1.1e-6 of the ball's smallest apex margin).
    The KD-tree path gives the same slack unless a point outside the ball
    lies within u > 0 of it."""
    simplices, nbr = tri.simplices, tri.neighbors
    if len(tri.coplanar) or len(centers) < len(simplices):
        return None
    sums = simplices.sum(axis=1)
    clear = np.full(len(simplices), np.inf)
    # one facet at a time, to keep the temporaries at one per simplex
    for k in range(simplices.shape[1]):
        s = np.flatnonzero(nbr[:, k] >= 0)
        apex = sums[nbr[s, k]] - sums[s] + simplices[s, k]
        margin = (np.linalg.norm(pts.take(apex, axis=0)
                                 - centers.take(s, axis=0), axis=1) - radii[s])
        clear[s] = np.minimum(clear[s], margin)
    if not clear.min() >= LOCAL_DELAUNAY_TAU * image_diameter(pts):
        return None
    return clear


@functools.cache
def _local_pairs(nverts: int):
    """The local pairs (p[k], q[k]), p < q, of a simplex with nverts
    vertices in np.triu_indices order, and rest[k], the other local
    columns of pair k, ascending."""
    p, q = np.triu_indices(nverts, 1)
    rest = np.array([[v for v in range(nverts) if v != a and v != b]
                     for a, b in zip(p, q)], dtype=np.intp)
    return p, q, rest.reshape(len(p), nverts - 2)


def _index_type(bound: int):
    """The narrower of int32 and int64 that holds every integer below
    bound, for index arrays (half the memory of np.intp)."""
    return np.int32 if bound <= 2**31 else np.int64


def _edge_keys(simplices: np.ndarray, npts: int) -> np.ndarray:
    """The key lo * npts + hi (lo < hi) of every edge of every given
    simplex, local pair (p, q) by local pair and simplex by simplex within
    one: instance t is an edge of simplices[t % len(simplices)], at its
    local pair t // len(simplices) of _local_pairs, written one local pair
    at a time into one output of _index_type(npts * npts)."""
    p, q, _ = _local_pairs(simplices.shape[1])
    key = np.empty((len(p), len(simplices)), dtype=_index_type(npts * npts))
    for row, i, j in zip(key, p, q):
        a, b = simplices[:, i], simplices[:, j]
        np.minimum(a, b, out=row)
        row *= npts
        row += np.maximum(a, b)
    return key.ravel()


def _certifies(clear: np.ndarray, margin: np.ndarray,
               eps_inside: float) -> np.ndarray:
    """ok[k, s]: whether ball s certifies local pair k (_local_pairs) of
    its simplex, its clearance clear[s] and the margins margin[s] of the
    simplex's other vertices all at least -eps_inside (a NaN fails)."""
    passed = (margin >= -eps_inside) & (clear >= -eps_inside)[:, None]
    return passed.T[_local_pairs(margin.shape[1])[2]].all(axis=1)


def _delaunay_edge_certs(pts: np.ndarray, tri, eps_inside: float,
                         tau_on: float):
    """Certified edges from the Delaunay triangulation tri of pts (its
    simplices, neighbors, coplanar points and lifted hyperplanes): each
    edge keeps the last of its instances whose live circumball
    (_circumballs) certifies it (_certifies), its slack there the least
    of the ball's clearance and the margins of the simplex's other
    vertices.  Returns the certified edges as columns (lo, hi, simplex,
    slack), simplex the row of tri.simplices whose ball each edge picked,
    plus the list of edges that no ball certifies, which need LP fallback.

    The pick is a function of the pass/fail outcomes and of the
    triangulation, not of the slacks, which on generic maps differ only
    by rounding (the margins), so rounding the images differently moves
    no pick.  When Delaunay's lemma proves every ball empty from the
    simplices' neighbors (see _local_clearance), each ball's clearance is
    its smallest apex margin, at least LOCAL_DELAUNAY_TAU times the
    diameter, and no point is queried; otherwise one _clearance query
    gives every live ball's clearance."""
    live, centers, radii, margin = _circumballs(pts, tri, tau_on)
    splx = tri.simplices.take(live, axis=0)
    nsplx = len(splx)
    clear = _local_clearance(pts, tri, centers, radii)
    if clear is None:
        clear = _clearance(pts, centers, radii, splx)
    del centers, radii
    # instance t = k * nsplx + s is local pair k of simplex s
    ok = _certifies(clear, margin, eps_inside)
    key = _edge_keys(splx, len(pts))
    del splx
    order = np.argsort(key).astype(_index_type(len(key)))
    key.sort()
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    lo, hi = np.divmod(key.take(starts).astype(np.intp), len(pts))
    del key
    pick = np.maximum.reduceat(np.where(ok.ravel()[order], order, -1), starts)
    del ok, order
    good = pick >= 0
    k, t = np.divmod(pick[good], nsplx)
    rest = _local_pairs(margin.shape[1])[2]
    slack = np.minimum(clear[t], margin[t[:, None], rest[k]].min(axis=1))
    return ((lo[good], hi[good], live[t], slack),
            list(zip(lo[~good].tolist(), hi[~good].tolist())))


def _top_edge_span(pts: np.ndarray, tri, domain: SampledDomain,
                   eps_inside: float, tau_on: float) -> float | None:
    """The largest intrinsic distance over the edges of the Delaunay
    triangulation tri of pts (sample i at row i) when one of that edge's
    live incident circumballs certifies it, else None.  Ties go to the
    last such edge in (i, j) order, the rule of extremal_pair.

    rho is taken over the edge instances (_edge_keys), with no sort and
    no unique: every instance of an edge has its rho, so the top edge is
    the largest key at the largest rho, and its instances name its
    simplices.  The live balls among their circumballs (_circumballs)
    certify it by the edge pass's rule (_certifies), on clearances by
    _clearance, direct distances for so few balls.  No hash table and no
    KD-tree is built.
    Timed right after the Qhull call on mu-circle's 512-sample maps, it
    took two thirds of the time of the sorted-edge version."""
    simplices = tri.simplices
    key = _edge_keys(simplices, len(pts))
    rho = domain.rho_pairs(*np.divmod(key, len(pts)))
    top_rho = rho.max()
    at = np.flatnonzero(rho == top_rho)  # the top edge's instances among them
    top = key[at].max()
    incident = np.sort(at[key[at] == top] % len(simplices))
    live, centers, radii, margin = _circumballs(pts, tri, tau_on, incident)
    splx = simplices.take(live, axis=0)
    ok = _certifies(_clearance(pts, centers, radii, splx), margin, eps_inside)
    # ok and _edge_keys list the same instances in the same order
    if (ok.ravel() & (_edge_keys(splx, len(pts)) == top)).any():
        return float(top_rho)
    return None


def _lp_pairs(candidates, reduced: np.ndarray, eps_inside_rel: float):
    """Candidate columns of the candidate pairs that pair_is_neighbor_fast
    certifies: a sphere verdict brings its own ball, a coincidence verdict
    gets ball -1."""
    rows, balls = [], []
    for i, j in candidates:
        verdict, cert = pair_is_neighbor_fast(
            i, j, reduced, eps_inside_rel=eps_inside_rel)
        if verdict == "yes":
            w = cert.witness
            sphere = isinstance(w, Sphere)
            rows.append((i, j, len(balls) if sphere else -1, cert.slack))
            if sphere:
                balls.append((w.center, w.radius))
    return _stack_rows(rows, balls, reduced.shape[1])


def _stack_rows(rows, balls, dim: int):
    """(i, j, ball, slack) rows and (center, radius) balls as candidate
    columns (lo, hi, ball, slack, centers, radii)."""
    lo, hi, ball, slack = zip(*rows) if rows else ((),) * 4
    centers, radii = zip(*balls) if balls else ((), ())
    return (np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp),
            np.asarray(ball, dtype=np.intp), np.asarray(slack, dtype=float),
            np.reshape(centers, (-1, dim)), np.asarray(radii, dtype=float))


def _graph(domain: SampledDomain, lo: np.ndarray, hi: np.ndarray,
           ball: np.ndarray, slack: np.ndarray, centers: np.ndarray,
           radii: np.ndarray, tuples=()) -> NeighborGraph:
    """The graph of distinct pair columns (lo < hi, any order) and of
    tuples (ascending members, ball, slack) on the ball table (centers,
    radii) in image coordinates, every ball of which some row or tuple
    uses."""
    order = np.argsort(lo.astype(np.int64) * len(domain) + hi)
    pairs = np.column_stack([lo[order], hi[order]])
    rho = domain.rho_pairs(pairs[:, 0], pairs[:, 1])
    ball = ball[order]
    tuples = sorted(tuples, key=lambda t: t[0].tolist())
    members = [t[0] for t in tuples]
    tuple_ball = np.array([t[1] for t in tuples], dtype=np.intp)
    sizes = np.array([len(m) for m in members], dtype=np.intp)
    far = [domain.farthest_pair(m, m) for m in members]
    return NeighborGraph(pairs=pairs, ball=ball, slack=slack[order],
                         rho=rho, centers=centers, radii=radii,
                         tuple_members=np.concatenate([_ints(), *members]),
                         tuple_start=np.cumsum(sizes) - sizes,
                         tuple_ball=tuple_ball,
                         tuple_slack=np.array([t[2] for t in tuples]),
                         tuple_rho=np.array([d for d, _ in far]),
                         tuple_pairs=np.array([sorted(p) for _, p in far],
                                              dtype=np.intp).reshape(-1, 2))


class _Clusters(NamedTuple):
    """What neighbor_graph and neighbor_span both start from.  Samples are
    grouped into coincidence clusters (members lists them cluster by
    cluster, sizes and start delimit each cluster), and each cluster's
    lowest member stands in for it.  reduced holds the representatives'
    images in their affine hull (None for a single cluster), embed maps
    reduced points back to image coordinates, and sphere is the
    least-squares sphere of _clusters through all representatives when its
    worst residual resid is within tau_on (else None; resid is inf when no
    sphere was fitted), tau_on being TAU_ON_REL * diam.

    Lengths are in the unit frame: reduced, diam, tau_on, sphere and
    resid are image lengths times 2^-exponent, math.frexp's exponent of
    the image diameter, so diam lies in [1/2, 1) (0 for coinciding
    images).  A power of two scales floats exactly, so Qhull and the ball
    arithmetic see the same numbers at any scale of the map; ldexp(x,
    exponent) takes a length back, as embed takes a point."""

    diam: float
    tau_on: float
    exponent: int
    members: np.ndarray
    sizes: np.ndarray
    start: np.ndarray
    reduced: np.ndarray | None
    embed: object
    sphere: Sphere | None
    resid: float


def _clusters(images: np.ndarray) -> _Clusters:
    """The shared prelude: coincidence clusters, affine reduction of their
    representatives into the unit frame and the cosphere test (see
    _Clusters); when every sample is its own cluster the images are the
    representatives, as they are.  Non-finite images, finite ones whose
    squared diameter overflows, and a diameter below the smallest normal
    float raise ImageScaleError: no coincidence threshold can be scaled
    from them.

    The cosphere test fits geometry.fit_sphere's sphere in closed form
    (Kasa 1976): the least-squares solution of 2 <p, c> + k = b, with
    b = |p|^2 and k = r^2 - |c|^2, over the reduced representatives p.
    Their columns are centered and orthogonal with norms s, so the normal
    equations decouple: c_i = <reduced[:, i], b - mean b> / (2 s_i^2),
    k = mean b, and r^2 = mean b + |c|^2."""
    n = len(images)
    diam = image_diameter(images)
    if not diam * diam < math.inf:  # a NaN fails
        raise ImageScaleError(
            "images must be finite" if not np.isfinite(images).all() else
            "every image is finite, but the square of their diameter "
            "overflows a float: scale the map down")
    if 0.0 < diam < sys.float_info.min:
        raise ImageScaleError(
            "the diameter of the images is below the smallest normal "
            "float: scale the map up")
    # at zero diameter all samples form one cluster
    label = (_coincidence_labels(images, EPS_COINCIDE_REL * diam)
             if diam > 0.0 else np.zeros(n, dtype=np.intp))
    if label[-1] == n - 1:  # n clusters: label is 0, 1, ..., n - 1
        members = start = label
        sizes = np.ones(n, dtype=np.intp)
        reps = images
    else:
        members = np.argsort(label, kind="stable")  # cluster by cluster
        sizes = np.bincount(label)
        start = np.cumsum(sizes) - sizes
        reps = images.take(members[start], axis=0)
    exponent = math.frexp(diam)[1]
    unit = math.ldexp(1.0, -exponent)
    diam *= unit
    tau_on = TAU_ON_REL * diam
    reduced = embed = sph = None
    resid = math.inf
    if len(sizes) >= 2:
        reduced, to_image, s = _affine_reduce(reps)
        reduced *= unit
        s *= unit

        def embed(point: np.ndarray) -> np.ndarray:
            return to_image(np.ldexp(point, exponent))

        if reduced.shape[1] > 1:
            b = np.vecdot(reduced, reduced)
            mean_b = b.mean()
            center = (b - mean_b) @ reduced / (2.0 * s * s)
            radius = math.sqrt(mean_b + center @ center)
            diff = reduced - center
            resid = float(np.abs(np.sqrt(np.vecdot(diff, diff))
                                 - radius).max())
            if resid <= tau_on:
                sph = Sphere(center=center, radius=radius)
    return _Clusters(diam, tau_on, exponent, members, sizes, start, reduced,
                     embed, sph, resid)


def _triangulation(cl: _Clusters) -> Delaunay | None:
    """Qhull's Delaunay triangulation of the representatives in the unit
    frame (the one Qhull call), or None for a single cluster, a line or
    cospherical images, where callers take what needs no triangulation."""
    if cl.reduced is None or cl.sphere is not None or cl.reduced.shape[1] < 2:
        return None
    return Delaunay(cl.reduced)


def _cell_mask(tri) -> np.ndarray:
    """Mask over tri.simplices of the simplices in cospherical cells: those
    joined to a neighbor across a facet whose two sides have bitwise-equal
    rows of tri.equations.  Qhull merges cospherical facets of the lifted
    paraboloid, and its triangulated output (scipy passes Qt) splits each
    into simplices that keep its hyperplane; only one split's pairs are
    edges.  Generic images have none."""
    nbr, eq = tri.neighbors, tri.equations
    in_cell = np.zeros(len(nbr), dtype=bool)
    # offsets first (NaN across the hull), then whole rows, both sides;
    # hit[k, s] looks across facet k of simplex s
    offset = np.concatenate((eq[:, -1], [np.nan]))
    hit = offset.take(nbr.T) == offset[:-1]
    if not hit.any():
        return in_cell
    k, s = np.nonzero(hit)
    in_cell[s[(eq[s] == eq[nbr[s, k]]).all(axis=1)]] = True
    return in_cell


def _cells(tri) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The cospherical cells of the Delaunay triangulation tri, the
    simplices of _cell_mask grouped by their bitwise-equal rows of
    tri.equations (a merged Qhull facet keeps one hyperplane), as (rows,
    cells, rep) in the order of each cell's lowest simplex: that simplex,
    whose row is the cell's, the cell's sorted vertex set, and rep[s],
    the lowest simplex of simplex s's cell, or s outside cells.  A cell's
    simplices have bitwise-equal balls (_lifted_balls is elementwise), so
    rep names each simplex's ball."""
    rep = np.arange(len(tri.simplices))
    s = np.flatnonzero(_cell_mask(tri))
    if not len(s):
        return s, [], rep
    _, first, label = np.unique(tri.equations[s], axis=0, return_index=True,
                                return_inverse=True)
    # label each simplex by the position in s of its cell's lowest simplex
    label = first[label.reshape(-1)]
    rep[s] = s[label]
    order = np.argsort(label, kind="stable")
    groups = np.split(s[order], np.flatnonzero(np.diff(label[order])) + 1)
    return (s[np.sort(first)], [np.unique(tri.simplices[g]) for g in groups],
            rep)


def neighbor_graph(images: np.ndarray, domain: SampledDomain, *,
                   eps_inside_rel: float = EPS_INSIDE_REL) -> NeighborGraph:
    """All certified f-neighbor tuples of the sampled map, as one
    NeighborGraph.

    Coinciding images form coincidence-cluster tuples (the radius-0
    branch); the clusters' lowest members stand in for them.  Distinct
    representatives that are all cospherical form one all-sample tuple.
    Otherwise they are certified from the edges of one Delaunay
    triangulation in their reduced dimension (consecutive values on a
    line), each by the last incident circumball that certifies it, and an
    edge whose circumballs all fail by the LP (_lp_pairs).  All of it runs
    in the unit frame of _Clusters, so the graph does not depend on the
    map's scale.  Each cospherical cell (_cells) becomes one tuple on the ball
    of its row of tri.equations (_lifted_balls) when the cell is on it
    within tau_on (_on_ball) and no other image lies deeper inside than
    eps_inside.  Every certified pair of
    representatives expands to all member pairs of its two clusters (only
    the farthest one past CROSS_PAIR_CAP).

    The graph answers for the images projected onto their affine hull
    (_affine_reduce drops axes below 1e-9 of the largest singular value),
    pair_is_neighbor_fast for the images as given: on nearly flat images
    they can differ by pairs whose LP optimum is about the dropped extent.
    """
    images = np.asarray(images, dtype=float)
    if len(images) != len(domain):
        raise ValueError("images must align with domain samples")
    if len(images) < 2:
        return _graph(domain, *_stack_rows([], [], images.shape[1]))
    cl = _clusters(images)
    return _full_graph(images, domain, cl, _triangulation(cl), eps_inside_rel)


def _full_graph(images: np.ndarray, domain: SampledDomain,
                prelude: _Clusters, tri: Delaunay | None,
                eps_inside_rel: float) -> NeighborGraph:
    """neighbor_graph of at least two images from their prelude and
    _triangulation(prelude): distinct representatives in reduced
    dimension 2 or more that are not cospherical are certified from tri.
    Radii and slacks leave the unit frame by ldexp, centers by embed."""
    npts, m = images.shape
    (diam, tau_on, exponent, members, sizes, start, reduced, embed, sph,
     resid) = prelude
    no_pairs = _stack_rows([], [], m)
    eps_inside = eps_inside_rel * diam
    tuples, big = [], sizes >= 2  # (members, ball, slack)
    for s, z in zip(start[big], sizes[big]):
        cl = members[s:s + z]
        tuples.append((cl, -1, image_diameter(images[cl])))
    if reduced is None:
        return _graph(domain, *no_pairs, tuples)

    if sph is not None:
        tuples.append((np.arange(npts), 0, -math.ldexp(resid, exponent)))
        return _graph(domain, *no_pairs[:4], embed(sph.center)[None],
                      np.array([math.ldexp(sph.radius, exponent)]), tuples)

    if reduced.shape[1] == 1:
        cand = _line_pairs(reduced[:, 0])
    else:
        (lo, hi, simplex, slack), failed = _delaunay_edge_certs(
            reduced, tri, eps_inside, tau_on)
        rows, cells, rep = _cells(tri)
        certified = []  # (cell, slack) of each certified cell
        if cells:  # one on-ball test and one clearance query for them all
            counts = np.array([len(c) for c in cells])
            first = np.cumsum(counts) - counts
            flat = np.concatenate(cells)
            mid, rad = _lifted_balls(tri, rows)
            spread = np.maximum.reduceat(np.abs(np.linalg.norm(
                reduced[flat] - mid.repeat(counts, axis=0), axis=1)
                - rad.repeat(counts)), first)
            on = np.flatnonzero(_on_ball(spread, rad, tau_on))
            # each vertex set padded with its own last vertex
            pad = np.minimum(np.arange(counts.max()), counts[on, None] - 1)
            clear = _clearance(reduced, mid[on], rad[on],
                               flat[first[on, None] + pad])
            certified = [(k, min(c, -float(spread[k])))
                         for c, k in zip(clear.tolist(), on.tolist())
                         if c >= -eps_inside]
        # the table: each ball that an edge or a cell names by its simplex
        # (rep), once, in simplex order, then the LP's balls
        used, ball = np.unique(
            np.append(rep[simplex], rows[[k for k, _ in certified]]),
            return_inverse=True)
        for (k, c), b in zip(certified, ball[len(lo):].tolist()):
            idx = np.concatenate([members[start[r]:start[r] + sizes[r]]
                                  for r in cells[k]])
            tuples.append((np.sort(idx), b, math.ldexp(c, exponent)))
        rescued = _lp_pairs(failed, reduced, eps_inside_rel)
        rescued[2][rescued[2] >= 0] += len(used)
        cand = tuple(map(np.concatenate, zip(
            (lo, hi, ball[:len(lo)], slack, *_lifted_balls(tri, used)),
            rescued)))

    # take the ball table to image coordinates, expand each
    # representative pair to the member pairs of its clusters, and let
    # each new column replace its source; _graph sets the row order
    lo, hi, ball, slack, centers, radii = cand
    del cand
    centers, radii = embed(centers), np.ldexp(radii, exponent)
    lo, hi, ref = _member_pairs(domain, members, sizes, start, lo, hi)
    ball, slack = ball.take(ref), np.ldexp(slack[ref], exponent)
    del ref
    return _graph(domain, lo, hi, ball, slack, centers, radii, tuples)


def _member_pairs(domain: SampledDomain, members: np.ndarray,
                  sizes: np.ndarray, start: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray):
    """The member pairs (gi < gj) of the representative pairs (lo, hi),
    cluster by cluster as _Clusters lists them, and ref, the
    representative pair of each: all member pairs of two clusters, or only
    their farthest pair past CROSS_PAIR_CAP."""
    nb = sizes[hi]
    count = sizes[lo] * nb
    far = count > CROSS_PAIR_CAP
    count[far] = 1
    ref = np.repeat(np.arange(len(lo)), count)
    k = np.arange(len(ref)) - np.repeat(np.cumsum(count) - count, count)
    gi = members[start[lo][ref] + k // nb[ref]]
    gj = members[start[hi][ref] + k % nb[ref]]
    for t in np.flatnonzero(far):
        row = int(np.searchsorted(ref, t))
        ca, cb = (members[start[c]:start[c] + sizes[c]] for c in (lo[t], hi[t]))
        _, (gi[row], gj[row]) = domain.farthest_pair(ca, cb)
    return np.minimum(gi, gj), np.maximum(gi, gj), ref


def neighbor_span(images: np.ndarray, domain: SampledDomain, *,
                  eps_inside_rel: float = EPS_INSIDE_REL) -> float:
    """D_f of the sampled map: compute_df(neighbor_graph(...)) bit for bit,
    for callers that read nothing else.

    With no coincidence clusters and a triangulation with no cospherical
    cell (_cell_mask), every certified pair is a Delaunay edge, so the edge at
    the largest intrinsic distance bounds D_f, and D_f equals its distance
    as soon as one of its incident circumballs certifies it.  Only that
    edge is certified then, with the same eps_inside.  Everything else
    (clusters, no triangulation, a cell, or a top edge that fails its
    circumballs) builds the full graph, reusing the prelude and the
    triangulation already computed: Qhull runs at most once.
    """
    images = np.asarray(images, dtype=float)
    if len(images) != len(domain) or len(images) < 2:
        return compute_df(neighbor_graph(images, domain,
                                         eps_inside_rel=eps_inside_rel), domain)
    cl = _clusters(images)
    tri = _triangulation(cl)
    if (tri is not None and len(cl.sizes) == len(images)
            and not _cell_mask(tri).any()):
        # no clusters: reduced row i is the image of sample i
        span = _top_edge_span(cl.reduced, tri, domain,
                              eps_inside_rel * cl.diam, cl.tau_on)
        if span is not None:
            return span
    return compute_df(_full_graph(images, domain, cl, tri, eps_inside_rel),
                      domain)


def compute_df(graph: NeighborGraph, domain: SampledDomain) -> float:
    """Largest intrinsic distance realized by any certified tuple (0.0 for
    an empty graph)."""
    return extremal_pair(graph, domain)[1]


def extremal_pair(graph: NeighborGraph, domain: SampledDomain
                  ) -> tuple[tuple[int, int] | None, float,
                             NeighborCertificate | None]:
    """The certified member pair at maximum intrinsic distance, that
    distance, and the certificate it belongs to; (None, 0.0, None) for an
    empty graph.  A pair row brings its pair, a tuple its farthest pair
    (graph.tuple_pairs).  Ties go to the last maximal certificate in
    indices order."""
    if not len(graph):
        return None, 0.0, None
    order = graph.order()
    rho = np.concatenate([graph.rho, graph.tuple_rho]).take(order)
    last = len(rho) - 1 - int(np.argmax(rho[::-1]))
    k = int(order[last])
    t = k - len(graph.pairs)
    i, j = graph.pairs[k] if t < 0 else graph.tuple_pairs[t]
    return (int(i), int(j)), float(rho[last]), graph.row(k)
