"""What an f-neighbor certificate is and when it is accepted.

A certificate names samples, the witness of their images (an
empty-interior sphere through them, or "coincidence" for the radius-0
branch), its slack and the members' intrinsic distance; NeighborGraph
holds many as columns over one table of balls.  check_graph accepts or
refuses each against the full image set, within the tolerances below,
which are relative to image_diameter, and check_certificate is its
verdict on one.  pair_is_neighbor_oracle decides small instances by
candidate-sphere enumeration.

This module imports nothing from neighbors, which finds certificates, so
no helper of the construction can enter a verdict; a test reads its
imports.  It shares the domains' intrinsic distances, and the oracle
uses geometry's _affine_reduce and circumsphere.  So the oracle is
independent of the LP route (pair_is_neighbor_fast) but not of
neighbors._clusters, which reduces images by the same _affine_reduce: a
test of a graph against the oracle cannot catch a fault in the affine
reduction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .domains import SampledDomain
from .geometry import Sphere, _affine_reduce, circumsphere

ORACLE_MAX_POINTS = 14
ORACLE_MAX_DIM = 3
ORACLE_TOL_REL = 1e-9  # the oracle's coincidence and on-sphere tolerance

# tolerances, relative to the image-set diameter: the radius-0 coincidence
# threshold, the on-sphere residual of certificate members, and the default
# of the one settable tolerance (--eps-inside, the eps_inside_rel keyword):
# the depth to which a non-member image may dip inside a witness ball
EPS_COINCIDE_REL = 1e-9
TAU_ON_REL = 1e-6
EPS_INSIDE_REL = 1e-6


def tolerances(eps_inside_rel: float) -> dict:
    """The tolerance set that reports embed."""
    return {"eps_coincide_rel": EPS_COINCIDE_REL,
            "eps_inside_rel": eps_inside_rel,
            "tau_on_rel": TAU_ON_REL}


@dataclass(frozen=True)
class NeighborCertificate:
    """A certified f-neighbor tuple.

    witness is the empty-interior sphere through the member images, or the
    string "coincidence" for the radius-0 branch.  slack is the smallest
    signed clearance |y - center| - radius over non-member images (for
    coincidence certificates: the largest image spread inside the tuple).
    When Delaunay's lemma proves a triangulation's circumballs empty, a
    Delaunay edge's slack is taken over the other vertices of its simplex
    and the apexes of the simplex's neighbors; every other image is
    proven outside the ball, and the value differs from the global one
    only if such an image lies outside it by less than the other
    vertices' rounding.  pair_distance is the largest intrinsic domain
    distance among members.
    """

    indices: tuple[int, ...]
    witness: Sphere | str
    slack: float
    pair_distance: float

    def to_json(self) -> dict:
        w = self.witness if isinstance(self.witness, str) else self.witness.to_json()
        return {"indices": list(self.indices), "witness": w,
                "slack": float(self.slack), "pair_distance": float(self.pair_distance)}


_ints = functools.partial(np.zeros, 0, dtype=np.intp)  # no indices


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """All certified f-neighbor tuples of one sampled map, as columns over
    one table of witness balls.

    Pair certificates are rows sorted by pair: row k certifies pairs[k]
    = (i, j), i < j, by the witness ball ball[k] (-1 for a radius-0
    coincidence verdict of the LP rescue, _lp_pairs) with clearance
    slack[k] and intrinsic distance rho[k].  Tuple certificates (the
    coincidence clusters, the cospherical cells, whose edges are rows
    too, and the all-sample cosphere tuple) are sorted by indices: tuple
    t has the ascending members tuple_members[tuple_start[t]:] up to the
    next tuple's start, ball tuple_ball[t] (-1 for a coincidence
    cluster), slack tuple_slack[t], and tuple_pairs[t] = (i, j), i < j,
    its member pair at its largest intrinsic distance tuple_rho[t].
    Ball b is the sphere (centers[b], radii[b]) in image coordinates, held
    once for all the rows and tuples it certifies, and every ball is some
    row's or tuple's.  len() counts all certificates and row(k) views
    certificate k: pair row k, or tuple k - len(pairs) past them.
    order() is the one merge of pair rows and tuples in indices order, in
    which iteration and the dump writer yield them.
    """

    pairs: np.ndarray
    ball: np.ndarray
    slack: np.ndarray
    rho: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    tuple_members: np.ndarray = field(default_factory=_ints)
    tuple_start: np.ndarray = field(default_factory=_ints)
    tuple_ball: np.ndarray = field(default_factory=_ints)
    tuple_slack: np.ndarray = field(default_factory=lambda: np.zeros(0))
    tuple_rho: np.ndarray = field(default_factory=lambda: np.zeros(0))
    tuple_pairs: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=np.intp))

    def __len__(self) -> int:
        return len(self.pairs) + len(self.tuple_start)

    def __iter__(self):
        return map(self.row, self.order().tolist())

    def order(self) -> np.ndarray:
        """The certificates, numbered as row() numbers them, in indices
        order: the one merge of pair rows and tuples.  Each tuple follows
        the pair rows whose pair sorts at or before its first two members
        (on equal keys the pair row comes first; every tuple has at least
        two members)."""
        heads = self.tuple_members[self.tuple_start[:, None] + [0, 1]]
        base = 1 + int(max(self.pairs.max(initial=0), heads.max(initial=0)))
        keys = self.pairs[:, 0].astype(np.int64) * base + self.pairs[:, 1]
        n = len(self.pairs)
        return np.insert(np.arange(n), np.searchsorted(
            keys, heads[:, 0].astype(np.int64) * base + heads[:, 1],
            side="right"), np.arange(n, len(self)))

    def row(self, k: int) -> NeighborCertificate:
        t = k - len(self.pairs)
        if t < 0:
            indices, b, slack, rho = (self.pairs[k], self.ball[k],
                                      self.slack[k], self.rho[k])
        else:
            stop = (self.tuple_start[t + 1] if t + 1 < len(self.tuple_start)
                    else len(self.tuple_members))
            indices, b, slack, rho = (
                self.tuple_members[self.tuple_start[t]:stop],
                self.tuple_ball[t], self.tuple_slack[t], self.tuple_rho[t])
        witness = ("coincidence" if b < 0 else
                   Sphere(center=self.centers[b], radius=float(self.radii[b])))
        return NeighborCertificate(indices=tuple(indices.tolist()),
                                   witness=witness, slack=float(slack),
                                   pair_distance=float(rho))


def _extent(images: np.ndarray) -> np.ndarray:
    """The bounding box's side lengths, max minus min of each column.  The
    extremes are read at argmax and argmin, which reduce over the rows of
    a narrow array several times faster than max and min do."""
    d = images.shape[1]
    cols = np.arange(d)
    return (images.take(images.argmax(axis=0) * d + cols)
            - images.take(images.argmin(axis=0) * d + cols))


def image_diameter(images: np.ndarray) -> float:
    """Bounding-box diagonal: a cheap deterministic diameter proxy used
    only for scaling tolerances.  The extents are scaled by the power of
    two of the largest before they are squared, exactly, so the diagonal
    underflows or overflows only where it is itself no normal float."""
    ext = _extent(np.atleast_2d(images))
    exponent = math.frexp(ext.max())[1]
    ext = np.ldexp(ext, -exponent)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(ext @ ext), exponent))


def _halfspace_directions(a: np.ndarray, b: np.ndarray, others: np.ndarray,
                          tol: float) -> list[np.ndarray]:
    """Candidate unit directions d with <b-a, d> = 0 and <y-a, d> <= tol for
    all other points.  Dimension-specific enumeration (2-d: the two
    perpendiculars; 3-d: feasibility-arc endpoints on the circle
    perpendicular to b-a)."""
    dim = len(a)
    u = b - a
    nu = np.linalg.norm(u)
    if dim < 2 or nu < 1e-300:
        return []
    u = u / nu

    def feasible(d: np.ndarray) -> bool:
        return len(others) == 0 or float(((others - a) @ d).max()) <= tol

    if dim == 2:
        perp = np.array([-u[1], u[0]])
        return [d for d in (perp, -perp) if feasible(d)]

    # dim == 3: orthonormal basis of the plane perpendicular to u
    helper = np.eye(3)[int(np.argmin(np.abs(u)))]
    e1 = np.cross(u, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    angles = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]
    if len(others):
        va = (others - a) @ e1
        vb = (others - a) @ e2
        phi = np.arctan2(vb, va)
        angles.extend((phi + 0.5 * math.pi).tolist())
        angles.extend((phi - 0.5 * math.pi).tolist())
    out = []
    for t in angles:
        d = math.cos(t) * e1 + math.sin(t) * e2
        if feasible(d):
            out.append(d)
    return out


def pair_is_neighbor_oracle(i: int, j: int, images: np.ndarray):
    """Small-scale exact decision by candidate enumeration.

    Returns (bool, witness) with witness a Sphere, "coincidence",
    "halfspace", or None.  Candidates are the pair midpoint and the
    circumcenters of the pair together with up to dim-1 other images; the
    unbounded case is covered by limiting-halfspace directions, where points
    on the limit hyperplane must additionally clear the candidate centers
    (the limiting ball keeps a constant margin there).  Guarded to at most
    14 points in dimension at most 3.
    """
    images = np.asarray(images, dtype=float)
    npts, m = images.shape
    if npts > ORACLE_MAX_POINTS or m > ORACLE_MAX_DIM:
        raise ValueError("oracle scale guard: <= 14 points in dimension <= 3")
    if i == j:
        raise ValueError("need two distinct sample indices")
    diam = image_diameter(images)
    tol = ORACLE_TOL_REL * max(diam, 1.0)

    if np.linalg.norm(images[i] - images[j]) <= tol:
        return True, "coincidence"

    reduced, embed, _ = _affine_reduce(images)
    dim = reduced.shape[1]
    a, b = reduced[i], reduced[j]
    mask = np.ones(npts, dtype=bool)
    mask[[i, j]] = False
    others = reduced[mask]

    if len(others) == 0:
        mid = 0.5 * (a + b)
        r = float(np.linalg.norm(a - mid))
        return True, Sphere(center=embed(mid), radius=r)

    candidates = [0.5 * (a + b)]
    for size in range(1, dim):
        for subset in itertools.combinations(range(len(others)), size):
            pts = np.vstack([a, b, others[list(subset)]])
            sph = circumsphere(pts)
            if sph is not None:
                candidates.append(sph.center)

    for c in candidates:
        r = float(np.linalg.norm(a - c))
        if abs(np.linalg.norm(b - c) - r) > 10 * tol:
            continue
        if np.all(np.linalg.norm(others - c, axis=1) >= r - tol):
            return True, Sphere(center=embed(c), radius=r)

    for d in _halfspace_directions(a, b, others, tol):
        height = (others - a) @ d
        on_plane = others[np.abs(height) <= tol]
        if len(on_plane) == 0:
            return True, "halfspace"
        for c in candidates:
            r = float(np.linalg.norm(a - c))
            if np.all(np.linalg.norm(on_plane - c, axis=1) >= r - tol):
                return True, "halfspace"

    return False, None


def check_graph(graph: NeighborGraph, images: np.ndarray,
                domain: SampledDomain, *,
                eps_inside_rel: float = EPS_INSIDE_REL) -> np.ndarray:
    """Re-validate every certificate of graph against the full image set:
    one bool per certificate, numbered as graph.row numbers them.

    A certificate passes when its pair_distance is the domain's (rho of a
    pair row, max_pairwise_rho of a tuple) and either its ball is -1 and
    its members' bounding-box diagonal is within max(eps_coincide, slack
    + 1e-12 diam), or its ball is finite, its members lie on it within
    tau_on and no other image lies deeper inside than eps_inside + 1e-12
    diam.  Every tolerance, the allowance for rounding too, is relative to
    the image diameter, and lengths are measured in the unit frame of
    _Clusters (times 2^-k, k = math.frexp(diam)[1], which is exact), so
    the verdicts do not depend on the map's scale.  The members are
    measured in one pass over their flat list.  Emptiness takes one
    cKDTree query per finite ball of the table, for the nearest images one
    more than the widest certificate on it has members; when the table has
    one finite ball, its distance to every image gives the same answers.
    Each certificate drops its own members from its ball's answers.  No
    helper of the construction is called, so this is a check, not a
    replay, and each test is written so that a NaN fails it; every
    certificate fails on images that are not all finite."""
    images = np.asarray(images, dtype=float)
    if not (len(graph) and np.isfinite(images).all()):
        # no certificate, or images about which nothing can be measured
        return np.zeros(len(graph), dtype=bool)
    diam = image_diameter(images)
    k = -math.frexp(diam)[1]
    pts, diam = np.ldexp(images, k), math.ldexp(diam, k)
    # certificate c has the members flat[start[c]:start[c] + width[c]] and
    # the ball ball[c]; ball -1 reads the appended NaN ball, never queried
    npairs = len(graph.pairs)
    flat = np.concatenate([graph.pairs.ravel(), graph.tuple_members])
    width = np.concatenate([np.full(npairs, 2), np.diff(
        np.append(graph.tuple_start, len(graph.tuple_members)))])
    start = np.cumsum(width) - width
    ball = np.concatenate([graph.ball, graph.tuple_ball])
    centers = np.vstack([np.ldexp(graph.centers, k),
                         np.full((1, pts.shape[1]), np.nan)])
    radii = np.append(np.ldexp(graph.radii, k), np.nan)

    rho = np.append(domain.rho_pairs(*graph.pairs.T), [
        domain.max_pairwise_rho(flat[s:s + w])
        for s, w in zip(start[npairs:].tolist(), width[npairs:].tolist())])
    ok = (np.abs(rho - np.append(graph.rho, graph.tuple_rho))
          <= 1e-9 * np.maximum(rho, 1.0))

    x = pts.take(flat, axis=0)
    ext = np.maximum.reduceat(x, start) - np.minimum.reduceat(x, start)
    slack = np.ldexp(np.append(graph.slack, graph.tuple_slack), k)
    coincide = (np.sqrt(np.vecdot(ext, ext))
                <= np.maximum(EPS_COINCIDE_REL * diam, slack + 1e-12 * diam))

    on_ball = np.repeat(ball, width)
    with np.errstate(invalid="ignore"):  # inf - inf on a non-finite ball
        margin = np.abs(np.linalg.norm(x - centers[on_ball], axis=1)
                        - radii[on_ball])
    on = np.maximum.reduceat(margin, start) <= TAU_ON_REL * diam

    # one query per finite ball, for the images nearest its center, one
    # more than the widest certificate on it has members
    finite = np.isfinite(centers).all(axis=1) & np.isfinite(radii)
    c = np.flatnonzero(finite[ball])
    need = np.zeros(len(radii), dtype=np.intp)
    np.maximum.at(need, ball[c], np.minimum(width[c] + 1, len(pts)))
    first = np.cumsum(need) - need  # ball b's answers: need[b] from first[b]
    dist, nbr = np.empty(need.sum()), np.empty(need.sum(), dtype=np.intp)
    used = np.flatnonzero(need).tolist()
    if len(used) == 1:
        # one ball (every check_certificate call on a ball): the distance
        # from its center to every image, its squares summed axis by axis,
        # which is cKDTree's order in up to 7 dimensions, so that there
        # the answers are the tree's bit for bit; from 8 on the tree sums
        # in four interleaved accumulators and may differ in the last bits
        squares = np.square(pts - centers[used[0]])
        every = squares[:, 0].copy()
        for column in squares.T[1:]:
            every += column
        np.sqrt(every, out=every)
        nbr[:] = np.argpartition(every, len(nbr) - 1)[:len(nbr)]
        dist[:] = every[nbr]
    elif used:
        tree = cKDTree(pts)
        for q in np.unique(need[need > 0]).tolist():
            b = np.flatnonzero(need == q)
            cols = first[b, None] + np.arange(q)
            dist[cols], nbr[cols] = tree.query(centers[b], k=q)
    # each certificate drops its own members from its ball's answers
    q = need[ball[c]]
    seg = np.cumsum(q) - q
    answer = np.arange(q.sum()) + np.repeat(first[ball[c]] - seg, q)
    own = np.isin(np.repeat(c, q) * len(pts) + nbr[answer],
                  np.repeat(np.arange(len(ball)), width) * len(pts) + flat)
    nearest = np.minimum.reduceat(np.where(own, np.inf, dist[answer]), seg)
    clear = np.zeros(len(ball), dtype=bool)
    clear[c] = nearest - radii[ball[c]] >= -(eps_inside_rel + 1e-12) * diam
    return ok & np.where(ball < 0, coincide, on & clear)


def check_certificate(cert: NeighborCertificate, images: np.ndarray,
                      domain: SampledDomain, *,
                      eps_inside_rel: float = EPS_INSIDE_REL) -> bool:
    """check_graph's verdict on cert alone, the one tuple of a one-row
    graph."""
    w = cert.witness
    sphere = isinstance(w, Sphere)
    graph = NeighborGraph(
        np.zeros((0, 2), dtype=np.intp), _ints(), np.zeros(0), np.zeros(0),
        centers=np.reshape(w.center if sphere else [],
                           (-1, np.shape(images)[1])).astype(float),
        radii=np.array([w.radius] if sphere else [], dtype=float),
        tuple_members=np.array(cert.indices, dtype=np.intp),
        tuple_start=np.zeros(1, dtype=np.intp),
        tuple_ball=np.array([0 if sphere else -1]),
        tuple_slack=np.array([cert.slack], dtype=float),
        tuple_rho=np.array([cert.pair_distance], dtype=float))
    return bool(check_graph(graph, images, domain,
                            eps_inside_rel=eps_inside_rel)[0])
