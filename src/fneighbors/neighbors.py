"""Neighbor-pair detection on image point sets.

Two domain samples form an f-neighbor pair when some sphere passes through
both of their images with no other image strictly inside (points exactly on
the sphere are allowed); coinciding images are the radius-0 branch of the
same notion.  The predicate is equivalent to "the closed Voronoi cells of
the two images intersect", which after the paraboloid lifting becomes a
linear feasibility problem: the scalable path solves that LP, while the
oracle decides small instances by candidate-sphere enumeration so the two
routes stay independent.

Large instances use a Delaunay triangulation as a candidate generator:
every Delaunay edge is certified by its best incident-simplex circumball.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import Delaunay, QhullError, cKDTree

from .domains import SampledDomain
from .geometry import Sphere, circumsphere, fit_sphere

__all__ = [
    "NeighborConfig",
    "NeighborCertificate",
    "pair_is_neighbor_oracle",
    "pair_is_neighbor_fast",
    "neighbor_graph",
    "compute_df",
    "extremal_pair",
    "check_certificate",
    "image_diameter",
]

ORACLE_MAX_POINTS = 14
ORACLE_MAX_DIM = 3


@dataclass(frozen=True)
class NeighborConfig:
    """Tolerances and budgets for the neighbor machinery.

    Relative tolerances scale with the image-set diameter: eps_inside is the
    depth to which a non-member image may dip inside a witness ball before
    the certificate is rejected, eps_coincide is the radius-0 coincidence
    threshold, eps_witness accepts a witness-point residual, tau_on bounds
    the on-sphere residual of certificate members.
    """

    eps_inside_rel: float = 1e-6
    eps_coincide_rel: float = 1e-9
    eps_witness_rel: float = 1e-3
    tau_on_rel: float = 1e-6
    lp_box: float = 1e6
    exhaustive_max: int = 24
    lp_fallback_cap: int = 200
    cross_pair_cap: int = 64
    seed: int = 0


DEFAULT_CONFIG = NeighborConfig()


@dataclass(frozen=True)
class NeighborCertificate:
    """A certified f-neighbor tuple.

    witness is the empty-interior sphere through the member images, or the
    string "coincidence" for the radius-0 branch.  slack is the smallest
    signed clearance |y - center| - radius over non-member images (for
    coincidence certificates: the largest image spread inside the tuple).
    pair_distance is the largest intrinsic domain distance among members.
    """

    indices: tuple[int, ...]
    witness: Sphere | str
    slack: float
    pair_distance: float

    def to_json(self) -> dict:
        w = self.witness if isinstance(self.witness, str) else self.witness.to_json()
        return {"indices": list(self.indices), "witness": w,
                "slack": float(self.slack), "pair_distance": float(self.pair_distance)}


def image_diameter(images: np.ndarray) -> float:
    """Bounding-box diagonal: a cheap deterministic diameter proxy used
    only for scaling tolerances."""
    images = np.atleast_2d(images)
    return float(np.linalg.norm(images.max(axis=0) - images.min(axis=0)))


def _affine_reduce(images: np.ndarray, tol_rel: float = 1e-9):
    """Project points onto their affine hull.  Returns (reduced, embed)
    where embed maps reduced centers back to ambient coordinates."""
    center = images.mean(axis=0)
    shifted = images - center
    _, s, vt = np.linalg.svd(shifted, full_matrices=False)
    if s.size == 0 or s[0] < 1e-300:
        rank = 0
    else:
        rank = int(np.sum(s > tol_rel * s[0]))
    rank = max(rank, 1)
    basis = vt[:rank]

    def embed(point: np.ndarray) -> np.ndarray:
        return center + point @ basis

    return shifted @ basis.T, embed


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


def pair_is_neighbor_oracle(i: int, j: int, images: np.ndarray,
                            tol_rel: float = 1e-9):
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
    tol = tol_rel * max(diam, 1.0)

    if np.linalg.norm(images[i] - images[j]) <= tol:
        return True, "coincidence"

    reduced, embed = _affine_reduce(images)
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


def _lp_pair(a: np.ndarray, b: np.ndarray, others: np.ndarray, box: float):
    """LP feasibility for the lifted empty-sphere predicate.

    Minimizes the largest normalized violation s of the bisector-halfspace
    constraints 2<c, y-a> <= |y|^2 - |a|^2 inside a box of half-width `box`
    (scaled units).  s* <= 0 certifies a center c whose sphere through a and
    b has no constraint point strictly inside; s* > 0 refutes existence.
    Returns (status, s*, c) in the caller's scaled frame.
    """
    m = len(a)
    rows, rhs = [], []
    for y in others:
        u = y - a
        nu = np.linalg.norm(u)
        if nu < 1e-14:
            continue  # duplicate of a: on any sphere through a, never inside
        rows.append(np.concatenate([u / nu, [-1.0]]))
        rhs.append((y @ y - a @ a) / (2.0 * nu))
    ub = b - a
    nb = np.linalg.norm(ub)
    a_eq = np.concatenate([ub / nb, [0.0]])[None, :]
    b_eq = [(b @ b - a @ a) / (2.0 * nb)]
    if rows:
        a_ub = np.asarray(rows)
        b_ub = np.asarray(rhs)
    else:
        a_ub = None
        b_ub = None
    bounds = [(-box, box)] * m + [(None, None)]
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        return "failed", math.inf, None
    return "ok", float(res.fun), res.x[:m]


def _build_certificate(i, j, images, center, eps_inside, domain=None):
    a, b = images[i], images[j]
    r = 0.5 * (np.linalg.norm(a - center) + np.linalg.norm(b - center))
    margins = np.linalg.norm(images - center, axis=1) - r
    margins[[i, j]] = np.inf
    slack = float(margins.min()) if len(images) > 2 else 0.0
    if slack < -eps_inside:
        return None
    rho = domain.rho(i, j) if domain is not None else 0.0
    sphere = Sphere(center=np.asarray(center, dtype=float), radius=float(r))
    return NeighborCertificate(indices=(min(i, j), max(i, j)), witness=sphere,
                               slack=slack, pair_distance=rho)


def pair_is_neighbor_fast(i: int, j: int, images: np.ndarray,
                          cfg: NeighborConfig = DEFAULT_CONFIG,
                          domain: SampledDomain | None = None):
    """Scalable verdict for one pair: "yes"/"no"/"uncertain" plus a
    certificate for yes verdicts.

    Pipeline: coincidence test, then the Gabriel midpoint ball, then the
    lifted LP (see _lp_pair).  A "no" is a refutation of the LP within its
    box, which at the default box size subsumes the limiting-halfspace
    witnesses; "uncertain" only appears on solver failure or when a
    numerically positive optimum cannot be geometrically confirmed.
    """
    images = np.asarray(images, dtype=float)
    npts, m = images.shape
    diam = image_diameter(images)
    if diam <= 0.0:
        rho = domain.rho(i, j) if domain is not None else 0.0
        cert = NeighborCertificate(indices=(min(i, j), max(i, j)),
                                   witness="coincidence", slack=0.0,
                                   pair_distance=rho)
        return "yes", cert
    eps_coincide = cfg.eps_coincide_rel * diam
    eps_inside = cfg.eps_inside_rel * diam

    a, b = images[i], images[j]
    gap = float(np.linalg.norm(a - b))
    if gap <= eps_coincide:
        rho = domain.rho(i, j) if domain is not None else 0.0
        cert = NeighborCertificate(indices=(min(i, j), max(i, j)),
                                   witness="coincidence", slack=gap,
                                   pair_distance=rho)
        return "yes", cert

    mid = 0.5 * (a + b)
    margins = np.linalg.norm(images - mid, axis=1) - 0.5 * gap
    margins[[i, j]] = np.inf
    if npts == 2 or margins.min() >= -eps_inside:
        cert = _build_certificate(i, j, images, mid, eps_inside, domain)
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
    status, sstar, c_scaled = _lp_pair(sa, sb, so, cfg.lp_box)
    if status != "ok":
        return "uncertain", None
    if sstar <= cfg.eps_inside_rel:
        center = c_scaled * scale + shift
        cert = _build_certificate(i, j, images, center, eps_inside, domain)
        if cert is not None:
            return "yes", cert
        return "uncertain", None
    return "no", None


def _coincidence_clusters(images: np.ndarray, eps: float) -> list[np.ndarray]:
    """Group samples whose images coincide within eps; returns index arrays
    sorted by lowest member."""
    n = len(images)
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if eps > 0:
        tree = cKDTree(images)
        for p, q in sorted(tree.query_pairs(eps)):
            rp, rq = find(p), find(q)
            if rp != rq:
                parent[max(rp, rq)] = min(rp, rq)
    groups: dict[int, list[int]] = {}
    for k in range(n):
        groups.setdefault(find(k), []).append(k)
    return [np.asarray(v) for _, v in sorted(groups.items())]


def _line_pairs(values: np.ndarray):
    """Neighbor pairs for 1-d images: consecutive distinct values (the
    unique sphere through two reals is the pair {lo, hi}, its inside the
    open interval)."""
    order = np.argsort(values, kind="stable")
    pairs = []
    for k in range(len(order) - 1):
        i, j = order[k], order[k + 1]
        lo, hi = values[i], values[j]
        c = np.array([0.5 * (lo + hi)])
        pairs.append((int(i), int(j), c, 0.5 * (hi - lo)))
    return pairs


def _delaunay_circumcenters(pts: np.ndarray):
    """Qhull Delaunay triangulation of pts (dimension >= 2) with the
    circumcenter of every simplex.  Returns (simplices, centers, ok): ok
    marks the non-singular simplices, and the centers of singular (sliver)
    simplices are NaN."""
    d = pts.shape[1]
    simplices = Delaunay(pts).simplices
    verts = pts[simplices]  # (S, d+1, d)
    u = verts[:, 1:, :] - verts[:, :1, :]
    rhs = 0.5 * ((verts[:, 1:, :] ** 2).sum(axis=2) - (verts[:, :1, :] ** 2).sum(axis=2))
    centers = np.full((len(simplices), d), np.nan)
    # batched solve over the simplices that are not slivers
    det = np.abs(np.linalg.det(u))
    scale = np.abs(u).max(axis=(1, 2)) ** d + 1e-300
    ok = det > 1e-12 * scale
    if ok.any():
        centers[ok] = np.linalg.solve(u[ok], rhs[ok][..., None])[..., 0]
    return simplices, centers, ok


def _delaunay_edge_certs(pts: np.ndarray, eps_inside: float):
    """Certified edges from a Delaunay triangulation: each edge gets the
    best (largest-slack) incident-simplex circumball.  Returns
    dict edge -> (center, radius, slack) in the current coordinates, plus
    the list of edges that failed the tolerance and need LP fallback."""
    npts, d = pts.shape
    simplices, centers, ok = _delaunay_circumcenters(pts)
    verts = pts[simplices]
    radii = np.linalg.norm(verts[:, 0, :] - centers, axis=1)

    # per-simplex clearance: the nearest non-vertex point to a circumcenter
    # is among its d+2 nearest points (at most d+1 of those are vertices)
    slack_splx = np.full(len(simplices), -np.inf)
    live = np.flatnonzero(ok)
    if len(live):
        tree = cKDTree(pts)
        k = min(d + 2, npts)
        dists, nbrs = tree.query(centers[live], k=k)
        dists = np.atleast_2d(dists)
        nbrs = np.atleast_2d(nbrs)
        is_vertex = (nbrs[:, :, None] == simplices[live][:, None, :]).any(axis=2)
        dists = np.where(is_vertex, np.inf, dists)
        slack_splx[live] = dists.min(axis=1) - radii[live]

    vert_margin = np.linalg.norm(verts - centers[:, None, :], axis=2) - radii[:, None]

    # edge slacks per simplex, vectorized over the C(d+1, 2) local pairs
    local_pairs = list(itertools.combinations(range(d + 1), 2))
    sidx = np.flatnonzero(ok)
    edge_rows = []
    for p, q in local_pairs:
        others = [v for v in range(d + 1) if v not in (p, q)]
        slack = slack_splx[sidx]
        if others:
            slack = np.minimum(slack, vert_margin[np.ix_(sidx, others)].min(axis=1))
        lo = np.minimum(simplices[sidx, p], simplices[sidx, q])
        hi = np.maximum(simplices[sidx, p], simplices[sidx, q])
        edge_rows.append((lo, hi, slack, sidx))
    lo = np.concatenate([r[0] for r in edge_rows])
    hi = np.concatenate([r[1] for r in edge_rows])
    slacks = np.concatenate([r[2] for r in edge_rows])
    owner = np.concatenate([r[3] for r in edge_rows])

    key = lo.astype(np.int64) * npts + hi
    order = np.lexsort((slacks, key))
    k_sorted = key[order]
    last = np.r_[k_sorted[1:] != k_sorted[:-1], np.ones(1, dtype=bool)]
    chosen = order[last]

    certified = {}
    failed = []
    for t in chosen:
        edge = (int(lo[t]), int(hi[t]))
        if slacks[t] >= -eps_inside:
            certified[edge] = (centers[owner[t]], float(radii[owner[t]]),
                               float(slacks[t]))
        else:
            failed.append(edge)
    return certified, failed


def _gabriel_pairs(pts: np.ndarray, eps_inside: float):
    """Vectorized Gabriel test over all pairs (fallback candidate source in
    dimension > 3): pair (i,j) passes when no point is deeper than
    eps_inside inside the diametral ball."""
    npts = len(pts)
    out = {}
    for i in range(npts - 1):
        mids = 0.5 * (pts[i + 1:] + pts[i])
        radii = 0.5 * np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        for off, (c, r) in enumerate(zip(mids, radii)):
            j = i + 1 + off
            margins = np.linalg.norm(pts - c, axis=1) - r
            margins[[i, j]] = np.inf
            slack = float(margins.min())
            if slack >= -eps_inside:
                out[(i, j)] = (c, float(r), slack)
    return out, []


def neighbor_graph(images: np.ndarray, domain: SampledDomain,
                   cfg: NeighborConfig = DEFAULT_CONFIG) -> list[NeighborCertificate]:
    """All certified f-neighbor tuples of the sampled map.

    Coinciding images form tuple certificates (the radius-0 branch); pairs
    of distinct images are certified with explicit witness spheres.  Small
    instances (at most cfg.exhaustive_max distinct images) are decided
    exactly pair by pair; large instances use Delaunay candidates, which is
    sound but may omit pairs in degenerate cospherical configurations.  The
    fully cospherical case is detected and emitted as one all-sample tuple
    at scale (all pairs at desk scale).
    """
    images = np.asarray(images, dtype=float)
    npts, m = images.shape
    if npts != len(domain):
        raise ValueError("images must align with domain samples")
    if npts < 2:
        return []
    diam = image_diameter(images)
    certs: list[NeighborCertificate] = []
    if diam <= 0.0:
        idx = tuple(range(npts))
        return [NeighborCertificate(indices=idx, witness="coincidence", slack=0.0,
                                    pair_distance=domain.max_pairwise_rho())]
    eps_coincide = cfg.eps_coincide_rel * diam
    eps_inside = cfg.eps_inside_rel * diam
    tau_on = cfg.tau_on_rel * diam

    clusters = _coincidence_clusters(images, eps_coincide)
    for cl in clusters:
        if len(cl) >= 2:
            spread = image_diameter(images[cl]) if len(cl) > 1 else 0.0
            certs.append(NeighborCertificate(
                indices=tuple(int(v) for v in cl), witness="coincidence",
                slack=float(spread),
                pair_distance=float(domain.max_pairwise_rho(cl))))

    reps = np.asarray([int(cl[0]) for cl in clusters])
    if len(reps) >= 2:
        rep_imgs = images[reps]
        reduced, embed = _affine_reduce(rep_imgs)
        dim = reduced.shape[1]

        pair_info: dict[tuple[int, int], tuple[np.ndarray | None, float, float]] = {}
        cosphere: Sphere | None = None
        cosphere_resid = 0.0
        if dim == 1:
            for i, j, c, r in _line_pairs(reduced[:, 0]):
                margins = np.abs(reduced[:, 0] - c[0]) - r
                margins[[i, j]] = np.inf
                slack = float(margins.min()) if len(reduced) > 2 else 0.0
                pair_info[(min(i, j), max(i, j))] = (c, float(r), slack)
        else:
            sph, resid = fit_sphere(reduced)
            if sph is not None and resid <= max(tau_on, 1e-12):
                cosphere = Sphere(center=embed(sph.center), radius=sph.radius)
                cosphere_resid = resid
            elif len(reps) <= cfg.exhaustive_max:
                for i, j in itertools.combinations(range(len(reps)), 2):
                    verdict, cert = pair_is_neighbor_fast(i, j, reduced, cfg)
                    if verdict == "yes" and cert is not None:
                        if isinstance(cert.witness, Sphere):
                            pair_info[(i, j)] = (cert.witness.center,
                                                 cert.witness.radius, cert.slack)
                        else:
                            pair_info[(i, j)] = (None, 0.0, cert.slack)
            else:
                if dim in (2, 3):
                    try:
                        certified, failed = _delaunay_edge_certs(reduced, eps_inside)
                    except QhullError:
                        certified, failed = _gabriel_pairs(reduced, eps_inside)
                else:
                    certified, failed = _gabriel_pairs(reduced, eps_inside)
                for key, (c, r, slack) in certified.items():
                    pair_info[key] = (c, r, slack)
                for key in failed[: cfg.lp_fallback_cap]:
                    verdict, cert = pair_is_neighbor_fast(key[0], key[1], reduced, cfg)
                    if verdict == "yes" and cert is not None and isinstance(cert.witness, Sphere):
                        pair_info[key] = (cert.witness.center, cert.witness.radius,
                                          cert.slack)

        if cosphere is not None:
            if npts <= cfg.exhaustive_max:
                for ri, rj in itertools.combinations(range(len(reps)), 2):
                    for gi in clusters[ri]:
                        for gj in clusters[rj]:
                            i, j = int(min(gi, gj)), int(max(gi, gj))
                            certs.append(NeighborCertificate(
                                indices=(i, j), witness=cosphere,
                                slack=-cosphere_resid,
                                pair_distance=domain.rho(i, j)))
            else:
                certs.append(NeighborCertificate(
                    indices=tuple(range(npts)), witness=cosphere,
                    slack=-cosphere_resid,
                    pair_distance=float(domain.max_pairwise_rho())))
        else:
            items = sorted(pair_info.items())
            # batch-embed the witness centers, then expand cluster pairs
            centers_red = [v[0] for _, v in items if v[0] is not None]
            embedded = embed(np.vstack(centers_red)) if centers_red else None
            witnesses: list[Sphere | str] = []
            pos = 0
            for _, (c, r, _slack) in items:
                if c is None:
                    witnesses.append("coincidence")
                else:
                    witnesses.append(Sphere(center=embedded[pos],
                                            radius=float(r)))
                    pos += 1
            gi_list: list[int] = []
            gj_list: list[int] = []
            ref: list[int] = []
            for t, ((ri, rj), _info) in enumerate(items):
                ca, cb = clusters[ri], clusters[rj]
                if len(ca) == 1 and len(cb) == 1:
                    a, b = int(ca[0]), int(cb[0])
                    combos = [(min(a, b), max(a, b))]
                elif len(ca) * len(cb) <= cfg.cross_pair_cap:
                    combos = sorted((int(min(gi, gj)), int(max(gi, gj)))
                                    for gi in ca for gj in cb)
                else:
                    d2 = ((domain.samples[ca][:, None, :] -
                           domain.samples[cb][None, :, :]) ** 2).sum(axis=2)
                    gi, gj = np.unravel_index(int(d2.argmax()), d2.shape)
                    combos = [(int(min(ca[gi], cb[gj])), int(max(ca[gi], cb[gj])))]
                for a, b in combos:
                    gi_list.append(a)
                    gj_list.append(b)
                    ref.append(t)
            if gi_list:
                ii = np.asarray(gi_list)
                jj = np.asarray(gj_list)
                rho_vec = np.linalg.norm(domain.samples[ii] - domain.samples[jj],
                                         axis=1)
                for a, b, t, rho in zip(gi_list, gj_list, ref, rho_vec):
                    certs.append(NeighborCertificate(
                        indices=(a, b), witness=witnesses[t],
                        slack=float(items[t][1][2]), pair_distance=float(rho)))

    certs.sort(key=lambda c: c.indices)
    return certs


def compute_df(certs: list[NeighborCertificate], domain: SampledDomain) -> float:
    """Largest intrinsic distance realized by any certified tuple
    (recomputed from the domain; 0.0 for an empty certificate list)."""
    return extremal_pair(certs, domain)[1]


def extremal_pair(certs: list[NeighborCertificate],
                  domain: SampledDomain) -> tuple[tuple[int, int] | None, float]:
    """The certified member pair at maximum intrinsic distance, with that
    distance; (None, 0.0) when no certificates are given.  Tuple
    certificates are scanned pairwise in chunks."""
    best_pair: tuple[int, int] | None = None
    best = 0.0
    for cert in certs:
        idx = np.asarray(cert.indices)
        if len(idx) == 2:
            d = domain.rho(int(idx[0]), int(idx[1]))
            if d >= best:
                best, best_pair = d, (int(idx[0]), int(idx[1]))
            continue
        pts = domain.samples[idx]
        chunk = max(1, int(2e6 // max(len(idx), 1)))
        for start in range(0, len(idx), chunk):
            block = pts[start:start + chunk]
            d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            k = int(d2.argmax())
            a, b = np.unravel_index(k, d2.shape)
            d = math.sqrt(float(d2[a, b]))
            if d >= best:
                i, j = int(idx[start + a]), int(idx[b])
                best, best_pair = d, (min(i, j), max(i, j))
    return best_pair, best


def check_certificate(cert: NeighborCertificate, images: np.ndarray,
                      domain: SampledDomain,
                      cfg: NeighborConfig = DEFAULT_CONFIG) -> bool:
    """Re-validate a certificate against the full image set: members on the
    witness sphere within tau_on, no non-member deeper inside than
    eps_inside, pair_distance consistent with the domain."""
    images = np.asarray(images, dtype=float)
    diam = image_diameter(images)
    idx = np.asarray(cert.indices)
    rho = float(domain.max_pairwise_rho(idx)) if len(idx) > 2 else domain.rho(*idx)
    if abs(rho - cert.pair_distance) > 1e-9 * max(rho, 1.0):
        return False
    if cert.witness == "coincidence":
        spread = image_diameter(images[idx])
        return spread <= max(cfg.eps_coincide_rel * diam, cert.slack + 1e-12)
    sphere: Sphere = cert.witness
    margins = sphere.margins(images)
    if np.abs(margins[idx]).max() > max(cfg.tau_on_rel * diam, 1e-12):
        return False
    mask = np.ones(len(images), dtype=bool)
    mask[idx] = False
    if mask.any() and margins[mask].min() < -cfg.eps_inside_rel * diam - 1e-12:
        return False
    return True
