"""Sampled domains (spheres, simplex boundaries, cube boundaries) and
closed covers over them.

A SampledDomain is a finite point cloud standing in for the continuous
domain; intrinsic distance is the Euclidean chord for spheres and the
ambient Euclidean distance for polytope boundaries (the same formula, kept
behind a method so callers never special-case).  Covers are boolean
membership matrices; boundary samples keep every label they tie for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .geometry import regular_edge_lengths, regular_simplex_vertices

__all__ = [
    "SampledDomain",
    "CoverAssignment",
    "sample_sphere",
    "regular_triangulation_cover",
    "simplex_boundary_cover",
    "cube_boundary_cover",
]

# label tolerance for "lies on this facet" decisions on unit-scale polytopes
FACET_TOL = 1e-9

# distances per block of SampledDomain.rho_blocks, which sets the row
# chunks whose order decides SampledDomain.farthest_pair's ties
RHO_BLOCK_ENTRIES = 2e6


@dataclass(frozen=True)
class SampledDomain:
    """Finite sample of a domain.

    kind: "sphere" | "simplex_boundary" | "cube_boundary"
    dim:  n for sphere(n) and simplex_boundary(n), m for cube_boundary(m)
    samples: (N, ambient) float64 rows
    antipode: for spheres, index array a with samples[a[i]] == -samples[i]
    """

    kind: str
    dim: int
    samples: np.ndarray
    seed: int = 0
    scheme: str | None = None
    antipode: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("sphere", "simplex_boundary", "cube_boundary"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not np.isfinite(self.samples).all():
            raise ValueError("domain samples must be finite")

    def __len__(self) -> int:
        return len(self.samples)

    def rho(self, i: int, j: int) -> float:
        """Intrinsic distance between two sample indices (chord metric for
        spheres, ambient Euclidean for polytope boundaries)."""
        return float(self.rho_pairs(i, j))

    def rho_pairs(self, idx_a, idx_b) -> np.ndarray:
        """Intrinsic distances between broadcast index arrays; a dot product
        per pair, so every batch agrees bit for bit with the scalar rho."""
        d = self.samples.take(idx_a, axis=0) - self.samples.take(idx_b, axis=0)
        return np.sqrt(np.vecdot(d, d))

    def rho_blocks(self, rows: np.ndarray, cols: np.ndarray):
        """The rows x cols distances in chunks of about 2e6 entries: yields
        (start, block) with block[a, b] == rho(rows[start + a], cols[b])."""
        chunk = _row_chunk(len(cols))
        for start in range(0, len(rows), chunk):
            yield start, self.rho_pairs(rows[start:start + chunk, None],
                                        cols[None, :])

    def farthest_pair(self, rows: np.ndarray, cols: np.ndarray
                      ) -> tuple[float, tuple[int, int] | None]:
        """The largest distance between two index sets and a pair
        (row, col) realizing it; (0.0, None) for empty sets.  Ties go to
        the first maximum of the last chunk that holds one.  Over all
        samples of a sphere, only the antipodal pairs are scanned when
        they provably hold the maximum (see _antipodal_farthest)."""
        if self.antipode is not None and _is_range(rows, len(self)) \
                and _is_range(cols, len(self)):
            found = self._antipodal_farthest()
            if found is not None:
                return found
        best, pair = 0.0, None
        for start, block in self.rho_blocks(rows, cols):
            a, b = np.unravel_index(int(block.argmax()), block.shape)
            if block[a, b] >= best:
                best, pair = float(block[a, b]), (int(rows[start + a]), int(cols[b]))
        return best, pair

    def _antipodal_farthest(self) -> tuple[float, tuple[int, int]] | None:
        """farthest_pair over all samples from the N antipodal pairs
        (i, antipode[i]) and the rows that a bound cannot settle, or None
        when the samples are not symmetric.

        For samples x and y with y != -x, the parallelogram law gives
        |x - y|^2 = 2|x|^2 + 2|y|^2 - |y - (-x)|^2, and -x is a sample, so
        |y - (-x)| is at least the nearest-neighbor distance of that
        sample.  Row i's other entries are thus at most
        sqrt(4 max|x|^2 - nn[antipode[i]]^2).  Rows where that, with a
        rounding margin, stays below the largest antipodal distance reach
        the maximum only at their antipode; the other rows are scanned
        whole, with the distances of the full scan.  The pick is the full
        scan's: the first maximum of the last row chunk that holds one."""
        n = len(self)
        if not np.array_equal(self.samples[self.antipode], -self.samples):
            return None
        cols = np.arange(n)
        anti = self.rho_pairs(cols, self.antipode)
        best = anti.max()
        nn = self.nearest_neighbors[0][self.antipode]
        reach = ((4.0 + 1e-12) * np.vecdot(self.samples, self.samples).max()
                 - nn * nn)
        scan = np.flatnonzero(~(reach < best * best))
        # per scanned row, its largest entry and the first column holding it
        top, at = np.empty(len(scan)), np.empty(len(scan), dtype=np.intp)
        for start, block in self.rho_blocks(scan, cols):
            rows = slice(start, start + len(block))
            top[rows], at[rows] = block.max(axis=1), block.argmax(axis=1)
        best = max(best, top.max(initial=best))
        # the first maximal column of every row that holds the maximum
        col = self.antipode.copy()
        col[scan] = at
        hit = anti == best
        hit[scan] = top == best
        rows = np.flatnonzero(hit)
        chunk = _row_chunk(n)
        i = int(rows[rows // chunk == rows[-1] // chunk][0])
        return float(best), (i, int(col[i]))

    @cached_property
    def nearest_neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """(distance, index) columns of every sample's nearest other
        sample: one KD-tree query on first use, shared read-only by every
        later reader, as the samples never change."""
        d, i = cKDTree(self.samples).query(self.samples, k=2)
        cols = d[:, 1], i[:, 1]
        for col in cols:
            col.flags.writeable = False
        return cols

    @cached_property
    def bases(self) -> dict:
        """Map bases over the samples by name (maps.evaluate fills it):
        functions of the samples alone, so each is computed on first use
        and shared read-only by every later reader, trial threads
        included."""
        return {}

    def mesh_size(self) -> float:
        """Max nearest-neighbor intrinsic distance over the sample set."""
        return float(self.nearest_neighbors[0].max())

    def max_pairwise_rho(self, indices=None) -> float:
        """Largest intrinsic distance among the given sample indices
        (all samples when indices is None)."""
        idx = np.arange(len(self)) if indices is None else np.asarray(indices)
        return self.farthest_pair(idx, idx)[0]


def _row_chunk(ncols: int) -> int:
    """Rows per block of SampledDomain.rho_blocks against ncols columns."""
    return max(1, int(RHO_BLOCK_ENTRIES // max(ncols, 1)))


def _is_range(idx: np.ndarray, n: int) -> bool:
    """Whether idx is 0, 1, ..., n - 1."""
    return len(idx) == n and bool((np.asarray(idx) == np.arange(n)).all())


@dataclass(frozen=True)
class CoverAssignment:
    """Closed cover of a sampled domain as an (N, k) boolean membership
    matrix.  Samples on shared boundaries carry every label they tie for."""

    membership: np.ndarray
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        memb = np.asarray(self.membership, dtype=bool)
        object.__setattr__(self, "membership", memb)
        if not memb.any(axis=1).all():
            raise ValueError("cover must assign at least one label per sample")
        if not memb.any(axis=0).all():
            raise ValueError("cover has an empty element")
        if self.names and len(self.names) != memb.shape[1]:
            raise ValueError("names length mismatch")

    @property
    def element_count(self) -> int:
        return self.membership.shape[1]

    def labels(self) -> list[list[int]]:
        return [sorted(np.nonzero(row)[0].tolist()) for row in self.membership]

    def element_indices(self, j: int) -> np.ndarray:
        return np.nonzero(self.membership[:, j])[0]

    def distances(self, targets: np.ndarray, points: np.ndarray) -> np.ndarray:
        """(len(points), k) distances from every point to the nearest
        target of each element, targets holding one row per sample: one
        KD-tree query per element."""
        return np.column_stack([
            cKDTree(targets[self.membership[:, j]]).query(points)[0]
            for j in range(self.element_count)])


def _sphere_uniform(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    pts = rng.standard_normal(size=(count, n + 1))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    # resample the (measure-zero) degenerate rows deterministically
    while np.any(norms < 1e-12):
        bad = norms[:, 0] < 1e-12
        pts[bad] = rng.standard_normal(size=(int(bad.sum()), n + 1))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
    return pts / norms


def _fibonacci_hemisphere(count: int) -> np.ndarray:
    """count spiral points on the open upper hemisphere of S^2.

    The z-ladder carries a pole offset (a=3) so that after mirroring, the
    nearest-neighbor spacing stays within [0.5, 2] x sqrt(4*pi/N) for the
    sizes this package uses.
    """
    a = 3.0
    k = np.arange(count)
    z = (2.0 * k + 1.0 + a) / (2.0 * count + a)  # in (0, 1)
    r = np.sqrt(1.0 - z * z)
    phi = k * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def sample_sphere(n: int, n_samples: int, seed: int = 0,
                  scheme: str = "uniform_random") -> SampledDomain:
    """Sample S^n with an exact antipodal involution.

    uniform_random draws n_samples i.i.d. uniform directions and appends
    their exact antipodes (2*n_samples total). quasi_uniform is
    deterministic: equally spaced angles for n=1 (n_samples rounded up to
    even), a Fibonacci-spiral hemisphere plus its mirror for n=2, and a
    scrambling-free Sobol construction for n >= 3.  The returned count is
    always >= n_samples.
    """
    if n < 1 or n_samples < 1:
        raise ValueError("n >= 1 and n_samples >= 1 required")
    if scheme == "uniform_random":
        rng = np.random.default_rng(seed)
        half = _sphere_uniform(n, n_samples, rng)
        samples = np.vstack([half, -half])
        m = len(half)
        antipode = np.concatenate([np.arange(m) + m, np.arange(m)])
    elif scheme == "quasi_uniform":
        if n == 1:
            m = n_samples + (n_samples % 2)
            theta = 2.0 * math.pi * np.arange(m // 2) / m  # [0, pi)
            half = np.column_stack([np.cos(theta), np.sin(theta)])
            samples = np.vstack([half, -half])  # equally spaced, angle-ordered
            antipode = (np.arange(m) + m // 2) % m
        elif n == 2:
            half_count = (n_samples + 1) // 2
            upper = _fibonacci_hemisphere(half_count)
            samples = np.vstack([upper, -upper])
            antipode = np.concatenate([np.arange(half_count) + half_count,
                                       np.arange(half_count)])
        else:
            from scipy.stats import qmc

            half_count = (n_samples + 1) // 2
            sob = qmc.Sobol(d=n + 1, scramble=False, seed=seed)
            # drop the first two points: the all-zeros row, and the centre
            # (0.5, ..., 0.5), which norm.ppf maps to the zero vector.
            # scipy warns that Sobol' balance needs a power-of-2 count, but
            # the points are a deterministic spread, not a QMC estimate,
            # and with two dropped no count would keep the balance anyway
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "The balance properties",
                                        UserWarning)
                u = sob.random(half_count + 2)[2:]
            from scipy.stats import norm as _norm

            g = _norm.ppf(np.clip(u, 1e-12, 1 - 1e-12))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            samples = np.vstack([g, -g])
            antipode = np.concatenate([np.arange(half_count) + half_count,
                                       np.arange(half_count)])
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return SampledDomain(kind="sphere", dim=n, samples=samples, seed=seed,
                         scheme=scheme, antipode=antipode)


def regular_triangulation_cover(domain: SampledDomain) -> CoverAssignment:
    """Cover of S^n by the n+2 facets of the regular inscribed simplex,
    centrally projected to the sphere.

    A sample belongs to facet i when it lies in the cone spanned by the
    simplex vertices other than v_i (cone coordinates >= -tol); boundary
    samples tie into several facets.  One simplex vertex sits at the north
    pole, making the construction deterministic.
    """
    if domain.kind != "sphere":
        raise ValueError("regular_triangulation_cover needs a sphere domain")
    n = domain.dim
    verts = regular_simplex_vertices(n)  # (n+2, n+1)
    d_eu, _ = regular_edge_lengths(n)
    chords = np.linalg.norm(verts[:, None, :] - verts[None, :, :], axis=2)
    off = chords[~np.eye(n + 2, dtype=bool)]
    assert np.all(np.abs(off - d_eu) <= 1e-9), "simplex edge length check failed"

    k = n + 2
    nsamp = len(domain)
    membership = np.zeros((nsamp, k), dtype=bool)
    for i in range(k):
        others = np.delete(np.arange(k), i)
        m_inv = np.linalg.inv(verts[others].T)  # cone coords lam = m_inv @ x
        lam = domain.samples @ m_inv.T
        membership[:, i] = np.all(lam >= -FACET_TOL, axis=1)
    names = tuple(f"facet-{i}" for i in range(k))
    return CoverAssignment(membership=membership, names=names)


def _dirichlet_uniform(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    """count uniform points in the (k-1)-simplex {x >= 0, sum x = 1}."""
    e = -np.log(rng.random(size=(count, k)))
    return e / e.sum(axis=1, keepdims=True)


def simplex_boundary_cover(n: int, n_samples: int, seed: int = 0
                           ) -> tuple[SampledDomain, CoverAssignment]:
    """Sample the boundary of the standard (n-1)-simplex in R^n and cover it
    by the n facets {x_i = 0}.  Vertices are included and carry all n-1 of
    their facet labels."""
    if n < 2:
        raise ValueError("n >= 2 required")
    rng = np.random.default_rng(seed)
    rows = [np.eye(n)]  # the n vertices
    per_facet = max(0, (n_samples - n) // n)
    for i in range(n):
        if n - 1 >= 2 and per_facet > 0:
            inner = _dirichlet_uniform(rng, per_facet, n - 1)
            block = np.zeros((per_facet, n))
            block[:, np.arange(n) != i] = inner
            rows.append(block)
    samples = np.vstack(rows)
    membership = samples <= FACET_TOL
    domain = SampledDomain(kind="simplex_boundary", dim=n, samples=samples,
                           seed=seed, scheme="facet_uniform")
    names = tuple(f"facet-{i}" for i in range(n))
    return domain, CoverAssignment(membership=membership, names=names)


def cube_boundary_cover(m: int, n_samples: int, seed: int = 0
                        ) -> tuple[SampledDomain, CoverAssignment]:
    """Sample the boundary of [0,1]^m and cover it by the m min-faces
    sigma_i = {x_i = 0} plus the union P of all max-faces {x_i = 1}.

    Corners are included; a corner like (0, 0) carries both sigma labels,
    while (1, ..., 1) carries only the P label.
    """
    if m < 2:
        raise ValueError("m >= 2 required")
    rng = np.random.default_rng(seed)
    rows = []
    if 2 ** m <= 64:
        corners = np.array(np.meshgrid(*([[0.0, 1.0]] * m))).T.reshape(-1, m)
        rows.append(corners)
    n_faces = 2 * m
    per_face = max(1, (n_samples - sum(len(r) for r in rows)) // n_faces)
    for i in range(m):
        for value in (0.0, 1.0):
            block = rng.random(size=(per_face, m))
            block[:, i] = value
            rows.append(block)
    samples = np.vstack(rows)
    min_faces = samples <= FACET_TOL
    on_max = np.any(samples >= 1.0 - FACET_TOL, axis=1)
    membership = np.column_stack([min_faces, on_max])
    domain = SampledDomain(kind="cube_boundary", dim=m, samples=samples,
                           seed=seed, scheme="face_uniform")
    names = tuple(f"min-face-{i}" for i in range(m)) + ("max-union",)
    return domain, CoverAssignment(membership=membership, names=names)


def cube_max_faces(samples: np.ndarray) -> list[list[int]]:
    """For each sample on the cube boundary, the coordinates i with
    x_i = 1 (the max-faces sigma'_i it lies on)."""
    return [sorted(np.nonzero(row >= 1.0 - FACET_TOL)[0].tolist())
            for row in np.atleast_2d(samples)]
