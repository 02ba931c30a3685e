import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.stats import norm, qmc

from fneighbors import domains
from fneighbors.domains import (
    CoverAssignment,
    SampledDomain,
    cube_boundary_cover,
    cube_max_faces,
    regular_triangulation_cover,
    sample_sphere,
    simplex_boundary_cover,
)
from fneighbors.geometry import regular_edge_lengths


def test_sample_sphere_quasi_n1_roots_of_unity():
    d = sample_sphere(1, 4, scheme="quasi_uniform")
    expected = {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}
    got = {(round(x, 12), round(y, 12)) for x, y in d.samples}
    assert got == expected
    assert len(d) == 4


def test_sample_sphere_antipode_exact():
    for n, scheme in [(1, "uniform_random"), (2, "uniform_random"),
                      (3, "uniform_random"), (1, "quasi_uniform"),
                      (2, "quasi_uniform"), (3, "quasi_uniform"),
                      (4, "quasi_uniform")]:
        d = sample_sphere(n, 51, seed=9, scheme=scheme)
        assert len(d) >= 51
        assert np.allclose(np.linalg.norm(d.samples, axis=1), 1.0, atol=1e-12)
        a = d.antipode
        assert np.array_equal(d.samples[a], -d.samples)
        assert np.array_equal(a[a], np.arange(len(d)))


@pytest.mark.parametrize("n", [3, 4])
def test_quasi_uniform_sphere_keeps_its_sobol_samples_without_a_warning(n):
    # scipy warns on the raw draw (the count is not a power of 2); the
    # samples are that draw's, bit for bit, and nothing is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = sample_sphere(n, 51, seed=9, scheme="quasi_uniform")
    sob = qmc.Sobol(d=n + 1, scramble=False, seed=9)
    with pytest.warns(UserWarning, match="balance properties"):
        u = sob.random(26 + 2)[2:]
    g = norm.ppf(np.clip(u, 1e-12, 1 - 1e-12))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    assert np.array_equal(d.samples, np.vstack([g, -g]))


def test_sample_sphere_uniform_count_doubles():
    d = sample_sphere(2, 100, seed=1, scheme="uniform_random")
    assert len(d) == 200


def test_sample_sphere_deterministic():
    d1 = sample_sphere(2, 64, seed=5)
    d2 = sample_sphere(2, 64, seed=5)
    assert np.array_equal(d1.samples, d2.samples)
    d3 = sample_sphere(2, 64, seed=6)
    assert not np.array_equal(d1.samples, d3.samples)


def test_sample_sphere_quasi_n2_spacing_regression():
    d = sample_sphere(2, 1000, seed=0, scheme="quasi_uniform")
    tree = cKDTree(d.samples)
    dist, _ = tree.query(d.samples, k=2)
    nn = dist[:, 1]
    ideal = math.sqrt(4.0 * math.pi / len(d))
    assert nn.min() >= 0.5 * ideal
    assert nn.max() <= 2.0 * ideal
    # frozen regression values for the deterministic construction (seed 0)
    assert nn.min() == pytest.approx(0.05882703263777078, rel=1e-9)
    assert nn.max() == pytest.approx(0.11008939156859276, rel=1e-9)


def test_mesh_size_scales():
    small = sample_sphere(1, 64, scheme="quasi_uniform")
    large = sample_sphere(1, 256, scheme="quasi_uniform")
    assert large.mesh_size() < small.mesh_size()
    assert small.mesh_size() == pytest.approx(2 * math.sin(math.pi / 64), abs=1e-12)
    # the cached nearest-neighbor columns equal a fresh KD-tree query
    for d in (small, sample_sphere(2, 300, seed=1),
              cube_boundary_cover(3, 400, seed=2)[0],
              simplex_boundary_cover(3, 200, seed=3)[0]):
        dist, idx = cKDTree(d.samples).query(d.samples, k=2)
        nn_dist, nn_idx = d.nearest_neighbors
        assert np.array_equal(nn_dist, dist[:, 1])
        assert np.array_equal(nn_idx, idx[:, 1])
        assert d.mesh_size() == float(dist[:, 1].max())
        assert d.nearest_neighbors is d.nearest_neighbors
        assert not nn_dist.flags.writeable


def _full_scan(domain):
    """farthest_pair over all samples without the antipodal shortcut."""
    idx = np.arange(len(domain))
    return dataclasses.replace(domain, antipode=None).farthest_pair(idx, idx)


@pytest.mark.parametrize("block", [2e6, 3000.0])
def test_farthest_pair_antipodal_scan_equals_full_scan(monkeypatch, block):
    # small blocks split the rows into many chunks; a maximal row and its
    # antipode always lie in different halves, so the ties span chunks
    monkeypatch.setattr(domains, "RHO_BLOCK_ENTRIES", block)
    spanning = 0
    for n, count, scheme, seed in [(1, 256, "quasi_uniform", 0),
                                   (1, 1000, "quasi_uniform", 0),
                                   (1, 700, "uniform_random", 2),
                                   (2, 300, "quasi_uniform", 0),
                                   (2, 1024, "quasi_uniform", 0),
                                   (2, 400, "uniform_random", 1),
                                   (2, 1500, "uniform_random", 4)]:
        domain = sample_sphere(n, count, seed=seed, scheme=scheme)
        idx = np.arange(len(domain))
        assert domain._antipodal_farthest() is not None
        got = domain.farthest_pair(idx, idx)
        assert got == _full_scan(domain)
        assert domain.max_pairwise_rho() == got[0]
        anti = domain.rho_pairs(idx, domain.antipode)
        chunks = np.unique(np.flatnonzero(anti == got[0])
                           // domains._row_chunk(len(domain)))
        spanning += len(chunks) > 1
    assert spanning >= 5 if block < 1e6 else spanning >= 1


def test_farthest_pair_keeps_the_full_scan_when_not_proven(monkeypatch):
    # a repeated sample pair makes the nearest-neighbor distance of both
    # copies (and of their antipodes) 0, so the rows whose antipode is one
    # of them are not settled by the bound and are scanned whole
    half = sample_sphere(2, 200, seed=3).samples[:200]
    half = np.vstack([half, half[:1]])
    samples = np.vstack([half, -half])
    antipode = np.r_[np.arange(len(half)) + len(half), np.arange(len(half))]
    domain = SampledDomain(kind="sphere", dim=2, samples=samples,
                           antipode=antipode)
    scanned = _scanned_rows(monkeypatch)
    idx = np.arange(len(domain))
    assert domain._antipodal_farthest() == _full_scan(domain)
    assert scanned[0].tolist() == [0, 200, 201, 401]
    assert domain.farthest_pair(idx, idx) == _full_scan(domain)
    # samples without the symmetry keep the full scan
    broken = dataclasses.replace(domain, antipode=np.roll(antipode, 1))
    assert broken._antipodal_farthest() is None


def _scanned_rows(monkeypatch):
    """Record the rows of every rho_blocks call, in a list returned."""
    calls, blocks = [], SampledDomain.rho_blocks

    def recording(self, rows, cols):
        calls.append(np.asarray(rows))
        return blocks(self, rows, cols)

    monkeypatch.setattr(SampledDomain, "rho_blocks", recording)
    return calls


def _tied_circle(count: int, rng) -> SampledDomain:
    """count antipodal pairs on circles of radius 0.999, except for a
    few exact unit vectors (antipodal distance exactly 2.0, the maximum)
    placed in both halves of the rows, so the maximal rows tie across row
    chunks."""
    angles = np.sort(rng.uniform(0.0, np.pi, count))
    half = 0.999 * np.c_[np.cos(angles), np.sin(angles)]
    for k in rng.choice(count, 4, replace=False):
        half[k] = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.8, 0.6]][k % 4]
    samples = np.vstack([half, -half])
    antipode = np.r_[np.arange(count) + count, np.arange(count)]
    return SampledDomain(kind="sphere", dim=1, samples=samples,
                         antipode=antipode)


@pytest.mark.parametrize("seed", range(4))
def test_antipodal_rows_bound_equals_full_scan(monkeypatch, seed):
    # 3000 random circle pairs have a few rows whose antipode has a close
    # neighbor: only those are scanned, and the pick is the full scan's
    monkeypatch.setattr(domains, "RHO_BLOCK_ENTRIES", 2e5)
    domain = sample_sphere(1, 3000, seed=seed + 5, scheme="uniform_random")
    scanned = _scanned_rows(monkeypatch)
    got = domain._antipodal_farthest()
    assert 0 < len(scanned[0]) < len(domain) // 10
    assert got == _full_scan(domain)
    for n, count in [(1, 700), (2, 600)]:
        domain = sample_sphere(n, count, seed=seed, scheme="uniform_random")
        assert domain._antipodal_farthest() == _full_scan(domain)
    domain = _tied_circle(1500, np.random.default_rng(seed))
    idx = np.arange(len(domain))
    anti = domain.rho_pairs(idx, domain.antipode)
    best = domain._antipodal_farthest()
    assert best == _full_scan(domain) and best[0] == 2.0
    assert len(np.unique(np.flatnonzero(anti == 2.0)
                         // domains._row_chunk(len(domain)))) > 1


def test_regular_triangulation_cover_n1():
    d = sample_sphere(1, 300, scheme="quasi_uniform")
    cover = regular_triangulation_cover(d)
    assert cover.element_count == 3
    memb = cover.membership
    assert memb.any(axis=1).all()
    # each arc spans 2pi/3: check via the angular extent of each element
    for j in range(3):
        pts = d.samples[cover.element_indices(j)]
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        # wrap-aware extent: smallest arc containing all points
        ang = np.sort(np.mod(ang, 2 * math.pi))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * math.pi]]))
        extent = 2 * math.pi - gaps.max()
        assert extent <= 2 * math.pi / 3 + 1e-9
        assert extent >= 2 * math.pi / 3 - 0.1  # samples nearly fill the arc


def test_regular_triangulation_cover_n2():
    d = sample_sphere(2, 2000, seed=3, scheme="quasi_uniform")
    cover = regular_triangulation_cover(d)
    assert cover.element_count == 4
    labels_per_sample = cover.membership.sum(axis=1)
    assert labels_per_sample.min() >= 1
    # interior samples carry exactly one label; boundary ties are rare
    assert (labels_per_sample == 1).mean() > 0.95
    d_eu, _ = regular_edge_lengths(2)
    assert d_eu == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)


def test_simplex_boundary_cover_n3():
    domain, cover = simplex_boundary_cover(3, 200, seed=0)
    assert cover.element_count == 3
    s = domain.samples
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)
    assert (s >= -1e-12).all()
    # vertex e_3 = (0,0,1) lies on facets {0, 1}
    vertex_row = np.where(np.all(np.abs(s - [0, 0, 1]) < 1e-12, axis=1))[0][0]
    assert cover.labels()[vertex_row] == [0, 1]
    # facet-interior samples carry exactly one label
    interior = cover.membership.sum(axis=1) == 1
    assert interior.sum() > 100


def test_cube_boundary_cover_m2():
    domain, cover = cube_boundary_cover(2, 400, seed=0)
    assert cover.element_count == 3  # sigma_1, sigma_2, P
    s = domain.samples
    on_boundary = np.any((s <= 1e-12) | (s >= 1 - 1e-12), axis=1)
    assert on_boundary.all()
    corner00 = np.where(np.all(np.abs(s - [0, 0]) < 1e-12, axis=1))[0][0]
    assert cover.labels()[corner00] == [0, 1]
    corner11 = np.where(np.all(np.abs(s - [1, 1]) < 1e-12, axis=1))[0][0]
    assert cover.labels()[corner11] == [2]
    assert cube_max_faces(s[corner11])[0] == [0, 1]
    assert cube_max_faces(s[corner00])[0] == []


def test_cover_validation():
    with pytest.raises(ValueError):
        CoverAssignment(membership=np.array([[True, False], [False, False]]))
    with pytest.raises(ValueError):
        CoverAssignment(membership=np.array([[True, False], [True, False]]))
