"""Partition-of-unity and degree tests: exact hat-function values, winding
and solid-angle degrees on synthetic loops/meshes, and cover certification
on the standard and the degenerate covers."""

import math

import numpy as np
import pytest

from fneighbors.domains import (
    CoverAssignment,
    cube_boundary_cover,
    regular_triangulation_cover,
    sample_sphere,
)
from fneighbors.homotopy import (
    CoverDegenerateError,
    InteriorHitError,
    PartitionOfUnity,
    UndersampledError,
    build_partition,
    certify_cover,
    covering_scale,
    degree_estimate,
    h_map,
    project_to_sphere,
)


def _circle_cover(n_samples: int, seed: int = 0):
    domain = sample_sphere(1, n_samples, seed=seed, scheme="quasi_uniform")
    return domain, regular_triangulation_cover(domain)


def test_partition_rows_and_subordination():
    domain, cover = _circle_cover(64)
    dist = cover.distances(domain.samples, domain.samples)
    r = 0.5 * covering_scale(dist)
    pou = build_partition(dist, r)
    assert pou.values.shape == (len(domain), 3)
    assert np.all(pou.values >= 0.0)
    assert np.allclose(pou.values.sum(axis=1), 1.0, atol=1e-9)
    # positive weight implies the sample sits within r of that element
    for j in range(3):
        members = domain.samples[cover.membership[:, j]]
        for i in np.flatnonzero(pou.values[:, j] > 0.0):
            d = np.linalg.norm(members - domain.samples[i], axis=1).min()
            assert d <= r + 1e-12


def test_partition_indicator_deep_inside():
    domain, cover = _circle_cover(64)
    dist = cover.distances(domain.samples, domain.samples)
    r = 0.4 * covering_scale(dist)
    pou = build_partition(dist, r)
    single = np.flatnonzero(cover.membership.sum(axis=1) == 1)
    hits = [i for i in single
            if sorted(pou.values[i]) == [0.0, 0.0, 1.0]]
    assert hits, "expected indicator rows deep inside single elements"


def test_partition_equal_split_on_overlap():
    domain, cover = _circle_cover(12)
    dist = cover.distances(domain.samples, domain.samples)
    r = 0.3 * covering_scale(dist)
    pou = build_partition(dist, r)
    double = np.flatnonzero(cover.membership.sum(axis=1) == 2)
    assert len(double) > 0
    found = any(sorted(pou.values[i]) == [0.0, 0.5, 0.5] for i in double)
    assert found


def test_partition_degenerate_when_too_thick():
    domain, cover = _circle_cover(32)
    with pytest.raises(CoverDegenerateError):
        build_partition(cover.distances(domain.samples, domain.samples), 3.0)


def test_h_map_boundary_and_interior_hit():
    domain, cover = _circle_cover(64)
    dist = cover.distances(domain.samples, domain.samples)
    pou = build_partition(dist, 0.5 * covering_scale(dist))
    values = h_map(pou)
    assert np.all(values.min(axis=1) <= 1e-9)
    bad = PartitionOfUnity(values=np.array([[0.2, 0.3, 0.5]]), r_thick=1.0)
    with pytest.raises(InteriorHitError):
        h_map(bad)


def test_h_loop_visits_all_three_edges():
    domain, cover = _circle_cover(2048)
    dist = cover.distances(domain.samples, domain.samples)
    pou = build_partition(dist, 0.6 * covering_scale(dist))
    values = h_map(pou)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        c = 3 - a - b
        on_edge = ((values[:, a] > 0.0) & (values[:, b] > 0.0)
                   & (values[:, c] == 0.0))
        assert on_edge.any(), (a, b)


def test_winding_basic_loops():
    t = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
    loop = np.column_stack([np.cos(t), np.sin(t)])
    assert degree_estimate(loop, 1).degree == 1
    assert degree_estimate(loop[::-1], 1).degree == -1
    double = np.column_stack([np.cos(2 * t), np.sin(2 * t)])
    assert degree_estimate(double, 1).degree == 2
    wiggle = np.column_stack([np.cos(0.3 * np.sin(t)), np.sin(0.3 * np.sin(t))])
    est = degree_estimate(wiggle, 1)
    assert est.degree == 0
    assert est.confidence > 0.9


def test_winding_concatenated_reverse_cancels():
    t = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
    loop = np.column_stack([np.cos(t), np.sin(t)])
    both = np.vstack([loop, loop[::-1]])
    assert degree_estimate(both, 1).degree == 0


def test_winding_undersampled():
    t = np.array([0.0, 2.0, 4.0])
    loop = np.column_stack([np.cos(t), np.sin(t)])
    with pytest.raises(UndersampledError):
        degree_estimate(loop, 1)


def test_solid_angle_degree_identity_sphere():
    from fneighbors.homotopy import _surface_mesh

    domain = sample_sphere(2, 512, seed=0, scheme="quasi_uniform")
    mesh = _surface_mesh(domain)
    est = degree_estimate(domain.samples, 2, triangles=mesh)
    assert est.degree == 1
    assert est.confidence > 0.99
    flipped = mesh[:, [0, 2, 1]]
    assert degree_estimate(domain.samples, 2, triangles=flipped).degree == -1


def test_project_to_sphere_unit_norm():
    domain, cover = _circle_cover(128)
    dist = cover.distances(domain.samples, domain.samples)
    pou = build_partition(dist, 0.5 * covering_scale(dist))
    y = project_to_sphere(h_map(pou))
    assert y.shape == (len(domain), 2)
    assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)


def test_certify_standard_arc_cover():
    domain, cover = _circle_cover(1024)
    cert = certify_cover(domain, cover)
    assert cert.verdict == "non_null_homotopic"
    assert abs(cert.degree) == 1
    assert cert.confidence >= 0.9
    assert len(cert.estimates) == 3
    # partition independence: same class at every admissible thickening
    assert len({e.degree for e in cert.estimates}) == 1


def test_certify_sphere_triangulation_cover():
    domain = sample_sphere(2, 1024, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    cert = certify_cover(domain, cover)
    assert cert.verdict == "non_null_homotopic"
    assert abs(cert.degree) == 1
    assert cert.confidence >= 0.9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certify_cube_boundary_cover(seed):
    # the min-face cover of the 3-cube boundary, meshed through its central
    # projection onto the sphere: the raw samples' hull has only the 8
    # corners as vertices, and every radius then failed on a wide triangle
    domain, cover = cube_boundary_cover(3, 2048, seed=seed)
    cert = certify_cover(domain, cover)
    assert cert.verdict == "non_null_homotopic"
    assert cert.degree == 1
    assert [e.degree for e in cert.estimates] == [1, 1, 1]
    assert cert.confidence >= 0.9


def test_certify_degenerate_cover_is_null():
    domain = sample_sphere(1, 256, seed=0, scheme="quasi_uniform")
    theta = np.arctan2(domain.samples[:, 1], domain.samples[:, 0])
    membership = np.zeros((len(domain), 3), dtype=bool)
    membership[:, 0] = True  # one arc is the whole circle
    membership[:, 1] = (theta > 0.5) & (theta < 0.7)
    membership[:, 2] = (theta > 1.0) & (theta < 1.2)
    cover = CoverAssignment(membership=membership,
                            names=("big", "patch-a", "patch-b"))
    cert = certify_cover(domain, cover)
    assert cert.verdict == "null_homotopic"
    assert cert.degree == 0
    assert cert.confidence >= 0.9


def test_certify_dimension_mismatch():
    domain = sample_sphere(2, 64, seed=0, scheme="quasi_uniform")
    membership = np.ones((len(domain), 3), dtype=bool)
    cover = CoverAssignment(membership=membership, names=("a", "b", "c"))
    cert = certify_cover(domain, cover)
    assert cert.verdict == "inconclusive"
    assert "dimension" in cert.reason


@pytest.mark.parametrize("kind, n", [("sphere", 1), ("cube", 2),
                                     ("sphere", 2), ("cube", 3)])
def test_certify_cover_computes_the_distances_once(monkeypatch, kind, n):
    # the covering scale and the partitions at all three default radii
    # read one sample-to-element distance matrix
    if kind == "sphere":
        domain = sample_sphere(n, 512, seed=0, scheme="quasi_uniform")
        cover = regular_triangulation_cover(domain)
    else:
        domain, cover = cube_boundary_cover(n, 512, seed=0)
    calls = []
    distances = CoverAssignment.distances
    monkeypatch.setattr(CoverAssignment, "distances",
                        lambda self, targets, points:
                        calls.append(len(points))
                        or distances(self, targets, points))
    cert = certify_cover(domain, cover)
    assert calls == [len(domain)]
    assert cert.verdict == "non_null_homotopic"
