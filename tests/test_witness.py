"""Witness-point search tests: exact cases with known witnesses, the
refinement property, and the cube face extraction."""

import itertools

import numpy as np
import pytest

from fneighbors.domains import (
    cube_boundary_cover,
    regular_triangulation_cover,
    sample_sphere,
)
from fneighbors.maps import MapSpec, evaluate, random_map
from fneighbors.neighbors import pair_is_neighbor_fast
from fneighbors.witness import (
    DisjointFacesResult,
    WitnessConfig,
    WitnessNotFoundError,
    disjoint_faces_check,
    witness_point,
    witness_slack,
)


def test_identity_sphere_witness_is_origin():
    domain = sample_sphere(2, 500, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    images = domain.samples.copy()
    report = witness_point(domain, cover, images)
    assert report.status == "ok"
    assert np.linalg.norm(report.point) <= 1e-6
    assert report.radius == pytest.approx(1.0, abs=1e-6)
    assert report.residual <= 1e-6
    assert len(report.chosen) == 4
    labels = [cover.membership[i, j] for j, i in enumerate(report.chosen)]
    assert all(labels)


def test_constant_map_coincidence_witness():
    domain = sample_sphere(1, 32, seed=1, scheme="uniform_random")
    cover = regular_triangulation_cover(domain)
    images = np.tile([2.5, -1.0], (len(domain), 1))
    report = witness_point(domain, cover, images)
    assert report.status == "ok"
    assert report.point == pytest.approx([2.5, -1.0])
    assert report.radius == 0.0
    assert report.residual == 0.0


def test_witness_slack_identity_circle():
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    images = domain.samples.copy()
    assert witness_slack(np.zeros(2), images, cover) == pytest.approx(0.0, abs=1e-12)
    assert witness_slack(np.array([0.5, 0.2]), images, cover) >= 0.0


def test_fourier_arc_cover_triple_is_pairwise_neighbors():
    domain = sample_sphere(1, 2048, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    spec = random_map("circle_fourier", m_out=2, seed=7)
    images = evaluate(spec, domain)
    report = witness_point(domain, cover, images)
    assert report.status == "ok"
    diam = float(np.linalg.norm(images.max(0) - images.min(0)))
    assert report.residual <= 1e-3 * diam
    for i, j in itertools.combinations(report.chosen, 2):
        verdict, _ = pair_is_neighbor_fast(i, j, images)
        assert verdict == "yes"


def test_sphere_harmonic_exact_witness_regression():
    # an exact witness exists here (a Delaunay cell whose vertices touch
    # all four elements), so the search must find it, not a near miss
    domain = sample_sphere(2, 2048, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    spec = random_map("sphere_harmonic", 3, seed=[7, 1], d_in=3)
    images = evaluate(spec, domain)
    report = witness_point(domain, cover, images)
    assert report.status == "ok"
    diam = float(np.linalg.norm(images.max(0) - images.min(0)))
    assert witness_slack(report.point, images, cover) <= 1e-12 * diam
    dists = np.linalg.norm(images[list(report.chosen)] - report.point, axis=1)
    assert dists == pytest.approx(report.radius, abs=1e-12 * diam)
    assert all(cover.membership[i, j] for j, i in enumerate(report.chosen))


def test_line_images_approximate_witness_passes_gate():
    # three arcs mapped into R^1: a sphere in R^1 is two points, and for
    # this map no sample shared by two arcs lies on one, so the best
    # midpoint is only an approximate witness
    domain = sample_sphere(1, 512, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    spec = random_map("circle_fourier", m_out=1, seed=[0, 11])
    images = evaluate(spec, domain)
    report = witness_point(domain, cover, images)
    diam = float(np.linalg.norm(images.max(0) - images.min(0)))
    assert report.status == "ok"
    assert 0.0 < report.residual <= 1e-3 * diam


def test_residual_weakly_improves_with_refinement():
    spec = random_map("circle_fourier", m_out=2, seed=12)
    residuals = []
    for n_samples in (256, 512):
        domain = sample_sphere(1, n_samples, seed=0, scheme="quasi_uniform")
        cover = regular_triangulation_cover(domain)
        images = evaluate(spec, domain)
        residuals.append(witness_point(domain, cover, images).residual)
    assert residuals[1] <= 2.0 * residuals[0] + 1e-9


def test_disjoint_faces_identity_square():
    domain, cover = cube_boundary_cover(2, 512, seed=4)
    images = domain.samples.copy()
    result = disjoint_faces_check(domain, cover, images)
    assert isinstance(result, DisjointFacesResult)
    # witness localizes in the square's hole
    assert result.report.point == pytest.approx([0.5, 0.5], abs=0.02)
    assert result.report.radius == pytest.approx(0.5, abs=0.02)
    axis = int(result.faces[0].split("-")[-1])
    assert result.faces == (f"min-face-{axis}", f"max-face-{axis}")
    a, b = result.pair
    assert domain.samples[a][axis] <= 1e-9
    assert domain.samples[b][axis] >= 1.0 - 1e-9
    verdict, _ = pair_is_neighbor_fast(a, b, images)
    assert verdict == "yes"


def test_disjoint_faces_projection_finds_equal_images():
    domain, cover = cube_boundary_cover(2, 512, seed=8)
    spec = MapSpec(family="affine", m_out=1, params=(1.0, 0.0, 0.0))
    images = evaluate(spec, domain)
    result = disjoint_faces_check(domain, cover, images)
    a, b = result.pair
    axis = int(result.faces[0].split("-")[-1])
    assert domain.samples[a][axis] <= 1e-9
    assert domain.samples[b][axis] >= 1.0 - 1e-9
    assert abs(images[a, 0] - images[b, 0]) <= 1e-9


def test_disjoint_faces_propagates_search_failure():
    # four cover elements and 2-D images: no Delaunay triangle of this map
    # is rainbow (residual 7.4e-4 x diam), so a strict gate must refuse
    domain, cover = cube_boundary_cover(3, 1024, seed=0)
    spec = random_map("poly_quadratic", m_out=2, seed=[2, 2000], d_in=3)
    images = evaluate(spec, domain)
    strict = WitnessConfig(eps_witness_rel=1e-6)
    with pytest.raises(WitnessNotFoundError) as info:
        disjoint_faces_check(domain, cover, images, strict)
    assert info.value.report.status == "no-witness-found"


def test_disjoint_faces_rejects_wrong_domain():
    domain = sample_sphere(1, 16, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    with pytest.raises(ValueError):
        disjoint_faces_check(domain, cover, domain.samples.copy())
