"""Witness-point search tests: exact cases with known witnesses, the
refinement property, the cube face extraction, the one-pass slack
against the all-element reference, exact witnesses read off the first
live rainbow simplex (and their picks under rescaling), and the scan
against the all-candidate oracle."""

import itertools

import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree

from fneighbors.domains import (
    CoverAssignment,
    SampledDomain,
    cube_boundary_cover,
    regular_triangulation_cover,
    sample_sphere,
)
from fneighbors.geometry import Sphere
from fneighbors.maps import MapSpec, evaluate, random_map
from fneighbors import neighbors, witness
from fneighbors.neighbors import pair_is_neighbor_fast
from fneighbors.witness import (
    DisjointFacesResult,
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


def _sphere_and_cover(n: int, samples: int):
    domain = sample_sphere(n, samples, seed=0)
    return domain, regular_triangulation_cover(domain)


@pytest.mark.parametrize("value", [(0.0, 0.0, 0.0), (3.5, -1.25, 1e6)])
def test_constant_maps_give_the_radius_0_witness_of_one_cluster(value):
    # all images coincide, so _clusters makes one cluster and its image is
    # the one candidate, at radius 0; each element's contact is its first
    # member, since every member is at distance 0
    cases = [(_sphere_and_cover(2, 256), [8, 0, 3, 2]),
             (_sphere_and_cover(1, 64), [0, 2, 1]),
             (cube_boundary_cover(2, 128, seed=0), [0, 0, 1])]
    for (domain, cover), chosen in cases:
        images = evaluate(MapSpec("constant", 3, value), domain)
        report = witness_point(domain, cover, images).to_json()
        assert report == {"status": "ok", "point": list(value), "radius": 0.0,
                          "residual": 0.0, "chosen": chosen,
                          "element_names": list(cover.names)}


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
    with pytest.raises(WitnessNotFoundError) as info:
        disjoint_faces_check(domain, cover, images, eps_witness_rel=1e-6)
    assert info.value.report.status == "no-witness-found"


def test_disjoint_faces_rejects_wrong_domain():
    domain = sample_sphere(1, 16, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    with pytest.raises(ValueError):
        disjoint_faces_check(domain, cover, domain.samples.copy())


# --- the one-pass slack against the all-element reference ---

def _all_element_slack(candidates, images, cover):
    """The reference: one KD-tree and one full query per cover element,
    and one more over all images."""
    worst = np.zeros(len(candidates))
    for j in range(cover.element_count):
        members = images[cover.membership[:, j]]
        worst = np.maximum(worst, cKDTree(members).query(candidates)[0])
    nearest = cKDTree(images).query(candidates)[0]
    return worst - nearest, nearest


def _assert_slack_equals_reference(images, cover):
    """_candidate_slack equals the reference bit for bit, slack and
    nearest distance, at every candidate of the all-candidate scan (a
    superset of witness_point's candidates)."""
    candidates = _reference_candidates(images, cover)
    got = witness._candidate_slack(candidates, images, cover)
    for column, ref in zip(got, _all_element_slack(candidates, images, cover)):
        assert np.array_equal(column, ref)


def test_slack_equals_reference_sphere_into_r3():
    # four elements and tetrahedra: rainbow simplices exist
    domain = sample_sphere(2, 2048, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    for k in range(6):
        images = evaluate(random_map("sphere_harmonic", 3, seed=[7, k], d_in=3),
                          domain)
        _assert_slack_equals_reference(images, cover)


def test_slack_equals_reference_sphere_into_r2():
    # four elements and triangles: no exact witness
    domain = sample_sphere(2, 1024, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    for k in range(5):
        images = evaluate(random_map("sphere_harmonic", 2, seed=[3, k], d_in=3),
                          domain)
        _assert_slack_equals_reference(images, cover)


def test_slack_equals_reference_cube_boundaries():
    # square boundary: corner samples carry two labels
    domain, cover = cube_boundary_cover(2, 2048, seed=1)
    for t in range(6):
        spec = random_map("poly_quadratic", 2, seed=[1, 2000 + t], d_in=2)
        _assert_slack_equals_reference(evaluate(spec, domain), cover)
    domain, cover = cube_boundary_cover(3, 1024, seed=0)
    spec = random_map("poly_quadratic", 2, seed=[2, 2000], d_in=3)
    _assert_slack_equals_reference(evaluate(spec, domain), cover)


def test_slack_equals_reference_with_fewer_images_than_the_query_asks():
    # 4 images in R^3, one or two per element
    domain = sample_sphere(1, 4, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    images = np.c_[domain.samples, [0.0, 0.3, 0.1, 0.7]]
    _assert_slack_equals_reference(images, cover)


def test_candidate_whose_bound_ties_the_least_exact_slack_is_refined():
    # the first candidate's 4 nearest images (the unit circle) are all in
    # elements a and b; element c's only image is 5 away, so its slack is
    # 4, and the second candidate, an image in all three elements, has
    # slack 0
    images = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                       [5.0, 0.0]])
    membership = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0],
                           [1, 1, 1]], dtype=bool)
    cover = CoverAssignment(membership=membership, names=("a", "b", "c"))
    candidates = np.array([[0.0, 0.0], [5.0, 0.0]])
    slack, nearest = witness._candidate_slack(candidates, images, cover)
    ref_slack, ref_nearest = _all_element_slack(candidates, images, cover)
    assert np.array_equal(slack, ref_slack) and slack.tolist() == [4.0, 0.0]
    assert np.array_equal(nearest, ref_nearest)


# --- exact witnesses by construction, and the scan ---

def _reference_prelude(images):
    """The prelude as computed before the shared one: one coincidence
    labeling (labels count up in the order of each cluster's lowest
    member), the lowest member per label as its representative, their
    affine reduction and the on-sphere tolerance: (label, reps, reduced,
    embed, tau_on)."""
    spread = float(np.linalg.norm(images.max(0) - images.min(0)))
    label = neighbors._coincidence_labels(
        images, neighbors.EPS_COINCIDE_REL * spread)
    reps = images[np.unique(label, return_index=True)[1]]
    reduced, embed, _ = neighbors._affine_reduce(reps)
    return label, reps, reduced, embed, max(neighbors.TAU_ON_REL * spread,
                                            1e-12)


def _reference_candidates(images, cover):
    """The all-candidate oracle of the scan: the center of every live
    circumball (neighbors._circumballs) of the representatives' Delaunay
    triangulation (or line midpoints), whatever the cover, followed by the
    representatives."""
    _, reps, reduced, embed, tau_on = _reference_prelude(images)
    if reduced.shape[1] == 1:
        return np.vstack([embed(neighbors._line_pairs(reduced[:, 0])[4]), reps])
    tri = Delaunay(reduced)
    centers = neighbors._circumballs(reduced, tri, tau_on)[1]
    return np.vstack([embed(centers), reps])


def _reference_first_rainbow(images, cover):
    """The first live circumball, in simplex order, whose simplex's
    vertices' clusters touch every element (checked vertex by vertex):
    (its center, the samples of those clusters), or None."""
    label, _, reduced, embed, tau_on = _reference_prelude(images)
    tri = Delaunay(reduced)
    live, centers = neighbors._circumballs(reduced, tri, tau_on)[:2]
    for s, center in zip(live, centers):
        on = np.isin(label, tri.simplices[s])
        if cover.membership[on].any(axis=0).all():
            return embed(center), on
    return None


def _assert_first_rainbow_pick(domain, cover, images):
    """The report is the reference's first live rainbow simplex: its
    circumcenter, and per element the lowest-index member among the
    samples of its vertices' clusters, which check_certificate accepts."""
    center, on = _reference_first_rainbow(images, cover)
    report = witness_point(domain, cover, images)
    assert report.status == "ok"
    assert np.allclose(report.point, center, rtol=0.0,
                       atol=1e-12 * neighbors.image_diameter(images))
    assert report.chosen == tuple(int(np.flatnonzero(on & member)[0])
                                  for member in cover.membership.T)
    assert _contacts_certified(domain, images, report)


def _contacts_certified(domain, images, report):
    """check_certificate on the report's contact tuple and ball."""
    idx = tuple(sorted(set(report.chosen)))
    rho = (domain.max_pairwise_rho(np.array(idx)) if len(idx) > 2
           else domain.rho(*idx))
    cert = neighbors.NeighborCertificate(
        idx, Sphere(center=report.point, radius=report.radius), 0.0, rho)
    return neighbors.check_certificate(cert, images, domain)


def _scan(images, cover):
    return _reference_candidates(images, cover), None


def _assert_full_scan_report(monkeypatch, domain, cover, images):
    """The report equals the argmin over the all-candidate oracle."""
    report = witness_point(domain, cover, images).to_json()
    monkeypatch.setattr(witness, "_exact_or_candidates", _scan)
    assert report == witness_point(domain, cover, images).to_json()
    monkeypatch.undo()


def _assert_scan_candidates(images, cover):
    candidates, on = witness._exact_or_candidates(images, cover)
    assert on is None
    assert np.array_equal(candidates, _reference_candidates(images, cover))


def test_generic_maps_pick_the_first_live_rainbow_simplex():
    # S^2 -> R^3 with four elements, S^1 -> R^2 and the square boundary
    # with three: tetrahedra and triangles can be rainbow, and each map has
    # a live rainbow ball
    sphere = sample_sphere(2, 1024, seed=0, scheme="quasi_uniform")
    cases = [(sphere, regular_triangulation_cover(sphere),
              random_map("sphere_harmonic", 3, seed=[7, k], d_in=3))
             for k in range(3)]
    circle = sample_sphere(1, 1024, seed=0, scheme="quasi_uniform")
    cases.append((circle, regular_triangulation_cover(circle),
                  random_map("circle_fourier", 2, seed=[9600, 0])))
    # the 3-cube into R^2 has four elements, but samples on an edge carry
    # two, so a triangle can still be rainbow
    for m in (2, 3):
        cube, cover = cube_boundary_cover(m, 1024, seed=1)
        cases.append((cube, cover, random_map("poly_quadratic", 2,
                                              seed=[1, 2000 + m], d_in=m)))
    for seed in (0, 1):
        cube, cover = cube_boundary_cover(2, 2048, seed=seed)
        cases += [(cube, cover, random_map("poly_quadratic", 2,
                                           seed=[seed, 2000 + t], d_in=2))
                  for t in range(3)]
    for domain, cover, spec in cases:
        _assert_first_rainbow_pick(domain, cover, evaluate(spec, domain))


def _sphere_panel():
    """S^2 maps [7, k] with the regular cover, as given and rounded to 1
    and 2 decimals, where Qhull's triangulation has cospherical cells."""
    domain = sample_sphere(2, 2048, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    generic, rounded = [], []
    for k in range(6):
        images = evaluate(random_map("sphere_harmonic", 3, seed=[7, k], d_in=3),
                          domain)
        generic.append(images)
        if k in (0, 4):
            rounded += [np.round(images, 1), np.round(images, 2)]
    return domain, cover, generic, rounded


def _triangulation(images):
    return neighbors._triangulation(
        neighbors._clusters(images))


def test_sphere_maps_pick_the_first_live_rainbow_simplex():
    # cells change nothing: a rainbow simplex of a cell is picked like any
    # other, and a cell that is not rainbow is left to the scan
    domain, cover, generic, rounded = _sphere_panel()
    for images in rounded:
        assert neighbors._cell_mask(_triangulation(images)).any()
    for images in generic + rounded:
        _assert_first_rainbow_pick(domain, cover, images)


def test_cube_reports_equal_the_all_candidate_scan(monkeypatch):
    # the 3-cube into R^2: four elements, no rainbow triangle, full scan
    domain, cover = cube_boundary_cover(3, 1024, seed=0)
    images = evaluate(random_map("poly_quadratic", 2, seed=[2, 2000], d_in=3),
                      domain)
    _assert_scan_candidates(images, cover)
    _assert_full_scan_report(monkeypatch, domain, cover, images)


def test_sphere_into_plane_runs_the_full_scan(monkeypatch):
    # four elements and triangles: no simplex can be rainbow
    domain = sample_sphere(2, 1024, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    for k in range(3):
        images = evaluate(random_map("sphere_harmonic", 2, seed=[3, k], d_in=3),
                          domain)
        _assert_scan_candidates(images, cover)
        _assert_full_scan_report(monkeypatch, domain, cover, images)


def test_sliver_only_rainbow_simplex_falls_back_to_the_full_scan(monkeypatch):
    # the hull triangle 0-1-2 is nearly flat (a sliver with no
    # circumcenter) and the only one with a vertex in each element; the
    # two triangles through 3 miss element c or a
    images = np.array([[0.0, 0.0], [1.0, 1e-14], [2.0, 0.0], [1.0, 1.0]])
    membership = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0]],
                          dtype=bool)
    cover = CoverAssignment(membership=membership, names=("a", "b", "c"))
    domain = SampledDomain(kind="cube_boundary", dim=2, samples=images)
    tri = Delaunay(images)
    assert len(tri.simplices) == 3
    assert len(neighbors._circumballs(images, tri, 1e-6 * np.sqrt(5))[0]) == 2
    _assert_scan_candidates(images, cover)
    assert len(witness._exact_or_candidates(images, cover)[0]) == 2 + 4
    _assert_full_scan_report(monkeypatch, domain, cover, images)


def test_coincident_cluster_touching_every_element_stays_a_candidate(
        monkeypatch):
    # images on a line, where the scan runs (in the plane, a live triangle
    # on a cluster that touches every element would itself be rainbow):
    # the coincident pair at (3, 0), one image in a and one in b and c, is
    # a radius-0 witness among the cluster images the scan keeps
    images = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [3.0, 0.0],
                       [-1.0, 0.0]])
    membership = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 1],
                           [1, 0, 0]], dtype=bool)
    cover = CoverAssignment(membership=membership, names=("a", "b", "c"))
    domain = SampledDomain(kind="cube_boundary", dim=2, samples=images)
    _assert_scan_candidates(images, cover)
    candidates = witness._exact_or_candidates(images, cover)[0]
    slack, nearest = witness._candidate_slack(candidates, images, cover)
    at_pair = (candidates == [3.0, 0.0]).all(axis=1)
    assert at_pair.sum() == 1
    assert slack[at_pair] == 0.0 and nearest[at_pair] == 0.0
    _assert_full_scan_report(monkeypatch, domain, cover, images)


@pytest.mark.parametrize("m_out, base, maps, every_ball", [(3, 7, 4, False),
                                                           (2, 3, 3, True)])
def test_rainbow_balls_are_computed_before_every_ball(
        monkeypatch, m_out, base, maps, every_ball):
    # S^2 -> R^3 maps [7, 0..3] have a live rainbow simplex, so only the
    # balls of the rainbow simplices are computed, a handful of the ~13k;
    # S^2 -> R^2 maps [3, 0..2] have none, and every simplex's balls
    # follow, equal to the all-simplex reference bit for bit
    sphere = sample_sphere(2, 2048, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(sphere)
    real, rows_seen = witness._circumballs, []

    def spy(pts, tri, tau_on, rows=slice(None)):
        rows_seen.append(len(tri.simplices[rows]))
        return real(pts, tri, tau_on, rows)

    for k in range(maps):
        images = evaluate(random_map("sphere_harmonic", m_out,
                                     seed=[base, k], d_in=3), sphere)
        rows_seen.clear()
        monkeypatch.setattr(witness, "_circumballs", spy)
        got, on = witness._exact_or_candidates(images, cover)
        monkeypatch.undo()
        simplices = len(_triangulation(images).simplices)
        if every_ball:
            assert rows_seen == [0, simplices] and on is None
            want = _reference_candidates(images, cover)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        else:
            assert len(rows_seen) == 1 and on is not None
            assert 0 < rows_seen[0] <= simplices // 100


SCALES = (1.0 + 2.0**-50, 1.0 - 2.0**-51, 1e100)


def _scale_panel(group):
    """(domain, cover, images) of one group of exact-witness inputs."""
    if group == "sphere":
        domain = sample_sphere(2, 2048, seed=0, scheme="quasi_uniform")
        cover = regular_triangulation_cover(domain)
        return [(domain, cover, evaluate(random_map(
            "sphere_harmonic", 3, seed=[7, k], d_in=3), domain))
            for k in range(8)]
    if group == "square":
        cases = []
        for seed in range(3):
            domain, cover = cube_boundary_cover(2, 2048, seed=seed)
            cases += [(domain, cover, evaluate(random_map(
                "poly_quadratic", 2, seed=[seed, 2000 + t], d_in=2), domain))
                for t in range(3)]
        return cases
    if group == "identity":
        spheres = [sample_sphere(n, count, seed=0, scheme="quasi_uniform")
                   for n, count in ((1, 512), (2, 2048))]
        return [(d, regular_triangulation_cover(d), d.samples.copy())
                for d in spheres]
    domain = sample_sphere(2, 1024, seed=1, scheme="quasi_uniform")
    return [(domain, regular_triangulation_cover(domain), evaluate(
        random_map("sphere_harmonic", 3, seed=[1, 1000], d_in=3), domain))]


@pytest.mark.parametrize("group", ["sphere", "square", "identity", "found"])
def test_exact_witness_picks_do_not_move_with_the_scale(group):
    # the pick is read off the triangulation and the cover, so a scale that
    # rounds every image moves no contact; the argmin over the candidates'
    # slacks moved it on most of these inputs
    for domain, cover, images in _scale_panel(group):
        report = witness_point(domain, cover, images)
        assert report.status == "ok"
        assert _contacts_certified(domain, images, report)
        for scale in SCALES:
            scaled = witness_point(domain, cover, images * scale)
            assert scaled.chosen == report.chosen
            assert _contacts_certified(domain, images * scale, scaled)


def _no_delaunay(*args):
    raise AssertionError("the witness search triangulated")


@pytest.mark.parametrize("n", [1, 2])
def test_identity_sphere_witness_makes_no_delaunay_call(monkeypatch, n):
    domain = sample_sphere(n, 2048, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    monkeypatch.setattr(neighbors, "Delaunay", _no_delaunay)
    report = witness_point(domain, cover, domain.samples.copy())
    assert report.status == "ok"
    assert np.linalg.norm(report.point) <= 1e-12
    assert report.radius == pytest.approx(1.0, abs=1e-12)
    assert report.residual <= 1e-12
    labels = [cover.membership[i, j] for j, i in enumerate(report.chosen)]
    assert len(labels) == n + 2 and all(labels)


@pytest.mark.parametrize("n", [1, 2])
def test_nearly_cospherical_witness_takes_the_fitted_center(monkeypatch, n):
    # images within tau_on of a sphere, but not on it: the fitted center
    # stands in for the Delaunay circumcenters, whose residual is rounding,
    # and every sample is on its sphere, so each element's contact is its
    # lowest-index member
    domain = sample_sphere(n, 2048, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    wobble = np.random.default_rng(0).standard_normal(len(domain))
    images = domain.samples * (1.0 + 1e-8 * wobble)[:, None]
    cl = neighbors._clusters(images)
    assert cl.sphere is not None
    assert 1e-9 < cl.resid <= neighbors.TAU_ON_REL * cl.diam
    monkeypatch.setattr(witness, "_exact_or_candidates", _scan)
    assert witness_point(domain, cover, images).residual <= 1e-15
    monkeypatch.undo()
    monkeypatch.setattr(neighbors, "Delaunay", _no_delaunay)
    report = witness_point(domain, cover, images)
    # the residual rises from rounding to a fraction of the fit residual,
    # far inside the acceptance gate
    assert report.status == "ok"
    assert 1e-9 < report.residual <= cl.resid
    assert report.chosen == tuple(int(np.flatnonzero(member)[0])
                                  for member in cover.membership.T)
