"""Witness-point search tests: exact cases with known witnesses, the
refinement property, the cube face extraction, the one-pass slack
against the all-element reference, and the rainbow-simplex candidates
against the all-candidate scan."""

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


# --- candidate centers from the shared neighbor prelude ---

def _reference_candidates(images, cover, rainbow_only=False):
    """The candidate centers as computed before the shared prelude: one
    coincidence labeling, the lowest member per label, and the Delaunay
    circumcenters (or line midpoints) of those representatives, followed
    by the representatives.  By default this is the all-candidate oracle,
    the center of every live circumball (neighbors._circumballs) whatever
    the cover; rainbow_only keeps the simplices whose clusters touch every
    element (checked vertex by vertex) and those of cospherical cells, and
    the representatives of the clusters that touch every element, as long
    as one rainbow simplex is live."""
    spread = float(np.linalg.norm(images.max(0) - images.min(0)))
    label = neighbors._coincidence_labels(
        images, neighbors.EPS_COINCIDE_REL * spread)
    reps = images[np.unique(label, return_index=True)[1]]
    reduced, embed, _ = neighbors._affine_reduce(reps)
    if reduced.shape[1] == 1:
        return np.vstack([embed(neighbors._line_pairs(reduced[:, 0])[4]), reps])
    tri = Delaunay(reduced)
    tau_on = max(neighbors.TAU_ON_REL * spread, 1e-12)
    live, centers = neighbors._circumballs(reduced, tri, tau_on)[:2]
    if rainbow_only:
        touch = [cover.membership[label == c].any(axis=0)
                 for c in range(len(reps))]
        rainbow = np.array([np.any([touch[v] for v in tri.simplices[s]],
                                   axis=0).all() for s in live], dtype=bool)
        if rainbow.any():
            centers = centers[rainbow | neighbors._cell_mask(tri)[live]]
            reps = reps[np.all(touch, axis=1)]
    return np.vstack([embed(centers), reps])


def test_candidates_and_reports_unchanged_on_generic_maps(monkeypatch):
    # the candidates are the reference's rainbow and cell simplices (all of
    # them where no simplex is rainbow), and the reports are the full
    # scan's
    sphere = sample_sphere(2, 1024, seed=0, scheme="quasi_uniform")
    cases = [(sphere, regular_triangulation_cover(sphere),
              random_map("sphere_harmonic", 3, seed=[7, k], d_in=3))
             for k in range(3)]
    circle = sample_sphere(1, 1024, seed=0, scheme="quasi_uniform")
    cases.append((circle, regular_triangulation_cover(circle),
                  random_map("circle_fourier", 2, seed=[9600, 0])))
    for m in (2, 3):
        cube, cover = cube_boundary_cover(m, 1024, seed=1)
        cases.append((cube, cover, random_map("poly_quadratic", 2,
                                              seed=[1, 2000 + m], d_in=m)))
    for domain, cover, spec in cases:
        images = evaluate(spec, domain)
        want = _reference_candidates(images, cover, rainbow_only=True)
        assert np.array_equal(witness._candidate_centers(images, cover), want)
        report = witness_point(domain, cover, images).to_json()
        monkeypatch.setattr(witness, "_candidate_centers",
                            _reference_candidates)
        assert report == witness_point(domain, cover, images).to_json()
        monkeypatch.undo()


def _sphere_panel():
    """S^2 maps [7, k] with the regular cover, as given and rounded to 1
    and 2 decimals, where Qhull's triangulation has cospherical cells.  On
    [7, 4] rounded to 1 decimal the first pick is the circumcenter of a
    cell's simplex that is not rainbow."""
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


def _assert_full_scan_report(monkeypatch, domain, cover, images):
    report = witness_point(domain, cover, images).to_json()
    monkeypatch.setattr(witness, "_candidate_centers", _reference_candidates)
    assert report == witness_point(domain, cover, images).to_json()
    monkeypatch.undo()


def _triangulation(images):
    return neighbors._triangulation(
        neighbors._clusters(images))


def test_sphere_reports_equal_the_all_candidate_scan(monkeypatch):
    domain, cover, generic, rounded = _sphere_panel()
    for images in generic:
        _assert_full_scan_report(monkeypatch, domain, cover, images)
        # a handful of rainbow circumcenters out of about 13k simplices
        simplices = len(_triangulation(images).simplices)
        candidates = witness._candidate_centers(images, cover)
        is_image = [(images == c).all(axis=1).any() for c in candidates]
        circumcenters = len(candidates) - sum(is_image)
        assert 0 < circumcenters <= simplices // 100
    for images in rounded:
        assert neighbors._cell_mask(_triangulation(images)).any()
        _assert_full_scan_report(monkeypatch, domain, cover, images)


def test_cube_reports_equal_the_all_candidate_scan(monkeypatch):
    # square boundaries: three elements, so triangles can be rainbow
    for seed in (0, 1):
        domain, cover = cube_boundary_cover(2, 2048, seed=seed)
        for t in range(3):
            spec = random_map("poly_quadratic", 2, seed=[seed, 2000 + t], d_in=2)
            _assert_full_scan_report(monkeypatch, domain, cover,
                                     evaluate(spec, domain))
    # the 3-cube into R^2: four elements, no rainbow triangle, full scan
    domain, cover = cube_boundary_cover(3, 1024, seed=0)
    images = evaluate(random_map("poly_quadratic", 2, seed=[2, 2000], d_in=3),
                      domain)
    assert np.array_equal(witness._candidate_centers(images, cover),
                          _reference_candidates(images, cover))
    _assert_full_scan_report(monkeypatch, domain, cover, images)


def test_sphere_into_plane_runs_the_full_scan(monkeypatch):
    # four elements and triangles: no simplex can be rainbow
    domain = sample_sphere(2, 1024, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    for k in range(2):
        images = evaluate(random_map("sphere_harmonic", 2, seed=[3, k], d_in=3),
                          domain)
        assert np.array_equal(witness._candidate_centers(images, cover),
                              _reference_candidates(images, cover))
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
    candidates = witness._candidate_centers(images, cover)
    assert len(candidates) == 2 + 4
    assert np.array_equal(candidates, _reference_candidates(images, cover))
    _assert_full_scan_report(monkeypatch, domain, cover, images)


def test_coincident_cluster_touching_every_element_stays_a_candidate(
        monkeypatch):
    # the triangle 0-1-2 is rainbow and live, so images are kept only for
    # clusters that touch every element: the coincident pair at (3, 3),
    # one image in a and one in b and c, is a radius-0 witness and stays;
    # the lone image at (-1, 2), in a only, goes
    images = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0],
                       [3.0, 3.0], [-1.0, 2.0]])
    membership = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0],
                           [0, 1, 1], [1, 0, 0]], dtype=bool)
    cover = CoverAssignment(membership=membership, names=("a", "b", "c"))
    domain = SampledDomain(kind="cube_boundary", dim=2, samples=images)
    candidates = witness._candidate_centers(images, cover)
    is_image = np.array([(images == c).all(axis=1).any() for c in candidates])
    assert candidates[is_image].tolist() == [[3.0, 3.0]]
    assert np.array_equal(candidates, _reference_candidates(
        images, cover, rainbow_only=True))
    slack, nearest = witness._candidate_slack(candidates, images, cover)
    assert slack[-1] == 0.0 and nearest[-1] == 0.0
    _assert_full_scan_report(monkeypatch, domain, cover, images)


@pytest.mark.parametrize("m_out, base, maps, every_ball", [(3, 7, 4, False),
                                                           (2, 3, 3, True)])
def test_rainbow_and_cell_balls_are_computed_before_every_ball(
        monkeypatch, m_out, base, maps, every_ball):
    # S^2 -> R^3 maps [7, 0..3] have a live rainbow simplex, so only the
    # balls of the rainbow and cell simplices are computed; S^2 -> R^2 maps
    # [3, 0..2] have none, and every simplex's balls follow.  The
    # candidates equal the all-simplex reference bit for bit either way
    sphere = sample_sphere(2, 2048, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(sphere)
    real, passes = witness._circumballs, []

    def spy(pts, tri, tau_on, rows=slice(None)):
        passes.append("all" if isinstance(rows, slice) else "rows")
        return real(pts, tri, tau_on, rows)

    for k in range(maps):
        images = evaluate(random_map("sphere_harmonic", m_out,
                                     seed=[base, k], d_in=3), sphere)
        want = _reference_candidates(images, cover, rainbow_only=True)
        passes.clear()
        monkeypatch.setattr(witness, "_circumballs", spy)
        got = witness._candidate_centers(images, cover)
        monkeypatch.undo()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert passes == (["rows", "all"] if every_ball else ["rows"])


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
    # stands in for the Delaunay circumcenters, whose residual is rounding
    domain = sample_sphere(n, 2048, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    wobble = np.random.default_rng(0).standard_normal(len(domain))
    images = domain.samples * (1.0 + 1e-8 * wobble)[:, None]
    cl = neighbors._clusters(images)
    assert cl.sphere is not None
    assert 1e-9 < cl.resid <= neighbors.TAU_ON_REL * cl.diam
    monkeypatch.setattr(witness, "_candidate_centers", _reference_candidates)
    assert witness_point(domain, cover, images).residual <= 1e-15
    monkeypatch.undo()
    monkeypatch.setattr(neighbors, "Delaunay", _no_delaunay)
    report = witness_point(domain, cover, images)
    # the residual rises from rounding to a fraction of the fit residual,
    # far inside the acceptance gate
    assert report.status == "ok"
    assert 1e-9 < report.residual <= cl.resid
