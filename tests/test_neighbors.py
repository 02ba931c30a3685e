"""Neighbor predicate and graph tests.

The enumeration oracle is the reference implementation; the LP fast path
and the Delaunay graph are cross-validated against it (and against each
other) on seeded random instances, alongside hand-checked fixed cases.
"""

import ast
import dataclasses
import importlib.util
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree

from fneighbors import check, neighbors
from fneighbors.domains import (
    SampledDomain,
    cube_boundary_cover,
    regular_triangulation_cover,
    sample_sphere,
)
from fneighbors.geometry import Sphere, fit_sphere
from fneighbors.maps import MapSpec, evaluate, random_map
from fneighbors.neighbors import (
    EPS_INSIDE_REL,
    NeighborGraph,
    check_certificate,
    check_graph,
    compute_df,
    extremal_pair,
    image_diameter,
    neighbor_graph,
    neighbor_span,
    pair_is_neighbor_fast,
    pair_is_neighbor_oracle,
)
from fneighbors.witness import disjoint_faces_check, witness_point


# --- oracle on hand-checked configurations ---

def test_oracle_clear_pair_with_far_third_point():
    images = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 10.0]])
    verdict, witness = pair_is_neighbor_oracle(0, 1, images)
    assert verdict is True
    assert isinstance(witness, Sphere)
    assert witness.center == pytest.approx([0.5, 0.0], abs=1e-9)
    assert witness.radius == pytest.approx(0.5, abs=1e-9)


def test_oracle_blocked_by_point_between():
    images = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    verdict, witness = pair_is_neighbor_oracle(0, 1, images)
    assert verdict is False
    assert witness is None


def test_oracle_near_blocker_needs_large_circle():
    # the blocker sits 0.1 above the segment midpoint; the circle through
    # all three has center (0.5, -1.2) and radius 1.3, and is empty
    images = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1]])
    verdict, witness = pair_is_neighbor_oracle(0, 1, images)
    assert verdict is True
    assert isinstance(witness, Sphere)
    assert witness.center == pytest.approx([0.5, -1.2], abs=1e-9)
    assert witness.radius == pytest.approx(1.3, abs=1e-9)


def test_oracle_blocked_from_both_sides():
    # symmetric blockers above and below: every circle through the pair
    # contains one of them strictly inside
    images = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.3], [0.5, -0.3]])
    verdict, _ = pair_is_neighbor_oracle(0, 1, images)
    assert verdict is False


def test_oracle_cocircular_blockers_on_sphere():
    # blockers land exactly on the circle through the pair: allowed
    images = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.5, -0.5]])
    verdict, witness = pair_is_neighbor_oracle(0, 1, images)
    assert verdict is True
    assert isinstance(witness, Sphere)
    assert witness.radius == pytest.approx(0.5, abs=1e-9)


def test_oracle_coincidence_branch():
    images = np.array([[0.2, 0.7], [0.2, 0.7], [1.0, 1.0]])
    verdict, witness = pair_is_neighbor_oracle(0, 1, images)
    assert verdict is True
    assert witness == "coincidence"


def test_oracle_one_dimensional_images():
    images = np.array([[0.0], [1.0], [3.0]])
    assert pair_is_neighbor_oracle(0, 1, images)[0] is True
    assert pair_is_neighbor_oracle(0, 2, images)[0] is False
    assert pair_is_neighbor_oracle(1, 2, images)[0] is True


def test_oracle_collinear_images_in_plane():
    # affine-rank reduction must kick in: same as the 1-d case embedded
    d = np.array([2.0, 1.0]) / np.sqrt(5.0)
    images = np.outer([0.0, 1.0, 3.0], d)
    assert pair_is_neighbor_oracle(0, 1, images)[0] is True
    assert pair_is_neighbor_oracle(0, 2, images)[0] is False


def test_oracle_scale_guard():
    images = np.zeros((15, 2))
    with pytest.raises(ValueError):
        pair_is_neighbor_oracle(0, 1, images)


# --- fast path against the oracle ---

def _oracle_cases():
    """Up to 300 seeded small instances in dimension 1 to 3, every other
    one rounded to force degeneracies, as (i, j, images) cases; rounded
    instances whose pair coincides are skipped."""
    cases = []
    for trial in range(300):
        rng = np.random.default_rng([81, trial])
        npts = int(rng.integers(3, 11))
        m = int(rng.integers(1, 4))
        images = rng.uniform(-1.0, 1.0, size=(npts, m))
        if trial % 2 == 0:
            images = np.round(images, 1)
        perm = rng.permutation(npts)
        i, j = int(perm[0]), int(perm[1])
        if np.linalg.norm(images[i] - images[j]) == 0.0 and trial % 2 == 0:
            continue
        cases.append((i, j, images))
    return cases


def test_fast_matches_oracle_on_random_instances():
    trues = falses = 0
    for i, j, images in _oracle_cases():
        expected, _ = pair_is_neighbor_oracle(i, j, images)
        verdict, cert = pair_is_neighbor_fast(i, j, images)
        assert verdict in ("yes", "no")
        assert (verdict == "yes") == expected, (images, i, j)
        if expected:
            trues += 1
        else:
            falses += 1
    assert trues >= 20 and falses >= 20


def test_fast_yes_certificates_verify():
    domain = sample_sphere(1, 6, seed=5, scheme="uniform_random")
    rng = np.random.default_rng(11)
    images = rng.normal(size=(len(domain), 2))
    for i, j in itertools.combinations(range(len(domain)), 2):
        verdict, cert = pair_is_neighbor_fast(i, j, images, domain=domain)
        if verdict == "yes":
            assert cert is not None
            assert check_certificate(cert, images, domain)
            assert cert.pair_distance == pytest.approx(domain.rho(i, j))


def test_fast_identity_circle_pair_is_cocircular_yes():
    domain = sample_sphere(1, 16, seed=0, scheme="quasi_uniform")
    images = domain.samples.copy()
    verdict, cert = pair_is_neighbor_fast(3, 11, images, domain=domain)
    assert verdict == "yes"
    assert isinstance(cert.witness, Sphere)
    # witness stays close to the unit circle itself
    assert np.linalg.norm(cert.witness.center) < 1e-6
    assert cert.witness.radius == pytest.approx(1.0, abs=1e-6)


def test_gabriel_yes_measures_its_ball_once(monkeypatch):
    # the Gabriel pre-check and its certificate share one _clearance call;
    # a pair that reaches the LP pays one more for the LP's center
    images = np.random.default_rng(0).normal(size=(40, 3))
    calls = _counting_clearance(monkeypatch)
    gabriel = 0
    for j in range(1, len(images)):
        calls.clear()
        verdict, cert = pair_is_neighbor_fast(0, j, images)
        mid = 0.5 * (images[0] + images[j])
        if verdict == "yes" and np.array_equal(cert.witness.center, mid):
            gabriel += 1
            assert calls == [1]
        else:
            assert calls == ([1, 1] if verdict == "yes" else [1])
    assert gabriel == 5


def _criterion5_cases(count):
    """The first count of criterion 5's instances (rounded, with
    duplicated images) as (i, j, images) cases."""
    cases = []
    for trial in range(count):
        rng = np.random.default_rng([9500, trial])
        npts = int(rng.integers(4, 13))
        m = int(rng.integers(2, 4))
        images = rng.uniform(-1.0, 1.0, size=(npts, m)) * rng.uniform(0.5, 2.0)
        if trial % 2 == 0:
            images = np.round(images, 1)
        if trial % 11 == 3:
            images[int(rng.integers(npts))] = images[int(rng.integers(npts))]
        perm = rng.permutation(npts)
        cases.append((int(perm[0]), int(perm[1]), images))
    return cases


def _cube_cases(trials):
    """verify-cube's witness pair of each trial, n = 2 at 2048 samples and
    n = 3 at 1024, plus 5 random pairs across each trial's images, many
    of which the midpoint ball fails and only the LP settles."""
    cases = []
    for n, samples in ((2, 2048), (3, 1024)):
        domain, cover = cube_boundary_cover(n, samples, seed=0)
        for t in range(trials):
            images = evaluate(random_map("poly_quadratic", n,
                                         seed=[0, 2000 + t], d_in=n), domain)
            rng = np.random.default_rng(t)
            cases += [(*disjoint_faces_check(domain, cover, images).pair,
                       images)] + [
                (int(i), int(j), images)
                for i, j in rng.choice(len(images), size=(5, 2),
                                       replace=False)]
    return cases


def _loop_lp_pair(a, b, others, box):
    """The LP with its rows and start basis built one image and one
    coordinate at a time, as before they were vectorized."""
    m = len(a)
    nb = np.linalg.norm(b - a)
    e = (b - a) / nb
    c0 = (b @ b - a @ a) / (2.0 * nb) * e
    q = np.linalg.qr(e[:, None], mode="complete")[0][:, 1:]
    rows, rhs = [], []
    for y in others:
        u = y - a
        nu = np.linalg.norm(u)
        if nu < 1e-14:
            continue
        rows.append(np.concatenate([u / nu @ q, [-1.0]]))
        rhs.append((y @ y - a @ a) / (2.0 * nu) - u / nu @ c0)
    if not rows:
        return "failed", float("inf"), None
    k = len(rows)
    for sign in (1.0, -1.0):
        for i in range(m):
            rows.append(np.concatenate([sign * q[i], [0.0]]))
            rhs.append(box - sign * c0[i])
    drop = int(np.argmax(np.abs(e)))
    free = [i for i in range(m) if i != drop]
    z = np.linalg.solve(q[free].T, -rows[0][:-1])
    start = [0] + [k + i + (m if zi < 0 else 0) for i, zi in zip(free, z)]
    x = neighbors.linprog(np.array(rows), np.array(rhs), start)
    if x is None:
        return "failed", float("inf"), None
    return "ok", float(x[-1]), c0 + q @ x[:-1]


def _highs_lp_pair(a, b, others, box):
    """The same LP in its first form, c unreduced with the bisector as an
    equality row, solved by HiGHS."""
    from scipy.optimize import linprog

    m = len(a)
    u = others - a
    nu = np.linalg.norm(u, axis=1)
    keep = nu >= 1e-14
    u, nu, y = u[keep], nu[keep], others[keep]
    if not len(y):
        return "failed", float("inf"), None
    ub = b - a
    nb = np.linalg.norm(ub)
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    res = linprog(cost,
                  A_ub=np.column_stack([u / nu[:, None], -np.ones(len(y))]),
                  b_ub=(np.vecdot(y, y) - a @ a) / (2.0 * nu),
                  A_eq=np.append(ub / nb, 0.0)[None, :],
                  b_eq=[(b @ b - a @ a) / (2.0 * nb)],
                  bounds=[(-box, box)] * m + [(None, None)], method="highs")
    if not res.success:
        return "failed", float("inf"), None
    return "ok", float(res.fun), res.x[:m]


def _verdicts(monkeypatch, cases, lp):
    """pair_is_neighbor_fast on every (i, j, images) case with the given
    LP, as (verdict, certificate JSON) rows, and the LP's results."""
    results = []
    monkeypatch.setattr(neighbors, "_lp_pair",
                        lambda *args: results.append(lp(*args))
                        or results[-1])
    rows = [(verdict, cert and cert.to_json()) for verdict, cert in
            (pair_is_neighbor_fast(i, j, images) for i, j, images in cases)]
    monkeypatch.undo()
    return rows, results


def _cert_numbers(cert):
    """A certificate JSON's numbers: slack, pair distance, then the
    witness center and radius when the witness is a sphere."""
    w = cert["witness"]
    return [cert["slack"], cert["pair_distance"],
            *([] if isinstance(w, str) else [*w["center"], w["radius"]])]


def test_vectorized_lp_rows_match_the_loop(monkeypatch):
    # criterion 5's first 200 instances and the cube trials' pairs.  The
    # loop's row products are vector-matrix where the vectorized ones are
    # one matrix product, which may round differently in the last bit, so
    # the optima and certificates agree to rounding amplified by the
    # basis' condition, not bit for bit
    cases = _criterion5_cases(200) + _cube_cases(1)
    got, ours = _verdicts(monkeypatch, cases, neighbors._lp_pair)
    want, loop = _verdicts(monkeypatch, cases, _loop_lp_pair)
    assert [(v, c and c["indices"]) for v, c in got] == [
        (v, c and c["indices"]) for v, c in want]
    for (_, c1), (_, c2) in zip(got, want):
        if c1 is not None:
            np.testing.assert_allclose(_cert_numbers(c1), _cert_numbers(c2),
                                       rtol=1e-9, atol=1e-12)
    assert [s for s, _, _ in ours] == [s for s, _, _ in loop]
    np.testing.assert_allclose([x[1] for x in ours], [x[1] for x in loop],
                               rtol=1e-9, atol=1e-12)
    assert len(ours) >= 50
    assert {verdict for verdict, _ in got} == {"yes", "no"}


def test_lp_matches_highs(monkeypatch):
    # HiGHS as the oracle: the same verdicts and optima within its 1e-7
    # feasibility tolerance, on criterion 5's instances, the oracle cases
    # and the cube trials' pairs
    cases = _criterion5_cases(500) + _oracle_cases() + _cube_cases(3)
    got, ours = _verdicts(monkeypatch, cases, neighbors._lp_pair)
    want, highs = _verdicts(monkeypatch, cases, _highs_lp_pair)
    assert [v for v, _ in got] == [v for v, _ in want]
    assert len(ours) == len(highs) >= 400
    assert all(s == "ok" for s, _, _ in ours + highs)
    assert max(abs(x[1] - y[1]) for x, y in zip(ours, highs)) <= 1e-7


def test_linprog_ends_optimal_on_degenerate_images(monkeypatch):
    # over every pair of images with duplicates, of the cocircular 16-gon
    # and of the nearly flat images, each LP ends at a vertex that holds
    # every row, within the pivot cap
    t = np.arange(16) * (2.0 * np.pi / 16)
    flat = np.random.default_rng(0).normal(size=(40, 3))
    flat[:, 2] *= 1e-9
    solves = []
    linprog = neighbors.linprog

    def solve(g, h, basis):
        x = linprog(g, h, basis)
        solves.append(x is not None and bool(np.all(g @ x <= h + 1e-6)))
        return x

    monkeypatch.setattr(neighbors, "linprog", solve)
    for images in (_lattice(0), _lattice(1),
                   np.column_stack([np.cos(t), np.sin(t)]), flat):
        for i, j in itertools.combinations(range(len(images)), 2):
            assert pair_is_neighbor_fast(i, j, images)[0] != "uncertain"
    assert len(solves) >= 500 and all(solves)
    # no row but duplicates of a: the LP is unbounded below and fails
    a, b = np.zeros(2), np.ones(2)
    assert neighbors._lp_pair(a, b, np.zeros((2, 2)), neighbors.LP_BOX) == (
        "failed", float("inf"), None)


def test_linprog_refuses_a_vertex_with_a_negative_multiplier():
    # min s over 0 <= s <= 5: from the row s <= 5, whose multiplier is -1,
    # no row is violated at s = 5, yet that vertex is no optimum
    g, h = np.array([[-1.0], [1.0]]), np.array([0.0, 5.0])
    assert np.array_equal(neighbors.linprog(g, h, [0]), [0.0])
    assert neighbors.linprog(g, h, [1]) is None


# --- graph ---

def _check_rows_and_extremal(graph, domain):
    """Rows iterate in sorted indices order with the tuples interleaved,
    len() counts them, and extremal_pair agrees with a scan of the rows
    that keeps the last pair at maximal domain.rho."""
    rows = list(graph)
    assert len(graph) == len(rows)
    keys = [c.indices for c in rows]
    assert keys == sorted(keys)
    assert sorted(keys) == sorted([tuple(p) for p in graph.pairs.tolist()]
                                  + [c.indices for c in _tuple_certs(graph)])
    best, best_pair, best_cert = 0.0, None, None
    for cert in rows:
        for i, j in itertools.combinations(cert.indices, 2):
            d = domain.rho(i, j)
            if d >= best:
                best, best_pair, best_cert = d, (i, j), cert
    pair, df, cert = extremal_pair(graph, domain)
    assert (pair, df) == (best_pair, best)
    assert cert.to_json() == best_cert.to_json()
    assert cert.pair_distance == df


def test_graph_matches_oracle_on_small_instance():
    domain = sample_sphere(1, 6, seed=3, scheme="uniform_random")
    rng = np.random.default_rng(23)
    images = rng.uniform(-1.0, 1.0, size=(len(domain), 2))
    certs = neighbor_graph(images, domain)
    got = {c.indices for c in certs}
    expected = set()
    for i, j in itertools.combinations(range(len(domain)), 2):
        if pair_is_neighbor_oracle(i, j, images)[0]:
            expected.add((i, j))
    assert got == expected
    assert check_graph(certs, images, domain).all()


def _pairwise_lp_set(images):
    """The pairs pair_is_neighbor_fast says "yes" to, over all pairs."""
    return {(i, j) for i, j in itertools.combinations(range(len(images)), 2)
            if pair_is_neighbor_fast(i, j, images)[0] == "yes"}


def _tuple_certs(graph):
    """The graph's tuple certificates, in indices order."""
    return [graph.row(k) for k in range(len(graph.pairs), len(graph))]


def _covered_pairs(graph):
    """The pair rows plus every member pair of every tuple."""
    pairs = {tuple(p) for p in graph.pairs.tolist()}
    for cert in _tuple_certs(graph):
        pairs.update(itertools.combinations(cert.indices, 2))
    return pairs


def _grid(*shape):
    """The integer grid with the given number of points per axis."""
    return np.array(list(itertools.product(*map(range, shape))), dtype=float)


def _identity_domain(points):
    """A domain whose samples are the points themselves, so rho is the
    image distance."""
    return SampledDomain(kind="cube_boundary", dim=points.shape[1],
                         samples=points.copy())


def _lattice(seed):
    """A dozen-odd points of a small integer lattice in R^2 or R^3, some
    repeated."""
    rng = np.random.default_rng([31, seed])
    return rng.integers(0, 4, size=(int(rng.integers(6, 20)),
                                    2 + seed % 2)).astype(float)


@pytest.mark.parametrize("case", ["3x3", "5x5", "3^3", "square-far",
                                  "lattice-0", "lattice-1", "lattice-2",
                                  "lattice-3"])
def test_cospherical_cells_give_the_pairwise_lp_set(case):
    # Qhull splits each cospherical cell one way; the cell tuples cover
    # the pairs across the other diagonals
    if case.startswith("lattice"):
        images = _lattice(int(case[-1]))
    else:
        images = {"3x3": _grid(3, 3), "5x5": _grid(5, 5), "3^3": _grid(3, 3, 3),
                  "square-far": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                          [1.0, 1.0], [5.0, 7.0]])}[case]
    domain = _identity_domain(images)
    graph = neighbor_graph(images, domain)
    assert _covered_pairs(graph) == _pairwise_lp_set(images)
    assert check_graph(graph, images, domain).all()
    assert neighbor_span(images, domain) == compute_df(graph, domain)


def _no_lp(*args):
    raise AssertionError("a pair went to the LP")


def test_four_dimensional_grid_cells_cover_every_neighbor_pair(monkeypatch):
    # the 3^4 grid: 1160 neighbor pairs, all from edges and cells, none
    # from the LP
    images = _grid(3, 3, 3, 3)
    domain = _identity_domain(images)
    monkeypatch.setattr(neighbors, "pair_is_neighbor_fast", _no_lp)
    graph = neighbor_graph(images, domain)
    assert len(_covered_pairs(graph)) == 1160
    assert compute_df(graph, domain) == 2.0  # the unit cells' diagonal
    assert check_graph(graph, images, domain).all()


@pytest.mark.parametrize("k", [0, 2])
def test_failing_cells_leave_only_lp_no_pairs(k):
    # grid-rounded S^2 maps have hundreds of cells; the few whose sphere
    # misses tau_on get no tuple, and every pair across them that
    # no edge or tuple covers is an LP "no"
    domain = sample_sphere(2, 512, seed=0, scheme="quasi_uniform")
    images = np.round(evaluate(random_map("sphere_harmonic", 3,
                                          seed=[k, 1000], d_in=3), domain), 1)
    graph = neighbor_graph(images, domain)
    covered = _covered_pairs(graph)
    cl = neighbors._clusters(images)
    rep = cl.members[cl.start]
    cells = neighbors._cells(neighbors._triangulation(cl))[1]
    uncovered = [(a, b) for cell in cells
                 for a, b in itertools.combinations(cell.tolist(), 2)
                 if tuple(sorted((rep[a], rep[b]))) not in covered]
    assert uncovered
    for a, b in uncovered:
        assert pair_is_neighbor_fast(a, b, cl.reduced)[0] == "no"


def test_nearly_flat_images_graph_answers_for_the_projection():
    # one axis scaled by 1e-9 falls below the rank tolerance: the graph
    # answers for the images in their (planar) affine hull, the LP for
    # the images as given, where 6 more pairs pass within rounding: each
    # has a center about 5e6 off the plane, and a certificate the checker
    # accepts for the images as given
    domain = sample_sphere(2, 20, seed=0, scheme="uniform_random")
    images = np.random.default_rng(0).normal(size=(40, 3))
    images[:, 2] *= 1e-9
    reduced = neighbors._affine_reduce(images)[0]
    assert reduced.shape[1] == 2
    graph = neighbor_graph(images, domain)
    got = _covered_pairs(graph)
    assert got == _pairwise_lp_set(reduced) and len(got) == 111
    lp_yes = _pairwise_lp_set(images)
    assert len(lp_yes) == 117 and got < lp_yes
    for i, j in lp_yes - got:
        cert = pair_is_neighbor_fast(i, j, images, domain=domain)[1]
        assert check_certificate(cert, images, domain)


def test_graph_delaunay_path_matches_pairwise_lp():
    # 30 distinct images force the triangulation path, in the plane, in
    # space and above; compare against the exhaustive LP verdicts
    for n, m in ((1, 2), (2, 3), (1, 4), (2, 4), (1, 5)):
        domain = sample_sphere(n, 15, seed=9, scheme="uniform_random")
        rng = np.random.default_rng(77)
        images = rng.normal(size=(len(domain), m))
        certs = neighbor_graph(images, domain)
        assert {c.indices for c in certs} == _pairwise_lp_set(images)
        assert check_graph(certs, images, domain).all()


def test_graph_curves_in_r4_reach_the_antipodal_span():
    # circle maps into R^4 are nearly neighborly: the graph certifies an
    # antipodal pair, so D_f is 2 (the Gabriel subgraph gave 1.91-2.0)
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    for t in range(4):
        images = evaluate(random_map("circle_fourier", 4, seed=[0, 1000 + t]),
                          domain)
        graph = neighbor_graph(images, domain)
        pair, df, cert = extremal_pair(graph, domain)
        assert df == 2.0
        assert check_certificate(cert, images, domain)
        assert pair_is_neighbor_fast(*pair, images)[0] == "yes"


def test_graph_identity_circle_reports_everything_at_scale():
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    certs = neighbor_graph(domain.samples.copy(), domain)
    assert len(certs) == 1
    (cert,) = certs
    assert cert.indices == tuple(range(64))
    assert isinstance(cert.witness, Sphere)
    assert cert.witness.radius == pytest.approx(1.0, abs=1e-9)
    assert compute_df(certs, domain) == pytest.approx(2.0, abs=1e-12)


def test_graph_identity_small_circle_all_pairs():
    # cospherical images give one tuple at every size: here one 8-tuple
    domain = sample_sphere(1, 8, seed=0, scheme="quasi_uniform")
    certs = neighbor_graph(domain.samples.copy(), domain)
    (cert,) = certs
    assert cert.indices == tuple(range(8))
    assert _covered_pairs(certs) == set(itertools.combinations(range(8), 2))
    assert check_certificate(cert, domain.samples, domain)
    assert compute_df(certs, domain) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_images_are_refused(bad):
    # a NaN diameter fails `diam > 0`, which would put every sample in one
    # coincidence cluster: one tuple, D_f = 2, and a certificate that
    # check_certificate rejects
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    images = domain.samples.copy()
    images[5] = [bad, 0.5]
    for call in (lambda: neighbor_graph(images, domain),
                 lambda: neighbor_span(images, domain),
                 lambda: witness_point(domain, cover, images)):
        with pytest.raises(ValueError, match="images must be finite"):
            call()


def test_finite_images_whose_squared_diameter_overflows_are_refused():
    # every image is finite, but no tolerance can be scaled from them
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    images = 1e160 * domain.samples
    for call in (lambda: neighbor_graph(images, domain),
                 lambda: neighbor_span(images, domain),
                 lambda: witness_point(domain, cover, images)):
        with pytest.raises(neighbors.ImageScaleError, match="overflows"):
            call()


def test_images_whose_diameter_is_no_normal_float_are_refused():
    # a subnormal diameter has no unit frame: 2^-exponent overflows
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    cover = regular_triangulation_cover(domain)
    images = 1e-310 * domain.samples
    for call in (lambda: neighbor_graph(images, domain),
                 lambda: neighbor_span(images, domain),
                 lambda: witness_point(domain, cover, images)):
        with pytest.raises(neighbors.ImageScaleError, match="normal float"):
            call()


def test_graph_projection_to_line_finds_antipodal_coincidences():
    # x-coordinate projection of the symmetric circle sends reflected
    # sample pairs to the same value; the poles' reflections are antipodal
    domain = sample_sphere(1, 16, seed=0, scheme="quasi_uniform")
    images = domain.samples[:, :1].copy()
    certs = neighbor_graph(images, domain)
    coincident = [c for c in certs if c.witness == "coincidence"]
    assert len(coincident) == 7  # k and 16-k for k = 1..7
    assert compute_df(certs, domain) == pytest.approx(2.0, abs=1e-12)
    _check_rows_and_extremal(certs, domain)


def test_graph_large_clusters_keep_their_farthest_pair():
    # a 3-level step map: three clusters of about 21 samples, so each
    # cluster pair exceeds CROSS_PAIR_CAP and keeps one farthest pair
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    angle = np.arctan2(domain.samples[:, 1], domain.samples[:, 0]) % (2 * np.pi)
    images = np.floor(angle * 3 / (2 * np.pi))[:, None]
    graph = neighbor_graph(images, domain)
    clusters = [np.flatnonzero(images[:, 0] == v) for v in (0.0, 1.0, 2.0)]
    assert min(len(c) for c in clusters) ** 2 > neighbors.CROSS_PAIR_CAP
    assert [c.indices for c in _tuple_certs(graph)] == sorted(
        tuple(c.tolist()) for c in clusters)
    assert len(graph.pairs) == 2  # the levels 0-1 and 1-2 are adjacent
    assert check_graph(graph, images, domain).all()
    for cert in graph:
        if cert.witness == "coincidence":
            continue
        i, j = cert.indices
        ca, cb = (c for c in clusters if i in c or j in c)
        farthest = max(domain.rho(a, b) for a in ca for b in cb)
        assert cert.pair_distance == domain.rho(i, j) == farthest
    _check_rows_and_extremal(graph, domain)


def test_graph_constant_map_single_tuple():
    domain = sample_sphere(1, 10, seed=1, scheme="uniform_random")
    images = np.tile([3.0, -1.0], (len(domain), 1))
    certs = neighbor_graph(images, domain)
    assert len(certs) == 1
    (cert,) = certs
    assert cert.indices == tuple(range(len(domain)))
    assert cert.witness == "coincidence"
    assert compute_df(certs, domain) == pytest.approx(2.0, abs=1e-12)


def test_graph_fourier_map_certificates_verify():
    domain = sample_sphere(1, 128, seed=2, scheme="quasi_uniform")
    rng = np.random.default_rng(4)
    spec = MapSpec(family="circle_fourier", m_out=2,
                   params=tuple(rng.uniform(-1, 1, size=10)))
    images = evaluate(spec, domain)
    certs = neighbor_graph(images, domain)
    assert len(certs) >= 128  # at least the image-adjacency structure
    assert check_graph(certs, images, domain).all()
    assert compute_df(certs, domain) > 0.0


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-13])
def test_check_certificate_rejects_an_image_half_a_radius_inside(scale):
    # an absolute 1e-12 floor on the inside test let this ball pass at
    # 1e-13, where its radius is below 1e-13 too
    images, domain = _circle_map(64, 2, seed=[0, 1000])
    cert = neighbor_graph(images, domain).row(0)
    w = cert.witness
    k = next(k for k in range(len(domain)) if k not in cert.indices)
    moved = images.copy()
    moved[k] = w.center + (0.5 * w.radius, 0.0)
    cert = dataclasses.replace(
        cert, witness=Sphere(center=w.center * scale, radius=w.radius * scale),
        slack=cert.slack * scale)
    assert check_certificate(cert, images * scale, domain)
    assert not check_certificate(cert, moved * scale, domain)


@pytest.mark.parametrize("field", ["center", "radius", "pair_distance"])
def test_check_certificate_rejects_nan(field):
    # every comparison with NaN is false: each test must fail on it
    domain = sample_sphere(1, 128, seed=2, scheme="quasi_uniform")
    images = evaluate(random_map("circle_fourier", 2, seed=[0, 5]), domain)
    cert = next(iter(neighbor_graph(images, domain)))
    assert check_certificate(cert, images, domain)
    w = cert.witness
    bad = dataclasses.replace(cert, witness=Sphere(
        center=np.full_like(w.center, np.nan) if field == "center"
        else w.center, radius=np.nan if field == "radius" else w.radius),
        pair_distance=np.nan if field == "pair_distance"
        else cert.pair_distance)
    assert check_certificate(bad, images, domain) is False


def _dump_panel():
    """tools/dump_panel.py as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "dump_panel.py"
    spec = importlib.util.spec_from_file_location("dump_panel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _per_row_rule(cert, images, domain, eps_inside_rel=EPS_INSIDE_REL):
    """The acceptance rule measured one certificate at a time, over every
    image: the reference for check_graph."""
    diam = image_diameter(images)
    idx = np.asarray(cert.indices)
    rho = (float(domain.max_pairwise_rho(idx)) if len(idx) > 2
           else domain.rho(*idx))
    if not abs(rho - cert.pair_distance) <= 1e-9 * max(rho, 1.0):
        return False
    if cert.witness == "coincidence":
        return image_diameter(images[idx]) <= max(
            neighbors.EPS_COINCIDE_REL * diam, cert.slack + 1e-12 * diam)
    k = -math.frexp(diam)[1]
    margins = Sphere(center=np.ldexp(cert.witness.center, k),
                     radius=np.ldexp(cert.witness.radius, k)).margins(
                         np.ldexp(images, k))
    diam = math.ldexp(diam, k)
    if not np.abs(margins[idx]).max() <= neighbors.TAU_ON_REL * diam:
        return False
    return bool(np.delete(margins, idx).min(initial=np.inf)
                >= -(eps_inside_rel + 1e-12) * diam)


def _jittered_lattice():
    """The 8^3 lattice jittered by 1e-10, whose graph has an LP row."""
    axes = np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij")
    images = np.stack([a.ravel() for a in axes], axis=1)
    images += 1e-10 * np.random.default_rng(1).uniform(-1, 1, images.shape)
    return images, _identity_domain(images)


def _check_inputs(case):
    """(images, domain, eps_inside_rel) of each input of a check case."""
    if case == "panel":
        for _, domain, images in _dump_panel().panel(64):
            yield images, domain, EPS_INSIDE_REL
    elif case == "lattice":
        yield *_jittered_lattice(), EPS_INSIDE_REL
    elif case == "eps-inside-0":
        yield *_circle_map(64, 2, seed=[0, 1000]), 0.0
    elif case == "flat":  # a planar S^2 map placed in R^3
        domain = sample_sphere(2, 256, seed=1, scheme="quasi_uniform")
        images = evaluate(random_map("sphere_harmonic", 2, seed=[1, 1000],
                                     d_in=3), domain)
        yield images @ [[1.0, 0.5, 2.0], [0.0, 1.0, -1.0]], domain, \
            EPS_INSIDE_REL
    else:
        images, domain = _circle_map(64, 2, seed=[0, 1000])
        yield images * float(case.split("x")[1]), domain, EPS_INSIDE_REL


_CHECK_CASES = ["panel", "lattice", "eps-inside-0", "flat", "x1e-300",
                "x1e-150", "x1e80", "x1e150"]


@pytest.mark.parametrize("case", _CHECK_CASES)
def test_check_graph_agrees_with_check_certificate_row_by_row(case):
    # the panel holds cells, clusters, the constant map, the all-sample
    # tuple and S^1 -> R^5; the lattice and eps-inside 0 have LP rows.
    # check_certificate's one-ball graph measures its distances directly,
    # and a graph of many balls queries a tree: the two must agree, also
    # at a negative depth, where a ball must clear the other images by a
    # margin and rows fail on emptiness alone
    for images, domain, eps in _check_inputs(case):
        graph = neighbor_graph(images, domain, eps_inside_rel=eps)
        rows = [graph.row(k) for k in range(len(graph))]
        for depth in (eps, -1e-3):
            verdict = check_graph(graph, images, domain, eps_inside_rel=depth)
            assert verdict.dtype == bool and len(verdict) == len(graph)
            assert verdict.tolist() == [
                check_certificate(c, images, domain, eps_inside_rel=depth)
                for c in rows]
            assert verdict.tolist() == [
                _per_row_rule(c, images, domain, depth) for c in rows]


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(
        strict=True, reason="34 rows sit on Delaunay sliver balls of radius "
        "3e10-6e10, whose embedded centers put members 1.3-2.5e-6 of the "
        "diameter off the sphere")) if case == "lattice" else case
    for case in _CHECK_CASES])
def test_check_graph_passes_every_certificate(case):
    for images, domain, eps in _check_inputs(case):
        graph = neighbor_graph(images, domain, eps_inside_rel=eps)
        assert check_graph(graph, images, domain, eps_inside_rel=eps).all()


def _rounded_s2_graph():
    """An S^2 -> R^3 map at 512 samples rounded to 1 decimal: coincidence
    clusters, cospherical cells and edge rows, every one passing."""
    domain = sample_sphere(2, 512, seed=0, scheme="quasi_uniform")
    images = np.round(evaluate(random_map("sphere_harmonic", 3,
                                          seed=[0, 1000], d_in=3), domain), 1)
    graph = neighbor_graph(images, domain)
    assert check_graph(graph, images, domain).all()
    return images, domain, graph


def test_check_graph_fails_exactly_the_corrupted_rows():
    # each corruption keeps the pair distances right, so that only the
    # test it aims at can fail it, and none may raise
    images, domain, graph = _rounded_s2_graph()
    # a cell's ball, which its tuple and some edge rows share
    b = int(np.intersect1d(graph.tuple_ball, graph.ball)[0])
    on_b = np.flatnonzero(np.append(graph.ball, graph.tuple_ball) == b)
    moved, nan, shrunk = graph.centers.copy(), graph.centers.copy(), \
        graph.radii.copy()
    moved[b, 0] += 0.5 * graph.radii[b]
    nan[b, 0] = np.nan
    shrunk[b] *= 0.5
    # a pair row on another ball swaps an index for the farthest image
    r = int(np.flatnonzero(graph.ball != b)[0])
    pairs, rho = graph.pairs.copy(), graph.rho.copy()
    pairs[r, 1] = np.argmax(np.linalg.norm(
        images - graph.centers[graph.ball[r]], axis=1))
    rho[r] = domain.rho(*pairs[r])
    # a coincidence cluster takes in the image farthest from it
    t = int(np.flatnonzero(graph.tuple_ball < 0)[0])
    at = graph.tuple_start[t]
    members = np.insert(graph.tuple_members, at, np.argmax(np.linalg.norm(
        images - images[graph.tuple_members[at]], axis=1)))
    starts = graph.tuple_start + (np.arange(len(graph.tuple_start)) > t)
    tuple_rho = graph.tuple_rho.copy()
    tuple_rho[t] = domain.max_pairwise_rho(np.split(members, starts[1:])[t])
    for corrupt, expected in (
            ({"centers": moved}, on_b), ({"radii": shrunk}, on_b),
            ({"centers": nan}, on_b), ({"pairs": pairs, "rho": rho}, [r]),
            ({"tuple_members": members, "tuple_start": starts,
              "tuple_rho": tuple_rho}, [len(graph.pairs) + t])):
        bad = dataclasses.replace(graph, **corrupt)
        assert np.flatnonzero(~check_graph(bad, images, domain)).tolist() \
            == list(expected), list(corrupt)


def _package_imports(source: str) -> set[str]:
    """The fneighbors modules that source imports, relative or absolute
    ("" for the package itself)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(["fneighbors"] * bool(node.level)
                              + [node.module] * bool(node.module))
            modules = ([f"{module}.{a.name}" for a in node.names]
                       if module == "fneighbors" else [module])
        else:
            continue
        found.update((m.split(".") + [""])[1] for m in modules
                     if m.split(".")[0] == "fneighbors")
    return found


def test_check_imports_nothing_from_the_construction():
    # what a certificate is and when it is accepted sits behind one module
    # boundary: check may import the package's domains and geometry only
    assert _package_imports(Path(check.__file__).read_text()) == {
        "domains", "geometry"}
    for source, module in (("from .neighbors import _clearance", "neighbors"),
                           ("from . import neighbors", "neighbors"),
                           ("from fneighbors.witness import x", "witness"),
                           ("from fneighbors import muopt", "muopt"),
                           ("import fneighbors.neighbors as nb", "neighbors"),
                           ("import fneighbors", "")):
        assert _package_imports(source) == {module}, source
    # neighbors re-exports the rule, it does not copy it
    for name in ("check_certificate", "check_graph", "NeighborGraph",
                 "NeighborCertificate"):
        assert getattr(neighbors, name) is getattr(check, name), name


def test_compute_df_empty():
    domain = sample_sphere(1, 4, seed=0, scheme="quasi_uniform")
    empty = NeighborGraph(pairs=np.zeros((0, 2), dtype=int),
                          ball=np.zeros(0, dtype=int), slack=np.zeros(0),
                          rho=np.zeros(0), centers=np.zeros((0, 2)),
                          radii=np.zeros(0))
    assert compute_df(empty, domain) == 0.0
    assert extremal_pair(empty, domain) == (None, 0.0, None)


# --- Delaunay edge certification against the all-simplex routine ---

def _tau_on(pts):
    return max(neighbors.TAU_ON_REL * image_diameter(pts), 1e-12)


def _circumcenters(pts, simplices):
    """The oracle: the circumcenter of every given simplex of pts (dimension
    >= 2) by one batched solve.  Returns (centers, ok): ok marks the
    simplices whose determinant exceeds 1e-12 times the largest edge
    coordinate to the d, and the centers of the others (slivers) are NaN."""
    d = pts.shape[1]
    verts = pts[simplices]  # (S, d+1, d)
    u = verts[:, 1:, :] - verts[:, :1, :]
    rhs = 0.5 * ((verts[:, 1:, :] ** 2).sum(axis=2)
                 - (verts[:, :1, :] ** 2).sum(axis=2))
    centers = np.full((len(simplices), d), np.nan)
    det = np.abs(np.linalg.det(u))
    scale = np.abs(u).max(axis=(1, 2)) ** d + 1e-300
    ok = det > 1e-12 * scale
    if ok.any():
        centers[ok] = np.linalg.solve(u[ok], rhs[ok][..., None])[..., 0]
    return centers, ok


def _lifted_equations(pts, simplices):
    """Rows (2c, -1, r^2 - |c|^2) of the lifted hyperplanes of the oracle's
    circumballs, c the center and r its distance to the first vertex: the
    tri.equations of a triangulation Qhull did not make, at paraboloid
    scale 1 and shift 0."""
    centers = _circumcenters(pts, simplices)[0]
    r2 = ((pts[simplices[:, 0]] - centers) ** 2).sum(axis=1)
    return np.column_stack([2.0 * centers, np.full(len(centers), -1.0),
                            r2 - (centers ** 2).sum(axis=1)])


def _ball_case(case):
    """Points and their Delaunay triangulation for the ball comparison."""
    if case.startswith("s2-"):  # "s2-seed-map"
        _, seed, t = case.split("-")
        pts = _sphere_images(int(seed), int(t))
    elif case == "grid":
        pts = _grid(3, 3, 3)
    elif case == "r4-slivers":
        # a surface in R^4: many near-slivers, where the solve is
        # ill-conditioned
        domain = sample_sphere(2, 256, seed=0, scheme="quasi_uniform")
        pts = evaluate(random_map("sphere_harmonic", 4, seed=[0, 1000],
                                  d_in=3), domain)
    else:  # the hull triangle 0-1-2 is flattened to 1e-14
        pts = np.array([[0.0, 0.0], [1.0, 1e-14], [2.0, 0.0], [1.0, 1.0]])
    return pts, Delaunay(pts)


@pytest.mark.parametrize("case", ["s2-1-1000", "s2-2-1014", "grid",
                                  "r4-slivers", "sliver"])
def test_lifted_balls_match_the_solved_circumcenters(case):
    pts, tri = _ball_case(case)
    tau_on = _tau_on(pts)
    solved, ok = _circumcenters(pts, tri.simplices)
    live, centers, radii, margin = neighbors._circumballs(pts, tri, tau_on)
    # every ball the solve finds is live, and no sliver is
    assert np.isin(np.flatnonzero(ok), live).all()
    assert not np.isin(np.flatnonzero(~ok & ~neighbors._cell_mask(tri)),
                       live).any()
    # the vertices lie on the live balls within tau_on in extended precision
    verts = pts[tri.simplices[live]].astype(np.longdouble)
    dist = np.sqrt(((verts - centers[:, None, :]) ** 2).sum(axis=2))
    assert np.abs(dist - radii[:, None]).max() <= tau_on
    # no larger vertex residual than the solve's
    both = ok[live]
    own = np.linalg.norm(pts[tri.simplices[live]] - solved[live][:, None, :],
                         axis=2)
    own = np.abs(own - own[:, :1]).max(axis=1)
    assert np.abs(margin).max() <= 2.0 * own[both].max(initial=0.0) + 1e-15
    # the centers agree but where the sphere is not determined to tau_on:
    # there the solved ball, too, passes through the vertices within it
    apart = (np.linalg.norm(centers - solved[live], axis=1)
             > 1e-6 * image_diameter(pts)) & both
    assert apart.mean() < 1e-3 and (own[apart] <= tau_on).all()
    if case == "grid":
        # the flat simplices of a unit cube carry its ball
        assert (~ok).any() and len(live) == len(ok)
        assert np.allclose(radii, np.sqrt(3) / 2, rtol=0, atol=1e-15)
    if case == "sliver":
        assert len(live) == 2 and ok.sum() == 2


def _all_simplex_edge_certs(pts, tri, eps_inside):
    """The reference: every live circumball gets its KD-tree clearance, and
    each edge keeps the last of its instances whose slack is at least
    -eps_inside, named by its simplex (a row of tri.simplices)."""
    live, centers, radii, margin = neighbors._circumballs(pts, tri,
                                                          _tau_on(pts))
    splx = tri.simplices[live]
    dists, nbrs = cKDTree(pts).query(centers, k=pts.shape[1] + 2)
    is_vertex = (nbrs[:, :, None] == splx[:, None, :]).any(axis=2)
    clear = np.where(is_vertex, np.inf, dists).min(axis=1) - radii
    p, q = np.triu_indices(splx.shape[1], 1)
    a, b = splx[:, p].T.ravel(), splx[:, q].T.ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    owner = np.tile(np.arange(len(splx)), len(p))
    slacks = []
    for x, y in zip(a.reshape(len(p), -1), b.reshape(len(p), -1)):
        other = (splx != x[:, None]) & (splx != y[:, None])
        slacks.append(np.minimum(clear, np.where(other, margin, np.inf).min(axis=1)))
    slacks = np.concatenate(slacks)
    key = lo.astype(np.int64) * len(pts) + hi
    order = np.lexsort((slacks >= -eps_inside, key))
    chosen = order[np.r_[key[order][1:] != key[order][:-1], True]]
    good = slacks[chosen] >= -eps_inside
    t, f = chosen[good], chosen[~good]
    return ((lo[t], hi[t], live[owner[t]], slacks[t]),
            list(zip(lo[f].tolist(), hi[f].tolist())))


def _counting_clearance(monkeypatch):
    """Replace neighbors._clearance by a wrapper that records the number
    of centers of each call in the returned list."""
    calls = []
    clearance = neighbors._clearance
    monkeypatch.setattr(neighbors, "_clearance",
                        lambda pts, c, *a: calls.append(len(c))
                        or clearance(pts, c, *a))
    return calls


def _edge_certs_and_clearance_calls(monkeypatch, images, kd=False):
    """_delaunay_edge_certs on the images' Delaunay triangulation, checked
    against the reference column by column, with the number of centers
    each _clearance call received and the number of live simplices.  kd
    takes the KD-tree path whether or not Delaunay's lemma applies."""
    calls = _counting_clearance(monkeypatch)
    if kd:
        monkeypatch.setattr(neighbors, "LOCAL_DELAUNAY_TAU", np.inf)
    tri = Delaunay(images)
    eps_inside = EPS_INSIDE_REL * image_diameter(images)
    got = neighbors._delaunay_edge_certs(images, tri, eps_inside,
                                         _tau_on(images))
    monkeypatch.undo()
    expected = _all_simplex_edge_certs(images, tri, eps_inside)
    assert len(got[0]) == len(expected[0])
    for column, ref in zip(got[0], expected[0]):
        assert np.array_equal(column, ref)
    assert got[1] == expected[1]
    live = len(neighbors._circumballs(images, tri, _tau_on(images))[0])
    return calls, live


def _square_boundary_map(k):
    domain, _ = cube_boundary_cover(2, 512, seed=1)
    spec = random_map("poly_quadratic", 2, seed=[k, 7], d_in=2)
    return evaluate(spec, domain)


def _two_spheres(n, count, radius=0.5, shift=3.0):
    """count samples of S^n, the first half left on the unit sphere and
    the rest moved to a smaller sphere beside it: many Delaunay
    circumballs are empty only up to rounding."""
    domain = sample_sphere(n, count, seed=0, scheme="quasi_uniform")
    points = domain.samples.copy()
    half = len(points) // 2
    points[half:] = radius * points[half:]
    points[half:, 0] += shift
    return points


def _edge_cert_maps(case):
    """(image sets, whether Delaunay's lemma applies to them)."""
    if case.startswith("two-spheres-"):  # "two-spheres-n-count"
        n, count = map(int, case.split("-")[2:])
        return [_two_spheres(n, count)], False
    base, _, rounded = case.partition("-")
    if base == "sphere":
        domain = sample_sphere(2, 1024, seed=0, scheme="quasi_uniform")
        maps = [evaluate(random_map("sphere_harmonic", 3, seed=[k, 1000],
                                    d_in=3), domain) for k in range(3)]
    elif base == "circle":
        domain = sample_sphere(1, 512, seed=0, scheme="quasi_uniform")
        maps = [evaluate(random_map("circle_fourier", 2, seed=[k, 1000]),
                         domain) for k in range(6)]
    else:
        maps = [_square_boundary_map(k) for k in range(3)]
    if rounded:
        # images rounded to a 0.01 grid: many circumballs are empty only
        # up to rounding
        return [np.round(images, 2) for images in maps], False
    return maps, True


@pytest.mark.parametrize("case", [
    "sphere", "circle", "square", "two-spheres-1-128", "two-spheres-2-300",
    "circle-rounded", "sphere-rounded"])
def test_edge_certs_equal_all_simplex_reference(monkeypatch, case):
    maps, lemma = _edge_cert_maps(case)
    for images in maps:
        # Delaunay's lemma proves every ball empty on generic maps; otherwise
        # one KD-tree query covers every live simplex
        calls, live = _edge_certs_and_clearance_calls(monkeypatch, images)
        assert calls == ([] if lemma else [live])
        if lemma:
            calls, live = _edge_certs_and_clearance_calls(monkeypatch, images,
                                                          kd=True)
            assert calls == [live]


def _picks(images):
    """Each edge that _delaunay_edge_certs certifies on the images'
    Delaunay triangulation, mapped to the sorted vertices of the simplex
    whose ball it picked."""
    tri, tau_on = Delaunay(images), _tau_on(images)
    (lo, hi, simplex, _), _ = neighbors._delaunay_edge_certs(
        images, tri, EPS_INSIDE_REL * image_diameter(images), tau_on)
    simplices = np.sort(tri.simplices[simplex], axis=1)
    return dict(zip(zip(lo.tolist(), hi.tolist()),
                    map(tuple, simplices.tolist())))


@pytest.mark.parametrize("n, samples", [(2, 2048), (1, 512)])
def test_rounding_moves_no_pick(n, samples):
    # the images times 1 +- a few ulps differ from them by rounding only;
    # a pick by largest slack moved on 41-73% of these edges
    domain = sample_sphere(n, samples, seed=1, scheme="quasi_uniform")
    family = "circle_fourier" if n == 1 else "sphere_harmonic"
    for t in (1000, 1001):
        images = evaluate(random_map(family, n + 1, seed=[1, t], d_in=n + 1),
                          domain)
        picks = _picks(images)
        for scale in (1.0 + 2.0**-50, 1.0 - 2.0**-51):
            assert _picks(images * scale) == picks


def _rescued_graph(monkeypatch, coincide=lambda i, j: False):
    """An S^2 map with eight coincidence clusters of two, its graph, and
    its graph with the lowest-keyed quarter of the Delaunay edges failed,
    which the LP rescues, appended after the rest; the LP's sphere
    verdicts on the representative pairs (i, j) where coincide(i, j)
    holds are turned into coincidence verdicts.  Returns (images, domain,
    graph, rescued graph, rescued representative pairs)."""
    domain = sample_sphere(2, 128, seed=4, scheme="quasi_uniform")
    images = evaluate(random_map("sphere_harmonic", 3, seed=4, d_in=3), domain)
    images[1::16] = images[0::16]  # eight coincidence clusters of two
    plain = neighbor_graph(images, domain)
    certs, fast, rescued = (neighbors._delaunay_edge_certs,
                            neighbors.pair_is_neighbor_fast, [])

    def lowest_keys_fail(pts, tri, eps_inside, tau_on):
        columns, failed = certs(pts, tri, eps_inside, tau_on)
        lo, hi, _, _ = columns
        k = len(lo) // 4
        rescued.extend(zip(lo[:k].tolist(), hi[:k].tolist()))
        return tuple(c[k:] for c in columns), failed + rescued

    def verdict(i, j, reduced, **kw):
        answer, cert = fast(i, j, reduced, **kw)
        if answer == "yes" and coincide(i, j):
            cert = dataclasses.replace(cert, witness="coincidence")
        return answer, cert

    monkeypatch.setattr(neighbors, "_delaunay_edge_certs", lowest_keys_fail)
    monkeypatch.setattr(neighbors, "pair_is_neighbor_fast", verdict)
    graph = neighbor_graph(images, domain)
    monkeypatch.undo()
    return images, domain, plain, graph, rescued


def test_full_graph_columns_in_lexsort_order_with_rescued_rows_and_clusters(
        monkeypatch):
    images, domain, plain, graph, _ = _rescued_graph(monkeypatch)
    pairs = graph.pairs
    assert len(graph.tuple_start) == 8
    assert pairs.tolist() == plain.pairs.tolist()
    assert (np.lexsort((pairs[:, 1], pairs[:, 0])) == np.arange(len(pairs))).all()
    assert not np.array_equal(graph.centers, plain.centers)  # LP witnesses
    assert check_graph(graph, images, domain).all()


def _assert_ball_table(graph, dim):
    """Every row's and tuple's ball is -1 or a row of the table, and every
    table row is some row's or tuple's ball."""
    ball = np.concatenate([graph.ball, graph.tuple_ball])
    assert graph.centers.shape == (len(graph.radii), dim)
    assert ((ball >= -1) & (ball < len(graph.radii))).all()
    assert np.array_equal(np.unique(ball[ball >= 0]),
                          np.arange(len(graph.radii)))


def test_each_sphere_enters_the_ball_table_once():
    # grid-rounded images lie on cospherical cells, whose simplices all
    # have the cell's sphere: the table holds each sphere once, also in
    # R^5, where embedding a center alone rounds it otherwise than in a
    # batch, and a cell's tuple names the ball of the edge rows that
    # picked one of its simplices
    for n, m_out, samples, domain_seed, seed, decimals in [
            (1, 5, 128, 1, [1, 1000], 0), (1, 2, 512, 0, [0, 5], 2),
            (2, 3, 1024, 1, [1, 1000], 1)]:
        domain = sample_sphere(n, samples, seed=domain_seed,
                               scheme="quasi_uniform")
        family = "sphere_harmonic" if n == 2 else "circle_fourier"
        images = np.round(evaluate(random_map(family, m_out, seed=seed,
                                              d_in=n + 1), domain), decimals)
        graph = neighbor_graph(images, domain)
        _assert_ball_table(graph, m_out)
        bits = np.column_stack([graph.centers, graph.radii]).view(np.int64)
        assert len(np.unique(bits, axis=0)) == len(bits)
        _assert_cells_share_their_balls(graph, images, domain)


def _assert_cells_share_their_balls(graph, images, domain):
    """A cell's simplices have bitwise-equal balls, its lowest one's, and
    each certified cell's tuple names the ball of the edge rows that
    picked a simplex of the cell."""
    cl = neighbors._clusters(images)
    tri = neighbors._triangulation(cl)
    rows, cells, rep = neighbors._cells(tri)
    in_cell = np.flatnonzero(rep != np.arange(len(rep)))
    assert len(in_cell) > len(cells) > 0
    assert np.isin(rep[in_cell], rows).all() and (rep[rows] == rows).all()
    lifted = [np.column_stack(neighbors._lifted_balls(tri, s)).view(np.int64)
              for s in (in_cell, rep[in_cell])]
    assert np.array_equal(*lifted)
    (lo, hi, simplex, _), _ = neighbors._delaunay_edge_certs(
        cl.reduced, tri, EPS_INSIDE_REL * cl.diam, cl.tau_on)
    gi, gj, ref = neighbors._member_pairs(domain, cl.members, cl.sizes,
                                          cl.start, lo, hi)
    row = {pair: k for k, pair in enumerate(map(tuple, graph.pairs.tolist()))}
    picked = np.array([row[p] for p in zip(gi.tolist(), gj.tolist())])
    at = {tuple(c.indices): t for t, c in enumerate(_tuple_certs(graph))}
    shared = 0
    for r, cell in zip(rows.tolist(), cells):
        members = np.sort(np.concatenate(
            [cl.members[cl.start[c]:cl.start[c] + cl.sizes[c]] for c in cell]))
        t = at.get(tuple(members.tolist()))
        if t is None:  # a cell that is not certified
            continue
        assert graph.tuple_ball[t] >= 0
        same = picked[rep[simplex[ref]] == r]
        assert (graph.ball[same] == graph.tuple_ball[t]).all()
        shared += len(same)
    assert shared > (graph.tuple_ball >= 0).sum()


def test_ball_table_is_indexed_by_rows_and_rescued_rows_own_their_balls(
        monkeypatch):
    sphere = sample_sphere(2, 512, seed=1, scheme="quasi_uniform")
    circle = sample_sphere(1, 512, seed=0, scheme="quasi_uniform")
    rounded = np.round(evaluate(random_map("circle_fourier", 2, seed=[0, 5],
                                           d_in=2), circle), 2)
    for images, domain, cells in [
            (evaluate(random_map("sphere_harmonic", 3, seed=[1, 1000],
                                 d_in=3), sphere), sphere, False),
            (rounded, circle, True)]:
        graph = neighbor_graph(images, domain)
        _assert_ball_table(graph, images.shape[1])
        # rows share balls; coinciding images form tuples, not rows
        assert len(graph.radii) < len(graph.pairs) and (graph.ball >= 0).all()
        kinds = {c.witness == "coincidence" for c in _tuple_certs(graph)}
        assert kinds == ({True, False} if cells else set())
    # the LP answers coincidence on every third rescued pair by key sum
    images, domain, _, graph, rescued = _rescued_graph(
        monkeypatch, lambda i, j: (i + j) % 3 == 0)
    _assert_ball_table(graph, 3)
    assert (graph.ball == -1).any()
    # each sample's representative, the lowest member of its cluster
    sample = np.arange(128)
    reps = np.flatnonzero(sample % 16 != 1)
    rep = np.searchsorted(reps, sample - (sample % 16 == 1))
    owner, others = {}, set()  # rescued ball -> its pair; other rows' balls
    for (i, j), b in zip(graph.pairs.tolist(), graph.ball.tolist()):
        key = (int(rep[i]), int(rep[j]))
        coincide = key in rescued and sum(key) % 3 == 0
        assert (b == -1) == coincide
        if key not in rescued:
            others.add(b)
        elif not coincide:
            assert owner.setdefault(b, key) == key
    assert len(owner) == sum(sum(key) % 3 != 0 for key in rescued)
    assert not set(owner) & others


# --- Delaunay's lemma against the KD-tree path ---

def _facet_neighbors(simplices):
    """neighbors[s, k]: the simplex across the facet of s opposite its
    vertex k, -1 on the hull (scipy's Delaunay.neighbors)."""
    nbr = np.full(simplices.shape, -1)
    open_facets = {}
    for s, simplex in enumerate(simplices.tolist()):
        for k in range(len(simplex)):
            facet = tuple(sorted(simplex[:k] + simplex[k + 1:]))
            if facet in open_facets:
                t, j = open_facets.pop(facet)
                nbr[s, k], nbr[t, j] = t, s
            else:
                open_facets[facet] = (s, k)
    return nbr


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _flipped(pts):
    """The Delaunay triangulation of 2-D pts with its first interior edge
    whose quadrilateral is convex flipped to the other diagonal (its
    equations the oracle's, _lifted_equations), and that new edge."""
    tri = Delaunay(pts)
    simplices = tri.simplices.copy()
    for s, k in zip(*np.nonzero(tri.neighbors >= 0)):
        t = tri.neighbors[s, k]
        a, b = np.delete(simplices[s], k)
        c = simplices[s, k]
        d = simplices[t].sum() - simplices[s].sum() + c
        if _orient(pts[c], pts[d], pts[a]) * _orient(pts[c], pts[d], pts[b]) < 0:
            simplices[s], simplices[t] = (c, d, a), (c, d, b)
            return (SimpleNamespace(simplices=simplices,
                                    neighbors=_facet_neighbors(simplices),
                                    coplanar=tri.coplanar,
                                    equations=_lifted_equations(pts, simplices),
                                    paraboloid_scale=1.0,
                                    paraboloid_shift=0.0),
                    (min(c, d), max(c, d)))
    raise AssertionError("no flippable edge")


def _sphere_images(seed, t, samples=4096, grid=None):
    domain = sample_sphere(2, samples, seed=seed, scheme="quasi_uniform")
    images = evaluate(random_map("sphere_harmonic", 3, seed=[seed, t],
                                 d_in=3), domain)
    if grid is not None:
        images = np.round(images, grid)
    return neighbors._clusters(images).reduced


def _lemma_case(case):
    """(points, triangulation, whether Delaunay's lemma must apply)."""
    if case.startswith("s2-"):  # "s2-seed-map"
        _, seed, t = case.split("-")
        pts = _sphere_images(int(seed), int(t))
        return pts, Delaunay(pts), True
    if case == "grid-rounded":
        pts = _sphere_images(1, 1000, grid=2)
        return pts, Delaunay(pts), False
    if case == "circle":
        domain = sample_sphere(1, 512, seed=0, scheme="quasi_uniform")
        pts = evaluate(random_map("circle_fourier", 2, seed=[3, 1000]), domain)
        return pts, Delaunay(pts), True
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(60, 2))
    if case == "flipped":
        return pts, _flipped(pts)[0], False
    if case == "sliver":
        # a triangle on the hull flattened to 1e-14: no circumball
        pts[:3] = (0.0, -0.5), (1.0, -0.5), (0.5, -0.5 + 1e-14)
        return pts, Delaunay(pts), False
    # case == "coplanar": a repeated point is left out of the triangulation
    pts = np.vstack([pts, pts[7]])
    tri = Delaunay(pts)
    assert len(tri.coplanar)
    return pts, tri, False


def _bytes(column):
    column = np.asarray(column)
    return column.dtype, column.shape, column.tobytes()


@pytest.mark.parametrize("case", [
    "s2-1-1000", "s2-1-1001", "s2-1-1002", "s2-1-1003",
    "s2-2-1014", "s2-10-1013",  # near-cospherical: margins near 2e-10
    "grid-rounded", "circle", "flipped", "sliver", "coplanar"])
def test_lemma_path_equals_kd_oracle(monkeypatch, case):
    pts, tri, lemma = _lemma_case(case)
    eps_inside = EPS_INSIDE_REL * image_diameter(pts)
    calls = _counting_clearance(monkeypatch)
    got = neighbors._delaunay_edge_certs(pts, tri, eps_inside, _tau_on(pts))
    assert (calls == []) == lemma
    # the oracle: every ball through the KD-tree clearance query
    monkeypatch.setattr(neighbors, "LOCAL_DELAUNAY_TAU", np.inf)
    oracle = neighbors._delaunay_edge_certs(pts, tri, eps_inside, _tau_on(pts))
    monkeypatch.undo()
    assert [_bytes(c) for c in got[0]] == [_bytes(c) for c in oracle[0]]
    assert got[1] == oracle[1]


def test_lemma_path_rejects_each_broken_hypothesis():
    pts = np.random.default_rng(5).uniform(size=(60, 2))
    tri = Delaunay(pts)
    _, centers, radii, _ = neighbors._circumballs(pts, tri, _tau_on(pts))
    assert neighbors._local_clearance(pts, tri, centers, radii) is not None
    left_out = SimpleNamespace(simplices=tri.simplices, neighbors=tri.neighbors,
                               coplanar=np.array([[0, 0, 0]]))
    assert neighbors._local_clearance(pts, left_out, centers, radii) is None
    # a sliver has no circumball: one fewer ball than simplices
    assert neighbors._local_clearance(pts, tri, centers[1:], radii[1:]) is None
    flipped, edge = _flipped(pts)
    _, centers, radii, _ = neighbors._circumballs(pts, flipped, _tau_on(pts))
    assert neighbors._local_clearance(pts, flipped, centers, radii) is None
    # the flipped edge's balls each hold the other apex: it fails
    eps_inside = EPS_INSIDE_REL * image_diameter(pts)
    assert edge in neighbors._delaunay_edge_certs(pts, flipped, eps_inside,
                                                  _tau_on(pts))[1]


def _no_clearance(*args):
    raise AssertionError("a KD-tree clearance query ran")


def test_generic_sphere_graph_makes_no_clearance_query(monkeypatch):
    domain = sample_sphere(2, 4096, seed=1, scheme="quasi_uniform")
    images = evaluate(random_map("sphere_harmonic", 3, seed=[1, 1004],
                                 d_in=3), domain)
    monkeypatch.setattr(neighbors, "_clearance", _no_clearance)
    graph = neighbor_graph(images, domain)
    monkeypatch.undo()
    monkeypatch.setattr(neighbors, "LOCAL_DELAUNAY_TAU", np.inf)
    oracle = neighbor_graph(images, domain)
    for name in ("pairs", "ball", "slack", "rho", "centers", "radii"):
        assert _bytes(getattr(graph, name)) == _bytes(getattr(oracle, name))


# --- neighbor_span: D_f without the full graph ---

def _span_path(monkeypatch, images, domain):
    """neighbor_span's value, whether it built the full graph, the results
    of the top-edge check (empty when it did not run) and the number of
    Delaunay triangulations."""
    built, top, qhull = [], [], []
    full, top_edge = neighbors._full_graph, neighbors._top_edge_span
    delaunay = neighbors.Delaunay
    monkeypatch.setattr(neighbors, "_full_graph",
                        lambda *a: built.append(1) or full(*a))
    monkeypatch.setattr(neighbors, "_top_edge_span",
                        lambda *a: top.append(top_edge(*a)) or top[-1])
    monkeypatch.setattr(neighbors, "Delaunay",
                        lambda *a: qhull.append(1) or delaunay(*a))
    span = neighbor_span(images, domain)
    monkeypatch.undo()
    return span, bool(built), top, len(qhull)


def _no_graph(*args):
    raise AssertionError("the early exit built the full graph")


def _assert_early_exit(monkeypatch, images, domain):
    monkeypatch.setattr(neighbors, "_full_graph", _no_graph)
    span = neighbor_span(images, domain)
    monkeypatch.undo()
    assert span == compute_df(neighbor_graph(images, domain), domain)


def test_span_early_exit_circle_maps(monkeypatch):
    domain = sample_sphere(1, 512, seed=0, scheme="quasi_uniform")
    for k in range(40):
        spec = random_map("circle_fourier", 2, seed=[k, 1000])
        _assert_early_exit(monkeypatch, evaluate(spec, domain), domain)


def test_span_early_exit_sphere_maps(monkeypatch):
    domain = sample_sphere(2, 1024, seed=0, scheme="quasi_uniform")
    for k in range(3):
        spec = random_map("sphere_harmonic", 3, seed=[k, 1000], d_in=3)
        _assert_early_exit(monkeypatch, evaluate(spec, domain), domain)


def _circle_map(n, m_out, seed=1):
    domain = sample_sphere(1, n, seed=0, scheme="quasi_uniform")
    return evaluate(random_map("circle_fourier", m_out, seed=seed), domain), domain


def test_span_early_exit_curve_in_r4(monkeypatch):
    _assert_early_exit(monkeypatch, *_circle_map(64, 4))


@pytest.mark.parametrize("case", ["clusters", "cosphere", "line", "cells",
                                  "constant"])
def test_span_fallbacks_equal_full_graph(monkeypatch, case):
    if case == "clusters":
        images, domain = _circle_map(512, 2)
        images = np.round(images, 2)
        assert len(np.unique(images, axis=0)) < len(domain)
    elif case == "cosphere":
        domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
        images = domain.samples.copy()
    elif case == "line":
        images, domain = _circle_map(512, 1)
    elif case == "cells":
        images = _grid(5, 5)
        domain = _identity_domain(images)
    else:
        domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
        images = np.tile([3.0, -1.0], (len(domain), 1))
    span, built, top, _ = _span_path(monkeypatch, images, domain)
    assert built and not top
    assert span == compute_df(neighbor_graph(images, domain), domain)


def test_span_falls_back_when_the_longest_edge_fails(monkeypatch):
    # the domain's farthest pair maps to the ends of a hull edge whose only
    # Delaunay triangle is flattened by a third image 1e-14 above it: that
    # sliver has no circumball, so the edge cannot be certified cheaply
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    i, j = np.triu_indices(len(domain), 1)
    rho = domain.rho_pairs(i, j)
    k = len(rho) - 1 - int(np.argmax(rho[::-1]))
    images = np.random.default_rng(0).uniform([0, 0.25], [1, 1],
                                              size=(len(domain), 2))
    images[i[k]], images[j[k]] = (0.0, 0.0), (1.0, 0.0)
    images[(j[k] + 1) % len(domain)] = (0.5, 1e-14)
    span, built, top, qhull = _span_path(monkeypatch, images, domain)
    # the full graph reuses the prelude's triangulation
    assert built and top == [None] and qhull == 1
    assert span == compute_df(neighbor_graph(images, domain), domain)


# --- the unit frame: the graph path does not see the map's scale ---

def _scale_free_case(case):
    """An S^1 -> R^2 map, the same rounded to 2 decimals (coincidence
    clusters and cospherical cells) or an S^2 -> R^3 map, with the
    standard cover."""
    if case == "sphere":
        domain = sample_sphere(2, 1024, seed=1, scheme="quasi_uniform")
        spec = random_map("sphere_harmonic", 3, seed=[1, 1000], d_in=3)
    else:
        domain = sample_sphere(1, 512, seed=0, scheme="quasi_uniform")
        spec = random_map("circle_fourier", 2, seed=[0, 5], d_in=2)
    images = evaluate(spec, domain)
    if case == "rounded":
        images = np.round(images, 2)
    return images, domain, regular_triangulation_cover(domain)


def _tuple_numbers(graph):
    return [(c.slack, c.witness.radius, *c.witness.center)
            for c in _tuple_certs(graph) if c.witness != "coincidence"]


@pytest.mark.parametrize("case", ["circle", "sphere", "rounded"])
def test_graph_path_is_scale_free(case):
    # Qhull refused the reduced images past about 1e80 (every pair then
    # went to the LP), and below a diameter of 1e-6 a floor on tau_on
    # made them cospherical; in the unit frame neither happens.  Scaling
    # by a power of two is exact, and the graph scales with it bit for
    # bit; any other scale rounds the images, which can move the cells of
    # a rounded map, so that map takes powers of two only
    images, domain, cover = _scale_free_case(case)
    base = neighbor_graph(images, domain)
    pair, df, _ = extremal_pair(base, domain)
    report = witness_point(domain, cover, images)
    assert report.status == "ok"
    assert neighbor_span(images, domain) == df
    if case == "rounded":
        assert _tuple_numbers(base) and len(base.tuple_start) > 1
        scales = (2.0**-60, 2.0**60)
    else:
        scales = (2.0**-60, 1e-13, 1e100, 1e150, 2.0**60)
    for scale in scales:
        scaled = images * scale
        graph = neighbor_graph(scaled, domain)
        assert graph.pairs.tolist() == base.pairs.tolist()
        assert ([c.indices for c in _tuple_certs(graph)]
                == [c.indices for c in _tuple_certs(base)])
        assert extremal_pair(graph, domain)[:2] == (pair, df)
        assert neighbor_span(scaled, domain) == df
        # the witness is the first live rainbow simplex, read off the
        # triangulation, so its contacts do not move either
        found = witness_point(domain, cover, scaled)
        assert found.status == "ok"
        assert found.residual <= 1e-15 * image_diameter(scaled)
        assert found.chosen == report.chosen
        if scale in (2.0**-60, 2.0**60):
            assert np.array_equal(graph.ball, base.ball)
            for name in ("centers", "radii", "slack"):
                assert (_bytes(getattr(graph, name))
                        == _bytes(getattr(base, name) * scale))
            assert _tuple_numbers(graph) == [
                tuple(v * scale for v in t) for t in _tuple_numbers(base)]


def test_a_jittered_lattice_sends_a_failed_edge_to_the_lp():
    # a real input that reaches the LP rescue at the default tolerance:
    # on the 8^3 lattice jittered by 1e-10, the diagonal (4, 0, 0)-(6, 2, 0)
    # of the face z = 0 is a Delaunay edge whose one live ball is a
    # sliver's, of radius 3e9, with a lattice point 9.5e-7 inside (eps
    # 7.6e-7); the LP says "no", so the graph has no row for it
    images, domain = _jittered_lattice()
    cl = neighbors._clusters(images)
    tri = neighbors._triangulation(cl)
    (lo, hi, *_), failed = neighbors._delaunay_edge_certs(
        cl.reduced, tri, EPS_INSIDE_REL * cl.diam, cl.tau_on)
    assert failed == [(256, 400)]
    assert pair_is_neighbor_fast(256, 400, images)[0] == "no"
    graph = neighbor_graph(images, domain)
    assert ({tuple(p) for p in graph.pairs.tolist()}
            == set(zip(lo.tolist(), hi.tolist())))


def test_zero_eps_inside_sends_failed_edges_to_the_lp():
    # a real input that reaches the LP rescue: at eps_inside_rel = 0 an
    # edge fails when its best ball's slack is below 0 by rounding, and
    # the LP certifies each such edge with a ball of its own
    images, domain = _circle_map(64, 2, seed=[0, 1000])
    cl = neighbors._clusters(images)
    tri = neighbors._triangulation(cl)
    failed = neighbors._delaunay_edge_certs(cl.reduced, tri, 0.0,
                                            cl.tau_on)[1]
    assert len(failed) == 34  # of 164 edges; none at the default tolerance
    assert not neighbors._delaunay_edge_certs(
        cl.reduced, tri, EPS_INSIDE_REL * cl.diam, cl.tau_on)[1]
    graph = neighbor_graph(images, domain, eps_inside_rel=0.0)
    assert graph.pairs.tolist() == neighbor_graph(images, domain).pairs.tolist()
    row = {pair: k for k, pair in enumerate(map(tuple, graph.pairs.tolist()))}
    balls = [graph.ball[row[pair]] for pair in failed]
    assert len(set(balls)) == len(failed) and min(balls) >= 0
    for pair in failed:  # no clusters: representative i is sample i
        cert = graph.row(row[pair])
        assert cert.slack >= 0.0
        assert check_certificate(cert, images, domain, eps_inside_rel=0.0)


# --- the mu prelude and top-edge check without search structures ---

def _kd_labels(images, eps):
    """Coincidence labels from the KD-tree pairs within eps, the
    reference for the gap test."""
    links = cKDTree(images).query_pairs(eps, output_type="ndarray")
    n = len(images)
    adjacency = coo_matrix((np.ones(len(links)), (links[:, 0], links[:, 1])),
                           shape=(n, n))
    return connected_components(adjacency, directed=False)[1]


def _no_tree(*args, **kwargs):
    raise AssertionError("a KD-tree was built")


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0 * (1 - 1e-9),
                                    2.0 * (1 + 1e-9), 3.0])
def test_gap_labels_equal_kd_labels(monkeypatch, factor):
    # images 0.01 apart along x, except a dozen gaps of factor * eps; the
    # y spread is smaller than the x spread, so x is the sorted axis, and
    # y offsets of eps / 2 put some close-in-x pairs beyond eps
    rng = np.random.default_rng(int(factor * 1e3))
    eps = 1e-3
    gaps = np.full(199, 0.01)
    gaps[rng.choice(199, 12, replace=False)] = factor * eps
    x = np.cumsum(np.r_[0.0, gaps])
    y = rng.choice([0.0, 0.5 * eps], size=200)
    images = np.c_[x, y][rng.permutation(200)]
    got = neighbors._coincidence_labels(images, eps)
    assert np.array_equal(got, _kd_labels(images, eps))
    # the same in any power-of-two unit, where the squares of these
    # distances underflow or overflow
    for scale in (2.0**-1000, 2.0**1000):
        assert np.array_equal(
            neighbors._coincidence_labels(images * scale, eps * scale), got)
    if factor > 2.0:
        monkeypatch.setattr(neighbors, "cKDTree", _no_tree)
        assert np.array_equal(neighbors._coincidence_labels(images, eps),
                              np.arange(200))


def test_gap_labels_equal_kd_labels_on_grid_rounded_maps():
    domain = sample_sphere(2, 2048, seed=0, scheme="quasi_uniform")
    clustered = 0
    for k, digits in itertools.product(range(3), (1, 2, 3)):
        spec = random_map("sphere_harmonic", 3, seed=[k, 1000], d_in=3)
        images = np.round(evaluate(spec, domain), digits)
        eps = neighbors.EPS_COINCIDE_REL * image_diameter(images)
        got = neighbors._coincidence_labels(images, eps)
        assert np.array_equal(got, _kd_labels(images, eps))
        clustered += got[-1] < len(domain) - 1
    assert clustered >= 6


def _top_edge_balls(images, domain):
    """The reduced images and the circumballs of the simplices around the
    top Delaunay edge of a generic map (the edge _top_edge_span checks),
    plus those of up to 300 other simplices."""
    reduced = neighbors._clusters(images).reduced
    tri = Delaunay(reduced)
    simplices = tri.simplices
    keys = neighbors._edge_keys(simplices, len(reduced))
    rho = domain.rho_pairs(*np.divmod(keys, len(reduced)))
    top = keys[rho == rho.max()].max()
    incident = np.flatnonzero(keys == top) % len(simplices)
    some = np.random.default_rng(0).choice(len(simplices),
                                           min(300, len(simplices)),
                                           replace=False)
    live, centers, radii, margin = neighbors._circumballs(
        reduced, tri, _tau_on(reduced), np.r_[incident, some])
    return reduced, (simplices[live], centers, radii, margin)


def _clearance_on(monkeypatch, branch, *args):
    """neighbors._clearance(*args) forced onto one branch: "direct" or
    "tree"."""
    monkeypatch.setattr(neighbors, "CLEARANCE_DIRECT_MAX",
                        np.inf if branch == "direct" else -1)
    got = neighbors._clearance(*args)
    monkeypatch.undo()
    return got


def _random_balls(count, dim, seed):
    """count random points in R^dim and 64 random balls, each with dim + 1
    members drawn from its 2 dim nearest points: no triangulation."""
    rng = np.random.default_rng([seed, dim])
    pts, centers = rng.normal(size=(count, dim)), rng.normal(size=(64, dim))
    near = cKDTree(pts).query(centers, k=2 * dim)[1]
    members = rng.permuted(near, axis=1)[:, :dim + 1]
    return pts, centers, rng.uniform(0.0, 0.1, size=64), members


@pytest.mark.parametrize("n, count, family, m_out, seeds", [
    (1, 512, "circle_fourier", 2, range(6)),
    (2, 512, "sphere_harmonic", 3, range(3)),
    (2, 4096, "sphere_harmonic", 3, range(2)),
    # the direct sum is cKDTree's in up to 7 dimensions only
    *[(None, 2000, "random", dim, range(3)) for dim in range(2, 8)]])
def test_direct_clearance_equals_kd_clearance(monkeypatch, n, count, family,
                                              m_out, seeds):
    for k in seeds:
        if family == "random":
            args = _random_balls(count, m_out, k)
        else:
            domain = sample_sphere(n, count, seed=1, scheme="quasi_uniform")
            spec = random_map(family, m_out, seed=[k, 1000], d_in=n + 1)
            pts, (splx, centers, radii, _) = _top_edge_balls(
                evaluate(spec, domain), domain)
            args = pts, centers, radii, splx
        want = _clearance_on(monkeypatch, "tree", *args)
        got = _clearance_on(monkeypatch, "direct", *args)
        assert _bytes(got) == _bytes(want)


def _scanned_clearance(pts, centers, radii, members):
    """_clearance's reference: one ball at a time, the distance to every
    point with the members masked."""
    out = np.empty(len(centers))
    for b, (center, radius, own) in enumerate(zip(centers, radii, members)):
        dist = np.sqrt(np.sum((pts - center) ** 2, axis=1))
        dist[own] = np.inf
        out[b] = dist.min() - radius
    return out


def _clearance_calls(monkeypatch, run):
    """The arguments of every _clearance call that run() makes."""
    calls, clearance = [], neighbors._clearance
    monkeypatch.setattr(neighbors, "_clearance",
                        lambda *a: calls.append(a) or clearance(*a))
    run()
    monkeypatch.undo()
    return calls


def _cell_run(seed):
    """The graph of a grid-rounded S^2 map: the edge pass's fallback and
    the cells, whose vertex sets are ragged."""
    domain = sample_sphere(2, 512, seed=seed, scheme="quasi_uniform")
    images = np.round(evaluate(random_map("sphere_harmonic", 3,
                                          seed=[seed, 1000], d_in=3),
                               domain), 1)
    return lambda: neighbor_graph(images, domain)


def _lp_run(seed):
    """pair_is_neighbor_fast on every pair of random points: Gabriel
    balls, and past them the LP's."""
    images = np.random.default_rng(seed).normal(size=(20, 3))
    return lambda: [neighbors.pair_is_neighbor_fast(i, j, images)
                    for i, j in itertools.combinations(range(20), 2)]


def _top_edge_run(seed):
    domain = sample_sphere(1, 512, seed=1, scheme="quasi_uniform")
    images = evaluate(random_map("circle_fourier", 2, seed=[seed, 1000]),
                      domain)
    return lambda: neighbor_span(images, domain)


@pytest.mark.parametrize("run", [_cell_run, _lp_run, _top_edge_run])
def test_clearance_equals_a_scan_on_both_branches(monkeypatch, run):
    calls = [c for seed in range(3)
             for c in _clearance_calls(monkeypatch, run(seed))]
    assert calls
    for args in calls:
        want = _bytes(_scanned_clearance(*args))
        for branch in ("direct", "tree"):
            assert _bytes(_clearance_on(monkeypatch, branch, *args)) == want
    if run is _cell_run:  # some vertex set is padded
        assert any(len(set(own)) < len(own)
                   for args in calls for own in args[3].tolist())
    if run is _lp_run:  # some center is the LP's, not a pair midpoint
        assert any((2.0 * centers != pts[members].sum(axis=1)).any()
                   for pts, centers, _, members in calls)


def test_generic_mu_evaluation_builds_no_kdtree(monkeypatch):
    domain = sample_sphere(1, 512, seed=1, scheme="quasi_uniform")
    for k in range(5):
        images = evaluate(random_map("circle_fourier", 2, seed=[k, 3]), domain)
        want = compute_df(neighbor_graph(images, domain), domain)
        monkeypatch.setattr(neighbors, "cKDTree", _no_tree)
        assert neighbor_span(images, domain) == want
        monkeypatch.undo()


# --- the top edge from edge instances, against the sort/unique oracle ---

def _top_edge_span_oracle(pts, tri, domain, eps_inside, tau_on):
    """The top-edge check with distinct edges from one sort of the edge
    keys: rho per distinct edge, the last maximum in (i, j) order, then
    the live balls of its simplices with distances scanned ball by
    ball."""
    keys = neighbors._edge_keys(tri.simplices, len(pts))
    edges = np.unique(keys)
    lo, hi = np.divmod(edges, len(pts))
    rho = domain.rho_pairs(lo, hi)
    k = len(rho) - 1 - int(np.argmax(rho[::-1]))
    incident = np.sort(np.flatnonzero(keys == edges[k]) % len(tri.simplices))
    live, centers, radii, margin = neighbors._circumballs(pts, tri, tau_on,
                                                         incident)
    splx = tri.simplices[live]
    clear = _scanned_clearance(pts, centers, radii, splx)
    other = (splx != lo[k]) & (splx != hi[k])
    slack = np.minimum(clear, np.where(other, margin, np.inf).min(axis=1))
    if len(slack) and slack.max() >= -eps_inside:
        return float(rho[k])
    return None


def _top_edge_both(monkeypatch, images, domain):
    """(span, oracle span) of the images' top edge, after checking that
    both read the balls of the same simplices."""
    cl = neighbors._clusters(images)
    tri = Delaunay(cl.reduced)
    args = (cl.reduced, tri, domain, EPS_INSIDE_REL * cl.diam,
            cl.tau_on)
    rows, balls = [], neighbors._lifted_balls
    monkeypatch.setattr(neighbors, "_lifted_balls",
                        lambda t, r: rows.append(list(r)) or balls(t, r))
    got, want = neighbors._top_edge_span(*args), _top_edge_span_oracle(*args)
    monkeypatch.undo()
    assert rows[0] == rows[1]
    return got, want


@pytest.mark.parametrize("n, count, family, m_out, seeds", [
    (1, 512, "circle_fourier", 2, range(12)),
    (1, 256, "circle_fourier", 3, range(4)),
    (2, 1024, "sphere_harmonic", 3, range(4))])
def test_top_edge_from_instances_equals_the_sorted_edges(monkeypatch, n, count,
                                                         family, m_out, seeds):
    # on the quasi-uniform circle rho depends only on the index gap, so
    # edges tie on rho everywhere and the tie rule decides the top edge
    domain = sample_sphere(n, count, seed=1, scheme="quasi_uniform")
    for k in seeds:
        spec = random_map(family, m_out, seed=[k, 1000], d_in=n + 1)
        got, want = _top_edge_both(monkeypatch, evaluate(spec, domain),
                                   domain)
        assert want is not None and got == want


def test_top_edge_ties_take_the_last_edge(monkeypatch):
    # rho depends only on the index gap up to rounding: a regular 12-gon,
    # its vertices moved off the circle, often has several Delaunay edges
    # at the very same top rho
    domain = sample_sphere(1, 12, seed=0, scheme="quasi_uniform")
    rng = np.random.default_rng(3)
    tied = 0
    for _ in range(60):
        images = domain.samples * rng.uniform(0.8, 1.2, size=(12, 1))
        got, want = _top_edge_both(monkeypatch, images, domain)
        assert got == want
        keys = np.unique(neighbors._edge_keys(Delaunay(images).simplices, 12))
        rho = domain.rho_pairs(*np.divmod(keys, 12))
        tied += (rho == rho.max()).sum() > 1
    assert tied >= 5


def test_top_edge_whose_balls_all_fail_gives_none(monkeypatch):
    # the input of test_span_falls_back_when_the_longest_edge_fails
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    i, j = np.triu_indices(len(domain), 1)
    rho = domain.rho_pairs(i, j)
    k = len(rho) - 1 - int(np.argmax(rho[::-1]))
    images = np.random.default_rng(0).uniform([0, 0.25], [1, 1],
                                              size=(len(domain), 2))
    images[i[k]], images[j[k]] = (0.0, 0.0), (1.0, 0.0)
    images[(j[k] + 1) % len(domain)] = (0.5, 1e-14)
    assert _top_edge_both(monkeypatch, images, domain) == (None, None)


# --- the closed-form cosphere test against fit_sphere ---

def _near_sphere(rng, d, arc, radius, noise, count=256):
    """count points on an arc (d = 2) or a cap (d = 3) of angular width
    arc of a sphere of the given radius about a random center, each moved
    radially by less than noise times tau_on of the noiseless points."""
    if d == 2:
        t = rng.uniform(0.0, arc, count)
        unit = np.c_[np.cos(t), np.sin(t)]
    else:
        z = rng.uniform(np.cos(min(arc, np.pi)), 1.0, count)
        phi = rng.uniform(0.0, 2 * np.pi, count)
        unit = np.c_[np.sqrt(1 - z * z) * np.cos(phi),
                     np.sqrt(1 - z * z) * np.sin(phi), z]
        unit = unit @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
    center = rng.normal(size=d) * radius
    tau = _tau_on(center + radius * unit)
    shift = rng.uniform(-1.0, 1.0, count) * noise * tau * (1 - 1e-6)
    return center + (radius + shift)[:, None] * unit


@pytest.mark.parametrize("d", [2, 3])
def test_cosphere_test_decides_as_fit_sphere(d):
    # near-spheres on both sides of tau_on: the closed-form sphere of
    # _clusters is accepted exactly when fit_sphere's lstsq sphere of the
    # same reduced points is, and the two worst residuals agree to within
    # 0.01 tau_on
    rng = np.random.default_rng(d)
    accepted = 0
    for arc, radius, noise in itertools.product(
            (2 * np.pi, np.pi, 0.3, 0.01, 1e-3, 1e-4), (1e-3, 1.0, 1e3),
            (0.5, 0.999, 1.5, 3.0)):
        for _ in range(10):
            pts = _near_sphere(rng, d, arc, radius, noise)
            cl = neighbors._clusters(pts)
            assert len(cl.sizes) == len(pts) and cl.reduced.shape[1] == d
            resid = fit_sphere(cl.reduced)[1]
            assert abs(cl.resid - resid) <= 0.01 * cl.tau_on
            assert (cl.sphere is not None) == (resid <= cl.tau_on)
            accepted += cl.sphere is not None
    assert 0 < accepted < 720
    # and Gaussian clouds are no sphere
    for _ in range(20):
        assert neighbors._clusters(rng.normal(size=(512, d))).sphere is None


@pytest.mark.parametrize("d", [2, 3])
def test_cosphere_rejection_never_fires_near_a_sphere(d):
    # the closed-form test rejects no point set within tau_on / 2 of a
    # sphere, and within 0.999 tau_on only those fit_sphere rejects too
    rng = np.random.default_rng(d)
    for arc, radius in itertools.product((2 * np.pi, np.pi, 0.3, 0.01),
                                         (1e-3, 1.0, 1e3)):
        for _ in range(10):
            cl = neighbors._clusters(_near_sphere(rng, d, arc, radius, 0.5))
            assert cl.sphere is not None
            cl = neighbors._clusters(_near_sphere(rng, d, arc, radius, 0.999))
            if cl.sphere is None:
                assert fit_sphere(cl.reduced)[1] > cl.tau_on


@pytest.mark.parametrize("d", [2, 3])
def test_cosphere_rejection_fires_on_generic_clouds(d):
    rng = np.random.default_rng(10 + d)
    fired = 0
    for _ in range(100):
        fired += neighbors._clusters(rng.normal(size=(512, d))).sphere is None
    assert fired >= 95


def test_identity_maps_still_give_the_all_sample_tuple():
    for n in (1, 2):
        domain = sample_sphere(n, 512, seed=0, scheme="quasi_uniform")
        graph = neighbor_graph(domain.samples.copy(), domain)
        assert graph.tuple_members.tolist() == list(range(len(domain)))
        assert graph.tuple_start.tolist() == [0]
        assert not len(graph.pairs)


def test_image_diameter():
    assert image_diameter(np.array([[0.0, 0.0], [3.0, 4.0]])) == pytest.approx(5.0)
    # the squares of these extents underflow or overflow; scaled by a
    # power of two they do not
    for scale in (1e-300, 1e-170, 1e170, 1e300):
        assert image_diameter(scale * np.array([[0.0, 0.0], [3.0, 4.0]])
                              ) == pytest.approx(5.0 * scale)
    assert image_diameter(np.array([[1.0, 1.0]])) == 0.0
