import math

import numpy as np
import pytest
from scipy.optimize import minimize, nnls

from fneighbors.geometry import (
    NotInHemisphereError,
    angle_from_chord,
    angular_diameter,
    chord_from_angle,
    circumsphere,
    dekster_lhs,
    min_enclosing_ball_angular,
    regular_edge_lengths,
    regular_simplex_vertices,
    separation_bound,
)


def fibonacci_grid(n_pts):
    """Deterministic quasi-uniform direction grid on S^2 (candidate centers
    for the brute-force circumradius oracle)."""
    k = np.arange(n_pts)
    z = 1.0 - 2.0 * (k + 0.5) / n_pts
    r = np.sqrt(1.0 - z * z)
    phi = k * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def brute_force_circ_angular(points, grid_size=20000):
    """Independent oracle for the angular circumradius on S^2: minimize the
    max angle over a fine candidate grid, then polish with a generic local
    search.  Used only to cross-check min_enclosing_ball_angular."""
    grid = np.vstack([fibonacci_grid(grid_size), points])
    dots = np.clip(grid @ points.T, -1.0, 1.0)
    radii = np.arccos(dots).max(axis=1)
    u0 = grid[np.argmin(radii)]

    def objective(v):
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            return math.pi
        return float(np.arccos(np.clip(points @ (v / nv), -1.0, 1.0)).max())

    res = minimize(objective, u0, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxfev": 4000})
    return min(float(res.fun), float(radii.min()))


def test_circumsphere_right_triangle():
    s = circumsphere(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(s.center, [1.0, 1.0], atol=1e-12)
    assert abs(s.radius - math.sqrt(2.0)) < 1e-12


def test_circumsphere_two_points():
    s = circumsphere(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(s.center, [1.0, 0.0], atol=1e-12)
    assert abs(s.radius - 1.0) < 1e-12


def test_circumsphere_collinear_degenerate():
    assert circumsphere(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])) is None


def test_circumsphere_coincident_pair():
    s = circumsphere(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert s.radius == 0.0
    assert np.allclose(s.center, [1.0, 2.0])


def test_circumsphere_residuals_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = rng.integers(2, 5)
        k = rng.integers(2, m + 2)
        pts = rng.normal(size=(k, m))
        s = circumsphere(pts)
        if s is None:
            continue
        assert np.max(np.abs(s.margins(pts))) <= 1e-9 * max(s.radius, 1.0)


def test_chord_angle_roundtrip():
    assert chord_from_angle(math.pi) == pytest.approx(2.0, abs=1e-15)
    assert chord_from_angle(0.0) == 0.0
    for theta in np.linspace(0.0, math.pi, 101):
        assert angle_from_chord(chord_from_angle(theta)) == pytest.approx(theta, abs=1e-12)
    with pytest.raises(ValueError):
        angle_from_chord(2.5)
    with pytest.raises(ValueError):
        angle_from_chord(-0.1)


def test_regular_edge_lengths_values():
    d_eu, d_ang = regular_edge_lengths(1)
    assert d_eu == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert chord_from_angle(d_ang) == pytest.approx(d_eu, abs=1e-12)
    d_eu2, d_ang2 = regular_edge_lengths(2)
    assert d_eu2 == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)
    assert chord_from_angle(d_ang2) == pytest.approx(d_eu2, abs=1e-12)
    for n in range(1, 51):
        d_eu, d_ang = regular_edge_lengths(n)
        assert abs(chord_from_angle(d_ang) - d_eu) < 1e-12


def test_separation_bound_values():
    assert separation_bound(1) == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert separation_bound(2) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert separation_bound(10) == pytest.approx(math.sqrt(1.2), abs=1e-15)
    vals = [separation_bound(n) for n in range(1, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 1.0 for v in vals)


def test_separation_bound_below_simplex_edge():
    # equality at n=1 (both sqrt(3)), strictly below for n >= 2
    d_eu1, _ = regular_edge_lengths(1)
    assert separation_bound(1) == pytest.approx(d_eu1, abs=1e-15)
    for n in range(2, 30):
        d_eu, _ = regular_edge_lengths(n)
        assert separation_bound(n) < d_eu


def test_regular_simplex_vertices_geometry():
    for n in (1, 2, 3, 5):
        v = regular_simplex_vertices(n)
        assert v.shape == (n + 2, n + 1)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        assert np.allclose(v[0], np.eye(n + 1)[-1], atol=1e-15)
        dots = v @ v.T
        off = dots[~np.eye(n + 2, dtype=bool)]
        assert np.allclose(off, -1.0 / (n + 1), atol=1e-12)
        d_eu, _ = regular_edge_lengths(n)
        for i in range(n + 2):
            for j in range(i + 1, n + 2):
                assert abs(np.linalg.norm(v[i] - v[j]) - d_eu) < 1e-9


def test_dekster_lhs_closed_forms():
    assert dekster_lhs(2, 0.0) == 0.0
    # arcsin(sqrt(3/4) * 1) = pi/3 => lhs = 2pi/3
    assert dekster_lhs(2, math.pi / 2) == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    with pytest.raises(ValueError):
        dekster_lhs(1, 0.3)
    with pytest.raises(ValueError):
        dekster_lhs(2, 2.0)


def test_dekster_inequality_against_bruteforce_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = rng.normal(size=(10, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        # keep the set inside an open hemisphere so circ_a < pi/2
        pts[pts[:, 2] < 0.2] *= 0.0
        pts = pts[np.linalg.norm(pts, axis=1) > 0.5]
        if len(pts) < 3:
            continue
        circ = brute_force_circ_angular(pts)
        diam = angular_diameter(pts)
        assert dekster_lhs(2, circ) <= diam + 1e-9


def test_min_enclosing_ball_matches_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(15):
        pts = rng.normal(size=(9, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.3
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        _, circ = min_enclosing_ball_angular(pts)
        circ_bf = brute_force_circ_angular(pts)
        assert circ == pytest.approx(circ_bf, abs=1e-6)


def test_min_enclosing_ball_simple_cases():
    p = np.array([[0.0, 0.0, 1.0]])
    c, r = min_enclosing_ball_angular(p)
    assert r == 0.0 and np.allclose(c, p[0])

    a = np.array([1.0, 0.0, 0.0])
    theta = 0.8
    b = np.array([math.cos(theta), math.sin(theta), 0.0])
    c, r = min_enclosing_ball_angular(np.vstack([a, b]))
    mid = (a + b) / np.linalg.norm(a + b)
    assert np.allclose(c, mid, atol=1e-9)
    assert r == pytest.approx(theta / 2.0, abs=1e-9)


def test_min_enclosing_ball_of_copies_is_exactly_zero():
    # arccos of the rounded dot of a point with itself gave 1.5e-8 on
    # seeds 2 and 4
    for seed in range(6):
        p = np.random.default_rng(seed).normal(size=3)
        p /= np.linalg.norm(p)
        for copies in (2, 3):
            c, r = min_enclosing_ball_angular(np.tile(p, (copies, 1)))
            assert r == 0.0 and np.array_equal(c, p)


@pytest.mark.parametrize("seed", range(4))
def test_min_enclosing_ball_tiny_cap(seed):
    # a 1e-9 rad cap in a random frame: three boundary points 120 degrees
    # apart around the center, plus points inside; the NNLS support alone
    # is lost to rounding here
    t = 1e-9
    rng = np.random.default_rng([1900, seed])
    frame, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    phi = rng.uniform(0.0, 2.0 * math.pi) + np.arange(3) * 2.0 * math.pi / 3.0
    tilt = np.concatenate([np.full(3, t), rng.uniform(0.0, 0.9 * t, size=4)])
    phi = np.concatenate([phi, rng.uniform(0.0, 2.0 * math.pi, size=4)])
    pts = np.column_stack([np.sin(tilt) * np.cos(phi),
                           np.sin(tilt) * np.sin(phi), np.cos(tilt)]) @ frame.T
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    _, r = min_enclosing_ball_angular(pts)
    assert r == pytest.approx(t, rel=1e-6)
    # two boundary points: the cap is half their angle, sqrt(3) t / 2
    _, r = min_enclosing_ball_angular(pts[:2])
    assert r == pytest.approx(math.sqrt(3.0) / 2.0 * t, rel=1e-6)
    # their angle, sqrt(3) t, keeps its digits in the chord form
    assert angular_diameter(pts[:2]) == pytest.approx(math.sqrt(3.0) * t,
                                                      rel=1e-6)


def test_angular_diameter_equals_arccos_form_on_wide_sets():
    rng = np.random.default_rng(11)
    for count in (1, 2, 5, 12):
        pts = rng.normal(size=(count, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        dots = np.clip(pts @ pts.T, -1.0, 1.0)
        assert angular_diameter(pts) == pytest.approx(
            float(np.arccos(dots.min())), abs=1e-7)
    assert angular_diameter(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])) == \
        pytest.approx(math.pi)


E1, E2, E3 = np.eye(3)
EQUATOR = np.array([[math.cos(k * 2.0 * math.pi / 3.0),
                     math.sin(k * 2.0 * math.pi / 3.0), 0.0] for k in range(3)])


def _tilted_hexagon():
    """Regular hexagon on a great circle of S^3 in a seeded random plane:
    its NNLS residual is rounding noise, not an exact zero."""
    basis, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(4, 2)))
    ang = np.arange(6) * math.pi / 3.0 + 0.3
    return np.column_stack([np.cos(ang), np.sin(ang)]) @ basis.T


@pytest.mark.parametrize("pts", [
    EQUATOR,                              # spans a plane, pole as center
    np.array([E1, -E1, E2, E3]),          # full rank, closed but not open
    np.array([E1, -E1, E2, -E2, E3]),
    _tilted_hexagon(),
], ids=["equator", "pm_e1_e2_e3", "pm_e1_pm_e2_e3", "tilted_hexagon"])
def test_min_enclosing_ball_great_circle_triangle(pts):
    # fits only in a closed hemisphere: circ_a = pi/2
    c, r = min_enclosing_ball_angular(pts)
    assert r == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
    assert (pts @ c).min() >= -1e-12


@pytest.mark.parametrize("pts", [
    regular_simplex_vertices(2),          # best min-dot -1/3
    np.vstack([np.eye(3), -np.eye(3)]),
    regular_simplex_vertices(3),          # on S^3
], ids=["tetrahedron", "octahedron", "simplex_s3"])
def test_min_enclosing_ball_rejects_spread_sets(pts):
    # no closed hemisphere contains the set
    with pytest.raises(NotInHemisphereError):
        min_enclosing_ball_angular(pts)


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-11])
def test_min_enclosing_ball_near_a_great_sphere(eps):
    # circ_a = pi/2 - eps exactly; the least-distance point is only about
    # eps long, so rounding must not tilt the center
    ang = 0.3 + np.arange(3) * 2.0 * math.pi / 3.0
    triangle = np.column_stack([math.cos(eps) * np.cos(ang),
                                math.cos(eps) * np.sin(ang),
                                np.full(3, math.sin(eps))])
    rot, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(4, 4)))
    pair = np.array([[math.cos(eps), math.sin(eps), 0.0, 0.0],
                     [-math.cos(eps), math.sin(eps), 0.0, 0.0],
                     [0.0, 0.6, 0.8, 0.0]]) @ rot.T
    for pts in (triangle, pair):
        _, r = min_enclosing_ball_angular(pts)
        assert r == pytest.approx(0.5 * math.pi - eps, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_min_enclosing_ball_optimality_on_higher_spheres(n):
    # optimality condition: the center lies in the cone of the farthest
    # points, so NNLS writes it from them with zero residual
    rng = np.random.default_rng([4400, n])
    for _ in range(10):
        pole = rng.normal(size=n + 1)
        pole /= np.linalg.norm(pole)
        tang = rng.normal(size=(12, n + 1))
        tang -= np.outer(tang @ pole, pole)
        tang /= np.linalg.norm(tang, axis=1, keepdims=True)
        tilt = rng.uniform(0.0, 1.2, size=(12, 1))
        pts = np.cos(tilt) * pole + np.sin(tilt) * tang
        c, r = min_enclosing_ball_angular(pts)
        angles = np.arccos(np.clip(pts @ c, -1.0, 1.0))
        assert angles.max() <= r + 1e-12
        active = pts[angles >= r - 1e-9]
        _, resid = nnls(active.T, c)
        assert resid <= 1e-10


def test_min_enclosing_ball_large_instance_path():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 3))
    pts[:, 2] = np.abs(pts[:, 2]) + 0.5
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    c, r = min_enclosing_ball_angular(pts)
    assert np.arccos(np.clip(pts @ c, -1, 1)).max() <= r + 1e-9
    assert r == pytest.approx(brute_force_circ_angular(pts), abs=1e-5)
