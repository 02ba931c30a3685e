import numpy as np
import pytest
from scipy.spatial import cKDTree

from fneighbors.domains import (
    cube_boundary_cover,
    sample_sphere,
    simplex_boundary_cover,
)
from fneighbors.maps import (
    MapSpec,
    continuity_modulus,
    default_family,
    discretization_allowance,
    evaluate,
    identity_fourier_params,
    map_from_json,
    map_to_json,
    param_count,
    random_map,
)

# frozen draw for (circle_fourier, m_out=2, K=3, seed=7, scale=1)
FOURIER_SEED7 = (
    0.25019093320933394, 0.794427601939151, 0.551371380490387,
    -0.5495856200188163, -0.39966743017754913, 0.7471068907925238,
    -0.9894693908688506, 0.6424568367655326, 0.5941388575040925,
    -0.06413009431255845, -0.39393514636137295, -0.44314877579845335,
    -0.4902608246917508, -0.10984738823470686,
)


def test_constant_map():
    d = sample_sphere(1, 16, scheme="quasi_uniform")
    spec = MapSpec("constant", 3, (1.0, -2.0, 0.5))
    img = evaluate(spec, d)
    assert img.shape == (16, 3)
    assert np.all(img == [1.0, -2.0, 0.5])


def test_identity_embed_s1():
    d = sample_sphere(1, 8, scheme="quasi_uniform")
    img = evaluate(MapSpec("identity_embed", 2, ()), d)
    assert np.array_equal(img, d.samples)
    img3 = evaluate(MapSpec("identity_embed", 3, ()), d)
    assert np.array_equal(img3[:, :2], d.samples)
    assert np.all(img3[:, 2] == 0.0)
    with pytest.raises(ValueError):
        evaluate(MapSpec("identity_embed", 1, ()), d)


def test_affine_zero_matrix_is_constant():
    d = sample_sphere(1, 8, scheme="quasi_uniform")
    spec = MapSpec("affine", 2, (0, 0, 0, 0, 3.0, -1.0))
    img = evaluate(spec, d)
    assert np.all(img == [3.0, -1.0])


def test_circle_fourier_identity_params():
    d = sample_sphere(1, 128, seed=1, scheme="quasi_uniform")
    spec = MapSpec("circle_fourier", 2, identity_fourier_params(degree=3))
    img = evaluate(spec, d)
    ref = evaluate(MapSpec("identity_embed", 2, ()), d)
    assert np.max(np.abs(img - ref)) < 1e-12


def test_random_map_deterministic_and_frozen():
    spec = random_map("circle_fourier", 2, seed=7, scale=1.0, degree=3)
    assert spec.params == FOURIER_SEED7
    again = random_map("circle_fourier", 2, seed=7, scale=1.0, degree=3)
    assert spec == again
    other = random_map("circle_fourier", 2, seed=8, scale=1.0, degree=3)
    assert spec != other


def test_random_map_scale_zero():
    spec = random_map("affine", 2, seed=0, scale=0.0, d_in=2)
    d = sample_sphere(1, 8, scheme="quasi_uniform")
    assert np.all(evaluate(spec, d) == 0.0)


def test_param_counts():
    assert param_count("circle_fourier", 2, d_in=2, degree=3) == 14
    assert param_count("affine", 3, d_in=2) == 9
    assert param_count("sphere_harmonic", 3, d_in=3) == 30
    assert param_count("radial_warp", 2, d_in=2) == 7
    assert param_count("identity_embed", 5, d_in=3) == 0


def test_sphere_harmonic_domain_guard():
    d1 = sample_sphere(1, 8, scheme="quasi_uniform")
    spec = random_map("sphere_harmonic", 2, seed=0, d_in=2)
    with pytest.raises(ValueError):
        evaluate(spec, d1)
    d2 = sample_sphere(2, 8, scheme="quasi_uniform")
    spec2 = random_map("sphere_harmonic", 3, seed=0, d_in=3)
    img = evaluate(spec2, d2)
    assert img.shape == (len(d2), 3)


def test_default_family_evaluates_on_every_domain():
    domains = [sample_sphere(n, 64, scheme="quasi_uniform") for n in (1, 2, 3, 4)]
    domains += [simplex_boundary_cover(3, 64)[0], cube_boundary_cover(2, 64)[0]]
    got = []
    for d in domains:
        family = default_family(d)
        got.append(family)
        spec = random_map(family, 3, seed=1, d_in=d.samples.shape[1])
        assert np.isfinite(evaluate(spec, d)).all()
    assert got == ["circle_fourier", "sphere_harmonic"] + ["poly_quadratic"] * 4


def test_poly_quadratic_on_cube():
    domain, _ = cube_boundary_cover(2, 64, seed=0)
    spec = random_map("poly_quadratic", 2, seed=4, d_in=2)
    img = evaluate(spec, domain)
    assert img.shape == (len(domain), 2)
    assert np.isfinite(img).all()


def test_radial_warp_positive_factor():
    d = sample_sphere(1, 64, scheme="quasi_uniform")
    spec = MapSpec("radial_warp", 2, (0.2, 0.1, -0.3, 1.0, 0.0, 0.0, 1.0))
    img = evaluate(spec, d)
    # matrix is the identity, so |image| = g > 0 and direction is preserved
    norms = np.linalg.norm(img, axis=1)
    assert np.all(norms > 0)
    assert np.allclose(img / norms[:, None], d.samples, atol=1e-12)


def test_continuity_modulus_identity():
    d = sample_sphere(1, 256, scheme="quasi_uniform")
    img = evaluate(MapSpec("identity_embed", 2, ()), d)
    assert continuity_modulus(img, d) == pytest.approx(1.0, abs=1e-9)
    const = evaluate(MapSpec("constant", 2, (1.0, 1.0)), d)
    assert continuity_modulus(const, d) == 0.0
    assert discretization_allowance(img, d) == pytest.approx(2 * d.mesh_size(), rel=1e-9)
    # the same values as from a fresh KD-tree query, on every domain kind
    cases = [(sample_sphere(2, 300, seed=1), "sphere_harmonic", 3),
             (cube_boundary_cover(3, 400, seed=2)[0], "poly_quadratic", 3),
             (simplex_boundary_cover(3, 200, seed=3)[0], "poly_quadratic", 2)]
    for d, family, m_out in cases:
        img = evaluate(random_map(family, m_out, seed=5, d_in=3), d)
        dist, idx = cKDTree(d.samples).query(d.samples, k=2)
        ratio = np.linalg.norm(img - img[idx[:, 1]], axis=1) / dist[:, 1]
        assert continuity_modulus(img, d) == float(ratio.max())
        assert discretization_allowance(img, d) == (
            2.0 * float(ratio.max()) * float(dist[:, 1].max()))


def test_map_json_roundtrip():
    spec = random_map("circle_fourier", 2, seed=7, scale=1.0, degree=3)
    text = map_to_json(spec)
    assert map_from_json(text) == spec
    assert map_to_json(map_from_json(text)) == text


# --- map bases cached on the domain ---

@pytest.mark.parametrize("family, domain, m_out", [
    ("circle_fourier", sample_sphere(1, 128, seed=2), 2),
    ("sphere_harmonic", sample_sphere(2, 128, seed=2), 3),
    ("poly_quadratic", cube_boundary_cover(3, 200, seed=2)[0], 2)])
def test_cached_basis_is_read_only_and_equals_a_fresh_one(family, domain,
                                                          m_out):
    spec = random_map(family, m_out, seed=4, d_in=domain.samples.shape[1])
    first = evaluate(spec, domain)
    (key, basis), = domain.bases.items()
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 1.0
    x = domain.samples
    if family == "circle_fourier":
        theta = np.arctan2(x[:, 1], x[:, 0])
        fresh = np.column_stack([np.ones(len(x))] + [
            f(k * theta) for k in (1, 2, 3) for f in (np.cos, np.sin)])
    else:
        d = x.shape[1]
        fresh = np.column_stack([np.ones(len(x))] + [x[:, i] for i in range(d)]
                                + [x[:, i] * x[:, j] for i in range(d)
                                   for j in range(i, d)])
    assert basis.tobytes() == fresh.tobytes()
    coeff = np.asarray(spec.params).reshape(m_out, -1)
    assert first.tobytes() == (fresh @ coeff.T).tobytes()
    # a second map reads the same basis, and a second degree gets its own
    assert evaluate(random_map(family, m_out, seed=5,
                               d_in=x.shape[1]), domain).shape == (len(x), m_out)
    assert domain.bases[key] is basis
    if family == "circle_fourier":
        evaluate(random_map(family, m_out, seed=5, degree=1), domain)
        assert len(domain.bases) == 2


def test_threads_share_the_cached_basis():
    from concurrent.futures import ThreadPoolExecutor
    domain = sample_sphere(2, 512, seed=3)
    specs = [random_map("sphere_harmonic", 3, seed=k, d_in=3) for k in range(8)]
    want = [evaluate(s, sample_sphere(2, 512, seed=3)).tobytes() for s in specs]
    with ThreadPoolExecutor(max_workers=4) as ex:
        got = list(ex.map(lambda s: evaluate(s, domain).tobytes(), specs))
    assert got == want and len(domain.bases) == 1
