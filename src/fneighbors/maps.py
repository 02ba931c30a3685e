"""Parametric map families from sampled domains into R^m.

A MapSpec is pure data (family name, output dimension, flat parameter
tuple); evaluation is deterministic and vectorized over the sample set.
Parameter layouts are documented per family below; where a family needs a
shape hint (input dimension, trig degree), it is inferred from the
parameter count so that specs serialize as plain JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .domains import SampledDomain

__all__ = [
    "MapSpec",
    "evaluate",
    "random_map",
    "default_family",
    "param_count",
    "check_fit",
    "continuity_modulus",
    "map_to_json",
    "map_from_json",
    "FAMILIES",
]

FAMILIES = (
    "constant",
    "affine",
    "identity_embed",
    "circle_fourier",
    "sphere_harmonic",
    "poly_quadratic",
    "radial_warp",
)


@dataclass(frozen=True)
class MapSpec:
    """family name, target dimension, flat float parameters."""

    family: str
    m_out: int
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.m_out < 1:
            raise ValueError("m_out >= 1 required")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))


def _quad_basis(x: np.ndarray) -> np.ndarray:
    """[1, x_i, x_i*x_j (i<=j)] monomials per row; deterministic order."""
    n, d = x.shape
    cols = [np.ones(n)]
    cols.extend(x[:, i] for i in range(d))
    for i in range(d):
        for j in range(i, d):
            cols.append(x[:, i] * x[:, j])
    return np.column_stack(cols)


def _fourier_basis(x: np.ndarray, k_deg: int) -> np.ndarray:
    """[1, cos(t), sin(t), ..., cos(K t), sin(K t)] per row of circle
    samples x, t the angle of the row."""
    theta = np.arctan2(x[:, 1], x[:, 0])
    harmonics = [np.ones(len(x))]
    for k in range(1, k_deg + 1):
        harmonics.append(np.cos(k * theta))
        harmonics.append(np.sin(k * theta))
    return np.column_stack(harmonics)  # (n, 2K+1)


def _basis(domain: SampledDomain, key: tuple, build) -> np.ndarray:
    """The basis named key over the domain's samples, from build() on
    first use, then from domain.bases: evaluate is one matmul per map.
    It is read-only, as every map of the domain multiplies the same
    array; two threads that miss at once store equal arrays."""
    basis = domain.bases.get(key)
    if basis is None:
        basis = build()
        basis.flags.writeable = False
        domain.bases[key] = basis
    return basis


def _quad_basis_size(d: int) -> int:
    return 1 + d + d * (d + 1) // 2


def param_count(family: str, m_out: int, d_in: int, degree: int = 3) -> int:
    """Number of parameters the family expects.

    Layouts (all row-major, output coordinate varying slowest):
      constant        m_out                      the constant point
      affine          m_out*d_in + m_out          matrix rows then offset
      identity_embed  0
      circle_fourier  m_out*(2*degree+1)          per coord: a0, a1, b1, ..., aK, bK
      sphere_harmonic m_out*(1+d_in+d_in(d_in+1)/2)  quadratic monomial weights
      poly_quadratic  same as sphere_harmonic
      radial_warp     (1+d_in) + m_out*d_in       radial log-factor, then matrix
    """
    if family == "constant":
        return m_out
    if family == "affine":
        return m_out * d_in + m_out
    if family == "identity_embed":
        return 0
    if family == "circle_fourier":
        return m_out * (2 * degree + 1)
    if family in ("sphere_harmonic", "poly_quadratic"):
        return m_out * _quad_basis_size(d_in)
    if family == "radial_warp":
        return 1 + d_in + m_out * d_in
    raise ValueError(f"unknown family {family!r}")


def check_fit(spec: MapSpec, kind: str, dim: int, d_in: int) -> None:
    """Raises ValueError unless the map is defined on a domain of this kind
    and dimension (SampledDomain.kind, .dim) with samples in R^d_in, with
    param_count's number of parameters.  evaluate and the command line
    both read this one rule."""
    family, m, count = spec.family, spec.m_out, len(spec.params)
    if family == "circle_fourier" and (kind, dim) != ("sphere", 1):
        raise ValueError("circle_fourier is defined on sphere(1) domains")
    if family == "sphere_harmonic" and (kind, dim) != ("sphere", 2):
        raise ValueError("sphere_harmonic is defined on sphere(2) domains")
    if family == "identity_embed" and m < d_in:
        raise ValueError(f"identity_embed needs m_out >= {d_in}, the "
                         "ambient dimension")
    # circle_fourier reads its degree K from the count, m_out*(2K+1)
    want = param_count(family, m, d_in, degree=count // (2 * m))
    if count != want:
        raise ValueError(f"{family} expects {want} parameters here, not {count}")


def evaluate(spec: MapSpec, domain: SampledDomain) -> np.ndarray:
    """Images of every domain sample under the map, as an (N, m_out) array;
    check_fit's ValueError when the map does not fit the domain."""
    x = domain.samples
    n, d = x.shape
    m = spec.m_out
    p = np.asarray(spec.params, dtype=float)
    check_fit(spec, domain.kind, domain.dim, d)

    if spec.family == "constant":
        return np.tile(p, (n, 1))

    if spec.family == "affine":
        a = p[: m * d].reshape(m, d)
        b = p[m * d:]
        return x @ a.T + b

    if spec.family == "identity_embed":
        out = np.zeros((n, m))
        out[:, :d] = x
        return out

    if spec.family == "circle_fourier":
        k_deg = (len(p) // m - 1) // 2
        basis = _basis(domain, ("circle_fourier", k_deg),
                       lambda: _fourier_basis(x, k_deg))
        return basis @ p.reshape(m, -1).T

    if spec.family in ("sphere_harmonic", "poly_quadratic"):
        basis = _basis(domain, ("quadratic",), lambda: _quad_basis(x))
        return basis @ p.reshape(m, -1).T

    # radial_warp: positive radial factor exp(c0 + <c, x>); the exponent is
    # clipped so optimizer excursions cannot overflow
    t = p[0] + x @ p[1: 1 + d]
    g = np.exp(np.clip(t, -8.0, 8.0))
    a = p[1 + d:].reshape(m, d)
    return g[:, None] * (x @ a.T)


def default_family(domain: SampledDomain) -> str:
    """The family of a random map when none is named: circle_fourier on
    S^1, sphere_harmonic on S^2, poly_quadratic (defined on every domain)
    otherwise."""
    if domain.kind == "sphere" and domain.dim == 1:
        return "circle_fourier"
    if domain.kind == "sphere" and domain.dim == 2:
        return "sphere_harmonic"
    return "poly_quadratic"


def random_map(family: str, m_out: int, seed, scale: float = 1.0,
               d_in: int = 2, degree: int = 3) -> MapSpec:
    """MapSpec with parameters drawn i.i.d. uniform in [-scale, scale] from
    a named PCG64 stream.  seed may be an int or a sequence of ints (stream
    key); identical seeds give identical specs.  scale=0 gives the zero map.
    """
    count = param_count(family, m_out, d_in, degree)
    rng = np.random.default_rng(seed)
    params = rng.uniform(-scale, scale, size=count) if count else np.empty(0)
    return MapSpec(family=family, m_out=m_out, params=tuple(params))


def continuity_modulus(images: np.ndarray, domain: SampledDomain) -> float:
    """Finite-difference modulus max |f(x)-f(y)| / rho(x,y) over
    nearest-neighbor sample pairs; 0 for constant maps."""
    nn_dist, nn_idx = domain.nearest_neighbors
    img_dist = np.linalg.norm(images - images.take(nn_idx, axis=0), axis=1)
    good = nn_dist > 1e-15
    if not good.any():
        return 0.0
    return float((img_dist[good] / nn_dist[good]).max())


def discretization_allowance(images: np.ndarray, domain: SampledDomain) -> float:
    """delta_N = 2 * modulus * mesh: the distance slack a sample-level
    certificate inherits from discretizing the continuous domain."""
    return 2.0 * continuity_modulus(images, domain) * domain.mesh_size()


def map_to_json(spec: MapSpec) -> str:
    return json.dumps({"family": spec.family, "m_out": spec.m_out,
                       "params": list(spec.params)}, sort_keys=True)


def map_from_json(text: str) -> MapSpec:
    """The MapSpec of map_to_json's text; ValueError for a parameter that
    is not a finite number."""
    doc = json.loads(text)
    params = tuple(doc["params"])
    if not np.isfinite(np.asarray(params, dtype=float)).all():
        raise ValueError("map parameters must be finite")
    return MapSpec(family=doc["family"], m_out=int(doc["m_out"]),
                   params=params)


def identity_fourier_params(m_out: int = 2, degree: int = 1) -> tuple[float, ...]:
    """circle_fourier parameters reproducing identity_embed on S^1."""
    per = 2 * degree + 1
    p = np.zeros(m_out * per)
    p[1] = 1.0          # cos(theta) into coordinate 0
    if m_out >= 2:
        p[per + 2] = 1.0  # sin(theta) into coordinate 1
    return tuple(p)
