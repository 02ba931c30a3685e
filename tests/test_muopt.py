"""Optimization and verification-sweep tests, kept at small budgets; the
acceptance suite runs the full-scale configurations."""

import math

import numpy as np
import pytest

from fneighbors.domains import cube_boundary_cover, sample_sphere
from fneighbors.geometry import separation_bound
from fneighbors.maps import MapSpec, identity_fourier_params
from fneighbors.muopt import (
    BoundViolationError,
    DeltaHistogram,
    OptimizerConfig,
    delta_sweep,
    df_objective,
    estimate_mu,
    verify_borsuk_ulam,
    verify_sphere_bound,
)

TINY = OptimizerConfig(n_restarts=2, budget=60, n_probes=8, seed=0)


def test_objective_identity_embedding_df_two():
    domain = sample_sphere(1, 256, seed=0, scheme="quasi_uniform")
    obj = df_objective(domain, "circle_fourier", 2)
    df = obj(np.array(identity_fourier_params()))
    assert df == pytest.approx(2.0, abs=1e-12)
    assert df - separation_bound(1) > 0.2  # comfortable positive margin


def test_estimate_mu_constant_family_yields_diameter():
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    est = estimate_mu(domain, "constant", 2, TINY)
    assert est.best_df == pytest.approx(2.0, abs=1e-12)
    assert est.lower_bound == pytest.approx(math.sqrt(3.0))
    assert est.best_map.family == "constant"


def test_estimate_mu_deterministic_and_trace_monotone():
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    a = estimate_mu(domain, "circle_fourier", 2, TINY)
    b = estimate_mu(domain, "circle_fourier", 2, TINY)
    assert a.best_df == b.best_df
    assert a.best_map.params == b.best_map.params
    assert a.trace == b.trace
    vals = [v for _, v in a.trace]
    assert vals == sorted(vals, reverse=True)
    assert len(vals) >= 1
    evals = [i for i, _ in a.trace]
    assert evals == sorted(evals)


def test_verify_sphere_bound_small_run():
    report = verify_sphere_bound(1, 2, trials=5, n_samples=512, seed=0)
    assert report["all_ok"]
    assert report["bound"] == pytest.approx(math.sqrt(3.0))
    assert report["min_margin"] >= -0.05
    assert len(report["trials"]) == 5
    for row in report["trials"]:
        assert row["df"] >= report["bound"] - row["allowance"]
        assert row["extremal_pair"] is not None


def test_verify_sphere_bound_rejects_borsuk_ulam_regime():
    with pytest.raises(ValueError):
        verify_sphere_bound(2, 2, trials=1, n_samples=64)


def test_verify_borsuk_ulam_coincidences():
    report = verify_borsuk_ulam(trials=10, n_samples=1024, seed=0)
    assert report["all_ok"]
    for row in report["trials"]:
        assert row["rho"] == pytest.approx(2.0, abs=1e-12)
        assert row["image_gap"] <= row["allowance"]


def test_delta_sweep_identity_fills_range():
    domain = sample_sphere(1, 256, seed=0, scheme="quasi_uniform")
    spec = MapSpec(family="circle_fourier", m_out=2,
                   params=identity_fourier_params())
    hist = delta_sweep(domain, spec, bins=10)
    assert isinstance(hist, DeltaHistogram)
    assert hist.n_pairs == 256 * 255 // 2
    assert hist.d_max == pytest.approx(2.0, abs=1e-12)
    assert hist.d_min == pytest.approx(2.0 * math.sin(math.pi / 256), rel=1e-9)
    # every bin from the first occupied one onward sees some chord
    counts = np.asarray(hist.counts)
    first = np.flatnonzero(counts)[0]
    assert np.all(counts[first:] > 0)


def test_delta_sweep_constant_map():
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    spec = MapSpec(family="constant", m_out=2, params=(1.0, -2.0))
    hist = delta_sweep(domain, spec, bins=8)
    assert hist.n_pairs == 128 * 127 // 2
    assert hist.d_max == pytest.approx(2.0, abs=1e-12)


def test_delta_sweep_counts_distances_above_two():
    # the 5-cube boundary has diameter sqrt(5); every pair of the constant
    # map's one coincidence tuple lands in a bin
    domain, _ = cube_boundary_cover(5, 512, seed=0)
    spec = MapSpec(family="constant", m_out=2, params=(0.0, 0.0))
    hist = delta_sweep(domain, spec, bins=40)
    assert hist.n_pairs == 512 * 511 // 2
    assert hist.d_max > 2.0
    assert sum(hist.counts) == hist.n_pairs
    assert hist.bin_edges[-1] == hist.d_max


def test_bound_violation_carries_reproducer():
    err = BoundViolationError("boom", reproducer={"df": 1.0, "bound": 1.7})
    assert err.reproducer["bound"] == 1.7
    assert "boom" in str(err)
